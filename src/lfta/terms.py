"""Ranked trees, one-hole contexts, root-to-leaf path words, homomorphisms.

Trees are immutable and structurally hashable.  The text syntax is
``f(g(f(x,x)),y)`` for trees (with ``@`` as the context hole) and
``f.1 g.1 f.1 x`` for path words, chosen so that symbol names containing
digits stay unambiguous.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import attrgetter

from .errors import ArityMismatchError, NotAlphabeticError, NotInjectiveError, ParseError, ValidationError

HOLE = "@"
_VAR = re.compile(r"^\$(\d+)$")


def var(i):
    """The i-th substitution variable used in homomorphism images."""
    return Tree(f"${i}")


class Tree:
    """An immutable ranked tree; a leaf is a node with no children."""

    __slots__ = ("symbol", "children", "_hash", "_height")

    def __init__(self, symbol, children=()):
        _set_symbol(self, symbol)
        _set_children(self, tuple(children))
        _set_hash(self, None)
        _set_height(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("trees are immutable")

    @property
    def is_leaf(self):
        return not self.children

    @property
    def root(self):
        return self.symbol

    @property
    def height(self):
        h = self._height
        if h is None:
            for node in _uncached_postorder(self, _get_height):
                _set_height(node, 1 + max(map(_get_height, node.children)) if node.children else 0)
            h = self._height
        return h

    def _preorder(self):
        """Every node once, parents before children, children left to right.

        One pass with an explicit stack, so deep trees need no recursion.
        """
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def subtrees(self):
        return set(self._preorder())

    def leaf_set(self):
        return {node.symbol for node in self._preorder() if not node.children}

    def leaves(self):
        """Leaf symbols in left-to-right frontier order (with repeats)."""
        return [node.symbol for node in self._preorder() if not node.children]

    def size(self):
        return sum(1 for _ in self._preorder())

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Tree)
            and self.symbol == other.symbol
            and self.children == other.children
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            for node in _uncached_postorder(self, _get_hash):
                _set_hash(node, hash((node.symbol, node.children)))  # the children's hashes are cached
            h = self._hash
        return h

    def __str__(self):
        # the stack holds trees still to print and the punctuation after them
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            if node.__class__ is str:
                out.append(node)
            elif node.children:
                children = node.children
                out.append(f"{node.symbol}(")
                stack.append(")")
                for c in children[:0:-1]:
                    stack += (c, ",")
                stack.append(children[0])
            else:
                out.append(str(node.symbol))
        return "".join(out)

    def __repr__(self):
        return f"Tree[{self}]"

    def __lt__(self, other):
        return str(self) < str(other)


# the slot setters, bound once: `Tree.__setattr__` refuses every assignment
_set_symbol, _set_children, _set_hash, _set_height = (
    Tree.symbol.__set__,
    Tree.children.__set__,
    Tree._hash.__set__,
    Tree._height.__set__,
)
_children = attrgetter("children")
_get_hash, _get_height = attrgetter("_hash"), attrgetter("_height")


def _uncached_postorder(root, cached):
    """Yield the nodes of `root` whose lazy cache `cached(node)` is None, children first.

    The caller fills each node's cache as it is yielded, from its
    children's: a node comes after all of its children are filled, and a
    node shared by several parents comes once.  Caches fill bottom-up, so a
    filled node's subtree is filled too and is not entered.  One pass with
    an explicit stack, so deep trees need no recursion; a None on the stack
    marks the node beneath it as ready once its children are done.
    """
    stack = [root]
    while stack:
        node = stack.pop()
        if node is None:
            node = stack.pop()
            if cached(node) is None:
                yield node
        elif cached(node) is None:
            stack += (node, None)
            stack += node.children


def _fold(root, children, combine):
    """Post-order fold with an explicit stack, so trees of any height need no recursion.

    `children(item)` lists an item's children; `combine(item, results)`
    receives the item with its children's results, in order.  One pass
    records the items parents first, then a second combines them in reverse.
    """
    order, stack = [], [root]
    while stack:
        item = stack.pop()
        kids = children(item)
        order.append((item, len(kids)))
        stack.extend(kids)  # last child on top: the reverse pass meets the first child first
    results = []
    for item, n in reversed(order):
        if n:
            args = results[-n:]
            del results[-n:]
            results.append(combine(item, args))
        else:
            results.append(combine(item, ()))
    return results[0]


def metrics(t):
    """Root symbol, height, subtree set and leaf-symbol set of a tree."""
    return {
        "root": t.root,
        "height": t.height,
        "subtrees": t.subtrees(),
        "leaf_set": t.leaf_set(),
    }


class RankedAlphabet:
    """Operation symbols with arities >= 1 plus a disjoint leaf alphabet."""

    __slots__ = ("symbols", "leaves", "_arity")

    def __init__(self, symbols, leaves):
        symbols = tuple(symbols.items()) if isinstance(symbols, dict) else tuple(symbols)
        leaves = tuple(leaves)
        arity = dict(symbols)
        if len(arity) != len(symbols):
            raise ValidationError("duplicate operation symbol")
        for name, m in symbols:
            if m < 1:
                raise ValidationError(f"nullary symbol {name!r} not allowed")
        if not leaves:
            raise ValidationError("leaf alphabet must be nonempty")
        if len(set(leaves)) != len(leaves):
            raise ValidationError("duplicate leaf name")
        if set(arity) & set(leaves):
            raise ValidationError("operation symbols and leaves must be disjoint")
        self.symbols = symbols
        self.leaves = leaves
        self._arity = arity

    def arity(self, name):
        try:
            return self._arity[name]
        except KeyError:
            raise ValidationError(f"unknown symbol {name!r}") from None

    def is_symbol(self, name):
        return name in self._arity

    def is_leaf(self, name):
        return name in self.leaves

    def path_letters(self):
        """The path alphabet: one letter (f, i) per child slot."""
        return [(f, i) for f, m in self.symbols for i in range(1, m + 1)]

    def __eq__(self, other):
        return (
            isinstance(other, RankedAlphabet)
            and self.symbols == other.symbols
            and self.leaves == other.leaves
        )

    def __hash__(self):
        return hash((self.symbols, self.leaves))

    def __repr__(self):
        syms = ",".join(f"{f}/{m}" for f, m in self.symbols)
        return f"RankedAlphabet({syms}; {','.join(self.leaves)})"

    def validate_tree(self, t, extra_leaves=()):
        """Check arities and leaf membership throughout `t`, reporting the first fault in preorder."""
        leaves, arity, stack = self.leaves, self.arity, [t]
        while stack:
            node = stack.pop()
            children = node.children
            if not children:
                if not (node.symbol in leaves or node.symbol in extra_leaves):
                    raise ValidationError(f"unknown leaf {node.symbol!r}")
                continue
            m = arity(node.symbol)
            if len(children) != m:
                raise ArityMismatchError(f"{node.symbol!r} expects {m} children, got {len(children)}")
            stack += children[::-1]

    def validate_path(self, r):
        """Check that each letter of path word `r` names a child slot of its symbol and that it ends in a leaf."""
        for f, i in r.letters:
            m = self.arity(f)
            if not 1 <= i <= m:
                raise ValidationError(f"{f!r} has no child {i}, its arity is {m}")
        if r.leaf not in self.leaves:
            raise ValidationError(f"unknown leaf {r.leaf!r}")


# -- parsing ------------------------------------------------------------

_TOKEN = re.compile(r"[^(),\s]+|[(),]")


def parse_tree(text):
    tokens = _TOKEN.findall(text)  # every character but whitespace lands in some token
    pos = 0

    def node():
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] in "(),":
            raise ParseError(f"expected a symbol in {text!r}")
        symbol = tokens[pos]
        pos += 1
        if pos < len(tokens) and tokens[pos] == "(":
            pos += 1
            children = [node()]
            while pos < len(tokens) and tokens[pos] == ",":
                pos += 1
                children.append(node())
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ParseError(f"missing ')' in {text!r}")
            pos += 1
            return Tree(symbol, children)
        return Tree(symbol)

    t = node()
    if pos != len(tokens):
        raise ParseError(f"trailing input in tree {text!r}")
    return t


@dataclass(frozen=True)
class PathWord:
    """A root-to-leaf path: (symbol, child-index) letters ending in a leaf."""

    letters: tuple
    leaf: str

    def __str__(self):
        return " ".join([f"{f}.{i}" for f, i in self.letters] + [self.leaf])

    def __len__(self):
        return len(self.letters)

    def __lt__(self, other):
        return str(self) < str(other)


def parse_path(text):
    tokens = text.split()
    if not tokens:
        raise ParseError("empty path")
    letters = []
    for tok in tokens[:-1]:
        name, dot, idx = tok.rpartition(".")
        if not dot or not idx.isdigit():
            raise ParseError(f"bad path letter {tok!r}")
        letters.append((name, int(idx)))
    return PathWord(tuple(letters), tokens[-1])


def delta(t):
    """All root-to-leaf path words of `t`, sorted for reproducibility.

    Each path word names its leaf's position, so no two are equal and the
    tuple is the set of paths.
    """
    # a stack entry is a node, the length of its parent's path and the letter into it
    out, prefix, stack = [], [], [(t, 0, None)]
    while stack:
        node, depth, letter = stack.pop()
        del prefix[depth:]
        if letter is not None:
            prefix.append(letter)
        if node.children:
            symbol, below = node.symbol, len(prefix)
            stack += [(c, below, (symbol, i)) for i, c in enumerate(node.children, start=1)]
        else:
            out.append(PathWord(tuple(prefix), node.symbol))
    return tuple(sorted(out, key=str))


# -- contexts -----------------------------------------------------------

class Context:
    """A tree over the alphabet plus one ``@`` hole leaf."""

    __slots__ = ("tree",)

    def __init__(self, tree):
        holes = sum(1 for s in tree.leaves() if s == HOLE)
        if holes != 1:
            raise ValidationError(f"context needs exactly one hole, found {holes}")
        object.__setattr__(self, "tree", tree)

    def __setattr__(self, name, value):
        raise AttributeError("contexts are immutable")

    @property
    def depth(self):
        """Distance from the root to the hole."""
        stack = [(self.tree, 0)]
        while stack:
            node, d = stack.pop()
            if not node.children and node.symbol == HOLE:
                return d
            stack.extend((c, d + 1) for c in node.children)

    def fill(self, arg):
        """Substitute a tree (giving a tree) or a context (giving a context)."""
        if isinstance(arg, Context):
            return Context(substitute(self.tree, {HOLE: arg.tree}))
        return substitute(self.tree, {HOLE: arg})

    def __eq__(self, other):
        return isinstance(other, Context) and self.tree == other.tree

    def __hash__(self):
        return hash((Context, self.tree))

    def __str__(self):
        return str(self.tree)

    def __repr__(self):
        return f"Context[{self.tree}]"


def hole():
    return Context(Tree(HOLE))


def parse_context(text):
    return Context(parse_tree(text))


def context_at(t, position):
    """Split `t` at a child-index position into (context, subtree)."""
    above = []
    for i in position:
        above.append((t, i))
        t = t.children[i]
    shape = Tree(HOLE)
    for node, i in reversed(above):
        children = list(node.children)
        children[i] = shape
        shape = Tree(node.symbol, children)
    return Context(shape), t


# -- tree homomorphisms --------------------------------------------------

class TreeHomomorphism:
    """Maps trees over one alphabet to trees over another.

    Leaf images are target trees; the image of an m-ary symbol is a target
    tree over the target leaves plus variables ``$1``..``$m`` marking where
    the translated children go.  Variables may repeat (duplicating) or be
    absent (deleting).
    """

    __slots__ = ("source", "target", "leaf_images", "symbol_images", "is_alphabetic", "is_injective")

    def __init__(self, source, target, leaf_images, symbol_images):
        for x in source.leaves:
            if x not in leaf_images:
                raise ValidationError(f"no image for leaf {x!r}")
            target.validate_tree(leaf_images[x])
        for f, m in source.symbols:
            if f not in symbol_images:
                raise ValidationError(f"no image for symbol {f!r}")
            image = symbol_images[f]
            variables = [f"${i}" for i in range(1, m + 1)]
            target.validate_tree(image, extra_leaves=variables)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "leaf_images", dict(leaf_images))
        object.__setattr__(self, "symbol_images", dict(symbol_images))
        object.__setattr__(self, "is_alphabetic", self._alphabetic())
        object.__setattr__(self, "is_injective", self._injective())

    def __setattr__(self, name, value):
        raise AttributeError("homomorphisms are immutable")

    def _alphabetic(self):
        for x, img in self.leaf_images.items():
            if not (img.is_leaf and self.target.is_leaf(img.symbol)):
                return False
        for f, m in self.source.symbols:
            img = self.symbol_images[f]
            if img.is_leaf or not self.target.is_symbol(img.symbol):
                return False
            if self.target.arity(img.symbol) != m:
                return False
            expected = tuple(var(i) for i in range(1, m + 1))
            if img.children != expected:
                return False
        return True

    def _injective(self):
        # Structural check: image symbols pairwise distinct and leaf map injective.
        if not self.is_alphabetic:
            return False
        leaf_targets = [img.symbol for img in self.leaf_images.values()]
        sym_targets = [self.symbol_images[f].symbol for f, _ in self.source.symbols]
        return len(set(leaf_targets)) == len(leaf_targets) and len(set(sym_targets)) == len(sym_targets)

    def require_alphabetic(self):
        if not self.is_alphabetic:
            raise NotAlphabeticError("homomorphism is not alphabetic")

    def require_injective(self):
        if not self.is_injective:
            raise NotInjectiveError("homomorphism is not injective")

    def __call__(self, t):
        def combine(node, images):
            if images:
                table = {f"${i}": image for i, image in enumerate(images, start=1)}
                return substitute(self.symbol_images[node.symbol], table)
            if _VAR.match(str(node.symbol)):
                raise ValidationError("cannot apply homomorphism to a variable")
            return self.leaf_images[node.symbol]

        return _fold(t, _children, combine)


def substitute(t, table):
    """`t` with each leaf whose symbol is a key of `table` replaced by its value.

    Serves the ``$i`` variables of homomorphism images and the context hole.
    """
    return _fold(t, _children, lambda node, kids: Tree(node.symbol, kids) if kids else table.get(node.symbol, node))


def identity_hom(alphabet):
    return TreeHomomorphism(
        alphabet,
        alphabet,
        {x: Tree(x) for x in alphabet.leaves},
        {f: Tree(f, [var(i) for i in range(1, m + 1)]) for f, m in alphabet.symbols},
    )
