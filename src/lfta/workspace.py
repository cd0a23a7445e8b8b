"""The repository file format: named lattices, alphabets, recognizers, trees.

Line-oriented blocks, diff-friendly and deterministic:

    lattice M2 { elements 0 c d 1 ; order 0<c 0<d c<1 d<1 }
    chain C4 { 0 < 1/4 < 1/2 < 1 }
    alphabet Pair { f/2 ; leaves x y }
    ldt F over M2 alphabet Pair { states a0 a b ; initial a0 ;
        trans f a0 -> a a ; trans f a -> b b ; trans f b -> b b ;
        final x : a=c ; final y : a=d }
    lndt N over M2 alphabet Pair { ... }        # repeated trans lines
    dt D alphabet Pair { ... ; final x : a b }  # crisp recognizers
    ndt C alphabet Pair { ... }
    tree t1 alphabet Pair { f(x,y) }
    hom h from Pair to Pair { leaf x -> y ; sym f -> f($2,$1) }
    morphism m from M2 to M2 { 0 -> 0 ; c -> 0 ; d -> d ; 1 -> 1 }

``#`` starts a comment.  Serialization renders structured state names
(tuples, sets) to tokens, so loading a serialized workspace yields string
state names with identical behavior.
"""

from __future__ import annotations

import re
from functools import reduce

from .automata import DtAlgebra, DtRecognizer, NdtAlgebra, NdtRecognizer, state_token
from .errors import FuzzyTreeError, ParseError, ValidationError
from .lattice import Lattice, LatticeMorphism, chain as make_chain
from .recognizers import LDtRecognizer, LNdtRecognizer
from .terms import RankedAlphabet, TreeHomomorphism, parse_tree

_TOKEN = re.compile(r"[{};:]|[^ \t\r\n{};:#]+")
_COMMENT = re.compile(r"#[^\n]*")


def tokenize(text):
    """(token, line, column) triples, both counted from 1.

    Only space, tab, CR and LF separate tokens; ``#`` comments out the rest
    of its line; each of ``{};:`` is a token of its own.
    """
    return [
        (m.group(), line, m.start() + 1)
        for line, body in enumerate(text.split("\n"), 1)
        for m in _TOKEN.finditer(body.partition("#")[0])
    ]


class Workspace:
    """Named collections of everything the file format can describe."""

    def __init__(self):
        self.lattices = {}
        self.alphabets = {}
        self.recognizers = {}
        self.trees = {}
        self.homs = {}
        self.morphisms = {}

    def _add(self, table, kind, name, value):
        if name in table:
            raise ValidationError(f"duplicate {kind} name {name!r}")
        table[name] = value

    def add_lattice(self, name, value):
        self._add(self.lattices, "lattice", name, value)

    def add_alphabet(self, name, value):
        self._add(self.alphabets, "alphabet", name, value)

    def add_recognizer(self, name, value):
        self._add(self.recognizers, "recognizer", name, value)

    def add_tree(self, name, alphabet_name, value):
        self._add(self.trees, "tree", name, (alphabet_name, value))

    def add_hom(self, name, value):
        self._add(self.homs, "hom", name, value)

    def add_morphism(self, name, value):
        self._add(self.morphisms, "morphism", name, value)

    def _lookup(self, table, kind, name):
        if name not in table:
            raise ValidationError(f"unknown {kind} {name!r}")
        return table[name]

    def lattice(self, name):
        return self._lookup(self.lattices, "lattice", name)

    def alphabet(self, name):
        return self._lookup(self.alphabets, "alphabet", name)

    def recognizer(self, name):
        return self._lookup(self.recognizers, "recognizer", name)

    def tree(self, name):
        return self._lookup(self.trees, "tree", name)[1]

    def hom(self, name):
        return self._lookup(self.homs, "hom", name)

    def morphism(self, name):
        return self._lookup(self.morphisms, "morphism", name)

    def name_of_lattice(self, lattice):
        return self._name_of(self.lattices, "lattice", "L", lattice)

    def name_of_alphabet(self, alphabet):
        return self._name_of(self.alphabets, "alphabet", "A", alphabet)

    def _name_of(self, table, kind, prefix, value):
        """The first name of `value` in `table`, else a new name `prefix<size>` added for it."""
        for name, known in table.items():
            if known == value:
                return name
        name = f"{prefix}{len(table)}"
        self._add(table, kind, name, value)
        return name

    def __eq__(self, other):
        if not isinstance(other, Workspace):
            return NotImplemented
        return (
            self.lattices == other.lattices
            and self.alphabets == other.alphabets
            and _same(self.recognizers, other.recognizers, _RECOGNIZER_FIELDS)
            and self.trees == other.trees
            and _same(self.homs, other.homs, ("source", "target", "leaf_images", "symbol_images"))
            and _same(self.morphisms, other.morphisms, ("source", "target", "mapping"))
        )


# crisp recognizers have no lattice or weights, weighted ones no final sets
_RECOGNIZER_FIELDS = (
    "lattice", "algebra.alphabet", "algebra.states", "algebra.transitions", "initial", "weights", "final"
)


def _same(a, b, fields):
    """Both tables bind the same names, each to two objects of one type that
    agree on every dotted attribute path in `fields` (a missing one reads as None)."""

    def view(obj):
        return [reduce(lambda o, attr: getattr(o, attr, None), f.split("."), obj) for f in fields]

    return a.keys() == b.keys() and all(type(a[k]) is type(b[k]) and view(a[k]) == view(b[k]) for k in a)


# -- parsing ---------------------------------------------------------------

class _Parser:
    """A cursor over the tokens of a text without their positions, which
    `tokenize` finds again only for an error."""

    def __init__(self, text):
        self.text = text
        self.words = _TOKEN.findall(_COMMENT.sub("", text))
        self.pos = 0

    def peek(self):
        return self.words[self.pos] if self.pos < len(self.words) else None

    def next(self, expected=None):
        if self.pos >= len(self.words):
            raise ParseError("unexpected end of input")
        tok = self.words[self.pos]
        if expected is not None and tok != expected:
            self._raise_at(self.pos, f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def error(self, message):
        """Raise `message` at the position of the token just read."""
        self._raise_at(self.pos - 1, message)

    def _raise_at(self, k, message):
        _, line, col = tokenize(self.text)[k]
        raise ParseError(message, line, col)

    def clauses(self):
        """Split a { ... } body into ;-separated token lists."""
        self.next("{")
        try:
            end = self.words.index("}", self.pos)
        except ValueError:
            raise ParseError("missing '}'") from None
        body, self.pos = self.words[self.pos : end], end + 1
        clauses, clause = [], []
        for word in body:
            if word != ";":
                clause.append(word)
            elif clause:
                clauses.append(clause)
                clause = []
        if clause:
            clauses.append(clause)
        return clauses


def _once(table, key, value, what="clause"):
    """Set `table[key]` to `value`; a key already there is a repeated clause or symbol."""
    if key in table:
        raise ParseError(f"repeated {what} {key!r}")
    table[key] = value


def _split_pairs(tokens, sep, clause):
    pairs = []
    for tok in tokens:
        left, s, right = tok.partition(sep)
        if not s or not left or not right:
            raise ParseError(f"expected '<a>{sep}<b>' in {clause}, found {tok!r}")
        pairs.append((left, right))
    return pairs


def _parse_arrow_pairs(tokens, what):
    """Split 'a -> b c ; d -> e' style token runs already clause-split."""
    if "->" not in tokens:
        raise ParseError(f"missing '->' in {what}")
    k = tokens.index("->")
    return tokens[:k], tokens[k + 1 :]


# recognizer kind keyword -> (class, weighted, deterministic)
_RECOGNIZER_KINDS = {
    "ldt": (LDtRecognizer, True, True),
    "lndt": (LNdtRecognizer, True, False),
    "dt": (DtRecognizer, False, True),
    "ndt": (NdtRecognizer, False, False),
}


def load_text(text, workspace=None):
    ws = workspace or Workspace()
    p = _Parser(text)
    while p.peek() is not None:
        kind = p.next()
        if kind == "lattice":
            name, body = p.next(), {}
            for head, *rest in p.clauses():
                if head == "elements":
                    _once(body, head, rest)
                elif head == "order":
                    _once(body, head, _split_pairs(rest, "<", "order clause"))
                else:
                    raise ParseError(f"unknown lattice clause {head!r}")
            ws.add_lattice(name, Lattice(body.get("elements", []), body.get("order", [])))
        elif kind == "chain":
            name = p.next()
            labels = [t for c in p.clauses() for t in c if t != "<"]
            labels = [part for t in labels for part in t.split("<") if part]
            ws.add_lattice(name, make_chain(labels))
        elif kind == "alphabet":
            name = p.next()
            symbols, once = {}, {}
            for clause in p.clauses():
                if clause[0] == "leaves":
                    _once(once, "leaves", clause[1:])
                else:
                    for tok in clause:
                        sym, slash, arity = tok.partition("/")
                        if not slash or not arity.isdigit():
                            raise ParseError(f"expected '<symbol>/<arity>', found {tok!r}")
                        _once(symbols, sym, int(arity), "symbol")
            ws.add_alphabet(name, RankedAlphabet(symbols, once.get("leaves", [])))
        elif kind in _RECOGNIZER_KINDS:
            cls, weighted, deterministic = _RECOGNIZER_KINDS[kind]
            name = p.next()
            lattice = []
            if weighted:
                p.next("over")
                lattice = [ws.lattice(p.next())]
            p.next("alphabet")
            alphabet = ws.alphabet(p.next())
            states, initial, transitions, finals = _parse_recognizer_body(p, alphabet, deterministic)
            if weighted:
                final = {x: dict(_split_pairs(toks, "=", "final clause")) for x, toks in finals.items()}
            else:
                final = {x: set(toks) for x, toks in finals.items()}
            if deterministic:
                algebra = DtAlgebra(alphabet, states, transitions)
                if len(initial) != 1:
                    raise ValidationError(f"{kind} {name!r} needs exactly one initial state")
                initial = initial[0]
            else:
                algebra = NdtAlgebra(alphabet, states, transitions)
            ws.add_recognizer(name, cls(*lattice, algebra, initial, final))
        elif kind == "tree":
            name = p.next()
            p.next("alphabet")
            alphabet_name = p.next()
            alphabet = ws.alphabet(alphabet_name)
            clauses = p.clauses()
            if len(clauses) != 1:
                raise ParseError(f"tree {name!r} needs exactly one clause")
            t = parse_tree(" ".join(clauses[0]))
            alphabet.validate_tree(t)
            ws.add_tree(name, alphabet_name, t)
        elif kind == "hom":
            name = p.next()
            p.next("from")
            source = ws.alphabet(p.next())
            p.next("to")
            target = ws.alphabet(p.next())
            leaf_images, symbol_images = {}, {}
            for clause in p.clauses():
                head, rest = clause[0], clause[1:]
                lhs, rhs = _parse_arrow_pairs(rest, f"hom clause {head!r}")
                if head == "leaf" and len(lhs) == 1:
                    leaf_images[lhs[0]] = parse_tree(" ".join(rhs))
                elif head == "sym" and len(lhs) == 1:
                    symbol_images[lhs[0]] = parse_tree(" ".join(rhs))
                else:
                    raise ParseError(f"bad hom clause starting {head!r}")
            ws.add_hom(name, TreeHomomorphism(source, target, leaf_images, symbol_images))
        elif kind == "morphism":
            name = p.next()
            p.next("from")
            source = ws.lattice(p.next())
            p.next("to")
            target = ws.lattice(p.next())
            mapping = {}
            for clause in p.clauses():
                lhs, rhs = _parse_arrow_pairs(clause, "morphism clause")
                if len(lhs) != 1 or len(rhs) != 1:
                    raise ParseError("morphism clauses map one element to one element")
                mapping[lhs[0]] = rhs[0]
            ws.add_morphism(name, LatticeMorphism(source, target, mapping))
        else:
            p.error(f"unknown block kind {kind!r}")
    return ws


def _parse_recognizer_body(p, alphabet, deterministic):
    once = {}  # the states, initial and final <leaf> clauses
    transitions = {f: {} for f, _ in alphabet.symbols}
    for clause in p.clauses():
        head = clause[0]
        if head in ("states", "initial"):
            _once(once, head, clause[1:])
        elif head == "trans":
            if len(clause) < 4:
                raise ParseError("trans clause needs 'trans <sym> <state> -> <targets>'")
            f, source = clause[1], clause[2]
            if clause[3] != "->":
                raise ParseError(f"expected '->' in trans clause, found {clause[3]!r}")
            targets = tuple(clause[4:])
            if f not in transitions:
                raise ParseError(f"unknown symbol {f!r} in trans clause")
            transitions[f].setdefault(source, []).append(targets)
        elif head == "final":
            if len(clause) < 3 or clause[2] != ":":
                raise ParseError("final clause needs 'final <leaf> : ...'")
            if clause[1] not in alphabet.leaves:
                raise ParseError(f"unknown leaf {clause[1]!r} in final clause")
            _once(once, f"final {clause[1]}", clause[3:])
        else:
            raise ParseError(f"unknown recognizer clause {head!r}")
    if deterministic:
        for f, rows in transitions.items():
            for a, tups in rows.items():
                if len(tups) != 1:
                    raise ValidationError(f"deterministic recognizer has {len(tups)} rules for {f!r}/{a!r}")
                rows[a] = tups[0]
    finals = {x: once.get(f"final {x}", []) for x in alphabet.leaves}
    return once.get("states", []), once.get("initial", []), transitions, finals


def load(paths):
    ws = Workspace()
    for path in paths:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise FuzzyTreeError(f"cannot read {path!r}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise FuzzyTreeError(f"cannot read {path!r}: not UTF-8 text (byte {exc.start})") from None
        try:
            load_text(text, ws)
        except FuzzyTreeError as exc:
            exc.args = (f"{path}: {exc}",)  # line and column count from the start of this file
            raise
    return ws


# -- serialization -----------------------------------------------------------

def serialize_lattice(name, lattice):
    order = " ".join(f"{a}<{b}" for a, b in lattice.covers())
    return f"lattice {name} {{ elements {' '.join(lattice.elements)} ; order {order} }}"


def serialize_alphabet(name, alphabet):
    syms = " ".join(f"{f}/{m}" for f, m in alphabet.symbols)
    return f"alphabet {name} {{ {syms} ; leaves {' '.join(alphabet.leaves)} }}"


def _serialize_rec_lines(rec):
    algebra = rec.algebra
    alphabet = algebra.alphabet
    deterministic = isinstance(algebra, DtAlgebra)
    names = {a: state_token(a) for a in algebra.states}
    if len(set(names.values())) != len(names):
        raise ValidationError("state names collide after rendering")
    initial = [rec.initial] if deterministic else rec.initial
    lines = [f"states {' '.join(names.values())}", "initial " + " ".join(sorted(names[a] for a in initial))]
    for f, _ in alphabet.symbols:
        for a in algebra.states:
            row = [algebra.step(f, a)] if deterministic else algebra.choices(f, a)
            # a constructed row keeps construction order in memory; text lists the choices by repr,
            # the order loading gives them, and one choice is its own order
            for tup in sorted(row, key=repr) if len(row) > 1 else row:
                lines.append(f"trans {f} {names[a]} -> {' '.join(names[b] for b in tup)}")
    for x in alphabet.leaves:
        if isinstance(rec, (DtRecognizer, NdtRecognizer)):
            chosen = sorted(names[a] for a in rec.final[x])
        else:
            row, bottom = rec.weights[x], rec.lattice.bottom
            chosen = [f"{names[a]}={row[a]}" for a in algebra.states if row[a] != bottom]
        lines.append(f"final {x} : {' '.join(chosen)}".rstrip())
    return lines


def serialize_recognizer(name, rec, lattice_name=None, alphabet_name=None):
    for kind, (cls, weighted, _) in _RECOGNIZER_KINDS.items():
        if isinstance(rec, cls):
            over = f" over {lattice_name}" if weighted else ""
            body = " ;\n  ".join(_serialize_rec_lines(rec))
            return f"{kind} {name}{over} alphabet {alphabet_name} {{\n  {body}\n}}"
    raise ValidationError(f"cannot serialize recognizer of type {type(rec).__name__}")


def serialize(ws):
    """Workspace as file-format text; loading it back gives an equal workspace."""
    # register names for anything referenced but not yet named
    for hom in ws.homs.values():
        ws.name_of_alphabet(hom.source)
        ws.name_of_alphabet(hom.target)
    for morphism in ws.morphisms.values():
        ws.name_of_lattice(morphism.source)
        ws.name_of_lattice(morphism.target)
    recognizers = []
    for name, rec in ws.recognizers.items():
        alphabet_name = ws.name_of_alphabet(rec.algebra.alphabet)
        lattice = getattr(rec, "lattice", None)
        lattice_name = None if lattice is None else ws.name_of_lattice(lattice)
        recognizers.append(serialize_recognizer(name, rec, lattice_name, alphabet_name))
    out = []
    for name, lattice in ws.lattices.items():
        out.append(serialize_lattice(name, lattice))
    for name, alphabet in ws.alphabets.items():
        out.append(serialize_alphabet(name, alphabet))
    for name, hom in ws.homs.items():
        source = ws.name_of_alphabet(hom.source)
        target = ws.name_of_alphabet(hom.target)
        clauses = [f"leaf {x} -> {hom.leaf_images[x]}" for x in hom.source.leaves]
        clauses += [f"sym {f} -> {hom.symbol_images[f]}" for f, _ in hom.source.symbols]
        out.append(f"hom {name} from {source} to {target} {{ {' ; '.join(clauses)} }}")
    for name, morphism in ws.morphisms.items():
        source = ws.name_of_lattice(morphism.source)
        target = ws.name_of_lattice(morphism.target)
        clauses = [f"{e} -> {morphism.mapping[e]}" for e in morphism.source.elements]
        out.append(f"morphism {name} from {source} to {target} {{ {' ; '.join(clauses)} }}")
    out += recognizers
    for name, (alphabet_name, t) in ws.trees.items():
        out.append(f"tree {name} alphabet {alphabet_name} {{ {t} }}")
    return "\n".join(out) + "\n"
