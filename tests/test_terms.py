import re

import pytest
from hypothesis import given, settings, strategies as st

from lfta import chain as chain_ops, fixtures
from lfta.automata import DtAlgebra
from lfta.errors import ArityMismatchError, FuzzyTreeError, ParseError, ValidationError
from lfta.oracle import path_closure_crisp
from lfta.recognizers import LNdtRecognizer, from_finite_language
from lfta.terms import (
    HOLE,
    _TOKEN,
    Context,
    PathWord,
    RankedAlphabet,
    Tree,
    TreeHomomorphism,
    context_at,
    delta,
    hole,
    identity_hom,
    metrics,
    parse_context,
    parse_path,
    parse_tree,
    var,
)

from helpers import random_dt, random_ndt, random_tree, seeded, spine_tree


def test_parse_and_print_round_trip():
    for text in ("x", "f(x,y)", "f(g(f(x,x)),y)", "g(g(g(x)))"):
        assert str(parse_tree(text)) == text


def test_parse_errors():
    for bad in ("", "f(x", "f(x,)", "f(x))", "f x"):
        with pytest.raises(ParseError):
            parse_tree(bad)


# tree punctuation, symbols, and ASCII and Unicode whitespace, mixed with any other characters
_TREE_TEXTS = st.text(st.sampled_from("(),fxy_1 \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u3000") | st.characters())


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_TREE_TEXTS)
def test_tree_tokens_cover_every_character_but_whitespace(text):
    # so `parse_tree` has no stray character to report: each one is in some token
    assert "".join(_TOKEN.findall(text)) == re.sub(r"\s+", "", text)


def test_metrics():
    t = parse_tree("f(g(f(x,x)),y)")
    m = metrics(t)
    assert m["root"] == "f"
    assert m["height"] == 3
    assert m["leaf_set"] == {"x", "y"}
    assert parse_tree("x").height == 0
    small = parse_tree("f(x,y)")
    assert small.subtrees() == {small, Tree("x"), Tree("y")}


def test_alphabet_validation():
    with pytest.raises(ValidationError):
        RankedAlphabet({"f": 0}, ["x"])
    with pytest.raises(ValidationError):
        RankedAlphabet({"f": 2}, [])
    with pytest.raises(ValidationError):
        RankedAlphabet({"f": 2}, ["f"])
    alph = fixtures.alphabet_mixed()
    with pytest.raises(ArityMismatchError):
        alph.validate_tree(parse_tree("f(x,y,x)"))
    with pytest.raises(ValidationError):
        alph.validate_tree(parse_tree("f(x,z)"))


def test_delta_examples():
    t = parse_tree("f(g(f(x,x)),y)")
    assert [str(p) for p in delta(t)] == ["f.1 g.1 f.1 x", "f.1 g.1 f.2 x", "f.2 y"]
    assert [str(p) for p in delta(parse_tree("x"))] == ["x"]
    assert [str(p) for p in delta(parse_tree("f(x,y)"))] == ["f.1 x", "f.2 y"]


def test_delta_counts_leaves():
    # one path per leaf position: indices make every frontier path distinct
    rng = seeded(5)
    alph = fixtures.alphabet_mixed()
    for _ in range(40):
        t = random_tree(rng, alph, 4)
        paths = delta(t)
        assert len(set(paths)) == len(paths)
        assert len(paths) == len(t.leaves())
        assert all(len(p) <= t.height for p in paths)


def test_delta_is_the_path_set_sorted_by_text():
    rng = seeded(7)
    for alph in (fixtures.alphabet_mixed(), fixtures.alphabet_ternary()):
        for _ in range(30):
            t = random_tree(rng, alph, 4)
            got = delta(t)
            assert type(got) is tuple and list(got) == sorted(got, key=str)


def test_path_parse_round_trip():
    p = parse_path("f.1 g.1 f.1 x")
    assert p.letters == (("f", 1), ("g", 1), ("f", 1))
    assert p.leaf == "x"
    assert str(p) == "f.1 g.1 f.1 x"


def test_path_closure_crisp_example():
    alph = fixtures.alphabet_pair()
    got = path_closure_crisp(alph, [parse_tree("f(x,y)"), parse_tree("f(y,x)")], 1)
    assert got == {parse_tree(s) for s in ("f(x,y)", "f(y,x)", "f(x,x)", "f(y,y)")}
    assert path_closure_crisp(alph, [parse_tree("x")], 2) == {parse_tree("x")}
    assert path_closure_crisp(alph, [parse_tree("f(x,x)")], 1) == {parse_tree("f(x,x)")}


def test_path_closure_crisp_is_extensive_and_idempotent():
    alph = fixtures.alphabet_mixed()
    rng = seeded(11)
    for _ in range(10):
        trees = {random_tree(rng, alph, 2) for _ in range(3)}
        bound = max(t.height for t in trees)
        closed = path_closure_crisp(alph, trees, bound)
        assert trees <= closed
        assert path_closure_crisp(alph, closed, bound) == closed


def test_walks_on_deep_spine():
    n = 10**4
    alph = RankedAlphabet({"g": 1}, ["x"])
    t = spine_tree(alph, n)
    assert t.leaves() == ["x"]
    assert t.leaf_set() == {"x"}
    assert t.size() == n + 1
    assert len(t.subtrees()) == n + 1
    text = "g(" * n + "x" + ")" * n
    assert str(t) == text
    alph.validate_tree(t)
    assert delta(t) == (PathWord((("g", 1),) * n, "x"),)
    ctx = Context(spine_tree(alph, n, filler="@"))
    assert ctx.tree.leaves() == ["@"]
    assert ctx.depth == n
    assert str(ctx.fill(Tree("x"))) == text
    assert ctx.fill(ctx).depth == 2 * n
    whole, sub = context_at(t, (0,) * n)
    assert str(whole) == str(ctx) and sub == Tree("x")
    doubling = TreeHomomorphism(alph, alph, {"x": Tree("x")}, {"g": Tree("g", [Tree("g", [var(1)])])})
    assert str(doubling(t)) == "g(" * 2 * n + "x" + ")" * 2 * n
    algebra = DtAlgebra(alph, ["a", "b"], {"g": {"a": ("b",), "b": ("a",)}})
    run = algebra.run(t, "a")
    assert run.leaves() == [("x", "a")] and run.size() == n + 1
    chain4 = fixtures.chain4()
    # the support dict hashes the deep tree
    spine_language = from_finite_language(chain4, alph, {t: "1/2"})
    assert len(spine_language.algebra.states) == n + 1
    assert spine_language.weights["x"][f"t0{'.1' * n}"] == "1/2"
    with pytest.raises(ValidationError):
        Context(t)


def test_hash_and_height_fill_bottom_up_on_any_shape():
    def height(node):
        return 0 if not node.children else 1 + max(height(c) for c in node.children)

    rng = seeded(13)
    for _ in range(40):
        t = random_tree(rng, fixtures.alphabet_ternary(), 4)
        fresh = Tree(t.symbol, t.children)  # children already hashed: one level deep
        assert hash(t) == hash(fresh) == hash((t.symbol, t.children))
        assert t.height == height(t)
    n = 10**4
    alph = fixtures.alphabet_mixed()
    spine = spine_tree(alph, n)
    assert spine.height == n
    twin = Tree("x")  # the same spine, hashed one level at a time as it grows
    for _ in range(n):
        twin = Tree("f", [twin, Tree("x")])
        hash(twin)
    assert hash(spine) == hash(twin)  # `==` itself still recurses (ROADMAP item 3)
    shared = Tree("x")  # a node shared by both children at every level: 2**200 paths, 201 nodes
    for _ in range(200):
        shared = Tree("f", [shared, shared])
    assert shared.height == 200 and hash(shared) == hash(("f", shared.children))


def test_deep_witness_pads_a_path_with_no_choices():
    n = 10**4
    alph = fixtures.alphabet_mixed()
    rec = chain_ops.normalize(random_ndt(seeded(3), fixtures.chain4(), alph))
    stuck = LNdtRecognizer(rec.lattice, rec.algebra, [], rec.weights)
    path = PathWord((("f", 2), ("g", 1)) * (n // 2), "y")
    node = chain_ops.witness_tree(stuck, path)
    assert node.size() == n + n // 2 + 1
    for f, i in path.letters:
        assert node.symbol == f and all(c == Tree("x") for j, c in enumerate(node.children, 1) if j != i)
        node = node.children[i - 1]
    assert node == Tree(path.leaf)


# -- recursive references ------------------------------------------------
# The walks as they were written before they ran on an explicit stack; each
# recurses once per tree level.


def _str_by_recursion(t):
    if t.is_leaf:
        return str(t.symbol)
    return f"{t.symbol}({','.join(_str_by_recursion(c) for c in t.children)})"


def _validate_by_recursion(alphabet, t, extra_leaves=()):
    if t.is_leaf:
        if not (t.symbol in alphabet.leaves or t.symbol in extra_leaves):
            raise ValidationError(f"unknown leaf {t.symbol!r}")
        return
    m = alphabet.arity(t.symbol)
    if len(t.children) != m:
        raise ArityMismatchError(f"{t.symbol!r} expects {m} children, got {len(t.children)}")
    for c in t.children:
        _validate_by_recursion(alphabet, c, extra_leaves)


def _delta_by_recursion(t):
    out = []

    def walk(node, prefix):
        if node.is_leaf:
            out.append(PathWord(tuple(prefix), node.symbol))
            return
        for i, c in enumerate(node.children, start=1):
            prefix.append((node.symbol, i))
            walk(c, prefix)
            prefix.pop()

    walk(t, [])
    return tuple(sorted(set(out), key=str))


def _depth_by_recursion(node):
    if node.is_leaf:
        return 0 if node.symbol == HOLE else None
    for c in node.children:
        d = _depth_by_recursion(c)
        if d is not None:
            return d + 1
    return None


def _fill_by_recursion(node, plug):
    if node.is_leaf:
        return plug if node.symbol == HOLE else node
    return Tree(node.symbol, [_fill_by_recursion(c, plug) for c in node.children])


def _context_at_by_recursion(t, position):
    if not position:
        return Tree(HOLE), t
    i = position[0]
    children = list(t.children)
    children[i], sub = _context_at_by_recursion(children[i], position[1:])
    return Tree(t.symbol, children), sub


def _hom_by_recursion(h, t):
    if t.is_leaf:
        if str(t.symbol).startswith("$"):
            raise ValidationError("cannot apply homomorphism to a variable")
        return h.leaf_images[t.symbol]
    images = [_hom_by_recursion(h, c) for c in t.children]

    def substitute(node):
        if node.is_leaf:
            return images[int(node.symbol[1:]) - 1] if node.symbol.startswith("$") else node
        return Tree(node.symbol, [substitute(c) for c in node.children])

    return substitute(h.symbol_images[t.symbol])


def _run_by_recursion(algebra, t, state):
    if t.is_leaf:
        return Tree((t.symbol, state))
    targets = algebra.step(t.symbol, state)
    return Tree((t.symbol, state), [_run_by_recursion(algebra, c, b) for c, b in zip(t.children, targets)])


def _finite_language_tables_by_recursion(lattice, alphabet, support):
    """States, transitions, weights and roots of `from_finite_language`, in its order."""
    states, transitions, weights, roots = [], {f: {} for f, _ in alphabet.symbols}, {x: {} for x in alphabet.leaves}, []
    for n, (t, value) in enumerate(sorted(support.items(), key=lambda kv: str(kv[0]))):
        if value == lattice.bottom:
            continue

        def add(node, pos):
            state = f"t{n}" + "".join(f".{i}" for i in pos)
            states.append(state)
            if node.is_leaf:
                weights[node.symbol][state] = value
            else:
                child_states = [add(c, pos + (i,)) for i, c in enumerate(node.children, 1)]
                transitions[node.symbol][state] = ((*child_states,),)
            return state

        roots.append(add(t, ()))
    return states, transitions, weights, roots


def _witness_by_recursion(rec, path):
    lat, table, filler = rec.lattice, chain_ops.max_values(rec), rec.alphabet.leaves[0]

    def spine(letters, leaf):
        if not letters:
            return Tree(leaf)
        (f, i), rest = letters[0], letters[1:]
        arity = rec.alphabet.arity(f)
        return Tree(f, [spine(rest, leaf) if j == i else Tree(filler) for j in range(1, arity + 1)])

    def best_from(a, letters, leaf):
        best = lat.bottom
        for b in rec.algebra.path_states(a, letters):
            best = lat.join(best, rec.weights[leaf][b])
        return best

    def build(a, letters, leaf):
        if not letters:
            return Tree(leaf)
        (f, i), rest = letters[0], letters[1:]
        choices = rec.algebra.choices(f, a)
        if not choices:
            return spine(letters, leaf)
        tup = chain_ops._argmax(lat, sorted(choices, key=repr), lambda c: best_from(c[i - 1], rest, leaf))
        return Tree(f, [build(b, rest, leaf) if j == i else table.witnesses[b] for j, b in enumerate(tup, 1)])

    if not rec.initial:
        return spine(path.letters, path.leaf)
    start = chain_ops._argmax(lat, sorted(rec.initial, key=repr), lambda a: best_from(a, path.letters, path.leaf))
    return build(start, path.letters, path.leaf)


def _random_position(rng, t):
    position = []
    while t.children and rng.random() < 0.8:
        i = rng.randrange(len(t.children))
        position.append(i)
        t = t.children[i]
    return tuple(position)


def _homs():
    mixed, ternary = fixtures.alphabet_mixed(), fixtures.alphabet_ternary()
    f, g, h = (lambda *kids: Tree("f", kids)), (lambda *kids: Tree("g", kids)), (lambda *kids: Tree("h", kids))
    x, y = Tree("x"), Tree("y")
    return {
        mixed: [
            TreeHomomorphism(mixed, mixed, {"x": y, "y": f(x, x)}, {"f": f(var(2), g(var(1))), "g": f(var(1), var(1))}),
            TreeHomomorphism(mixed, mixed, {"x": x, "y": g(y)}, {"f": g(var(1)), "g": var(1)}),
        ],
        ternary: [
            TreeHomomorphism(ternary, ternary, {"x": y, "y": x}, {"h": h(var(3), var(1), g(var(2))), "g": var(1)}),
            TreeHomomorphism(ternary, mixed, {"x": x, "y": g(y)}, {"h": f(var(2), f(var(3), var(2))), "g": g(var(1))}),
        ],
    }


def test_walks_match_their_recursive_definitions():
    def frontier(node):
        return [node.symbol] if node.is_leaf else [x for c in node.children for x in frontier(c)]

    def nodes(node):
        return [node] + [n for c in node.children for n in nodes(c)]

    rng = seeded(67)
    alph = fixtures.alphabet_ternary()
    for _ in range(30):
        t = random_tree(rng, alph, 4)
        assert t.leaves() == frontier(t)
        assert t.leaf_set() == set(frontier(t))
        assert t.size() == len(nodes(t))
        assert t.subtrees() == set(nodes(t))

    chain4, homs = fixtures.chain4(), _homs()
    for alph in (fixtures.alphabet_mixed(), fixtures.alphabet_ternary()):
        algebra = random_dt(rng, chain4, alph).algebra
        for _ in range(40):
            t = random_tree(rng, alph, 5)
            assert str(t) == _str_by_recursion(t)
            assert delta(t) == _delta_by_recursion(t)
            for h in homs[alph]:
                assert h(t) == _hom_by_recursion(h, t)
            for a in algebra.states:
                assert algebra.run(t, a) == _run_by_recursion(algebra, t, a)
            position = _random_position(rng, t)
            ctx, sub = context_at(t, position)
            shape, want_sub = _context_at_by_recursion(t, position)
            assert (ctx.tree, sub) == (shape, want_sub)
            assert ctx.depth == _depth_by_recursion(ctx.tree) == len(position)
            plug = random_tree(rng, alph, 2)
            assert ctx.fill(plug) == _fill_by_recursion(ctx.tree, plug)
            assert ctx.fill(ctx).tree == _fill_by_recursion(ctx.tree, ctx.tree)
            assert ctx.fill(sub) == t
        for h in homs[alph]:
            with pytest.raises(ValidationError, match="variable"):
                h(Tree(alph.symbols[0][0], [var(1)] * alph.symbols[0][1]))
        support = {random_tree(rng, alph, 3): rng.choice(chain4.elements) for _ in range(4)}
        rec = from_finite_language(chain4, alph, support)
        states, transitions, weights, roots = _finite_language_tables_by_recursion(chain4, alph, support)
        assert list(rec.algebra.states) == (states or ["dead"])
        assert {f: {a: rec.algebra.choices(f, a) for a in states} for f in transitions} == {
            f: {a: row.get(a, ()) for a in states} for f, row in transitions.items()
        }
        assert {x: {a: v for a, v in row.items() if v != chain4.bottom} for x, row in rec.weights.items()} == weights
        assert rec.initial == frozenset(roots)


def test_validate_tree_reports_the_recursive_walks_first_fault():
    rng = seeded(71)
    for alph in (fixtures.alphabet_mixed(), fixtures.alphabet_ternary()):
        faults = [Tree("z"), Tree(alph.symbols[0][0], [Tree("x")] * (alph.symbols[0][1] + 1)), Tree("k", [Tree("x")])]
        for _ in range(60):
            t = random_tree(rng, alph, 4)
            for _ in range(rng.randint(0, 2)):
                whole, _ = context_at(t, _random_position(rng, t))
                t = whole.fill(rng.choice(faults))
            for extra in ((), ("z",)):
                try:
                    _validate_by_recursion(alph, t, extra)
                    expected = None
                except FuzzyTreeError as exc:
                    expected = (type(exc), str(exc))
                try:
                    alph.validate_tree(t, extra_leaves=extra)
                    got = None
                except FuzzyTreeError as exc:
                    got = (type(exc), str(exc))
                assert got == expected


def test_witness_tree_matches_its_recursive_definition():
    rng = seeded(73)
    for lattice in (fixtures.chain3(), fixtures.chain4()):
        for alph in (fixtures.alphabet_mixed(), fixtures.alphabet_ternary()):
            for _ in range(8):
                rec = chain_ops.normalize(random_ndt(rng, lattice, alph, max_states=3))
                stuck = LNdtRecognizer(lattice, rec.algebra, [], rec.weights)
                for _ in range(4):
                    path = rng.choice(delta(random_tree(rng, alph, 4)))
                    assert chain_ops.witness_tree(rec, path) == _witness_by_recursion(rec, path)
                    assert chain_ops.witness_tree(stuck, path) == _witness_by_recursion(stuck, path)


def test_context_fill():
    ctx = parse_context("f(@,y)")
    assert ctx.fill(parse_tree("x")) == parse_tree("f(x,y)")
    assert hole().fill(parse_tree("f(x,x)")) == parse_tree("f(x,x)")
    inner = parse_context("g(@)")
    composed = ctx.fill(inner)
    assert isinstance(composed, Context)
    assert composed.depth == ctx.depth + inner.depth == 2


def test_context_validation():
    with pytest.raises(ValidationError):
        parse_context("f(x,y)")
    with pytest.raises(ValidationError):
        parse_context("f(@,@)")


def test_fill_is_associative():
    rng = seeded(7)
    alph = fixtures.alphabet_mixed()
    ps = [parse_context(s) for s in ("f(@,y)", "g(@)", "f(x,@)", "@")]
    for p in ps:
        for q in ps:
            for _ in range(5):
                t = random_tree(rng, alph, 2)
                assert p.fill(q).fill(t) == p.fill(q.fill(t))


def test_apply_hom():
    alph = fixtures.alphabet_pair()
    target = RankedAlphabet({"g": 2}, ["u", "v"])
    h = TreeHomomorphism(
        alph,
        target,
        {"x": Tree("u"), "y": Tree("v")},
        {"f": Tree("g", [var(1), var(2)])},
    )
    assert h(parse_tree("f(x,x)")) == parse_tree("g(u,u)")
    assert h.is_alphabetic and h.is_injective


def test_deleting_hom():
    mixed = fixtures.alphabet_mixed()
    h = TreeHomomorphism(
        mixed,
        mixed,
        {"x": Tree("x"), "y": Tree("y")},
        {"f": Tree("f", [var(1), var(2)]), "g": var(1)},
    )
    assert h(parse_tree("g(x)")) == parse_tree("x")
    assert h(parse_tree("f(g(x),y)")) == parse_tree("f(x,y)")
    assert not h.is_alphabetic


def test_identity_hom():
    alph = fixtures.alphabet_mixed()
    h = identity_hom(alph)
    rng = seeded(3)
    for _ in range(10):
        t = random_tree(rng, alph, 3)
        assert h(t) == t


def test_hom_commutes_with_fill_when_nondeleting():
    alph = fixtures.alphabet_pair()
    target = RankedAlphabet({"g": 2}, ["u", "v"])
    h = TreeHomomorphism(
        alph,
        target,
        {"x": Tree("u"), "y": Tree("v")},
        {"f": Tree("g", [var(1), var(2)])},
    )
    rng = seeded(9)
    ctx = parse_context("f(@,y)")
    image_ctx = parse_context("g(@,v)")  # ctx translated by hand
    for _ in range(10):
        t = random_tree(rng, alph, 2)
        assert h(ctx.fill(t)) == image_ctx.fill(h(t))
