import pytest

from lfta import fixtures
from lfta.errors import ArityMismatchError, ParseError, ValidationError
from lfta.terms import (
    Context,
    RankedAlphabet,
    Tree,
    TreeHomomorphism,
    delta,
    hole,
    identity_hom,
    metrics,
    parse_context,
    parse_path,
    parse_tree,
    path_closure_crisp,
    var,
)

from helpers import random_tree, seeded, spine_tree


def test_parse_and_print_round_trip():
    for text in ("x", "f(x,y)", "f(g(f(x,x)),y)", "g(g(g(x)))"):
        assert str(parse_tree(text)) == text


def test_parse_errors():
    for bad in ("", "f(x", "f(x,)", "f(x))", "f x"):
        with pytest.raises(ParseError):
            parse_tree(bad)


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
    alph = RankedAlphabet({"g": 1}, ["x"])
    t = spine_tree(alph, 10**4)
    assert t.leaves() == ["x"]
    assert t.leaf_set() == {"x"}
    assert t.size() == 10**4 + 1
    assert len(t.subtrees()) == 10**4 + 1
    assert Context(spine_tree(alph, 10**4, filler="@")).tree.leaves() == ["@"]
    with pytest.raises(ValidationError):
        Context(t)


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
