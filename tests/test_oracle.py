import pytest

from lfta import fixtures
from lfta import chain as chain_ops
from lfta.errors import BudgetExceededError
from lfta.oracle import (
    FiniteFuzzyLanguage,
    characteristic,
    enum_trees,
    eval_reference,
    eval_reference_map,
    fuzzy_path_closure,
    intersection,
    is_path_closed,
    map_values,
    path_closure_crisp,
    path_image,
    scalar,
    subalgebra_degree,
    union,
    value_from_paths,
    x_iteration,
    x_iteration_window,
    x_product,
)
from lfta.lattice import LatticeMorphism
from lfta.recognizers import from_finite_language
from lfta.terms import delta, parse_tree

from helpers import desk, random_ndt, seeded


def test_enum_trees_counts():
    solo = fixtures.alphabet_solo()
    assert [str(t) for t in enum_trees(solo, 0)] == ["x"]
    assert [str(t) for t in enum_trees(solo, 1)] == ["x", "f(x,x)"]
    pair = fixtures.alphabet_pair()
    assert len(enum_trees(pair, 1)) == 2 + 4
    assert len(enum_trees(pair, 2)) == 6 + 36 - 4  # leaves + pairs with a node
    with pytest.raises(BudgetExceededError):
        enum_trees(pair, 4, budget=10_000)


def test_enum_trees_heights_and_uniqueness():
    mixed = fixtures.alphabet_mixed()
    pool = enum_trees(mixed, 2)
    assert len(set(pool)) == len(pool)
    assert all(t.height <= 2 for t in pool)


def test_pointwise_ops():
    lat = fixtures.diamond()
    alph = fixtures.alphabet_pair()
    phi = FiniteFuzzyLanguage(lat, alph, {parse_tree("f(x,y)"): "1"})
    psi = FiniteFuzzyLanguage(lat, alph, {parse_tree("f(y,x)"): "1"})
    merged = union(phi, psi)
    assert merged.value(parse_tree("f(x,y)")) == "1"
    assert merged.value(parse_tree("f(y,x)")) == "1"
    assert merged.value(parse_tree("f(x,x)")) == "0"

    zero = FiniteFuzzyLanguage(lat, alph, {})
    assert intersection(phi, zero).support == {}

    c_only = FiniteFuzzyLanguage(lat, alph, {parse_tree("f(x,x)"): "c"})
    d_only = FiniteFuzzyLanguage(lat, alph, {parse_tree("f(x,x)"): "d"})
    assert intersection(c_only, d_only).support == {}

    assert scalar(c_only, "d").support == {}
    assert scalar(c_only, "1").support == c_only.support

    collapse = LatticeMorphism(lat, lat, {"0": "0", "c": "0", "d": "d", "1": "1"})
    assert map_values(c_only, collapse).support == {}


def test_path_image_and_back():
    lat = fixtures.b2()
    alph = fixtures.alphabet_pair()
    phi = characteristic(lat, alph, [parse_tree("f(x,y)"), parse_tree("f(y,x)")])
    image = path_image(phi)
    assert {str(r) for r in image} == {"f.1 x", "f.2 y", "f.1 y", "f.2 x"}
    assert value_from_paths(lat, image, parse_tree("f(x,x)")) == "1"
    assert value_from_paths(lat, image, parse_tree("f(f(x,x),y)")) == "0"


def test_value_from_paths_constant_top():
    lat = fixtures.chain3()
    alph = fixtures.alphabet_pair()
    for t in enum_trees(alph, 2):
        assert value_from_paths(lat, {}, t, default="1") == "1"


def test_fuzzy_path_closure_example():
    lat = fixtures.b2()
    alph = fixtures.alphabet_pair()
    phi = characteristic(lat, alph, [parse_tree("f(x,y)"), parse_tree("f(y,x)")])
    closed = fuzzy_path_closure(phi, 1)
    assert {str(t) for t in closed.support} == {"f(x,x)", "f(x,y)", "f(y,x)", "f(y,y)"}
    assert closed.support == fuzzy_path_closure(phi, 3).support


def test_fuzzy_closure_agrees_with_crisp_closure():
    lat = fixtures.b2()
    alph = fixtures.alphabet_mixed()
    rng = seeded(111)
    pool = enum_trees(alph, 2)
    for _ in range(10):
        trees = {rng.choice(pool) for _ in range(3)}
        phi = characteristic(lat, alph, trees)
        bound = max(t.height for t in trees)
        via_fuzzy = set(fuzzy_path_closure(phi, bound).support)
        via_crisp = path_closure_crisp(alph, trees, bound)
        assert via_fuzzy == via_crisp


def test_galois_laws():
    # image/preimage of path maps: monotone, adjoint, stable under triples
    lat = fixtures.chain4()
    alph = fixtures.alphabet_pair()
    rng = seeded(113)
    pool = enum_trees(alph, 2)
    for _ in range(12):
        support = {rng.choice(pool): rng.choice(lat.elements) for _ in range(3)}
        phi = FiniteFuzzyLanguage(lat, alph, support)
        psi = union(phi, FiniteFuzzyLanguage(lat, alph, {rng.choice(pool): "1"}))
        image_phi, image_psi = path_image(phi), path_image(psi)
        # monotone
        for r in image_phi:
            assert lat.leq(image_phi[r], image_psi.get(r, "0"))
        # union is imagewise join
        both = path_image(union(phi, psi))
        for r in set(image_phi) | set(image_psi):
            assert both[r] == lat.join(image_phi.get(r, "0"), image_psi.get(r, "0"))
        # extensive closure
        hmax = max(t.height for t in psi.support)
        closed = fuzzy_path_closure(psi, hmax)
        for t, v in psi.support.items():
            assert lat.leq(v, closed.value(t))
        # triple composition collapses
        assert path_image(closed) == image_psi


def test_closure_operator_laws():
    lat = fixtures.chain3()
    alph = fixtures.alphabet_pair()
    rng = seeded(115)
    pool = enum_trees(alph, 2)
    for _ in range(8):
        phi = FiniteFuzzyLanguage(
            lat, alph, {rng.choice(pool): rng.choice(["d", "1"]) for _ in range(3)}
        )
        hmax = max(t.height for t in phi.support)
        closed = fuzzy_path_closure(phi, hmax)
        again = fuzzy_path_closure(closed, hmax)
        assert again == closed
        assert is_path_closed(closed)
        # monotone: closing a pointwise-larger language dominates
        bigger = union(phi, FiniteFuzzyLanguage(lat, alph, {rng.choice(pool): "1"}))
        hmax2 = max(t.height for t in bigger.support)
        closed_bigger = fuzzy_path_closure(bigger, max(hmax, hmax2))
        for t in closed.support:
            assert lat.leq(closed.value(t), closed_bigger.value(t))


def test_preimage_intersection_law_and_adjoint_bound():
    lat = fixtures.chain4()
    alph = fixtures.alphabet_pair()
    rng = seeded(116)
    pool = enum_trees(alph, 2)
    letters = [p for t in pool for p in delta(t)]
    for _ in range(8):
        lam1 = {rng.choice(letters): rng.choice(lat.elements) for _ in range(4)}
        lam2 = {rng.choice(letters): rng.choice(lat.elements) for _ in range(4)}
        both = {
            r: lat.meet(lam1.get(r, "0"), lam2.get(r, "0"))
            for r in set(lam1) | set(lam2)
        }
        for t in pool:
            meet_of_values = lat.meet(
                value_from_paths(lat, lam1, t), value_from_paths(lat, lam2, t)
            )
            assert value_from_paths(lat, both, t) == meet_of_values
        # image of the preimage never exceeds the path map
        realized = FiniteFuzzyLanguage(
            lat, alph, {t: value_from_paths(lat, lam1, t) for t in pool}
        )
        for r, v in path_image(realized).items():
            assert lat.leq(v, lam1.get(r, "0"))


def test_x_product_unit():
    lat = fixtures.chain3()
    alph = fixtures.alphabet_pair()
    rng = seeded(117)
    pool = enum_trees(alph, 2)
    unit = FiniteFuzzyLanguage(lat, alph, {parse_tree("x"): "1"})
    for _ in range(6):
        phi = FiniteFuzzyLanguage(
            lat, alph, {rng.choice(pool): rng.choice(["d", "1"]) for _ in range(3)}
        )
        assert x_product(phi, unit, "x") == phi


def test_x_product_substitution():
    lat = fixtures.b2()
    alph = fixtures.alphabet_pair()
    phi = FiniteFuzzyLanguage(lat, alph, {parse_tree("y"): "1"})
    psi = FiniteFuzzyLanguage(lat, alph, {parse_tree("f(x,x)"): "1"})
    assert x_product(phi, psi, "x") == FiniteFuzzyLanguage(
        lat, alph, {parse_tree("f(y,y)"): "1"}
    )


def test_x_product_meets_values():
    lat = fixtures.chain3()
    alph = fixtures.alphabet_pair()
    phi = FiniteFuzzyLanguage(lat, alph, {parse_tree("y"): "d"})
    psi = FiniteFuzzyLanguage(lat, alph, {parse_tree("f(x,x)"): "1", parse_tree("x"): "1"})
    got = x_product(phi, psi, "x")
    assert got.value(parse_tree("f(y,y)")) == "d"
    assert got.value(parse_tree("y")) == "d"


def test_x_iteration_levels():
    lat = fixtures.b2()
    alph = fixtures.alphabet_pair()
    phi = FiniteFuzzyLanguage(lat, alph, {parse_tree("f(x,y)"): "1"})
    result = x_iteration(phi, "x", 3)
    assert not result.stabilized  # left combs keep growing
    assert result.language.value(parse_tree("x")) == "1"
    assert result.language.value(parse_tree("f(x,y)")) == "1"
    assert result.language.value(parse_tree("f(f(x,y),y)")) == "1"
    assert result.language.value(parse_tree("f(f(f(x,y),y),y)")) == "1"


def test_x_iteration_stabilizes_without_substitution_leaves():
    lat = fixtures.b2()
    alph = fixtures.alphabet_pair()
    phi = FiniteFuzzyLanguage(lat, alph, {parse_tree("f(y,y)"): "1"})
    result = x_iteration(phi, "x", 5)
    assert result.stabilized
    assert set(result.language.support) == {parse_tree("x"), parse_tree("f(y,y)")}


def test_x_iteration_window_is_exact_restriction():
    lat = fixtures.b2()
    alph = fixtures.alphabet_pair()
    phi = FiniteFuzzyLanguage(lat, alph, {parse_tree("f(x,y)"): "1"})
    full = x_iteration(phi, "x", 8)
    windowed = x_iteration_window(phi, "x", 2, 10)
    assert windowed.stabilized
    for t in enum_trees(alph, 2):
        assert windowed.language.value(t) == full.language.value(t)


def test_subalgebra_degree():
    lat = fixtures.chain4()
    alph = fixtures.alphabet_pair()
    phi = FiniteFuzzyLanguage(lat, alph, {parse_tree("x"): "1/2", parse_tree("y"): "1"})
    assert subalgebra_degree(phi, parse_tree("f(x,y)")) == "1/2"
    assert subalgebra_degree(phi, parse_tree("f(y,y)")) == "1"
    assert subalgebra_degree(phi, parse_tree("f(f(y,y),x)")) == "1/2"
    lonely = FiniteFuzzyLanguage(lat, alph, {parse_tree("f(x,y)"): "1"})
    assert subalgebra_degree(lonely, parse_tree("f(x,y)")) == "1"
    assert subalgebra_degree(lonely, parse_tree("f(f(x,y),y)")) == "0"


def test_subalgebra_degree_is_monotone_closure():
    lat = fixtures.chain3()
    alph = fixtures.alphabet_pair()
    rng = seeded(119)
    pool = enum_trees(alph, 2)
    for _ in range(8):
        phi = FiniteFuzzyLanguage(
            lat, alph, {rng.choice(pool): rng.choice(["d", "1"]) for _ in range(2)}
        )
        for t in pool:
            nu = subalgebra_degree(phi, t)
            assert lat.leq(phi.value(t), nu)
            if not t.is_leaf:
                children = lat.meet_all([subalgebra_degree(phi, c) for c in t.children])
                assert lat.leq(children, nu)


def test_crisp_subalgebra_matches_fuzzy():
    # a crisp language is a subalgebra exactly when its characteristic map is
    # a fuzzy one; generation commutes with taking characteristics
    lat = fixtures.b2()
    alph = fixtures.alphabet_pair()
    rng = seeded(121)
    pool = enum_trees(alph, 1)
    for _ in range(8):
        seed_trees = {rng.choice(pool) for _ in range(2)}
        phi = characteristic(lat, alph, seed_trees)
        for t in enum_trees(alph, 2):
            crisp_closure = _crisp_generated(seed_trees, t)
            assert subalgebra_degree(phi, t) == ("1" if crisp_closure else "0")


def _crisp_generated(seed_trees, t):
    if t in seed_trees:
        return True
    if t.is_leaf:
        return False
    return all(_crisp_generated(seed_trees, c) for c in t.children)


def test_eval_reference_agrees_on_fixtures():
    for rec in (desk("MatchedLeaves"), desk("DeadBranch"), desk("GradedSquare")):
        pool = enum_trees(rec.alphabet, 3)
        assert eval_reference_map(rec, pool) == rec.degree_map(pool)


def test_eval_reference_single_matches_map():
    rng = seeded(123)
    rec = random_ndt(rng, fixtures.chain4(), fixtures.alphabet_pair())
    pool = enum_trees(rec.alphabet, 2)
    table = eval_reference_map(rec, pool)
    for t in pool[:20]:
        assert eval_reference(rec, t) == table[t]


def test_non_closure_witness_x_product():
    # two deterministically recognizable languages whose substitution product
    # is not: the gap tree mixes paths of the two product shapes
    lat = fixtures.b2()
    alph = fixtures.alphabet_pair()
    phi = FiniteFuzzyLanguage(lat, alph, {parse_tree("f(x,y)"): "1"})
    psi = FiniteFuzzyLanguage(
        lat, alph, {parse_tree("x"): "1", parse_tree("f(x,x)"): "1"}
    )
    assert is_path_closed(phi) and is_path_closed(psi)
    product = x_product(phi, psi, "x")
    assert set(product.support) == {
        parse_tree("f(x,y)"),
        parse_tree("f(f(x,y),f(x,y))"),
    }
    assert not is_path_closed(product)
    assert not chain_ops.is_dt_recognizable(from_finite_language(lat, alph, product.support))


def test_non_closure_witness_x_iteration_window():
    # a graded language whose iterated substitution stops being path closed;
    # the window restriction of the limit is exact and already fails
    lat = fixtures.chain3()
    alph = fixtures.alphabet_pair()
    phi = FiniteFuzzyLanguage(
        lat,
        alph,
        {
            parse_tree("f(f(y,y),f(x,x))"): "1",
            parse_tree("f(f(y,y),x)"): "d",
            parse_tree("f(x,f(x,x))"): "d",
            parse_tree("f(x,x)"): "d",
        },
    )
    assert is_path_closed(phi)
    assert chain_ops.is_dt_recognizable(from_finite_language(lat, alph, phi.support))
    result = x_iteration_window(phi, "x", 2, 10)
    assert result.stabilized
    assert not is_path_closed(result.language)
    assert not chain_ops.is_dt_recognizable(
        from_finite_language(lat, alph, result.language.support)
    )
