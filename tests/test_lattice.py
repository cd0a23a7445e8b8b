from itertools import product as iproduct

import pytest

from lfta import fixtures
from lfta.errors import (
    CycleInOrderError,
    EmptySequenceError,
    ForeignElementError,
    MissingBoundError,
    NotALatticeError,
    NotMeetMorphismError,
)
from lfta.lattice import Lattice, LatticeMorphism, chain, pair_id, product, projections, validate

from helpers import join_irreducibles_by_joins, m3, n5


def test_two_element_chain():
    lat = validate(["0", "1"], [("0", "1")])
    assert lat.meet("0", "1") == "0"
    assert lat.join("0", "1") == "1"
    assert lat.bottom == "0" and lat.top == "1"


def test_diamond_meet_join():
    lat = fixtures.diamond()
    assert lat.meet("c", "d") == "0"
    assert lat.join("c", "d") == "1"


def test_missing_bound_rejected():
    with pytest.raises(MissingBoundError):
        validate(["0", "a", "b"], [("0", "a"), ("0", "b")])


def test_no_glb_rejected():
    # two maximal elements over two minimal ones: {a,b} lacks a join
    with pytest.raises((NotALatticeError, MissingBoundError)):
        validate(["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])


def test_cycle_rejected():
    with pytest.raises(CycleInOrderError):
        validate(["0", "a", "b", "1"], [("0", "a"), ("a", "b"), ("b", "a"), ("b", "1")])


def test_trivial_lattice_rejected():
    with pytest.raises(MissingBoundError):
        validate(["0"], [])


def test_meet_join_laws_exhaustive():
    for lat in (fixtures.b2(), fixtures.diamond(), fixtures.chain4()):
        for a, b in iproduct(lat.elements, repeat=2):
            m, j = lat.meet(a, b), lat.join(a, b)
            assert lat.leq(m, a) and lat.leq(m, b)
            assert lat.leq(a, j) and lat.leq(b, j)
            assert m == lat.meet(b, a) and j == lat.join(b, a)
            # greatest lower bound / least upper bound
            for c in lat.elements:
                if lat.leq(c, a) and lat.leq(c, b):
                    assert lat.leq(c, m)
                if lat.leq(a, c) and lat.leq(b, c):
                    assert lat.leq(j, c)
            # absorption
            assert lat.meet(a, lat.join(a, b)) == a
            assert lat.join(a, lat.meet(a, b)) == a


def test_meet_all_and_join_all():
    m2 = fixtures.diamond()
    assert m2.meet_all(["c", "d", "1"]) == "0"
    assert fixtures.b2().meet_all(["1", "1"]) == "1"
    c4 = fixtures.chain4()
    assert c4.join_all(["1/4", "1/2"]) == "1/2"
    with pytest.raises(EmptySequenceError):
        m2.meet_all([])
    with pytest.raises(ForeignElementError):
        m2.meet_all(["c", "nope"])


def test_operations_reject_foreign_elements():
    m2 = fixtures.diamond()
    for op in (m2.meet, m2.join, m2.leq):
        for a, b in (("c", "nope"), ("nope", "c")):
            with pytest.raises(ForeignElementError):
                op(a, b)
    for op in (m2.meet_all, m2.join_all):
        with pytest.raises(ForeignElementError):
            op(["nope"])


def test_product_lattice():
    b2 = fixtures.b2()
    p = product(b2, b2)
    assert len(p) == 4
    assert p.meet(pair_id("1", "0"), pair_id("0", "1")) == pair_id("0", "0")
    pm = product(fixtures.diamond(), b2)
    assert pm.join(pair_id("c", "0"), pair_id("d", "0")) == pair_id("1", "0")


def test_product_projections_are_meet_morphisms():
    b2 = fixtures.b2()
    m2 = fixtures.diamond()
    p = product(m2, b2)
    first, second = projections(p, m2, b2)
    assert first(pair_id("c", "1")) == "c"
    assert second(pair_id("c", "1")) == "1"


def test_meet_closure():
    m2 = fixtures.diamond()
    assert m2.meet_closure({"c", "d"}) == {"c", "d", "0"}
    assert m2.meet_closure({"1"}) == {"1"}
    c4 = fixtures.chain4()
    for subset in ({"1/4", "1"}, {"0", "1/2"}, {"1/4", "1/2", "1"}):
        assert c4.meet_closure(subset) == subset


def test_meet_closure_is_a_closure_operator():
    m2 = fixtures.diamond()
    subsets = [frozenset(s) for s in ({"c"}, {"c", "d"}, {"c", "1"}, {"0", "c", "d"})]
    for s in subsets:
        closed = m2.meet_closure(s)
        assert s <= closed
        assert m2.meet_closure(closed) == closed
    assert m2.meet_closure({"c"}) <= m2.meet_closure({"c", "d"})


def test_sublattice_closure():
    m2 = fixtures.diamond()
    assert m2.sublattice_closure({"c", "d"}) == {"0", "c", "d", "1"}
    assert m2.sublattice_closure(set()) == set()
    assert fixtures.b2().sublattice_closure({"0"}) == {"0"}


def test_closures_match_their_definition_on_every_subset():
    for lat in (fixtures.diamond(), fixtures.chain4(), m3(), n5()):
        for bits in range(2 ** len(lat.elements)):
            subset = {e for i, e in enumerate(lat.elements) if bits >> i & 1}
            for closure, ops in ((lat.meet_closure, (lat.meet,)), (lat.sublattice_closure, (lat.meet, lat.join))):
                expected = set(subset)
                while True:  # the definition: add every missing result until none is missing
                    new = {op(a, b) for a in expected for b in expected for op in ops} - expected
                    if not new:
                        break
                    expected |= new
                assert closure(subset) == expected
                assert closure(iter(subset)) == expected


def test_classify():
    b2 = fixtures.b2().classify()
    assert b2.is_chain and b2.is_distributive and b2.zero_meet_irreducible
    c3 = fixtures.chain3().classify()
    assert c3.is_chain and c3.is_distributive and c3.zero_meet_irreducible
    m2 = fixtures.diamond().classify()
    assert not m2.is_chain
    assert not m2.zero_meet_irreducible
    # the four-element diamond is the Boolean square, which the exhaustive
    # scan correctly reports as distributive
    assert m2.is_distributive


def test_is_distributive_is_computed_once_and_right():
    def scan(lat):
        return all(
            lat.meet(a, lat.join(b, c)) == lat.join(lat.meet(a, b), lat.meet(a, c))
            for a, b, c in iproduct(lat.elements, repeat=3)
        )

    lattices = [
        fixtures.b2(),
        fixtures.diamond(),
        fixtures.chain4(),
        product(fixtures.chain3(), fixtures.b2()),
        m3(),
        n5(),
    ]
    assert [scan(lat) for lat in lattices] == [True, True, True, True, False, False]
    for lat in lattices:
        assert lat._distributive is None
        assert lat.is_distributive() == scan(lat)
        assert lat._distributive == scan(lat)
        assert lat.is_distributive() == scan(lat)


def test_join_irreducibles_against_the_definition():
    lattices = {
        "b2": fixtures.b2(),
        "diamond": fixtures.diamond(),
        "chain4": fixtures.chain4(),
        "chain8": chain([f"{i}/7" for i in range(8)]),
        "chain4xb2": product(fixtures.chain4(), fixtures.b2()),
        "m3": m3(),
        "n5": n5(),
    }
    expected_sizes = {"b2": 1, "diamond": 2, "chain4": 3, "chain8": 7, "chain4xb2": 4, "m3": 3, "n5": 3}
    for name, lat in lattices.items():
        below = {e: [x for x in lat.elements if x != e and lat.leq(x, e)] for e in lat.elements}
        by_definition = tuple(
            e for e in lat.elements if e != lat.bottom and lat.join_all([lat.bottom] + below[e]) != e
        )
        assert lat._join_irreducibles is None
        for _ in range(2):  # the second call reads the cached answer
            got = lat.join_irreducibles()
            assert got == by_definition and len(got) == expected_sizes[name], name
            for e in lat.elements:
                assert lat.join_all([lat.bottom] + [j for j in got if lat.leq(j, e)]) == e
        assert lat._join_irreducibles is got


def test_join_irreducibles_are_the_elements_with_one_lower_cover():
    chain8 = chain([f"{i}/7" for i in range(8)])
    b2_4 = product(product(fixtures.b2(), fixtures.b2()), product(fixtures.b2(), fixtures.b2()))
    for lat in (
        fixtures.b2(), fixtures.diamond(), fixtures.chain3(), fixtures.chain4(), chain8,
        product(fixtures.chain4(), fixtures.b2()), m3(), n5(), product(chain8, chain8), b2_4, product(n5(), m3()),
    ):
        assert lat.join_irreducibles() == join_irreducibles_by_joins(lat)


def test_chain_constructor_order():
    c = chain(["bot", "mid", "top"])
    assert c.bottom == "bot" and c.top == "top"
    assert c.leq("mid", "top") and not c.leq("top", "mid")


def test_morphism_validation():
    c3 = fixtures.chain3()
    collapse = LatticeMorphism(c3, c3, {"0": "0", "d": "0", "1": "1"})
    assert collapse("d") == "0"
    m2 = fixtures.diamond()
    b2 = fixtures.b2()
    with pytest.raises(NotMeetMorphismError):
        LatticeMorphism(m2, b2, {"0": "0", "c": "1", "d": "1", "1": "1"})
    identity = LatticeMorphism(m2, m2, {e: e for e in m2.elements})
    assert identity("c") == "c"
    with pytest.raises(ForeignElementError):
        LatticeMorphism(c3, c3, {"0": "0", "1": "1"})
