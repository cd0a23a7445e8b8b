"""The bit-row lattice tables against the pairwise scan they replaced."""

import pytest
from hypothesis import given, settings, strategies as st

from lfta import fixtures
from lfta.errors import LatticeError
from lfta.lattice import Lattice, chain, pair_id, product

from helpers import is_distributive_by_triples, lattice_by_scan, m3, n5


def _chain(n):
    return chain([f"{i}/{n - 1}" for i in range(n)])


def _all_pairs(lat):
    """The whole order of `lat` as a relation, as `product` used to list it."""
    return [(a, b) for a in lat.elements for b in lat.elements if lat.leq(a, b)]


def _product_by_pairs(left, right):
    elements = [pair_id(a, b) for a in left.elements for b in right.elements]
    pairs = [
        (pair_id(a1, b1), pair_id(a2, b2))
        for a1, a2 in _all_pairs(left)
        for b1, b2 in _all_pairs(right)
    ]
    return elements, pairs


def _tables(elements, pairs):
    lat = Lattice(elements, pairs)
    return lat._leq, lat.bottom, lat.top, lat._meet, lat._join


def _tables_or_error(build, elements, pairs):
    try:
        return build(elements, pairs), None
    except LatticeError as exc:
        return None, (type(exc), str(exc))


def _assert_matches_scan(elements, pairs):
    """Same tables, in the same key order, or the same error; returns the lattice if any."""
    expected, expected_error = _tables_or_error(lattice_by_scan, elements, pairs)
    got, error = _tables_or_error(_tables, elements, pairs)
    assert (got, error) == (expected, expected_error)
    if error is not None:
        return None
    for table, reference in zip(got[3:], expected[3:]):
        assert [list(row) for row in table.values()] == [list(row) for row in reference.values()]
    lat = Lattice(elements, pairs)
    assert lat.is_distributive() == is_distributive_by_triples(lat)
    return lat


def _covers_by_definition(lat):
    es = lat.elements
    return [
        (a, b)
        for a in es
        for b in es
        if a != b and lat.leq(a, b) and not any(c not in (a, b) and lat.leq(a, c) and lat.leq(c, b) for c in es)
    ]


NAMED = {
    "b2": lambda: fixtures.b2(),
    "diamond": lambda: fixtures.diamond(),
    "chain8": lambda: _chain(8),
    "m3": m3,
    "n5": n5,
    "chain4xb2": lambda: product(fixtures.chain4(), fixtures.b2()),
    "chain3xm3": lambda: product(fixtures.chain3(), m3()),
    "n5xb2": lambda: product(n5(), fixtures.b2()),
    "m3xb2": lambda: product(m3(), fixtures.b2()),
    "n5xchain3": lambda: product(n5(), fixtures.chain3()),
    "diamondxdiamond": lambda: product(fixtures.diamond(), fixtures.diamond()),
    "chain8xchain8": lambda: product(_chain(8), _chain(8)),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_lattices_match_the_scan(name):
    lat = NAMED[name]()
    _assert_matches_scan(lat.elements, _all_pairs(lat))
    assert lat.covers() == _covers_by_definition(lat)
    assert lat.is_chain() == all(lat.leq(a, b) or lat.leq(b, a) for a in lat.elements for b in lat.elements)


@pytest.mark.parametrize(
    "left, right",
    [(fixtures.chain3, m3), (n5, fixtures.b2), (fixtures.diamond, fixtures.chain4), (lambda: _chain(8),) * 2],
)
def test_product_matches_the_product_of_all_order_pairs(left, right):
    left, right = left(), right()
    lat = product(left, right)
    elements, pairs = _product_by_pairs(left, right)
    leq, bottom, top, meet, join = lattice_by_scan(elements, pairs)
    assert lat.elements == tuple(elements)
    assert (lat._leq, lat.bottom, lat.top, lat._meet, lat._join) == (leq, bottom, top, meet, join)
    assert lat.covers() == _covers_by_definition(lat)


@st.composite
def _bounded_posets(draw):
    """A random bounded poset of 3-9 elements, declared in a random order:
    a random acyclic relation on the inner elements, plus a bottom and a top."""
    rng = draw(st.randoms(use_true_random=False))
    names = [f"e{i}" for i in range(rng.randint(3, 9))]
    by_rank = rng.sample(names, len(names))  # relations go up this order only
    bottom, inner, top = by_rank[0], by_rank[1:-1], by_rank[-1]
    density = rng.uniform(0.1, 0.6)
    pairs = [(bottom, e) for e in inner] + [(e, top) for e in inner]
    pairs += [(a, b) for i, a in enumerate(inner) for b in inner[i + 1 :] if rng.random() < density]
    return rng.sample(names, len(names)), rng.sample(pairs, len(pairs))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_bounded_posets())
def test_random_bounded_posets_match_the_scan(poset):
    elements, pairs = poset
    lat = _assert_matches_scan(elements, pairs)
    if lat is not None:
        assert lat.covers() == _covers_by_definition(lat)


@st.composite
def _relations(draw):
    """Any relation on 1-6 elements: cycles, missing bounds and foreign names included."""
    n = draw(st.integers(1, 6))
    names = [f"e{i}" for i in range(n)]
    ends = st.sampled_from(names + ["stranger"]) if draw(st.integers(0, 9)) == 0 else st.sampled_from(names)
    return names, draw(st.lists(st.tuples(ends, ends), max_size=12))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_relations())
def test_random_relations_raise_what_the_scan_raises(relation):
    _assert_matches_scan(*relation)


def test_chain16_squared_builds():
    lat = product(_chain(16), _chain(16))
    assert len(lat) == 256
    assert (lat.bottom, lat.top) == ("0/15|0/15", "15/15|15/15")
    assert lat.meet("3/15|9/15", "7/15|2/15") == "3/15|2/15"
    assert lat.join("3/15|9/15", "7/15|2/15") == "7/15|9/15"
    assert lat.is_distributive() and not lat.is_chain()
    assert len(lat.join_irreducibles()) == 30
    assert len(lat.covers()) == 2 * 15 * 16
