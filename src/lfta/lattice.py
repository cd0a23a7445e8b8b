"""Finite bounded lattices with exact tabulated meet and join.

Every lattice in this package is finite and fully tabulated.  Elements are
opaque string ids; the declaration order is kept and used for deterministic
serialization.  Chains given by rational labels are ordinary tabulated chains
whose carrier is exactly the labels mentioned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct

from .errors import (
    CycleInOrderError,
    EmptySequenceError,
    ForeignElementError,
    MissingBoundError,
    NotALatticeError,
    NotMeetMorphismError,
)


@dataclass(frozen=True)
class LatticeProfile:
    is_chain: bool
    is_distributive: bool
    zero_meet_irreducible: bool


class Lattice:
    """A finite bounded lattice over opaque element ids.

    Built from an element list and an order relation (covering pairs or any
    subrelation whose reflexive-transitive closure is the intended partial
    order).  Construction validates that the order is a partial order with
    unique bottom and top and that every pair has a meet and a join.  The
    meet and join tables are computed once, keyed by element
    (`_meet[a][b]`), and reused by every operation; evaluators that have
    validated their weights read them directly.
    """

    __slots__ = (
        "elements", "_index", "_leq", "_meet", "_join", "bottom", "top", "_distributive", "_join_irreducibles"
    )

    def __init__(self, elements, order_pairs):
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise NotALatticeError("duplicate element ids")
        if not elements:
            raise MissingBoundError("empty carrier")
        index = {e: i for i, e in enumerate(elements)}
        n = len(elements)
        leq = [[False] * n for _ in range(n)]
        for i in range(n):
            leq[i][i] = True
        for a, b in order_pairs:
            if a not in index or b not in index:
                raise ForeignElementError(f"order mentions unknown element {a if a not in index else b!r}")
            leq[index[a]][index[b]] = True
        # reflexive-transitive closure
        for k in range(n):
            lk = leq[k]
            for i in range(n):
                if leq[i][k]:
                    li = leq[i]
                    for j in range(n):
                        if lk[j]:
                            li[j] = True
        for i in range(n):
            for j in range(i + 1, n):
                if leq[i][j] and leq[j][i]:
                    raise CycleInOrderError(f"elements {elements[i]!r} and {elements[j]!r} order each other")
        self.elements = elements
        self._index = index
        self._leq = leq
        bottoms = [e for e in elements if all(leq[index[e]][j] for j in range(n))]
        tops = [e for e in elements if all(leq[j][index[e]] for j in range(n))]
        if len(bottoms) != 1 or len(tops) != 1:
            raise MissingBoundError("no unique bottom/top element")
        self.bottom = bottoms[0]
        self.top = tops[0]
        if self.bottom == self.top:
            raise MissingBoundError("trivial lattice: bottom equals top")
        self._meet, self._join = self._build_tables()
        self._distributive = None
        self._join_irreducibles = None

    def _build_tables(self):
        es = self.elements
        n = len(es)
        leq = self._leq
        meet = {a: {} for a in es}
        join = {a: {} for a in es}
        for i in range(n):
            for j in range(n):
                lower = [k for k in range(n) if leq[k][i] and leq[k][j]]
                glb = [k for k in lower if all(leq[m][k] for m in lower)]
                upper = [k for k in range(n) if leq[i][k] and leq[j][k]]
                lub = [k for k in upper if all(leq[k][m] for m in upper)]
                if len(glb) != 1 or len(lub) != 1:
                    pair = (es[i], es[j])
                    raise NotALatticeError(f"pair {pair} lacks a unique meet or join")
                meet[es[i]][es[j]] = es[glb[0]]
                join[es[i]][es[j]] = es[lub[0]]
        return meet, join

    # -- basic queries -------------------------------------------------

    def __contains__(self, e):
        return e in self._index

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.elements == other.elements
            and self._leq == other._leq
        )

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return f"Lattice({list(self.elements)})"

    def check(self, *es):
        for e in es:
            if e not in self._index:
                raise ForeignElementError(f"{e!r} is not an element of this lattice")

    def leq(self, a, b):
        self.check(a, b)
        return self._leq[self._index[a]][self._index[b]]

    def meet(self, a, b):
        self.check(a, b)
        return self._meet[a][b]

    def join(self, a, b):
        self.check(a, b)
        return self._join[a][b]

    def meet_all(self, xs):
        xs = list(xs)
        if not xs:
            raise EmptySequenceError("meet of an empty sequence")
        self.check(*xs)
        table, acc = self._meet, xs[0]
        for e in xs[1:]:
            acc = table[acc][e]
        return acc

    def join_all(self, xs):
        xs = list(xs)
        if not xs:
            raise EmptySequenceError("join of an empty sequence")
        self.check(*xs)
        table, acc = self._join, xs[0]
        for e in xs[1:]:
            acc = table[acc][e]
        return acc

    # -- generated substructures ---------------------------------------

    def meet_closure(self, subset):
        """Smallest superset of `subset` closed under binary meet."""
        return self._closure(subset, (self._meet,))

    def sublattice_closure(self, subset):
        """Closure of `subset` under both meet and join (empty stays empty)."""
        return self._closure(subset, (self._meet, self._join))

    def _closure(self, subset, tables):
        """Closure of `subset` under the binary operations tabulated in `tables`.

        A worklist: each element, once added, is combined with every element
        added before it, so each pair is tried once.
        """
        closed = set(subset)
        self.check(*closed)
        order = sorted(closed, key=self._index.get)
        for k, a in enumerate(order):
            for b in order[:k]:
                for table in tables:
                    c = table[a][b]
                    if c not in closed:
                        closed.add(c)
                        order.append(c)
        return frozenset(closed)

    # -- classification ------------------------------------------------

    def is_chain(self):
        n = len(self.elements)
        return all(self._leq[i][j] or self._leq[j][i] for i in range(n) for j in range(i + 1, n))

    def is_distributive(self):
        # O(n^3) exhaustive scan, run once: a lattice never changes after construction.
        if self._distributive is None:
            meet, join = self._meet, self._join
            self._distributive = all(
                meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]]
                for a, b, c in iproduct(self.elements, repeat=3)
            )
        return self._distributive

    def join_irreducibles(self):
        """The elements other than bottom that are not the join of the elements strictly below them.

        Every element is the join of the join-irreducibles below it, so
        `u <= v` holds exactly when each of them below `u` is below `v`.
        Computed once, in declaration order.
        """
        if self._join_irreducibles is None:
            leq, join = self._leq, self._join
            found = []
            for i, e in enumerate(self.elements):
                below = self.bottom
                for k, x in enumerate(self.elements):
                    if k != i and leq[k][i]:
                        below = join[below][x]
                if below != e:
                    found.append(e)
            self._join_irreducibles = tuple(found)
        return self._join_irreducibles

    def zero_meet_irreducible(self):
        """True when no two nonzero elements meet to bottom."""
        nz = [e for e in self.elements if e != self.bottom]
        return all(self._meet[a][b] != self.bottom for a, b in iproduct(nz, repeat=2))

    def classify(self):
        return LatticeProfile(self.is_chain(), self.is_distributive(), self.zero_meet_irreducible())


def validate(elements, order_pairs):
    """Build a lattice from a raw description, rejecting non-lattices."""
    return Lattice(elements, order_pairs)


def chain(labels):
    """The chain whose carrier is exactly `labels`, ordered as listed."""
    labels = list(labels)
    return Lattice(labels, [(labels[i], labels[i + 1]) for i in range(len(labels) - 1)])


def pair_id(a, b):
    return f"{a}|{b}"


def split_pair_id(e):
    a, _, b = e.partition("|")
    return a, b


def product(left, right):
    """Componentwise product lattice; elements are '<a>|<b>' ids."""
    elements = [pair_id(a, b) for a in left.elements for b in right.elements]
    pairs = []
    for a1, b1 in iproduct(left.elements, right.elements):
        for a2, b2 in iproduct(left.elements, right.elements):
            if left.leq(a1, a2) and right.leq(b1, b2):
                pairs.append((pair_id(a1, b1), pair_id(a2, b2)))
    return Lattice(elements, pairs)


@dataclass
class LatticeMorphism:
    """A table-defined map between lattices, validated to preserve meets."""

    source: Lattice
    target: Lattice
    mapping: dict = field(default_factory=dict)

    def __post_init__(self):
        for e in self.source.elements:
            if e not in self.mapping:
                raise ForeignElementError(f"morphism undefined on {e!r}")
            self.target.check(self.mapping[e])
        for a, b in iproduct(self.source.elements, repeat=2):
            img = self.target.meet(self.mapping[a], self.mapping[b])
            if self.mapping[self.source.meet(a, b)] != img:
                raise NotMeetMorphismError(f"meet of {a!r},{b!r} not preserved")

    def __call__(self, e):
        self.source.check(e)
        return self.mapping[e]


def projections(product_lattice, left, right):
    """The two coordinate maps of a product lattice, as checked morphisms."""
    first = {e: split_pair_id(e)[0] for e in product_lattice.elements}
    second = {e: split_pair_id(e)[1] for e in product_lattice.elements}
    return (
        LatticeMorphism(product_lattice, left, first),
        LatticeMorphism(product_lattice, right, second),
    )
