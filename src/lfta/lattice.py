"""Finite bounded lattices with exact tabulated meet and join.

Every lattice in this package is finite and fully tabulated.  Elements are
opaque string ids; the declaration order is kept and used for deterministic
serialization.  Chains given by rational labels are ordinary tabulated chains
whose carrier is exactly the labels mentioned.
"""

from __future__ import annotations

from collections import Counter
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
        "elements", "_index", "_leq", "_down", "_up", "_meet", "_join", "bottom", "top",
        "_chain", "_distributive", "_join_irreducibles",
    )

    def __init__(self, elements, order_pairs):
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise NotALatticeError("duplicate element ids")
        if not elements:
            raise MissingBoundError("empty carrier")
        index = {e: i for i, e in enumerate(elements)}
        n = len(elements)
        # down[j] has bit i exactly when element i <= element j
        down = [1 << i for i in range(n)]
        for a, b in order_pairs:
            if a not in index or b not in index:
                raise ForeignElementError(f"order mentions unknown element {a if a not in index else b!r}")
            down[index[b]] |= 1 << index[a]
        # reflexive-transitive closure (Warshall on bit rows)
        for k in range(n):
            bit, row = 1 << k, down[k]
            for j in range(n):
                if down[j] & bit:
                    down[j] |= row
        by_down = {d: i for i, d in enumerate(down)}
        if len(by_down) != n:  # i <= j <= i makes the two down-sets equal
            i, j = next((i, j) for i in range(n) for j in range(i + 1, n) if down[i] == down[j])
            raise CycleInOrderError(f"elements {elements[i]!r} and {elements[j]!r} order each other")
        up = [0] * n
        for j, d in enumerate(down):
            bit = 1 << j
            for i in range(n):
                if d >> i & 1:
                    up[i] |= bit
        self.elements = elements
        self._index = index
        self._down, self._up = tuple(down), tuple(up)
        self._leq = [[bool(u >> j & 1) for j in range(n)] for u in up]
        full = (1 << n) - 1
        bottoms = [e for e, u in zip(elements, up) if u == full]
        tops = [e for e, d in zip(elements, down) if d == full]
        if len(bottoms) != 1 or len(tops) != 1:
            raise MissingBoundError("no unique bottom/top element")
        self.bottom = bottoms[0]
        self.top = tops[0]
        if self.bottom == self.top:
            raise MissingBoundError("trivial lattice: bottom equals top")
        self._meet, self._join = self._build_tables(by_down)
        self._chain = None
        self._distributive = None
        self._join_irreducibles = None

    def _build_tables(self, by_down):
        """Meet and join keyed by element.

        The lower bounds of a pair are the meet of their down-sets, and they
        have a greatest element exactly when that set is some element's
        down-set; joins come from the up-sets the same way.
        """
        es, down, up = self.elements, self._down, self._up
        by_up = {u: i for i, u in enumerate(up)}
        meet, join = {}, {}
        for i, a in enumerate(es):
            lower, upper = down[i], up[i]
            glb = [by_down.get(lower & d) for d in down]
            lub = [by_up.get(upper & u) for u in up]
            if None in glb or None in lub:
                j = next(j for j in range(len(es)) if glb[j] is None or lub[j] is None)
                pair = (a, es[j])
                raise NotALatticeError(f"pair {pair} lacks a unique meet or join")
            meet[a] = {b: es[k] for b, k in zip(es, glb)}
            join[a] = {b: es[k] for b, k in zip(es, lub)}
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
        return self._fold_all(xs, self._meet, "meet")

    def join_all(self, xs):
        return self._fold_all(xs, self._join, "join")

    def _fold_all(self, xs, table, name):
        """`xs` folded through one of the two operation tables."""
        xs = list(xs)
        if not xs:
            raise EmptySequenceError(f"{name} of an empty sequence")
        self.check(*xs)
        acc = xs[0]
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
        """True when every two elements are comparable; computed once."""
        if self._chain is None:
            full = (1 << len(self.elements)) - 1
            self._chain = all(d | u == full for d, u in zip(self._down, self._up))
        return self._chain

    def is_distributive(self):
        """Whether meet distributes over join; computed once.

        Let phi(a) be the set of join-irreducibles below `a`.  In any finite
        lattice phi is injective and phi(a meet b) = phi(a) & phi(b), and
        phi(a join b) contains phi(a) | phi(b).  When equality holds for every
        pair, phi embeds the lattice into a powerset, so it is distributive;
        when the lattice is distributive, every join-irreducible is
        join-prime, so equality holds.  That is O(n^2) pairs, not O(n^3)
        triples.
        """
        if self._distributive is None:
            index, join = self._index, self._join
            irreducible = sum(1 << index[j] for j in self.join_irreducibles())
            phi = {e: d & irreducible for e, d in zip(self.elements, self._down)}
            self._distributive = all(
                phi[join[a][b]] == pa | phi[b] for a, pa in phi.items() for b in phi
            )
        return self._distributive

    def join_irreducibles(self):
        """The elements other than bottom that are not the join of the elements strictly below them.

        In a finite lattice these are the elements with exactly one lower
        cover.  Every element is the join of the join-irreducibles below it,
        so `u <= v` holds exactly when each of them below `u` is below `v`.
        Computed once, in declaration order.
        """
        if self._join_irreducibles is None:
            lower_covers = Counter(b for _, b in self.covers())
            self._join_irreducibles = tuple(e for e in self.elements if lower_covers[e] == 1)
        return self._join_irreducibles

    def covers(self):
        """The pairs (a, b) where b covers a: a < b with nothing strictly between.

        Listed in declaration order of `a`, then of `b`.
        """
        es, down, up, n = self.elements, self._down, self._up, len(self.elements)
        return [
            (es[i], es[j])
            for i in range(n)
            for j in range(n)
            if i != j and up[i] & down[j] == 1 << i | 1 << j
        ]

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
    """Componentwise product lattice; elements are '<a>|<b>' ids.

    Its order is generated by the covers of one component with the other
    held fixed.
    """
    elements = [pair_id(a, b) for a in left.elements for b in right.elements]
    pairs = [(pair_id(a1, b), pair_id(a2, b)) for a1, a2 in left.covers() for b in right.elements]
    pairs += [(pair_id(a, b1), pair_id(a, b2)) for a in left.elements for b1, b2 in right.covers()]
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
