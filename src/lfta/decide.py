"""Decision procedures for fuzzy top-down recognizers.

The procedures rest on two facts: every degree a deterministic recognizer can
produce lies in the meet-closure of its final weights, and any sufficiently
tall tree can be pumped without changing its degree.  Instead of literally
enumerating trees up to the pumping bounds, the deciders run bottom-up
fixpoints over the sets of attainable degrees (or degree vectors), which the
bounds prove exhaustive; witness trees are carried alongside so every negative
answer comes with a checkable counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product as iproduct

from .automata import NdtAlgebra, NdtRecognizer, saturate
from .errors import (
    ForeignElementError,
    NonDistributiveLatticeError,
    TreeTooShortError,
)
from .recognizers import check_same_alphabet, check_same_lattice
from .terms import Context, Tree, context_at
from .transforms import _dt_product_algebra

DEFAULT_BUDGET = 10**6


def height_bound(rec):
    """Every attainable degree is hit by a tree no taller than this."""
    closure_size = len(rec.final_weight_closure())
    return (closure_size + 1) * len(rec.algebra.states)


@dataclass
class PumpDecomposition:
    """A split t = prefix . loop . suffix whose pumps all score alike."""

    prefix: Context
    loop: Context
    suffix: Tree

    def pumped(self, k):
        t = self.suffix
        for _ in range(k):
            t = self.loop.fill(t)
        return self.prefix.fill(t)


def pump_decompose(rec, t):
    """Find a degree-preserving loop in a tree above the height bound.

    Walks a maximal path of the run, picks a state repeating often enough,
    and chooses the loop where the accumulated context degree stops
    decreasing; pumping that loop leaves the degree fixed.
    """
    bound = height_bound(rec)
    if t.height < bound + 1:
        raise TreeTooShortError(f"need height >= {bound + 1}, got {t.height}")

    # maximal path as a list of child-index positions (leftmost of the tallest)
    positions = [()]
    node = t
    while not node.is_leaf:
        best = max(range(len(node.children)), key=lambda i: node.children[i].height)
        positions.append(positions[-1] + (best,))
        node = node.children[best]

    states = [rec.initial]
    for pos in positions[1:]:
        parent = t
        for i in pos[:-1]:
            parent = parent.children[i]
        states.append(rec.algebra.step(parent.symbol, states[-1])[pos[-1]])

    closure_size = len(rec.final_weight_closure())
    wanted = closure_size + 2
    repeated = None
    for a in rec.algebra.states:
        spots = [i for i, s in enumerate(states[:-1]) if s == a]
        if len(spots) >= wanted:
            repeated = spots[:wanted]
            break
    assert repeated is not None, "pigeonhole violated; height bound is wrong"

    # contexts between consecutive occurrences of the repeated state
    cuts = repeated
    prefix_ctx, _ = context_at(t, positions[cuts[0]])
    loops = []
    for lo, hi in zip(cuts, cuts[1:]):
        outer, _ = context_at(t, positions[hi])
        # the loop is the part of `outer` strictly below position lo
        _, loop_shape = context_at(outer.tree, positions[lo])
        loops.append(Context(loop_shape))
    _, suffix0 = context_at(t, positions[cuts[-1]])

    values = [rec.context_degree(rec.initial, prefix_ctx)[0]]
    acc = prefix_ctx
    for q in loops:
        acc = acc.fill(q)
        values.append(rec.context_degree(rec.initial, acc)[0])
    chosen = None
    for j in range(1, len(values)):
        if values[j - 1] == values[j]:
            chosen = j
            break
    assert chosen is not None, "no stabilizing loop; closure bound is wrong"

    prefix = prefix_ctx
    for q in loops[: chosen - 1]:
        prefix = prefix.fill(q)
    suffix = suffix0
    for q in reversed(loops[chosen:]):
        suffix = q.fill(suffix)
    decomposition = PumpDecomposition(prefix, loops[chosen - 1], suffix)

    assert decomposition.pumped(1) == t, "decomposition does not rebuild the tree"
    base = rec.degree(t)
    for k in range(4):
        assert rec.degree(decomposition.pumped(k)) == base, "pump changed the degree"
    return decomposition


def _attainable(algebra, leaf_value, meet):
    """Per-state attainable degrees with witness trees, by saturation.

    `leaf_value(x, a)` is the degree of leaf `x` read in state `a`; an inner
    node meets its children's degrees.
    """
    seeds = [(a, leaf_value(x, a), Tree(x)) for x in algebra.alphabet.leaves for a in algebra.states]
    combine = lambda values: reduce(meet, values)
    rules = [
        (a, f, algebra.step(f, a), combine) for f, _ in algebra.alphabet.symbols for a in algebra.states
    ]
    rows = {a: {} for a in algebra.states}
    for a, value, witness in saturate(seeds, rules):
        rows[a][value] = witness
    return rows


def value_range(rec):
    """The exact set of degrees the recognizer attains."""
    return frozenset(range_witnesses(rec))


def range_witnesses(rec):
    """One tree per attainable degree."""
    leaf_value = lambda x, a: rec.weights[x][a]
    return dict(_attainable(rec.algebra, leaf_value, rec.lattice.meet)[rec.initial])


def is_empty_support(rec):
    return value_range(rec) == {rec.lattice.bottom}


def is_constant(rec):
    return len(value_range(rec)) == 1


def is_crisp(rec):
    return value_range(rec) <= {rec.lattice.bottom, rec.lattice.top}


def is_finite_support(rec):
    """Whether only finitely many trees score above bottom.

    The support is infinite exactly when some tree taller than the height
    bound scores a nonzero degree (it pumps up); any such witness pumps down
    into the window (bound, 2*(bound+1)], so an exact-height scan of that
    window decides the question.
    """
    lat = rec.lattice
    bound = height_bound(rec)
    cumulative = {a: set() for a in rec.algebra.states}
    exact = {a: set() for a in rec.algebra.states}
    for x in rec.alphabet.leaves:
        for a in rec.algebra.states:
            exact[a].add(rec.weights[x][a])
    for h in range(1, 2 * (bound + 1) + 1):
        for a in rec.algebra.states:
            cumulative[a] |= exact[a]
        fresh = {a: set() for a in rec.algebra.states}
        for f, m in rec.alphabet.symbols:
            for a in rec.algebra.states:
                targets = rec.algebra.step(f, a)
                for j in range(m):  # child j realizes the previous height exactly
                    pools = [exact[b] if i == j else cumulative[b] for i, b in enumerate(targets)]
                    for combo in iproduct(*pools):
                        fresh[a].add(lat.meet_all(combo))
        exact = fresh
        if h > bound and any(v != lat.bottom for v in exact[rec.initial]):
            return False
    return True


@dataclass
class Comparison:
    included: bool
    equivalent: bool
    disjoint: bool
    inclusion_witness: Tree | None = None
    equivalence_witness: Tree | None = None
    disjointness_witness: Tree | None = None


def compare(f_rec, g_rec):
    """Inclusion, equivalence and disjointness of two DT recognizers.

    Runs the attainable-pair fixpoint over the product automaton; the set it
    computes is the exact range of simultaneous degree pairs, so each verdict
    comes with a witness tree when it is negative.
    """
    check_same_alphabet(f_rec, g_rec)
    check_same_lattice(f_rec, g_rec)
    lat = f_rec.lattice
    algebra = _dt_product_algebra(f_rec, g_rec)
    leaf_value = lambda x, ab: (f_rec.weights[x][ab[0]], g_rec.weights[x][ab[1]])
    meet = lambda p, q: (lat.meet(p[0], q[0]), lat.meet(p[1], q[1]))
    pairs = _attainable(algebra, leaf_value, meet)[(f_rec.initial, g_rec.initial)]
    included, equivalent, disjoint = True, True, True
    inc_w = eq_w = dis_w = None
    for (u, v), witness in pairs.items():
        if included and not lat.leq(u, v):
            included, inc_w = False, witness
        if equivalent and u != v:
            equivalent, eq_w = False, witness
        if disjoint and lat.meet(u, v) != lat.bottom:
            disjoint, dis_w = False, witness
    return Comparison(included, equivalent, disjoint, inc_w, eq_w, dis_w)


def _joint_vectors(nf, ng, budget):
    """The joint degree vectors of two NDT recognizers, as saturation facts in discovery order.

    A vector holds a tree's degree from each state of `nf`, then from each
    state of `ng`.  Each (symbol, state)'s choices are compiled once into
    tuples of vector positions, and the tables are read unchecked: the leaf
    weights were validated at construction and every later value comes out
    of the tables.
    """
    lat = nf.lattice
    meet, join, bottom, top = lat._meet, lat._join, lat.bottom, lat.top
    sides = ((nf, 0), (ng, len(nf.algebra.states)))

    def compile_symbol(f):
        compiled = []
        for rec, base in sides:
            position = {a: base + i for i, a in enumerate(rec.algebra.states)}
            for a in rec.algebra.states:
                compiled.append(tuple(tuple(position[b] for b in tup) for tup in rec.algebra.choices(f, a)))
        return tuple(compiled)

    def vector_for(compiled, child_vectors):
        out = []
        for choices in compiled:
            acc = bottom
            for tup in choices:
                v = top
                for vec, k in zip(child_vectors, tup):
                    v = meet[v][vec[k]]
                acc = join[acc][v]
            out.append(acc)
        return tuple(out)

    seeds = [
        (None, tuple(rec.weights[x][a] for rec, _ in sides for a in rec.algebra.states), Tree(x))
        for x in nf.alphabet.leaves
    ]
    rules = [
        (None, f, (None,) * m, lambda vectors, compiled=compile_symbol(f): vector_for(compiled, vectors))
        for f, m in nf.alphabet.symbols
    ]
    return saturate(seeds, rules, budget)


def ndt_compare(nf, ng, budget=DEFAULT_BUDGET):
    """Equivalence of two NDT recognizers, with a counterexample if distinct.

    Stops at the first joint vector, in discovery order, whose two initial
    joins differ; only equal recognizers saturate every vector.
    """
    check_same_alphabet(nf, ng)
    check_same_lattice(nf, ng)
    if not nf.lattice.is_distributive():
        raise NonDistributiveLatticeError("NDT equivalence needs a distributive lattice")
    lat = nf.lattice
    join = lat._join
    n = len(nf.algebra.states)
    left = [i for i, a in enumerate(nf.algebra.states) if a in nf.initial]
    right = [n + j for j, b in enumerate(ng.algebra.states) if b in ng.initial]
    for _, vec, witness in _joint_vectors(nf, ng, budget):
        u = v = lat.bottom
        for i in left:
            u = join[u][vec[i]]
        for j in right:
            v = join[v][vec[j]]
        if u != v:
            return False, witness
    return True, None


def ndt_equivalent(nf, ng, budget=DEFAULT_BUDGET):
    return ndt_compare(nf, ng, budget)[0]


def level_set(rec, d):
    """Crisp NDT recognizer of the trees scoring exactly `d`.

    States pair an original state with the degree still to be produced below
    it; a branching guesses how the target degree splits into a meet over the
    children.  Values outside the final-weight meet-closure give the empty
    recognizer (no tree attains them).
    """
    rec.lattice.check(d)
    lat = rec.lattice
    closure = sorted(rec.final_weight_closure(), key=rec.lattice.elements.index)
    states = [(a, c) for a in rec.algebra.states for c in closure]
    transitions = {}
    for f, m in rec.alphabet.symbols:
        rows = {}
        for a, c in states:
            targets = rec.algebra.step(f, a)
            choices = []
            for combo in iproduct(closure, repeat=m):
                if lat.meet_all(combo) == c:
                    choices.append(tuple(zip(targets, combo)))
            rows[(a, c)] = tuple(choices)
        transitions[f] = rows
    algebra = NdtAlgebra(rec.alphabet, states, transitions)
    final = {
        x: {(a, rec.weights[x][a]) for a in rec.algebra.states}
        for x in rec.alphabet.leaves
    }
    initial = [(rec.initial, d)] if d in set(closure) else []
    return NdtRecognizer(algebra, initial, final)


def level_in_domain(rec, d):
    """Whether `d` can be attained at all (lies in the weight meet-closure)."""
    rec.lattice.check(d)
    return d in rec.final_weight_closure()


def level_preimage_nonempty(rec, values):
    """Whether some value in `values` is attained by some tree."""
    for d in values:
        if d not in rec.lattice:
            raise ForeignElementError(f"{d!r} not in the recognizer's lattice")
    return not value_range(rec).isdisjoint(values)
