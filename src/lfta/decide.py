"""Decision procedures for fuzzy top-down recognizers.

The procedures rest on two facts: every degree a deterministic recognizer can
produce lies in the meet-closure of its final weights, and any sufficiently
tall tree can be pumped without changing its degree.  Instead of literally
enumerating trees up to the pumping bounds, the deciders run bottom-up
fixpoints over the sets of attainable degrees (or degree vectors), which the
bounds prove exhaustive; witness trees are carried alongside so every negative
answer comes with a checkable counterexample.

Two deterministic deciders go further.  `compare` splits the lattice into
join-irreducible cuts: a DT degree is a meet of leaf weights, so whether a
join-irreducible `j` lies below it is a crisp DT run, and `u <= v` holds
exactly when every join-irreducible below `u` is below `v`.  Each cut
saturates at most four bit pairs per product state instead of every pair of
lattice values.  `is_finite_support` reads pumping as a graph: the support is
infinite exactly when a cycle of (state, attained degree) nodes is reachable
from a non-bottom degree of the initial state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import islice, product as iproduct

from .automata import Budget, NdtAlgebra, NdtRecognizer, refine, saturate
from .errors import ForeignElementError, TreeTooShortError
from .recognizers import check_same_alphabet, check_same_lattice
from .terms import Context, Tree, context_at
from .transforms import _dt_product_algebra

DEFAULT_BUDGET = 10**6
# the meet table of compare's cut values, bit pairs met bit by bit: u & v
_BIT_AND = ((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 2, 2), (0, 1, 2, 3))


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

    # one descent along the tallest path (leftmost of the tallest), recording
    # the child index taken, the state held at every node on it and the
    # context degree above that node: the meet of the degrees of the
    # off-path siblings higher up (a bare hole scores top)
    meet = rec.lattice._meet
    path, states, values = [], [rec.initial], [rec.lattice.top]
    node = t
    while not node.is_leaf:
        best = max(range(len(node.children)), key=lambda i: node.children[i].height)
        targets = rec.algebra.step(node.symbol, states[-1])
        value = values[-1]
        for i, (child, b) in enumerate(zip(node.children, targets)):
            if i != best:
                value = meet[value][rec.degree_by_paths(child, b)]
        path.append(best)
        states.append(targets[best])
        values.append(value)
        node = node.children[best]

    wanted = len(rec.final_weight_closure()) + 2
    spots = None
    for a in rec.algebra.states:
        found = [i for i, s in enumerate(states[:-1]) if s == a]
        if len(found) >= wanted:
            spots = found[:wanted]
            break
    assert spots is not None, "pigeonhole violated; height bound is wrong"

    # the loop between the first two occurrences of the repeated state with
    # equal context degrees above them pumps
    chosen = next((j for j in range(1, len(spots)) if values[spots[j - 1]] == values[spots[j]]), None)
    assert chosen is not None, "no stabilizing loop; closure bound is wrong"

    lo, hi = spots[chosen - 1], spots[chosen]
    prefix, below = context_at(t, path[:lo])
    loop, suffix = context_at(below, path[lo:hi])
    decomposition = PumpDecomposition(prefix, loop, suffix)

    # the checks walk the run frontier: on a spine no (subtree, state) pair
    # repeats, so the memo of the kernel would not pay for itself
    assert decomposition.pumped(1) == t, "decomposition does not rebuild the tree"
    base = rec.degree_by_paths(t)
    for k in range(4):
        assert rec.degree_by_paths(decomposition.pumped(k)) == base, "pump changed the degree"
    return decomposition


def _attainable(algebra, leaf_value, meet, budget=None):
    """Per-state attainable degrees with witness trees, by saturation.

    `leaf_value(x, a)` is the degree of leaf `x` read in state `a`; an inner
    node meets its children's degrees by the table `meet`, read unchecked.
    Returns the saturation's facts (state, degree, witness) as it finds
    them, so a caller stops it by not asking for more.  `budget`, a `Budget`
    or None, is passed to `saturate`.
    """
    seeds = [(a, leaf_value(x, a), Tree(x)) for x in algebra.alphabet.leaves for a in algebra.states]

    def combine(values):
        values = iter(values)
        acc = next(values)
        for v in values:
            acc = meet[acc][v]
        return acc

    rules = [
        (a, f, algebra.step(f, a), combine) for f, _ in algebra.alphabet.symbols for a in algebra.states
    ]
    return saturate(seeds, rules, budget)


def value_range(rec, budget=DEFAULT_BUDGET):
    """The exact set of degrees the recognizer attains."""
    return frozenset(range_witnesses(rec, budget))


def range_witnesses(rec, budget=DEFAULT_BUDGET):
    """One tree per attainable degree."""
    return dict(_attained(rec, budget))


def _range_facts(rec, budget):
    """Per-state attainable degrees as saturation facts; the weights were validated, so the meet table is too."""
    weights = rec.weights
    return _attainable(rec.algebra, lambda x, a: weights[x][a], rec.lattice._meet, budget)


def _attained(rec, budget):
    """(degree, witness) for each degree the recognizer attains, once each, as saturation finds them."""
    return ((value, witness) for a, value, witness in _range_facts(rec, Budget(budget)) if a == rec.initial)


def is_empty_support(rec, budget=DEFAULT_BUDGET):
    """Whether every tree scores bottom; stops at the first degree that is not."""
    bottom = rec.lattice.bottom
    return all(value == bottom for value, _ in _attained(rec, budget))


def is_constant(rec, budget=DEFAULT_BUDGET):
    """Whether every tree scores alike; stops at the second degree."""
    return len(list(islice(_attained(rec, budget), 2))) == 1


def is_crisp(rec, budget=DEFAULT_BUDGET):
    """Whether every tree scores bottom or top; stops at the first degree that does neither."""
    crisp = {rec.lattice.bottom, rec.lattice.top}
    return all(value in crisp for value, _ in _attained(rec, budget))


def is_finite_support(rec, budget=DEFAULT_BUDGET):
    """Whether only finitely many trees score above bottom.

    A cycle test on a graph whose nodes are the pairs (state `a`, non-bottom
    degree `u` attained from `a`).  An edge (a, u) -> (b, w) says that some
    symbol sends `a` to `b` at some child position, and that a tree scoring
    `w` from `b` there, beside sibling subtrees whose degrees meet to `s`,
    scores `u = w meet s` from `a`.  Edges compose into contexts, so a cycle
    reachable from (initial, v) pumps into trees of every height scoring `v`.
    Conversely the subtrees along a longest path of a nonzero tree walk the
    graph from (initial, its degree), each scoring at least that degree, so a
    tree taller than the node count repeats a node.  Hence the support is
    infinite exactly when a cycle is reachable from a non-bottom initial
    node.  The edge loop counts its combinations against `budget`, as the
    saturation before it does.
    """
    lat = rec.lattice
    meet, bottom = lat._meet, lat.bottom
    budget = Budget(budget)
    live = {a: [] for a in rec.algebra.states}
    for a, value, _ in _range_facts(rec, budget):
        if value != bottom:
            live[a].append(value)
    edges = {}
    for f, _ in rec.alphabet.symbols:
        for a in rec.algebra.states:
            targets = rec.algebra.step(f, a)
            for i, b in enumerate(targets):
                siblings = {lat.top}
                for k, c in enumerate(targets):
                    if k != i:
                        budget.spend(len(siblings) * len(live[c]))
                        siblings = {meet[s][v] for s in siblings for v in live[c]} - {bottom}
                budget.spend(len(siblings) * len(live[b]))
                for w in live[b]:
                    for s in siblings:
                        u = meet[w][s]
                        if u != bottom:
                            edges.setdefault((a, u), set()).add((b, w))
    return not _reaches_cycle(edges, [(rec.initial, v) for v in live[rec.initial]])


def _reaches_cycle(edges, starts):
    """Whether a cycle of the graph `edges` (node -> successors) is reachable from `starts`.

    Iterative depth-first search: a node is True while it is on the stack
    and False once finished, so an edge to a True node closes a cycle.
    """
    on_stack = {}
    for start in starts:
        if start in on_stack:
            continue
        on_stack[start] = True
        stack = [(start, iter(edges.get(start, ())))]
        while stack:
            node, successors = stack[-1]
            for succ in successors:
                seen = on_stack.get(succ)
                if seen:
                    return True
                if seen is None:
                    on_stack[succ] = True
                    stack.append((succ, iter(edges.get(succ, ()))))
                    break
            else:
                on_stack[node] = False
                stack.pop()
    return False


@dataclass
class Comparison:
    included: bool
    equivalent: bool
    disjoint: bool
    inclusion_witness: Tree | None = None
    equivalence_witness: Tree | None = None
    disjointness_witness: Tree | None = None


def compare(f_rec, g_rec, budget=DEFAULT_BUDGET):
    """Inclusion, equivalence and disjointness of two DT recognizers.

    Decided one join-irreducible cut at a time.  For a join-irreducible `j`,
    a leaf of the product automaton holds two bits, `j <= wf` and `j <= wg`,
    and an inner node takes their "and", because `j <= x meet y` exactly when
    `j <= x` and `j <= y`.  Saturating that algebra gives every bit pair some
    tree attains at the initial product state, with a witness.  Every element
    is the join of the join-irreducibles below it, so `f(t) <= g(t)` fails
    exactly when some cut reads (1, 0) at `t`, the degrees differ exactly
    when some cut reads (1, 0) or (0, 1), and `f(t) meet g(t)` is above
    bottom exactly when some cut reads (1, 1).  The cuts share one `budget`,
    and the loop stops once inclusion and disjointness both have a witness.
    """
    check_same_alphabet(f_rec, g_rec)
    check_same_lattice(f_rec, g_rec)
    lat = f_rec.lattice
    algebra = _dt_product_algebra(f_rec, g_rec)
    start = (f_rec.initial, g_rec.initial)
    budget = Budget(budget)
    # first witness per cut value: 1 = j below f(t) only, 2 = below g(t) only, 3 = below both
    witnesses = {}
    for j in lat.join_irreducibles():
        up = {e for e in lat.elements if lat.leq(j, e)}
        leaf_value = lambda x, ab: (f_rec.weights[x][ab[0]] in up) | (g_rec.weights[x][ab[1]] in up) << 1
        for ab, value, witness in _attainable(algebra, leaf_value, _BIT_AND, budget):
            if ab == start:
                witnesses.setdefault(value, witness)
        if 1 in witnesses and 3 in witnesses:
            break
    inc_w, dis_w = witnesses.get(1), witnesses.get(3)
    eq_w = next((w for value, w in witnesses.items() if value in (1, 2)), None)
    return Comparison(inc_w is None, eq_w is None, dis_w is None, inc_w, eq_w, dis_w)


def _union_rows(nf, ng):
    """The rows of the disjoint union of two NDT recognizers.

    The states of `nf` are numbered first, then those of `ng`.  Returns each
    numbered state's row of leaf weights, in `alphabet.leaves` order, and
    per symbol its choices as tuples of state numbers.
    """
    symbols, leaves = [f for f, _ in nf.alphabet.symbols], nf.alphabet.leaves
    leaf_rows, rows = [], []
    for rec in (nf, ng):
        states = rec.algebra.states
        number = dict(zip(states, range(len(rows), len(rows) + len(states)))).__getitem__
        leaf_rows += zip(*[[rec.weights[x][a] for a in states] for x in leaves])
        tables = [rec.algebra.transitions[f] for f in symbols]
        rows += [tuple(tuple(tuple(map(number, tup)) for tup in table[a]) for table in tables) for a in states]
    return leaf_rows, rows


def _block_quotient(leaf_rows, rows):
    """The bisimulation blocks of the numbered states of `_union_rows`.

    `automata.refine` partitions them.  Returns the block of each numbered
    state, and for each block its row of leaf weights and, per symbol, its
    choices as tuples of blocks, each listed once.  Both are read off the
    block's first state: states in one block have the same leaf row and the
    same set of choices in blocks.
    """
    block = refine(leaf_rows, rows)
    first = {}
    for i, k in enumerate(block):
        first.setdefault(k, i)  # blocks are numbered in the order of their first states
    get = block.__getitem__
    return block, [leaf_rows[i] for i in first.values()], [
        tuple(tuple(dict.fromkeys(tuple(map(get, tup)) for tup in choices)) for choices in rows[i])
        for i in first.values()
    ]


def _joint_vectors(lattice, alphabet, leaf_rows, rows, budget):
    """The joint degree vectors of a block quotient, as saturation facts in discovery order.

    `leaf_rows` and `rows` are those of `_block_quotient`.  A vector holds a
    tree's degree from each block.  Every state in a block has the block's
    degree, so these vectors are those over the states, one for one, found
    in the same order from the same rule combinations.  The lattice tables
    are read unchecked: the leaf weights were validated at construction and
    every later value comes out of the tables.
    """
    meet, join, bottom, top = lattice._meet, lattice._join, lattice.bottom, lattice.top

    def vector_for(compiled, child_vectors):
        # bottom absorbs meets and top absorbs joins, as in the evaluation kernel
        out = []
        for choices in compiled:
            acc = bottom
            for tup in choices:
                v = top
                for vec, k in zip(child_vectors, tup):
                    v = meet[v][vec[k]]
                    if v == bottom:
                        break
                else:
                    acc = join[acc][v]
                    if acc == top:
                        break
            out.append(acc)
        return tuple(out)

    seeds = [(None, tuple(row[i] for row in leaf_rows), Tree(x)) for i, x in enumerate(alphabet.leaves)]
    rules = [
        (None, f, (None,) * m, lambda vectors, compiled=tuple(row[s] for row in rows): vector_for(compiled, vectors))
        for s, (f, m) in enumerate(alphabet.symbols)
    ]
    return saturate(seeds, rules, Budget(budget))


def ndt_compare(nf, ng, budget=DEFAULT_BUDGET):
    """Equivalence of two NDT recognizers, with a counterexample if distinct.

    A leaf's degree is its weight joined over the initial states, so the
    leaves are compared first, in `alphabet.leaves` order, from the leaf
    rows of the disjoint union, and the first that differs is the witness:
    it is the first fact the vector saturation would yield, so no
    combination is spent.  States in one bisimulation block give every tree
    the same degree, so a recognizer's degree is the join of its initial
    blocks' degrees.  When both recognizers start from the same set of
    blocks they are equal, and no vector is built.  Otherwise the block
    vectors are saturated, and the answer stops at the first one, in
    discovery order, whose two initial joins differ; only equal recognizers
    saturate every vector.
    """
    check_same_alphabet(nf, ng)
    check_same_lattice(nf, ng)
    lat = nf.lattice
    join, bottom = lat._join, lat.bottom

    def joined(values):
        acc = bottom
        for value in values:
            acc = join[acc][value]
        return acc

    leaf_rows, rows = _union_rows(nf, ng)
    n = len(nf.algebra.states)
    left = [i for i, a in enumerate(nf.algebra.states) if a in nf.initial]
    right = [n + j for j, b in enumerate(ng.algebra.states) if b in ng.initial]
    for k, x in enumerate(nf.alphabet.leaves):
        if joined(leaf_rows[i][k] for i in left) != joined(leaf_rows[j][k] for j in right):
            return False, Tree(x)
    block, leaf_rows, rows = _block_quotient(leaf_rows, rows)
    left, right = {block[i] for i in left}, {block[j] for j in right}
    if left == right:
        return True, None
    for _, vec, witness in _joint_vectors(lat, nf.alphabet, leaf_rows, rows, budget):
        if joined(vec[i] for i in left) != joined(vec[j] for j in right):
            return False, witness
    return True, None


def ndt_equivalent(nf, ng, budget=DEFAULT_BUDGET):
    return ndt_compare(nf, ng, budget)[0]


def level_set(rec, d):
    """Crisp NDT recognizer of the trees scoring exactly `d`.

    States pair an original state with the degree still to be produced below
    it; a branching guesses how the target degree splits into a meet over the
    children.  Values outside the final-weight meet-closure give the empty
    recognizer (no tree attains them).  The closure is meet-closed and comes
    out of the lattice tables, so the splits read the meet table unchecked.
    A row lists its splits in the order `iproduct` makes them, and distinct
    splits give distinct child tuples, so no row repeats a choice.
    """
    rec.lattice.check(d)
    meet = rec.lattice._meet
    closure = sorted(rec.final_weight_closure(), key=rec.lattice.elements.index)
    states = [(a, c) for a in rec.algebra.states for c in closure]
    transitions = {}
    for f, m in rec.alphabet.symbols:
        splits = {c: [] for c in closure}  # each closure value's splits into a meet of m
        for combo in iproduct(closure, repeat=m):
            splits[reduce(lambda u, v: meet[u][v], combo)].append(combo)
        transitions[f] = {
            (a, c): tuple(tuple(zip(rec.algebra.step(f, a), combo)) for combo in splits[c])
            for a, c in states
        }
    algebra = NdtAlgebra._built(rec.alphabet, states, transitions)
    final = {
        x: frozenset((a, rec.weights[x][a]) for a in rec.algebra.states)
        for x in rec.alphabet.leaves
    }
    initial = frozenset([(rec.initial, d)] if d in set(closure) else [])
    return NdtRecognizer._built(algebra, initial, final)


def level_in_domain(rec, d):
    """Whether `d` can be attained at all (lies in the weight meet-closure)."""
    rec.lattice.check(d)
    return d in rec.final_weight_closure()


def level_preimage_nonempty(rec, values):
    """Whether some value in `values` is attained by some tree; stops at the first one found."""
    for d in values:
        if d not in rec.lattice:
            raise ForeignElementError(f"{d!r} not in the recognizer's lattice")
    return any(value in values for value, _ in _attained(rec, DEFAULT_BUDGET))
