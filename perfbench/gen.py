"""Seeded inputs for the benchmark: lattices, alphabets, recognizers, trees.

Every generator takes a `random.Random`; the same seed gives the same
objects.  Recognizers get exactly the requested number of states, all of
them reachable, and final weights that use every lattice element, so the
seed changes the wiring but not the size of the problem: the scaling rows
read against the state count, and costs vary little from seed to seed.
"""

from __future__ import annotations

from lfta import fixtures
from lfta.automata import DtAlgebra, NdtAlgebra
from lfta.lattice import Lattice, chain, product
from lfta.oracle import enum_trees
from lfta.recognizers import GeneralLNdtRecognizer, LDtRecognizer, LNdtRecognizer
from lfta.terms import HOLE, Context, RankedAlphabet, Tree, TreeHomomorphism


def n5():
    """The pentagon, the smallest non-modular (so non-distributive) lattice."""
    return Lattice(["0", "a", "b", "c", "1"], [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")])


def lattices():
    """Every lattice the workloads use, by the name the detail rows carry."""
    c4 = fixtures.chain4()
    return {
        "b2": fixtures.b2(),
        "diamond": fixtures.diamond(),
        "chain3": fixtures.chain3(),
        "chain4": c4,
        "chain8": chain([f"{i}/7" for i in range(8)]),
        "chain4xb2": product(c4, fixtures.b2()),
        "n5": n5(),
    }


ALPHABETS = {
    "f2": ({"f": 2}, ["x", "y"]),
    "f2g1": ({"f": 2, "g": 1}, ["x", "y"]),
    "h3g1": ({"h": 3, "g": 1}, ["x", "y"]),
}


def alphabets():
    return {name: RankedAlphabet(dict(sym), leaves) for name, (sym, leaves) in ALPHABETS.items()}


def pool(alphabet):
    """All trees of height <= 3 (height <= 2 once a ternary symbol makes that too many)."""
    max_height = 2 if max(m for _, m in alphabet.symbols) > 2 else 3
    return enum_trees(alphabet, max_height)


def states_of(n):
    return [f"q{i}" for i in range(n)]


def _wiring(rng, alphabet, states, choices):
    """`choices` random target tuples per symbol and state, every state reachable from states[0].

    Each state after the first is made the child of an earlier state through
    a slot no other state claims, so the seed changes the wiring but never
    the number of reachable states.
    """
    rows = {f: {a: [[rng.choice(states) for _ in range(m)] for _ in range(choices)] for a in states}
            for f, m in alphabet.symbols}
    free = []
    for k in range(1, len(states)):
        free += [(f, states[k - 1], c, i) for f, m in alphabet.symbols for c in range(choices) for i in range(m)]
        f, a, c, i = free.pop(rng.randrange(len(free)))
        rows[f][a][c][i] = states[k]
    return {f: {a: [tuple(t) for t in tups] for a, tups in r.items()} for f, r in rows.items()}


def _weights(rng, lattice, alphabet, states):
    """Random final weights in which every lattice element occurs (room permitting)."""
    weights = {x: {a: rng.choice(lattice.elements) for a in states} for x in alphabet.leaves}
    slots = [(x, a) for x in alphabet.leaves for a in states]
    k = min(len(slots), len(lattice.elements))
    for (x, a), e in zip(rng.sample(slots, k), rng.sample(lattice.elements, k)):
        weights[x][a] = e
    return weights


def random_dt(rng, lattice, alphabet, n):
    states = states_of(n)
    wiring = _wiring(rng, alphabet, states, 1)
    transitions = {f: {a: tups[0] for a, tups in rows.items()} for f, rows in wiring.items()}
    return LDtRecognizer(lattice, DtAlgebra(alphabet, states, transitions), states[0],
                         _weights(rng, lattice, alphabet, states))


def random_ndt(rng, lattice, alphabet, n, choices=2, extra=0):
    """`choices` tuples per symbol and state, plus one more on `extra` random rows."""
    states = states_of(n)
    wiring = _wiring(rng, alphabet, states, choices)
    rows = [(f, a) for f, _ in alphabet.symbols for a in states]
    for f, a in rng.sample(rows, min(extra, len(rows))):
        wiring[f][a].append(tuple(rng.choice(states) for _ in range(alphabet.arity(f))))
    algebra = NdtAlgebra(alphabet, states, wiring)
    return LNdtRecognizer(lattice, algebra, [states[0]], _weights(rng, lattice, alphabet, states))


def random_general(rng, lattice, alphabet, n, choices=2):
    states = states_of(n)
    transition_weights = {
        f: {(a, tup): rng.choice(lattice.elements) for a, tups in rows.items() for tup in tups}
        for f, rows in _wiring(rng, alphabet, states, choices).items()
    }
    weights = _weights(rng, lattice, alphabet, states)
    return GeneralLNdtRecognizer(lattice, alphabet, states, transition_weights, {states[0]: lattice.top}, weights)


def permuted_dt(rng, rec):
    """The same recognizer with its states renamed; equal by construction."""
    old = list(rec.algebra.states)
    new = [f"p{i}" for i in range(len(old))]
    rng.shuffle(new)
    rename = dict(zip(old, new))
    transitions = {
        f: {rename[a]: tuple(rename[b] for b in rec.algebra.step(f, a)) for a in old} for f, _ in rec.alphabet.symbols
    }
    weights = {x: {rename[a]: v for a, v in row.items()} for x, row in rec.weights.items()}
    return LDtRecognizer(rec.lattice, DtAlgebra(rec.alphabet, new, transitions), rename[rec.initial], weights)


def random_tree(rng, alphabet, height):
    if height == 0 or rng.random() < 0.3:
        return Tree(rng.choice(alphabet.leaves))
    f, m = rng.choice(alphabet.symbols)
    return Tree(f, [random_tree(rng, alphabet, height - 1) for _ in range(m)])


def caterpillar(rng, alphabet, height):
    """A spine of `height` random symbols with fresh random side subtrees.

    Side subtrees have height <= 3 and are drawn independently, so distinct
    caterpillars share few subtrees beyond leaves.
    """
    t = random_tree(rng, alphabet, 2)
    for _ in range(height - t.height):
        f, m = rng.choice(alphabet.symbols)
        slot = rng.randrange(m)
        children = [t if i == slot else random_tree(rng, alphabet, 3) for i in range(m)]
        t = Tree(f, children)
    return t


def spine(alphabet, height, filler=None):
    """A tree of exactly the requested height along its leftmost path."""
    filler = filler or alphabet.leaves[0]
    f, m = alphabet.symbols[0]
    t = Tree(filler)
    for _ in range(height):
        t = Tree(f, [t] + [Tree(filler)] * (m - 1))
    return t


def _var(i):
    return Tree(f"${i}")


def homs(alphabet):
    """Alphabetic, deleting and duplicating homomorphisms from the alphabet to itself."""
    x, y = alphabet.leaves[0], alphabet.leaves[1]
    ident = {f: Tree(f, [_var(i) for i in range(1, m + 1)]) for f, m in alphabet.symbols}
    leaves = {a: Tree(a) for a in alphabet.leaves}
    (f, m) = alphabet.symbols[0]
    deleting = dict(ident, **{f: Tree(f, [_var(1)] + [Tree(x)] * (m - 1))})
    duplicating = dict(ident, **{f: Tree(f, [_var(1)] * m)})
    return {
        "alphabetic": TreeHomomorphism(alphabet, alphabet, {x: Tree(y), y: Tree(x)}, ident),
        "deleting": TreeHomomorphism(alphabet, alphabet, leaves, deleting),
        "duplicating": TreeHomomorphism(alphabet, alphabet, leaves, duplicating),
    }


def context(alphabet):
    """A context with its hole at depth 2."""
    f, m = alphabet.symbols[0]
    x, y = alphabet.leaves[0], alphabet.leaves[1]
    inner = Tree(f, [Tree(HOLE)] + [Tree(x)] * (m - 1))
    return Context(Tree(f, [Tree(y)] * (m - 1) + [inner]))
