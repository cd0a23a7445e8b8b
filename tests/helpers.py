"""Seeded random generators shared by the property and acceptance tests."""

import random

from lfta import fixtures
from lfta.automata import DtAlgebra, NdtAlgebra
from lfta.recognizers import GeneralLNdtRecognizer, LDtRecognizer, LNdtRecognizer
from lfta.terms import Tree


def lattice_menu():
    return [fixtures.b2(), fixtures.diamond(), fixtures.chain4()]


def random_dt(rng, lattice, alphabet, max_states=4):
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    transitions = {
        f: {a: tuple(rng.choice(states) for _ in range(m)) for a in states}
        for f, m in alphabet.symbols
    }
    weights = {
        x: {a: rng.choice(lattice.elements) for a in states} for x in alphabet.leaves
    }
    return LDtRecognizer(lattice, DtAlgebra(alphabet, states, transitions), rng.choice(states), weights)


def random_ndt(rng, lattice, alphabet, max_states=4, max_choices=2):
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    transitions = {}
    for f, m in alphabet.symbols:
        rows = {}
        for a in states:
            k = rng.randint(0, max_choices)
            rows[a] = [tuple(rng.choice(states) for _ in range(m)) for _ in range(k)]
        transitions[f] = rows
    weights = {
        x: {a: rng.choice(lattice.elements) for a in states} for x in alphabet.leaves
    }
    initial = [a for a in states if rng.random() < 0.6] or [states[0]]
    return LNdtRecognizer(lattice, NdtAlgebra(alphabet, states, transitions), initial, weights)


def random_general(rng, lattice, alphabet, max_states=3, max_choices=3):
    """Random transition and initial weights, top and bottom included."""
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    transitions = {
        f: {
            (a, tuple(rng.choice(states) for _ in range(m))): rng.choice(lattice.elements)
            for a in states
            for _ in range(rng.randint(1, max_choices))
        }
        for f, m in alphabet.symbols
    }
    initial = {a: rng.choice(lattice.elements) for a in states}
    weights = {
        x: {a: rng.choice(lattice.elements) for a in states} for x in alphabet.leaves
    }
    return GeneralLNdtRecognizer(lattice, alphabet, states, transitions, initial, weights)


def random_tree(rng, alphabet, height):
    if height == 0 or (height > 0 and rng.random() < 0.25):
        return Tree(rng.choice(alphabet.leaves))
    f, m = rng.choice(alphabet.symbols)
    return Tree(f, [random_tree(rng, alphabet, height - 1) for _ in range(m)])


def spine_tree(alphabet, height, filler=None):
    """A tree of exactly the requested height along its leftmost path."""
    filler = filler or alphabet.leaves[0]
    t = Tree(filler)
    f, m = alphabet.symbols[0]
    for _ in range(height):
        t = Tree(f, [t] + [Tree(filler)] * (m - 1))
    return t


def seeded(n):
    return random.Random(n)
