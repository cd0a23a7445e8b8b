"""Path languages of deterministic recognizers and the unary correspondence.

A deterministic recognizer reaches the leaf at the end of a path in a state
that depends only on the path, so it induces a fuzzy language on path words.
Reading each child slot (f, i) as a unary symbol turns the recognizer into a
unary one over the path alphabet and back; degrees of whole trees are meets
of path degrees.
"""

from __future__ import annotations

from .automata import DtAlgebra
from .errors import AlphabetMismatchError
from .recognizers import LDtRecognizer
from .terms import PathWord, RankedAlphabet, Tree


def letter_name(letter):
    f, i = letter
    return f"{f}.{i}"


def path_alphabet(alphabet):
    """The unary alphabet with one symbol per child slot of the original."""
    return RankedAlphabet(
        {letter_name(le): 1 for le in alphabet.path_letters()}, alphabet.leaves
    )


def path_to_tree(path):
    """A path word as a unary tree (innermost symbol is the leaf)."""
    t = Tree(path.leaf)
    for letter in reversed(path.letters):
        t = Tree(letter_name(letter), [t])
    return t


def tree_to_path(t):
    """Inverse of path_to_tree for trees over a path alphabet."""
    letters = []
    while not t.is_leaf:
        name, _, idx = t.symbol.rpartition(".")
        letters.append((name, int(idx)))
        t = t.children[0]
    return PathWord(tuple(letters), t.symbol)


def to_unary(rec):
    """The recognizer over the path alphabet with the same states and weights."""
    unary = path_alphabet(rec.alphabet)
    transitions = {}
    for f, m in rec.alphabet.symbols:
        for i in range(1, m + 1):
            transitions[letter_name((f, i))] = {
                a: (rec.algebra.step(f, a)[i - 1],) for a in rec.algebra.states
            }
    algebra = DtAlgebra._built(unary, rec.algebra.states, transitions)
    return LDtRecognizer._built(rec.lattice, algebra, rec.initial, rec.weights)


def from_unary(rec, alphabet):
    """Rebuild a branching recognizer from one over the path alphabet.

    The result assigns each tree the meet of the unary degrees of its paths,
    so it recognizes the path-determined language of the unary recognizer.
    """
    expected = path_alphabet(alphabet)
    if rec.alphabet != expected:
        raise AlphabetMismatchError("recognizer is not over the path alphabet of the given alphabet")
    transitions = {}
    for f, m in alphabet.symbols:
        transitions[f] = {
            a: tuple(rec.algebra.step(letter_name((f, i)), a)[0] for i in range(1, m + 1))
            for a in rec.algebra.states
        }
    algebra = DtAlgebra._built(alphabet, rec.algebra.states, transitions)
    return LDtRecognizer._built(rec.lattice, algebra, rec.initial, rec.weights)


def path_degree(rec, path):
    """The weight of the path's leaf at the state the path leads to."""
    end = rec.algebra.path_state(rec.initial, path.letters)
    return rec.weights[path.leaf][end]


def degree_via_path_language(rec, t):
    """Tree degree as the meet of its path degrees (agrees with rec.degree).

    This is the meet over the run frontier: each root-to-leaf path ends at
    one frontier pair (its leaf, its end state), whose final weight is the
    path's degree, and the prefixes that several paths share are walked once.
    """
    return rec.degree_by_paths(t)
