"""Shared desk-scale fixtures: small lattices, alphabets and recognizers.

These are the recurring objects of the test suite and the golden files.  The
recognizer builders return fresh instances so tests can't contaminate each
other.
"""

from __future__ import annotations

from .automata import DtAlgebra
from .lattice import chain, validate
from .recognizers import LDtRecognizer
from .terms import RankedAlphabet


def b2():
    """The two-element chain 0 < 1."""
    return chain(["0", "1"])


def diamond():
    """0 < c,d < 1 with c and d incomparable; c meets d at 0."""
    return validate(["0", "c", "d", "1"], [("0", "c"), ("0", "d"), ("c", "1"), ("d", "1")])


def chain3():
    return chain(["0", "d", "1"])


def chain4():
    return chain(["0", "1/4", "1/2", "1"])


def alphabet_pair():
    """One binary symbol over leaves x, y."""
    return RankedAlphabet({"f": 2}, ["x", "y"])


def alphabet_mixed():
    """A binary and a unary symbol over leaves x, y."""
    return RankedAlphabet({"f": 2, "g": 1}, ["x", "y"])


def alphabet_ternary():
    """A ternary and a unary symbol over leaves x, y."""
    return RankedAlphabet({"h": 3, "g": 1}, ["x", "y"])


def alphabet_solo():
    """One binary symbol over the single leaf x."""
    return RankedAlphabet({"f": 2}, ["x"])


def _three_state_algebra(alphabet, first_step):
    return DtAlgebra(
        alphabet,
        ["a0", "a", "b"],
        {"f": {"a0": first_step, "a": ("b", "b"), "b": ("b", "b")}},
    )


def matched_leaves():
    """Scores f(x,x) at c and f(y,y) at d over the diamond, 0 elsewhere.

    Its support {f(x,x), f(y,y)} is not a deterministic-top-down tree
    language, which is exactly what makes this fixture interesting: the two
    nonzero degrees meet at 0.
    """
    algebra = _three_state_algebra(alphabet_pair(), ("a", "a"))
    return LDtRecognizer(diamond(), algebra, "a0", {"x": {"a": "c"}, "y": {"a": "d"}})


def matched_leaves_swapped():
    """Same shape as matched_leaves with c and d exchanged."""
    algebra = _three_state_algebra(alphabet_pair(), ("a", "a"))
    return LDtRecognizer(diamond(), algebra, "a0", {"x": {"a": "d"}, "y": {"a": "c"}})


def dead_branch():
    """Assigns every tree degree 0 yet has the nonzero path value f.1 x.

    The left child of the root can accept but the right child never does, so
    the tree language is constantly 0 while the path language is not.
    """
    algebra = _three_state_algebra(alphabet_solo(), ("a", "b"))
    return LDtRecognizer(b2(), algebra, "a0", {"x": {"a": "1"}})


def dead_branch_mirror():
    """Twin of dead_branch accepting at the other child; same tree language.

    Everything below the root's left child must fall back into the
    zero-weighted state for the tree language to stay constantly 0, so the
    inner states loop on the accepting side's opposite here.
    """
    algebra = DtAlgebra(
        alphabet_solo(),
        ["a0", "a", "b"],
        {"f": {"a0": ("a", "b"), "a": ("a", "a"), "b": ("a", "a")}},
    )
    return LDtRecognizer(b2(), algebra, "a0", {"x": {"b": "1"}})


def graded_square():
    """Scores every height-1 f-tree at d except f(y,y) at 1, over 0 < d < 1.

    Verified by enumeration in the tests: the support is exactly the four
    height-1 trees, and the level set at d is {f(x,x), f(x,y), f(y,x)}.
    """
    algebra = _three_state_algebra(alphabet_pair(), ("a", "a"))
    return LDtRecognizer(chain3(), algebra, "a0", {"x": {"a": "d"}, "y": {"a": "1"}})


def constant_recognizer(lattice, alphabet, value):
    """A one-state recognizer assigning `value` to every tree."""
    transitions = {f: {"q": ("q",) * m} for f, m in alphabet.symbols}
    algebra = DtAlgebra(alphabet, ["q"], transitions)
    weights = {x: {"q": value} for x in alphabet.leaves}
    return LDtRecognizer(lattice, algebra, "q", weights)
