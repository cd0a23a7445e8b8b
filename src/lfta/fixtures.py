"""Shared desk-scale fixtures: small lattices and alphabets.

The named desk recognizers are defined once, in `goldens/fixtures.lfta`.
"""

from .lattice import chain, validate
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
