"""The error type and message of every check the algebra and recognizer constructors make."""

import pytest

from lfta import fixtures
from lfta.automata import DtAlgebra, DtRecognizer, NdtAlgebra, NdtRecognizer
from lfta.errors import ForeignElementError, ValidationError
from lfta.recognizers import GeneralLNdtRecognizer, LDtRecognizer, LNdtRecognizer

SOLO = fixtures.alphabet_solo()  # f/2 and the leaf x


def dt_algebra():
    return DtAlgebra(SOLO, ["a", "b"], {"f": {"a": ("b", "b"), "b": ("b", "a")}})


def ndt_algebra():
    return NdtAlgebra(SOLO, ["a", "b"], {"f": {"a": [("b", "b"), ("a", "b")], "b": []}})


def raised(build):
    """The exception `build()` raises; its exact type is checked by the caller."""
    with pytest.raises(Exception) as info:
        build()
    return info.value


@pytest.mark.parametrize(
    "states, transitions, message",
    [
        (["a", "b", "a"], {"f": {"a": ("a", "a"), "b": ("a", "a")}}, "duplicate state"),
        ([], {"f": {}}, "empty state set"),
        (["a"], {"f": {}}, "missing transition for 'f' from state 'a'"),
        (["a"], {"f": {"a": ("a",)}}, "transition 'f'/'a' must have 2 targets"),
        (["a"], {"f": {"a": ("a", "z")}}, "unknown target state 'z'"),
        (["a"], {"f": {"a": ("a", "a")}, "g": {"a": ("a",)}}, "unknown symbol 'g'"),
    ],
)
def test_dt_algebra_errors(states, transitions, message):
    exc = raised(lambda: DtAlgebra(SOLO, states, transitions))
    assert type(exc) is ValidationError and str(exc) == message


@pytest.mark.parametrize(
    "states, transitions, message",
    [
        (["a", "b", "a"], {"f": {"a": [("a", "a")]}}, "duplicate state"),
        ([], {"f": {}}, "empty state set"),
        (["a"], {"f": {"a": [("a", "a"), ("a", "a", "a")]}}, "transition 'f'/'a' must have 2 targets"),
        (["a"], {"f": {"a": [("a", "a"), ("z", "a")]}}, "unknown target state 'z'"),
        (["a"], {"f": {"a": []}, "x": {"a": []}}, "unknown symbol 'x'"),  # a leaf is no symbol
    ],
)
def test_ndt_algebra_errors(states, transitions, message):
    exc = raised(lambda: NdtAlgebra(SOLO, states, transitions))
    assert type(exc) is ValidationError and str(exc) == message


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DtRecognizer(dt_algebra(), "z", {"x": {"a"}}), "unknown initial state 'z'"),
        (lambda: LDtRecognizer(fixtures.b2(), dt_algebra(), "z", {"x": {"a": "1"}}), "unknown initial state 'z'"),
        (lambda: NdtRecognizer(ndt_algebra(), {"a", "z"}, {"x": {"a"}}), "unknown initial state"),
        (lambda: LNdtRecognizer(fixtures.b2(), ndt_algebra(), ["z"], {"x": {"a": "1"}}), "unknown initial state"),
        # the initial state is checked before the final table
        (lambda: LDtRecognizer(fixtures.b2(), dt_algebra(), "z", {"x": {"z": "1"}}), "unknown initial state 'z'"),
        (lambda: NdtRecognizer(ndt_algebra(), ["z"], {"x": {"z"}}), "unknown initial state"),
        (lambda: DtRecognizer(dt_algebra(), "a", {"x": {"a", "z"}}), "final set for 'x' mentions unknown states"),
        (lambda: NdtRecognizer(ndt_algebra(), {"a"}, {"x": {"z"}}), "final set for 'x' mentions unknown states"),
        (lambda: LDtRecognizer(fixtures.b2(), dt_algebra(), "a", {"x": {"z": "1"}}), "final weight for unknown state 'z'"),
        (lambda: LNdtRecognizer(fixtures.b2(), ndt_algebra(), {"a"}, {"x": {"b": "1", "z": "1"}}), "final weight for unknown state 'z'"),
        # a final table keyed by a name that is no leaf
        (lambda: DtRecognizer(dt_algebra(), "a", {"x": {"a"}, "z": {"a"}}), "unknown leaf 'z'"),
        (lambda: NdtRecognizer(ndt_algebra(), {"a"}, {"f": {"a"}}), "unknown leaf 'f'"),
        (lambda: LDtRecognizer(fixtures.b2(), dt_algebra(), "a", {"z": {"a": "1"}}), "unknown leaf 'z'"),
        (lambda: LNdtRecognizer(fixtures.b2(), ndt_algebra(), {"a"}, {"X": {"a": "1"}}), "unknown leaf 'X'"),
    ],
)
def test_recognizer_errors(build, message):
    exc = raised(build)
    assert type(exc) is ValidationError and str(exc) == message


@pytest.mark.parametrize(
    "states, initial_weights, message",
    [
        (["a", "a"], {"a": "1", "zzz": "1"}, "duplicate state"),
        ([], {}, "empty state set"),
        (["a"], {"a": "1", "zzz": "1"}, "initial weight for unknown state 'zzz'"),
    ],
)
def test_general_recognizer_errors(states, initial_weights, message):
    exc = raised(lambda: GeneralLNdtRecognizer(fixtures.b2(), SOLO, states, {}, initial_weights, {"x": {}}))
    assert type(exc) is ValidationError and str(exc) == message


@pytest.mark.parametrize(
    "transition_weights, weights, message",
    [
        ({"f": {}, "g": {}}, {"x": {}}, "unknown symbol 'g'"),
        ({}, {"x": {}, "z": {"a": "1"}}, "unknown leaf 'z'"),
    ],
)
def test_general_recognizer_rejects_tables_keyed_outside_the_alphabet(transition_weights, weights, message):
    exc = raised(lambda: GeneralLNdtRecognizer(fixtures.b2(), SOLO, ["a"], transition_weights, {"a": "1"}, weights))
    assert type(exc) is ValidationError and str(exc) == message


@pytest.mark.parametrize("cls, initial", [(LDtRecognizer, "a"), (LNdtRecognizer, {"a"})])
def test_weighted_recognizers_reject_foreign_weights(cls, initial):
    algebra = dt_algebra() if cls is LDtRecognizer else ndt_algebra()
    exc = raised(lambda: cls(fixtures.b2(), algebra, initial, {"x": {"a": "c"}}))
    assert type(exc) is ForeignElementError and str(exc) == "'c' is not an element of this lattice"


def test_valid_constructions_pass():
    DtRecognizer(dt_algebra(), "a", {"x": {"b"}})
    NdtRecognizer(ndt_algebra(), [], {})
    assert LDtRecognizer(fixtures.b2(), dt_algebra(), "b", {}).weights == {"x": {"a": "0", "b": "0"}}
    assert LNdtRecognizer(fixtures.b2(), ndt_algebra(), ("a", "b"), {"x": {"b": "1"}}).initial == {"a", "b"}
