import pytest
from hypothesis import given, settings, strategies as st

from lfta import fixtures
from lfta.automata import (
    DtAlgebra,
    DtRecognizer,
    NdtAlgebra,
    NdtRecognizer,
    subset_algebra,
)
from lfta.errors import ValidationError
from lfta.terms import RankedAlphabet, Tree, parse_tree

from helpers import accepting_states, random_ndt, random_tree, seeded, spine_degrees, spine_tree


def dead_branch_algebra():
    return fixtures.dead_branch().algebra


def test_run_tree_annotations():
    algebra = dead_branch_algebra()
    run = algebra.run(parse_tree("f(x,x)"), "a0")
    assert run.symbol == ("f", "a0")
    assert [c.symbol for c in run.children] == [("x", "a"), ("x", "b")]
    assert algebra.run(Tree("x"), "a").symbol == ("x", "a")


def strip(run):
    return Tree(run.symbol[0], [strip(c) for c in run.children])


def test_run_shape_matches_input():
    rng = seeded(2)
    algebra = dead_branch_algebra()
    for _ in range(20):
        t = random_tree(rng, fixtures.alphabet_solo(), 4)
        assert strip(algebra.run(t, "a0")) == t


def test_leaf_run():
    algebra = dead_branch_algebra()
    assert algebra.leaf_run(parse_tree("f(x,x)"), "a0") == {("x", "a"), ("x", "b")}
    assert algebra.leaf_run(parse_tree("f(f(x,x),x)"), "a0") == {("x", "b")}


def test_leaf_run_agrees_with_run():
    rng = seeded(4)
    algebra = dead_branch_algebra()
    for _ in range(20):
        t = random_tree(rng, fixtures.alphabet_solo(), 4)
        frontier = {
            node.symbol for node in algebra.run(t, "a0").subtrees() if node.is_leaf
        }
        assert frontier == algebra.leaf_run(t, "a0")


def test_leaf_run_and_accepts_on_deep_spine():
    alph = RankedAlphabet({"g": 1}, ["x"])
    algebra = DtAlgebra(alph, ["a", "b"], {"g": {"a": ("b",), "b": ("a",)}})
    even, odd = spine_tree(alph, 10**4), spine_tree(alph, 10**4 + 1)
    assert algebra.leaf_run(even, "a") == {("x", "a")}
    assert algebra.leaf_run(odd, "a") == {("x", "b")}
    rec = DtRecognizer(algebra, "a", {"x": ["a"]})
    assert rec.accepts(even) and not rec.accepts(odd)


def test_crisp_ndt_accepts_on_deep_spine():
    rng = seeded(97)
    alph, b2 = fixtures.alphabet_mixed(), fixtures.b2()
    spine = spine_tree(alph, 10**4)
    answers = set()
    for _ in range(6):
        weighted = random_ndt(rng, b2, alph, max_choices=3)
        algebra = weighted.algebra
        final = {x: [a for a, v in row.items() if v == "1"] for x, row in weighted.weights.items()}
        rec = NdtRecognizer(algebra, weighted.initial, final)
        options = lambda a: [(tup, "1") for tup in algebra.choices("f", a)]
        vector = spine_degrees(b2, alph, weighted.weights, options, algebra.states, 10**4)
        answers.add(rec.accepts(spine))
        assert rec.accepts(spine) == any(vector[a] == "1" for a in rec.initial)
    assert answers == {True, False}


def test_path_state():
    algebra = dead_branch_algebra()
    assert algebra.path_state("a0", ()) == "a0"
    assert algebra.path_state("a0", (("f", 1),)) == "a"
    assert algebra.path_state("a0", (("f", 2), ("f", 1))) == "b"


def test_path_state_is_a_monoid_action():
    rng = seeded(6)
    algebra = dead_branch_algebra()
    letters = [("f", 1), ("f", 2)]
    for _ in range(30):
        u = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
        v = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
        via = algebra.path_state(algebra.path_state("a0", u), v)
        assert algebra.path_state("a0", u + v) == via


def two_choice_ndt():
    alph = fixtures.alphabet_solo()
    return NdtAlgebra(
        alph,
        ["a0", "a", "b"],
        {"f": {"a0": [("a", "a"), ("b", "b")], "a": [("b", "b")], "b": []}},
    )


def test_ndt_path_states():
    algebra = two_choice_ndt()
    assert algebra.path_states("a0", ()) == {"a0"}
    assert algebra.path_states("a0", (("f", 1),)) == {"a", "b"}
    assert algebra.path_states("b", (("f", 1),)) == set()


def test_subset_algebra_matches_path_states():
    # deterministic subset steps simulate all nondeterministic runs at once
    rng = seeded(8)
    for trial in range(25):
        alph = fixtures.alphabet_mixed()
        states = [f"q{i}" for i in range(rng.randint(1, 4))]
        transitions = {}
        for f, m in alph.symbols:
            transitions[f] = {
                a: [tuple(rng.choice(states) for _ in range(m)) for _ in range(rng.randint(0, 2))]
                for a in states
            }
        algebra = NdtAlgebra(alph, states, transitions)
        start = frozenset(a for a in states if rng.random() < 0.5)
        powers = subset_algebra(algebra, starts=[start])
        letters = alph.path_letters()
        for _ in range(8):
            w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 6)))
            assert powers.path_state(start, w) == frozenset().union(*(algebra.path_states(a, w) for a in start))


def test_subset_algebra_empty_set_is_sink():
    powers = subset_algebra(two_choice_ndt(), starts=[frozenset()])
    assert powers.step("f", frozenset()) == (frozenset(), frozenset())


def test_subset_algebra_lists_states_in_discovery_order():
    # breadth first from the start sets, each set listed once where first found
    powers = subset_algebra(two_choice_ndt(), starts=[{"b"}, {"a0"}, {"b"}])
    assert powers.states == (
        frozenset({"b"}),
        frozenset({"a0"}),
        frozenset(),
        frozenset({"a", "b"}),
    )
    assert powers.step("f", frozenset({"a0"})) == (frozenset({"a", "b"}),) * 2
    assert powers.step("f", frozenset({"a", "b"})) == (frozenset({"b"}),) * 2


def test_dt_recognizer_accepts():
    # accepts exactly f(x,y): left child must be x, right child y
    alph = fixtures.alphabet_pair()
    algebra = DtAlgebra(
        alph,
        ["r", "l", "rr", "dead"],
        {"f": {"r": ("l", "rr"), "l": ("dead", "dead"), "rr": ("dead", "dead"), "dead": ("dead", "dead")}},
    )
    rec = DtRecognizer(algebra, "r", {"x": {"l"}, "y": {"rr"}})
    assert rec.accepts(parse_tree("f(x,y)"))
    assert not rec.accepts(parse_tree("f(y,x)"))
    assert not rec.accepts(parse_tree("f(f(x,y),y)"))


def test_dt_recognizer_accepts_by_paths():
    rng = seeded(10)
    alph = fixtures.alphabet_pair()
    algebra = DtAlgebra(
        alph,
        ["r", "l", "rr", "dead"],
        {"f": {"r": ("l", "rr"), "l": ("dead", "dead"), "rr": ("dead", "dead"), "dead": ("dead", "dead")}},
    )
    rec = DtRecognizer(algebra, "r", {"x": {"l"}, "y": {"rr"}})
    from lfta.terms import delta

    for _ in range(30):
        t = random_tree(rng, alph, 3)
        by_paths = all(
            algebra.path_state("r", p.letters) in rec.final[p.leaf] for p in delta(t)
        )
        assert rec.accepts(t) == by_paths


def test_dt_recognizer_empty_finals_rejects():
    algebra = dead_branch_algebra()
    rec = DtRecognizer(algebra, "a0", {"x": set()})
    assert not rec.accepts(parse_tree("x"))
    assert not rec.accepts(parse_tree("f(x,x)"))


def test_ndt_recognizer_accepts_and_nonempty():
    algebra = two_choice_ndt()
    rec = NdtRecognizer(algebra, ["a0"], {"x": {"a", "b"}})
    assert rec.accepts(parse_tree("f(x,x)"))
    assert NdtRecognizer(algebra, [], {"x": {"a"}}).accepts(parse_tree("x")) is False

    leafy = NdtRecognizer(algebra, ["a0"], {"x": {"a0"}})
    assert leafy.nonempty()
    nothing = NdtRecognizer(algebra, ["a0"], {"x": set()})
    assert not nothing.nonempty()


def test_nonempty_needs_productive_loop_exit():
    # the only transition loops forever, so nothing is ever accepted
    alph = fixtures.alphabet_solo()
    algebra = NdtAlgebra(alph, ["q", "final"], {"f": {"q": [("q", "q")], "final": []}})
    rec = NdtRecognizer(algebra, ["q"], {"x": {"final"}})
    assert not rec.nonempty()


def test_algebra_validation():
    alph = fixtures.alphabet_solo()
    with pytest.raises(ValidationError):
        DtAlgebra(alph, ["a"], {"f": {}})
    with pytest.raises(ValidationError):
        DtAlgebra(alph, ["a"], {"f": {"a": ("a",)}})
    with pytest.raises(ValidationError):
        NdtAlgebra(alph, ["a"], {"f": {"a": [("a", "missing")]}})


@st.composite
def _crisp_ndts_and_trees(draw):
    """A crisp NDT with 1-3 states, 0-2 choices per symbol and state and a possibly
    empty initial set, with every single-leaf tree and random trees of height <= 4."""
    alphabet = draw(st.sampled_from((fixtures.alphabet_mixed(), fixtures.alphabet_ternary())))
    states = [f"q{i}" for i in range(draw(st.integers(1, 3)))]
    state = st.sampled_from(states)
    transitions = {
        f: {a: [tuple(draw(state) for _ in range(m)) for _ in range(draw(st.integers(0, 2)))] for a in states}
        for f, m in alphabet.symbols
    }
    final = {x: draw(st.sets(state)) for x in alphabet.leaves}
    rec = NdtRecognizer(NdtAlgebra(alphabet, states, transitions), draw(st.sets(state)), final)
    rng = seeded(draw(st.integers(0, 10**6)))
    trees = [Tree(x) for x in alphabet.leaves] + [random_tree(rng, alphabet, rng.randint(1, 4)) for _ in range(6)]
    return rec, trees


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_crisp_ndts_and_trees())
def test_ndt_accepts_matches_the_accepting_states_reference(case):
    rec, trees = case
    for t in trees:
        assert rec.accepts(t) == bool(rec.initial & accepting_states(rec, t))
