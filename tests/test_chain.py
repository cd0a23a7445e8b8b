import pytest

from lfta import chain as chain_ops
from lfta import decide, fixtures, paths
from lfta.errors import BudgetExceededError, NotAChainError, NotNormalizedError
from lfta.lattice import chain
from lfta.cli import run
from lfta.oracle import (
    FiniteFuzzyLanguage,
    enum_trees,
    eval_reference,
    eval_reference_map,
    fuzzy_path_closure,
    is_path_closed,
    path_image,
)
from lfta.recognizers import dt_to_ndt, from_finite_language
from lfta.terms import PathWord, delta, parse_path, parse_tree
from lfta.workspace import Workspace, load_text, serialize

from helpers import (
    constant_recognizer,
    desk,
    is_dt_recognizable_by_closure,
    m3,
    n5,
    random_dt,
    random_ndt,
    seeded,
    stdout_under_hash_seed,
    witness_tree_by_rescans,
)

from test_paths import all_paths


def test_require_chain():
    chain_ops.require_chain(fixtures.b2())
    chain_ops.require_chain(fixtures.chain3())
    with pytest.raises(NotAChainError):
        chain_ops.require_chain(fixtures.diamond())


def test_chain_guard_on_operations():
    # a best degree needs a total order: max_values and what calls it raise
    # its error, and so does is_dt_recognizable on a nondeterministic input
    rng = seeded(90)
    path = parse_path("f.1 x")
    for lattice in (fixtures.diamond(), n5(), m3()):
        rec = random_ndt(rng, lattice, fixtures.alphabet_pair())
        dt = random_dt(rng, lattice, fixtures.alphabet_pair())
        two_roots = {parse_tree("f(x,y)"): lattice.top, parse_tree("f(y,x)"): lattice.top}
        union = from_finite_language(lattice, fixtures.alphabet_pair(), two_roots)
        for op in (
            lambda: chain_ops.max_values(rec),
            lambda: chain_ops.is_normalized(rec),
            lambda: chain_ops.normalize(rec),
            lambda: chain_ops.normalize_dt(dt),
            lambda: chain_ops.path_closure_recognizer(rec),
            lambda: chain_ops.witness_tree(rec, path),
            lambda: chain_ops.path_image_normalized(dt, path),
            lambda: chain_ops.is_dt_recognizable(union),
        ):
            with pytest.raises(NotAChainError) as info:
                op()
            assert str(info.value) == "operation needs a totally ordered lattice"


def test_subset_recognizer_shares_path_language_on_any_lattice():
    # both sides join the final weights over the states a path reaches
    rng = seeded(92)
    alphabets = (fixtures.alphabet_pair(), fixtures.alphabet_mixed())
    for lattice in (fixtures.diamond(), n5(), m3()):
        for n in range(10):
            rec = random_ndt(rng, lattice, alphabets[n % 2], max_states=3)
            subset = chain_ops.subset_recognizer(rec)
            for r in all_paths(rec.alphabet, 3):
                assert paths.path_degree(subset, r) == chain_ops.path_degree_ndt(rec, r)


def test_max_values_dead_branch():
    table = chain_ops.max_values(dt_to_ndt(desk("DeadBranch")))
    assert table.values == {"a0": "0", "a": "1", "b": "0"}


def test_max_values_all_zero():
    lat = fixtures.b2()
    rec = constant_recognizer(lat, fixtures.alphabet_solo(), "0")
    table = chain_ops.max_values(dt_to_ndt(rec))
    assert set(table.values.values()) == {"0"}


def test_max_values_self_loop():
    from lfta.automata import NdtAlgebra
    from lfta.recognizers import LNdtRecognizer

    lat = fixtures.chain4()
    alph = fixtures.alphabet_solo()
    algebra = NdtAlgebra(alph, ["q"], {"f": {"q": [("q", "q")]}})
    rec = LNdtRecognizer(lat, algebra, ["q"], {"x": {"q": "1/2"}})
    assert chain_ops.max_values(rec).values == {"q": "1/2"}


def test_max_values_witnesses():
    rng = seeded(91)
    for n in range(15):
        lattice = fixtures.chain4() if n % 2 else fixtures.b2()
        rec = random_ndt(rng, lattice, fixtures.alphabet_pair())
        table = chain_ops.max_values(rec)
        for state, value in table.values.items():
            assert rec.degree(table.witnesses[state], start=state) == value
        # no tree does better on a bounded sample
        pool = enum_trees(rec.alphabet, 2)
        for state in rec.algebra.states:
            for t in pool:
                assert lattice.leq(rec.degree(t, start=state), table.values[state])


def test_is_normalized():
    assert not chain_ops.is_normalized_dt(desk("DeadBranch"))
    one_state = constant_recognizer(fixtures.b2(), fixtures.alphabet_solo(), "1")
    assert chain_ops.is_normalized_dt(one_state)


def test_normalize_preserves_degrees():
    rng = seeded(93)
    for n in range(12):
        lattice = fixtures.chain4() if n % 2 else fixtures.chain3()
        rec = random_ndt(rng, lattice, fixtures.alphabet_pair(), max_states=3)
        normalized = chain_ops.normalize(rec)
        assert chain_ops.is_normalized(normalized)
        pool = enum_trees(rec.alphabet, 3)
        want = eval_reference_map(rec, pool)
        got = normalized.degree_map(pool)
        assert all(got[t] == want[t] for t in pool)


def test_normalize_dt_stays_deterministic_and_equivalent():
    rng = seeded(95)
    for n in range(10):
        lattice = fixtures.chain4() if n % 2 else fixtures.b2()
        rec = random_dt(rng, lattice, fixtures.alphabet_pair(), max_states=3)
        normalized = chain_ops.normalize_dt(rec)
        assert chain_ops.is_normalized_dt(normalized)
        for t in enum_trees(rec.alphabet, 3):
            assert normalized.degree(t) == rec.degree(t)


def test_normalize_dt_kills_phantom_paths():
    # the dead branch's phantom path value disappears once normalized
    rec = desk("DeadBranch")
    assert paths.path_degree(rec, parse_path("f.1 x")) == "1"
    normalized = chain_ops.normalize_dt(rec)
    assert paths.path_degree(normalized, parse_path("f.1 x")) == "0"


def test_path_degree_ndt():
    rec = dt_to_ndt(desk("DeadBranch"))
    assert chain_ops.path_degree_ndt(rec, parse_path("f.1 x")) == "1"
    assert chain_ops.path_degree_ndt(rec, parse_path("f.2 x")) == "0"
    # unreachable end gives the empty-best value 0
    from lfta.automata import NdtAlgebra
    from lfta.recognizers import LNdtRecognizer

    alph = fixtures.alphabet_solo()
    algebra = NdtAlgebra(alph, ["q"], {"f": {"q": []}})
    stuck = LNdtRecognizer(fixtures.b2(), algebra, ["q"], {"x": {"q": "1"}})
    assert chain_ops.path_degree_ndt(stuck, parse_path("f.1 x")) == "0"


def test_degree_never_exceeds_path_degree():
    rng = seeded(97)
    for n in range(12):
        lattice = fixtures.chain4() if n % 2 else fixtures.chain3()
        rec = random_ndt(rng, lattice, fixtures.alphabet_pair(), max_states=3)
        for t in enum_trees(rec.alphabet, 2):
            value = rec.degree(t)
            for r in delta(t):
                assert lattice.leq(value, chain_ops.path_degree_ndt(rec, r))


def test_subset_recognizer_shares_path_language():
    rng = seeded(99)
    for n in range(12):
        lattice = fixtures.chain4() if n % 2 else fixtures.b2()
        rec = random_ndt(rng, lattice, fixtures.alphabet_pair(), max_states=3)
        subset = chain_ops.subset_recognizer(rec)
        for r in all_paths(rec.alphabet, 5)[:60]:
            assert paths.path_degree(subset, r) == chain_ops.path_degree_ndt(rec, r)


def test_subset_recognizer_of_deterministic_input():
    rec = desk("GradedSquare")
    subset = chain_ops.subset_recognizer(dt_to_ndt(rec))
    for t in enum_trees(rec.alphabet, 2):
        assert subset.degree(t) == rec.degree(t)


def test_subset_recognizer_empty_initial():
    from lfta.automata import NdtAlgebra
    from lfta.recognizers import LNdtRecognizer

    alph = fixtures.alphabet_solo()
    algebra = NdtAlgebra(alph, ["q"], {"f": {"q": [("q", "q")]}})
    rec = LNdtRecognizer(fixtures.b2(), algebra, [], {"x": {"q": "1"}})
    subset = chain_ops.subset_recognizer(rec)
    for t in enum_trees(alph, 2):
        assert subset.degree(t) == "0"


def test_witness_tree_examples():
    rec = chain_ops.normalize(dt_to_ndt(desk("DeadBranch")))
    r = parse_path("x")
    assert chain_ops.witness_tree(rec, r) == parse_tree("x")
    r = parse_path("f.1 x")
    w = chain_ops.witness_tree(rec, r)
    assert r in delta(w)
    assert rec.degree(w) == chain_ops.path_degree_ndt(rec, r)


def test_witness_tree_requires_normalized():
    with pytest.raises(NotNormalizedError):
        chain_ops.witness_tree(dt_to_ndt(desk("DeadBranch")), parse_path("f.1 x"))


def test_witness_tree_realizes_path_degree():
    rng = seeded(101)
    for n in range(10):
        lattice = fixtures.chain4() if n % 2 else fixtures.chain3()
        rec = chain_ops.normalize(random_ndt(rng, lattice, fixtures.alphabet_pair(), max_states=2))
        for r in all_paths(rec.alphabet, 3)[:24]:
            w = chain_ops.witness_tree(rec, r)
            assert r in delta(w)
            assert rec.degree(w) == chain_ops.path_degree_ndt(rec, r)


def test_witness_tree_matches_the_rescanning_walk():
    # the backward pass picks the same choices, with the same tie-breaks
    rng = seeded(109)
    for n in range(16):
        lattice = fixtures.chain4() if n % 2 else fixtures.chain3()
        alphabet = fixtures.alphabet_mixed() if n % 4 < 2 else fixtures.alphabet_pair()
        rec = chain_ops.normalize(random_ndt(rng, lattice, alphabet, max_states=3))
        for r in all_paths(alphabet, 3)[:60]:
            assert chain_ops.witness_tree(rec, r) == witness_tree_by_rescans(rec, r)


def _follows(t, path):
    """Whether `path` is a path of `t`, by one walk down it."""
    for f, i in path.letters:
        if t.symbol != f or len(t.children) < i:
            return False
        t = t.children[i - 1]
    return t.is_leaf and t.symbol == path.leaf


def test_witness_tree_on_a_path_of_2000_letters():
    # a 5-state normalized DT view: every state has a choice, so the walk
    # follows the whole path
    rng = seeded(119)
    alphabet = fixtures.alphabet_mixed()
    rec = chain_ops.normalize(dt_to_ndt(random_dt(rng, fixtures.chain4(), alphabet, max_states=4)))
    assert len(rec.algebra.states) == 5
    r = PathWord(tuple(rng.choice(alphabet.path_letters()) for _ in range(2000)), "x")
    w = chain_ops.witness_tree(rec, r)
    assert _follows(w, r)
    # compared as text: `Tree.__eq__` recurses, and this tree is 2,000 high
    assert str(w) == str(witness_tree_by_rescans(rec, r))


def test_subset_of_normalized_computes_path_closure():
    # the subset recognizer of a normalized recognizer scores every tree at
    # the least of its path degrees, which is the fuzzy path closure
    rng = seeded(103)
    for n in range(10):
        lattice = fixtures.chain4() if n % 2 else fixtures.chain3()
        rec = chain_ops.normalize(random_ndt(rng, lattice, fixtures.alphabet_pair(), max_states=2))
        subset = chain_ops.subset_recognizer(rec)
        for t in enum_trees(rec.alphabet, 3):
            best = lattice.top
            for r in delta(t):
                best = lattice.meet(best, chain_ops.path_degree_ndt(rec, r))
            assert subset.degree(t) == best


def test_path_closure_recognizer_union_witness():
    lat = fixtures.b2()
    alph = fixtures.alphabet_pair()
    union = from_finite_language(
        lat, alph, {parse_tree("f(x,y)"): "1", parse_tree("f(y,x)"): "1"}
    )
    closed = chain_ops.path_closure_recognizer(union)
    values = {str(t): closed.degree(t) for t in enum_trees(alph, 1)}
    assert {k for k, v in values.items() if v == "1"} == {
        "f(x,x)", "f(x,y)", "f(y,x)", "f(y,y)"
    }


def test_path_closure_recognizer_fixes_closed_language():
    rec = dt_to_ndt(desk("GradedSquare"))
    closed = chain_ops.path_closure_recognizer(rec)
    for t in enum_trees(desk("GradedSquare").alphabet, 2):
        assert closed.degree(t) == desk("GradedSquare").degree(t)


def test_path_closure_of_zero_is_zero():
    rec = dt_to_ndt(desk("DeadBranch"))
    closed = chain_ops.path_closure_recognizer(rec)
    for t in enum_trees(rec.alphabet, 3):
        assert closed.degree(t) == "0"


def test_is_dt_recognizable():
    lat = fixtures.b2()
    alph = fixtures.alphabet_pair()
    union = from_finite_language(
        lat, alph, {parse_tree("f(x,y)"): "1", parse_tree("f(y,x)"): "1"}
    )
    assert not chain_ops.is_dt_recognizable(union)
    assert chain_ops.is_dt_recognizable(dt_to_ndt(desk("GradedSquare")))
    level = from_finite_language(
        fixtures.chain3(),
        alph,
        {parse_tree(s): "1" for s in ("f(x,x)", "f(x,y)", "f(y,x)")},
    )
    assert not chain_ops.is_dt_recognizable(level)


def test_is_dt_recognizable_answers_deterministic_input_at_once():
    # at most one initial state and one choice per row: the recognizer is a
    # (partial) DT one, so the answer spends no combination
    rng = seeded(109)
    alph = fixtures.alphabet_mixed()
    chain8 = chain([f"{i}/7" for i in range(8)])
    deterministic = [
        dt_to_ndt(random_dt(rng, lattice, alph, max_states=5))
        for lattice in (fixtures.chain3(), fixtures.chain4(), chain8)
        for _ in range(6)
    ]
    b2, pair = fixtures.b2(), fixtures.alphabet_pair()
    one_tree = from_finite_language(b2, pair, {parse_tree("f(x,y)"): "1"})
    with pytest.raises(BudgetExceededError):
        is_dt_recognizable_by_closure(one_tree, budget=0)
    deterministic.append(one_tree)
    for rec in deterministic:
        assert chain_ops.is_dt_recognizable(rec, budget=0)
        assert is_dt_recognizable_by_closure(rec)
    # an empty initial set scores bottom everywhere, and so does its path closure
    support = {parse_tree("f(x,y)"): "0"}
    all_bottom = from_finite_language(b2, pair, support)
    assert not all_bottom.initial
    assert chain_ops.is_dt_recognizable(all_bottom, budget=0)
    assert is_path_closed(FiniteFuzzyLanguage(b2, pair, support))


def test_is_dt_recognizable_answers_deterministic_input_on_any_lattice():
    # the sink argument needs no total order: a one-tree language is
    # deterministic and path-closed on every lattice
    rng = seeded(112)
    pair = fixtures.alphabet_pair()
    trees = enum_trees(pair, 2)
    for lattice in (fixtures.diamond(), n5(), m3()):
        for value in lattice.elements:
            support = {rng.choice(trees): value}
            assert chain_ops.is_dt_recognizable(from_finite_language(lattice, pair, support), budget=0)
            assert is_path_closed(FiniteFuzzyLanguage(lattice, pair, support))
        for _ in range(4):
            dt = dt_to_ndt(random_dt(rng, lattice, fixtures.alphabet_mixed()))
            assert chain_ops.is_dt_recognizable(dt, budget=0)


def test_empty_initial_set_normalizes_to_one_bottom_state():
    b2, pair = fixtures.b2(), fixtures.alphabet_pair()
    support = {parse_tree("f(x,y)"): "0"}
    rec = from_finite_language(b2, pair, support)
    assert not rec.initial
    normalized = chain_ops.normalize(rec)
    assert len(normalized.algebra.states) == 1 and not normalized.initial
    assert chain_ops.is_normalized(normalized)
    closure = chain_ops.path_closure_recognizer(rec)
    assert len(closure.algebra.states) == 1
    reference = fuzzy_path_closure(FiniteFuzzyLanguage(b2, pair, support), 2)
    pool = enum_trees(pair, 2)
    for result in (normalized, closure, chain_ops.subset_recognizer(normalized)):
        degrees = result.degree_map(pool)
        for t in pool:
            assert degrees[t] == eval_reference(rec, t) == reference(t) == "0"
    ws = Workspace()
    ws.add_lattice("B2", b2)
    ws.add_alphabet("Pair", pair)
    ws.add_recognizer("E", rec)
    for command, name in (("normalize", "E_norm"), ("path-closure", "E_closure")):
        report, code = run(command, ["E"], ws)
        assert code == 0
        loaded = load_text(report, ws).recognizer(name)
        assert set(loaded.degree_map(pool).values()) == {"0"}


def test_is_dt_recognizable_matches_the_closure_reference():
    rng = seeded(111)
    alphabets = (fixtures.alphabet_pair(), fixtures.alphabet_mixed())
    verdicts = []
    for n in range(36):
        lattice = (fixtures.b2(), fixtures.chain3(), fixtures.chain4())[n % 3]
        rec = random_ndt(rng, lattice, alphabets[n // 3 % 2], max_states=3)
        got = chain_ops.is_dt_recognizable(rec)
        assert got == is_dt_recognizable_by_closure(rec)
        verdicts.append(got)
    assert set(verdicts) == {True, False}


def test_is_dt_recognizable_agrees_with_oracle_closedness():
    rng = seeded(105)
    lat = fixtures.chain3()
    alph = fixtures.alphabet_pair()
    pool = enum_trees(alph, 2)
    agree = 0
    for n in range(12):
        support = {rng.choice(pool): rng.choice(["d", "1"]) for _ in range(rng.randint(1, 3))}
        language = FiniteFuzzyLanguage(lat, alph, support)
        rec = from_finite_language(lat, alph, support)
        assert chain_ops.is_dt_recognizable(rec) == is_path_closed(language)
        agree += 1
    assert agree == 12


def test_normalized_dt_path_image_shortcut():
    rec = chain_ops.normalize_dt(desk("GradedSquare"))
    for r in all_paths(rec.alphabet, 2)[:18]:
        shortcut = chain_ops.path_image_normalized(rec, r)
        assert shortcut == paths.path_degree(rec, r)
    with pytest.raises(NotNormalizedError):
        chain_ops.path_image_normalized(desk("DeadBranch"), parse_path("f.1 x"))


def test_normalized_path_image_matches_bounded_oracle():
    # for a normalized recognizer the path value is attained by some tree,
    # so the bounded-height oracle image reaches it exactly
    rec = chain_ops.normalize_dt(desk("GradedSquare"))
    pool = enum_trees(rec.alphabet, 3)
    support = {t: v for t, v in rec.degree_map(pool).items() if v != "0"}
    image = path_image(FiniteFuzzyLanguage(rec.lattice, rec.alphabet, support))
    for r in all_paths(rec.alphabet, 1):
        assert image.get(r, "0") == chain_ops.path_image_normalized(rec, r)


def test_normalized_equivalence_reduces_to_unary():
    rng = seeded(107)
    for n in range(12):
        lattice = fixtures.chain4() if n % 2 else fixtures.b2()
        f_rec = chain_ops.normalize_dt(random_dt(rng, lattice, fixtures.alphabet_pair(), max_states=2))
        g_rec = chain_ops.normalize_dt(random_dt(rng, lattice, fixtures.alphabet_pair(), max_states=2))
        tree_level = decide.compare(f_rec, g_rec).equivalent
        path_level = decide.compare(paths.to_unary(f_rec), paths.to_unary(g_rec)).equivalent
        assert tree_level == path_level


def normalized_closure_text():
    """The text of a normalized path closure: its states pair frozensets of
    several states with caps, and so sort differently by `repr` under
    different string hashes."""
    nd = random_ndt(seeded(5), fixtures.chain4(), fixtures.alphabet_mixed(), 3)
    ws = Workspace()
    ws.add_recognizer("R", chain_ops.normalize(dt_to_ndt(chain_ops.path_closure_recognizer(nd))))
    return serialize(ws)


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_normalize_state_order_is_independent_of_string_hashing(hash_seed):
    script = "import sys, test_chain; sys.stdout.buffer.write(test_chain.normalized_closure_text().encode())"
    assert stdout_under_hash_seed(hash_seed, script) == normalized_closure_text().encode()
