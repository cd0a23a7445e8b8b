import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lfta import automata, chain as chain_ops, decide, fixtures, transforms
from lfta.automata import Budget, DtAlgebra, NdtAlgebra, NdtRecognizer, saturate
from lfta.errors import BudgetExceededError, ForeignElementError, TreeTooShortError
from lfta.lattice import product
from lfta.oracle import enum_trees, eval_reference, eval_reference_map
from lfta.recognizers import LDtRecognizer, LNdtRecognizer, dt_to_ndt
from lfta.terms import RankedAlphabet, parse_tree
from lfta.workspace import load

from helpers import (
    caterpillar,
    compare_by_value_pairs,
    is_finite_support_by_height_layers,
    lattice_menu,
    m3,
    n5,
    ndt_compare_by_state_vectors,
    random_dt,
    random_ndt,
    saturate_by_items,
    seeded,
    spine_tree,
)

# (alphabet, oracle enumeration height); the ternary alphabet drives the
# saturation engine through bodies of three slots
ALPHABETS = ((fixtures.alphabet_pair(), 3), (fixtures.alphabet_ternary(), 2))


def test_height_bound_formula():
    rec = fixtures.dead_branch()
    # weights {0,1}: meet-closure has 2 elements, 3 states
    assert decide.height_bound(rec) == (2 + 1) * 3
    ones = fixtures.constant_recognizer(fixtures.b2(), fixtures.alphabet_solo(), "1")
    assert decide.height_bound(ones) == 2


def test_height_bound_monotone_in_states():
    small = fixtures.constant_recognizer(fixtures.b2(), fixtures.alphabet_solo(), "1")
    big = fixtures.dead_branch()
    assert decide.height_bound(small) <= decide.height_bound(big)


def test_pump_decompose_contract():
    rec = fixtures.dead_branch()
    bound = decide.height_bound(rec)
    t = spine_tree(rec.alphabet, bound + 1)
    d = decide.pump_decompose(rec, t)
    assert d.loop.depth >= 1
    assert d.pumped(1) == t
    base = rec.degree(t)
    for k in range(4):
        assert rec.degree(d.pumped(k)) == base


def test_pump_decompose_random_population():
    rng = seeded(61)
    for n in range(25):
        lattice = rng.choice(lattice_menu())
        rec = random_dt(rng, lattice, fixtures.alphabet_pair())
        t = spine_tree(rec.alphabet, decide.height_bound(rec) + 1)
        d = decide.pump_decompose(rec, t)
        base = rec.degree(t)
        assert all(rec.degree(d.pumped(k)) == base for k in range(4))


def test_pump_decompose_on_deep_spine():
    # the pumps share the spine below the loop, so their checks compare only the path above it
    rng = seeded(79)
    t = spine_tree(fixtures.alphabet_mixed(), 10**4)
    for _ in range(5):
        rec = random_dt(rng, rng.choice(lattice_menu()), fixtures.alphabet_mixed())
        d = decide.pump_decompose(rec, t)
        assert d.loop.depth >= 1
        assert rec.degree(d.pumped(2)) == rec.degree_by_paths(t)


def test_pump_loop_keeps_the_context_degree():
    """The loop starts and ends where the context degree above the hole is the same."""
    rng = seeded(71)
    alph = fixtures.alphabet_mixed()
    for _ in range(40):
        rec = random_dt(rng, rng.choice(lattice_menu()), alph)
        t = caterpillar(rng, alph, decide.height_bound(rec) + 1)
        d = decide.pump_decompose(rec, t)
        above_loop = rec.context_degree(rec.initial, d.prefix)[0]
        below_loop = rec.context_degree(rec.initial, d.prefix.fill(d.loop))[0]
        assert above_loop == below_loop


def test_pump_checks_score_the_tree_and_four_pumps_from_the_initial_state(monkeypatch):
    scored = []
    by_paths = LDtRecognizer.degree_by_paths

    def recording(rec, t, start=None):
        scored.append((t, rec.initial if start is None else start))
        return by_paths(rec, t, start)

    monkeypatch.setattr(LDtRecognizer, "degree_by_paths", recording)
    rng = seeded(73)
    for _ in range(10):
        rec = random_dt(rng, rng.choice(lattice_menu()), fixtures.alphabet_pair())
        t = spine_tree(rec.alphabet, decide.height_bound(rec) + 1)
        d = decide.pump_decompose(rec, t)
        assert scored[-5:] == [(tree, rec.initial) for tree in (t, *map(d.pumped, range(4)))]


def test_pump_too_short():
    rec = fixtures.dead_branch()
    with pytest.raises(TreeTooShortError):
        decide.pump_decompose(rec, parse_tree("x"))


def test_value_range_fixtures():
    assert decide.value_range(fixtures.matched_leaves()) == {"0", "c", "d"}
    assert decide.value_range(fixtures.dead_branch()) == {"0"}
    ones = fixtures.constant_recognizer(fixtures.b2(), fixtures.alphabet_solo(), "1")
    assert decide.value_range(ones) == {"1"}


def test_value_range_against_enumeration():
    rng = seeded(63)
    for alphabet, height in ALPHABETS:
        pool = enum_trees(alphabet, height)
        for n in range(20):
            lattice = rng.choice(lattice_menu())
            rec = random_dt(rng, lattice, alphabet, max_states=3)
            got = decide.value_range(rec)
            assert got <= rec.final_weight_closure()
            seen = set(eval_reference_map(rec, pool).values())
            assert seen <= got


def test_range_witnesses_evaluate_back():
    rng = seeded(65)
    for alphabet, _ in ALPHABETS:
        for n in range(10):
            rec = random_dt(rng, rng.choice(lattice_menu()), alphabet)
            for value, witness in decide.range_witnesses(rec).items():
                assert rec.degree(witness) == value


def test_emptiness_and_friends():
    assert decide.is_empty_support(fixtures.dead_branch())
    assert not decide.is_empty_support(fixtures.matched_leaves())
    assert decide.is_finite_support(fixtures.matched_leaves())
    ones = fixtures.constant_recognizer(fixtures.b2(), fixtures.alphabet_solo(), "1")
    assert not decide.is_finite_support(ones)
    assert decide.is_constant(ones)
    assert decide.is_crisp(ones)
    assert not decide.is_constant(fixtures.matched_leaves())
    assert not decide.is_crisp(fixtures.graded_square())
    assert decide.is_crisp(fixtures.dead_branch())


def test_early_exits_answer_within_a_budget_the_range_exceeds():
    # from q every tree scores 1, c, d or 0; f(x,x) scores c, found in the first round
    algebra = DtAlgebra(fixtures.alphabet_pair(), ["q", "p"], {"f": {"q": ("p", "p"), "p": ("p", "p")}})
    rec = LDtRecognizer(fixtures.diamond(), algebra, "q", {"x": {"q": "1", "p": "c"}, "y": {"q": "1", "p": "d"}})
    budget = _least_budget(lambda budget: decide.is_crisp(rec, budget))
    with pytest.raises(BudgetExceededError):
        decide.value_range(rec, budget)
    assert not decide.is_crisp(rec, budget)
    assert not decide.is_empty_support(rec, budget)
    assert not decide.is_constant(rec, budget)
    assert decide.value_range(rec) == {"0", "c", "d", "1"}


def test_infinite_but_not_constant_support():
    # all-x trees score 1, anything touching y scores 0: infinite support
    from lfta.automata import DtAlgebra
    from lfta.recognizers import LDtRecognizer

    alph = fixtures.alphabet_pair()
    algebra = DtAlgebra(alph, ["q"], {"f": {"q": ("q", "q")}})
    rec = LDtRecognizer(fixtures.b2(), algebra, "q", {"x": {"q": "1"}, "y": {"q": "0"}})
    assert not decide.is_finite_support(rec)
    assert not decide.is_constant(rec)
    assert decide.is_crisp(rec)
    assert decide.value_range(rec) == {"0", "1"}


def test_finiteness_against_enumeration():
    # a pumped witness yields ever taller nonzero trees, so nonzero degrees
    # above the bound are conclusive both ways on this small population
    rng = seeded(67)
    for n in range(15):
        lattice = rng.choice(lattice_menu())
        rec = random_dt(rng, lattice, fixtures.alphabet_solo(), max_states=2)
        finite = decide.is_finite_support(rec)
        bound = decide.height_bound(rec)
        tall = spine_tree(rec.alphabet, bound + 1)
        if rec.degree(tall) != lattice.bottom:
            assert not finite


def test_compare_basics():
    rec = fixtures.matched_leaves()
    same = decide.compare(rec, rec)
    assert same.included and same.equivalent
    swapped = fixtures.matched_leaves_swapped()
    crossed = decide.compare(rec, swapped)
    assert not crossed.equivalent
    assert crossed.disjoint  # c meet d = 0 pointwise
    assert crossed.equivalence_witness is not None
    assert rec.degree(crossed.equivalence_witness) != swapped.degree(crossed.equivalence_witness)


def test_scalar_is_included():
    rec = fixtures.matched_leaves()
    scaled = transforms.scalar(rec, "c")
    assert decide.compare(scaled, rec).included
    assert not decide.compare(rec, scaled).equivalent


def test_compare_witnesses_against_oracle():
    rng = seeded(69)
    for alphabet, height in ALPHABETS:
        pool = enum_trees(alphabet, height)
        for n in range(40):
            lattice = rng.choice(lattice_menu())
            f_rec = random_dt(rng, lattice, alphabet, max_states=3)
            g_rec = random_dt(rng, lattice, alphabet, max_states=3)
            result = decide.compare(f_rec, g_rec)
            lefts = eval_reference_map(f_rec, pool)
            rights = eval_reference_map(g_rec, pool)
            if result.equivalent:
                assert all(lefts[t] == rights[t] for t in pool)
            else:
                w = result.equivalence_witness
                assert f_rec.degree(w) != g_rec.degree(w)
            if result.included:
                assert all(lattice.leq(lefts[t], rights[t]) for t in pool)
            else:
                w = result.inclusion_witness
                assert not lattice.leq(f_rec.degree(w), g_rec.degree(w))
            if result.disjoint:
                assert all(lattice.meet(lefts[t], rights[t]) == lattice.bottom for t in pool)
            else:
                w = result.disjointness_witness
                assert lattice.meet(f_rec.degree(w), g_rec.degree(w)) != lattice.bottom


def _assert_witnesses_refute(cmp, f_rec, g_rec):
    """Every negative verdict's witness, scored by the oracle, contradicts the property."""
    lat = f_rec.lattice
    for holds, witness, property_holds in (
        (cmp.included, cmp.inclusion_witness, lat.leq),
        (cmp.equivalent, cmp.equivalence_witness, lambda u, v: u == v),
        (cmp.disjoint, cmp.disjointness_witness, lambda u, v: lat.meet(u, v) == lat.bottom),
    ):
        if holds:
            assert witness is None
        else:
            assert not property_holds(eval_reference(f_rec, witness), eval_reference(g_rec, witness))


PROPERTY_LATTICES = (
    fixtures.b2(),
    fixtures.diamond(),
    fixtures.chain4(),
    product(fixtures.chain4(), fixtures.b2()),
    m3(),
    n5(),
)
PROPERTY_ALPHABETS = (fixtures.alphabet_pair(), fixtures.alphabet_solo(), fixtures.alphabet_ternary())


@st.composite
def _dts(draw, lattice, alphabet):
    """A DT recognizer with 1-3 states, any wiring and any leaf weights."""
    states = [f"q{i}" for i in range(draw(st.integers(1, 3)))]
    state, value = st.sampled_from(states), st.sampled_from(lattice.elements)
    transitions = {f: {a: tuple(draw(state) for _ in range(m)) for a in states} for f, m in alphabet.symbols}
    weights = {x: {a: draw(value) for a in states} for x in alphabet.leaves}
    return LDtRecognizer(lattice, DtAlgebra(alphabet, states, transitions), draw(state), weights)


@st.composite
def _dt_pairs(draw):
    lattice, alphabet = draw(st.sampled_from(PROPERTY_LATTICES)), draw(st.sampled_from(PROPERTY_ALPHABETS))
    f_rec = draw(_dts(lattice, alphabet))
    g_rec = f_rec if draw(st.booleans()) and draw(st.booleans()) else draw(_dts(lattice, alphabet))
    return f_rec, g_rec


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_dt_pairs())
def test_dt_deciders_match_the_references(pair):
    f_rec, g_rec = pair
    assert decide.is_finite_support(f_rec) == is_finite_support_by_height_layers(f_rec)
    cmp, reference = decide.compare(f_rec, g_rec), compare_by_value_pairs(f_rec, g_rec)
    assert (cmp.included, cmp.equivalent, cmp.disjoint) == (
        reference.included,
        reference.equivalent,
        reference.disjoint,
    )
    _assert_witnesses_refute(cmp, f_rec, g_rec)


@st.composite
def _dt_and_values(draw):
    lattice, alphabet = draw(st.sampled_from(PROPERTY_LATTICES)), draw(st.sampled_from(PROPERTY_ALPHABETS))
    return draw(_dts(lattice, alphabet)), draw(st.lists(st.sampled_from(lattice.elements), max_size=3))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_dt_and_values())
def test_early_exit_deciders_match_their_range_definitions(case):
    rec, values = case
    lat, attained = rec.lattice, decide.value_range(rec)
    assert decide.is_empty_support(rec) == (attained == {lat.bottom})
    assert decide.is_constant(rec) == (len(attained) == 1)
    assert decide.is_crisp(rec) == (attained <= {lat.bottom, lat.top})
    assert decide.level_preimage_nonempty(rec, values) == (not attained.isdisjoint(values))


SATURATION_LATTICES = (fixtures.b2(), fixtures.chain4(), fixtures.diamond(), n5())
SATURATION_BUDGET = 2 * 10**4  # equal NDT pairs can saturate far more vectors


@st.composite
def _ndts(draw, lattice, alphabet):
    """An NDT recognizer with 1-3 states, 0-2 choices per symbol and state, and any leaf weights."""
    states = [f"q{i}" for i in range(draw(st.integers(1, 3)))]
    state, value = st.sampled_from(states), st.sampled_from(lattice.elements)
    transitions = {
        f: {a: [tuple(draw(state) for _ in range(m)) for _ in range(draw(st.integers(0, 2)))] for a in states}
        for f, m in alphabet.symbols
    }
    weights = {x: {a: draw(value) for a in states} for x in alphabet.leaves}
    initial = draw(st.sets(state, min_size=1))
    return LNdtRecognizer(lattice, NdtAlgebra(alphabet, states, transitions), initial, weights)


@st.composite
def _saturation_inputs(draw):
    lattice, alphabet = draw(st.sampled_from(SATURATION_LATTICES)), draw(st.sampled_from(PROPERTY_ALPHABETS))
    return draw(_dts(lattice, alphabet)), draw(_dts(lattice, alphabet)), draw(_ndts(lattice, alphabet))


def _recorded_saturations(call):
    """The (seeds, rules) of every saturation that `call()` starts."""
    recorded = []

    def recording(seeds, rules, budget=None):
        recorded.append((list(seeds), list(rules)))
        return saturate(*recorded[-1], budget)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decide, "saturate", recording)
        patch.setattr(automata, "saturate", recording)
        call()
    return recorded


def _replay(loop, seeds, rules):
    """The facts `loop` finds, witnesses as text, then "budget" if it ran out; and the budget it spent."""
    budget, facts = Budget(SATURATION_BUDGET), []
    try:
        for slot, value, witness in loop(seeds, rules, budget):
            facts.append((slot, value, str(witness)))
    except BudgetExceededError:
        facts.append("budget")
    return facts, budget.spent


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_saturation_inputs())
def test_saturation_matches_the_items_reference_on_every_rule_kind(inputs):
    dt, other, nd = inputs
    bottom = dt.lattice.bottom
    support = {x: {a for a, v in row.items() if v != bottom} for x, row in nd.weights.items()}
    crisp = NdtRecognizer(nd.algebra, nd.initial, support)
    kinds = {
        "range": lambda: decide.value_range(dt),
        "cuts": lambda: decide.compare(dt, other),
        "vectors": lambda: decide._joint_vectors(
            nd.lattice, nd.alphabet, *decide._block_quotient(*decide._union_rows(nd, dt_to_ndt(other)))[1:], None
        ),
        "nonempty": crisp.nonempty,
    }
    for kind, call in kinds.items():
        recorded = _recorded_saturations(call)
        assert recorded, kind
        for seeds, rules in recorded:
            assert _replay(saturate, seeds, rules) == _replay(saturate_by_items, seeds, rules), kind


def _perfbench_gen():
    """The benchmark's generators, whose recognizers have every state reachable."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dt_deciders_answer_the_blowup_shapes_within_budget():
    # the shapes that took seconds by height layers and by value pairs: a
    # 32-state chain8 DT over h/3 g/1 for finiteness, 6-state pairs for compare
    gen = _perfbench_gen()
    lattice, alphabet = gen.lattices()["chain8"], gen.alphabets()["h3g1"]
    budget = 2 * 10**5
    rng = seeded(97)
    big = gen.random_dt(rng, lattice, alphabet, 32)
    assert decide.is_finite_support(big, budget) == decide.is_finite_support(gen.permuted_dt(rng, big), budget)
    left, right = gen.random_dt(rng, lattice, alphabet, 6), gen.random_dt(rng, lattice, alphabet, 6)
    twin = gen.permuted_dt(rng, left)
    unequal, equal = decide.compare(left, right, budget), decide.compare(left, twin, budget)
    assert not unequal.equivalent and equal.equivalent and equal.included
    _assert_witnesses_refute(unequal, left, right)
    _assert_witnesses_refute(equal, left, twin)


def _least_budget(decision):
    """The smallest budget under which `decision(budget)` does not raise."""

    def passes(budget):
        try:
            decision(budget)
        except BudgetExceededError:
            return False
        return True

    high = 1
    while not passes(high):
        high *= 2
    low = high // 2  # does not pass, unless high is 1
    while high - low > 1:
        middle = (low + high) // 2
        low, high = (low, middle) if passes(middle) else (middle, high)
    return high


def test_compare_shares_one_budget_across_its_cuts():
    # weights only at bottom and top: each of chain4's three cuts runs the
    # one cut of b2, so together they need three times its budget
    alphabet = fixtures.alphabet_mixed()
    transitions = {"f": {"p": ("q", "p"), "q": ("p", "p")}, "g": {"p": ("q",), "q": ("q",)}}
    algebra = DtAlgebra(alphabet, ["p", "q"], transitions)
    crisp = {"x": {"p": "1", "q": "0"}, "y": {"p": "1", "q": "1"}}
    b2_rec = LDtRecognizer(fixtures.b2(), algebra, "p", crisp)
    chain4_rec = LDtRecognizer(fixtures.chain4(), algebra, "p", crisp)
    one_cut = _least_budget(lambda budget: decide.compare(b2_rec, b2_rec, budget))
    assert one_cut > 0
    assert _least_budget(lambda budget: decide.compare(chain4_rec, chain4_rec, budget)) == 3 * one_cut


def test_finite_support_edge_loop_draws_on_the_budget():
    # over a unary symbol the edge loop has no siblings to meet, only the child's degrees
    unary = RankedAlphabet({"g": 1}, ["x"])
    loop = LDtRecognizer(fixtures.b2(), DtAlgebra(unary, ["q"], {"g": {"q": ("q",)}}), "q", {"x": {"q": "1"}})
    for rec in (fixtures.matched_leaves(), loop):
        saturation = _least_budget(lambda budget: decide.value_range(rec, budget))
        with pytest.raises(BudgetExceededError):
            decide.is_finite_support(rec, saturation)
        assert _least_budget(lambda budget: decide.is_finite_support(rec, budget)) > saturation


def test_finite_support_meets_each_step_with_the_siblings():
    # a and b call each other beside siblings that score only c and only d,
    # which meet to 0 in the diamond: every pair of steps reaches bottom, so
    # the support {x, f(x,x)} is finite although each step alone keeps 1
    states = ["a", "b", "p", "r", "z"]
    algebra = DtAlgebra(
        fixtures.alphabet_pair(),
        states,
        {"f": {"a": ("b", "p"), "b": ("a", "r"), "p": ("z", "z"), "r": ("z", "z"), "z": ("z", "z")}},
    )
    weights = dict(zip(states, ["1", "1", "c", "d", "0"]))
    rec = LDtRecognizer(fixtures.diamond(), algebra, "a", {"x": weights, "y": weights})
    assert decide.is_finite_support(rec)
    assert is_finite_support_by_height_layers(rec)


def test_ndt_equivalent_reflexive_and_permutation_stable():
    rng = seeded(71)
    rec = random_ndt(rng, fixtures.chain4(), fixtures.alphabet_pair())
    assert decide.ndt_equivalent(rec, rec)
    # same transitions listed in a different order
    from lfta.automata import NdtAlgebra
    from lfta.recognizers import LNdtRecognizer

    shuffled = {
        f: {a: list(reversed(rec.algebra.choices(f, a))) for a in rec.algebra.states}
        for f, _ in rec.alphabet.symbols
    }
    twin = LNdtRecognizer(
        rec.lattice,
        NdtAlgebra(rec.alphabet, rec.algebra.states, shuffled),
        rec.initial,
        rec.weights,
    )
    assert decide.ndt_equivalent(rec, twin)


def test_ndt_equivalent_agrees_with_dt_compare():
    rng = seeded(73)
    for n in range(20):
        lattice = rng.choice([fixtures.b2(), fixtures.chain4()])
        f_rec = random_dt(rng, lattice, fixtures.alphabet_pair(), max_states=3)
        g_rec = random_dt(rng, lattice, fixtures.alphabet_pair(), max_states=3)
        dt_verdict = decide.compare(f_rec, g_rec).equivalent
        ndt_verdict = decide.ndt_equivalent(dt_to_ndt(f_rec), dt_to_ndt(g_rec))
        assert dt_verdict == ndt_verdict


def test_ndt_compare_on_non_distributive_lattices_agrees_with_the_oracle():
    # degrees are the recursive join of meets, so the vectors compose and the
    # blocks score alike on any lattice.  48 pairs: self pairs, rewired pairs
    # (3 equal, 13 unequal at an inner tree) and random pairs (all unequal)
    rng = seeded(75)
    pools = ((fixtures.alphabet_pair(), enum_trees(fixtures.alphabet_pair(), 3)),
             (fixtures.alphabet_mixed(), enum_trees(fixtures.alphabet_mixed(), 2)))
    inner_witnesses, rewired_equal = 0, 0
    for lattice in (n5(), m3()):
        for n in range(24):
            alphabet, pool = pools[n % 2]
            nf = random_ndt(rng, lattice, alphabet, max_states=3)
            kind = n % 3
            ng = nf if kind == 0 else _rewired(rng, nf) if kind == 1 else random_ndt(rng, lattice, alphabet, 3)
            equal, witness = got = decide.ndt_compare(nf, ng, budget=10**5)
            assert got == ndt_compare_by_state_vectors(nf, ng)
            assert decide.ndt_equivalent(nf, ng, budget=10**5) == equal
            if equal:
                assert eval_reference_map(nf, pool) == eval_reference_map(ng, pool)
                rewired_equal += kind == 1
            else:
                assert eval_reference(nf, witness) != eval_reference(ng, witness)
                inner_witnesses += witness.height > 0
    assert rewired_equal > 0 and inner_witnesses > 0


def test_ndt_compare_budget_counts_combinations():
    # DeadBranch and its mirror both score 0 everywhere, but their initial
    # states fall in different blocks; their 2 joint vectors come from 4
    # rule combinations, as over the states
    ws = load(["goldens/fixtures.lfta"])
    left, right = dt_to_ndt(ws.recognizer("DeadBranch")), dt_to_ndt(ws.recognizer("DeadBranchMirror"))
    for budget in (1, 3):
        with pytest.raises(BudgetExceededError):
            decide.ndt_compare(left, right, budget=budget)
        with pytest.raises(BudgetExceededError):
            ndt_compare_by_state_vectors(left, right, budget=budget)
    assert decide.ndt_compare(left, right, budget=4) == (True, None)
    assert ndt_compare_by_state_vectors(left, right, budget=4) == (True, None)


def test_ndt_compare_answers_unequal_pairs_within_budget():
    # saturating every joint vector of these pairs passes 2*10**4 combinations;
    # the first disagreeing vector comes long before that
    lattice, alphabet = fixtures.chain4(), fixtures.alphabet_mixed()
    for k in range(4):
        rng = seeded(1000 + k)
        f_rec = dt_to_ndt(random_dt(rng, lattice, alphabet, max_states=4))
        g_rec = dt_to_ndt(random_dt(rng, lattice, alphabet, max_states=4))
        equal, witness = decide.ndt_compare(f_rec, g_rec, budget=2 * 10**4)
        assert not equal
        assert eval_reference(f_rec, witness) != eval_reference(g_rec, witness)
    nd = random_ndt(seeded(2001), lattice, alphabet, max_states=10)
    verdict = chain_ops.is_dt_recognizable(nd, budget=2 * 10**4)
    closure = dt_to_ndt(chain_ops.path_closure_recognizer(nd))
    normalized = chain_ops.normalize(nd)
    equal, witness = decide.ndt_compare(closure, normalized, budget=2 * 10**4)
    assert equal == verdict
    if not equal:
        assert eval_reference(closure, witness) != eval_reference(normalized, witness)


def _rewired(rng, rec):
    """`rec` with fresh random choices: the same leaf degrees, so witnesses are inner trees."""
    states = rec.algebra.states
    transitions = {
        f: {a: [tuple(rng.choice(states) for _ in range(m)) for _ in range(rng.randint(0, 2))] for a in states}
        for f, m in rec.alphabet.symbols
    }
    return LNdtRecognizer(rec.lattice, NdtAlgebra(rec.alphabet, states, transitions), rec.initial, rec.weights)


def test_ndt_compare_witness_is_first_disagreeing_vector():
    # 64 pairs: 11 equal, 53 unequal, 23 of them with an inner-node witness
    rng = seeded(89)
    alphabet = fixtures.alphabet_pair()
    pool = enum_trees(alphabet, 3)
    heights = []
    for lattice in (fixtures.b2(), fixtures.chain3(), fixtures.chain4(), fixtures.diamond()):
        for n in range(16):
            f_rec = random_ndt(rng, lattice, alphabet, max_states=3)
            g_rec = _rewired(rng, f_rec) if n % 2 else random_ndt(rng, lattice, alphabet, max_states=3)
            got = decide.ndt_compare(f_rec, g_rec)
            assert got == ndt_compare_by_state_vectors(f_rec, g_rec)
            left, right = eval_reference_map(f_rec, pool), eval_reference_map(g_rec, pool)
            if any(left[t] != right[t] for t in pool):
                assert not got[0]
            if not got[0]:
                heights.append(got[1].height)
    assert max(heights) >= 1


def test_ndt_counterexample():
    rng = seeded(77)
    found = 0
    for n in range(20):
        f_rec = random_ndt(rng, fixtures.b2(), fixtures.alphabet_pair(), max_states=2)
        g_rec = random_ndt(rng, fixtures.b2(), fixtures.alphabet_pair(), max_states=2)
        equal, witness = decide.ndt_compare(f_rec, g_rec)
        if not equal:
            found += 1
            assert f_rec.degree(witness) != g_rec.degree(witness)
    assert found > 0


def _one_state(lattice, alphabet, leaf_weights, choices):
    """A one-state NDT recognizer: `choices` is the number of (q, ..., q) choices per symbol."""
    transitions = {f: {"q": [("q",) * m] * choices} for f, m in alphabet.symbols}
    weights = {x: {"q": v} for x, v in zip(alphabet.leaves, leaf_weights)}
    return LNdtRecognizer(lattice, NdtAlgebra(alphabet, ["q"], transitions), ["q"], weights)


def test_ndt_compare_answers_a_leaf_that_scores_differently_before_refining(monkeypatch):
    lattice, alphabet = fixtures.chain3(), fixtures.alphabet_pair()
    cases = {
        "first leaf": (_one_state(lattice, alphabet, "1d", 1), _one_state(lattice, alphabet, "dd", 1), "x"),
        "later leaf": (_one_state(lattice, alphabet, "1d", 1), _one_state(lattice, alphabet, "10", 1), "y"),
        "deeper": (_one_state(lattice, alphabet, "1d", 1), _one_state(lattice, alphabet, "1d", 0), None),
    }
    for name, (nf, ng, leaf) in cases.items():
        reference = ndt_compare_by_state_vectors(nf, ng)
        assert decide.ndt_compare(nf, ng) == reference, name
        assert not reference[0], name
        if leaf is None:
            assert reference[1].height >= 1
        else:
            assert reference[1] == parse_tree(leaf)
            # a leaf is a seed of the saturation, which spends no combination
            assert decide.ndt_compare(nf, ng, budget=0) == reference
    # a leaf that differs answers before the states are refined
    monkeypatch.setattr(decide, "refine", None)
    for nf, ng, leaf in cases.values():
        if leaf is not None:
            assert decide.ndt_compare(nf, ng) == (False, parse_tree(leaf))
    with pytest.raises(TypeError):
        decide.ndt_compare(*cases["deeper"][:2])


def test_ndt_compare_answers_one_state_n5_recognizers_at_the_leaf(monkeypatch):
    alphabet = fixtures.alphabet_pair()
    nf, ng = _one_state(n5(), alphabet, "ab", 1), _one_state(n5(), alphabet, "cb", 1)
    monkeypatch.setattr(decide, "refine", None)  # a leaf answer refines nothing
    assert decide.ndt_compare(nf, ng, budget=0) == (False, parse_tree("x"))
    assert eval_reference(nf, parse_tree("x")) != eval_reference(ng, parse_tree("x"))


BLOCK_LATTICES = (fixtures.b2(), fixtures.chain4(), fixtures.diamond(), n5(), m3())
BLOCK_ALPHABETS = (fixtures.alphabet_pair(), fixtures.alphabet_solo(), fixtures.alphabet_mixed())
BLOCK_POOLS = tuple(enum_trees(alphabet, 2) for alphabet in BLOCK_ALPHABETS)


@st.composite
def _split_copy(draw, rec):
    """`rec` with each state `a` split into (a, 0) and (a, 1), and each child
    of each choice sent to either copy of its state: both copies are
    bisimilar to `a`."""
    states = [(a, k) for a in rec.algebra.states for k in (0, 1)]
    copy = st.sampled_from((0, 1))
    transitions = {
        f: {(a, k): [tuple((b, draw(copy)) for b in tup) for tup in rec.algebra.choices(f, a)] for a, k in states}
        for f, _ in rec.alphabet.symbols
    }
    weights = {x: {(a, k): row[a] for a, k in states} for x, row in rec.weights.items()}
    initial = [(a, draw(copy)) for a in sorted(rec.initial)]
    return LNdtRecognizer(rec.lattice, NdtAlgebra(rec.alphabet, states, transitions), initial, weights)


@st.composite
def _union_pairs(draw):
    """(nf, ng, alphabet index, kind): ng is nf itself, a split copy of it, or another NDT."""
    lattice, index = draw(st.sampled_from(BLOCK_LATTICES)), draw(st.integers(0, len(BLOCK_ALPHABETS) - 1))
    nf = draw(_ndts(lattice, BLOCK_ALPHABETS[index]))
    kind = draw(st.sampled_from(("self", "split", "other")))
    if kind == "self":
        ng = nf
    elif kind == "split":
        ng = draw(_split_copy(nf))
    else:
        ng = draw(_ndts(lattice, BLOCK_ALPHABETS[index]))
    return nf, ng, index, kind


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_union_pairs())
def test_states_in_one_block_score_every_tree_alike(case):
    nf, ng, index, kind = case
    block, _, _ = decide._block_quotient(*decide._union_rows(nf, ng))
    numbered = [(nf, a) for a in nf.algebra.states] + [(ng, b) for b in ng.algebra.states]
    scores = {}
    for (rec, a), k in zip(numbered, block):
        single = LNdtRecognizer(rec.lattice, rec.algebra, [a], rec.weights)
        row = tuple(eval_reference(single, t) for t in BLOCK_POOLS[index])
        assert scores.setdefault(k, row) == row
    if kind != "other":
        # the partition is the coarsest: a state and its copies share a block
        n = len(nf.algebra.states)
        place = {b: block[n + j] for j, b in enumerate(ng.algebra.states)}
        for i, a in enumerate(nf.algebra.states):
            copies = [a] if kind == "self" else [(a, 0), (a, 1)]
            assert {place[c] for c in copies} == {block[i]}


def test_ndt_compare_matches_the_state_vector_reference():
    # 240 pairs: self pairs, nd against normalize(nd), the path-closure DT
    # view against normalize(nd), and random pairs; the blocks answer 133 of
    # the equal pairs and the vectors 39, and 68 pairs are unequal
    alphabets = (fixtures.alphabet_pair(), fixtures.alphabet_mixed())
    rng = seeded(113)
    routes = {"blocks": 0, "vectors": 0, "unequal": 0}
    for n in range(60):
        lattice = (fixtures.b2(), fixtures.chain3(), fixtures.chain4())[n % 3]
        alphabet = alphabets[n // 3 % 2]
        nd = random_ndt(rng, lattice, alphabet, max_states=3)
        normalized = chain_ops.normalize(nd)
        closure = dt_to_ndt(chain_ops.path_closure_recognizer(nd))
        other = random_ndt(rng, lattice, alphabet, max_states=3)
        for nf, ng in ((nd, nd), (nd, normalized), (closure, normalized), (nd, other)):
            got = decide.ndt_compare(nf, ng)
            assert got == ndt_compare_by_state_vectors(nf, ng)
            equal, witness = got
            if not equal:
                routes["unequal"] += 1
                assert eval_reference(nf, witness) != eval_reference(ng, witness)
                continue
            try:  # an equal pair spends no combination only if its blocks answer
                decide.ndt_compare(nf, ng, budget=0)
                routes["blocks"] += 1
            except BudgetExceededError:
                routes["vectors"] += 1
    assert min(routes.values()) > 0, routes


def test_ndt_compare_answers_the_chain8_self_pair_from_its_blocks():
    # a 4-state chain8 DT view against itself: the state vectors pass 10**4
    # combinations (the default budget of 10**6 ran out after seconds), and
    # the blocks answer without a single one
    gen = _perfbench_gen()
    r = dt_to_ndt(gen.random_dt(seeded(11), gen.lattices()["chain8"], gen.alphabets()["f2g1"], 4))
    assert decide.ndt_compare(r, r) == (True, None)
    assert decide.ndt_compare(r, r, budget=0) == (True, None)
    with pytest.raises(BudgetExceededError):
        ndt_compare_by_state_vectors(r, r, budget=10**4)


def test_is_dt_recognizable_answers_a_1968_state_closure_from_its_blocks():
    # the path closure is path-closed; over the states, its comparison with
    # its normal form passed 2*10**4 combinations after seconds
    nd = random_ndt(seeded(2006), fixtures.chain4(), fixtures.alphabet_mixed(), max_states=10)
    closure = dt_to_ndt(chain_ops.path_closure_recognizer(nd))
    assert len(closure.algebra.states) == 1968
    assert chain_ops.is_dt_recognizable(closure, budget=0)


def test_level_set_graded_square():
    rec = fixtures.graded_square()
    at_d = decide.level_set(rec, "d")
    accepted = {str(t) for t in enum_trees(rec.alphabet, 2) if at_d.accepts(t)}
    assert accepted == {"f(x,x)", "f(x,y)", "f(y,x)"}
    at_one = decide.level_set(rec, "1")
    accepted = {str(t) for t in enum_trees(rec.alphabet, 2) if at_one.accepts(t)}
    assert accepted == {"f(y,y)"}


def test_level_set_unattainable_value_is_empty():
    rec = fixtures.matched_leaves()
    at_top = decide.level_set(rec, "1")
    assert not at_top.nonempty()
    assert decide.level_in_domain(rec, "c")
    with pytest.raises(ForeignElementError):
        decide.level_set(rec, "nope")


def test_level_set_soundness_random():
    rng = seeded(79)
    for n in range(12):
        lattice = rng.choice(lattice_menu())
        rec = random_dt(rng, lattice, fixtures.alphabet_pair(), max_states=2)
        pool = enum_trees(rec.alphabet, 3)
        degrees = rec.degree_map(pool)
        for d in rec.final_weight_closure():
            level = decide.level_set(rec, d)
            for t in pool:
                assert level.accepts(t) == (degrees[t] == d)


def test_level_set_nonempty_matches_value_range():
    # 87 closure values on this population, 12 of them never attained
    rng = seeded(83)
    for n in range(30):
        lattice = rng.choice(lattice_menu())
        rec = random_dt(rng, lattice, fixtures.alphabet_pair())
        attained = decide.value_range(rec)
        for d in rec.final_weight_closure():
            assert decide.level_set(rec, d).nonempty() == (d in attained)


def test_level_preimage_nonempty():
    rec = fixtures.dead_branch()
    assert not decide.level_preimage_nonempty(rec, {"1"})
    assert decide.level_preimage_nonempty(rec, {"0"})
    assert not decide.level_preimage_nonempty(rec, set())
    graded = fixtures.graded_square()
    assert decide.level_preimage_nonempty(graded, decide.value_range(graded))
