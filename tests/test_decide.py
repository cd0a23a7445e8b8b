import pytest

from lfta import chain as chain_ops, decide, fixtures, transforms
from lfta.automata import NdtAlgebra, saturate
from lfta.errors import (
    BudgetExceededError,
    ForeignElementError,
    NonDistributiveLatticeError,
    TreeTooShortError,
)
from lfta.oracle import enum_trees, eval_reference, eval_reference_map
from lfta.recognizers import LNdtRecognizer, dt_to_ndt
from lfta.terms import Tree, parse_tree
from lfta.workspace import load

from helpers import lattice_menu, random_dt, random_ndt, seeded, spine_tree

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


def test_ndt_equivalent_needs_distributive():
    from test_recognizers import pentagon

    lat = pentagon()
    rng = seeded(75)
    rec = random_ndt(rng, lat, fixtures.alphabet_solo())
    with pytest.raises(NonDistributiveLatticeError):
        decide.ndt_equivalent(rec, rec)


def test_ndt_compare_budget_counts_combinations():
    # UnionPair against itself collects 4 joint vectors from 16 rule combinations
    union = load(["goldens/fixtures.lfta"]).recognizer("UnionPair")
    for budget in (4, 15):
        with pytest.raises(BudgetExceededError):
            decide.ndt_compare(union, union, budget=budget)
    assert decide.ndt_compare(union, union, budget=16) == (True, None)


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


def _ndt_compare_after_full_saturation(nf, ng):
    """ndt_compare's answer by the definition: every joint vector first, then a scan."""
    lat = nf.lattice
    named = [("L", nf, a) for a in nf.algebra.states] + [("R", ng, b) for b in ng.algebra.states]
    position = {(side, a): i for i, (side, _, a) in enumerate(named)}

    def vector_for(f, children):
        out = []
        for side, rec, a in named:
            acc = lat.bottom
            for tup in rec.algebra.choices(f, a):
                value = lat.top
                for child, b in zip(children, tup):
                    value = lat.meet(value, child[position[(side, b)]])
                acc = lat.join(acc, value)
            out.append(acc)
        return tuple(out)

    seeds = [(None, tuple(rec.weights[x][a] for _, rec, a in named), Tree(x)) for x in nf.alphabet.leaves]
    rules = [
        (None, f, (None,) * m, lambda children, f=f: vector_for(f, children)) for f, m in nf.alphabet.symbols
    ]
    facts = list(saturate(seeds, rules))
    for _, vector, witness in facts:
        left = lat.join_all([lat.bottom] + [vector[position[("L", a)]] for a in nf.initial])
        right = lat.join_all([lat.bottom] + [vector[position[("R", b)]] for b in ng.initial])
        if left != right:
            return False, witness
    return True, None


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
            assert got == _ndt_compare_after_full_saturation(f_rec, g_rec)
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
