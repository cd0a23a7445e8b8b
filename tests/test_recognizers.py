import pytest

from lfta import fixtures, recognizers
from lfta.errors import NonDistributiveLatticeError, ValidationError
from lfta.lattice import product
from lfta.oracle import enum_trees, eval_reference, eval_reference_map
from lfta.recognizers import (
    GeneralLNdtRecognizer,
    LDtRecognizer,
    LNdtRecognizer,
    dt_to_ndt,
    from_finite_language,
    general_to_simple,
)
from lfta.automata import DtAlgebra, NdtAlgebra
from lfta.terms import HOLE, Context, RankedAlphabet, Tree, parse_context, parse_tree

from helpers import (
    caterpillar,
    counting_copy,
    CountingTree,
    desk,
    eager_evaluate,
    lattice_menu,
    m3,
    n5,
    random_dt,
    random_general,
    random_ndt,
    random_tree,
    seeded,
    spine_degrees,
    spine_tree,
)


def test_matched_leaves_degrees():
    rec = desk("MatchedLeaves")
    assert rec.degree(parse_tree("f(x,x)")) == "c"
    assert rec.degree(parse_tree("f(y,y)")) == "d"
    assert rec.degree(parse_tree("f(x,y)")) == "0"
    assert rec.degree(parse_tree("f(f(x,x),f(x,x))")) == "0"
    assert rec.degree(parse_tree("x")) == "0"


def test_dead_branch_is_constantly_zero():
    rec = desk("DeadBranch")
    for t in enum_trees(rec.alphabet, 3):
        assert rec.degree(t) == "0"


def test_graded_square_support():
    rec = desk("GradedSquare")
    values = {str(t): rec.degree(t) for t in enum_trees(rec.alphabet, 2)}
    nonzero = {k: v for k, v in values.items() if v != "0"}
    assert nonzero == {"f(x,x)": "d", "f(x,y)": "d", "f(y,x)": "d", "f(y,y)": "1"}


def test_degree_by_paths_agrees():
    rng = seeded(21)
    for n in range(30):
        lattice = rng.choice(lattice_menu())
        alph = rng.choice([fixtures.alphabet_pair(), fixtures.alphabet_mixed()])
        rec = random_dt(rng, lattice, alph)
        for _ in range(10):
            t = random_tree(rng, alph, 4)
            assert rec.degree(t) == rec.degree_by_paths(t)


def test_leaf_degree_is_initial_weight():
    rec = desk("MatchedLeaves")
    assert rec.degree(parse_tree("x")) == rec.weights["x"]["a0"]
    assert rec.degree_by_paths(parse_tree("y")) == rec.weights["y"]["a0"]


def test_context_degree():
    rec = desk("MatchedLeaves")
    value, end = rec.context_degree("a0", parse_context("@"))
    assert (value, end) == ("1", "a0")
    value, end = rec.context_degree("a0", parse_context("f(@,y)"))
    assert (value, end) == ("d", "a")


def test_context_degree_decomposition():
    # degree of the plugged context = context part meet subtree part
    rng = seeded(23)
    contexts = [parse_context(s) for s in ("@", "f(@,y)", "f(x,@)", "f(f(@,x),y)")]
    for n in range(15):
        lattice = rng.choice(lattice_menu())
        rec = random_dt(rng, lattice, fixtures.alphabet_pair())
        for p in contexts:
            for _ in range(5):
                t = random_tree(rng, rec.alphabet, 2)
                value, end = rec.context_degree(rec.initial, p)
                whole = rec.degree(p.fill(t))
                assert whole == lattice.meet(value, rec.degree(t, start=end))


def test_context_degree_composes():
    rng = seeded(27)
    rec = desk("MatchedLeaves")
    lattice = rec.lattice
    p = parse_context("f(@,y)")
    q = parse_context("f(x,@)")
    vp, end_p = rec.context_degree("a0", p)
    vq, end_q = rec.context_degree(end_p, q)
    v_both, end_both = rec.context_degree("a0", p.fill(q))
    assert v_both == lattice.meet(vp, vq)
    assert end_both == end_q


def test_degree_range_lands_in_weight_closure():
    rng = seeded(29)
    for n in range(20):
        lattice = rng.choice(lattice_menu())
        rec = random_dt(rng, lattice, fixtures.alphabet_pair())
        closure = rec.final_weight_closure()
        for _ in range(10):
            assert rec.degree(random_tree(rng, rec.alphabet, 3)) in closure


def test_ndt_empty_choice_gives_zero():
    alph = fixtures.alphabet_solo()
    algebra = NdtAlgebra(alph, ["q"], {"f": {"q": []}})
    rec = LNdtRecognizer(fixtures.b2(), algebra, ["q"], {"x": {"q": "1"}})
    assert rec.degree(parse_tree("f(x,x)")) == "0"
    assert rec.degree(parse_tree("x")) == "1"


def test_ndt_join_of_branches():
    # two branches yielding 1/2 and 1: the join wins
    lat = fixtures.chain4()
    alph = fixtures.alphabet_solo()
    algebra = NdtAlgebra(
        alph,
        ["r", "half", "one", "dead"],
        {
            "f": {
                "r": [("half", "half"), ("one", "one")],
                "half": [],
                "one": [],
                "dead": [],
            }
        },
    )
    rec = LNdtRecognizer(
        lat, algebra, ["r"], {"x": {"half": "1/2", "one": "1", "dead": "0"}}
    )
    assert rec.degree(parse_tree("f(x,x)")) == "1"


def test_ndt_degree_joins_choices_at_each_node_not_over_runs():
    # over N5 (0 < a < b < 1, c beside a and b) the two readings differ: at
    # g(x) from p the choices join to a v c = 1, and the kernel and the
    # oracle meet that with b; joined over the two runs, the meets a ^ b = a
    # and c ^ b = 0 give a
    lat = n5()
    alph = RankedAlphabet({"f": 2, "g": 1}, ["x"])
    algebra = NdtAlgebra(
        alph,
        ["r", "p", "s", "u", "v"],
        {"f": {"r": [("p", "s")]}, "g": {"p": [("u",), ("v",)]}},
    )
    rec = LNdtRecognizer(lat, algebra, ["r"], {"x": {"s": "b", "u": "a", "v": "c"}})
    t = parse_tree("f(g(x),x)")
    assert rec.degree(t) == "b"
    assert eval_reference(rec, t) == "b"

    def run_meets(node, a):
        """The meet of the frontier weights of each run of `node` from `a`."""
        if node.is_leaf:
            return [rec.weights[node.symbol][a]]
        meets = []
        for tup in algebra.choices(node.symbol, a):
            partial = [lat.top]
            for child, b in zip(node.children, tup):
                partial = [lat.meet(m, v) for m in partial for v in run_meets(child, b)]
            meets += partial
        return meets

    assert lat.join_all(run_meets(t, "r")) == "a"


def test_dt_to_ndt_preserves_degrees():
    rng = seeded(31)
    for n in range(20):
        lattice = rng.choice(lattice_menu())
        rec = random_dt(rng, lattice, fixtures.alphabet_mixed())
        ndt = dt_to_ndt(rec)
        for f, _ in rec.alphabet.symbols:
            for a in rec.algebra.states:
                assert len(ndt.algebra.choices(f, a)) == 1
        for _ in range(10):
            t = random_tree(rng, rec.alphabet, 3)
            assert ndt.degree(t) == rec.degree(t)


def test_initial_set_join():
    rng = seeded(33)
    rec = random_ndt(rng, fixtures.chain4(), fixtures.alphabet_pair())
    t = random_tree(rng, rec.alphabet, 2)
    lattice = rec.lattice
    acc = lattice.bottom
    for a in rec.initial:
        acc = lattice.join(acc, rec.degree(t, start=a))
    assert rec.degree(t) == acc


def test_general_semantics():
    lat = fixtures.chain4()
    alph = RankedAlphabet({"g": 1}, ["x"])
    rec = GeneralLNdtRecognizer(
        lat,
        alph,
        ["a"],
        {"g": {("a", ("a",)): "1/2"}},
        {"a": "1"},
        {"x": {"a": "1"}},
    )
    assert rec.degree(parse_tree("x")) == "1"
    assert rec.degree(parse_tree("g(x)")) == "1/2"
    assert rec.degree(parse_tree("g(g(x))")) == "1/2"


def test_general_zero_initial_weights():
    lat = fixtures.b2()
    alph = fixtures.alphabet_solo()
    rec = GeneralLNdtRecognizer(lat, alph, ["a"], {"f": {}}, {}, {"x": {"a": "1"}})
    assert rec.degree(parse_tree("x")) == "0"


def test_general_crisp_weights_reduce_to_simple():
    # all-top transition weights and a crisp initial set act like a plain NDT
    rng = seeded(35)
    lat = fixtures.b2()
    alph = fixtures.alphabet_pair()
    simple = random_ndt(rng, lat, alph)
    weighted = {
        f: {
            (a, tup): "1"
            for a in simple.algebra.states
            for tup in simple.algebra.choices(f, a)
        }
        for f, _ in alph.symbols
    }
    starts = {a: "1" if a in simple.initial else "0" for a in simple.algebra.states}
    general = GeneralLNdtRecognizer(
        lat, alph, simple.algebra.states, weighted, starts, simple.weights
    )
    for t in enum_trees(alph, 2):
        assert general.degree(t) == simple.degree(t)


def test_general_to_simple_equivalent():
    rng = seeded(37)
    alph = fixtures.alphabet_solo()
    for n in range(12):
        lat = fixtures.chain4() if n % 2 else fixtures.b2()
        states = [f"s{i}" for i in range(rng.randint(1, 3))]
        weighted = {
            "f": {
                (a, (rng.choice(states), rng.choice(states))): rng.choice(lat.elements)
                for a in states
            }
        }
        starts = {a: rng.choice(lat.elements) for a in states}
        weights = {"x": {a: rng.choice(lat.elements) for a in states}}
        general = GeneralLNdtRecognizer(lat, alph, states, weighted, starts, weights)
        simple = general_to_simple(general)
        for t in enum_trees(alph, 3):
            assert simple.degree(t) == general.degree(t)


def test_general_to_simple_keeps_fractional_weight():
    lat = fixtures.chain4()
    alph = RankedAlphabet({"g": 1}, ["x"])
    general = GeneralLNdtRecognizer(
        lat, alph, ["a"], {"g": {("a", ("a",)): "1/2"}}, {"a": "1"}, {"x": {"a": "1"}}
    )
    simple = general_to_simple(general)
    assert simple.degree(parse_tree("g(x)")) == "1/2"


def pentagon():
    # 0 < inner < upper < 1 with `side` incomparable to both: not distributive
    from lfta.lattice import validate

    return validate(
        ["0", "inner", "upper", "side", "1"],
        [("0", "inner"), ("inner", "upper"), ("upper", "1"), ("0", "side"), ("side", "1")],
    )


def test_general_requires_distributive():
    lat = pentagon()
    assert not lat.is_distributive()
    alph = fixtures.alphabet_solo()
    rec = GeneralLNdtRecognizer(lat, alph, ["a"], {"f": {}}, {"a": "1"}, {"x": {"a": "1"}})
    with pytest.raises(NonDistributiveLatticeError):
        rec.require_distributive()


def test_general_evaluation_takes_non_distributive_lattices():
    # evaluation is the recursive join of meets, on any lattice; only pushing
    # the weights into states needs distributivity
    alph = fixtures.alphabet_solo()
    rec = GeneralLNdtRecognizer(pentagon(), alph, ["a"], {"f": {}}, {"a": "1"}, {"x": {"a": "1"}})
    assert rec.degree(parse_tree("x")) == "1"
    assert rec.degree_map([parse_tree("x"), parse_tree("f(x,x)")]) == {parse_tree("x"): "1", parse_tree("f(x,x)"): "0"}
    with pytest.raises(NonDistributiveLatticeError) as info:
        general_to_simple(rec)
    assert str(info.value) == "general recognizers need a distributive lattice"
    rng = seeded(41)
    alph = fixtures.alphabet_pair()
    pool = enum_trees(alph, 3)
    for lat in (n5(), m3()):
        for _ in range(6):
            rec = random_general(rng, lat, alph)
            assert rec.degree_map(pool) == {t: eval_reference(rec, t) for t in pool}
            with pytest.raises(NonDistributiveLatticeError):
                general_to_simple(rec)


def test_general_degree_map_matches_oracle():
    rng = seeded(39)
    alph = fixtures.alphabet_pair()
    pool = enum_trees(alph, 3)
    for lat in (fixtures.chain4(), fixtures.diamond(), product(fixtures.b2(), fixtures.chain3())):
        for _ in range(6):
            rec = random_general(rng, lat, alph)
            assert rec.degree_map(pool) == eval_reference_map(rec, pool)


def absorbing_cases(seed):
    """Random DT, NDT and general recognizers whose weights include bottom and top."""
    rng = seeded(seed)
    alph = fixtures.alphabet_mixed()
    for lat in (fixtures.b2(), fixtures.chain4(), fixtures.diamond(), n5()):
        for _ in range(3):
            yield random_dt(rng, lat, alph)
            yield random_ndt(rng, lat, alph, max_choices=3)
            yield random_general(rng, lat, alph)


def test_absorbing_kernel_matches_oracle_on_pool():
    pool = enum_trees(fixtures.alphabet_mixed(), 2)
    for rec in absorbing_cases(47):
        got = rec.degree_map(pool)
        assert got == {t: eval_reference(rec, t) for t in pool}


def test_absorbing_kernel_matches_eager_kernel_on_caterpillars(monkeypatch):
    """Same degrees as the kernel without short-circuits, from fewer (subtree, state) visits."""
    rng = seeded(53)
    alph = fixtures.alphabet_mixed()
    trees = [counting_copy(caterpillar(rng, alph, 40)) for _ in range(4)]
    for t in trees:
        hash(t)  # a first hash reads every node's children: done here, before counting
    skipped = 0
    for rec in absorbing_cases(59):
        CountingTree.asked = 0
        got = rec.degree_map(trees)
        visits = CountingTree.asked
        with monkeypatch.context() as m:
            m.setattr(recognizers, "_evaluate", eager_evaluate)
            CountingTree.asked = 0
            assert got == rec.degree_map(trees)
        assert 0 < visits <= CountingTree.asked
        skipped += CountingTree.asked - visits
    assert skipped > 0, "no short-circuit fired"


def test_general_options_keep_table_order():
    rng = seeded(61)
    for lat in lattice_menu():
        for alph in (fixtures.alphabet_pair(), fixtures.alphabet_ternary()):
            rec = random_general(rng, lat, alph, max_states=4, max_choices=4)
            for f, _ in alph.symbols:
                for a in rec.states:
                    scan = [(tup, c) for (source, tup), c in rec.transition_weights[f].items() if source == a]
                    assert list(rec._options(f, a)) == scan


def test_degree_by_paths_on_deep_spine():
    alph = RankedAlphabet({"g": 1}, ["x"])
    algebra = DtAlgebra(alph, ["a", "b"], {"g": {"a": ("b",), "b": ("a",)}})
    rec = LDtRecognizer(fixtures.chain3(), algebra, "a", {"x": {"a": "1", "b": "d"}})
    assert rec.degree_by_paths(spine_tree(alph, 10**4)) == "1"
    assert rec.degree_by_paths(spine_tree(alph, 10**4 + 1)) == "d"


def test_degrees_on_deep_spine():
    """DT, NDT and general degrees of a spine of height 10**4, against the path route and level-by-level vectors."""
    rng = seeded(89)
    alph = fixtures.alphabet_mixed()
    n = 10**4
    spine = spine_tree(alph, n)
    seen = set()
    for lat in (fixtures.chain4(), fixtures.diamond()):
        top = lat.top
        for _ in range(2):
            dt = random_dt(rng, lat, alph)
            want = dt.degree_by_paths(spine)
            assert dt.degree(spine) == dt.degree_map([spine])[spine] == want
            assert dt_to_ndt(dt).degree(spine) == want
            ndt = random_ndt(rng, lat, alph, max_choices=3)
            options = lambda a: [(tup, top) for tup in ndt.algebra.choices("f", a)]
            vector = spine_degrees(lat, alph, ndt.weights, options, ndt.algebra.states, n)
            want = lat.join_all([vector[a] for a in ndt.initial])
            assert ndt.degree(spine) == ndt.degree_map([spine])[spine] == want
            seen.add(want)
            general = random_general(rng, lat, alph)
            vector = spine_degrees(lat, alph, general.weights, lambda a: general._options("f", a), general.states, n)
            want = lat.join_all(lat.meet(general.initial_weights[a], vector[a]) for a in general.states)
            assert general.degree(spine) == general.degree_map([spine])[spine] == want
            seen.add(want)
    assert len(seen) > 1, "every deep degree is the same value"


def test_context_degree_on_deep_spine():
    alph = RankedAlphabet({"f": 2}, ["x", "y"])
    algebra = DtAlgebra(alph, ["a", "b"], {"f": {"a": ("b", "a"), "b": ("a", "b")}})
    rec = LDtRecognizer(fixtures.chain3(), algebra, "a", {"x": {"a": "1", "b": "1"}, "y": {"a": "d", "b": "1"}})
    for height, end in ((10**4, "a"), (10**4 + 1, "b")):
        spine = Tree(HOLE)  # the hole at the bottom of the left spine, y beside every step
        for _ in range(height):
            spine = Tree("f", [spine, Tree("y")])
        assert rec.context_degree("a", Context(spine)) == ("d", end)


def test_ndt_state_degrees_match_oracle_from_each_state():
    rng = seeded(41)
    alph = fixtures.alphabet_mixed()
    pool = enum_trees(alph, 2)
    for lat in lattice_menu():
        rec = random_ndt(rng, lat, alph)
        vectors = {t: rec.state_degrees(t) for t in pool}
        for a in rec.algebra.states:
            single = LNdtRecognizer(lat, rec.algebra, [a], rec.weights)
            reference = eval_reference_map(single, pool)
            assert all(vectors[t][a] == reference[t] for t in pool)


def test_from_finite_language():
    lat = fixtures.chain3()
    alph = fixtures.alphabet_pair()
    support = {
        parse_tree("f(x,y)"): "d",
        parse_tree("f(f(x,x),y)"): "1",
    }
    rec = from_finite_language(lat, alph, support)
    for t in enum_trees(alph, 3):
        assert rec.degree(t) == support.get(t, "0")


def test_weight_table_validation():
    with pytest.raises(ValidationError):
        from_finite_language(fixtures.b2(), fixtures.alphabet_pair(), {parse_tree("f(x,z)"): "1"})
