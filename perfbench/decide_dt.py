"""decide-dt: seeded DT recognizers run the DT deciders and DT constructions.

The rescanning fixpoints (`_attainable`, `compare`, `is_finite_support`)
dominate, so a semi-naive fixpoint engine shows here.  Evaluation runs only
inside checks, so an evaluation-kernel change should leave this workload
flat.  Half of the `compare` pairs are equal by construction and half are
random, so an early exit shows on one half and not on the other.
"""

from __future__ import annotations

import random

import checks
import gen
from harness import Op, attempt, verdict_construct_metrics
from lfta import decide, oracle, recognizers, transforms

STATES = (4, 8, 16, 32)
# The pair automaton of compare has n * n states, and is_finite_support and
# the duplicating inverse_hom grow fastest with n, so they sweep smaller
# recognizers; everything else sweeps 4 -> 32.
COMPARE_STATES = dict(zip(STATES, (2, 2, 3, 3)))
HEAVY_STATES = dict(zip(STATES, (4, 5, 6, 7)))
REPLICAS = dict(zip(STATES, (2, 1, 1, 1)))  # instance sets per lattice and state count
# Seed-time blow-ups, each far above the limit at the parent commit, kept in
# every run as known failures: (procedure, lattice, alphabet, states).
BLOWUPS = (
    ("is_finite_support", "chain8", "h3g1", 32),
    ("compare.random", "chain8", "h3g1", 6),
)
LATTICES = ("b2", "diamond", "chain4", "chain8", "chain4xb2", "n5")
# The ternary alphabet makes every fixpoint cubic in its tables; it appears
# in the blow-ups above and in eval-batch, not in the sweep.
ALPHABET_CYCLE = ("f2", "f2g1")
SAMPLE = 40  # pool trees each construction is checked on
CROSS_CHECK_MAX_STATES = 2  # compare is cross-checked against ndt_compare up to this size

LATENCY_KINDS = ("verdict",)
WORK_KINDS = ("construct",)


def _cells():
    """(lattice, alphabet, states): every lattice at every state count, alphabets in turn."""
    return [(lname, ALPHABET_CYCLE[(i + j + r) % len(ALPHABET_CYCLE)], n)
            for i, lname in enumerate(LATTICES) for j, n in enumerate(STATES) for r in range(REPLICAS[n])]


def _check_range(r, sample):
    def check(values):
        witnesses = decide.range_witnesses(r)
        if set(witnesses) != set(values):
            return "value_range disagrees with range_witnesses"
        for v, w in witnesses.items():
            if oracle.eval_reference(r, w) != v:
                return f"range witness {w} does not score {v!r}"
        seen = set(checks.ref(r, sample).values())
        if not seen <= values:
            return f"degrees {seen - values} attained on the pool but missing from the range"
        return None

    return check


def _check_finite(r, twin):
    def check(finite):
        if decide.is_finite_support(twin) != finite:
            return "is_finite_support differs on a state-permuted copy"
        if decide.value_range(r) == {r.lattice.bottom} and not finite:
            return "empty support reported infinite"
        return None

    return check


def _check_compare(r, s, sample, must_be_equal):
    def check(cmp):
        if must_be_equal and not (cmp.equivalent and cmp.included):
            return "pair equal by construction reported different"
        message = checks.check_comparison(cmp, r, s, sample)
        if message or len(r.algebra.states) > CROSS_CHECK_MAX_STATES or not r.lattice.is_distributive():
            return message
        # cross-check against the NDT procedure on DT views (small pairs only)
        verdict, error, _ = attempt(
            lambda: decide.ndt_compare(recognizers.dt_to_ndt(r), recognizers.dt_to_ndt(s))[0], 1.0
        )
        if error is None and verdict != cmp.equivalent:
            return "compare and ndt_compare disagree on equivalence"
        return None

    return check


def _check_pump(r, t):
    def check(d):
        if d.pumped(1) != t:
            return "decomposition does not rebuild the tree"
        want = oracle.eval_reference(r, t)
        for k in (0, 2):
            if oracle.eval_reference(r, d.pumped(k)) != want:
                return f"pumping {k} times changes the degree"
        return None

    return check


def build(seed):
    rng = random.Random(seed)
    lats, alphs = gen.lattices(), gen.alphabets()
    pools = {name: gen.pool(a) for name, a in alphs.items()}
    ops = []
    for lname, aname, n in _cells():
        alph, lat = alphs[aname], lats[lname]
        # on 8-element lattices product_dt's time is the 64-element product
        # lattice's tables, the same on every call: left out there
        with_product = len(lat) <= 5
        ops += _cell_ops(rng, lat, alph, rng.sample(pools[aname], SAMPLE), gen.homs(alph), gen.context(alph),
                         (n, lname, aname), with_product)
    # the blow-ups' check inputs come from a stream of their own, so the
    # instances stay those of the baseline
    check_rng = random.Random(f"{seed}-blowup-checks")
    for proc, lname, aname, n in BLOWUPS:
        lat, alph = lats[lname], alphs[aname]
        r, s = gen.random_dt(rng, lat, alph, n), gen.random_dt(rng, lat, alph, n)
        # the same checks as the sweep; they run only once the operation succeeds
        if proc == "is_finite_support":
            fn, check = (lambda r=r: decide.is_finite_support(r)), _check_finite(r, gen.permuted_dt(check_rng, r))
        else:
            fn = lambda r=r, s=s: decide.compare(r, s)
            check = _check_compare(r, s, check_rng.sample(pools[aname], SAMPLE), False)
        ops.append(Op(proc, "verdict", fn, check, n, lname, aname))
    return ops


def _cell_ops(rng, lat, alph, sample, hom_set, ctx, cell, with_product):
    n = cell[0]
    r, s = gen.random_dt(rng, lat, alph, n), gen.random_dt(rng, lat, alph, n)
    heavy = gen.random_dt(rng, lat, alph, HEAVY_STATES[n])
    twin = gen.permuted_dt(rng, heavy)
    heavy_cell = (HEAVY_STATES[n],) + cell[1:]
    k = COMPARE_STATES[n]
    left, right = gen.random_dt(rng, lat, alph, k), gen.random_dt(rng, lat, alph, k)
    # the equal partner is intersect(left, left) or a state-permuted copy, in turn
    equal = transforms.intersect(left, left) if k % 2 == 0 else gen.permuted_dt(rng, left)
    pair_cell = (k,) + cell[1:]
    spine = gen.spine(alph, decide.height_bound(r) + 1)
    probe = rng.choice(lat.elements)
    level = rng.choice(sorted(r.final_weight_closure(), key=lat.elements.index))
    ref = checks.ref
    ops = []

    def add(proc, kind, fn, check, where=cell):
        # a construction's work is the number of states it builds
        ops.append(Op(proc, kind, fn, check, *where, work=None if kind == "construct" else 1))

    add("value_range", "verdict", lambda: decide.value_range(r), _check_range(r, sample))
    add("is_finite_support", "verdict", lambda: decide.is_finite_support(heavy), _check_finite(heavy, twin),
        heavy_cell)
    add("compare.random", "verdict", lambda: decide.compare(left, right), _check_compare(left, right, sample, False),
        pair_cell)
    add("compare.equal", "verdict", lambda: decide.compare(left, equal), _check_compare(left, equal, sample, True),
        pair_cell)
    add("pump_decompose", "verdict", lambda: decide.pump_decompose(r, spine), _check_pump(r, spine))
    add("level_preimage_nonempty", "verdict", lambda: decide.level_preimage_nonempty(r, [probe]),
        lambda got: None if got == (probe in decide.value_range(r)) else "level preimage wrong")
    add("intersect", "construct", lambda: transforms.intersect(r, s),
        lambda res: checks.pointwise(res, sample, lambda t: lat.meet(ref(r, [t])[t], ref(s, [t])[t]), "intersect"))
    if with_product:
        add("product_dt", "construct", lambda: transforms.product_dt(r, s),
            lambda res: checks.pointwise(res.recognizer, sample, lambda t: checks.pair(ref(r, [t])[t], ref(s, [t])[t]),
                                         "product_dt"))
    for kind, h in hom_set.items():
        src, where = (heavy, heavy_cell) if kind == "duplicating" else (r, cell)
        add(f"inverse_hom.{kind}", "construct", lambda h=h, src=src: transforms.inverse_hom(src, h),
            lambda res, h=h, src=src: checks.pointwise(res, sample, lambda t: ref(src, [h(t)])[h(t)], "inverse_hom"),
            where)
    add("context_quotient", "construct", lambda: transforms.context_quotient(r, ctx),
        lambda res: checks.pointwise(res, sample, lambda t: ref(r, [ctx.fill(t)])[ctx.fill(t)], "context_quotient"))
    add("context_embed", "construct", lambda: transforms.context_embed(r, ctx),
        lambda res: checks.same_map({t: ref(res, [ctx.fill(t)])[ctx.fill(t)] for t in sample}, ref(r, sample),
                                    "context_embed"))
    add("level_set", "construct", lambda: decide.level_set(r, level),
        lambda res: next((f"level_set wrong at {t}" for t, v in ref(r, sample).items()
                          if res.accepts(t) != (v == level)), None))
    return ops


def named_metrics(m):
    return verdict_construct_metrics(m)
