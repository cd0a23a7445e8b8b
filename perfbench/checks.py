"""Answer checks.  They run after the timed pass, never inside a timed region.

Each check returns None when the answer is right, else a message.  Expected
values come from `lfta.oracle` (which shares no code with the production
evaluators) or from a second production route, as noted per check.
"""

from __future__ import annotations

from lfta import lattice as lat_mod
from lfta import oracle


def ref(rec, trees):
    """Reference degrees from the oracle."""
    return oracle.eval_reference_map(rec, trees)


def same_map(got, want, what):
    for t, v in want.items():
        if got.get(t) != v:
            return f"{what}: {t} gives {got.get(t)!r}, expected {v!r}"
    return None


def pointwise(rec, sample, expected, what):
    """rec evaluated by the oracle on `sample` equals expected(t) everywhere."""
    got = ref(rec, sample)
    for t in sample:
        want = expected(t)
        if got[t] != want:
            return f"{what}: {t} gives {got[t]!r}, expected {want!r}"
    return None


def check_comparison(cmp, f_rec, g_rec, sample):
    """Negative verdicts by re-evaluating their witness; positive ones on the sample."""
    lat = f_rec.lattice
    for flag, witness, name in (
        (cmp.included, cmp.inclusion_witness, "included"),
        (cmp.equivalent, cmp.equivalence_witness, "equal"),
        (cmp.disjoint, cmp.disjointness_witness, "disjoint"),
    ):
        trees = sample if flag else [witness]
        if not flag and witness is None:
            return f"{name}: negative verdict without a witness"
        fv, gv = ref(f_rec, trees), ref(g_rec, trees)
        for t in trees:
            holds = {
                "included": lat.leq(fv[t], gv[t]),
                "equal": fv[t] == gv[t],
                "disjoint": lat.meet(fv[t], gv[t]) == lat.bottom,
            }[name]
            if holds != flag:
                return f"{name}: verdict {flag} contradicted at {t} ({fv[t]!r} vs {gv[t]!r})"
    return None


def check_ndt_equal(verdict, left, right, sample):
    """A "different" verdict by re-evaluating its witness; an "equal" one on the sample."""
    equal, witness = verdict
    if not equal:
        if witness is None:
            return "different: verdict without a witness"
        trees = [witness]
    else:
        trees = sample
    lv, rv = ref(left, trees), ref(right, trees)
    for t in trees:
        if (lv[t] == rv[t]) != equal:
            return f"ndt_compare: verdict {equal} contradicted at {t} ({lv[t]!r} vs {rv[t]!r})"
    return None


def pair(a, b):
    return lat_mod.pair_id(a, b)
