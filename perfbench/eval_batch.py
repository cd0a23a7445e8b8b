"""eval-batch: seeded DT, NDT and general recognizers score fixed tree sets.

Time goes to `lattice`, `terms`, `recognizers` and `paths`, none to
`decide`/`chain`.  Two tree sets per recognizer separate memo reuse from
cheaper steps: the enumerated pools share many subtrees, the caterpillars
of height 150 share few.  General recognizers get smaller sets, sized to
their cost per tree (the distributivity check runs at every node).
"""

from __future__ import annotations

import random

import checks
import gen
from harness import Op, work_done
from lfta import paths, recognizers

STATES = (4, 8, 16, 32)
# an NDT scores a caterpillar in 4- and 8-state cells only (at 32 states one
# caterpillar takes about 30 ms)
NDT_DEEP_MAX_STATES = 8
DT_LATTICES = ("b2", "diamond", "chain4", "chain8", "chain4xb2", "n5")
GENERAL_LATTICES = ("b2", "diamond", "chain4", "chain8", "chain4xb2")
ALPHABET_CYCLE = ("f2", "f2g1", "h3g1")
CATERPILLAR_HEIGHT = 150

# trees per group: (pool sample, caterpillars)
SIZES = {"dt": (100, 1), "ndt": (50, 1), "paths": (40, 1)}
# Pool samples are scored in POOL_PARTS separate groups (each a degree_map
# call of its own), so the tail percentile of the group latencies lies in a
# dense part of the distribution rather than among a few slow groups.
POOL_PARTS = 2
# general: pool sample by lattice size; a caterpillar in one cell only (a
# deep general group costs 30-100 ms)
GENERAL_POOL = {2: 8, 4: 3, 8: 2}
GENERAL_DEEP_CELLS = (("b2", 4),)
# the path-language route sorts every root-to-leaf path of a caterpillar (about
# 0.15 s per tree), so it scores a caterpillar in one cell only
PATH_LANGUAGE_DEEP_CELLS = (("b2", 4),)

LATENCY_KINDS = WORK_KINDS = ("dt", "ndt", "general", "paths")


def _cells(lattice_names):
    """(lattice, alphabet, states): every lattice at every state count, alphabets in turn."""
    out = []
    for i, lname in enumerate(lattice_names):
        for j, n in enumerate(STATES):
            out.append((lname, ALPHABET_CYCLE[(i + j) % len(ALPHABET_CYCLE)], n))
    return out


def _eval_check(rec, trees):
    return lambda got: checks.same_map(got, checks.ref(rec, trees), "degree_map vs oracle")


def _route_check(rec, trees):
    """Deep trees, path routes: they must agree with the recursive route."""
    return lambda got: checks.same_map(got, rec.degree_map(trees), "path route vs degree_map")


def _recursive_check(rec, trees):
    """Deep trees, DT degree_map: it must agree with the path route."""
    return lambda got: checks.same_map(got, {t: rec.degree_by_paths(t) for t in trees}, "degree_map vs path route")


def _general_deep_check(rec, trees):
    """Deep trees: general evaluation must agree with general_to_simple + NDT evaluation."""
    return lambda got: checks.same_map(got, recognizers.general_to_simple(rec).degree_map(trees), "general vs simple")


def build(seed):
    rng = random.Random(seed)
    lats, alphs = gen.lattices(), gen.alphabets()
    pools = {name: gen.pool(a) for name, a in alphs.items()}
    n_cats = max(n_cat for _, n_cat in SIZES.values())
    cats = {name: [gen.caterpillar(rng, a, CATERPILLAR_HEIGHT) for _ in range(n_cats)] for name, a in alphs.items()}
    ops = []

    def add(proc, kind, trees, route, check_for, cell):
        """One op per chunk: pool samples are split into POOL_PARTS groups."""
        lname, aname, n = cell
        parts = POOL_PARTS if proc.endswith(".pool") else 1
        for k in range(parts):
            ts = trees[k::parts]
            ops.append(Op(proc, kind, lambda ts=ts: route(ts), check_for(ts), n, lname, aname, work=len(ts)))

    for cell in _cells(DT_LATTICES):
        lname, aname, n = cell
        lat, alph = lats[lname], alphs[aname]
        dt = gen.random_dt(rng, lat, alph, n)
        ndt = gen.random_ndt(rng, lat, alph, n)
        for kind, rec in (("dt", dt), ("ndt", ndt)):
            n_pool, n_cat = SIZES[kind]
            pool = rng.sample(pools[aname], min(n_pool, len(pools[aname])))
            deep = cats[aname][:n_cat] if kind == "dt" or n <= NDT_DEEP_MAX_STATES else []
            add(f"{kind}.degree_map.pool", kind, pool, lambda ts, r=rec: r.degree_map(ts),
                lambda ts, r=rec: _eval_check(r, ts), cell)
            deep_check = _recursive_check if kind == "dt" else _eval_check
            if deep:
                add(f"{kind}.degree_map.deep", kind, deep, lambda ts, r=rec: r.degree_map(ts),
                    lambda ts, r=rec, c=deep_check: c(r, ts), cell)
        n_pool, n_cat = SIZES["paths"]
        pool = rng.sample(pools[aname], n_pool)
        deep = cats[aname][:n_cat]
        for label, trees in (("pool", pool), ("deep", deep)):
            check = _eval_check if label == "pool" else _route_check
            add(f"degree_by_paths.{label}", "paths", trees,
                lambda ts, r=dt: {t: r.degree_by_paths(t) for t in ts}, lambda ts, r=dt, c=check: c(r, ts), cell)
            if label == "pool" or (lname, n) in PATH_LANGUAGE_DEEP_CELLS:
                add(f"degree_via_path_language.{label}", "paths", trees,
                    lambda ts, r=dt: {t: paths.degree_via_path_language(r, t) for t in ts},
                    lambda ts, r=dt, c=check: c(r, ts), cell)

    for cell in _cells(GENERAL_LATTICES):
        lname, aname, n = cell
        lat, alph = lats[lname], alphs[aname]
        rec = gen.random_general(rng, lat, alph, n)
        pool = rng.sample(pools[aname], GENERAL_POOL[len(lat)])
        add("general.degree_map.pool", "general", pool, lambda ts, r=rec: r.degree_map(ts),
            lambda ts, r=rec: _eval_check(r, ts), cell)
        if (lname, n) in GENERAL_DEEP_CELLS:
            add("general.degree_map.deep", "general", cats[aname][:1], lambda ts, r=rec: r.degree_map(ts),
                lambda ts, r=rec: _general_deep_check(r, ts), cell)
        # the same pool through general_to_simple and NDT evaluation
        add("general.via_simple.pool", "general", pool,
            lambda ts, r=rec: recognizers.general_to_simple(r).degree_map(ts), lambda ts, r=rec: _eval_check(r, ts), cell)
    return ops


def named_metrics(m):
    """The eval-batch metrics under their own names: trees per second for each route."""
    out = {}
    for kind in ("dt", "ndt", "general", "paths"):
        trees, seconds = work_done(m, (kind,))
        out[f"eval_{kind}_trees_per_s"] = (trees / seconds, "trees/s")
    return out
