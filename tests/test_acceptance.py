"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

All lattice arithmetic is exact, so every check is equality at zero
tolerance.  The random populations are seeded and the required sizes are
hard-coded (200 recognizers for the oracle sweep, 100 pairs for the decision
sweep).
"""

import pytest

from lfta import chain as chain_ops
from lfta import decide, fixtures, paths, transforms
from lfta.lattice import LatticeMorphism, split_pair_id
from lfta.oracle import (
    FiniteFuzzyLanguage,
    enum_trees,
    eval_reference_map,
    is_path_closed,
    path_closure_crisp,
    x_iteration_window,
    x_product,
)
from lfta.recognizers import dt_to_ndt, from_finite_language
from lfta.terms import (
    RankedAlphabet,
    Tree,
    TreeHomomorphism,
    delta,
    parse_context,
    parse_path,
    parse_tree,
    var,
)

from helpers import random_dt, random_ndt, seeded, spine_tree

from test_paths import all_paths


def report(number, label, ok):
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def population(rng, count, deterministic):
    """Recognizers over the required lattices and alphabets, with tree pools."""
    menu = [fixtures.b2(), fixtures.diamond(), fixtures.chain4()]
    alphabets = [
        fixtures.alphabet_pair(),
        fixtures.alphabet_mixed(),
        RankedAlphabet({"g": 1}, ["x", "y"]),
    ]
    pools = {alph: enum_trees(alph, 3) for alph in alphabets}
    out = []
    for n in range(count):
        lattice = menu[n % len(menu)]
        alphabet = alphabets[n % len(alphabets)]
        maker = random_dt if deterministic else random_ndt
        out.append((maker(rng, lattice, alphabet), pools[alphabet]))
    return out


# -- criterion 1: worked-example goldens -------------------------------------

def test_criterion_1_example_goldens():
    ok = True

    # path extraction and crisp path closure
    t = parse_tree("f(g(f(x,x)),y)")
    ok &= [str(p) for p in delta(t)] == ["f.1 g.1 f.1 x", "f.1 g.1 f.2 x", "f.2 y"]
    closure = path_closure_crisp(
        fixtures.alphabet_pair(), [parse_tree("f(x,y)"), parse_tree("f(y,x)")], 1
    )
    ok &= closure == {parse_tree(s) for s in ("f(x,y)", "f(y,x)", "f(x,x)", "f(y,y)")}

    # the diamond-valued pair recognizer
    matched = fixtures.matched_leaves()
    ok &= matched.degree(parse_tree("f(x,x)")) == "c"
    ok &= matched.degree(parse_tree("f(y,y)")) == "d"
    ok &= matched.degree(parse_tree("f(x,y)")) == "0"
    ok &= matched.degree(parse_tree("f(y,x)")) == "0"

    # level set of the graded square at d, via the crisp level construction
    graded = fixtures.graded_square()
    level = decide.level_set(graded, "d")
    accepted = {str(u) for u in enum_trees(graded.alphabet, 2) if level.accepts(u)}
    ok &= accepted == {"f(x,x)", "f(x,y)", "f(y,x)"}

    # dead branch triple: zero language, live path, separating twins
    dead = fixtures.dead_branch()
    mirror = fixtures.dead_branch_mirror()
    pool = enum_trees(dead.alphabet, 3)
    ok &= all(dead.degree(u) == "0" for u in pool)
    ok &= paths.path_degree(dead, parse_path("f.1 x")) == "1"
    ok &= all(dead.degree(u) == mirror.degree(u) for u in pool)
    unary_pair = (paths.to_unary(dead), paths.to_unary(mirror))
    ok &= not decide.compare(*unary_pair).equivalent

    report(1, "worked-example goldens", ok)


# -- criterion 2 and 3: oracle sweep and dual evaluation routes --------------

@pytest.fixture(scope="module")
def dt_population():
    return population(seeded(1001), 100, deterministic=True)


def test_criterion_2_oracle_equivalence(dt_population):
    rng = seeded(1002)
    ok = True
    for rec, pool in dt_population:
        if rec.degree_map(pool) != eval_reference_map(rec, pool):
            ok = False
            break
    for rec, pool in population(rng, 100, deterministic=False):
        if rec.degree_map(pool) != eval_reference_map(rec, pool):
            ok = False
            break
    report(2, "production vs oracle on 200 random recognizers", ok)


def test_criterion_3_path_evaluation_route(dt_population):
    ok = True
    for rec, pool in dt_population:
        recursive = rec.degree_map(pool)
        for u in pool:
            if recursive[u] != rec.degree_by_paths(u) or recursive[u] != paths.degree_via_path_language(rec, u):
                ok = False
                break
        if not ok:
            break
    report(3, "recursive = frontier = path-language evaluation", ok)


# -- criterion 4: pumping ----------------------------------------------------

def test_criterion_4_pumping(dt_population):
    ok = True
    for rec, _ in dt_population:
        t = spine_tree(rec.alphabet, decide.height_bound(rec) + 1)
        d = decide.pump_decompose(rec, t)
        base = rec.degree(t)
        if d.loop.depth < 1 or any(rec.degree(d.pumped(k)) != base for k in range(4)):
            ok = False
            break
    report(4, "pump decompositions degree-invariant for k in 0..3", ok)


# -- criterion 5: transform soundness ----------------------------------------

def test_criterion_5_transform_soundness():
    rng = seeded(1005)
    lat = fixtures.chain4()
    diamond = fixtures.diamond()
    alph = fixtures.alphabet_pair()
    pool = enum_trees(alph, 3)
    f_rec = random_dt(rng, lat, alph)
    g_rec = random_dt(rng, lat, alph)
    f_vals = eval_reference_map(f_rec, pool)
    g_vals = eval_reference_map(g_rec, pool)
    ok = True

    inter = transforms.intersect(f_rec, g_rec).degree_map(pool)
    ok &= all(inter[u] == lat.meet(f_vals[u], g_vals[u]) for u in pool)

    concat = transforms.top_concat("f", [f_rec, g_rec]).degree_map(pool)
    for u in pool:
        want = lat.meet(f_vals[u.children[0]], g_vals[u.children[1]]) if not u.is_leaf else "0"
        ok &= concat[u] == want

    ctx = parse_context("f(@,y)")
    quotient = transforms.context_quotient(f_rec, ctx).degree_map(pool)
    ok &= all(quotient[u] == f_rec.degree(ctx.fill(u)) for u in pool)

    embedded = transforms.context_embed(f_rec, ctx)
    plugged = {ctx.fill(u): u for u in enum_trees(alph, 2)}
    emb_vals = embedded.degree_map(pool)
    for u in pool:
        want = f_vals[plugged[u]] if u in plugged else "0"
        ok &= emb_vals[u] == want

    unary = RankedAlphabet({"g": 1}, ["x", "y"])
    unary_pool = enum_trees(unary, 3)
    duplicating = TreeHomomorphism(
        unary, alph, {"x": Tree("x"), "y": Tree("y")}, {"g": Tree("f", [var(1), var(1)])}
    )
    pulled = transforms.inverse_hom(f_rec, duplicating).degree_map(unary_pool)
    ok &= all(pulled[u] == f_rec.degree(duplicating(u)) for u in unary_pool)

    mixed = fixtures.alphabet_mixed()
    deleting = TreeHomomorphism(
        mixed, alph,
        {"x": Tree("x"), "y": Tree("y")},
        {"f": Tree("f", [var(1), var(2)]), "g": var(1)},
    )
    mixed_pool = enum_trees(mixed, 2)
    dropped = transforms.inverse_hom(f_rec, deleting).degree_map(mixed_pool)
    ok &= all(dropped[u] == f_rec.degree(deleting(u)) for u in mixed_pool)

    target = RankedAlphabet({"h": 2}, ["u", "v"])
    relabel = TreeHomomorphism(
        alph, target, {"x": Tree("u"), "y": Tree("v")}, {"f": Tree("h", [var(1), var(2)])}
    )
    imaged = transforms.alphabetic_image(f_rec, relabel)
    ok &= all(imaged.degree(relabel(u)) == f_vals[u] for u in pool)

    for c in lat.elements:
        scaled = transforms.scalar(f_rec, c).degree_map(pool)
        ok &= all(scaled[u] == lat.meet(c, f_vals[u]) for u in pool)
        crisp = transforms.cut(f_rec, c)
        ok &= all(crisp.accepts(u) == lat.leq(c, f_vals[u]) for u in pool)

    matched = fixtures.matched_leaves()
    m_pool = enum_trees(matched.alphabet, 3)
    collapse = LatticeMorphism(diamond, diamond, {"0": "0", "c": "0", "d": "d", "1": "d"})
    mapped = transforms.map_values(matched, collapse).degree_map(m_pool)
    ok &= all(mapped[u] == collapse(matched.degree(u)) for u in m_pool)

    paired = transforms.product_dt(f_rec, g_rec).recognizer.degree_map(pool)
    ok &= all(split_pair_id(paired[u]) == (f_vals[u], g_vals[u]) for u in pool)

    report(5, "transform constructions satisfy their pointwise equations", ok)


# -- criterion 6: chain-valued subset and normalization suite -----------------

def test_criterion_6_chain_suite():
    rng = seeded(1006)
    ok = True
    recognizers = [dt_to_ndt(fixtures.graded_square()), dt_to_ndt(fixtures.dead_branch())]
    recognizers += [
        random_ndt(rng, fixtures.chain4() if n % 2 else fixtures.chain3(), fixtures.alphabet_pair(), max_states=3)
        for n in range(10)
    ]
    for rec in recognizers:
        lattice = rec.lattice
        paths5 = all_paths(rec.alphabet, 5)
        subset = chain_ops.subset_recognizer(rec)
        ok &= all(
            paths.path_degree(subset, r) == chain_ops.path_degree_ndt(rec, r) for r in paths5
        )

        normalized = chain_ops.normalize(rec)
        ok &= chain_ops.is_normalized(normalized)
        pool = enum_trees(rec.alphabet, 3)
        want = eval_reference_map(rec, pool)
        got = normalized.degree_map(pool)
        ok &= all(got[u] == want[u] for u in pool)

        for r in all_paths(rec.alphabet, 3)[:30]:
            witness = chain_ops.witness_tree(normalized, r)
            ok &= r in delta(witness)
            ok &= normalized.degree(witness) == chain_ops.path_degree_ndt(normalized, r)

        closure = chain_ops.subset_recognizer(normalized)
        closure_vals = closure.degree_map(pool)
        for u in pool:
            best = lattice.top
            for r in delta(u):
                best = lattice.meet(best, chain_ops.path_degree_ndt(normalized, r))
            ok &= closure_vals[u] == best
        if not ok:
            break
    report(6, "path language, normalization, witness and subset closure", ok)


# -- criterion 7: decision procedures ----------------------------------------

def test_criterion_7_decisions():
    rng = seeded(1007)
    ok = True
    menu = [fixtures.b2(), fixtures.diamond(), fixtures.chain4()]
    alph = fixtures.alphabet_pair()
    pool = enum_trees(alph, 3)
    for n in range(100):
        lattice = menu[n % 3]
        f_rec = random_dt(rng, lattice, alph, max_states=3)
        g_rec = random_dt(rng, lattice, alph, max_states=3)
        verdict = decide.compare(f_rec, g_rec)
        f_vals = eval_reference_map(f_rec, pool)
        g_vals = eval_reference_map(g_rec, pool)
        if verdict.equivalent:
            ok &= all(f_vals[u] == g_vals[u] for u in pool)
        else:
            w = verdict.equivalence_witness
            ok &= f_rec.degree(w) != g_rec.degree(w)
        if verdict.included:
            ok &= all(lattice.leq(f_vals[u], g_vals[u]) for u in pool)
        else:
            w = verdict.inclusion_witness
            ok &= not lattice.leq(f_rec.degree(w), g_rec.degree(w))
        if verdict.disjoint:
            ok &= all(lattice.meet(f_vals[u], g_vals[u]) == lattice.bottom for u in pool)
        else:
            w = verdict.disjointness_witness
            ok &= lattice.meet(f_rec.degree(w), g_rec.degree(w)) != lattice.bottom
        ok &= decide.ndt_equivalent(dt_to_ndt(f_rec), dt_to_ndt(g_rec)) == verdict.equivalent
        if not ok:
            break

    b2 = fixtures.b2()
    union = from_finite_language(
        b2, alph, {parse_tree("f(x,y)"): "1", parse_tree("f(y,x)"): "1"}
    )
    ok &= not chain_ops.is_dt_recognizable(union)
    level_language = from_finite_language(
        fixtures.chain3(), alph, {parse_tree(s): "1" for s in ("f(x,x)", "f(x,y)", "f(y,x)")}
    )
    ok &= not chain_ops.is_dt_recognizable(level_language)
    ok &= chain_ops.is_dt_recognizable(dt_to_ndt(fixtures.graded_square()))
    for rec in (union, dt_to_ndt(fixtures.graded_square())):
        closed = chain_ops.path_closure_recognizer(rec)
        ok &= chain_ops.is_dt_recognizable(dt_to_ndt(closed))
    report(7, "comparison and recognizability decisions match the oracle", ok)


# -- criterion 8: non-closure witnesses ---------------------------------------

def test_criterion_8_non_closure_witnesses():
    ok = True
    b2 = fixtures.b2()
    alph = fixtures.alphabet_pair()

    template = FiniteFuzzyLanguage(b2, alph, {parse_tree("f(x,y)"): "1"})
    shapes = FiniteFuzzyLanguage(b2, alph, {parse_tree("x"): "1", parse_tree("f(x,x)"): "1"})
    ok &= chain_ops.is_dt_recognizable(from_finite_language(b2, alph, template.support))
    ok &= chain_ops.is_dt_recognizable(from_finite_language(b2, alph, shapes.support))
    product = x_product(template, shapes, "x")
    ok &= set(product.support) == {parse_tree("f(x,y)"), parse_tree("f(f(x,y),f(x,y))")}
    ok &= not is_path_closed(product)
    ok &= not chain_ops.is_dt_recognizable(from_finite_language(b2, alph, product.support))

    chain3 = fixtures.chain3()
    graded = FiniteFuzzyLanguage(
        chain3,
        alph,
        {
            parse_tree("f(f(y,y),f(x,x))"): "1",
            parse_tree("f(f(y,y),x)"): "d",
            parse_tree("f(x,f(x,x))"): "d",
            parse_tree("f(x,x)"): "d",
        },
    )
    ok &= chain_ops.is_dt_recognizable(from_finite_language(chain3, alph, graded.support))
    windowed = x_iteration_window(graded, "x", 2, 10)
    ok &= windowed.stabilized
    ok &= not is_path_closed(windowed.language)
    ok &= not chain_ops.is_dt_recognizable(
        from_finite_language(chain3, alph, windowed.language.support)
    )
    report(8, "substitution products and iterations escape recognizability", ok)
