import pytest

from lfta import chain as chain_ops
from lfta import decide, fixtures, paths, transforms
from lfta.automata import DtAlgebra, DtRecognizer, NdtRecognizer
from lfta.errors import (
    ArityMismatchError,
    LatticeMismatchError,
    NotInjectiveError,
    ZeroNotIrreducibleError,
)
from lfta.lattice import LatticeMorphism, product, split_pair_id
from lfta.oracle import enum_trees, eval_reference, eval_reference_map
from lfta.recognizers import dt_to_ndt, general_to_simple
from lfta.terms import HOLE, RankedAlphabet, Tree, TreeHomomorphism, parse_context, parse_tree, var

from helpers import constant_recognizer, desk, lattice_menu, random_dt, random_general, random_ndt, seeded


def tree_pool(alphabet, height=3):
    return enum_trees(alphabet, height)


def test_parallel_product_componentwise():
    rng = seeded(41)
    alph = fixtures.alphabet_pair()
    lat = fixtures.b2()
    nf = random_ndt(rng, lat, alph)
    ng = random_ndt(rng, lat, alph)
    paired = transforms.parallel_product(nf, ng)
    left = eval_reference_map(nf, tree_pool(alph))
    right = eval_reference_map(ng, tree_pool(alph))
    got = paired.recognizer.degree_map(tree_pool(alph))
    for t in tree_pool(alph):
        assert split_pair_id(got[t]) == (left[t], right[t])


def test_parallel_product_diagonal():
    rng = seeded(43)
    alph = fixtures.alphabet_pair()
    nf = random_ndt(rng, fixtures.chain4(), alph)
    paired = transforms.parallel_product(nf, nf)
    for t in tree_pool(alph, 2):
        u, v = split_pair_id(paired.recognizer.degree(t))
        assert u == v == nf.degree(t)


def test_parallel_product_of_twisted_pair():
    left = dt_to_ndt(desk("MatchedLeaves"))
    right = dt_to_ndt(desk("MatchedLeavesSwapped"))
    paired = transforms.parallel_product(left, right)
    assert split_pair_id(paired.recognizer.degree(parse_tree("f(x,x)"))) == ("c", "d")


def test_dt_product_componentwise():
    f_rec = desk("MatchedLeaves")
    g_rec = desk("MatchedLeavesSwapped")
    paired = transforms.product_dt(f_rec, g_rec)
    assert split_pair_id(paired.recognizer.degree(parse_tree("f(x,x)"))) == ("c", "d")
    for t in tree_pool(f_rec.alphabet):
        assert split_pair_id(paired.recognizer.degree(t)) == (f_rec.degree(t), g_rec.degree(t))


def test_intersect_is_pointwise_meet():
    f_rec = desk("MatchedLeaves")
    g_rec = desk("MatchedLeavesSwapped")
    inter = transforms.intersect(f_rec, g_rec)
    lat = f_rec.lattice
    reference = eval_reference_map(f_rec, tree_pool(f_rec.alphabet))
    other = eval_reference_map(g_rec, tree_pool(f_rec.alphabet))
    for t in tree_pool(f_rec.alphabet):
        assert inter.degree(t) == lat.meet(reference[t], other[t])
    assert inter.degree(parse_tree("f(x,x)")) == "0"  # c meets d


def test_intersect_with_self_and_constant():
    rec = desk("MatchedLeaves")
    same = transforms.intersect(rec, rec)
    ones = constant_recognizer(rec.lattice, rec.alphabet, "1")
    masked = transforms.intersect(rec, ones)
    for t in tree_pool(rec.alphabet, 2):
        assert same.degree(t) == rec.degree(t)
        assert masked.degree(t) == rec.degree(t)


def test_intersect_rejects_mismatched_lattices():
    with pytest.raises(LatticeMismatchError):
        transforms.intersect(desk("MatchedLeaves"), desk("GradedSquare"))


def test_top_concat():
    lat = fixtures.chain3()
    alph = fixtures.alphabet_pair()
    ones = constant_recognizer(lat, alph, "1")
    ds = constant_recognizer(lat, alph, "d")
    rec = transforms.top_concat("f", [ones, ds])
    for t in tree_pool(alph):
        if t.is_leaf:
            assert rec.degree(t) == "0"
        else:
            expected = lat.meet("1", lat.meet("1", "d"))  # parts' degrees meet
            assert rec.degree(t) == lat.meet(ones.degree(t.children[0]), ds.degree(t.children[1]))
    assert rec.degree(parse_tree("x")) == "0"


def test_top_concat_oracle_equation():
    rng = seeded(47)
    alph = fixtures.alphabet_pair()
    lat = fixtures.chain4()
    parts = [random_dt(rng, lat, alph), random_dt(rng, lat, alph)]
    rec = transforms.top_concat("f", parts)
    lefts = eval_reference_map(parts[0], tree_pool(alph, 2))
    rights = eval_reference_map(parts[1], tree_pool(alph, 2))
    for t in tree_pool(alph):
        if t.is_leaf or t.height > 3:
            continue
        expected = lat.meet(lefts[t.children[0]], rights[t.children[1]])
        assert rec.degree(t) == expected


def test_top_concat_other_root_scores_zero():
    lat = fixtures.b2()
    alph = fixtures.alphabet_mixed()
    ones = constant_recognizer(lat, alph, "1")
    rec = transforms.top_concat("f", [ones, ones])
    assert rec.degree(parse_tree("f(x,y)")) == "1"
    assert rec.degree(parse_tree("g(x)")) == "0"
    assert rec.degree(parse_tree("x")) == "0"


def test_top_concat_arity_mismatch():
    lat = fixtures.b2()
    alph = fixtures.alphabet_pair()
    with pytest.raises(ArityMismatchError):
        transforms.top_concat("f", [constant_recognizer(lat, alph, "1")])


def test_context_quotient():
    rec = desk("MatchedLeaves")
    p = parse_context("f(@,y)")
    quot = transforms.context_quotient(rec, p)
    assert quot.degree(parse_tree("x")) == "0"  # c meet d
    for t in tree_pool(rec.alphabet):
        assert quot.degree(t) == rec.degree(p.fill(t))


def test_context_quotient_identity():
    rec = desk("GradedSquare")
    quot = transforms.context_quotient(rec, parse_context("@"))
    for t in tree_pool(rec.alphabet, 2):
        assert quot.degree(t) == rec.degree(t)


def test_context_embed():
    rec = desk("MatchedLeaves")
    p = parse_context("f(@,y)")
    embedded = transforms.context_embed(rec, p)
    plugged = {p.fill(t): t for t in tree_pool(rec.alphabet, 2)}
    for image, source in plugged.items():
        assert embedded.degree(image) == rec.degree(source)
    for t in tree_pool(rec.alphabet, 2):
        if t not in plugged:
            assert embedded.degree(t) == "0"
    assert embedded.degree(parse_tree("x")) == "0"


def test_context_embed_identity():
    rec = desk("GradedSquare")
    embedded = transforms.context_embed(rec, parse_context("@"))
    for t in tree_pool(rec.alphabet, 2):
        assert embedded.degree(t) == rec.degree(t)


def test_context_embed_with_repeated_shape():
    # the context's fixed part repeats the shape of likely plugged subtrees
    rec = desk("GradedSquare")
    p = parse_context("f(@,f(x,x))")
    embedded = transforms.context_embed(rec, p)
    for s in tree_pool(rec.alphabet, 2):
        assert embedded.degree(p.fill(s)) == rec.degree(s)
    assert embedded.degree(parse_tree("f(f(x,x),f(x,y))")) == "0"
    assert embedded.degree(parse_tree("f(f(x,x),x)")) == "0"


def test_context_embed_deep_context():
    rec = desk("MatchedLeaves")
    p = parse_context("f(f(x,@),f(y,y))")
    embedded = transforms.context_embed(rec, p)
    for s in tree_pool(rec.alphabet, 2):
        assert embedded.degree(p.fill(s)) == rec.degree(s)


def test_inverse_hom_identity():
    from lfta.terms import identity_hom

    rec = desk("MatchedLeaves")
    pulled = transforms.inverse_hom(rec, identity_hom(rec.alphabet))
    for t in tree_pool(rec.alphabet):
        assert pulled.degree(t) == rec.degree(t)


def unary_into_pair():
    return RankedAlphabet({"g": 1}, ["x", "y"])


def test_inverse_hom_duplicating():
    rec = desk("MatchedLeaves")
    source = unary_into_pair()
    h = TreeHomomorphism(
        source,
        rec.alphabet,
        {"x": Tree("x"), "y": Tree("y")},
        {"g": Tree("f", [var(1), var(1)])},
    )
    pulled = transforms.inverse_hom(rec, h)
    assert pulled.degree(parse_tree("g(x)")) == "c"
    assert pulled.degree(parse_tree("g(y)")) == "d"
    for t in tree_pool(source):
        assert pulled.degree(t) == rec.degree(h(t))


def test_inverse_hom_deleting():
    rec = desk("MatchedLeaves")
    mixed = fixtures.alphabet_mixed()
    extended = transforms.inverse_hom(rec, _extend_hom(rec.alphabet, mixed))
    assert extended.degree(parse_tree("g(f(x,x))")) == "c"
    for t in tree_pool(mixed, 2):
        assert extended.degree(t) == rec.degree(_extend_hom(rec.alphabet, mixed)(t))


def _extend_hom(target, mixed):
    # g just disappears; f maps to itself
    return TreeHomomorphism(
        mixed,
        target,
        {"x": Tree("x"), "y": Tree("y")},
        {"f": Tree("f", [var(1), var(2)]), "g": var(1)},
    )


def test_inverse_hom_constant_image():
    # a symbol image with no variables erases entire subtrees
    rec = desk("GradedSquare")
    source = unary_into_pair()
    h = TreeHomomorphism(
        source,
        rec.alphabet,
        {"x": Tree("x"), "y": Tree("y")},
        {"g": Tree("f", [Tree("y"), Tree("y")])},
    )
    pulled = transforms.inverse_hom(rec, h)
    for t in tree_pool(source, 3):
        assert pulled.degree(t) == rec.degree(h(t))
    assert pulled.degree(parse_tree("g(g(x))")) == "1"  # image is always f(y,y)


def test_inverse_hom_random_sweep():
    rng = seeded(53)
    source = unary_into_pair()
    for n in range(8):
        lat = rng.choice(lattice_menu())
        rec = random_dt(rng, lat, fixtures.alphabet_pair())
        image_shape = rng.choice(
            [Tree("f", [var(1), var(1)]), Tree("f", [var(1), Tree("y")]), var(1)]
        )
        h = TreeHomomorphism(
            source,
            rec.alphabet,
            {"x": Tree("x"), "y": Tree("y")},
            {"g": image_shape},
        )
        pulled = transforms.inverse_hom(rec, h)
        for t in tree_pool(source):
            assert pulled.degree(t) == rec.degree(h(t))


def test_alphabetic_image():
    rec = desk("MatchedLeaves")
    target = RankedAlphabet({"h": 2}, ["u", "v"])
    h = TreeHomomorphism(
        rec.alphabet,
        target,
        {"x": Tree("u"), "y": Tree("v")},
        {"f": Tree("h", [var(1), var(2)])},
    )
    imaged = transforms.alphabetic_image(rec, h)
    for t in tree_pool(rec.alphabet):
        assert imaged.degree(h(t)) == rec.degree(t)


def test_alphabetic_image_off_image_is_zero():
    rec = desk("MatchedLeaves")
    target = RankedAlphabet({"h": 2, "k": 1}, ["u", "v", "w"])
    h = TreeHomomorphism(
        rec.alphabet,
        target,
        {"x": Tree("u"), "y": Tree("v")},
        {"f": Tree("h", [var(1), var(2)])},
    )
    imaged = transforms.alphabetic_image(rec, h)
    assert imaged.degree(parse_tree("k(u)")) == "0"
    assert imaged.degree(parse_tree("w")) == "0"
    assert imaged.degree(parse_tree("h(k(u),v)")) == "0"


def test_alphabetic_image_requires_injective():
    rec = desk("MatchedLeaves")
    target = RankedAlphabet({"h": 2}, ["u"])
    squash = TreeHomomorphism(
        rec.alphabet,
        target,
        {"x": Tree("u"), "y": Tree("u")},
        {"f": Tree("h", [var(1), var(2)])},
    )
    with pytest.raises(NotInjectiveError):
        transforms.alphabetic_image(rec, squash)


def test_scalar():
    rec = desk("MatchedLeaves")
    lat = rec.lattice
    for c in lat.elements:
        scaled = transforms.scalar(rec, c)
        for t in tree_pool(rec.alphabet, 2):
            assert scaled.degree(t) == lat.meet(c, rec.degree(t))
    assert transforms.scalar(rec, "c").degree(parse_tree("f(y,y)")) == "0"


def test_cut():
    rec = desk("GradedSquare")
    lat = rec.lattice
    for c in lat.elements:
        crisp = transforms.cut(rec, c)
        for t in tree_pool(rec.alphabet, 2):
            assert crisp.accepts(t) == lat.leq(c, rec.degree(t))
    at_d = transforms.cut(rec, "d")
    accepted = {str(t) for t in tree_pool(rec.alphabet, 1) if at_d.accepts(t)}
    assert accepted == {"f(x,x)", "f(x,y)", "f(y,x)", "f(y,y)"}
    at_zero = transforms.cut(rec, "0")
    assert all(at_zero.accepts(t) for t in tree_pool(rec.alphabet, 2))


def test_cut_at_top_of_matched_leaves_accepts_nothing():
    rec = desk("MatchedLeaves")
    top_cut = transforms.cut(rec, "1")
    assert not any(top_cut.accepts(t) for t in tree_pool(rec.alphabet))


def test_characteristic_and_support_round_trip():
    rec = desk("GradedSquare")
    crisp = transforms.cut(rec, "1")
    lifted = transforms.characteristic_dt(crisp, rec.lattice)
    back = transforms.support_dt(lifted)
    for t in tree_pool(rec.alphabet, 2):
        assert crisp.accepts(t) == back.accepts(t)
        assert lifted.degree(t) == ("1" if crisp.accepts(t) else "0")


def test_support_dt():
    rec = desk("GradedSquare")
    supp = transforms.support_dt(rec)
    for t in tree_pool(rec.alphabet, 2):
        assert supp.accepts(t) == (rec.degree(t) != "0")


def test_support_dt_rejects_diamond():
    with pytest.raises(ZeroNotIrreducibleError):
        transforms.support_dt(desk("MatchedLeaves"))


def test_lattice_map():
    rec = desk("GradedSquare")
    lat = rec.lattice
    collapse = LatticeMorphism(lat, lat, {"0": "0", "d": "0", "1": "1"})
    mapped = transforms.map_values(rec, collapse)
    assert mapped.degree(parse_tree("f(x,x)")) == "0"
    assert mapped.degree(parse_tree("f(y,y)")) == "1"
    for t in tree_pool(rec.alphabet, 2):
        assert mapped.degree(t) == collapse(rec.degree(t))


def test_lattice_map_identity():
    rec = desk("MatchedLeaves")
    identity = LatticeMorphism(rec.lattice, rec.lattice, {e: e for e in rec.lattice.elements})
    mapped = transforms.map_values(rec, identity)
    for t in tree_pool(rec.alphabet, 2):
        assert mapped.degree(t) == rec.degree(t)


def test_union_of_incomparable_supports_is_not_dt_recognizable():
    # the classic witness: each half is recognizable but the union mixes paths
    from lfta import chain as chain_ops
    from lfta.recognizers import from_finite_language

    lat = fixtures.b2()
    alph = fixtures.alphabet_pair()
    union = from_finite_language(
        lat, alph, {parse_tree("f(x,y)"): "1", parse_tree("f(y,x)"): "1"}
    )
    assert not chain_ops.is_dt_recognizable(union)
    half = from_finite_language(lat, alph, {parse_tree("f(x,y)"): "1"})
    assert chain_ops.is_dt_recognizable(half)


def public_twin(rec):
    """`rec` rebuilt through the public, checking constructors from its own tables."""
    algebra = type(rec.algebra)(rec.algebra.alphabet, rec.algebra.states, rec.algebra.transitions)
    if isinstance(rec, (DtRecognizer, NdtRecognizer)):
        return type(rec)(algebra, rec.initial, rec.final)
    return type(rec)(rec.lattice, algebra, rec.initial, rec.weights)


def _assert_passes_public_checks(built):
    """The public constructors accept `built`'s tables and store the same
    recognizer, an NDT row as the same set of choices, each listed once."""
    public = public_twin(built)
    for field in ("lattice", "initial", "weights", "final"):
        assert getattr(built, field, None) == getattr(public, field, None), field
    assert (built.algebra.alphabet, built.algebra.states) == (public.algebra.alphabet, public.algebra.states)
    if isinstance(built.algebra, DtAlgebra):
        assert built.algebra.transitions == public.algebra.transitions
        return
    assert built.algebra.transitions.keys() == public.algebra.transitions.keys()
    for f, rows in public.algebra.transitions.items():
        assert built.algebra.transitions[f].keys() == rows.keys()
        for a, row in rows.items():
            got = built.algebra.transitions[f][a]
            assert type(got) is tuple and len(set(got)) == len(got) and set(got) == set(row)


def test_constructions_pass_the_public_checks():
    """Constructions skip the constructor checks; their outputs must pass them anyway."""
    source = unary_into_pair()
    lattices = (fixtures.b2(), fixtures.diamond(), fixtures.chain4(), product(fixtures.chain4(), fixtures.b2()))
    for lattice in lattices:
        rng = seeded(71)
        identity = LatticeMorphism(lattice, lattice, {e: e for e in lattice.elements})
        for alph in (fixtures.alphabet_pair(), fixtures.alphabet_mixed()):
            for _ in range(3):
                r, s = random_dt(rng, lattice, alph), random_dt(rng, lattice, alph)
                nf, ng = random_ndt(rng, lattice, alph), random_ndt(rng, lattice, alph)
                c = rng.choice(lattice.elements)
                ctx = parse_context(rng.choice(["@", "f(@,y)", "f(f(x,@),x)"]))
                hom = TreeHomomorphism(
                    source, alph, {"x": Tree("x"), "y": Tree("y")},
                    {"g": rng.choice([Tree("f", [var(1), var(1)]), Tree("f", [var(1), Tree("y")]), var(1)])},
                )
                renamed = RankedAlphabet({f"{f}'": m for f, m in alph.symbols}, ["u", "v"])
                rename = TreeHomomorphism(
                    alph, renamed, {"x": Tree("u"), "y": Tree("v")},
                    {f: Tree(f"{f}'", [var(i) for i in range(1, m + 1)]) for f, m in alph.symbols},
                )
                crisp = transforms.cut(r, c)
                built = [
                    transforms.intersect(r, s),
                    transforms.product_dt(r, s).recognizer,
                    transforms.top_concat("f", [r, s]),
                    transforms.scalar(r, c),
                    transforms.context_quotient(r, ctx),
                    transforms.context_embed(r, ctx),
                    transforms.map_values(r, identity),
                    transforms.inverse_hom(r, hom),
                    transforms.alphabetic_image(r, rename),
                    crisp,
                    transforms.characteristic_dt(crisp, lattice),
                    paths.to_unary(r),
                    paths.from_unary(paths.to_unary(r), alph),
                    decide.level_set(r, c),
                    dt_to_ndt(r),
                    transforms.parallel_product(nf, ng).recognizer,
                    general_to_simple(random_general(rng, lattice, alph)),
                ]
                if lattice.is_chain():
                    built += [
                        transforms.support_dt(r),
                        chain_ops.normalize(nf),
                        chain_ops.normalize_dt(r),
                        chain_ops.subset_recognizer(nf),
                        chain_ops.path_closure_recognizer(nf),
                    ]
                for rec in built:
                    _assert_passes_public_checks(rec)


def _unplugged(context, t):
    """The tree `s` with `context.fill(s) == t`, or None."""
    stack, plugged = [(context.tree, t)], None
    while stack:
        shape, node = stack.pop()
        if shape.is_leaf and shape.symbol == HOLE:
            plugged = node
        elif shape.symbol != node.symbol or len(shape.children) != len(node.children):
            return None
        else:
            stack.extend(zip(shape.children, node.children))
    return plugged


def test_embed_and_image_compose():
    """Each construction takes the other's output, and its own: the states it
    adds must not repeat states an earlier one added."""
    rec = desk("MatchedLeaves")
    c = parse_context("f(@,y)")
    swap = TreeHomomorphism(
        rec.alphabet, rec.alphabet, {"x": Tree("y"), "y": Tree("x")}, {"f": Tree("f", [var(1), var(2)])}
    )
    bottom = rec.lattice.bottom
    # each construction's degree in terms of its input's; `swap` is its own inverse
    embed = lambda phi: lambda t: bottom if _unplugged(c, t) is None else phi(_unplugged(c, t))
    image = lambda phi: lambda t: phi(swap(t))
    reference = lambda t: eval_reference(rec, t)
    compositions = [
        (transforms.context_embed(transforms.context_embed(rec, c), c), embed(embed(reference))),
        (transforms.alphabetic_image(transforms.alphabetic_image(rec, swap), swap), image(image(reference))),
        (transforms.context_embed(transforms.alphabetic_image(rec, swap), c), embed(image(reference))),
        (transforms.alphabetic_image(transforms.context_embed(rec, c), swap), image(embed(reference))),
    ]
    pool = tree_pool(rec.alphabet, 2)
    trees = pool + [c.fill(s) for s in pool] + [c.fill(c.fill(s)) for s in pool]
    trees += [swap(t) for t in trees]
    for composed, expected in compositions:
        _assert_passes_public_checks(composed)
        for t in trees:
            assert composed.degree(t) == eval_reference(composed, t) == expected(t), t
