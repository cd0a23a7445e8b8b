import pytest

from lfta import decide, fixtures, paths
from lfta.errors import AlphabetMismatchError
from lfta.oracle import enum_trees, eval_reference_map, path_image
from lfta.terms import PathWord, delta, parse_path, parse_tree

from helpers import (
    caterpillar,
    desk,
    lattice_menu,
    n5,
    random_dt,
    random_tree,
    seeded,
    spine_degrees,
    spine_tree,
)


def all_paths(alphabet, max_len):
    letters = alphabet.path_letters()
    words, layer = [()], [()]
    for _ in range(max_len):
        layer = [w + (le,) for w in layer for le in letters]
        words += layer
    return [PathWord(w, x) for w in words for x in alphabet.leaves]


def test_to_unary_transitions():
    rec = desk("DeadBranch")
    unary = paths.to_unary(rec)
    assert unary.algebra.step("f.1", "a0") == ("a",)
    assert unary.algebra.step("f.2", "a0") == ("b",)


def test_unary_round_trip():
    rec = desk("MatchedLeaves")
    back = paths.from_unary(paths.to_unary(rec), rec.alphabet)
    assert back.algebra.transitions == rec.algebra.transitions
    assert back.initial == rec.initial
    assert back.weights == rec.weights


def test_from_unary_rejects_wrong_alphabet():
    rec = desk("MatchedLeaves")
    with pytest.raises(AlphabetMismatchError):
        paths.from_unary(rec, rec.alphabet)


def test_path_degree_examples():
    rec = desk("DeadBranch")
    assert paths.path_degree(rec, parse_path("f.1 x")) == "1"
    assert paths.path_degree(rec, parse_path("f.2 x")) == "0"
    assert paths.path_degree(rec, parse_path("x")) == rec.weights["x"]["a0"]


def test_path_degree_is_unary_degree():
    rng = seeded(81)
    for n in range(10):
        rec = random_dt(rng, rng.choice(lattice_menu()), fixtures.alphabet_mixed())
        unary = paths.to_unary(rec)
        pool = all_paths(rec.alphabet, 5)
        sample = pool[:20] + rng.sample(pool, 30)  # short words plus long ones
        for r in sample:
            assert paths.path_degree(rec, r) == unary.degree(paths.path_to_tree(r))


def test_path_tree_round_trip():
    r = parse_path("f.1 g.1 f.2 y")
    assert paths.tree_to_path(paths.path_to_tree(r)) == r


def test_degree_via_path_language():
    rec = desk("DeadBranch")
    assert paths.degree_via_path_language(rec, parse_tree("f(x,x)")) == "0"
    graded = desk("MatchedLeaves")
    assert paths.degree_via_path_language(graded, parse_tree("f(y,y)")) == "d"
    rng = seeded(83)
    for n in range(15):
        rec = random_dt(rng, rng.choice(lattice_menu()), fixtures.alphabet_pair())
        for _ in range(8):
            t = random_tree(rng, rec.alphabet, 3)
            assert paths.degree_via_path_language(rec, t) == rec.degree(t)


def test_degree_via_path_language_matches_degree_on_pools_and_caterpillars():
    rng = seeded(101)
    for alph in (fixtures.alphabet_mixed(), fixtures.alphabet_ternary()):
        pool = enum_trees(alph, 2)
        trees = pool + [caterpillar(rng, alph, 30) for _ in range(3)]
        for lat in lattice_menu() + [n5()]:
            for _ in range(2):
                rec = random_dt(rng, lat, alph)
                assert {t: paths.degree_via_path_language(rec, t) for t in trees} == rec.degree_map(trees)


def test_degree_via_path_language_is_the_meet_of_path_degrees():
    """The definition: a DT recognizer scores a tree with the meet of the degrees of its paths."""
    rng = seeded(103)
    for alph in (fixtures.alphabet_mixed(), fixtures.alphabet_ternary()):
        trees = enum_trees(alph, 2) + [caterpillar(rng, alph, 30) for _ in range(2)]
        for lat in lattice_menu() + [n5()]:
            rec = random_dt(rng, lat, alph)
            for t in trees:
                by_definition = lat.meet_all(paths.path_degree(rec, r) for r in delta(t))
                assert by_definition == paths.degree_via_path_language(rec, t) == rec.degree(t)


def test_degree_via_path_language_on_deep_spine():
    """A spine of height 10**4 has 10**4 + 1 paths; the route walks their shared prefixes once."""
    rng = seeded(107)
    alph = fixtures.alphabet_mixed()
    n = 10**4
    spine = spine_tree(alph, n)
    for lat in (fixtures.chain4(), n5()):
        for _ in range(2):
            rec = random_dt(rng, lat, alph)
            options = lambda a: [(rec.algebra.step("f", a), lat.top)]
            want = spine_degrees(lat, alph, rec.weights, options, rec.algebra.states, n)[rec.initial]
            assert paths.degree_via_path_language(rec, spine) == rec.degree_by_paths(spine) == want


def test_path_image_never_exceeds_path_degree():
    # the best degree of trees containing a path never beats the path's weight
    rec = desk("DeadBranch")
    pool = enum_trees(rec.alphabet, 3)
    language = {t: v for t, v in eval_reference_map(rec, pool).items() if v != "0"}
    image = path_image(from_language(rec, language))
    for r in all_paths(rec.alphabet, 2):
        assert rec.lattice.leq(image.get(r, "0"), paths.path_degree(rec, r))
    # strict gap: the dead branch recognizes nothing, yet f.1 x carries 1
    assert image.get(parse_path("f.1 x"), "0") == "0"
    assert paths.path_degree(rec, parse_path("f.1 x")) == "1"


def from_language(rec, language):
    from lfta.oracle import FiniteFuzzyLanguage

    return FiniteFuzzyLanguage(rec.lattice, rec.alphabet, language)


def test_twins_separate_in_path_language_only():
    left = desk("DeadBranch")
    right = desk("DeadBranchMirror")
    # equal on every tree
    for t in enum_trees(left.alphabet, 3):
        assert left.degree(t) == right.degree(t)
    # but their unary recognizers differ at f.1 x / f.2 x
    assert paths.path_degree(left, parse_path("f.1 x")) != paths.path_degree(
        right, parse_path("f.1 x")
    )
    unary_equal = decide.compare(paths.to_unary(left), paths.to_unary(right)).equivalent
    assert not unary_equal


def renamed_copy(rec):
    from lfta.automata import DtAlgebra
    from lfta.recognizers import LDtRecognizer

    fresh = {a: f"r_{a}" for a in rec.algebra.states}
    transitions = {
        f: {fresh[a]: tuple(fresh[b] for b in rec.algebra.step(f, a)) for a in rec.algebra.states}
        for f, _ in rec.alphabet.symbols
    }
    weights = {
        x: {fresh[a]: rec.weights[x][a] for a in rec.algebra.states}
        for x in rec.alphabet.leaves
    }
    algebra = DtAlgebra(rec.alphabet, [fresh[a] for a in rec.algebra.states], transitions)
    return LDtRecognizer(rec.lattice, algebra, fresh[rec.initial], weights)


def test_equal_path_languages_imply_equal_tree_languages():
    rng = seeded(87)
    checked = 0
    for n in range(30):
        lattice = rng.choice(lattice_menu())
        f_rec = random_dt(rng, lattice, fixtures.alphabet_pair(), max_states=2)
        twin = renamed_copy(f_rec) if n % 2 else random_dt(rng, lattice, fixtures.alphabet_pair(), max_states=2)
        if decide.compare(paths.to_unary(f_rec), paths.to_unary(twin)).equivalent:
            checked += 1
            assert decide.compare(f_rec, twin).equivalent
    assert checked > 0


def test_from_unary_output_is_path_closed():
    from lfta.oracle import FiniteFuzzyLanguage, is_path_closed

    rng = seeded(89)
    for n in range(10):
        lattice = rng.choice([fixtures.b2(), fixtures.chain3()])
        rec = random_dt(rng, lattice, fixtures.alphabet_pair(), max_states=2)
        rebuilt = paths.from_unary(paths.to_unary(rec), rec.alphabet)
        pool = enum_trees(rebuilt.alphabet, 3)
        support = {t: v for t, v in rebuilt.degree_map(pool).items() if v != "0"}
        windowed = FiniteFuzzyLanguage(rebuilt.lattice, rebuilt.alphabet, support)
        # restriction of a path-closed language to a height window stays closed
        assert is_path_closed(windowed)
