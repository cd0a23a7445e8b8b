import random

import pytest
from hypothesis import given, settings, strategies as st

from lfta import fixtures
from lfta.automata import NdtAlgebra
from lfta.errors import ParseError, ValidationError
from lfta.oracle import enum_trees, eval_reference
from lfta.recognizers import LNdtRecognizer
from lfta.terms import parse_tree
from lfta.workspace import Workspace, _Parser, load, load_text, serialize, state_token, tokenize

from helpers import GOLDEN_DIR, desk, random_dt, random_ndt, tokenize_by_characters

GOLDENS = str(GOLDEN_DIR / "fixtures.lfta")
HOMS = str(GOLDEN_DIR / "homs.lfta")


def test_load_goldens():
    ws = load([GOLDENS])
    assert set(ws.lattices) == {"B2", "M2", "C3", "C4"}
    assert set(ws.alphabets) == {"Pair", "Mixed", "Solo"}
    assert set(ws.recognizers) == {
        "MatchedLeaves",
        "MatchedLeavesSwapped",
        "DeadBranch",
        "DeadBranchMirror",
        "GradedSquare",
        "UnionPair",
    }


def test_loaded_recognizers_match_fixtures():
    """Each desk recognizer has the support its comment documents, by the reference scorer."""
    supports = {
        "MatchedLeaves": {"f(x,x)": "c", "f(y,y)": "d"},
        "MatchedLeavesSwapped": {"f(x,x)": "d", "f(y,y)": "c"},
        "GradedSquare": {"f(x,x)": "d", "f(x,y)": "d", "f(y,x)": "d", "f(y,y)": "1"},
        "UnionPair": {"f(x,y)": "1", "f(y,x)": "1"},
        "DeadBranch": {},
        "DeadBranchMirror": {},
    }
    ws = load([GOLDENS])
    for name, support in supports.items():
        rec = ws.recognizer(name)
        degrees = {str(t): eval_reference(rec, t) for t in enum_trees(rec.alphabet, 3)}
        assert {t: v for t, v in degrees.items() if v != rec.lattice.bottom} == support, name
    assert isinstance(ws.recognizer("UnionPair"), LNdtRecognizer)


def test_round_trip():
    ws = load([GOLDENS])
    text = serialize(ws)
    again = load_text(text)
    assert again == ws
    assert serialize(again) == text


def test_round_trip_with_tree_hom_and_morphism_blocks():
    ws = load([GOLDENS, HOMS])
    load_text("tree Wide alphabet Pair { f(x,f(y,x)) }\ntree Bare alphabet Solo { x }", ws)
    text = serialize(ws)
    for block in (
        "hom dup from Pair to Pair { leaf x -> x ; leaf y -> f(x,y) ; sym f -> f($1,f($1,$2)) }",
        "morphism drop from C3 to C3 { 0 -> 0 ; d -> 0 ; 1 -> 1 }",
        "tree Wide alphabet Pair { f(x,f(y,x)) }",
    ):
        assert block in text.splitlines()
    again = load_text(text)
    assert again == ws
    assert serialize(again) == text
    assert again.hom("swap")(parse_tree("f(x,y)")) == parse_tree("f(y,x)")
    assert again.morphism("drop")("d") == "0"
    assert again.tree("Bare") == parse_tree("x")


def test_programmatic_serialize_round_trip():
    from lfta import chain as chain_ops
    from lfta.recognizers import dt_to_ndt

    ws = Workspace()
    rec = chain_ops.subset_recognizer(dt_to_ndt(desk("GradedSquare")))
    ws.add_recognizer("Subset", rec)
    text = serialize(ws)
    again = load_text(text)
    reparsed = again.recognizer("Subset")
    for t in enum_trees(rec.alphabet, 2):
        assert reparsed.degree(t) == rec.degree(t)
    assert serialize(again) == serialize(load_text(serialize(again)))


def test_construction_outputs_survive_round_trips():
    # tuple- and fraction-valued state names from every construction reload
    import random

    from lfta import chain as chain_ops, transforms
    from lfta.recognizers import dt_to_ndt

    from helpers import random_dt, random_ndt

    rng = random.Random(131)
    pool = enum_trees(fixtures.alphabet_pair(), 2)
    for n in range(6):
        base = random_ndt(rng, fixtures.chain4(), fixtures.alphabet_pair(), max_states=3)
        candidates = {
            "Norm": chain_ops.normalize(base),
            "Subset": chain_ops.subset_recognizer(base),
            "Closure": chain_ops.path_closure_recognizer(base),
            "Pair": transforms.parallel_product(base, base).recognizer,
        }
        for name, rec in candidates.items():
            ws = Workspace()
            ws.add_recognizer(name, rec)
            again = load_text(serialize(ws)).recognizer(name)
            for t in pool:
                assert again.degree(t) == rec.degree(t)


def _one_recognizer_text(rec):
    ws = Workspace()
    ws.add_recognizer("R", rec)
    return serialize(ws)


def test_printing_does_not_follow_memory_order():
    # rows kept in reverse repr order print as their repr-ordered twin does
    text = (
        "chain C4 { 0 < 1/4 < 1/2 < 1 }\n"
        "alphabet Pair { f/2 ; leaves x y }\n"
        "lndt N over C4 alphabet Pair { states a b c ; initial a c ;\n"
        "  trans f a -> b c ; trans f a -> a a ; trans f a -> c b ; trans f b -> c c ; trans f b -> b b ;\n"
        "  final x : b=1/2 c=1 ; final y : a=1/4 }\n"
    )
    ws = load_text(text)
    rec = ws.recognizer("N")
    backwards = {
        f: {a: tuple(sorted(row, key=repr, reverse=True)) for a, row in rows.items()}
        for f, rows in rec.algebra.transitions.items()
    }
    assert backwards["f"]["a"] == (("c", "b"), ("b", "c"), ("a", "a"))
    algebra = NdtAlgebra._built(rec.alphabet, rec.algebra.states, backwards)
    twin = Workspace()
    twin.add_lattice("C4", rec.lattice)
    twin.add_alphabet("Pair", rec.alphabet)
    twin.add_recognizer("N", LNdtRecognizer._built(rec.lattice, algebra, rec.initial, rec.weights))
    assert serialize(twin) == serialize(ws)
    assert load_text(serialize(load_text(serialize(twin)))) == load_text(serialize(twin)) == ws


def test_constructions_print_as_their_public_twins():
    # a level set and a normalized NDT keep construction order in memory, not repr order
    from lfta import chain as chain_ops, decide

    from test_transforms import public_twin

    rng = random.Random(17)
    moved = 0
    lattice, alph = fixtures.chain4(), fixtures.alphabet_pair()
    for n in range(6):
        built = [
            decide.level_set(random_dt(rng, lattice, alph, max_states=3), rng.choice(lattice.elements)),
            chain_ops.normalize(random_ndt(rng, lattice, alph, max_states=3, max_choices=3)),
        ]
        for rec in built:
            twin = public_twin(rec)
            moved += rec.algebra.transitions != twin.algebra.transitions
            assert _one_recognizer_text(rec) == _one_recognizer_text(twin)
    assert moved  # some output lists its choices out of repr order


def test_chain_block_variants():
    for text in ("chain C { 0 < d < 1 }", "chain C { 0<d<1 }"):
        ws = load_text(text)
        lat = ws.lattice("C")
        assert lat.elements == ("0", "d", "1")
        assert lat.leq("d", "1")


def test_parse_error_position():
    with pytest.raises(ParseError) as info:
        load_text("lattice L { elements 0 1 ; order 0<1 ")
    assert "line" not in str(info.value) or "unexpected end" in str(info.value)
    with pytest.raises(ParseError):
        load_text("widget W { }")


def test_duplicate_names_rejected():
    text = "chain C { 0 < 1 }\nchain C { 0 < 1 }"
    with pytest.raises(ValidationError):
        load_text(text)


_HEAD = "chain C { 0 < 1 }\nalphabet A { f/2 ; leaves x y }\n"
_BODY = "states q p ; initial q ; trans f q -> q q ; trans f p -> p p"


@pytest.mark.parametrize(
    "text, message",
    [
        ("alphabet A { f/2 f/1 ; leaves x y ; leaves z }", "repeated symbol 'f'"),
        ("alphabet A { f/2 ; leaves x ; g/1 f/2 }", "repeated symbol 'f'"),
        ("alphabet A { f/2 ; leaves x y ; leaves z }", "repeated clause 'leaves'"),
        ("lattice L { elements 0 1 ; order 0<1 ; elements 0 1 }", "repeated clause 'elements'"),
        ("lattice L { elements 0 1 ; order 0<1 ; order 0<1 }", "repeated clause 'order'"),
        (_HEAD + f"ldt R over C alphabet A {{ {_BODY} ; states q }}", "repeated clause 'states'"),
        (_HEAD + f"lndt R over C alphabet A {{ {_BODY} ; initial p }}", "repeated clause 'initial'"),
        (_HEAD + f"ldt R over C alphabet A {{ {_BODY} ; final x : q=1 ; final x : p=1 }}", "repeated clause 'final x'"),
        (_HEAD + f"dt R alphabet A {{ {_BODY} ; final y : q ; final y : }}", "repeated clause 'final y'"),
    ],
)
def test_repeated_clauses_are_rejected(text, message):
    with pytest.raises(ParseError) as info:
        load_text(text)
    assert str(info.value) == message


def test_arity_mismatch_rejected():
    text = (
        "chain C { 0 < 1 }\n"
        "alphabet A { f/2 ; leaves x }\n"
        "ldt R over C alphabet A { states q ; initial q ; trans f q -> q ; final x : q=1 }"
    )
    with pytest.raises(ValidationError):
        load_text(text)


def test_missing_transition_rejected():
    text = (
        "chain C { 0 < 1 }\n"
        "alphabet A { f/2 ; leaves x }\n"
        "ldt R over C alphabet A { states q p ; initial q ; trans f q -> q q ; final x : q=1 }"
    )
    with pytest.raises(ValidationError):
        load_text(text)


def test_unknown_reference_rejected():
    with pytest.raises(ValidationError):
        load_text("alphabet A { f/2 ; leaves x }\nldt R over Nope alphabet A { }")


def test_tree_block():
    text = (
        "alphabet A { f/2 ; leaves x y }\n"
        "tree t1 alphabet A { f(x,y) }"
    )
    ws = load_text(text)
    assert ws.tree("t1") == parse_tree("f(x,y)")


def test_hom_and_morphism_blocks():
    text = (
        "chain C { 0 < d < 1 }\n"
        "alphabet A { f/2 ; leaves x y }\n"
        "hom h from A to A { leaf x -> x ; leaf y -> y ; sym f -> f($2,$1) }\n"
        "morphism m from C to C { 0 -> 0 ; d -> 0 ; 1 -> 1 }"
    )
    ws = load_text(text)
    h = ws.hom("h")
    assert h(parse_tree("f(x,y)")) == parse_tree("f(y,x)")
    assert ws.morphism("m")("d") == "0"


def test_state_token_rendering():
    assert state_token("a0") == "a0"
    assert state_token(("arm", 0, "a")) == "(arm,0,a)"
    assert state_token(frozenset(["b", "a"])) == "[a,b]"
    assert state_token("weird name") == "weird_name"


def test_crisp_blocks():
    text = (
        "alphabet A { f/2 ; leaves x y }\n"
        "dt D alphabet A { states q p ; initial q ; trans f q -> p p ; trans f p -> p p ; final x : p ; final y : }\n"
        "ndt N alphabet A { states q ; initial q ; trans f q -> q q ; final x : q ; final y : q }"
    )
    ws = load_text(text)
    assert ws.recognizer("D").accepts(parse_tree("f(x,x)"))
    assert not ws.recognizer("D").accepts(parse_tree("f(x,y)"))
    assert ws.recognizer("N").accepts(parse_tree("f(y,x)"))


# separators, specials, the comment sign, whitespace that is not a separator, and word characters
_TOKEN_TEXTS = st.text(alphabet=st.sampled_from(list("{};:#\t \r\n\f\vab0_<=/.()")), max_size=80)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_TOKEN_TEXTS)
def test_tokenize_matches_the_character_reference(text):
    assert tokenize(text) == tokenize_by_characters(text)


def test_tokenize_matches_the_character_reference_on_the_goldens():
    for path in GOLDEN_DIR.glob("*.lfta"):
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        assert tokenize(text) == tokenize_by_characters(text)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_TOKEN_TEXTS)
def test_parser_words_are_the_tokens_without_positions(text):
    assert _Parser(text).words == [w for w, _, _ in tokenize(text)]


def test_parser_words_are_the_tokens_without_positions_on_the_goldens():
    for path in GOLDEN_DIR.glob("*.lfta"):
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        assert _Parser(text).words == [w for w, _, _ in tokenize(text)]


def test_tokenize_lexical_rules():
    # '#' ends a word it touches; form feed is not a separator; each of {};: stands alone
    assert tokenize("a#b c\nd;e\f:f") == [("a", 1, 1), ("d", 2, 1), (";", 2, 2), ("e\f", 2, 3), (":", 2, 5), ("f", 2, 6)]


def test_parse_error_carries_line_and_column_of_the_found_token():
    with pytest.raises(ParseError) as info:
        load_text("# header\nchain C { 0 < 1 }\n\thom h to A")
    assert (info.value.line, info.value.column) == (3, 8)
    assert str(info.value) == "expected 'from', found 'to' (line 3, column 8)"


@pytest.mark.parametrize("text, line, column", [("widget W { }", 1, 1), ("chain C { 0 < 1 }\n  widget", 2, 3)])
def test_unknown_block_kind_carries_the_position_of_its_keyword(text, line, column):
    with pytest.raises(ParseError) as info:
        load_text(text)
    assert (info.value.line, info.value.column) == (line, column)
    assert str(info.value) == f"unknown block kind 'widget' (line {line}, column {column})"


def test_load_errors_name_their_file(tmp_path):
    # homs.lfta refers to the alphabets of fixtures.lfta
    with pytest.raises(ValidationError) as info:
        load([HOMS])
    assert str(info.value) == f"{HOMS}: unknown alphabet 'Pair'"
    bad = tmp_path / "bad.lfta"
    bad.write_text("chain C { 0 < 1 }\n\thom h to A")
    with pytest.raises(ParseError) as info:
        load([GOLDENS, str(bad)])
    assert (info.value.line, info.value.column) == (2, 8)
    assert str(info.value) == f"{bad}: expected 'from', found 'to' (line 2, column 8)"


@pytest.mark.parametrize(
    "text, message",
    [("chain C { 0 < 1", "missing '}'"), ("chain C { 0 < 1 }\nchain D", "unexpected end of input")],
)
def test_parse_errors_at_the_end_carry_no_position(text, message):
    with pytest.raises(ParseError) as info:
        load_text(text)
    assert (info.value.line, info.value.column) == (None, None)
    assert str(info.value) == message


_EQ_BASE = """
chain C { 0 < d < 1 }
chain D { 0 < 1 < d }
alphabet A { f/2 ; leaves x y }
ldt R over C alphabet A { states q p ; initial q ; trans f q -> p p ; trans f p -> p p ; final x : p=d ; final y : p=1 }
hom h from A to A { leaf x -> x ; leaf y -> y ; sym f -> f($2,$1) }
morphism m from C to C { 0 -> 0 ; d -> 0 ; 1 -> 1 }
"""
# one more recognizer S, fuzzy or crisp, with the same states, moves and support
_S_BODY = "{ states q ; initial q ; trans f q -> q q ; final x : q%s ; final y : }"
_FUZZY_DT = "ldt S over C alphabet A " + _S_BODY % "=1"
_CRISP_DT = "dt S alphabet A " + _S_BODY % ""
_FUZZY_NDT = "lndt S over C alphabet A " + _S_BODY % "=1"
_CRISP_NDT = "ndt S alphabet A " + _S_BODY % ""


@pytest.mark.parametrize(
    "left, right",
    [
        (_EQ_BASE, _EQ_BASE.replace("final x : p=d", "final x : p=1")),  # a weight
        (_EQ_BASE, _EQ_BASE.replace("ldt R over C", "ldt R over D")),  # the lattice a recognizer is over
        (_EQ_BASE + _FUZZY_DT, _EQ_BASE + _CRISP_DT),  # crisp vs fuzzy kind
        (_EQ_BASE + _FUZZY_NDT, _EQ_BASE + _CRISP_NDT),
        (_EQ_BASE, _EQ_BASE.replace("leaf y -> y", "leaf y -> x")),  # a hom image
        (_EQ_BASE, _EQ_BASE.replace("d -> 0", "d -> d")),  # a morphism entry
    ],
)
def test_workspaces_differing_in_one_thing_are_unequal(left, right):
    assert load_text(left) == load_text(left)
    assert load_text(left) != load_text(right)
    assert load_text(right) != load_text(left)
