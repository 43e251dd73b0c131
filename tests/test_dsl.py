from __future__ import annotations

import random
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ologism.core import E, I, Aspect, SerializeError, TypeDecl, Ologism, structurally_equal, validate
from ologism.dsl import (
    ParseResult, _parse_tokens, _read_lines, _tokenize, parse_item, parse_model, parse_ologism, serialize,
)
from ologism.model import Model
from perfbench.docs import premiss_only, render_premiss_only
from .oracles import random_document, random_model, random_ologism, reference_tokens, spliced_item

DATA = Path(__file__).resolve().parents[1] / "src" / "ologism" / "data"


class TestParseOlogism:
    def test_animals_document(self, animals):
        assert animals.name == "animals"
        assert len(animals.types) == 4
        assert len(animals.premisses) == 5
        assert [a.source for a in animals.is_aspects()] == ["B", "M"]

    def test_aspect_is_sugar(self):
        a = parse_ologism('ologism "x" { type X "an x"\n type Y "a y"\n A X Y }').value
        b = parse_ologism('ologism "x" { type X "an x"\n type Y "a y"\n aspect is : X -> Y }').value
        assert structurally_equal(a, b)

    def test_fact_with_composite_side(self, has_mother):
        (fact,) = has_mother.facts
        assert fact.name == "has-mother"
        assert len(fact.lhs) == 1 and len(fact.rhs) == 2

    def test_diagnostics_carry_positions(self):
        result = parse_ologism('ologism "x" {\n  type X "an x"\n  E X Y\n}')
        assert result.value is None
        (diag,) = result.errors
        assert diag.code == "UnknownType"
        assert (diag.line, diag.column) == (3, 3)

    def test_non_parallel_fact_diagnostic(self):
        src = (
            'ologism "x" {\n  type X "an x"\n  type Y "a y"\n'
            "  aspect f : X -> Y\n  fact : f = id(X)\n}"
        )
        result = parse_ologism(src)
        assert any(d.code == "NonParallelFact" for d in result.errors)

    def test_duplicate_declarations_are_errors(self):
        src = 'ologism "x" { type X "an x"\n type X "an x"\n E X X\n E X X }'
        codes = {d.code for d in parse_ologism(src).errors}
        assert {"DuplicateType", "DuplicatePremiss"} <= codes

    def test_every_duplicate_kind_in_declaration_order(self):
        # E Y X repeats E X Y; "aspect is" repeats the A premiss.
        src = ('ologism "x" {\n  type X "an x"\n  type Y "a y"\n  type X "an x"\n'
               "  aspect f : X -> Y\n  aspect g : X -> Y\n  aspect f : X -> Y\n"
               "  E X Y\n  E Y X\n  A X Y\n  aspect is : X -> Y\n"
               "  fact : f = g\n  fact : f = g\n}")
        result = parse_ologism(src)
        assert result.value is None
        assert [(d.code, d.line, d.column) for d in result.diagnostics] == [
            ("DuplicateType", 4, 8),
            ("DuplicateAspect", 7, 10),
            ("DuplicatePremiss", 9, 3),
            ("DuplicatePremiss", 11, 3),
            ("DuplicateFact", 13, 3),
        ]

    def test_reserved_type_id(self):
        result = parse_ologism('ologism "x" { type is "an is" }')
        assert any(d.code == "ReservedIdentifier" for d in result.errors)

    def test_label_without_article_warns(self):
        result = parse_ologism('ologism "x" { type X "pure essence" }')
        assert result.ok is False or result.value is not None
        assert any(d.code == "LabelWithoutArticle" and d.severity == "warning"
                   for d in result.diagnostics)

    def test_comments_and_whitespace(self):
        src = 'ologism "x" {  # header\n\n  type X "an x"  # trailing\n}'
        assert parse_ologism(src).value is not None

    def test_shared_name_disambiguated_by_parallelism(self):
        src = (
            'ologism "x" {\n  type X "an x"\n  type Y "a y"\n'
            "  aspect f : X -> Y\n  aspect f : X -> X\n"
            "  aspect g : X -> Y\n  fact : f = g\n}"
        )
        result = parse_ologism(src)
        assert result.value is not None
        (fact,) = result.value.facts
        assert fact.lhs.target == "Y"

    def test_genuinely_ambiguous_fact(self):
        # f and h both fork, and both forks recombine: two parallel readings.
        src = (
            'ologism "x" {\n  type X "an x"\n  type Y "a y"\n  type Z "a z"\n'
            '  type W "a w"\n'
            "  aspect f : X -> Y\n  aspect f : X -> Z\n"
            "  aspect h : Y -> W\n  aspect h : Z -> W\n"
            "  aspect g : X -> W\n  fact : f ; h = g\n}"
        )
        result = parse_ologism(src)
        assert any(d.code == "AmbiguousAspect" for d in result.errors)

    def test_header_without_a_brace(self):
        result = parse_ologism('ologism "x" type X "an x" }')
        assert result.value is None
        assert [str(d) for d in result.diagnostics] == ["1:13: error: UnexpectedToken: expected '{', found 'type'"]

    def test_a_path_with_too_many_readings(self):
        # 64 aspects f, one between each ordered pair of 8 types: the first
        # f reads in 64 ways, as many as _CHAIN_CAP allows, and f ; f in 512.
        src = ('ologism "fan" {\n' + "".join(f'  type T{i} "a t{i}"\n' for i in range(8))
               + "".join(f"  aspect f : T{i} -> T{j}\n" for i in range(8) for j in range(8))
               + "  aspect g : T0 -> T0\n  fact : f ; f = g\n}\n")
        result = parse_ologism(src)
        assert result.value is None
        assert [str(d) for d in result.diagnostics] == [
            "75:14: error: AmbiguousAspect: path through 'f' resolves in too many ways; rename aspects"]

    def test_unterminated_string(self):
        result = parse_ologism('ologism "x { }')
        assert any(d.code == "UnterminatedString" for d in result.errors)

    @pytest.mark.parametrize("source, expected", [
        ('ologism "x" {\n  type X "an \\x"\n}', [("BadEscape", 2, 14)]),
        ('ologism "x" {\n  type X "an x\\\n}', [("BadEscape", 2, 15), ("UnterminatedString", 2, 10)]),
        ('ologism "x" {\n  type X "an x\\',
         [("BadEscape", 2, 15), ("UnterminatedString", 2, 10), ("UnexpectedToken", 2, 16)]),
        ('ologism "x" {\n  type X "an x\n}', [("UnterminatedString", 2, 10)]),
        ('ologism "x" {\n  type X "an x"\n  type Y "a y"\n  aspect f : X - Y\n}',
         [("UnexpectedCharacter", 4, 16), ("UnexpectedToken", 4, 18)]),
        # Each leading numeric is its own error; the identifier is "a".
        ('ologism "x" {\n  type ²9a "an a"\n}', [("UnexpectedCharacter", 2, 8), ("UnexpectedCharacter", 2, 9)]),
        # \t and \r are one column each, and \r does not start a line.
        ('ologism "x" {\n\ttype\rX "an x"\r\tE X @\n}',
         [("UnexpectedCharacter", 2, 21), ("UnexpectedToken", 3, 1)]),
        # End of input sits after the trailing comment.
        ('ologism "x" {\n  type X "an x"  # no closing brace', [("UnexpectedToken", 2, 36)]),
    ], ids=["bad-escape", "backslash-newline", "backslash-eof", "unterminated", "lone-dash",
            "leading-numeric", "tab-cr-columns", "eof-after-comment"])
    def test_lexer_diagnostics_pinned(self, source, expected):
        result = parse_ologism(source)
        assert result.value is None
        assert [(d.code, d.line, d.column) for d in result.diagnostics] == expected


class TestParseModel:
    def test_custodian_model(self, custodian_model):
        assert custodian_model.for_ologism == "custodian"
        assert custodian_model.carriers["C"] == frozenset({"C10", "C11", "C12", "C13"})
        assert custodian_model.maps["has"]["C12"] == "H12I3"

    def test_quoted_pair_elements(self, family_model):
        assert "(Susan,Juan)" in family_model.carriers["Pair"]

    def test_empty_set(self):
        result = parse_model('model "m" for "d" { set X = {} }')
        assert result.value is not None
        assert result.value.carriers["X"] == frozenset()

    def test_duplicate_set(self):
        result = parse_model('model "m" for "d" { set X = {a}\n set X = {b} }')
        assert any(d.code == "DuplicateSet" for d in result.errors)

    @pytest.mark.parametrize("source, said", [
        ('model for "d" {}', "1:7: error: UnexpectedToken: expected the model name, found 'for'"),
        ('model "m" for "d" set P = {a} }', "1:19: error: UnexpectedToken: expected '{', found 'set'"),
        ('model "m" "d" {}', "1:11: error: UnexpectedToken: expected the keyword 'for', found 'd'"),
        ('mode "m" for "d" {}', "1:1: error: UnexpectedToken: expected 'model', found 'mode'"),
    ], ids=["no-name", "no-brace", "no-for", "not-model"])
    def test_header_diagnostics(self, source, said):
        result = parse_model(source)
        assert result.value is None
        assert [str(d) for d in result.diagnostics] == [said]

    def test_bad_arrow(self):
        result = parse_model('model "m" for "d" { map f : a b }')
        assert result.value is None and result.errors

    @pytest.mark.parametrize("maps, expected", [
        ("map f : }", {"f": {}}),
        ("map f :\n  map g : set -> x }", {"f": {}, "g": {"set": "x"}}),
        ("map g : a -> b\n  map f : }", {"f": {}, "g": {"a": "b"}}),
    ])
    def test_empty_map(self, maps, expected):
        result = parse_model('model "m" for "d" {\n  set X = {}\n  ' + maps)
        assert result.diagnostics == []
        assert result.value.maps == expected

    def test_random_models_roundtrip(self):
        # A map out of an empty carrier is written "map f :" and reads back empty.
        rng = random.Random(5)
        empty = 0
        for _ in range(150):
            model = random_model(rng, random_document(rng))
            assert parse_model(serialize(model)).value == model, serialize(model)
            empty += any(not pairs for pairs in model.maps.values())
        assert empty > 0


class TestSerialize:
    def test_animals_roundtrip(self, animals):
        text = serialize(animals)
        again = parse_ologism(text).value
        assert structurally_equal(animals, again)
        assert serialize(again) == text

    def test_model_roundtrip(self, family_model):
        text = serialize(family_model)
        again = parse_model(text).value
        assert again == family_model
        assert serialize(again) == text

    def test_reserved_type_id_refused(self):
        bad = Ologism("x", (TypeDecl("is", "an is"),))
        with pytest.raises(SerializeError):
            serialize(bad)

    def test_non_identifier_refused(self):
        bad = Ologism("x", (TypeDecl("a b", "weird"),))
        with pytest.raises(SerializeError):
            serialize(bad)

    def test_escapes_in_labels(self):
        doc = Ologism.build("q", [TypeDecl("X", 'a "quoted" \\ thing')])
        again = parse_ologism(serialize(doc)).value
        assert again.label("X") == 'a "quoted" \\ thing'

    def test_premisses_keep_their_orientation(self):
        doc = Ologism.build("q", ["X", "Y"], premisses=[I("Y", "X"), E("X", "Y")])
        assert serialize(doc).splitlines()[3:5] == ["  E X Y", "  I Y X"]
        again = parse_ologism(serialize(doc)).value
        assert [str(q) for q in again.premisses] == ["E(X,Y)", "I(Y,X)"]

    def test_random_documents_roundtrip(self):
        rng = random.Random(42)
        for _ in range(150):
            doc = random_document(rng)
            text = serialize(doc)
            again = parse_ologism(text).value
            assert again is not None, text
            assert structurally_equal(doc, again), text
            assert serialize(again) == text


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(st.text(max_size=200))
def test_parser_never_raises_on_arbitrary_text(text):
    parse_ologism(text)
    parse_model(text)


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet='ologism"{}#->;:,()ABEIO xyz_\\\n\t\r"', max_size=120))
def test_parser_never_raises_on_near_miss_text(text):
    parse_ologism(text)
    parse_model(text)


# Texts of the words a model document is made of, so that near misses spell
# ``set`` and ``map`` items as well as break them.
_MODEL_SOUP = st.lists(st.sampled_from([
    "model", "for", "set", "map", "->", ",", "{", "}", "=", ":", '"', '"m"', '"a b"',
    "x", "y", "P", "é", " ", "\n", "\r", "\t", "#", "\\"]), max_size=40).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_MODEL_SOUP, _MODEL_SOUP.map(lambda items: 'model "m" for "d" {\n' + items)))
@example('model "m" for "d" {\n  map w : x -> y, x -> z\n  set P = {a b}\n}')
def test_model_parser_diagnostics_lie_inside_the_text(text):
    # Each at a character of the text, or just past its end, where the
    # lexer puts end of input; parse_model never raises.
    lines = text.split("\n")
    end = (len(lines), len(lines[-1]) + 1)
    for d in parse_model(text).diagnostics:
        assert (d.line, d.column) == end or (
            d.line <= len(lines) and 1 <= d.column <= len(lines[d.line - 1])), (str(d), text)


# Characters where the str predicates and the lexer's classes could part:
# non-ASCII letters, numerics that are \w but cannot start an identifier,
# and whitespace that is not a newline.
_LEXER_EDGES = 'é²½٣Δ\r\x0b\x0c\x85\u2028\u3000\t\n"\\#->{}:;=,()_9aZ '


@settings(max_examples=500, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(st.text(alphabet=st.one_of(st.sampled_from(_LEXER_EDGES), st.characters()), max_size=80))
@example('²9a ½ ٣x _1 é\r"a\\x\\"\\\\" \x0b\u3000- -> # c\n"open\\')
def test_lexer_matches_reference(text):
    assert _tokenize(text) == reference_tokens(text)


def test_lexer_matches_reference_on_whole_documents():
    # Many lines each: the line and column bookkeeping across newlines.
    texts = [path.read_text(encoding="utf-8") for path in sorted(DATA.glob("*.olgm*"))]
    assert len(texts) >= 8
    rng = random.Random(5)
    for _ in range(200):
        doc = random_document(rng)
        texts += [serialize(doc), serialize(random_model(rng, doc))]
    for text in texts:
        assert _tokenize(text) == reference_tokens(text)


def test_only_the_end_token_reads_as_end_of_input():
    # An empty string is a token with an empty value, not the end.
    trailing = parse_ologism('ologism "x" { } ""')
    assert [(d.line, d.column, d.message) for d in trailing.diagnostics] == [
        (1, 17, "expected end of input, found ''")]
    unclosed = parse_ologism('ologism "x" {')
    assert [(d.line, d.column, d.message) for d in unclosed.diagnostics] == [
        (1, 14, "expected '}', found 'end of input'")]


def test_trailing_input_is_an_error():
    two = 'ologism "x" { type X "an x" }\nologism "y" { type Y "a y" }'
    result = parse_ologism(two)
    assert result.value is None
    assert [(d.code, d.line, d.column, d.message) for d in result.diagnostics] == [
        ("UnexpectedToken", 2, 1, "expected end of input, found 'ologism'")]
    model = parse_model('model "m" for "d" { set X = {a} } }  # comment')
    assert model.value is None
    assert [(d.code, d.line, d.column) for d in model.diagnostics] == [("UnexpectedToken", 1, 35)]
    assert parse_ologism('ologism "x" { type X "an x" }  # done\n\n').ok


# --- REPL items ------------------------------------------------------------------
#
# ``parse_item`` parses one item against a document; ``spliced_item`` parses
# the document's serialization with the item spliced in.  They must agree on
# the document and on every diagnostic.


def assert_item_parity(doc: Ologism, item: str) -> None:
    got, want = parse_item(doc, item), spliced_item(doc, item)
    diagnostics = [(d.severity, d.code, d.message, d.line, d.column) for d in got.diagnostics]
    assert diagnostics == [(d.severity, d.code, d.message, d.line, d.column) for d in want.diagnostics]
    assert (got.value is None) == (want.value is None)
    if got.value is not None:
        assert structurally_equal(got.value, want.value)
        # Declaration order and written orientation too: outputs follow them.
        assert got.value == want.value
        assert [str(q) for q in got.value.premisses] == [str(q) for q in want.value.premisses]


def _held(rng: random.Random) -> Ologism:
    """A document as the REPL holds one: parsed, then perhaps retracted from,
    so that its declarations need not be in canonical order or orientation."""
    doc = parse_ologism(serialize(random_document(rng))).value
    premisses = [q.swapped() if q.form in "EI" and rng.random() < 0.5 else q for q in doc.premisses]
    rng.shuffle(premisses)
    doc = doc.replace_premisses(premisses)
    types = list(doc.types)
    rng.shuffle(types)
    return Ologism(doc.name, tuple(types), doc.aspects, doc.facts, doc.premisses)


def _items(doc: Ologism):
    """One to three declarations over ``doc``'s names and a few new ones,
    sometimes cut short: well formed, malformed, duplicated, and clashing
    with a held fact's path."""
    type_ids = st.sampled_from(doc.type_ids() + ("T9",))
    names = st.sampled_from(tuple(sorted({a.name for a in doc.aspects} | {"is", "g"})))
    paths = st.one_of(st.builds("id({})".format, type_ids),
                      st.lists(names, min_size=1, max_size=3).map(" ; ".join))
    declarations = [
        st.builds("type {} {}".format, type_ids, st.sampled_from(('"a new one"', '"new"', '""'))),
        st.builds("aspect {} : {} -> {}".format, names, type_ids, type_ids),
        st.builds("{} {} {}".format, st.sampled_from("AEIO"), type_ids, type_ids),
        st.builds("fact {}: {} = {}".format, st.sampled_from(('', '"law0" ', '"" ')), paths, paths),
        st.text(alphabet='ologism"{}#->;:,()AEIO T0f1_\\', max_size=12),
    ]
    # A second start for both sides of a held fact gives its paths a second
    # parallel reading.
    clashes = [
        f"aspect {f.lhs.arcs[0].name} : {{0}} -> {f.lhs.arcs[0].target} "
        f"aspect {f.rhs.arcs[0].name} : {{0}} -> {f.rhs.arcs[0].target}"
        for f in doc.facts if f.lhs.arcs and f.rhs.arcs
    ]
    if clashes:
        declarations.append(st.builds(str.format, st.sampled_from(clashes), type_ids))
    return st.builds(
        lambda parts, cut: " ".join(parts)[:cut],
        st.lists(st.one_of(declarations), min_size=1, max_size=3),
        st.one_of(st.none(), st.none(), st.integers(0, 40)),
    )


def _extends_last_fact(doc: Ologism, item: str) -> bool:
    """Whether the spliced text reads ``item`` as more of ``doc``'s last fact,
    which ``serialize`` writes last: a ';' goes on with a path of aspects.
    The spliced re-parse rewrote that fact; an item is read on its own."""
    facts = doc.sorted().facts
    return bool(facts and facts[-1].rhs.arcs) and _tokenize(item)[0][0].kind == "SEMI"


@settings(max_examples=400, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(st.integers(0, 10**6), st.data())
def test_item_parse_matches_the_spliced_reparse(seed, data):
    doc = _held(random.Random(seed))
    item = data.draw(_items(doc), label="item")
    if _extends_last_fact(doc, item):
        assert parse_item(doc, item).value is None
    else:
        assert_item_parity(doc, item)


def test_a_leading_semicolon_does_not_extend_the_last_fact():
    doc = parse_ologism(
        'ologism "semi" {\n  type X "an x"\n  type Y "a y"\n  type Z "a z"\n'
        "  aspect f : X -> Y\n  aspect g : Y -> Z\n  aspect h : X -> Z\n  aspect k : Z -> Z\n"
        "  fact : f ; g = h\n}\n"
    ).value
    assert _extends_last_fact(doc, "; k")
    assert str(spliced_item(doc, "; k").value.facts[0]) == "f ; g = h ; k"
    assert [str(d) for d in parse_item(doc, "; k").diagnostics] == [
        "1:1: error: UnexpectedToken: expected a declaration keyword, found ';'"]


_IS_FACT = """ologism "clash" {
  type X "an x"
  type Y "a y"
  type Z "a z"
  aspect f : X -> Y
  aspect g : Y -> Z
  aspect h : X -> Z
  aspect k : Z -> X
  A X Y
  fact "law" : is = f
  fact : f ; g = h
}
"""


@pytest.mark.parametrize("item", [
    "O V B }",
    "E X Y",
    "E B",
    'type Z "a zebra" A Z V E Z B',
    "A B V",
    'type B "a bird"',
    "A A B",
    "fact : is = is",
])
def test_items_against_animals(animals, item):
    assert_item_parity(animals, item)


@pytest.mark.parametrize("item", [
    # A second is-aspect and a second f make the first fact ambiguous.
    "A Z Y aspect f : Z -> Y",
    # A second g and h make the second fact's path resolve two ways.
    "aspect g : Y -> X aspect h : X -> X",
    "aspect f : X -> Y",  # a duplicate aspect
    "A X Y",  # a duplicate premiss, and its is-aspect
    'fact "law" : f = is',
    "fact : f ; g = h",  # a duplicate fact
    "aspect k : X -> Z fact : k = h",
])
def test_items_against_held_facts(item):
    assert_item_parity(parse_ologism(_IS_FACT).value, item)


def test_an_empty_fact_label_is_no_label():
    src = 'ologism "x" {\n  type X "an x"\n  aspect f : X -> X\n  fact "" : f = id(X)\n%s}'
    assert parse_ologism(src % "").value.facts[0].name is None
    twice = parse_ologism(src % "  fact : f = id(X)\n")
    assert [(d.code, d.line) for d in twice.errors] == [("DuplicateFact", 5)]


def test_an_item_reports_positions_in_itself(animals):
    result = parse_item(animals, "O V B }")
    assert [str(d) for d in result.diagnostics] == [
        "1:8: error: UnexpectedToken: expected end of input, found '}'"]
    clash = parse_item(parse_ologism(_IS_FACT).value, "A Z Y aspect f : Z -> Y")
    assert [(d.code, d.line, d.column) for d in clash.diagnostics] == [("AmbiguousAspect", 1, 1)]
    added = parse_item(animals, "A Z V type Z \"a zebra\"").value
    assert ("is", "Z", "V") in {(a.name, a.source, a.target) for a in added.aspects}


# --- parsed documents are built ------------------------------------------------
#
# The parser pairs every A premiss with its is-aspect as it reads them, so what
# it returns is already what ``Ologism.build`` would make of it.


def assert_built(doc: Ologism) -> None:
    built = Ologism.build(doc.name, doc.types, doc.aspects, doc.facts, doc.premisses)
    for field in ("name", "types", "aspects", "facts"):
        assert getattr(built, field) == getattr(doc, field), field
    # Premiss equality ignores the orientation of E and I; the order and the
    # written orientation must match too.
    assert [str(q) for q in built.premisses] == [str(q) for q in doc.premisses]
    assert [d.code for d in validate(doc) if d.code.startswith("Orphan")] == []


# One item of each kind, valid against any random document (all have a T0).
_ITEM_KINDS = [
    'type Z "a z"',
    "aspect g : T0 -> T0",
    'type Z "a z" aspect is : Z -> T0',
    'type Z "a z" A T0 Z',
    'type Z "a z" E Z T0',
    'type Z "a z" I T0 Z',
    'type Z "a z" O Z T0',
    'aspect g : T0 -> T0 fact "new" : g = id(T0)',
]


def test_parsed_documents_need_no_build():
    rng = random.Random(5)
    docs = [random_document(rng) for _ in range(300)] + [random_ologism(rng) for _ in range(300)]
    for doc in docs:
        parsed = parse_ologism(serialize(doc)).value
        assert_built(parsed)
        for item in _ITEM_KINDS:
            added = parse_item(parsed, item).value
            assert added is not None, item
            assert_built(added)


# --- the line reader ---------------------------------------------------------------
#
# parse_ologism keeps the document _read_lines reads from one declaration per
# line when validate finds nothing wrong with it, and reads any other with the
# token parser.  Wherever the reader's document stands, it must be the token
# parser's.


def _reader_agrees(source: str) -> bool:
    """Whether the reader's document for ``source`` stands; where it does,
    it is the token parser's, with no diagnostics and each premiss written
    the same way round."""
    doc = _read_lines(source)
    if doc is None or validate(doc):
        return False
    read, want = ParseResult(doc), _parse_tokens(source)
    assert read == want, source
    assert [str(q) for q in read.value.premisses] == [str(q) for q in want.value.premisses]
    return True


def _fact_free(rng: random.Random) -> str:
    """A fact-free document from one of the generators, serialized."""
    kind = rng.randrange(3)
    if kind == 0:
        return serialize(replace(random_document(rng), facts=()))
    if kind == 1:
        return serialize(random_ologism(rng))
    n = rng.randint(40, 160)
    return render_premiss_only(f"doc-{n}", *premiss_only(rng, n))


def _bundled() -> list[str]:
    return [path.read_text(encoding="utf-8") for path in sorted(DATA.glob("*.olgm"))]


_DECLARATION_LINE = re.compile(r"^[ \t]*(?:type|aspect|[AEIO])[ \t].*$", re.MULTILINE)
_A_PREMISS = re.compile(r"^[ \t]*A[ \t]+(\w+)[ \t]+(\w+)", re.MULTILINE)
_TYPE_ID = re.compile(r"^[ \t]*type[ \t]+(\w+)", re.MULTILINE)
_SYMMETRIC = re.compile(r"^[ \t]*([EI])[ \t]+(\w+)[ \t]+(\w+)", re.MULTILINE)


def _at_a_line(rng: random.Random, text: str, pattern: re.Pattern, edit) -> str:
    """``text`` with one match of ``pattern``, if there is any, replaced by
    ``edit(match)``."""
    found = list(pattern.finditer(text))
    if not found:
        return text
    m = rng.choice(found)
    return text[:m.start()] + edit(m) + text[m.end():]


def _duplicate_line(rng, text):
    return _at_a_line(rng, text, _DECLARATION_LINE, lambda m: f"{m[0]}\n{m[0]}")


def _reversed_duplicate(rng, text):
    return _at_a_line(rng, text, _SYMMETRIC, lambda m: f"{m[0]}\n  {m[1]} {m[3]} {m[2]}")


def _drop_type(rng, text):
    lines = text.split("\n")
    typed = [k for k, line in enumerate(lines) if line.lstrip().startswith("type ")]
    if typed:
        del lines[rng.choice(typed)]
    return "\n".join(lines)


def _type_named_is(rng, text):
    return _at_a_line(rng, text, re.compile(r"type[ \t]+\w+", re.MULTILINE), lambda m: "type is")


def _premiss_as_is_aspect(rng, text):
    return _at_a_line(rng, text, _A_PREMISS, lambda m: f"  aspect is : {m[1]} -> {m[2]}")


def _rename_type(rng, text):
    """One type renamed everywhere to a name the lexer reads otherwise."""
    found = _TYPE_ID.findall(text)
    if not found:
        return text
    old = rng.choice(found)
    new = rng.choice([f"{old}é", f"Δ{old}", f"9{old}", f"²{old}", "is"])
    return re.sub(rf"\b{old}\b", new, text)


def _strip_article(rng, text):
    return _at_a_line(rng, text, re.compile(r'"an? '), lambda m: '"')


def _insert(rng, text):
    piece = rng.choice(["\r", "\t", "é", "Δ", "9", '\\"', "\\\\", "\\x", "\x0b", "\u3000", "#", '"'])
    k = rng.randrange(len(text) + 1)
    return text[:k] + piece + text[k:]


def _split_item(rng, text):
    # The line broken after its keyword.
    return _at_a_line(rng, text, _DECLARATION_LINE, lambda m: re.sub(r"(\S)[ \t]+", "\\1\n  ", m[0], count=1))


def _unclose(rng, text):
    k = text.rfind("}")
    return text[:k] + text[k + 1:]


def _join_lines(rng, text):
    """Two lines made one: two items, or an item beside a brace."""
    breaks = [m.start() for m in re.finditer("\n", text.rstrip("\n"))]
    if not breaks:
        return text
    k = rng.choice(breaks)
    return text[:k] + " " + text[k + 1:]


def _trailing_text(rng, text):
    end = text.rstrip("\n") if rng.randrange(2) else text  # on the brace's line or after it
    return end + rng.choice([" x", " }", ' ologism "y" { }', " # the end", "\n  \t\n", " \x0c"])


_MUTATIONS = [_duplicate_line, _reversed_duplicate, _drop_type, _type_named_is, _premiss_as_is_aspect,
              _rename_type, _strip_article, _insert, _split_item, _join_lines, _unclose, _trailing_text]


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(st.integers(0, 10**6), st.lists(st.sampled_from(_MUTATIONS), max_size=2))
def test_the_reader_agrees_with_the_token_parser(seed, mutations):
    rng = random.Random(seed)
    text = _fact_free(rng) if rng.randrange(4) else rng.choice(_bundled())
    for mutate in mutations:
        text = mutate(rng, text)
    _reader_agrees(text)


# The lexer's edge characters, and pieces of the declarations the reader reads.
_READER_EDGES = st.one_of(
    st.sampled_from(_LEXER_EDGES),
    st.sampled_from(["type ", "aspect ", "A ", "E ", "I ", "O ", "is", "T0", "T1", '"a ', '"an ',
                     " : ", " -> ", "fact ", "ologism ", "\n  "]),
)


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(st.lists(_READER_EDGES, max_size=30).map("".join), st.integers(0, 10**6))
@example('type T1 "a t"', 0)
@example('A T0 T1\n  type T1 "a t" # c', 0)
def test_the_reader_agrees_on_fuzzed_lines(fuzz, seed):
    rng = random.Random(seed)
    lines = serialize(random_ologism(rng)).split("\n")
    k = rng.randint(1, len(lines) - 2)
    _reader_agrees("\n".join(lines[:k] + [fuzz] + lines[k:]))
    _reader_agrees(f'ologism "x" {{\n{fuzz}\n}}\n')
    _reader_agrees(fuzz)


def test_the_reader_takes_every_fact_free_serialization():
    rng = random.Random(11)
    for _ in range(300):
        text = _fact_free(rng)
        assert _reader_agrees(text), text
    for text in _bundled():
        assert _reader_agrees(text) == ("fact " not in text)


def test_the_reader_takes_every_closure_large_document(tmp_path):
    from perfbench.workloads import ClosureLarge
    texts = ClosureLarge(tmp_path, tmp_path, 7919).files.values()
    assert len(texts) == 120
    for text in texts:
        assert _reader_agrees(text)


# The line reader's boundary, pinned from both sides: documents it reads, and
# one it leaves to the token parser for each way of falling outside it.
_READ = {
    "tabs-comments-blanks": '# lead\n\nologism "x" {\t# head\n\ttype X "an x"\t# x\n\n\tE X X\n}  # end\n \t\n',
    "tight-punctuation": 'ologism"x"{\n  type X"an x"\n  type Y "a y"\n  aspect f:X->Y\n  A X Y#c\n}',
    "keywords-as-ids": 'ologism "" {\n  type A "a a"\n  type type "a type"\n  aspect fact : A -> type\n  A A type\n}\n',
    "empty": 'ologism "x" {\n}\n',
}
_DECLINED = {
    "item-on-header-line": 'ologism "x" { type X "an x"\n}\n',
    "brace-on-item-line": 'ologism "x" {\n  type X "an x" }\n',
    "text-after-brace": 'ologism "x" {\n  type X "an x"\n} x\n',
    "comment-line-after-brace": 'ologism "x" {\n  type X "an x"\n}\n# done\n',
    "split-item": 'ologism "x" {\n  type X\n    "an x"\n}\n',
    "crlf": 'ologism "x" {\r\n  type X "an x"\r\n}\r\n',
    "form-feed": 'ologism "x" {\n\x0ctype X "an x"\n}\n',
    "cr-indent": 'ologism "x" {\n\rtype X "an x"\n}\n',
    "non-ascii-id": 'ologism "x" {\n  type é "an é"\n}\n',
    "escape": 'ologism "x" {\n  type X "an \\"x\\""\n}\n',
    "fact": 'ologism "x" {\n  type X "an x"\n  aspect f : X -> X\n  fact : f = id(X)\n}\n',
    "aspect-is": 'ologism "x" {\n  type X "an x"\n  type Y "a y"\n  aspect is : X -> Y\n}\n',
    "type-is": 'ologism "x" {\n  type is "an is"\n}\n',
    "no-article": 'ologism "x" {\n  type X "x"\n}\n',
    "undeclared": 'ologism "x" {\n  type X "an x"\n  E X Y\n}\n',
    "duplicate-type": 'ologism "x" {\n  type X "an x"\n  type X "an x"\n}\n',
    "duplicate-premiss": 'ologism "x" {\n  type X "an x"\n  type Y "a y"\n  E X Y\n  E Y X\n}\n',
    "duplicate-aspect": 'ologism "x" {\n  type X "an x"\n  aspect f : X -> X\n  aspect f : X -> X\n}\n',
    "premiss-and-aspect-is": 'ologism "x" {\n  type X "an x"\n  type Y "a y"\n  A X Y\n  aspect is : X -> Y\n}\n',
    "premiss-and-reversed-aspect-is":
        'ologism "x" {\n  type X "an x"\n  type Y "a y"\n  A X Y\n  aspect is : Y -> X\n}\n',
}


@pytest.mark.parametrize("text", _READ.values(), ids=_READ.keys())
def test_the_reader_reads(text):
    assert _reader_agrees(text)


@pytest.mark.parametrize("text", _DECLINED.values(), ids=_DECLINED.keys())
def test_the_reader_leaves_the_rest_to_the_token_parser(text):
    assert not _reader_agrees(text)
    assert parse_ologism(text) == _parse_tokens(text)


_HEAD = 'ologism "x" {\n  type T0 "a t"\n'


@pytest.mark.parametrize("line", [
    " " * 10**5 + "x",
    " \t" * 50_000 + "# \r",
    "type T0" + " " * 10**5 + "x",
    'type T1 "a ' + "b" * 10**5,
    "A T0" + " \t" * 50_000 + "T0" + " " * 10**5 + "9",
    "A " + "T" * 10**5 + "é",
    "aspect f :" + " " * 10**5 + "T0 - T0",
    "aspect f : T0 ->" + " " * 10**5 + "T0 " * 30_000 + "x",
    "#" * 10**5 + "\r",
], ids=["blanks", "mixed-blanks-cr", "type-blanks", "unclosed-label", "premiss-blanks",
        "long-id-non-ascii", "aspect-blanks", "aspect-run-on", "long-comment-cr"])
def test_long_near_misses_parse_as_the_token_parser(line):
    text = f"{_HEAD}  {line}\n}}\n"
    assert len(text) >= 10**5
    assert not _reader_agrees(text)
    assert parse_ologism(text) == _parse_tokens(text)


def test_a_long_document_read_to_its_last_line():
    text = render_premiss_only("long", *premiss_only(random.Random(3), 3000))
    assert len(text) >= 10**5
    assert _reader_agrees(text)
    near = text.replace("\n}", "\n  A T0 T0 x\n}")
    assert not _reader_agrees(near)
    assert parse_ologism(near) == _parse_tokens(near)


class TestEdges:
    """Behaviour the rest of the suite does not reach, pinned as it is."""

    def test_a_header_without_a_name(self):
        result = parse_ologism("ologism {\n}\n")
        assert result.value is None
        assert [str(d) for d in result.diagnostics] == [
            "1:9: error: UnexpectedToken: expected the document name, found '{'"]

    def test_an_identity_path_without_its_type(self):
        result = parse_ologism('ologism "x" {\n  type X "an x"\n  aspect f : X -> X\n  fact : id() = f\n}\n')
        assert result.value is None
        assert [str(d) for d in result.diagnostics] == ["4:13: error: UnexpectedToken: expected a type id, found ')'"]

    @pytest.mark.parametrize("value, said", [
        (3, "cannot serialize int"),
        (Ologism("d", (TypeDecl("X", "an x"),), (Aspect("bad name", "X", "X"),)),
         "aspect name 'bad name' is not a valid identifier"),
        (Model("m", {"9a": frozenset()}), "type id '9a' is not a valid identifier"),
        (Model("m", {}, {"bad name": {}}), "aspect name 'bad name' is not a valid identifier"),
    ], ids=["not-a-document", "aspect", "model-set", "model-map"])
    def test_what_cannot_be_written_is_refused(self, value, said):
        with pytest.raises(SerializeError, match=re.escape(said)):
            serialize(value)
