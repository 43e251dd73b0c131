from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ologism.core import SerializeError, TypeDecl, Ologism, structurally_equal
from ologism.dsl import _tokenize, parse_item, parse_model, parse_ologism, serialize
from .oracles import random_document, reference_tokens, spliced_item


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

    def test_bad_arrow(self):
        result = parse_model('model "m" for "d" { map f : a b }')
        assert result.value is None and result.errors


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


# Characters where the str predicates and the lexer's classes could part:
# non-ASCII letters, numerics that are \w but cannot start an identifier,
# and whitespace that is not a newline.
_LEXER_EDGES = 'é²½٣Δ\r\x0b\x0c\x85\u2028\u3000\t\n"\\#->{}:;=,()_9aZ '


@settings(max_examples=500, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(st.text(alphabet=st.one_of(st.sampled_from(_LEXER_EDGES), st.characters()), max_size=80))
@example('²9a ½ ٣x _1 é\r"a\\x\\"\\\\" \x0b\u3000- -> # c\n"open\\')
def test_lexer_matches_reference(text):
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
