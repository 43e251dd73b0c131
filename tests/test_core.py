from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from ologism.core import (
    A,
    Aspect,
    CompositionError,
    E,
    Fact,
    I,
    O,
    Ologism,
    PathWord,
    TypeDecl,
    compose,
    empty_path,
    proposition,
    reading,
    structurally_equal,
    validate,
)
from ologism.core import IS, _diagnose
from .oracles import _holds, random_document, random_ologism

f = Aspect("f", "X", "Y")
g = Aspect("g", "Y", "Z")
h = Aspect("h", "Z", "X")


class TestPaths:
    def test_compose_concatenates(self):
        p = compose(PathWord("X", "Y", (f,)), PathWord("Y", "Z", (g,)))
        assert p == PathWord("X", "Z", (f, g))

    def test_unit_laws(self):
        p = PathWord("X", "Z", (f, g))
        assert compose(empty_path("X"), p) == p
        assert compose(p, empty_path("Z")) == p

    def test_endpoint_mismatch(self):
        with pytest.raises(CompositionError):
            compose(PathWord("X", "Y", (f,)), PathWord("Z", "X", (h,)))

    def test_associative_exhaustively(self):
        # Every composable triple of short words over the 3-cycle X->Y->Z->X.
        arcs = (f, g, h)
        words = [empty_path(t) for t in "XYZ"]
        for n in (1, 2, 3):
            for combo in itertools.product(arcs, repeat=n):
                try:
                    words.append(PathWord(combo[0].source, combo[-1].target, combo))
                except ValueError:
                    pass
        for p, q, r in itertools.product(words, repeat=3):
            if p.target == q.source and q.target == r.source:
                assert compose(compose(p, q), r) == compose(p, compose(q, r))

    def test_broken_chain_rejected(self):
        with pytest.raises(CompositionError):
            PathWord("X", "X", (f, h))

    def test_empty_path_needs_equal_endpoints(self):
        with pytest.raises(ValueError):
            PathWord("X", "Y", ())


ids = st.sampled_from(["P", "Q", "R", "S"])
props = st.builds(proposition, st.sampled_from("AEIO"), ids, ids)


class TestCanonicalization:
    @given(props)
    def test_idempotent(self, p):
        assert p.canonical().canonical() == p.canonical()

    @given(st.sampled_from("EI"), ids, ids)
    def test_symmetric_forms_unordered(self, form, x, y):
        assert proposition(form, x, y) == proposition(form, y, x)
        assert proposition(form, x, y).canonical() == proposition(form, y, x).canonical()

    @given(st.sampled_from("AO"), ids, ids)
    def test_asymmetric_forms_ordered(self, form, x, y):
        if x != y:
            assert proposition(form, x, y) != proposition(form, y, x)

    def test_bad_form(self):
        with pytest.raises(ValueError):
            proposition("B", "X", "Y")


class TestContradictory:
    @given(props)
    def test_involution_on_the_same_terms(self, p):
        q = p.contradictory()
        assert q.contradictory() == p
        assert q.terms == p.terms and q.form != p.form

    @pytest.mark.parametrize("form", "AEIO")
    def test_opposite_truth_on_every_pair_of_carriers(self, form):
        q = proposition(form, "S", "P").contradictory()
        for s, t in itertools.product(range(1 << 3), repeat=2):  # subsets of a 3-element universe
            assert _holds(form, s, t) != _holds(q.form, s, t)


class TestReading(object):
    def test_universal_negative(self, animals):
        assert reading(E("B", "M"), animals) == "Every bird is not a mammal"

    def test_particular_affirmative(self, mother_ologism):
        assert reading(I("P", "W"), mother_ologism) == "Some person is a woman"

    def test_particular_negative(self):
        doc = Ologism.build(
            "donkeys",
            [TypeDecl("D", "a donkey"), TypeDecl("A", "an animal that is able to fly")],
            premisses=[O("D", "A")],
        )
        assert reading(O("D", "A"), doc) == "Some donkey is not an animal that is able to fly"

    def test_universal_affirmative(self, animals):
        assert reading(A("B", "V"), animals) == "Every bird is a vertebrate"

    def test_a_label_without_an_article_is_read_whole(self):
        doc = Ologism.build("d", [TypeDecl("X", "pure essence"), TypeDecl("Y", "a y")], premisses=[A("X", "Y")])
        assert reading(A("X", "Y"), doc) == "Every pure essence is a y"

    def test_unknown_type_raises(self, animals):
        with pytest.raises(LookupError):
            reading(A("B", "ZZ"), animals)

    def test_label_lookup_leaves_the_value_alone(self):
        types = [TypeDecl("D", "a donkey"), TypeDecl("D", "a mule"), TypeDecl("A", "an ass")]
        looked_up, fresh = Ologism.build("d", types), Ologism.build("d", types)
        assert (looked_up.label("D"), looked_up.label("A")) == ("a donkey", "an ass")
        with pytest.raises(KeyError):
            looked_up.label("ZZ")
        assert looked_up == fresh and hash(looked_up) == hash(fresh)
        assert repr(looked_up) == repr(fresh)


class TestValidate:
    def test_clean_document(self, animals):
        assert validate(animals) == []

    def test_deterministic(self, animals):
        assert validate(animals) == validate(animals)

    def test_checks_a_document_once(self, monkeypatch):
        from ologism import core
        calls = []
        monkeypatch.setattr(core, "_diagnose", lambda doc: calls.append(doc) or [])
        doc = Ologism("bad", (TypeDecl("X", "an x"),), premisses=(E("X", "Y"),))
        first = validate(doc)
        first.append("scribbled on by a caller")
        assert validate(doc) == [] and calls == [doc]
        assert validate(Ologism("bad", (TypeDecl("X", "an x"),), premisses=(E("X", "Y"),))) == []
        assert len(calls) == 2  # an equal document is another instance

    def test_non_parallel_fact(self):
        doc = Ologism.build(
            "bad",
            ["X", "Y"],
            aspects=[f],
            facts=[Fact(PathWord("X", "Y", (f,)), empty_path("X"))],
        )
        assert "NonParallelFact" in [d.code for d in validate(doc)]

    def test_orphan_universal_affirmative(self):
        doc = Ologism("bad", (TypeDecl("X", "an x"), TypeDecl("Y", "a y")),
                      premisses=(A("X", "Y"),))
        assert "OrphanUniversalAffirmative" in [d.code for d in validate(doc)]

    def test_orphan_is_aspect(self):
        doc = Ologism("bad", (TypeDecl("X", "an x"), TypeDecl("Y", "a y")),
                      aspects=(Aspect("is", "X", "Y"),))
        assert "OrphanIsAspect" in [d.code for d in validate(doc)]

    def test_undeclared_premiss_type(self):
        doc = Ologism("bad", (TypeDecl("X", "an x"),), premisses=(E("X", "Y"),))
        assert "UnknownPremissType" in [d.code for d in validate(doc)]

    def test_duplicates(self):
        doc = Ologism(
            "bad",
            (TypeDecl("X", "an x"), TypeDecl("X", "another x")),
            aspects=(f, f),
            premisses=(E("X", "X"), E("X", "X")),
        )
        codes = [d.code for d in validate(doc)]
        assert "DuplicateType" in codes
        assert "DuplicateAspect" in codes
        assert "DuplicatePremiss" in codes

    def test_a_premiss_turned_round_is_a_duplicate_for_e_and_i_only(self):
        # E and I are symmetric, so E X Y and E Y X state one premiss twice;
        # A X Y and A Y X (likewise O) state two.
        types = (TypeDecl("X", "an x"), TypeDecl("Y", "a y"))
        for form in "EI":
            doc = Ologism("turned", types, premisses=(proposition(form, "X", "Y"), proposition(form, "Y", "X")))
            assert [str(d) for d in validate(doc)] == [f"DuplicatePremiss: premiss {form}(Y,X) declared twice"]
        assert validate(Ologism.build("two", ["X", "Y"], premisses=[A("X", "Y"), A("Y", "X")])) == []
        assert validate(Ologism.build("two", ["X", "Y"], premisses=[O("X", "Y"), O("Y", "X")])) == []

    def test_every_check_family_in_order(self):
        # One document that trips every check: the families come in the
        # order types, aspects, facts, premisses, orphan is-aspects, and
        # each family in declaration order (orphan is-aspects sorted).
        h_xz = Aspect("h", "X", "Z")
        doc = Ologism(
            "every",
            (TypeDecl("X", "an x"), TypeDecl("X", "another x"), TypeDecl("", "a blank"),
             TypeDecl("Y", ""), TypeDecl("is", "an is")),
            aspects=(f, f, Aspect("g", "Y", "W"), Aspect("is", "Y", "X"), Aspect("is", "Q", "R")),
            facts=(Fact(PathWord("X", "Y", (f,)), empty_path("X")),
                   Fact(PathWord("X", "Z", (h_xz,)), PathWord("X", "Z", (h_xz,)), "hh")),
            premisses=(E("X", "Z"), I("X", "Y"), I("Y", "X"), A("X", "Y"), A("X", "Y"), O("Y", "X")),
        )
        assert [str(d) for d in validate(doc)] == [
            "DuplicateType: type 'X' declared twice",
            "EmptyTypeId: type with empty id",
            "EmptyTypeLabel: type 'Y' has an empty label",
            "ReservedIdentifier: type id 'is' is reserved",
            "DuplicateAspect: aspect f: X -> Y declared twice",
            "UnknownAspectEndpoint: aspect g: Y -> W uses undeclared type 'W'",
            "UnknownAspectEndpoint: aspect is: Q -> R uses undeclared type 'Q'",
            "UnknownAspectEndpoint: aspect is: Q -> R uses undeclared type 'R'",
            "NonParallelFact: fact f = id(X) equates X->Y with X->X",
            'FactAspectUndeclared: fact "hh": h = h uses undeclared aspect h: X -> Z',
            'FactAspectUndeclared: fact "hh": h = h uses undeclared aspect h: X -> Z',
            "UnknownPremissType: premiss E(X,Z) uses undeclared type 'Z'",
            "DuplicatePremiss: premiss I(Y,X) declared twice",
            "OrphanUniversalAffirmative: premiss A(X,Y) has no matching 'is' aspect X -> Y",
            "DuplicatePremiss: premiss A(X,Y) declared twice",
            "OrphanUniversalAffirmative: premiss A(X,Y) has no matching 'is' aspect X -> Y",
            "OrphanIsAspect: aspect is: Q -> R has no matching A premiss",
            "OrphanIsAspect: aspect is: Y -> X has no matching A premiss",
        ]

    def test_build_completes_bijection(self):
        doc = Ologism.build("ok", ["X", "Y"], premisses=[A("X", "Y")])
        assert validate(doc) == []
        assert doc.is_aspects() == (Aspect("is", "X", "Y"),)

    def test_build_completes_each_side_once(self):
        # A premiss whose ``is`` aspect is given, and an aspect whose premiss
        # is given, gain nothing; E Y X and E X Y are one premiss to validate.
        doc = Ologism.build("ok", ["X", "Y", "Z"], aspects=[Aspect("is", "X", "Y"), Aspect("is", "Y", "Z")],
                            premisses=[A("X", "Y"), E("Y", "X"), A("Z", "X")])
        assert doc.aspects == (Aspect("is", "X", "Y"), Aspect("is", "Y", "Z"), Aspect("is", "Z", "X"))
        assert doc.premisses == (A("X", "Y"), E("Y", "X"), A("Z", "X"), A("Y", "Z"))
        assert validate(doc) == []
        twice = Ologism.build("twice", ["X", "Y"], premisses=[E("X", "Y"), E("Y", "X")])
        assert [d.code for d in validate(twice)] == ["DuplicatePremiss"]

    def test_structural_equality_ignores_order(self, animals):
        shuffled = Ologism(
            animals.name,
            tuple(reversed(animals.types)),
            tuple(reversed(animals.aspects)),
            animals.facts,
            tuple(reversed(animals.premisses)),
        )
        assert structurally_equal(animals, shuffled)


def _retract_documents() -> list[Ologism]:
    """Random documents with aspects and facts, random is-only documents,
    and copies of the first with a fact that reads the ``is`` arrow of an A
    premiss, all of which pass ``validate``."""
    rng = random.Random(40)
    docs = [random_document(rng) for _ in range(200)] + [random_ologism(rng, 6, 10) for _ in range(100)]
    for doc in docs[:200]:
        for p in doc.premisses:
            if p.form == "A":
                arrow = PathWord(p.subject, p.predicate, (Aspect(IS, p.subject, p.predicate),))
                docs.append(Ologism(doc.name, doc.types, doc.aspects, doc.facts + (Fact(arrow, arrow, "via"),),
                                    doc.premisses))
                break
    assert all(validate(doc) == [] for doc in docs)
    return docs


class TestWithoutPremiss:
    """``Ologism.without_premiss``, the REPL's ``retract``, removes every
    premiss with the canonical triple it is given, and an A premiss's
    ``is`` aspect, keeping declaration order otherwise; it equals
    ``replace_premisses`` up to order, and the verdict it carries is the
    one ``_diagnose`` finds."""

    def test_equals_replace_premisses_and_carries_the_verdict(self):
        carried = judged = 0
        for doc in _retract_documents():
            for p in doc.premisses:
                # An E or I premiss is named either way round.
                for written in [p, p.swapped()] if p.form in "EI" else [p]:
                    new = doc.without_premiss(written)
                    kept = tuple([q for q in doc.premisses if q.sort_key() != p.sort_key()])
                    assert new.premisses == kept, doc.name
                    assert new.aspects == tuple([a for a in doc.aspects
                                                 if p.form != "A" or (a.name, a.source, a.target) != (IS, *p.terms)])
                    assert structurally_equal(new, doc.replace_premisses(kept)), doc.name
                    fresh = _diagnose(Ologism(new.name, new.types, new.aspects, new.facts, new.premisses))
                    if "_diagnostics" in new.__dict__:
                        carried += 1
                        assert list(new.__dict__["_diagnostics"]) == fresh, (doc.name, str(p))
                    else:
                        judged += 1
                        assert {d.code for d in fresh} == {"FactAspectUndeclared"}, (doc.name, str(p))
                    assert validate(new) == fresh, (doc.name, str(p))
        assert carried > 1000 and judged > 50

    def test_an_undeclared_premiss_raises(self, animals):
        with pytest.raises(ValueError, match=r"premiss E\(V,V\) is not declared"):
            animals.without_premiss(E("V", "V"))


class TestEdges:
    """Behaviour the rest of the suite does not reach, pinned as it is."""

    def test_a_path_whose_endpoints_disagree_with_its_arcs(self):
        with pytest.raises(ValueError, match="path claims source X but starts at Z"):
            PathWord("X", "Y", (Aspect("f", "Z", "Y"),))
        with pytest.raises(ValueError, match="path claims target Y but ends at Z"):
            PathWord("X", "Y", (Aspect("f", "X", "Z"),))

    def test_a_proposition_is_never_equal_to_another_kind_of_value(self):
        assert A("X", "Y").__eq__("A(X,Y)") is NotImplemented
        assert A("X", "Y") != ("A", "X", "Y") and A("X", "Y") != "A(X,Y)"

    def test_a_missing_aspect_is_a_key_error(self, has_mother):
        assert has_mother.aspect("w", "Pair", "W") == Aspect("w", "Pair", "W")
        with pytest.raises(KeyError):
            has_mother.aspect("w", "W", "Pair")
