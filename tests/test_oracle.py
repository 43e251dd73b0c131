from __future__ import annotations

import functools
import itertools
import random
from collections import Counter

import pytest

from ologism.core import A, E, I, O, Aspect, Ologism, proposition
from ologism.deduce import close, contradictions
from ologism.model import check_model, satisfies
from ologism import oracle
from ologism.oracle import (
    MAX_COUNT_DIGITS,
    FragmentError,
    OracleConfig,
    ScaleError,
    SoundnessVerdict,
    _carriers_possible,
    all_propositions,
    check_completeness,
    check_soundness,
    count_models,
    is_only,
    sample_models,
    semantic_consequences,
)
from .oracles import (
    carrier_assignment_exists,
    enumerated_models,
    enumerated_semantics,
    exact_consequences,
    exact_satisfiable,
    random_document,
    random_ologism,
    region_mask,
)

# The premisses alone have models (X nonempty, Y empty), but f sends each
# element of X into Y.
EMPTY_TARGET = Ologism.build(
    "empty-target", ["X", "Y"], aspects=[Aspect("f", "X", "Y")],
    premisses=[I("X", "X"), E("Y", "Y")],
)


class TestEnumeration:
    def test_free_type_has_all_subsets(self):
        doc = Ologism.build("one", ["X"])
        assert count_models(doc, OracleConfig(universe_size=3)) == 8

    def test_import_premiss_drops_empty_carrier(self):
        doc = Ologism.build("one", ["X"], premisses=[I("X", "X")])
        assert count_models(doc, OracleConfig(universe_size=3)) == 7

    def test_contradictory_pairs_have_no_models(self):
        for premisses in ([A("S", "P"), O("S", "P")], [I("S", "P"), E("S", "P")]):
            doc = Ologism.build("sq", ["S", "P"], premisses=premisses)
            for n in (1, 2, 3):
                assert count_models(doc, OracleConfig(universe_size=n)) == 0

    def test_models_satisfy_premisses(self, animals):
        models = enumerated_models(animals, 2)
        assert len(models) == count_models(animals, OracleConfig(universe_size=2))
        for model in models:
            for p in animals.premisses:
                assert satisfies(model, p)

    def test_count_invariant_under_type_renaming(self, animals):
        renamed = Ologism.build(
            "renamed",
            [t.id + "x" for t in animals.types],
            premisses=[
                proposition(p.form, p.subject + "x", p.predicate + "x") for p in animals.premisses
            ],
        )
        config = OracleConfig(universe_size=3)
        assert count_models(renamed, config) == count_models(animals, config)

    def test_type_cap(self):
        doc = Ologism.build("big", [f"T{i}" for i in range(7)])
        with pytest.raises(ScaleError):
            count_models(doc)

    @pytest.mark.parametrize("n", [1, 10, 100, 1000, 7142, 14284])
    def test_closed_forms_at_large_universes(self, n):
        # 14284 and 7142 are the largest universes one and two types allow.
        config = OracleConfig(universe_size=n)
        free = Ologism.build("one", ["X"])
        assert count_models(free, config) == 2**n
        inhabited = Ologism.build("one", ["X"], premisses=[I("X", "X")])
        assert count_models(inhabited, config) == 2**n - 1
        if n <= 7142:
            square = Ologism.build("sq", ["S", "P"], premisses=[A("S", "P"), O("S", "P")])
            assert count_models(square, config) == 0

    def test_universe_bound(self, animals):
        # 2**(4*3571) has 4300 digits, 2**(4*3572) has 4302.
        assert len(str(count_models(animals, OracleConfig(universe_size=3571)))) <= MAX_COUNT_DIGITS
        beyond = OracleConfig(universe_size=3572)
        for check in (count_models, semantic_consequences, check_soundness, check_completeness):
            with pytest.raises(ScaleError, match="4300 digits"):
                check(animals, beyond)

    def test_fragment_guard(self, has_mother):
        assert not is_only(has_mother)
        with pytest.raises(FragmentError):
            count_models(has_mother)


class TestSemanticConsequences:
    def test_lone_inclusion(self):
        doc = Ologism.build("ab", ["A", "B"], premisses=[A("A", "B")])
        sc = semantic_consequences(doc)
        assert A("A", "B") in sc
        assert I("A", "B") not in sc  # the empty carrier refutes it

    def test_import_makes_subalternation_semantic(self):
        doc = Ologism.build("imp", ["S", "P"], premisses=[I("S", "S"), A("S", "P")])
        assert I("S", "P") in semantic_consequences(doc)

    def test_vacuous_when_no_model(self):
        doc = Ologism.build("sq", ["S", "P"], premisses=[A("S", "P"), O("S", "P")])
        assert semantic_consequences(doc) == frozenset(all_propositions(["S", "P"]))

    def test_antitone_in_universe_size(self, animals):
        small = semantic_consequences(animals, OracleConfig(universe_size=2))
        large = semantic_consequences(animals, OracleConfig(universe_size=3))
        assert large <= small


class TestSoundness:
    def test_animals_exhaustive(self, animals):
        verdict = check_soundness(animals)
        assert verdict.passed and verdict.mode == "exhaustive"
        assert verdict.models_checked == 42

    def test_custodian_sampled(self, custodian):
        verdict = check_soundness(custodian, OracleConfig(seed=1, sample_count=200))
        assert verdict.passed and verdict.mode == "sampled"
        assert verdict.models_checked == 200

    def test_sampling_reproducible(self, custodian):
        config = OracleConfig(seed=3, sample_count=25)
        a, _ = sample_models(custodian, config)
        b, _ = sample_models(custodian, config)
        assert [m.carriers for m in a] == [m.carriers for m in b]

    def test_tampered_theory_caught(self, animals):
        # E(M,V) is false in some model; smuggle it into the proposition set.
        from ologism.oracle import _verify_theory

        theory = close(animals)
        props = sorted(theory.propositions() | {E("M", "V")}, key=lambda p: p.sort_key())
        _, offence = _verify_theory(props, enumerated_models(animals, 3))
        assert offence is not None
        prop, model = offence
        assert prop == E("M", "V")
        assert not satisfies(model, prop)

    def test_unsound_closure_gets_the_searched_counterexample(self, animals, unsound_close):
        config = OracleConfig()
        verdict = check_soundness(animals, config)
        assert not verdict.passed and verdict.mode == "exhaustive"
        prop, model = verdict.counterexample
        assert prop == E("M", "V")
        assert check_model(animals, model).ok and not satisfies(model, prop)
        assert verdict.models_checked == count_models(animals, config) == 42
        assert str(verdict) == (
            "soundness FAILS: E(M,V) does not hold in model counterexample: "
            "A={2}, B={0}, M={1, 2}, V={0, 1, 2}"
        )

    def test_inconclusive_when_models_cannot_be_sampled(self):
        # A full-fragment document with unsatisfiable premisses: every
        # attempt is rejected, so the verdict must be inconclusive.
        from ologism.core import Aspect

        doc = Ologism.build(
            "nope",
            ["X", "Y"],
            aspects=[Aspect("f", "X", "Y")],
            premisses=[I("X", "X"), E("X", "X")],
        )
        verdict = check_soundness(doc, OracleConfig(sample_count=3))
        assert verdict.inconclusive and not verdict.passed

    def test_unsamplable_documents_are_decided_without_an_attempt(self, monkeypatch):
        def attempt(*args):
            raise AssertionError("an attempt on a document no carriers can meet")

        monkeypatch.setattr(oracle, "_sample_model", attempt)
        verdict = check_soundness(EMPTY_TARGET, OracleConfig())
        assert verdict == SoundnessVerdict(False, "sampled", 0, None, inconclusive=True)

    @pytest.mark.parametrize("field", ["universe_size", "sample_count"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_config_sizes_must_be_positive(self, field, value):
        with pytest.raises(ValueError, match=field):
            OracleConfig(**{field: value})


class TestCompleteness:
    def test_explicit_import_closes_the_gap(self):
        doc = Ologism.build("imp", ["S", "P"], premisses=[I("S", "S"), A("S", "P")])
        verdict = check_completeness(doc)
        assert verdict.passed

    def test_a_chain(self):
        doc = Ologism.build("chain", ["A", "B", "C"], premisses=[A("A", "B"), A("B", "C")])
        verdict = check_completeness(doc)
        assert verdict.passed
        theory = close(doc)
        assert A("A", "C") in theory.alpha_star
        assert A("A", "C") in semantic_consequences(doc)

    def test_contradictory_document_diagonal_is_closed(self):
        doc = Ologism.build("sq", ["A", "B"], premisses=[I("A", "B"), E("A", "B")])
        theory = close(doc)
        assert O("A", "A") in theory.o_star and O("B", "B") in theory.o_star
        gap = semantic_consequences(doc) - theory.propositions()
        assert not any(p.form == "O" and p.subject == p.predicate for p in gap)

    def test_implied_import_gap_is_detected_and_classified(self):
        doc = Ologism.build("iab", ["A", "B"], premisses=[I("A", "B")])
        verdict = check_completeness(doc)
        assert not verdict.passed
        assert verdict.gap == {I("A", "A"), I("B", "B")}
        assert verdict.gap_at_next == verdict.gap  # not a universe-size artifact
        assert verdict.gap_closed_by_import

    def test_declared_import_is_not_declared_again(self):
        # I(T1,T1) is a premiss and T0 is forced nonempty too, so the import
        # re-check must add I(T0,T0) without repeating I(T1,T1).
        doc = Ologism.build("dup", ["T0", "T1"], premisses=[O("T0", "T1"), I("T1", "T1"), E("T0", "T1")])
        verdict = check_completeness(doc)
        assert not verdict.passed
        assert verdict.gap == {I("T0", "T0")}
        assert verdict.gap_closed_by_import

    def test_never_raises_on_valid_is_only_documents(self):
        rng = random.Random(7)
        for _ in range(400):
            doc = random_ologism(rng, max_types=3)
            verdict = check_completeness(doc)
            assert verdict.passed == (not verdict.gap), doc

    def test_contradiction_implies_unsatisfiable(self):
        rng = random.Random(13)
        for _ in range(60):
            doc = random_ologism(rng)
            if contradictions(close(doc)):
                assert count_models(doc, OracleConfig(universe_size=3)) == 0, doc

    def test_unsatisfiable_but_uncontradicted_documents_assert_emptiness(self):
        # The O(X,X) marker misses exactly one shape of inconsistency: a type
        # forced empty (a derivable E(X,X)) while another premiss forces it
        # nonempty.  No rule turns an O-form nonemptiness into the I-form
        # that R6 would need.  {E(X,X), O(X,Y)} is the minimal instance.
        doc = Ologism.build("hole", ["X", "Y"], premisses=[E("X", "X"), O("X", "Y")])
        theory = close(doc)
        assert not contradictions(theory)
        assert count_models(doc, OracleConfig(universe_size=3)) == 0
        # Every discrepancy in a random sample carries that signature.
        rng = random.Random(13)
        for _ in range(60):
            doc = random_ologism(rng)
            theory = close(doc)
            if not contradictions(theory) and count_models(doc, OracleConfig(universe_size=3)) == 0:
                assert any(p.subject == p.predicate for p in theory.epsilon_star), doc

    def test_soundness_direction_always_holds(self):
        rng = random.Random(14)
        for _ in range(40):
            doc = random_ologism(rng)
            closure = close(doc).propositions()
            sc = semantic_consequences(doc, OracleConfig(universe_size=3))
            assert closure <= sc, doc

    def test_growing_premisses_never_remove_a_consequence(self):
        rng = random.Random(15)
        config = OracleConfig(universe_size=3)
        for _ in range(40):
            doc = random_ologism(rng)
            if len(doc.premisses) < 2:
                continue
            fewer = doc.replace_premisses(doc.premisses[:-1])
            assert semantic_consequences(fewer, config) <= semantic_consequences(doc, config)


class TestExactReference:
    def test_agrees_with_enumeration_where_three_elements_suffice(self, sample):
        # A model needs one witness per I/O premiss, and a refutation of a
        # consequence at most one more: with at most two distinct I/O
        # premisses a 3-element universe is exact.
        config = OracleConfig(universe_size=3)
        checked = 0
        for doc in sample:
            if sum(p.form in "IO" for p in set(doc.premisses)) > 2:
                continue
            checked += 1
            types, premisses = doc.type_ids(), doc.premisses
            assert exact_satisfiable(types, premisses) == (count_models(doc, config) > 0), doc
            assert exact_consequences(types, premisses) == semantic_consequences(doc, config), doc
        assert checked == 156

    def test_three_elements_are_not_enough_in_general(self):
        # Three witnesses in pairwise incompatible regions, and a refutation
        # of A(T0,T1) needs a fourth element.
        doc = Ologism.build(
            "four",
            ["T0", "T1", "T2"],
            premisses=[A("T1", "T0"), I("T1", "T2"), O("T1", "T2"), O("T2", "T0")],
        )
        assert A("T0", "T1") in semantic_consequences(doc, OracleConfig(universe_size=3))
        assert A("T0", "T1") not in exact_consequences(doc.type_ids(), doc.premisses)


class TestAgainstEnumeration:
    """The exact oracle equals ``enumerated_semantics``, which tests every
    subset assignment, wherever that is at most 2**15 assignments."""

    BITS = 15

    def check(self, doc, universes):
        types = doc.type_ids()
        reference = functools.cache(lambda m: enumerated_semantics(types, doc.premisses, m))
        closure = frozenset(close(doc).propositions())
        for n in universes:
            if len(types) * n > self.BITS:
                return
            config = OracleConfig(universe_size=n)
            count, consequences = reference(n)
            assert count_models(doc, config) == count, (doc, n)
            assert semantic_consequences(doc, config) == consequences, (doc, n)
            assert check_soundness(doc, config).models_checked == count, (doc, n)
            if len(types) * (n + 1) > self.BITS:
                return
            verdict = check_completeness(doc, config)
            gap = consequences - closure
            assert verdict.gap == gap, (doc, n)
            assert verdict.gap_at_next == (reference(n + 1)[1] - closure if gap else frozenset())
            forced = [p for p in consequences if p.form == "I" and p.subject == p.predicate]
            enriched = doc.replace_premisses(
                tuple(doc.premisses) + tuple(p for p in forced if p not in doc.premisses)
            )
            explained = bool(gap) and count > 0 and gap <= close(enriched).propositions()
            assert verdict.gap_closed_by_import == explained, (doc, n)

    def test_sample(self, sample):
        for doc in sample:
            self.check(doc, range(1, 5))

    def test_random_documents(self):
        rng = random.Random(16)
        for _ in range(60):
            self.check(random_ologism(rng, max_types=5), range(1, 4))


def entailed_one_search_each(venn, props, n):
    """``_Venn.entailed`` by its definition: one search per proposition for
    a model of the document plus its negation."""
    if not venn.satisfiable(n):
        return frozenset(props)
    return frozenset(p for p in props if not venn.satisfiable(n, [p.contradictory()]))


class TestBeyondEnumeration:
    """The exact oracle on documents of 5 or 6 types, beyond the reach of
    ``TestAgainstEnumeration``, against the plain definitions of what it
    computes faster: ``entailed`` searches only for propositions no model
    found so far refutes, region masks are built from per-type membership
    masks, and the re-check one universe size up asks only about the gap."""

    @staticmethod
    def documents(seed, count):
        rng = random.Random(seed)
        return [
            random_ologism(rng, max_types=6, max_premisses=10, min_types=5) for _ in range(count)
        ]

    def test_entailed_equals_one_search_per_proposition(self):
        models = Counter()
        for doc in self.documents(51, 40):
            venn, props = oracle._Venn(doc), all_propositions(doc.type_ids())
            for n in (1, 2, 3, 4):
                assert venn.entailed(props, n) == entailed_one_search_each(venn, props, n), (doc, n)
                models[venn.satisfiable(n)] += 1
        assert min(models.values()) > 20  # documents with and without a model

    @pytest.mark.parametrize("k", range(1, 7))
    def test_regions_equal_the_per_region_loop(self, k):
        types = [f"T{i}" for i in range(k)]
        venn = oracle._Venn(Ologism.build(f"{k} types", types))
        for form in "AEIO":
            for s, t in itertools.product(types, repeat=2):
                prop = proposition(form, s, t)
                assert venn.regions(prop) == region_mask(types, prop), prop

    def test_gap_at_next_is_the_gap_left_one_size_up(self):
        rechecks = Counter()
        for doc in self.documents(53, 30):
            venn, props = oracle._Venn(doc), all_propositions(doc.type_ids())
            closure = frozenset(close(doc).propositions())
            for n in (1, 2, 3, 4):
                verdict = check_completeness(doc, OracleConfig(universe_size=n))
                if verdict.gap:
                    expected = venn.entailed(props, n + 1) - closure
                    assert verdict.gap_at_next == expected, (doc, n)
                    rechecks[expected == verdict.gap] += 1
                else:
                    assert verdict.gap_at_next == frozenset(), (doc, n)
        assert min(rechecks.values()) > 5  # gaps that persist and gaps that shrink


class TestCountermodel:
    """``_Venn.countermodel`` returns a model of the premisses that refutes
    each proposition outside ``semantic_consequences``, and None for each
    inside."""

    def test_sample(self, sample):
        for doc in sample:
            venn, props = oracle._Venn(doc), all_propositions(doc.type_ids())
            for n in (1, 2, 3):
                consequences = semantic_consequences(doc, OracleConfig(universe_size=n))
                universe = {str(x) for x in range(n)}
                for prop in props:
                    model = venn.countermodel(prop, n)
                    if prop in consequences:
                        assert model is None, (doc, prop, n)
                        continue
                    assert check_model(doc, model).ok, (doc, prop, n, model)
                    assert not satisfies(model, prop), (doc, prop, n, model)
                    assert set().union(*model.carriers.values()) <= universe, (doc, n, model)


class TestSatisfiable:
    """``_Venn.satisfiable`` with extra propositions against
    ``enumerated_models`` on the document with the extras declared as
    premisses."""

    def test_random_extras(self):
        rng = random.Random(41)
        forms, answers = Counter(), Counter()
        for _ in range(150):
            doc = random_ologism(rng)
            types, size = sorted(doc.type_ids()), rng.randint(1, 3)
            venn, extra = oracle._Venn(doc), []
            while len(extra) < size:
                form, x, y = rng.choice("AEIO"), rng.choice(types), rng.choice(types)
                if form != "A" or x != y:  # identities are implicit, never premissed
                    extra.append(proposition(form, x, y))
            declared = doc.replace_premisses(dict.fromkeys([*doc.premisses, *extra]))
            for n in (1, 2, 3):
                expected = bool(enumerated_models(declared, n))
                assert venn.satisfiable(n, extra) == expected, (doc, extra, n)
                answers[expected] += 1
            forms.update(p.form for p in extra)
        assert set(forms) == set("AEIO")
        assert min(answers.values()) > 50  # both answers are exercised


class TestCarrierPrecheck:
    """``_carriers_possible`` against ``carrier_assignment_exists``, which
    tests every subset assignment."""

    def test_aspect_nonemptiness_beyond_the_premisses(self):
        assert exact_satisfiable(EMPTY_TARGET.type_ids(), EMPTY_TARGET.premisses)
        for n in (1, 2, 3):
            assert not carrier_assignment_exists(EMPTY_TARGET, n)
            assert not _carriers_possible(EMPTY_TARGET, n)

    def test_random_documents(self):
        rng = random.Random(23)
        decided = Counter()
        for _ in range(300):
            doc = random_document(rng)
            for n in (1, 2, 3):
                expected = carrier_assignment_exists(doc, n)
                assert _carriers_possible(doc, n) == expected, (doc, n)
                decided[expected] += 1
        assert min(decided.values()) > 100  # both answers are exercised
