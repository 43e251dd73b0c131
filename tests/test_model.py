from __future__ import annotations

import itertools

import pytest

from ologism.core import A, E, I, O, Aspect, Fact, Ologism, PathWord, TypeDecl, proposition
from ologism.model import HOLDS, Model, ViolationReport, check_model, satisfies
from .oracles import _holds

# Every pair of carriers over a 3-element universe, as bitmasks.
MASK_PAIRS = list(itertools.product(range(8), repeat=2))


def tiny(**carriers) -> Model:
    return Model("tiny", {k: frozenset(v) for k, v in carriers.items()})


class TestSatisfies:
    def test_o_with_proper_superset(self):
        # The counter-model style used to separate inclusion from entailment.
        m = tiny(A={"0", "1"}, B={"0"})
        assert satisfies(m, O("A", "B"))
        assert not satisfies(m, A("A", "B"))

    def test_empty_carrier_subset_vacuous(self):
        m = tiny(A=set(), B={"0"})
        assert satisfies(m, A("A", "B"))
        assert not satisfies(m, I("A", "B"))

    def test_counterexample_models_from_chained_inclusions(self):
        # A={0,1}, B={0}, C={0,2}: refutes A(A,B) while keeping A(B,C).
        m = tiny(A={"0", "1"}, B={"0"}, C={"0", "2"})
        assert not satisfies(m, A("A", "B"))
        assert satisfies(m, A("B", "C"))
        assert not satisfies(m, A("A", "C"))

    def test_custodian_disjointness(self, custodian_model):
        assert satisfies(custodian_model, E("C", "I"))

    def test_symmetry_matches_canonicalization(self):
        m = tiny(X={"0"}, Y={"0", "1"})
        for form in ("E", "I"):
            assert satisfies(m, proposition(form, "X", "Y")) == satisfies(
                m, proposition(form, "Y", "X")
            )

    def test_o_diagonal_unsatisfiable(self):
        for carrier in (set(), {"0"}, {"0", "1"}):
            assert not satisfies(tiny(X=carrier), O("X", "X"))

    def test_unknown_type(self):
        with pytest.raises(LookupError):
            satisfies(tiny(X={"0"}), A("X", "Z"))


class TestHolds:
    def test_bitmasks_agree_with_reference(self):
        for s, t in MASK_PAIRS:
            for form, holds in HOLDS.items():
                assert holds(s, t) is _holds(form, s, t), (form, s, t)

    def test_frozensets_agree_with_subset_and_disjointness(self):
        for s, t in MASK_PAIRS:
            x, y = (frozenset(i for i in range(3) if m >> i & 1) for m in (s, t))
            expected = {"A": x <= y, "E": x.isdisjoint(y), "I": not x.isdisjoint(y), "O": not x <= y}
            for form, holds in HOLDS.items():
                assert holds(x, y) is expected[form], (form, x, y)


class TestCheckModel:
    def test_family_model_clean(self, has_mother, family_model):
        assert check_model(has_mother, family_model, against="premisses").ok
        assert check_model(has_mother, family_model, against="closure").ok

    def test_family_model_broken_fact(self, has_mother, family_model):
        maps = {k: dict(v) for k, v in family_model.maps.items()}
        maps["hasAsMother"]["Susan"] = "Elen1"
        broken = Model(family_model.name, family_model.carriers, maps, family_model.for_ologism)
        report = check_model(has_mother, broken)
        kinds = {v.kind for v in report.violations}
        assert kinds == {"FactBroken"}
        assert report.violations[0].witness == "Susan"

    def test_custodian_model_clean_against_closure(self, custodian, custodian_model):
        report = check_model(custodian, custodian_model, against="closure")
        assert report.ok and not report.alarms

    def test_custodian_model_with_explicit_identity_embedding(self, custodian, custodian_model):
        maps = {k: dict(v) for k, v in custodian_model.maps.items()}
        maps["is"] = {x: x for x in custodian_model.carriers["I"]}
        explicit = Model("explicit", custodian_model.carriers, maps, "custodian")
        assert check_model(custodian, explicit, against="closure").ok

    def test_is_must_be_identity_embedding(self, custodian, custodian_model):
        maps = {k: dict(v) for k, v in custodian_model.maps.items()}
        maps["is"] = {x: "H01" for x in custodian_model.carriers["I"]}
        skewed = Model("skewed", custodian_model.carriers, maps, "custodian")
        report = check_model(custodian, skewed)
        assert "IsNotInclusion" in {v.kind for v in report.violations}

    def test_is_inclusion_violation(self, custodian, custodian_model):
        carriers = dict(custodian_model.carriers)
        carriers["H"] = carriers["H"] - {"H10I1"}
        report = check_model(custodian, Model("chopped", carriers, custodian_model.maps, "custodian"))
        kinds = {v.kind for v in report.violations}
        assert "IsNotInclusion" in kinds

    def test_map_not_total_and_stray_image(self, custodian, custodian_model):
        maps = {k: dict(v) for k, v in custodian_model.maps.items()}
        del maps["has"]["C10"]
        maps["has"]["C11"] = "nowhere"
        report = check_model(custodian, Model("holey", custodian_model.carriers, maps, "custodian"))
        kinds = {v.kind for v in report.violations}
        assert {"MapNotTotal", "ImageOutsideTarget"} <= kinds

    def test_prescription_violation_with_witness(self, animals, animals_model):
        carriers = dict(animals_model.carriers)
        carriers["M"] = carriers["M"] | {"eagle"}  # now a bird is a mammal
        report = check_model(animals, Model("bad", carriers, {}, "animals"))
        broken = [v for v in report.violations if v.kind == "PrescriptionBroken"]
        assert broken and broken[0].witness == "eagle"

    def test_animals_model_clean_against_closure(self, animals, animals_model):
        report = check_model(animals, animals_model, against="closure")
        assert report.ok and not report.alarms

    def test_against_must_be_known(self, animals, animals_model):
        with pytest.raises(ValueError):
            check_model(animals, animals_model, against="everything")

    def test_missing_carrier_reported(self, animals, animals_model):
        carriers = {k: v for k, v in animals_model.carriers.items() if k != "V"}
        report = check_model(animals, Model("partial", carriers, {}, "animals"))
        assert any(v.kind == "MapNotTotal" for v in report.violations)


class TestEdges:
    """Behaviour the rest of the suite does not reach, pinned as it is."""

    def test_a_report_reads_as_ok_or_as_its_lines(self, animals, animals_model):
        assert str(check_model(animals, animals_model)) == "ok"
        report = check_model(animals, Model("partial", {}, {}, "animals"))
        assert str(report) == "\n".join(str(v) for v in report.violations)
        alarmed = ViolationReport(report.violations[:1], ("engine bug",))
        assert str(alarmed) == f"{report.violations[0]}\nALARM: engine bug"
        assert str(ViolationReport((), ("engine bug",))) == "ALARM: engine bug"

    def test_a_fact_whose_sides_are_not_parallel_is_skipped(self):
        f, g = Aspect("f", "X", "Y"), Aspect("g", "X", "X")
        doc = Ologism("skew", (TypeDecl("X", "an x"), TypeDecl("Y", "a y")), (f, g),
                      (Fact(PathWord("X", "Y", (f,)), PathWord("X", "X", (g,))),))
        model = Model("m", {"X": frozenset({"x"}), "Y": frozenset({"y"})}, {"f": {"x": "y"}, "g": {"x": "x"}})
        assert check_model(doc, model).violations == ()
