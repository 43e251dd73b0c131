"""Acceptance suite: one test per shipping criterion, run at fixed tolerances.

Every criterion prints one ``[acceptance] criterion N: PASS/FAIL`` line
(visible with ``pytest -s`` or in the captured output).  Shared inputs: the
bundled documents and a fixed sample of 200 random premiss-only documents
(at most 5 types and 8 premisses each), drawn once per session from seed 7
(the ``sample`` fixture in conftest.py).

Criteria 8 and 9 judge the complete calculus (``calculus="complete"``):
the default calculus R1-R8 has documented gaps (README "Known limits",
pinned in test_oracle.py and test_deduce.py) that no test here asks it to
close.  Criterion 8 compares against the exact set semantics of
``tests/oracles.exact_consequences``, which holds over every universe size;
a failure there means the complete calculus misses a consequence, or misses
a contradiction in an unsatisfiable document.  A failure of criterion 9
means the complete calculus's O(X,X) marker and the existence of a model on
a 3-element universe disagree.
"""

from __future__ import annotations

import random
import time

from ologism.core import A, E, I, O, Ologism, proposition, structurally_equal
from ologism import deduce, dsl, eqtheory, oracle, syll
from ologism.model import check_model, satisfies
from ologism.oracle import OracleConfig
from .conftest import SAMPLE_SEED
from .oracles import (
    brute_classes,
    enumerated_models,
    exact_consequences,
    exact_satisfiable,
    naive_theory,
    random_document,
    reference_tokens,
)


def _stamp(n: int, ok: bool, note: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {n}: {verdict}{(' - ' + note) if note else ''}")


class _criterion:
    """Context manager that prints the one-line verdict either way."""

    def __init__(self, n: int):
        self.n = n

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        _stamp(self.n, exc_type is None)
        return False


def test_criterion_1_mood_enumeration():
    with _criterion(1):
        started = time.perf_counter()
        plain = syll.enumerate_moods(with_import=False)
        with_import = syll.enumerate_moods(with_import=True)
        elapsed = time.perf_counter() - started
        assert len(plain) == 256
        assert sum(r.valid for r in plain) == 15
        assert sum(r.valid for r in with_import) == 24
        extra = [r for r in with_import if r.valid and not r.valid_direct]
        assert len(extra) == 9
        for r in extra:
            assert r.major in "AE" and r.minor in "AE", r.mood
            assert r.conclusion in "IO", r.mood
        assert elapsed < 1.0, f"enumeration took {elapsed:.2f}s"


def test_criterion_2_named_syllogisms():
    with _criterion(2):
        assert isinstance(syll.prove([E("M", "P"), A("S", "M")], E("S", "P")), syll.SyllProofTree)
        assert isinstance(syll.prove([A("M", "P"), I("M", "S")], I("S", "P")), syll.SyllProofTree)

        bullet = syll.prove([E("M", "P"), I("M", "S")], I("S", "P"))
        assert isinstance(bullet, syll.Rejection)
        assert bullet.reason == "BulletCountMismatch"
        assert "2" in bullet.detail and "1" in bullet.detail

        discord = syll.prove([E("M", "P"), E("S", "M")], O("S", "P"))
        assert isinstance(discord, syll.Rejection)
        assert discord.reason == "DiscordantArrows"

        camestres = syll.prove([A("P", "M"), E("S", "M")], E("S", "P"))
        assert isinstance(camestres, syll.SyllProofTree)
        assert camestres.count_rule("Reversal") == 1


def test_criterion_3_existential_import():
    with _criterion(3):
        assert isinstance(syll.prove([I("S", "S"), A("S", "P")], I("S", "P")), syll.SyllProofTree)
        assert isinstance(syll.prove([I("S", "S"), E("S", "P")], O("S", "P")), syll.SyllProofTree)
        assert isinstance(syll.prove([A("S", "P")], I("S", "P")), syll.Rejection)
        assert isinstance(syll.prove([E("S", "P")], O("S", "P")), syll.Rejection)


def test_criterion_4_contradiction_square():
    with _criterion(4):
        for premisses in ([A("S", "P"), O("S", "P")], [I("S", "P"), E("S", "P")]):
            doc = Ologism.build("square", ["S", "P"], premisses=premisses)
            theory = deduce.close(doc)
            assert any(
                proposition("O", t, t) in theory.o_star for t in ("S", "P")
            ), premisses
            for n in (1, 2, 3):
                assert oracle.count_models(doc, OracleConfig(universe_size=n)) == 0


def test_criterion_5_bundled_ologisms(animals, custodian):
    with _criterion(5):
        animal_theory = deduce.close(animals)
        assert animal_theory.derived_beyond_premisses() == {O("A", "B"), I("A", "V"), O("V", "A")}
        reference = naive_theory(animals.type_ids(), animals.premisses)
        assert {
            "A": animal_theory.alpha_star,
            "E": animal_theory.epsilon_star,
            "I": animal_theory.iota_star,
            "O": animal_theory.o_star,
        } == reference

        custodian_theory = deduce.close(custodian)
        reference = naive_theory(custodian.type_ids(), custodian.premisses)
        assert {
            "A": custodian_theory.alpha_star,
            "E": custodian_theory.epsilon_star,
            "I": custodian_theory.iota_star,
            "O": custodian_theory.o_star,
        } == reference
        # The commonly quoted three are not closed under the rules: R5 on
        # A(I,H), I(I,H) gives I(H,H), and R7 on A(I,H), O(I,C) gives O(H,C).
        quoted = {O("C", "I"), O("I", "C"), I("I", "H")}
        derived = custodian_theory.derived_beyond_premisses()
        assert quoted <= derived
        assert derived == quoted | {I("H", "H"), O("H", "C")}


def test_criterion_6_olog_regression(has_mother, family_model, custodian, custodian_model):
    with _criterion(6):
        lhs = eqtheory.PathWord("P", "W", (has_mother.aspect("hasAsMother", "P", "W"),))
        rhs = eqtheory.PathWord(
            "P",
            "W",
            (has_mother.aspect("hasAsParents", "P", "Pair"), has_mother.aspect("w", "Pair", "W")),
        )
        result = eqtheory.equal_paths(has_mother, lhs, rhs)
        assert result.equal and result.bound == eqtheory.default_bound(has_mother)

        family_report = check_model(has_mother, family_model, against="closure")
        assert family_report.ok and not family_report.alarms
        custodian_report = check_model(custodian, custodian_model, against="closure")
        assert custodian_report.ok and not custodian_report.alarms


def test_criterion_7_soundness_suite(sample, animals, custodian):
    with _criterion(7):
        started = time.perf_counter()
        config = OracleConfig(universe_size=3)
        for doc in sample:
            props = sorted(deduce.close(doc).propositions(), key=lambda p: p.sort_key())
            models = enumerated_models(doc, config.universe_size)
            assert len(models) == oracle.count_models(doc, config), doc
            for model in models:
                for prop in props:
                    assert satisfies(model, prop), (doc, prop, model)
        for doc in (animals, custodian):
            props = sorted(deduce.close(doc).propositions(), key=lambda p: p.sort_key())
            models, complete = oracle.sample_models(
                doc, OracleConfig(universe_size=3, seed=SAMPLE_SEED, sample_count=1000)
            )
            assert complete and len(models) == 1000
            for model in models:
                for prop in props:
                    assert satisfies(model, prop), (doc.name, prop, model)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"soundness suite took {elapsed:.1f}s"


def test_criterion_8_completeness_suite(sample):
    with _criterion(8):
        started = time.perf_counter()
        gaps: list[tuple[Ologism, frozenset]] = []
        for doc in sample:
            closure = deduce.close(doc, calculus="complete").propositions()
            if not exact_satisfiable(doc.type_ids(), doc.premisses):
                diagonal = {proposition("O", t, t) for t in doc.type_ids()}
                missing = diagonal - closure
                if missing:
                    gaps.append((doc, frozenset(missing)))
                continue
            gap = exact_consequences(doc.type_ids(), doc.premisses) - closure
            if gap:
                gaps.append((doc, gap))
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"completeness suite took {elapsed:.1f}s"
        assert not gaps, (
            f"{len(gaps)} of {len(sample)} documents have consequences over all "
            f"universe sizes beyond their complete closure; first example: premisses "
            f"{sorted(str(p) for p in gaps[0][0].premisses)} with gap "
            f"{sorted(str(p) for p in gaps[0][1])} (the complete calculus misses a "
            f"consequence, or an O(X,X) of an unsatisfiable document)"
        )


def test_criterion_9_consistency_iff_satisfiability(sample):
    with _criterion(9):
        config = OracleConfig(universe_size=3)
        discrepancies = []
        for doc in sample:
            consistent = not deduce.contradictions(deduce.close(doc, calculus="complete"))
            satisfiable = oracle.count_models(doc, config) > 0
            if consistent != satisfiable:
                discrepancies.append(doc)
        assert not discrepancies, (
            f"{len(discrepancies)} of {len(sample)} documents are consistent under "
            f"the complete calculus (no derivable O(X,X)) but have no model at "
            f"universe size 3, or the reverse; first example: premisses "
            f"{sorted(str(p) for p in discrepancies[0].premisses)}"
        )


def test_criterion_10_property_suites(sample):
    with _criterion(10):
        rng = random.Random(SAMPLE_SEED + 1)

        # Closure idempotence and monotonicity.
        for doc in sample[:60]:
            theory = deduce.close(doc)
            non_identity = [
                p for p in theory.propositions()
                if not (p.form == "A" and p.subject == p.predicate)
            ]
            again = deduce.close(doc.replace_premisses(non_identity))
            for form in "AEIO":
                assert again.star(form) == theory.star(form)
            if doc.premisses:
                smaller = deduce.close(doc.replace_premisses(doc.premisses[:-1]))
                for form in "AEIO":
                    assert smaller.star(form) <= theory.star(form)

        # Reversal involution over every premiss diagram and random chains.
        for form in "AEIO":
            d = syll.diagram_of(proposition(form, "S", "P"))
            assert syll.reverse(syll.reverse(d)) == d

        # Bullet conservation on every successful proof among the 256 moods.
        for record in syll.enumerate_moods(with_import=True):
            prem, concl = syll.mood_premisses(
                record.figure, record.major, record.minor, record.conclusion
            )
            if record.valid_direct:
                tree = syll.prove(prem, concl)
            elif record.import_terms:
                x = record.import_terms[0]
                tree = syll.prove(prem + [I(x, x)], concl)
            else:
                continue
            have = sum(syll.bullet_count(syll.diagram_of(p)) for p in tree_leaf_props(tree))
            assert have == syll.bullet_count(tree.root)

        # Congruence-relation laws for path equality.
        chain = _chain_doc()
        words = eqtheory.enumerate_words(chain, "X", "Q", 4)
        for w in words:
            assert eqtheory.equal_paths(chain, w, w, 6).equal
        for _ in range(120):
            p, q = rng.choice(words), rng.choice(words)
            pq = eqtheory.equal_paths(chain, p, q, 6)
            assert pq.equal == eqtheory.equal_paths(chain, q, p, 6).equal
            if pq.equal:
                assert pq.replay() == q
                assert eqtheory.equal_paths(chain, p, q, 10).equal
        ours = {frozenset(c) for c in eqtheory.congruent_closure_classes(chain, "X", "Q", 4)}
        assert ours == {frozenset(c) for c in brute_classes(words, list(chain.facts))}

        # Parser round-trip on 500 generated documents.
        for _ in range(500):
            doc = random_document(rng)
            text = dsl.serialize(doc)
            back = dsl.parse_ologism(text).value
            assert back is not None, text
            assert structurally_equal(doc, back)
            assert dsl._tokenize(text) == reference_tokens(text)

        # Fuzzed parser never aborts abnormally.
        alphabet = 'ologism model type aspect fact set map {}";:->,()= ABEIOxyz_09#\\\n\t'
        for _ in range(2000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 120)))
            dsl.parse_ologism(text)
            dsl.parse_model(text)
            assert dsl._tokenize(text) == reference_tokens(text)


def tree_leaf_props(tree: syll.SyllProofTree):
    if tree.rule in ("Axiom-Premiss", "Axiom-ExistentialImport"):
        got = syll.classify(tree.root)
        return [got] if got is not None else []
    return [p for c in tree.children for p in tree_leaf_props(c)]


def _chain_doc() -> Ologism:
    from ologism.core import Aspect, Fact, PathWord

    f = Aspect("f", "X", "Y")
    g = Aspect("g", "Y", "Z")
    h = Aspect("h", "X", "Y")
    k = Aspect("k", "Y", "Z")
    m = Aspect("m", "Z", "Q")
    n = Aspect("n", "Y", "Q")
    facts = [
        Fact(PathWord("X", "Z", (f, g)), PathWord("X", "Z", (h, k)), "fg-hk"),
        Fact(PathWord("Y", "Q", (g, m)), PathWord("Y", "Q", (n,)), "gm-n"),
    ]
    return Ologism.build("chain", ["X", "Y", "Z", "Q"], aspects=[f, g, h, k, m, n], facts=facts)
