from __future__ import annotations

import io
import random

import pytest

from ologism import data
from ologism.dsl import serialize
from ologism.repl import Repl
from ologism.core import A, E, I, InvalidOlogismError, O, Ologism, TypeDecl, proposition
from ologism.deduce import _JOINS, Derivation, Theory, close, contradictions, derivable, explain
from ologism.syll import Rejection, enumerate_moods, mood_premisses, prove
from .oracles import (
    exact_consequences,
    exact_satisfiable,
    minimal_derivations,
    naive_theory,
    random_document,
    random_ologism,
)


def star_sets(theory: Theory) -> dict[str, frozenset]:
    return {
        "A": theory.alpha_star,
        "E": theory.epsilon_star,
        "I": theory.iota_star,
        "O": theory.o_star,
    }


class TestAnimals:
    def test_derived_set(self, animals):
        theory = close(animals)
        assert theory.derived_beyond_premisses() == {O("A", "B"), I("A", "V"), O("V", "A")}

    def test_matches_naive_oracle(self, animals):
        theory = close(animals)
        assert star_sets(theory) == naive_theory(animals.type_ids(), animals.premisses)

    def test_alpha_contains_identities(self, animals):
        theory = close(animals)
        for t in animals.type_ids():
            assert A(t, t) in theory.alpha_star

    def test_consistent(self, animals):
        assert contradictions(close(animals)) == []

    def test_explain_i_av_uses_symmetry_then_composition(self, animals):
        derivation = explain(close(animals), I("A", "V"))
        assert derivation.rule == "R4"
        assert [c.rule for c in derivation.children] == ["Symmetry", "Premiss"]
        assert derivation.children[0].children[0].conclusion == I("M", "A")
        assert derivation.replay() == I("A", "V")

    def test_explain_o_va_uses_r7_with_bird_inclusion(self, animals):
        derivation = explain(close(animals), O("V", "A"))
        assert derivation.rule == "R7"
        assert derivation.children[0].conclusion == A("B", "V")
        assert derivation.replay() == O("V", "A")

    def test_underivable(self, animals):
        assert explain(close(animals), E("M", "V")) is None


class TestCustodian:
    def test_derived_set_is_the_full_fixpoint(self, custodian):
        # The three commonly quoted consequences plus the two the rules force
        # on top of them: I(H,H) (a helper exists, since inspectors are
        # helpers) and O(H,C) (that helper cannot be a custodian).
        theory = close(custodian)
        assert theory.derived_beyond_premisses() == {
            I("I", "H"),
            I("H", "H"),
            O("C", "I"),
            O("I", "C"),
            O("H", "C"),
        }

    def test_matches_naive_oracle(self, custodian):
        theory = close(custodian)
        assert star_sets(theory) == naive_theory(custodian.type_ids(), custodian.premisses)

    def test_i_ih_via_r4_on_the_import(self, custodian):
        derivation = explain(close(custodian), I("I", "H"))
        assert derivation.replay() == I("I", "H")
        leaves = _leaf_rules(derivation)
        assert "Premiss" in leaves

    def test_non_is_aspect_contributes_nothing(self, custodian):
        # `has` is not an inclusion; dropping it must not change the theory.
        stripped = Ologism.build(
            custodian.name,
            custodian.types,
            [a for a in custodian.aspects if a.is_flag],
            (),
            custodian.premisses,
        )
        assert star_sets(close(stripped)) == star_sets(close(custodian))


def _leaf_rules(derivation):
    if not derivation.children:
        return [derivation.rule]
    return [r for c in derivation.children for r in _leaf_rules(c)]


class TestContradictionSquares:
    def test_a_with_o(self):
        doc = Ologism.build("sq", ["S", "P"], premisses=[A("S", "P"), O("S", "P")])
        clashes = contradictions(close(doc))
        assert {x for x, _ in clashes} == {"S", "P"}
        by_type = dict(clashes)
        assert by_type["S"].rule == "R8"
        for _, derivation in clashes:
            derivation.replay()

    def test_i_with_e(self):
        doc = Ologism.build("sq", ["S", "P"], premisses=[I("S", "P"), E("S", "P")])
        clashes = contradictions(close(doc))
        assert {x for x, _ in clashes} == {"S", "P"}
        derivation = dict(clashes)["S"]
        assert derivation.rule == "R6"
        assert "Symmetry" in _all_rules(derivation)

    def test_clash_completeness_on_randoms(self):
        rng = random.Random(11)
        for _ in range(60):
            doc = random_ologism(rng)
            theory = close(doc)
            for p in theory.propositions():
                key = p.sort_key()
                opposite = {"A": "O", "O": "A", "E": "I", "I": "E"}[key[0]]
                clash = proposition(opposite, key[1], key[2])
                if clash in theory.propositions():
                    assert contradictions(theory), (doc, p)
                    break


def _all_rules(derivation):
    return [derivation.rule] + [r for c in derivation.children for r in _all_rules(c)]


class TestClosureLaws:
    def test_requires_validated_input(self):
        broken = Ologism("bad", (TypeDecl("X", "an x"),), premisses=(A("X", "Y"),))
        with pytest.raises(InvalidOlogismError):
            close(broken)

    def test_no_premisses_gives_identities_only(self):
        doc = Ologism.build("empty", ["X", "Y"])
        theory = close(doc)
        assert theory.alpha_star == {A("X", "X"), A("Y", "Y")}
        assert not theory.epsilon_star and not theory.iota_star and not theory.o_star

    def test_idempotent(self):
        rng = random.Random(5)
        for _ in range(40):
            doc = random_ologism(rng)
            theory = close(doc)
            non_identity = [
                p for p in theory.propositions()
                if not (p.form == "A" and p.subject == p.predicate)
            ]
            again = close(doc.replace_premisses(non_identity))
            assert star_sets(again) == star_sets(theory), doc

    def test_monotone(self):
        rng = random.Random(6)
        for _ in range(40):
            doc = random_ologism(rng)
            if len(doc.premisses) < 2:
                continue
            fewer = doc.replace_premisses(doc.premisses[:-1])
            small, big = close(fewer), close(doc)
            for form in "AEIO":
                assert small.star(form) <= big.star(form)

    def test_stratified_equals_naive_fixpoint(self):
        rng = random.Random(7)
        for _ in range(80):
            doc = random_ologism(rng)
            assert star_sets(close(doc)) == naive_theory(doc.type_ids(), doc.premisses), doc

    def test_every_derivation_replays(self):
        rng = random.Random(8)
        for _ in range(30):
            doc = random_ologism(rng)
            theory = close(doc)
            for p, derivation in theory.derivations.items():
                assert derivation.replay() == p

    def test_symmetric_star_sets(self):
        rng = random.Random(9)
        for _ in range(30):
            doc = random_ologism(rng)
            theory = close(doc)
            for p in theory.epsilon_star | theory.iota_star:
                assert p.swapped() in theory.propositions()

    def test_premisses_contained_in_stars(self):
        rng = random.Random(10)
        for _ in range(30):
            doc = random_ologism(rng)
            theory = close(doc)
            for p in doc.premisses:
                assert p in theory.star(p.form)


class TestCompleteCalculus:
    def test_unknown_calculus_is_rejected(self, animals):
        with pytest.raises(ValueError, match="calculus"):
            close(animals, calculus="classical")

    def test_implied_import_is_derived_by_existence(self):
        doc = Ologism.build("iab", ["A", "B"], premisses=[I("A", "B")])
        assert I("A", "A") not in close(doc).iota_star
        theory = close(doc, calculus="complete")
        assert {I("A", "A"), I("B", "B")} <= theory.iota_star
        assert explain(theory, I("A", "A")).rule == "Existence"

    def test_emptiness_meets_nonemptiness_in_a_contradiction(self):
        doc = Ologism.build("hole", ["X", "Y"], premisses=[E("X", "X"), O("X", "Y")])
        assert not contradictions(close(doc))
        theory = close(doc, calculus="complete")
        clashes = dict(contradictions(theory))
        assert set(clashes) == {"X", "Y"}
        assert [c.rule for c in clashes["X"].children] == ["Existence", "Premiss"]
        assert [c.rule for c in clashes["Y"].children] == ["Emptiness", "Premiss"]

    def test_a_contradiction_explodes_to_every_type(self):
        doc = Ologism.build("sq", ["X", "Y", "Z"], premisses=[I("X", "Y"), E("X", "Y")])
        assert {x for x, _ in contradictions(close(doc))} == {"X", "Y"}
        theory = close(doc, calculus="complete")
        assert {x for x, _ in contradictions(theory)} == {"X", "Y", "Z"}
        assert explain(theory, O("Z", "Z")).rule == "Explosion"

    def test_every_derivation_replays_on_the_sample(self, sample):
        for doc in sample[:60]:
            theory = close(doc, calculus="complete")
            for p, derivation in theory.derivations.items():
                assert derivation.replay() == p

    def test_replay_rejects_misshapen_steps(self):
        def step(conclusion, rule, child):
            return Derivation(conclusion, rule, (Derivation(child, "Premiss"),))

        assert step(I("X", "X"), "Existence", O("X", "Y")).replay() == I("X", "X")
        assert step(E("X", "Z"), "Emptiness", E("X", "X")).replay() == E("X", "Z")
        assert step(O("Z", "Z"), "Explosion", O("X", "X")).replay() == O("Z", "Z")
        for bad in (
            step(I("Y", "Y"), "Existence", I("X", "Y")),
            step(I("X", "X"), "Existence", A("X", "Y")),
            step(A("X", "Y"), "Emptiness", E("X", "Z")),
            step(I("X", "Y"), "Emptiness", E("X", "X")),
            step(O("Z", "Z"), "Explosion", O("X", "Y")),
            step(O("Z", "Y"), "Explosion", O("X", "X")),
        ):
            with pytest.raises(ValueError):
                bad.replay()

    # Each join rule as the paper states it: (tag, left, right, conclusion).
    JOINS = (
        ("R1", A("X", "Y"), A("Y", "Z"), A("X", "Z")),
        ("R2", E("X", "Y"), A("Z", "Y"), E("X", "Z")),
        ("R3", A("X", "Y"), E("Y", "Z"), E("X", "Z")),
        ("R4", I("X", "Y"), A("Y", "Z"), I("X", "Z")),
        ("R5", A("Y", "X"), I("Y", "Z"), I("X", "Z")),
        ("R6", I("X", "Y"), E("Y", "Z"), O("X", "Z")),
        ("R7", A("Y", "X"), O("Y", "Z"), O("X", "Z")),
        ("R8", O("X", "Y"), A("Z", "Y"), O("X", "Z")),
    )

    @pytest.mark.parametrize("rule, left, right, conclusion", JOINS, ids=[j[0] for j in JOINS])
    def test_replay_rejects_joins_without_a_shared_middle(self, rule, left, right, conclusion):
        def join(tag, left, right):
            return Derivation(conclusion, tag, (Derivation(left, "Premiss"), Derivation(right, "Premiss")))

        assert join(rule, left, right).replay() == conclusion
        # The right premiss's Y becomes Q: the two no longer share a middle term.
        unshared = proposition(right.form, *("Q" if t == "Y" else t for t in right.terms))
        with pytest.raises(ValueError, match=f"rule {rule} does not yield"):
            join(rule, left, unshared).replay()

    def test_replay_rejects_a_join_under_another_tag(self):
        _, left, right, conclusion = self.JOINS[2]  # an R3 instance
        bad = Derivation(conclusion, "R2", (Derivation(left, "Premiss"), Derivation(right, "Premiss")))
        with pytest.raises(ValueError, match="rule R2 does not yield"):
            bad.replay()

    def test_equals_exact_semantics(self):
        # Consequences over every universe size on satisfiable documents, and
        # an O(X,X) for every type on exactly the unsatisfiable ones.
        rng = random.Random(100)
        for _ in range(300):
            doc = random_ologism(rng)
            theory = close(doc, calculus="complete")
            clashes = {x for x, _ in contradictions(theory)}
            if exact_satisfiable(doc.type_ids(), doc.premisses):
                assert not clashes, doc
                assert theory.propositions() == exact_consequences(doc.type_ids(), doc.premisses), doc
            else:
                assert clashes == set(doc.type_ids()), doc

    def test_extends_the_default_closure(self):
        rng = random.Random(101)
        for _ in range(60):
            doc = random_ologism(rng)
            default, complete = close(doc), close(doc, calculus="complete")
            for form in "AEIO":
                assert default.star(form) <= complete.star(form)


def _premiss_only(n_types: int, per_type: int, seed: int) -> Ologism:
    """A random is-only document with ``per_type`` premisses per type."""
    rng = random.Random(seed)
    names = [f"T{k}" for k in range(n_types)]
    premisses: list = []
    seen: set = set()
    while len(premisses) < per_type * n_types:
        form, x, y = rng.choice("AEIO"), rng.choice(names), rng.choice(names)
        prop = proposition(form, x, y)
        if (form, x) != ("A", y) and prop not in seen:
            premisses.append(prop)
            seen.add(prop)
    return Ologism.build(f"large-{n_types}-{seed}", names, premisses=premisses)


def _triple(p) -> tuple[str, str, str]:
    return (p.form, p.subject, p.predicate)


def assert_minimal_derivations(doc: Ologism, calculus: str, theory: Theory | None = None) -> None:
    """Every step of every stored derivation (of ``theory``, or of ``doc``
    closed here) has the reference's height, rule and child conclusions, and
    the theory holds exactly the reference's."""
    theory = theory or close(doc, calculus=calculus)
    reference = minimal_derivations(doc.type_ids(), doc.premisses, calculus)
    assert theory.propositions() == {proposition(*t).canonical() for t in reference}, doc
    heights: dict[int, int] = {}

    def check(d: Derivation) -> int:
        if id(d) not in heights:
            kids = [check(c) for c in d.children]
            height = 1 + max(kids, default=0)
            got = (height, d.rule, tuple(_triple(c.conclusion) for c in d.children))
            assert got == reference[_triple(d.conclusion)], (doc.name, str(d.conclusion))
            heights[id(d)] = height
        return heights[id(d)]

    for p, d in theory.derivations.items():
        assert d.conclusion == p
        check(d)


class TestMinimalDerivations:
    """The stored derivations equal a nested-loop relaxation's, tie-break included."""

    @pytest.mark.parametrize("calculus", ["default", "complete"])
    def test_sample(self, sample, calculus):
        for doc in sample:
            assert_minimal_derivations(doc, calculus)

    @pytest.mark.parametrize("calculus", ["default", "complete"])
    @pytest.mark.parametrize("name", data.NAMES)
    def test_bundled(self, name, calculus):
        assert_minimal_derivations(data.load(name), calculus)

    @pytest.mark.parametrize("n_types, per_type", [(40, 2), (80, 2), (120, 1), (160, 1), (160, 2)])
    def test_large_documents(self, n_types, per_type):
        assert_minimal_derivations(_premiss_only(n_types, per_type, seed=n_types), "default")

    @pytest.mark.parametrize("per_type", [1, 2])
    def test_large_documents_complete(self, per_type):
        # The complete closure of larger documents nears every proposition.
        assert_minimal_derivations(_premiss_only(40, per_type, seed=41), "complete")


class TestRulesAgainstDiagrams:
    """The closure's rule rows against the paper's diagram calculus."""

    @pytest.mark.parametrize("row", _JOINS, ids=[row[0] for row in _JOINS])
    def test_every_join_row_is_a_diagram_proof(self, row):
        # Middle term M at the joined positions, S and P the other terms.
        _, lf, lj, rf, rj, out = row
        left = proposition(lf, *(("M", "S") if lj == 1 else ("S", "M")))
        right = proposition(rf, *(("M", "P") if rj == 1 else ("P", "M")))
        assert not isinstance(prove([left, right], proposition(out, "S", "P")), Rejection)

    @pytest.mark.parametrize("calculus", ["default", "complete"])
    def test_closure_decides_every_mood_as_the_diagrams_do(self, calculus):
        records = enumerate_moods()
        assert len(records) == 256
        for record in records:
            premisses, conclusion = mood_premisses(record.figure, record.major, record.minor, record.conclusion)
            theory = close(Ologism.build("mood", ["S", "M", "P"], premisses=premisses), calculus=calculus)
            assert (conclusion in theory.propositions()) == record.valid_direct, record.mood


class TestDerivationTable:
    """``Theory.trees`` holds every oriented fact; the rest reads it."""

    @pytest.mark.parametrize("calculus", ["default", "complete"])
    def test_table_and_its_views(self, sample, calculus):
        for doc in sample + [data.load(name) for name in data.NAMES]:
            theory = close(doc, calculus=calculus)
            for (form, s, p), tree in theory.trees.items():
                c = tree.conclusion
                assert (c.form, c.subject, c.predicate) == (form, s, p)
                if form in "EI":
                    assert (form, p, s) in theory.trees
            canonical = {t: d for t, d in theory.trees.items() if t[0] in "AO" or t[1] <= t[2]}
            assert [(p.sort_key(), d) for p, d in theory.derivations.items()] == list(canonical.items())
            assert all(str(p) == str(p.canonical()) for p in theory.derivations)
            for p, d in theory.derivations.items():
                assert explain(theory, p) is d
                if p.form in "EI":
                    assert explain(theory, p.swapped()) is d
            assert contradictions(theory) == sorted(
                (p.subject, d) for p, d in theory.derivations.items()
                if p.form == "O" and p.subject == p.predicate)
            for x, d in contradictions(theory):
                assert d is theory.derivations[O(x, x)]

    def test_derivations_are_read_only(self, animals):
        with pytest.raises(TypeError):
            close(animals).derivations[A("B", "B")] = None



def _derivable_documents() -> list[Ologism]:
    rng = random.Random(17)
    return ([random_ologism(rng) for _ in range(150)]
            + [random_ologism(rng, max_types=8, max_premisses=16) for _ in range(150)]
            + [random_document(rng) for _ in range(300)])


class TestDerivable:
    """``derivable`` is the set ``close`` finds, written the same way."""

    @pytest.mark.parametrize("calculus", ["default", "complete"])
    def test_equals_the_closure(self, calculus):
        for doc in _derivable_documents() + [data.load(name) for name in data.NAMES]:
            props, theory = derivable(doc, calculus), close(doc, calculus)
            assert props == theory.propositions(), doc
            assert sorted(map(str, props)) == sorted(map(str, theory.propositions())), doc

    @pytest.mark.parametrize("calculus", ["default", "complete"])
    def test_equals_the_closure_on_large_documents(self, calculus):
        rng = random.Random(18)
        for _ in range(20):
            doc = random_ologism(rng, max_types=120, max_premisses=160, min_types=40)
            assert derivable(doc, calculus) == close(doc, calculus).propositions(), doc.name

    def test_default_equals_naive_fixpoint(self):
        for doc in _derivable_documents():
            naive = naive_theory(doc.type_ids(), doc.premisses)
            assert derivable(doc) == frozenset().union(*naive.values()), doc

    def test_raises_as_close_raises(self, animals):
        broken = Ologism("bad", (TypeDecl("X", "an x"),), premisses=(A("X", "Y"),))
        for doc, calculus, error in [(animals, "classical", ValueError),
                                     (broken, "default", InvalidOlogismError)]:
            with pytest.raises(error) as by_close:
                close(doc, calculus)
            with pytest.raises(error) as by_derivable:
                derivable(doc, calculus)
            assert str(by_derivable.value) == str(by_close.value)


def _rendered(theory: Theory) -> list[tuple[str, str]]:
    return [(str(p), d.render()) for p, d in theory.derivations.items()]


def _subtrees(theory: Theory) -> list[Derivation]:
    out, stack = [], list(theory.derivations.values())
    while stack:
        out.append(stack.pop())
        stack.extend(out[-1].children)
    return out


class TestReuseAcrossCloses:
    """``close(doc, previous=...)`` keeps earlier trees without changing a byte."""

    def test_same_document_keeps_every_tree(self, sample):
        for doc in sample[:60] + [data.load(name) for name in data.NAMES]:
            for calculus in ("default", "complete"):
                before = close(doc, calculus=calculus)
                after = close(doc, calculus=calculus, previous=before)
                assert list(after.derivations) == list(before.derivations)
                assert list(after.trees) == list(before.trees)
                assert all(after.trees[t] is d for t, d in before.trees.items()), doc

    def test_unrelated_previous_changes_nothing(self):
        rng = random.Random(31)
        for _ in range(80):
            first, second = random_ologism(rng), random_ologism(rng)
            previous = close(first, calculus=rng.choice(["default", "complete"]))
            for calculus in ("default", "complete"):
                theory = close(second, calculus=calculus, previous=previous)
                assert _rendered(theory) == _rendered(close(second, calculus=calculus))
                for d in theory.derivations.values():
                    assert d.replay() == d.conclusion

    @pytest.mark.parametrize("before, after", [("complete", "default"), ("default", "complete")])
    def test_other_calculus_changes_nothing(self, sample, before, after):
        kept = 0
        for doc in sample:
            old = close(doc, calculus=before)
            theory = close(doc, calculus=after, previous=old)
            assert _rendered(theory) == _rendered(close(doc, calculus=after)), doc
            old_trees = {id(d) for d in _subtrees(old)}
            for d in _subtrees(theory):
                if id(d) in old_trees:
                    kept += 1
                    assert d.replay() == d.conclusion
        assert kept > 0

    def test_repl_writes_match_a_fresh_load(self, tmp_path):
        # Random add/retract scripts: after every write, what the session
        # shows equals what a session loading the saved document shows, and
        # every stored derivation is the reference's minimal one.
        rng = random.Random(2026)
        shared = 0
        for n in range(40):
            doc = random_ologism(rng, max_types=4, max_premisses=6)
            path = tmp_path / f"doc{n}.olgm"
            path.write_text(serialize(doc))
            session = Repl(io.StringIO())
            session.dispatch(f"load {path}")
            names = sorted(doc.type_ids())
            for _ in range(6):
                premisses = session.doc.premisses
                new = [(f, x, y) for f in "AEIO" for x in names for y in names
                       if (f, x) != ("A", y) and proposition(f, x, y) not in premisses]
                if premisses and (not new or rng.random() < 0.4):
                    p = rng.choice(premisses)
                    command = f"retract {p.form} {p.subject} {p.predicate}"
                else:
                    p = proposition(*rng.choice(new))
                    command = f"add {p.form} {p.subject} {p.predicate}"
                previous = session.theory  # alive, so no id below is reused
                session.dispatch(command)
                assert (p in session.doc.premisses) == command.startswith("add")
                before = {id(d) for d in _subtrees(previous)}
                shared += sum(id(d) in before for d in _subtrees(session.theory))

                saved = tmp_path / "saved.olgm"
                saved.write_text(serialize(session.doc))
                fresh = Repl(io.StringIO())
                fresh.dispatch(f"load {saved}")
                closure = sorted(session.theory.propositions(), key=lambda q: q.sort_key())
                queries = [f"why {q.form} {q.subject} {q.predicate}" for q in closure]
                for query in queries + ["derived", "contradictions"]:
                    assert self.shown(session, query) == self.shown(fresh, query), (command, query)
                assert_minimal_derivations(session.doc, "default", session.theory)
        assert shared > 0

    @staticmethod
    def shown(repl: Repl, line: str) -> str:
        repl.out = io.StringIO()
        repl.dispatch(line)
        return repl.out.getvalue()
