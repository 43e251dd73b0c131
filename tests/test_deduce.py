from __future__ import annotations

import io
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from ologism import data, deduce
from ologism.dsl import parse_ologism, serialize
from ologism.repl import Repl
from ologism.core import A, E, I, InvalidOlogismError, O, Ologism, TypeDecl, proposition, reading
from ologism.deduce import (
    _JOINS,
    Theory,
    beyond_premisses,
    close,
    contradictions,
    derivable,
    explain,
    replay,
    star_rows,
)
from ologism.syll import Rejection, enumerate_moods, mood_premisses, prove
from .oracles import (
    dropped,
    exact_consequences,
    exact_satisfiable,
    join_index,
    minimal_derivations,
    naive_theory,
    random_document,
    random_ologism,
)
from .test_cli import INCONCLUSIVE

ROOT = Path(__file__).resolve().parent.parent


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
        theory = close(animals)
        derivation = explain(theory, I("A", "V"))
        assert derivation.rule == "R4"
        assert [c.rule for c in derivation.children] == ["Symmetry", "Premiss"]
        assert derivation.children[0].children[0].conclusion == I("M", "A")
        assert replay(theory.steps, derivation.fact, theory.ologism) == ("I", "A", "V")

    def test_explain_o_va_uses_r7_with_bird_inclusion(self, animals):
        theory = close(animals)
        derivation = explain(theory, O("V", "A"))
        assert derivation.rule == "R7"
        assert derivation.children[0].conclusion == A("B", "V")
        assert replay(theory.steps, derivation.fact, theory.ologism) == ("O", "V", "A")

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
        theory = close(custodian)
        derivation = explain(theory, I("I", "H"))
        assert replay(theory.steps, derivation.fact, theory.ologism) == I("I", "H").sort_key()
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
        theory = close(doc)
        clashes = contradictions(theory)
        assert {x for x, _ in clashes} == {"S", "P"}
        by_type = dict(clashes)
        assert by_type["S"].rule == "R8"
        for x, derivation in clashes:
            assert replay(theory.steps, derivation.fact, theory.ologism) == ("O", x, x)

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
            assert_replays(close(random_ologism(rng)))

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
            assert_replays(close(doc, calculus="complete"))

    def test_replay_rejects_misshapen_steps(self):
        def step(conclusion, rule, child):
            """``conclusion`` by ``rule`` from the premiss ``child``, replayed."""
            t, c = _triple(conclusion), _triple(child)
            doc = Ologism.build("step", ["X", "Y", "Z"], premisses=[child])
            return replay({c: ("Premiss", (), 1), t: (rule, (c,), 2)}, t, doc)

        assert step(I("X", "X"), "Existence", O("X", "Y")) == ("I", "X", "X")
        assert step(E("X", "Z"), "Emptiness", E("X", "X")) == ("E", "X", "Z")
        assert step(O("Z", "Z"), "Explosion", O("X", "X")) == ("O", "Z", "Z")
        for bad in (
            (I("Y", "Y"), "Existence", I("X", "Y")),
            (I("X", "X"), "Existence", A("X", "Y")),
            (A("X", "Y"), "Emptiness", E("X", "Z")),
            (I("X", "Y"), "Emptiness", E("X", "X")),
            (O("Z", "Z"), "Explosion", O("X", "Y")),
            (O("Z", "Y"), "Explosion", O("X", "X")),
        ):
            with pytest.raises(ValueError):
                step(*bad)

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

    @staticmethod
    def join(tag, left, right, conclusion):
        """``conclusion`` by ``tag`` from the premisses ``left`` and
        ``right``, replayed; each keeps the orientation it is written in."""
        t, kids = _triple(conclusion), (_triple(left), _triple(right))
        steps = {kid: ("Premiss", (), 1) for kid in kids}
        steps[t] = (tag, kids, 2)
        return replay(steps, t, Ologism.build("join", ["Q", "X", "Y", "Z"], premisses=[left, right]))

    @pytest.mark.parametrize("rule, left, right, conclusion", JOINS, ids=[j[0] for j in JOINS])
    def test_replay_rejects_joins_without_a_shared_middle(self, rule, left, right, conclusion):
        assert self.join(rule, left, right, conclusion) == _triple(conclusion)
        # The right premiss's Y becomes Q: the two no longer share a middle term.
        unshared = proposition(right.form, *("Q" if t == "Y" else t for t in right.terms))
        with pytest.raises(ValueError, match=f"rule {rule} does not yield"):
            self.join(rule, left, unshared, conclusion)

    def test_replay_rejects_a_join_under_another_tag(self):
        _, left, right, conclusion = self.JOINS[2]  # an R3 instance
        with pytest.raises(ValueError, match="rule R2 does not yield"):
            self.join("R2", left, right, conclusion)

    def test_replay_rejects_a_child_swapped_for_a_sibling_fact(self, sample):
        # Every step of a table, one child at a time replaced by another
        # fact of the table of the same form, lower than the step and with
        # a step of its own.  (Under the complete calculus some swaps still
        # yield the fact: existence reads only a child's subject, explosion
        # any O(X,X).)
        mutants = 0
        for doc in sample[:40] + [data.load(name) for name in data.NAMES]:
            theory = close(doc)
            by_form: dict = {}
            for t in theory.steps:
                by_form.setdefault(t[0], []).append(t)
            for t, (rule, kids, height) in theory.steps.items():
                for k, kid in enumerate(kids):
                    lower = (f for f in by_form[kid[0]] if f != kid and theory.steps[f][2] < height)
                    sibling = next(lower, None)
                    if sibling is None:
                        continue
                    steps = dict(theory.steps)
                    steps[t] = (rule, kids[:k] + (sibling,) + kids[k + 1:], height)
                    with pytest.raises(ValueError, match=f"rule {rule} does not yield"):
                        replay(steps, t, theory.ologism)
                    mutants += 1
        assert mutants > 100

    def test_replay_rejects_a_child_no_lower_than_its_parent(self, animals):
        # A step that takes its own fact as a child: a cycle, not a derivation.
        theory = close(animals)
        t = ("I", "A", "V")
        rule, kids, height = theory.steps[t]
        steps = dict(theory.steps)
        steps[t] = (rule, (t,) + kids[1:], height)
        with pytest.raises(ValueError, match="no lower than"):
            replay(steps, t, theory.ologism)

    def test_replay_rejects_a_child_with_no_step(self, animals):
        theory = close(animals)
        t = ("I", "A", "V")
        rule, kids, height = theory.steps[t]
        steps = dict(theory.steps)
        del steps[kids[0]]
        with pytest.raises(ValueError, match=r"no step for \('I', 'A', 'M'\)"):
            replay(steps, t, theory.ologism)

    def test_replay_rejects_an_identity_over_another_type(self, animals):
        theory = close(animals)
        assert replay(theory.steps, ("A", "B", "B"), animals) == ("A", "B", "B")
        with pytest.raises(ValueError, match="rule Identity does not yield"):
            replay({("A", "W", "W"): ("Identity", (), 1)}, ("A", "W", "W"), animals)
        # A step the table's types allow, under a document that lacks its type.
        birdless = Ologism("birdless", tuple(t for t in animals.types if t.id != "B"))
        with pytest.raises(ValueError, match="rule Identity does not yield"):
            replay(theory.steps, ("A", "B", "B"), birdless)

    def test_replay_rejects_a_premiss_the_document_does_not_state(self, animals):
        # A forged leaf: animals states no O(B,B).
        with pytest.raises(ValueError, match=r"rule Premiss does not yield \('O', 'B', 'B'\)"):
            replay({("O", "B", "B"): ("Premiss", (), 1)}, ("O", "B", "B"), animals)
        # A stated premiss turned round is derived by symmetry, not stated,
        # and a forged leaf fails the derivation above it too.
        theory = close(animals)
        steps = dict(theory.steps)
        steps[("I", "A", "M")] = ("Premiss", (), 1)
        with pytest.raises(ValueError, match=r"rule Premiss does not yield \('I', 'A', 'M'\)"):
            replay(steps, ("I", "A", "M"), animals)
        with pytest.raises(ValueError, match=r"rule Premiss does not yield \('I', 'A', 'M'\)"):
            replay(steps, ("I", "A", "V"), animals)
        # The table's own premiss leaves replay.
        assert replay(theory.steps, ("I", "M", "A"), animals) == ("I", "M", "A")

    def test_replay_rejects_an_unknown_rule(self):
        with pytest.raises(ValueError, match="rule R9 does not yield"):
            replay({("A", "X", "X"): ("R9", (), 1)}, ("A", "X", "X"), Ologism.build("x", ["X"]))

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

    @pytest.mark.parametrize("calculus", ["default", "complete"])
    def test_named_aspects_are_ignored(self, calculus):
        # README "Known limits": f : X -> Y leaves Y nonempty wherever X is,
        # so E(Y,Y) beside I(X,X) has no model, yet neither calculus reads
        # the aspect.  ROADMAP item 2 (aspect rules) will change this.
        doc = parse_ologism(INCONCLUSIVE).value
        assert [a.name for a in doc.aspects if not a.is_flag] == ["f"]
        assert contradictions(close(doc, calculus)) == []

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


def _reference_form(steps: dict) -> dict:
    """``steps`` as ``minimal_derivations`` writes its table: each fact's
    height, rule and child triples."""
    return {t: (height, rule, kids) for t, (rule, kids, height) in steps.items()}


def assert_minimal_derivations(doc: Ologism, calculus: str, theory: Theory | None = None) -> None:
    """The step table (of ``theory``, or of ``doc`` closed here) is the
    reference's, step for step, and the theory holds exactly the
    reference's propositions."""
    theory = theory or close(doc, calculus=calculus)
    reference = minimal_derivations(doc.type_ids(), doc.premisses, calculus)
    assert _reference_form(theory.steps) == reference, doc
    assert theory.propositions() == {proposition(*t).canonical() for t in reference}, doc


def assert_replays(theory: Theory) -> None:
    """``deduce.replay`` accepts every fact of ``theory``'s table."""
    for t in theory.steps:
        assert replay(theory.steps, t, theory.ologism) == t


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


class TestTreesBelow:
    """``star_rows(doc).steps_below(goals)`` gives each fact below the
    derivable goals the step ``close`` stores for it, from a fresh pass over
    the premisses below those goals, so each goal's derivation in that table
    is ``close``'s, step for step, and replays; a goal that is not derivable
    is absent.  The rows serve the default calculus only."""

    @staticmethod
    def check(doc: Ologism, calculus: str, rng: random.Random, extra: tuple = ()) -> int:
        """The number of contradictions checked."""
        theory = close(doc, calculus=calculus)
        reference = minimal_derivations(doc.type_ids(), doc.premisses, calculus)
        names = sorted(doc.type_ids())
        clashes = [t for t in theory.steps if t[0] == "O" and t[1] == t[2]]
        drawn = rng.sample(sorted(theory.steps), min(6, len(theory.steps)))
        drawn += [(form, p, s) for form, s, p in drawn if form in "EI"]  # both orientations
        absent = [t for t in ((rng.choice("AEIO"), rng.choice(names), rng.choice(names))
                              for _ in range(6)) if t not in theory.steps]
        rows = star_rows(doc)
        for goals in (clashes, list(dict.fromkeys(drawn + list(extra) + absent))):
            got = rows.steps_below(goals)
            derivable = [g for g in goals if g in theory.steps]
            assert [g for g in goals if g in got] == derivable, doc.name
            for t, step in got.items():
                assert step == theory.steps[t], (doc.name, t)
            assert _reference_form(got) == {t: reference[t] for t in got}, doc.name
            for g in derivable:  # every child is below its goal
                assert replay(got, g, doc) == g
        return len(clashes)

    @pytest.mark.parametrize("calculus", ["default"])
    def test_sample(self, sample, calculus):
        rng = random.Random(51)
        assert sum(self.check(doc, calculus, rng) for doc in sample) > 0

    @pytest.mark.parametrize("calculus", ["default"])
    def test_sample_with_an_identity_premissed(self, sample, calculus):
        # An identity outranks an A(X,X) premiss, below the goals as in close.
        rng = random.Random(52)
        for doc in sample[:100]:
            x = rng.choice(sorted(doc.type_ids()))
            doc = _with(doc, [A(x, x)])
            self.check(doc, calculus, rng, extra=(("A", x, x),))

    @pytest.mark.parametrize("calculus", ["default"])
    @pytest.mark.parametrize("name", data.NAMES)
    def test_bundled(self, name, calculus):
        self.check(data.load(name), calculus, random.Random(53))

    @pytest.mark.parametrize("calculus", ["default"])
    def test_only_facts_below_the_goals_are_seeded(self, sample, calculus, monkeypatch):
        # One fresh pass, seeded with the premisses below the goals and
        # none above, and only the facts below the goals are returned.
        belows, seeds = [], []
        below, saturate = deduce.StarRows._below, deduce._saturate
        monkeypatch.setattr(deduce.StarRows, "_below",
                            lambda self, goals: belows.append(below(self, goals)) or belows[-1])
        monkeypatch.setattr(deduce, "_saturate", lambda *args: seeds.append(set(args[4])) or saturate(*args))
        cut = 0
        for doc in sample:
            rows = star_rows(doc)
            got = rows.steps_below(rows.triples()[-2:])
            assert len(belows) == len(seeds) and seeds[-1] <= belows[-1] and set(got) <= belows[-1], doc.name
            cut += len(seeds[-1]) < len(doc._premiss_triples)
        assert seeds and cut > 0

    @pytest.mark.parametrize("n_types, per_type", [(40, 2), (80, 2), (120, 1), (160, 1), (160, 2)])
    def test_large_documents(self, n_types, per_type):
        assert self.check(_premiss_only(n_types, per_type, seed=n_types), "default", random.Random(54)) > 0

    def test_no_goals_no_trees(self, animals):
        assert star_rows(animals).steps_below([]) == {}


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
    """``Theory.steps`` holds every oriented fact; the rest reads it."""

    @pytest.mark.parametrize("calculus", ["default", "complete"])
    def test_table_and_its_views(self, sample, calculus):
        for doc in sample + [data.load(name) for name in data.NAMES]:
            theory = close(doc, calculus=calculus)
            steps = theory.steps
            for form, s, p in steps:
                if form in "EI":
                    assert (form, p, s) in steps
            # One build shares each fact's view among the views above it,
            # and a view reads its rule and children from the table.
            built = deduce._trees(steps, steps)
            for t, tree in built.items():
                assert tree.steps is steps and tree.fact == t and tree.conclusion == proposition(*t)
                assert (tree.rule, tuple(c.fact for c in tree.children)) == steps[t][:2]
                assert all(c is built[c.fact] for c in tree.children), t
                assert tree.render(1) == deduce.render(steps, t, 1)
            canonical = [t for t in steps if t[0] in "AO" or t[1] <= t[2]]
            assert [p.sort_key() for p in theory.derivations] == canonical
            assert all(str(p) == str(p.canonical()) for p in theory.derivations)
            for p, d in theory.derivations.items():
                assert d.steps is steps and d.fact == p.sort_key()
                assert explain(theory, p).fact == d.fact
                if p.form in "EI":
                    assert explain(theory, p.swapped()).fact == d.fact
            clashes = contradictions(theory)
            assert [x for x, _ in clashes] == sorted(
                p.subject for p in theory.derivations if p.form == "O" and p.subject == p.predicate)
            for x, d in clashes:
                assert d.steps is steps and d.fact == ("O", x, x)
            triples = theory.triples()
            if calculus == "default":  # the rows serve the default calculus only
                assert triples == star_rows(doc).triples(), doc.name
            derived = theory.derived_beyond_premisses()
            assert derived == {proposition(*t) for t in beyond_premisses(triples, doc.premisses, doc.type_ids())}
            identities = {A(t, t) for t in doc.type_ids()}
            assert derived == theory.propositions() - set(doc.premisses) - identities, doc.name

    def test_derivations_are_read_only(self, animals):
        with pytest.raises(TypeError):
            close(animals).derivations[A("B", "B")] = None

    @pytest.mark.parametrize("calculus", ["default"])
    def test_render_writes_the_built_tree(self, sample, calculus):
        # ``deduce.render`` writes each goal's derivation from the steps the
        # rows find below some goals as it writes it from the table's
        # steps, byte for byte.  The rows serve the default calculus only.
        for doc in sample + _derivable_documents()[:150] + [data.load(name) for name in data.NAMES]:
            theory = close(doc, calculus=calculus)
            goals = list(theory.steps)
            clashes = [t for t in goals if t[0] == "O" and t[1] == t[2]]
            rows = star_rows(doc)
            for some in (goals, clashes):
                below = rows.steps_below(some)
                for g in some:
                    assert deduce.render(below, g) == deduce.render(theory.steps, g), (doc.name, g)



def _derivable_documents() -> list[Ologism]:
    rng = random.Random(17)
    return ([random_ologism(rng) for _ in range(150)]
            + [random_ologism(rng, max_types=8, max_premisses=16) for _ in range(150)]
            + [random_document(rng) for _ in range(300)])


def assert_sorted_triples(doc: Ologism, props: frozenset) -> None:
    """``StarRows.triples`` lists ``props``, the derivable set, each once,
    canonically oriented and in ``sort_key`` order."""
    triples = star_rows(doc).triples()
    assert triples == sorted(p.sort_key() for p in props), doc.name
    assert len(set(triples)) == len(triples), doc.name
    assert all(s <= p for form, s, p in triples if form in "EI"), doc.name


class TestDerivable:
    """``derivable`` is the set ``close`` finds under the default calculus,
    written the same way, and ``StarRows.triples`` lists it in sort order."""

    @pytest.mark.parametrize("calculus", ["default"])
    def test_equals_the_closure(self, calculus):
        for doc in _derivable_documents() + [data.load(name) for name in data.NAMES]:
            props, theory = derivable(doc), close(doc, calculus)
            assert props == theory.propositions(), doc
            assert sorted(map(str, props)) == sorted(map(str, theory.propositions())), doc
            assert_sorted_triples(doc, props)

    @pytest.mark.parametrize("calculus", ["default"])
    def test_equals_the_closure_on_large_documents(self, calculus):
        rng = random.Random(18)
        for _ in range(20):
            doc = random_ologism(rng, max_types=120, max_premisses=160, min_types=40)
            props = derivable(doc)
            assert props == close(doc, calculus).propositions(), doc.name
            assert_sorted_triples(doc, props)

    def test_default_equals_naive_fixpoint(self):
        for doc in _derivable_documents():
            naive = naive_theory(doc.type_ids(), doc.premisses)
            assert derivable(doc) == frozenset().union(*naive.values()), doc

    def test_raises_as_close_raises(self, animals):
        with pytest.raises(ValueError, match="calculus must be one of default, complete, got 'classical'"):
            close(animals, "classical")
        broken = Ologism("bad", (TypeDecl("X", "an x"),), premisses=(A("X", "Y"),))
        with pytest.raises(InvalidOlogismError) as by_close:
            close(broken)
        for rows in (derivable, star_rows):
            with pytest.raises(InvalidOlogismError) as by_rows:
                rows(broken)
            assert str(by_rows.value) == str(by_close.value)


def _relation(rng: random.Random, n: int, density: float) -> list[int]:
    return [sum(1 << y for y in range(n) if rng.random() < density) for _ in range(n)]


def _star_rows_documents() -> list[Ologism]:
    """Documents with A cycles, self premisses, isolated types and dense E
    and I rows, beside random ones."""
    def doc(name, types, premisses):
        return Ologism.build(name, types, premisses=premisses)

    docs = [
        doc("cycle", ["X", "Y", "Z"], [A("X", "Y"), A("Y", "X"), E("Y", "Z")]),
        doc("long-cycle", ["P", "Q", "R", "S"], [A("P", "Q"), A("Q", "R"), A("R", "P"), I("S", "R"), O("S", "P")]),
        doc("self", ["X", "Y"], [E("X", "X"), O("X", "X"), I("Y", "Y"), A("Y", "X")]),
        doc("isolated", ["U", "V", "W", "X"], [A("U", "V"), O("V", "U")]),
        doc("alone", ["X"], []),
        doc("dense", [f"T{k}" for k in range(9)],
            [E("T0", f"T{k}") for k in range(1, 9)] + [I("T1", f"T{k}") for k in range(2, 9)]
            + [A("T2", "T3"), A("T3", "T4"), A("T4", "T2")]),
    ]
    rng = random.Random(23)
    for k in range(60):
        names = [f"T{j}" for j in range(rng.randint(1, 12))]
        isolated = names[-rng.randint(0, 2):] if len(names) > 2 else []
        linked = [t for t in names if t not in isolated] or names
        premisses, seen = [], set()
        for _ in range(rng.randint(0, 3 * len(linked))):
            form, x, y = rng.choice("AAEIO"), rng.choice(linked), rng.choice(linked)
            prop = proposition(form, x, y)
            if prop not in seen and (form, x) != ("A", y):
                premisses.append(prop)
                seen.add(prop)
        docs.append(doc(f"random-{k}", names, premisses))
    return docs


class TestStarKernel:
    """The bitset kernel behind ``star_rows``: ``_scatter`` through a
    converse is ``_compose``, and the rows are the naive fixpoint's."""

    def test_scatter_through_the_converse_composes(self):
        rng = random.Random(29)
        for n in [0, 1, 2, 3, 7, 64, 65, 130] + [rng.randint(0, 130) for _ in range(12)]:
            full, identity = [(1 << n) - 1] * n, [1 << x for x in range(n)]
            relations = [[0] * n, full, identity] + [_relation(rng, n, d) for d in (0.01, 0.05, 0.3, 0.9)]
            for left in relations:
                for right in relations:
                    assert deduce._scatter(deduce._converse(left), right) == deduce._compose(left, right), n

    def test_converse_and_reach(self):
        rng = random.Random(31)
        for n in [0, 1, 5, 40, 130]:
            rows = _relation(rng, n, 2 / max(n, 1))
            converse = deduce._converse(rows)
            assert all((rows[x] >> y & 1) == (converse[y] >> x & 1) for x in range(n) for y in range(n))
            assert deduce._converse(converse) == rows
            reach = deduce._reach(rows)
            for x in range(n):
                seen, stack = {x}, [x]
                while stack:
                    y = stack.pop()
                    for z in range(n):
                        if rows[y] >> z & 1 and z not in seen:
                            seen.add(z)
                            stack.append(z)
                assert reach[x] == sum(1 << z for z in seen), (n, x)

    def test_rows_equal_the_naive_fixpoint(self):
        for doc in _star_rows_documents():
            stars = star_rows(doc)
            naive = naive_theory(doc.type_ids(), doc.premisses)
            facts = {t for props in naive.values() for p in props
                     for t in (_triple(p), _triple(p.swapped()) if p.form in "EI" else _triple(p))}
            for form, rows in stars.rows.items():
                for x, s in enumerate(stars.types):
                    for y, p in enumerate(stars.types):
                        assert (rows[x] >> y & 1) == ((form, s, p) in facts), (doc.name, form, s, p)
            assert stars.down == deduce._converse(stars.rows["A"]), doc.name
            assert stars.triples() == sorted(p.sort_key() for props in naive.values() for p in props), doc.name


def _rendered(theory: Theory) -> list[tuple[str, str]]:
    return [(str(p), d.render()) for p, d in theory.derivations.items()]


def _kept(previous: Theory, theory: Theory) -> int:
    """The facts of ``previous`` that keep their step and their place in
    ``theory``'s table."""
    return sum(a == b for a, b in zip(previous.steps.items(), theory.steps.items()))


class TestReuseAcrossCloses:
    """``close(doc, previous=...)`` keeps earlier steps without changing a byte."""

    def test_same_document_keeps_every_tree(self, sample):
        for doc in sample[:60] + [data.load(name) for name in data.NAMES]:
            for calculus in ("default", "complete"):
                before = close(doc, calculus=calculus)
                after = close(doc, calculus=calculus, previous=before)
                assert list(after.derivations) == list(before.derivations)
                assert list(after.steps.items()) == list(before.steps.items()), doc

    def test_unrelated_previous_changes_nothing(self):
        rng = random.Random(31)
        for _ in range(80):
            first, second = random_ologism(rng), random_ologism(rng)
            previous = close(first, calculus=rng.choice(["default", "complete"]))
            for calculus in ("default", "complete"):
                theory = close(second, calculus=calculus, previous=previous)
                assert _table(theory) == _table(close(second, calculus=calculus))
                assert_replays(theory)

    @pytest.mark.parametrize("before, after", [("complete", "default"), ("default", "complete")])
    def test_other_calculus_changes_nothing(self, sample, before, after):
        for doc in sample:
            theory = close(doc, calculus=after, previous=close(doc, calculus=before))
            assert _rendered(theory) == _rendered(close(doc, calculus=after)), doc
            assert_replays(theory)

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
                if rng.random() < 0.15:
                    p = f"N{len(names)}"
                    names.append(p)
                    command = f'add type {p} "a new type"'
                elif premisses and (not new or rng.random() < 0.4):
                    p = rng.choice(premisses)
                    command = f"retract {p.form} {p.subject} {p.predicate}"
                else:
                    p = proposition(*rng.choice(new))
                    command = f"add {p.form} {p.subject} {p.predicate}"
                previous = session.theory
                session.out = io.StringIO()
                session.dispatch(command)
                if command.startswith("add type"):
                    assert p in session.doc.type_ids()
                else:
                    assert (p in session.doc.premisses) == command.startswith("add")
                if command.startswith("add"):
                    assert session.out.getvalue() == self.printed_by_add(session, previous), command
                shared += _kept(previous, session.theory)

                saved = tmp_path / "saved.olgm"
                saved.write_text(serialize(session.doc))
                fresh = Repl(io.StringIO())
                fresh.dispatch(f"load {saved}")
                closure = sorted(session.theory.propositions(), key=lambda q: q.sort_key())
                queries = [f"why {q.form} {q.subject} {q.predicate}" for q in closure]
                for query in queries + ["derived", "contradictions"]:
                    assert self.shown(session, query) == self.shown(fresh, query), (command, query)
                assert self.shown(session, "derived") == self.derived_by_reference(session), command
                assert_minimal_derivations(session.doc, "default", session.theory)
        assert shared > 0

    @staticmethod
    def printed_by_add(repl: Repl, previous: Theory) -> str:
        """What an ``add`` that turned ``previous`` into ``repl.theory``
        prints, from the two proposition sets and contradiction lists."""
        theory, lines = repl.theory, []
        fresh = sorted(theory.propositions() - previous.propositions(), key=lambda q: q.sort_key())
        fresh = [q for q in fresh if q.form != "A" or q.subject != q.predicate]
        if fresh:
            lines = ["now derivable:"] + [f'  {q}   "{reading(q, repl.doc)}"' for q in fresh]
        clashed = {x for x, _ in contradictions(previous)}
        for x, d in contradictions(theory):
            if x not in clashed:
                lines += [f'CONTRADICTION: O({x},{x}) "{reading(proposition("O", x, x), repl.doc)}"', d.render(indent=1)]
        return "".join(line + "\n" for line in lines)

    @staticmethod
    def derived_by_reference(repl: Repl) -> str:
        """What ``derived`` prints, from ``naive_theory`` less the premisses
        and the identities, in ``sort_key`` order."""
        doc = repl.doc
        stated = {q.sort_key() for q in doc.premisses} | {("A", t, t) for t in doc.type_ids()}
        closure = naive_theory(doc.type_ids(), doc.premisses)
        beyond = sorted(q.sort_key() for star in closure.values() for q in star if q.sort_key() not in stated)
        lines = [f'  {q}   "{reading(q, repl.doc)}"' for q in [proposition(*t) for t in beyond]]
        return "".join(line + "\n" for line in lines or ["nothing beyond the premisses"])

    @staticmethod
    def shown(repl: Repl, line: str) -> str:
        repl.out = io.StringIO()
        repl.dispatch(line)
        return repl.out.getvalue()


def _table(theory: Theory) -> dict:
    """Each oriented fact's rule, child triples and height, in no order.
    Each child must be a fact of the table, and each height one more than
    the tallest child's (1 for a leaf), so by induction on height two equal
    tables render every tree alike."""
    steps = theory.steps
    for t, (_, kids, height) in steps.items():
        assert height == 1 + max([steps[c][2] for c in kids], default=0), t
    return dict(steps)


def _new_premisses(rng: random.Random, doc: Ologism, k: int = 1) -> tuple:
    """Up to ``k`` distinct random premisses ``doc`` lacks, A(X,X) among
    them, each E or I premiss in a random orientation."""
    names, held, new = doc.type_ids(), set(doc.premisses), []
    for _ in range(100 * k):
        p = proposition(rng.choice("AEIO"), rng.choice(names), rng.choice(names))
        if p not in held:
            held.add(p)
            new.append(p)
            if len(new) == k:
                break
    return tuple(new)


def _with(doc: Ologism, premisses) -> Ologism:
    return doc.replace_premisses(doc.premisses + tuple(premisses))


class TestExtend:
    """``close(doc, previous=theory)``, where ``doc`` adds types or premisses
    to those ``theory`` was closed from, extends ``theory``'s table: every
    step equals a fresh close's, and a previous fact keeps its place and
    changes its step only to a lower (height, rule, child triples)."""

    @staticmethod
    def extend(doc: Ologism, calculus: str, previous: Theory, reference: bool = True) -> Theory:
        theory = close(doc, calculus=calculus, previous=previous)
        assert _table(theory) == _table(close(doc, calculus=calculus)), doc.name
        # Extended, not re-run: the previous facts keep their places.
        assert list(theory.steps)[:len(previous.steps)] == list(previous.steps)
        for t, (rule, kids, height) in previous.steps.items():
            new = theory.steps[t]
            assert (new[2], new[0], new[1]) <= (height, rule, kids), (doc.name, t)
        if reference:
            assert_minimal_derivations(doc, calculus, theory)
        return theory

    @pytest.mark.parametrize("calculus", ["default", "complete"])
    def test_random_add_sequences(self, calculus):
        rng = random.Random(19)
        for _ in range(120):
            doc = random_ologism(rng, max_types=8, max_premisses=16)
            premisses = list(doc.premisses)
            rng.shuffle(premisses)
            kept = rng.randrange(len(premisses) + 1)
            doc = doc.replace_premisses(premisses[:kept])
            theory = close(doc, calculus=calculus)
            for p in premisses[kept:] + list(_new_premisses(rng, doc, 2)):
                if p not in doc.premisses:
                    doc = _with(doc, [p])
                    theory = self.extend(doc, calculus, theory)

    @pytest.mark.parametrize("calculus", ["default", "complete"])
    def test_adds_to_large_documents(self, calculus):
        rng = random.Random(20)
        for _ in range(20):
            doc = random_ologism(rng, max_types=120, max_premisses=160, min_types=40)
            if calculus == "complete" and len(doc.types) > 50:
                continue  # its closure nears every proposition
            theory = close(doc, calculus=calculus)
            for step in range(4):
                doc = _with(doc, _new_premisses(rng, doc))
                # The reference's nested loops are slow at this size: it
                # checks the last step, and the default calculus only.
                theory = self.extend(doc, calculus, theory, step == 3 and calculus == "default")

    def test_several_premisses_at_once(self):
        rng = random.Random(21)
        for _ in range(60):
            doc = random_ologism(rng, max_types=8, max_premisses=10)
            calculus = rng.choice(["default", "complete"])
            theory = close(doc, calculus=calculus)
            self.extend(_with(doc, _new_premisses(rng, doc, rng.randint(2, 5))), calculus, theory)

    def test_the_repl_adds_by_extension(self, tmp_path):
        rng = random.Random(22)
        for n in range(20):
            doc = random_ologism(rng, max_types=6, max_premisses=8)
            path = tmp_path / f"doc{n}.olgm"
            path.write_text(serialize(doc))
            session = Repl(io.StringIO())
            session.dispatch(f"load {path}")
            for p in _new_premisses(rng, session.doc, 4):
                previous = session.theory
                session.dispatch(f"add {p.form} {p.subject} {p.predicate}")
                assert list(session.theory.steps)[:len(previous.steps)] == list(previous.steps)
                assert _table(session.theory) == _table(close(session.doc))

    @pytest.mark.parametrize("calculus", ["default", "complete"])
    def test_added_types(self, calculus):
        # One to three new types, sometimes with premisses on them: the
        # table is extended, and under the complete calculus emptiness and
        # explosion reach the new types from the old facts.
        rng = random.Random(28)
        for _ in range(150):
            doc = random_ologism(rng, max_types=6, max_premisses=12)
            theory = close(doc, calculus=calculus)
            new = tuple(TypeDecl(f"N{k}", f"a new type {k}") for k in range(rng.randint(1, 3)))
            doc = Ologism.build(doc.name, doc.types + new, premisses=doc.premisses)
            if rng.random() < 0.5:
                doc = _with(doc, [p for p in _new_premisses(rng, doc, 3)
                                  if {p.subject, p.predicate} & {t.id for t in new}])
            self.extend(doc, calculus, theory)

    def test_other_theories_take_the_full_pass(self):
        # Another calculus: the table is built afresh, in a fresh close's
        # order.  (A premiss gone and another added is a reuse, tested in
        # ``TestMixedWrites``.)
        rng = random.Random(23)
        for _ in range(100):
            doc = random_ologism(rng, max_types=8, max_premisses=16)
            calculus, other = rng.sample(["default", "complete"], 2)
            previous = close(doc, calculus=calculus)
            for variant, calc in [(doc, other), (_with(doc, _new_premisses(rng, doc)), other)]:
                theory, fresh = close(variant, calc, previous=previous), close(variant, calc)
                assert list(theory.steps) == list(fresh.steps), variant.name
                assert _table(theory) == _table(fresh), variant.name

    @pytest.mark.parametrize("calculus", ["default", "complete"])
    def test_every_step_is_one_taller_than_its_tallest_child(self, calculus):
        # On every table a fresh pass, an extension and a shrink leave; a
        # leaf has height 1.
        rng = random.Random(29)
        for _ in range(80):
            doc = random_ologism(rng, max_types=8, max_premisses=12)
            theory = close(doc, calculus=calculus)
            bigger = _with(doc, _new_premisses(rng, doc, rng.randint(1, 3)))
            smaller = _without(bigger, rng.sample(bigger.premisses, rng.randint(0, len(bigger.premisses))))
            for after in (bigger, smaller):
                theory = close(after, calculus=calculus, previous=theory)
                steps = theory.steps
                for t, (rule, kids, height) in steps.items():
                    assert height == 1 + max([steps[c][2] for c in kids], default=0), t
                    assert (height == 1) == (rule in ("Identity", "Premiss")), t


def _without(doc: Ologism, premisses) -> Ologism:
    return doc.replace_premisses(tuple(p for p in doc.premisses if p not in premisses))


def _leaning(previous: Theory, doc: Ologism) -> set:
    """The facts of ``previous`` whose derivations have a premiss leaf that
    ``doc`` no longer holds."""
    held, leans = {_triple(p) for p in doc.premisses}, {}

    def leaning(t) -> bool:
        if t not in leans:
            rule, kids, _ = previous.steps[t]
            leans[t] = rule == "Premiss" and t not in held or any(map(leaning, kids))
        return leans[t]

    return set(filter(leaning, previous.steps))


class TestRetract:
    """``close(doc, previous=theory)``, where ``doc`` holds some of the
    premisses ``theory`` was closed from, drops the facts whose derivations
    lean on a removed premiss and derives them again where it can: every
    step equals a fresh close's, and every fact whose derivation uses no
    removed premiss keeps its step and its place."""

    @staticmethod
    def retract(doc: Ologism, calculus: str, previous: Theory, reference: bool = True) -> Theory:
        theory = close(doc, calculus=calculus, previous=previous)
        assert _table(theory) == _table(close(doc, calculus=calculus)), doc.name
        leaning = _leaning(previous, doc)
        kept = [t for t in previous.steps if t not in leaning]
        # The surviving facts keep their places and their steps.
        assert list(theory.steps)[:len(kept)] == kept, doc.name
        assert all(theory.steps[t] == previous.steps[t] for t in kept), doc.name
        if reference:
            assert_minimal_derivations(doc, calculus, theory)
        return theory

    @pytest.mark.parametrize("calculus", ["default", "complete"])
    def test_random_retract_sequences(self, calculus):
        rng = random.Random(24)
        rederived = 0
        for _ in range(120):
            doc = random_ologism(rng, max_types=8, max_premisses=16)
            theory = close(doc, calculus=calculus)
            premisses = list(doc.premisses)
            rng.shuffle(premisses)
            for p in premisses[:rng.randint(1, len(premisses) or 1)]:
                doc, previous = _without(doc, [p]), theory
                theory = self.retract(doc, calculus, previous)
                rederived += len(_leaning(previous, doc) & theory.steps.keys())
        assert rederived > 0  # some dropped facts were derived again

    @pytest.mark.parametrize("calculus", ["default", "complete"])
    def test_retracts_from_large_documents(self, calculus):
        rng = random.Random(25)
        for _ in range(20):
            doc = random_ologism(rng, max_types=120, max_premisses=160, min_types=40)
            if calculus == "complete" and len(doc.types) > 50:
                continue  # its closure nears every proposition
            theory = close(doc, calculus=calculus)
            for step, p in enumerate(rng.sample(doc.premisses, min(4, len(doc.premisses)))):
                doc = _without(doc, [p])
                # The reference's nested loops are slow at this size: it
                # checks the last step, and the default calculus only.
                theory = self.retract(doc, calculus, theory, step == 3 and calculus == "default")

    def test_several_premisses_at_once(self):
        rng = random.Random(26)
        for _ in range(60):
            doc = random_ologism(rng, max_types=8, max_premisses=10)
            if len(doc.premisses) < 2:
                continue
            calculus = rng.choice(["default", "complete"])
            gone = rng.sample(doc.premisses, rng.randint(2, len(doc.premisses)))
            self.retract(_without(doc, gone), calculus, close(doc, calculus=calculus))

    def test_a_premiss_gone_takes_the_removal_path(self):
        # The first premiss removed, under the calculus previous was closed in.
        rng = random.Random(23)
        for _ in range(100):
            doc = random_ologism(rng, max_types=8, max_premisses=16)
            if doc.premisses:
                calculus = rng.choice(["default", "complete"])
                previous = close(doc, calculus=calculus)
                self.retract(doc.replace_premisses(doc.premisses[1:]), calculus, previous)

    def test_the_repl_interleaves_adds_and_retracts(self, tmp_path):
        rng = random.Random(27)
        for n in range(20):
            doc = random_ologism(rng, max_types=6, max_premisses=8)
            path = tmp_path / f"doc{n}.olgm"
            path.write_text(serialize(doc))
            session = Repl(io.StringIO())
            session.dispatch(f"load {path}")
            for _ in range(8):
                previous, premisses = session.theory, session.doc.premisses
                if premisses and rng.random() < 0.5:
                    p = rng.choice(premisses)
                    session.out = io.StringIO()
                    session.dispatch(f"retract {p.form} {p.subject} {p.predicate}")
                    assert session.out.getvalue() == f"retracted {p}\n"
                    self.retract(session.doc, "default", previous)
                else:
                    for p in _new_premisses(rng, session.doc):
                        session.dispatch(f"add {p.form} {p.subject} {p.predicate}")
                    assert _table(session.theory) == _table(close(session.doc))


class TestMixedWrites:
    """``close(doc, previous=theory)``, where ``doc`` drops some of
    ``theory``'s premisses and adds others, at times with new types or an E
    or I premiss turned round, takes the one reuse path: every step equals
    a fresh close's, the facts that leaned on no removed premiss keep their
    places, every fact of the result replays, and its join index is a
    rebuild's."""

    @pytest.mark.parametrize("calculus", ["default", "complete"])
    def test_drop_and_add_at_once(self, calculus):
        rng = random.Random(30)
        writes = with_types = turned = 0
        while writes < 520:
            doc = random_ologism(rng, max_types=8, max_premisses=16)
            theory = close(doc, calculus=calculus)
            for _ in range(4):
                if not doc.premisses:
                    break
                gone = rng.sample(doc.premisses, rng.randint(1, min(3, len(doc.premisses))))
                after = _without(doc, gone)
                if rng.random() < 0.3:
                    new = tuple(TypeDecl(f"N{len(after.types) + k}", "a new type") for k in range(rng.randint(1, 2)))
                    after = Ologism.build(after.name, after.types + new, premisses=after.premisses)
                    with_types += 1
                sided = [p for p in gone if p.form in "EI" and p.subject != p.predicate]
                if sided and rng.random() < 0.5:
                    after = _with(after, [sided[0].swapped()])
                    turned += 1
                else:
                    after = _with(after, _new_premisses(rng, after, rng.randint(1, 3)))
                previous, theory = theory, close(after, calculus=calculus, previous=theory)
                assert _table(theory) == _table(close(after, calculus=calculus)), after.name
                leaning = _leaning(previous, after)
                kept = [t for t in previous.steps if t not in leaning]
                assert list(theory.steps)[:len(kept)] == kept, after.name
                assert_replays(theory)
                assert theory.index == join_index(theory.steps), after.name
                doc, writes = after, writes + 1
        assert with_types > 50 and turned > 50


class TestKeptIndex:
    """``Theory.index`` is the join index ``close`` built, each key's facts
    a tuple, kept for a later close, which starts from a copy of its
    dictionary and writes each key it changes as a new tuple: ``previous``
    is never changed, every other key's tuple is shared with it, and each
    result's index is a rebuild from its table.  The index files no
    identity A(X,X), and neither does ``join_index``, the rebuild."""

    @pytest.mark.parametrize("calculus", ["default", "complete"])
    def test_two_writes_from_one_previous(self, calculus):
        rng = random.Random(33)
        shared = 0
        for _ in range(150):
            doc = random_ologism(rng, max_types=8, max_premisses=16)
            previous = close(doc, calculus=calculus)
            steps, index = list(previous.steps.items()), dict(previous.index)
            writes = []
            for _ in range(2):
                after = _without(doc, rng.sample(doc.premisses, rng.randint(0, min(3, len(doc.premisses)))))
                if rng.random() < 0.3:
                    after = Ologism.build(after.name, after.types + (TypeDecl("N", "a new type"),),
                                          premisses=after.premisses)
                writes.append(_with(after, _new_premisses(rng, after, rng.randint(0, 3))))
            theories = [close(after, calculus=calculus, previous=previous) for after in writes]
            assert list(previous.steps.items()) == steps, doc.name
            assert previous.index == index, doc.name
            for after, theory in zip(writes, theories):
                # The same write from a copy of ``previous`` that shares no
                # tuple, its index rebuilt from its table.
                alone = replace(previous, steps=dict(steps), index=join_index(previous.steps))
                assert list(theory.steps.items()) == list(close(after, calculus, previous=alone).steps.items())
                assert _table(theory) == _table(close(after, calculus=calculus)), after.name
                assert theory.index == join_index(theory.steps), after.name
                moved = _leaning(previous, after) | set(theory.steps).difference(previous.steps)
                changed = {k for form, x, y in moved for k in ((form, 1, x), (form, 2, y))}
                for key, facts in previous.index.items():
                    if key in changed:
                        assert theory.index.get(key) is not facts, (after.name, key)
                    else:
                        assert theory.index[key] is facts, (after.name, key)
                        shared += 1
        assert shared > 0

    def test_a_fresh_pass_builds_the_index(self, sample):
        for doc in sample[:60]:
            theory = close(doc)
            assert theory.index == join_index(theory.steps), doc.name


class TestBranchingHistories:
    """A chain of writes, each closed from a randomly chosen earlier theory
    of the chain rather than the latest: every result equals a fresh
    close, and no later write changes an earlier theory's table or index."""

    @pytest.mark.parametrize("calculus", ["default", "complete"])
    def test_writes_from_earlier_theories(self, calculus):
        rng = random.Random(35)
        kinds, older = {"add": 0, "retract": 0, "mixed": 0, "types": 0}, 0
        for _ in range(30):
            chain = [close(random_ologism(rng, max_types=7, max_premisses=12), calculus=calculus)]
            snapshots = [(list(chain[0].steps.items()), dict(chain[0].index))]
            for _ in range(20):
                previous = rng.choice(chain)
                older += previous is not chain[-1]
                doc = previous.ologism
                kind = rng.choice(list(kinds) if doc.premisses else ["add", "types"])
                kinds[kind] += 1
                if kind in ("retract", "mixed"):
                    doc = _without(doc, rng.sample(doc.premisses, rng.randint(1, min(3, len(doc.premisses)))))
                if kind == "types":
                    new = tuple(TypeDecl(f"N{len(doc.types) + k}", "a new type") for k in range(rng.randint(1, 2)))
                    doc = Ologism.build(doc.name, doc.types + new, premisses=doc.premisses)
                if kind != "retract":
                    doc = _with(doc, _new_premisses(rng, doc, rng.randint(0 if kind == "types" else 1, 3)))
                theory = close(doc, calculus=calculus, previous=previous)
                assert _table(theory) == _table(close(doc, calculus=calculus)), doc.name
                assert theory.index == join_index(theory.steps), doc.name
                chain.append(theory)
                snapshots.append((list(theory.steps.items()), dict(theory.index)))
            for theory, (steps, index) in zip(chain, snapshots):
                assert list(theory.steps.items()) == steps, theory.ologism.name
                assert theory.index == index, theory.ologism.name
        assert min(kinds.values()) > 50 and older > 300


def written_tables() -> list[str]:
    """A fixed script of writes under both calculi (adds, retracts, mixed
    writes and added types), each closed from the theory before it: the
    table and the join index each write leaves, in order, one line each."""
    lines = []
    for calculus in ("default", "complete"):
        rng = random.Random(36)
        for _ in range(25):
            doc = random_ologism(rng, max_types=8, max_premisses=14)
            theory = close(doc, calculus=calculus)
            for kind in ("retract", "add", "mixed", "types", "retract", "mixed"):
                if kind in ("retract", "mixed") and doc.premisses:
                    doc = _without(doc, rng.sample(doc.premisses, rng.randint(1, min(3, len(doc.premisses)))))
                if kind == "types":
                    new = (TypeDecl(f"N{len(doc.types)}", "a new type"),)
                    doc = Ologism.build(doc.name, doc.types + new, premisses=doc.premisses)
                if kind != "retract":
                    doc = _with(doc, _new_premisses(rng, doc, rng.randint(1, 3)))
                theory = close(doc, calculus=calculus, previous=theory)
                lines.append(repr((list(theory.steps.items()), list(theory.index.items()))))
    return lines


class TestHashSeed:
    """The table and index a write leaves, in order, do not follow the
    string hash seed: a retract re-derives its dropped facts in the order of
    their old heights, then triples."""

    def test_two_hash_seeds_leave_one_table(self):
        probe = "from tests.test_deduce import written_tables; print('\\n'.join(written_tables()))"
        runs = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
            ran = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                 env=env, cwd=ROOT, timeout=300)
            assert ran.returncode == 0, ran.stderr
            runs.append(ran.stdout.splitlines())
        assert len(runs[0]) == 300
        differ = [k for k, (a, b) in enumerate(zip(*runs)) if a != b]
        assert not differ, f"writes {differ} leave other tables under hash seeds 0 and 1"


class TestWalkUp:
    """A retract's ``_drop`` walks up from the removed premisses: it drops
    what ``dropped``, a sweep of the whole table, drops, returns those facts
    sorted by (old height, triple), and leaves the table's other steps in
    order and the index a rebuild's."""

    @pytest.mark.parametrize("calculus", ["default", "complete"])
    def test_drops_what_the_sweep_drops(self, calculus):
        rng = random.Random(38)
        walked = older = 0
        for _ in range(40):
            chain = [close(random_ologism(rng, max_types=8, max_premisses=14), calculus=calculus)]
            for _ in range(12):
                previous = rng.choice(chain)
                older += previous is not chain[-1]
                doc = previous.ologism
                if doc.premisses and rng.random() < 0.7:
                    doc = _without(doc, rng.sample(doc.premisses, rng.randint(1, min(3, len(doc.premisses)))))
                if rng.random() < 0.2:
                    doc = Ologism.build(doc.name, doc.types + (TypeDecl(f"N{len(doc.types)}", "a new type"),),
                                        premisses=doc.premisses)
                doc = _with(doc, _new_premisses(rng, doc, rng.randint(0, 2)))
                removed = {_triple(p) for p in previous.ologism.premisses} - {_triple(p) for p in doc.premisses}
                steps, index = dict(previous.steps), dict(previous.index)
                gone = deduce._drop(calculus, tuple(sorted(doc.type_ids())), steps, index, removed)
                reference = dropped(previous.steps, removed)
                assert gone == sorted(reference, key=lambda t: (previous.steps[t][2], t)), doc.name
                assert list(steps.items()) == [item for item in previous.steps.items() if item[0] not in reference]
                assert index == join_index(steps), doc.name
                walked += len(reference - removed)
                chain.append(close(doc, calculus=calculus, previous=previous))
        assert walked > 300 and older > 200


class TestInverseRows:
    """Under the complete calculus a retract seeks each dropped fact's unary
    candidates through each rule's inverse, not over the whole table: here a
    dropped fact can come back only by existence, emptiness or explosion
    from a fact left, and a new type is reached only by emptiness and
    explosion from a diagonal fact.  Each table equals a fresh close's, and
    its index is a rebuild's."""

    @staticmethod
    def rewrite(before: Ologism, after: Ologism, fact: tuple, rule: str, calculus: str = "complete") -> None:
        theory = close(after, calculus, previous=close(before, calculus))
        assert _table(theory) == _table(close(after, calculus)), after.name
        assert theory.index == join_index(theory.steps), after.name
        assert theory.steps[fact][0] == rule, after.name

    @pytest.mark.parametrize("calculus", ["default", "complete"])
    def test_a_dropped_fact_comes_back_by_its_mirror(self, calculus):
        # E(Y,X) is first derived by R2, which sorts before symmetry, over
        # A(X,Z); with that gone, only the mirror E(X,Y) gives it again.
        before = Ologism.build("mirror", ["X", "Y", "Z"], premisses=[E("X", "Y"), E("Y", "Z"), A("X", "Z")])
        assert close(before, calculus).steps[("E", "Y", "X")][0] == "R2"
        self.rewrite(before, before.without_premiss(A("X", "Z")), ("E", "Y", "X"), "Symmetry", calculus)

    @pytest.mark.parametrize("kept, back, rule", [
        (I("X", "Y"), ("I", "X", "X"), "Existence"),
        (O("X", "Y"), ("I", "X", "X"), "Existence"),
        (E("X", "X"), ("E", "X", "Y"), "Emptiness"),
        (E("X", "X"), ("A", "X", "Y"), "Emptiness"),
        (O("X", "X"), ("O", "Y", "Y"), "Explosion"),
    ])
    def test_a_dropped_fact_comes_back_by_one_unary_rule(self, kept, back, rule):
        # ``back`` is a premiss, then is retracted; only ``kept`` gives it again.
        stated = proposition(*back)
        before = Ologism.build("inverse", ["X", "Y"], premisses=[kept, stated])
        self.rewrite(before, before.without_premiss(stated), back, rule)

    @pytest.mark.parametrize("kept, reached, rule", [
        (E("X", "X"), ("A", "X", "N"), "Emptiness"),
        (E("X", "X"), ("E", "X", "N"), "Emptiness"),
        (O("X", "X"), ("O", "N", "N"), "Explosion"),
    ])
    def test_a_new_type_is_reached_from_a_diagonal_fact(self, kept, reached, rule):
        before = Ologism.build("types", ["X", "Y"], premisses=[kept])
        after = Ologism.build("types", before.types + (TypeDecl("N", "a new type"),), premisses=before.premisses)
        self.rewrite(before, after, reached, rule)
