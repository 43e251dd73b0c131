from __future__ import annotations

import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule, run_state_machine_as_test

from ologism import core, deduce, dsl
from ologism.cli import EXIT_CODES, json_text, main
from ologism.core import Ologism, proposition
from ologism.dsl import serialize
from ologism.repl import COMMANDS, HELP, Repl
from perfbench.docs import premiss_only, render_premiss_only
from .oracles import check_dot, join_index, random_document, random_model, random_ologism

DATA = Path(__file__).resolve().parents[1] / "src" / "ologism" / "data"
GOLDEN_DOT = Path(__file__).resolve().parent / "golden" / "dot"
GOLDEN_ORACLE = Path(__file__).resolve().parent / "golden" / "oracle"
GOLDEN_CHECK = Path(__file__).resolve().parent / "golden" / "check"
GOLDEN_REPL = Path(__file__).resolve().parent / "golden" / "repl"
SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src" / "ologism" / "schemas" / "report.schema.json").read_text()
)


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv: str) -> tuple[int, dict]:
    code, out = run(capsys, "--format", "json", *argv)
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


@pytest.fixture
def contradictory(tmp_path) -> str:
    path = tmp_path / "square.olgm"
    path.write_text(
        'ologism "square" {\n  type S "a square"\n  type P "a polygon"\n  A S P\n  O S P\n}\n'
    )
    return str(path)


class TestCheck:
    def test_animals_ok(self, capsys):
        code, out = run(capsys, "check", str(DATA / "animals.olgm"))
        assert code == 0
        assert "O(A,B)" in out and "I(A,V)" in out and "O(V,A)" in out
        assert "Some animal that is able to fly is not a bird" in out
        assert "consistent" in out

    @pytest.mark.parametrize("doc", ["animals", "contradictory"])
    def test_validates_the_document_once(self, capsys, monkeypatch, contradictory, doc):
        # _load_ologism, derivable and, for a contradiction, close all ask.
        from ologism import core
        calls = []
        diagnose = core._diagnose
        monkeypatch.setattr(core, "_diagnose", lambda d: calls.append(d) or diagnose(d))
        path = contradictory if doc == "contradictory" else str(DATA / "animals.olgm")
        code, _ = run(capsys, "check", path)
        assert (code, len(calls)) == (int(doc == "contradictory"), 1)

    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]], ids=["text", "json"])
    def test_contradiction_trees_equal_the_closure_table(self, capsys, monkeypatch, tmp_path, fmt):
        # A 120-type document: its trees come from the facts below its
        # O(X,X), with no close and the star rows computed once, and the
        # report is the one the closure table's steps give.
        types, premisses = premiss_only(random.Random(0), 120)
        path = tmp_path / "large.olgm"
        path.write_text(render_premiss_only("large", types, premisses))
        doc = Ologism.build("large", types, premisses=[proposition(*t) for t in premisses])
        theory = deduce.close(doc)
        assert len(deduce.contradictions(theory)) > 1
        computed = []
        real_star_rows = deduce.star_rows
        with monkeypatch.context() as patch:
            patch.setattr(deduce, "close", None)
            patch.setattr(deduce, "star_rows", lambda *a: computed.append(a) or real_star_rows(*a))
            new = run(capsys, *fmt, "check", str(path))
        assert len(computed) == 1
        monkeypatch.setattr(deduce.StarRows, "steps_below", lambda self, goals: theory.steps)
        assert new == run(capsys, *fmt, "check", str(path)) and new[0] == 1

    @pytest.mark.parametrize("doc", ["contradictory", "large"])
    def test_check_and_the_repl_print_the_same_trees(self, capsys, monkeypatch, tmp_path, contradictory, doc):
        # Each tree under a CONTRADICTION line of check, one level in, each
        # JSON derivation, and the REPL's ``why O X X`` after a load of the
        # same file are one text; neither front end builds a Derivation.
        path = contradictory
        if doc == "large":
            types, premisses = premiss_only(random.Random(0), 120)
            path = tmp_path / "large.olgm"
            path.write_text(render_premiss_only("large", types, premisses))

        def shown() -> tuple:
            _, text = run(capsys, "check", str(path))
            _, payload = run_json(capsys, "check", str(path))
            clashes = payload["sections"]["contradictions"]
            repl = Repl(io.StringIO())
            repl.dispatch(f"load {path}")
            whys = []
            for clash in clashes:
                repl.out = io.StringIO()
                repl.dispatch(f"why O {clash['type']} {clash['type']}")
                whys.append(repl.out.getvalue())
            return text, clashes, whys

        text, clashes, whys = shown()
        assert len(clashes) > 1
        blocks = text.split("CONTRADICTION")[1:]
        assert len(blocks) == len(clashes)
        for block, clash, why in zip(blocks, clashes, whys):
            header, _, tree = block.partition("\n")
            assert header.startswith(f" O({clash['type']},{clash['type']}), read ")
            lines = tree.splitlines()
            assert all(line.startswith("  ") for line in lines)
            assert "".join(line[2:] + "\n" for line in lines) == why == clash["derivation"] + "\n"

        def no_trees(*args):
            raise AssertionError("a Derivation was built")

        monkeypatch.setattr(deduce, "_trees", no_trees)
        assert shown() == (text, clashes, whys)

    def test_contradiction_exit_1(self, capsys, contradictory):
        code, out = run(capsys, "check", contradictory)
        assert code == 1
        assert "CONTRADICTION" in out and "Some square is not a square" in out

    def test_malformed_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.olgm"
        bad.write_text('ologism "x" {\n  E A B\n}\n')
        code, out = run(capsys, "check", str(bad))
        assert code == 2
        assert "UnknownType" in out and "2:3" in out

    def test_missing_file_exit_3(self, capsys, tmp_path):
        code, _ = run(capsys, "check", str(tmp_path / "absent.olgm"))
        assert code == 3

    def test_json_report(self, capsys):
        code, payload = run_json(capsys, "check", str(DATA / "animals.olgm"))
        assert code == 0 and payload["status"] == "ok"
        derived = {entry["proposition"] for entry in payload["sections"]["derived"]}
        assert derived == {"I(A,V)", "O(A,B)", "O(V,A)"}

    def test_json_contradiction(self, capsys, contradictory):
        code, payload = run_json(capsys, "check", contradictory)
        assert code == 1 and payload["status"] == "contradiction"
        assert {c["type"] for c in payload["sections"]["contradictions"]} == {"S", "P"}

    def test_byte_identical_runs(self, capsys):
        _, first = run(capsys, "check", str(DATA / "custodian.olgm"))
        _, second = run(capsys, "check", str(DATA / "custodian.olgm"))
        assert first == second


class TestColor:
    """On a terminal, ``check`` and ``prove`` color their verdict lines: red
    for a contradiction or a rejection, green for consistency or validity.
    ``model-check``'s verdict line stays plain, and ``--no-color`` and
    ``--format json`` color nothing."""

    @staticmethod
    def runs(contradictory: str) -> list[list[str]]:
        return [["check", str(DATA / "animals.olgm")], ["check", contradictory],
                ["prove", "--premiss", "A:M,P", "--premiss", "A:S,M", "--conclusion", "A:S,P"],
                ["prove", "--premiss", "E:M,P", "--premiss", "I:M,S", "--conclusion", "I:S,P"],
                ["model-check", str(DATA / "has_mother.olgm"), str(DATA / "has_mother.olgmodel")]]

    def test_verdict_lines_on_a_terminal(self, capsys, monkeypatch, contradictory):
        plain = [run(capsys, *argv) for argv in self.runs(contradictory)]
        json_runs = [run(capsys, "--format", "json", *argv) for argv in self.runs(contradictory)]
        monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
        colored = [run(capsys, *argv) for argv in self.runs(contradictory)]
        red, green = "\x1b[31m{}\x1b[0m".format, "\x1b[32m{}\x1b[0m".format
        painted = ["consistent: no O(X,X) is derivable",
                   'CONTRADICTION O(P,P), read "Some polygon is not a polygon":',
                   'CONTRADICTION O(S,S), read "Some square is not a square":', "valid; proof tree:",
                   "rejected: BulletCountMismatch: premisses carry 2 bullet(s) but the conclusion carries 1"]
        expected = []
        for code, text in plain:
            for line in painted:
                text = text.replace(line + "\n", (green if line[0] in "cv" else red)(line) + "\n")
            expected.append((code, text))
        assert colored == expected
        assert [text.count("\x1b[") for _, text in colored] == [2, 4, 2, 2, 0]
        assert [run(capsys, "--no-color", *argv) for argv in self.runs(contradictory)] == plain
        assert [run(capsys, "--format", "json", *argv) for argv in self.runs(contradictory)] == json_runs


class TestReplSubcommand:
    def test_the_repl_subcommand_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("help\nquit\n"))
        prompt = "olgm> "
        assert run(capsys, "repl") == (0, f"ologism workbench; 'help' lists commands\n{prompt}{HELP}\n{prompt}")


class TestEmptyLabel:
    """An empty type label is a parse error at the label, with no warning
    beside it, and check exits 2: the parser makes ``validate``'s checks."""

    def test_text_and_json(self, capsys, tmp_path):
        path = tmp_path / "empty.olgm"
        path.write_text('ologism "e" {\n  type X ""\n}\n')
        said = ["2:10: error: EmptyTypeLabel: type 'X' has an empty label"]
        assert run(capsys, "check", str(path)) == (2, "".join(line + "\n" for line in said))
        code, payload = run_json(capsys, "check", str(path))
        assert (code, payload["status"], payload["sections"]) == (2, "parse_error", {"diagnostics": said})


class TestProve:
    def test_valid(self, capsys):
        code, out = run(capsys, "prove", "--premiss", "E:M,P", "--premiss", "A:S,M",
                        "--conclusion", "E:S,P")
        assert code == 0 and "valid" in out and "Axiom-Premiss" in out

    def test_bullet_rejection(self, capsys):
        code, out = run(capsys, "prove", "--premiss", "E:M,P", "--premiss", "I:M,S",
                        "--conclusion", "I:S,P")
        assert code == 1
        assert "BulletCountMismatch" in out and "2" in out and "1" in out

    def test_import_flag(self, capsys):
        code, out = run(capsys, "prove", "--premiss", "A:S,P", "--import", "S",
                        "--conclusion", "I:S,P")
        assert code == 0 and "Axiom-ExistentialImport" in out

    def test_import_term_is_stripped(self, capsys):
        argv = ["prove", "--premiss", "A:S,P", "--conclusion", "I:S,P", "--import"]
        assert run(capsys, *argv, " S ") == run(capsys, *argv, "S")

    def test_rejected_without_import(self, capsys):
        code, _ = run(capsys, "prove", "--premiss", "A:S,P", "--conclusion", "I:S,P")
        assert code == 1

    def test_json_schema(self, capsys):
        code, payload = run_json(capsys, "prove", "--premiss", "E:M,P", "--premiss", "E:S,M",
                                 "--conclusion", "O:S,P")
        assert code == 1
        assert payload["sections"]["rejection"]["reason"] == "DiscordantArrows"

    def test_bad_literal(self, capsys):
        with pytest.raises(SystemExit):
            main(["prove", "--premiss", "whatever", "--conclusion", "A:S,P"])

    def test_proof_tree_as_dot(self, capsys):
        code, out = run(capsys, "prove", "--premiss", "E:M,P", "--premiss", "A:S,M",
                        "--conclusion", "E:S,P", "--dot")
        assert code == 0
        counts = check_dot(out)
        assert counts["edges"] == 3  # two leaves -> superposition -> composition


class TestEnumerate:
    def test_totals(self, capsys):
        code, payload = run_json(capsys, "enumerate")
        assert code == 0
        assert payload["sections"]["total"] == 256
        assert payload["sections"]["valid"] == 15

    def test_with_import(self, capsys):
        code, payload = run_json(capsys, "enumerate", "--import")
        assert payload["sections"]["valid"] == 24
        imports = [m for m in payload["sections"]["moods"] if m["valid"] and not m["direct"]]
        assert len(imports) == 9

    def test_stable_output(self, capsys):
        _, a = run(capsys, "--format", "json", "enumerate")
        _, b = run(capsys, "--format", "json", "enumerate")
        assert a == b


class TestModelCheck:
    def test_family_ok(self, capsys):
        code, _ = run(capsys, "model-check", str(DATA / "has_mother.olgm"),
                      str(DATA / "has_mother.olgmodel"))
        assert code == 0

    def test_custodian_against_closure(self, capsys):
        code, payload = run_json(capsys, "model-check", str(DATA / "custodian.olgm"),
                                 str(DATA / "custodian.olgmodel"), "--against", "closure")
        assert code == 0 and payload["sections"]["violations"] == []

    def test_mutated_model_fails(self, capsys, tmp_path):
        source = (DATA / "has_mother.olgmodel").read_text()
        mutated = tmp_path / "broken.olgmodel"
        mutated.write_text(source.replace("Susan -> Elen2", "Susan -> Elen1"))
        code, out = run(capsys, "model-check", str(DATA / "has_mother.olgm"), str(mutated))
        assert code == 1 and "FactBroken" in out and "Susan" in out

    def test_empty_maps_read_back(self, capsys, tmp_path):
        # A map out of an empty carrier serializes as "map f :"; model-check
        # must read it, so that the exit code is a verdict, never a parse error.
        rng = random.Random(5)
        checked = 0
        for k in range(150):
            doc = random_document(rng)
            model = random_model(rng, doc)
            if all(model.maps.values()):
                continue
            doc_path, model_path = tmp_path / f"d{k}.olgm", tmp_path / f"m{k}.olgmodel"
            doc_path.write_text(serialize(doc), encoding="utf-8")
            model_path.write_text(serialize(model), encoding="utf-8")
            code, out = run(capsys, "model-check", str(doc_path), str(model_path))
            assert code in (0, 1), out
            checked += 1
        assert checked > 0

    def test_an_unsound_closure_raises_the_alarm(self, capsys, unsound_close):
        # The menagerie's bat is a mammal and a vertebrate: it satisfies the
        # premisses and breaks the E(M,V) the unsound closure claims.
        argv = ["model-check", str(DATA / "animals.olgm"), str(DATA / "animals.olgmodel"), "--against", "closure"]
        broken = "PrescriptionBroken: E(M,V) does not hold (witness: bat)"
        alarm = ("model satisfies the premisses but not the closure (or vice versa); "
                 "this contradicts soundness and indicates an engine bug")
        assert run(capsys, *argv) == (1, f"{broken}\nALARM: {alarm}\n")
        code, payload = run_json(capsys, *argv)
        assert (code, payload["status"], payload["sections"]) == (
            1, "violation", {"alarms": [alarm], "violations": [broken]})


# (case, model document, what model-check prints).  Each document declares
# set P twice after its faulty item, so the diagnostic of that later item
# follows, which shows the parser recovered.
MODEL_DIAGNOSTICS = [
    ("for", 'model "m" fro "has-mother" {\n  set P = {a}\n  set P = {b}\n}\n',
     ["1:11: error: UnexpectedToken: expected 'for', found 'fro'",
      "3:7: error: DuplicateSet: set 'P' declared twice"]),
    ("element", 'model "m" for "has-mother" {\n  set P = {a, a}\n  set P = {b}\n}\n',
     ["2:7: error: DuplicateElement: set 'P' repeats an element",
      "3:7: error: DuplicateSet: set 'P' declared twice"]),
    ("mapping", 'model "m" for "has-mother" {\n  map w : x -> y, x -> z\n  set P = {b}\n  set P = {c}\n}\n',
     ["2:19: error: DuplicateMapping: element 'x' mapped twice",
      "4:7: error: DuplicateSet: set 'P' declared twice"]),
    ("map", 'model "m" for "has-mother" {\n  map w : x -> y\n  map w : x -> z\n  set P = {c}\n  set P = {d}\n}\n',
     ["3:7: error: DuplicateMap: map 'w' declared twice",
      "5:7: error: DuplicateSet: set 'P' declared twice"]),
    ("arrow", 'model "m" for "has-mother" {\n  map w : x -> y, z y2\n  set P = {c}\n  set P = {d}\n}\n',
     ["2:21: error: UnexpectedToken: expected '->', found 'y2'",
      "4:7: error: DuplicateSet: set 'P' declared twice"]),
    ("source", 'model "m" for "has-mother" {\n  map w : x -> y, -> z\n  set P = {c}\n  set P = {d}\n}\n',
     ["2:19: error: UnexpectedToken: expected an element name, found '->'",
      "4:7: error: DuplicateSet: set 'P' declared twice"]),
    ("target", 'model "m" for "has-mother" {\n  map w : x -> ,\n  set P = {c}\n  set P = {d}\n}\n',
     ["2:16: error: UnexpectedToken: expected an element name, found ','",
      "4:7: error: DuplicateSet: set 'P' declared twice"]),
    ("set-equals", 'model "m" for "has-mother" {\n  set Q a\n  set P = {c}\n  set P = {d}\n}\n',
     ["2:9: error: UnexpectedToken: expected '=', found 'a'",
      "4:7: error: DuplicateSet: set 'P' declared twice"]),
    ("set-brace", 'model "m" for "has-mother" {\n  set Q = a, b\n  set P = {c}\n  set P = {d}\n}\n',
     ["2:11: error: UnexpectedToken: expected '{', found 'a'",
      "4:7: error: DuplicateSet: set 'P' declared twice"]),
    ("map-colon", 'model "m" for "has-mother" {\n  map w x -> y\n  set P = {c}\n  set P = {d}\n}\n',
     ["2:9: error: UnexpectedToken: expected ':', found 'x'",
      "4:7: error: DuplicateSet: set 'P' declared twice"]),
    ("set-comma", 'model "m" for "has-mother" {\n  set Q = {a b}\n  set P = {c}\n  set P = {d}\n}\n',
     ["2:14: error: UnexpectedToken: expected ',' or '}', found 'b'",
      "4:7: error: DuplicateSet: set 'P' declared twice"]),
    ("set-trailing-comma", 'model "m" for "has-mother" {\n  set Q = {a,}\n  set P = {c}\n  set P = {d}\n}\n',
     ["2:14: error: UnexpectedToken: expected an element name, found '}'",
      "4:7: error: DuplicateSet: set 'P' declared twice"]),
    ("set-brace-for-equals", 'model "m" for "has-mother" {\n  set Q {a}\n  set P = {c}\n  set P = {d}\n}\n',
     ["2:9: error: UnexpectedToken: expected '=', found '{'",
      "4:7: error: DuplicateSet: set 'P' declared twice"]),
]

# Two types, an ``is`` aspect and a fact that equates a map with it.
INCLUSION = ('ologism "inc" {\n  type W "a woman"\n  type P "a person"\n'
             '  aspect is : W -> P\n  aspect self : W -> P\n  fact "self" : self = is\n}\n')


class TestModelDocuments:
    """``model-check`` on model documents: each diagnostic of the model
    parser at its position, and the checker's verdicts on maps that are
    missing or left to the ``is`` inclusion."""

    @pytest.mark.parametrize("name, text, said", MODEL_DIAGNOSTICS, ids=[n for n, _, _ in MODEL_DIAGNOSTICS])
    def test_diagnostics(self, capsys, tmp_path, name, text, said):
        path = tmp_path / "m.olgmodel"
        path.write_text(text)
        argv = ["model-check", str(DATA / "has_mother.olgm"), str(path)]
        assert run(capsys, *argv) == (2, "".join(line + "\n" for line in said))
        code, payload = run_json(capsys, *argv)
        assert (code, payload["status"], payload["sections"]) == (2, "parse_error", {"diagnostics": said})

    def check(self, capsys, tmp_path, model: str) -> tuple[tuple[int, str], tuple[int, dict]]:
        (tmp_path / "inc.olgm").write_text(INCLUSION)
        (tmp_path / "inc.olgmodel").write_text(model)
        argv = ["model-check", str(tmp_path / "inc.olgm"), str(tmp_path / "inc.olgmodel")]
        return run(capsys, *argv), run_json(capsys, *argv)

    def test_a_model_declared_for_another_document(self, capsys, tmp_path):
        # The ``is`` arc in the fact has no map: it is W's inclusion in P.
        text, (code, payload) = self.check(
            capsys, tmp_path, 'model "m" for "other" {\n  set W = {w}\n  set P = {w, q}\n  map self : w -> w\n}\n')
        assert text == (0, "note: model is declared for 'other', checking against 'inc'\n"
                           "model 'm' satisfies 'inc' against premisses\n")
        assert (code, payload["status"], payload["sections"]) == (0, "ok", {"alarms": [], "violations": []})

    def test_an_inclusion_arc_in_a_broken_fact(self, capsys, tmp_path):
        text, (code, payload) = self.check(
            capsys, tmp_path, 'model "m" for "inc" {\n  set W = {w}\n  set P = {w, q}\n  map self : w -> q\n}\n')
        said = 'FactBroken: fact "self": self = is sends w to q one way and w the other (witness: w)'
        assert text == (1, said + "\n")
        assert (code, payload["status"], payload["sections"]) == (1, "violation", {"alarms": [], "violations": [said]})

    def test_no_map_for_an_aspect(self, capsys, tmp_path):
        text, (code, payload) = self.check(
            capsys, tmp_path, 'model "m" for "inc" {\n  set W = {w}\n  set P = {w, q}\n}\n')
        said = "MapNotTotal: no map given for aspect self: W -> P"
        assert text == (1, said + "\n")
        assert (code, payload["status"], payload["sections"]) == (1, "violation", {"alarms": [], "violations": [said]})


class TestOracle:
    def test_soundness(self, capsys):
        code, payload = run_json(capsys, "oracle", str(DATA / "animals.olgm"),
                                 "--mode", "soundness")
        assert code == 0
        assert payload["sections"]["soundness"]["passed"] is True

    def test_models_count(self, capsys):
        code, payload = run_json(capsys, "oracle", str(DATA / "animals.olgm"), "--mode", "models")
        assert code == 0 and payload["sections"]["models"] == 42

    def test_contradictory_has_no_models(self, capsys, contradictory):
        code, payload = run_json(capsys, "oracle", contradictory, "--mode", "models")
        assert payload["sections"]["models"] == 0

    def test_completeness_reports_import_gap(self, capsys):
        code, payload = run_json(capsys, "oracle", str(DATA / "animals.olgm"),
                                 "--mode", "completeness")
        assert code == 1
        section = payload["sections"]["completeness"]
        assert section["passed"] is False
        assert section["gap_closed_by_import"] is True
        assert "I(A,A)" in section["gap"]

    def test_completeness_with_declared_import(self, capsys, tmp_path):
        path = tmp_path / "dup.olgm"
        path.write_text('ologism "dup" {\n  type T0 "a T0"\n  type T1 "a T1"\n'
                        "  O T0 T1\n  I T1 T1\n  E T0 T1\n}\n")
        code, payload = run_json(capsys, "oracle", str(path), "--mode", "completeness")
        assert code == 1 and payload["status"] == "fail"
        section = payload["sections"]["completeness"]
        assert section["gap"] == ["I(T0,T0)"]
        assert section["gap_closed_by_import"] is True

    @pytest.mark.parametrize("size", ["0", "-1", "three"])
    def test_universe_must_be_positive(self, capsys, size):
        with pytest.raises(SystemExit) as exit_:
            main(["oracle", str(DATA / "animals.olgm"), "--universe", size])
        assert exit_.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["models", "soundness", "completeness"])
    def test_universe_beyond_the_count_bound(self, capsys, mode):
        argv = ["oracle", str(DATA / "animals.olgm"), "--universe", "100000", "--mode", mode]
        code, out = run(capsys, *argv)
        assert code == 1 and "more than 4300 digits" in out
        code, payload = run_json(capsys, *argv)
        assert code == 1 and "more than 4300 digits" in payload["sections"]["error"]

    def test_sampled_work_beyond_the_bound(self, capsys):
        argv = ["oracle", str(DATA / "custodian.olgm"), "--universe", "100000",
                "--mode", "soundness", "--samples", "1"]
        start = time.perf_counter()
        code, out = run(capsys, *argv)
        assert code == 1 and "exceed the sampling bound of 100000000" in out
        code, payload = run_json(capsys, *argv)
        assert code == 1 and payload["status"] == "fail"
        assert "exceed the sampling bound of 100000000" in payload["sections"]["error"]
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("count", ["0", "-5", "many"])
    def test_samples_must_be_positive(self, capsys, count):
        # Zero samples would report soundness over no model at all.
        with pytest.raises(SystemExit) as exit_:
            main(["oracle", str(DATA / "has_mother.olgm"), "--samples", count])
        assert exit_.value.code == 2
        assert "positive integer" in capsys.readouterr().err


INCONCLUSIVE = (
    'ologism "incon" {\n  type X "an x"\n  type Y "a y"\n  aspect f : X -> Y\n'
    "  E Y Y\n  I X X\n}\n"
)

# (subcommand arguments, status) for every subcommand and outcome; DOC names a
# bundled document, and the other upper-case words files written by ``inputs``.
OUTCOMES = [
    (["check", "DOC/animals.olgm"], "ok"),
    (["check", "SQUARE"], "contradiction"),
    (["check", "BAD"], "parse_error"),
    (["check", "ABSENT"], "io_error"),
    (["check", "NOT_UTF8"], "io_error"),
    (["prove", "--premiss", "E:M,P", "--premiss", "A:S,M", "--conclusion", "E:S,P"], "ok"),
    (["prove", "--premiss", "E:M,P", "--premiss", "A:S,M", "--conclusion", "E:S,P", "--dot"],
     "ok"),
    (["prove", "--premiss", "A:S,P", "--conclusion", "I:S,P"], "rejection"),
    (["prove", "--premiss", "A:S,P", "--conclusion", "A:Q,R"], "parse_error"),
    (["enumerate"], "ok"),
    (["enumerate", "--import"], "ok"),
    (["model-check", "DOC/has_mother.olgm", "DOC/has_mother.olgmodel"], "ok"),
    (["model-check", "DOC/has_mother.olgm", "BROKEN_MODEL"], "violation"),
    (["model-check", "DOC/has_mother.olgm", "BAD"], "parse_error"),
    (["model-check", "BAD", "DOC/has_mother.olgmodel"], "parse_error"),
    (["model-check", "DOC/has_mother.olgm", "ABSENT"], "io_error"),
    (["model-check", "ABSENT", "DOC/has_mother.olgmodel"], "io_error"),
    (["model-check", "DOC/has_mother.olgm", "NOT_UTF8"], "io_error"),
    (["model-check", "NOT_UTF8", "DOC/has_mother.olgmodel"], "io_error"),
    (["oracle", "DOC/animals.olgm", "--mode", "models"], "ok"),
    (["oracle", "DOC/animals.olgm", "--mode", "soundness"], "ok"),
    (["oracle", "DOC/has_mother.olgm", "--mode", "soundness", "--samples", "20"], "ok"),
    (["oracle", "INCONCLUSIVE", "--mode", "soundness", "--samples", "5"], "fail"),
    (["oracle", "DOC/square.olgm", "--mode", "completeness"], "ok"),
    (["oracle", "DOC/animals.olgm", "--mode", "completeness"], "fail"),
    (["oracle", "DOC/has_mother.olgm", "--mode", "completeness"], "fail"),
    (["oracle", "DOC/animals.olgm", "--mode", "models", "--universe", "100000"], "fail"),
    (["oracle", "BAD"], "parse_error"),
    (["oracle", "ABSENT"], "io_error"),
    (["oracle", "NOT_UTF8"], "io_error"),
    (["export-dot", "DOC/animals.olgm", "--derived"], "ok"),
    (["export-dot", "BAD"], "parse_error"),
    (["export-dot", "ABSENT"], "io_error"),
    (["export-dot", "NOT_UTF8"], "io_error"),
]


@pytest.fixture
def inputs(tmp_path, contradictory) -> dict[str, str]:
    (tmp_path / "bad.olgm").write_text('ologism "x" {\n  E A B\n}\n')
    (tmp_path / "incon.olgm").write_text(INCONCLUSIVE)
    (tmp_path / "latin1.olgm").write_bytes('ologism "x" {\n  type X "a caf\xe9"\n}\n'.encode("latin-1"))
    model = (DATA / "has_mother.olgmodel").read_text()
    (tmp_path / "broken.olgmodel").write_text(model.replace("Susan -> Elen2", "Susan -> Elen1"))
    return {"SQUARE": contradictory, "BAD": str(tmp_path / "bad.olgm"),
            "ABSENT": str(tmp_path / "absent.olgm"), "INCONCLUSIVE": str(tmp_path / "incon.olgm"),
            "BROKEN_MODEL": str(tmp_path / "broken.olgmodel"), "NOT_UTF8": str(tmp_path / "latin1.olgm")}


class TestExitCodes:
    def test_one_code_per_schema_status(self):
        assert set(EXIT_CODES) == set(SCHEMA["properties"]["status"]["enum"])
        assert sorted(set(EXIT_CODES.values())) == [0, 1, 2, 3]

    @pytest.mark.parametrize("argv, status", OUTCOMES, ids=[" ".join(a) for a, _ in OUTCOMES])
    def test_exit_code_is_the_status_code(self, capsys, inputs, argv, status):
        argv = [inputs.get(a, a.replace("DOC/", f"{DATA}/")) for a in argv]
        code, payload = run_json(capsys, *argv)
        assert (payload["status"], code) == (status, EXIT_CODES[status])
        assert run(capsys, *argv)[0] == code

    def test_an_undecodable_file_is_reported_not_raised(self, capsys, inputs):
        path = inputs["NOT_UTF8"]
        reason = "'utf-8' codec can't decode byte 0xe9 in position 29: invalid continuation byte"
        assert run(capsys, "check", path) == (3, f"cannot read {path}: {reason}\n")
        code, payload = run_json(capsys, "check", path)
        assert code == 3 and payload["sections"] == {"error": reason}

    def test_inconclusive_soundness_fails(self, capsys, inputs):
        argv = ["oracle", inputs["INCONCLUSIVE"], "--mode", "soundness", "--samples", "5"]
        assert run(capsys, *argv) == (1, "soundness inconclusive after 0 sampled models\n")
        code, payload = run_json(capsys, *argv)
        assert code == 1 and payload["status"] == "fail"
        assert payload["sections"]["soundness"] == {
            "passed": False, "mode": "sampled", "models_checked": 0, "inconclusive": True,
        }

    def test_failing_soundness_reports_the_searched_counterexample(self, capsys, unsound_close):
        argv = ["oracle", str(DATA / "animals.olgm"), "--mode", "soundness"]
        assert run(capsys, *argv) == (1, (
            "soundness FAILS: E(M,V) does not hold in model counterexample: "
            "A={2}, B={0}, M={1, 2}, V={0, 1, 2}\n"
        ))
        code, payload = run_json(capsys, *argv)
        assert code == 1 and payload["status"] == "fail"
        assert payload["sections"]["soundness"] == {
            "passed": False, "mode": "exhaustive", "models_checked": 42, "inconclusive": False,
        }


# What the robustness mutations insert: a carriage return, NUL, a byte order
# mark, a non-ASCII letter, and pieces of both document grammars.
FUZZ_INSERTS = ["\r", "\x00", "\ufeff", "é", "{", "}", '"', "->", ",", ":", ";", "=", "(", ")", "#", "\n", " ",
                "type", "aspect", "fact", "set", "map", "A", "O", "X"]
# Proposition literals that are malformed, or well formed with an odd term.
BAD_LITERALS = ["E:M", "X:M,P", "E:,P", "E:M,P,Q", "E:9,P", "", ":", "E:M\x00,P", "\ufeffE:M,P",
                "é:M,P", "E M P", "A:S,é", "O: S ,P\r"]


def mutate(rng: random.Random, text: str) -> str:
    """``text`` after one to four random insertions, deletions and copies of its own spans."""
    for _ in range(rng.randrange(1, 5)):
        at, op = rng.randrange(len(text) + 1), rng.randrange(3)
        if op == 0:
            text = text[:at] + rng.choice(FUZZ_INSERTS) + text[at:]
        elif op == 1:
            text = text[:at] + text[at + rng.randrange(1, 4):]
        else:
            start = rng.randrange(len(text) + 1)
            text = text[:at] + text[start:start + rng.randrange(1, 12)] + text[at:]
    return text


class TestRobustness:
    """Every subcommand but ``repl``, in text and JSON, on seeded mutations
    of the bundled documents and models and on malformed ``prove`` literals:
    each run ends in an exit code from 0 to 3, argparse's usage errors
    included, and within 2 s."""

    SEED, ROUNDS, BOUND_S = 16, 8, 2.0

    def argvs(self, tmp_path: Path):
        rng = random.Random(self.SEED)
        for k in range(self.ROUNDS):
            for doc in sorted(DATA.glob("*.olgm")):
                path = tmp_path / f"{k}-{doc.name}"
                path.write_text(mutate(rng, doc.read_text(encoding="utf-8")), encoding="utf-8")
                yield ["check", str(path)]
                for mode in ("models", "soundness", "completeness"):
                    yield ["oracle", str(path), "--mode", mode]
                yield ["export-dot", str(path)]
                yield ["export-dot", str(path), "--derived"]
            for model in sorted(DATA.glob("*.olgmodel")):
                path = tmp_path / f"{k}-{model.name}"
                path.write_text(mutate(rng, model.read_text(encoding="utf-8")), encoding="utf-8")
                yield ["model-check", str(model.with_suffix(".olgm")), str(path), "--against", "premisses"]
                yield ["model-check", str(tmp_path / f"{k}-{model.stem}.olgm"), str(model), "--against", "closure"]
        for literal in BAD_LITERALS:
            yield ["prove", "--premiss", literal, "--premiss", "A:S,M", "--conclusion", "A:S,P"]
            yield ["prove", "--premiss", "A:M,P", "--premiss", "A:S,M", "--conclusion", literal]
        yield ["prove", "--premiss", "A:M,P", "--conclusion", "A:S,P"]  # S in no premiss
        yield ["prove", *["--premiss", "A:M,P"] * 4, "--conclusion", "A:M,P"]  # too many premisses
        yield ["prove", "--premiss", "A:M,P", "--import", "9", "--conclusion", "A:M,P"]
        yield ["enumerate"]
        yield ["enumerate", "--import"]

    def test_every_run_ends_in_an_exit_code_in_bounded_time(self, capsys, tmp_path):
        codes = set()
        for argv in self.argvs(tmp_path):
            for fmt in ("text", "json"):
                start = time.perf_counter()
                try:
                    code = main(["--format", fmt, *argv])
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:
                    pytest.fail(f"{argv!r} in {fmt} raised {exc!r}")
                elapsed = time.perf_counter() - start
                capsys.readouterr()
                assert code in (0, 1, 2, 3), (argv, fmt, code)
                assert elapsed < self.BOUND_S, (argv, fmt, elapsed)
                codes.add(code)
        assert codes == {0, 1, 2}  # verdicts as well as parse errors


class TestParsedDocumentsPassValidate:
    """Every document either parser returns passes ``validate``: the line
    reader's stands only when it does, and the token parser makes each of
    ``validate``'s checks at a position.  The corpus is seeded: serialized
    generated documents, mutations of them and of the bundled documents,
    some with a declaration doubled or an empty type label, and items
    parsed against documents that pass ``validate``.  Each document is
    judged by ``core._diagnose`` itself, not by the verdict it keeps."""

    SEED, ROUNDS = 29, 1000

    @staticmethod
    def doubled(rng: random.Random, text: str) -> str:
        """``text`` with one of its lines written twice, or with an empty
        type label before its last line."""
        lines = text.split("\n")
        k = rng.randrange(len(lines))
        if rng.randrange(4) == 0:
            return "\n".join(lines[:-2] + ['  type Z ""'] + lines[-2:])
        return "\n".join(lines[:k] + [lines[k]] + lines[k:])

    def test_every_parsed_document_passes_diagnose(self):
        rng = random.Random(self.SEED)
        bundled = [doc.read_text(encoding="utf-8") for doc in sorted(DATA.glob("*.olgm"))]
        held = [dsl.parse_ologism(text).value for text in bundled]
        parsed = 0
        for _ in range(self.ROUNDS):
            made = rng.choice([random_document, random_ologism])(rng)
            text = serialize(made)
            texts = [text, mutate(rng, text), self.doubled(rng, text), mutate(rng, rng.choice(bundled)),
                     self.doubled(rng, rng.choice(bundled))]
            for text in texts:
                doc = dsl.parse_ologism(text).value
                if doc is not None:
                    parsed += 1
                    assert core._diagnose(doc) == [], text
            held.append(made)
            against = rng.choice(held)
            types = against.type_ids()
            new = [f"{rng.choice('AEIO')} {rng.choice(types)} {rng.choice(types)}",
                   f"aspect g : {rng.choice(types)} -> {rng.choice(types)}", 'type N "a new one"']
            lines = serialize(made).split("\n")[1:-2] + serialize(against).split("\n")[1:-2] + new
            for item in [*new, rng.choice(lines), mutate(rng, rng.choice(lines)), 'type Z ""']:
                doc = dsl.parse_item(against, item).value
                if doc is not None:
                    parsed += 1
                    assert core._diagnose(doc) == [], (serialize(against), item)
        assert parsed > 4000


# (golden file under tests/golden/dot, CLI arguments); DOC names a bundled document.
DOT_GOLDENS = [
    ("animals", ["export-dot", "DOC/animals.olgm"]),
    ("animals-derived", ["export-dot", "DOC/animals.olgm", "--derived"]),
    ("has_mother", ["export-dot", "DOC/has_mother.olgm"]),
    ("custodian", ["export-dot", "DOC/custodian.olgm"]),
    ("prove-celarent",
     ["prove", "--premiss", "E:M,P", "--premiss", "A:S,M", "--conclusion", "E:S,P", "--dot"]),
]


class TestExportDot:
    @pytest.mark.parametrize("name, argv", DOT_GOLDENS, ids=[n for n, _ in DOT_GOLDENS])
    def test_golden(self, capsys, name, argv):
        code, out = run(capsys, *(a.replace("DOC/", f"{DATA}/") for a in argv))
        assert code == 0
        assert out == (GOLDEN_DOT / f"{name}.dot").read_text(encoding="utf-8")

    def test_animals_parses(self, capsys):
        code, out = run(capsys, "export-dot", str(DATA / "animals.olgm"))
        assert code == 0
        counts = check_dot(out)
        assert counts["edges"] >= 8  # 2 inclusions + E/I/O bullet wiring

    def test_derived_edges_appear(self, capsys):
        _, plain = run(capsys, "export-dot", str(DATA / "animals.olgm"))
        _, derived = run(capsys, "export-dot", str(DATA / "animals.olgm"), "--derived")
        check_dot(derived)
        assert derived.count("style=dashed") - plain.count("style=dashed") == 3

    def test_fact_checkmark(self, capsys):
        _, out = run(capsys, "export-dot", str(DATA / "has_mother.olgm"))
        assert "✓ has-mother" in out
        check_dot(out)

    def test_bullet_names_skip_type_ids(self, capsys, tmp_path):
        doc = tmp_path / "clash.olgm"
        doc.write_text('ologism "clash" {\n  type bullet0 "a bullet"\n  type X "an x"\n  E X bullet0\n}\n')
        code, out = run(capsys, "export-dot", str(doc))
        assert code == 0
        check_dot(out)
        assert '"bullet0" [label="a bullet"];' in out
        assert '"bullet0" [shape=point' not in out
        assert '"bullet1" [shape=point, label=""];' in out
        assert '"X" -> "bullet1" [label="E(X,bullet0)"];' in out
        assert '"bullet0" -> "bullet1";' in out
        assert '"bullet0" -> "bullet0"' not in out

    def test_empty_document(self, capsys, tmp_path):
        empty = tmp_path / "empty.olgm"
        empty.write_text('ologism "void" {\n}\n')
        code, out = run(capsys, "export-dot", str(empty))
        assert code == 0
        assert check_dot(out) == {"nodes": 1, "edges": 0}  # just the node-defaults statement

    def test_json_envelope(self, capsys):
        code, payload = run_json(capsys, "export-dot", str(DATA / "animals.olgm"), "--derived")
        assert code == 0
        check_dot(payload["sections"]["dot"])


class TestOracleGoldens:
    """``oracle DOC --mode MODE`` pinned byte for byte, in text and in JSON:
    tests/golden/oracle/DOC-MODE.txt and DOC-MODE-json.txt each hold the exit
    code, then stdout, then stderr."""

    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]], ids=["text", "json"])
    @pytest.mark.parametrize("mode", ["models", "soundness", "completeness"])
    @pytest.mark.parametrize("doc", ["animals", "square", "has_mother"])
    def test_golden(self, capsys, doc, mode, fmt):
        code = main([*fmt, "oracle", str(DATA / f"{doc}.olgm"), "--mode", mode])
        out, err = capsys.readouterr()
        name = f"{doc}-{mode}" + ("-json" if fmt else "")
        expected = (GOLDEN_ORACLE / f"{name}.txt").read_text(encoding="utf-8")
        assert f"exit {code}\n--- stdout\n{out}--- stderr\n{err}" == expected


CHECK_DOCS = ["animals", "custodian", "has_mother", "mother_ologism", "square", "contradictory"]


class TestCheckGoldens:
    """``check DOC`` pinned byte for byte, in text and in JSON:
    tests/golden/check/DOC.txt and DOC-json.txt each hold the exit code, then
    stdout.  DOC is a bundled document, or ``contradictory``, the fixture's
    document, which alone renders derivation trees."""

    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]], ids=["text", "json"])
    @pytest.mark.parametrize("doc", CHECK_DOCS)
    def test_golden(self, capsys, contradictory, doc, fmt):
        path = contradictory if doc == "contradictory" else str(DATA / f"{doc}.olgm")
        code, out = run(capsys, *fmt, "check", path)
        name = doc + ("-json" if fmt else "")
        expected = (GOLDEN_CHECK / f"{name}.txt").read_text(encoding="utf-8")
        assert f"exit {code}\n--- stdout\n{out}" == expected


BUNDLED = [doc for doc in CHECK_DOCS if doc != "contradictory"]


def _variants(text: str) -> dict[str, str]:
    """A bundled document's text written four other ways."""
    return {
        "crlf": text.replace("\n", "\r\n"),
        "tabs": text.replace("\n  ", "\n\t"),
        "comments": text.replace("\n  ", "\n  # an extra comment\n  "),
        "comment-after-brace": text + "# the end\n",
    }


class TestDocumentVariants:
    """A bundled document with CRLF line ends, tab indents, extra comment
    lines, a comment line after its closing brace or a leading byte-order
    mark checks byte for byte as the original does.  As written, the CRLF and the trailing comment are the
    token parser's to read and the other two the line reader's; ``check``
    reads CRLF as LF, so it too meets both paths."""

    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]], ids=["text", "json"])
    @pytest.mark.parametrize("doc", BUNDLED)
    def test_variant_checks_as_the_original(self, capsys, tmp_path, doc, fmt):
        expected = (GOLDEN_CHECK / f"{doc}{'-json' if fmt else ''}.txt").read_text(encoding="utf-8")
        for name, text in _variants((DATA / f"{doc}.olgm").read_text(encoding="utf-8")).items():
            path = tmp_path / f"{name}.olgm"
            path.write_bytes(text.encode("utf-8"))
            code, out = run(capsys, *fmt, "check", str(path))
            assert f"exit {code}\n--- stdout\n{out}" == expected, name

    @pytest.mark.parametrize("doc", BUNDLED)
    def test_variant_parses_as_the_original(self, doc):
        original = (DATA / f"{doc}.olgm").read_text(encoding="utf-8")
        want = dsl.parse_ologism(original)
        read = {}
        for name, text in _variants(original).items():
            got = dsl.parse_ologism(text)
            assert got == want, name
            assert [str(q) for q in got.value.premisses] == [str(q) for q in want.value.premisses]
            read[name] = dsl._read_lines(text) is not None
        has_facts = bool(want.value.facts)
        assert read == {"crlf": False, "tabs": not has_facts, "comments": not has_facts,
                        "comment-after-brace": False}

    @pytest.mark.parametrize("doc", BUNDLED)
    def test_byte_order_mark_is_read_past(self, capsys, tmp_path, doc):
        # A file that starts with a UTF-8 byte-order mark checks byte for
        # byte as the original does, and the REPL loads it as the original.
        original = DATA / f"{doc}.olgm"
        path = tmp_path / f"{doc}.olgm"
        path.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
        for fmt in ([], ["--format", "json"]):
            expected = (GOLDEN_CHECK / f"{doc}{'-json' if fmt else ''}.txt").read_text(encoding="utf-8")
            code, out = run(capsys, *fmt, "check", str(path))
            assert f"exit {code}\n--- stdout\n{out}" == expected
        loads = []
        for source in (original, path):
            repl = Repl(io.StringIO())
            repl.dispatch(f"load {source}")
            repl.dispatch("derived")
            loads.append((repl.out.getvalue(), repl.doc))
        assert loads[0] == loads[1] and loads[1][1] is not None


# Any code point, with lone surrogates and control characters drawn often.
_json_strings = st.text(st.one_of(
    st.characters(exclude_categories=()),
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, exclude_categories=()),
    st.characters(max_codepoint=0x1F),
))
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**200), 2**200) | _json_strings,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_json_strings, inner, max_size=4),
    max_leaves=20,
)


class TestJsonText:
    """``json_text``, the writer of every ``--format json`` report, writes
    what ``json.dumps(indent=2, sort_keys=True)`` writes."""

    @settings(max_examples=300, deadline=None)
    @given(_json_values)
    def test_equals_json_dumps(self, value):
        assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [1.5, {"a"}, {1: "one"}, {"nested": [0, -0.0]}],
                             ids=["float", "set", "int-key", "nested-float"])
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            json_text(value)

    def test_check_on_a_large_contradictory_document(self, capsys, tmp_path):
        types, premisses = premiss_only(random.Random(0), 120)
        path = tmp_path / "large.olgm"
        path.write_text(render_premiss_only("large", types, premisses))
        code, out = run(capsys, "--format", "json", "check", str(path))
        payload = json.loads(out)
        assert (code, payload["status"]) == (1, "contradiction")
        assert payload["sections"]["derived"] and payload["sections"]["contradictions"]
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


PROMPT = "olgm> "


class _Echo:
    """Script lines for ``Repl.run``, each written to ``out`` as it is read,
    so a transcript shows every command after its prompt."""

    def __init__(self, lines: list[str], out: io.StringIO):
        self.lines, self.out = iter(lines), out

    def readline(self) -> str:
        line = next(self.lines, "")
        self.out.write(line)
        return line


def repl_transcript(commands: list[str]) -> str:
    out = io.StringIO()
    Repl(out).run(_Echo(commands, out), prompt=PROMPT)
    return out.getvalue()


REPL_GOLDENS = ["animals", "square", "has_mother", "custodian", "retract", "add_type"]


class TestReplGoldens:
    """REPL sessions pinned byte for byte.  tests/golden/repl/NAME.txt is the
    transcript of a session run in a directory holding copies of the bundled
    documents; its commands are the text after each prompt.  The sessions
    cover ``load``, an ``add`` of every item form (among them a premiss
    already derivable, E and I premisses in non-canonical orientation, and
    premisses that make a contradiction or change a contradiction's
    derivation, or a tree whose height stays), ``why``, ``derived``,
    ``contradictions``, ``retract`` and ``save`` followed by a ``load`` of
    the saved file.  The ``retract`` session removes a premiss that stays
    derivable, one written in non-canonical orientation, one whose removal
    clears a contradiction and one whose O(X,X) stands by another route, an
    A premiss with its ``is`` aspect, and one that is not declared.  The
    ``add_type`` session adds types to a loaded document, then premisses on
    them that derive new facts and a contradiction."""

    @pytest.mark.parametrize("name", REPL_GOLDENS)
    def test_golden(self, tmp_path, monkeypatch, name):
        expected = (GOLDEN_REPL / f"{name}.txt").read_text(encoding="utf-8")
        commands = [line[len(PROMPT):] for line in expected.splitlines(keepends=True)
                    if line.startswith(PROMPT)]
        for doc in DATA.glob("*.olgm"):
            shutil.copy(doc, tmp_path)
        monkeypatch.chdir(tmp_path)
        assert repl_transcript(commands) == expected


def session_script(folder: Path) -> list[str]:
    """The commands of one fixed REPL session, each ending in a newline,
    over copies of the bundled documents and four generated 16-type
    documents written into ``folder``, the working directory: each document
    is loaded, takes eight random adds and retracts, each followed by two
    ``why``s of derived facts and ``derived`` or ``contradictions``, and is
    saved and loaded again.  The choices are drawn from what a session run
    beside the script holds after each command, in sorted order."""
    rng, names = random.Random(41), []
    for doc in sorted(DATA.glob("*.olgm")):
        shutil.copy(doc, folder)
        names.append(doc.name)
    for k in range(4):
        (folder / f"gen{k}.olgm").write_text(render_premiss_only(f"gen{k}", *premiss_only(rng, 16)))
        names.append(f"gen{k}.olgm")
    shadow, commands = Repl(io.StringIO()), []

    def do(command: str) -> None:
        commands.append(command + "\n")
        try:
            shadow.dispatch(command)
        except ValueError:
            pass  # printed as an error by the session, as here

    for name in names:
        do(f"load {name}")
        for w in range(8):
            premisses, types = shadow.doc.premisses, shadow.theory.types
            if premisses and rng.random() < 0.5:
                p = rng.choice(premisses)
                do(f"retract {p.form} {p.predicate} {p.subject}" if p.form in "EI" and rng.random() < 0.5
                   else f"retract {p.form} {p.subject} {p.predicate}")
            else:
                do(f"add {rng.choice('AEIO')} {rng.choice(types)} {rng.choice(types)}")
            for form, s, p in rng.sample(shadow.theory.triples(), 2):
                do(f"why {form} {s} {p}")
            do("derived" if w % 2 else "contradictions")
        do(f"save saved-{name}")
        do(f"load saved-{name}")
        do("derived")
    return commands


class TestReplHashSeed:
    """A REPL session prints the same transcript under any string hash
    seed: a retract re-derives its dropped facts in an order the hash seed
    does not set, and every listing and tree is printed from that table."""

    def test_two_hash_seeds_print_one_transcript(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "script.txt").write_text("".join(session_script(tmp_path)))
        root = Path(__file__).resolve().parents[1]
        probe = ("import sys; from tests.test_cli import repl_transcript; "
                 "sys.stdout.write(repl_transcript(open('script.txt').read().splitlines(keepends=True)))")
        runs = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONIOENCODING": "utf-8",
                   "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])}
            ran = subprocess.run([sys.executable, "-c", probe], capture_output=True, env=env, cwd=tmp_path,
                                 timeout=300)
            assert ran.returncode == 0, ran.stderr.decode()
            runs.append(ran.stdout)
        said = runs[0].decode()
        assert said.count("retracted ") > 20 and said.count("now derivable:") > 20 and "wrote saved-" in said
        assert runs[0] == runs[1]


class TestCheckOracleHashSeed:
    """``check`` and the three ``oracle`` modes write the same JSON under
    any string hash seed, on the bundled documents and on generated
    contradictory ones, whose trees ``check`` takes from a pass over the
    premisses below its goals.  The oracle runs on the documents of at most
    five types."""

    @staticmethod
    def runs(folder: Path) -> list[list[str]]:
        """The argument lists, over the documents they write into ``folder``."""
        rng, paths, small = random.Random(43), sorted(DATA.glob("*.olgm")), []
        found = {16: 0, 40: 0, 80: 0, 5: 0}
        while any(count < 2 for count in found.values()):
            n = rng.choice([n for n, count in found.items() if count < 2])
            types, premisses = premiss_only(rng, n)
            doc = Ologism.build("gen", types, premisses=[proposition(*t) for t in premisses])
            if not any(form == "O" and s == p for form, s, p in deduce.star_rows(doc).triples()):
                continue
            path = folder / f"gen{len(paths)}.olgm"
            path.write_text(render_premiss_only(f"gen{len(paths)}", types, premisses))
            paths.append(path)
            small += [path] if n == 5 else []
            found[n] += 1
        oracled = sorted(DATA.glob("*.olgm")) + small
        return ([["--format", "json", "check", str(p)] for p in paths]
                + [["--format", "json", "oracle", str(p), "--mode", mode]
                   for p in oracled for mode in ("models", "soundness", "completeness")])

    def test_two_hash_seeds_write_one_report(self, tmp_path):
        runs = self.runs(tmp_path)
        (tmp_path / "runs.json").write_text(json.dumps(runs))
        root = Path(__file__).resolve().parents[1]
        probe = ("import json; from ologism.cli import main; "
                 "[main(argv) for argv in json.load(open('runs.json'))]")
        outs = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONIOENCODING": "utf-8",
                   "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])}
            ran = subprocess.run([sys.executable, "-c", probe], capture_output=True, env=env, cwd=tmp_path,
                                 timeout=300)
            assert ran.returncode == 0, ran.stderr.decode()
            outs.append(ran.stdout)
        said = outs[0].decode()
        assert said.count('"command": ') == len(runs)
        assert said.count('"status": "contradiction"') >= 8 and said.count('"derivation": ') > 20
        assert outs[0] == outs[1]


class ReplSession(RuleBasedStateMachine):
    """A REPL session under random writes and queries.  After each write
    the session holds the table, and prints the ``derived`` and
    ``contradictions`` listings, that a fresh load of its saved document
    does, and an ``add`` lists as now derivable just the facts it gained;
    every ``why``, ``derived`` and ``contradictions`` prints what it prints
    in that fresh session."""

    def __init__(self, folder: Path):
        super().__init__()
        self.folder = folder

    @initialize(n=st.integers(1, 3))
    def load(self, n):
        path = self.folder / "start.olgm"
        path.write_text(serialize(Ologism.build("session", [f"T{k}" for k in range(n)])))
        self.session = Repl(io.StringIO())
        self.session.dispatch(f"load {path}")
        self.reload()

    @staticmethod
    def ask(repl: Repl, command: str) -> str:
        """What ``command`` prints, a user error as ``Repl.run`` prints it."""
        repl.out = io.StringIO()
        try:
            repl.dispatch(command)
        except ValueError as exc:
            repl.say(f"error: {exc}")
        return repl.out.getvalue()

    def reload(self) -> None:
        path = self.folder / "saved.olgm"
        self.ask(self.session, f"save {path}")
        self.fresh = Repl(io.StringIO())
        self.fresh.dispatch(f"load {path}")

    def same(self, command: str) -> None:
        assert self.ask(self.session, command) == self.ask(self.fresh, command), command

    def write(self, command: str) -> None:
        before = set(self.session.theory.steps)
        out = self.ask(self.session, command).splitlines()
        self.reload()
        assert dict(self.session.theory.steps) == dict(self.fresh.theory.steps), command
        assert self.session.theory.index == join_index(self.session.theory.steps), command
        if command.startswith("add "):
            # Every canonical fact the add gains but an identity, in sort order.
            gained = [f"{form}({s},{p})" for form, s, p in self.session.theory.triples()
                      if (form, s, p) not in before and not (form == "A" and s == p)]
            listed = []
            if "now derivable:" in out:
                for line in out[out.index("now derivable:") + 1:]:
                    if not line.startswith("  "):
                        break
                    listed.append(line.split()[0])
            assert listed == gained, command
        self.same("derived")
        self.same("contradictions")

    def fact(self, data, terms: list[str]) -> str:
        form = data.draw(st.sampled_from("AEIO"))
        return " ".join([form, data.draw(st.sampled_from(terms)), data.draw(st.sampled_from(terms))])

    def derived_facts(self) -> list[deduce.Triple]:
        theory = self.session.theory
        return deduce.beyond_premisses(theory.triples(), theory.ologism.premisses, theory.types)

    @rule(data=st.data())
    def add_premiss(self, data):
        self.write(f"add {self.fact(data, list(self.session.theory.types))}")

    @precondition(lambda self: self.derived_facts())
    @rule(data=st.data())
    def add_derived_premiss(self, data):
        # Retracting it later drops it, and it must be derived again.
        self.write("add {} {} {}".format(*data.draw(st.sampled_from(self.derived_facts()))))

    @precondition(lambda self: self.session.doc.premisses)
    @rule(data=st.data())
    def retract_premiss(self, data):
        p = data.draw(st.sampled_from(self.session.doc.premisses))
        self.write(f"retract {p.form} {p.subject} {p.predicate}")

    @precondition(lambda self: len(self.session.theory.types) < 4)
    @rule()
    def add_type(self):
        self.write(f'add type N{len(self.session.theory.types)} "a new type"')

    @rule(data=st.data())
    def why(self, data):
        # Now and then a term that is not a type.
        self.same(f"why {self.fact(data, list(self.session.theory.types) + ['Q'])}")

    @rule()
    def derived(self):
        self.same("derived")

    @rule()
    def contradictions(self):
        self.same("contradictions")


class TestRepl:
    def test_writes_match_a_fresh_load(self, tmp_path):
        run_state_machine_as_test(lambda: ReplSession(tmp_path),
                                  settings=settings(max_examples=30, stateful_step_count=15, deadline=None))

    def run_session(self, lines: list[str]) -> str:
        out = io.StringIO()
        Repl(out).run(io.StringIO("\n".join(lines) + "\n"), prompt="")
        return out.getvalue()

    def test_load_and_query(self):
        out = self.run_session([
            f"load {DATA / 'animals.olgm'}",
            "derived",
            "why O V A",
            "quit",
        ])
        assert "O(V,A)" in out and "R7" in out

    def test_add_then_contradiction_then_retract(self):
        out = self.run_session([
            f"load {DATA / 'animals.olgm'}",
            "add E M A",
            "contradictions",
            "retract E M A",
            "contradictions",
            "quit",
        ])
        assert "CONTRADICTION" in out
        assert "O(M,M)" in out or "O(A,A)" in out
        assert "consistent" in out

    def test_add_prints_the_parsers_warnings(self):
        # Every diagnostic of an item, in order, as a load of it would print.
        out = self.run_session([
            f"load {DATA / 'animals.olgm'}",
            'add type Z "zed"',
            'add type Y "zed" junk',
            "quit",
        ])
        warning = "1:8: warning: LabelWithoutArticle: label 'zed' does not begin with an indefinite article\n"
        assert out.endswith("\n" + warning + warning
                            + "1:14: error: UnexpectedToken: expected a declaration keyword, found 'junk'\n")

    def test_why_names_a_term_that_is_not_a_type(self):
        # A declared fact the calculus misses is not derivable; a term that
        # is no type of the document is an error naming the first such term.
        out = self.run_session([
            f"load {DATA / 'animals.olgm'}",
            "why O Q Q", "why I V Z", "why A Q V", "why A V M", "why O V A",
            "quit",
        ])
        assert out.count("error: unknown type ") == 3
        assert "error: unknown type 'Q'\nerror: unknown type 'Z'\nerror: unknown type 'Q'\nnot derivable\n" in out
        assert "O(V,A)   (R7)" in out

    def test_bare_add_says_its_usage(self):
        out = self.run_session([f"load {DATA / 'animals.olgm'}", "add", "quit"])
        assert out.endswith("\nerror: usage: add ITEM\n")

    def test_blank_lines_unknown_commands_and_bare_words(self, tmp_path):
        # A blank line is skipped; a load with parse errors prints them and
        # keeps the document; a bare load or save and a retract of what is
        # not a premiss say their usage.
        bad = tmp_path / "bad.olgm"
        bad.write_text('ologism "bad" {\n  type Z "a z"\n  E Z\n}\n')
        out = self.run_session(["", "   ", "frobnicate", "load", f"load {DATA / 'animals.olgm'}", f"load {bad}",
                                "retract type B", "save", "contradictions", "quit"])
        assert out.startswith("ologism workbench; 'help' lists commands\n"
                              "unknown command 'frobnicate'; 'help' lists commands\n"
                              "error: usage: load FILE\n"
                              "loaded 'animals': 4 types, 5 premisses\n")
        assert out.endswith('"Some vertebrate is not an animal that is able to fly"\n'
                            "4:1: error: UnexpectedToken: expected the predicate type, found '}'\n"
                            "error: retract handles premisses, e.g.: retract E B M\n"
                            "error: usage: save FILE\n"
                            "consistent: no O(X,X) is derivable\n")

    def test_save_says_it_cannot_write(self, tmp_path):
        target = tmp_path / "nosuchdir" / "x.olgm"
        out = self.run_session([f"load {DATA / 'animals.olgm'}", f"save {target}", "derived", "quit"])
        assert f"\nerror: cannot write {target}: [Errno 2] No such file or directory: " in out
        assert "I(A,V)" in out.split("cannot write")[1]  # the session goes on
        assert not target.parent.exists()

    def test_models_beyond_the_count_bound(self):
        out = self.run_session([
            f"load {DATA / 'animals.olgm'}",
            "models 100000",
            "models 2",
            "quit",
        ])
        assert "error: " in out and "more than 4300 digits" in out
        assert "model(s) on a 2-element universe" in out

    def test_models_wants_a_positive_count(self):
        out = self.run_session([
            f"load {DATA / 'animals.olgm'}",
            "models x",
            "models 0",
            "models -2",
            "models",
            "quit",
        ])
        assert out.count("error: usage: models N, with N a positive integer\n") == 3
        assert "42 model(s) on a 3-element universe" in out

    def test_models_and_save(self, tmp_path):
        target = tmp_path / "copy.olgm"
        out = self.run_session([
            f"load {DATA / 'animals.olgm'}",
            "models 3",
            f"save {target}",
            "quit",
        ])
        assert "42 model(s)" in out
        assert target.exists()
        from ologism.dsl import parse_ologism
        assert parse_ologism(target.read_text()).value is not None

    def test_errors_do_not_kill_the_loop(self):
        out = self.run_session(["why X", "derived", "load /nope/missing.olgm", "help", "quit"])
        assert out.count("error:") >= 2
        assert "commands:" in out

    def test_state_equals_closure_from_scratch(self, tmp_path):
        # After a mutation the session state must equal the closure computed
        # from scratch over the final premiss set: no incremental drift.
        target = tmp_path / "edited.olgm"
        out = self.run_session([
            f"load {DATA / 'square.olgm'}",
            "add I S S",
            "retract A R Q",
            "derived",
            f"save {target}",
            "quit",
        ])
        assert "I(S,Q)" in out or "I(Q,S)" in out  # derived while A R Q held

        from ologism.core import A, I
        from ologism.deduce import close
        from ologism.dsl import parse_ologism

        saved = parse_ologism(target.read_text()).value
        assert set(saved.premisses) == {A("S", "R"), I("S", "S")}
        replayed = close(saved)
        fresh = close(saved.replace_premisses(saved.premisses))
        for form in "AEIO":
            assert replayed.star(form) == fresh.star(form)
        assert I("S", "R") in replayed.iota_star
        assert A("S", "Q") not in replayed.alpha_star

    def test_a_premiss_keeps_its_orientation_across_writes_and_save(self, tmp_path):
        # ``why`` shows the premiss as written, then the symmetry step, after
        # a later write and after saving and loading again.
        source, target = tmp_path / "three.olgm", tmp_path / "saved.olgm"
        source.write_text(serialize(Ologism.build("three", ["T0", "T1", "T2"])))
        shown = "I(T0,T1)   (Symmetry)\n  I(T1,T0)   (Premiss)\n"
        out = self.run_session([
            f"load {source}", "add I T1 T0", "why I T0 T1",
            "add A T2 T2", "why I T0 T1",
            f"save {target}", f"load {target}", "why I T0 T1", "quit",
        ])
        assert out.count(shown) == 3
        assert "  I T1 T0\n" in target.read_text()

    def test_rejected_add_keeps_the_document(self, tmp_path, animals):
        target = tmp_path / "after.olgm"
        out = self.run_session([
            f"load {DATA / 'animals.olgm'}",
            'add type Z ""',
            "add O V B }",
            f"save {target}",
            "derived",
            "quit",
        ])
        assert "\n1:8: error: EmptyTypeLabel: type 'Z' has an empty label\n1:" in out
        # The item's brace closes the spliced document; the document's own,
        # reported just past the item, is left over.
        assert "1:8: error: UnexpectedToken: expected end of input, found '}'" in out
        assert "now derivable" not in out.split("EmptyTypeLabel")[1]
        assert target.read_text() == serialize(animals)
        assert out.count("O(V,A)") == 2  # from load, then from derived

    def test_add_diagnostics_point_into_the_item(self):
        out = self.run_session([f"load {DATA / 'animals.olgm'}", "add E X Y", "add E B", "quit"])
        assert "1:1: error: UnknownType: premiss E(X,Y) uses undeclared type 'X'\n" in out
        assert "1:1: error: UnknownType: premiss E(X,Y) uses undeclared type 'Y'\n" in out
        # The item ends before its predicate: the spliced closing brace is just past it.
        assert "1:4: error: UnexpectedToken: expected the predicate type, found '}'\n" in out

    def test_rejected_load_keeps_the_document(self, tmp_path):
        bad = tmp_path / "bad.olgm"
        bad.write_text('ologism "bad" {\n  type Z ""\n}\n')
        repl = Repl(io.StringIO())
        repl.run(io.StringIO(f"load {DATA / 'animals.olgm'}\n"), prompt="")
        doc, theory = repl.doc, repl.theory
        out = io.StringIO()
        repl.out = out
        repl.run(io.StringIO(f"load {bad}\nderived\n"), prompt="")
        assert "loaded" not in out.getvalue()
        assert "2:10: error: EmptyTypeLabel: type 'Z' has an empty label\n" in out.getvalue()
        assert repl.doc is doc and repl.theory is theory

    def test_retract_finds_its_target_by_canonical_triple(self, tmp_path):
        # E Y X names the written E X Y; an A premiss goes with its ``is`` aspect.
        source = tmp_path / "three.olgm"
        source.write_text('ologism "three" {\n  type X "an x"\n  type Y "a y"\n  type Z "a z"\n'
                          '  E X Y\n  A X Z\n  I Y Z\n}\n')
        repl = Repl(io.StringIO())
        repl.dispatch(f"load {source}")
        out = repl.out = io.StringIO()
        repl.dispatch("retract E Y X")
        with pytest.raises(ValueError, match=r"premiss E\(X,Y\) is not declared"):
            repl.dispatch("retract E X Y")
        repl.dispatch("retract A X Z")
        repl.dispatch("retract I Z Y")
        assert out.getvalue() == "retracted E(Y,X)\nretracted A(X,Z)\nretracted I(Z,Y)\n"
        doc = repl.theory.ologism
        assert doc.premisses == () and doc.aspects == ()
        assert repl.theory == deduce.close(Ologism.build("three", doc.types))

    def test_rejected_retract_keeps_the_document(self, tmp_path):
        # Retracting A X Y drops the ``is`` arrow X -> Y that the fact uses.
        source = tmp_path / "arrow.olgm"
        source.write_text('ologism "arrow" {\n  type X "an x"\n  type Y "a y"\n'
                          '  aspect f : X -> Y\n  A X Y\n  fact "same" : f = is\n}\n')
        repl = Repl(io.StringIO())
        repl.run(io.StringIO(f"load {source}\n"), prompt="")
        theory = repl.theory
        out = io.StringIO()
        repl.out = out
        repl.run(io.StringIO("retract A X Y\nwhy A X Y\n"), prompt="")
        assert "error: ologism fails validation: FactAspectUndeclared" in out.getvalue()
        assert "retracted" not in out.getvalue()
        assert "A(X,Y)   (Premiss)" in out.getvalue()
        assert repl.theory is theory

    @pytest.mark.parametrize("name", ["NOT_UTF8", "ABSENT"])
    def test_unreadable_load_keeps_the_document(self, capsys, inputs, name):
        # The REPL reports the file as the CLI's io_error does.
        path = inputs[name]
        said = run(capsys, "check", path)[1]
        assert said.startswith(f"cannot read {path}: ")
        repl = Repl(io.StringIO())
        repl.run(io.StringIO(f"load {DATA / 'animals.olgm'}\n"), prompt="")
        theory = repl.theory
        out = io.StringIO()
        repl.out = out
        repl.run(io.StringIO(f"load {path}\n"), prompt="")
        assert f"\nerror: {said}" in out.getvalue()
        assert repl.theory is theory


class TestReplHelp:
    """``help`` lists the table of commands, and a word that names none is
    reported, both byte for byte."""

    def test_help_and_an_unknown_word(self):
        out = io.StringIO()
        Repl(out).run(io.StringIO("help\nfrobnicate x\nquit\n"), prompt="> ")
        assert out.getvalue() == (
            "ologism workbench; 'help' lists commands\n"
            "> commands:\n"
            "  load FILE             read an ologism document\n"
            "  add ITEM              add a declaration (same syntax as in a document)\n"
            "  retract ITEM          remove a declaration\n"
            "  why PROP              show the derivation of a proposition, e.g.  why O V A\n"
            "  derived               list propositions derived beyond the premisses\n"
            "  contradictions        list every derivable O(X,X)\n"
            "  models N              count models on an N-element universe (is-only documents)\n"
            "  save FILE             write the current document canonically\n"
            "  help                  this text\n"
            "  quit                  leave\n"
            "\n"
            "> unknown command 'frobnicate'; 'help' lists commands\n"
            "> ")


class TestReplRobustness:
    """The REPL's slice of the robustness promise: seeded sessions through
    ``Repl.dispatch`` that use every command of the table on mutated
    documents, items and premisses, and send unknown words and blank lines.
    Each error is a ``ValueError``, which ``run`` prints as ``error: ...``;
    each session ends within 2 s; and after every line the session's
    document, if it has one, passes ``core._diagnose``."""

    SEED, SESSIONS, LINES, BOUND_S = 31, 24, 40, 2.0

    @staticmethod
    def line(rng: random.Random, repl: Repl, folder: Path, k: int) -> str:
        """One command, drawn from what ``repl`` holds."""
        types = list(repl.theory.types) if repl.theory else ["T0"]
        premisses = repl.doc.premisses if repl.doc else ()
        fact = f"{rng.choice('AEIO')} {rng.choice(types + ['Q'])} {rng.choice(types)}"
        word = rng.choice(["load", "load", "add", "add", "add", "retract", "retract", "why", "why", "derived",
                           "contradictions", "models", "help", "save", "frobnicate", ""])
        if word == "load":
            doc = rng.choice(sorted(DATA.glob("*.olgm")))
            path = folder / f"{k}.olgm"
            text = doc.read_text(encoding="utf-8")
            path.write_text(mutate(rng, text) if rng.randrange(2) else text, encoding="utf-8")
            return f"load {path}"
        if word == "add":
            item = rng.choice([fact, fact, f'type N{k} "a new one"', 'type Z ""', f"aspect g : {fact[2:]}",
                               "fact : g = g", *[f"{p.form} {p.subject} {p.predicate}" for p in premisses[:2]]])
            return f"add {mutate(rng, item) if rng.randrange(3) == 0 else item}"
        if word == "retract":
            item = fact
            if premisses and rng.randrange(3):
                p = rng.choice(premisses)
                item = f"{p.form} {p.subject} {p.predicate}"
            return f"retract {mutate(rng, item) if rng.randrange(4) == 0 else item}"
        if word == "why":
            return f"why {mutate(rng, fact) if rng.randrange(4) == 0 else fact}"
        if word == "models":
            return f"models {rng.randint(1, 3)}"
        if word == "save":
            return f"save {folder / f'saved-{k}.olgm'}"
        return word

    def test_every_session_keeps_a_valid_document_in_bounded_time(self, tmp_path):
        rng, words = random.Random(self.SEED), set()
        for k in range(self.SESSIONS):
            repl, start = Repl(io.StringIO()), time.perf_counter()
            for j in range(self.LINES):
                line = self.line(rng, repl, tmp_path, k * self.LINES + j)
                words.add(line.partition(" ")[0])
                try:
                    repl.dispatch(line)
                except ValueError:
                    pass  # printed by ``run`` as an error
                except Exception as exc:
                    pytest.fail(f"{line!r} raised {exc!r}")
                if repl.doc is not None:
                    assert core._diagnose(repl.doc) == [], line
            assert time.perf_counter() - start < self.BOUND_S, k
        assert words >= {syntax.split()[0] for syntax, _, method in COMMANDS if method}
