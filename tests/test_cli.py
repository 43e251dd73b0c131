from __future__ import annotations

import io
import json
import time
from pathlib import Path

import jsonschema
import pytest

from ologism.cli import EXIT_CODES, main
from ologism.core import Ologism
from ologism.dsl import serialize
from ologism.repl import Repl
from .oracles import check_dot

DATA = Path(__file__).resolve().parents[1] / "src" / "ologism" / "data"
GOLDEN_DOT = Path(__file__).resolve().parent / "golden" / "dot"
GOLDEN_ORACLE = Path(__file__).resolve().parent / "golden" / "oracle"
GOLDEN_CHECK = Path(__file__).resolve().parent / "golden" / "check"
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
    (["export-dot", "DOC/animals.olgm", "--derived"], "ok"),
    (["export-dot", "BAD"], "parse_error"),
    (["export-dot", "ABSENT"], "io_error"),
]


@pytest.fixture
def inputs(tmp_path, contradictory) -> dict[str, str]:
    (tmp_path / "bad.olgm").write_text('ologism "x" {\n  E A B\n}\n')
    (tmp_path / "incon.olgm").write_text(INCONCLUSIVE)
    model = (DATA / "has_mother.olgmodel").read_text()
    (tmp_path / "broken.olgmodel").write_text(model.replace("Susan -> Elen2", "Susan -> Elen1"))
    return {"SQUARE": contradictory, "BAD": str(tmp_path / "bad.olgm"),
            "ABSENT": str(tmp_path / "absent.olgm"), "INCONCLUSIVE": str(tmp_path / "incon.olgm"),
            "BROKEN_MODEL": str(tmp_path / "broken.olgmodel")}


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


class TestRepl:
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
        assert "error: ologism fails validation: EmptyTypeLabel" in out
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
        assert "error: ologism fails validation: EmptyTypeLabel" in out.getvalue()
        assert repl.doc is doc and repl.theory is theory
