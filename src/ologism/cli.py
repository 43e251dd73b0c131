"""Command-line front end.

A subcommand only sets its report's status; ``EXIT_CODES`` maps the status
to the exit code, uniformly across subcommands:

    0  ok (document consistent, proof found, checks pass)
    1  a logical finding (contradiction, rejection, violation, fail)
    2  parse_error in an input document, or a command-line usage error
    3  io_error

``--format json`` renders the same report as a stable JSON envelope
(validated by ``schemas/report.schema.json``), byte for byte as
``json.dumps(indent=2, sort_keys=True)`` writes it, then a newline; text
output is byte-identical for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

# Each run starts a fresh interpreter, so the engines (deduce, syll, oracle,
# dot, repl) are imported by the subcommands that run them, not here.
from . import dsl
# validate is unused here, but the benchmark's tracer wraps ologism.cli.validate by name.
from .core import Ologism, proposition, reading, reading_of, validate  # noqa: F401
from .model import check_model

# One entry per value of ``status`` in ``schemas/report.schema.json``.
EXIT_CODES = {"ok": 0, "contradiction": 1, "rejection": 1, "violation": 1, "fail": 1,
              "parse_error": 2, "io_error": 3}


@dataclass
class Report:
    """What a command has to say, renderable as text or JSON."""

    command: str
    status: str = "ok"  # a key of EXIT_CODES
    sections: dict[str, Any] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)

    def say(self, text: str = "") -> None:
        self.lines.append(text)

    def emit(self, fmt: str, out, color: bool = False) -> None:
        if fmt == "json":
            out.write(json_text({"command": self.command, "status": self.status,
                                 "sections": self.sections}) + "\n")
            return
        for line in self.lines:
            if color:
                if line.startswith("CONTRADICTION") or line.startswith("rejected:"):
                    line = f"\x1b[31m{line}\x1b[0m"
                elif line.startswith(("consistent:", "valid;")) or line.endswith(" ok"):
                    line = f"\x1b[32m{line}\x1b[0m"
            out.write(line + "\n")


def json_text(value: Any) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for a value made of
    dicts with str keys, lists, str, int, bool and None; any other type
    raises ``TypeError``.  Strings go through the C encoder that ``json``
    itself uses; the indented structure is joined here, where ``json`` would
    walk it in pure Python."""
    from json.encoder import encode_basestring_ascii

    def write(value: Any, indent: str) -> str:
        if isinstance(value, str):
            return encode_basestring_ascii(value)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, int):
            return int.__repr__(value)
        inner = indent + "  "
        if isinstance(value, list):
            if not value:
                return "[]"
            return "[" + inner + ("," + inner).join([write(v, inner) for v in value]) + indent + "]"
        if isinstance(value, dict):
            if not value:
                return "{}"
            items = []
            for key in sorted(value):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                item = value[key]
                items.append(encode_basestring_ascii(key) + ": " + (
                    encode_basestring_ascii(item) if type(item) is str else write(item, inner)))
            return "{" + inner + ("," + inner).join(items) + indent + "}"
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    return write(value, "\n")


def _read_file(path: str, report: Report) -> Optional[str]:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        report.status = "io_error"
        report.say(f"cannot read {path}: {exc}")
        report.sections["error"] = str(exc)
        return None


def _load_ologism(path: str, report: Report) -> Optional[Ologism]:
    source = _read_file(path, report)
    if source is None:
        return None
    result = dsl.parse_ologism(source)
    diags = [str(d) for d in result.diagnostics]
    if diags:
        report.sections["diagnostics"] = diags
        for d in diags:
            report.say(d)
    if result.value is None:  # a document either reader returns passes validate
        report.status = "parse_error"
    return result.value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _term(text: str) -> str:
    """A term name as written on the command line: stripped, a document identifier."""
    term = text.strip()
    if not dsl._is_ident(term):
        raise argparse.ArgumentTypeError(f"{text!r} is not a term name")
    return term


def _parse_literal(text: str):
    """Proposition literals as written on the command line: ``E:M,P``."""
    try:
        form, pair = text.split(":", 1)
        subject, predicate = pair.split(",", 1)
        return proposition(form.strip(), _term(subject), _term(predicate))
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a proposition literal like A:S,P"
        ) from exc


# --- subcommands ---------------------------------------------------------------


def cmd_check(args, report: Report) -> None:
    from . import deduce
    doc = _load_ologism(args.path, report)
    if doc is None:
        return
    stars = deduce.star_rows(doc)
    triples = stars.triples()
    derived = [(f"{form}({s},{p})", reading_of(form, s, p, doc))
               for form, s, p in deduce.beyond_premisses(triples, doc.premisses, stars.types)]
    goals = [t for t in triples if t[0] == "O" and t[1] == t[2]]  # in type order
    steps = stars.steps_below(goals) if goals else {}
    clashes = [(x, reading(proposition("O", x, x), doc), deduce.render(steps, ("O", x, x)))
               for _, x, _ in goals]

    report.say(f"ologism {doc.name!r}: {len(doc.types)} types, "
               f"{len(doc.aspects)} aspects, {len(doc.facts)} facts, "
               f"{len(doc.premisses)} premisses")
    report.sections["ologism"] = doc.name
    report.sections["derived"] = [{"proposition": text, "reading": said} for text, said in derived]
    if derived:
        report.say("derived beyond the premisses:")
        report.lines += [f"  {text}   \"{said}\"" for text, said in derived]
    else:
        report.say("nothing derivable beyond the premisses")

    report.sections["contradictions"] = [
        {"type": x, "reading": said, "derivation": tree} for x, said, tree in clashes
    ]
    if clashes:
        report.status = "contradiction"
        for x, said, tree in clashes:
            report.say(f"CONTRADICTION O({x},{x}), read \"{said}\":")
            report.say("  " + tree.replace("\n", "\n  "))  # as render(indent=1)
        return
    report.say("consistent: no O(X,X) is derivable")


def cmd_prove(args, report: Report) -> None:
    from . import syll
    premisses = list(args.premiss)
    if args.existential_import:
        premisses.append(proposition("I", args.existential_import, args.existential_import))
    try:
        result = syll.prove(premisses, args.conclusion)
    except syll.PatternError as exc:
        report.status = "parse_error"
        report.sections["error"] = str(exc)
        report.say(f"not a syllogistic pattern: {exc}")
        return
    prem_text = ", ".join(str(p) for p in premisses)
    if isinstance(result, syll.Rejection):
        report.status = "rejection"
        report.sections["rejection"] = {"reason": result.reason, "detail": result.detail}
        report.say(f"{prem_text} |- {args.conclusion}")
        report.say(str(result))
        return
    report.sections["proof"] = result.render()
    if args.dot:
        from . import dot
        text = dot.proof_tree_dot(result)
        report.sections["dot"] = text
        report.lines = [text.rstrip("\n")]
        return
    report.say(f"{prem_text} |- {args.conclusion}")
    report.say("valid; proof tree:")
    report.say(result.render(indent=1))


def cmd_enumerate(args, report: Report) -> None:
    from . import syll
    records = syll.enumerate_moods(with_import=args.existential_import)
    valid = [r for r in records if r.valid]
    direct = [r for r in records if r.valid_direct]
    report.sections["total"] = len(records)
    report.sections["valid"] = len(valid)
    report.sections["valid_direct"] = len(direct)
    report.sections["moods"] = [
        {
            "mood": r.mood,
            "valid": r.valid,
            "direct": r.valid_direct,
            "imports": list(r.import_terms),
            "rejection": r.rejection,
        }
        for r in records
    ]
    report.say(f"{len(records)} forms; {len(direct)} valid outright"
               + (f", {len(valid)} with existential import" if args.existential_import else ""))
    for r in records:
        if not r.valid:
            continue
        note = "" if r.valid_direct else f"   (import on {', '.join(r.import_terms)})"
        report.say(f"  {r.mood}{note}")


def cmd_model_check(args, report: Report) -> None:
    doc = _load_ologism(args.ologism, report)
    if doc is None:
        return
    source = _read_file(args.model, report)
    if source is None:
        return
    parsed = dsl.parse_model(source)
    if parsed.value is None:
        report.status = "parse_error"
        for d in parsed.diagnostics:
            report.say(str(d))
        report.sections["diagnostics"] = [str(d) for d in parsed.diagnostics]
        return
    model = parsed.value
    if model.for_ologism and model.for_ologism != doc.name:
        report.say(f"note: model is declared for {model.for_ologism!r}, checking against {doc.name!r}")
    outcome = check_model(doc, model, against=args.against)
    report.sections["violations"] = [str(v) for v in outcome.violations]
    report.sections["alarms"] = list(outcome.alarms)
    if outcome.ok:
        report.say(f"model {model.name!r} satisfies {doc.name!r} against {args.against}")
        return
    report.status = "violation"
    for v in outcome.violations:
        report.say(str(v))
    for a in outcome.alarms:
        report.say(f"ALARM: {a}")


def cmd_oracle(args, report: Report) -> None:
    from . import oracle
    doc = _load_ologism(args.path, report)
    if doc is None:
        return
    config = oracle.OracleConfig(universe_size=args.universe, seed=args.seed,
                                 sample_count=args.samples)
    try:
        if args.mode == "models":
            count = oracle.count_models(doc, config)
            report.sections["models"] = count
            report.say(f"{count} model(s) on a {args.universe}-element universe")
            return
        if args.mode == "soundness":
            verdict = oracle.check_soundness(doc, config)
            report.sections["soundness"] = {
                "passed": verdict.passed,
                "mode": verdict.mode,
                "models_checked": verdict.models_checked,
                "inconclusive": verdict.inconclusive,
            }
            report.say(str(verdict))
            if not verdict.passed:
                report.status = "fail"
            return
        verdict = oracle.check_completeness(doc, config)
        report.sections["completeness"] = {
            "passed": verdict.passed,
            "universe_size": verdict.universe_size,
            "gap": [str(p.canonical()) for p in sorted(verdict.gap, key=lambda p: p.sort_key())],
            "gap_at_next": [
                str(p.canonical()) for p in sorted(verdict.gap_at_next, key=lambda p: p.sort_key())
            ],
            "gap_closed_by_import": verdict.gap_closed_by_import,
        }
        report.say(str(verdict))
        if not verdict.passed:
            report.say(f"gap re-checked at universe size {verdict.universe_size + 1}: "
                       f"{len(verdict.gap_at_next)} proposition(s) remain")
            report.status = "fail"
    except (oracle.FragmentError, oracle.ScaleError) as exc:
        report.status = "fail"
        report.sections["error"] = str(exc)
        report.say(str(exc))


def cmd_export_dot(args, report: Report) -> None:
    from . import dot
    doc = _load_ologism(args.path, report)
    if doc is None:
        return
    derived = ()
    if args.derived:
        from . import deduce
        triples = deduce.star_rows(doc).triples()
        derived = [proposition(*t) for t in deduce.beyond_premisses(triples, doc.premisses, doc.type_ids())]
    text = dot.export_dot(doc, derived)
    report.sections["dot"] = text
    report.lines = [text.rstrip("\n")]


def cmd_repl(args, report: Report) -> None:
    from .repl import Repl
    Repl(sys.stdout).run(sys.stdin)


# --- wiring ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ologism",
        description="reasoning tools for ontology logs with syllogistic constraints",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    parser.add_argument("--no-color", action="store_true", help="disable ANSI color")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a document, close it, report contradictions")
    p.add_argument("path")
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("prove", help="run the diagrammatic validity algorithm")
    p.add_argument("--premiss", action="append", required=True, type=_parse_literal,
                   metavar="FORM:S,P", help="premiss literal, e.g. E:M,P (repeatable)")
    p.add_argument("--import", dest="existential_import", type=_term, metavar="X",
                   help="add the existential import premiss I(X,X)")
    p.add_argument("--conclusion", required=True, type=_parse_literal, metavar="FORM:S,P")
    p.add_argument("--dot", action="store_true", help="emit the proof tree as Graphviz DOT")
    p.set_defaults(run=cmd_prove)

    p = sub.add_parser("enumerate", help="classify all 256 syllogistic forms")
    p.add_argument("--import", dest="existential_import", action="store_true",
                   help="retry failures with existential import premisses")
    p.set_defaults(run=cmd_enumerate)

    p = sub.add_parser("model-check", help="check a model document against an ologism")
    p.add_argument("ologism")
    p.add_argument("model")
    p.add_argument("--against", choices=("premisses", "closure"), default="premisses")
    p.set_defaults(run=cmd_model_check)

    p = sub.add_parser("oracle", help="exhaustive and randomized semantic checks")
    p.add_argument("path")
    p.add_argument("--universe", type=_positive_int, default=3, metavar="N")
    p.add_argument("--mode", choices=("soundness", "completeness", "models"), default="soundness")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=_positive_int, default=1000)
    p.set_defaults(run=cmd_oracle)

    p = sub.add_parser("export-dot", help="write the document as Graphviz DOT")
    p.add_argument("path")
    p.add_argument("--derived", action="store_true", help="include derived propositions as dashed edges")
    p.set_defaults(run=cmd_export_dot)

    p = sub.add_parser("repl", help="interactive authoring loop")
    p.set_defaults(run=cmd_repl)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser, built on the first ``main`` call rather than at
    import: building it costs more than most commands do."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    report = Report(command=args.command)
    args.run(args, report)
    if args.command != "repl":
        color = (not args.no_color) and args.format == "text" and sys.stdout.isatty()
        report.emit(args.format, sys.stdout, color)
    return EXIT_CODES[report.status]


if __name__ == "__main__":
    sys.exit(main())
