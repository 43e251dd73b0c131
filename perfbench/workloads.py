"""The four workloads.  Each builds its fixed list of operations from the seed
before anything is timed; ``ops()`` hands out that list for one pass.

``PASS_S`` is a pass's nominal time, measured on the 2-core container the
benchmark was tuned on (Python 3.11); with ``--seconds`` it fixes how many
passes a run makes.  See ``design.json`` for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from pathlib import Path

from perfbench import docs, reference
from perfbench.harness import Op
from perfbench.reference import expect, key

import ologism.cli
import ologism.eqtheory
import ologism.repl


def cli(*argv: str) -> tuple[int, str]:
    """``ologism ARGV`` in process, stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ologism.cli.main(list(argv))
    return code, buf.getvalue()


def _cli_fingerprint(output) -> str:
    return f"{output[0]}\n{output[1]}"


def cli_op(kind: str, argv, check) -> Op:
    """An in-process ``ologism ARGV`` op, labelled with file base names."""
    label = " ".join(Path(a).name if "/" in a else a for a in argv)
    return Op(kind, "cli", lambda: cli(*argv), check, label=label, fingerprint=_cli_fingerprint)


class Workload:
    PASS_S: float
    STATEFUL = False  # whether an op depends on the ops before it

    def __init__(self, root: Path, inputs: Path, seed: int):
        self.root, self.inputs, self.seed = root, inputs, seed
        self.rng = random.Random(f"{self.name}/{seed}")
        self.files: dict[str, str] = {}  # generated inputs, name -> text
        self._ops = self.build()

    def write(self, name: str, text: str) -> str:
        self.files[name] = text
        path = self.inputs / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def ops(self) -> list[Op]:
        return self._ops

    def build(self) -> list[Op]:
        raise NotImplementedError


# --- closure-large -----------------------------------------------------------


class ClosureLarge(Workload):
    """``ologism --format json check DOC`` on premiss-only documents of 40-120 types."""

    name = "closure-large"
    PASS_S = 4.5
    DOCS = 120
    TYPES = (40, 120)
    # Closure size over type count, which the generator centres on about 3.1
    # at every size from 40 to 120 types: documents outside about its middle
    # 70% are redrawn, so that the few with far larger closures do not set
    # op_p50_ms and op_tail_ms for their seed.
    CLOSURE_PER_TYPE = (2.8, 3.5)

    def build(self) -> list[Op]:
        low, high = self.TYPES
        ops = []
        for k in range(self.DOCS):
            n_types = low + ((high - low) * k) // (self.DOCS - 1)
            while True:
                types, premisses = docs.premiss_only(self.rng, n_types)
                closed = reference.closure(types, premisses)
                if self.CLOSURE_PER_TYPE[0] <= len(closed) / n_types <= self.CLOSURE_PER_TYPE[1]:
                    break
            path = self.write(f"closure-{k}.olgm", docs.render_premiss_only(f"closure-{k}", types, premisses))
            ops.append(cli_op("check", ("--format", "json", "check", path),
                              lambda out, t=types, p=premisses, c=closed: self.check(t, p, c, out)))
        self.rng.shuffle(ops)
        return ops

    def check(self, types, premisses, closed, output) -> None:
        code, text = output
        report = reference.report(self.root, text)
        derived = {d["proposition"] for d in report["sections"]["derived"]}
        expect(derived == reference.beyond_premisses(types, premisses, closed),
               "check: derived propositions differ from the naive fixpoint")
        clashes = {c["type"] for c in report["sections"]["contradictions"]}
        expect(clashes == reference.contradictory_types(types, closed),
               "check: contradictions differ from the naive fixpoint")
        expect((code, report["status"]) == ((1, "contradiction") if clashes else (0, "ok")),
               f"check: exit code {code} with status {report['status']}")


# --- oracle-sample -------------------------------------------------------------


class OracleSample(Workload):
    """``oracle --mode models|soundness|completeness`` at universe 3 on documents
    from the acceptance generator, drawn to a fixed quota per cost stratum."""

    name = "oracle-sample"
    PASS_S = 8.0
    UNIVERSE = 3
    MAX_TYPES = 4
    # Stratum -> documents per pass.  A stratum is the type count and, from
    # three types up, whether the reference finds a completeness gap and
    # whether the document has any model: those decide whether the re-check
    # at universe 4 runs and how long it takes.  Four-type documents with a
    # gap are split by their premisses instead, which set the number of
    # models the re-check at universe 4 tests, the dearest work here: a
    # single I or O premiss between two types leaves about 45,000 of the
    # 65,536 assignments, a self-premiss such as O(X,X) or E(X,X) few or
    # none, and more premisses fewer.  A fixed count per group keeps wall_s
    # from following the seed's mix.  The single I/O group is the largest,
    # about twice the ops beyond the tail percentile, so that op_tail_ms
    # falls in its middle rather than on its edge.  One- and two-type
    # documents, whose ops cost about the CLI's own 2-3 ms, make two thirds
    # of the ops, so that op_p50_ms falls inside that cluster rather than
    # among the dearer ops above it, where it moved with the seed.
    QUOTA = {
        (1,): 54, (2,): 54,
        (3, "gap", "sat"): 9, (3, "gap", "unsat"): 9, (3, "nogap", "sat"): 9,
        (4, "nogap", "sat"): 10,
        (4, "gap", "I/O"): 20, (4, "gap", "self"): 3,
        (4, "gap", "2-3"): 3, (4, "gap", "4-5"): 3, (4, "gap", "6+"): 3,
    }

    def stratum(self, types, premisses):
        count, consequences = reference.brute_semantics(types, premisses, self.UNIVERSE)
        closed = reference.closure(types, premisses)
        gap = consequences - closed
        if len(types) < 3:
            return (len(types),), (count, gap)
        if len(types) == 4 and gap:
            return (4, "gap", self.gap_group(premisses)), (count, gap)
        return (len(types), "gap" if gap else "nogap", "sat" if count else "unsat"), (count, gap)

    @staticmethod
    def gap_group(premisses) -> str:
        if len(premisses) == 1:
            form, x, y = premisses[0]
            return "I/O" if form in "IO" and x != y else "self"
        n = len(premisses)
        return "2-3" if n <= 3 else "4-5" if n <= 5 else "6+"

    def build(self) -> list[Op]:
        wanted = dict(self.QUOTA)
        chosen = []
        for doc in docs.acceptance_documents(self.rng, self.MAX_TYPES):
            if not any(wanted.values()):
                break
            types = sorted(doc.type_ids())
            premisses = [(p.form, p.subject, p.predicate) for p in doc.premisses]
            if not any(wanted[s] for s in wanted if s[0] == len(types)):
                continue
            if (len(types) == 4 and not wanted.get((4, "gap", self.gap_group(premisses)))
                    and not any(wanted[s] for s in wanted if s[:2] == (4, "nogap"))):
                continue  # its stratum is full whatever the reference finds
            stratum, ref = self.stratum(types, premisses)
            if wanted.get(stratum, 0) > 0:
                wanted[stratum] -= 1
                chosen.append((doc, ref))
        ops = []
        for k, (doc, (count, gap)) in enumerate(chosen):
            path = self.write(f"oracle-{k}.olgm", docs.render(doc))
            for mode in ("models", "soundness", "completeness"):
                argv = ("--format", "json", "oracle", path, "--universe", str(self.UNIVERSE), "--mode", mode)
                ops.append(cli_op(f"oracle-{mode}", argv,
                                  lambda out, m=mode, c=count, g=gap: self.check(m, c, g, out)))
        return ops

    def check(self, mode: str, count: int, gap: set[str], output) -> None:
        code, text = output
        sections = reference.report(self.root, text)["sections"]
        if mode == "models":
            expect(sections["models"] == count, f"models: {sections['models']} counted, brute force {count}")
        elif mode == "soundness":
            got = sections["soundness"]
            expect(got == {"passed": True, "mode": "exhaustive", "models_checked": count, "inconclusive": False},
                   f"soundness: {got}, brute force counts {count} models")
        else:
            got = sections["completeness"]
            expect(set(got["gap"]) == gap and got["passed"] == (not gap) and code == (1 if gap else 0),
                   f"completeness: gap {got['gap']}, reference {sorted(gap)}")
            expect(set(got["gap_at_next"]) <= gap, "completeness: gap grew with the universe")


# --- edit-session ----------------------------------------------------------------


class EditSession(Workload):
    """Scripted REPL sessions through ``Repl.dispatch`` on ~50-type documents:
    ``add``/``retract`` writes, each followed by three reads.

    Two of the reads are ``why``: with the cheap reads (``why`` and
    ``contradictions``) at three fifths of the ops, the median op falls in
    their upper part, which moves little from seed to seed, rather than on
    the edge between them and the tenfold dearer ``derived``.
    """

    name = "edit-session"
    STATEFUL = True
    PASS_S = 4.0
    SESSIONS = 40
    WRITES = 6
    TYPES = 50
    # Propositions in a session document's closure.  About the middle 60% of
    # the generator's documents at 50 types (its 10th-90th percentiles are
    # 139 and 185 propositions): writes re-close the whole document, and
    # op_tail_ms falls among the dearest writes, so the few documents with
    # far larger closures would decide it.
    CLOSURE_BAND = (140, 175)
    # An added premiss is redrawn while it would grow the closure past this,
    # for the same reason: one add that doubles a closure set the tail.
    CLOSURE_AFTER_ADD = 190

    def build(self) -> list[Op]:
        self._closures: dict = {}
        self.scripts = []
        for s in range(self.SESSIONS):
            while True:
                types, premisses = docs.premiss_only(self.rng, self.TYPES)
                if self.CLOSURE_BAND[0] <= len(self.closure(types, premisses)) <= self.CLOSURE_BAND[1]:
                    break
            path = self.write(f"session-{s}.olgm", docs.render_premiss_only(f"session-{s}", types, premisses))
            self.scripts.append(self.script(types, list(premisses), path))
        return self.ops()

    def script(self, types, premisses, path):
        """Commands with the premiss set each leaves behind."""
        lines = [(f"load {path}", tuple(premisses))]
        for w in range(self.WRITES):
            if w % 2 == 0:
                taken = {key(*p) for p in premisses}
                while True:
                    form, x, y = self.rng.choice("AEIO"), self.rng.choice(types), self.rng.choice(types)
                    if x == y or key(form, x, y) in taken:
                        continue
                    if len(self.closure(types, premisses + [(form, x, y)])) <= self.CLOSURE_AFTER_ADD:
                        break
                premisses.append((form, x, y))
                lines.append((f"add {form} {x} {y}", tuple(premisses)))
            else:
                gone = premisses.pop(self.rng.randrange(len(premisses)))
                lines.append((f"retract {' '.join(gone)}", tuple(premisses)))
            closed = self.closure(types, premisses)
            beyond = sorted(reference.beyond_premisses(types, premisses, closed))
            for prop_key in self.rng.sample(beyond, 2):
                lines.append((f"why {self._words(prop_key)}", None))
            lines.append(("derived" if w % 2 == 0 else "contradictions", None))
        return types, lines

    @staticmethod
    def _words(prop_key: str) -> str:
        form, s, p = re.fullmatch(r"(\w)\((\w+),(\w+)\)", prop_key).groups()
        return f"{form} {s} {p}"

    def ops(self) -> list[Op]:
        ops = []
        for types, lines in self.scripts:
            out = io.StringIO()
            repl = ologism.repl.Repl(out)
            state = {"premisses": lines[0][1]}
            for command, after in lines:
                kind = command.split()[0]
                ops.append(Op(kind, "repl", lambda r=repl, o=out, c=command: _dispatch(r, o, c),
                              lambda text, r=repl, t=types, a=after, c=command, s=state: self.check(r, t, a, c, s, text),
                              write=after is not None, fingerprint=str,
                              label=command.replace(str(self.inputs) + "/", "")))
        return ops

    def closure(self, types, premisses) -> set[str]:
        """The reference closure of one script state, computed once."""
        state = (tuple(types), tuple(premisses))
        if state not in self._closures:
            self._closures[state] = reference.closure(types, premisses)
        return self._closures[state]

    def check(self, repl, types, after, command, state, text) -> None:
        if after is not None:
            state["premisses"] = after
            closed = self.closure(types, after)
            got = {key(p.form, p.subject, p.predicate) for p in repl.theory.propositions()}
            expect(got == closed, f"{command}: closure differs from the naive fixpoint")
            return
        closed = self.closure(types, state["premisses"])
        kind = command.split()[0]
        if kind == "why":
            expect(text != "not derivable\n", f"{command}: a derivable proposition has no derivation")
        elif kind == "derived":
            listed = {key(*m) for m in re.findall(r"^  (\w)\((\w+),(\w+)\)", text, re.M)}
            expect(listed == reference.beyond_premisses(types, state["premisses"], closed),
                   "derived: listing differs from the naive fixpoint")
        else:
            listed = set(re.findall(r"^O\((\w+),\1\):", text, re.M))
            expect(listed == reference.contradictory_types(types, closed),
                   "contradictions: listing differs from the naive fixpoint")


def _dispatch(repl, out: io.StringIO, command: str) -> str:
    out.seek(0)
    out.truncate()
    repl.dispatch(command)
    return out.getvalue()


# --- queries-small -------------------------------------------------------------------


class QueriesSmall(Workload):
    """Short independent queries: ``prove``, the census, path equality,
    ``model-check --against closure`` and sampled soundness."""

    name = "queries-small"
    PASS_S = 4.2
    # Path queries (mostly under 1 ms) about as many as the ops dearer than
    # a prove (sampled soundness, model-check, the census), so that the
    # median op falls near the middle of the 2-4 ms proves rather than in
    # their lower quarter, where it moved more from seed to seed.
    PROVES = 600
    PATH_QUERIES = 160
    MODEL_CHECK_ROUNDS = 20
    PATH_BOUND = 4
    MAX_WORDS = 150  # keeps one query's search, and the reference, small
    SAMPLES = 20
    BUNDLED = ("animals", "custodian", "has_mother")

    def build(self) -> list[Op]:
        ops = self.prove_ops() + self.path_ops() + self.soundness_ops() + self.model_check_ops()
        ops.append(cli_op("enumerate", ("--format", "json", "enumerate", "--import"), self.check_census))
        self.rng.shuffle(ops)
        return ops

    def prove_ops(self) -> list[Op]:
        figures = {1: (("M", "P"), ("S", "M")), 2: (("P", "M"), ("S", "M")),
                   3: (("M", "P"), ("M", "S")), 4: (("P", "M"), ("M", "S"))}
        ops = []
        for k in range(self.PROVES):
            # As in the census, an import is added only to a form that is
            # invalid without it: the calculus uses every premiss, so an
            # import on a valid form is rejected for its extra bullet.
            imported = self.rng.choice("SMP") if k % 2 else None
            while True:
                figure = self.rng.randint(1, 4)
                major, minor, conclusion = (self.rng.choice("AEIO") for _ in range(3))
                if not imported or not reference.mood_valid(figure, major, minor, conclusion, None):
                    break
            (a, b), (c, d) = figures[figure]
            argv = ["--format", "json", "prove", "--premiss", f"{major}:{a},{b}",
                    "--premiss", f"{minor}:{c},{d}", "--conclusion", f"{conclusion}:S,P"]
            if imported:
                argv += ["--import", imported]
            valid = reference.mood_valid(figure, major, minor, conclusion, imported)
            ops.append(cli_op("prove", argv, lambda out, v=valid, a=argv: self.check_prove(v, a, out)))
        return ops

    def check_prove(self, valid: bool, argv, output) -> None:
        code, text = output
        status = reference.report(self.root, text)["status"]
        expect((code, status) == ((0, "ok") if valid else (1, "rejection")),
               f"prove {' '.join(argv[3:])}: {status}, subset semantics says valid={valid}")

    def check_census(self, output) -> None:
        sections = reference.report(self.root, output[1])["sections"]
        got = (sections["total"], sections["valid_direct"], sections["valid"])
        expect(got == (256, 15, 24), f"enumerate --import: {got}, expected (256, 15, 24)")

    def path_ops(self) -> list[Op]:
        from tests.oracles import brute_classes

        wanted = self.PATH_QUERIES
        ops = []
        for doc in docs.full_documents(self.rng):
            facts = [f for f in doc.facts if f.parallel]
            for fact in facts:
                words = _words(doc, fact.lhs.source, fact.lhs.target, self.PATH_BOUND)
                if not 2 <= len(words) <= self.MAX_WORDS:
                    continue
                classes = brute_classes(words, facts)
                cls = {w: i for i, c in enumerate(classes) for w in c}
                for _ in range(8):
                    p, q = self.rng.sample(words, 2)
                    ops.append(Op("equal_paths", "api",
                                  lambda d=doc, p=p, q=q: ologism.eqtheory.equal_paths(d, p, q, self.PATH_BOUND),
                                  lambda res, q=q, same=cls[p] == cls[q]: self.check_path(res, q, same),
                                  label=f"{doc.name}: {p} = {q}"))
                    if len(ops) == wanted:
                        return ops
        return ops

    @staticmethod
    def check_path(result, q, same_class: bool) -> None:
        if result.equal:
            expect(same_class and result.replay() == q, "equal_paths: Equal across rewrite classes")
        elif not result.cap_reached:
            expect(not same_class, "equal_paths: NotEqualWithinBound inside one rewrite class")

    def soundness_ops(self) -> list[Op]:
        # Documents whose carriers no assignment can meet, where every
        # attempt fails and the verdict is inconclusive after the attempt
        # budget, and documents where at least a quarter of the carrier draws
        # get through.  Between the two, the cost of a run grows as one over
        # that share, and a few such documents decided a pass on their own.
        # The inconclusive ones cost 25-100 ms, most of the workload's time,
        # and about half more with four or five named aspects than with one
        # or two (each attempt draws a map per aspect): they come to a quota
        # per aspect count, in about the generator's proportions, and number
        # about twice the ops beyond the tail percentile, so that op_tail_ms
        # falls near their median.
        wanted = {("none", "1-2"): 10, ("none", "3"): 13, ("none", "4+"): 15, ("likely",): 40}
        ops = []
        for doc in docs.full_documents(self.rng):
            if not any(wanted.values()):
                return ops
            share = reference.carrier_share(doc, 3)
            named = sum(1 for a in doc.aspects if a.name != "is")
            if share == 0:
                stratum = ("none", "1-2" if named <= 2 else "3" if named == 3 else "4+")
            else:
                stratum = ("likely",) if share >= 0.25 else None
            if not wanted.get(stratum):
                continue
            wanted[stratum] -= 1
            k = len(ops)
            path = self.write(f"full-{k}.olgm", docs.render(doc))
            argv = ("--format", "json", "oracle", path, "--mode", "soundness",
                    "--samples", str(self.SAMPLES), "--seed", str(k))
            ops.append(cli_op("oracle-sampled", argv, self.check_sampled))
        return ops

    def check_sampled(self, output) -> None:
        code, text = output
        got = reference.report(self.root, text)["sections"]["soundness"]
        expect(got["mode"] == "sampled", f"sampled soundness ran as {got['mode']}")
        expect(got["passed"] or got["inconclusive"], "sampled soundness found a counterexample")
        expect(code == (0 if got["passed"] else 1), f"sampled soundness exit code {code}")

    def model_check_ops(self) -> list[Op]:
        from ologism import data

        ops = []
        data_dir = self.root / "src" / "ologism" / "data"
        for name in self.BUNDLED * self.MODEL_CHECK_ROUNDS:
            doc = data.load(name)
            types = list(doc.type_ids())
            premisses = [(p.form, p.subject, p.predicate) for p in doc.premisses]
            carriers = _carriers((data_dir / f"{name}.olgmodel").read_text(encoding="utf-8"))
            broken = {k for k in reference.closure(types, premisses) if not _holds(k, carriers)}
            argv = ("--format", "json", "model-check", str(data_dir / f"{name}.olgm"),
                    str(data_dir / f"{name}.olgmodel"), "--against", "closure")
            ops.append(cli_op("model-check", argv, lambda out, b=broken, n=name: self.check_model(n, b, out)))
        return ops

    def check_model(self, name: str, broken: set[str], output) -> None:
        code, text = output
        report = reference.report(self.root, text)
        expect(not report["sections"]["alarms"], f"model-check {name}: soundness alarm")
        expect((report["status"] == "ok") == (not broken),
               f"model-check {name}: {report['status']}, reference finds {sorted(broken)} broken")


def _words(doc, source: str, target: str, bound: int) -> list:
    """Every path word from ``source`` to ``target`` of at most ``bound`` arcs."""
    from ologism.core import PathWord

    aspects = sorted(doc.aspects, key=lambda a: (a.name, a.source, a.target))
    out, frontier = [], [(source, ())]
    for _ in range(bound + 1):
        nxt = []
        for node, arcs in frontier:
            if node == target:
                out.append(PathWord(source, target, arcs))
            if len(arcs) < bound:
                nxt += [(a.target, arcs + (a,)) for a in aspects if a.source == node]
        frontier = nxt
    return out


def _carriers(model_text: str) -> dict[str, set[str]]:
    """The ``set`` lines of a model document; elements may be quoted."""
    out = {}
    for name, body in re.findall(r"^\s*set (\w+) = \{(.*)\}", model_text, re.M):
        out[name] = {e.strip('"') for e in re.findall(r'"(?:[^"\\]|\\.)*"|[^,\s]+', body)}
    return out


def _holds(prop_key: str, carriers) -> bool:
    form, s, p = re.fullmatch(r"(\w)\((\w+),(\w+)\)", prop_key).groups()
    a, b = carriers[s], carriers[p]
    return {"A": a <= b, "E": not (a & b), "I": bool(a & b), "O": not (a <= b)}[form]


WORKLOADS = {w.name: w for w in (ClosureLarge, OracleSample, EditSession, QueriesSmall)}
