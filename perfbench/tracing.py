"""Spans around the public functions of each layer, installed only for a traced run.

The wrappers are installed from outside: the module attribute is replaced,
and so is every name another module bound with ``from ... import``.  Calls
that reach a function through a name that is not wrapped stay invisible and
fall into the caller's self time; ``INVISIBLE`` lists the known ones.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Callable, Optional

INVISIBLE = (
    "core.validate inside deduce.close (bound by from-import in deduce)",
    "model.check_model inside oracle sampling (called once per attempt; wrapping it would dominate the traced time)",
    "model.satisfies inside oracle soundness checks",
    "syll diagram moves (superpose, delete_middle) inside syll.prove",
    "oracle._model_masks and oracle._import_closure inside oracle verdicts",
    "deduce.Derivation.render recursion below its outermost call",
)


def _on_close(counts: Counter, args, theory) -> None:
    counts["deduce.props"] += len(theory.propositions())
    counts["deduce.alpha"] += len(theory.alpha_star)
    counts["deduce.epsilon"] += len(theory.epsilon_star)
    counts["deduce.iota"] += len(theory.iota_star)
    counts["deduce.o"] += len(theory.o_star)
    heights: dict[int, int] = {}

    def height(d) -> int:
        got = heights.get(id(d))
        if got is None:
            got = 1 + max((height(c) for c in d.children), default=0)
            heights[id(d)] = got
        return got

    tallest = max((height(d) for d in theory.derivations.values()), default=0)
    counts["deduce.max_height"] = max(counts["deduce.max_height"], tallest)


def _on_parse(counts, args, result):
    counts["dsl.parse_bytes"] += len(args[0].encode("utf-8"))


def _on_prove(counts, args, result):
    if type(result).__name__ == "Rejection":
        if result.reason == "BulletCountMismatch":
            counts["syll.bullet_rejections"] += 1
    else:
        counts["syll.valid"] += 1


def _on_equal_paths(counts, args, result):
    counts["eqtheory.equal"] += int(result.equal)
    counts["eqtheory.trace_steps"] += len(result.trace)
    counts["eqtheory.cap_reached"] += int(result.cap_reached)


def _on_check_model(counts, args, result):
    counts["model.violations"] += len(result.violations)


def _on_count_models(counts, args, result):
    counts["oracle.models_counted"] += result


def _on_soundness(counts, args, result):
    counts["oracle.models_checked"] += result.models_checked
    counts["oracle.inconclusive"] += int(result.inconclusive)


def _on_completeness(counts, args, result):
    counts["oracle.gap"] += len(result.gap)
    counts["oracle.gap_at_next"] += len(result.gap_at_next)


def _on_sample(counts, args, result):
    config = args[1] if len(args) > 1 else None
    counts["oracle.samples_requested"] += config.sample_count if config is not None else 0
    counts["oracle.samples_returned"] += len(result[0])


# (module, attribute, span name, counter); a dotted attribute names a method.
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("ologism.cli", "main", "cli.main", None),
    ("ologism.repl", "Repl.dispatch", "repl.dispatch", None),
    ("ologism.dsl", "parse_ologism", "dsl.parse", _on_parse),
    ("ologism.dsl", "parse_model", "dsl.parse", _on_parse),
    ("ologism.dsl", "serialize", "dsl.serialize", None),
    ("ologism.core", "validate", "core.validate", None),
    ("ologism.cli", "validate", "core.validate", None),
    ("ologism.core", "reading", "core.reading", None),
    ("ologism.cli", "reading", "core.reading", None),
    ("ologism.repl", "reading", "core.reading", None),
    ("ologism.deduce", "close", "deduce.close", _on_close),
    ("ologism.deduce", "explain", "deduce.explain", None),
    ("ologism.deduce", "Derivation.render", "deduce.render", None),
    ("ologism.syll", "prove", "syll.prove", _on_prove),
    ("ologism.syll", "enumerate_moods", "syll.census", None),
    ("ologism.eqtheory", "equal_paths", "eqtheory.equal_paths", _on_equal_paths),
    ("ologism.model", "check_model", "model.check_model", _on_check_model),
    ("ologism.cli", "check_model", "model.check_model", _on_check_model),
    ("ologism.oracle", "count_models", "oracle.count_models", _on_count_models),
    ("ologism.oracle", "check_soundness", "oracle.soundness", _on_soundness),
    ("ologism.oracle", "check_completeness", "oracle.completeness", _on_completeness),
    ("ologism.oracle", "semantic_consequences", "oracle.consequences", None),
    ("ologism.oracle", "sample_models", "oracle.sample", _on_sample),
)

CALL_COUNTS = {
    "cli.main": "cli.calls",
    "repl.dispatch": "repl.dispatch_calls",
    "dsl.parse": "dsl.parse_calls",
    "core.reading": "core.reading_calls",
    "deduce.close": "deduce.close_calls",
    "syll.prove": "syll.prove_calls",
    "eqtheory.equal_paths": "eqtheory.queries",
    "model.check_model": "model.checks",
}


class Tracer:
    """Spans kept in memory: (name, op id, parent index, start, end)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple[str, int, int, float, float]] = []
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_id = 0
        self._stack: list[list[Any]] = []  # [span index, name, time covered by children]
        self._undo: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        import importlib

        for module_name, attr, name, counter in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            self._undo.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    def _wrap(self, fn: Callable, name: str, counter: Optional[Callable]) -> Callable:
        layer = name.split(".", 1)[0]
        stack, spans, clock = self._stack, self.spans, self.clock

        def traced(*args, **kwargs):
            if stack and stack[-1][1] == name:  # recursion: the outer span covers it
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append((name, self.op_id, stack[-1][0] if stack else -1, 0.0, 0.0))
            frame = [index, name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end = clock()
                # Once per layer the exception passes through: a crash in
                # deduce.close called from an oracle verdict counts in both.
                counted = getattr(exc, "_perfbench_layers", set())
                if layer not in counted:
                    self.counts[f"{layer}.errors"] += 1
                    try:
                        exc._perfbench_layers = counted | {layer}
                    except AttributeError:
                        pass
                self._close(frame, name, start, end)
                raise
            end = clock()
            if counter is not None:
                counter(self.counts, args, result)
            self._close(frame, name, start, end)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame, name: str, start: float, end: float) -> None:
        self._stack.pop()
        index = frame[0]
        self.spans[index] = (name, self.op_id, self.spans[index][2], start, end)
        self.self_time[name] += (end - start) - frame[2]
        self.counts[CALL_COUNTS.get(name, name + "_calls")] += 1
        if self._stack:
            # The parent is charged for the child's whole stay, counting
            # included, so bookkeeping falls into no layer's self time.
            self._stack[-1][2] += self.clock() - start


# Per-layer metrics of a traced run: (name, unit, spans summed for a self
# time, or the counter read; an empty source means the counter of that name).
PER_LAYER: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("cli.self_s", "s", ("cli.main",)),
    ("cli.calls", "count", ()),
    ("cli.out_bytes", "bytes", ()),
    ("cli.errors", "count", ()),
    ("repl.self_s", "s", ("repl.dispatch",)),
    ("repl.dispatch_calls", "count", ()),
    ("repl.out_bytes", "bytes", ()),
    ("repl.edit_p50_ms", "ms", ()),
    ("repl.query_p50_ms", "ms", ()),
    ("repl.errors", "count", ()),
    ("dsl.parse_s", "s", ("dsl.parse",)),
    ("dsl.parse_calls", "count", ()),
    ("dsl.parse_bytes", "bytes", ()),
    ("dsl.serialize_s", "s", ("dsl.serialize",)),
    ("dsl.errors", "count", ()),
    ("core.validate_s", "s", ("core.validate",)),
    ("core.reading_s", "s", ("core.reading",)),
    ("core.reading_calls", "count", ()),
    ("core.errors", "count", ()),
    ("deduce.close_s", "s", ("deduce.close",)),
    ("deduce.close_calls", "count", ()),
    ("deduce.props", "count", ()),
    ("deduce.alpha", "count", ()),
    ("deduce.epsilon", "count", ()),
    ("deduce.iota", "count", ()),
    ("deduce.o", "count", ()),
    ("deduce.max_height", "count", ()),
    ("deduce.explain_s", "s", ("deduce.explain",)),
    ("deduce.render_s", "s", ("deduce.render",)),
    ("deduce.errors", "count", ()),
    ("syll.prove_s", "s", ("syll.prove",)),
    ("syll.prove_calls", "count", ()),
    ("syll.valid", "count", ()),
    ("syll.bullet_rejections", "count", ()),
    ("syll.census_s", "s", ("syll.census",)),
    ("syll.errors", "count", ()),
    ("eqtheory.equal_paths_s", "s", ("eqtheory.equal_paths",)),
    ("eqtheory.queries", "count", ()),
    ("eqtheory.equal", "count", ()),
    ("eqtheory.trace_steps", "count", ()),
    ("eqtheory.cap_reached", "count", ()),
    ("eqtheory.errors", "count", ()),
    ("model.check_model_s", "s", ("model.check_model",)),
    ("model.checks", "count", ()),
    ("model.violations", "count", ()),
    ("model.errors", "count", ()),
    ("oracle.count_models_s", "s", ("oracle.count_models",)),
    ("oracle.soundness_s", "s", ("oracle.soundness",)),
    ("oracle.completeness_s", "s", ("oracle.completeness",)),
    ("oracle.consequences_s", "s", ("oracle.consequences",)),
    ("oracle.sample_s", "s", ("oracle.sample",)),
    ("oracle.models_counted", "count", ()),
    ("oracle.models_checked", "count", ()),
    ("oracle.gap", "count", ()),
    ("oracle.gap_at_next", "count", ()),
    ("oracle.sample_yield", "ratio", ()),
    ("oracle.inconclusive", "count", ()),
    ("oracle.errors", "count", ()),
    ("trace.wall_s_untraced", "s", ()),
    ("trace.wall_s_traced", "s", ()),
    ("trace.overhead", "ratio", ()),
)
