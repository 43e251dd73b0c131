"""Closed-loop driver: one client on one thread issues each operation when
the previous one has returned, checks every output outside the timed region,
and turns the latencies into the end-to-end and per-layer metrics."""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from perfbench.calibrate import Calibrator
from perfbench.reference import WrongOutput

SETUP_REPEATS = 11
SETUP_GAUGE_S = 0.05  # operation time whose calibration units flank a set-up sample
MIN_PASSES = 3  # so that each op's median can set aside one disturbed pass
MEM_PROBES = 32
SETUP_CODE = """
import time
start = time.perf_counter()
import ologism.cli
from ologism import data
for name in data.NAMES:
    data.load(name)
for name in ("animals", "custodian", "has_mother"):
    data.load_model(name)
print(time.perf_counter() - start)
"""


@dataclass
class Op:
    """One operation of a workload's fixed list."""

    kind: str
    front: str  # cli | repl | api: where its output bytes are charged
    run: Callable[[], Any]
    check: Callable[[Any], None]
    write: bool = False  # a REPL command that changes the document
    fingerprint: Callable[[Any], str] = repr
    label: str = ""  # the op's input, with generated files by base name


@dataclass
class PassResult:
    latencies: list[float]  # as measured
    failed: list[bool]
    outcomes: list[str]
    errors: list[str] = field(default_factory=list)
    slowdown: float = 1.0  # the host's, over the pass: see calibrate.py


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of ``n`` samples beyond it."""
    p = 0
    while p < 99 and n - math.ceil((p + 1) * n / 100) >= 10:
        p += 1
    return p


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    rank = max(1, math.ceil(p * len(values) / 100))
    return values[rank - 1]


def run_pass(ops: list[Op], first: Optional[PassResult], tracer=None) -> PassResult:
    """Time every op once; check outputs against references (first pass) or
    against the first pass (later passes), always outside the timed region.
    Calibration units run between the ops to gauge the host's speed."""
    gc.collect()
    result = PassResult([], [], [])
    calibrator = Calibrator()
    clock = time.perf_counter
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = index
        start = clock()
        failed = False
        try:
            output = op.run()
        except Exception as exc:  # a crash is counted, never timed as success
            elapsed = clock() - start
            calibrator.after(elapsed)
            failed = True
            outcome = f"raised {type(exc).__name__}: {exc}"
            result.errors.append(f"{op.label} (op {index}): {outcome}\n" + traceback.format_exc(limit=-3))
        else:
            elapsed = clock() - start
            calibrator.after(elapsed)
            outcome = op.fingerprint(output)
            if first is None:
                op.check(output)
            if tracer is not None and op.front != "api":
                text = output[1] if isinstance(output, tuple) else output
                tracer.counts[f"{op.front}.out_bytes"] += len(text.encode("utf-8"))
        if first is not None and first.outcomes[index] != outcome:
            raise WrongOutput(f"{op.label} (op {index}): output differs from the first pass")
        result.latencies.append(elapsed)
        result.failed.append(failed)
        result.outcomes.append(outcome)
    result.slowdown = calibrator.slowdown()
    return result


def warm_up(ops: list[Op], stateful: bool) -> float:
    """An untimed run of the bare operations, so that lazy imports and the
    allocator's first growth are not charged to the timed passes: every op
    of a ``stateful`` list (a REPL session needs its earlier commands),
    otherwise only the first op of each kind and the probes below.

    Evenly spaced operations run under ``tracemalloc``, started just before
    each and stopped just after; returns the 75th percentile over them of
    the most memory one allocated at once, in MiB.  Memory held before the
    operation, its checks and the references are not counted.  Tracing every
    operation would cost up to seven passes; the mean or the maximum of a
    sample depends on whether its few largest operations fall in it.
    """
    stride = max(1, len(ops) // MEM_PROBES)
    kinds: set[str] = set()
    peaks = []
    for index, op in enumerate(ops):
        probe = index % stride == stride - 1 and len(peaks) < MEM_PROBES
        if not (stateful or probe or op.kind not in kinds):
            continue
        kinds.add(op.kind)
        if probe:
            tracemalloc.start()
        try:
            op.run()
        except Exception:  # counted when the timed passes meet it
            pass
        finally:
            if probe:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
    return percentile(sorted(peaks), 75) / 2**20


def pass_count(seconds: float, pass_s: float) -> int:
    """Passes in a run of about ``seconds``, from the workload's nominal pass
    time rather than from the clock, so that faster code gets no more
    samples per op than slower code does."""
    return max(MIN_PASSES, round(seconds / pass_s))


def measure(ops_factory: Callable[[], list[Op]], passes: int, setup: "Setup") -> list[PassResult]:
    """``passes`` whole passes over the fixed list, with one set-up sample
    after each."""
    results: list[PassResult] = []
    for _ in range(passes):
        results.append(run_pass(ops_factory(), results[0] if results else None))
        setup.sample()
    return results


class Setup:
    """Fresh interpreters importing the package and loading the bundled data.

    Samples are taken between passes as well as before them, so that they
    fall into different periods of the host's swinging speed, and each is
    scaled to nominal speed by calibration units run just before and just
    after it.
    """

    def __init__(self, root: Path):
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.root = root
        self.times: list[float] = []
        self._run()  # warms the bytecode cache; not counted

    def _run(self) -> float:
        done = subprocess.run([sys.executable, "-s", "-c", SETUP_CODE], env=self.env, cwd=self.root,
                              check=True, capture_output=True, text=True, timeout=60)
        return float(done.stdout.strip())

    def sample(self) -> None:
        calibrator = Calibrator()
        calibrator.after(SETUP_GAUGE_S)
        raw = self._run()
        calibrator.after(SETUP_GAUGE_S)
        self.times.append(raw / calibrator.slowdown())

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self.sample()
        return statistics.median(self.times)


def op_latencies(passes: list[PassResult]) -> list[float]:
    """Per op, in list order, its median over the passes of its latency at
    nominal host speed: as measured, over the pass's slowdown."""
    scaled = ([t / p.slowdown for t in p.latencies] for p in passes)
    return [statistics.median(times) for times in zip(*scaled)]


def end_to_end(ops: list[Op], passes: list[PassResult], setup: float, setup_n: int, peak: float) -> dict:
    """Metric -> (value, unit, samples[, note]).  Latency percentiles are over
    the operations that returned; those that raised are counted in ``failed``."""
    latencies = op_latencies(passes)
    done = sorted(t for t, failed in zip(latencies, passes[0].failed) if not failed)
    wall = sum(latencies)
    tail = tail_percentile(len(done))
    return {
        "setup_s": (setup, "s", setup_n),
        "wall_s": (wall, "s", len(passes) * len(ops)),
        "ops_per_s": (len(ops) / wall, "1/s", len(passes) * len(ops)),
        "op_p50_ms": (percentile(done, 50) * 1000, "ms", len(done)),
        "op_tail_ms": (percentile(done, tail) * 1000, "ms", len(done), f"p{tail}"),
        "op_peak_p75_mib": (peak, "MiB", MEM_PROBES),
    }


def repl_class_medians(ops: list[Op], latencies: list[float]) -> dict[str, float]:
    out = {}
    for name, write in (("repl.edit_p50_ms", True), ("repl.query_p50_ms", False)):
        times = [t for op, t in zip(ops, latencies) if op.front == "repl" and op.write == write]
        out[name] = statistics.median(times) * 1000 if times else 0.0
    return out


def emit(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple]) -> None:
    for name, (value, unit, samples, *note) in metrics.items():
        extra = f" {note[0]}" if note else ""
        print(f"{name:28s} {value:14.6f} {unit:6s} n={samples}{extra}")
    print(f"error_rate {failed}/{attempted} = {failed / attempted:.4f}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m[0], "unit": m[1]} for name, m in metrics.items()},
    }))


def parse_args(argv, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="ologism benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads) + ["all"],
                        help="one workload, or all of them in turn, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(root: Path, argv=None) -> int:
    from perfbench import tracing, workloads

    args = parse_args(argv, workloads.WORKLOADS)
    if args.workload == "all":
        return run_all(root, args, list(workloads.WORKLOADS))
    out_dir = root / ".perfbench_out"
    inputs = out_dir / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    inputs.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](root, inputs, args.seed)
        try:
            if args.trace:
                metrics, attempted, failed = traced_run(workload, out_dir, args, tracing)
            else:
                setup = Setup(root)
                for _ in range(5):
                    setup.sample()
                peak = warm_up(workload.ops(), workload.STATEFUL)
                passes = measure(workload.ops, pass_count(args.seconds, workload.PASS_S), setup)
                metrics = end_to_end(workload.ops(), passes, setup.median(), len(setup.times), peak)
                attempted = sum(len(p.failed) for p in passes)
                failed = sum(sum(p.failed) for p in passes)
                for line in passes[0].errors:
                    print(line, file=sys.stderr)
                print(f"as measured: wall_s {statistics.median(sum(p.latencies) for p in passes):.6f} "
                      f"(median pass); host slowdown per pass "
                      f"{' '.join(f'{p.slowdown:.3f}' for p in passes)}")
        except WrongOutput as exc:
            print(f"wrong output: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            return 1
        emit(True, attempted, failed, metrics)
        return 0
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


def run_all(root: Path, args, names: list[str]) -> int:
    """Every workload in a process of its own; prints each one's metrics and
    then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in names:
        print(f"== {name}", flush=True)
        done = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=root, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        code = max(code, done.returncode)
        combined["correct"] = combined["correct"] and result["correct"] and done.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return code


def traced_run(workload, out_dir: Path, args, tracing) -> tuple[dict, int, int]:
    """Untraced and traced passes in turn, twice.  Counts and self times come
    from the first traced pass, so they repeat exactly at one seed; the
    overhead compares each op's median traced and untraced latency."""
    warm_up(workload.ops(), workload.STATEFUL)
    ops = workload.ops()
    plain, traced, tracers = [run_pass(ops, None)], [], []
    for _ in range(2):
        tracers.append(tracing.Tracer())
        tracers[-1].install()
        try:
            traced.append(run_pass(workload.ops(), plain[0], tracers[-1]))
        finally:
            tracers[-1].uninstall()
        if len(plain) < 2:
            plain.append(run_pass(workload.ops(), plain[0]))
    tracer = tracers[0]
    spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with spans_file.open("w", encoding="utf-8") as fh:
        for name, op_id, parent, start, end in tracer.spans:
            fh.write(json.dumps({"name": name, "op": op_id, "parent": parent,
                                 "start": start, "end": end}) + "\n")
    metrics = layer_metrics(tracing, tracer, ops, plain, traced)
    runs = plain + traced
    return metrics, sum(len(p.failed) for p in runs), sum(sum(p.failed) for p in runs)


def layer_metrics(tracing, tracer, ops: list[Op], plain: list[PassResult],
                  traced: list[PassResult]) -> dict:
    counts, selfs = tracer.counts, tracer.self_time
    requested = counts["oracle.samples_requested"]
    untraced_s, traced_s = sum(op_latencies(plain)), sum(op_latencies(traced))
    derived = {
        "oracle.sample_yield": counts["oracle.samples_returned"] / requested if requested else 0.0,
        "trace.wall_s_untraced": untraced_s,
        "trace.wall_s_traced": traced_s,
        "trace.overhead": traced_s / untraced_s - 1.0,
        **repl_class_medians(ops, op_latencies(plain)),
    }
    metrics = {}
    for name, unit, source in tracing.PER_LAYER:
        if name in derived:
            value = derived[name]
        elif unit == "s":
            value = sum(selfs[span] for span in source)
        else:
            value = counts[source[0] if source else name]
        metrics[name] = (value, unit, len(ops))
    return metrics
