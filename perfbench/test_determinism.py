"""The benchmark's own tests: a seed fixes the inputs and the traced counts.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import calibrate, harness, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent
NAMES = sorted(workloads.WORKLOADS)
# A checked pass over a whole list takes several seconds, twice per workload;
# the traced-count test runs the first ops of each list instead.
TRACED_OPS = 200


def build(name: str, seed: int, tmp_path: Path):
    inputs = tmp_path / f"{name}-{seed}-{len(list(tmp_path.iterdir()))}"
    inputs.mkdir()
    return workloads.WORKLOADS[name](ROOT, inputs, seed)


def traced_counts(workload) -> dict:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        harness.run_pass(workload.ops()[:TRACED_OPS], None, tracer)
    finally:
        tracer.uninstall()
    return dict(tracer.counts)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    first, second = build(name, 3, tmp_path), build(name, 3, tmp_path)
    assert first.files == second.files
    assert [op.label for op in first.ops()] == [op.label for op in second.ops()]
    for path, text in first.files.items():
        assert (first.inputs / path).read_bytes() == text.encode("utf-8")


@pytest.mark.parametrize("name", NAMES)
def test_another_seed_gives_other_inputs(name, tmp_path):
    first, other = build(name, 3, tmp_path), build(name, 4, tmp_path)
    assert first.files != other.files


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_repeat_at_one_seed(name, tmp_path):
    first = traced_counts(build(name, 5, tmp_path))
    second = traced_counts(build(name, 5, tmp_path))
    assert first and first == second


def test_tracer_leaves_the_program_unwrapped():
    import ologism.cli
    import ologism.deduce

    before = (ologism.cli.main, ologism.deduce.close, ologism.cli.reading)
    tracer = tracing.Tracer()
    tracer.install()
    assert ologism.deduce.close is not before[1]
    tracer.uninstall()
    assert (ologism.cli.main, ologism.deduce.close, ologism.cli.reading) == before


def test_self_time_excludes_children():
    # outer starts at 0, inner runs 1..3 and is booked until 4, outer ends at 10
    tracer = tracing.Tracer(clock=iter([0.0, 1.0, 3.0, 4.0, 10.0]).__next__)
    inner = tracer._wrap(lambda: None, "deduce.close", None)
    outer = tracer._wrap(lambda: inner(), "cli.main", None)
    outer()
    assert tracer.self_time == {"deduce.close": 2.0, "cli.main": 7.0}
    assert [(name, parent) for name, _, parent, _, _ in tracer.spans] == [("cli.main", -1), ("deduce.close", 0)]


def test_an_exception_counts_once_in_each_layer_it_passes():
    tracer = tracing.Tracer()

    def crash():
        raise ValueError("DuplicatePremiss")

    inner = tracer._wrap(crash, "deduce.close", None)
    verdict = tracer._wrap(lambda: inner(), "oracle.completeness", None)
    outer_oracle = tracer._wrap(lambda: verdict(), "oracle.soundness", None)
    main = tracer._wrap(lambda: outer_oracle(), "cli.main", None)
    with pytest.raises(ValueError):
        main()
    errors = {name: n for name, n in tracer.counts.items() if name.endswith(".errors")}
    assert errors == {"deduce.errors": 1, "oracle.errors": 1, "cli.errors": 1}


def test_calibrator_runs_one_unit_per_quantum_of_operation_time():
    # each unit appears to take twice its nominal time
    ticks = iter(k * 2 * calibrate.UNIT_NOMINAL_S for k in range(100))
    calibrator = calibrate.Calibrator(clock=ticks.__next__)
    calibrator.after(2.5 * calibrate.QUANTUM_S)
    assert calibrator.units == 2
    calibrator.after(0.5 * calibrate.QUANTUM_S)
    assert calibrator.units == 3
    assert calibrator.slowdown() == pytest.approx(2.0)


def test_latencies_are_scaled_to_nominal_speed():
    fast = harness.PassResult([0.010, 0.020], [False, False], ["a", "b"], slowdown=1.0)
    slow = harness.PassResult([0.030, 0.060], [False, False], ["a", "b"], slowdown=3.0)
    assert harness.op_latencies([fast, slow, slow]) == pytest.approx([0.010, 0.020])


def test_design_records_match_the_workloads(tmp_path):
    design = json.loads((ROOT / "perfbench" / "design.json").read_text(encoding="utf-8"))
    assert sorted(design["workloads"]) == NAMES
    for name in NAMES:
        ops = build(name, 1, tmp_path).ops()
        record = design["workloads"][name]
        assert record["ops_per_pass"] == len(ops) == sum(record["op_mix"].values())
        assert record["tail_percentile"] == harness.tail_percentile(len(ops))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in benchmark["workloads"]] == list(design["workloads"])
    assert [m["name"] for m in benchmark["per_layer"]] == [m[0] for m in tracing.PER_LAYER]
