"""Benchmark for the ologism toolkit: four author workloads, end-to-end and
per-layer metrics.  Run ``python3 perfbench/run.py --help`` from the root of
a checkout; ``perfbench/design.json`` records why each workload exists."""
