"""e2e_bench — the repo's one benchmark.

Drives the real :class:`repro.core.engine.MLPOffloadEngine` through its
public API on four fixed workloads, reports end-to-end metrics with fixed
regression bounds (untraced runs) and a per-layer attribution (traced runs),
and checks every run's outputs bitwise against an in-memory reference.

See ``e2e_bench/README.md`` for the metric and workload definitions and
``BENCHMARK.json`` at the repo root for the machine-readable contract.
"""
