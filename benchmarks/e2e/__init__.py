"""The repo benchmark: six pinned workloads, end-to-end host-time / memory
metrics, a per-layer trace and direct layer probes.

``python3 -m benchmarks.e2e`` is the one command; see ``README.md`` here and
``BENCHMARK.json`` at the repo root (the source of truth for metric and
workload names, units and regression bounds).
"""
