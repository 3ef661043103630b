"""The repo benchmark: six co-verification workloads, end-to-end
metrics measured untraced, and an outside-in per-layer trace.

Self-contained on purpose: every scenario is built here from
``repro``'s public constructors, so an edit to ``benchmarks/common.py``
or ``repro.obs.scenario`` cannot change what the benchmark runs.  See
``README.md`` in this directory.
"""
