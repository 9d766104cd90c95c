"""The repository benchmark: four workloads, both clocks, a layer ledger.

See ``perfbench/README.md``; the entry point is ``perfbench/run.py``.
"""
