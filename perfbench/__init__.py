"""The repository benchmark: three workloads, end-to-end and per-layer
metrics.  Entry point: ``python3 perfbench/run.py`` (see its
docstring); paired A/B comparison: ``python3 perfbench/compare.py``."""
