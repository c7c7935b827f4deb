"""Benchmark of the generic stack; run ``python3 perfbench/run.py --help``."""
