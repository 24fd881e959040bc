"""Benchmark of the pseudocube CLI; see run.py."""
