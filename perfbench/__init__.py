"""Benchmark for rlvrloop: three workloads, end-to-end and per-layer metrics."""
