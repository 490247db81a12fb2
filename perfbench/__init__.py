"""Benchmark of the submaj package: four workloads, end-to-end and per-layer metrics."""
