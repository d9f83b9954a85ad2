"""Reproducible validation harness: config parsing, check suites,
experiments, and CSV/summary reporting."""
