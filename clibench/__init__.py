"""Per-check CLI benchmark for bppcheck; the entry point is run.py."""
