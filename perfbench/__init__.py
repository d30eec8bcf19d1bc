"""Seeded benchmark for the abcu solver; run it as ``python3 perfbench/run.py``."""
