"""Experiment harness: one runner per evaluation table (DESIGN.md §4)."""
