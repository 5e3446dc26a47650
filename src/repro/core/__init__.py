"""Dysim — Dynamic perception for seeding in target markets (Sec. IV)."""
