"""Shared test settings.

Hypothesis runs derandomised and without an example database, so every
run draws the same examples and a stale local database cannot replay
examples from an older version of a test.
"""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
