"""Shared test settings and fixtures.

Hypothesis runs derandomised and without an example database, so every
run draws the same examples and a stale local database cannot replay
examples from an older version of a test.
"""

import pytest
from hypothesis import settings

from chunkfair import ExperimentConfig

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")


@pytest.fixture
def oracle_small_config():
    """The oracle-small benchmark workload's config at its default seed."""
    return ExperimentConfig.from_dict({
        "scenario": "single-cell",
        "n_subcarriers": 12,
        "n_users": 2,
        "tap_counts": [2, 4],
        "rate_weights": [1.0, 2.0],
        "trials": 12,
        "seed": 7,
        "sa_schemes": ["proposed", "shen", "static", "exhaustive-oracle"],
        "pa_schemes": ["uniform", "exact-oracle"],
        "chunk_sizes": [2],
        "snr_db": [0.0],
    })
