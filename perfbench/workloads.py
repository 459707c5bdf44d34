"""The benchmark's workloads: generated configs, pinned output digests and expected call sites.

Each workload mirrors one shipped config under ``configs/`` with its
trial count cut so that one run of the CLI path takes about a second.
The configs are written out here rather than read from ``configs/`` so
that editing a shipped config does not silently change the benchmark.
README.md in this directory says why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

_HARNESS = ("harness.run_experiment", "harness.summarize", "harness.emit_csv",
            "harness.emit_summary_csv")
_METRICS = ("metrics.deviation", "metrics.min_weighted_rate", "metrics.mean_ci")
_CHANNEL_DRAW = ("channel.substream", "channel.generate_taps", "channel.frequency_response")


@dataclass(frozen=True)
class Workload:
    config: dict
    default_seed: int
    # SHA-256 of the row CSV and the summary CSV at ``default_seed`` and
    # ``config["trials"]``; any change to either is a behaviour change.
    digests: tuple[str, str]
    # Traced functions that must be called at least once; one with zero
    # calls is reported as unhooked (a moved call site, not a saving).
    expects: tuple[str, ...]


WORKLOADS = {
    "single-sweep": Workload(
        config={
            "scenario": "single-cell",
            "n_subcarriers": 128,
            "n_users": 4,
            "tap_counts": [4, 8, 16, 32],
            "rate_weights": [1.0, 1.0, 4.0, 4.0],
            "trials": 8,
            "sa_schemes": ["proposed", "shen"],
            "pa_schemes": ["proposed", "uniform"],
            "chunk_sizes": [1],
            "snr_db": [-10.0, -5.0, 0.0, 5.0, 10.0],
        },
        default_seed=13579,
        digests=("c9cc89a8a49162defd4a4f5852470a8b04a899733c0db36aea720790b52cd166",
                 "c2293a38068fb3573a0ff1d7134936a14df383803b3d84ed8b42a2230fd31296"),
        expects=("channel.realize_channel", *_CHANNEL_DRAW, "assign.chunk_rates",
                 "assign.proposed_sa", "assign.shen_sa", "power.proposed_pa",
                 "power.uniform_pa", "power.user_rates", *_METRICS, *_HARNESS),
    ),
    "multicell-ffr": Workload(
        config={
            "scenario": "multi-cell",
            "n_subcarriers": 512,
            "n_users": 8,
            "tap_counts": [4, 8, 16, 32, 4, 8, 16, 32],
            "rate_weights": [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
            "trials": 6,
            "sa_schemes": ["proposed", "shen", "static"],
            "pa_schemes": ["uniform"],
            "chunk_sizes": [1, 2, 4, 8, 16],
            "cell_radius_km": 1.0,
            "intercell_distance_km": 2.0,
            "centre_radius_fraction": 0.5,
            "target_ber": 1e-06,
            "bs_power_dbm": 43.0,
            "noise_density_dbm_hz": -174.0,
            "subcarrier_spacing_hz": 15000.0,
        },
        default_seed=24680,
        digests=("d0115447b212d3ddf031cb236b3e13109df79bd48d0797c612b23286d27e14e8",
                 "a0b678bd99c7bca0411e73262c8aac7aa22dc7cb96f6ca31296afe1f18e4d872"),
        expects=(*_CHANNEL_DRAW, "assign.chunk_rates", "assign.proposed_sa",
                 "assign.shen_sa", "assign.static_sa", "multicell.build_scenario",
                 "multicell.multicell_sa", *_METRICS, *_HARNESS),
    ),
    "oracle-small": Workload(
        config={
            "scenario": "single-cell",
            "n_subcarriers": 12,
            "n_users": 2,
            "tap_counts": [2, 4],
            "rate_weights": [1.0, 2.0],
            "trials": 12,
            "sa_schemes": ["proposed", "shen", "static", "exhaustive-oracle"],
            "pa_schemes": ["uniform", "exact-oracle"],
            "chunk_sizes": [2],
            "snr_db": [0.0],
        },
        default_seed=7,
        digests=("31341733535483d8c1cc10f940d2d12f0c888b05d88f47d4891f75e8915ce56b",
                 "0214629591f3bf496be35cdfdbbeac62b7f294748edd9308951ac5c085d5d42e"),
        expects=("channel.realize_channel", *_CHANNEL_DRAW, "assign.chunk_rates",
                 "assign.proposed_sa", "assign.shen_sa", "assign.static_sa",
                 "assign.exhaustive_sa_oracle", "power.uniform_pa",
                 "power.exact_pa_oracle", "power.user_rates", *_METRICS, *_HARNESS),
    ),
}


def expected_rows(config: dict) -> int:
    """Rows a run of ``config`` writes: one per sweep point, scheme pair and trial."""
    points = len(config["chunk_sizes"]) * max(1, len(config.get("snr_db", ())))
    return config["trials"] * points * len(config["sa_schemes"]) * len(config["pa_schemes"])
