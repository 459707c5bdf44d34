"""Per-layer microbenchmarks of the functions the ROADMAP expects to optimise.

Usage: python3 perfbench/micro.py SEED

Times ``assign.proposed_sa``, ``assign.shen_sa``, ``power.proposed_pa``,
``power.exact_pa_oracle`` and ``multicell.build_scenario`` at
(K, N) = (4, 128), (8, 512) and (16, 1024).  Inputs are drawn from SEED
through the public ``channel`` functions: K users with tap counts
cycling 4, 8, 16, 32 and weights cycling 1, 1, 4, 4, at 0 dB average
per-subcarrier SNR and chunk size one; the PA cases use the assignment
``proposed_sa`` returns.  Prints one JSON object mapping
``<module>.<function>.K<k>N<n>`` to its call durations in seconds.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from chunkfair.assign import build_grid, chunk_rates, proposed_sa, shen_sa  # noqa: E402
from chunkfair.channel import STREAM_CHANNEL, UserProfile, realize_channel, substream  # noqa: E402
from chunkfair.multicell import ScenarioParams, build_scenario  # noqa: E402
from chunkfair.power import exact_pa_oracle, proposed_pa  # noqa: E402

SIZES = ((4, 128), (8, 512), (16, 1024))
TAPS = (4, 8, 16, 32)
WEIGHTS = (1.0, 1.0, 4.0, 4.0)
INPUTS = 8            # distinct drawn inputs, cycled through
MIN_SAMPLES = 25      # enough for a p_hi with ten samples beyond it
CASE_SECONDS = 0.4
MAX_SAMPLES = 400


def _sample(call) -> list[float]:
    call(0)  # warm-up, untimed
    times = []
    started = time.perf_counter()
    while len(times) < MAX_SAMPLES and (
        len(times) < MIN_SAMPLES or time.perf_counter() - started < CASE_SECONDS
    ):
        i = len(times) % INPUTS
        t = time.perf_counter()
        call(i)
        times.append(time.perf_counter() - t)
    return times


def cases(seed: int, k: int, n: int) -> dict:
    taps = tuple(TAPS[u % len(TAPS)] for u in range(k))
    weights = np.array([WEIGHTS[u % len(WEIGHTS)] for u in range(k)])
    grid = build_grid(n, 1)
    gains, tables, assignments = [], [], []
    for i in range(INPUTS):
        g = np.vstack([
            realize_channel(UserProfile(taps[u], weights[u]), n, 1.0,
                            substream(seed, STREAM_CHANNEL, i, u, 0)).gains
            for u in range(k)
        ])
        table = chunk_rates(g, grid, 1.0)
        gains.append(g)
        tables.append(table)
        assignments.append(proposed_sa(table, weights, grid)[0])
    params = ScenarioParams(n_subcarriers=n, chunk_size=1, n_users=k, tap_counts=taps,
                            rate_weights=tuple(weights))
    return {
        "assign.proposed_sa": lambda i: proposed_sa(tables[i], weights, grid),
        "assign.shen_sa": lambda i: shen_sa(tables[i], weights, grid),
        "power.proposed_pa": lambda i: proposed_pa(assignments[i], gains[i], weights, float(n)),
        "power.exact_pa_oracle": lambda i: exact_pa_oracle(assignments[i], gains[i], weights, float(n)),
        "multicell.build_scenario": lambda i: build_scenario(params, seed, i),
    }


def main(argv: list[str]) -> int:
    seed = int(argv[0])
    out = {}
    for k, n in SIZES:
        for name, call in cases(seed, k, n).items():
            out[f"{name}.K{k}N{n}"] = _sample(call)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
