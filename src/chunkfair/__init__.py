"""Chunk-based OFDMA resource allocation with proportional-rate fairness.

Single-cell: frequency-selective Rayleigh channels, chunked subcarrier
assignment under uniform power (a normalised-rate scheme, a serial
baseline, a static baseline, and a brute-force oracle), and power
allocation for a fixed assignment (low-SNR linearised split, uniform,
and an exact nonlinear oracle).  Multi-cell: a 19-cell layout with
fractional frequency reuse and per-group assignment for the centre
cell.  The harness runs seeded Monte-Carlo sweeps and writes
reproducible CSVs.
"""

from .assign import (
    Assignment,
    ChunkGrid,
    ComparisonCount,
    OracleResult,
    build_grid,
    chunk_rates,
    exhaustive_sa_oracle,
    normalized_rates,
    proposed_sa,
    run_sa,
    shen_sa,
    static_sa,
)
from .channel import (
    ChannelRealization,
    UserProfile,
    frequency_response,
    generate_taps,
    realize_channel,
    subcarrier_gains,
    substream,
)
from .errors import (
    AllocationError,
    ChunkfairError,
    ConfigError,
    InfeasibleError,
    OracleConvergenceError,
    OracleSizeError,
    UndefinedMetricError,
)
from .harness import ExperimentConfig, ResultRow, emit_csv, run_experiment
from .metrics import deviation, mean_ci, min_weighted_rate
from .multicell import (
    CellScenario,
    FfrPlan,
    HexLayout,
    ScenarioParams,
    band_partition,
    ber_gap,
    build_layout,
    build_scenario,
    multicell_sa,
    path_loss_db,
    place_users,
    reuse1_baseline,
)
from .power import (
    OrderedGains,
    PowerAllocation,
    exact_pa_oracle,
    linear_coefficients,
    proposed_pa,
    prune_and_waterfill,
    repair_negative_budgets,
    solve_power_split,
    sum_rate_bound,
    uniform_pa,
    user_rates,
)

__version__ = "0.1.0"
