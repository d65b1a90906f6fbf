"""Monte Carlo simulator for vehicle-to-infrastructure attachment policies
in heterogeneous LTE + mmWave networks."""
from ._version import __version__
from .channel import (
    LinkTable,
    build_link_table,
    los_probability_lte,
    los_probability_mmw,
)
from .config import (
    ChannelParams,
    ConfigError,
    ScenarioConfig,
    TierRadio,
    config_from_dict,
    load_config,
)
from .engine import (
    AssociationState,
    RunResult,
    derive_run_seed,
    initial_attach,
    realized_rates,
    run_campaign,
    run_once,
    run_spec,
    steady_state,
)
from .geometry import Snapshot, Tier, build_snapshot
from .metrics import (
    CellSummary,
    RunMetrics,
    compute_run_metrics,
    jain_index,
    lte_ratio,
    mean_rate_per_class,
    satisfaction_ratio,
    summarize,
    worst_decile_mean,
)
from .output import CSV_COLUMNS, write_results
from .policy import NO_BS, POLICY_KERNELS, Policy

__all__ = [
    "__version__", "AssociationState", "CellSummary", "ChannelParams",
    "ConfigError", "CSV_COLUMNS", "LinkTable", "NO_BS", "POLICY_KERNELS",
    "Policy", "RunMetrics", "RunResult", "ScenarioConfig", "Snapshot", "Tier",
    "TierRadio", "build_link_table", "build_snapshot", "compute_run_metrics",
    "config_from_dict", "derive_run_seed", "initial_attach", "jain_index",
    "load_config", "los_probability_lte", "los_probability_mmw", "lte_ratio",
    "mean_rate_per_class", "realized_rates", "run_campaign", "run_once",
    "run_spec", "satisfaction_ratio", "steady_state", "summarize",
    "worst_decile_mean", "write_results",
]
