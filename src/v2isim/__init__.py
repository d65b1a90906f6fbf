"""Monte Carlo simulator for vehicle-to-infrastructure attachment policies
in heterogeneous LTE + mmWave networks."""
from ._version import __version__
from .channel import (
    NO_BS,
    LinkTable,
    build_link_table,
    los_probability_lte,
    los_probability_mmw,
)
from .config import (
    ChannelParams,
    ConfigError,
    Policy,
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
from .geometry import Snapshot, build_snapshot
from .metrics import (
    compute_run_metrics,
    jain_index,
    mean_rate_per_class,
    summarize,
    worst_decile_mean,
)
from .output import write_results
from .policy import POLICY_KERNELS

__all__ = [
    "__version__", "AssociationState", "ChannelParams", "ConfigError",
    "LinkTable", "NO_BS", "POLICY_KERNELS", "Policy", "RunResult",
    "ScenarioConfig", "Snapshot", "TierRadio",
    "build_link_table", "build_snapshot", "compute_run_metrics",
    "config_from_dict", "derive_run_seed", "initial_attach", "jain_index",
    "load_config", "los_probability_lte", "los_probability_mmw",
    "mean_rate_per_class", "realized_rates", "run_campaign", "run_once",
    "run_spec", "steady_state", "summarize", "worst_decile_mean",
    "write_results",
]
