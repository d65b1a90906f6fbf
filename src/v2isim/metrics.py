"""Per-run figures of merit and their cross-run aggregation.

All metrics are computed over in-region vehicles only. A class with no
in-region members in a run yields NaN (an undefined marker) and is skipped
when averaging across runs, never imputed as zero.

A cell reduces its runs in two ways. The mean rate, satisfaction ratio,
LTE ratio and Jain index are computed per run and then averaged across
runs. The worst-decile rate is a quantile, and quantiles do not average:
the cell figure is the worst-decile mean of the class-k rates of all runs
pooled together, as cell-edge throughput is taken from the CDF of all
users over all drops in 3GPP TR 36.814 Annex A.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import N_CLASSES
from .engine import RunResult, TIER_LTE


def mean_rate_per_class(rates: np.ndarray) -> float:
    """Average of one class's rates; NaN when the class is empty."""
    return float(rates.mean()) if rates.size else math.nan


def worst_decile_mean(rates: np.ndarray) -> float:
    """Mean of the lowest ceil(10%) of one class's rates; NaN when empty."""
    if rates.size == 0:
        return math.nan
    take = math.ceil(0.1 * rates.size)
    return float(np.sort(rates)[:take].mean())


def satisfaction_ratio(rates: np.ndarray, required: np.ndarray) -> float:
    """Fraction of vehicles whose realized rate meets their requirement.

    Unattached vehicles carry rate 0 and count as unsatisfied.
    """
    if rates.size == 0:
        return math.nan
    return float(np.mean(rates >= required))


def lte_ratio(tier: np.ndarray) -> float:
    """Fraction of vehicles served by the LTE tier (unattached vehicles
    count in the denominator only)."""
    if tier.size == 0:
        return math.nan
    return float(np.mean(tier == TIER_LTE))


def jain_index(rates: np.ndarray) -> float:
    """Jain's fairness index over one class's rates; NaN for an empty class
    or an all-zero rate vector (0/0)."""
    if rates.size == 0:
        return math.nan
    total = rates.sum()
    squares = np.square(rates).sum()
    if squares == 0.0:
        return math.nan
    return float(total * total / (rates.size * squares))


@dataclass(frozen=True)
class RunMetrics:
    """One run reduced to its LTE ratio, satisfaction ratio and per-class
    mean rate and Jain index, plus the in-region rates of each class
    (``class_rates_bps[k - 1]``), which the cell's pooled worst-decile
    figure needs."""

    lambda_m: float
    policy_name: str
    p_lte: float
    p_sat: float
    mean_rate_bps: tuple[float, float, float, float]
    jain: tuple[float, float, float, float]
    # arrays have no scalar ==, so they stay out of the generated __eq__
    class_rates_bps: tuple[np.ndarray, ...] = field(compare=False, repr=False)
    converged: bool
    run_index: int | None = None


def compute_run_metrics(result: RunResult) -> RunMetrics:
    mask = result.in_region
    rates = result.rate_bps[mask]
    classes = result.class_k[mask]
    required = result.required_rate_bps[mask]
    tier = result.tier[mask]
    class_rates = tuple(rates[classes == k] for k in range(1, N_CLASSES + 1))
    return RunMetrics(
        lambda_m=result.lambda_m,
        policy_name=result.policy.value,
        p_lte=lte_ratio(tier),
        p_sat=satisfaction_ratio(rates, required),
        mean_rate_bps=tuple(mean_rate_per_class(sel) for sel in class_rates),
        jain=tuple(jain_index(sel) for sel in class_rates),
        class_rates_bps=class_rates,
        converged=result.converged,
        run_index=result.run_index,
    )


@dataclass(frozen=True)
class CellSummary:
    """One (density, policy) cell.

    ``p10_bps[k]`` is the worst-decile mean of the class-(k+1) rates of all
    runs pooled (NaN when no run has a class-(k+1) vehicle). Every other
    figure is the average of the per-run values, with its standard error
    (NaN when fewer than two defined runs).
    """

    lambda_m: float
    policy_name: str
    run_count: int
    nonconverged_runs: int
    p_lte: float
    p_lte_se: float
    p_sat: float
    p_sat_se: float
    mean_rate_bps: tuple[float, ...]
    mean_rate_se_bps: tuple[float, ...]
    p10_bps: tuple[float, ...]
    jain: tuple[float, ...]
    jain_se: tuple[float, ...]


def _nan_mean_se(values: list[float]) -> tuple[float, float]:
    values = np.array(values)
    defined = values[~np.isnan(values)]
    if defined.size == 0:
        return math.nan, math.nan
    mean = float(defined.mean())
    if defined.size < 2:
        return mean, math.nan
    se = float(defined.std(ddof=1) / math.sqrt(defined.size))
    return mean, se


def summarize(run_metrics) -> CellSummary:
    """Aggregate the runs of one cell: per-run figures are averaged with
    undefined markers skipped (standard error = sample stdev / sqrt(defined
    runs)); the worst-decile figure is taken over the pooled rates."""
    rows = sorted(run_metrics,
                  key=lambda r: (r.run_index if r.run_index is not None else 0))
    if not rows:
        raise ValueError("summarize requires at least one run")
    first = rows[0]
    if any(r.lambda_m != first.lambda_m or r.policy_name != first.policy_name
           for r in rows):
        raise ValueError("summarize expects runs from a single cell")
    p_lte, p_lte_se = _nan_mean_se([r.p_lte for r in rows])
    p_sat, p_sat_se = _nan_mean_se([r.p_sat for r in rows])
    mean_rate, mean_rate_se = zip(*(_nan_mean_se([r.mean_rate_bps[k] for r in rows])
                                    for k in range(N_CLASSES)))
    jain, jain_se = zip(*(_nan_mean_se([r.jain[k] for r in rows])
                          for k in range(N_CLASSES)))
    p10 = tuple(worst_decile_mean(np.concatenate([r.class_rates_bps[k] for r in rows]))
                for k in range(N_CLASSES))
    return CellSummary(
        lambda_m=first.lambda_m,
        policy_name=first.policy_name,
        run_count=len(rows),
        nonconverged_runs=sum(1 for r in rows if not r.converged),
        p_lte=p_lte, p_lte_se=p_lte_se,
        p_sat=p_sat, p_sat_se=p_sat_se,
        mean_rate_bps=mean_rate, mean_rate_se_bps=mean_rate_se,
        p10_bps=p10,
        jain=jain, jain_se=jain_se,
    )
