"""Per-run figures of merit and their cross-run aggregation.

All metrics are computed over in-region vehicles only. A class with no
in-region members in a run yields NaN (an undefined marker) and is skipped
when averaging across runs, never imputed as zero.

Each figure is known by its output column: ``RunMetrics.figures`` holds a
run's figures by column, and ``summarize`` returns a cell's row keyed by
``CSV_COLUMNS``, all but ``seed``, which is the campaign's. The columns and
their order are defined here alone.

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
from .engine import RunResult


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


def lte_ratio(bs_id: np.ndarray, n_lte: int) -> float:
    """Fraction of vehicles whose station is LTE, 0 <= bs_id < n_lte
    (unattached vehicles, at ``NO_BS`` = -1, count in the denominator only)."""
    if bs_id.size == 0:
        return math.nan
    return float(np.mean((0 <= bs_id) & (bs_id < n_lte)))


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


MEAN_RATE, P10, JAIN = "mean_rate_{}_bps", "p10_{}_bps", "jain_{}"
CLASSES = range(1, N_CLASSES + 1)
CSV_COLUMNS = ("lambda_m", "policy", "p_lte", "p_sat",
               *(column.format(k) for k in CLASSES for column in (MEAN_RATE, P10, JAIN)),
               "run_count", "seed", "nonconverged_runs")
RUN_FIGURES = ("p_lte", "p_sat", *(MEAN_RATE.format(k) for k in CLASSES),
               *(JAIN.format(k) for k in CLASSES))


@dataclass(frozen=True)
class RunMetrics:
    """One run reduced to its per-run figures, keyed by output column in
    RUN_FIGURES order (``p_lte``, ``p_sat``, ``mean_rate_k_bps``,
    ``jain_k``), plus each class's in-region rates,
    ``class_rates_bps[k - 1]``, for the cell's pooled worst-decile figure.
    A run's index is its place in ``run_campaign``'s order."""

    lambda_m: float
    policy_name: str
    figures: dict[str, float]
    # arrays have no scalar ==, so they stay out of the generated __eq__
    class_rates_bps: tuple[np.ndarray, ...] = field(compare=False, repr=False)
    converged: bool


def compute_run_metrics(result: RunResult) -> RunMetrics:
    mask = result.in_region
    rates = result.rate_bps[mask]
    classes = result.class_k[mask]
    required = result.required_rate_bps[mask]
    class_rates = tuple(rates[classes == k] for k in CLASSES)
    return RunMetrics(
        lambda_m=result.lambda_m,
        policy_name=result.policy.value,
        figures=dict(zip(RUN_FIGURES, (
            lte_ratio(result.bs_id[mask], result.n_lte), satisfaction_ratio(rates, required),
            *map(mean_rate_per_class, class_rates), *map(jain_index, class_rates)))),
        class_rates_bps=class_rates,
        converged=result.converged,
    )


def _nan_mean(values: list[float]) -> float:
    """Mean of the values that are not NaN; NaN when none is."""
    values = np.array(values)
    defined = values[~np.isnan(values)]
    return float(defined.mean()) if defined.size else math.nan


def summarize(run_metrics) -> dict:
    """One (density, policy) cell's row: every CSV column but ``seed``. A
    per-run figure is averaged over the runs that define it (NaN when none
    does); ``p10_k_bps`` is the worst-decile mean of the pooled class-k rates.
    Runs are reduced in the order given, ``run_campaign``'s being canonical.
    """
    rows = list(run_metrics)
    if not rows:
        raise ValueError("summarize requires at least one run")
    first = rows[0]
    if any(r.lambda_m != first.lambda_m or r.policy_name != first.policy_name
           for r in rows):
        raise ValueError("summarize expects runs from a single cell")
    cell = {"lambda_m": float(first.lambda_m), "policy": first.policy_name,
            "run_count": len(rows),
            "nonconverged_runs": sum(1 for r in rows if not r.converged)}
    cell.update((column, _nan_mean([r.figures[column] for r in rows]))
                for column in RUN_FIGURES)
    cell.update((P10.format(k), worst_decile_mean(
        np.concatenate([r.class_rates_bps[k - 1] for r in rows]))) for k in CLASSES)
    return cell
