"""The three attachment decision rules, and which vehicles a move unsettles.

Each rule is a kernel in ``POLICY_KERNELS``:
``kernel(table, assignment, loads, rows)`` returns, for each vehicle in
``rows``, the station index it attaches to, or ``NO_BS`` when every station
is in outage for it. ``loads`` counts the vehicles of ``assignment``; each
vehicle decides at the loads without itself, and each candidate cell is
evaluated at that load + 1, i.e. the rate the vehicle would actually get
after joining. Ties break toward the lowest base-station id.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from .channel import LinkTable

NO_BS = -1


class Policy(Enum):
    MS = "MS"
    MR = "MR"
    RA = "RA"


def _best(values: np.ndarray, outage) -> np.ndarray:
    """Column of each row's maximum, ties to the lowest id, or ``NO_BS``
    where ``outage`` holds for that maximum or there is no column."""
    if values.shape[1] == 0:
        return np.full(values.shape[0], NO_BS, dtype=np.int64)
    best = values.argmax(axis=1)
    return np.where(outage(values[np.arange(best.size), best]), NO_BS, best)


def _post_join_rates(table: LinkTable, assignment: np.ndarray,
                     loads: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """rates[i, j]: the rate vehicle ``rows[i]`` gets after joining station
    j, at the loads without it: ``unit / (loads_excl + 1.0)``."""
    unit = table.unit_rate_bps[rows]
    rates = unit / (loads + 1.0)
    own = assignment[rows]
    on = np.flatnonzero(own != NO_BS)
    # without the vehicle its own station is at loads - 1, so loads[own] - 1 + 1.0
    rates[on, own[on]] = unit[on, own[on]] / loads[own[on]]
    return rates


def _ms_choice(table: LinkTable, assignment: np.ndarray, loads: np.ndarray,
               rows: np.ndarray) -> np.ndarray:
    """Attach to the base station with the highest SNR, load notwithstanding."""
    return _best(table.snr_db[rows], lambda top: top < table.snr_threshold_db)


def _mr_choice(table: LinkTable, assignment: np.ndarray, loads: np.ndarray,
               rows: np.ndarray) -> np.ndarray:
    """Attach to the base station offering the highest post-join rate."""
    return _best(_post_join_rates(table, assignment, loads, rows),
                 lambda top: top <= 0.0)


def _ra_choice(table: LinkTable, assignment: np.ndarray, loads: np.ndarray,
               rows: np.ndarray) -> np.ndarray:
    """Prefer the best LTE cell when its post-join rate strictly exceeds the
    vehicle's required rate; otherwise fall back to the max-rate choice over
    all cells."""
    rates = _post_join_rates(table, assignment, loads, rows)
    choice = _best(rates, lambda top: top <= 0.0)
    lte = table.lte_indices
    if lte.size:
        lte_rates = rates[:, lte]
        best_lte = lte_rates.argmax(axis=1)
        served = (lte_rates[np.arange(rows.size), best_lte]
                  > table.required_rate_bps[rows])
        choice = np.where(served, lte[best_lte], choice)
    return choice


POLICY_KERNELS = {
    Policy.MS: _ms_choice,
    Policy.MR: _mr_choice,
    Policy.RA: _ra_choice,
}


def unsettled(table: LinkTable, policy: Policy, assignment: np.ndarray,
              loads: np.ndarray, a: int, b: int) -> np.ndarray:
    """Mask of the vehicles whose choice may differ after one vehicle moved
    from station ``a`` to ``b`` (``assignment`` and ``loads`` already
    updated).

    MS ignores loads, so nobody. Otherwise every vehicle on ``b``, which
    lost rate, and every vehicle off ``a`` for which ``a`` at its new load
    rates at least as high as its own station; under RA also those for
    which LTE cell ``a`` now beats the required rate. A vehicle on ``a``
    only gained, and no other station changed.
    """
    m = assignment.size
    if policy is Policy.MS:
        return np.zeros(m, dtype=bool)
    mask = assignment == b if b != NO_BS else np.zeros(m, dtype=bool)
    if a != NO_BS:
        unit = table.unit_rate_bps
        at_a = unit[:, a] / (loads[a] + 1.0)
        on = np.flatnonzero(assignment != NO_BS)
        current = np.zeros(m)
        current[on] = unit[on, assignment[on]] / loads[assignment[on]]
        drawn = (at_a >= current) & (at_a > 0.0)
        if policy is Policy.RA and table.is_lte[a]:
            drawn |= at_a > table.required_rate_bps
        mask |= drawn & (assignment != a)
    return mask
