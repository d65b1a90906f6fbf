"""The three attachment decision rules, the rate of a choice, and which
vehicles a move unsettles.

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
    on = (own != NO_BS).nonzero()[0]
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


def choice_rates(table: LinkTable, assignment: np.ndarray, loads: np.ndarray,
                 rows: np.ndarray, choice: np.ndarray) -> np.ndarray:
    """rates[i]: the post-join rate vehicle ``rows[i]`` gets at station
    ``choice[i]`` at ``loads`` without it, the same float the rules compare;
    0 where the choice is ``NO_BS``."""
    rates = np.zeros(rows.size)
    on = (choice != NO_BS).nonzero()[0]
    vn, bs = rows[on], choice[on]
    rates[on] = table.unit_rate_bps[vn, bs] / (loads[bs] + (assignment[vn] != bs))
    return rates


def unsettled(table: LinkTable, policy: Policy, assignment: np.ndarray,
              loads: np.ndarray, choice: np.ndarray, chosen: np.ndarray,
              a: int, b: int) -> np.ndarray:
    """Mask of the vehicles whose choice may change after one vehicle moved
    from station ``a`` to ``b`` (``assignment`` and ``loads`` already
    updated). ``choice`` is each vehicle's choice before the move and
    ``chosen`` its post-join rate there; an entry may be too low, never too
    high, which only widens the mask.

    The move changes the post-join rate at two stations only: ``a`` rises
    and ``b`` falls. MS ignores loads, so nobody. Otherwise the mask holds
    every vehicle choosing ``b``, and every vehicle not choosing ``a`` for
    which ``a`` now offers a positive rate at least ``chosen`` (a tie goes
    to the lower id). Under RA a vehicle is served when its choice is an
    LTE cell above its required rate: it takes the best LTE cell, which a
    rise at a mmWave ``a`` cannot change, so served vehicles are dropped
    then; when ``a`` is LTE, the unserved vehicles for which it now beats
    the required rate are added. Every other vehicle compares the same
    rates as before, so its choice stands.
    """
    m = assignment.size
    if policy is Policy.MS:
        return np.zeros(m, dtype=bool)
    mask = choice == b if b != NO_BS else np.zeros(m, dtype=bool)
    if a == NO_BS:
        return mask
    at_a = table.unit_rate_bps[:, a] / (loads[a] + (assignment != a))
    drawn = (at_a >= chosen) & (at_a > 0.0)
    if policy is Policy.RA:
        served = ((choice != NO_BS) & table.is_lte[choice]
                  & (chosen > table.required_rate_bps))
        if table.is_lte[a]:
            drawn |= ~served & (at_a > table.required_rate_bps)
        else:
            drawn &= ~served
    return mask | (drawn & (choice != a))
