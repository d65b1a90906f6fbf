"""The three attachment decision rules and which vehicles a move unsettles.

Each rule is a kernel in ``POLICY_KERNELS``:
``kernel(table, assignment, loads, rows)`` returns ``(choice, rate)``: for
each vehicle in ``rows``, the station index it attaches to, or ``NO_BS``
when every station is in outage for it, and the post-join rate it gets
there (0 at ``NO_BS``). ``loads`` counts the vehicles of ``assignment``;
each vehicle decides at the loads without itself, and each candidate cell
is evaluated at that load + 1, i.e. the rate the vehicle would actually get
after joining. Ties break toward the lowest base-station id.

A move changes the post-join rate of two stations only, so it can change
the choice of the vehicles choosing the station it joins, and of those for
which the rate at the station it left now reaches a per-vehicle threshold
(``thresholds``, ``unsettled``).
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from .channel import LinkTable

NO_BS = -1

# the least positive float: a rate r > 0 iff r >= _TINY
_TINY = np.nextafter(0.0, 1.0)


class Policy(Enum):
    MS = "MS"
    MR = "MR"
    RA = "RA"


def _best(rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column of each row's maximum rate, ties to the lowest id, or
    ``NO_BS`` where that maximum is 0 or there is no column; and that
    maximum, 0 at ``NO_BS``."""
    if rates.shape[1] == 0:
        return (np.full(rates.shape[0], NO_BS, dtype=np.int64),
                np.zeros(rates.shape[0]))
    best = rates.argmax(axis=1)
    top = rates[np.arange(best.size), best]
    return np.where(top <= 0.0, NO_BS, best), top


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
               rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Attach to the base station with the highest SNR, load notwithstanding.
    The rate of the choice is computed from that SNR alone, so MS never
    builds ``unit_rate_bps``. The engine asks MS for every vehicle at once,
    so the argmax runs over the table in place instead of over a copy of
    its rows."""
    if table.n_bs == 0:
        return np.full(rows.size, NO_BS, dtype=np.int64), np.zeros(rows.size)
    best = table.snr_db.argmax(axis=1)[rows]
    snr = table.snr_db[rows, best]
    # below the threshold the rate is 0, and so is the rate at NO_BS
    rate = table.unit_rates(snr, best) / (loads[best] + (assignment[rows] != best))
    return np.where(snr < table.snr_threshold_db, NO_BS, best), rate


def _mr_choice(table: LinkTable, assignment: np.ndarray, loads: np.ndarray,
               rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Attach to the base station offering the highest post-join rate."""
    return _best(_post_join_rates(table, assignment, loads, rows))


def _ra_choice(table: LinkTable, assignment: np.ndarray, loads: np.ndarray,
               rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefer the best LTE cell when its post-join rate strictly exceeds the
    vehicle's required rate; otherwise fall back to the max-rate choice over
    all cells."""
    rates = _post_join_rates(table, assignment, loads, rows)
    choice, rate = _best(rates)
    lte = table.lte_indices
    if lte.size:
        lte_rates = rates[:, lte]
        best_lte = lte_rates.argmax(axis=1)
        lte_top = lte_rates[np.arange(rows.size), best_lte]
        served = lte_top > table.required_rate_bps[rows]
        choice = np.where(served, lte[best_lte], choice)
        rate = np.where(served, lte_top, rate)
    return choice, rate


POLICY_KERNELS = {
    Policy.MS: _ms_choice,
    Policy.MR: _mr_choice,
    Policy.RA: _ra_choice,
}


def thresholds(table: LinkTable, policy: Policy, rows: np.ndarray,
               choice: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """bar[t, i]: the least rate at a station of tier ``t`` (0 mmWave, 1 LTE)
    that may draw vehicle ``rows[i]`` off ``choice[i]``, where it gets
    ``rate[i]``, when that station's rate rises.

    Under MS and MR it is ``max(rate, tiny)``: a positive rate that ties or
    beats the choice (a tie goes to the lower id). Under RA a vehicle is
    served when its choice is an LTE cell above its required rate: it takes
    the best LTE cell, which a rise at a mmWave station cannot change, so
    its mmWave bar is ``inf``. An unserved vehicle is also drawn by an LTE
    cell that beats its required rate, so its LTE bar is at most the least
    float above that rate."""
    bar = np.empty((2, rate.size))
    bar[:] = floor = np.maximum(rate, _TINY)
    if policy is Policy.RA:
        required = table.required_rate_bps[rows]
        # rate > required >= 0 holds only off NO_BS
        served = rate > required
        served[served] = table.is_lte[choice[served]]
        bar[0, served] = np.inf
        bar[1] = np.where(served, floor,
                          np.minimum(floor, np.nextafter(required, np.inf)))
    return bar


def unsettled(table: LinkTable, policy: Policy, assignment: np.ndarray,
              loads: np.ndarray, choice: np.ndarray, bar: np.ndarray,
              a: int, b: int) -> np.ndarray:
    """Mask of the vehicles whose choice may change after one vehicle moved
    from station ``a`` to ``b`` (``assignment`` and ``loads`` already
    updated).

    ``choice`` is each vehicle's choice before the move and ``bar`` its
    ``thresholds``. The move changes the post-join rate at two stations
    only: ``a`` rises and ``b`` falls. MS ignores loads, so nobody.
    Otherwise the mask holds every vehicle choosing ``b``, and every vehicle
    not choosing ``a`` whose bar for ``a``'s tier the rate at ``a`` now
    reaches. Every other vehicle compares the same rates as before, so its
    choice stands. One comparison per vehicle replaces the rule's two
    clauses; a bar computed from a rate at the choice that has risen since
    is too low, never too high, and a bar too low only widens the mask.
    """
    m = assignment.size
    if policy is Policy.MS:
        return np.zeros(m, dtype=bool)
    mask = choice == b if b != NO_BS else np.zeros(m, dtype=bool)
    if a == NO_BS:
        return mask
    at_a = table.unit_rate_bps[:, a] / (loads[a] + (assignment != a))
    return mask | ((at_a >= bar[int(table.is_lte[a])]) & (choice != a))
