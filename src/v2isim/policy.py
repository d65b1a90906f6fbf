"""The load-dependent attachment rules, MR and RA, and which vehicles a
move unsettles. MS depends on the link alone: its choice is the link
table's ``strongest_bs``, which the engine reads without a rule call.

Each rule is a kernel in ``POLICY_KERNELS``:
``kernel(table, assignment, loads, rows)`` returns ``(choice, rate)``: for
each vehicle in ``rows``, the station index it attaches to, or ``NO_BS``
when every station is in outage for it, and the post-join rate it gets
there (0 at ``NO_BS``). ``loads`` counts the vehicles of ``assignment``;
each vehicle decides at the loads without itself, and each candidate cell
is evaluated at that load + 1, i.e. the rate the vehicle would actually get
after joining. Ties break toward the lowest base-station id. Station j is
LTE iff j < ``table.n_lte``; ``NO_BS`` = -1 is below it, so each tier test
excludes ``NO_BS`` first.

A move changes the post-join rate of two stations only, so it can change
the choice of the vehicles choosing the station it joins, and of those for
which the rate at the station it left now reaches a per-vehicle threshold
(``thresholds``, ``unsettled``).
"""
from __future__ import annotations

import numpy as np

from .channel import NO_BS, LinkTable
from .config import Policy

# the least positive float: a rate r > 0 iff r >= _TINY
_TINY = np.nextafter(0.0, 1.0)


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
    if table.n_lte:
        lte_rates = rates[:, :table.n_lte]
        best_lte = lte_rates.argmax(axis=1)
        lte_top = lte_rates[np.arange(rows.size), best_lte]
        served = lte_top > table.required_rate_bps[rows]
        choice = np.where(served, best_lte, choice)
        rate = np.where(served, lte_top, rate)
    return choice, rate


POLICY_KERNELS = {
    Policy.MR: _mr_choice,
    Policy.RA: _ra_choice,
}


def thresholds(table: LinkTable, policy: Policy, rows: np.ndarray,
               choice: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """bar[t, i]: the least rate at a station of tier ``t`` (0 mmWave, 1 LTE)
    that may draw vehicle ``rows[i]`` off ``choice[i]``, where it gets
    ``rate[i]``, when that station's rate rises.

    Under MR it is ``max(rate, tiny)``: a positive rate that ties or
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
        # NO_BS is below n_lte, but rate > required >= 0 holds only off it
        served = (rate > required) & (choice < table.n_lte)
        bar[0, served] = np.inf
        bar[1] = np.where(served, floor,
                          np.minimum(floor, np.nextafter(required, np.inf)))
    return bar


def unsettled(table: LinkTable, assignment: np.ndarray, loads: np.ndarray,
              choice: np.ndarray, bar: np.ndarray, a: int, b: int) -> np.ndarray:
    """Mask of the vehicles whose choice may change after one vehicle moved
    from station ``a`` to ``b`` (``assignment`` and ``loads`` already
    updated).

    ``choice`` is each vehicle's choice before the move and ``bar`` its
    ``thresholds``. The move changes the post-join rate at two stations
    only: ``a`` rises and ``b`` falls. The mask holds every vehicle choosing
    ``b``, and every vehicle not choosing ``a`` whose bar for ``a``'s tier
    the rate at ``a`` now reaches. Every other vehicle compares the same
    rates as before, so its choice stands. One comparison per vehicle
    replaces the rule's two clauses; a bar computed from a rate at the
    choice that has risen since is too low, never too high, and a bar too
    low only widens the mask.
    """
    mask = choice == b if b != NO_BS else np.zeros(assignment.size, dtype=bool)
    if a == NO_BS:
        return mask
    at_a = table.unit_rate_bps[:, a] / (loads[a] + (assignment != a))
    return mask | ((at_a >= bar[int(a < table.n_lte)]) & (choice != a))
