"""The three attachment decision rules.

Each rule is a kernel in ``POLICY_KERNELS``: ``kernel(table, vn, loads)``
returns the station index vehicle ``vn`` attaches to, or ``NO_BS`` when
every station is in outage for it. The load vector must NOT count the
deciding vehicle: each candidate cell is evaluated at loads[j] + 1, i.e.
the rate the vehicle would actually get after joining. Ties break toward
the lowest base-station id.
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


def _ms_choice(table: LinkTable, vn: int, loads: np.ndarray) -> int:
    """Attach to the base station with the highest SNR, load notwithstanding."""
    row = table.snr_db[vn]
    if row.size == 0:
        return NO_BS
    j = int(np.argmax(row))
    return NO_BS if row[j] < table.snr_threshold_db else j


def _mr_choice(table: LinkTable, vn: int, loads: np.ndarray) -> int:
    """Attach to the base station offering the highest post-join rate."""
    rates = table.unit_rate_bps[vn] / (loads + 1.0)
    if rates.size == 0:
        return NO_BS
    j = int(np.argmax(rates))
    return NO_BS if rates[j] <= 0.0 else j


def _ra_choice(table: LinkTable, vn: int, loads: np.ndarray) -> int:
    """Prefer the best LTE cell when its post-join rate strictly exceeds the
    vehicle's required rate; otherwise fall back to the max-rate choice over
    all cells."""
    lte = table.lte_indices
    if lte.size:
        lte_rates = table.unit_rate_bps[vn, lte] / (loads[lte] + 1.0)
        jl = int(np.argmax(lte_rates))
        if lte_rates[jl] > table.required_rate_bps[vn]:
            return int(lte[jl])
    return _mr_choice(table, vn, loads)


POLICY_KERNELS = {
    Policy.MS: _ms_choice,
    Policy.MR: _mr_choice,
    Policy.RA: _ra_choice,
}
