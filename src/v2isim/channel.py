"""Link-level channel model: LOS probabilities, path loss, antenna gain,
SNR and the load-dependent Shannon rate, assembled per snapshot into an
immutable link table.

The table holds what the attachment rules read: the (vehicle, station)
matrix of SNR and the matrix of the rate at load 1, built from it on first
read. A tier has one carrier and one radio, so transmit power, bandwidth,
carrier and gain are scalars taken from the tier's ``ChannelParams``
entries; only the LOS state and the distances vary per link, and neither is
kept once the SNR is known. The budget, tx + gain - path loss - noise with
the TR 38.901-style path loss of the clamped 3D distance d, is affine in
l = log10(d*d) in each LOS state, so ``_snr_law``, the only definition of
the budget, folds it into four scalars per tier. The parameters come from
a checked ``ScenarioConfig``, so nothing here checks them again.
"""
from __future__ import annotations

import math
from enum import IntEnum
from functools import cached_property

import numpy as np

from .config import ChannelParams
from .geometry import Snapshot

# the station index of a vehicle that every station leaves in outage
NO_BS = -1

# vehicles per block of the table build and of the rate table, so that a
# block's per-link temporaries stay in cache from the distances to the SNR
_ROW_BLOCK = 128


class Tier(IntEnum):
    """A station's tier, or a vehicle's serving tier (NONE when unattached),
    by the int8 codes ``RunResult.tier`` carries and the names the
    per-vehicle dump writes."""
    NONE = 0
    LTE = 1
    MMWAVE = 2


def los_probability_lte(d_2d_m):
    """Outdoor macro LOS probability of an array of 2D distances in meters:
    min(0.018/d, 1) * (1 - exp(-d/0.063)) + exp(-d/0.063) with d in km,
    which is 1 at d = 0 (0.018/0 divides by zero to inf)."""
    d_km = d_2d_m / 1000.0
    decay = np.exp(-d_km / 0.063)
    return np.minimum(0.018 / d_km, 1.0) * (1.0 - decay) + decay


def los_probability_mmw(d_2d_m):
    """Street-canyon LOS probability of an array of 2D distances in meters:
    1 for d <= 18 m, else 18/d + exp(-d/36) * (1 - 18/d)."""
    near = np.divide(18.0, d_2d_m)
    np.minimum(near, 1.0, out=near)
    p = np.divide(d_2d_m, -36.0)
    np.exp(p, out=p)
    p *= 1.0 - near
    p += near
    return p


def _snr_law(tier: Tier, params: ChannelParams) -> tuple[float, float, float, float]:
    """The SNR in dB of a link of the tier as two affine laws of
    l = log10(max(d*d, min_distance_m**2)), d the 3D distance in meters:
    a_los - b_los * l in LOS and min(that, a_nlos - b_nlos * l) in NLOS,
    returned as (a_los, b_los, a_nlos, b_nlos). The budget is tx + gain -
    path loss - noise over the band, all in dB. In each LOS state the tier's
    path loss is c + b * l: b is the model's distance slope halved, and c
    its intercept with the carrier term, the NLOS height term and, on LTE,
    the change to kilometers (log10(d / 1000) = l / 2 - 3) folded in, so
    a = tx + gain - noise - c. The min keeps an NLOS path loss from falling
    below the LOS one."""
    p = params
    if tier is Tier.LTE:
        radio, gain = p.lte, 1.0  # omnidirectional
        c_los = p.lte_pl_los_intercept_db - 3.0 * p.lte_pl_los_distance_slope_db
        c_nlos = p.lte_pl_nlos_intercept_db - 3.0 * p.lte_pl_nlos_distance_slope_db
        slope_los, slope_nlos = p.lte_pl_los_distance_slope_db, p.lte_pl_nlos_distance_slope_db
    else:
        radio, gain = p.mmw, float(p.mmw.array_elements * p.vn_array_elements)
        log_f = math.log10(radio.carrier_hz / 1e9)  # frequency in GHz
        c_los = p.mmw_pl_los_intercept_db + p.mmw_pl_los_frequency_slope_db * log_f
        c_nlos = (p.mmw_pl_nlos_intercept_db + p.mmw_pl_nlos_frequency_slope_db * log_f
                  - p.mmw_pl_nlos_height_slope_db * (p.vn_height_m - 1.5))
        slope_los, slope_nlos = p.mmw_pl_los_distance_slope_db, p.mmw_pl_nlos_distance_slope_db
    noise_dbm = p.noise_psd_dbm_per_hz + 10.0 * np.log10(radio.bandwidth_hz)
    top = float(radio.tx_power_dbm + 10.0 * np.log10(gain) - noise_dbm)
    return top - c_los, slope_los / 2.0, top - c_nlos, slope_nlos / 2.0


class LinkTable:
    """Per-snapshot matrices of what the attachment rules read, read-only.

    Rows are vehicles, columns base stations; as in the snapshot, station
    j is LTE iff j < n_lte. unit_rate_bps holds the Shannon rate at load 1,
    bandwidth * log2(1 + snr_linear), so the rate at load m is
    unit_rate_bps / m; it is 0 where the link is in outage. It is built
    from snr_db on its first read: MS reads only snr_db, through
    strongest_bs, so an MS run never builds it.
    """

    def __init__(self, snr: np.ndarray, bandwidth_hz: np.ndarray, n_lte: int,
                 required_rate_bps: np.ndarray, snr_threshold_db: float):
        # read-only views, so that the caller's arrays stay writeable
        self.snr_db = np.asarray(snr, dtype=float).view()
        self.n_vn, self.n_bs = self.snr_db.shape
        self.bandwidth_hz = np.asarray(bandwidth_hz, dtype=float).view()
        self.n_lte = int(n_lte)
        self.required_rate_bps = np.asarray(required_rate_bps, dtype=float).view()
        self.snr_threshold_db = float(snr_threshold_db)
        for arr in (self.snr_db, self.bandwidth_hz, self.required_rate_bps):
            arr.setflags(write=False)

    def rates_at(self, rows, cols) -> np.ndarray:
        """unit_rate_bps[rows, cols], computed from the SNR of those links
        alone: bandwidth * log2(1 + snr_linear), 0 below the threshold."""
        snr = self.snr_db[rows, cols]
        with np.errstate(over="ignore"):
            rate = self.bandwidth_hz[cols] * np.log2(1.0 + 10.0 ** (snr / 10.0))
        return np.where(snr < self.snr_threshold_db, 0.0, rate)

    @cached_property
    def unit_rate_bps(self) -> np.ndarray:
        # filled a block of vehicles at a time, so that rates_at's
        # temporaries are the size of a block, not of the table
        rate = np.empty(self.snr_db.shape)
        for start in range(0, self.n_vn, _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            rate[rows] = self.rates_at(rows, slice(None))
        rate.setflags(write=False)
        return rate

    @cached_property
    def strongest_bs(self) -> np.ndarray:
        """Each vehicle's station of highest SNR, ties to the lowest id, or
        ``NO_BS`` where that SNR is below the threshold or there is no
        station: the MS choice. No load changes it, so it is built once, on
        its first read."""
        if self.n_bs == 0:
            best = np.full(self.n_vn, NO_BS, dtype=np.int64)
        else:
            col = self.snr_db.argmax(axis=1)
            top = self.snr_db[np.arange(self.n_vn), col]
            best = np.where(top < self.snr_threshold_db, NO_BS, col)
        best.setflags(write=False)
        return best


def _tier_snr(vn_xy, bs_xy, uniform, law, los_probability, params, buffers):
    """The SNR block of the links between the vehicles ``vn_xy`` and the
    stations ``bs_xy`` of one tier, whose budget is ``law`` (its
    ``_snr_law``) and whose LOS probability of a 2D distance in meters is
    ``los_probability``: a link is in LOS iff its uniform is below that
    probability, or below ``los_probability_override`` when one is set.
    ``buffers`` holds three scratch arrays of the block's shape."""
    a_los, b_los, a_nlos, b_nlos = law
    s, log_d2, nlos = buffers
    dz = params.vn_height_m - params.bs_height_m
    override = params.los_probability_override
    np.subtract(vn_xy[:, 0, None], bs_xy[:, 0], out=s)
    np.multiply(s, s, out=s)
    np.subtract(vn_xy[:, 1, None], bs_xy[:, 1], out=log_d2)
    np.multiply(log_d2, log_d2, out=log_d2)
    s += log_d2
    p_los = los_probability(np.sqrt(s, out=log_d2)) if override is None else override
    los = uniform < p_los
    np.add(s, dz * dz, out=log_d2)
    np.maximum(log_d2, params.min_distance_m * params.min_distance_m, out=log_d2)
    np.log10(log_d2, out=log_d2)
    snr_los = np.multiply(log_d2, -b_los, out=s)
    snr_los += a_los
    np.multiply(log_d2, -b_nlos, out=nlos)
    nlos += a_nlos
    np.minimum(snr_los, nlos, out=nlos)
    return np.where(los, snr_los, nlos)


def build_link_table(snapshot: Snapshot, rng: np.random.Generator,
                     params: ChannelParams, snr_threshold_db: float) -> LinkTable:
    """Realize every (vehicle, base station) link of one snapshot.

    LOS states are Bernoulli draws against the tier's distance-dependent
    probability, one uniform per link, taken once here and never resampled.
    The uniforms are drawn in row order, ``_ROW_BLOCK`` vehicles and every
    column at a time, into one reused buffer: successive row-major blocks
    are the stream of one draw for the whole table. Each block's mmWave
    columns are built right after its draw; the LTE columns' uniforms are
    kept, and the LTE tier's few columns are built after the last block, in
    one block of every vehicle, which keeps their temporaries in cache. A
    block's SNR is built from the squared horizontal distance
    s = dx*dx + dy*dy of each link: the LOS test reads p_los(sqrt(s)), and
    the SNR is the tier's ``_snr_law`` at
    l = log10(max(s + dz*dz, min_distance_m**2)). The LOS states and path
    losses are not kept, and nothing the size of the table is allocated but
    the SNR.
    """
    vn, bs, n_lte = snapshot.vn_xy, snapshot.bs_xy, snapshot.n_lte
    m, n = vn.shape[0], bs.shape[0]
    snr = np.empty((m, n))
    block_uniform = np.empty((min(_ROW_BLOCK, m), n))
    lte_uniform = np.empty((m, n_lte))
    mmw_law = _snr_law(Tier.MMWAVE, params)
    # the per-block temporaries, reused by every block
    mmw_buffers = np.empty((3, min(_ROW_BLOCK, m), n - n_lte))
    # the LOS probabilities divide by a zero distance, to the limit they meet
    with np.errstate(divide="ignore"):
        for start in range(0, m, _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            uniform = rng.random(out=block_uniform[:min(_ROW_BLOCK, m - start)])
            lte_uniform[rows] = uniform[:, :n_lte]
            snr[rows, n_lte:] = _tier_snr(vn[rows], bs[n_lte:], uniform[:, n_lte:], mmw_law,
                                          los_probability_mmw, params,
                                          mmw_buffers[:, :uniform.shape[0]])
        snr[:, :n_lte] = _tier_snr(vn, bs[:n_lte], lte_uniform, _snr_law(Tier.LTE, params),
                                   los_probability_lte, params, np.empty((3, m, n_lte)))
    bandwidth = np.repeat([params.lte.bandwidth_hz, params.mmw.bandwidth_hz], [n_lte, n - n_lte])
    return LinkTable(snr, bandwidth, n_lte, snapshot.required_rate_bps, snr_threshold_db)
