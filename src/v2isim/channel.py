"""Link-level channel model: LOS probabilities, path loss, antenna gain,
SNR and the load-dependent Shannon rate, assembled per snapshot into an
immutable link table.

The table holds what the attachment rules read: the (vehicle, station)
matrix of SNR, built in blocks of vehicles one tier at a time, and the
matrix of the rate at load 1, built from it on first read. A tier has one
carrier and one radio, so transmit power, bandwidth, carrier and gain are
scalars taken from the tier's ``ChannelParams`` entries; only the LOS state
and the distances vary per link, and neither is kept once the SNR is known.
The parameters come from a checked ``ScenarioConfig``, so nothing here
checks them again.
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .config import ChannelParams
from .geometry import Snapshot, Tier

# vehicles per block of the table build, so that a block's per-link
# temporaries stay in cache from the distances to the SNR
_ROW_BLOCK = 128


def los_probability_lte(d_km):
    """Outdoor macro LOS probability of an array of 2D distances in km:
    min(0.018/d, 1) * (1 - exp(-d/0.063)) + exp(-d/0.063), which is 1 at
    d = 0 (0.018/0 divides by zero to inf)."""
    decay = np.exp(-d_km / 0.063)
    return np.minimum(0.018 / d_km, 1.0) * (1.0 - decay) + decay


def los_probability_mmw(d_2d_m):
    """Street-canyon LOS probability of an array of 2D distances in meters:
    1 for d <= 18 m, else 18/d + exp(-d/36) * (1 - 18/d)."""
    near = np.minimum(18.0 / d_2d_m, 1.0)
    return near + np.exp(-d_2d_m / 36.0) * (1.0 - near)


def path_loss(tier: Tier, los, d_3d_m, carrier_hz: float, params: ChannelParams):
    """Log-distance path loss in dB for one tier and LOS state.

    Distances below params.min_distance_m are clamped. The NLOS value is
    floored at the LOS value so the NLOS >= LOS ordering holds at every
    distance.
    """
    p = params
    d = np.maximum(d_3d_m, p.min_distance_m)
    if tier is Tier.LTE:
        log_d = np.log10(d / 1000.0)  # distance in km
        pl_los = p.lte_pl_los_intercept_db + p.lte_pl_los_distance_slope_db * log_d
        pl_nlos = p.lte_pl_nlos_intercept_db + p.lte_pl_nlos_distance_slope_db * log_d
    else:
        log_d = np.log10(d)
        f_ghz = carrier_hz / 1e9
        pl_los = (p.mmw_pl_los_intercept_db
                  + p.mmw_pl_los_distance_slope_db * log_d
                  + p.mmw_pl_los_frequency_slope_db * math.log10(f_ghz))
        pl_nlos = (p.mmw_pl_nlos_intercept_db
                   + p.mmw_pl_nlos_distance_slope_db * log_d
                   + p.mmw_pl_nlos_frequency_slope_db * math.log10(f_ghz)
                   - p.mmw_pl_nlos_height_slope_db * (p.vn_height_m - 1.5))
    return np.where(los, pl_los, np.maximum(pl_los, pl_nlos))


def cumulative_gain(tier: Tier, bs_elements: int, vn_elements: int) -> float:
    """Linear antenna gain of one link: 1 for omnidirectional LTE, the
    product of the array element counts for beamformed mmWave."""
    return 1.0 if tier is Tier.LTE else float(bs_elements * vn_elements)


def snr_db(tx_power_dbm, gain_linear, path_loss_db, bandwidth_hz,
           noise_psd_dbm_per_hz):
    """Downlink SNR in dB: tx + gain - path loss - thermal noise over the band."""
    noise_dbm = noise_psd_dbm_per_hz + 10.0 * np.log10(bandwidth_hz)
    return tx_power_dbm + 10.0 * np.log10(gain_linear) - path_loss_db - noise_dbm


class LinkTable:
    """Per-snapshot matrices of what the attachment rules read, read-only.

    Rows are vehicles, columns base stations. unit_rate_bps holds the
    Shannon rate at load 1, bandwidth * log2(1 + snr_linear), so the rate
    at load m is unit_rate_bps / m; it is 0 where the link is in outage. It
    is built from snr_db on its first read: MS reads only snr_db, so an MS
    run never builds it.
    """

    def __init__(self, snr: np.ndarray, bandwidth_hz: np.ndarray,
                 is_lte: np.ndarray, required_rate_bps: np.ndarray,
                 snr_threshold_db: float):
        self.snr_db = np.asarray(snr, dtype=float)
        self.n_vn, self.n_bs = self.snr_db.shape
        self.bandwidth_hz = np.asarray(bandwidth_hz, dtype=float)
        self.is_lte = np.asarray(is_lte, dtype=bool)
        self.required_rate_bps = np.asarray(required_rate_bps, dtype=float)
        self.snr_threshold_db = float(snr_threshold_db)
        self.lte_indices = np.flatnonzero(self.is_lte)
        for arr in (self.snr_db, self.bandwidth_hz, self.is_lte,
                    self.required_rate_bps, self.lte_indices):
            arr.setflags(write=False)

    def rates_at(self, rows, cols) -> np.ndarray:
        """unit_rate_bps[rows, cols], computed from the SNR of those links
        alone by the formula the full matrix is built with."""
        snr = self.snr_db[rows, cols]
        with np.errstate(over="ignore"):
            rate = self.bandwidth_hz[cols] * np.log2(1.0 + 10.0 ** (snr / 10.0))
        return np.where(snr < self.snr_threshold_db, 0.0, rate)

    @cached_property
    def unit_rate_bps(self) -> np.ndarray:
        rate = self.rates_at(slice(None), slice(None))
        rate.setflags(write=False)
        return rate


def build_link_table(snapshot: Snapshot, rng: np.random.Generator,
                     params: ChannelParams, snr_threshold_db: float) -> LinkTable:
    """Realize every (vehicle, base station) link of one snapshot.

    LOS states are Bernoulli draws against the tier's distance-dependent
    probability, one uniform per link drawn for the whole table in row
    order, taken once here and never resampled. The SNR is then built in
    blocks of ``_ROW_BLOCK`` vehicles, one tier's columns at a time, from
    the squared horizontal distance s = dx*dx + dy*dy of each link:
    d2d = sqrt(s) and d3d = sqrt(s + dz*dz). The LOS states and path losses
    are not kept.
    """
    vn, bs, n_lte = snapshot.vn_xy, snapshot.bs_xy, snapshot.n_lte
    uniform = rng.random(size=(vn.shape[0], bs.shape[0]))
    snr = np.empty(uniform.shape)
    dz = params.vn_height_m - params.bs_height_m
    override = params.los_probability_override
    tiers = ((Tier.LTE, params.lte, slice(None, n_lte),
              lambda d: los_probability_lte(d / 1000.0)),
             (Tier.MMWAVE, params.mmw, slice(n_lte, None), los_probability_mmw))
    # the LOS probabilities divide by a zero distance, to the limit they meet
    with np.errstate(divide="ignore"):
        for start in range(0, vn.shape[0], _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            for tier, radio, cols, los_probability in tiers:
                dx = vn[rows, 0, None] - bs[cols, 0]
                dy = vn[rows, 1, None] - bs[cols, 1]
                s = dx * dx + dy * dy
                p_los = los_probability(np.sqrt(s)) if override is None else override
                pl = path_loss(tier, uniform[rows, cols] < p_los,
                               np.sqrt(s + dz * dz), radio.carrier_hz, params)
                gain = cumulative_gain(tier, radio.array_elements,
                                       params.vn_array_elements)
                snr[rows, cols] = snr_db(radio.tx_power_dbm, gain, pl,
                                         radio.bandwidth_hz,
                                         params.noise_psd_dbm_per_hz)
    lte = snapshot.is_lte
    bandwidth = np.where(lte, params.lte.bandwidth_hz, params.mmw.bandwidth_hz)
    return LinkTable(snr, bandwidth, lte, snapshot.required_rate_bps, snr_threshold_db)
