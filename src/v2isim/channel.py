"""Link-level channel model: LOS probabilities, path loss, antenna gain,
SNR and the load-dependent Shannon rate, assembled per snapshot into an
immutable link table.

The table holds what the attachment rules read: the (vehicle, station)
matrices of SNR and of the rate at load 1, built in one pass per tier over
the snapshot's arrays. A tier has one carrier and one radio, so transmit
power, bandwidth, carrier and gain are scalars taken from the tier's
``ChannelParams`` entries; only the LOS state and the distances vary per
link, and neither is kept once the SNR is known.
"""
from __future__ import annotations

import math

import numpy as np

from .config import ChannelParams
from .geometry import Snapshot, Tier

DEFAULT_SNR_THRESHOLD_DB = -5.0


def los_probability_lte(d_km):
    """Outdoor macro LOS probability as a function of 2D distance in km.

    p = min(0.018/d, 1) * (1 - exp(-d/0.063)) + exp(-d/0.063), with p(0) = 1.
    Accepts scalars or arrays.
    """
    d = np.asarray(d_km, dtype=float)
    if np.any(d < 0):
        raise ValueError("distance must be >= 0")
    with np.errstate(divide="ignore"):
        ratio = np.minimum(np.divide(0.018, d, out=np.full_like(d, np.inf),
                                     where=d > 0), 1.0)
    decay = np.exp(-d / 0.063)
    p = ratio * (1.0 - decay) + decay
    p = np.clip(np.where(d == 0, 1.0, p), 0.0, 1.0)
    return float(p) if p.ndim == 0 else p


def los_probability_mmw(d_2d_m):
    """Street-canyon LOS probability as a function of 2D distance in meters.

    p = 1 for d <= 18 m, else 18/d + exp(-d/36) * (1 - 18/d).
    Accepts scalars or arrays.
    """
    d = np.asarray(d_2d_m, dtype=float)
    if np.any(d < 0):
        raise ValueError("distance must be >= 0")
    with np.errstate(divide="ignore"):
        near = np.divide(18.0, d, out=np.ones_like(d), where=d > 0)
    p = near + np.exp(-d / 36.0) * (1.0 - near)
    p = np.clip(np.where(d <= 18.0, 1.0, p), 0.0, 1.0)
    return float(p) if p.ndim == 0 else p


def path_loss(tier: Tier, los, d_3d_m, carrier_hz: float,
              params: ChannelParams | None = None):
    """Log-distance path loss in dB for one tier and LOS state.

    Distances below params.min_distance_m are clamped. The NLOS value is
    floored at the LOS value so the NLOS >= LOS ordering holds at every
    distance. Accepts scalar or array `los`/`d_3d_m`.
    """
    p = params or ChannelParams()
    d = np.maximum(np.asarray(d_3d_m, dtype=float), p.min_distance_m)
    los_arr = np.asarray(los, dtype=bool)
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
    pl = np.where(los_arr, pl_los, np.maximum(pl_los, pl_nlos))
    return float(pl) if pl.ndim == 0 else pl


def cumulative_gain(tier: Tier, bs_elements: int, vn_elements: int) -> float:
    """Linear antenna gain of one link: 1 for omnidirectional LTE, the
    product of the array element counts for beamformed mmWave."""
    if bs_elements < 1 or vn_elements < 1:
        raise ValueError("element counts must be >= 1")
    if tier is Tier.LTE:
        return 1.0
    return float(bs_elements * vn_elements)


def snr_db(tx_power_dbm, gain_linear, path_loss_db, bandwidth_hz,
           noise_psd_dbm_per_hz: float = -174.0):
    """Downlink SNR in dB: tx + gain - path loss - thermal noise over the band."""
    bw = np.asarray(bandwidth_hz, dtype=float)
    if np.any(bw <= 0):
        raise ValueError("bandwidth must be > 0")
    noise_dbm = noise_psd_dbm_per_hz + 10.0 * np.log10(bw)
    out = (np.asarray(tx_power_dbm, dtype=float)
           + 10.0 * np.log10(np.asarray(gain_linear, dtype=float))
           - np.asarray(path_loss_db, dtype=float) - noise_dbm)
    return float(out) if out.ndim == 0 else out


def achievable_rate(snr_value_db: float, bandwidth_hz: float, load_m: int,
                    snr_threshold_db: float = DEFAULT_SNR_THRESHOLD_DB) -> float:
    """Shannon rate of one vehicle on a cell shared by load_m vehicles.

    Zero below the outage threshold; otherwise (B/m) * log2(1 + snr_linear).
    """
    if load_m < 1:
        raise ValueError("load_m must be >= 1")
    if snr_value_db < snr_threshold_db:
        return 0.0
    snr_linear = 10.0 ** (snr_value_db / 10.0)
    return (bandwidth_hz / load_m) * math.log2(1.0 + snr_linear)


class LinkTable:
    """Per-snapshot matrices of what the attachment rules read, frozen after
    construction.

    Rows are vehicles, columns base stations. unit_rate_bps holds the
    achievable rate at load 1, so the rate at load m is unit_rate_bps / m;
    it is 0 where the link is in outage.
    """

    def __init__(self, snr: np.ndarray, bandwidth_hz: np.ndarray,
                 is_lte: np.ndarray, required_rate_bps: np.ndarray,
                 snr_threshold_db: float):
        snr = np.asarray(snr, dtype=float)
        self.n_vn, self.n_bs = snr.shape
        self.snr_db = snr
        self.is_lte = np.asarray(is_lte, dtype=bool)
        self.required_rate_bps = np.asarray(required_rate_bps, dtype=float)
        self.snr_threshold_db = float(snr_threshold_db)
        bandwidth = np.asarray(bandwidth_hz, dtype=float)
        with np.errstate(over="ignore"):
            unit = bandwidth[None, :] * np.log2(1.0 + 10.0 ** (snr / 10.0))
        self.unit_rate_bps = np.where(snr < self.snr_threshold_db, 0.0, unit)
        self.lte_indices = np.flatnonzero(self.is_lte)
        for arr in (self.snr_db, self.is_lte, self.required_rate_bps,
                    self.unit_rate_bps, self.lte_indices):
            arr.setflags(write=False)


def build_link_table(snapshot: Snapshot, rng: np.random.Generator,
                     params: ChannelParams, snr_threshold_db: float) -> LinkTable:
    """Realize every (vehicle, base station) link of one snapshot.

    LOS states are Bernoulli draws against the tier's distance-dependent
    probability, one uniform per link drawn for the whole table in row
    order, taken once here and never resampled. Each tier's SNR is then
    written into its columns of one matrix; the LOS states and path losses
    are not kept.
    """
    vn, bs = snapshot.vn_xy, snapshot.bs_xy
    d2d = np.hypot(vn[:, 0, None] - bs[None, :, 0], vn[:, 1, None] - bs[None, :, 1])
    uniform = rng.random(size=d2d.shape)
    snr = np.empty(d2d.shape)
    n_lte = snapshot.n_lte
    for tier, radio, cols, los_probability in (
            (Tier.LTE, params.lte, slice(None, n_lte),
             lambda d: los_probability_lte(d / 1000.0)),
            (Tier.MMWAVE, params.mmw, slice(n_lte, None), los_probability_mmw)):
        d = d2d[:, cols]
        p_los = (los_probability(d) if params.los_probability_override is None
                 else params.los_probability_override)
        pl = path_loss(tier, uniform[:, cols] < p_los,
                       np.hypot(d, params.vn_height_m - params.bs_height_m),
                       radio.carrier_hz, params)
        gain = cumulative_gain(tier, radio.array_elements, params.vn_array_elements)
        snr[:, cols] = snr_db(radio.tx_power_dbm, gain, pl, radio.bandwidth_hz,
                              params.noise_psd_dbm_per_hz)
    lte = snapshot.is_lte
    bandwidth = np.where(lte, params.lte.bandwidth_hz, params.mmw.bandwidth_hz)
    return LinkTable(snr, bandwidth, lte, snapshot.required_rate_bps, snr_threshold_db)
