from dataclasses import replace

import numpy as np
import pytest

from v2isim import ChannelParams, LinkTable, Tier, TierRadio, channel


def make_table(snr_rows, bandwidth_hz, is_lte, required_rate_bps=None,
               snr_threshold_db=-5.0) -> LinkTable:
    """Synthetic link table straight from SNR values (test fixture)."""
    snr = np.asarray(snr_rows, dtype=float)
    n_vn = snr.shape[0]
    if required_rate_bps is None:
        required_rate_bps = np.zeros(n_vn)
    return LinkTable(snr, np.asarray(bandwidth_hz, dtype=float),
                     np.asarray(is_lte, dtype=bool),
                     np.asarray(required_rate_bps, dtype=float),
                     snr_threshold_db)


def los_snr_db(snapshot, params, unit_gain=False) -> np.ndarray:
    """SNR of every (vehicle, station) link of ``snapshot`` as if in LOS: the
    LOS law of ``channel._snr_law`` at l = log10(max(s + dz*dz, d_min**2)),
    s the squared horizontal distance, with the gain of the tier's arrays
    (or of one-element arrays with ``unit_gain``). It is computed as the
    table build computes it, operation for operation, so that the result is
    the build's to the bit."""
    if unit_gain:
        params = replace(params, vn_array_elements=1,
                         mmw=replace(params.mmw, array_elements=1))
    vn, bs = snapshot.vn_xy, snapshot.bs_xy
    dz = params.vn_height_m - params.bs_height_m
    d2_min = params.min_distance_m * params.min_distance_m
    out = np.empty((vn.shape[0], bs.shape[0]))
    lte = snapshot.is_lte
    for tier, cols in ((Tier.LTE, lte), (Tier.MMWAVE, ~lte)):
        a_los, b_los, _, _ = channel._snr_law(tier, params)
        dx, dy = vn[:, 0, None] - bs[cols, 0], vn[:, 1, None] - bs[cols, 1]
        log_d2 = np.log10(np.maximum(dx * dx + dy * dy + dz * dz, d2_min))
        out[:, cols] = log_d2 * -b_los + a_los
    return out


def flat_mmw_params(tx_power_dbm, bs_elements, vn_elements, path_loss_db,
                    bandwidth_hz) -> ChannelParams:
    """Channel parameters whose mmWave LOS path loss is ``path_loss_db`` at
    every distance (a 1 GHz carrier, so no frequency term, and no distance
    slope), so that the LOS intercept of ``channel._snr_law`` for the tier
    is the whole link budget: tx + gain - path loss - noise over the band."""
    return ChannelParams(vn_array_elements=vn_elements,
                         mmw=TierRadio(tx_power_dbm, bandwidth_hz, 1e9, bs_elements),
                         mmw_pl_los_intercept_db=path_loss_db,
                         mmw_pl_los_distance_slope_db=0.0)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
