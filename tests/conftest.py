import numpy as np
import pytest

from v2isim import LinkTable, Tier, cumulative_gain, path_loss, snr_db


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
    """SNR of every (vehicle, station) link of ``snapshot`` as if in LOS,
    recomputed from the snapshot's distances through ``path_loss``,
    ``cumulative_gain`` (or gain 1 with ``unit_gain``) and ``snr_db``. The
    distances are computed as the table build computes them, operation for
    operation, so that the result is the build's to the bit."""
    vn, bs = snapshot.vn_xy, snapshot.bs_xy
    dz = params.vn_height_m - params.bs_height_m
    out = np.empty((vn.shape[0], bs.shape[0]))
    lte = snapshot.is_lte
    for tier, radio, cols in ((Tier.LTE, params.lte, lte), (Tier.MMWAVE, params.mmw, ~lte)):
        dx, dy = vn[:, 0, None] - bs[cols, 0], vn[:, 1, None] - bs[cols, 1]
        d3d = np.sqrt(dx * dx + dy * dy + dz * dz)
        gain = 1.0 if unit_gain else cumulative_gain(
            tier, radio.array_elements, params.vn_array_elements)
        pl = path_loss(tier, True, d3d, radio.carrier_hz, params)
        out[:, cols] = snr_db(radio.tx_power_dbm, gain, pl, radio.bandwidth_hz,
                              params.noise_psd_dbm_per_hz)
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
