import numpy as np

from v2isim import (
    ChannelParams,
    ScenarioConfig,
    Snapshot,
    build_link_table,
    build_snapshot,
)
from conftest import los_snr_db

CHI2_CRIT_15DOF_P001 = 37.697  # 0.1% tail of chi-square with 15 dof


def stations_only(lte, mmw, rng):
    """(bs_xy, n_lte) of a snapshot at these densities with no vehicle."""
    cfg = ScenarioConfig(lte_density_per_km2=lte, vn_mode="FIXED", fixed_vn_count=0)
    snap = build_snapshot(cfg, mmw, rng)
    return snap.bs_xy, snap.n_lte


def vehicles_only(count, rng):
    """(vn_xy, class_k) of a snapshot of ``count`` vehicles and no station."""
    cfg = ScenarioConfig(lte_density_per_km2=0.0, vn_mode="FIXED", fixed_vn_count=count)
    snap = build_snapshot(cfg, 0.0, rng)
    return snap.vn_xy, snap.class_k


class TestDeployBaseStations:
    def test_zero_densities_give_empty_list(self, rng):
        xy, n_lte = stations_only(0.0, 0.0, rng)
        assert xy.shape == (0, 2)
        assert n_lte == 0

    def test_poisson_mean_over_2000_draws(self):
        rng = np.random.default_rng(424242)
        counts = [stations_only(4.0, 0.0, rng)[1] for _ in range(2000)]
        assert abs(np.mean(counts) - 4.0) < 0.15

    def test_poisson_mean_and_variance_3se(self):
        # mean and variance of Poisson(4) over 1e4 draws, each within 3 SE
        rng = np.random.default_rng(7)
        n = 10_000
        counts = np.array([len(stations_only(0.0, 4.0, rng)[0]) for _ in range(n)])
        lam = 4.0
        se_mean = np.sqrt(lam / n)
        se_var = np.sqrt((lam + 2 * lam * lam) / n)
        assert abs(counts.mean() - lam) < 3 * se_mean
        assert abs(counts.var(ddof=1) - lam) < 3 * se_var

    def test_mmw_parameters_per_tier(self, rng):
        # every station sits in the area, and each link column carries its
        # tier's bandwidth and beamforming gain; with every link in LOS the
        # SNR above the unit-gain budget is the gain
        cfg = ScenarioConfig(channel=ChannelParams(los_probability_override=1.0))
        snap = build_snapshot(cfg, 80.0, rng)
        assert np.all((snap.bs_xy >= 0.0) & (snap.bs_xy <= 1000.0))
        table = build_link_table(snap, rng, cfg.channel, cfg.snr_threshold_db)
        lte = snap.is_lte
        served = table.snr_db >= table.snr_threshold_db
        bandwidth = table.unit_rate_bps / np.log2(1.0 + 10.0 ** (table.snr_db / 10.0))
        assert np.allclose(bandwidth[:, lte][served[:, lte]], 20e6, rtol=1e-12, atol=0)
        assert np.allclose(bandwidth[:, ~lte][served[:, ~lte]], 1e9, rtol=1e-12, atol=0)
        gain_db = table.snr_db - los_snr_db(snap, cfg.channel, unit_gain=True)
        assert np.allclose(gain_db[:, lte], 10.0 * np.log10(1.0), rtol=0, atol=1e-9)
        assert np.allclose(gain_db[:, ~lte], 10.0 * np.log10(64.0 * 16.0), rtol=0, atol=1e-9)

    def test_ids_unique_and_lte_first(self):
        # draw order: LTE count and xy, then mmWave count and xy, then the
        # vehicles' count, xy and classes
        cfg = ScenarioConfig()
        snap = build_snapshot(cfg, 20.0, np.random.default_rng(31))
        replay = np.random.default_rng(31)
        lte_count = int(replay.poisson(4.0))
        lte_xy = replay.uniform(0.0, 1000.0, size=(lte_count, 2))
        mmw_count = int(replay.poisson(20.0))
        mmw_xy = replay.uniform(0.0, 1000.0, size=(mmw_count, 2))
        vn_count = int(replay.poisson(10.0 * 20.0))
        vn_xy = replay.uniform(0.0, 1000.0, size=(vn_count, 2))
        class_k = replay.choice(4, size=vn_count, p=[0.25] * 4) + 1
        assert snap.n_lte == lte_count
        assert np.array_equal(snap.bs_xy, np.concatenate([lte_xy, mmw_xy]))
        assert np.array_equal(snap.vn_xy, vn_xy)
        assert np.array_equal(snap.class_k, class_k)


class TestDeployVehicles:
    def test_fixed_mode_places_exactly_500(self, rng):
        snap = build_snapshot(ScenarioConfig(vn_mode="FIXED"), 10.0, rng)
        assert snap.vn_xy.shape == (500, 2)
        assert snap.class_k.shape == (500,)

    def test_class_fractions_over_2000_draws(self):
        rng = np.random.default_rng(99)
        classes = np.concatenate([vehicles_only(10, rng)[1] for _ in range(2000)])
        for k in range(1, 5):
            assert abs(np.mean(classes == k) - 0.25) < 0.01

    def test_per_mmw_bs_mean_count(self):
        # expectation oracle: 10 vehicles per station x mean 4 stations = 40
        rng = np.random.default_rng(4040)
        cfg = ScenarioConfig(lte_density_per_km2=0.0)
        counts = [len(build_snapshot(cfg, 4.0, rng).vn_xy) for _ in range(2000)]
        se = np.sqrt(40.0 / 2000)
        assert abs(np.mean(counts) - 40.0) < 3 * se

    def test_requirements_follow_class(self, rng):
        lookup = {1: 1e6, 2: 10e6, 3: 100e6, 4: 1200e6}
        cfg = ScenarioConfig(vn_mode="FIXED", fixed_vn_count=200)
        snap = build_snapshot(cfg, 4.0, rng)
        assert snap.class_k.shape == snap.required_rate_bps.shape == (200,)
        for k, required in zip(snap.class_k, snap.required_rate_bps):
            assert required == lookup[int(k)]

    def test_uniformity_chi_square_4x4(self):
        # 1e4 placements binned on a 4x4 grid; do not reject at the 0.1% level
        rng = np.random.default_rng(1234)
        xy, _ = vehicles_only(10_000, rng)
        hist, _, _ = np.histogram2d(xy[:, 0], xy[:, 1], bins=4,
                                    range=[[0, 1000], [0, 1000]])
        expected = len(xy) / 16.0
        chi2 = float(((hist - expected) ** 2 / expected).sum())
        assert chi2 < CHI2_CRIT_15DOF_P001

    def test_class_independent_of_position(self):
        # class-1 frequency inside vs outside the central square within 3 SE
        rng = np.random.default_rng(555)
        xy, classes = vehicles_only(40_000, rng)
        inside = np.all((xy >= 250.0) & (xy <= 750.0), axis=1)
        is_c1 = classes == 1
        p_in = is_c1[inside].mean()
        p_out = is_c1[~inside].mean()
        se = np.sqrt(0.25 * 0.75 * (1.0 / inside.sum() + 1.0 / (~inside).sum()))
        assert abs(p_in - p_out) < 3 * se


def snapshot_with_vehicles(*points):
    """The default deployment region with the given vehicle positions."""
    region = ScenarioConfig().resolved_measurement_region()
    n = len(points)
    return Snapshot(np.zeros((0, 2)), 0, np.array(points, dtype=float).reshape(n, 2),
                    np.ones(n, dtype=int), np.zeros(n), region)


class TestMeasurementRegion:
    def test_center_inside(self):
        assert snapshot_with_vehicles((500.0, 500.0)).in_region.tolist() == [True]

    def test_corner_outside(self):
        assert snapshot_with_vehicles((0.0, 0.0)).in_region.tolist() == [False]

    def test_boundary_is_closed(self, rng):
        snap = build_snapshot(ScenarioConfig(), 4.0, rng)
        assert snap.measurement_region_m == (250.0, 750.0, 250.0, 750.0)
        edges = snapshot_with_vehicles((250.0, 250.0), (750.0, 750.0),
                                       (249.999, 250.0), (250.0, 750.001))
        assert edges.in_region.tolist() == [True, True, False, False]


def same_snapshot(a, b):
    return (a.n_lte == b.n_lte and np.array_equal(a.bs_xy, b.bs_xy)
            and np.array_equal(a.vn_xy, b.vn_xy)
            and np.array_equal(a.class_k, b.class_k)
            and np.array_equal(a.required_rate_bps, b.required_rate_bps)
            and a.measurement_region_m == b.measurement_region_m)


class TestSnapshotDeterminism:
    def test_same_seed_identical_snapshot(self):
        cfg = ScenarioConfig()
        a = build_snapshot(cfg, 12.0, np.random.default_rng(2024))
        b = build_snapshot(cfg, 12.0, np.random.default_rng(2024))
        assert same_snapshot(a, b)

    def test_different_seeds_differ(self):
        cfg = ScenarioConfig()
        a = build_snapshot(cfg, 12.0, np.random.default_rng(1))
        b = build_snapshot(cfg, 12.0, np.random.default_rng(2))
        assert not same_snapshot(a, b)
