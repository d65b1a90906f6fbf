import math
from dataclasses import replace

import numpy as np
import pytest

from v2isim import (
    AssociationState,
    ChannelParams,
    ScenarioConfig,
    Snapshot,
    Tier,
    build_link_table,
    build_snapshot,
    los_probability_lte,
    los_probability_mmw,
    realized_rates,
)
from v2isim import channel
from conftest import flat_mmw_params, los_snr_db, make_table

PARAMS = ChannelParams()


def shannon(snr_value_db, bandwidth_hz, threshold_db=-5.0):
    """The rate at load 1 of one link, written out: 0 below the outage
    threshold, else bandwidth * log2(1 + snr_linear)."""
    if snr_value_db < threshold_db:
        return 0.0
    return bandwidth_hz * math.log2(1.0 + 10.0 ** (snr_value_db / 10.0))


def budget_snr_db(snapshot, params, los):
    """The documented link budget of every link of ``snapshot`` in one LOS
    state, written out term by term: tx + 10*log10(gain) - PL - (N0 +
    10*log10(B)), PL at d = max(d3d, min_distance_m), in NLOS the larger of
    the LOS and NLOS path losses. Returns (SNR, d3d, the NLOS links whose
    path loss is the LOS one)."""
    p = params
    vn, bs, lte = snapshot.vn_xy, snapshot.bs_xy, snapshot.is_lte
    d2d = np.hypot(vn[:, 0, None] - bs[:, 0], vn[:, 1, None] - bs[:, 1])
    d3d = np.hypot(d2d, p.vn_height_m - p.bs_height_m)
    d = np.maximum(d3d, p.min_distance_m)
    pl_los, pl_nlos, gain_db = np.empty(d.shape), np.empty(d.shape), np.empty(d.shape)
    log_km = np.log10(d[:, lte] / 1000.0)
    pl_los[:, lte] = p.lte_pl_los_intercept_db + p.lte_pl_los_distance_slope_db * log_km
    pl_nlos[:, lte] = p.lte_pl_nlos_intercept_db + p.lte_pl_nlos_distance_slope_db * log_km
    gain_db[:, lte] = 0.0
    log_m, log_ghz = np.log10(d[:, ~lte]), math.log10(p.mmw.carrier_hz / 1e9)
    pl_los[:, ~lte] = (p.mmw_pl_los_intercept_db + p.mmw_pl_los_distance_slope_db * log_m
                       + p.mmw_pl_los_frequency_slope_db * log_ghz)
    pl_nlos[:, ~lte] = (p.mmw_pl_nlos_intercept_db + p.mmw_pl_nlos_distance_slope_db * log_m
                        + p.mmw_pl_nlos_frequency_slope_db * log_ghz
                        - p.mmw_pl_nlos_height_slope_db * (p.vn_height_m - 1.5))
    gain_db[:, ~lte] = 10.0 * math.log10(p.mmw.array_elements * p.vn_array_elements)
    tx = np.where(lte, p.lte.tx_power_dbm, p.mmw.tx_power_dbm)
    noise = p.noise_psd_dbm_per_hz + 10.0 * np.log10(
        np.where(lte, p.lte.bandwidth_hz, p.mmw.bandwidth_hz))
    pl = pl_los if los else np.maximum(pl_los, pl_nlos)
    floored = np.zeros(d.shape, dtype=bool) if los else pl_nlos < pl_los
    return tx + gain_db - pl - noise, d3d, floored


def with_vehicles_near_stations(snapshot):
    """``snapshot`` plus one vehicle 0, 5, 10 and 25 m from each station."""
    offsets = np.array([[0.0, 0.0], [3.0, 4.0], [10.0, 0.0], [20.0, 15.0]])
    near = (snapshot.bs_xy[:, None, :] + offsets).reshape(-1, 2)
    k = near.shape[0]
    return replace(snapshot, vn_xy=np.concatenate([snapshot.vn_xy, near]),
                   class_k=np.concatenate([snapshot.class_k, np.ones(k, dtype=int)]),
                   required_rate_bps=np.concatenate([snapshot.required_rate_bps,
                                                     np.full(k, 1e6)]))


class TestLosProbability:
    def test_lte_zero_distance_is_los(self):
        # 0.018/0 divides by zero to inf, which the min caps at 1
        with np.errstate(divide="ignore"):
            assert los_probability_lte(np.zeros(1))[0] == 1.0

    def test_lte_min_term_saturates(self):
        # for d <= 0.018 km the expression collapses to exactly 1
        assert los_probability_lte(np.array([0.018]))[0] == pytest.approx(1.0, abs=1e-15)

    def test_lte_at_100m(self):
        # independent evaluation: 0.18*(1-e^(-100/63)) + e^(-100/63)
        decay = math.exp(-0.1 / 0.063)
        expected = 0.18 * (1.0 - decay) + decay
        assert expected == pytest.approx(0.3476708368442312, rel=1e-12)
        assert los_probability_lte(np.array([0.1]))[0] == pytest.approx(expected, rel=1e-12)

    def test_mmw_below_knee(self):
        d = np.array([0.0, 0.5, 10.0, 17.9, 18.0])
        with np.errstate(divide="ignore"):
            assert np.array_equal(los_probability_mmw(d), np.ones(5))

    def test_mmw_at_100m(self):
        # independent evaluation: 18/100 + e^(-100/36)*(1-18/100)
        expected = 0.18 + math.exp(-100.0 / 36.0) * 0.82
        assert expected == pytest.approx(0.23098474969813537, rel=1e-12)
        assert los_probability_mmw(np.array([100.0]))[0] == pytest.approx(expected, rel=1e-12)

    def test_in_unit_interval_out_to_10km(self):
        d_m = np.linspace(0.0, 10_000.0, 5001)
        with np.errstate(divide="ignore"):
            p_lte = los_probability_lte(d_m / 1000.0)
            p_mmw = los_probability_mmw(d_m)
        for p in (p_lte, p_mmw):
            assert np.all(p >= 0.0) and np.all(p <= 1.0)


def law_snr_db(tier, los, d_3d_m, params=PARAMS):
    """The SNR of links of the tier at 3D distances ``d_3d_m`` in one LOS
    state, read off ``channel._snr_law`` the way the table build reads it."""
    a_los, b_los, a_nlos, b_nlos = channel._snr_law(tier, params)
    d = np.asarray(d_3d_m, dtype=float)
    log_d2 = np.log10(np.maximum(d * d, params.min_distance_m ** 2))
    snr = a_los - b_los * log_d2
    return snr if los else np.minimum(snr, a_nlos - b_nlos * log_d2)


def law_path_loss_db(tier, los, d_3d_m):
    """The tier's path loss at ``d_3d_m``: minus the law's SNR when every
    other term of the budget is 0 dB (0 dBm, unit gain, 1 Hz of noise at
    0 dBm/Hz)."""
    zero = dict(tx_power_dbm=0.0, bandwidth_hz=1.0)
    params = replace(PARAMS, noise_psd_dbm_per_hz=0.0, vn_array_elements=1,
                     lte=replace(PARAMS.lte, **zero),
                     mmw=replace(PARAMS.mmw, array_elements=1, **zero))
    return -law_snr_db(tier, los, d_3d_m, params)


def table_near_stations(offsets_m, params):
    """The table, every link in LOS, of one LTE and one mmWave station 1 km
    apart and one vehicle at each horizontal offset from each station; row
    k * len(offsets_m) + i is the vehicle at offset i from station k."""
    bs = np.array([[0.0, 0.0], [1000.0, 0.0]])
    vn = (bs[:, None, :] + np.column_stack([offsets_m, np.zeros(len(offsets_m))])).reshape(-1, 2)
    m = vn.shape[0]
    snap = Snapshot(bs, 1, vn, np.ones(m, dtype=int), np.full(m, 1e6),
                    (0.0, 1000.0, 0.0, 1000.0))
    return build_link_table(snap, np.random.default_rng(0),
                            replace(params, los_probability_override=1.0), -5.0)


class TestPathLoss:
    # the path loss read off the law; the build's NLOS floor and distance
    # clamp are checked on built tables
    def test_log_distance_doubling(self):
        # doubling distance adds 10*alpha*log10(2) dB with alpha = 2.1
        pl1, pl2 = law_path_loss_db(Tier.MMWAVE, True, [100.0, 200.0])
        assert pl2 - pl1 == pytest.approx(21.0 * math.log10(2.0), rel=1e-12)

    def test_mmw_nlos_exceeds_los(self):
        los = law_path_loss_db(Tier.MMWAVE, True, 100.0)
        nlos = law_path_loss_db(Tier.MMWAVE, False, 100.0)
        assert nlos > los
        assert nlos - los > 15.0

    def test_nlos_never_below_los_any_distance(self):
        # the same deployment and uniforms in NLOS and then in LOS: no NLOS
        # link has a higher SNR, and the floor is met on LTE near a station
        def build(los):
            cfg = ScenarioConfig(channel=ChannelParams(los_probability_override=los))
            rng = np.random.default_rng(3)
            snap = with_vehicles_near_stations(build_snapshot(cfg, 40.0, rng))
            return build_link_table(snap, rng, cfg.channel, cfg.snr_threshold_db)

        nlos, los = build(0.0).snr_db, build(1.0).snr_db
        assert np.all(nlos <= los)
        assert (nlos == los).any() and (nlos < los).any()

    def test_lte_los_golden_value(self):
        # 103.4 + 24.2*log10(0.1 km) evaluated by hand
        assert law_path_loss_db(Tier.LTE, True, 100.0) == pytest.approx(79.2, rel=1e-12)

    @pytest.mark.parametrize("bs_height_m,min_distance_m,offsets_m", [
        # 3D distance = horizontal offset; clamped up to 1 m
        (2.0, 1.0, [0.0, 0.01, 0.5, 1.0, 2.0]),
        # 3D distances 28, 28.4, 29.7 and 34.4 m clamped up to 40 m; 48.8 m
        (30.0, 40.0, [0.0, 5.0, 10.0, 20.0, 40.0]),
    ])
    def test_short_distance_clamped(self, bs_height_m, min_distance_m, offsets_m):
        params = ChannelParams(bs_height_m=bs_height_m, min_distance_m=min_distance_m)
        table = table_near_stations(offsets_m, params)
        k = len(offsets_m)
        for station in (0, 1):
            snr = table.snr_db[station * k:(station + 1) * k, station]
            assert np.all(snr[:-1] == snr[0]) and snr[-1] < snr[0]

    def test_positive_at_any_positive_distance(self):
        d = np.geomspace(1.0, 20_000.0, 200)
        assert np.all(law_path_loss_db(Tier.LTE, True, d) > 0)
        assert np.all(law_path_loss_db(Tier.MMWAVE, True, d) > 0)


class TestSnrLaw:
    def test_default_law_is_pinned(self):
        # the four scalars of each tier at the default parameters, to the
        # bit: a change of one ulp fails here, not only in the golden bytes
        pinned = {
            Tier.LTE: ("0x1.d0c240ba69208p+6", "0x1.8333333333333p+3",
                       "0x1.2094539067c37p+7", "0x1.5666666666666p+4"),
            Tier.MMWAVE: ("0x1.3f0a13380e715p+6", "0x1.5000000000000p+3",
                          "0x1.601d37e2b0e5ep+6", "0x1.1a66666666666p+4"),
        }
        for tier, want in pinned.items():
            law = channel._snr_law(tier, PARAMS)
            assert all(type(x) is float for x in law)
            assert tuple(x.hex() for x in law) == want, tier

    @pytest.mark.parametrize("bs_elements,vn_elements", [(64, 16), (1, 1), (64, 1), (10, 1)])
    def test_gain_is_the_element_product(self, bs_elements, vn_elements):
        # the mmWave intercepts move by 10*log10(bs * vn): +10 dB per gain
        # decade; LTE is omnidirectional and reads neither array
        def law(tier, bs, vn):
            return channel._snr_law(tier, replace(
                PARAMS, vn_array_elements=vn, mmw=replace(PARAMS.mmw, array_elements=bs)))

        unit = law(Tier.MMWAVE, 1, 1)
        arrays = law(Tier.MMWAVE, bs_elements, vn_elements)
        gain_db = 10.0 * math.log10(bs_elements * vn_elements)
        assert arrays[0] - unit[0] == pytest.approx(gain_db, abs=1e-9)
        assert arrays[2] - unit[2] == pytest.approx(gain_db, abs=1e-9)
        assert (arrays[1], arrays[3]) == (unit[1], unit[3])
        assert law(Tier.LTE, bs_elements, vn_elements) == channel._snr_law(Tier.LTE, PARAMS)

    @pytest.mark.parametrize("tier", list(Tier))
    def test_double_bandwidth_costs_3db(self, tier):
        def law(factor):
            radio = "lte" if tier is Tier.LTE else "mmw"
            wide = replace(getattr(PARAMS, radio),
                           bandwidth_hz=factor * getattr(PARAMS, radio).bandwidth_hz)
            return channel._snr_law(tier, replace(PARAMS, **{radio: wide}))

        base, wide = law(1.0), law(2.0)
        for i in (0, 2):
            assert wide[i] == pytest.approx(base[i] - 10.0 * math.log10(2.0), abs=1e-9)

    def test_link_budget_example(self):
        # 27 dBm + 10log10(1024) - 100 dB - (-174 + 90) dBm
        expected = 27.0 + 10.0 * math.log10(1024.0) - 100.0 + 84.0
        a_los, b_los, _, _ = channel._snr_law(Tier.MMWAVE,
                                              flat_mmw_params(27.0, 64, 16, 100.0, 1e9))
        assert b_los == 0.0
        assert a_los == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(41.103, abs=1e-3)

    def test_db_linear_roundtrip(self, rng):
        for _ in range(200):
            tx = rng.uniform(0.0, 50.0)
            bs, vn = rng.integers(1, 65, size=2)
            pl = rng.uniform(40.0, 160.0)
            bw = rng.uniform(1e6, 2e9)
            value = channel._snr_law(Tier.MMWAVE, flat_mmw_params(tx, int(bs), int(vn), pl, bw))[0]
            linear = 10.0 ** (value / 10.0)
            direct = (10.0 ** (tx / 10.0) * float(bs * vn)
                      / (10.0 ** (pl / 10.0) * 10.0 ** (-174.0 / 10.0) * bw))
            assert abs(linear - direct) / direct < 1e-9

    def test_snr_non_increasing_with_distance_fixed_los(self):
        d = np.linspace(30.0, 2000.0, 300)
        for tier in Tier:
            for los in (True, False):
                assert np.all(np.diff(law_snr_db(tier, los, d)) <= 1e-12)


class TestAchievableRate:
    # the achievable rate at load 1 is LinkTable.unit_rate_bps
    def test_outage_rate_is_zero(self):
        assert make_table([[-6.0]], [1e9], [False]).unit_rate_bps[0, 0] == 0.0

    def test_zero_db_is_bandwidth(self):
        table = make_table([[0.0]], [20e6], [True])
        assert table.unit_rate_bps[0, 0] == pytest.approx(20e6, rel=1e-12)

    def test_load_doubling_halves_rate(self):
        # realized_rates divides the rate at load 1 by the station's load
        table = make_table([[17.0]], [1e9], [False])

        def rate(load):
            state = AssociationState(np.array([0]), np.array([load]))
            return realized_rates(state, table)[0]

        assert rate(6) == rate(3) / 2.0
        assert rate(1) == table.unit_rate_bps[0, 0]

    def test_monotone_in_snr_above_threshold(self):
        snrs = np.linspace(-5.0, 60.0, 500)
        rates = make_table([snrs], [1e9] * 500, [False] * 500).unit_rate_bps[0]
        assert np.all(np.diff(rates) >= 0.0)
        assert make_table([[-5.0001]], [1e9], [False]).unit_rate_bps[0, 0] == 0.0


class TestLinkTable:
    def test_empty_snapshot_gives_empty_table(self, rng):
        cfg = ScenarioConfig(vn_mode="FIXED", fixed_vn_count=0)
        snap = build_snapshot(cfg, 4.0, rng)
        table = build_link_table(snap, rng, cfg.channel, cfg.snr_threshold_db)
        assert table.n_vn == 0
        assert table.unit_rate_bps.shape == (0, table.n_bs)

    def test_same_seed_same_table(self):
        cfg = ScenarioConfig()

        def build():
            snap = build_snapshot(cfg, 8.0, np.random.default_rng(7))
            rng = np.random.default_rng(8)
            table = build_link_table(snap, rng, cfg.channel, cfg.snr_threshold_db)
            # the links drawn in LOS, read off the SNR against the LOS budget
            los = table.snr_db == los_snr_db(snap, cfg.channel)
            return table, los, rng.bit_generator.state

        (a, los_a, state_a), (b, los_b, state_b) = build(), build()
        assert np.array_equal(a.snr_db, b.snr_db)
        assert np.array_equal(los_a, los_b) and los_a.any()
        assert state_a == state_b

    def test_forced_los_hook(self, rng):
        # every link in LOS: each SNR is the LOS link budget of its distance
        cfg = ScenarioConfig(
            channel=ChannelParams(los_probability_override=1.0))
        snap = build_snapshot(cfg, 20.0, rng)
        table = build_link_table(snap, rng, cfg.channel, cfg.snr_threshold_db)
        assert table.n_vn and table.n_bs
        assert np.array_equal(table.snr_db, los_snr_db(snap, cfg.channel))

    @pytest.mark.parametrize("min_distance_m", [1.0, 40.0])
    @pytest.mark.parametrize("los", [True, False], ids=["LOS", "NLOS"])
    @pytest.mark.parametrize("lam", [4.0, 40.0, 80.0])
    def test_snr_is_the_documented_budget(self, lam, los, min_distance_m):
        # the table's affine laws agree with the budget written out term by
        # term to 1e-9 dB, on every link of a table forced to one LOS state
        params = ChannelParams(min_distance_m=min_distance_m,
                               los_probability_override=float(los))
        cfg = ScenarioConfig(channel=params)
        rng = np.random.default_rng(int(lam))
        snap = with_vehicles_near_stations(build_snapshot(cfg, lam, rng))
        table = build_link_table(snap, rng, params, cfg.snr_threshold_db)
        want, d3d, floored = budget_snr_db(snap, params, los)
        assert np.max(np.abs(table.snr_db - want)) <= 1e-9
        # the vehicles near stations give links below min_distance_m (the 3D
        # distance is at least the 28 m height gap) and, in NLOS, LTE links
        # within 32.4 m whose NLOS path loss is floored at the LOS one
        assert (d3d < min_distance_m).any() == (min_distance_m > 28.0)
        assert floored.any() == (not los and min_distance_m < 32.4)
        assert snap.n_lte and table.n_bs > snap.n_lte

    def test_gains_by_tier(self, rng):
        # with every link in LOS the SNR above the unit-gain budget is the
        # antenna gain: 0 dB on LTE, 10*log10(64*16) dB on mmWave
        cfg = ScenarioConfig(
            channel=ChannelParams(los_probability_override=1.0))
        snap = build_snapshot(cfg, 8.0, rng)
        table = build_link_table(snap, rng, cfg.channel, cfg.snr_threshold_db)
        gain_db = table.snr_db - los_snr_db(snap, cfg.channel, unit_gain=True)
        if table.lte_indices.size:
            assert np.allclose(gain_db[:, table.is_lte], 0.0, rtol=0, atol=1e-9)
        mmw = ~table.is_lte
        if mmw.any() and table.n_vn:
            assert np.allclose(gain_db[:, mmw], 10.0 * math.log10(1024.0),
                               rtol=0, atol=1e-9)

    def test_mmw_array_size_moves_only_mmw_snr(self):
        # the same seeds with 64 and then 16 mmWave base-station elements
        def build(elements):
            cfg = ScenarioConfig(channel=ChannelParams(
                mmw=replace(ChannelParams().mmw, array_elements=elements)))
            rng = np.random.default_rng(21)
            return build_link_table(build_snapshot(cfg, 40.0, rng), rng, cfg.channel,
                                    cfg.snr_threshold_db)

        big, small = build(64), build(16)
        lte = big.is_lte
        assert lte.any() and (~lte).any() and big.n_vn
        assert np.array_equal(big.snr_db[:, lte], small.snr_db[:, lte])
        assert np.allclose(big.snr_db[:, ~lte] - small.snr_db[:, ~lte],
                           10.0 * math.log10(4.0), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("lam", [4.0, 40.0, 80.0])
    def test_unit_rate_is_tier_bandwidth_times_spectral_efficiency(self, lam):
        cfg = ScenarioConfig()
        rng = np.random.default_rng(int(lam))
        table = build_link_table(build_snapshot(cfg, lam, rng), rng, cfg.channel,
                                 cfg.snr_threshold_db)
        bandwidth = np.where(table.is_lte, cfg.channel.lte.bandwidth_hz,
                             cfg.channel.mmw.bandwidth_hz)
        served = table.snr_db >= table.snr_threshold_db
        assert served.any() and (~served).any()
        ratio = table.unit_rate_bps / np.log2(1.0 + 10.0 ** (table.snr_db / 10.0))
        assert np.allclose(ratio[served], np.broadcast_to(bandwidth, served.shape)[served],
                           rtol=1e-12, atol=0)
        # in outage the rate is exactly 0, in service it is positive
        assert np.all(table.unit_rate_bps[~served] == 0.0)
        assert np.all(table.unit_rate_bps[served] > 0.0)

    def test_holds_only_what_the_rules_read(self, rng):
        cfg = ScenarioConfig()
        table = build_link_table(build_snapshot(cfg, 8.0, rng), rng, cfg.channel,
                                 cfg.snr_threshold_db)
        held = {"n_vn", "n_bs", "snr_db", "bandwidth_hz", "is_lte",
                "lte_indices", "required_rate_bps", "snr_threshold_db"}
        assert set(vars(table)) == held
        # the per-station bandwidth is what the rate table is built from
        assert table.bandwidth_hz.shape == (table.n_bs,)
        table.unit_rate_bps
        assert set(vars(table)) == held | {"unit_rate_bps"}

    def test_outage_flag_matches_threshold(self):
        table = make_table([[-5.0, -5.001, 3.0]], [1e9] * 3, [False] * 3)
        in_outage = [shannon(s, 1e9, table.snr_threshold_db) == 0.0
                     for s in table.snr_db[0]]
        assert in_outage == [False, True, False]
        assert list(table.unit_rate_bps[0] == 0.0) == in_outage
        assert table.unit_rate_bps[0, 1] == 0.0

    def test_unit_rate_matches_scalar_contract(self, rng):
        cfg = ScenarioConfig()
        snap = build_snapshot(cfg, 8.0, rng)
        table = build_link_table(snap, rng, cfg.channel, cfg.snr_threshold_db)
        for vn in range(0, table.n_vn, 37):
            for bs in range(table.n_bs):
                radio = cfg.channel.lte if table.is_lte[bs] else cfg.channel.mmw
                expected = shannon(float(table.snr_db[vn, bs]), radio.bandwidth_hz,
                                   table.snr_threshold_db)
                assert table.unit_rate_bps[vn, bs] == pytest.approx(expected, rel=1e-12)

    def test_table_is_frozen(self):
        table = make_table([[10.0]], [1e9], [False])
        with pytest.raises(ValueError):
            table.snr_db[0, 0] = 0.0
        with pytest.raises(ValueError):
            table.bandwidth_hz[0] = 0.0
        # built on the first read, read-only from then on, and built once
        rate = table.unit_rate_bps
        with pytest.raises(ValueError):
            rate[0, 0] = 0.0
        assert table.unit_rate_bps is rate

    def test_rates_at_gathers_the_rate_table(self, rng):
        cfg = ScenarioConfig()
        table = build_link_table(build_snapshot(cfg, 40.0, rng), rng, cfg.channel,
                                 cfg.snr_threshold_db)
        rows = rng.integers(0, table.n_vn, size=500)
        cols = rng.integers(0, table.n_bs, size=500)
        gathered = table.rates_at(rows, cols)
        assert np.array_equal(gathered, table.unit_rate_bps[rows, cols])
        assert (gathered == 0.0).any() and (gathered > 0.0).any()


# (description, config, density): the deployments the blocked build is
# checked on, with several blocks of vehicles at the default block size
BUILD_CASES = [
    ("default", ScenarioConfig(), 40.0),
    ("no vehicles", ScenarioConfig(vn_mode="FIXED", fixed_vn_count=0), 40.0),
    ("no LTE station", ScenarioConfig(lte_density_per_km2=0.0), 40.0),
    ("no mmWave station", ScenarioConfig(vn_mode="FIXED", fixed_vn_count=300), 0.0),
    ("LOS override", ScenarioConfig(
        channel=ChannelParams(los_probability_override=0.5)), 40.0),
]


class TestBlockedBuild:
    @staticmethod
    def build(monkeypatch, cfg, lam, block):
        monkeypatch.setattr(channel, "_ROW_BLOCK", block)
        rng = np.random.default_rng(17)
        snap = build_snapshot(cfg, lam, rng)
        table = build_link_table(snap, rng, cfg.channel, cfg.snr_threshold_db)
        return snap, table, rng.bit_generator.state

    @pytest.mark.parametrize("case", BUILD_CASES, ids=[c[0] for c in BUILD_CASES])
    @pytest.mark.parametrize("block", [1, 7, channel._ROW_BLOCK, "M"])
    def test_blocks_equal_one_block(self, monkeypatch, case, block):
        _, cfg, lam = case
        snap, whole, state = self.build(monkeypatch, cfg, lam, 10**9)
        m = snap.vn_xy.shape[0]
        _, table, block_state = self.build(
            monkeypatch, cfg, lam, max(m, 1) if block == "M" else block)
        assert np.array_equal(table.snr_db, whole.snr_db)
        assert table.snr_db.shape == (m, snap.bs_xy.shape[0])
        # the uniforms are drawn once for the whole table, whatever the block
        assert block_state == state

    def test_cases_cover_what_they_name(self, monkeypatch):
        shapes = {}
        for name, cfg, lam in BUILD_CASES:
            snap, table, _ = self.build(monkeypatch, cfg, lam, channel._ROW_BLOCK)
            shapes[name] = (table.n_vn, snap.n_lte, table.n_bs - snap.n_lte)
        assert shapes["default"][0] > 2 * channel._ROW_BLOCK
        assert shapes["no vehicles"][0] == 0
        assert shapes["no LTE station"][1] == 0 and shapes["no LTE station"][0]
        assert shapes["no mmWave station"][2] == 0 and shapes["no mmWave station"][0]
        assert all(n_lte and n_mmw for _, n_lte, n_mmw in
                   (shapes["default"], shapes["LOS override"]))
