import math
from dataclasses import replace

import numpy as np
import pytest

from v2isim import (
    ChannelParams,
    ScenarioConfig,
    Tier,
    achievable_rate,
    build_link_table,
    build_snapshot,
    cumulative_gain,
    los_probability_lte,
    los_probability_mmw,
    path_loss,
    snr_db,
)
from conftest import los_snr_db, make_table


class TestLosProbability:
    def test_lte_zero_distance_is_los(self):
        assert los_probability_lte(0.0) == 1.0

    def test_lte_min_term_saturates(self):
        # for d <= 0.018 km the expression collapses to exactly 1
        assert los_probability_lte(0.018) == pytest.approx(1.0, abs=1e-15)

    def test_lte_at_100m(self):
        # independent evaluation: 0.18*(1-e^(-100/63)) + e^(-100/63)
        decay = math.exp(-0.1 / 0.063)
        expected = 0.18 * (1.0 - decay) + decay
        assert expected == pytest.approx(0.3476708368442312, rel=1e-12)
        assert los_probability_lte(0.1) == pytest.approx(expected, rel=1e-12)

    def test_mmw_below_knee(self):
        assert los_probability_mmw(10.0) == 1.0
        assert los_probability_mmw(18.0) == 1.0

    def test_mmw_at_100m(self):
        # independent evaluation: 18/100 + e^(-100/36)*(1-18/100)
        expected = 0.18 + math.exp(-100.0 / 36.0) * 0.82
        assert expected == pytest.approx(0.23098474969813537, rel=1e-12)
        assert los_probability_mmw(100.0) == pytest.approx(expected, rel=1e-12)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            los_probability_lte(-0.1)
        with pytest.raises(ValueError):
            los_probability_mmw(-1.0)

    def test_in_unit_interval_out_to_10km(self):
        d_m = np.linspace(0.0, 10_000.0, 5001)
        p_lte = los_probability_lte(d_m / 1000.0)
        p_mmw = los_probability_mmw(d_m)
        for p in (p_lte, p_mmw):
            assert np.all(p >= 0.0) and np.all(p <= 1.0)


class TestPathLoss:
    def test_log_distance_doubling(self):
        # doubling distance adds 10*alpha*log10(2) dB with alpha = 2.1
        pl1 = path_loss(Tier.MMWAVE, True, 100.0, 28e9)
        pl2 = path_loss(Tier.MMWAVE, True, 200.0, 28e9)
        assert pl2 - pl1 == pytest.approx(21.0 * math.log10(2.0), rel=1e-12)

    def test_mmw_nlos_exceeds_los(self):
        los = path_loss(Tier.MMWAVE, True, 100.0, 28e9)
        nlos = path_loss(Tier.MMWAVE, False, 100.0, 28e9)
        assert nlos > los
        assert nlos - los > 15.0

    def test_nlos_never_below_los_any_distance(self):
        d = np.geomspace(1.0, 5000.0, 400)
        for tier, carrier in ((Tier.LTE, 2.4e9), (Tier.MMWAVE, 28e9)):
            los = path_loss(tier, np.ones_like(d, dtype=bool), d, carrier)
            nlos = path_loss(tier, np.zeros_like(d, dtype=bool), d, carrier)
            assert np.all(nlos >= los)

    def test_lte_los_golden_value(self):
        # 103.4 + 24.2*log10(0.1 km) evaluated by hand
        assert path_loss(Tier.LTE, True, 100.0, 2.4e9) == pytest.approx(79.2, rel=1e-12)

    def test_short_distance_clamped(self):
        assert path_loss(Tier.MMWAVE, True, 0.01, 28e9) == \
            path_loss(Tier.MMWAVE, True, 1.0, 28e9)

    def test_positive_at_any_positive_distance(self):
        d = np.geomspace(1.0, 20_000.0, 200)
        assert np.all(path_loss(Tier.LTE, True, d, 2.4e9) > 0)
        assert np.all(path_loss(Tier.MMWAVE, True, d, 28e9) > 0)


class TestGain:
    def test_lte_unity(self):
        assert cumulative_gain(Tier.LTE, 1, 16) == 1.0

    def test_mmw_element_product(self):
        assert cumulative_gain(Tier.MMWAVE, 64, 16) == 1024.0

    def test_degenerate_array(self):
        assert cumulative_gain(Tier.MMWAVE, 1, 1) == 1.0

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            cumulative_gain(Tier.MMWAVE, 0, 16)


class TestSnr:
    def test_gain_decade_adds_10db(self):
        base = snr_db(27.0, 1.0, 100.0, 1e9)
        assert snr_db(27.0, 10.0, 100.0, 1e9) == pytest.approx(base + 10.0, abs=1e-9)

    def test_double_bandwidth_costs_3db(self):
        base = snr_db(27.0, 1.0, 100.0, 1e9)
        assert snr_db(27.0, 1.0, 100.0, 2e9) == pytest.approx(
            base - 10.0 * math.log10(2.0), abs=1e-9)

    def test_link_budget_example(self):
        # 27 dBm + 10log10(1024) - 100 dB - (-174 + 90) dBm
        expected = 27.0 + 10.0 * math.log10(1024.0) - 100.0 + 84.0
        assert snr_db(27.0, 1024.0, 100.0, 1e9) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(41.103, abs=1e-3)

    def test_db_linear_roundtrip(self, rng):
        for _ in range(200):
            tx = rng.uniform(0.0, 50.0)
            gain = rng.uniform(1.0, 2000.0)
            pl = rng.uniform(40.0, 160.0)
            bw = rng.uniform(1e6, 2e9)
            value = snr_db(tx, gain, pl, bw)
            linear = 10.0 ** (value / 10.0)
            direct = (10.0 ** (tx / 10.0) * gain
                      / (10.0 ** (pl / 10.0) * 10.0 ** (-174.0 / 10.0) * bw))
            assert abs(linear - direct) / direct < 1e-9


class TestAchievableRate:
    def test_outage_rate_is_zero(self):
        assert achievable_rate(-6.0, 1e9, 1) == 0.0

    def test_zero_db_is_bandwidth(self):
        assert achievable_rate(0.0, 20e6, 1) == pytest.approx(20e6, rel=1e-12)

    def test_load_doubling_halves_rate(self):
        r1 = achievable_rate(17.0, 1e9, 3)
        r2 = achievable_rate(17.0, 1e9, 6)
        assert r2 == r1 / 2.0

    def test_zero_load_rejected(self):
        with pytest.raises(ValueError):
            achievable_rate(10.0, 1e9, 0)

    def test_monotone_in_snr_above_threshold(self):
        snrs = np.linspace(-5.0, 60.0, 500)
        rates = [achievable_rate(s, 1e9, 1) for s in snrs]
        assert all(b >= a for a, b in zip(rates, rates[1:]))
        assert achievable_rate(-5.0001, 1e9, 1) == 0.0


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
        assert set(vars(table)) == {
            "n_vn", "n_bs", "snr_db", "unit_rate_bps", "is_lte", "lte_indices",
            "required_rate_bps", "snr_threshold_db"}

    def test_snr_non_increasing_with_distance_fixed_los(self):
        d = np.linspace(30.0, 2000.0, 300)
        for tier, carrier, bw, tx, gain in (
                (Tier.LTE, 2.4e9, 20e6, 46.0, 1.0),
                (Tier.MMWAVE, 28e9, 1e9, 27.0, 1024.0)):
            for los in (True, False):
                pl = path_loss(tier, np.full(d.shape, los), d, carrier)
                snr = snr_db(tx, gain, pl, bw)
                assert np.all(np.diff(snr) <= 1e-12)

    def test_outage_flag_matches_threshold(self):
        table = make_table([[-5.0, -5.001, 3.0]], [1e9] * 3, [False] * 3)
        in_outage = [achievable_rate(s, 1e9, 1, table.snr_threshold_db) == 0.0
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
                expected = achievable_rate(
                    float(table.snr_db[vn, bs]), radio.bandwidth_hz, 1,
                    table.snr_threshold_db)
                assert table.unit_rate_bps[vn, bs] == pytest.approx(expected, rel=1e-12)

    def test_table_is_frozen(self):
        table = make_table([[10.0]], [1e9], [False])
        with pytest.raises(ValueError):
            table.snr_db[0, 0] = 0.0
