import numpy as np

from v2isim import NO_BS, POLICY_KERNELS, Policy
from v2isim.policy import thresholds
from conftest import make_table


def rule(policy):
    """``policy``'s choice for one unattached vehicle ``vn`` at ``loads``."""
    def choice(table, vn, loads):
        unattached = np.full(table.n_vn, NO_BS)
        choice, _ = POLICY_KERNELS[policy](table, unattached, np.asarray(loads),
                                           np.array([vn]))
        return choice[0]
    return choice


mr_choice = rule(Policy.MR)
ra_choice = rule(Policy.RA)


def no_load(table):
    return np.zeros(table.n_bs, dtype=np.int64)


def lte_mmw_table(lte_snr, mmw_snr, required=0.0,
                  lte_bw=20e6, mmw_bw=1e9):
    return make_table([[lte_snr, mmw_snr]], [lte_bw, mmw_bw], 1, [required])


class TestSelectMs:
    # the MS choice is the table's strongest station, which no load changes
    def test_single_station_above_threshold(self):
        table = make_table([[3.0]], [1e9], 0)
        assert table.strongest_bs[0] == 0

    def test_ignores_load(self):
        # MR leaves the crowded station 1; MS keeps its higher SNR
        table = make_table([[10.0, 12.0]], [1e9, 1e9], 0)
        assert mr_choice(table, 0, np.array([1, 1000])) == 0
        assert table.strongest_bs[0] == 1

    def test_exact_tie_takes_lowest_id(self):
        table = make_table([[7.0, 7.0, 7.0]], [1e9] * 3, 0)
        assert table.strongest_bs[0] == 0

    def test_all_outage_returns_none(self):
        table = make_table([[-6.0, -10.0]], [1e9, 1e9], 0)
        assert table.strongest_bs[0] == NO_BS


class TestSelectMr:
    def test_bandwidth_beats_snr(self):
        # LTE at 30 dB offers ~199.3 Mbit/s, mmWave at 0 dB a full 1 Gbit/s
        table = lte_mmw_table(30.0, 0.0)
        assert mr_choice(table, 0, no_load(table)) == 1

    def test_heavy_load_flips_to_lte(self):
        table = lte_mmw_table(30.0, 0.0)
        assert mr_choice(table, 0, np.array([0, 999])) == 0

    def test_all_outage_returns_none(self):
        table = make_table([[-5.5, -20.0]], [1e9, 1e9], 0)
        assert mr_choice(table, 0, no_load(table)) == NO_BS

    def test_rate_tie_takes_lowest_id(self):
        table = make_table([[10.0, 10.0]], [1e9, 1e9], 0)
        assert mr_choice(table, 0, np.array([3, 3])) == 0


class TestSelectRa:
    def test_low_requirement_prefers_lte(self):
        # best LTE rate 5 Mbit/s > 1 Mbit/s requirement, mmWave 800 Mbit/s
        table = make_table([[0.0, 0.0]], [5e6, 800e6], 1, [1e6])
        assert ra_choice(table, 0, no_load(table)) == 0

    def test_high_requirement_falls_through_to_mr(self):
        # best LTE rate ~19 Mbit/s < 1.2 Gbit/s requirement
        table = make_table([[14.9, 10.0]], [20e6, 1e9], 1, [1200e6])
        assert ra_choice(table, 0, no_load(table)) == 1

    def test_boundary_equality_uses_mr_branch(self):
        # LTE rate exactly equals the requirement: strict inequality fails
        table = make_table([[0.0, 0.0]], [2e7, 1e9], 1, [2e7])
        assert ra_choice(table, 0, no_load(table)) == 1

    def test_no_lte_tier_equals_mr(self):
        table = make_table([[10.0, 12.0]], [1e9, 1e9], 0, [1e6])
        loads = np.array([5, 9])
        assert ra_choice(table, 0, loads) == mr_choice(table, 0, loads)

    def test_lte_in_outage_equals_mr(self):
        table = make_table([[-7.0, 3.0, 8.0]], [20e6, 1e9, 1e9], 1, [1e6])
        loads = no_load(table)
        assert ra_choice(table, 0, loads) == mr_choice(table, 0, loads)

    def test_all_outage_returns_none(self):
        table = make_table([[-6.0, -9.0]], [20e6, 1e9], 1, [1e6])
        assert ra_choice(table, 0, no_load(table)) == NO_BS
        # NO_BS is below n_lte, but no LTE cell serves the vehicle: its bars
        # are the unserved ones, the least positive rate at either tier
        rows = np.array([0])
        choice, rate = POLICY_KERNELS[Policy.RA](table, np.full(1, NO_BS),
                                                 no_load(table), rows)
        tiny = np.nextafter(0.0, 1.0)
        assert thresholds(table, Policy.RA, rows, choice, rate).tolist() == [[tiny], [tiny]]

    def test_best_lte_chosen_by_rate_not_snr(self):
        # second LTE station has lower SNR but larger bandwidth-led rate
        table = make_table([[20.0, 10.0, -6.0]], [1e6, 40e6, 1e9], 2, [2e6])
        assert ra_choice(table, 0, no_load(table)) == 1


class TestDecisionInvariants:
    def test_ms_argmax_invariant_under_affine_transform(self, rng):
        for _ in range(50):
            snr = np.round(rng.uniform(-20, 40, size=(1, 5)), 2)
            table = make_table(snr, [1e9] * 5, 0)
            a = rng.uniform(0.5, 2.0)
            b = rng.uniform(-30.0, 30.0)
            transformed = make_table(a * snr + b, [1e9] * 5, 0,
                                     snr_threshold_db=a * -5.0 + b)
            assert table.strongest_bs[0] == transformed.strongest_bs[0]

    def test_determinism(self, rng):
        snr = rng.uniform(-10, 40, size=(1, 6))
        table = make_table(snr, [1e9] * 6, 3, [5e6])
        loads = rng.integers(0, 20, size=6)
        first = ra_choice(table, 0, loads)
        for _ in range(5):
            assert ra_choice(table, 0, loads) == first
