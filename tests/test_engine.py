import numpy as np
import pytest

from v2isim import (
    Policy,
    ScenarioConfig,
    build_link_table,
    build_snapshot,
    derive_run_seed,
    initial_attach,
    realized_rates,
    run_campaign,
    run_once,
    steady_state,
)
from conftest import make_table
import oracles


def run_engine(table, policy, seed=0, window=50.0, cap=400.0):
    state = initial_attach(None, table, policy)
    return steady_state(state, None, table, policy,
                        np.random.default_rng(seed),
                        no_change_window_multiplier=window,
                        pick_cap_multiplier=cap)


class TestInitialAttach:
    def test_zero_vehicles(self):
        table = make_table(np.zeros((0, 2)), [1e9, 1e9], [False, False])
        state = initial_attach(None, table, Policy.MS)
        assert state.assignment.size == 0
        assert list(state.loads) == [0, 0]

    def test_single_vehicle_attaches(self):
        table = make_table([[3.0]], [1e9], [False])
        state = initial_attach(None, table, Policy.MR)
        assert list(state.assignment) == [0]
        assert list(state.loads) == [1]

    def test_greedy_balances_identical_vehicles(self):
        # 3 identical vehicles, 2 identical stations: sequential post-join
        # evaluation spreads them 2/1
        snr = [[10.0, 10.0]] * 3
        table = make_table(snr, [1e9, 1e9], [False, False])
        state = initial_attach(None, table, Policy.MR)
        assert sorted(state.loads) == [1, 2]
        # ties break toward station 0, so it is the fuller one
        assert list(state.loads) == [2, 1]

    def test_outage_vehicle_stays_unattached(self):
        table = make_table([[-8.0], [3.0]], [1e9], [False])
        state = initial_attach(None, table, Policy.MR)
        assert list(state.assignment) == [-1, 0]
        assert list(state.loads) == [1]


class TestSteadyState:
    def test_fixed_point_terminates_in_window(self):
        # each vehicle strictly prefers its own station: already a fixed point
        snr = [[20.0, -20.0], [-20.0, 20.0]]
        table = make_table(snr, [1e9, 1e9], [False, False])
        state = initial_attach(None, table, Policy.MR)
        before = state.assignment.copy()
        state, picks, converged = steady_state(
            state, None, table, Policy.MR, np.random.default_rng(1))
        assert converged
        assert picks == 6  # 3 * |M| no-change picks, nothing else
        assert np.array_equal(state.assignment, before)

    def test_ms_steady_state_equals_argmax(self, rng):
        for _ in range(100):
            n_vn = int(rng.integers(1, 7))
            n_bs = int(rng.integers(1, 4))
            snr = np.round(rng.uniform(-15, 40, size=(n_vn, n_bs)), 1)
            table = make_table(snr, [1e9] * n_bs, [False] * n_bs)
            state, _, converged = run_engine(table, Policy.MS)
            assert converged
            expected = [oracles.ms_best(list(row), -5.0) for row in snr]
            assert list(state.assignment) == expected

    def test_mr_micro_instance_matches_exhaustive_oracle(self, rng):
        matched = 0
        for _ in range(100):
            n_vn = int(rng.integers(2, 7))
            n_bs = int(rng.integers(1, 4))
            snr = np.round(rng.uniform(-15, 40, size=(n_vn, n_bs)), 1)
            bw = rng.choice([20e6, 1e9], size=n_bs)
            table = make_table(snr, bw, [False] * n_bs)
            state, _, converged = run_engine(table, Policy.MR)
            instance = oracles.make_instance(
                snr.tolist(), list(bw), [False] * n_bs, [0.0] * n_vn, -5.0)
            exists = oracles.find_fixed_point("MR", instance) is not None
            if exists:
                assert converged
                assert oracles.is_fixed_point("MR", instance,
                                              list(state.assignment))
                matched += 1
            else:
                assert not converged
        assert matched > 50  # fixed points should be common

    def test_cap_flags_nonconvergence(self):
        # a cap below the window forces the nonconverged path
        snr = [[10.0, 10.0]] * 4
        table = make_table(snr, [1e9, 1e9], [False, False])
        state = initial_attach(None, table, Policy.MR)
        state, picks, converged = steady_state(
            state, None, table, Policy.MR, np.random.default_rng(0),
            no_change_window_multiplier=10.0, pick_cap_multiplier=2.0)
        assert not converged
        assert picks == 8

    def test_empty_instance_converges_immediately(self):
        table = make_table(np.zeros((0, 1)), [1e9], [False])
        state = initial_attach(None, table, Policy.MR)
        state, picks, converged = steady_state(
            state, None, table, Policy.MR, np.random.default_rng(0))
        assert converged and picks == 0

    def test_load_consistency_after_dynamics(self, rng):
        for _ in range(20):
            n_vn = int(rng.integers(1, 30))
            n_bs = int(rng.integers(1, 6))
            snr = rng.uniform(-15, 40, size=(n_vn, n_bs))
            table = make_table(snr, [1e9] * n_bs, [False] * n_bs)
            state, _, _ = run_engine(table, Policy.MR, seed=3)
            state.check()
            assert int(state.loads.sum()) + int(np.sum(state.assignment == -1)) == n_vn


class TestRunOnce:
    def test_deterministic_in_seed(self):
        cfg = ScenarioConfig()
        a = run_once(cfg, 8.0, Policy.RA, 77)
        b = run_once(cfg, 8.0, Policy.RA, 77)
        assert np.array_equal(a.rate_bps, b.rate_bps)
        assert np.array_equal(a.bs_id, b.bs_id)
        assert np.array_equal(a.class_k, b.class_k)
        assert a.convergence_iterations == b.convergence_iterations

    def test_zero_mmw_density_leaves_only_lte(self):
        cfg = ScenarioConfig()
        result = run_once(cfg, 0.0, Policy.RA, 5)
        assert set(np.unique(result.tier)) <= {0, 1}

    def test_realized_rates_share_bandwidth_equally(self):
        cfg = ScenarioConfig()
        result = run_once(cfg, 8.0, Policy.MR, 11)
        # recompute every vehicle's rate from the final loads: vehicles on
        # the same station must share the same B/m factor
        loads = np.bincount(result.bs_id[result.bs_id >= 0],
                            minlength=int(result.bs_id.max()) + 1)
        for bs in np.unique(result.bs_id[result.bs_id >= 0]):
            members = result.bs_id == bs
            assert loads[bs] == members.sum()

    def test_rates_zero_iff_unattached_or_shared(self):
        cfg = ScenarioConfig()
        result = run_once(cfg, 4.0, Policy.MS, 23)
        unattached = result.bs_id == -1
        assert np.all(result.rate_bps[unattached] == 0.0)
        assert np.all(result.rate_bps[~unattached] > 0.0)


    @pytest.mark.parametrize("policy", list(Policy))
    def test_layers_on_one_generator_compose_to_run_once(self, policy):
        # the call-by-call contract: each layer draws from the generator
        # the previous one left, in run_once's order
        cfg = ScenarioConfig()
        seed = derive_run_seed(5, 24.0, policy, 2)
        rng = np.random.default_rng(seed)
        snap = build_snapshot(cfg, 24.0, rng)
        table = build_link_table(snap, rng, cfg.channel, cfg.snr_threshold_db)
        state = initial_attach(snap, table, policy)
        state, picks, converged = steady_state(
            state, snap, table, policy, rng,
            no_change_window_multiplier=cfg.no_change_window_multiplier,
            pick_cap_multiplier=cfg.pick_cap_multiplier)
        rates = realized_rates(state, table)
        ref = run_once(cfg, 24.0, policy, seed)
        assert np.array_equal(state.assignment, ref.bs_id)
        assert np.array_equal(rates, ref.rate_bps)
        assert picks == ref.convergence_iterations
        assert converged == ref.converged


class TestCampaign:
    def test_counts(self):
        cfg = ScenarioConfig(mmw_density_grid_per_km2=(4.0,), policies=("MS",),
                             n_sim=2, vn_mode="FIXED", fixed_vn_count=20)
        assert len(list(run_campaign(cfg))) == 2
        cfg = ScenarioConfig(mmw_density_grid_per_km2=(4.0, 8.0),
                             policies=("MS", "MR", "RA"), n_sim=2,
                             vn_mode="FIXED", fixed_vn_count=20)
        assert len(list(run_campaign(cfg))) == 12

    def test_seed_isolation_across_cells(self):
        # a run of cell (4, MS) is identical whether or not other cells run
        cfg_one = ScenarioConfig(mmw_density_grid_per_km2=(4.0,),
                                 policies=("MS",), n_sim=2,
                                 vn_mode="FIXED", fixed_vn_count=30)
        cfg_many = ScenarioConfig(mmw_density_grid_per_km2=(4.0, 12.0),
                                  policies=("MS", "RA"), n_sim=2,
                                  vn_mode="FIXED", fixed_vn_count=30)
        solo = list(run_campaign(cfg_one))
        full = [r for r in run_campaign(cfg_many)
                if r.lambda_m == 4.0 and r.policy is Policy.MS]
        assert len(solo) == len(full) == 2
        for a, b in zip(solo, full):
            assert np.array_equal(a.rate_bps, b.rate_bps)
            assert np.array_equal(a.bs_id, b.bs_id)

    def test_parallel_stream_matches_sequential(self):
        cfg = ScenarioConfig(mmw_density_grid_per_km2=(4.0, 8.0),
                             policies=("MS", "MR"), n_sim=2,
                             vn_mode="FIXED", fixed_vn_count=25)
        seq = list(run_campaign(cfg, workers=1))
        par = list(run_campaign(cfg, workers=2))
        assert len(seq) == len(par)
        for a, b in zip(seq, par):
            assert a.lambda_m == b.lambda_m and a.policy is b.policy
            assert np.array_equal(a.rate_bps, b.rate_bps)

    def test_derived_seeds_unique_per_cell(self):
        seen = set()
        for lam in (4.0, 8.0):
            for pol in Policy:
                for run in range(3):
                    key = tuple(derive_run_seed(1, lam, pol, run).entropy)
                    assert key not in seen
                    seen.add(key)


class TestRealizedRates:
    def test_matches_unit_rate_over_load(self):
        snr = [[20.0, 5.0], [18.0, 6.0], [-20.0, 7.0]]
        table = make_table(snr, [1e9, 1e9], [False, False])
        state = initial_attach(None, table, Policy.MR)
        rates = realized_rates(state, table)
        for vn in range(3):
            bs = state.assignment[vn]
            if bs >= 0:
                expected = table.unit_rate_bps[vn, bs] / state.loads[bs]
                assert rates[vn] == pytest.approx(expected, rel=1e-12)
            else:
                assert rates[vn] == 0.0
