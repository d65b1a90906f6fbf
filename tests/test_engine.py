import math
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from v2isim import (
    NO_BS,
    POLICY_KERNELS,
    AssociationState,
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
from v2isim import engine
from v2isim.channel import Tier
from v2isim.engine import _ATTACH_BLOCK
from v2isim.policy import thresholds, unsettled
from conftest import make_table
import oracles

PROPERTY_SETTINGS = settings(
    max_examples=300, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow])

# a coarse SNR grid makes exact rate ties common; -5 dB is the outage
# threshold itself (in service), -30 dB is in outage
SNR_GRID = [-30.0, -5.0, 0.0, 10.0, 20.0]


@st.composite
def micro_tables(draw, n_vn=st.integers(1, 7), n_bs=st.integers(0, 4),
                 twins=False):
    """Small link tables with exact ties: LTE-less, LTE-only or mixed, some
    rows fully in outage, possibly no station at all, and required rates
    that can equal an LTE post-join rate exactly. With ``twins``, a station
    may copy the SNR and bandwidth of the one before it, so that every
    vehicle ties them at equal loads; its tier follows from its position."""
    n_vn = draw(n_vn)
    n_bs = draw(n_bs)
    n_lte = draw(st.integers(0, n_bs))
    bw = [20e6 if j < n_lte else draw(st.sampled_from([20e6, 1e9])) for j in range(n_bs)]
    snr = np.array(draw(st.lists(
        st.lists(st.sampled_from(SNR_GRID), min_size=n_bs, max_size=n_bs),
        min_size=n_vn, max_size=n_vn)), dtype=float).reshape(n_vn, n_bs)
    if twins and n_bs >= 2 and draw(st.booleans()):
        j = draw(st.integers(0, n_bs - 2))
        snr[:, j + 1], bw[j + 1] = snr[:, j], bw[j]
    for vn in draw(st.sets(st.integers(0, n_vn - 1))):
        snr[vn] = -30.0
    table = make_table(snr, bw, n_lte)
    required = []
    for vn in range(n_vn):
        if n_lte and draw(st.booleans()):
            j = draw(st.integers(0, n_lte - 1))
            required.append(table.unit_rate_bps[vn, j] / draw(st.integers(1, 4)))
        else:
            required.append(draw(st.sampled_from([0.0, 5e6, 1.2e9])))
    return make_table(snr, bw, n_lte, required)


@st.composite
def states(draw, table, policy):
    """The initial attach, or any assignment with its loads."""
    if draw(st.booleans()):
        return initial_attach(None, table, policy)
    assignment = np.array(draw(st.lists(
        st.integers(-1, table.n_bs - 1), min_size=table.n_vn,
        max_size=table.n_vn)), dtype=np.int64)
    loads = np.bincount(assignment[assignment >= 0], minlength=table.n_bs)
    return AssociationState(assignment, loads.astype(np.int64))


class CountingGenerator:
    """A seeded generator that counts the blocks of picks drawn from it,
    and those drawn while ``movable()`` holds."""

    def __init__(self, seed, movable=lambda: False):
        self.rng = np.random.default_rng(seed)
        self.movable = movable
        self.blocks = self.movable_blocks = 0

    def integers(self, *args, **kwargs):
        self.blocks += 1
        self.movable_blocks += bool(self.movable())
        return self.rng.integers(*args, **kwargs)


class ScriptedGenerator:
    """Draws ``picks`` first, then from a generator seeded with ``seed``."""

    def __init__(self, picks, seed):
        self.picks = list(picks)
        self.rng = np.random.default_rng(seed)

    def integers(self, low, high, size):
        head, self.picks = self.picks[:size], self.picks[size:]
        return np.concatenate([np.array(head, dtype=np.int64),
                               self.rng.integers(low, high, size=size - len(head))])


@contextmanager
def counted_rules():
    """Counts the calls through every rule of ``POLICY_KERNELS``: yields the
    list of their arguments."""
    calls = []

    def counted(kernel):
        def call(*args):
            calls.append(args)
            return kernel(*args)
        return call

    with pytest.MonkeyPatch.context() as patch:
        for policy, kernel in list(POLICY_KERNELS.items()):
            patch.setitem(POLICY_KERNELS, policy, counted(kernel))
        yield calls


def assert_same_as_reference(table, policy, state, seed, **multipliers):
    """Returns the blocks of picks the engine and the reference drew."""
    oracles.check_state(state)
    ref = AssociationState(state.assignment.copy(), state.loads.copy())
    rule = oracles.REFERENCE_RULES[policy]

    def movable():
        return any(rule(table, vn, loads_without(ref.assignment, ref.loads, vn))
                   != ref.assignment[vn] for vn in range(table.n_vn))

    rng, ref_rng = CountingGenerator(seed), CountingGenerator(seed, movable)
    got, picks, converged = steady_state(
        state, None, table, policy, rng, **multipliers)
    want, ref_picks, ref_converged = oracles.reference_steady_state(
        ref, None, table, policy, ref_rng, **multipliers)
    oracles.check_state(got)
    assert np.array_equal(got.assignment, want.assignment)
    assert np.array_equal(got.loads, want.loads)
    assert (picks, converged) == (ref_picks, ref_converged)
    # the loop draws exactly the blocks the reference draws while a vehicle
    # can still move: it knows at each block boundary whether one can
    assert rng.blocks == ref_rng.movable_blocks
    return rng.blocks, ref_rng.blocks


def assert_attach_is_greedy_pass(table, policy):
    """``initial_attach`` equals the per-vehicle greedy pass with the
    reference rule; under MS it calls no rule."""
    want = oracles.reference_initial_attach(table, policy)
    with counted_rules() as calls:
        got = oracles.check_state(initial_attach(None, table, policy))
    if policy is Policy.MS:
        assert calls == []
    assert len(calls) <= table.n_vn
    assert np.array_equal(got.assignment, want.assignment)
    assert np.array_equal(got.loads, want.loads)
    assert (got.assignment.dtype, got.loads.dtype) == (np.int64, np.int64)
    return got


def expected_tier(bs, n_lte):
    """A vehicle's tier from its station id: station j is LTE iff j < n_lte."""
    if bs == NO_BS:
        return Tier.NONE
    return Tier.LTE if bs < n_lte else Tier.MMWAVE


def loads_without(assignment, loads, vn):
    """The loads the rule sees for ``vn``: its own station counted without it."""
    without = loads.copy()
    if assignment[vn] != NO_BS:
        without[assignment[vn]] -= 1
    return without


def run_engine(table, policy, seed=0, window=50.0, cap=400.0):
    state = oracles.check_state(initial_attach(None, table, policy))
    state, picks, converged = steady_state(state, None, table, policy,
                                           np.random.default_rng(seed),
                                           no_change_window_multiplier=window,
                                           pick_cap_multiplier=cap)
    return oracles.check_state(state), picks, converged


class TestInitialAttach:
    def test_zero_vehicles(self):
        table = make_table(np.zeros((0, 2)), [1e9, 1e9], 0)
        state = initial_attach(None, table, Policy.MS)
        assert state.assignment.size == 0
        assert list(state.loads) == [0, 0]

    def test_single_vehicle_attaches(self):
        table = make_table([[3.0]], [1e9], 0)
        state = initial_attach(None, table, Policy.MR)
        assert list(state.assignment) == [0]
        assert list(state.loads) == [1]

    def test_greedy_balances_identical_vehicles(self):
        # 3 identical vehicles, 2 identical stations: sequential post-join
        # evaluation spreads them 2/1
        snr = [[10.0, 10.0]] * 3
        table = make_table(snr, [1e9, 1e9], 0)
        state = initial_attach(None, table, Policy.MR)
        assert sorted(state.loads) == [1, 2]
        # ties break toward station 0, so it is the fuller one
        assert list(state.loads) == [2, 1]

    def test_outage_vehicle_stays_unattached(self):
        table = make_table([[-8.0], [3.0]], [1e9], 0)
        state = initial_attach(None, table, Policy.MR)
        assert list(state.assignment) == [-1, 0]
        assert list(state.loads) == [1]

    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize("lam", [0.0, 4.0, 40.0, 80.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_greedy_pass_on_snapshots(self, lam, seed, policy):
        cfg = ScenarioConfig()
        rng = np.random.default_rng(seed)
        snap = build_snapshot(cfg, lam, rng)
        table = build_link_table(snap, rng, cfg.channel, cfg.snr_threshold_db)
        assert_attach_is_greedy_pass(table, policy)

    @PROPERTY_SETTINGS
    @given(data=st.data(), policy=st.sampled_from(list(Policy)))
    def test_equals_greedy_pass_on_micro_tables(self, data, policy):
        # exact ties, rows fully in outage and tables with no station
        assert_attach_is_greedy_pass(data.draw(micro_tables()), policy)

    @settings(PROPERTY_SETTINGS, max_examples=100)
    @given(data=st.data(), policy=st.sampled_from(list(Policy)))
    def test_equals_greedy_pass_on_crowded_tables(self, data, policy):
        # more vehicles than one block on 1-3 stations, so a block repeats
        # a station early unless its rows are in outage
        table = data.draw(micro_tables(
            n_vn=st.integers(_ATTACH_BLOCK + 1, 2 * _ATTACH_BLOCK),
            n_bs=st.integers(1, 3)))
        assert_attach_is_greedy_pass(table, policy)

    def test_ms_tie_goes_to_lowest_id_and_outage_row_stays_off(self):
        table = make_table([[10.0, 10.0, 3.0], [-30.0, -30.0, -30.0],
                            [0.0, 20.0, 20.0]], [1e9] * 3, 0)
        state = assert_attach_is_greedy_pass(table, Policy.MS)
        assert list(state.assignment) == [0, -1, 1]
        assert list(state.loads) == [1, 1, 0]


class TestSteadyState:
    def test_fixed_point_terminates_in_window(self):
        # each vehicle strictly prefers its own station: already a fixed point
        snr = [[20.0, -20.0], [-20.0, 20.0]]
        table = make_table(snr, [1e9, 1e9], 0)
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
            table = make_table(snr, [1e9] * n_bs, 0)
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
            table = make_table(snr, bw, 0)
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
        table = make_table(snr, [1e9, 1e9], 0)
        state = initial_attach(None, table, Policy.MR)
        state, picks, converged = steady_state(
            state, None, table, Policy.MR, np.random.default_rng(0),
            no_change_window_multiplier=10.0, pick_cap_multiplier=2.0)
        assert not converged
        assert picks == 8

    def test_empty_instance_converges_immediately(self):
        table = make_table(np.zeros((0, 1)), [1e9], 0)
        state = initial_attach(None, table, Policy.MR)
        state, picks, converged = steady_state(
            state, None, table, Policy.MR, np.random.default_rng(0))
        assert converged and picks == 0

    @pytest.mark.parametrize("policy", list(Policy))
    def test_no_vehicle_draws_nothing_and_calls_no_rule(self, policy):
        # the general path, with no vehicle stale, dirty or drawn
        table = make_table(np.zeros((0, 2)), [1e9, 1e9], 0)
        state = initial_attach(None, table, policy)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with counted_rules() as calls:
            got = steady_state(state, None, table, policy, rng)
        assert got == (state, 0, True)
        assert calls == []
        assert rng.bit_generator.state == before

    @PROPERTY_SETTINGS
    @given(data=st.data(), policy=st.sampled_from(list(Policy)),
           window=st.floats(0.1, 8.0), cap=st.floats(0.1, 30.0),
           seed=st.integers(0, 2**32))
    def test_equals_reference_loop_on_micro_instances(self, data, policy,
                                                      window, cap, seed):
        table = data.draw(micro_tables())
        state = data.draw(states(table, policy))
        assert_same_as_reference(table, policy, state, seed,
                                 no_change_window_multiplier=window,
                                 pick_cap_multiplier=cap)

    @pytest.mark.parametrize("seed", range(10))
    def test_station_freed_to_an_exact_tie_draws_back(self, seed):
        # vehicle 0 is in outage but starts on station 0; vehicle 1 sees two
        # identical stations. If vehicle 1 moves to station 1 before vehicle
        # 0 leaves, station 0 then offers it exactly its current rate, and
        # the tie goes back to the lower id
        table = make_table([[-30.0, -30.0], [10.0, 10.0]], [1e9, 1e9], 0)
        state = AssociationState(np.array([0, 0]), np.array([2, 0]))
        assert_same_as_reference(table, Policy.MR, state, seed,
                                 no_change_window_multiplier=20.0)
        assert list(state.assignment) == [-1, 0]

    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize("lam", [4.0, 40.0, 80.0])
    @settings(max_examples=2, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32))
    def test_equals_reference_loop_on_snapshots(self, lam, policy, seed):
        cfg = ScenarioConfig()
        rng = np.random.default_rng(seed)
        snap = build_snapshot(cfg, lam, rng)
        table = build_link_table(snap, rng, cfg.channel, cfg.snr_threshold_db)
        assert_same_as_reference(table, policy, initial_attach(snap, table, policy),
                                 seed + 1)

    @pytest.mark.parametrize("batch", [1, 2, 3, 7])
    @settings(PROPERTY_SETTINGS, max_examples=100)
    @given(data=st.data(), policy=st.sampled_from(list(Policy)),
           window=st.floats(0.1, 8.0), cap=st.floats(0.1, 30.0),
           seed=st.integers(0, 2**32))
    def test_equals_reference_loop_with_short_pick_batches(
            self, batch, data, policy, window, cap, seed):
        # the window's end and the cap fall on or next to a batch edge in
        # most examples, which a batch of 4096 never reaches on these tables
        table = data.draw(micro_tables())
        state = data.draw(states(table, policy))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_PICK_BATCH", batch)
            patch.setattr(oracles, "_PICK_BATCH", batch)
            blocks, ref_blocks = assert_same_as_reference(
                table, policy, state, seed,
                no_change_window_multiplier=window, pick_cap_multiplier=cap)
        # the loop draws no block past the window's end; it may stop drawing
        # early, once no vehicle can move
        assert blocks <= ref_blocks

    @pytest.mark.parametrize("batch", [1, 2, 3, 7])
    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize("lam", [4.0, 8.0])
    # the default; a cap below the window; a cap equal to it; a cap below M
    @pytest.mark.parametrize("window,cap", [(3.0, 50.0), (3.0, 2.0),
                                            (2.0, 2.0), (0.5, 0.7)])
    def test_equals_reference_loop_on_snapshots_with_short_pick_batches(
            self, monkeypatch, batch, policy, lam, window, cap):
        monkeypatch.setattr(engine, "_PICK_BATCH", batch)
        monkeypatch.setattr(oracles, "_PICK_BATCH", batch)
        cfg = ScenarioConfig()
        seed = derive_run_seed(3, lam, policy, batch)
        rng = np.random.default_rng(seed)
        snap = build_snapshot(cfg, lam, rng)
        table = build_link_table(snap, rng, cfg.channel, cfg.snr_threshold_db)
        blocks, ref_blocks = assert_same_as_reference(
            table, policy, initial_attach(snap, table, policy), batch,
            no_change_window_multiplier=window, pick_cap_multiplier=cap)
        assert blocks <= ref_blocks

    def test_one_evaluation_covers_two_moves(self):
        # vehicle 0 leaves station 0 for station 1, which frees station 0
        # for vehicle 2; vehicle 1 then joins vehicle 2 on station 3. Both
        # moves unsettle vehicle 2, and neither unsettles vehicle 1 before
        # it moves, so the rule runs once more only when vehicle 2 is picked
        table = make_table([[-5.0, 20.0, -30.0, -30.0],
                            [-30.0, -30.0, -5.0, 20.0],
                            [20.0, -30.0, -30.0, 10.0]], [1e9] * 4, 0)

        def start():
            return AssociationState(np.array([0, 2, 3]), np.array([1, 0, 1, 1]))

        kernel, seen = POLICY_KERNELS[Policy.MR], []

        def counted(table, assignment, loads, rows):
            seen.append((assignment.tolist(), rows.tolist()))
            return kernel(table, assignment, loads, rows)

        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(POLICY_KERNELS, Policy.MR, counted)
            got, picks, converged = steady_state(
                start(), None, table, Policy.MR, ScriptedGenerator([0, 1, 2], 0))
        want, ref_picks, ref_converged = oracles.reference_steady_state(
            start(), None, table, Policy.MR, ScriptedGenerator([0, 1, 2], 0))
        assert np.array_equal(got.assignment, want.assignment)
        assert np.array_equal(got.loads, want.loads)
        assert (picks, converged) == (ref_picks, ref_converged)
        assert got.assignment.tolist() == [1, 3, 0]
        # everyone at the start, then the stale set at the third pick, after
        # both moves and before vehicle 2's own
        assert seen[:2] == [([0, 2, 3], [0, 1, 2]), ([1, 3, 3], [0, 1, 2])]

    @pytest.mark.parametrize("policy", list(Policy))
    def test_rule_runs_once_and_then_once_per_move(self, monkeypatch, policy):
        cfg = ScenarioConfig()
        seed = derive_run_seed(1, 40.0, policy, 0)
        rng = np.random.default_rng(seed)
        snap = build_snapshot(cfg, 40.0, rng)
        table = build_link_table(snap, rng, cfg.channel, cfg.snr_threshold_db)
        state = initial_attach(snap, table, policy)
        ref = AssociationState(state.assignment.copy(), state.loads.copy())
        # the moves, counted in the reference loop, which calls its rule
        # before it re-inserts the picked vehicle
        rule, moves = oracles.REFERENCE_RULES[policy], []

        def counted_rule(table, vn, loads):
            choice = rule(table, vn, loads)
            moves.append(choice != ref.assignment[vn])
            return choice

        monkeypatch.setitem(oracles.REFERENCE_RULES, policy, counted_rule)
        rng_state = rng.bit_generator.state
        with counted_rules() as calls:
            _, picks, converged = steady_state(state, snap, table, policy, rng)
        rng.bit_generator.state = rng_state
        oracles.reference_steady_state(ref, snap, table, policy, rng)
        assert np.array_equal(state.assignment, ref.assignment)
        assert converged and picks >= 3 * table.n_vn
        # a stale set exists only after a move, and one evaluation of it
        # usually covers more than one move
        assert len(calls) <= 1 + sum(moves)
        if policy is Policy.MS:
            # MS reads its load-free choices off the table
            assert calls == []
            assert picks == 3 * table.n_vn
        else:
            assert 0 < sum(moves) < 0.1 * picks
            assert len(calls) < 1 + sum(moves)

    @pytest.mark.parametrize("policy", [Policy.MR, Policy.RA])
    @pytest.mark.parametrize("lam", [40.0, 80.0])
    def test_few_rows_per_move(self, lam, policy):
        # per-move work without timing: after its first evaluation the loop
        # passes the rule only what a move can change, about a dozen rows
        # per move here; re-checking every dirty vehicle as well took 45-193
        cfg = ScenarioConfig(master_seed=7)
        kernel, rows, seen = POLICY_KERNELS[policy], [], []

        def counted(table, assignment, loads, recheck):
            rows.append(recheck.size)
            seen.append(assignment.copy())
            return kernel(table, assignment, loads, recheck)

        moved = rechecked = 0
        for run in range(5):
            rng = np.random.default_rng(derive_run_seed(7, lam, policy, run))
            snap = build_snapshot(cfg, lam, rng)
            table = build_link_table(snap, rng, cfg.channel, cfg.snr_threshold_db)
            state = initial_attach(snap, table, policy)
            rows.clear()
            seen.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setitem(POLICY_KERNELS, policy, counted)
                steady_state(state, snap, table, policy, rng)
            assert rows[0] == table.n_vn
            # a vehicle that moves is stale until its next evaluation, so it
            # moves at most once between two calls: the moves are the
            # entries that changed from one call to the next
            seen.append(state.assignment)
            moved += sum(int(np.sum(after != before))
                         for before, after in zip(seen, seen[1:]))
            rechecked += sum(rows[1:])
        assert moved > 0
        assert rechecked / moved <= 30

    def test_load_consistency_after_dynamics(self, rng):
        for _ in range(20):
            n_vn = int(rng.integers(1, 30))
            n_bs = int(rng.integers(1, 6))
            snr = rng.uniform(-15, 40, size=(n_vn, n_bs))
            table = make_table(snr, [1e9] * n_bs, 0)
            state, _, _ = run_engine(table, Policy.MR, seed=3)
            oracles.check_state(state)
            assert int(state.loads.sum()) + int(np.sum(state.assignment == -1)) == n_vn

    def test_check_state_catches_planted_faults(self):
        assignment = np.array([0, 1, NO_BS])
        oracles.check_state(AssociationState(assignment, np.array([1, 1])))
        # a load off by one, and a station load that counts the unattached
        # vehicle 2
        for loads in ([0, 1], [2, 1]):
            with pytest.raises(AssertionError):
                oracles.check_state(AssociationState(assignment, np.array(loads)))


# The law test's contended micro instances: 3-6 vehicles on 2-3 stations,
# every link in service (5-25 dB), stations mostly 1 GHz mmWave and else
# 20 MHz LTE. Fixed before the test first ran: the instance seed, S runs per
# case and the bound in binomial standard errors. At that bound a correct
# engine fails a count with probability below 0.1% over the 117 fixed
# points of the 55 cases (a union bound of exact binomial tails).
LAW_INSTANCE_SEED, LAW_INSTANCES, LAW_RUNS, LAW_BOUND_SE = 4242, 400, 300, 4.5


@pytest.fixture(scope="module")
def law_cases():
    """(table, policy, law) of every instance whose process reaches at least
    two fixed points, and no closed class without one."""
    rng = np.random.default_rng(LAW_INSTANCE_SEED)
    cases = []
    for _ in range(LAW_INSTANCES):
        n_vn, n_bs = int(rng.integers(3, 7)), int(rng.integers(2, 4))
        snr = rng.uniform(5.0, 25.0, size=(n_vn, n_bs))
        lte = rng.random(n_bs) < 0.2
        # the LTE stations first, in their drawn order
        order = np.argsort(~lte, kind="stable")
        table = make_table(snr[:, order], np.where(lte[order], 20e6, 1e9), lte.sum(),
                           rng.choice([1e6, 1e7, 1e8, 1.2e9], size=n_vn))
        for policy in (Policy.MR, Policy.RA):
            law = oracles.absorption_law(table, policy)
            if law is not None and len(law) >= 2:
                cases.append((table, policy, law))
    return cases


class TestSteadyStateLaw:
    @pytest.mark.parametrize("window,cap", [
        (50.0, 400.0),
        pytest.param(3.0, 50.0, marks=pytest.mark.xfail(strict=True, reason=(
            "the FOUND fault of engine.steady_state in CHANGES.md: it stops "
            "window picks after its last move, so some runs end off a fixed "
            "point (268 of these 16,500 runs at the defaults)"))),
    ], ids=["criterion-8-multipliers", "defaults"])
    def test_ends_at_each_fixed_point_as_often_as_the_process(
            self, law_cases, window, cap):
        # the law every figure of merit averages over: from the greedy
        # start, the loop ends at each fixed point with the probability the
        # random-pick process gives it
        assert len(law_cases) == 55
        for case, (table, policy, law) in enumerate(law_cases):
            counts = dict.fromkeys(law, 0)
            for seed in range(LAW_RUNS):
                state, _, _ = run_engine(table, policy, seed, window, cap)
                end = tuple(state.assignment.tolist())
                assert end in counts, (case, policy, seed, end)
                counts[end] += 1
            for end, p in law.items():
                se = math.sqrt(LAW_RUNS * p * (1.0 - p))
                assert abs(counts[end] - LAW_RUNS * p) <= LAW_BOUND_SE * se, \
                    (case, policy, end, counts[end], LAW_RUNS * p)

    def test_oracle_skips_a_process_that_never_rests(self, monkeypatch):
        # matching pennies: vehicle 0 joins vehicle 1, which flees it, so no
        # assignment is a fixed point
        def pennies(table, vn, loads):
            return int(np.argmax(loads) if vn == 0 else np.argmin(loads))

        monkeypatch.setitem(oracles.REFERENCE_RULES, Policy.MR, pennies)
        table = make_table([[10.0, 10.0]] * 2, [1e9, 1e9], 0)
        assert oracles.absorption_law(table, Policy.MR) is None


def draw_kernel_call(data, policy):
    """A micro table, a state, loads with other vehicles' load on top, so
    that post-join loads above 1 appear, and any rows, in any order,
    repeated or none."""
    table = data.draw(micro_tables())
    state = data.draw(states(table, policy))
    extra = np.array(data.draw(st.lists(
        st.integers(0, 3), min_size=table.n_bs, max_size=table.n_bs)),
        dtype=np.int64)
    rows = np.array(data.draw(st.lists(st.integers(0, table.n_vn - 1),
                                       max_size=2 * table.n_vn)),
                    dtype=np.int64)
    return table, state.assignment, state.loads + extra, rows


class TestBestResponses:
    @PROPERTY_SETTINGS
    @given(data=st.data(), policy=st.sampled_from(list(Policy)))
    def test_equals_reference_rule_row_by_row(self, data, policy):
        # MS reads its choice off the table
        table, assignment, loads, rows = draw_kernel_call(data, policy)
        got = (table.strongest_bs[rows] if policy is Policy.MS
               else POLICY_KERNELS[policy](table, assignment, loads, rows)[0])
        assert got.shape == rows.shape and got.dtype == np.int64
        for vn, choice in zip(rows, got):
            without = loads_without(assignment, loads, vn)
            assert choice == oracles.REFERENCE_RULES[policy](table, vn, without)

    @PROPERTY_SETTINGS
    @given(data=st.data(), policy=st.sampled_from([Policy.MR, Policy.RA]))
    def test_rate_is_the_post_join_rate_of_the_choice(self, data, policy):
        # bit for bit the float the reference rules compare, unit rate over
        # the load without the vehicle + 1.0, and 0 where the choice is NO_BS
        table, assignment, loads, rows = draw_kernel_call(data, policy)
        choice, rate = POLICY_KERNELS[policy](table, assignment, loads, rows)
        assert rate.shape == rows.shape and rate.dtype == np.float64
        for vn, c, r in zip(rows, choice, rate):
            without = loads_without(assignment, loads, vn)
            want = (0.0 if c == NO_BS
                    else table.unit_rate_bps[vn, c] / (without[c] + 1.0))
            assert float(r).hex() == float(want).hex(), (vn, c)


# rates on a coarse grid, each possibly one float above or below, so that
# ties and near ties between a rate, a choice and a requirement are common
GRID_RATES = st.builds(
    lambda base, ulps: max(0.0, float(np.nextafter(base, np.inf)) if ulps > 0
                           else float(np.nextafter(base, -np.inf)) if ulps < 0
                           else base),
    st.sampled_from([0.0, 1.0, 2.0, 3.0]), st.integers(-1, 1))


class TestThresholds:
    @PROPERTY_SETTINGS
    @given(data=st.data(), policy=st.sampled_from([Policy.MR, Policy.RA]))
    def test_bar_equals_the_two_clause_test(self, data, policy):
        # the one comparison at_a >= bar[tier of a] is the test the loop made
        # before the bars: a positive rate at a that ties or beats the
        # choice, and under RA, for a vehicle not served by an LTE cell, an
        # LTE a beating its required rate, with served vehicles ignoring a
        # mmWave a
        n_vn = data.draw(st.integers(1, 8))
        n_bs = data.draw(st.integers(2, 4))
        n_lte = data.draw(st.integers(1, n_bs - 1))
        required = np.array([data.draw(GRID_RATES) for _ in range(n_vn)])
        table = make_table(np.zeros((n_vn, n_bs)), [20e6] * n_bs, n_lte, required)
        choice = np.array([data.draw(st.integers(NO_BS, n_bs - 1))
                           for _ in range(n_vn)], dtype=np.int64)
        # the kernels give NO_BS a rate of 0
        chosen = np.array([0.0 if c == NO_BS else data.draw(GRID_RATES)
                           for c in choice])
        rows = np.arange(n_vn)
        bar = thresholds(table, policy, rows, choice, chosen)
        assert bar.shape == (2, n_vn)
        lte = np.arange(n_bs) < n_lte
        served = (choice != NO_BS) & lte[choice] & (chosen > required)
        for a in range(n_bs):
            at_a = np.array([data.draw(GRID_RATES) for _ in range(n_vn)])
            drawn = (at_a >= chosen) & (at_a > 0.0)
            if policy is Policy.RA:
                if lte[a]:
                    drawn |= ~served & (at_a > required)
                else:
                    drawn &= ~served
            assert np.array_equal(at_a >= bar[int(lte[a])], drawn), a


class TestUnsettled:
    def test_freed_lte_cell_can_serve_a_vehicle_it_does_not_draw(self):
        # vehicle 1 keeps mmWave station 2 over any LTE rate, but once
        # vehicle 0 leaves LTE cell 0 that cell beats vehicle 1's 5 Mbit/s
        # requirement, and RA moves it there: only the required-rate term
        # of the mask flags it
        table = make_table([[-30.0, 20.0, -30.0], [-5.0, -30.0, 20.0]],
                           [20e6, 1e9, 1e9], 1, [0.0, 5e6])
        state = AssociationState(np.array([0, 2]), np.array([1, 0, 1]))
        rows = np.arange(2)
        choice, chosen = POLICY_KERNELS[Policy.RA](table, state.assignment,
                                                   state.loads, rows)
        assert list(choice) == [1, 2]
        bar = thresholds(table, Policy.RA, rows, choice, chosen)
        state.assignment[0], state.loads[:] = 1, [0, 1, 1]
        assert list(POLICY_KERNELS[Policy.RA](
            table, state.assignment, state.loads, rows)[0]) == [1, 0]
        mask = unsettled(table, state.assignment, state.loads, choice, bar, 0, 1)
        assert mask[1]

    @settings(PROPERTY_SETTINGS, suppress_health_check=[
        HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(data=st.data(), policy=st.sampled_from([Policy.MR, Policy.RA]))
    def test_flags_every_choice_a_move_changes(self, data, policy):
        # the recheck set is exact: after one move of a dirty vehicle, a
        # vehicle left out of the mask still makes its stored choice; each
        # dirty vehicle of the drawn state makes that move in turn
        table = data.draw(micro_tables(twins=True))
        state = data.draw(states(table, policy))
        rule = oracles.REFERENCE_RULES[policy]
        everyone = np.arange(table.n_vn)
        before = [loads_without(state.assignment, state.loads, vn) for vn in everyone]
        choice = np.array([rule(table, vn, before[vn]) for vn in everyone],
                          dtype=np.int64)
        # the post-join rate of each choice, as the reference rule computes it
        chosen = np.array([
            0.0 if c == NO_BS else table.unit_rate_bps[vn, c] / (before[vn][c] + 1.0)
            for vn, c in zip(everyone, choice)])
        assert np.array_equal(
            POLICY_KERNELS[policy](table, state.assignment, state.loads, everyone)[1],
            chosen)
        dirty = np.flatnonzero(choice != state.assignment)
        assume(dirty.size > 0)
        bar = thresholds(table, policy, everyone, choice, chosen)
        # an entry of bar may be too low, never too high
        if data.draw(st.booleans()):
            for v in data.draw(st.sets(st.sampled_from(everyone.tolist()))):
                tier = data.draw(st.integers(0, 1))
                bar[tier, v] = min(bar[tier, v],
                                   chosen[v] * data.draw(st.sampled_from([0.0, 0.5])))
        for vn in dirty:
            assignment, loads = state.assignment.copy(), state.loads.copy()
            a, b = int(assignment[vn]), int(choice[vn])
            if a != NO_BS:
                loads[a] -= 1
            if b != NO_BS:
                loads[b] += 1
            assignment[vn] = b
            mask = unsettled(table, assignment, loads, choice, bar, a, b)
            assert mask.shape == (table.n_vn,) and mask.dtype == bool
            if a == NO_BS:
                # no station's rate rises, so only the choosers of b are
                # flagged, though NO_BS is below n_lte
                assert np.array_equal(mask, choice == b), (vn, b)
            for v in everyone:
                if rule(table, v, loads_without(assignment, loads, v)) != choice[v]:
                    assert mask[v], (vn, v, a, b)


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

    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize("lam", [0.0, 8.0, 40.0])
    @pytest.mark.parametrize("run", range(3))
    def test_tier_follows_station_id(self, policy, lam, run):
        cfg = ScenarioConfig()
        seed = derive_run_seed(2, lam, policy, run)
        # the snapshot is the first thing a run draws
        snap = build_snapshot(cfg, lam, np.random.default_rng(seed))
        result = run_once(cfg, lam, policy, seed)
        # derived from the stations, not stored beside them
        assert "tier" not in vars(result)
        assert result.tier.dtype == np.int8
        assert result.tier.tolist() == [expected_tier(bs, snap.n_lte)
                                        for bs in result.bs_id.tolist()]

    @pytest.mark.parametrize("policy", list(Policy))
    def test_tier_is_none_without_a_station(self, policy):
        cfg = ScenarioConfig(vn_mode="FIXED", fixed_vn_count=5,
                             lte_density_per_km2=0.0)
        result = run_once(cfg, 0.0, policy, 9)
        assert result.bs_id.tolist() == [NO_BS] * 5
        assert result.tier.tolist() == [Tier.NONE] * 5

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

    def test_ms_run_calls_no_rule(self):
        # both layers read the MS choices off the table
        with counted_rules() as calls:
            result = run_once(ScenarioConfig(), 40.0, Policy.MS,
                              derive_run_seed(1, 40.0, Policy.MS, 0))
        assert calls == [] and result.bs_id.size > 0

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

    @pytest.mark.parametrize("workers,n_sim,pool_sizes", [
        (2, 1, []), (8, 3, [3]), (2, 8, [2])])
    def test_no_more_workers_than_runs(self, monkeypatch, workers, n_sim, pool_sizes):
        # a pool context that records the processes asked for and maps the
        # runs in this process: one run takes the serial path, and a pool
        # is never larger than the campaign
        import multiprocessing

        sizes = []

        class Context:
            @contextmanager
            def Pool(self, processes):
                sizes.append(processes)
                yield SimpleNamespace(imap=lambda f, specs, chunksize: map(f, specs))

        monkeypatch.setattr(multiprocessing, "get_context", lambda *_: Context())
        cfg = ScenarioConfig(mmw_density_grid_per_km2=(4.0,), policies=("MS",),
                             n_sim=n_sim, vn_mode="FIXED", fixed_vn_count=20)
        assert len(list(run_campaign(cfg, workers=workers))) == n_sim
        assert sizes == pool_sizes

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
        table = make_table(snr, [1e9, 1e9], 0)
        state = initial_attach(None, table, Policy.MR)
        rates = realized_rates(state, table)
        for vn in range(3):
            bs = state.assignment[vn]
            if bs >= 0:
                expected = table.unit_rate_bps[vn, bs] / state.loads[bs]
                assert rates[vn] == pytest.approx(expected, rel=1e-12)
            else:
                assert rates[vn] == 0.0

    @pytest.mark.parametrize("policy", list(Policy))
    def test_gathers_the_rate_table_exactly(self, policy):
        # realized_rates reads the SNR of the attached links only, by the
        # formula the full rate table is built with
        cfg = ScenarioConfig()
        for lam in (8.0, 40.0):
            rng = np.random.default_rng(int(lam))
            snap = build_snapshot(cfg, lam, rng)
            table = build_link_table(snap, rng, cfg.channel, cfg.snr_threshold_db)
            state = initial_attach(snap, table, policy)
            state, _, _ = steady_state(state, snap, table, policy, rng)
            rates = realized_rates(state, table)
            attached = np.flatnonzero(state.assignment >= 0)
            assert attached.size
            bs = state.assignment[attached]
            expected = np.zeros(table.n_vn)
            expected[attached] = table.unit_rate_bps[attached, bs] / state.loads[bs]
            assert np.array_equal(rates, expected)

    def test_ms_run_never_builds_the_rate_table(self, monkeypatch):
        tables = []

        def keep(*args, **kwargs):
            tables.append(build_link_table(*args, **kwargs))
            return tables[-1]

        monkeypatch.setattr(engine, "build_link_table", keep)
        cfg = ScenarioConfig()
        for policy in Policy:
            run_once(cfg, 40.0, policy, derive_run_seed(1, 40.0, policy, 0))
        assert ["unit_rate_bps" in vars(t) for t in tables] == [False, True, True]
