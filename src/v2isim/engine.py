"""Steady-state association engine and the Monte Carlo campaign driver.

One run: deploy -> link table -> greedy initial attachment -> randomized
single-vehicle reassignment until no pick changes anything for a full
window -> per-vehicle realized rates from the final loads. Runs are fully
deterministic in their seed; campaign seeds are derived per
(density, policy, run index) so any cell is reproducible in isolation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .channel import LinkTable, build_link_table
from .config import POLICY_NAMES, ScenarioConfig
from .geometry import Snapshot, build_snapshot
from .policy import NO_BS, POLICY_KERNELS, Policy

TIER_NONE, TIER_LTE, TIER_MMWAVE = 0, 1, 2
TIER_NAMES = {TIER_NONE: "NONE", TIER_LTE: "LTE", TIER_MMWAVE: "MMWAVE"}

_PICK_BATCH = 4096


@dataclass
class AssociationState:
    """Vehicle -> base-station map plus per-station load counters.

    assignment[i] is the station id or -1 when unattached; loads[j] always
    equals the number of vehicles currently mapped to j.
    """

    assignment: np.ndarray
    loads: np.ndarray

    @classmethod
    def empty(cls, n_vn: int, n_bs: int) -> "AssociationState":
        return cls(np.full(n_vn, NO_BS, dtype=np.int64),
                   np.zeros(n_bs, dtype=np.int64))

    def check(self) -> None:
        """Recount loads from the assignment and verify consistency."""
        counts = np.bincount(self.assignment[self.assignment >= 0],
                             minlength=self.loads.size)
        if not np.array_equal(counts, self.loads):
            raise AssertionError("load counters diverged from assignment")
        unattached = int(np.sum(self.assignment == NO_BS))
        total = int(self.loads.sum()) + unattached
        if total != self.assignment.size:
            raise AssertionError("loads + unattached != vehicle count")


@dataclass
class RunResult:
    """Per-vehicle outcome of one simulated snapshot."""

    lambda_m: float
    policy: Policy
    class_k: np.ndarray
    in_region: np.ndarray
    required_rate_bps: np.ndarray
    tier: np.ndarray
    bs_id: np.ndarray
    rate_bps: np.ndarray
    convergence_iterations: int
    converged: bool
    run_index: int | None = None

    @property
    def n_vn(self) -> int:
        return self.rate_bps.size


def initial_attach(snapshot: Snapshot | None, link_table: LinkTable,
                   policy: Policy) -> AssociationState:
    """Greedy first pass: vehicles attach in ascending id order, each seeing
    the loads accumulated so far."""
    state = AssociationState.empty(link_table.n_vn, link_table.n_bs)
    kernel = POLICY_KERNELS[policy]
    assignment, loads = state.assignment, state.loads
    for vn in range(link_table.n_vn):
        bs = kernel(link_table, vn, loads)
        assignment[vn] = bs
        if bs != NO_BS:
            loads[bs] += 1
    if __debug__:
        state.check()
    return state


def steady_state(state: AssociationState, snapshot: Snapshot | None,
                 link_table: LinkTable, policy: Policy,
                 rng: np.random.Generator, *,
                 no_change_window_multiplier: float = 3.0,
                 pick_cap_multiplier: float = 50.0,
                 ) -> tuple[AssociationState, int, bool]:
    """Randomized best-response loop: pick a uniform vehicle, detach it,
    re-run the policy, re-insert.

    Terminates once no pick has changed any assignment for
    ceil(window_multiplier * M) consecutive picks, or at the hard cap of
    ceil(cap_multiplier * M) total picks. Returns (state, picks, converged).
    """
    m = link_table.n_vn
    if m == 0:
        return state, 0, True
    window = max(1, math.ceil(no_change_window_multiplier * m))
    cap = max(1, math.ceil(pick_cap_multiplier * m))
    kernel = POLICY_KERNELS[policy]
    assignment, loads = state.assignment, state.loads
    picks = 0
    streak = 0
    converged = False
    while picks < cap and not converged:
        batch = rng.integers(0, m, size=min(_PICK_BATCH, cap - picks))
        for vn in batch:
            vn = int(vn)
            old = assignment[vn]
            if old != NO_BS:
                loads[old] -= 1
            new = kernel(link_table, vn, loads)
            assignment[vn] = new
            if new != NO_BS:
                loads[new] += 1
            picks += 1
            if new == old:
                streak += 1
                if streak >= window:
                    converged = True
                    break
            else:
                streak = 0
    if __debug__:
        state.check()
    return state, picks, converged


def realized_rates(state: AssociationState, link_table: LinkTable) -> np.ndarray:
    """Per-vehicle rates under the final loads; unattached vehicles get 0."""
    rates = np.zeros(link_table.n_vn, dtype=float)
    attached = np.flatnonzero(state.assignment >= 0)
    if attached.size:
        bs = state.assignment[attached]
        rates[attached] = link_table.unit_rate_bps[attached, bs] / state.loads[bs]
    return rates


def run_once(config: ScenarioConfig, lambda_m: float, policy: Policy,
             seed) -> RunResult:
    """One full snapshot simulation, deterministic in (config, seed)."""
    rng = np.random.default_rng(seed)
    snapshot = build_snapshot(config, lambda_m, rng)
    table = build_link_table(snapshot, rng, config.channel,
                             config.snr_threshold_db)
    state = initial_attach(snapshot, table, policy)
    state, picks, converged = steady_state(
        state, snapshot, table, policy, rng,
        no_change_window_multiplier=config.no_change_window_multiplier,
        pick_cap_multiplier=config.pick_cap_multiplier)
    rates = realized_rates(state, table)

    tier = np.full(table.n_vn, TIER_NONE, dtype=np.int8)
    attached = state.assignment >= 0
    if attached.any():
        lte = np.zeros(table.n_vn, dtype=bool)
        lte[attached] = table.is_lte[state.assignment[attached]]
        tier[attached & lte] = TIER_LTE
        tier[attached & ~lte] = TIER_MMWAVE
    return RunResult(
        lambda_m=lambda_m,
        policy=policy,
        class_k=snapshot.class_k.astype(np.int8),
        in_region=snapshot.in_region,
        required_rate_bps=snapshot.required_rate_bps.copy(),
        tier=tier,
        bs_id=state.assignment.copy(),
        rate_bps=rates,
        convergence_iterations=picks,
        converged=converged,
    )


def derive_run_seed(master_seed: int, lambda_m: float, policy: Policy,
                    run_index: int) -> np.random.SeedSequence:
    """Deterministic per-run seed from the campaign cell coordinates."""
    lambda_key = int(round(lambda_m * 1e6))
    policy_key = list(Policy).index(policy)
    return np.random.SeedSequence(
        entropy=(master_seed, lambda_key, policy_key, run_index))


def run_spec(args: tuple[ScenarioConfig, float, Policy, int]) -> RunResult:
    """Run ``run_index`` of the (lambda_m, policy) cell of the campaign,
    seeded as the campaign seeds it; the argument is one tuple so that a
    worker pool can map over the specs."""
    config, lambda_m, policy, run_index = args
    seed = derive_run_seed(config.master_seed, lambda_m, policy, run_index)
    result = run_once(config, lambda_m, policy, seed)
    result.run_index = run_index
    return result


def run_campaign(config: ScenarioConfig, *, workers: int = 1,
                 ) -> Iterator[RunResult]:
    """Stream every run of the (density grid x policies x n_sim) campaign.

    Results arrive in canonical order (density ascending, policy, run
    index) regardless of the worker count, so downstream aggregation is
    byte-reproducible.
    """
    policies = [Policy(p) for p in POLICY_NAMES if p in config.policies]
    specs = [(config, lm, pol, run)
             for lm in sorted(config.mmw_density_grid_per_km2)
             for pol in policies for run in range(config.n_sim)]
    if workers <= 1:
        yield from map(run_spec, specs)
        return
    import multiprocessing as mp

    ctx = mp.get_context("fork") if "fork" in mp.get_all_start_methods() \
        else mp.get_context()
    with ctx.Pool(processes=workers) as pool:
        yield from pool.imap(run_spec, specs, chunksize=4)
