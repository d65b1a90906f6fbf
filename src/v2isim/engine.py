"""Steady-state association engine and the Monte Carlo campaign driver.

One run: deploy -> link table -> greedy initial attachment -> randomized
single-vehicle reassignment, which stops ``window`` picks after its last
move or at the pick cap -> per-vehicle realized rates from the final loads.
Runs are fully deterministic in their seed; campaign seeds are derived per
(density, policy, run index) so any cell is reproducible in isolation.

Under MS a vehicle takes its station of highest SNR, whatever the loads:
both layers read that choice off the table (``LinkTable.strongest_bs``),
so an MS run calls no rule, and no vehicle moves after the initial attach.
The engine calls the load-dependent rules, MR and RA, only through
``policy.POLICY_KERNELS``, looked up at each call, and a call evaluates the
rule for a block of vehicles at once. The reassignment loop starts with
every vehicle stale, so the first block boundary evaluates the rule once for
all of them. After that, a move only marks stale the vehicles whose choice
it can change (``policy.unsettled``): a move changes the post-join rate of
the station it leaves and of the one it joins, and nothing else. The stale
set is evaluated in one call, at the loads of the moment, when a pick
reaches a stale vehicle and at each block boundary, so one call usually
covers several moves. The other picks change nothing, so they are counted
without an evaluation, and the loop returns exactly what a loop evaluating
every pick would return. The tests assert the loads invariant of
``AssociationState`` after every layer call (``oracles.check_state``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .channel import NO_BS, LinkTable, Tier, build_link_table
from .config import Policy, ScenarioConfig, density_key, density_text
from .geometry import Snapshot, build_snapshot
from .policy import POLICY_KERNELS, thresholds, unsettled

_PICK_BATCH = 4096
_SCAN_WIDTH = 64
_ATTACH_BLOCK = 32


@dataclass
class AssociationState:
    """Vehicle -> base-station map plus per-station load counters:
    assignment[i] is the station id or -1 when unattached, and loads[j] the
    number of vehicles mapped to j, as the tests assert (``oracles.check_state``)."""

    assignment: np.ndarray
    loads: np.ndarray


@dataclass
class RunResult:
    """Per-vehicle outcome of one simulated snapshot: the snapshot's class,
    region and requirement arrays, and each vehicle's final station and
    realized rate. Stations below ``n_lte`` are LTE."""

    lambda_m: float
    policy: Policy
    class_k: np.ndarray
    in_region: np.ndarray
    required_rate_bps: np.ndarray
    n_lte: int
    bs_id: np.ndarray
    rate_bps: np.ndarray
    convergence_iterations: int
    converged: bool

    @property
    def tier(self) -> np.ndarray:
        """Each vehicle's serving ``Tier`` as its int8 code."""
        bs = self.bs_id
        return np.where(bs == NO_BS, Tier.NONE,
                        np.where(bs < self.n_lte, Tier.LTE, Tier.MMWAVE)).astype(np.int8)


def initial_attach(snapshot: Snapshot | None, link_table: LinkTable,
                   policy: Policy) -> AssociationState:
    """Greedy first pass: vehicles attach in ascending id order, each seeing
    the loads accumulated so far.

    A pass evaluates the rule for a block of the next vehicles at the
    current loads and accepts the longest prefix in which no station is
    picked twice: a join lowers only the joined station's post-join rate, so
    each accepted choice is the one the vehicle makes after the joins before
    it. The next block starts at the first vehicle that repeats a station.
    MS ignores loads, so every vehicle takes its ``link_table.strongest_bs``
    at once, with no rule call."""
    if policy is Policy.MS:
        assignment = link_table.strongest_bs.copy()
        loads = np.bincount(assignment[assignment != NO_BS], minlength=link_table.n_bs)
        return AssociationState(assignment, loads)
    m = link_table.n_vn
    state = AssociationState(np.full(m, NO_BS, dtype=np.int64),
                             np.zeros(link_table.n_bs, dtype=np.int64))
    assignment, loads = state.assignment, state.loads
    start = 0
    while start < m:
        choice, _ = POLICY_KERNELS[policy](link_table, assignment, loads,
                                           np.arange(start, min(start + _ATTACH_BLOCK, m)))
        choice = choice[:_first_repeat(choice)]
        assignment[start:start + choice.size] = choice
        np.add.at(loads, choice[choice != NO_BS], 1)
        start += choice.size
    return state


def _first_repeat(choice: np.ndarray) -> int:
    """Index of the first entry naming a station an earlier entry names, or
    the length when every station appears at most once."""
    seen = set()
    for i, bs in enumerate(choice.tolist()):
        if bs in seen:
            return i
        if bs != NO_BS:
            seen.add(bs)
    return choice.size


def steady_state(state: AssociationState, snapshot: Snapshot | None,
                 link_table: LinkTable, policy: Policy,
                 rng: np.random.Generator, *,
                 no_change_window_multiplier: float = ScenarioConfig.no_change_window_multiplier,
                 pick_cap_multiplier: float = ScenarioConfig.pick_cap_multiplier,
                 ) -> tuple[AssociationState, int, bool]:
    """Randomized best-response loop: pick a uniform vehicle, detach it,
    re-run the policy, re-insert.

    The loop stops ceil(window_multiplier * M) picks after its last move, or
    at the hard cap of ceil(cap_multiplier * M) total picks. With
    ``settled`` the number of picks up to and including the last move, it
    returns (state, min(cap, settled + window), converged). A run is
    ``converged`` when settled + window <= cap and it ends at a fixed point
    of its rule: the stale set is evaluated at the stop, as at a block
    boundary, and no vehicle is left dirty.

    A ``choice`` vector holds each vehicle's choice, ``bar`` its
    ``policy.thresholds``, a ``stale`` mask the vehicles a move may have
    unsettled since their last evaluation, and a ``dirty`` mask the stale
    vehicles and those whose choice differs from their station. A move from
    ``a`` to ``b`` changes the post-join rate at ``a`` and ``b`` only, so it
    adds to ``stale`` and ``dirty`` the vehicles ``policy.unsettled`` flags;
    every other choice, dirty or not, compares the same rates as before and
    stays exact. The rule is evaluated at the current loads for every stale
    vehicle at once, at each block boundary and when a pick reaches a stale
    vehicle; every vehicle starts stale, so the first block boundary
    evaluates them all before a pick is drawn. So ``dirty`` is exact
    wherever the loop decides to move, to draw a block or to stop. A pick of
    a clean vehicle, stale or not, changes nothing; a dirty pick moves to
    its ``choice``. A bar is set when its vehicle is evaluated and is not
    raised after: the rate at a vehicle's choice falls only at a move that
    flags it, and rises at a move away from it, so the bar of a vehicle
    that is not stale can be too low, never too high, and a bar too low only
    flags more vehicles. Picks are drawn in the same blocks from the same
    generator as a loop that evaluates every pick, so the result is the
    same. Once no vehicle is dirty no pick can move one, so no further
    block is drawn. Under MS the choices are ``link_table.strongest_bs``,
    read without a rule call, and a move unsettles no vehicle, so no vehicle
    starts stale, no bar is kept and ``policy.unsettled`` is not called;
    straight after the initial attach no vehicle is dirty, and the loop
    returns min(window, cap) picks without drawing one. A table with no
    vehicle draws none either and returns (state, 0, True).
    """
    m = link_table.n_vn
    window = math.ceil(no_change_window_multiplier * m)
    cap = math.ceil(pick_cap_multiplier * m)
    assignment, loads = state.assignment, state.loads
    if policy is Policy.MS:
        # MS ignores loads: its choices are the table's for good and a move
        # unsettles nobody, so neither a rule call nor bars are needed
        choice, bar = link_table.strongest_bs, None
        stale = np.zeros(m, dtype=bool)
    else:
        # every vehicle starts stale: the first block boundary evaluates all
        choice, bar = assignment.copy(), np.empty((2, m))
        stale = np.ones(m, dtype=bool)
    dirty = stale | (choice != assignment)

    def evaluate():
        # ndarray.nonzero skips the ravel and dispatch of np.flatnonzero
        rows = stale.nonzero()[0]
        got, rate = POLICY_KERNELS[policy](link_table, assignment, loads, rows)
        choice[rows] = got
        bar[:, rows] = thresholds(link_table, policy, rows, got, rate)
        dirty[rows] = got != assignment[rows]
        stale[rows] = False

    settled = 0
    for start in range(0, cap, _PICK_BATCH):
        if start >= settled + window:
            break
        if stale.any():
            evaluate()
        if not dirty.any():
            break
        batch = rng.integers(0, m, size=min(_PICK_BATCH, cap - start))
        done = 0
        while True:
            # a dirty pick past the end of the window is never reached
            stop = min(batch.size, settled + window - start)
            at = _next_dirty(dirty, batch, done, stop)
            if at == stop:
                break
            vn = int(batch[at])
            done = at + 1
            if stale[vn]:
                evaluate()
                if not dirty[vn]:
                    continue
            # the picks before it change nothing
            settled = start + done
            old, new = int(assignment[vn]), int(choice[vn])
            if old != NO_BS:
                loads[old] -= 1
            if new != NO_BS:
                loads[new] += 1
            assignment[vn] = new
            dirty[vn] = False
            if bar is not None:
                flagged = unsettled(link_table, assignment, loads, choice, bar, old, new)
                stale |= flagged
                dirty |= flagged
    if stale.any():
        evaluate()
    converged = settled + window <= cap and not dirty.any()
    return state, min(cap, settled + window), converged


def _next_dirty(dirty: np.ndarray, batch: np.ndarray, start: int,
                stop: int) -> int:
    """Index of the first pick of a dirty vehicle in ``batch[start:stop]``,
    or ``stop``. The scan reads windows that grow fourfold, so a near dirty
    pick, the common case while vehicles move, costs a short gather."""
    width = _SCAN_WIDTH
    while start < stop:
        end = min(start + width, stop)
        hit = dirty[batch[start:end]].nonzero()[0]
        if hit.size:
            return start + int(hit[0])
        start, width = end, width * 4
    return stop


def realized_rates(state: AssociationState, link_table: LinkTable) -> np.ndarray:
    """Per-vehicle rates under the final loads; unattached vehicles get 0.
    Only the attached links' rates are computed, so an MS run, which reads
    nothing else of them, never builds the table's ``unit_rate_bps``."""
    rates = np.zeros(link_table.n_vn, dtype=float)
    attached = np.flatnonzero(state.assignment >= 0)
    bs = state.assignment[attached]
    rates[attached] = link_table.rates_at(attached, bs) / state.loads[bs]
    return rates


def run_once(config: ScenarioConfig, lambda_m: float, policy: Policy,
             seed) -> RunResult:
    """One full snapshot simulation, deterministic in (config, seed)."""
    rng = np.random.default_rng(seed)
    snapshot = build_snapshot(config, lambda_m, rng)
    table = build_link_table(snapshot, rng, config.channel, config.snr_threshold_db)
    state = initial_attach(snapshot, table, policy)
    state, picks, converged = steady_state(
        state, snapshot, table, policy, rng,
        no_change_window_multiplier=config.no_change_window_multiplier,
        pick_cap_multiplier=config.pick_cap_multiplier)
    return RunResult(
        lambda_m=lambda_m,
        policy=policy,
        class_k=snapshot.class_k,
        in_region=snapshot.in_region,
        required_rate_bps=snapshot.required_rate_bps,
        n_lte=snapshot.n_lte,
        bs_id=state.assignment,
        rate_bps=realized_rates(state, table),
        convergence_iterations=picks,
        converged=converged,
    )


def derive_run_seed(master_seed: int, lambda_m: float, policy: Policy,
                    run_index: int) -> np.random.SeedSequence:
    """Deterministic per-run seed from the campaign cell coordinates."""
    policy_key = list(Policy).index(policy)
    return np.random.SeedSequence(
        entropy=(master_seed, density_key(lambda_m), policy_key, run_index))


def run_spec(args: tuple[ScenarioConfig, float, Policy, int]) -> RunResult:
    """Run ``run_index`` of the (lambda_m, policy) cell of the campaign,
    seeded as the campaign seeds it; the argument is one tuple so that a
    worker pool can map over the specs."""
    config, lambda_m, policy, run_index = args
    seed = derive_run_seed(config.master_seed, lambda_m, policy, run_index)
    return run_once(config, lambda_m, policy, seed)


class RunFailed(Exception):
    """A campaign run raised: the message names the run by its ``--dump-run``
    spec, which replays it with its traceback, and gives the error's repr."""


def _run_or_failure(spec: tuple[ScenarioConfig, float, Policy, int],
                    ) -> RunResult | RunFailed:
    """``run_spec(spec)``, or the RunFailed naming the run if it raises. It
    is returned, not raised, so a pool still hands back the runs before it."""
    try:
        return run_spec(spec)
    except Exception as exc:
        _, lambda_m, policy, run_index = spec
        return RunFailed(f"run {density_text(lambda_m)}:{policy.value},{run_index} "
                         f"failed: {exc!r}")


def _until_failure(results: Iterator[RunResult | RunFailed]) -> Iterator[RunResult]:
    for result in results:
        if isinstance(result, RunFailed):
            raise result
        yield result


def run_campaign(config: ScenarioConfig, *, workers: int = 1,
                 ) -> Iterator[RunResult]:
    """Stream every run of the (density grid x policies x n_sim) campaign.

    The one place that orders the campaign: results arrive in canonical
    order (density ascending, policy in ``Policy`` order, run index)
    whatever the worker count, and ``summarize`` and ``write_results`` keep
    the order they are given. A run that raises ends the stream at its place
    with ``RunFailed``, after every run before it, at any worker count.
    """
    policies = [p for p in Policy if p.value in config.policies]
    specs = [(config, lm, pol, run)
             for lm in sorted(config.mmw_density_grid_per_km2)
             for pol in policies for run in range(config.n_sim)]
    workers = min(workers, len(specs))
    if workers <= 1:
        yield from _until_failure(map(_run_or_failure, specs))
        return
    import multiprocessing as mp

    ctx = mp.get_context("fork") if "fork" in mp.get_all_start_methods() \
        else mp.get_context()
    with ctx.Pool(processes=workers) as pool:
        yield from _until_failure(pool.imap(_run_or_failure, specs, chunksize=4))
