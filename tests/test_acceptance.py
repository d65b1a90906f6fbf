"""Acceptance suite: campaign-level checks at their stated tolerances.

One line per criterion is printed to the real stdout (bypassing capture)
so long campaign runs stream their verdicts live. The heavy-load campaign
(200 runs per cell over the full density grid, three policies) takes a
few minutes on two cores.

Beside the numbered criteria, the campaign law test holds both campaigns to
the per-cell means pinned in ``tests/golden/campaign_law.json``. Running
this file as a script, ``python tests/test_acceptance.py OUT``, runs both
campaigns and writes their law to OUT.
"""
import json
import math
import os
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from v2isim import (
    AssociationState,
    Policy,
    ScenarioConfig,
    initial_attach,
    jain_index,
    realized_rates,
    run_campaign,
    run_once,
    steady_state,
)
from v2isim import channel
from v2isim.channel import Tier
from v2isim.metrics import compute_run_metrics, summarize
from conftest import flat_mmw_params, make_table
import oracles

N_SIM = 200
SEED = 20260809
GRID = tuple(float(x) for x in range(4, 84, 4))

CAMPAIGNS = {
    # an average of 10 vehicles per mmWave station
    "heavy": ScenarioConfig(n_sim=N_SIM, master_seed=SEED,
                            mmw_density_grid_per_km2=GRID),
    # exactly 500 vehicles
    "fixed500": ScenarioConfig(n_sim=N_SIM, master_seed=SEED, vn_mode="FIXED",
                               fixed_vn_count=500,
                               mmw_density_grid_per_km2=(20.0, 40.0, 80.0),
                               policies=("MR", "RA")),
}

LAW = Path(__file__).parent / "golden" / "campaign_law.json"
# over the 660 figures of the two campaigns and their 50 per-policy
# combinations, an unchanged law exceeds it with probability about 0.48%
# (a union bound of two-sided normal tails)
LAW_BOUND_SE = 4.5

PROPERTY_SETTINGS = settings(
    max_examples=10_000, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much,
                           HealthCheck.large_base_example])


def _workers() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def _campaign_runs(name):
    """The per-run ``RunMetrics`` of one of ``CAMPAIGNS``, by (density,
    policy) cell."""
    cfg = CAMPAIGNS[name]
    runs = len(cfg.mmw_density_grid_per_km2) * len(cfg.policies) * cfg.n_sim
    print(f"\n[acceptance] {name} campaign: {runs} runs", file=sys.__stdout__, flush=True)
    per_cell = defaultdict(list)
    for result in run_campaign(cfg, workers=_workers()):
        key = (result.lambda_m, result.policy.value)
        per_cell[key].append(compute_run_metrics(result))
    return dict(per_cell)


@pytest.fixture(scope="session")
def heavy_runs():
    return _campaign_runs("heavy")


@pytest.fixture(scope="session")
def heavy(heavy_runs):
    return {key: summarize(rows) for key, rows in heavy_runs.items()}


@pytest.fixture(scope="session")
def fixed500_runs():
    return _campaign_runs("fixed500")


@pytest.fixture(scope="session")
def fixed500(fixed500_runs):
    return {key: summarize(rows) for key, rows in fixed500_runs.items()}


def check_criterion(num, title, checks):
    failures = [label for label, ok in checks if not ok]
    status = "PASS" if not failures else "FAIL"
    line = f"ACCEPTANCE criterion {num} [{status}]: {title}"
    if failures:
        line += " -- failed: " + "; ".join(failures)
    print(line, file=sys.__stdout__, flush=True)
    assert not failures, line


def test_criterion_01_lte_ratio_ordering(heavy):
    checks = []
    for lam in GRID:
        ms = heavy[(lam, "MS")]["p_lte"]
        ra = heavy[(lam, "RA")]["p_lte"]
        mr = heavy[(lam, "MR")]["p_lte"]
        checks.append((f"p_lte order at lam={lam:g} "
                       f"(MS={ms:.3f}, RA={ra:.3f}, MR={mr:.3f})",
                       ms > ra > mr))
        checks.append((f"p_lte(MS)>=0.60 at lam={lam:g} ({ms:.3f})", ms >= 0.60))
    ra80 = heavy[(80.0, "RA")]["p_lte"]
    checks.append((f"p_lte(RA)@80 in [0.22,0.32] ({ra80:.3f})",
                   0.22 <= ra80 <= 0.32))
    check_criterion(1, "LTE-ratio ordering and levels", checks)


def test_criterion_02_class1_requirement_met(heavy):
    checks = []
    for lam in GRID:
        for pol in ("MS", "MR", "RA"):
            rate = heavy[(lam, pol)]["mean_rate_1_bps"]
            checks.append((f"E[R]_1({pol})@{lam:g} >= 2 Mbps ({rate / 1e6:.2f}M)",
                           rate >= 2e6))
    check_criterion(2, "class-1 requirement met with 2x margin", checks)


def test_criterion_03_class4_policy_ordering(heavy):
    checks = []
    for lam in GRID:
        if lam < 24:
            continue
        ra = heavy[(lam, "RA")]["mean_rate_4_bps"]
        mr = heavy[(lam, "MR")]["mean_rate_4_bps"]
        ms = heavy[(lam, "MS")]["mean_rate_4_bps"]
        checks.append((f"E[R]_4 order at lam={lam:g} "
                       f"(RA={ra / 1e6:.0f}M, MR={mr / 1e6:.0f}M, MS={ms / 1e6:.0f}M)",
                       ra > mr > ms))
    ratio = heavy[(80.0, "RA")]["mean_rate_4_bps"] / heavy[(80.0, "MR")]["mean_rate_4_bps"]
    checks.append((f"RA/MR E[R]_4 ratio @80 in [1.2,1.7] ({ratio:.3f})",
                   1.2 <= ratio <= 1.7))
    check_criterion(3, "class-4 mean-rate policy ordering", checks)


def test_criterion_04_worst_decile_collapse(heavy):
    checks = []
    for lam in GRID:
        if lam < 12:
            continue
        ms = heavy[(lam, "MS")]["p10_4_bps"]
        mr = heavy[(lam, "MR")]["p10_4_bps"]
        ra = heavy[(lam, "RA")]["p10_4_bps"]
        checks.append((f"P10_4(MS)@{lam:g} < 10 Mbps ({ms / 1e6:.2f}M)",
                       ms < 10e6))
        checks.append((f"P10_4 order at lam={lam:g} "
                       f"(RA={ra / 1e6:.0f}M, MR={mr / 1e6:.0f}M, MS={ms / 1e6:.1f}M)",
                       ra > mr > ms))
    ratio = heavy[(40.0, "RA")]["p10_4_bps"] / heavy[(40.0, "MR")]["p10_4_bps"]
    checks.append((f"P10_4 RA/MR @40 >= 1.3 ({ratio:.3f})", ratio >= 1.3))
    check_criterion(4, "worst-decile collapse under MS", checks)


def test_criterion_05_satisfaction(heavy):
    checks = []
    for lam in GRID:
        ra = heavy[(lam, "RA")]["p_sat"]
        mr = heavy[(lam, "MR")]["p_sat"]
        ms = heavy[(lam, "MS")]["p_sat"]
        if lam >= 24:
            checks.append((f"p_sat(RA)@{lam:g} >= 0.95 ({ra:.4f})", ra >= 0.95))
        if lam >= 8:
            checks.append((f"p_sat order at lam={lam:g} "
                           f"(RA={ra:.3f}, MR={mr:.3f}, MS={ms:.3f})",
                           ra > mr > ms))
    check_criterion(5, "satisfaction levels and ordering", checks)


def test_criterion_06_fairness(heavy):
    checks = []
    for lam in GRID:
        ra = heavy[(lam, "RA")]["jain_1"]
        checks.append((f"J_1(RA)@{lam:g} >= 0.94 ({ra:.4f})", ra >= 0.94))
    ms4 = heavy[(4.0, "MS")]["jain_1"]
    ms40 = heavy[(40.0, "MS")]["jain_1"]
    checks.append((f"J_1(MS) decreases from lam=4 ({ms4:.3f}) to <0.25 by "
                   f"lam=40 ({ms40:.3f})", ms40 < ms4 and ms40 < 0.25))
    gap = abs(heavy[(80.0, "RA")]["jain_1"] - heavy[(80.0, "MR")]["jain_1"])
    checks.append((f"|J_1(RA)-J_1(MR)| @80 <= 0.05 ({gap:.4f})", gap <= 0.05))
    check_criterion(6, "class-1 fairness levels", checks)


def test_criterion_07_fixed_load_scenario(fixed500):
    ra40 = fixed500[(40.0, "RA")]["mean_rate_4_bps"]
    mr40 = fixed500[(40.0, "MR")]["mean_rate_4_bps"]
    ratio = ra40 / mr40
    growth = (fixed500[(80.0, "RA")]["mean_rate_4_bps"]
              / fixed500[(20.0, "RA")]["mean_rate_4_bps"])
    checks = [
        (f"E[R]_4 RA/MR @40 in [1.2,1.6] ({ratio:.3f})", 1.2 <= ratio <= 1.6),
        (f"E[R]_4(RA) growth 20->80 >= 4x ({growth:.2f}x)", growth >= 4.0),
    ]
    check_criterion(7, "fixed-load (500 vehicles) scenario", checks)


# --- the campaign law: per-cell means against their pinned values --------

def campaign_law(per_cell):
    """{"<density> <policy>": {figure: [mean, standard error]}}, both over
    the runs in which the figure is defined; [None, None] when no run
    defines it. The figures are a run's ``RunMetrics.figures``; the pooled
    worst-decile rate has no per-run value and stays under criterion 4."""
    order = [p.value for p in Policy]
    law = {}
    for lam, pol in sorted(per_cell, key=lambda key: (key[0], order.index(key[1]))):
        runs = [row.figures for row in per_cell[(lam, pol)]]
        cell = {}
        for figure in runs[0]:
            values = np.array([run[figure] for run in runs])
            values = values[~np.isnan(values)]
            if values.size == 0:
                cell[figure] = [None, None]
                continue
            se = values.std(ddof=1) / math.sqrt(values.size) if values.size > 1 else 0.0
            cell[figure] = [float(values.mean()), float(se)]
        law[f"{lam:g} {pol}"] = cell
    return law


def test_campaign_law(heavy_runs, fixed500_runs):
    """Each cell's mean of each per-run figure lies within LAW_BOUND_SE
    standard errors of the difference from its pinned mean. So does each
    figure's combined z over the cells of one policy in one campaign,
    sum(z) / sqrt(cells) (Stouffer): those cells differ in density, so they
    draw from independent seeds, and the sum is standard normal under an
    unchanged law. It sees a small shift that the cells share."""
    pinned = json.loads(LAW.read_text())
    now = {"heavy": campaign_law(heavy_runs), "fixed500": campaign_law(fixed500_runs)}
    assert {name: list(law) for name, law in now.items()} == \
        {name: list(law) for name, law in pinned.items()}, "the campaigns' cells changed"
    off, moved, largest, count = [], 0, 0.0, 0

    def judge(label, z):
        nonlocal largest, count
        count += 1
        largest = max(largest, abs(z))
        if not abs(z) <= LAW_BOUND_SE:  # NaN fails too
            off.append(f"{label} at {z:+.1f} se")

    for name, law in pinned.items():
        combined = defaultdict(list)
        for cell, figures in law.items():
            policy = cell.split()[1]
            for figure, (mean, se) in figures.items():
                got, got_se = now[name][cell][figure]
                if mean is None or got is None:
                    if (mean is None) != (got is None):
                        off.append(f"{name} {cell} {figure} defined in one law only")
                    continue
                z = 0.0
                if got != mean:
                    moved += 1
                    se_gap = math.hypot(got_se, se)
                    z = (got - mean) / se_gap if se_gap else math.copysign(math.inf, got - mean)
                combined[(policy, figure)].append(z)
                judge(f"{name} {cell} {figure} ({got:.6g} against {mean:.6g})", z)
        for (policy, figure), zs in combined.items():
            judge(f"{name} {policy} {figure} over {len(zs)} cells", sum(zs) / math.sqrt(len(zs)))
    line = (f"ACCEPTANCE campaign law [{'FAIL' if off else 'PASS'}]: {count} statistics, "
            f"{moved} means differ from the pin, largest |z| {largest:.2f}")
    if off:
        line += " -- outside the bound: " + "; ".join(off)
    print(line, file=sys.__stdout__, flush=True)
    assert not off, line


# --- criterion 8: oracle equivalence on micro instances -------------------

def _random_micro_instance(rng):
    """(snr, bw, n_lte, req) of one instance; its stations are drawn with
    their tiers, then put LTE first in their drawn order, so that station j
    is LTE iff j < n_lte."""
    n_vn = int(rng.integers(1, 7))
    n_bs = int(rng.integers(1, 4))
    snr = np.round(rng.uniform(-15.0, 40.0, size=(n_vn, n_bs)), 1)
    bw = rng.choice([20e6, 1e9], size=n_bs)
    is_lte = rng.random(n_bs) < 0.4
    req = rng.choice([1e6, 1e7, 1e8, 1.2e9], size=n_vn)
    order = np.argsort(~is_lte, kind="stable")
    return snr[:, order], bw[order], int(is_lte.sum()), req


def _engine_steady(table, policy, seed):
    state = oracles.check_state(initial_attach(None, table, policy))
    state, picks, converged = steady_state(state, None, table, policy,
                                           np.random.default_rng(seed),
                                           no_change_window_multiplier=50.0,
                                           pick_cap_multiplier=400.0)
    return oracles.check_state(state), picks, converged


def test_criterion_08_oracle_equivalence():
    rng = np.random.default_rng(808)
    n_instances = 1000
    ms_bad = mrra_bad = 0
    for i in range(n_instances):
        snr, bw, n_lte, req = _random_micro_instance(rng)
        table = make_table(snr, bw, n_lte, req)
        instance = oracles.make_instance(
            snr.tolist(), list(bw), [j < n_lte for j in range(len(bw))], list(req), -5.0)

        state, _, converged = _engine_steady(table, Policy.MS, seed=i)
        expected = [oracles.ms_best(list(row), -5.0) for row in snr]
        if not (converged and list(state.assignment) == expected):
            ms_bad += 1

        for policy_name, policy in (("MR", Policy.MR), ("RA", Policy.RA)):
            state, _, converged = _engine_steady(table, policy, seed=1000 + i)
            exists = oracles.find_fixed_point(policy_name, instance) is not None
            if exists:
                ok = converged and oracles.is_fixed_point(
                    policy_name, instance, list(state.assignment))
            else:
                ok = not converged
            if not ok:
                mrra_bad += 1
    checks = [
        (f"MS == argmax oracle on {n_instances} instances ({ms_bad} mismatches)",
         ms_bad == 0),
        (f"MR/RA reach an exhaustive-oracle fixed point whenever one exists "
         f"({mrra_bad} mismatches)", mrra_bad == 0),
    ]
    check_criterion(8, "engine/oracle equivalence on micro instances", checks)


# --- criterion 9: property suite at >= 10^4 cases each ---------------------

rate_values = st.one_of(st.just(0.0), st.floats(1e3, 1e12))


@PROPERTY_SETTINGS
@given(xs=st.lists(rate_values, min_size=1, max_size=40).filter(
    lambda xs: any(x > 0 for x in xs)),
    scale=st.floats(1e-4, 1e6))
def prop_jain_bounds_and_scale_invariance(xs, scale):
    rates = np.asarray(xs)
    j = jain_index(rates)
    n = len(xs)
    assert 1.0 / n - 1e-12 <= j <= 1.0 + 1e-12
    j_scaled = jain_index(rates * scale)
    assert abs(j_scaled - j) <= 1e-12 * max(1.0, j)
    positive = rates[rates > 0]
    if len(positive) == len(rates):
        spread = positive.max() / positive.min() - 1.0
        if spread == 0.0:
            assert abs(j - 1.0) <= 1e-12
        elif spread > 1e-4:
            assert j < 1.0


@PROPERTY_SETTINGS
@given(snr_cents=st.lists(st.integers(-2000, 4000), min_size=1, max_size=8),
       slope_cents=st.integers(25, 400), offset_cents=st.integers(-5000, 5000))
def prop_ms_argmax_invariant_under_monotone_transform(snr_cents, slope_cents,
                                                      offset_cents):
    # the MS choice is the table's strongest station
    snr = np.array([[c / 100.0 for c in snr_cents]])
    slope = slope_cents / 100.0
    offset = offset_cents / 100.0
    n = snr.shape[1]
    base = make_table(snr, [1e9] * n, 0)
    transformed = make_table(slope * snr + offset, [1e9] * n, 0,
                             snr_threshold_db=slope * -5.0 + offset)
    assert base.strongest_bs[0] == transformed.strongest_bs[0]


@PROPERTY_SETTINGS
@given(snr=st.floats(-5.0, 60.0), bw=st.floats(1e6, 2e9),
       load=st.integers(1, 500))
def prop_rate_load_doubling_halves_exactly(snr, bw, load):
    table = make_table([[snr, snr - 66.0]], [bw, bw], 0)

    def rate(bs, m):
        loads = np.zeros(2, dtype=np.int64)
        loads[bs] = m
        return realized_rates(AssociationState(np.array([bs]), loads), table)[0]

    assert rate(0, 2 * load) == rate(0, load) / 2.0
    assert rate(1, load) == 0.0


@PROPERTY_SETTINGS
@given(tx=st.floats(-10.0, 50.0), bs_elements=st.integers(1, 64),
       vn_elements=st.integers(1, 64), pl=st.floats(30.0, 180.0),
       bw=st.floats(1e5, 4e9))
def prop_snr_db_linear_roundtrip(tx, bs_elements, vn_elements, pl, bw):
    # the budget as the table build folds it: the LOS intercept of the
    # mmWave law at a path loss of pl at every distance
    params = flat_mmw_params(tx, bs_elements, vn_elements, pl, bw)
    value = channel._snr_law(Tier.MMWAVE, params)[0]
    gain = float(bs_elements * vn_elements)
    linear = 10.0 ** (value / 10.0)
    direct = (10.0 ** (tx / 10.0) * gain
              / (10.0 ** (pl / 10.0) * 10.0 ** (-174.0 / 10.0) * bw))
    assert abs(linear - direct) / direct < 1e-9


@PROPERTY_SETTINGS
@given(data=st.data())
def prop_load_consistency_through_dynamics(data):
    n_vn = data.draw(st.integers(0, 12), label="n_vn")
    n_bs = data.draw(st.integers(1, 4), label="n_bs")
    snr_cents = data.draw(st.lists(
        st.integers(-1500, 4000), min_size=n_vn * n_bs, max_size=n_vn * n_bs),
        label="snr")
    policy = data.draw(st.sampled_from(list(Policy)), label="policy")
    seed = data.draw(st.integers(0, 2**31), label="seed")
    snr = np.array(snr_cents, dtype=float).reshape(n_vn, n_bs) / 100.0
    table = make_table(snr, [1e9] * n_bs, 0)
    state = oracles.check_state(initial_attach(None, table, policy))
    state, _, _ = steady_state(state, None, table, policy,
                               np.random.default_rng(seed))
    oracles.check_state(state)
    assert int(state.loads.sum()) + int(np.sum(state.assignment == -1)) == n_vn


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**48), lam=st.sampled_from([0.0, 2.0, 6.0, 12.0]),
       policy=st.sampled_from(list(Policy)))
def prop_seed_determinism(seed, lam, policy):
    cfg = ScenarioConfig(area_km2=0.25, n_sim=1)
    a = run_once(cfg, lam, policy, seed)
    b = run_once(cfg, lam, policy, seed)
    assert np.array_equal(a.rate_bps, b.rate_bps)
    assert np.array_equal(a.bs_id, b.bs_id)
    assert np.array_equal(a.class_k, b.class_k)
    assert np.array_equal(a.in_region, b.in_region)
    assert a.convergence_iterations == b.convergence_iterations


PROPERTIES = (
    ("Jain bounds and scale invariance", prop_jain_bounds_and_scale_invariance),
    ("MS argmax invariance under monotone transforms",
     prop_ms_argmax_invariant_under_monotone_transform),
    ("rate B/m halving", prop_rate_load_doubling_halves_exactly),
    ("SNR dB/linear round-trip", prop_snr_db_linear_roundtrip),
    ("load-consistency assertions", prop_load_consistency_through_dynamics),
    ("seed determinism", prop_seed_determinism),
)


def test_criterion_09_property_suite():
    checks = []
    for title, prop in PROPERTIES:
        try:
            prop()
            checks.append((title, True))
        except Exception as exc:  # hypothesis reports the falsifying example
            first_line = str(exc).strip().splitlines()[:1] or [repr(exc)]
            checks.append((f"{title} ({first_line[0]})", False))
    check_criterion(9, "property suite at 10^4 cases each", checks)


if __name__ == "__main__":
    # regenerate the pinned campaign law: python tests/test_acceptance.py OUT
    Path(sys.argv[1]).write_text(json.dumps(
        {name: campaign_law(_campaign_runs(name)) for name in CAMPAIGNS}, indent=1) + "\n")
