"""Self-tests of the benchmark's checks, and a smoke run of each workload.

    python3 perfbench/selftest.py

Each planted fault must be rejected by the check written for it; the clean
data must pass. Run from the root of a source checkout.
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile

import numpy as np

import checks
from run import OUT, ROOT, WORKLOADS, Verifier, run_cli, simulator

SEED = 3
LAMBDAS = (4.0, 40.0)
POLICIES = ("MS", "MR", "RA")
RUNS = 3


def campaign():
    """A small CLI campaign, its rows and the runs behind them."""
    OUT.mkdir(exist_ok=True)
    out = OUT / "selftest.csv"
    args = ["--lambda-m", ",".join(f"{x:g}" for x in LAMBDAS), "--runs", str(RUNS),
            "--seed", str(SEED)]
    for pol in POLICIES:
        args += ["--policy", pol]
    _, _, code = run_cli(args, out)
    assert code == 0, "the CLI failed on the self-test campaign"
    cfg_dict, rows = checks.parse_csv(out.read_text(encoding="utf-8"))
    v2isim = simulator()
    config = v2isim.config.config_from_dict(cfg_dict)
    by_cell = {}
    for lam in LAMBDAS:
        for pol in POLICIES:
            by_cell[(lam, pol)] = [
                v2isim.engine.run_once(config, lam, v2isim.policy.Policy(pol),
                                       checks.run_seed(SEED, lam, pol, i))
                for i in range(RUNS)]
    return cfg_dict, rows, by_cell


def test_rows(cfg_dict, rows, by_cell):
    cells = {key: checks.reduce_cell(rs) for key, rs in by_cell.items()}
    assert checks.check_rows(rows, cells, SEED) == [], "clean rows rejected"

    rng = np.random.default_rng(0)
    for _ in range(20):
        bad = [dict(r) for r in rows]
        row = bad[int(rng.integers(len(bad)))]
        column = checks.csv_column(checks.FIGURES[int(rng.integers(len(checks.FIGURES)))])
        text = row[column]
        if text == "nan":
            continue
        mantissa, _, exponent = text.partition("e")
        step = 1 if mantissa[-1] != "9" else -1
        row[column] = mantissa[:-1] + str(int(mantissa[-1]) + step) + (
            "e" + exponent if exponent else "")
        assert checks.check_rows(bad, cells, SEED), \
            f"last-digit change of {column} {text} -> {row[column]} accepted"

    for drop in range(len(rows)):
        assert checks.check_rows(rows[:drop] + rows[drop + 1:], cells, SEED), \
            f"dropping row {drop} accepted"


def test_vehicles(cfg_dict, by_cell):
    for (lam, pol), results in by_cell.items():
        ch = checks.derive_channel(cfg_dict, lam, checks.run_seed(SEED, lam, pol, 0))
        result = results[0]
        assert checks.check_vehicles(ch, pol, result) == [], f"clean {lam:g} {pol} run rejected"
        attached = np.flatnonzero(result.bs_id >= 0)
        if attached.size == 0:
            continue
        v = int(attached[len(attached) // 2])
        for factor in (1.0 + 1e-6, 0.5):
            bad = copy.deepcopy(result)
            bad.rate_bps[v] *= factor
            assert checks.check_vehicles(ch, pol, bad), \
                f"rate x{factor} on {lam:g} {pol} accepted"
        if pol == "MS":
            to = next(j for j in np.flatnonzero(ch.unit_rate_bps[v] > 0)
                      if j != result.bs_id[v])
            assert checks.check_vehicles(ch, pol, _moved(ch, result, v, int(to))), \
                f"MS vehicle off its highest-SNR station on {lam:g} accepted"


def _moved(ch, result, v: int, to: int):
    """``result`` with vehicle ``v`` on station ``to`` and every rate and
    tier made consistent again, so only the equilibrium check can object."""
    bad = copy.deepcopy(result)
    bad.bs_id[v] = to
    loads = checks.station_loads(bad.bs_id, ch.n_bs)
    on = np.flatnonzero(bad.bs_id >= 0)
    bad.rate_bps[on] = ch.unit_rate_bps[on, bad.bs_id[on]] / loads[bad.bs_id[on]]
    bad.tier[v] = checks.TIER_LTE if to < ch.n_lte else checks.TIER_MMWAVE
    assert checks.check_vehicles(ch, "MR", bad) == [], "moved run fails the wrong check"
    return bad


def test_equilibrium(cfg_dict, by_cell):
    planted = set()
    for (lam, pol), results in by_cell.items():
        if pol == "MS":
            continue
        # a run the stopping-rule fault left off equilibrium is no base
        channels = [checks.derive_channel(cfg_dict, lam, checks.run_seed(SEED, lam, pol, i))
                    for i in range(len(results))]
        clean = [(ch, r) for ch, r in zip(channels, results)
                 if not checks.movers(ch, pol, r.bs_id)]
        if not clean:
            continue
        ch, result = clean[0]
        bs = result.bs_id
        # any attached vehicle moved to another usable station
        v = next(v for v in np.flatnonzero(bs >= 0)
                 if np.count_nonzero(ch.unit_rate_bps[v] > 0) > 1)
        to = next(j for j in np.flatnonzero(ch.unit_rate_bps[v] > 0) if j != bs[v])
        assert checks.movers(ch, pol, _moved(ch, result, int(v), int(to)).bs_id), \
            f"vehicle moved off its best response on {lam:g} {pol} accepted"
        planted.add(pol)
        if pol != "RA":
            continue
        # an RA vehicle that LTE serves above its requirement, moved to a
        # mmWave station that pays it more: better for it, but against the
        # LTE-first rule, so the check must name that very vehicle
        loads = checks.station_loads(bs, ch.n_bs)
        for v in np.flatnonzero((bs >= 0) & (bs < ch.n_lte)):
            mmw = ch.unit_rate_bps[v, ch.n_lte:] / (loads[ch.n_lte:] + 1.0)
            if mmw.size and mmw.max() > result.rate_bps[v]:
                bad = _moved(ch, result, int(v), ch.n_lte + int(mmw.argmax()))
                assert any(m[0] == v for m in checks.movers(ch, pol, bad.bs_id)), \
                    f"LTE-first breach on {lam:g} RA accepted"
                planted.add("RA LTE-first")
                break
    assert planted == {"MR", "RA", "RA LTE-first"}, f"planted only {sorted(planted)}"


def test_allowance(cfg_dict):
    """A no-change window cut from 3*M to M picks leaves about half of the
    MR/RA runs off equilibrium: more than the allowance, which the same runs
    at the default window stay within."""
    v2isim = simulator()
    for window, rejected in ((cfg_dict["no_change_window_multiplier"], False), (1.0, True)):
        cfg = dict(cfg_dict, no_change_window_multiplier=window)
        config = v2isim.config.config_from_dict(cfg)
        verifier = Verifier(cfg)
        for lam in (40.0, 80.0):
            for pol in ("MR", "RA"):
                for i in range(5):
                    result = v2isim.engine.run_once(config, lam, v2isim.policy.Policy(pol),
                                                    checks.run_seed(SEED, lam, pol, i))
                    verifier.run(SEED, lam, pol, i, result)
        verifier.judge_equilibrium()
        assert bool(verifier.problems) == rejected, (
            f"window {window:g}*M: {len(verifier.off_equilibrium)} of "
            f"{len(verifier.equilibrium_runs)} runs off equilibrium, problems "
            f"{verifier.problems}")


def test_no_source():
    """Without the simulator's source the benchmark exits non-zero and
    prints no result."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "perfbench", f"{tmp}/perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and not proc.stdout.strip(), "ran without a simulator"


def smoke(name: str, trace: int):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", name,
                           "--seed", "11", "--seconds", "0.1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    assert all(m["value"] is not None for m in result["metrics"].values()), result


def main() -> int:
    data = campaign()
    cfg_dict, rows, by_cell = data
    tests = [("CSV last digit and dropped row", lambda: test_rows(*data)),
             ("wrong rate, MS off its best SNR", lambda: test_vehicles(cfg_dict, by_cell)),
             ("off best response, RA off LTE-first", lambda: test_equilibrium(cfg_dict, by_cell)),
             ("shortened no-change window", lambda: test_allowance(cfg_dict)),
             ("no simulator source", test_no_source)]
    tests += [(f"smoke {name} trace {trace}", lambda n=name, t=trace: smoke(n, t))
              for name in WORKLOADS for trace in (0, 1)]
    failures = 0
    for label, test in tests:
        try:
            test()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {label}: {exc}", flush=True)
        else:
            print(f"PASS {label}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
