"""The traced run: the simulator's layers called one by one from here.

Each run is computed twice: once by ``engine.run_once`` (the reference, and
the untraced timing), and once by calling the public functions that
``run_once`` composes, in its order, with a span around each call. The two
must agree exactly on assignment, rates, picks and ``converged``. A layer
whose function a later version no longer has is reported as absent.
"""
from __future__ import annotations

import io
import json
import math
import pickle
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

import checks
from run import OUT, ROOT, Verifier, Workload, campaign_config, cli_env, simulator

IMPORT_REPEATS = 5

PER_LAYER_UNITS = {
    "geometry.build_snapshot_ms": "ms",
    "channel.build_link_table_ms": "ms",
    "channel.link_table_mib": "MiB",
    "engine.initial_attach_ms": "ms",
    "engine.steady_state_ms": "ms",
    "engine.us_per_pick": "us",
    "engine.picks": "count",
    "policy.kernel_calls": "count",
    "engine.run_once_ms": "ms",
    "engine.nonconverged_runs": "count",
    "engine.offeq_runs": "count",
    "engine.result_kib": "KiB",
    "engine.run_campaign_wait_s": "s",
    "metrics.compute_run_metrics_ms": "ms",
    "metrics.summarize_ms": "ms",
    "output.write_results_ms": "ms",
    "cli.import_s": "s",
}


class Tracer:
    """Spans kept in memory: name, start, end, parent span, run id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, run: str | None = None):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "run": run, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of the spans called ``name``."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]


class CountingKernels:
    """Counts calls through the policy kernel table the engine looks up."""

    def __init__(self, policy_module):
        self.table = getattr(policy_module, "POLICY_KERNELS", None)
        self.calls = 0

    @contextmanager
    def active(self):
        if self.table is None:
            yield
            return
        originals = dict(self.table)

        def counted(kernel):
            def call(*args, **kwargs):
                self.calls += 1
                return kernel(*args, **kwargs)
            return call

        self.table.update({k: counted(f) for k, f in originals.items()})
        try:
            yield
        finally:
            self.table.update(originals)


def decompose(v2isim, tr: Tracer, config, lam: float, policy, seed, run: str):
    """run_once, call by call. Returns (link table, assignment, rates,
    picks, converged), or None when a layer function is absent."""
    geometry, channel, engine = v2isim.geometry, v2isim.channel, v2isim.engine
    steps = [getattr(module, name, None) for module, name in (
        (geometry, "build_snapshot"), (channel, "build_link_table"),
        (engine, "initial_attach"), (engine, "steady_state"),
        (engine, "realized_rates"))]
    if any(step is None for step in steps):
        return None
    build_snapshot, build_link_table, initial_attach, steady_state, realized_rates = steps
    rng = np.random.default_rng(seed)
    with tr.span("geometry.build_snapshot", run):
        snapshot = build_snapshot(config, lam, rng)
    with tr.span("channel.build_link_table", run):
        table = build_link_table(snapshot, rng, config.channel, config.snr_threshold_db)
    with tr.span("engine.initial_attach", run):
        state = initial_attach(snapshot, table, policy)
    with tr.span("engine.steady_state", run):
        state, picks, converged = steady_state(
            state, snapshot, table, policy, rng,
            no_change_window_multiplier=config.no_change_window_multiplier,
            pick_cap_multiplier=config.pick_cap_multiplier)
    with tr.span("engine.realized_rates", run):
        rates = realized_rates(state, table)
    return table, state.assignment, rates, picks, converged


def _mib(table) -> float:
    arrays = [v for v in vars(table).values() if isinstance(v, np.ndarray)]
    return sum(a.nbytes for a in arrays) / 2**20


def import_seconds() -> float:
    """Median time to import the CLI module in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import v2isim.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=cli_env(),
                             check=True, capture_output=True, text=True).stdout
        times.append(float(out.split()[-1]))
    return statistics.median(times)


def _traced_round(v2isim, tr: Tracer, kernels: CountingKernels, name: str,
                  workload: Workload, seed: int, cfg_dict: dict,
                  verifier: Verifier, timings: dict) -> dict:
    """One round of the campaign, traced and checked. Appends to
    ``timings`` and returns the round's counts."""
    engine, metrics, output, policy = v2isim.engine, v2isim.metrics, v2isim.output, v2isim.policy
    config = campaign_config(v2isim, cfg_dict, workload, seed)
    counts = {"picks": 0, "kernel_calls": 0, "nonconverged": 0}

    # The whole campaign through engine.run_campaign at the workload's
    # worker count: how long the parent waits for each result.
    pooled = None
    run_campaign = getattr(engine, "run_campaign", None)
    if run_campaign is not None:
        with tr.span("engine.run_campaign", name):
            stream = iter(run_campaign(config, workers=workload.parallel))
            pooled, wait = [], 0.0
            while True:
                t0 = time.perf_counter()
                item = next(stream, None)
                wait += time.perf_counter() - t0
                if item is None:
                    break
                pooled.append(item)
        timings["wait_s"].append(wait)

    by_cell, metric_rows = {}, {}
    for k, (lam, pol, index) in enumerate(workload.specs()):
        run = run_id(seed, lam, pol, index)
        pol_enum = policy.Policy(pol)
        seed_seq = checks.run_seed(seed, lam, pol, index)
        with tr.span("run", run):
            with tr.span("engine.run_once", run):
                ref = engine.run_once(config, lam, pol_enum, seed_seq)
            if pooled is not None and not _same(
                    ref, pooled[k].bs_id, pooled[k].rate_bps,
                    pooled[k].convergence_iterations, pooled[k].converged):
                verifier.problems.append(f"run {run}: run_campaign and run_once differ")
            with tr.span("decomposition", run), kernels.active():
                calls = kernels.calls
                try:
                    parts = decompose(v2isim, tr, config, lam, pol_enum, seed_seq, run)
                except TypeError as exc:  # a layer's signature changed
                    print(f"[perfbench] call-by-call run not possible: {exc}", file=sys.stderr)
                    parts = None
            if parts is None:
                timings["absent"].add("decomposition")
            else:
                table, assignment, rates, picks, converged = parts
                if not _same(ref, assignment, rates, picks, converged):
                    verifier.problems.append(f"run {run}: the call-by-call run differs from run_once")
                counts["picks"] += picks
                counts["kernel_calls"] += kernels.calls - calls
                size = table.n_vn * table.n_bs
                if size > timings["largest"][0]:
                    timings["largest"] = (size, _mib(table))
            verifier.run(seed, lam, pol, index, ref)
            counts["nonconverged"] += not ref.converged
            ref.run_index = index
            timings["result_kib"].append(len(pickle.dumps(ref)) / 1024)
            by_cell.setdefault((lam, pol), []).append(ref)
            if getattr(metrics, "compute_run_metrics", None) is not None:
                with tr.span("metrics.compute_run_metrics", run):
                    metric_rows.setdefault((lam, pol), []).append(
                        metrics.compute_run_metrics(ref))

    summaries = []
    if getattr(metrics, "summarize", None) is not None:
        for (lam, pol), rows in metric_rows.items():
            with tr.span("metrics.summarize", f"{lam:g}:{pol}"):
                summaries.append(metrics.summarize(rows))
    if summaries and getattr(output, "write_results", None) is not None:
        buffer = io.StringIO()
        with tr.span("output.write_results", name):
            output.write_results(summaries, "csv", buffer, config)
        _, rows = checks.parse_csv(buffer.getvalue())
        verifier.rows(rows, by_cell, seed)
    return counts


def _same(ref, assignment, rates, picks, converged) -> bool:
    return (np.array_equal(assignment, ref.bs_id) and np.array_equal(rates, ref.rate_bps)
            and picks == ref.convergence_iterations and converged == ref.converged)


def run_id(master: int, lam: float, pol: str, index: int) -> str:
    return f"{lam:g}:{pol}:{index}@{master}"


def run(name: str, workload: Workload, seed: int, seconds: float) -> dict:
    v2isim = simulator()
    cfg_dict = v2isim.config.ScenarioConfig().to_dict()
    verifier = Verifier(cfg_dict)
    tr = Tracer()
    kernels = CountingKernels(v2isim.policy)
    timings = {"wait_s": [], "result_kib": [], "largest": (-1, math.nan),
               "absent": set()}
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        rounds.append(_traced_round(v2isim, tr, kernels, name, workload, seed,
                                    cfg_dict, verifier, timings))
    import_s = import_seconds()

    # counts repeat exactly from round to round; timings are medians over
    # every round's campaign runs
    counts = rounds[0]

    def med_ms(span: str) -> float:
        values = tr.durations(span)
        return 1e3 * statistics.median(values) if values else math.nan

    def med(values) -> float:
        return statistics.median(values) if values else math.nan

    steady = sum(tr.durations("engine.steady_state"))
    picks = counts["picks"] * len(rounds)
    values = {
        "geometry.build_snapshot_ms": med_ms("geometry.build_snapshot"),
        "channel.build_link_table_ms": med_ms("channel.build_link_table"),
        "channel.link_table_mib": timings["largest"][1],
        "engine.initial_attach_ms": med_ms("engine.initial_attach"),
        "engine.steady_state_ms": med_ms("engine.steady_state"),
        "engine.us_per_pick": 1e6 * steady / picks if picks else math.nan,
        "engine.picks": counts["picks"],
        "policy.kernel_calls": counts["kernel_calls"],
        "engine.run_once_ms": med_ms("engine.run_once"),
        "engine.nonconverged_runs": counts["nonconverged"],
        "engine.offeq_runs": len(verifier.off_equilibrium),
        "engine.result_kib": med(timings["result_kib"]),
        "engine.run_campaign_wait_s": med(timings["wait_s"]),
        "metrics.compute_run_metrics_ms": med_ms("metrics.compute_run_metrics"),
        "metrics.summarize_ms": 1e3 * med(tr.durations("metrics.summarize")),
        "output.write_results_ms": 1e3 * med(tr.durations("output.write_results")),
        "cli.import_s": import_s,
    }
    if "decomposition" in timings["absent"]:
        for key in ("geometry.build_snapshot_ms", "channel.build_link_table_ms",
                    "channel.link_table_mib", "engine.initial_attach_ms",
                    "engine.steady_state_ms", "engine.us_per_pick", "engine.picks",
                    "policy.kernel_calls"):
            values[key] = math.nan
    metrics = {k: (None if math.isnan(v) else v, PER_LAYER_UNITS[k])
               for k, v in values.items()}
    absent = sorted(k for k, (v, _) in metrics.items() if v is None)
    for key in absent:
        print(f"[perfbench] layer absent: {key}", file=sys.stderr)

    overhead = (med(tr.durations("decomposition"))
                / med(tr.durations("engine.run_once")) - 1.0)
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{name}-seed{seed}.json"
    trace_path.write_text(json.dumps({
        "workload": name, "seed": seed, "rounds": len(rounds),
        "tracing_overhead": overhead, "absent": absent,
        "per_layer": {k: v for k, (v, _) in metrics.items()},
        "spans": tr.spans}), encoding="utf-8")
    print(f"[perfbench] traced {len(rounds)} round(s); tracing overhead "
          f"{overhead:+.1%} (call-by-call vs run_once medians); spans in {trace_path}",
          file=sys.stderr)
    return {"verifier": verifier, "attempted": len(rounds) * workload.n_runs, "failed": 0,
            "metrics": metrics,
            "detail": {"tracing_overhead": overhead, "absent_layers": absent}}
