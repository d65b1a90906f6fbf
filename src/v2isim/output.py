"""Stable machine-readable result emission (CSV / JSON lines).

Every output file starts with a '#'-prefixed comment block echoing the
resolved configuration and tool version, so a results file is always
self-describing.
"""
from __future__ import annotations

import json
import math
from typing import IO, Iterable

from ._version import __version__
from .config import N_CLASSES, POLICY_NAMES, ScenarioConfig
from .engine import RunResult, TIER_NAMES
from .metrics import CellSummary

CSV_COLUMNS = (
    "lambda_m", "policy", "p_lte", "p_sat",
    "mean_rate_1_bps", "p10_1_bps", "jain_1",
    "mean_rate_2_bps", "p10_2_bps", "jain_2",
    "mean_rate_3_bps", "p10_3_bps", "jain_3",
    "mean_rate_4_bps", "p10_4_bps", "jain_4",
    "run_count", "seed", "nonconverged_runs",
)

RUN_DUMP_COLUMNS = ("vn_id", "class_k", "in_region", "tier", "bs_id",
                    "required_rate_bps", "rate_bps")


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _round6(value: float) -> float | None:
    if math.isnan(value):
        return None
    return float(f"{value:.6g}")


def config_header_lines(config: ScenarioConfig) -> list[str]:
    return [
        f"# v2isim {__version__}",
        "# config " + json.dumps(config.to_dict(), sort_keys=True),
    ]


def _cell_values(summary: CellSummary, seed: int) -> list:
    """One cell's row, in CSV_COLUMNS order."""
    values = [float(summary.lambda_m), summary.policy_name,
              summary.p_lte, summary.p_sat]
    for k in range(N_CLASSES):
        values += [summary.mean_rate_bps[k], summary.p10_bps[k], summary.jain[k]]
    return values + [summary.run_count, seed, summary.nonconverged_runs]


def write_results(summaries: Iterable[CellSummary], fmt: str, stream: IO[str],
                  config: ScenarioConfig) -> None:
    """Header comment block, then one row per cell, ordered by density and
    then by policy in POLICY_NAMES order."""
    for line in config_header_lines(config):
        stream.write(line + "\n")
    cells = sorted(summaries, key=lambda s: (s.lambda_m,
                                             POLICY_NAMES.index(s.policy_name)))
    rows = (_cell_values(summary, config.master_seed) for summary in cells)
    if fmt == "csv":
        stream.write(",".join(CSV_COLUMNS) + "\n")
        for values in rows:
            stream.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                                  for v in values) + "\n")
    elif fmt == "jsonl":
        for values in rows:
            stream.write(json.dumps({
                column: _round6(v) if isinstance(v, float) else v
                for column, v in zip(CSV_COLUMNS, values)}) + "\n")
    else:
        raise ValueError(f"unknown output format {fmt!r}")


def write_run_dump(result: RunResult, stream: IO[str],
                   config: ScenarioConfig) -> None:
    """Per-vehicle records of a single run, for debugging."""
    for line in config_header_lines(config):
        stream.write(line + "\n")
    stream.write("# cell lambda_m={} policy={} run_index={} converged={}\n".format(
        _fmt(result.lambda_m), result.policy.value, result.run_index,
        result.converged))
    stream.write(",".join(RUN_DUMP_COLUMNS) + "\n")
    for i in range(result.n_vn):
        stream.write(",".join([
            str(i),
            str(int(result.class_k[i])),
            str(int(result.in_region[i])),
            TIER_NAMES[int(result.tier[i])],
            str(int(result.bs_id[i])),
            _fmt(float(result.required_rate_bps[i])),
            _fmt(float(result.rate_bps[i])),
        ]) + "\n")
