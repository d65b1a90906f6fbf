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
from .channel import Tier
from .config import ScenarioConfig
from .engine import RunResult
from .metrics import CSV_COLUMNS

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


def write_results(cells: Iterable[dict], fmt: str, stream: IO[str],
                  config: ScenarioConfig) -> None:
    """Header comment block, then one row per cell (a ``summarize`` row
    plus the config's master seed) in the order given, each flushed once
    written; ``run_campaign``'s order, density then policy, is canonical."""
    for line in config_header_lines(config):
        stream.write(line + "\n")
    seeded = ({**cell, "seed": config.master_seed} for cell in cells)
    rows = ([row[column] for column in CSV_COLUMNS] for row in seeded)
    if fmt == "csv":
        stream.write(",".join(CSV_COLUMNS) + "\n")
        for values in rows:
            stream.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                                  for v in values) + "\n")
            stream.flush()
    elif fmt == "jsonl":
        for values in rows:
            stream.write(json.dumps({
                column: _round6(v) if isinstance(v, float) else v
                for column, v in zip(CSV_COLUMNS, values)}) + "\n")
            stream.flush()
    else:
        raise ValueError(f"unknown output format {fmt!r}")


def write_run_dump(result: RunResult, run_index: int, stream: IO[str],
                   config: ScenarioConfig) -> None:
    """Per-vehicle records of run ``run_index`` of its cell, for debugging."""
    for line in config_header_lines(config):
        stream.write(line + "\n")
    stream.write("# cell lambda_m={} policy={} run_index={} converged={}\n".format(
        _fmt(result.lambda_m), result.policy.value, run_index, result.converged))
    stream.write(",".join(RUN_DUMP_COLUMNS) + "\n")
    for i, tier in enumerate(result.tier.tolist()):
        stream.write(",".join([
            str(i),
            str(int(result.class_k[i])),
            str(int(result.in_region[i])),
            Tier(tier).name,
            str(int(result.bs_id[i])),
            _fmt(float(result.required_rate_bps[i])),
            _fmt(float(result.rate_bps[i])),
        ]) + "\n")
