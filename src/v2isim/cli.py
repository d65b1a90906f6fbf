"""Command-line entry point: configure, run the campaign, emit results."""
from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from dataclasses import replace
from itertools import islice
from typing import Iterator, Sequence

from .config import POLICY_NAMES, ConfigError, Policy, ScenarioConfig, density_text, load_config
from .engine import RunFailed, run_campaign, run_spec
from .metrics import compute_run_metrics, summarize
from .output import write_results, write_run_dump

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_STOPPED = 2  # an i/o error or a failed run; the output holds every finished cell


class _Parser(argparse.ArgumentParser):
    # flag mistakes are configuration errors, keep exit code 1 for them
    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _parse_lambda_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"--lambda-m: {exc}") from exc
    if not values:
        raise ConfigError("--lambda-m: empty list")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="v2isim",
        description="Monte Carlo comparison of vehicle attachment policies "
                    "in a heterogeneous LTE + mmWave network.")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON scenario config ('-' reads stdin); "
                             "defaults apply for absent keys")
    parser.add_argument("--policy", action="append", choices=POLICY_NAMES,
                        help="policy to simulate (repeatable, overrides config)")
    parser.add_argument("--lambda-m", metavar="LIST", dest="lambda_m",
                        help="comma-separated mmWave densities per km^2 "
                             "(overrides the config grid)")
    parser.add_argument("--runs", type=int, metavar="N",
                        help="Monte Carlo runs per cell (overrides n_sim)")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="master seed (overrides config)")
    parser.add_argument("--format", choices=["csv", "jsonl"], default="csv",
                        help="output format (default csv)")
    parser.add_argument("--out", metavar="PATH",
                        help="output file (default: standard output)")
    parser.add_argument("--parallel", type=int, default=1, metavar="N",
                        help="worker processes (default 1; output bytes do "
                             "not depend on this)")
    parser.add_argument("--dump-run", metavar="CELL,INDEX",
                        help="emit the per-vehicle records of one run, e.g. "
                             "4:MS,0, instead of running the campaign")
    return parser


def _effective_config(args: argparse.Namespace) -> ScenarioConfig:
    config = load_config(args.config) if args.config else ScenarioConfig()
    overrides = {}
    if args.policy:
        overrides["policies"] = tuple(dict.fromkeys(args.policy))
    if args.lambda_m:
        overrides["mmw_density_grid_per_km2"] = _parse_lambda_list(args.lambda_m)
    if args.runs is not None:
        overrides["n_sim"] = args.runs
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    return replace(config, **overrides)


def _dump_spec(config: ScenarioConfig, args: argparse.Namespace,
               ) -> tuple[ScenarioConfig, float, Policy, int]:
    """The run that --dump-run names, checked against the config."""
    if args.format != "csv":
        raise ConfigError(f"--dump-run: writes csv only, not --format {args.format}")
    try:
        cell, index_text = args.dump_run.rsplit(",", 1)
        lambda_text, policy_name = cell.split(":")
        lambda_m, run_index = float(lambda_text), int(index_text)
    except ValueError as exc:
        raise ConfigError("--dump-run: expected LAMBDA:POLICY,INDEX (e.g. 4:MS,0), "
                          f"got {args.dump_run!r}") from exc
    try:
        policy = Policy(policy_name.strip().upper())
    except ValueError as exc:
        raise ConfigError(f"--dump-run: unknown policy {policy_name!r}") from exc
    if run_index < 0 or run_index >= config.n_sim:
        raise ConfigError(f"--dump-run: run index {run_index} outside 0..{config.n_sim - 1}")
    try:  # a ScenarioConfig checks its densities when it is built
        replace(config, mmw_density_grid_per_km2=(lambda_m,))
    except ConfigError as exc:
        raise ConfigError(f"--dump-run: {exc}") from exc
    return config, lambda_m, policy, run_index


def _cells(config: ScenarioConfig, workers: int) -> Iterator[dict]:
    """Each cell's ``summarize`` row as soon as its ``n_sim``-th run is in,
    in ``run_campaign``'s order. A cell's progress line follows its yield,
    so it appears once the row has been written."""
    runs = map(compute_run_metrics, run_campaign(config, workers=workers))
    total = len(config.mmw_density_grid_per_km2) * len(config.policies)
    for done in range(1, total + 1):
        cell = summarize(islice(runs, config.n_sim))
        yield cell
        print(f"[v2isim] cell {done}/{total} done "
              f"(lambda_m={density_text(cell['lambda_m'])}, policy={cell['policy']})",
              file=sys.stderr, flush=True)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.parallel < 1:
            raise ConfigError(f"--parallel: must be >= 1, got {args.parallel}")
        config = _effective_config(args)
        dump = _dump_spec(config, args) if args.dump_run else None
        # opened before the first run, so an unwritable --out fails at once
        with (open(args.out, "w", encoding="utf-8", newline="") if args.out
              else nullcontext(sys.stdout)) as stream:
            if dump:
                write_run_dump(run_spec(dump), dump[3], stream, config)
            else:
                write_results(_cells(config, args.parallel), args.format,
                              stream, config)
    except ConfigError as exc:
        print(f"v2isim: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"v2isim: i/o error: {exc}", file=sys.stderr)
        return EXIT_STOPPED
    except RunFailed as exc:
        print(f"v2isim: {exc}", file=sys.stderr)
        return EXIT_STOPPED
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
