"""Byte-for-byte regression test of the CLI's output on a small campaign.

The pinned files and the commands that produced them are listed in
tests/golden/README.md.
"""
from pathlib import Path

import pytest

from v2isim.cli import main

GOLDEN = Path(__file__).parent / "golden"
SEED = ["--seed", "20261018"]

CASES = {
    "per_mmw_bs.csv": ["--lambda-m", "4,24,48", "--runs", "8", *SEED],
    "fixed120.jsonl": ["--config", str(GOLDEN / "fixed120.json"),
                       "--lambda-m", "8,40", "--runs", "5", *SEED,
                       "--format", "jsonl"],
    "dump_40_RA_3.csv": ["--runs", "8", *SEED, "--dump-run", "40:RA,3"],
}


def cli_bytes(tmp_path, args) -> bytes:
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(tmp_path, name):
    assert cli_bytes(tmp_path, CASES[name]) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", ["per_mmw_bs.csv", "fixed120.jsonl"])
def test_parallel_writes_the_golden_output(tmp_path, name):
    args = [*CASES[name], "--parallel", "2"]
    assert cli_bytes(tmp_path, args) == (GOLDEN / name).read_bytes()
