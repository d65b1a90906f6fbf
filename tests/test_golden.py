"""Byte-for-byte regression test of the CLI's output on a small campaign.

The pinned files and the commands that produced them are listed in
tests/golden/README.md. Each command runs in process, with --parallel 2,
in a ``python -O -W error::RuntimeWarning`` child and, on x86-64, in a
child held to numpy's baseline SIMD dispatch.
"""
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import v2isim
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

# the src root of the imported package, so that a child runs the same code
# whether v2isim is installed or imported from PYTHONPATH=src
SRC = str(Path(v2isim.__file__).parents[1])
# asserts compiled out, and a floating-point warning that escapes numpy's
# errstate fails the run
OPTIMIZED = ["-O", "-W", "error::RuntimeWarning"]
# numpy's dispatch held to X86_V2: the link tables then differ in their low
# bits, and the 6-digit rounding of the output must keep the bytes
BASELINE_SIMD = {"NPY_ENABLE_CPU_FEATURES": "X86_V2"}
x86_64_only = pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="X86_V2 is an x86-64 feature level")


def cli_bytes(tmp_path, args) -> bytes:
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) == 0
    return out.read_bytes()


def run_child(argv, flags=(), env=None) -> str:
    """Standard output of ``python *flags *argv`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, *flags, *argv], env={**os.environ, "PYTHONPATH": SRC, **(env or {})},
        stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def child_bytes(tmp_path, args, flags=(), env=None) -> bytes:
    out = tmp_path / "out"
    run_child(["-m", "v2isim.cli", *args, "--out", str(out)], flags, env)
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(tmp_path, name):
    assert cli_bytes(tmp_path, CASES[name]) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", ["per_mmw_bs.csv", "fixed120.jsonl"])
def test_parallel_writes_the_golden_output(tmp_path, name):
    args = [*CASES[name], "--parallel", "2"]
    assert cli_bytes(tmp_path, args) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name, parallel", [
    *((name, "1") for name in sorted(CASES)), ("per_mmw_bs.csv", "2")])
def test_optimized_child_writes_the_golden_output(tmp_path, name, parallel):
    args = [*CASES[name], "--parallel", parallel]
    assert child_bytes(tmp_path, args, flags=OPTIMIZED) == (GOLDEN / name).read_bytes()


@x86_64_only
@pytest.mark.parametrize("name", sorted(CASES))
def test_baseline_simd_child_writes_the_golden_output(tmp_path, name):
    got = child_bytes(tmp_path, CASES[name], env=BASELINE_SIMD)
    assert got == (GOLDEN / name).read_bytes()


@x86_64_only
def test_baseline_simd_child_dispatches_below_x86_v3():
    """A misspelt variable would leave the children above on the default
    dispatch, which the in-process tests already cover."""
    probe = ("from numpy._core._multiarray_umath import __cpu_features__ as f; "
             "print(f['X86_V3'])")
    assert run_child(["-c", probe], env=BASELINE_SIMD).split() == ["False"]
