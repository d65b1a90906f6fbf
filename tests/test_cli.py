import io
import json
import multiprocessing

import numpy as np
import pytest

from v2isim import Policy, ScenarioConfig
from v2isim import cli
from v2isim.cli import main
from v2isim.engine import RunResult
from v2isim.output import CSV_COLUMNS, write_run_dump

FAST = ["--lambda-m", "4", "--policy", "MS", "--runs", "2", "--seed", "7"]
FAST_CFG = {"vn_mode": "FIXED", "fixed_vn_count": 30}


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(FAST_CFG))
    return str(path)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_lines(out):
    return [line for line in out.splitlines() if not line.startswith("#")]


class TestExitCodes:
    def test_success(self, capsys, fast_config):
        code, out, _ = run_cli(capsys, "--config", fast_config, *FAST)
        assert code == 0
        assert len(data_lines(out)) == 2  # header + one cell row

    def test_missing_config_is_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "--config", "missing.json")
        assert code == 1
        assert "config error" in err
        assert out == ""

    def test_invalid_flag_value_is_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "--lambda-m", "abc", "--runs", "1")
        assert code == 1

    def test_bad_nsim_is_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_sim": 0}))
        code, _, err = run_cli(capsys, "--config", str(path))
        assert code == 1
        assert "n_sim" in err

    def test_unknown_policy_is_exit_1(self, capsys):
        # --policy accepts the policy set of the config, in its order
        code, out, err = run_cli(capsys, "--policy", "XX", "--runs", "1")
        assert code == 1
        assert "invalid choice" in err
        assert err.index("MS") < err.index("MR") < err.index("RA")
        assert out == ""

    def test_parallel_below_one_is_exit_1(self, capsys, fast_config):
        for workers in ("0", "-3"):
            code, out, err = run_cli(capsys, "--config", fast_config, *FAST,
                                     "--parallel", workers)
            assert code == 1
            assert "--parallel" in err
            assert out == ""

    # a JSON Infinity takes the same path, see test_config
    @pytest.mark.parametrize("args", [
        ["--lambda-m", "inf"],
        ["--dump-run", "nan:MS,0"],
        ["--dump-run", "inf:MS,0"],
        ["--dump-run=-4:MS,0"],
    ], ids=["lambda-m-inf", "dump-nan", "dump-inf", "dump-negative"])
    def test_non_finite_or_negative_density_is_exit_1(self, capsys, args):
        code, out, err = run_cli(capsys, *args, "--runs", "1", "--policy", "MS")
        assert code == 1
        assert "config error" in err and "mmw_density_grid_per_km2" in err
        assert out == ""

    @pytest.mark.parametrize("doc,key", [
        ('{"lte_density_per_km2": Infinity}', "lte_density_per_km2"),
        ('{"no_change_window_multiplier": Infinity}', "no_change_window_multiplier"),
        ('{"snr_threshold_db": NaN}', "snr_threshold_db"),
        ('{"channel": {"mmw": {"bandwidth_hz": Infinity}}}', "channel.mmw.bandwidth_hz"),
    ], ids=["lte-density", "window", "threshold", "mmw-bandwidth"])
    def test_non_finite_config_value_is_exit_1(self, capsys, tmp_path, doc, key):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        code, out, err = run_cli(capsys, "--config", str(path), *FAST)
        assert code == 1
        assert "config error" in err and f"{key}: must be finite" in err
        assert out == ""

    def test_config_from_stdin(self, capsys, monkeypatch):
        # --config - reads the document from standard input
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(FAST_CFG)))
        code, out, _ = run_cli(capsys, "--config", "-", *FAST)
        assert code == 0
        assert json.loads(out.splitlines()[1].removeprefix("# config "))["fixed_vn_count"] == 30
        assert len(data_lines(out)) == 2
        monkeypatch.setattr("sys.stdin", io.StringIO('{"area_km2": Infinity}'))
        code, out, err = run_cli(capsys, "--config", "-", *FAST)
        assert code == 1
        assert "config error: area_km2: must be finite" in err
        assert out == ""

    def test_unwritable_out_is_exit_2(self, capsys, fast_config, tmp_path):
        # --out is opened before the first run, so no cell is simulated
        dest = tmp_path / "no" / "such" / "dir" / "out.csv"
        for mode in ([*FAST], ["--runs", "2", "--dump-run", "4:MS,1"]):
            code, _, err = run_cli(capsys, "--config", fast_config, *mode,
                                   "--out", str(dest))
            assert code == 2
            assert "i/o error" in err and str(dest) in err
            assert "cell 1/1 done" not in err

    def test_config_error_leaves_out_untouched(self, capsys, fast_config, tmp_path):
        dest = tmp_path / "out.csv"
        dest.write_text("earlier results\n")
        for bad in (["--dump-run", "4:XX,0"], ["--dump-run", "4:MS,9"],
                    ["--lambda-m", "inf"]):
            code, _, _ = run_cli(capsys, "--config", fast_config, *FAST, *bad,
                                 "--out", str(dest))
            assert code == 1
            assert dest.read_text() == "earlier results\n"


class TestCsvOutput:
    def test_header_is_pinned(self, capsys, fast_config):
        _, out, _ = run_cli(capsys, "--config", fast_config, *FAST)
        header = data_lines(out)[0]
        assert header == ",".join(CSV_COLUMNS)
        assert header == (
            "lambda_m,policy,p_lte,p_sat,"
            "mean_rate_1_bps,p10_1_bps,jain_1,"
            "mean_rate_2_bps,p10_2_bps,jain_2,"
            "mean_rate_3_bps,p10_3_bps,jain_3,"
            "mean_rate_4_bps,p10_4_bps,jain_4,"
            "run_count,seed,nonconverged_runs")

    def test_config_echo_comment_block(self, capsys, fast_config):
        _, out, _ = run_cli(capsys, "--config", fast_config, *FAST)
        lines = out.splitlines()
        assert lines[0].startswith("# v2isim ")
        assert lines[1].startswith("# config ")
        echoed = json.loads(lines[1].removeprefix("# config "))
        assert echoed["n_sim"] == 2
        assert echoed["master_seed"] == 7
        assert echoed["vn_mode"] == "FIXED"

    def test_row_count_matches_grid(self, capsys, fast_config):
        _, out, _ = run_cli(capsys, "--config", fast_config,
                            "--lambda-m", "4,8", "--policy", "MS",
                            "--policy", "RA", "--runs", "1", "--seed", "1")
        assert len(data_lines(out)) == 1 + 4

    def test_rows_sorted_by_density_then_policy(self, capsys, fast_config):
        _, out, _ = run_cli(capsys, "--config", fast_config,
                            "--lambda-m", "8,4", "--policy", "RA",
                            "--policy", "MS", "--runs", "1", "--seed", "1")
        rows = [line.split(",")[:2] for line in data_lines(out)[1:]]
        assert rows == [["4", "MS"], ["4", "RA"], ["8", "MS"], ["8", "RA"]]

    def test_progress_goes_to_stderr_only(self, capsys, fast_config):
        _, out, err = run_cli(capsys, "--config", fast_config, *FAST)
        assert "cell" in err
        assert all(line.startswith("#") or "," in line
                   for line in out.splitlines() if line)


class TestDeterminism:
    def test_same_invocation_identical_bytes(self, capsys, fast_config):
        _, first, _ = run_cli(capsys, "--config", fast_config, *FAST)
        _, second, _ = run_cli(capsys, "--config", fast_config, *FAST)
        assert first == second

    def test_parallel_does_not_change_bytes(self, capsys, fast_config):
        args = ["--config", fast_config, "--lambda-m", "4,8",
                "--policy", "MS", "--policy", "MR", "--runs", "2",
                "--seed", "3"]
        _, seq, _ = run_cli(capsys, *args, "--parallel", "1")
        _, par, _ = run_cli(capsys, *args, "--parallel", "2")
        assert seq == par

    def test_out_file_matches_stdout(self, capsys, fast_config, tmp_path):
        dest = tmp_path / "results.csv"
        run_cli(capsys, "--config", fast_config, *FAST, "--out", str(dest))
        _, out, _ = run_cli(capsys, "--config", fast_config, *FAST)
        assert dest.read_text() == out


class Interrupted(Exception):
    """Raised by a test hook in place of a Ctrl-C or a worker failure."""


def count_runs(monkeypatch, stop_at=None):
    """Wraps ``cli.run_campaign`` around the real generator: the returned
    list counts the runs it hands on, and it raises ``Interrupted`` in place
    of run ``stop_at``."""
    real, handed = cli.run_campaign, []

    def campaign(config, *, workers):
        for result in real(config, workers=workers):
            if len(handed) == stop_at:
                raise Interrupted
            handed.append(result)
            yield result

    monkeypatch.setattr(cli, "run_campaign", campaign)
    return handed


class ClosedReader(io.StringIO):
    """A standard output whose reader has gone: the first row fails."""

    def write(self, text):
        if text[0].isdigit():  # a row starts with its lambda_m
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


class TestStreaming:
    # four cells of two runs each, under MS and a load-dependent rule
    GRID = ["--lambda-m", "4,8", "--policy", "MS", "--policy", "MR",
            "--runs", "2", "--seed", "3"]

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("stop_at", [0, 3, 4, 7])
    def test_interrupted_out_is_a_prefix_of_the_full_output(
            self, capsys, monkeypatch, tmp_path, fast_config, workers, stop_at):
        args = ["--config", fast_config, *self.GRID, "--parallel", workers]
        full, part = tmp_path / "full.csv", tmp_path / "part.csv"
        assert main([*args, "--out", str(full)]) == 0
        capsys.readouterr()
        count_runs(monkeypatch, stop_at)
        with pytest.raises(Interrupted):
            main([*args, "--out", str(part)])
        # the comment block, the column names and every finished cell
        lines = full.read_bytes().splitlines(keepends=True)
        assert part.read_bytes() == b"".join(lines[:3 + stop_at // 2])
        assert capsys.readouterr().err.count(" done ") == stop_at // 2
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_closed_reader_stops_the_campaign_at_the_first_row(
            self, capsys, monkeypatch, fast_config, workers):
        handed = count_runs(monkeypatch)
        monkeypatch.setattr("sys.stdout", ClosedReader())
        code = main(["--config", fast_config, *self.GRID, "--parallel", workers])
        err = capsys.readouterr().err
        assert code == 2
        assert "i/o error" in err and "Broken pipe" in err
        # the first cell's runs and no more, and no cell reported done
        assert len(handed) == 2
        assert " done " not in err
        assert multiprocessing.active_children() == []


class TestJsonl:
    def test_fields_mirror_csv(self, capsys, fast_config):
        _, out, _ = run_cli(capsys, "--config", fast_config, *FAST,
                            "--format", "jsonl")
        rows = [json.loads(line) for line in data_lines(out)]
        assert len(rows) == 1
        assert list(rows[0].keys()) == list(CSV_COLUMNS)
        assert rows[0]["policy"] == "MS"
        assert rows[0]["run_count"] == 2
        assert rows[0]["seed"] == 7

    def test_values_match_csv_rounding(self, capsys, fast_config):
        _, csv_out, _ = run_cli(capsys, "--config", fast_config, *FAST)
        _, jsonl_out, _ = run_cli(capsys, "--config", fast_config, *FAST,
                                  "--format", "jsonl")
        csv_row = data_lines(csv_out)[1].split(",")
        json_row = json.loads(data_lines(jsonl_out)[0])
        assert float(csv_row[2]) == json_row["p_lte"]
        assert float(csv_row[3]) == json_row["p_sat"]


class TestDumpRun:
    def test_dump_run_schema_and_roundtrip(self, capsys, fast_config):
        code, out, _ = run_cli(capsys, "--config", fast_config,
                               "--seed", "7", "--runs", "2",
                               "--dump-run", "4:MS,1")
        assert code == 0
        assert "\n# cell lambda_m=4 policy=MS run_index=1 converged=" in out
        lines = data_lines(out)
        assert lines[0] == "vn_id,class_k,in_region,tier,bs_id,required_rate_bps,rate_bps"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 30  # FIXED(30) vehicles

        # round-trip: the dump must mirror run_once for the derived seed
        from v2isim import Policy, ScenarioConfig, derive_run_seed, run_once
        from dataclasses import replace

        cfg = replace(ScenarioConfig(), vn_mode="FIXED", fixed_vn_count=30,
                      master_seed=7, n_sim=2)
        result = run_once(cfg, 4.0, Policy.MS,
                          derive_run_seed(7, 4.0, Policy.MS, 1))
        for i, row in enumerate(rows):
            assert int(row[0]) == i
            assert int(row[1]) == result.class_k[i]
            assert int(row[2]) == int(result.in_region[i])
            assert int(row[4]) == result.bs_id[i]
            assert float(row[6]) == pytest.approx(float(result.rate_bps[i]), rel=1e-5)

    def test_tier_column_names_the_serving_tier(self):
        # station 0 is the one LTE station: unattached, LTE, mmWave
        ones = np.ones(3)
        result = RunResult(lambda_m=4.0, policy=Policy.MR, class_k=np.array([1, 2, 3]),
                           in_region=ones > 0, required_rate_bps=ones, n_lte=1,
                           bs_id=np.array([-1, 0, 1]), rate_bps=ones,
                           convergence_iterations=0, converged=True)
        out = io.StringIO()
        write_run_dump(result, 0, out, ScenarioConfig())
        rows = [line.split(",") for line in data_lines(out.getvalue())[1:]]
        assert [row[3] for row in rows] == ["NONE", "LTE", "MMWAVE"]

    def test_bad_spec_is_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "--dump-run", "nonsense")
        assert code == 1
        assert "dump-run" in err

    def test_out_of_range_index_is_exit_1(self, capsys, fast_config):
        code, _, _ = run_cli(capsys, "--config", fast_config, "--runs", "2",
                             "--dump-run", "4:MS,5")
        assert code == 1

    def test_jsonl_format_is_exit_1(self, capsys, fast_config):
        # a run dump is per-vehicle CSV only; jsonl is not silently ignored
        code, out, err = run_cli(capsys, "--config", fast_config, "--runs", "2",
                                 "--format", "jsonl", "--dump-run", "4:MS,1")
        assert code == 1
        assert "--dump-run" in err and "jsonl" in err
        assert out == ""
