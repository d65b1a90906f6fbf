import math
from dataclasses import replace

import numpy as np
import pytest

from v2isim import (
    Policy,
    jain_index,
    lte_ratio,
    mean_rate_per_class,
    satisfaction_ratio,
    summarize,
    worst_decile_mean,
)
from v2isim.engine import TIER_LTE, TIER_MMWAVE, TIER_NONE, RunResult
from v2isim.metrics import RunMetrics, compute_run_metrics


def arr(values, dtype=float):
    return np.asarray(values, dtype=dtype)


def run_result(class_k, rate_bps, in_region=None, required_rate_bps=None,
               tier=None, bs_id=None):
    """A converged MS run at density 4; every vehicle in the region and on
    LTE station 0 unless given."""
    n = len(class_k)
    return RunResult(
        lambda_m=4.0, policy=Policy.MS, class_k=arr(class_k, int),
        in_region=arr([True] * n if in_region is None else in_region, bool),
        required_rate_bps=arr([1e6] * n if required_rate_bps is None
                              else required_rate_bps),
        tier=arr([TIER_LTE] * n if tier is None else tier, int),
        bs_id=arr([0] * n if bs_id is None else bs_id, int),
        rate_bps=arr(rate_bps), convergence_iterations=10, converged=True)


class TestMeanRatePerClass:
    def test_arithmetic_mean(self):
        assert mean_rate_per_class(arr([2e6, 4e6])) == pytest.approx(3e6)

    def test_all_unattached_is_zero(self):
        assert mean_rate_per_class(arr([0.0, 0.0])) == 0.0

    def test_other_classes_ignored(self):
        result = run_result(class_k=[1, 4, 1], rate_bps=[1e6, 9e9, 3e6])
        assert compute_run_metrics(result).mean_rate_bps[0] == pytest.approx(2e6)

    def test_empty_class_is_undefined_not_zero(self):
        assert math.isnan(mean_rate_per_class(arr([])))


class TestWorstDecileMean:
    def test_ten_values_take_bottom_one(self):
        assert worst_decile_mean(arr(range(1, 11))) == 1.0

    def test_fifteen_values_take_bottom_two(self):
        assert worst_decile_mean(arr(range(15, 0, -1))) == pytest.approx(1.5)

    def test_equal_rates(self):
        assert worst_decile_mean(arr([7.0] * 12)) == 7.0

    def test_empty_class_undefined(self):
        assert math.isnan(worst_decile_mean(arr([])))

    def test_never_above_median_or_mean(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 60))
            rates = rng.exponential(1e8, size=n)
            p10 = worst_decile_mean(rates)
            assert p10 <= np.median(rates) + 1e-9
            assert p10 <= rates.mean() + 1e-9


class TestSatisfactionRatio:
    def test_all_zero_rates(self):
        rates = arr([0.0, 0.0, 0.0])
        required = arr([1e6, 1e7, 1e8])
        assert satisfaction_ratio(rates, required) == 0.0

    def test_all_satisfied(self):
        assert satisfaction_ratio(arr([2e6, 2e7]), arr([1e6, 1e7])) == 1.0

    def test_counting(self):
        rates = arr([2e6, 2e7, 0.0, 1e9])
        required = arr([1e6, 1e7, 1e6, 1e8])
        assert satisfaction_ratio(rates, required) == 0.75

    def test_meeting_requirement_exactly_counts(self):
        assert satisfaction_ratio(arr([1e6]), arr([1e6])) == 1.0

    def test_empty_undefined(self):
        assert math.isnan(satisfaction_ratio(arr([]), arr([])))

    def test_monotone_in_any_single_rate(self, rng):
        rates = rng.uniform(0, 2e6, size=20)
        required = np.full(20, 1e6)
        base = satisfaction_ratio(rates, required)
        bumped = rates.copy()
        bumped[3] = 5e6
        assert satisfaction_ratio(bumped, required) >= base


class TestLteRatio:
    def test_all_lte(self):
        assert lte_ratio(arr([TIER_LTE] * 4, int)) == 1.0

    def test_half(self):
        tier = arr([TIER_LTE, TIER_MMWAVE] * 3, int)
        assert lte_ratio(tier) == 0.5

    def test_unattached_count_in_denominator(self):
        tier = arr([TIER_LTE, TIER_NONE, TIER_NONE, TIER_NONE], int)
        assert lte_ratio(tier) == 0.25

    def test_empty_undefined(self):
        assert math.isnan(lte_ratio(arr([], int)))


class TestJainIndex:
    def test_equal_rates_give_one(self):
        assert jain_index(arr([5e6] * 7)) == pytest.approx(1.0, abs=1e-12)

    def test_single_winner_gives_one_over_n(self):
        assert jain_index(arr([1e9, 0, 0, 0])) == pytest.approx(0.25, rel=1e-12)

    def test_two_rates(self):
        # (1+3)^2 / (2 * (1+9)) = 0.8
        assert jain_index(arr([1.0, 3.0])) == pytest.approx(0.8, rel=1e-12)

    def test_all_zero_undefined(self):
        assert math.isnan(jain_index(arr([0.0, 0.0])))

    def test_scale_invariance(self, rng):
        rates = rng.exponential(1e8, size=25)
        assert jain_index(rates * 37.5) == pytest.approx(jain_index(rates), rel=1e-12)


def metrics_row(p_sat, lambda_m=4.0, policy="MS", p_lte=0.5,
                mean=1e6, jain=0.9, converged=True, run_index=0,
                class_rates=(5e5, 1.5e6)):
    four = lambda v: (v, v, v, v)
    return RunMetrics(lambda_m=lambda_m, policy_name=policy, p_lte=p_lte,
                      p_sat=p_sat, mean_rate_bps=four(mean), jain=four(jain),
                      class_rates_bps=four(arr(class_rates)),
                      converged=converged, run_index=run_index)


def class4_row(rates, run_index, other=()):
    """A run whose class-4 vehicles have the given rates and whose classes
    1-3 all have the rates in ``other``."""
    row = metrics_row(0.5, run_index=run_index)
    return replace(row, class_rates_bps=(arr(other),) * 3 + (arr(rates),))


class TestSummarize:
    def test_single_run_copies_metrics_with_nan_se(self):
        summary = summarize([metrics_row(0.5)])
        assert summary.p_sat == 0.5
        assert math.isnan(summary.p_sat_se)
        assert summary.run_count == 1

    def test_two_identical_runs_zero_se(self):
        summary = summarize([metrics_row(0.5, run_index=0),
                             metrics_row(0.5, run_index=1)])
        assert summary.p_sat_se == 0.0

    def test_mean_of_two(self):
        summary = summarize([metrics_row(0.5, run_index=0),
                             metrics_row(1.0, run_index=1)])
        assert summary.p_sat == pytest.approx(0.75)

    def test_undefined_markers_skipped_not_imputed(self):
        rows = [metrics_row(0.5, run_index=0), metrics_row(1.0, run_index=1)]
        rows.append(RunMetrics(lambda_m=4.0, policy_name="MS", p_lte=0.5,
                               p_sat=math.nan,
                               mean_rate_bps=(math.nan,) * 4,
                               jain=(math.nan,) * 4,
                               class_rates_bps=(arr([]),) * 4,
                               converged=True, run_index=2))
        summary = summarize(rows)
        assert summary.p_sat == pytest.approx(0.75)
        assert summary.run_count == 3

    def test_p10_pools_vehicles_across_runs(self):
        # 20 pooled rates: the worst decile is {1, 2}, not the mean of
        # the per-run worst deciles (1 + 1000) / 2
        summary = summarize([class4_row(range(1, 11), 0),
                             class4_row(range(1000, 1010), 1)])
        assert summary.p10_bps[3] == 1.5

    def test_p10_independent_of_run_order(self, rng):
        runs = [rng.exponential(1e8, size=int(rng.integers(1, 30)))
                for _ in range(7)]
        forward = summarize([class4_row(r, i) for i, r in enumerate(runs)])
        backward = summarize([class4_row(r, i)
                              for i, r in enumerate(reversed(runs))][::-1])
        assert forward.p10_bps == backward.p10_bps

    def test_p10_class_empty_in_some_runs_skipped(self):
        summary = summarize([class4_row([], 0, other=[]),
                             class4_row(range(1, 11), 1, other=[]),
                             class4_row([], 2, other=[])])
        assert summary.p10_bps[3] == 1.0
        assert all(math.isnan(v) for v in summary.p10_bps[:3])

    def test_nonconverged_counted(self):
        rows = [metrics_row(0.5, run_index=0),
                metrics_row(0.5, converged=False, run_index=1)]
        assert summarize(rows).nonconverged_runs == 1

    def test_rejects_mixed_cells(self):
        with pytest.raises(ValueError):
            summarize([metrics_row(0.5, lambda_m=4.0),
                       metrics_row(0.5, lambda_m=8.0)])

    def test_aggregation_linearity(self, rng):
        # mean-type metrics over a concatenation equal the weighted average
        rows_a = [metrics_row(float(p), run_index=i)
                  for i, p in enumerate(rng.uniform(0, 1, 10))]
        rows_b = [metrics_row(float(p), run_index=10 + i)
                  for i, p in enumerate(rng.uniform(0, 1, 30))]
        s_all = summarize(rows_a + rows_b)
        s_a = summarize(rows_a)
        s_b = summarize(rows_b)
        weighted = (10 * s_a.p_sat + 30 * s_b.p_sat) / 40
        assert s_all.p_sat == pytest.approx(weighted, rel=1e-12)


class TestComputeRunMetrics:
    def test_only_in_region_records_counted(self):
        result = run_result(
            class_k=[1, 1, 4], in_region=[True, False, True],
            required_rate_bps=[1e6, 1e6, 1.2e9],
            tier=[TIER_LTE, TIER_MMWAVE, TIER_NONE], bs_id=[0, 1, -1],
            rate_bps=[2e6, 1e9, 0.0])
        m = compute_run_metrics(result)
        assert m.p_lte == 0.5  # vehicle 1 is outside the region
        assert m.p_sat == 0.5
        assert m.mean_rate_bps[0] == pytest.approx(2e6)
        assert math.isnan(m.mean_rate_bps[1])

    def test_jain_bounds_on_simulated_run(self):
        from v2isim import ScenarioConfig, run_once

        result = run_once(ScenarioConfig(), 8.0, Policy.RA, 3)
        m = compute_run_metrics(result)
        for k in range(4):
            j = m.jain[k]
            if not math.isnan(j):
                assert 0.0 < j <= 1.0 + 1e-12
            p10 = worst_decile_mean(m.class_rates_bps[k])
            if not math.isnan(p10):
                assert p10 <= m.mean_rate_bps[k] + 1e-9
