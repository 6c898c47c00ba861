"""Tests for the benchmark-regression comparator and its CLI script."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runtime.regression import (
    METRIC_SPECS,
    compare_metric,
    compare_reports,
    lookup,
    render_comparisons,
)

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SCRIPT = REPO_ROOT / "scripts" / "check_bench_regression.py"


def sweep_report(speedup=7.0, samples_per_s=150e3, wall=0.1, **flags):
    return {
        "schema": "bench-sweep/1",
        "monte_carlo": {
            "speedup_batched_over_legacy": speedup,
            "batched_samples_per_second": samples_per_s,
            "bit_identical": flags.get("bit_identical", True),
            "parallel_bit_identical": flags.get(
                "parallel_bit_identical", True
            ),
        },
        "sweep_cache": {"hit_bit_identical": True},
        "artifact_pipeline": {"total_wall_seconds": wall},
    }


class TestLookup:
    def test_nested_path(self):
        assert lookup({"a": {"b": {"c": 3}}}, "a.b.c") == 3

    def test_missing_returns_none(self):
        assert lookup({"a": {}}, "a.b.c") is None
        assert lookup({}, "a") is None

    def test_non_dict_intermediate(self):
        assert lookup({"a": 5}, "a.b") is None


class TestCompareMetric:
    def test_higher_better_within_tolerance(self):
        c = compare_metric("m", "higher_better", 10.0, 6.0, 0.5)
        assert not c.regressed

    def test_higher_better_regression(self):
        c = compare_metric("m", "higher_better", 10.0, 4.0, 0.5)
        assert c.regressed

    def test_lower_better_within_tolerance(self):
        c = compare_metric("m", "lower_better", 1.0, 1.4, 0.5)
        assert not c.regressed

    def test_lower_better_regression(self):
        c = compare_metric("m", "lower_better", 1.0, 1.6, 0.5)
        assert c.regressed

    def test_exact_true_passes_and_fails(self):
        assert not compare_metric("m", "exact_true", True, True, 0.5).regressed
        assert compare_metric("m", "exact_true", True, False, 0.5).regressed

    def test_exact_true_ignores_tolerance(self):
        assert compare_metric("m", "exact_true", True, False, 99.0).regressed

    def test_missing_fresh_is_regression(self):
        c = compare_metric("m", "higher_better", 10.0, None, 0.5)
        assert c.regressed

    def test_missing_baseline_is_skipped(self):
        c = compare_metric("m", "higher_better", None, 10.0, 0.5)
        assert not c.regressed
        assert "new metric" in c.detail

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            compare_metric("m", "sideways_better", 1.0, 1.0, 0.5)


@pytest.mark.smoke
class TestCompareReports:
    def test_identical_reports_pass(self):
        report = sweep_report()
        comparisons = compare_reports(report, report, tolerance=0.0)
        assert comparisons
        assert not any(c.regressed for c in comparisons)

    def test_speedup_collapse_is_caught(self):
        comparisons = compare_reports(
            sweep_report(speedup=7.0), sweep_report(speedup=2.0),
            tolerance=0.5,
        )
        regressed = {c.metric for c in comparisons if c.regressed}
        assert "monte_carlo.speedup_batched_over_legacy" in regressed

    def test_bit_identity_break_is_caught_at_any_tolerance(self):
        comparisons = compare_reports(
            sweep_report(), sweep_report(bit_identical=False),
            tolerance=10.0,
        )
        assert any(
            c.regressed and c.metric == "monte_carlo.bit_identical"
            for c in comparisons
        )

    def test_schema_mismatch_raises(self):
        iss = {"schema": "bench-iss/1"}
        with pytest.raises(ValueError):
            compare_reports(iss, sweep_report())

    def test_unknown_schema_raises(self):
        with pytest.raises(ValueError):
            compare_reports({"schema": "x/9"}, {"schema": "x/9"})

    def test_negative_tolerance_raises(self):
        with pytest.raises(ValueError):
            compare_reports(sweep_report(), sweep_report(), tolerance=-0.1)

    def test_every_schema_has_specs(self):
        assert set(METRIC_SPECS) == {
            "bench-iss/1", "bench-iss/2", "bench-iss/3", "bench-sweep/1",
            "bench-obs/1",
            "bench-obs/2", "bench-serve/1", "bench-lint/1",
            "bench-lint/2",
        }

    def test_iss_v2_extends_v1(self):
        """Every v1 gate survives in v2: the bench grew, never shrank."""
        assert set(METRIC_SPECS["bench-iss/1"]) <= set(
            METRIC_SPECS["bench-iss/2"]
        )

    def test_iss_v3_keeps_every_v2_correctness_gate(self):
        """v3 swaps the fast-engine arms; no boolean gate is dropped."""
        v2_booleans = {
            metric.replace("matmul_full_fast.", "superblock.")
            for metric, kind in METRIC_SPECS["bench-iss/2"]
            if kind == "exact_true"
        }
        v3_booleans = {
            metric
            for metric, kind in METRIC_SPECS["bench-iss/3"]
            if kind == "exact_true"
        }
        assert v2_booleans <= v3_booleans

    def test_obs_v2_extends_v1(self):
        assert set(METRIC_SPECS["bench-obs/1"]) <= set(
            METRIC_SPECS["bench-obs/2"]
        )

    def test_render_lists_every_metric(self):
        comparisons = compare_reports(sweep_report(), sweep_report())
        text = render_comparisons(comparisons, label="x")
        for c in comparisons:
            assert c.metric in text


def obs_report(under_budget=True, bit_identical=True, off_frac=0.01):
    return {
        "schema": "bench-obs/1",
        "workload": "matmul-int",
        "tracing_off_overhead_fraction": off_frac,
        "tracing_on_overhead_fraction": 0.05,
        "tracing_off_overhead_under_2pct": under_budget,
        "bit_identical": bit_identical,
    }


def obs_v2_report(
    under_budget=True,
    bit_identical=True,
    profiler_under_budget=True,
    profiler_sampled=True,
):
    return {
        "schema": "bench-obs/2",
        "workload": "matmul-int",
        "tracing_off_overhead_fraction": 0.01,
        "tracing_on_overhead_fraction": 0.05,
        "profiler_on_overhead_fraction": 0.02,
        "profiler_samples": 9 if profiler_sampled else 0,
        "tracing_off_overhead_under_2pct": under_budget,
        "profiler_overhead_under_5pct": profiler_under_budget,
        "profiler_sampled": profiler_sampled,
        "bit_identical": bit_identical,
    }


class TestBenchObsSpecs:
    """The bench-obs schema gates only on its boolean invariants."""

    def test_identical_reports_pass(self):
        report = obs_report()
        assert not any(
            c.regressed
            for c in compare_reports(report, report, tolerance=0.0)
        )

    def test_overhead_budget_break_is_caught(self):
        comparisons = compare_reports(
            obs_report(), obs_report(under_budget=False, off_frac=0.08),
            tolerance=10.0,
        )
        regressed = {c.metric for c in comparisons if c.regressed}
        assert "tracing_off_overhead_under_2pct" in regressed

    def test_bit_identity_break_is_caught(self):
        comparisons = compare_reports(
            obs_report(), obs_report(bit_identical=False)
        )
        assert any(
            c.regressed and c.metric == "bit_identical"
            for c in comparisons
        )

    def test_overhead_fraction_is_not_gated(self):
        # Noise-scale numbers: a worse fraction alone must not fail as
        # long as the budget boolean holds.
        comparisons = compare_reports(
            obs_report(off_frac=0.001), obs_report(off_frac=0.019),
            tolerance=0.0,
        )
        assert not any(c.regressed for c in comparisons)


class TestBenchObsV2Specs:
    """The profiler arm's gates ride the same boolean machinery."""

    def test_identical_reports_pass(self):
        report = obs_v2_report()
        assert not any(
            c.regressed
            for c in compare_reports(report, report, tolerance=0.0)
        )

    def test_profiler_budget_break_is_caught(self):
        comparisons = compare_reports(
            obs_v2_report(), obs_v2_report(profiler_under_budget=False),
            tolerance=10.0,
        )
        regressed = {c.metric for c in comparisons if c.regressed}
        assert "profiler_overhead_under_5pct" in regressed

    def test_silent_sampler_is_caught(self):
        comparisons = compare_reports(
            obs_v2_report(), obs_v2_report(profiler_sampled=False),
        )
        assert any(
            c.regressed and c.metric == "profiler_sampled"
            for c in comparisons
        )

    def test_v1_vs_v2_schema_mismatch_raises(self):
        with pytest.raises(ValueError):
            compare_reports(obs_report(), obs_v2_report())


def serve_report(speedup=5.0, gate=True, bit_equal=True, p99=8.0):
    return {
        "schema": "bench-serve/1",
        "speedup_batched_over_serial": speedup,
        "batched": {"qps": 2500.0 * speedup / 5.0},
        "open_loop": {"p99_ms": p99, "all_ok": True},
        "speedup_at_least_3x": gate,
        "bit_equal_responses": bit_equal,
        "clean_shutdown": True,
    }


class TestBenchServeSpecs:
    """bench-serve gates throughput, tail latency, and its booleans."""

    def test_identical_reports_pass(self):
        report = serve_report()
        assert not any(
            c.regressed
            for c in compare_reports(report, report, tolerance=0.0)
        )

    def test_speedup_collapse_is_caught(self):
        comparisons = compare_reports(
            serve_report(speedup=5.0), serve_report(speedup=1.5)
        )
        regressed = {c.metric for c in comparisons if c.regressed}
        assert "speedup_batched_over_serial" in regressed

    def test_gate_booleans_are_exact(self):
        # Even at huge tolerance, losing the 3x gate or bit-equality
        # regresses.
        comparisons = compare_reports(
            serve_report(),
            serve_report(speedup=2.0, gate=False, bit_equal=False),
            tolerance=10.0,
        )
        regressed = {c.metric for c in comparisons if c.regressed}
        assert "speedup_at_least_3x" in regressed
        assert "bit_equal_responses" in regressed

    def test_tail_latency_blowup_is_caught(self):
        comparisons = compare_reports(
            serve_report(p99=5.0), serve_report(p99=50.0), tolerance=0.75
        )
        regressed = {c.metric for c in comparisons if c.regressed}
        assert "open_loop.p99_ms" in regressed


class TestScript:
    def run_script(self, tmp_path, baseline, fresh, tolerance="0.5"):
        b = tmp_path / "baseline.json"
        f = tmp_path / "fresh.json"
        b.write_text(json.dumps(baseline))
        f.write_text(json.dumps(fresh))
        return subprocess.run(
            [
                sys.executable, str(SCRIPT),
                "--baseline", str(b), "--fresh", str(f),
                "--tolerance", tolerance,
            ],
            capture_output=True,
            text=True,
        )

    def test_exit_zero_on_pass(self, tmp_path):
        proc = self.run_script(tmp_path, sweep_report(), sweep_report())
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout

    def test_exit_one_on_regression(self, tmp_path):
        proc = self.run_script(
            tmp_path, sweep_report(speedup=7.0), sweep_report(speedup=1.0)
        )
        assert proc.returncode == 1
        assert "REGRESSED" in proc.stdout

    def test_exit_two_on_missing_file(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable, str(SCRIPT),
                "--baseline", str(tmp_path / "nope.json"),
                "--fresh", str(tmp_path / "nope.json"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_exit_zero_against_committed_baselines(self, tmp_path):
        """The committed baselines must pass against themselves."""
        for name in (
            "BENCH_iss.json", "BENCH_sweep.json", "BENCH_obs.json",
        ):
            committed = REPO_ROOT / "benchmarks" / "output" / name
            baseline = json.loads(committed.read_text())
            proc = self.run_script(tmp_path, baseline, baseline)
            assert proc.returncode == 0, proc.stdout + proc.stderr
