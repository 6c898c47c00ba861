"""Benchmark-regression comparator for the committed BENCH_*.json files.

CI regenerates ``BENCH_iss.json`` / ``BENCH_sweep.json`` /
``BENCH_obs.json`` / ``BENCH_serve.json`` / ``BENCH_lint.json`` on the
runner
and compares them against the baselines committed in
``benchmarks/output/`` via :func:`compare_reports`.  Three metric kinds:

- ``higher_better`` / ``lower_better`` — numeric, allowed to drift by a
  relative ``tolerance`` in the bad direction (wall times across
  machines are noisy, so the default tolerance is generous; ratios like
  speedups are steadier);
- ``exact_true`` — boolean correctness gates (bit-identity, paper cycle
  match) that must stay true regardless of tolerance.

A missing metric in the fresh report is a failure (the bench shrank); a
missing metric in the baseline is skipped (the bench grew — the next
committed baseline picks it up).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: (dotted path, kind) per schema.  Paths resolve through nested dicts.
METRIC_SPECS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "bench-iss/1": (
        ("engine_comparison_medium.speedup_fast_over_legacy", "higher_better"),
        ("engine_comparison_medium.bit_identical", "exact_true"),
        ("matmul_full_fast.mips", "higher_better"),
        ("matmul_full_fast.cycles_match_paper", "exact_true"),
        ("matmul_full_fast.checksum_correct", "exact_true"),
        ("suite_study.warm_cache_wall_seconds", "lower_better"),
    ),
    # v2 adds the superblock and N-lane vector engines.  The vector
    # throughput floor anchors at the N=32 row: N=16 sits right on the
    # 10x line on the reference host, so gating there would flap on
    # machine noise, while N=32 clears it with ~2x margin.
    "bench-iss/2": (
        ("engine_comparison_medium.speedup_fast_over_legacy", "higher_better"),
        ("engine_comparison_medium.bit_identical", "exact_true"),
        ("matmul_full_fast.mips", "higher_better"),
        ("matmul_full_fast.cycles_match_paper", "exact_true"),
        ("matmul_full_fast.checksum_correct", "exact_true"),
        ("superblock.speedup_superblock_over_fast", "higher_better"),
        ("superblock.bit_identical", "exact_true"),
        ("vector_lanes.n1_bit_identical", "exact_true"),
        ("vector_lanes.n32.aggregate_mips", "higher_better"),
        ("vector_lanes.n32.speedup_vs_fast", "higher_better"),
        ("vector_lanes.n32.all_correct", "exact_true"),
        ("vector_lanes.n64.all_correct", "exact_true"),
        ("vector_lanes.suite_8_variants.all_correct", "exact_true"),
        ("suite_study.warm_cache_wall_seconds", "lower_better"),
    ),
    # v3 retires the fast engine: speedups are quoted against the
    # legacy interpreter, and the throughput metric is the default
    # (superblock) engine's.  The absolute floors that replace the v2
    # fast-engine products live in benchmarks/test_bench_iss.py.
    "bench-iss/3": (
        (
            "engine_comparison_medium.speedup_superblock_over_legacy",
            "higher_better",
        ),
        ("engine_comparison_medium.bit_identical", "exact_true"),
        ("superblock.mips", "higher_better"),
        ("superblock.cycles_match_paper", "exact_true"),
        ("superblock.checksum_correct", "exact_true"),
        ("superblock.bit_identical", "exact_true"),
        ("vector_lanes.n1_bit_identical", "exact_true"),
        ("vector_lanes.n32.aggregate_mips", "higher_better"),
        ("vector_lanes.n32.speedup_vs_superblock", "higher_better"),
        ("vector_lanes.n32.all_correct", "exact_true"),
        ("vector_lanes.n64.all_correct", "exact_true"),
        ("vector_lanes.suite_8_variants.all_correct", "exact_true"),
        ("suite_study.warm_cache_wall_seconds", "lower_better"),
    ),
    "bench-sweep/1": (
        ("monte_carlo.speedup_batched_over_legacy", "higher_better"),
        ("monte_carlo.batched_samples_per_second", "higher_better"),
        ("monte_carlo.bit_identical", "exact_true"),
        ("monte_carlo.parallel_bit_identical", "exact_true"),
        ("sweep_cache.hit_bit_identical", "exact_true"),
        ("artifact_pipeline.total_wall_seconds", "lower_better"),
    ),
    # The overhead *fractions* are machine-noise-scale numbers (a few
    # milliseconds over ~100 ms) and can legitimately go negative, so
    # only the booleans gate: the <2% disabled-overhead budget and
    # control/disabled/enabled bit-identity.
    "bench-obs/1": (
        ("tracing_off_overhead_under_2pct", "exact_true"),
        ("bit_identical", "exact_true"),
    ),
    # bench-obs/2 adds the continuous-profiler arm: the 100 Hz sampler
    # must stay under its 5% budget over the uninstrumented control,
    # and must actually have captured samples (a sampler that silently
    # stops sampling would otherwise "pass" with zero overhead).
    "bench-obs/2": (
        ("tracing_off_overhead_under_2pct", "exact_true"),
        ("profiler_overhead_under_5pct", "exact_true"),
        ("profiler_sampled", "exact_true"),
        ("bit_identical", "exact_true"),
    ),
    # The lint-speed gate.  Wall times ride the relative tolerance;
    # ``parity`` (parallel report == serial report) and ``lint_clean``
    # are absolute correctness booleans.
    "bench-lint/1": (
        ("serial_wall_seconds", "lower_better"),
        ("parallel_wall_seconds", "lower_better"),
        ("parity", "exact_true"),
        ("lint_clean", "exact_true"),
    ),
    # bench-lint/2: same gate after the RPL013-RPL016 vectorization
    # pass joined the rule set.  The schema bump resets the wall-time
    # reference (the shape abstract interpretation legitimately costs
    # wall time); the correctness booleans stay exact.
    "bench-lint/2": (
        ("serial_wall_seconds", "lower_better"),
        ("parallel_wall_seconds", "lower_better"),
        ("parity", "exact_true"),
        ("lint_clean", "exact_true"),
    ),
    # The serving gate.  The ISSUE-7 acceptance criterion — batched
    # handling at >=3x the QPS of the serial-dispatch control at 32
    # concurrent clients, with bit-equal JSON payloads — is encoded as
    # absolute booleans (machine-independent); the QPS/latency numbers
    # ride the relative tolerance like every other wall-time metric.
    "bench-serve/1": (
        ("speedup_batched_over_serial", "higher_better"),
        ("batched.qps", "higher_better"),
        ("open_loop.p99_ms", "lower_better"),
        ("speedup_at_least_3x", "exact_true"),
        ("bit_equal_responses", "exact_true"),
        ("clean_shutdown", "exact_true"),
        ("open_loop.all_ok", "exact_true"),
    ),
}


@dataclass(frozen=True)
class MetricComparison:
    """Outcome of comparing one metric between baseline and fresh."""

    metric: str
    kind: str
    baseline: Optional[Any]
    fresh: Optional[Any]
    regressed: bool
    detail: str


def lookup(report: Dict[str, Any], dotted: str) -> Optional[Any]:
    """Resolve ``a.b.c`` through nested dicts; ``None`` when absent."""
    node: Any = report
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def compare_metric(
    metric: str,
    kind: str,
    baseline: Optional[Any],
    fresh: Optional[Any],
    tolerance: float,
) -> MetricComparison:
    """Compare one metric; ``tolerance`` is the allowed relative drift."""
    if baseline is None:
        return MetricComparison(
            metric, kind, baseline, fresh, False,
            "not in baseline (new metric): skipped",
        )
    if fresh is None:
        return MetricComparison(
            metric, kind, baseline, fresh, True,
            "missing from fresh report",
        )
    if kind == "exact_true":
        ok = fresh is True
        return MetricComparison(
            metric, kind, baseline, fresh, not ok,
            "true" if ok else f"expected true, got {fresh!r}",
        )
    base = float(baseline)
    new = float(fresh)
    if kind == "higher_better":
        floor = base * (1.0 - tolerance)
        regressed = new < floor
        detail = f"{new:.4g} vs baseline {base:.4g} (floor {floor:.4g})"
    elif kind == "lower_better":
        ceiling = base * (1.0 + tolerance)
        regressed = new > ceiling
        detail = f"{new:.4g} vs baseline {base:.4g} (ceiling {ceiling:.4g})"
    else:
        raise ValueError(f"unknown metric kind {kind!r}")
    return MetricComparison(metric, kind, baseline, fresh, regressed, detail)


def compare_reports(
    baseline: Dict[str, Any],
    fresh: Dict[str, Any],
    tolerance: float = 0.5,
    specs: Optional[Sequence[Tuple[str, str]]] = None,
) -> List[MetricComparison]:
    """Compare every metric the schema declares; raises on schema skew."""
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    schema = baseline.get("schema")
    if schema != fresh.get("schema"):
        raise ValueError(
            f"schema mismatch: baseline {schema!r} "
            f"vs fresh {fresh.get('schema')!r}"
        )
    if specs is None:
        if schema not in METRIC_SPECS:
            raise ValueError(f"no metric specs for schema {schema!r}")
        specs = METRIC_SPECS[schema]
    return [
        compare_metric(
            metric, kind, lookup(baseline, metric), lookup(fresh, metric),
            tolerance,
        )
        for metric, kind in specs
    ]


def render_comparisons(
    comparisons: Sequence[MetricComparison], label: str = ""
) -> str:
    """One status line per metric, worst first."""
    lines = [f"bench regression check{': ' + label if label else ''}"]
    for c in sorted(comparisons, key=lambda c: not c.regressed):
        status = "REGRESSED" if c.regressed else "ok"
        lines.append(f"  [{status:>9s}] {c.metric}: {c.detail}")
    return "\n".join(lines)
