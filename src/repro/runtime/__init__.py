"""Execution-runtime services for the ISS: caching, fan-out, metering.

This package makes repeat studies cheap and large studies fast:

- :mod:`repro.runtime.cache` — persistent content-addressed memoization
  of :class:`~repro.workloads.suite.WorkloadResult` keyed on the
  assembly source, cycle budget, and ISS version tag.
- :mod:`repro.runtime.parallel` — suite fan-out over a process pool
  with cache integration and a serial fallback.
- :mod:`repro.obs.perf` — wall-time / MIPS metering so the speedups
  stay observable from the CLI and benchmarks.
- :mod:`repro.runtime.bench` — the ``BENCH_iss.json`` harness tracking
  the performance trajectory across PRs.
- :mod:`repro.runtime.bench_obs` — the ``BENCH_obs.json`` harness
  pinning the tracing-off observability overhead under 2 %.
"""

from repro.runtime.cache import (
    ISS_VERSION,
    SWEEP_VERSION,
    ResultCache,
    SweepCache,
    default_cache_dir,
    run_workload_cached,
)
from repro.runtime.parallel import (
    SuiteRunReport,
    map_parallel,
    run_workloads,
)
from repro.obs.perf import RunPerf, render_perf_table

__all__ = [
    "ISS_VERSION",
    "SWEEP_VERSION",
    "ResultCache",
    "SweepCache",
    "default_cache_dir",
    "run_workload_cached",
    "SuiteRunReport",
    "map_parallel",
    "run_workloads",
    "RunPerf",
    "render_perf_table",
]
