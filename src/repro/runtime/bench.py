"""The ``BENCH_iss.json`` harness: ISS performance trajectory per PR.

Measures the numbers the acceptance gates care about and writes them to
a JSON artifact so regressions are visible across PRs.  Speedups are
quoted against the legacy interpreter, the single reference engine:

- a direct superblock-vs-legacy speedup measurement on a medium matmul
  configuration,
- full-length matmul-int on the superblock engine (the default): wall
  time, simulated cycles/sec, and MIPS, with the checksum/cycle
  bit-identity check against the paper goldens (the full-length legacy
  run takes over a minute; pass ``measure_legacy_full=True`` to include
  it and the measured full-length speedup),
- the N-lane vector engine: full-length matmul at N=1 (bit-identity
  against the paper goldens), lane-scaling rows at 8/16/32/64 lanes of
  seed-parameterized matmul variants (aggregate MIPS and speedup over
  the measured superblock MIPS), and an 8-variant suite run through
  :func:`~repro.runtime.parallel.run_workloads_vector`,
- suite study wall times: serial cold vs parallel cold as the medians
  of alternating pairs (skipped on single-CPU hosts, where the
  comparison is meaningless), warm-cache,
- single-entry cache hit/miss timings.

Run it via ``python -m repro.cli bench-iss`` or the benchmarks suite.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import statistics
import tempfile
import time
from pathlib import Path
from typing import Optional

from repro.cpu import CortexM0, MemoryMap, assemble
from repro.cpu.trace import ActivityTrace
from repro.runtime.cache import ISS_VERSION, ResultCache, run_workload_cached
from repro.workloads import matmul_int
from repro.workloads.suite import run_workload

#: Alternating serial/parallel pairs of the cold suite study.
SUITE_PAIRS = 6


@contextlib.contextmanager
def _gc_quiet():
    """Keep the collector out of timed sections.

    The interpreter loop allocates millions of acyclic objects; a gen-2
    collection walking the whole accumulated bench heap mid-measurement
    adds seconds of noise on long runs.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _timed_engine_run(workload, engine: str):
    program = assemble(workload.source)
    cpu = CortexM0(MemoryMap.embedded_system(), trace=ActivityTrace())
    cpu.load_program(program)
    with _gc_quiet():
        start = time.perf_counter()
        stats = cpu.run(engine=engine)
        wall = time.perf_counter() - start
    return stats, cpu.regs.read(0), wall


def run_bench(
    output_path: Optional[Path] = None,
    measure_legacy_full: bool = False,
) -> dict:
    """Collect the benchmark numbers; optionally write the artifact."""
    report: dict = {
        "schema": "bench-iss/3",
        "iss_version": ISS_VERSION,
        "python": platform.python_version(),
        "generated_unix": time.time(),
    }

    # -- engine comparison on a medium config --------------------------
    medium = matmul_int.workload(n=12, repeats=8, tune=5)
    legacy_stats, legacy_sum, legacy_wall = _timed_engine_run(
        medium, "legacy"
    )
    sb_stats, sb_sum, sb_medium_wall = _timed_engine_run(medium, "superblock")
    report["engine_comparison_medium"] = {
        "workload": "matmul-int n=12 repeats=8 tune=5",
        "legacy_wall_seconds": legacy_wall,
        "superblock_wall_seconds": sb_medium_wall,
        "speedup_superblock_over_legacy": legacy_wall / sb_medium_wall,
        "bit_identical": (
            legacy_stats.cycles == sb_stats.cycles
            and legacy_stats.instructions == sb_stats.instructions
            and legacy_sum == sb_sum
        ),
    }

    # -- full-length matmul on the superblock engine -------------------
    # Best of two runs: a single sample of a multi-second measurement is
    # vulnerable to scheduler noise on a shared host.
    full = matmul_int.workload()
    sb_wall = float("inf")
    for _ in range(2):
        with _gc_quiet():
            start = time.perf_counter()
            result = run_workload(full, engine="superblock")
            sb_wall = min(sb_wall, time.perf_counter() - start)
    cycles_match_paper = result.cycles == matmul_int.PAPER_CYCLE_COUNT
    report["superblock"] = {
        "wall_seconds": sb_wall,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "sim_cycles_per_second": result.cycles / sb_wall,
        "mips": result.instructions / sb_wall / 1e6,
        "checksum": f"{result.checksum:#010x}",
        "cycles_match_paper": cycles_match_paper,
        "checksum_correct": result.correct,
        "bit_identical": cycles_match_paper and result.correct,
    }
    if measure_legacy_full:
        lf_stats, lf_sum, lf_wall = _timed_engine_run(full, "legacy")
        report["matmul_full_legacy"] = {
            "wall_seconds": lf_wall,
            "speedup_superblock_over_legacy": lf_wall / sb_wall,
            "bit_identical": (
                lf_stats.cycles == result.cycles
                and lf_stats.instructions == result.instructions
                and lf_sum == result.checksum
            ),
        }
    else:
        # Estimated from the directly measured medium-config ratio.
        report["matmul_full_legacy_estimate"] = {
            "wall_seconds": sb_wall
            * report["engine_comparison_medium"][
                "speedup_superblock_over_legacy"
            ],
            "basis": "medium-config speedup x full superblock wall",
        }

    # -- N-lane vector engine ------------------------------------------
    from repro.cpu.vector_engine import run_lanes
    from repro.runtime.parallel import run_workloads_vector

    sb_mips = report["superblock"]["mips"]

    # N=1 property run: the vector engine degenerates to one lane and
    # must stay bit-identical to the paper goldens on the full workload.
    with _gc_quiet():
        start = time.perf_counter()
        n1 = run_lanes(full.source, lanes=1)
        n1_wall = time.perf_counter() - start
    n1_lane = n1.lanes[0]
    vector: dict = {
        "n1_wall_seconds": n1_wall,
        "n1_vectorized": n1.vectorized,
        "n1_bit_identical": (
            n1.vectorized
            and n1_lane.checksum == full.expected_checksum
            and n1_lane.cycles == matmul_int.PAPER_CYCLE_COUNT
            and n1_lane.instructions == result.instructions
        ),
    }

    # Lane-scaling rows: N seed-parameterized matmul variants share one
    # program text and run in lockstep.  Aggregate MIPS is total
    # retired instructions over the group wall; speedup is against the
    # superblock MIPS measured above on this same host.
    scale_cfg = dict(n=20, repeats=20, tune=1000)
    for n_lanes in (8, 16, 32, 64):
        variants = [
            matmul_int.seed_variant(12345 + 7919 * i, **scale_cfg)
            for i in range(n_lanes)
        ]
        lane_words = [w.data_words for w in variants]
        src = variants[0].source
        run_lanes(src, lane_words=lane_words[: max(2, n_lanes // 4)])  # warm
        with _gc_quiet():
            start = time.perf_counter()
            vres = run_lanes(src, lane_words=lane_words)
            wall = time.perf_counter() - start
        mips = vres.total_instructions / wall / 1e6
        vector[f"n{n_lanes}"] = {
            "lanes": n_lanes,
            "wall_seconds": wall,
            "vectorized": vres.vectorized,
            "total_instructions": vres.total_instructions,
            "aggregate_mips": mips,
            "speedup_vs_superblock": mips / sb_mips,
            "all_correct": all(
                lane.checksum == w.expected_checksum
                for w, lane in zip(variants, vres.lanes)
            ),
        }

    # 8-variant suite through the vector runner (end-to-end path).
    from repro.analysis.suite_study import seed_variant_configs

    suite_variants = seed_variant_configs(8)
    with _gc_quiet():
        start = time.perf_counter()
        vreport = run_workloads_vector(suite_variants, cache=False)
        vsuite_wall = time.perf_counter() - start
    vector["suite_8_variants"] = {
        "wall_seconds": vsuite_wall,
        "vector_groups": vreport.vector_groups,
        "vector_lanes": vreport.vector_lanes,
        "aggregate_mips": vreport.mips,
        "all_correct": all(r.correct for r in vreport.results),
    }
    report["vector_lanes"] = vector

    # -- suite study: serial cold, parallel cold, warm cache -----------
    from repro.analysis.suite_study import run_suite_study

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        bench_cache = ResultCache(Path(tmp))

        def cold_suite(jobs: Optional[int]) -> float:
            start = time.perf_counter()
            run_suite_study(cache=False, jobs=jobs)
            return time.perf_counter() - start

        # The serial/parallel comparison is only meaningful when the
        # pool actually gets more than one worker.  On a single-CPU
        # host it collapses to a serial rerun, so skip the measurement
        # rather than publish a same-vs-same "comparison".  Otherwise
        # run alternating pairs, each arm going first in half of them,
        # so warm-up and host drift land on both arms alike.
        from repro.runtime.parallel import resolve_jobs

        cpus = os.cpu_count() or 1
        parallel_jobs = resolve_jobs(None, 8)
        parallel_cold: Optional[float] = None
        pairs = []
        if parallel_jobs > 1:
            for i in range(SUITE_PAIRS):
                if i % 2 == 0:
                    serial = cold_suite(1)
                    parallel = cold_suite(None)
                else:
                    parallel = cold_suite(None)
                    serial = cold_suite(1)
                pairs.append({"serial_s": serial, "parallel_s": parallel})
            serial_cold = statistics.median(p["serial_s"] for p in pairs)
            parallel_cold = statistics.median(p["parallel_s"] for p in pairs)
        else:
            serial_cold = cold_suite(1)

        start = time.perf_counter()
        run_suite_study(cache=bench_cache)  # cold: primes the cache
        prime_wall = time.perf_counter() - start

        start = time.perf_counter()
        run_suite_study(cache=bench_cache)  # warm: all hits
        warm_wall = time.perf_counter() - start

        report["suite_study"] = {
            "workloads": 8,
            "cpus_available": cpus,
            "serial_cold_wall_seconds": serial_cold,
            "parallel_cold_wall_seconds": parallel_cold,
            "parallel_pairs": pairs,
            "parallel_pair_wins": sum(
                p["parallel_s"] < p["serial_s"] for p in pairs
            ),
            "parallel_jobs": parallel_jobs,
            "parallel_comparison_valid": parallel_jobs > 1,
            "cold_prime_wall_seconds": prime_wall,
            "warm_cache_wall_seconds": warm_wall,
            "warm_cache_hits": bench_cache.hits,
            "warm_under_5s": warm_wall < 5.0,
        }

        # -- single-entry cache timings --------------------------------
        entry_cache = ResultCache(Path(tmp) / "entry")
        start = time.perf_counter()
        run_workload_cached(medium, cache=entry_cache)
        miss_wall = time.perf_counter() - start
        start = time.perf_counter()
        _, was_hit = run_workload_cached(medium, cache=entry_cache)
        hit_wall = time.perf_counter() - start
        report["cache_entry"] = {
            "miss_wall_seconds": miss_wall,
            "hit_wall_seconds": hit_wall,
            "hit_was_hit": was_hit,
            "hit_speedup": miss_wall / hit_wall if hit_wall > 0 else None,
        }

    if output_path is not None:
        output_path = Path(output_path)
        output_path.parent.mkdir(parents=True, exist_ok=True)
        output_path.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return report
