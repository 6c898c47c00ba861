"""One cold reproduction of the paper, run in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH=src`` and an empty
``REPRO_CACHE_DIR``; reads its generated inputs from ``--inputs`` and
writes what it observed to ``--out`` as JSON.  The parent checks the
outputs; this script only reports them.

Steps, in the order a reader reproducing the paper runs them:

1. the paper matmul on the default ISS engine;
2. the Sec. III case study with the SPICE timing check;
3. the 8-workload suite study (serial, through the result cache);
4. a seed-variant matmul sweep through the N-lane vector engine;
5. all artifacts through ``run_artifact_pipeline`` (no sweep cache).

With ``--trace 1`` the public functions of each layer are wrapped by
``layers.LayerClock`` before step 1, and their self times are reported.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _install_layer_spans():
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from layers import LayerClock

    import repro.analysis.artifacts as artifacts
    import repro.analysis.case_study as case_study
    import repro.analysis.suite_study as suite_study
    import repro.cpu.vector_engine as vector_engine
    import repro.physical.stdcells as stdcells
    import repro.runtime.parallel as parallel
    import repro.workloads.suite as suite
    from repro.core.embodied import EmbodiedCarbonModel
    from repro.cpu.simulator import CortexM0
    from repro.physical.floorplan import Floorplan
    from repro.physical.power import CorePowerModel

    clock = LayerClock()
    spans = [
        (CortexM0, "run", "cpu"),
        (suite, "run_workload", "workloads"),
        (vector_engine, "run_lanes", "cpu.vector"),
        (case_study, "characterize", "spice"),
        (case_study, "build_all_si_process", "fab"),
        (case_study, "build_m3d_process", "fab"),
        (CorePowerModel, "select_design", "physical"),
        (CorePowerModel, "core_area_um2", "physical"),
        (Floorplan, "row_of", "physical"),
        (case_study, "dies_per_wafer", "physical"),
        (stdcells, "make_library", "physical"),
        (EmbodiedCarbonModel, "evaluate", "core.embodied"),
        (case_study, "build_case_study", "analysis.case_study"),
        (artifacts, "build_case_study", "analysis.case_study"),
        (suite_study, "build_all_si_system", "analysis.case_study"),
        (suite_study, "build_m3d_system", "analysis.case_study"),
        (suite_study, "run_suite_study", "analysis.suite_study"),
        (parallel, "run_workloads", "runtime"),
        (parallel, "run_workloads_vector", "runtime"),
        (artifacts, "run_artifact_pipeline", "analysis.artifacts"),
    ]
    for owner, name, layer in spans:
        clock.wrap(owner, name, layer)
    return clock


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    inputs = json.loads(Path(args.inputs).read_text())

    import_start = time.monotonic()
    import repro.analysis.artifacts as artifacts
    import repro.analysis.case_study as case_study
    import repro.analysis.suite_study as suite_study
    import repro.workloads.suite as suite
    from repro.runtime.cache import ResultCache
    from repro.workloads import matmul_int

    import_s = time.monotonic() - import_start
    clock = _install_layer_spans() if args.trace else None

    first_call = time.monotonic()
    matmul = suite.run_workload(matmul_int.workload())
    matmul_cpu_s = clock.busy_s("cpu") if clock else 0.0

    case = case_study.build_case_study(verify_timing=True)
    timing = {}
    for label, system in (("all_si", case.all_si), ("m3d", case.m3d)):
        timing[label] = {
            "write_delay_s": system.timing.write_delay_s,
            "read_delay_s": system.timing.read_delay_s,
            "meets_clock": system.timing.meets_clock(system.clock_hz),
            "clock_hz": system.clock_hz,
        }

    suite_cache = ResultCache()
    suite_study.run_suite_study(
        configs=suite_study.default_study_configs(), jobs=1, cache=suite_cache
    )
    vector_cache = ResultCache()
    variants = [
        matmul_int.seed_variant(seed, repeats=2, tune=1)
        for seed in inputs["lane_seeds"]
    ]
    suite_study.run_suite_study(
        configs=variants, jobs=1, cache=vector_cache, vector=True
    )

    manifest = artifacts.run_artifact_pipeline(
        Path(args.workdir) / "artifacts", jobs=1, sweep_cache=None
    )
    finished = time.monotonic()

    report = {
        "started": STARTED,
        "first_call": first_call,
        "finished": finished,
        "import_s": import_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "matmul": {
            "checksum": matmul.checksum,
            "cycles": matmul.cycles,
            "instructions": matmul.instructions,
            "cpu_s": matmul_cpu_s,
        },
        "timing": timing,
        "iss_cache": {
            "hits": suite_cache.hits + vector_cache.hits,
            "misses": suite_cache.misses + vector_cache.misses,
        },
        "content_hash": manifest["content_hash"],
        "artifact_s": {
            name: entry["wall_seconds"]
            for name, entry in manifest["artifacts"].items()
        },
        "layers": dict(clock.self_s) if clock else {},
    }
    Path(args.out).write_text(json.dumps(report))


if __name__ == "__main__":
    main()
