"""The ``paper-cold`` workload: cold reproductions in fresh interpreters.

Each reproduction is ``paper_cold.py`` in a new ``python3`` process with
an empty ``REPRO_CACHE_DIR``.  This module generates its inputs, times
it from spawn to exit, and checks everything it reports against values
computed here from the workloads' Python models and the paper.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from common import BenchFailure, median

PAPER_CYCLES = 20_047_348
PAPER_INSTRUCTIONS = 13_679_545
CLOCK_HZ = 500e6
#: ``content_hash`` of the 11 artifacts at the pipeline's default
#: parameters (US grid, 24 months, 500 MHz, seed 0, 1000 MC samples).
ARTIFACT_CONTENT_HASH = (
    "6e83e7b071ccda9dfaf7793853d7bae75a3886b8d428e99be662a60a180423b7"
)
CHILD_TIMEOUT_S = 150.0


def _expected_checksums(lane_seeds: List[int]) -> Dict[str, int]:
    """Checksum each ISS result must carry, by workload name."""
    from repro.analysis.suite_study import default_study_configs
    from repro.workloads import matmul_int

    expected = {w.name: w.expected_checksum for w in default_study_configs()}
    for seed in lane_seeds:
        expected[f"matmul-int-s{seed}"] = matmul_int.golden_checksum(
            matmul_int.N, seed
        )
    return expected


def _reproduce(
    root: Path, workdir: Path, index: int, inputs: Path, traced: bool
) -> Dict[str, Any]:
    cache = workdir / f"cache{index}"
    scratch = workdir / f"work{index}"
    cache.mkdir()
    scratch.mkdir()
    out = workdir / f"out{index}.json"
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(root / "src"),
        REPRO_CACHE_DIR=str(cache),
        TMPDIR=str(workdir),
    )
    argv = [
        sys.executable,
        str(Path(__file__).resolve().parent / "paper_cold.py"),
        "--inputs", str(inputs),
        "--out", str(out),
        "--workdir", str(scratch),
        "--trace", "1" if traced else "0",
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            argv, cwd=str(root), env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchFailure(f"reproduction did not finish in {CHILD_TIMEOUT_S} s")
    exited = time.monotonic()
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace")[-2000:]
        raise BenchFailure(f"reproduction exited {proc.returncode}:\n{tail}")
    report = json.loads(out.read_text())
    report["spawned"] = spawned
    report["wall_s"] = exited - spawned
    report["setup_s"] = report["first_call"] - spawned
    report["results"] = {}
    for entry in sorted(cache.glob("*.json")):
        payload = json.loads(entry.read_text())
        report["results"][payload["workload"]] = payload["result"]
    return report


def _check(report: Dict[str, Any], expected: Dict[str, int]) -> None:
    from repro.workloads import matmul_int

    matmul = report["matmul"]
    problems = []
    if matmul["checksum"] != matmul_int.golden_checksum():
        problems.append(f"matmul checksum {matmul['checksum']:#x}")
    if matmul["cycles"] != PAPER_CYCLES:
        problems.append(f"matmul cycles {matmul['cycles']}")
    if matmul["instructions"] != PAPER_INSTRUCTIONS:
        problems.append(f"matmul instructions {matmul['instructions']}")
    for label, timing in report["timing"].items():
        if not timing["meets_clock"] or timing["clock_hz"] != CLOCK_HZ:
            problems.append(f"{label} eDRAM misses timing at 500 MHz")
    if report["iss_cache"] != {"hits": 0, "misses": len(expected)}:
        problems.append(f"ISS result cache not cold: {report['iss_cache']}")
    observed = {n: r["checksum"] for n, r in report["results"].items()}
    if observed != expected:
        wrong = sorted(
            n for n in set(expected) | set(observed)
            if observed.get(n) != expected.get(n)
        )
        problems.append(f"ISS checksums differ for {wrong}")
    if report["content_hash"] != ARTIFACT_CONTENT_HASH:
        problems.append(f"artifact content_hash {report['content_hash']}")
    if problems:
        raise BenchFailure("paper-cold: " + "; ".join(problems))


def run_paper_cold(
    root: Path, workdir: Path, spec: Dict[str, Any], seed: int, seconds: float, trace: bool
) -> Dict[str, Any]:
    rng = random.Random(seed)
    lane_seeds = [rng.randrange(1, 1 << 31) for _ in range(spec["lanes"])]
    inputs = workdir / "inputs.json"
    inputs.write_text(json.dumps({"lane_seeds": lane_seeds}))
    expected = _expected_checksums(lane_seeds)

    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    min_runs = spec["min_runs"] * (2 if trace else 1)
    start = time.monotonic()
    index = 0
    while index < min_runs or time.monotonic() - start < seconds:
        # Traced and plain reproductions alternate, so their difference
        # is the tracing overhead under the same machine conditions.
        with_spans = trace and index % 2 == 1
        report = _reproduce(root, workdir, index, inputs, with_spans)
        _check(report, expected)
        (traced if with_spans else plain).append(report)
        index += 1

    walls = [r["wall_s"] for r in plain]
    limit_s = spec["latency_limit_ms"] / 1e3
    result: Dict[str, Any] = {
        "attempted": index,
        "failed": 0,
        "metrics": {
            "setup_s": median([r["setup_s"] for r in plain]),
            "wall_s": median(walls),
            "peak_rss_mb": median([r["peak_rss_kb"] for r in plain]) / 1024.0,
            "throughput_qps": len(walls) / sum(walls),
            "latency_p50_ms": median(walls) * 1e3,
            "goodput_share": sum(w <= limit_s for w in walls) / len(walls),
            "success_share": 1.0,
        },
        "notes": {"reproductions": len(plain), "traced": len(traced)},
    }
    if trace:
        result["layers"] = _layers(traced, plain, expected)
    return result


def _layers(
    traced: List[Dict[str, Any]], plain: List[Dict[str, Any]], expected: Dict[str, int]
) -> Dict[str, float]:
    """Medians over the traced reproductions of each layer figure."""
    lanes = [n for n in expected if n.startswith("matmul-int-s")]

    def per_run(report: Dict[str, Any]) -> Dict[str, float]:
        spans = report["layers"]
        matmul = report["matmul"]
        lane_instructions = sum(report["results"][n]["instructions"] for n in lanes)
        row = {
            "cpu.busy_s": spans.get("cpu", 0.0),
            "cpu.instructions": matmul["instructions"],
            "cpu.cycles": matmul["cycles"],
            "cpu.mips": matmul["instructions"] / matmul["cpu_s"] / 1e6,
            "cpu.vector.busy_s": spans.get("cpu.vector", 0.0),
            "cpu.vector.aggregate_mips": (
                lane_instructions / spans["cpu.vector"] / 1e6
            ),
            "spice.busy_s": spans.get("spice", 0.0),
            "fab.busy_s": spans.get("fab", 0.0),
            "physical.busy_s": spans.get("physical", 0.0),
            "core.embodied.busy_s": spans.get("core.embodied", 0.0),
            "analysis.case_study.busy_s": spans.get("analysis.case_study", 0.0),
            "analysis.suite_study.busy_s": spans.get("analysis.suite_study", 0.0),
            "analysis.artifacts.busy_s": spans.get("analysis.artifacts", 0.0),
            "workloads.busy_s": spans.get("workloads", 0.0),
            "runtime.busy_s": spans.get("runtime", 0.0),
            "runtime.import_s": report["import_s"],
            "runtime.interpreter_s": report["started"] - report["spawned"],
            "runtime.cache.iss_hits": report["iss_cache"]["hits"],
            "runtime.cache.iss_misses": report["iss_cache"]["misses"],
            "unattributed_s": (
                report["wall_s"] - report["setup_s"] - sum(spans.values())
            ),
        }
        for name, seconds in report["artifact_s"].items():
            row[f"analysis.artifacts.{name}_s"] = seconds
        return row

    rows = [per_run(r) for r in traced]
    layers = {}
    for key in rows[0]:
        values = [row[key] for row in rows]
        # Counts repeat exactly; keep them as the whole numbers they are.
        layers[key] = values[0] if len(set(values)) == 1 else median(values)
    layers["trace.overhead_s"] = median([r["wall_s"] for r in traced]) - median(
        [r["wall_s"] for r in plain]
    )
    return layers
