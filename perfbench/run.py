"""The repo benchmark: one command for every workload.

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints every end-to-end
metric of ``BENCHMARK.json``; ``--trace 1`` prints every per-layer
metric (0 where the workload does no work in that layer).  The last
line of standard output is the JSON result; diagnostics go before it.
A run whose outputs fail a check prints ``"correct": false`` and no
metrics, and exits 1.  ``workloads.json`` holds each workload's
parameters and the layer-to-end-to-end map.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import BenchFailure  # noqa: E402


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "workloads.json").read_text())["workloads"]
    if args.workload not in spec:
        print(f"unknown workload {args.workload!r}; one of {sorted(spec)}",
              file=sys.stderr)
        return 2
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    # Build step: byte-compile the sources once, so every fresh
    # interpreter the workloads start imports compiled modules.
    compileall.compile_dir(str(root / "src"), quiet=1)
    sys.path.insert(0, str(root / "src"))
    os.environ.pop("REPRO_TRACE", None)

    workdir = root / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = dict(spec[args.workload], name=args.workload)
    try:
        if args.workload == "paper-cold":
            from paper import run_paper_cold as run
        else:
            from serve import run_serve as run
        out = run(root, workdir, workload, args.seed, args.seconds, bool(args.trace))
    except BenchFailure as exc:
        print(f"FAILED: {exc}")
        print(_result(False, 1, 1, {}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = out["layers"] if args.trace else out["metrics"]
    for name, count in out.get("notes", {}).items():
        print(f"notes.{name} = {count}")
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        value = values.get(name, 0.0) if args.trace else values[name]
        metrics[name] = {"value": value, "unit": metric["unit"]}
        print(f"{name} = {value} {metric['unit']}")
    print(_result(True, out["attempted"], out["failed"], metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
