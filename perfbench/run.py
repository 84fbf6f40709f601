"""Run one benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload etth1-train --seed 1 --seconds 10 --trace 0

The program is imported from ``./src``.  Inputs, run records and traces
go under ``./.perfbench``.  With ``--trace 0`` the run measures the
end-to-end metrics of ``BENCHMARK.json`` with tracing off; with
``--trace 1`` it measures the per-layer metrics from a traced run.  Each
metric is printed as ``name = value unit (n samples)``, the environment as
``env.key = value``, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# BLAS and OpenMP threads are pinned before numpy is imported.  On a 2-vCPU
# machine one thread ran an ETTh1-shaped training step faster than two
# (259 vs 269 ms).
BLAS_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
OUTPUT_DIR = ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "mixlinear" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from the repository root (needs src/mixlinear and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]

    for variable in THREAD_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    sys.path.insert(0, str(root / "src"))
    import workloads

    out = root / OUTPUT_DIR
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), out)
    measured = result["metrics"]
    if set(measured) != {m["name"] for m in declared}:
        print(f"perfbench: measured {sorted(measured)} but BENCHMARK.json declares "
              f"{sorted(m['name'] for m in declared)}", file=sys.stderr)
        return 2

    results_dir = out / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    for key, value in result["environment"].items():
        print(f"env.{key} = {value}")
    for metric in declared:
        value, samples = measured[metric["name"]]
        print(f"{metric['name']} = {value!r} {metric['unit']} ({samples} samples)")
    for name, share in result.get("layer_shares", {}).items():
        print(f"share.{name} = {share:.4f}")
    failures = result["checks"]["failures"]
    print(json.dumps({
        "correct": not failures,
        "attempted": result["checks"]["attempted"],
        "failed": len(failures),
        "metrics": {m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
