"""qvuln benchmark entry point.

    python3 bench/run.py --workload qlstm-classify --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. The program is imported from the
checkout's `src/`, and the corpus generator from its `tests/conftest.py`.
With --trace 0 a run measures pipeline rounds untraced and reports the
end-to-end metrics; with --trace 1 it runs one traced round and reports the
per-layer metrics. The last line of standard output is one JSON object:
correct, attempted, failed, metrics. The line before it is a JSON record
with the machine facts and the run's details. Traced runs also write their
spans to .bench_out/. Scratch files go to .bench_work/ and are removed at
exit.

Without the program's sources next to this directory the run exits with
code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("qlstm-classify", "lstm-classify")
# One process, one BLAS/OpenMP thread: the model's matrices are at most
# 50 x 104, and extra threads only add scheduling noise on a shared machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="qvuln benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int, help="corpus generator seed (>= 0)")
    parser.add_argument("--seconds", required=True, type=float,
                        help="measuring time; sets the number of pipeline rounds")
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def machine_facts(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "qvuln" / "__init__.py").is_file() or not (ROOT / "tests" / "conftest.py").is_file():
        print(f"error: no qvuln sources (src/qvuln, tests/conftest.py) under {ROOT}",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import numpy as np
    import qvuln

    if Path(qvuln.__file__).resolve().parent != (src / "qvuln").resolve():
        print(f"error: imported qvuln from {qvuln.__file__}, not from {src}", file=sys.stderr)
        return 2
    import harness

    workload = harness.WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}"
    work = ROOT / ".bench_work" / f"{tag}-trace{args.trace}-{os.getpid()}"
    spans_path = ROOT / ".bench_out" / f"spans-{tag}.jsonl" if args.trace else None
    try:
        result = harness.run(workload, args.seed, args.seconds, bool(args.trace), work, spans_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(wanted - result.metrics.keys())
    problems = result.problems + [f"metric not measured: {name}" for name in missing]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(np), "problems": problems,
        **result.record,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": result.failed == 0 and not problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items() if name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
