"""Steady-loop micro-run of a QLSTM training batch: `python tests/micro_batch.py TREE`.

It imports `qvuln` from TREE's `src` and runs a seeded batch (B 16, T 24,
d_x 50), forward, backward and Adam, 5 warm-ups and then 40 timed, on one
BLAS thread and one CPU.  It prints the median and minimum ms a batch, the
minor page faults a batch (`ru_minflt`), and one 50-sample forward right
after an Adam step, so with no observables cached.  Compare trees in
alternating processes, since a shared host's speed drifts.
"""
from __future__ import annotations

import os
import resource
import statistics
import sys
import time
from pathlib import Path

B, T, D_X = 16, 24, 50
WARM, TIMED = 5, 40


def main(tree: str) -> None:
    # before numpy loads OpenBLAS, which reads its thread count once
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(Path(tree).resolve() / "src"))
    import numpy as np
    from qvuln.neural import OptimizerState, adam_step, bce_from_logit
    from qvuln.qlstm import init_qlstm_params, qlstm_backward, qlstm_forward

    rng = np.random.default_rng(7)
    params = init_qlstm_params(D_X, rng)
    x = rng.normal(size=(B, T, D_X))
    labels = rng.integers(0, 2, size=B).astype(float)
    eval_x = rng.normal(size=(50, T, D_X))
    opt = OptimizerState(params.vector.size, 0.01)

    def batch() -> None:
        logits, caches = qlstm_forward(params, x)
        _, dlogits = bce_from_logit(logits, labels)
        grads, _ = qlstm_backward(params, caches, dlogits)
        adam_step(opt, params.vector, grads.vector / B)

    for _ in range(WARM):
        batch()
    times = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(TIMED):
        start = time.perf_counter()
        batch()
        times.append(time.perf_counter() - start)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    start = time.perf_counter()
    qlstm_forward(params, eval_x, keep_caches=False)
    forward = time.perf_counter() - start
    print(f"batch median {1e3 * statistics.median(times):.2f} ms, min {1e3 * min(times):.2f} ms, "
          f"{faults / TIMED:.1f} minor faults a batch; 50-sample forward {1e3 * forward:.2f} ms")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/micro_batch.py TREE")
    main(sys.argv[1])
