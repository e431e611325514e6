"""A sample's bits do not depend on the other samples of its product under
another OpenBLAS kernel either.  `vqc` pads every product to a multiple of
8 rows so that this holds whichever kernel OpenBLAS picks for the host,
but a suite run exercises the host's kernel only.  This re-runs the tests
that compare products of different sizes bit for bit in a subprocess under
each of the Haswell kernel, the one OpenBLAS picks on AVX2-only Intel and
AMD Zen CPUs, the Sandybridge kernel (AVX) and the Prescott kernel (SSE3);
without the padding, their tail tiles give a row other bits than its full
ones."""
from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qvuln

ROOT = Path(__file__).resolve().parents[1]
# the tests whose products of different sizes must agree bit for bit
BIT_TESTS = [
    "tests/test_vqc.py::TestBatch",
    # the build's transfer product has 48 columns, the oracle's 120
    "tests/test_vqc.py::TestObservablesOracle",
    "tests/test_qlstm.py::TestCostModel::test_rows_in_products_equal_rows_step_by_step",
    "tests/test_qlstm.py::TestCostModel::test_windows_give_the_gradients_of_one_window_per_step",
    "tests/test_trainer.py::TestEvaluate::test_predictions_do_not_depend_on_chunk_size",
]


def _dynamic_openblas() -> bool:
    """Whether numpy's BLAS is an OpenBLAS that picks its kernel at run time,
    so that OPENBLAS_CORETYPE can force another."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def _cpu_flags() -> set[str]:
    """The instruction-set flags this CPU reports, empty if unknown."""
    try:
        found = re.search(r"^flags\b.*$", Path("/proc/cpuinfo").read_text(), re.M)
    except OSError:
        return set()
    return set(found.group().split()) if found else set()


# OPENBLAS_CORETYPE: (the CPU flag its kernel needs, the names a run may
# report for it); an x86-64 OpenBLAS reports its Prescott kernel as Katmai,
# the older core that shares it
KERNELS = {"Haswell": ("avx2", ("Haswell",)),
           "Sandybridge": ("avx", ("Sandybridge",)),
           "Prescott": ("pni", ("Prescott", "Katmai"))}


@pytest.mark.skipif(not _dynamic_openblas(), reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
@pytest.mark.parametrize("core", KERNELS)
def test_product_size_tests_pass_under_the_kernel(core):
    flag, names = KERNELS[core]
    if flag not in _cpu_flags():
        pytest.skip(f"the CPU has no {flag} for OpenBLAS's {core} kernel")
    src = str(Path(qvuln.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": core, "OPENBLAS_VERBOSE": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # --capture=sys lets OpenBLAS's report of its kernel, written to the
    # process's stderr when numpy loads, through
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-W", "error", "-p", "no:cacheprovider",
         "--capture=sys", *BIT_TESTS],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    reported = re.findall(r"^Core: (\w+)", done.stderr, re.M)
    assert reported and set(reported) <= set(names), done.stderr
    assert done.returncode == 0, done.stdout[-4000:]
