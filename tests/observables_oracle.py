"""Reference observables build: the straightforward `qvuln.vqc._observables`
that the distinct-rotation build replaced, kept as the oracle it is checked
against bit for bit.  It rotates every (circuit, qubit) of layer 1, 100
rotations, shifts the angles with `shift_rows`, takes each product's
circuits and directions by index, and applies the first ring to a full
(string, product, q) copy of the product before it picks the outputs.

It takes from `qvuln.vqc` only what both builds read: the ring's signed
permutation, its images of X_q, Y_q, Z_q, the light cones, the open-digit
rows and the gate helpers `_rotations` and `_transfers`.  `test_vqc.py`
checks those against the dense oracle."""
from __future__ import annotations

import numpy as np

from qvuln.vqc import (
    _CONES, _IMAGE_DIGITS, _IMAGE_SIGNS, _OPEN_ROWS, _RING_GATHER, _RING_SIGNS, DIM, N_LAYERS,
    N_QUBITS, SHIFT, _rotations, _transfers,
)

# layer 1's 25 circuits: unshifted, then each of its 12 angles +SHIFT and -SHIFT
N_FIRST = 1 + 2 * N_QUBITS * 3
# the 29 products, one column per qubit q each: the unshifted circuit's, then
# those of +SHIFT and then of -SHIFT (sign, 14): layer 1's 12 circuits with
# that angle shifted, in Z_q's unshifted direction, then circuit 0's in the
# direction with Z_q's own layer-2 slot 0 or 1 shifted
_SIGN = np.arange(2)[:, None]
PRODUCT_CIRCUITS = np.r_[0, np.hstack([1 + 2 * np.arange(12) + _SIGN, np.zeros((2, 2), np.intp)]).ravel()]
PRODUCT_DIRECTIONS = np.r_[0, np.hstack([np.zeros((2, 12), np.intp), 1 + 2 * np.arange(2) + _SIGN]).ravel()]


def shift_rows(base: np.ndarray) -> np.ndarray:
    """(..., n) -> (..., 1 + 2n, n): row 0 is `base`; rows 1 + 2k and 2 + 2k
    shift slot k by +SHIFT and -SHIFT."""
    n = base.shape[-1]
    rows = np.repeat(base[..., None, :], 1 + 2 * n, axis=-2)
    k = np.arange(n)
    rows[..., 1 + 2 * k, k] += SHIFT
    rows[..., 2 + 2 * k, k] -= SHIFT
    return rows


def observables(angle_bytes: bytes) -> tuple[np.ndarray, tuple[np.ndarray, ...], np.ndarray]:
    """What `_observables` returns for the angles: the (16, 64) unshifted
    columns by low pair, the four (|S_q|, 28) light-cone blocks and the
    (4, 64, 16) columns with one qubit's digit open."""
    angles = np.frombuffer(angle_bytes).reshape(N_LAYERS, N_QUBITS, 3)
    first = shift_rows(angles[0].reshape(-1)).reshape(-1, 3)
    second = shift_rows(angles[1])[:, :5].reshape(-1, 3)
    transfer = _transfers(_rotations(np.concatenate([first, second])))
    n_first = first.shape[0]
    direction = transfer[1:, 3, n_first:].reshape(3, N_QUBITS, 5) * _IMAGE_SIGNS[:, :, None]
    layer = transfer[:, :, :n_first].reshape(4, 4, N_FIRST, N_QUBITS).transpose(3, 1, 0, 2)
    factors = layer[np.arange(N_QUBITS)[:, None, None], _IMAGE_DIGITS.transpose(2, 0, 1)]
    high = (factors[3][:, :, :, None] * factors[2][:, :, None]).reshape(3, N_QUBITS, 16, -1)
    low = (factors[1][:, :, :, None] * factors[0][:, :, None]).reshape(3, N_QUBITS, 16, -1)
    weighted = high[..., PRODUCT_CIRCUITS] * direction[:, :, None, PRODUCT_DIRECTIONS]
    cols = np.matmul(weighted.transpose(1, 3, 2, 0), low[..., PRODUCT_CIRCUITS].transpose(1, 3, 0, 2))
    cols = cols.reshape(N_QUBITS, -1, DIM * DIM).transpose(2, 1, 0)[_RING_GATHER]
    cols *= _RING_SIGNS[:, None, None]
    base = cols[:, 0]
    by_low = np.ascontiguousarray(base.reshape(16, 16, N_QUBITS).transpose(1, 0, 2)).reshape(16, -1)
    blocks = tuple(cols[cone, 1:, q] for q, cone in enumerate(_CONES))
    open_ = base[_OPEN_ROWS].reshape(N_QUBITS, -1, 4 * N_QUBITS)
    return by_low, blocks, open_
