"""Variational quantum circuit block on 4 qubits.

Forward pass: a trainable affine map compresses the classical input to 4
values a_i, each loaded by H, RY(arctan a_i), RZ(arctan a_i^2) on qubit i;
two variational layers follow, each a CNOT ring (0->1, 1->2, 2->3, 3->0)
and per-qubit RZ/RY/RZ rotations; the readout is the Pauli-Z expectation
per qubit, scaled by two trainable scalars.

The encoding leaves a product state, written in closed form.  The two
variational layers depend only on the angles: `qsim` runs them on the 16
basis states, in one batch, to build their 16x16 matrix for the angles and
for each parameter shift, and a small cache keyed on the angle values keeps
those matrices between calls.  Each circuit evaluation is then a product
state times a matrix.

Gradients are exact: the parameter-shift rule (+-pi/2) for every rotation
angle, chained through arctan and the affine compression for the encoding
side.  Each computed expectation row counts as one circuit evaluation.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .qsim import StateVector, apply_circuit, cnot, ry, rz

N_QUBITS = 4
N_LAYERS = 2
DIM = 1 << N_QUBITS
SHIFT = np.pi / 2.0

# Z_SIGNS[b, q] = +1 if bit q of basis index b is 0 else -1
_BASIS = np.arange(DIM)
Z_SIGNS = 1.0 - 2.0 * ((_BASIS[:, None] >> np.arange(N_QUBITS)[None, :]) & 1)

@dataclass
class EvalCounter:
    """Counts circuit evaluations; one batch row = one evaluation."""

    count: int = 0

    def add(self, n: int = 1) -> None:
        self.count += n


@dataclass
class VqcParams:
    """All trainable values of one circuit block.

    in_proj/bias compress the classical input to 4 values, angles holds the
    two variational layers (layer, qubit, rotation slot), and out_scale /
    out_shift are the two scaling parameters applied to the readout.
    """

    in_proj: np.ndarray  # (4, d_in)
    bias: np.ndarray  # (4,)
    angles: np.ndarray  # (2, 4, 3)
    out_scale: np.ndarray  # ()
    out_shift: np.ndarray  # ()

    @property
    def d_in(self) -> int:
        return self.in_proj.shape[1]

    def tree(self, prefix: str = "") -> dict[str, np.ndarray]:
        return {
            prefix + "in_proj": self.in_proj,
            prefix + "bias": self.bias,
            prefix + "angles": self.angles,
            prefix + "out_scale": self.out_scale,
            prefix + "out_shift": self.out_shift,
        }


@dataclass
class VqcCache:
    """Forward-pass data reused by the backward pass."""

    x: np.ndarray
    projected: np.ndarray  # a = in_proj @ x + bias
    enc_ry: np.ndarray  # arctan(a)
    enc_rz: np.ndarray  # arctan(a^2)
    expectations: np.ndarray  # pre-scaling <Z_i>


@dataclass
class VqcOutput:
    values: np.ndarray  # (4,) scaled readout
    cache: VqcCache = field(repr=False, default=None)


def init_vqc_params(d_in: int, rng: np.random.Generator) -> VqcParams:
    """Seeded initialization: small affine map, small angles, unit scaling."""
    k = 1.0 / np.sqrt(d_in)
    return VqcParams(
        in_proj=rng.uniform(-k, k, size=(N_QUBITS, d_in)),
        bias=np.zeros(N_QUBITS),
        angles=rng.uniform(-0.1 * np.pi, 0.1 * np.pi, size=(N_LAYERS, N_QUBITS, 3)),
        out_scale=np.array(1.0),
        out_shift=np.array(0.0),
    )


def zeros_like_params(params: VqcParams) -> VqcParams:
    return VqcParams(
        in_proj=np.zeros_like(params.in_proj),
        bias=np.zeros_like(params.bias),
        angles=np.zeros_like(params.angles),
        out_scale=np.zeros_like(params.out_scale),
        out_shift=np.zeros_like(params.out_shift),
    )


def _shift_rows(base: np.ndarray) -> np.ndarray:
    """Row 0 is `base`; rows 1 + 2k and 2 + 2k shift slot k by +SHIFT and -SHIFT."""
    rows = np.repeat(base[None, :], 1 + 2 * base.size, axis=0)
    k = np.arange(base.size)
    rows[1 + 2 * k, k] += SHIFT
    rows[2 + 2 * k, k] -= SHIFT
    return rows


def _encode(enc_ry: np.ndarray, enc_rz: np.ndarray) -> np.ndarray:
    """The encoding H, RY(enc_ry), RZ(enc_rz) on |0000>, in closed form.

    It leaves the product state v_3 (x) v_2 (x) v_1 (x) v_0, where qubit q
    holds v_q = (e^{-iz/2} (cos y/2 - sin y/2), e^{iz/2} (cos y/2 + sin y/2))
    / sqrt(2) for y, z its two angles; amplitude b is the product over q of
    the entry of v_q that bit q of b picks, with Z_SIGNS[b, q] as the sign.
    (..., 4) angles give (..., 16) amplitudes.
    """
    c, s = np.cos(enc_ry / 2.0), np.sin(enc_ry / 2.0)
    real = np.prod(c[..., None, :] - Z_SIGNS * s[..., None, :], axis=-1) / 4.0
    return real * np.exp(-0.5j * (enc_rz @ Z_SIGNS.T))


# one QLSTM's six blocks with two to spare; each optimizer step changes all six keys
@lru_cache(maxsize=8)
def _layer_matrices(angle_bytes: bytes) -> np.ndarray:
    """The two variational layers as (49, 16, 16) matrices M, applied as
    `state @ M`: row 0 for the angles themselves, rows 1 + 2k and 2 + 2k
    for angle k shifted by +-SHIFT.  Read-only, since the cache shares it."""
    # a shift changes one layer only, so each layer runs once per own shift
    layers = np.frombuffer(angle_bytes).reshape(N_LAYERS, -1)
    rows = np.stack([_shift_rows(angles) for angles in layers])
    # trailing axis: one angle per 16-row basis batch of (layer, shift)
    rows = rows.reshape(N_LAYERS, -1, N_QUBITS, 3, 1)
    # row b of the identity is basis state |b>, so each result holds U^T
    state = StateVector(N_QUBITS, np.tile(np.eye(DIM, dtype=complex), (*rows.shape[:2], 1, 1)))
    apply_circuit(state, [cnot(c, (c + 1) % N_QUBITS) for c in range(N_QUBITS)])
    for slot, rotation in enumerate((rz, ry, rz)):
        apply_circuit(state, [rotation(rows[:, :, q, slot], q) for q in range(N_QUBITS)])
    first, second = state.amplitudes
    matrices = np.concatenate([first @ second[0], first[0] @ second[1:]])
    matrices.flags.writeable = False
    return matrices


def _matrices_for(params: VqcParams) -> np.ndarray:
    # keyed on content: adam_step updates the angle arrays in place
    return _layer_matrices(np.ascontiguousarray(params.angles, dtype=float).tobytes())


def _z_expectations(amps: np.ndarray) -> np.ndarray:
    return (np.abs(amps) ** 2) @ Z_SIGNS


def vqc_forward(params: VqcParams, x: np.ndarray, counter: EvalCounter | None = None) -> VqcOutput:
    """One circuit evaluation; returns scaled Z expectations plus the cache."""
    x = np.asarray(x, dtype=float)
    if x.shape != (params.d_in,):
        raise ValueError(f"input shape {x.shape} does not match in_proj width {params.d_in}")
    a = params.in_proj @ x + params.bias
    enc_ry = np.arctan(a)
    enc_rz = np.arctan(a * a)
    e = _z_expectations(_encode(enc_ry, enc_rz) @ _matrices_for(params)[0])
    if counter is not None:
        counter.add(1)
    values = params.out_scale * e + params.out_shift
    return VqcOutput(values=values, cache=VqcCache(x, a, enc_ry, enc_rz, e))


def vqc_gradients(
    params: VqcParams,
    x: np.ndarray,
    upstream: np.ndarray,
    counter: EvalCounter | None = None,
) -> tuple[VqcParams, np.ndarray]:
    """Exact gradients of upstream . values w.r.t. params and the input.

    Costs one unshifted evaluation plus two per rotation angle (64 for the
    default shape).  The 65 rows, in slot order (4 encoding RY, 4 encoding
    RZ, then the 24 variational angles in (layer, qubit, slot) order), are
    the unshifted circuit, the 16 encoding-shifted product states times the
    unshifted layer matrix, and the unshifted state times the 48 shifted
    layer matrices.
    """
    x = np.asarray(x, dtype=float)
    upstream = np.asarray(upstream, dtype=float)
    if x.shape != (params.d_in,):
        raise ValueError(f"input shape {x.shape} does not match in_proj width {params.d_in}")
    a = params.in_proj @ x + params.bias
    enc_ry = np.arctan(a)
    enc_rz = np.arctan(a * a)

    enc_rows = _shift_rows(np.concatenate([enc_ry, enc_rz]))
    states = _encode(enc_rows[:, :N_QUBITS], enc_rows[:, N_QUBITS:])
    matrices = _matrices_for(params)
    e_all = _z_expectations(np.concatenate([states @ matrices[0], states[0] @ matrices[1:]]))
    if counter is not None:
        counter.add(e_all.shape[0])
    e = e_all[0]
    # dE[k, i] = d<Z_i>/d(angle_k) by the parameter-shift rule
    d_e = 0.5 * (e_all[1::2] - e_all[2::2])

    de = upstream * float(params.out_scale)  # dL/d<Z_i>
    slot_grads = d_e @ de  # (n_slots,)

    g_ry = slot_grads[:N_QUBITS]
    g_rz = slot_grads[N_QUBITS : 2 * N_QUBITS]
    g_var = slot_grads[2 * N_QUBITS :].reshape(N_LAYERS, N_QUBITS, 3)

    # chain rule through the arctan encodings back to a = in_proj @ x + bias
    da = g_ry / (1.0 + a * a) + g_rz * (2.0 * a) / (1.0 + a**4)

    grads = VqcParams(
        in_proj=np.outer(da, x),
        bias=da,
        angles=g_var,
        out_scale=np.array(float(upstream @ e)),
        out_shift=np.array(float(np.sum(upstream))),
    )
    input_grads = params.in_proj.T @ da
    return grads, input_grads
