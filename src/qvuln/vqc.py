"""Variational quantum circuit block on 4 qubits.

Forward pass: a trainable affine map compresses the classical input to 4
values a_i, each loaded by H, RY(arctan a_i), RZ(arctan a_i^2) on qubit i;
two variational layers follow, each a CNOT ring (0->1, 1->2, 2->3, 3->0)
and per-qubit RZ/RY/RZ rotations; the readout is the Pauli-Z expectation
per qubit, scaled by two trainable scalars.

Inputs take an optional leading batch axis: x is (d_in,) for one sample or
(B, d_in) for B samples, and every per-sample output keeps that axis.
Parameter gradients are summed over the batch.

The encoding leaves a product state, so it is the Kronecker product of the
four per-qubit 2-vectors, three broadcast multiplies.  The two variational
layers depend only on the angles: `qsim` runs them on the 16 basis states,
in one batch, to build their 16x16 matrix for the angles and for each
parameter shift, and a small cache keyed on the angle values keeps those
matrices between calls.  Each circuit evaluation is then a product state
times a matrix, and a whole batch is one matrix product.

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
# the float view of 16 complex amplitudes holds (re, im) of each in turn
_PART_SIGNS = np.repeat(Z_SIGNS, 2, axis=0)  # (32, 4)


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
    values: np.ndarray  # (..., 4) scaled readout
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
    """(..., n) -> (..., 1 + 2n, n): row 0 is `base`; rows 1 + 2k and 2 + 2k
    shift slot k by +SHIFT and -SHIFT."""
    n = base.shape[-1]
    rows = np.repeat(base[..., None, :], 1 + 2 * n, axis=-2)
    k = np.arange(n)
    rows[..., 1 + 2 * k, k] += SHIFT
    rows[..., 2 + 2 * k, k] -= SHIFT
    return rows


def _encode(enc_ry: np.ndarray, enc_rz: np.ndarray) -> np.ndarray:
    """The encoding H, RY(enc_ry), RZ(enc_rz) on |0000>, in closed form.

    It leaves the product state v_3 (x) v_2 (x) v_1 (x) v_0, where qubit q
    holds v_q = (e^{-iz/2} (cos y/2 - sin y/2), e^{iz/2} (cos y/2 + sin y/2))
    / sqrt(2) for y, z its two angles; qubit 0 is the least significant bit
    of the basis index, so the Kronecker product runs from qubit 3 down.
    (..., 4) angles, which broadcast against each other, give (..., 16)
    amplitudes.
    """
    c, s = np.cos(enc_ry / 2.0), np.sin(enc_ry / 2.0)
    phase = np.exp(-0.5j * enc_rz) * 0.5**0.5
    v = np.empty(np.broadcast_shapes(c.shape, phase.shape) + (2,), dtype=complex)
    np.multiply(phase, c - s, out=v[..., 0])
    np.multiply(phase.conj(), c + s, out=v[..., 1])
    state = v[..., 3, :]
    for q in (2, 1, 0):
        state = (state[..., :, None] * v[..., q, None, :]).reshape(*state.shape[:-1], -1)
    return state


# one QLSTM's six blocks with two to spare; each optimizer step changes all six keys
@lru_cache(maxsize=8)
def _layer_matrices(angle_bytes: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The two variational layers as matrices applied as `state @ M`: the
    (16, 16) matrix for the angles themselves, and the 48 matrices for
    angle k shifted by +SHIFT (slot 2k) and -SHIFT (slot 2k + 1), side by
    side as one (16, 48 * 16) matrix, so one product applies them all.
    Read-only, since the cache shares them."""
    # a shift changes one layer only, so each layer runs once per own shift
    rows = _shift_rows(np.frombuffer(angle_bytes).reshape(N_LAYERS, -1))
    # trailing axis: one angle per 16-row basis batch of (layer, shift)
    rows = rows.reshape(N_LAYERS, -1, N_QUBITS, 3, 1)
    # row b of the identity is basis state |b>, so each result holds U^T
    state = StateVector(N_QUBITS, np.tile(np.eye(DIM, dtype=complex), (*rows.shape[:2], 1, 1)))
    apply_circuit(state, [cnot(c, (c + 1) % N_QUBITS) for c in range(N_QUBITS)])
    for slot, rotation in enumerate((rz, ry, rz)):
        apply_circuit(state, [rotation(rows[:, :, q, slot], q) for q in range(N_QUBITS)])
    first, second = state.amplitudes
    base = first[0] @ second[0]
    shifted = np.concatenate([first[1:] @ second[0], first[0] @ second[1:]])
    shifted = np.ascontiguousarray(shifted.transpose(1, 0, 2).reshape(DIM, -1))
    base.flags.writeable = False
    shifted.flags.writeable = False
    return base, shifted


def _matrices_for(params: VqcParams) -> tuple[np.ndarray, np.ndarray]:
    # keyed on content: adam_step updates the angle arrays in place
    return _layer_matrices(np.ascontiguousarray(params.angles, dtype=float).tobytes())


def _z_expectations(amps: np.ndarray) -> np.ndarray:
    """(..., 16) contiguous amplitudes -> (..., 4) <Z_q>: |amp|^2 as the
    squares of the float view, summed with each basis state's signs."""
    parts = amps.view(float)
    return (parts * parts) @ _PART_SIGNS


def _checked_input(params: VqcParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != params.d_in:
        raise ValueError(f"input shape {x.shape} does not match in_proj width {params.d_in}")
    return x


def vqc_forward(params: VqcParams, x: np.ndarray, counter: EvalCounter | None = None) -> VqcOutput:
    """One circuit evaluation per sample; returns the scaled Z expectations,
    (4,) or (B, 4), plus the cache."""
    x = _checked_input(params, x)
    a = x @ params.in_proj.T + params.bias
    enc_ry = np.arctan(a)
    enc_rz = np.arctan(a * a)
    base, _ = _matrices_for(params)
    e = _z_expectations(_encode(enc_ry, enc_rz).reshape(-1, DIM) @ base).reshape(a.shape)
    if counter is not None:
        counter.add(e.size // N_QUBITS)
    values = params.out_scale * e + params.out_shift
    return VqcOutput(values=values, cache=VqcCache(x, a, enc_ry, enc_rz, e))


def vqc_gradients(
    params: VqcParams,
    x: np.ndarray,
    upstream: np.ndarray,
    counter: EvalCounter | None = None,
) -> tuple[VqcParams, np.ndarray]:
    """Exact gradients of the sum over samples of upstream . values, w.r.t.
    params (summed over the batch) and each sample's input.

    x is (d_in,) or (B, d_in) and upstream (4,) or (B, 4).  Costs, per
    sample, one unshifted evaluation plus two per rotation angle (65 for
    the default shape).  The 65 rows, in slot order (4 encoding RY, 4
    encoding RZ, then the 24 variational angles in (layer, qubit, slot)
    order), are the unshifted circuit, the 16 encoding-shifted product
    states times the unshifted layer matrix, and the unshifted state times
    the 48 shifted layer matrices.
    """
    x = _checked_input(params, x)
    rows = x.reshape(-1, params.d_in)
    n = rows.shape[0]
    upstream = np.broadcast_to(np.asarray(upstream, dtype=float), x.shape[:-1] + (N_QUBITS,))
    upstream = upstream.reshape(n, N_QUBITS)
    a = rows @ params.in_proj.T + params.bias
    enc_rows = _shift_rows(np.concatenate([np.arctan(a), np.arctan(a * a)], axis=1))
    states = _encode(enc_rows[..., :N_QUBITS], enc_rows[..., N_QUBITS:])  # (n, 17, 16)
    base, shifted = _matrices_for(params)
    enc_out = (states.reshape(-1, DIM) @ base).reshape(n, -1, DIM)
    var_out = (states[:, 0] @ shifted).reshape(n, -1, DIM)
    e_all = _z_expectations(np.concatenate([enc_out, var_out], axis=1))  # (n, 65, 4)
    if counter is not None:
        counter.add(n * e_all.shape[1])
    e = e_all[:, 0]
    # d_e[:, k, i] = d<Z_i>/d(angle_k) by the parameter-shift rule
    d_e = 0.5 * (e_all[:, 1::2] - e_all[:, 2::2])

    de = upstream * float(params.out_scale)  # dL/d<Z_i>
    slot_grads = np.einsum("nki,ni->nk", d_e, de)  # (n, n_slots)

    g_ry = slot_grads[:, :N_QUBITS]
    g_rz = slot_grads[:, N_QUBITS : 2 * N_QUBITS]
    # chain rule through the arctan encodings back to a = in_proj @ x + bias
    da = g_ry / (1.0 + a * a) + g_rz * (2.0 * a) / (1.0 + a**4)

    grads = VqcParams(
        in_proj=da.T @ rows,
        bias=da.sum(axis=0),
        angles=slot_grads[:, 2 * N_QUBITS :].sum(axis=0).reshape(N_LAYERS, N_QUBITS, 3),
        out_scale=np.array(float(np.sum(upstream * e))),
        out_shift=np.array(float(np.sum(upstream))),
    )
    input_grads = (da @ params.in_proj).reshape(x.shape)
    return grads, input_grads
