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
four per-qubit 2-vectors.  The two variational layers depend only on the
angles.  Each is the CNOT ring, a fixed permutation of the 16 basis
states that `qsim` finds once and that applies as a row gather, followed
by the Kronecker product of four 2x2 RZ.RY.RZ rotations, which `qsim`
builds on the two 1-qubit basis states for the angles and for every
parameter shift in one batch.  A small cache
keyed on the angle values keeps the layer matrices between calls.  Each
circuit evaluation is then a product state times a matrix, and a whole
batch is one matrix product.  A gradient call encodes each qubit once: its
four variants with RY or RZ shifted by +-pi/2 follow from that state in
closed form, and its 17 encoding-shifted states gather from these five.

Gradients are exact: the parameter-shift rule (+-pi/2) for every rotation
angle, chained through arctan and the affine compression for the encoding
side.  Each computed expectation row counts as one circuit evaluation.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .neural import ParamTree, as_rows
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

# A gradient call's 17 encoding rows (unshifted, then slot k = RY of qubit
# k and slot 4 + k = RZ of qubit k, each shifted by +SHIFT then -SHIFT) hold
# every qubit at one of five angle variants: 0 unshifted, 1 and 2 RY
# +-SHIFT, 3 and 4 RZ +-SHIFT.  _ENC_VARIANTS[qubit, row] names the variant;
# _ENC_INDEX is the same gather as flat (variant, qubit) indices, with which
# np.take gives each qubit contiguous rows.
_QUBITS = np.arange(N_QUBITS)
_ENC_VARIANTS = np.zeros((N_QUBITS, 1 + 4 * N_QUBITS), dtype=np.intp)
_ENC_VARIANTS[_QUBITS, 1 + 2 * _QUBITS] = 1
_ENC_VARIANTS[_QUBITS, 2 + 2 * _QUBITS] = 2
_ENC_VARIANTS[_QUBITS, 1 + 2 * (N_QUBITS + _QUBITS)] = 3
_ENC_VARIANTS[_QUBITS, 2 + 2 * (N_QUBITS + _QUBITS)] = 4
_ENC_INDEX = N_QUBITS * _ENC_VARIANTS + _QUBITS[:, None]
# RZ(z +- SHIFT) scales the two amplitudes by e^{-+i pi/4} and e^{+-i pi/4}
_RZ_PHASES = np.exp(0.25j * np.pi * np.array([[-1.0, 1.0], [1.0, -1.0]]))[..., None, None]


@dataclass
class EvalCounter:
    """Counts circuit evaluations; one batch row = one evaluation."""

    count: int = 0


@dataclass
class VqcParams(ParamTree):
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


def _shift_rows(base: np.ndarray) -> np.ndarray:
    """(..., n) -> (..., 1 + 2n, n): row 0 is `base`; rows 1 + 2k and 2 + 2k
    shift slot k by +SHIFT and -SHIFT."""
    n = base.shape[-1]
    rows = np.repeat(base[..., None, :], 1 + 2 * n, axis=-2)
    k = np.arange(n)
    rows[..., 1 + 2 * k, k] += SHIFT
    rows[..., 2 + 2 * k, k] -= SHIFT
    return rows


def _kron(factors: np.ndarray) -> np.ndarray:
    """(w, 4, *S) per-qubit factors -> (w^4, *S): one Kronecker product of
    the four qubits' factors per trailing index.  Qubit 0 is the least
    significant bit of the basis index, so the product runs from qubit 3
    down.  The trailing axes are innermost, so every multiply runs over
    long rows."""
    out = factors[:, 3]
    for q in (2, 1, 0):
        out = (out[:, None] * factors[None, :, q]).reshape(-1, *out.shape[1:])
    return out


def _encode(enc_ry: np.ndarray, enc_rz: np.ndarray) -> np.ndarray:
    """The encoding H, RY(y), RZ(z) on |0000>, in closed form: the product
    state of the four qubits' states (e^{-iz/2} (cos y/2 - sin y/2),
    e^{iz/2} (cos y/2 + sin y/2)) / sqrt(2).  (4, *S) angles, which
    broadcast against each other, give (16, *S) amplitudes."""
    c, s = np.cos(enc_ry / 2.0), np.sin(enc_ry / 2.0)
    phase = np.exp(-0.5j * enc_rz) * 0.5**0.5
    v = np.empty((2,) + np.broadcast_shapes(c.shape, phase.shape), dtype=complex)
    np.multiply(phase, c - s, out=v[0])
    np.multiply(phase.conj(), c + s, out=v[1])
    return _kron(v)


def _encoding_rows(enc_ry: np.ndarray, enc_rz: np.ndarray) -> np.ndarray:
    """(4, n) encoding angles -> (16, 17, n) encoded states: row 0
    unshifted, rows 1 + 2k and 2 + 2k with encoding slot k (enc_ry, then
    enc_rz, as in `_shift_rows`) shifted by +SHIFT and -SHIFT.  Each qubit
    is encoded once: with c, s = cos, sin of y/2 and q = e^{-iz/2} its state
    is (q (c - s), q* (c + s)) / sqrt(2), RY(y + SHIFT) gives (-q s, q* c),
    RY(y - SHIFT) gives (q c, q* s), and RZ(z +- SHIFT) multiplies the
    unshifted state by _RZ_PHASES.  The rows gather these five variants."""
    c, s = np.cos(0.5 * enc_ry), np.sin(0.5 * enc_ry)
    q = np.exp(-0.5j * enc_rz)
    v = np.empty((2, 5) + q.shape, dtype=complex)  # (amplitude, variant, qubit, n)
    np.multiply(q, [0.5**0.5 * (c - s), -s, c], out=v[0, :3])
    np.multiply(q.conj(), [0.5**0.5 * (c + s), c, s], out=v[1, :3])
    np.multiply(v[:, :1], _RZ_PHASES, out=v[:, 3:])
    return _kron(np.take(v.reshape(2, -1, q.shape[-1]), _ENC_INDEX, axis=1))


def _ring_rows() -> np.ndarray:
    """The CNOT ring 0->1, 1->2, 2->3, 3->0 as a row gather.  Its matrix M,
    applied as `state @ M`, is a permutation, so M @ K is K[_RING_ROWS]."""
    # row b of the identity is basis state |b>, so the result holds U^T
    state = StateVector(N_QUBITS, np.eye(DIM, dtype=complex))
    apply_circuit(state, [cnot(c, (c + 1) % N_QUBITS) for c in range(N_QUBITS)])
    return np.argmax(np.abs(state.amplitudes), axis=1)


_RING_ROWS = _ring_rows()


# one QLSTM's six blocks with two to spare; each optimizer step changes all six keys
@lru_cache(maxsize=8)
def _layer_matrices(angle_bytes: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The two variational layers as matrices applied as `state @ M`: the
    (16, 16) matrix for the angles themselves, and the 48 matrices for
    angle k shifted by +SHIFT (slot 2k) and -SHIFT (slot 2k + 1), side by
    side as one (16, 48 * 16) matrix, so one product applies them all.
    Read-only, since the cache shares them."""
    # a shift changes one layer only, so each layer is built once per own shift
    rows = _shift_rows(np.frombuffer(angle_bytes).reshape(N_LAYERS, -1))
    angles = rows.reshape(N_LAYERS, -1, N_QUBITS, 3)  # (layer, shift, qubit, slot)
    batch = angles.shape[:3]
    # each qubit's RZ, RY, RZ on the two 1-qubit basis states, one angle per
    # (layer, shift, qubit); as for the ring, the rows hold the transpose
    rot = StateVector(1, np.tile(np.eye(2, dtype=complex), (*batch, 1, 1)))
    apply_circuit(rot, [gate(angles[..., slot, None], 0) for slot, gate in enumerate((rz, ry, rz))])
    # the Kronecker product of the flattened 2x2 factors orders the bits
    # (r3 c3 r2 c2 r1 c1 r0 c0); regroup them as row (r3..r0), column (c3..c0)
    factors = rot.amplitudes.reshape(*batch, 4).transpose(3, 2, 0, 1)  # (4, qubit, layer, shift)
    kron = _kron(factors).reshape(*(2,) * 8, *batch[:2])
    kron = kron.transpose(8, 9, 0, 2, 4, 6, 1, 3, 5, 7).reshape(*batch[:2], DIM, DIM)
    first, second = kron[:, :, _RING_ROWS]
    base = first[0] @ second[0]
    # two 2-D products: the shifted first layers stacked against the
    # unshifted second, and the unshifted first against the shifted second
    # layers side by side
    n = first.shape[0] - 1
    lead = (first[1:].reshape(-1, DIM) @ second[0]).reshape(n, DIM, DIM)
    trail = first[0] @ second[1:].transpose(1, 0, 2).reshape(DIM, -1)
    shifted = np.concatenate([lead.transpose(1, 0, 2).reshape(DIM, -1), trail], axis=1)
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


def vqc_forward(params: VqcParams, x: np.ndarray, counter: EvalCounter | None = None) -> np.ndarray:
    """One circuit evaluation per sample; returns the scaled Z expectations,
    (4,) or (B, 4)."""
    x = as_rows(x, params.d_in)
    a = x @ params.in_proj.T + params.bias
    base, _ = _matrices_for(params)
    states = _encode(np.arctan(a.T), np.arctan((a * a).T))  # (16,) or (16, B)
    e = _z_expectations(states.T.reshape(-1, DIM) @ base).reshape(a.shape)
    if counter is not None:
        counter.count += e.size // N_QUBITS
    return params.out_scale * e + params.out_shift


def _gradient_rows(params: VqcParams, enc_ry: np.ndarray, enc_rz: np.ndarray):
    """(4, n) encoding angles -> a gradient call's 65 pre-scaling <Z> rows
    per sample: (17, n, 4) in `_encoding_rows` order, (n, 48, 4) in
    `_layer_matrices` order."""
    n = enc_ry.shape[-1]
    states = _encoding_rows(enc_ry, enc_rz)  # (16, 17, n)
    base, shifted = _matrices_for(params)
    e_enc = _z_expectations(states.reshape(DIM, -1).T @ base).reshape(-1, n, N_QUBITS)
    e_var = _z_expectations((states[:, 0].T @ shifted).reshape(-1, DIM)).reshape(n, -1, N_QUBITS)
    return e_enc, e_var


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
    x = as_rows(x, params.d_in)
    rows = x.reshape(-1, params.d_in)
    n = rows.shape[0]
    upstream = np.asarray(upstream, dtype=float)
    if upstream.shape != (n, N_QUBITS):
        upstream = np.broadcast_to(upstream, x.shape[:-1] + (N_QUBITS,)).reshape(n, N_QUBITS)
    a = params.in_proj @ rows.T + params.bias[:, None]  # (4, n)
    aa = a * a
    e_enc, e_var = _gradient_rows(params, np.arctan(a), np.arctan(aa))
    if counter is not None:
        counter.count += n * (e_enc.shape[0] + e_var.shape[1])

    # (<Z_i> at +SHIFT - <Z_i> at -SHIFT) / 2 = d<Z_i>/d(angle), summed against dL/d<Z_i>
    de = upstream * (0.5 * float(params.out_scale))
    enc_grads = np.einsum("kni,ni->kn", e_enc[1::2] - e_enc[2::2], de)  # (8, n)
    var_grads = np.einsum("nki,ni->k", e_var[:, 0::2] - e_var[:, 1::2], de)  # (24,)

    # chain rule through the arctan encodings back to a = in_proj @ x + bias
    da = enc_grads[:N_QUBITS] / (1.0 + aa) + enc_grads[N_QUBITS:] * (2.0 * a) / (1.0 + aa * aa)

    grads = VqcParams(
        in_proj=da @ rows,
        bias=da.sum(axis=1),
        angles=var_grads.reshape(N_LAYERS, N_QUBITS, 3),
        out_scale=np.array(float(np.vdot(upstream, e_enc[0]))),
        out_shift=np.array(float(np.sum(upstream))),
    )
    input_grads = (da.T @ params.in_proj).reshape(x.shape)
    return grads, input_grads
