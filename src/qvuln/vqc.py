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
parameter shift in one batch.  A small cache keyed on the angle values
keeps the layer matrices between calls.  Each circuit evaluation is then a
product state times a matrix, and a whole batch is one matrix product.

A gradient needs 65 rows per sample: the unshifted circuit and, for each of
the 8 encoding slots and 24 variational angles, the circuit with it shifted
by +-pi/2.  Layer 2 ends each qubit with an RZ that commutes with the Z
readout, so those 4 angles never get a gradient (their shift differences
are rounding noise), but their 8 rows are formed: the cost model counts
them.  Each qubit is encoded once; its two RY-shifted variants follow in
closed form and gather into 8 product states, an RZ shift is a phase per
basis state that the cached layer matrices fold in, and the unshifted state
times the 56 shifted layer matrices is one product per slab of
`_SLAB_ROWS` samples, each read out before the next slab is formed, so
the largest temporary does not grow with the samples of a call.
`vqc_rows` forms them and keeps the shift differences as `GradientRows`,
which `vqc_gradients` only contracts; called without them,
`vqc_gradients` forms its own through `vqc_rows`.  Rows are independent
of each other, so one `vqc_rows` call may hold the samples of several
steps of a sequence, and `GradientRows.samples` gives each step views of
its own.  A readout (`vqc_forward`) forms the unshifted row only, through
the same helpers (`_encode`, `_readout`), so it has the bits of the
unshifted row that `vqc_rows` forms.

Gradients are exact: the parameter-shift rule (+-pi/2) for every rotation
angle, chained through arctan and the affine compression for the encoding
side.  Each expectation row counts as one circuit evaluation where it is
formed: 1 per sample for a readout, 65 per sample where gradient rows are
formed, none for a contraction.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .neural import ParamTree, as_rows, laid_out
from .qsim import StateVector, apply_circuit, cnot, ry, rz

N_QUBITS = 4
N_LAYERS = 2
DIM = 1 << N_QUBITS
SHIFT = np.pi / 2.0
# a gradient's rows per sample: the unshifted circuit, then each of the 8
# encoding slots and 24 variational angles shifted by +SHIFT and -SHIFT
_GRADIENT_ROWS = 1 + 2 * (2 * N_QUBITS + N_LAYERS * N_QUBITS * 3)
# the samples per slab of a gradient's largest product, the states times the
# 56 shifted layer matrices: each slab is read out before the next is formed,
# so that product's temporary is a (32, 896) complex array of 459 KB, not
# one that grows with the rows of a call; per-sample cost is flat down to
# about this size
_SLAB_ROWS = 32

# Z_SIGNS[b, q] = +1 if bit q of basis index b is 0 else -1
_BASIS = np.arange(DIM)
Z_SIGNS = 1.0 - 2.0 * ((_BASIS[:, None] >> np.arange(N_QUBITS)[None, :]) & 1)
# the float view of 16 complex amplitudes holds (re, im) of each in turn
_PART_SIGNS = np.repeat(Z_SIGNS, 2, axis=0)  # (32, 4)

# The 8 RY-shifted encoding rows (slot k = RY of qubit k, shifted by +SHIFT
# then -SHIFT) hold every qubit at one of three angle variants: 0
# unshifted, 1 and 2 RY +-SHIFT.  _RY_VARIANTS[qubit, row] names the
# variant; _RY_INDEX is the same gather as flat (variant, qubit) indices,
# with which np.take gives each qubit contiguous rows.
_QUBITS = np.arange(N_QUBITS)
_RY_VARIANTS = np.zeros((N_QUBITS, 2 * N_QUBITS), dtype=np.intp)
_RY_VARIANTS[_QUBITS, 2 * _QUBITS] = 1
_RY_VARIANTS[_QUBITS, 1 + 2 * _QUBITS] = 2
_RY_INDEX = N_QUBITS * _RY_VARIANTS + _QUBITS[:, None]
# RZ(z +- SHIFT) = RZ(+-SHIFT) RZ(z) ends the encoding of its qubit, so it
# multiplies the encoded state by a phase per basis state:
# _RZ_DIAG[2k + j, b] = e^{-+i pi/4 Z_SIGNS[b, k]} for slot 4 + k shifted by
# +SHIFT (j = 0) and -SHIFT (j = 1)
_RZ_DIAG = np.exp(-0.25j * np.pi * np.multiply.outer([1.0, -1.0], Z_SIGNS.T)
                  ).transpose(1, 0, 2).reshape(2 * N_QUBITS, DIM)


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
    significant bit of the basis index, so qubits 3 and 2 make the high
    pair and qubits 1 and 0 the low pair, and the product is high times
    low.  The trailing axes are innermost, so every multiply runs over long
    rows."""
    w = factors.shape[0]
    high = (factors[:, None, 3] * factors[None, :, 2]).reshape(w * w, *factors.shape[2:])
    low = (factors[:, None, 1] * factors[None, :, 0]).reshape(w * w, *factors.shape[2:])
    return (high[:, None] * low[None, :]).reshape(-1, *factors.shape[2:])


def _encode(enc_ry: np.ndarray, enc_rz: np.ndarray):
    """The encoding H, RY(y), RZ(z) on |0000>, in closed form: the product
    state of the four qubits' states (q (c - s), q* (c + s)) / sqrt(2), with
    c, s = cos, sin of y/2 and q = e^{-iz/2}.  (4, *S) angles of one shape
    give the (16, *S) amplitudes and, for `_ry_encodings`, the (2, 4, *S)
    qubit states with their c, s and q."""
    half = 0.5 * enc_ry
    c, s = np.cos(half), np.sin(half)
    q = np.exp(-0.5j * enc_rz)
    v = np.empty((2,) + q.shape, dtype=complex)
    np.multiply(q, 0.5**0.5 * (c - s), out=v[0])
    np.multiply(q.conj(), 0.5**0.5 * (c + s), out=v[1])
    return _kron(v), (v, c, s, q)


def _ry_encodings(v: np.ndarray, c: np.ndarray, s: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The qubit states of `_encode` over (4, n) angles -> the (16, 8, n)
    RY-shifted product states: rows 2k and 2k + 1 with the RY of qubit k
    shifted by +SHIFT and -SHIFT.  RY(y + SHIFT) gives (-q s, q* c) and
    RY(y - SHIFT) gives (q c, q* s); the rows gather these variants and the
    unshifted state of the other qubits."""
    variants = np.empty((2, 3) + q.shape, dtype=complex)  # (amplitude, variant, qubit, n)
    variants[:, 0] = v
    np.multiply(q, [-s, c], out=variants[0, 1:])
    np.multiply(q.conj(), [c, s], out=variants[1, 1:])
    return _kron(np.take(variants.reshape(2, -1, q.shape[-1]), _RY_INDEX, axis=1))


def _ring_rows() -> np.ndarray:
    """The CNOT ring 0->1, 1->2, 2->3, 3->0 as a row gather.  Its matrix M,
    applied as `state @ M`, is a permutation, so M @ K is K[_RING_ROWS]."""
    # row b of the identity is basis state |b>, so the result holds U^T
    state = StateVector(N_QUBITS, np.eye(DIM, dtype=complex))
    apply_circuit(state, [cnot(c, (c + 1) % N_QUBITS) for c in range(N_QUBITS)])
    return np.argmax(np.abs(state.amplitudes), axis=1)


_RING_ROWS = _ring_rows()


# one QLSTM's six blocks, which a forward reads in turn and a backward not
# at all; each optimizer step changes all six keys
@lru_cache(maxsize=6)
def _layer_matrices(angle_bytes: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The two variational layers as matrices applied as `state @ M`: the
    (16, 16) matrix for the angles themselves, and side by side as one
    (16, 56 * 16) matrix, so one product applies them all, the 48 matrices
    for angle k shifted by +SHIFT (slot 2k) and -SHIFT (slot 2k + 1), then
    the 8 that apply the RZ encoding shifts (`_RZ_DIAG`) before the
    unshifted layers.  Read-only, since the cache shares them."""
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
    phased = (_RZ_DIAG[:, :, None] * base).transpose(1, 0, 2).reshape(DIM, -1)
    shifted = np.concatenate([lead.transpose(1, 0, 2).reshape(DIM, -1), trail, phased], axis=1)
    base.flags.writeable = False
    shifted.flags.writeable = False
    return base, shifted


def _matrices_for(params: VqcParams) -> tuple[np.ndarray, np.ndarray]:
    # keyed on content: adam_step updates the angles in place
    return _layer_matrices(np.ascontiguousarray(params.angles, dtype=float).tobytes())


def _z_expectations(amps: np.ndarray) -> np.ndarray:
    """(..., 16) contiguous amplitudes -> (..., 4) <Z_q>: |amp|^2 as the
    squares of the float view, summed with each basis state's signs.  The
    squares overwrite `amps`, a product's output that no caller reads
    again, so the largest temporary of a gradient's rows is not copied."""
    parts = amps.view(float)
    np.multiply(parts, parts, out=parts)
    return parts @ _PART_SIGNS


def _compress(params: VqcParams, x: np.ndarray) -> np.ndarray:
    """(d_in,) or (B, d_in) inputs -> the (4, n) values a = in_proj x + bias
    that the encoding loads."""
    return params.in_proj @ x.reshape(-1, params.d_in).T + params.bias[:, None]


def _readout(state: np.ndarray, base: np.ndarray) -> np.ndarray:
    """(16, n) encoded states -> the (n, 4) pre-scaling <Z> of the unshifted
    circuit.  It is one product of its own for a readout and for gradient
    rows alike, so both have the same bits."""
    return _z_expectations(state.T @ base)


@dataclass
class GradientRows:
    """What a gradient contracts, per sample: the unshifted pre-scaling
    readout (n, 4); for each of the 4 compressed inputs a_j, d<Z_i>/da_j
    times two (4, n, 4), from the differences <Z> at +SHIFT minus <Z> at
    -SHIFT of its RY and RZ encoding slots, chained through the arctans;
    and those differences of the 24 variational angles (n, 24, 4), in
    (layer, qubit, slot) order."""

    readout: np.ndarray
    enc: np.ndarray
    var: np.ndarray

    def samples(self, start: int, stop: int) -> GradientRows:
        """The rows of samples start..stop-1, as views."""
        part = slice(start, stop)
        return GradientRows(readout=self.readout[part], enc=self.enc[:, part], var=self.var[part])


def _slabs(n: int) -> list[tuple[int, int]]:
    """The (start, stop) row slabs of an n-row product: _SLAB_ROWS rows each,
    but a lone last row joins the slab before it, since numpy forms a
    one-row product as a matrix-vector product, whose bits differ from a
    matrix product's row."""
    starts = list(range(0, n - 1, _SLAB_ROWS)) or [0]
    return list(zip(starts, starts[1:] + [n]))


def _gradient_rows(params: VqcParams, enc_ry: np.ndarray, enc_rz: np.ndarray):
    """(4, n) encoding angles -> a sample's 65 pre-scaling <Z> rows: the
    unshifted readout (n, 4), the 16 encoding-shifted rows (16, n, 4) in
    slot order (RY of each qubit, then RZ, each +SHIFT then -SHIFT) and the
    48 variational rows (n, 48, 4) in `_layer_matrices` order.  The
    unshifted row is `_readout`'s product; the RY-shifted states times the
    unshifted layer matrix are a second; the unshifted state times the 48
    shifted layer matrices and the 8 RZ-phased ones are a third, formed and
    read out a slab of samples at a time (`_slabs`)."""
    n = enc_ry.shape[-1]
    state, qubits = _encode(enc_ry, enc_rz)  # (16, n)
    base, shifted = _matrices_for(params)
    e_ry = _z_expectations(_ry_encodings(*qubits).reshape(DIM, -1).T @ base)
    e_var = np.empty((n, shifted.shape[1] // DIM, N_QUBITS))
    for start, stop in _slabs(n):
        e_var[start:stop] = _z_expectations((state.T[start:stop] @ shifted).reshape(-1, DIM)
                                            ).reshape(stop - start, -1, N_QUBITS)
    n_var = 2 * N_LAYERS * N_QUBITS * 3  # the variational rows come first
    e_enc = np.concatenate([e_ry.reshape(-1, n, N_QUBITS), e_var[:, n_var:].transpose(1, 0, 2)])
    return _readout(state, base), e_enc, e_var[:, :n_var]


def vqc_rows(params: VqcParams, x: np.ndarray, counter: EvalCounter | None = None
             ) -> GradientRows:
    """The `GradientRows` of inputs x, (d_in,) or (B, d_in): the 65 rows per
    sample that a gradient contracts, each counted here as one evaluation."""
    a = _compress(params, as_rows(x, params.d_in))
    aa = a * a
    readout, e_enc, e_var = _gradient_rows(params, np.arctan(a), np.arctan(aa))
    diff = e_enc[0::2] - e_enc[1::2]  # (8, n, 4): RY of each qubit, then RZ
    # d arctan(a)/da = 1 / (1 + a^2) and d arctan(a^2)/da = 2a / (1 + a^4)
    enc = diff[:N_QUBITS] / (1.0 + aa)[..., None]
    enc += diff[N_QUBITS:] * ((2.0 * a) / (1.0 + aa * aa))[..., None]
    if counter is not None:
        counter.count += readout.shape[0] * _GRADIENT_ROWS
    return GradientRows(readout=readout, enc=enc, var=e_var[:, 0::2] - e_var[:, 1::2])


def vqc_forward(params: VqcParams, x: np.ndarray, counter: EvalCounter | None = None
                ) -> np.ndarray:
    """One circuit evaluation per sample, counted here; returns the scaled Z
    expectations, (4,) or (B, 4)."""
    x = as_rows(x, params.d_in)
    a = _compress(params, x)
    state, _ = _encode(np.arctan(a), np.arctan(a * a))
    e = _readout(state, _matrices_for(params)[0])
    if counter is not None:
        counter.count += e.shape[0]
    return (params.out_scale * e + params.out_shift).reshape(x.shape[:-1] + (N_QUBITS,))


def vqc_gradients(
    params: VqcParams,
    x: np.ndarray,
    upstream: np.ndarray,
    counter: EvalCounter | None = None,
    rows: GradientRows | None = None,
    into: VqcParams | None = None,
) -> tuple[VqcParams, np.ndarray]:
    """Exact gradients of the sum over samples of upstream . values, w.r.t.
    params (summed over the batch) and each sample's input.

    x is (d_in,) or (B, d_in) and upstream (4,) or (B, 4).  `rows` are the
    `GradientRows` that `vqc_rows(params, x)` formed; the call then only
    contracts them and counts nothing.  Without them it forms them first
    through `vqc_rows`, which counts 65 per sample.  The parameter gradients
    are added into and returned as `into` (a fresh zero copy of params if None).
    """
    x = as_rows(x, params.d_in)
    inputs = x.reshape(-1, params.d_in)
    n = inputs.shape[0]
    upstream = np.asarray(upstream, dtype=float)
    if upstream.shape != (n, N_QUBITS):
        upstream = np.broadcast_to(upstream, x.shape[:-1] + (N_QUBITS,)).reshape(n, N_QUBITS)
    if rows is None:
        rows = vqc_rows(params, x, counter)

    # (<Z_i> at +SHIFT - <Z_i> at -SHIFT) / 2 = d<Z_i>/d(angle), summed against dL/d<Z_i>
    de = upstream * (0.5 * float(params.out_scale))
    da = np.einsum("jni,ni->jn", rows.enc, de)  # (4, n), a = in_proj @ x + bias
    var_grads = np.einsum("nki,ni->k", rows.var, de)  # (24,)

    if into is None:
        into = laid_out(params)
        into.vector.fill(0.0)
    into.in_proj += da @ inputs
    into.bias += da.sum(axis=1)
    into.angles += var_grads.reshape(N_LAYERS, N_QUBITS, 3)
    into.out_scale += np.vdot(upstream, rows.readout)
    into.out_shift += np.sum(upstream)
    return into, (da.T @ params.in_proj).reshape(x.shape)
