"""Variational quantum circuit block on 4 qubits.

Forward pass: a trainable affine map compresses the classical input to 4
values a_i, each loaded by H, RY(arctan a_i), RZ(arctan a_i^2) on qubit i;
two variational layers follow, each a CNOT ring (0->1, 1->2, 2->3, 3->0)
and per-qubit RZ/RY/RZ rotations; the readout is the Pauli-Z expectation
per qubit, scaled by two trainable scalars.

Inputs take an optional leading batch axis: x is (d_in,) for one sample or
(B, d_in) for B samples, and every per-sample output keeps that axis.
Parameter gradients are summed over the batch.

The kernel works in the Heisenberg picture.  The encoding leaves a product
state, so its Pauli vector, the 256 expectations <P_s> of the Pauli strings
P_s, is the real Kronecker product of the four qubits' Bloch 4-vectors
(1, <X>, <Y>, <Z>).  Their entries follow from a alone, with no arctan,
cos, sin or complex exp (`_bloch`): the vector is (1, cy cz, cy sz, -sy),
with cy, sy the cosine and sine of arctan a and cz, sz those of
arctan a^2, each from a ratio of hypot that stays finite for any finite a.
Each <Z_q> of a circuit is then a real dot
product of that vector with the Pauli coefficients of the observable
U^dag Z_q U, which depends on the angles only.  `_observables` builds
those coefficients once per angle set (a small cache keyed on the angle
values keeps them between calls): Z_q goes back through the qubit's layer-2
rotation to a Bloch direction, through the ring, which maps each Pauli
string to one other string with a sign, through the layer-1 rotations,
each a 4x4 real transfer matrix acting on its qubit's factor, and through
the ring again.  The transfer matrices and the ring's signed permutation
are built from `qsim`'s gates, so `qsim` stays the one gate source.  No
complex state is formed: a batch's readouts and shift rows are real matrix
products.

A gradient needs 65 rows per sample: the unshifted circuit and, for each of
the 8 encoding slots and 24 variational angles, the circuit with it shifted
by +-pi/2.  Each row's four <Z> values are formed, and the gradient takes
the differences of the +SHIFT and -SHIFT rows (the parameter-shift rule);
no observable is differenced in advance.  `_gradient_rows` forms the
values in three products and returns each in the layout its product gives:
- the unshifted readout, (n, 4), contracts the low pair's (qubits 1, 0)
  Kronecker products with the 4 unshifted columns in one product, then
  each sample's high pair's (qubits 3, 2); `vqc_forward` and `vqc_rows`
  share it (`_readout`), so both have its bits;
- the shifted product, (n, 112), of the encoded state's full Pauli vector,
  the (256, n) `pauli`: the 14 +SHIFT circuits, then the 14 -SHIFT ones,
  each half layer 1's 12 shifted angles, 4 columns each, then layer 2's
  slot 0 and 1, whose 4 columns each shift the slot on the qubit q of
  their <Z_q>.  A layer-2 rotation on qubit q lies in the light cone of
  Z_q alone, so a layer-2 shift leaves the other three <Z> at the
  unshifted readout.  Layer 2 ends each qubit with an RZ that commutes
  with the Z readout, so a slot-2 shift changes no <Z> at all: its rows
  are the unshifted readout, and those 4 angles never get a gradient.
  Their 8 rows are still counted, since the cost model counts them;
- the encoding rows, (qubit, n, variant, q): an encoding shift swaps one
  qubit's Bloch vector for its RY or RZ +-pi/2 variant, in closed form, so
  its rows contract the unshifted columns with the other three qubits'
  Kronecker product first (one product per qubit), and then, in a last
  product, with the four variants.  That Kronecker product is `pauli`'s
  64 strings whose digit on the qubit is I, since `_bloch` writes exactly
  1.0 as each identity component.
`vqc_rows` takes every +SHIFT minus -SHIFT difference from those arrays:
the 56 variational ones as one subtraction of the shifted product's two
halves, and the RY and RZ variant pairs straight into the chain through
the arctans.  The 40 layer-2 differences outside the light cone, readout
minus readout, and the slot-2 angles' are not stored.  It keeps the
differences as `GradientRows`, which `vqc_gradients` only contracts; called
without them, `vqc_gradients` forms its own through `vqc_rows`.

One rule keeps a sample's bits apart from the other samples of its call:
`_compress` pads the n samples of every `vqc_forward` and `vqc_rows` call
with zero inputs up to a multiple of 8, so each of the kernel's products,
the compression first, has a whole number of 8-row blocks, and the results
are sliced back to the n real samples.  Without it, numpy forms a one-row
product as a matrix-vector product, and OpenBLAS's Haswell, Sandybridge
and Prescott kernels give a product's tail rows other bits than its full
blocks; with it, a sample's values have the same bits at any batch size
under all of these and SkylakeX.  So one `vqc_rows` call may hold the
samples of several steps of a sequence, and `GradientRows.samples` gives
each step views of its own.  The padded rows are never counted.

Gradients are exact: the parameter-shift rule (+-pi/2) for every rotation
angle, chained through arctan and the affine compression for the encoding
side.  The arctans' slopes, 1/(1 + a^2) and 2a/(1 + a^4), are formed from
`_bloch`'s parts as cy^2 and 2 (a cz) cz, so neither overflows.  Each
expectation row counts as one circuit evaluation where it is formed: 1 per
sample for a readout, 65 per sample where gradient rows are formed, none
for a contraction.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .neural import ParamTree, as_rows, laid_out
from .qsim import cnot, ry, rz

N_QUBITS = 4
N_LAYERS = 2
DIM = 1 << N_QUBITS
SHIFT = np.pi / 2.0
# a gradient's rows per sample: the unshifted circuit, then each of the 8
# encoding slots and 24 variational angles shifted by +SHIFT and -SHIFT
_GRADIENT_ROWS = 1 + 2 * (2 * N_QUBITS + N_LAYERS * N_QUBITS * 3)

# I, X, Y, Z; a Pauli string s = (p3 p2 p1 p0) in base 4 is their Kronecker
# product from qubit 3 down to qubit 0, the order of the basis index bits
_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


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


def _ring_transfer() -> tuple[np.ndarray, np.ndarray]:
    """The CNOT ring 0->1, 1->2, 2->3, 3->0 in the Heisenberg picture: its
    transfer matrix T[t, s] = Tr(P_t U^dag P_s U) / 16, so that column s
    holds the Pauli coefficients of U^dag P_s U, and an observable's
    coefficients o become T @ o, those of the observable read before U.
    The ring is a Clifford circuit, so T is a signed permutation: it maps
    each string to one string with a sign.  It is returned as the row
    gather and signs that apply it, T @ o = _RING_SIGNS * o[_RING_GATHER],
    composed from one CNOT's transfer on the digits of its two qubits."""
    u = cnot(0, 1).matrix()  # on two qubits, control 0 and target 1
    strings = np.einsum("aij,bkl->abikjl", _PAULIS, _PAULIS).reshape(16, 4, 4)  # 4 p_target + p_control
    pair = np.einsum("tab,cb,scd,da->ts", strings, u.conj(), strings, u).real / 4
    pair_gather = np.argmax(np.abs(pair), axis=1)
    pair_signs = pair[np.arange(pair_gather.size), pair_gather]
    index = np.arange(4**N_QUBITS)
    digits = index[:, None] // 4 ** np.arange(N_QUBITS) % 4  # (string, qubit)
    gather, signs = index, np.ones(index.size)
    # U = C30 C23 C12 C01, so T = T_01 T_12 T_23 T_30, multiplied left to right
    for c in range(N_QUBITS):
        t = (c + 1) % N_QUBITS
        pairs = 4 * digits[:, t] + digits[:, c]
        source = pair_gather[pairs]
        cnot_gather = index + (source // 4 - digits[:, t]) * 4**t + (source % 4 - digits[:, c]) * 4**c
        gather, signs = cnot_gather[gather], signs * pair_signs[pairs][gather]
    return gather, signs


_RING_GATHER, _RING_SIGNS = _ring_transfer()


def _ring_images() -> tuple[np.ndarray, np.ndarray]:
    """What the ring maps X_q, Y_q, Z_q back to: for each (Pauli, qubit q)
    the string's base-4 digits by qubit, (3, 4 q, 4 qubit), qubit 0 first,
    and its sign, (3, 4 q)."""
    singles = np.arange(1, 4)[:, None] * 4 ** np.arange(N_QUBITS)  # (Pauli, qubit)
    # T[t, gather[t]] is the one nonzero of row t, so string s maps to the
    # t with gather[t] = s
    images = np.empty_like(_RING_GATHER)
    images[_RING_GATHER] = np.arange(_RING_GATHER.size)
    images = images[singles]
    return images[..., None] // 4 ** np.arange(N_QUBITS) % 4, _RING_SIGNS[images]


_IMAGE_DIGITS, _IMAGE_SIGNS = _ring_images()

# _KERNEL[(t, s), (c, b, d, a)] = sigma_t[a, b] sigma_s[c, d] / 2, so that a
# one-qubit transfer matrix is _KERNEL times the products conj(u[c, b]) u[d, a]
_KERNEL = (np.einsum("tab,scd->tscbda", _PAULIS, _PAULIS) / 2.0).reshape(16, 16)


def _transfers(u: np.ndarray) -> np.ndarray:
    """(2, 2, *S) one-qubit unitaries, laid out as `qsim.Gate.matrix` gives
    them -> their (4, 4, *S) real transfer matrices in the Heisenberg
    picture, T[t, s] = Tr(sigma_t u^dag sigma_s u) / 2, as for the ring."""
    products = (u.conj()[:, :, None, None] * u[None, None]).reshape(16, -1)
    return (_KERNEL @ products).real.reshape(4, 4, *u.shape[2:])


def _rotations(angles: np.ndarray) -> np.ndarray:
    """(N, 3) angles of a qubit's RZ, RY, RZ slots -> the (2, 2, N)
    unitaries that apply them in turn, from `qsim`'s gates."""
    z0, y, z1 = (gate(angles[:, slot], 0).matrix() for slot, gate in enumerate((rz, ry, rz)))
    u = (y[:, :, None] * z0[None]).sum(axis=1)
    return (z1[:, :, None] * u[None]).sum(axis=1)


# the circuits of a build: layer 1's 25 (unshifted, then each of its 12
# angles +SHIFT and -SHIFT)
_N_FIRST = 1 + 2 * N_QUBITS * 3
# a build's 29 products of Pauli strings, one column per qubit q each: the
# unshifted circuit's, then those of +SHIFT and then of -SHIFT (sign, 14):
# layer 1's 12 circuits with that angle shifted, in Z_q's unshifted
# direction, then circuit 0's in the direction with Z_q's own layer-2 slot 0
# or 1 shifted; `_shift_rows` puts slot k's +SHIFT at 1 + 2k, its -SHIFT at 2 + 2k
_SIGN = np.arange(2)[:, None]
_PRODUCT_CIRCUITS = np.r_[0, np.hstack([1 + 2 * np.arange(12) + _SIGN, np.zeros((2, 2), np.intp)]).ravel()]
_PRODUCT_DIRECTIONS = np.r_[0, np.hstack([np.zeros((2, 12), np.intp), 1 + 2 * np.arange(2) + _SIGN]).ravel()]
# _OPEN_ROWS[k, o, p]: the string with qubit k's digit p and the other three
# digits o, from qubit 3 down
_OPEN_ROWS = np.stack([np.moveaxis(np.arange(DIM * DIM).reshape((4,) * N_QUBITS), N_QUBITS - 1 - k, -1)
                       .reshape(-1, 4) for k in range(N_QUBITS)])


# one QLSTM's six blocks: a forward reads them in turn, and a backward again
# through `vqc_rows`; each optimizer step changes all six keys
@lru_cache(maxsize=6)
def _observables(angle_bytes: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Pauli coefficients of the observables that give <Z_q>, one
    column each, for the angles and their shifts; read-only, since the
    cache shares them:
    - (16, 64): the unshifted circuit's, for qubits q = 0..3, with rows
      the low pair's digits (qubits 1, 0) and columns (the high pair's
      digits, q);
    - (256, 112): the shifted circuits', by (sign, 14, q), the 14 +SHIFT
      ones before the 14 -SHIFT ones: layer 1's 12 angles in (qubit, slot)
      order, then layer 2's slot 0 and 1, whose column q is Z_q with its
      own qubit's slot shifted;
    - (4, 64, 16): the unshifted columns with qubit k's digit open, for
      k = 0..3: rows the other three digits from qubit 3 down, columns
      (digit of qubit k, q)."""
    angles = np.frombuffer(angle_bytes).reshape(N_LAYERS, N_QUBITS, 3)
    # layer 1's four qubits in each of its circuits, then for each qubit of
    # layer 2 its rotation unshifted and with slot 0 or 1 shifted
    first = _shift_rows(angles[0].reshape(-1)).reshape(-1, 3)
    second = _shift_rows(angles[1])[:, :5].reshape(-1, 3)
    transfer = _transfers(_rotations(np.concatenate([first, second])))  # (4, 4, rotation)
    n_first = first.shape[0]  # (circuit, qubit)
    # Z_q read before its qubit's layer-2 rotation is a direction over X,
    # Y, Z; each of its Paulis is read before the ring as one string, whose
    # sign joins the direction: (Pauli, q, 5 rotations)
    direction = transfer[1:, 3, n_first:].reshape(3, N_QUBITS, 5) * _IMAGE_SIGNS[:, :, None]
    # each such string read before layer 1 is the Kronecker product of each
    # qubit's transfer column of its digit: (qubit, Pauli, q, component,
    # circuit), multiplied out in pairs, qubits 3, 2 high and 1, 0 low
    layer = transfer[:, :, :n_first].reshape(4, 4, _N_FIRST, N_QUBITS).transpose(3, 1, 0, 2)
    factors = layer[np.arange(N_QUBITS)[:, None, None], _IMAGE_DIGITS.transpose(2, 0, 1)]
    high = (factors[3][:, :, :, None] * factors[2][:, :, None]).reshape(3, N_QUBITS, 16, -1)
    low = (factors[1][:, :, :, None] * factors[0][:, :, None]).reshape(3, N_QUBITS, 16, -1)
    # a column sums its three strings, each weighted by its direction's entry
    weighted = high[..., _PRODUCT_CIRCUITS] * direction[:, :, None, _PRODUCT_DIRECTIONS]
    cols = np.matmul(weighted.transpose(1, 3, 2, 0), low[..., _PRODUCT_CIRCUITS].transpose(1, 3, 0, 2))
    # back through the first ring: (string, product, q)
    cols = cols.reshape(N_QUBITS, -1, DIM * DIM).transpose(2, 1, 0)[_RING_GATHER]
    cols *= _RING_SIGNS[:, None, None]
    base = cols[:, 0]
    by_low = np.ascontiguousarray(base.reshape(16, 16, N_QUBITS).transpose(1, 0, 2)).reshape(16, -1)
    wide = cols[:, 1:].reshape(DIM * DIM, -1)
    open_ = base[_OPEN_ROWS].reshape(N_QUBITS, -1, 4 * N_QUBITS)
    for array in (by_low, wide, open_):
        array.flags.writeable = False
    return by_low, wide, open_


def _observables_for(params: VqcParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # keyed on content: adam_step updates the angles in place
    return _observables(np.ascontiguousarray(params.angles, dtype=float).tobytes())


def _compress(params: VqcParams, x: np.ndarray) -> np.ndarray:
    """(d_in,) or (B, d_in) inputs -> the (4, m) values a = in_proj x + bias
    that the encoding loads: the n samples' columns, then those of zero
    inputs up to m, n rounded up to a multiple of 8 (the module's one rule
    on product shapes)."""
    rows = x.reshape(-1, params.d_in)
    padded = np.concatenate([rows, np.zeros((-len(rows) % 8, params.d_in))])
    return params.in_proj @ padded.T + params.bias[:, None]


def _bloch(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(4, n) compressed inputs -> the (4 component, 4 qubit, n) Bloch
    4-vectors (1, <X>, <Y>, <Z>) of H, RY(arctan a), RZ(arctan a^2) on |0>,
    (1, cy cz, cy sz, -sy), then cy and h.  cy = 1/hypot(1, a) and sy = a cy
    are the cosine and sine of arctan a; with h = hypot(cy^2, sy^2),
    cz = cy^2/h and sz = sy^2/h are those of arctan a^2, 1/sqrt(1 + a^4)
    and a^2/sqrt(1 + a^4).  No intermediate overflows for any finite a,
    where a^2 and a^4 would."""
    cy = 1.0 / np.hypot(1.0, a)
    sy = a * cy
    cy2, sy2 = cy * cy, sy * sy
    h = np.hypot(cy2, sy2)
    w = cy / h
    r = np.empty((4,) + a.shape)
    r[0] = 1.0
    np.multiply(cy2, w, out=r[1])
    np.multiply(sy2, w, out=r[2])
    np.negative(sy, out=r[3])
    return r, cy, h


def _pairs(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_bloch` vectors -> the (16, n) Kronecker products of the high pair's
    (qubits 3, 2) and the low pair's (qubits 1, 0); the Pauli vector of the
    encoded state is high times low."""
    n = r.shape[-1]
    return (r[:, None, 3] * r[None, :, 2]).reshape(16, n), (r[:, None, 1] * r[None, :, 0]).reshape(16, n)


def _readout(high: np.ndarray, low: np.ndarray, by_low: np.ndarray) -> np.ndarray:
    """The `_pairs` of n samples -> the (n, 4) pre-scaling <Z> of the
    unshifted circuit: the low pair's products times the unshifted columns
    in one product, then each sample's high pair's.  It is the same
    function for a readout and for gradient rows, so both have its bits."""
    g = (low.T @ by_low).reshape(-1, 16, N_QUBITS)
    return (high.T[:, None, :] @ g)[:, 0]


@dataclass
class GradientRows:
    """What a gradient contracts, per sample: the unshifted pre-scaling
    readout (n, 4); for each of the 4 compressed inputs a_j, d<Z_i>/da_j
    times two (4, n, 4), from the differences <Z> at +SHIFT minus <Z> at
    -SHIFT of its RY and RZ encoding slots, chained through the arctans;
    and those differences of the variational angles (n, 14, 4): layer 1's
    12 angles in (qubit, slot) order against each Z_q, then layer 2's slot
    0 and 1, whose column q is qubit q's own angle against Z_q.  The other
    layer-2 differences, and all of slot 2's, are zero and not stored."""

    readout: np.ndarray
    enc: np.ndarray
    var: np.ndarray

    def samples(self, start: int, stop: int) -> GradientRows:
        """The rows of samples start..stop-1, as views."""
        part = slice(start, stop)
        return GradientRows(readout=self.readout[part], enc=self.enc[:, part], var=self.var[part])


def _encoding_rows(r: np.ndarray, cy: np.ndarray, pauli: np.ndarray, a: np.ndarray,
                   open_: np.ndarray) -> np.ndarray:
    """The `_bloch` vectors r and cy and the (256, n) Pauli vectors of (4, n)
    inputs a -> the <Z> rows of the encoding shifts as their last product
    gives them, (qubit, n, variant, q), the variants RY +SHIFT, RY -SHIFT,
    RZ +SHIFT, RZ -SHIFT of that qubit.  A shift swaps one qubit's vector
    for a closed-form variant: RY +-SHIFT gives (1, -+sy cz, -+sy sz, -+cy),
    sy cz and sy sz being a cy cz and a cy sz, and RZ +-SHIFT gives
    (1, -+cy sz, +-cy cz, -sy).  The unshifted columns with qubit k's digit
    open are contracted with the Kronecker product of the other three
    qubits' vectors first, one product per qubit, and then with each variant
    of qubit k.  That Kronecker product is the 64 strings of the Pauli
    vector whose digit on qubit k is I, bit for bit, since `_bloch` writes
    exactly 1.0 as each identity component."""
    n = a.shape[-1]
    # (qubit, n, (digit, q)), one qubit's rows gathered at a time: one
    # (4, 64, n) gather beside `pauli` grows the heap past glibc's trim
    # threshold, and each call then faults its pages in again
    partial = np.stack([pauli[rows].T @ o for rows, o in zip(_OPEN_ROWS[..., 0], open_)])
    variants = np.empty((4, 4, N_QUBITS, n))  # (RY+ RY- RZ+ RZ-, component, qubit, n)
    variants[:, 0] = 1.0
    np.multiply(a, r[1:3], out=variants[1, 1:3])
    variants[1, 3] = cy
    np.negative(variants[1, 1:], out=variants[0, 1:])
    variants[2, 1], variants[2, 2] = -r[2], r[1]
    variants[3, 1], variants[3, 2] = r[2], -r[1]
    variants[2:, 3] = r[3]
    return variants.transpose(2, 3, 0, 1) @ partial.reshape(N_QUBITS, n, 4, N_QUBITS)


def _gradient_rows(params: VqcParams, a: np.ndarray, r: np.ndarray, cy: np.ndarray):
    """(4, n) compressed inputs and their `_bloch` vectors r and cy -> the
    values of a sample's 65 pre-scaling <Z> rows, in the layouts the
    kernel's products form them: the unshifted readout (n, 4); the 16
    encoding-shifted rows (qubit, n, variant, q), `_encoding_rows`' RY
    +-SHIFT and RZ +-SHIFT variants of each qubit; and the shifted product
    (n, 112), by (sign, 14, q) as `_observables` lays out its columns: the
    +SHIFT half, then the -SHIFT half, each with layer 1's 12 angles and
    then layer 2's slot 0 and 1, whose column q is the <Z_q> with qubit q's
    own slot shifted.  A layer-2 row's other three columns, and all four of
    a slot-2 row, are the readout, so they are not formed again; `vqc_rows`
    takes every difference."""
    high, low = _pairs(r)
    by_low, wide, open_ = _observables_for(params)
    pauli = (high[:, None] * low[None, :]).reshape(DIM * DIM, -1)
    # 112 columns: with OpenBLAS a row of a product with 100 or 108 columns
    # had other bits at other row counts, which the windows must not see
    return _readout(high, low, by_low), _encoding_rows(r, cy, pauli, a, open_), pauli.T @ wide


def vqc_rows(params: VqcParams, x: np.ndarray, counter: EvalCounter | None = None
             ) -> GradientRows:
    """The `GradientRows` of inputs x, (d_in,) or (B, d_in): the 65 rows per
    sample that a gradient contracts, each counted here as one evaluation."""
    x = as_rows(x, params.d_in)
    a = _compress(params, x)
    r, cy, h = _bloch(a)
    readout, e_enc, shifted = _gradient_rows(params, a, r, cy)
    # d arctan(a)/da = 1 / (1 + a^2) = cy^2 and d arctan(a^2)/da =
    # 2a / (1 + a^4) = 2a cz^2, formed as 2 (a cz) cz: neither overflows
    cy2 = cy * cy
    cz = cy2 / h
    enc = (e_enc[:, :, 0] - e_enc[:, :, 1]) * cy2[..., None]
    enc += (e_enc[:, :, 2] - e_enc[:, :, 3]) * (2.0 * (a * cz) * cz)[..., None]
    half = shifted.shape[1] // 2
    var = (shifted[:, :half] - shifted[:, half:]).reshape(len(shifted), -1, N_QUBITS)
    n = x.size // params.d_in
    if counter is not None:
        counter.count += n * _GRADIENT_ROWS
    return GradientRows(readout=readout, enc=enc, var=var).samples(0, n)


def vqc_forward(params: VqcParams, x: np.ndarray, counter: EvalCounter | None = None
                ) -> np.ndarray:
    """One circuit evaluation per sample, counted here; returns the scaled Z
    expectations, (4,) or (B, 4)."""
    x = as_rows(x, params.d_in)
    n = x.size // params.d_in
    e = _readout(*_pairs(_bloch(_compress(params, x))[0]), _observables_for(params)[0])[:n]
    if counter is not None:
        counter.count += n
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

    x is (d_in,) or (B, d_in) and upstream has x's leading shape, (4,) or
    (B, 4).  `rows` are the `GradientRows` that `vqc_rows(params, x)`
    formed; the call then only contracts them and counts nothing.  Without
    them it forms them first through `vqc_rows`, which counts 65 per sample.
    The parameter gradients are added into and returned as `into` (a fresh
    zero copy of params if None).
    """
    x = as_rows(x, params.d_in)
    inputs = x.reshape(-1, params.d_in)
    n = inputs.shape[0]
    upstream = np.asarray(upstream, dtype=float).reshape(n, N_QUBITS)
    if rows is None:
        rows = vqc_rows(params, x, counter)

    # (<Z_i> at +SHIFT - <Z_i> at -SHIFT) / 2 = d<Z_i>/d(angle), summed against dL/d<Z_i>
    de = upstream * (0.5 * float(params.out_scale))
    da = np.einsum("jni,ni->jn", rows.enc, de)  # (4, n), a = in_proj @ x + bias
    # layer 1's angles reach every Z_q, layer 2's slot 0 and 1 on qubit q
    # only Z_q; slot 2 commutes with the readout and keeps a gradient of 0.0
    first = np.einsum("nki,ni->k", rows.var[:, :N_QUBITS * 3], de)
    own = np.einsum("nsq,nq->qs", rows.var[:, N_QUBITS * 3:], de)

    if into is None:
        into = laid_out(params)
        into.vector.fill(0.0)
    into.in_proj += da @ inputs
    into.bias += da.sum(axis=1)
    into.angles[0] += first.reshape(N_QUBITS, 3)
    into.angles[1, :, :2] += own
    into.out_scale += np.vdot(upstream, rows.readout)
    into.out_shift += np.sum(upstream)
    return into, (da.T @ params.in_proj).reshape(x.shape)
