"""Classical numerics: LSTM cell with exact backpropagation through time,
binary cross-entropy on the logit, and the Adam optimizer over one
parameter vector.

The quantum LSTM shares the cell update c = f*c_prev + i*g, out =
o*tanh(c): both cells build their gate input with `cell_input`, cache a
`CellCache` per step and go back through the update with `cell_backward`.
Both also share the time loops: each supplies only its step (and step
back) to `run_sequence` and `backprop_sequence`, over one `CellState`.
A step back gets one upstream and its place in the sequence, and
`backprop_sequence` takes the steps it passes to it in the order it uses
them, last to first: the LSTM's caches reversed, and the QLSTM's pairs of
a cache and its gradient rows, formed a window at a time as they are used.

A parameter dataclass (`VqcParams` and `QlstmParams` elsewhere) derives
its tree of named arrays from its fields through `ParamTree`; `LstmParams`
names the row blocks of its stacked gates instead.  `laid_out` makes a
model's arrays views of one float64 `vector`, so a gradient is one vector
of the same layout and Adam one elementwise update of it.

The LSTM and the loss take an optional leading batch axis: a sequence is
(T, d_in) for one sample or (B, T, d_in) for B samples, and parameter
gradients are summed over the batch.  `LstmParams` stores the four gates
stacked (gate order f, i, o, c).  A forward call copies them once into a
gate-major kernel with the f, i and o blocks halved, so a step is one
product that lands as a C-contiguous (4, B, hidden) block, one tanh over
it and one `*0.5 + 0.5` that turns the f, i and o blocks into sigmoids,
since sigmoid(x) = 1/2 + tanh(x/2)/2.  `sigmoid` itself stays for the
QLSTM, the loss and the predicted probabilities: the tanh form gives
sigmoid(-40) as exactly 0, an absolute error of about 4e-18.  The step
back is one product for the weight gradients and one for dL/dv.  Its
`tree()` names each gate's rows and bias by the checkpoint names (`w_f`,
..., `b_o`), as views of the stack.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import partial
from typing import TypeVar

import numpy as np


def sigmoid(x: np.ndarray | float) -> np.ndarray:
    """1 / (1 + e^-x) where x >= 0 and e^x / (1 + e^x) elsewhere, from one
    exponential e^-|x|, so none overflows.  The exponent is -x or x, not
    -|x|, so a NaN keeps its bits.  A scalar gives a 0-d array."""
    x = np.asarray(x, dtype=float)
    pos = x >= 0
    e = np.where(pos, -x, x)
    np.exp(e, out=e)
    out = np.where(pos, 1.0, e)
    e += 1.0
    out /= e
    return out


class ParamTree:
    """Base of the parameter dataclasses: their array fields, in field
    order, form a tree of named arrays.  A field that is itself a
    ParamTree contributes its arrays under `field.`, e.g. `vqc1.in_proj`;
    other fields (flags) are not parameters.  `vector` is the float64
    vector that `laid_out` made the arrays views of, None until then."""

    vector: np.ndarray | None = None

    def tree(self, prefix: str = "") -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, ParamTree):
                out.update(value.tree(f"{prefix}{f.name}."))
            elif isinstance(value, np.ndarray):
                out[prefix + f.name] = value
        return out


_P = TypeVar("_P", bound=ParamTree)


def laid_out(params: _P, vector: np.ndarray | None = None) -> _P:
    """A copy of `params` whose arrays are views of one float64 vector, the
    copy's `vector`, in field order (a nested ParamTree's in its field's
    place) with no gap or overlap.  The views read `vector` as it stands;
    without one, a fresh vector holds the values of params' arrays."""
    fresh = vector is None
    vector = np.empty(sum(a.size for a in params.tree().values())) if fresh else vector
    out, end = _views(params, vector, 0, fresh)
    if end != vector.size:
        raise ValueError(f"a vector of {vector.size} values does not hold {end} parameters")
    out.vector = vector
    return out


def _views(block: _P, vector: np.ndarray, start: int, fresh: bool) -> tuple[_P, int]:
    """`laid_out`'s walk from vector[start]; returns the copy and where it ends.
    A module function, not a recursive closure, whose reference cycle would
    keep each vector alive until the cyclic garbage collector ran."""
    changes = {}
    for f in fields(block):
        value = getattr(block, f.name)
        if isinstance(value, ParamTree):
            changes[f.name], start = _views(value, vector, start, fresh)
        elif isinstance(value, np.ndarray):
            changes[f.name] = vector[start:start + value.size].reshape(value.shape)
            if fresh:
                changes[f.name][...] = value
            start += value.size
    return replace(block, **changes), start


# the three sigmoid gates side by side, then the candidate
_GATES = "fioc"
# per gate block of `_GATES`: the sigmoid gates' pre-activations are halved
_GATE_SCALE = np.array([[0.5], [0.5], [0.5], [1.0]])
# the gates' order in a checkpoint and in the initial draws
_NAMED_GATES = "fico"


@dataclass
class LstmParams(ParamTree):
    """The four gates' weight matrices (hidden x (hidden + d_in)) one under
    another in `_GATES` order, stored row-major as one (4 hidden, hidden +
    d_in) matrix `w`, their biases `b` in the same order, and the
    single-logit classification head."""

    w: np.ndarray
    b: np.ndarray
    head_w: np.ndarray  # (hidden,)
    head_b: np.ndarray  # ()

    @property
    def hidden(self) -> int:
        return self.w.shape[0] // 4

    @property
    def d_in(self) -> int:
        return self.w.shape[1] - self.hidden

    def tree(self, prefix: str = "") -> dict[str, np.ndarray]:
        """The checkpoint names w_f, w_i, w_c, w_o, b_f, ..., head_b, each
        gate's entry a view of its row block; the rows are C-contiguous, so
        an in-place write (loading, finite differences) reaches `w`."""
        n = self.hidden
        rows = {gate: slice(k * n, (k + 1) * n) for k, gate in enumerate(_GATES)}
        out = {f"{prefix}w_{gate}": self.w[rows[gate]] for gate in _NAMED_GATES}
        out.update({f"{prefix}b_{gate}": self.b[rows[gate]] for gate in _NAMED_GATES})
        out.update({prefix + "head_w": self.head_w, prefix + "head_b": self.head_b})
        return out


@dataclass
class CellState:
    """The recurrent state after a step; each array is (hidden,) or (B, hidden)."""

    h: np.ndarray
    c: np.ndarray
    y: np.ndarray  # what the head reads: h itself for the LSTM, VQC6's readout for the QLSTM


def as_sequences(sequence) -> np.ndarray:
    """A (T, d) sequence, a list of T (d,) vectors, or a (B, T, d) batch of
    sequences, as a float array; T must be at least 1."""
    xs = np.asarray(sequence, dtype=float)
    if xs.ndim not in (2, 3) or xs.shape[-2] == 0:
        raise ValueError(f"sequence must be non-empty, (T, d) or (B, T, d); got shape {xs.shape}")
    return xs


def init_lstm_params(hidden: int, d_in: int, rng: np.random.Generator) -> LstmParams:
    """Uniform(-k, k) gate weights with k = 1/sqrt(hidden + d_in), drawn gate
    by gate in the order f, i, c, o, then the head's; forget-gate bias
    starts at 1 to ease early gradient flow, other biases at zero."""
    k = 1.0 / np.sqrt(hidden + d_in)
    w = {gate: rng.uniform(-k, k, size=(hidden, hidden + d_in)) for gate in _NAMED_GATES}
    b = np.zeros(4 * hidden)
    b[:hidden] = 1.0  # f is the first block
    return laid_out(LstmParams(w=np.concatenate([w[gate] for gate in _GATES]), b=b,
                               head_w=rng.uniform(-k, k, size=hidden), head_b=np.array(0.0)))


@dataclass
class CellCache:
    """What the backward pass of one cell update reads: the gate input v =
    concat(h_prev, x_t), the four gate activations, c_prev and tanh(c)."""

    v: np.ndarray
    f: np.ndarray
    i: np.ndarray
    g: np.ndarray  # candidate tanh layer
    o: np.ndarray
    c_prev: np.ndarray
    tanh_c: np.ndarray


@dataclass
class SequenceCaches:
    """A forward pass's caches, one per step, and the final vector the head
    reads (h_T for the LSTM, y_T for the QLSTM)."""

    steps: list[CellCache]
    final: np.ndarray


def as_rows(x, width: int) -> np.ndarray:
    """x as a float (width,) vector or (B, width) batch; other shapes raise ValueError."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != width:
        raise ValueError(f"input shape {x.shape} does not match input width {width}")
    return x


def cell_input(x_t: np.ndarray, h_prev: np.ndarray, d_x: int) -> np.ndarray:
    """v = concat(h_prev, x_t) for a float array x_t of shape (d_x,) or
    (B, d_x); an h_prev without x_t's batch axis broadcasts against it.
    This runs on every step of both models, so x_t is taken as the float
    array `as_sequences` makes and only its shape is checked."""
    if x_t.ndim not in (1, 2) or x_t.shape[-1] != d_x:
        raise ValueError(f"input shape {x_t.shape} does not match input width {d_x}")
    if h_prev.ndim != x_t.ndim:
        h_prev = np.broadcast_to(h_prev, x_t.shape[:-1] + h_prev.shape[-1:])
    return np.concatenate([h_prev, x_t], axis=-1)


def cell_backward(cache: CellCache, d_out: np.ndarray, dc: np.ndarray) -> tuple[np.ndarray, ...]:
    """Back through c = f*c_prev + i*g and out = o*tanh(c), given d_out =
    dL/d(out) and dc = dL/dc from the later step.  Returns the gradients of
    the f, i, g and o pre-activations, then dL/dc_prev."""
    s = cache
    dc = dc + d_out * s.o * (1.0 - s.tanh_c * s.tanh_c)
    pre_f = dc * s.c_prev * s.f * (1.0 - s.f)
    pre_i = dc * s.g * s.i * (1.0 - s.i)
    pre_g = dc * s.i * (1.0 - s.g * s.g)
    pre_o = d_out * s.tanh_c * s.o * (1.0 - s.o)
    return pre_f, pre_i, pre_g, pre_o, dc * s.f


def run_sequence(step, params, sequence, state: CellState, keep_caches: bool):
    """The forward time loop of both models over a (T, d) sequence, a list of
    T (d,) vectors or a (B, T, d) batch: `step(params, x_t, state)` gives the
    next state and its cache.  Returns the head's logit over the final y (a
    float, or (B,) for a batch) and the caches; with keep_caches=False each
    cache is dropped after its step and the caches are None."""
    steps = []
    for x_t in np.moveaxis(as_sequences(sequence), -2, 0):
        state, cache = step(params, x_t, state)
        if keep_caches:
            steps.append(cache)
    logits = state.y @ params.head_w + params.head_b
    caches = SequenceCaches(steps=steps, final=state.y) if keep_caches else None
    return (float(logits) if logits.ndim == 0 else logits), caches


def backprop_sequence(step_back, params: _P, caches: SequenceCaches, steps, upstream, d_x: int):
    """The backward time loop of both models: exact gradients of the sum over
    samples of upstream * logit (upstream is a float, or (B,) for a batch),
    summed over the batch, and the (T, d_x) or (B, T, d_x) input gradients.
    The parameter gradients are `laid_out` like `params`, on a fresh vector.
    `step_back(params, grads, step, d_out, dc)` adds a step's parameter
    gradients to `grads` and returns dL/dv_t, v_t = concat(h_{t-1}, x_t),
    and dL/dc_{t-1}.  `steps` gives the `step` of each t in the order the
    loop uses them, t = T-1 down to 0, and the loop passes each through
    unread and binds it to no name, so a step's data is freed when its step
    back returns.  `caches` gives T and the final y.  The head reads y only
    at t = T-1, so d_out is the head's gradient there and dL/dh_t before."""
    if caches is None:
        raise ValueError("no caches to differentiate: the forward ran with keep_caches=False")
    upstream = np.asarray(upstream, dtype=float)
    grads = laid_out(params, np.zeros(params.vector.size))
    T = len(caches.steps)
    grads.head_w += np.dot(upstream, caches.final)
    grads.head_b += np.sum(upstream)
    d_out = upstream[..., None] * params.head_w
    dc = np.zeros_like(d_out)
    dx = np.zeros(upstream.shape + (T, d_x))
    steps = iter(steps)
    for t in range(T - 1, -1, -1):
        dv, dc = step_back(params, grads, next(steps), d_out, dc)
        d_out, dx[..., t, :] = dv[..., :-d_x], dv[..., -d_x:]
    return grads, dx


def _gate_kernel(params: LstmParams, batch: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The gates as a step over inputs with leading axes `batch` (() or
    (B,)) reads them: a (4, hidden + d_in, hidden) stack of each gate's
    transposed rows in `_GATES` order, and its biases repeated over the
    batch as (4, *batch, hidden), with the f, i and o blocks halved.
    Halving is exact in binary floating point, so tanh of a halved
    pre-activation x/2 gives the sigmoid as 1/2 + tanh(x/2)/2."""
    n, d = params.hidden, params.w.shape[1]
    w = np.ascontiguousarray(params.w.reshape(4, n, d).swapaxes(1, 2))
    w *= _GATE_SCALE[:, None]
    b = np.empty((4, *batch, n))
    b[...] = (params.b.reshape(4, n) * _GATE_SCALE).reshape(4, *[1] * len(batch), n)
    return w, b


def lstm_cell_step(
    params: LstmParams, x_t: np.ndarray, prev: CellState, kernel: tuple[np.ndarray, np.ndarray],
) -> tuple[CellState, CellCache]:
    """One recurrence step: the four gates over v = concat(h_prev, x_t) as
    one product and one tanh, then the cell and hidden updates.  x_t is
    (d_in,) or (B, d_in); the arrays of prev broadcast against it.  The
    step reads `kernel`, the `_gate_kernel` of `params` at x_t's batch
    axes."""
    v = cell_input(x_t, prev.h, params.d_in)
    w, b = kernel
    # gate-major: act[k] is gate k's C-contiguous (hidden,) or (B, hidden) block
    act = np.matmul(v, w)
    act += b
    np.tanh(act, out=act)
    sig = act[:3]
    sig *= 0.5
    sig += 0.5
    f, i, o, g = act
    c = f * prev.c
    c += i * g
    tanh_c = np.tanh(c)
    h = o * tanh_c
    cache = CellCache(v=v, f=f, i=i, g=g, o=o, c_prev=prev.c, tanh_c=tanh_c)
    return CellState(h=h, c=c, y=h), cache


def _lstm_step_back(params: LstmParams, grads: LstmParams, s: CellCache, d_out, dc,
                    dw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One step of `lstm_backward`; y is h, so d_out is dL/dh_t at every
    step.  The weight gradient is formed in `dw`, one buffer for every step."""
    pre_f, pre_i, pre_g, pre_o, dc = cell_backward(s, d_out, dc)
    pre = np.concatenate([pre_f, pre_i, pre_o, pre_g], axis=-1)
    # one row per sample: summing the outer products is one product
    pre_rows = pre.reshape(-1, pre.shape[-1])
    np.matmul(pre_rows.T, s.v.reshape(-1, s.v.shape[-1]), out=dw)
    grads.w += dw
    grads.b += pre_rows.sum(axis=0)
    return pre @ params.w, dc


def lstm_forward(
    params: LstmParams, sequence, *, keep_caches: bool = True
) -> tuple[float | np.ndarray, SequenceCaches | None]:
    """`run_sequence` of the LSTM cell from the zero state, with d = d_in.
    The steps read one `_gate_kernel` of `params`, built once per call: its
    gate-major weights make each step's product land as four C-contiguous
    gate blocks, and its halved sigmoid rows let one tanh give all four
    gates."""
    xs = as_sequences(sequence)
    zero = np.zeros(params.hidden)
    return run_sequence(partial(lstm_cell_step, kernel=_gate_kernel(params, xs.shape[:-2])),
                        params, xs, CellState(h=zero, c=zero, y=zero), keep_caches)


def lstm_backward(
    params: LstmParams, caches: SequenceCaches, upstream: float | np.ndarray
) -> tuple[LstmParams, np.ndarray]:
    """`backprop_sequence` of the LSTM cell over its step caches, last to first."""
    # a missing `caches` is backprop_sequence's error to raise
    steps = None if caches is None else reversed(caches.steps)
    return backprop_sequence(partial(_lstm_step_back, dw=np.empty(params.w.shape)), params,
                             caches, steps, upstream, params.d_in)


def bce_from_logit(logit, target) -> tuple:
    """Numerically stable binary cross-entropy on the logit; returns
    (value, dValue/dlogit), floats for a float logit and arrays for an
    array of logits."""
    z = np.asarray(logit, dtype=float)
    value = np.maximum(z, 0.0) - z * target + np.log1p(np.exp(-np.abs(z)))
    dlogit = sigmoid(z) - target
    if z.ndim == 0:
        return float(value), float(dlogit)
    return value, dlogit


# Adam's decay rates and guard [Kingma & Ba 2015]; only the learning rate varies
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class OptimizerState:
    """Adam over `size` parameters: the learning rate, the step count and
    `rows`, an allocation of its own for the moments m, v and two work rows."""

    def __init__(self, size: int, lr: float) -> None:
        self.lr = lr
        self.step = 0
        self.rows = np.zeros((4, size))


def adam_step(opt: OptimizerState, theta: np.ndarray, grad: np.ndarray) -> None:
    """One bias-corrected Adam update of the vector `theta`, in place and
    through `opt`'s rows, so with no temporaries; elementwise, so each value
    gets the bits of the per-array formula."""
    opt.step += 1
    m, v, a, b = opt.rows
    m *= BETA1
    np.multiply(grad, 1.0 - BETA1, out=a)
    m += a
    v *= BETA2
    np.multiply(grad, grad, out=a)
    a *= 1.0 - BETA2
    v += a
    np.divide(m, 1.0 - BETA1**opt.step, out=a)
    a *= opt.lr
    np.divide(v, 1.0 - BETA2**opt.step, out=b)
    np.sqrt(b, out=b)
    b += EPS
    a /= b
    theta -= a
