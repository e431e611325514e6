"""Quantum LSTM cell: six variational circuit blocks wired through the
classical gate algebra, with exact end-to-end gradients.

Per step, with v_t = concat(h_{t-1}, x_t):

    f_t = sigmoid(VQC1(v_t))          forget gate
    i_t = sigmoid(VQC2(v_t))          input gate
    g_t = tanh(VQC3(v_t))             candidate cell values
    c_t = f_t * c_{t-1} + i_t * g_t
    o_t = sigmoid(VQC4(v_t))          output gate
    h_t = sigmoid(VQC5(o_t * tanh(c_t)))
    y_t = VQC6(o_t * tanh(c_t))

The cell update and its gradient are the classical LSTM's
(`neural.cell_input`, `CellCache`, `cell_backward`).  The hidden size is
pinned to 4 so circuit readouts map one-to-one onto gate vectors.  A flag
drops the sigmoid around VQC5 for the published variant of the cell that
emits the circuit value directly.

Every function takes an optional leading batch axis: a sequence is (T, d_x)
for one sample or (B, T, d_x) for B samples.  Each block then makes one
`vqc_forward` call per time step, and one `vqc_gradients` call per time
step in the backward pass, for the whole batch.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .neural import (
    CellCache, ParamTree, SequenceCaches, as_sequences, cell_backward, cell_input, sigmoid,
    zeros_like,
)
from .vqc import EvalCounter, VqcParams, init_vqc_params, vqc_forward, vqc_gradients

HIDDEN = 4


@dataclass
class QlstmParams(ParamTree):
    """Six circuit blocks plus the scalar read-out head.

    vqc1-4 consume concat(h, x) (d_in = 4 + d_x); vqc5 and vqc6 consume the
    4-vector o*tanh(c).  sigma_hidden selects whether h_t passes through a
    sigmoid (default) or is the raw VQC5 output.
    """

    vqc1: VqcParams
    vqc2: VqcParams
    vqc3: VqcParams
    vqc4: VqcParams
    vqc5: VqcParams
    vqc6: VqcParams
    head_w: np.ndarray  # (4,)
    head_b: np.ndarray  # ()
    sigma_hidden: bool = True

    @property
    def d_x(self) -> int:
        return self.vqc1.d_in - HIDDEN


@dataclass
class QlstmState:
    h: np.ndarray  # (4,) or (B, 4)
    c: np.ndarray  # (4,) or (B, 4)
    y: np.ndarray  # (4,) or (B, 4)


def init_qlstm_params(d_x: int, rng: np.random.Generator, sigma_hidden: bool = True) -> QlstmParams:
    if d_x < 1:
        raise ValueError(f"d_x must be >= 1, got {d_x}")
    k = 1.0 / np.sqrt(HIDDEN)
    return QlstmParams(
        vqc1=init_vqc_params(HIDDEN + d_x, rng),
        vqc2=init_vqc_params(HIDDEN + d_x, rng),
        vqc3=init_vqc_params(HIDDEN + d_x, rng),
        vqc4=init_vqc_params(HIDDEN + d_x, rng),
        vqc5=init_vqc_params(HIDDEN, rng),
        vqc6=init_vqc_params(HIDDEN, rng),
        head_w=rng.uniform(-k, k, size=HIDDEN),
        head_b=np.array(0.0),
        sigma_hidden=sigma_hidden,
    )


def initial_state() -> QlstmState:
    """h starts at the sigmoid image of zero, c and y at zero."""
    return QlstmState(h=np.full(HIDDEN, 0.5), c=np.zeros(HIDDEN), y=np.zeros(HIDDEN))


@dataclass
class QlstmStepCache(CellCache):
    r: np.ndarray  # o * tanh(c), the input to vqc5/vqc6
    h: np.ndarray


def qlstm_cell_step(
    params: QlstmParams,
    x_t: np.ndarray,
    prev: QlstmState,
    counter: EvalCounter | None = None,
) -> tuple[QlstmState, QlstmStepCache]:
    """One recurrence step; exactly six circuit evaluations per sample.
    x_t is (d_x,) or (B, d_x); the arrays of prev broadcast against it."""
    v = cell_input(x_t, prev.h, params.d_x)
    f = sigmoid(vqc_forward(params.vqc1, v, counter))
    i = sigmoid(vqc_forward(params.vqc2, v, counter))
    g = np.tanh(vqc_forward(params.vqc3, v, counter))
    c = f * prev.c + i * g
    o = sigmoid(vqc_forward(params.vqc4, v, counter))
    tanh_c = np.tanh(c)
    r = o * tanh_c
    h_raw = vqc_forward(params.vqc5, r, counter)
    h = sigmoid(h_raw) if params.sigma_hidden else h_raw
    y = vqc_forward(params.vqc6, r, counter)
    state = QlstmState(h=h, c=c, y=y)
    cache = QlstmStepCache(v=v, f=f, i=i, g=g, o=o, c_prev=prev.c, tanh_c=tanh_c, r=r, h=h)
    return state, cache


def qlstm_forward(
    params: QlstmParams,
    sequence,
    counter: EvalCounter | None = None,
    *,
    keep_caches: bool = True,
) -> tuple[float | np.ndarray, SequenceCaches | None]:
    """Run the cell over a (T, d_x) sequence, or a list of T (d_x,) vectors,
    or a (B, T, d_x) batch.  The output is the linear head over y_T (sigmoid
    is applied by the caller for classification): a float for one
    sequence, a (B,) array for a batch.  With keep_caches=False each step's
    backward cache is dropped after its step and the caches returned are
    None, which the backward refuses."""
    xs = as_sequences(sequence)
    state = initial_state()
    steps = []
    for x_t in np.moveaxis(xs, -2, 0):
        state, cache = qlstm_cell_step(params, x_t, state, counter)
        if keep_caches:
            steps.append(cache)
    logits = state.y @ params.head_w + params.head_b
    caches = SequenceCaches(steps=steps, final=state.y) if keep_caches else None
    return (float(logits) if logits.ndim == 0 else logits), caches


def _vqc_grad_into(
    acc: VqcParams,
    params: VqcParams,
    x: np.ndarray,
    upstream: np.ndarray,
    counter: EvalCounter | None,
) -> np.ndarray:
    """Accumulate one circuit's gradients; an upstream that is zero for the
    whole batch gives exactly zero everywhere, so the call is skipped."""
    if not np.any(upstream):
        return np.zeros_like(x)
    g, dx = vqc_gradients(params, x, upstream, counter)
    acc.in_proj += g.in_proj
    acc.bias += g.bias
    acc.angles += g.angles
    acc.out_scale += g.out_scale
    acc.out_shift += g.out_shift
    return dx


def qlstm_backward(
    params: QlstmParams,
    caches: SequenceCaches,
    upstream: float | np.ndarray,
    counter: EvalCounter | None = None,
) -> tuple[QlstmParams, np.ndarray]:
    """Exact gradients of the sum over samples of upstream * logit, for
    every parameter (summed over the batch) and every input.

    upstream is a float for one sequence or (B,) for a batch.  Chains
    parameter-shift circuit gradients through the gate algebra,
    accumulating backwards through time.  Returns (gradients, dx) where dx
    is (T, d_x) or (B, T, d_x).
    """
    if caches is None:
        raise ValueError("no caches to differentiate: the forward ran with keep_caches=False")
    upstream = np.asarray(upstream, dtype=float)
    grads = zeros_like(params)
    T = len(caches.steps)
    grads.head_w += np.dot(upstream, caches.final)
    grads.head_b += np.sum(upstream)
    dy = upstream[..., None] * params.head_w
    dh = np.zeros_like(dy)
    dc = np.zeros_like(dy)
    dx = np.zeros(upstream.shape + (T, params.d_x))
    for t in range(T - 1, -1, -1):
        s = caches.steps[t]
        # h_t and y_t both read r = o * tanh(c)
        dh_raw = dh * s.h * (1.0 - s.h) if params.sigma_hidden else dh
        dr = _vqc_grad_into(grads.vqc5, params.vqc5, s.r, dh_raw, counter)
        dr += _vqc_grad_into(grads.vqc6, params.vqc6, s.r, dy, counter)
        pre_f, pre_i, pre_g, pre_o, dc = cell_backward(s, dr, dc)
        dv = _vqc_grad_into(grads.vqc1, params.vqc1, s.v, pre_f, counter)
        dv += _vqc_grad_into(grads.vqc2, params.vqc2, s.v, pre_i, counter)
        dv += _vqc_grad_into(grads.vqc3, params.vqc3, s.v, pre_g, counter)
        dv += _vqc_grad_into(grads.vqc4, params.vqc4, s.v, pre_o, counter)
        dh = dv[..., :HIDDEN]
        dx[..., t, :] = dv[..., HIDDEN:]
        dy = np.zeros_like(dy)
    return grads, dx
