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
(`neural.cell_input`, `CellCache`, `cell_backward`), and so are the time
loops (`neural.run_sequence`, `backprop_sequence`).  The hidden size is
pinned to 4 so circuit readouts map one-to-one onto gate vectors.  A flag
drops the sigmoid around VQC5 for the published variant of the cell that
emits the circuit value directly.

Every function takes an optional leading batch axis: a sequence is (T, d_x)
for one sample or (B, T, d_x) for B samples.  Each block then makes one
`vqc_forward` call per time step, and one `vqc_gradients` call per time
step in the backward pass, for the whole batch, except where the
sequence's structure makes a block's gradient zero (`_qlstm_step_back`).
So B samples over T steps cost B * (6T + 65 (5T - 1)) evaluations, whatever
the data.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .neural import (
    CellCache, CellState, ParamTree, SequenceCaches, backprop_sequence, cell_backward,
    cell_input, run_sequence, sigmoid,
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


def initial_state() -> CellState:
    """h starts at the sigmoid image of zero, c and y at zero."""
    return CellState(h=np.full(HIDDEN, 0.5), c=np.zeros(HIDDEN), y=np.zeros(HIDDEN))


@dataclass
class QlstmStepCache(CellCache):
    r: np.ndarray  # o * tanh(c), the input to vqc5/vqc6
    h: np.ndarray


def qlstm_cell_step(
    params: QlstmParams,
    x_t: np.ndarray,
    prev: CellState,
    counter: EvalCounter | None = None,
) -> tuple[CellState, QlstmStepCache]:
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
    state = CellState(h=h, c=c, y=y)
    cache = QlstmStepCache(v=v, f=f, i=i, g=g, o=o, c_prev=prev.c, tanh_c=tanh_c, r=r, h=h)
    return state, cache


def qlstm_forward(params: QlstmParams, sequence, counter: EvalCounter | None = None, *,
                  keep_caches: bool = True) -> tuple[float | np.ndarray, SequenceCaches | None]:
    """`neural.run_sequence` of the quantum cell from `initial_state()`,
    with d = d_x; the sigmoid of the logit is the caller's."""
    return run_sequence(partial(qlstm_cell_step, counter=counter), params, sequence,
                        initial_state(), keep_caches)


def _vqc_grad_into(acc: VqcParams, params: VqcParams, x: np.ndarray, upstream: np.ndarray,
                   counter: EvalCounter | None) -> np.ndarray:
    """Add one circuit's parameter gradients to `acc`; returns dL/dx."""
    g, dx = vqc_gradients(params, x, upstream, counter)
    for total, part in zip(acc.tree().values(), g.tree().values(), strict=True):
        total += part
    return dx


def _qlstm_step_back(params: QlstmParams, grads: QlstmParams, s: QlstmStepCache, d_out, dc,
                     first, last, counter: EvalCounter | None) -> tuple[np.ndarray, np.ndarray]:
    """One step of `qlstm_backward`: parameter-shift circuit gradients
    chained through the gate algebra.  The step's place alone decides the
    blocks: vqc6 at the last step (only the head reads y), vqc5 before it,
    vqc2-4 always, and vqc1 but at the first step, where c_prev = 0 makes
    the forget gate's gradient exactly zero."""
    if last:
        dr = _vqc_grad_into(grads.vqc6, params.vqc6, s.r, d_out, counter)
    else:
        dh_raw = d_out * s.h * (1.0 - s.h) if params.sigma_hidden else d_out
        dr = _vqc_grad_into(grads.vqc5, params.vqc5, s.r, dh_raw, counter)
    pre_f, pre_i, pre_g, pre_o, dc = cell_backward(s, dr, dc)
    gates = ((grads.vqc1, params.vqc1, pre_f), (grads.vqc2, params.vqc2, pre_i),
             (grads.vqc3, params.vqc3, pre_g), (grads.vqc4, params.vqc4, pre_o))
    dvs = [_vqc_grad_into(acc, block, s.v, pre, counter)
           for acc, block, pre in (gates[1:] if first else gates)]
    return sum(dvs[1:], start=dvs[0]), dc


def qlstm_backward(params: QlstmParams, caches: SequenceCaches, upstream: float | np.ndarray,
                   counter: EvalCounter | None = None) -> tuple[QlstmParams, np.ndarray]:
    """`neural.backprop_sequence` of the quantum cell."""
    return backprop_sequence(partial(_qlstm_step_back, counter=counter), params, caches,
                             upstream, params.d_x)
