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
for one sample or (B, T, d_x) for B samples.  A forward makes one readout
`vqc_forward` call per block and time step for the whole batch and counts
6T evaluations per sample, whether or not it keeps its caches, which
record the forward only.  One rule, `_differentiated`, names the blocks
whose gradient a step needs, by the step's place alone: the sequence's
structure makes the others' gradient zero.  The backward forms and counts
those blocks' 65 gradient rows per sample from the inputs v_t and r_t that
the step caches hold, a window of steps at a time (`_backward_steps`): a
block's angles are the same at every step, so the rows of the
`ROWS_PER_PRODUCT // B` steps that end at the step the loop has reached
share one `vqc_rows` product per block, each step gets views of its own,
and the window's rows are dropped as the loop leaves it.  So the rows
alive at a time are one window's, however long the sequence.  It then
makes one `vqc_gradients` call per such block and step, which only
contracts the rows into the block's views of the gradient vector.  So B
samples over T steps cost B * 6T evaluations forward and B * 65 (5T - 1)
backward, whatever the data.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .neural import (
    CellCache, CellState, ParamTree, SequenceCaches, backprop_sequence, cell_backward,
    cell_input, laid_out, run_sequence, sigmoid,
)
from .vqc import (
    EvalCounter, GradientRows, VqcParams, init_vqc_params, vqc_forward, vqc_gradients, vqc_rows,
)

HIDDEN = 4
# the most rows one `vqc_rows` call of a backward forms: a window holds
# ROWS_PER_PRODUCT // B steps of a B-sample batch, at least one;
# per-sample cost falls with rows up to about this size, and a backward's
# live rows are one window's, so its memory does not grow with T
ROWS_PER_PRODUCT = 128


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
    # drawn in order: vqc1-4 read v_t, vqc5-6 read o * tanh(c), then the head
    blocks = [init_vqc_params(HIDDEN + d_x if j < 4 else HIDDEN, rng) for j in range(6)]
    return laid_out(QlstmParams(*blocks, head_w=rng.uniform(-k, k, size=HIDDEN),
                                head_b=np.array(0.0), sigma_hidden=sigma_hidden))


def initial_state() -> CellState:
    """h starts at the sigmoid image of zero, c and y at zero."""
    return CellState(h=np.full(HIDDEN, 0.5), c=np.zeros(HIDDEN), y=np.zeros(HIDDEN))


def _differentiated(first: bool, last: bool) -> tuple[str, ...]:
    """The blocks whose gradient a step's backward needs, by the step's
    place alone: vqc6 at the last step (only the head reads y), vqc5 before
    it, vqc2-4 always, and vqc1 but at the first step, where c_prev = 0
    makes the forget gate's gradient exactly zero."""
    return (("vqc6",) if last else ("vqc5",)) + (() if first else ("vqc1",)) + (
        "vqc2", "vqc3", "vqc4")


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
    """One recurrence step; six circuit readouts per sample.  x_t is (d_x,)
    or (B, d_x); the arrays of prev broadcast against it."""
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


def _window_rows(params: QlstmParams, steps: list[QlstmStepCache], window: range,
                 counter: EvalCounter | None) -> dict[int, dict[str, GradientRows]]:
    """The shift rows of every `_differentiated` block of each step in
    `window`.  Per block, the inputs of the window's steps that need its
    rows are stacked into one `vqc_rows` call; each step gets views of its
    own rows, with the same bits at any product size."""
    T = len(steps)
    n = steps[0].r.size // HIDDEN  # a step's rows: B, or 1 for one sample
    rows = {t: {} for t in window}
    for name in ("vqc1", "vqc2", "vqc3", "vqc4", "vqc5", "vqc6"):
        need = [t for t in window if name in _differentiated(t == 0, t == T - 1)]
        if need:
            x = np.concatenate([(steps[t].r if name in ("vqc5", "vqc6") else steps[t].v)
                                .reshape(n, -1) for t in need])
            formed = vqc_rows(getattr(params, name), x, counter)
            for k, t in enumerate(need):
                rows[t][name] = formed.samples(k * n, (k + 1) * n)
    return rows


def _backward_steps(params: QlstmParams, caches: SequenceCaches, counter: EvalCounter | None):
    """The pair (cache, rows) of each step, last to first, as
    `backprop_sequence` uses them.  The rows are formed a window at a time:
    the ROWS_PER_PRODUCT // B steps (at least one) that end at the step the
    loop has reached, windows counted from the last step, so the first
    window may be partial.  A window's rows are dropped as the loop leaves
    its steps, so one window's rows are alive at a time."""
    steps = caches.steps
    per = max(1, ROWS_PER_PRODUCT // (steps[0].r.size // HIDDEN))
    for stop in range(len(steps), 0, -per):
        window = range(max(0, stop - per), stop)
        rows = _window_rows(params, steps, window, counter)
        for t in reversed(window):
            yield steps[t], rows.pop(t)


def qlstm_forward(params: QlstmParams, sequence, counter: EvalCounter | None = None, *,
                  keep_caches: bool = True) -> tuple[float | np.ndarray, SequenceCaches | None]:
    """`neural.run_sequence` of the quantum cell from `initial_state()`,
    with d = d_x; the sigmoid of the logit is the caller's."""
    return run_sequence(partial(qlstm_cell_step, counter=counter), params, sequence,
                        initial_state(), keep_caches)


def _qlstm_step_back(params: QlstmParams, grads: QlstmParams, step, d_out, dc
                     ) -> tuple[np.ndarray, np.ndarray]:
    """One step of `qlstm_backward`, given the pair `step` of the step's
    cache and its rows: the circuit gradients of the blocks its rows name,
    the step's `_differentiated` blocks, contracted from the rows and
    chained through the gate algebra."""
    s, rows = step

    def grad(name: str, x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
        """Add one block's gradient into its views in `grads`; returns dL/dx."""
        return vqc_gradients(getattr(params, name), x, upstream, rows=rows[name],
                             into=getattr(grads, name))[1]

    if "vqc6" in rows:
        dr = grad("vqc6", s.r, d_out)
    else:
        dr = grad("vqc5", s.r, d_out * s.h * (1.0 - s.h) if params.sigma_hidden else d_out)
    pre_f, pre_i, pre_g, pre_o, dc = cell_backward(s, dr, dc)
    dvs = [grad(name, s.v, pre) for name, pre in
           (("vqc1", pre_f), ("vqc2", pre_i), ("vqc3", pre_g), ("vqc4", pre_o)) if name in rows]
    return sum(dvs[1:], start=dvs[0]), dc


def qlstm_backward(params: QlstmParams, caches: SequenceCaches, upstream: float | np.ndarray,
                   counter: EvalCounter | None = None) -> tuple[QlstmParams, np.ndarray]:
    """`neural.backprop_sequence` of the quantum cell over `_backward_steps`.
    It forms the rows it contracts, 65 per sample and block gradient,
    counted on `counter`, and pairs each step's cache with its rows, so the
    forward's caches stay as they were."""
    # the generator reads `caches` only when the loop starts, so a missing
    # `caches` is backprop_sequence's error to raise
    return backprop_sequence(_qlstm_step_back, params, caches,
                             _backward_steps(params, caches, counter), upstream, params.d_x)
