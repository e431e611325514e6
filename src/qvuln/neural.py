"""Classical numerics: LSTM cell with exact backpropagation through time,
binary cross-entropy on the logit, and the Adam optimizer over named
parameter trees.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def sigmoid(x: np.ndarray | float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class LstmParams:
    """Gate weight matrices (hidden x (hidden + d_in)), gate biases, and the
    single-logit classification head."""

    w_f: np.ndarray
    w_i: np.ndarray
    w_c: np.ndarray
    w_o: np.ndarray
    b_f: np.ndarray
    b_i: np.ndarray
    b_c: np.ndarray
    b_o: np.ndarray
    head_w: np.ndarray  # (hidden,)
    head_b: np.ndarray  # ()

    @property
    def hidden(self) -> int:
        return self.w_f.shape[0]

    @property
    def d_in(self) -> int:
        return self.w_f.shape[1] - self.w_f.shape[0]

    def tree(self, prefix: str = "") -> dict[str, np.ndarray]:
        return {
            prefix + "w_f": self.w_f,
            prefix + "w_i": self.w_i,
            prefix + "w_c": self.w_c,
            prefix + "w_o": self.w_o,
            prefix + "b_f": self.b_f,
            prefix + "b_i": self.b_i,
            prefix + "b_c": self.b_c,
            prefix + "b_o": self.b_o,
            prefix + "head_w": self.head_w,
            prefix + "head_b": self.head_b,
        }


@dataclass
class LstmState:
    h: np.ndarray
    c: np.ndarray


def init_lstm_params(hidden: int, d_in: int, rng: np.random.Generator) -> LstmParams:
    """Uniform(-k, k) gate weights with k = 1/sqrt(hidden + d_in); forget-gate
    bias starts at 1 to ease early gradient flow, other biases at zero."""
    k = 1.0 / np.sqrt(hidden + d_in)
    shape = (hidden, hidden + d_in)
    return LstmParams(
        w_f=rng.uniform(-k, k, size=shape),
        w_i=rng.uniform(-k, k, size=shape),
        w_c=rng.uniform(-k, k, size=shape),
        w_o=rng.uniform(-k, k, size=shape),
        b_f=np.ones(hidden),
        b_i=np.zeros(hidden),
        b_c=np.zeros(hidden),
        b_o=np.zeros(hidden),
        head_w=rng.uniform(-k, k, size=hidden),
        head_b=np.array(0.0),
    )


def zeros_like_lstm(params: LstmParams) -> LstmParams:
    return LstmParams(**{k: np.zeros_like(v) for k, v in vars(params).items()})


@dataclass
class LstmStepCache:
    v: np.ndarray  # concat(h_prev, x_t)
    f: np.ndarray
    i: np.ndarray
    g: np.ndarray  # candidate tanh layer
    o: np.ndarray
    c: np.ndarray
    c_prev: np.ndarray


def lstm_cell_step(
    params: LstmParams, x_t: np.ndarray, prev: LstmState
) -> tuple[LstmState, LstmStepCache]:
    """One recurrence step: forget/input/candidate/output gates over
    v = concat(h_prev, x_t), then the cell and hidden updates."""
    x_t = np.asarray(x_t, dtype=float)
    if x_t.shape != (params.d_in,):
        raise ValueError(f"x_t shape {x_t.shape} does not match d_in {params.d_in}")
    v = np.concatenate([prev.h, x_t])
    f = sigmoid(params.w_f @ v + params.b_f)
    i = sigmoid(params.w_i @ v + params.b_i)
    g = np.tanh(params.w_c @ v + params.b_c)
    c = prev.c * f + g * i
    o = sigmoid(params.w_o @ v + params.b_o)
    h = o * np.tanh(c)
    return LstmState(h=h, c=c), LstmStepCache(v=v, f=f, i=i, g=g, o=o, c=c, c_prev=prev.c)


@dataclass
class LstmCaches:
    steps: list[LstmStepCache]
    h_final: np.ndarray


def lstm_forward(params: LstmParams, sequence: list[np.ndarray]) -> tuple[float, LstmCaches]:
    """Run the cell from the zero state over the sequence; the classification
    logit is the linear head over the final hidden state."""
    if len(sequence) == 0:
        raise ValueError("sequence must be non-empty")
    state = LstmState(h=np.zeros(params.hidden), c=np.zeros(params.hidden))
    steps = []
    for x_t in sequence:
        state, cache = lstm_cell_step(params, x_t, state)
        steps.append(cache)
    logit = float(params.head_w @ state.h + params.head_b)
    return logit, LstmCaches(steps=steps, h_final=state.h)


def lstm_backward(
    params: LstmParams, caches: LstmCaches, upstream: float
) -> tuple[LstmParams, np.ndarray]:
    """Exact reverse-mode gradients of upstream * logit.

    Returns parameter gradients and a (T, d_in) array of gradients w.r.t.
    each input vector (used to train embeddings).
    """
    hidden = params.hidden
    grads = zeros_like_lstm(params)
    grads.head_w += upstream * caches.h_final
    grads.head_b += upstream
    dh = upstream * params.head_w
    dc = np.zeros(hidden)
    dx = np.zeros((len(caches.steps), params.d_in))
    for t in range(len(caches.steps) - 1, -1, -1):
        s = caches.steps[t]
        tc = np.tanh(s.c)
        do = dh * tc
        dc = dc + dh * s.o * (1.0 - tc * tc)
        df = dc * s.c_prev
        di = dc * s.g
        dg = dc * s.i
        dc_prev = dc * s.f
        pre_f = df * s.f * (1.0 - s.f)
        pre_i = di * s.i * (1.0 - s.i)
        pre_g = dg * (1.0 - s.g * s.g)
        pre_o = do * s.o * (1.0 - s.o)
        grads.w_f += np.outer(pre_f, s.v)
        grads.w_i += np.outer(pre_i, s.v)
        grads.w_c += np.outer(pre_g, s.v)
        grads.w_o += np.outer(pre_o, s.v)
        grads.b_f += pre_f
        grads.b_i += pre_i
        grads.b_c += pre_g
        grads.b_o += pre_o
        dv = params.w_f.T @ pre_f + params.w_i.T @ pre_i + params.w_c.T @ pre_g + params.w_o.T @ pre_o
        dh = dv[:hidden]
        dx[t] = dv[hidden:]
        dc = dc_prev
    return grads, dx


def bce_from_logit(logit: float, target: float) -> tuple[float, float]:
    """Numerically stable binary cross-entropy on the logit; returns
    (value, dValue/dlogit)."""
    z = float(logit)
    value = max(z, 0.0) - z * target + np.log1p(np.exp(-abs(z)))
    dlogit = float(sigmoid(z)) - target
    return float(value), dlogit


@dataclass
class OptimizerState:
    """Adam moments keyed by parameter name, plus the step counter."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    opt: OptimizerState, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]
) -> tuple[dict[str, np.ndarray], OptimizerState]:
    """Bias-corrected Adam update, applied in place in sorted-name order."""
    opt.step += 1
    t = opt.step
    for name in sorted(params):
        p = params[name]
        g = grads[name]
        if np.shape(g) != p.shape:
            raise ValueError(f"gradient shape {np.shape(g)} != param shape {p.shape} for {name!r}")
        if name not in opt.m:
            opt.m[name] = np.zeros_like(p)
            opt.v[name] = np.zeros_like(p)
        m = opt.m[name]
        v = opt.v[name]
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * (g * g)
        m_hat = m / (1.0 - opt.beta1**t)
        v_hat = v / (1.0 - opt.beta2**t)
        p -= opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)
    return params, opt
