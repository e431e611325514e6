"""Reference LSTM: the four-product step and step back that the stacked
gate product of `qvuln.neural` replaced, kept as the oracle it is checked
against.  It shares no code with the package under test: it reads the
gate arrays of an `LstmParams` by name and keeps its own sigmoid, cell
algebra and time loops.  Parameters and gradients are dicts keyed by the
checkpoint names (`w_f`, ..., `head_b`)."""
from __future__ import annotations

import numpy as np

GATES = ("f", "i", "c", "o")


def masked_sigmoid(x) -> np.ndarray:
    """The sigmoid as two masked branches: 1 / (1 + e^-x) where x >= 0 and
    e^x / (1 + e^x) elsewhere."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def step(p: dict[str, np.ndarray], x_t: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray):
    """One step, one product per gate; returns h, c and the step's cache."""
    h_prev = np.broadcast_to(h_prev, x_t.shape[:-1] + h_prev.shape[-1:])
    v = np.concatenate([h_prev, x_t], axis=-1)
    f = masked_sigmoid(v @ p["w_f"].T + p["b_f"])
    i = masked_sigmoid(v @ p["w_i"].T + p["b_i"])
    g = np.tanh(v @ p["w_c"].T + p["b_c"])
    c = f * c_prev + i * g
    o = masked_sigmoid(v @ p["w_o"].T + p["b_o"])
    tanh_c = np.tanh(c)
    h = o * tanh_c
    return h, c, dict(v=v, f=f, i=i, g=g, o=o, c_prev=c_prev, tanh_c=tanh_c)


def step_back(p, grads, s, d_out, dc):
    """Back through one step given dL/dh and dL/dc from the later step: adds
    the step's gradients to `grads`, one product per gate, and returns
    dL/dv and dL/dc_prev."""
    dc = dc + d_out * s["o"] * (1.0 - s["tanh_c"] ** 2)
    pre = {
        "f": dc * s["c_prev"] * s["f"] * (1.0 - s["f"]),
        "i": dc * s["g"] * s["i"] * (1.0 - s["i"]),
        "c": dc * s["i"] * (1.0 - s["g"] ** 2),
        "o": d_out * s["tanh_c"] * s["o"] * (1.0 - s["o"]),
    }
    v_rows = s["v"].reshape(-1, s["v"].shape[-1])
    dv = 0.0
    for gate in GATES:
        pre_rows = pre[gate].reshape(-1, pre[gate].shape[-1])
        grads["w_" + gate] += pre_rows.T @ v_rows
        grads["b_" + gate] += pre_rows.sum(axis=0)
        dv = dv + pre[gate] @ p["w_" + gate]
    return dv, dc * s["f"]


def forward(p: dict[str, np.ndarray], xs: np.ndarray):
    """Logit(s) and step caches over a (T, d_in) or (B, T, d_in) sequence
    from the zero state."""
    hidden = p["head_w"].shape[0]
    h = c = np.zeros(hidden)
    caches = []
    for t in range(xs.shape[-2]):
        h, c, cache = step(p, xs[..., t, :], h, c)
        caches.append(cache)
    return h @ p["head_w"] + p["head_b"], caches, h


def backward(p: dict[str, np.ndarray], xs: np.ndarray, upstream):
    """Gradients of the sum of upstream * logit, summed over the batch, and
    the input gradients."""
    _, caches, h_last = forward(p, xs)
    upstream = np.asarray(upstream, dtype=float)
    grads = {name: np.zeros_like(arr) for name, arr in p.items()}
    grads["head_w"] += np.dot(upstream, h_last)
    grads["head_b"] += np.sum(upstream)
    d_in = xs.shape[-1]
    dh = upstream[..., None] * p["head_w"]
    dc = np.zeros_like(dh)
    dx = np.zeros(xs.shape)
    for t in range(len(caches) - 1, -1, -1):
        dv, dc = step_back(p, grads, caches[t], dh, dc)
        dh, dx[..., t, :] = dv[..., :-d_in], dv[..., -d_in:]
    return grads, dx
