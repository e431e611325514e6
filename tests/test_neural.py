"""Classical LSTM cell, losses, and optimizer: closed-form examples plus
finite-difference verification of the exact backward pass."""
from __future__ import annotations

import gc
import itertools
import math
import tracemalloc
import warnings
import weakref

import lstm_oracle
import numpy as np
import pytest

from qvuln.neural import (
    CellState,
    LstmParams,
    OptimizerState,
    _gate_kernel,
    adam_step,
    bce_from_logit,
    init_lstm_params,
    laid_out,
    lstm_backward,
    lstm_cell_step,
    lstm_forward,
    sigmoid,
)
from qvuln.qlstm import init_qlstm_params, qlstm_backward, qlstm_forward

FD_STEP = 1e-5


def zero_params(hidden: int, d_in: int) -> LstmParams:
    params = init_lstm_params(hidden, d_in, np.random.default_rng(0))
    for arr in params.tree().values():
        arr[...] = 0.0
    return params


def zero_state(hidden: int) -> CellState:
    """The LSTM's zero state, whose y is its h."""
    zero = np.zeros(hidden)
    return CellState(h=zero, c=zero, y=zero)


def cell_step(params: LstmParams, x_t: np.ndarray, prev: CellState):
    """`lstm_cell_step` reading the gate kernel that `lstm_forward` builds."""
    return lstm_cell_step(params, x_t, prev, _gate_kernel(params, x_t.shape[:-1]))


def scalar_loss(params: LstmParams, sequence: list[np.ndarray], target: float) -> float:
    logit, _ = lstm_forward(params, sequence)
    value, _ = bce_from_logit(logit, target)
    return value


class TestCellStep:
    def test_zero_params_zero_state(self):
        params = zero_params(3, 2)
        state, cache = cell_step(params, np.zeros(2), zero_state(3))
        np.testing.assert_array_equal(cache.f, 0.5 * np.ones(3))
        np.testing.assert_array_equal(cache.i, 0.5 * np.ones(3))
        np.testing.assert_array_equal(cache.o, 0.5 * np.ones(3))
        np.testing.assert_array_equal(cache.g, np.zeros(3))
        np.testing.assert_array_equal(state.c, np.zeros(3))
        np.testing.assert_array_equal(state.h, np.zeros(3))
        assert state.y is state.h

    def test_zero_params_unit_cell(self):
        params = zero_params(2, 2)
        prev = CellState(h=np.zeros(2), c=np.ones(2), y=np.zeros(2))
        state, _ = cell_step(params, np.ones(2), prev)
        np.testing.assert_allclose(state.c, 0.5 * np.ones(2), atol=1e-15)
        np.testing.assert_allclose(state.h, 0.23105857863000487 * np.ones(2), atol=1e-15)

    def test_hand_checked_unit_example(self):
        # hidden 1, every gate weight [1, 1], x = (1), zero previous state:
        # all gates see v = (0, 1), so f = i = o = sigma(1), candidate tanh(1)
        params = zero_params(1, 1)
        for name in ("w_f", "w_i", "w_c", "w_o"):
            params.tree()[name][...] = 1.0
        state, _ = cell_step(params, np.array([1.0]), zero_state(1))
        s1 = 1.0 / (1.0 + math.exp(-1.0))
        c = s1 * math.tanh(1.0)
        h = s1 * math.tanh(c)
        assert abs(float(state.c[0]) - 0.5567699411459397) < 1e-15
        assert abs(float(state.c[0]) - c) < 1e-15
        assert abs(float(state.h[0]) - 0.36960635293570576) < 1e-15
        assert abs(float(state.h[0]) - h) < 1e-15

    def test_dimension_mismatch(self):
        params = zero_params(2, 3)
        with pytest.raises(ValueError):
            cell_step(params, np.zeros(2), zero_state(2))

    def test_h_strictly_bounded(self):
        rng = np.random.default_rng(14)
        params = init_lstm_params(4, 3, rng)
        state = zero_state(4)
        for _ in range(50):
            state, _ = cell_step(params, rng.uniform(-5, 5, size=3), state)
            assert np.all(np.abs(state.h) < 1.0)


class TestForward:
    def test_zero_params_probability_half(self):
        params = zero_params(3, 2)
        logit, _ = lstm_forward(params, [np.ones(2), np.zeros(2)])
        assert logit == 0.0
        assert float(sigmoid(logit)) == 0.5

    def test_single_step_composition(self):
        rng = np.random.default_rng(3)
        params = init_lstm_params(3, 2, rng)
        x = rng.uniform(-1, 1, size=2)
        state, _ = cell_step(params, x, zero_state(3))
        logit, caches = lstm_forward(params, [x])
        assert len(caches.steps) == 1
        assert abs(logit - float(params.head_w @ state.h + params.head_b)) < 1e-15

    def test_padding_tail_changes_output(self):
        rng = np.random.default_rng(6)
        params = init_lstm_params(3, 2, rng)
        seq = [rng.uniform(-1, 1, size=2) for _ in range(3)]
        bare, _ = lstm_forward(params, seq)
        padded, _ = lstm_forward(params, seq + [np.zeros(2), np.zeros(2)])
        assert bare != padded

    def test_empty_sequence_error(self):
        with pytest.raises(ValueError):
            lstm_forward(zero_params(2, 2), [])


class TestBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(4)
        params = init_lstm_params(3, 2, rng)
        _, caches = lstm_forward(params, [rng.uniform(-1, 1, size=2) for _ in range(3)])
        grads, dx = lstm_backward(params, caches, 0.0)
        for arr in grads.tree().values():
            assert np.all(arr == 0)
        assert np.all(dx == 0)

    def test_head_bias_gradient_is_upstream(self):
        rng = np.random.default_rng(5)
        params = init_lstm_params(3, 2, rng)
        _, caches = lstm_forward(params, [rng.uniform(-1, 1, size=2) for _ in range(2)])
        grads, _ = lstm_backward(params, caches, 0.37)
        assert float(grads.head_b) == 0.37

    @pytest.mark.parametrize("steps", [1, 2, 3, 4])
    def test_matches_finite_differences(self, steps):
        rng = np.random.default_rng(100 + steps)
        params = init_lstm_params(3, 2, rng)
        sequence = [rng.uniform(-1, 1, size=2) for _ in range(steps)]
        target = 1.0

        logit, caches = lstm_forward(params, sequence)
        _, dlogit = bce_from_logit(logit, target)
        grads, dx = lstm_backward(params, caches, dlogit)

        for name, arr in params.tree().items():
            analytic = grads.tree()[name]
            flat = arr.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + FD_STEP
                hi = scalar_loss(params, sequence, target)
                flat[j] = orig - FD_STEP
                lo = scalar_loss(params, sequence, target)
                flat[j] = orig
                fd = (hi - lo) / (2 * FD_STEP)
                an = float(analytic.reshape(-1)[j])
                assert abs(an - fd) <= 1e-9 + 1e-6 * max(abs(fd), abs(an)), name

        for t in range(steps):
            for j in range(2):
                orig = sequence[t][j]
                sequence[t][j] = orig + FD_STEP
                hi = scalar_loss(params, sequence, target)
                sequence[t][j] = orig - FD_STEP
                lo = scalar_loss(params, sequence, target)
                sequence[t][j] = orig
                fd = (hi - lo) / (2 * FD_STEP)
                an = float(dx[t, j])
                assert abs(an - fd) <= 1e-9 + 1e-6 * max(abs(fd), abs(an))


class TestLoss:
    def test_bce_from_logit_matches_probability_form(self):
        for logit in (-3.0, -0.5, 0.0, 0.5, 3.0):
            p = float(sigmoid(logit))
            for y in (0.0, 1.0):
                value, dlogit = bce_from_logit(logit, y)
                ref = -(y * math.log(p) + (1.0 - y) * math.log(1.0 - p))
                assert abs(value - ref) < 1e-12
                assert abs(dlogit - (p - y)) < 1e-15

    def test_bce_from_logit_stable_at_extremes(self):
        value, _ = bce_from_logit(800.0, 1.0)
        assert value == 0.0
        value, _ = bce_from_logit(-800.0, 0.0)
        assert value == 0.0
        value, _ = bce_from_logit(800.0, 0.0)
        assert value == 800.0


def per_leaf_adam(state: dict, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                  lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """The per-array Adam step that the one-vector `adam_step` replaced, kept
    as its reference: moments per name, set up on first use, updated in
    sorted-name order, each array through fresh temporaries."""
    state["step"] = t = state.get("step", 0) + 1
    for name in sorted(params):
        p, g = params[name], grads[name]
        if name not in state:
            state[name] = (np.zeros_like(p), np.zeros_like(p))
        m, v = state[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


class TestAdam:
    def test_zero_gradients_only_advance_step(self):
        theta = np.array([1.0, 2.0, 3.0])
        opt = OptimizerState(3, lr=0.1)
        adam_step(opt, theta, np.zeros(3))
        assert opt.step == 1
        np.testing.assert_array_equal(theta, [1.0, 2.0, 3.0])

    def test_scalar_hand_formula(self):
        # m_hat = g, v_hat = g^2, update = lr * g / (|g| + eps) for step one
        theta = np.array([2.0])
        adam_step(OptimizerState(1, lr=0.1), theta, np.array([1.0]))
        assert abs(float(theta[0]) - 1.900000001) < 1e-12

    def test_equal_gradients_equal_updates(self):
        theta = np.array([1.0, 1.0])
        adam_step(OptimizerState(2, lr=0.05), theta, np.array([0.3, 0.3]))
        assert theta[0] == theta[1]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            adam_step(OptimizerState(2, lr=0.1), np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("init", [
        lambda rng: init_lstm_params(50, 50, rng),
        lambda rng: init_qlstm_params(50, rng),
    ], ids=["lstm", "qlstm"])
    def test_vector_update_has_the_per_leaf_bits(self, init):
        # gate-5 sizes: hidden 50 and 50-wide inputs from a trainable 202-row
        # table, which theta holds after the model, as training lays it out
        rng = np.random.default_rng(31)
        params = init(rng)
        table = rng.uniform(-1, 1, size=(202, 50))
        n = params.vector.size
        theta = np.concatenate([params.vector, table.ravel()])
        params = laid_out(params, theta[:n])
        named = {**params.tree(), "embedding.rows": theta[n:].reshape(table.shape)}
        want = {name: arr.copy() for name, arr in named.items()}
        opt, state = OptimizerState(theta.size, lr=1e-3), {}
        for _ in range(5):
            # magnitudes from 1e-8 to 1e8, so another rounding shows in the bits
            grad = rng.normal(size=theta.size) * 10.0 ** rng.uniform(-8, 8, size=theta.size)
            grads = {**laid_out(params, grad[:n]).tree(),
                     "embedding.rows": grad[n:].reshape(table.shape)}
            per_leaf_adam(state, want, grads, lr=1e-3)
            adam_step(opt, theta, grad)
        assert opt.step == 5
        for name, arr in named.items():
            assert arr.tobytes() == want[name].tobytes(), name


class TestInit:
    def test_ranges_and_forget_bias(self):
        params = init_lstm_params(5, 3, np.random.default_rng(21))
        k = 1.0 / math.sqrt(5 + 3)
        tree = params.tree()
        for name in ("w_f", "w_i", "w_c", "w_o"):
            arr = tree[name]
            assert arr.shape == (5, 8)
            assert np.all(np.abs(arr) <= k)
        np.testing.assert_array_equal(tree["b_f"], np.ones(5))
        for name in ("b_i", "b_c", "b_o"):
            assert np.all(tree[name] == 0)
        assert params.head_w.shape == (5,)
        assert float(params.head_b) == 0.0
        assert params.hidden == 5
        assert params.d_in == 3

    def test_tree_names(self):
        # checkpoints store the arrays under these names, in this order
        params = init_lstm_params(3, 2, np.random.default_rng(2))
        assert list(params.tree()) == [
            "w_f", "w_i", "w_c", "w_o", "b_f", "b_i", "b_c", "b_o", "head_w", "head_b",
        ]

    def test_draws_gate_by_gate_in_checkpoint_order(self):
        # the stacked layout keeps the per-gate draws, so a seed gives the
        # same parameters as it did when each gate was its own array
        params = init_lstm_params(3, 2, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        k = 1.0 / math.sqrt(3 + 2)
        tree = params.tree()
        for name in ("w_f", "w_i", "w_c", "w_o"):
            assert tree[name].tobytes() == rng.uniform(-k, k, size=(3, 5)).tobytes(), name
        assert tree["head_w"].tobytes() == rng.uniform(-k, k, size=3).tobytes()

    @pytest.mark.parametrize("init", [
        lambda rng: init_lstm_params(3, 2, rng),
        lambda rng: init_qlstm_params(2, rng),
    ], ids=["lstm", "qlstm"])
    def test_tree_entries_are_flat_writable_views(self, init):
        # checkpoint loading writes into the entries in place, and a flat
        # write through reshape(-1) of an entry must reach it too
        params = init(np.random.default_rng(4))
        for name, arr in params.tree().items():
            assert arr.flags.c_contiguous, name
            flat = arr.reshape(-1)
            assert np.shares_memory(flat, arr), name
            flat[:] = np.arange(flat.size) + 0.5
        for name, arr in params.tree().items():
            np.testing.assert_array_equal(arr.reshape(-1), np.arange(arr.size) + 0.5, err_msg=name)

    def test_zeros_like(self):
        # a zero gradient: the model's layout on a zero vector
        params = init_lstm_params(3, 2, np.random.default_rng(2))
        zeros = laid_out(params, np.zeros(params.vector.size))
        for name, arr in zeros.tree().items():
            assert np.all(arr == 0)
            assert arr.shape == params.tree()[name].shape
            assert np.shares_memory(arr, zeros.vector), name


def positions(arr: np.ndarray, vector: np.ndarray) -> slice:
    """The slice of `vector` that the C-contiguous view `arr` covers."""
    start = arr.__array_interface__["data"][0] - vector.__array_interface__["data"][0]
    assert start % vector.itemsize == 0
    start //= vector.itemsize
    return slice(start, start + arr.size)


def assert_covers_once(params) -> None:
    """Every array of `params.tree()` is a C-contiguous view of its float64
    vector, and together they cover the vector once, with no gap and no
    overlap."""
    vector = params.vector
    assert vector.dtype == np.float64 and vector.ndim == 1 and vector.flags.c_contiguous
    covered = np.zeros(vector.size, dtype=int)
    for name, arr in params.tree().items():
        assert arr.flags.c_contiguous and np.shares_memory(arr, vector), name
        covered[positions(arr, vector)] += 1
    np.testing.assert_array_equal(covered, 1)


LAYOUT_MODELS = {
    # hidden != d_in, so that a transposed gate block would not fit
    "lstm": (lambda rng: init_lstm_params(5, 3, rng), lstm_forward, lstm_backward),
    "qlstm": (lambda rng: init_qlstm_params(3, rng, sigma_hidden=False), qlstm_forward,
              qlstm_backward),
}


@pytest.mark.parametrize("model", LAYOUT_MODELS)
class TestLayout:
    def test_parameters_and_gradient_cover_their_vector_once(self, model):
        init, forward, backward = LAYOUT_MODELS[model]
        rng = np.random.default_rng(12)
        params = init(rng)
        assert_covers_once(params)
        # the nested blocks and the stacked gates are views too
        for arr in [params.w, params.b] if model == "lstm" else [params.vqc1.angles,
                                                                  params.vqc6.in_proj]:
            assert np.shares_memory(arr, params.vector)
        _, caches = forward(params, rng.uniform(-1, 1, size=(2, 3, 3)))
        grads, _ = backward(params, caches, np.array([0.4, -0.7]))
        assert_covers_once(grads)
        assert grads.vector.size == params.vector.size
        assert not np.shares_memory(grads.vector, params.vector)

    def test_writes_through_the_tree_reach_the_vector(self, model):
        params = LAYOUT_MODELS[model][0](np.random.default_rng(13))
        for arr in params.tree().values():
            at = positions(arr, params.vector)
            arr[...] = np.arange(at.start, at.stop).reshape(arr.shape)
        np.testing.assert_array_equal(params.vector, np.arange(params.vector.size))

    def test_a_vector_dies_with_its_last_view(self, model):
        # a gradient vector is freed by reference counting once its layout
        # is dropped, not held by a cycle until the garbage collector runs
        params = LAYOUT_MODELS[model][0](np.random.default_rng(15))
        gc.disable()
        try:
            for given in (True, False):
                grads = laid_out(params, np.zeros(params.vector.size) if given else None)
                ref = weakref.ref(grads.vector)
                del grads
                assert ref() is None, given
        finally:
            gc.enable()

    def test_a_given_vector_is_viewed_as_it_stands(self, model):
        # the trainer lays a model onto the head of theta, ahead of the table
        params = LAYOUT_MODELS[model][0](np.random.default_rng(14))
        n = params.vector.size
        theta = np.concatenate([params.vector, np.full(7, 9.0)])
        moved = laid_out(params, theta[:n])
        assert_covers_once(moved)
        assert moved.vector.size == n and np.shares_memory(moved.vector, theta)
        for name, arr in moved.tree().items():
            assert np.shares_memory(arr, theta), name
            assert arr.tobytes() == params.tree()[name].tobytes(), name
        if model == "qlstm":
            assert moved.sigma_hidden is False
        for size in (n - 1, n + 1):
            with pytest.raises(ValueError):
                laid_out(params, np.zeros(size))


class TestBatch:
    def test_batch_matches_samples(self):
        batch, steps, hidden, d_in = 5, 3, 4, 2
        rng = np.random.default_rng(62)
        params = init_lstm_params(hidden, d_in, rng)
        xs = rng.uniform(-1, 1, size=(batch, steps, d_in))
        upstream = rng.uniform(-1, 1, size=batch)

        logits, caches = lstm_forward(params, xs)
        grads, dx = lstm_backward(params, caches, upstream)
        assert logits.shape == (batch,) and dx.shape == (batch, steps, d_in)

        summed = {name: np.zeros_like(arr) for name, arr in grads.tree().items()}
        for b in range(batch):
            logit, sample_caches = lstm_forward(params, xs[b])
            assert abs(logits[b] - logit) < 1e-13
            sample_grads, sample_dx = lstm_backward(params, sample_caches, upstream[b])
            np.testing.assert_allclose(dx[b], sample_dx, rtol=0, atol=1e-13)
            for name, arr in sample_grads.tree().items():
                summed[name] += arr
        for name, arr in grads.tree().items():
            np.testing.assert_allclose(arr, summed[name], rtol=0, atol=1e-13, err_msg=name)

    def test_cache_free_forward_matches(self):
        rng = np.random.default_rng(63)
        params = init_lstm_params(4, 2, rng)
        xs = rng.uniform(-1, 1, size=(5, 3, 2))
        for sequence in (xs, xs[0]):
            logits, _ = lstm_forward(params, sequence)
            bare, caches = lstm_forward(params, sequence, keep_caches=False)
            assert caches is None
            assert np.array_equal(bare, logits)
        with pytest.raises(ValueError, match="keep_caches"):
            lstm_backward(params, caches, 1.0)

    def test_cache_free_chunk_of_64_peaks_below_cached_chunk_of_16(self):
        # the sizes of the classification workload: hidden 50, d_in 54, T 24
        rng = np.random.default_rng(64)
        params = init_lstm_params(50, 54, rng)
        xs = rng.uniform(-1, 1, size=(64, 24, 54))

        def peak(run) -> int:
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        cache_free = peak(lambda: lstm_forward(params, xs, keep_caches=False))
        cached = peak(lambda: lstm_forward(params, xs[:16]))
        assert cache_free < cached, (cache_free, cached)

    def test_bce_on_arrays_matches_floats(self):
        logits = np.array([-30.0, -1.5, 0.0, 2.0, 40.0])
        targets = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        values, dlogits = bce_from_logit(logits, targets)
        for k in range(logits.size):
            assert (values[k], dlogits[k]) == bce_from_logit(float(logits[k]), float(targets[k]))


class TestSigmoid:
    EDGES = [0.0, 1e-300, 36.0, 745.0, 800.0, 1e308, np.inf]

    @pytest.mark.parametrize("x", [
        np.array(EDGES + [-e for e in EDGES] + [np.nan, -np.nan]),
        np.array(-745.0),
        np.random.default_rng(70).normal(scale=8.0, size=(16, 150)),
    ], ids=["edges", "0-d", "gate-block"])
    def test_bits_equal_the_masked_formula(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sigmoid(x)
            want = lstm_oracle.masked_sigmoid(x)
        assert isinstance(got, np.ndarray)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestGateKernel:
    """One tanh over the gate-major block gives all four gates: the f, i and
    o pre-activations are halved and sigmoid(x) = 1/2 + tanh(x/2)/2."""

    EDGES = np.array([0.0, 36.0, 745.0, 800.0, 1e308, np.inf, np.nan])
    PRE = np.concatenate([EDGES, -EDGES])

    def edge_params(self) -> LstmParams:
        # zero weights, so each gate's pre-activation is its bias
        params = zero_params(self.PRE.size, 2)
        tree = params.tree()
        for k, gate in enumerate("fico"):
            tree["b_" + gate][...] = np.roll(self.PRE, 3 * k)
        return params

    @pytest.mark.parametrize("batch", [None, 3])
    def test_gates_at_the_edges_match_sigmoid_and_tanh(self, batch):
        params = self.edge_params()
        x = np.ones(2) if batch is None else np.ones((batch, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, raw = cell_step(params, x, zero_state(self.PRE.size))
            _, caches = lstm_forward(params, x[..., None, :])
        tree = params.tree()
        for gate, attr in zip("fico", "figo"):
            want = np.broadcast_to(
                np.tanh(tree["b_c"]) if gate == "c" else lstm_oracle.masked_sigmoid(tree["b_" + gate]),
                x.shape[:-1] + (self.PRE.size,))
            for got in (getattr(raw, attr), getattr(caches.steps[0], attr)):
                assert np.array_equal(np.isnan(got), np.isnan(want)), gate
                np.testing.assert_allclose(got, want, rtol=0, atol=2.0**-52, err_msg=gate)
            # the raw parameters and the forward's kernel give the same bits
            assert getattr(raw, attr).tobytes() == getattr(caches.steps[0], attr).tobytes()

    @pytest.mark.parametrize("batch", [None, 6])
    def test_cached_gates_are_contiguous_and_disjoint(self, batch):
        rng = np.random.default_rng(72)
        params = init_lstm_params(5, 3, rng)
        shape = (4, 3) if batch is None else (batch, 4, 3)
        _, caches = lstm_forward(params, rng.uniform(-2, 2, size=shape))
        for step in caches.steps:
            gates = [step.f, step.i, step.o, step.g]
            for gate in gates:
                assert gate.flags.c_contiguous and gate.shape == shape[:-2] + (5,)
            for a, b in itertools.combinations(gates, 2):
                assert not np.shares_memory(a, b)


def oracle_tree(params: LstmParams) -> dict[str, np.ndarray]:
    return {name: arr.copy() for name, arr in params.tree().items()}


class TestStackedGates:
    """The one stacked gate product per step against the four-product
    oracle, with hidden != d_in so a transposed block cannot fit."""

    HIDDEN, D_IN, STEPS = 5, 3, 4

    def sample(self, batch):
        rng = np.random.default_rng(71)
        params = init_lstm_params(self.HIDDEN, self.D_IN, rng)
        for arr in params.tree().values():
            arr += rng.normal(scale=0.3, size=arr.shape)
        shape = (self.STEPS, self.D_IN) if batch is None else (batch, self.STEPS, self.D_IN)
        xs = rng.uniform(-2, 2, size=shape)
        upstream = rng.uniform(-1, 1, size=() if batch is None else (batch,))
        return params, xs, upstream

    @pytest.mark.parametrize("batch", [None, 6])
    def test_matches_the_four_product_oracle(self, batch):
        params, xs, upstream = self.sample(batch)
        logits, caches = lstm_forward(params, xs)
        want_logits, want_caches, _ = lstm_oracle.forward(oracle_tree(params), xs)
        np.testing.assert_allclose(logits, want_logits, rtol=0, atol=1e-14)
        for got, want in zip(caches.steps, want_caches):
            for gate in ("f", "i", "g", "o"):
                np.testing.assert_allclose(getattr(got, gate), want[gate], rtol=0, atol=1e-14)

        grads, dx = lstm_backward(params, caches, upstream)
        want_grads, want_dx = lstm_oracle.backward(oracle_tree(params), xs, upstream)
        np.testing.assert_allclose(dx, want_dx, rtol=0, atol=1e-14)
        assert list(grads.tree()) == list(want_grads)
        for name, arr in grads.tree().items():
            assert arr.shape == want_grads[name].shape, name
            np.testing.assert_allclose(arr, want_grads[name], rtol=0, atol=1e-14, err_msg=name)

    def test_gate_gradients_are_disjoint_and_scale_in_place(self):
        # the trainer scales every tree entry in place; an entry that shared
        # memory with another would be scaled twice
        params, xs, upstream = self.sample(6)
        _, caches = lstm_forward(params, xs)
        grads, _ = lstm_backward(params, caches, upstream)
        tree = grads.tree()
        for (a, x), (b, y) in itertools.combinations(tree.items(), 2):
            assert not np.shares_memory(x, y), (a, b)
        for arr in tree.values():
            arr *= 0.5
        want, _ = lstm_oracle.backward(oracle_tree(params), xs, upstream)
        for name, arr in tree.items():
            np.testing.assert_allclose(arr, 0.5 * want[name], rtol=0, atol=1e-14, err_msg=name)

    def test_each_gate_gradient_lands_under_its_own_name(self):
        # one step from the zero state with zero weights: every gate sees
        # v = (0, x), f, i and o are sigmoid(b) and g is tanh(b_c), and the
        # gates' bias gradients differ, so a swapped block shows
        params = zero_params(2, 1)
        tree = params.tree()
        tree["b_f"][...], tree["b_i"][...], tree["b_c"][...], tree["b_o"][...] = 0.1, 0.2, 0.3, 0.4
        params.head_w[...] = 1.0
        _, caches = lstm_forward(params, np.array([[1.0]]))
        grads, _ = lstm_backward(params, caches, 1.0)
        want, _ = lstm_oracle.backward(oracle_tree(params), np.array([[1.0]]), 1.0)
        # c_prev is zero, so the forget gate gets no gradient
        assert np.all(grads.tree()["b_f"] == 0.0)
        for gate in "ico":
            assert np.all(grads.tree()["b_" + gate] != 0.0), gate
            np.testing.assert_allclose(grads.tree()["b_" + gate], want["b_" + gate], rtol=0,
                                       atol=1e-15)
            np.testing.assert_allclose(grads.tree()["w_" + gate], want["w_" + gate], rtol=0,
                                       atol=1e-15)
