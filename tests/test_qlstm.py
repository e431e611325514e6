"""Quantum LSTM cell: fixed points, degeneracy, evaluation budget, and
finite-difference verification of the composed backward pass."""
from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

import qvuln.qlstm
from qvuln.neural import CellState, bce_from_logit, laid_out, sigmoid
from qvuln.qlstm import (
    HIDDEN,
    QlstmStepCache,
    init_qlstm_params,
    initial_state,
    qlstm_backward,
    qlstm_cell_step,
    qlstm_forward,
)
from qvuln.vqc import EvalCounter, vqc_gradients

FD_STEP = 1e-5
FD_TOL = 1e-5
# (batch, steps) of the count tests: one step, where the first step is the
# last; one sample without a batch axis; gate 5's shape, whose rows span
# several products; and a batch whose last product is partial
COUNTED_SHAPES = [(1, 1), (1, 5), (16, 24), (48, 5)]
# (batch, steps) of the window tests: at 128 rows a product, a batch of 16
# takes 8 steps a window, so 17 steps end in a one-step window and 24 steps
# fill three; 48 samples take two steps a window, and one sample 128
WINDOWED_SHAPES = [(1, 1), (1, 5), (16, 17), (16, 24), (48, 5)]


def zeroed_vqcs(d_x: int, scale: float = 1.0, shift: float = 0.0):
    params = init_qlstm_params(d_x, np.random.default_rng(0))
    for vqc in (params.vqc1, params.vqc2, params.vqc3, params.vqc4, params.vqc5, params.vqc6):
        vqc.in_proj[...] = 0.0
        vqc.bias[...] = 0.0
        vqc.angles[...] = 0.0
        vqc.out_scale[...] = scale
        vqc.out_shift[...] = shift
    params.head_w[...] = 0.0
    params.head_b[...] = 0.0
    return params


def scalar_loss(params, sequence, target: float) -> float:
    logit, _ = qlstm_forward(params, sequence)
    value, _ = bce_from_logit(logit, target)
    return value


class TestCellStep:
    def test_zero_vqc_fixed_point(self):
        params = zeroed_vqcs(2)
        state, cache = qlstm_cell_step(params, np.zeros(2), initial_state())
        np.testing.assert_array_equal(cache.f, 0.5 * np.ones(4))
        np.testing.assert_array_equal(cache.i, 0.5 * np.ones(4))
        np.testing.assert_array_equal(cache.o, 0.5 * np.ones(4))
        np.testing.assert_array_equal(cache.g, np.zeros(4))
        np.testing.assert_array_equal(state.c, np.zeros(4))
        np.testing.assert_array_equal(state.h, 0.5 * np.ones(4))
        np.testing.assert_array_equal(state.y, np.zeros(4))

    def test_zero_vqc_halves_previous_cell(self):
        params = zeroed_vqcs(2)
        prev = CellState(h=0.5 * np.ones(4), c=np.array([1.0, -2.0, 0.5, 0.0]), y=np.zeros(4))
        state, _ = qlstm_cell_step(params, np.zeros(2), prev)
        np.testing.assert_allclose(state.c, 0.5 * prev.c, atol=1e-15)

    def test_scale_zero_is_input_independent(self):
        params = zeroed_vqcs(3, scale=0.0, shift=0.3)
        rng = np.random.default_rng(4)
        states = []
        for _ in range(2):
            state, cache = qlstm_cell_step(params, rng.uniform(-5, 5, size=3), initial_state())
            np.testing.assert_allclose(cache.f, sigmoid(0.3) * np.ones(4), atol=1e-15)
            np.testing.assert_allclose(cache.g, np.tanh(0.3) * np.ones(4), atol=1e-15)
            states.append(state)
        np.testing.assert_array_equal(states[0].h, states[1].h)
        np.testing.assert_array_equal(states[0].y, states[1].y)

    def test_dimension_mismatch(self):
        params = init_qlstm_params(3, np.random.default_rng(1))
        with pytest.raises(ValueError):
            qlstm_cell_step(params, np.zeros(2), initial_state())

    def test_h_in_unit_interval(self):
        rng = np.random.default_rng(7)
        params = init_qlstm_params(2, rng)
        state = initial_state()
        for _ in range(5):
            state, _ = qlstm_cell_step(params, rng.uniform(-3, 3, size=2), state)
            assert np.all(state.h > 0) and np.all(state.h < 1)


class TestForward:
    @pytest.mark.parametrize("keep_caches", [True, False])
    @pytest.mark.parametrize("batch, steps", COUNTED_SHAPES)
    def test_six_evaluations_per_step(self, batch, steps, keep_caches):
        # six readouts per step, whether or not the forward keeps its
        # caches; at batch 1 the sequence has no batch axis
        rng = np.random.default_rng(66 + batch + steps)
        params = init_qlstm_params(3, rng)
        xs = rng.uniform(-1, 1, size=(batch, steps, 3))
        counter = EvalCounter()
        qlstm_forward(params, xs[0] if batch == 1 else xs, counter, keep_caches=keep_caches)
        assert counter.count == 6 * batch * steps

    def test_zero_vqcs_give_zero_logit(self):
        params = zeroed_vqcs(2)
        params.head_w[...] = np.arange(4.0)
        params.head_b[...] = 0.0
        logit, caches = qlstm_forward(params, [np.ones(2)] * 3)
        assert logit == 0.0
        np.testing.assert_array_equal(caches.final, np.zeros(4))

    def test_bitwise_deterministic(self):
        rng = np.random.default_rng(11)
        params = init_qlstm_params(3, rng)
        seq = [rng.uniform(-1, 1, size=3) for _ in range(4)]
        assert qlstm_forward(params, seq)[0] == qlstm_forward(params, seq)[0]

    def test_empty_sequence_error(self):
        with pytest.raises(ValueError):
            qlstm_forward(init_qlstm_params(2, np.random.default_rng(0)), [])

    def test_initial_state(self):
        state = initial_state()
        np.testing.assert_array_equal(state.h, 0.5 * np.ones(HIDDEN))
        np.testing.assert_array_equal(state.c, np.zeros(HIDDEN))


class TestBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(3)
        params = init_qlstm_params(2, rng)
        _, caches = qlstm_forward(params, [rng.uniform(-1, 1, size=2) for _ in range(2)])
        grads, dx = qlstm_backward(params, caches, 0.0)
        for arr in grads.tree().values():
            assert np.all(arr == 0)
        assert np.all(dx == 0)

    @pytest.mark.parametrize("sigma_hidden", [True, False])
    @pytest.mark.parametrize("d_x,steps", [(3, 2), (2, 3), (2, 1)])
    def test_matches_finite_differences(self, d_x, steps, sigma_hidden):
        rng = np.random.default_rng(40 + d_x + steps)
        params = init_qlstm_params(d_x, rng, sigma_hidden=sigma_hidden)
        sequence = [rng.uniform(-1, 1, size=d_x) for _ in range(steps)]
        target = 1.0

        logit, caches = qlstm_forward(params, sequence)
        _, dlogit = bce_from_logit(logit, target)
        grads, dx = qlstm_backward(params, caches, dlogit)

        tree = params.tree()
        for name, analytic in grads.tree().items():
            arr = tree[name]
            flat = arr.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + FD_STEP
                hi = scalar_loss(params, sequence, target)
                flat[j] = orig - FD_STEP
                lo = scalar_loss(params, sequence, target)
                flat[j] = orig
                fd = (hi - lo) / (2 * FD_STEP)
                assert abs(float(analytic.reshape(-1)[j]) - fd) < FD_TOL, name

        for t in range(steps):
            for j in range(d_x):
                orig = sequence[t][j]
                sequence[t][j] = orig + FD_STEP
                hi = scalar_loss(params, sequence, target)
                sequence[t][j] = orig - FD_STEP
                lo = scalar_loss(params, sequence, target)
                sequence[t][j] = orig
                fd = (hi - lo) / (2 * FD_STEP)
                assert abs(float(dx[t, j]) - fd) < FD_TOL


class TestInit:
    def test_vqc_widths(self):
        params = init_qlstm_params(3, np.random.default_rng(5))
        assert params.d_x == 3
        for vqc in (params.vqc1, params.vqc2, params.vqc3, params.vqc4):
            assert vqc.d_in == HIDDEN + 3
        assert params.vqc5.d_in == HIDDEN
        assert params.vqc6.d_in == HIDDEN
        assert params.head_w.shape == (HIDDEN,)
        assert params.sigma_hidden is True

    def test_tree_has_six_blocks_and_head(self):
        params = init_qlstm_params(2, np.random.default_rng(6))
        names = set(params.tree())
        for k in range(1, 7):
            assert f"vqc{k}.angles" in names
        assert "head_w" in names and "head_b" in names
        assert len(names) == 6 * 5 + 2
        # checkpoints store the arrays under these names, in this order
        block = ("in_proj", "bias", "angles", "out_scale", "out_shift")
        assert list(params.tree()) == [
            f"vqc{k}.{name}" for k in range(1, 7) for name in block
        ] + ["head_w", "head_b"]

    def test_zeros_like(self):
        # a zero gradient: the model's layout on a zero vector
        params = init_qlstm_params(2, np.random.default_rng(9), sigma_hidden=False)
        zeros = laid_out(params, np.zeros(params.vector.size))
        for name, arr in zeros.tree().items():
            assert np.all(arr == 0)
            assert arr.shape == params.tree()[name].shape
        assert zeros.sigma_hidden == params.sigma_hidden


class TestBatch:
    @pytest.mark.parametrize("sigma_hidden", [True, False])
    def test_batch_matches_samples(self, sigma_hidden):
        batch, steps, d_x = 5, 3, 2
        rng = np.random.default_rng(60)
        params = init_qlstm_params(d_x, rng, sigma_hidden=sigma_hidden)
        xs = rng.uniform(-1, 1, size=(batch, steps, d_x))
        upstream = rng.uniform(-1, 1, size=batch)

        counter = EvalCounter()
        logits, caches = qlstm_forward(params, xs, counter)
        grads, dx = qlstm_backward(params, caches, upstream, counter)
        assert logits.shape == (batch,) and dx.shape == (batch, steps, d_x)

        single = EvalCounter()
        summed = {name: np.zeros_like(arr) for name, arr in grads.tree().items()}
        for b in range(batch):
            logit, sample_caches = qlstm_forward(params, xs[b], single)
            assert abs(logits[b] - logit) < 1e-13
            sample_grads, sample_dx = qlstm_backward(params, sample_caches, upstream[b], single)
            np.testing.assert_allclose(dx[b], sample_dx, rtol=0, atol=1e-13)
            for name, arr in sample_grads.tree().items():
                summed[name] += arr
        for name, arr in grads.tree().items():
            np.testing.assert_allclose(arr, summed[name], rtol=0, atol=1e-13, err_msg=name)
        assert counter.count == single.count

    @pytest.mark.parametrize("sigma_hidden", [True, False])
    def test_cache_free_forward_matches(self, sigma_hidden):
        rng = np.random.default_rng(65)
        params = init_qlstm_params(2, rng, sigma_hidden=sigma_hidden)
        xs = rng.uniform(-1, 1, size=(5, 3, 2))
        for sequence in (xs, xs[0]):
            logits, _ = qlstm_forward(params, sequence)
            bare, caches = qlstm_forward(params, sequence, keep_caches=False)
            assert caches is None
            assert np.array_equal(bare, logits)
        with pytest.raises(ValueError, match="keep_caches"):
            qlstm_backward(params, caches, 1.0)


class TestCostModel:
    def test_calls_account_for_every_evaluation(self, monkeypatch):
        # one evaluation per vqc_forward call and 65 per vqc_gradients call,
        # which is how a call-counting tracer reads the cost of one sample
        rng = np.random.default_rng(61)
        params = init_qlstm_params(3, rng)
        per_grad = EvalCounter()
        vqc_gradients(params.vqc1, rng.normal(size=params.vqc1.d_in), np.ones(4), per_grad)
        assert per_grad.count == 65

        calls = {"forward": 0, "gradients": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name, short in (("vqc_forward", "forward"), ("vqc_gradients", "gradients")):
            monkeypatch.setattr(qvuln.qlstm, name, counted(short, getattr(qvuln.qlstm, name)))
        steps = 5
        counter = EvalCounter()
        _, caches = qlstm_forward(params, rng.uniform(-1, 1, size=(steps, 3)), counter)
        qlstm_backward(params, caches, 1.0, counter)
        assert calls["forward"] == 6 * steps
        # structural zeros skip vqc6 before the last step, vqc5 at the last
        # step and vqc1 at the first
        assert calls["gradients"] == 5 * steps - 1
        assert calls["forward"] + per_grad.count * calls["gradients"] == counter.count

    @pytest.mark.parametrize("batch, steps", COUNTED_SHAPES)
    def test_backward_counts_65_per_block_gradient_each_time(self, batch, steps):
        # the backward forms and counts the rows of the 5T - 1 block
        # gradients and leaves the forward's caches as they were, so a
        # second backward on them counts and gives the same again
        assert "rows" not in {field.name for field in dataclasses.fields(QlstmStepCache)}
        rng = np.random.default_rng(70 + batch + steps)
        params = init_qlstm_params(2, rng)
        xs = rng.uniform(-1, 1, size=(batch, steps, 2))
        _, caches = qlstm_forward(params, xs[0] if batch == 1 else xs)
        upstream = rng.uniform(-1, 1) if batch == 1 else rng.uniform(-1, 1, size=batch)
        results = []
        for _ in range(2):
            counter = EvalCounter()
            grads, dx = qlstm_backward(params, caches, upstream, counter)
            assert counter.count == 65 * batch * (5 * steps - 1)
            results.append((grads.vector.tobytes(), dx.tobytes()))
        assert results[0] == results[1]

    @pytest.mark.parametrize("batch", [1, 3, 48])
    @pytest.mark.parametrize("steps", [1, 2, 5])
    def test_forward_rows_are_the_blocks_differentiated(self, monkeypatch, steps, batch):
        # the backward forms rows from the forward's step caches, a window at
        # a time, for exactly the blocks whose gradient it contracts, by the
        # closed-form rule, and each window holds at most
        # ROWS_PER_PRODUCT // batch steps; at steps = 1 the first step is
        # also the last, and at batch 48 a window holds two steps, so five
        # steps end in a partial window
        monkeypatch.setattr(qvuln.qlstm, "ROWS_PER_PRODUCT", 128)
        rng = np.random.default_rng(68 + 10 * steps + batch)
        params = init_qlstm_params(2, rng)
        _, caches = qlstm_forward(params, rng.uniform(-1, 1, size=(batch, steps, 2)))
        formed, windows, contracted = {}, [], []
        window_rows = qvuln.qlstm._window_rows

        def forming(params, steps, window, counter):
            rows = window_rows(params, steps, window, counter)
            windows.append(window)
            # the rows are kept here, so no two of them share an id
            formed.update({(t, name): block for t, step in rows.items()
                           for name, block in step.items()})
            return rows

        def recording(block, x, upstream, counter=None, rows=None, into=None):
            contracted.append(rows)
            return vqc_gradients(block, x, upstream, counter, rows=rows, into=into)

        monkeypatch.setattr(qvuln.qlstm, "_window_rows", forming)
        monkeypatch.setattr(qvuln.qlstm, "vqc_gradients", recording)
        qlstm_backward(params, caches, rng.uniform(-1, 1, size=batch))
        per = 128 // batch
        assert [list(w) for w in windows] == [
            list(range(max(0, stop - per), stop)) for stop in range(steps, 0, -per)]
        want = set()
        for t in range(steps):
            names = {"vqc2", "vqc3", "vqc4", "vqc6" if t == steps - 1 else "vqc5"}
            want |= {(t, name) for name in names | ({"vqc1"} if t > 0 else set())}
        assert set(formed) == want
        assert sorted(map(id, contracted)) == sorted(map(id, formed.values()))

    @pytest.mark.parametrize("steps, batch", [(5, 48), (1, 48), (5, 1), (24, 16)])
    def test_rows_in_products_equal_rows_step_by_step(self, monkeypatch, steps, batch):
        # a window's product of several steps' rows gives each step the bits
        # that a product of its own rows gives; (5, 48) at 128 rows ends in a
        # partial window, and at one step the first step is the last
        rng = np.random.default_rng(90 + steps + batch)
        params = init_qlstm_params(2, rng)
        _, caches = qlstm_forward(params, rng.uniform(-1, 1, size=(batch, steps, 2)))
        formed = {}
        for rows_per_product in (128, 1):
            monkeypatch.setattr(qvuln.qlstm, "ROWS_PER_PRODUCT", rows_per_product)
            counter = EvalCounter()
            pairs = list(qvuln.qlstm._backward_steps(params, caches, counter))
            assert counter.count == 65 * batch * (5 * steps - 1)
            assert [cache for cache, _ in pairs] == caches.steps[::-1]
            formed[rows_per_product] = {(steps - 1 - k, name): block
                                        for k, (_, rows) in enumerate(pairs)
                                        for name, block in rows.items()}
        assert formed[128].keys() == formed[1].keys()
        for key, rows in formed[128].items():
            for part in ("readout", "enc", "var"):
                np.testing.assert_array_equal(getattr(rows, part), getattr(formed[1][key], part),
                                              err_msg=f"{key} {part}")

    @pytest.mark.parametrize("batch, steps", WINDOWED_SHAPES)
    def test_windows_give_the_gradients_of_one_window_per_step(self, monkeypatch, batch, steps):
        # the gradients of a backward whose windows hold several steps equal,
        # bit for bit, those of a backward with one window per step
        rng = np.random.default_rng(110 + batch + steps)
        params = init_qlstm_params(3, rng)
        xs = rng.uniform(-1, 1, size=(batch, steps, 3))
        _, caches = qlstm_forward(params, xs[0] if batch == 1 else xs)
        upstream = rng.uniform(-1, 1) if batch == 1 else rng.uniform(-1, 1, size=batch)
        results = []
        for rows_per_product in (qvuln.qlstm.ROWS_PER_PRODUCT, 1):
            monkeypatch.setattr(qvuln.qlstm, "ROWS_PER_PRODUCT", rows_per_product)
            grads, dx = qlstm_backward(params, caches, upstream)
            results.append((grads.vector.tobytes(), dx.tobytes()))
        assert results[0] == results[1]

    @pytest.mark.parametrize("steps, bound_mib", [(24, 2.0), (100, 2.5)])
    def test_backward_memory_does_not_grow_with_steps(self, steps, bound_mib):
        # one window of rows and the temporaries of one `vqc_rows` call are
        # alive at a time, so the traced heap a backward adds above its
        # start stays under a bound that all of a sequence's rows would
        # exceed (16 samples over 100 steps hold 7.1 MiB of rows alone); d_x
        # is gate 5's basic embedding width
        batch, d_x = 16, 50
        rng = np.random.default_rng(120 + steps)
        params = init_qlstm_params(d_x, rng)
        _, caches = qlstm_forward(params, rng.uniform(-1, 1, size=(batch, steps, d_x)))
        upstream = rng.uniform(-1, 1, size=batch)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = qlstm_backward(params, caches, upstream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del result
        assert peak - start <= bound_mib * 2**20, (peak - start) / 2**20

    def test_saturated_gate_keeps_the_count(self):
        # vqc2 reads out at least 59, so i = sigmoid(>= 59) is exactly 1.0 and
        # the input gate's upstream dc * g * i * (1 - i) is zero at every step:
        # the blocks differentiated depend on the step's place, not the data
        batch, steps, d_x = 3, 4, 2
        rng = np.random.default_rng(67)
        params = init_qlstm_params(d_x, rng)
        params.vqc2.out_shift[...] = 60.0
        xs = rng.uniform(-1, 1, size=(batch, steps, d_x))
        upstream = rng.uniform(-1, 1, size=batch)

        counter = EvalCounter()
        _, caches = qlstm_forward(params, xs, counter)
        assert all(np.all(step.i == 1.0) for step in caches.steps)
        grads, dx = qlstm_backward(params, caches, upstream, counter)
        assert counter.count == batch * (6 * steps + 65 * (5 * steps - 1))
        for name, arr in grads.vqc2.tree().items():
            assert np.all(arr == 0), name

        summed = laid_out(params, np.zeros(params.vector.size))
        for b in range(batch):
            _, sample_caches = qlstm_forward(params, xs[b])
            sample_grads, sample_dx = qlstm_backward(params, sample_caches, upstream[b])
            np.testing.assert_allclose(dx[b], sample_dx, rtol=0, atol=1e-13)
            summed.vector += sample_grads.vector
        for name, arr in grads.tree().items():
            np.testing.assert_allclose(arr, summed.tree()[name], rtol=0, atol=1e-13, err_msg=name)
