"""Variational circuit block: closed-form fixed points, dense-matrix oracle
agreement, and exact gradients versus central finite differences."""
from __future__ import annotations

import warnings
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

import qvuln.vqc
from qvuln.neural import OptimizerState, adam_step, bce_from_logit, laid_out
from qvuln.qlstm import init_qlstm_params, qlstm_backward, qlstm_forward
from qvuln.qsim import apply_gate, expect_z, h, init_state, ry, rz
from qvuln.trainer import TrainConfig, evaluate, load_checkpoint, save_checkpoint, sine_task, train
from qvuln.vqc import (
    SHIFT,
    EvalCounter,
    VqcParams,
    _bloch,
    _gradient_rows,
    _observables,
    init_vqc_params,
    vqc_forward,
    vqc_gradients,
    vqc_rows,
)

import dense_oracle
import observables_oracle

FD_STEP = 1e-5


def manual_params(d_in: int = 4) -> VqcParams:
    return VqcParams(
        in_proj=np.zeros((4, d_in)),
        bias=np.zeros(4),
        angles=np.zeros((2, 4, 3)),
        out_scale=np.array(1.0),
        out_shift=np.array(0.0),
    )


def random_params(rng: np.random.Generator, d_in: int) -> VqcParams:
    params = init_vqc_params(d_in, rng)
    params.bias = rng.uniform(-0.5, 0.5, size=4)
    params.angles = rng.uniform(-np.pi, np.pi, size=(2, 4, 3))
    params.out_scale = np.array(rng.uniform(0.5, 2.0))
    params.out_shift = np.array(rng.uniform(-0.5, 0.5))
    return params


def unscaled(params: VqcParams) -> VqcParams:
    """`params` with unit scale and zero shift: the readout is then the
    pre-scaling <Z_i>."""
    return replace(params, out_scale=np.array(1.0), out_shift=np.array(0.0))


def dense_layers(angles: np.ndarray) -> np.ndarray:
    """The two variational layers as one unitary, from the oracle's gates."""
    u = np.eye(16, dtype=complex)
    for layer in range(2):
        for c in range(4):
            u = dense_oracle.cnot_matrix(c, (c + 1) % 4, 4) @ u
        rotations = (dense_oracle.rz_matrix, dense_oracle.ry_matrix, dense_oracle.rz_matrix)
        for slot, rotation in enumerate(rotations):
            for q in range(4):
                u = dense_oracle.on_qubit(rotation(angles[layer, q, slot]), q, 4) @ u
    return u


def fd_gradient(params: VqcParams, x: np.ndarray, upstream: np.ndarray, array: np.ndarray) -> np.ndarray:
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + FD_STEP
        hi = float(upstream @ vqc_forward(params, x))
        flat[j] = orig - FD_STEP
        lo = float(upstream @ vqc_forward(params, x))
        flat[j] = orig
        grad.reshape(-1)[j] = (hi - lo) / (2 * FD_STEP)
    return grad


class TestForward:
    def test_zero_fixed_point(self):
        out = vqc_forward(manual_params(), np.zeros(4))
        np.testing.assert_allclose(out, np.zeros(4), atol=1e-15)

    def test_identity_projection_example(self):
        # encoding alone would leave qubit 0 at -sin(0.5); the ring's final
        # CNOT (3 -> 0) has a |+> control, which zeroes that expectation
        params = manual_params()
        params.in_proj = np.eye(4)
        x = np.array([np.tan(0.5), 0.0, 0.0, 0.0])
        out = vqc_forward(params, x)

        enc_only = dense_oracle.encode_state(x)
        assert abs(dense_oracle.z_expectation(enc_only, 0, 4) - (-np.sin(0.5))) < 1e-12

        oracle = dense_oracle.circuit_expectations(x, np.zeros((2, 4, 3)))
        np.testing.assert_allclose(out, oracle, atol=1e-12)
        assert abs(out[0]) < 1e-12

    def test_pre_scaling_expectations_bounded(self):
        # unit scale and zero shift give the <Z_i> themselves, exactly
        rng = np.random.default_rng(17)
        for _ in range(10):
            params = unscaled(random_params(rng, 5))
            e = vqc_forward(params, rng.uniform(-3, 3, size=5))
            assert np.all(np.abs(e) <= 1.0 + 1e-12)

    def test_scale_and_shift_applied(self):
        rng = np.random.default_rng(2)
        params = random_params(rng, 3)
        x = rng.uniform(-1, 1, size=3)
        e = vqc_forward(unscaled(params), x)
        params.out_scale = np.array(3.0)
        params.out_shift = np.array(10.0)
        np.testing.assert_allclose(vqc_forward(params, x), 3.0 * e + 10.0, atol=1e-14)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            d_in = int(rng.integers(2, 7))
            params = random_params(rng, d_in)
            x = rng.uniform(-2, 2, size=d_in)
            out = vqc_forward(params, x)
            a = params.in_proj @ x + params.bias
            oracle = float(params.out_scale) * dense_oracle.circuit_expectations(
                a, params.angles
            ) + float(params.out_shift)
            np.testing.assert_allclose(out, oracle, atol=1e-10)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        params = random_params(rng, 4)
        x = rng.uniform(-1, 1, size=4)
        first = vqc_forward(params, x)
        second = vqc_forward(params, x)
        assert np.array_equal(first, second)

    def test_input_shape_error(self):
        for x in (np.zeros(3), np.zeros((2, 5)), np.zeros((2, 3, 4))):
            with pytest.raises(ValueError):
                vqc_forward(manual_params(d_in=4), x)


class TestGradients:
    def test_parameter_shift_identity_on_single_qubit(self):
        # d<Z>/dtheta at theta = pi/2 equals (cos(pi) - cos(0)) / 2 = -1
        shifted = []
        for sign in (1.0, -1.0):
            state = apply_gate(init_state(1), ry(np.pi / 2 + sign * np.pi / 2, 0))
            shifted.append(expect_z(state, 0))
        assert abs((shifted[0] - shifted[1]) / 2.0 + 1.0) < 1e-12

    def test_zero_upstream(self):
        rng = np.random.default_rng(7)
        params = random_params(rng, 4)
        grads, dx = vqc_gradients(params, rng.uniform(-1, 1, size=4), np.zeros(4))
        for arr in grads.tree().values():
            assert np.all(arr == 0)
        assert np.all(dx == 0)

    def test_shift_gradient_is_upstream_sum(self):
        rng = np.random.default_rng(8)
        params = random_params(rng, 4)
        x = rng.uniform(-1, 1, size=4)
        upstream = np.array([1.0, 1.0, 1.0, 1.0])
        grads, _ = vqc_gradients(params, x, upstream)
        assert float(grads.out_shift) == 4.0
        expected_scale = float(upstream @ vqc_forward(unscaled(params), x))
        assert abs(float(grads.out_scale) - expected_scale) < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            d_in = int(rng.integers(2, 7))
            params = random_params(rng, d_in)
            x = rng.uniform(-2, 2, size=d_in)
            upstream = rng.uniform(-1, 1, size=4)
            grads, dx = vqc_gradients(params, x, upstream)
            for name, arr in grads.tree().items():
                fd = fd_gradient(params, x, upstream, getattr(params, name))
                np.testing.assert_allclose(arr, fd, atol=1e-6, err_msg=name)
            fd_x = np.zeros_like(x)
            for j in range(x.size):
                orig = x[j]
                x[j] = orig + FD_STEP
                hi = float(upstream @ vqc_forward(params, x))
                x[j] = orig - FD_STEP
                lo = float(upstream @ vqc_forward(params, x))
                x[j] = orig
                fd_x[j] = (hi - lo) / (2 * FD_STEP)
            np.testing.assert_allclose(dx, fd_x, atol=1e-6)

    @pytest.mark.parametrize("shape", [(6,), (1, 6), (5, 6)])
    def test_forward_rows_give_the_same_bits(self, shape):
        # the rows a QLSTM backward forms through vqc_rows, contracted,
        # give the bits of a call that forms its own; their unshifted row,
        # scaled, has the bits of the readout, and the contraction counts
        # nothing
        rng = np.random.default_rng(33)
        params = random_params(rng, 6)
        x = rng.uniform(-2, 2, size=shape)
        upstream = rng.uniform(-1, 1, size=shape[:-1] + (4,))
        samples = x.size // 6
        counter = EvalCounter()
        rows = vqc_rows(params, x, counter)
        assert counter.count == samples * 65
        values = params.out_scale * rows.readout + params.out_shift
        np.testing.assert_array_equal(values.reshape(shape[:-1] + (4,)), vqc_forward(params, x))
        got, got_dx = vqc_gradients(params, x, upstream, counter, rows=rows)
        assert counter.count == samples * 65
        want, want_dx = vqc_gradients(params, x, upstream)
        for name, arr in got.tree().items():
            np.testing.assert_array_equal(arr, want.tree()[name], err_msg=name)
        np.testing.assert_array_equal(got_dx, want_dx)

    def test_last_rz_of_layer_2_gets_no_gradient(self):
        # layer 2 ends each qubit with an RZ right before the Z readout; it
        # commutes with Z, so the rows with slot 2 of layer 2 shifted are the
        # unshifted readout, and those four angles' gradients are exactly
        # 0.0, while every other angle's rows differ.  Their rows stay
        # counted, since the cost model counts them.  A layer-2 rotation on
        # qubit q reaches Z_q alone, so its slot 0 and 1 differences are
        # kept on Z_q's column only
        rng = np.random.default_rng(34)
        params = random_params(rng, 4)
        x = rng.uniform(-2, 2, size=(64, 4))
        grads, _ = vqc_gradients(params, x, rng.uniform(-1, 1, size=(64, 4)))
        assert np.all(grads.angles[1, :, 2] == 0.0)
        var = vqc_rows(params, x).var
        assert var.shape == (64, 14, 4)
        first = np.abs(var[:, :12]).max(axis=(0, 2))  # layer 1's 12 angles, any q
        own = np.abs(var[:, 12:]).max(axis=0)  # layer 2's (slot 0 or 1, qubit q) on Z_q
        assert first.size + own.size == 20
        assert np.all(first > 1e-3) and np.all(own > 1e-3)

    def test_encoding_slopes_do_not_overflow(self, monkeypatch):
        # the RY and RZ differences are chained through d arctan(a)/da =
        # 1/(1 + a^2) and d arctan(a^2)/da = 2a/(1 + a^4); neither slope
        # overflows where a^2 (from 1.3e154) or a^4 (from 1e77) would, and
        # each is within a few ulp of a reference written in 1/a for |a| >= 1
        values = np.array([0.0, 0.5, -2.0, 3.0, 1e77, -1e80, 1e80, -1e154,
                           1e160, -1e160, 1e300, -1e300])
        params = manual_params()
        params.in_proj = np.eye(4)
        x = values.reshape(-1, 4)  # the compressed a is x itself
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = vqc_rows(params, x)
        for name in ("readout", "enc", "var"):
            assert np.all(np.isfinite(getattr(rows, name))), name

        def unit_differences(params, a, r, cy):
            # RY differences of 1 in column 0 and RZ differences of 1 in
            # column 1, so that those columns of `enc` are the two slopes
            n = a.shape[1]
            e_enc = np.zeros((4, n, 4, 4))  # (qubit, n, RY+ RY- RZ+ RZ-, q)
            e_enc[:, :, 0, 0] = e_enc[:, :, 2, 1] = 1.0
            return np.zeros((n, 4)), e_enc, np.zeros((n, 112))

        monkeypatch.setattr(qvuln.vqc, "_gradient_rows", unit_differences)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            enc = vqc_rows(params, x).enc
        a = x.T
        big = np.abs(a) >= 1.0
        u, small = 1.0 / np.where(big, a, 1.0), np.where(big, 0.0, a)
        want_y = np.where(big, u * u / (1.0 + u * u), 1.0 / (1.0 + small * small))
        want_z = np.where(big, 2.0 * u**3 / (1.0 + u**4), 2.0 * small / (1.0 + small**4))
        ulps = 8 * np.finfo(float).eps
        np.testing.assert_allclose(enc[:, :, 0], want_y, rtol=ulps, atol=0)
        np.testing.assert_allclose(enc[:, :, 1], want_z, rtol=ulps, atol=0)

    def test_input_shape_error(self):
        for x in (np.zeros(5), np.zeros((2, 5)), np.zeros((2, 3, 4))):
            with pytest.raises(ValueError):
                vqc_gradients(manual_params(d_in=4), x, np.ones(x.shape[:-1] + (4,)))


class TestInto:
    def test_gradients_add_into_the_given_views(self):
        # the QLSTM's backward adds each block's gradient into that block's
        # views of the model's gradient vector
        rng = np.random.default_rng(15)
        params = laid_out(random_params(rng, 4))
        x = rng.uniform(-1, 1, size=(3, 4))
        upstream = rng.uniform(-1, 1, size=(3, 4))
        want, want_dx = vqc_gradients(params, x, upstream)
        into = laid_out(params, np.full(params.vector.size, 0.5))
        got, got_dx = vqc_gradients(params, x, upstream, into=into)
        assert got is into
        np.testing.assert_array_equal(into.vector, 0.5 + want.vector)
        np.testing.assert_array_equal(got_dx, want_dx)


class TestLayerCache:
    def test_in_place_angle_update_is_not_stale(self):
        # adam_step rewrites the parameter vector in place, so the angle
        # array, a view of it, keeps its identity
        rng = np.random.default_rng(14)
        params = laid_out(random_params(rng, 4))
        x = rng.uniform(-1, 1, size=4)
        upstream = rng.uniform(-1, 1, size=4)
        vqc_forward(params, x)
        grads, _ = vqc_gradients(params, x, upstream)
        angles, before = params.angles, params.angles.copy()
        adam_step(OptimizerState(params.vector.size, lr=0.1), params.vector, grads.vector)
        assert params.angles is angles
        assert not np.array_equal(params.angles, before)

        fresh = VqcParams(**{name: np.array(arr) for name, arr in params.tree().items()})
        np.testing.assert_array_equal(vqc_forward(params, x), vqc_forward(fresh, x))
        (got, got_dx), (want, want_dx) = (vqc_gradients(p, x, upstream) for p in (params, fresh))
        for name, arr in got.tree().items():
            np.testing.assert_array_equal(arr, want.tree()[name], err_msg=name)
        np.testing.assert_array_equal(got_dx, want_dx)

    def test_a_step_builds_each_block_once(self):
        # after an Adam step the forward builds each of the six blocks'
        # observables, and the backward finds them all cached
        rng = np.random.default_rng(15)
        params = init_qlstm_params(3, rng)
        x = rng.normal(size=(4, 5, 3))
        labels = np.array([0.0, 1.0, 1.0, 0.0])

        def forward_backward():
            logits, caches = qlstm_forward(params, x)
            return qlstm_backward(params, caches, bce_from_logit(logits, labels)[1])[0]

        adam_step(OptimizerState(params.vector.size, 0.01), params.vector, forward_backward().vector / len(x))
        misses = _observables.cache_info().misses
        forward_backward()
        assert _observables.cache_info().misses - misses == 6

    def test_evaluating_the_trained_checkpoint_builds_nothing(self, tmp_path):
        # train's closing evaluation leaves the final angles' observables
        # cached, and a reloaded checkpoint holds the same angle bytes
        ckpt, report = train(TrainConfig(model="qlstm", task="sine", epochs=1, seed=2, batch_size=8),
                             sine_task(10, 2))
        path = tmp_path / "qlstm.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        misses = _observables.cache_info().misses
        again = evaluate(loaded)
        assert _observables.cache_info().misses == misses
        assert again.predictions.tobytes() == report.predictions.tobytes()


def oracle_angle_sets() -> list[np.ndarray]:
    """56 angle sets: each of zeros of both signs, +-pi and angles past
    +-2 pi in every slot, seeded mixes of such values and of +-SHIFT, and
    seeded uniform angles in [-3 pi, 3 pi]."""
    special = [0.0, -0.0, np.pi, -np.pi, 2 * np.pi + 0.25, -2 * np.pi - 1.0, SHIFT, -SHIFT, 1e-300]
    sets = [np.full((2, 4, 3), value) for value in special[:6]]
    rng = np.random.default_rng(47)
    sets += [rng.choice(special, size=(2, 4, 3)) for _ in range(20)]
    sets += [rng.uniform(-3 * np.pi, 3 * np.pi, size=(2, 4, 3)) for _ in range(30)]
    return sets


class TestObservablesOracle:
    def test_build_matches_the_oracle_bit_for_bit(self):
        # the build rotates only the 48 distinct rotations and gathers only
        # the outputs' entries; the oracle rotates all 120 and applies the
        # first ring to every product entry
        for angles in oracle_angle_sets():
            got = _observables.__wrapped__(angles.tobytes())
            want = observables_oracle.observables(angles.tobytes())
            for g, w in zip((got[0], *got[1], got[2]), (want[0], *want[1], want[2])):
                assert g.shape == w.shape and g.dtype == w.dtype
                assert g.tobytes() == w.tobytes(), angles
                assert not g.flags.writeable


def unshifted_columns(by_low: np.ndarray) -> np.ndarray:
    """The kernel's (16, 64) low-first readout columns as (256, 4), one row
    per Pauli string s = 64 p3 + 16 p2 + 4 p1 + p0."""
    return by_low.reshape(16, 16, 4).transpose(1, 0, 2).reshape(256, 4)


def shifted_columns(blocks: tuple[np.ndarray, ...]) -> np.ndarray:
    """The kernel's four (|S_q|, 28) light-cone blocks as (256, 2, 14, 4),
    (string, sign, angle, q), zero off each cone."""
    full = np.zeros((256, 28, 4))
    for q, (cone, block) in enumerate(zip(qvuln.vqc._CONES, blocks)):
        full[cone, :, q] = block
    return full.reshape(256, 2, 14, 4)


def shifted_angles(base: np.ndarray, k: int, sign: float) -> np.ndarray:
    moved = base.copy()
    moved.reshape(-1)[k] += sign * np.pi / 2
    return moved


@lru_cache(maxsize=1)
def pauli_strings() -> np.ndarray:
    return dense_oracle.pauli_strings()


def dense_observables(angles: np.ndarray) -> np.ndarray:
    """The (256, 4) Pauli coefficients of U^dag Z_q U for the oracle's two
    layers U, one column per qubit q."""
    strings = pauli_strings()
    u = dense_layers(angles)
    return np.stack([dense_oracle.pauli_vector(u.conj().T @ dense_oracle.on_qubit(
        dense_oracle.Z, q, 4) @ u, strings) for q in range(4)], axis=1)


def dense_light_cones() -> list[list[int]]:
    """Each qubit's backward light cone, from the oracle's dense CNOT ring:
    Z_q read before its layer-2 rotation is a mix of X_q, Y_q and Z_q; the
    ring maps each to one string U^dag P U; layer 1's rotations keep which
    digits are I; the ring maps each string with such a support to one
    string again."""
    strings = pauli_strings()
    ring = np.eye(16, dtype=complex)
    for c in range(4):
        ring = dense_oracle.cnot_matrix(c, (c + 1) % 4, 4) @ ring

    def image(s: int) -> int:
        return int(np.argmax(np.abs(dense_oracle.pauli_vector(ring.conj().T @ strings[s] @ ring, strings))))

    def support(s: int) -> tuple[bool, ...]:
        return tuple((s >> 2 * k) & 3 != 0 for k in range(4))

    cones = []
    for q in range(4):
        supports = {support(image(p * 4**q)) for p in (1, 2, 3)}
        cones.append(sorted(image(s) for s in range(256) if support(s) in supports))
    return cones


class TestKernelAgainstOracle:
    def test_each_transfer_column_matches_the_dense_observable(self):
        # each column holds the Pauli coefficients of U^dag Z_q U for the
        # oracle's two layers U, at the angles and at each shifted angle the
        # kernel builds a column for; a layer-2 shift leaves the other
        # qubits' observables as they are, and a slot-2 shift all four, so
        # those rows share the unshifted columns (the columns with a digit
        # open regroup the unshifted ones; the encoding rows check them)
        rng = np.random.default_rng(41)
        for _ in range(3):
            angles = rng.uniform(-np.pi, np.pi, size=(2, 4, 3))
            by_low, blocks, _ = _observables(angles.tobytes())
            base = unshifted_columns(by_low)
            np.testing.assert_allclose(base, dense_observables(angles), rtol=0, atol=1e-13)
            halves = shifted_columns(blocks)
            for j, sign in enumerate((1.0, -1.0)):
                for k in range(12):
                    np.testing.assert_allclose(
                        halves[:, j, k], dense_observables(shifted_angles(angles, k, sign)),
                        rtol=0, atol=1e-13, err_msg=f"layer 1, angle {k}, shift {sign:+}")
                for qubit in range(4):
                    for slot in range(3):
                        want = dense_observables(shifted_angles(angles, 12 + 3 * qubit + slot, sign))
                        got = base.copy()
                        if slot < 2:
                            got[:, qubit] = halves[:, j, 12 + slot, qubit]
                        np.testing.assert_allclose(
                            got, want, rtol=0, atol=1e-13,
                            err_msg=f"layer 2, qubit {qubit}, slot {slot}, shift {sign:+}")

    def test_observables_vanish_off_each_light_cone(self):
        # the cones the kernel derives from its ring constants are those of
        # the dense ring, 117, 45, 117 and 108 strings; every observable of
        # <Z_q> the kernel contracts, unshifted or with one angle shifted,
        # is rounding residue off S_q, and the cached block holds it on S_q
        cones = dense_light_cones()
        assert [list(cone) for cone in qvuln.vqc._CONES] == cones
        assert [len(cone) for cone in cones] == [117, 45, 117, 108]
        rng = np.random.default_rng(43)
        for _ in range(2):
            angles = rng.uniform(-np.pi, np.pi, size=(2, 4, 3))
            blocks = _observables(angles.tobytes())[1]
            # layer 1's 12 angles, then layer 2's slot 0 and 1 on qubit q
            for j, sign in enumerate((1.0, -1.0)):
                for k in range(14):
                    for q, (cone, block) in enumerate(zip(cones, blocks)):
                        flat = k if k < 12 else 3 * q + k
                        want = dense_observables(shifted_angles(angles, flat, sign))[:, q]
                        off = np.delete(want, cone)
                        assert np.abs(off).max() <= 1e-15, (k, sign, q)
                        np.testing.assert_allclose(block[:, 14 * j + k], want[cone], rtol=0, atol=1e-13,
                                                   err_msg=f"angle {k}, shift {sign:+}, Z_{q}")
            base = dense_observables(angles)
            for q, cone in enumerate(cones):
                assert np.abs(np.delete(base[:, q], cone)).max() <= 1e-15

    @pytest.mark.parametrize("a", [0.0, 1e-8, -1e-8, 1.0, -1.0, 1e8, -1e8, 1e100, -1e100,
                                   1e300, -1e300])
    def test_bloch_vectors_match_the_qsim_encoding(self, a):
        # the closed-form Bloch vector (1, <X>, <Y>, <Z>) of H, RY(arctan a),
        # RZ(arctan a^2) on |0>, against qsim's gates; it stays finite where
        # a^4 (from 1e77) and a^2 (from 1e154) overflow, with no
        # floating-point warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r, cy, _ = _bloch(np.full((4, 1), a))
        assert np.all(np.isfinite(r)) and np.all(np.isfinite(cy))
        # arctan(a^2) = arctan2(1, (1/a)^2) for a != 0, without forming a^2
        z = np.arctan2(1.0, (1.0 / a) ** 2) if a else 0.0
        state = init_state(1)
        for gate in (h(0), ry(np.arctan(a), 0), rz(z, 0)):
            apply_gate(state, gate)
        zero, one = state.amplitudes
        cross = np.conj(zero) * one
        want = [1.0, 2 * cross.real, 2 * cross.imag, abs(zero) ** 2 - abs(one) ** 2]
        for q in range(4):
            np.testing.assert_allclose(r[:, q, 0], want, rtol=0, atol=1e-15)
        np.testing.assert_allclose(cy[:, 0], np.cos(np.arctan(a)), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [8, 16, 128])
    def test_identity_digit_rows_are_the_other_qubits_products(self, n, monkeypatch):
        # the encoding rows read each qubit k's partial products from the
        # Pauli vector's strings whose digit on k is I; those rows equal the
        # Kronecker product of the other three qubits' Bloch vectors, in the
        # kernel's pairs (qubits 3, 2 and 1, 0), bit for bit, as long as
        # `_bloch` writes exactly 1.0 as every identity component
        rng = np.random.default_rng(49)
        a = rng.uniform(-3, 3, size=(4, n))
        a[:, :5] = [0.0, 1e8, -1e8, 1e300, -1e300]
        a[:, 5] = [0.0, -1e300, 1e8, -1e8]
        seen = []
        encoding_rows = qvuln.vqc._encoding_rows

        def spy(r, cy, pauli, a, open_):
            seen.append(pauli)
            return encoding_rows(r, cy, pauli, a, open_)

        monkeypatch.setattr(qvuln.vqc, "_encoding_rows", spy)
        r, cy, _ = _bloch(a)
        _gradient_rows(random_params(rng, 4), a, r, cy)
        (pauli,) = seen
        assert pauli.shape == (256, n)

        def kron(u, v):
            return (u[:, None] * v[None, :]).reshape(-1, n)

        q = r.transpose(1, 0, 2)  # (qubit, component, n)
        high, low = kron(q[3], q[2]), kron(q[1], q[0])
        others = [kron(high, q[1]), kron(high, q[0]), kron(q[3], low), kron(q[2], low)]
        digits = np.arange(256)[:, None] // 4 ** np.arange(4) % 4  # (string, qubit)
        for k in range(4):
            assert pauli[digits[:, k] == 0].tobytes() == others[k].tobytes(), f"qubit {k}"

    def test_gradient_rows_match_dense_oracle_row_by_row(self):
        # every value of a sample's 65 <Z> rows that the kernel forms (the
        # readout, the 16 encoding-shifted rows and the 112 shifted
        # columns) against the oracle's circuit at that row's shifted
        # encoding or variational angles; a layer-2 column is its own
        # qubit's <Z_q>
        rng = np.random.default_rng(47)
        params = random_params(rng, 3)
        a = rng.uniform(-3, 3, size=(4, 3))  # 3 samples
        readout, e_enc, shifted = _gradient_rows(params, a, *_bloch(a)[:2])
        assert readout.shape == (3, 4) and e_enc.shape == (4, 3, 4, 4) and shifted.shape == (3, 112)
        enc = np.concatenate([np.arctan(a), np.arctan(a * a)])  # 4 RY then 4 RZ angles
        # (sample, sign, layer-1 angle then layer-2 slot 0 and 1, q)
        halves = shifted.reshape(3, 2, 14, 4)

        def expectations(encoding: np.ndarray, angles: np.ndarray) -> np.ndarray:
            state = dense_oracle.encode_angles(encoding[:4], encoding[4:])
            return dense_oracle.layer_expectations(state, angles)

        for j in range(3):
            np.testing.assert_allclose(readout[j], expectations(enc[:, j], params.angles),
                                       rtol=0, atol=1e-13, err_msg=f"sample {j}")
            for s, sign in enumerate((1.0, -1.0)):
                for k in range(8):  # RY of qubit k, then RZ of qubit k - 4
                    want = expectations(shifted_angles(enc[:, j], k, sign), params.angles)
                    np.testing.assert_allclose(
                        e_enc[k % 4, j, 2 * (k // 4) + s], want, rtol=0, atol=1e-13,
                        err_msg=f"sample {j}, encoding slot {k}, shift {sign:+}")
                for k in range(12):
                    want = expectations(enc[:, j], shifted_angles(params.angles, k, sign))
                    np.testing.assert_allclose(
                        halves[j, s, k], want, rtol=0, atol=1e-13,
                        err_msg=f"sample {j}, layer-1 angle {k}, shift {sign:+}")
                for q in range(4):
                    for slot in range(2):
                        angles = shifted_angles(params.angles, 12 + 3 * q + slot, sign)
                        np.testing.assert_allclose(
                            halves[j, s, 12 + slot, q], expectations(enc[:, j], angles)[q], rtol=0,
                            atol=1e-13, err_msg=f"sample {j}, qubit {q}, slot {slot}, shift {sign:+}")


class TestEvalCounter:
    def test_forward_counts_one(self):
        counter = EvalCounter()
        vqc_forward(manual_params(), np.zeros(4), counter)
        assert counter.count == 1

    def test_gradients_count_sixty_five(self):
        # 32 rotation slots, two shifted rows each, plus one unshifted row
        rng = np.random.default_rng(12)
        params = random_params(rng, 4)
        counter = EvalCounter()
        vqc_gradients(params, np.ones(4), np.ones(4), counter)
        assert counter.count == 65


class TestBatch:
    def test_rows_match_single_calls(self):
        rng = np.random.default_rng(21)
        for d_in, batch in ((4, 1), (3, 6), (9, 16)):
            params = random_params(rng, d_in)
            x = rng.uniform(-2, 2, size=(batch, d_in))
            upstream = rng.uniform(-1, 1, size=(batch, 4))
            counter = EvalCounter()
            values = vqc_forward(params, x, counter)
            grads, dx = vqc_gradients(params, x, upstream, counter)
            assert values.shape == (batch, 4) and dx.shape == (batch, d_in)
            assert counter.count == batch * (1 + 65)

            summed = {name: np.zeros_like(arr) for name, arr in grads.tree().items()}
            for b in range(batch):
                row_values = vqc_forward(params, x[b])
                np.testing.assert_allclose(values[b], row_values, rtol=0, atol=1e-13)
                row_grads, row_dx = vqc_gradients(params, x[b], upstream[b])
                np.testing.assert_allclose(dx[b], row_dx, rtol=0, atol=1e-13)
                for name, arr in row_grads.tree().items():
                    summed[name] += arr
            for name, arr in grads.tree().items():
                np.testing.assert_allclose(arr, summed[name], rtol=0, atol=1e-13, err_msg=name)

    @pytest.mark.parametrize("n", [1, 2, 31, 33, 34, 65, 70])
    def test_rows_do_not_depend_on_the_product_size(self, n):
        # a sample's rows have the same bits in a product of n samples as in
        # one of 70, first or last in it: a QLSTM backward forms several
        # steps' rows in one product and gives each step views of its own;
        # at n = 1, numpy would form an unpadded product as a matrix-vector one
        rng = np.random.default_rng(50 + n)
        params = random_params(rng, 6)
        x = rng.uniform(-2, 2, size=(70, 6))
        whole = vqc_rows(params, x)
        for start in (0, 70 - n):
            part = vqc_rows(params, x[start:start + n])
            for name in ("readout", "enc", "var"):
                np.testing.assert_array_equal(getattr(part, name),
                                              getattr(whole.samples(start, start + n), name), name)


class TestInit:
    def test_shapes_and_ranges(self):
        rng = np.random.default_rng(42)
        params = init_vqc_params(6, rng)
        assert params.in_proj.shape == (4, 6)
        assert params.d_in == 6
        assert np.all(params.bias == 0)
        assert params.angles.shape == (2, 4, 3)
        k = 1.0 / np.sqrt(6)
        assert np.all(np.abs(params.in_proj) <= k)
        assert np.all(np.abs(params.angles) <= 0.1 * np.pi)
        assert float(params.out_scale) == 1.0
        assert float(params.out_shift) == 0.0

    def test_seeded_reproducibility(self):
        a = init_vqc_params(4, np.random.default_rng(9))
        b = init_vqc_params(4, np.random.default_rng(9))
        for name, arr in a.tree().items():
            assert np.array_equal(arr, b.tree()[name])

    def test_zeros_like(self):
        # a zero gradient: the block's layout on a zero vector
        params = laid_out(init_vqc_params(3, np.random.default_rng(1)))
        zeros = laid_out(params, np.zeros(params.vector.size))
        for arr in zeros.tree().values():
            assert np.all(arr == 0)
        assert zeros.in_proj.shape == params.in_proj.shape
