"""Statevector simulator checks against closed forms and the dense-matrix
reference implementation."""
from __future__ import annotations

import numpy as np
import pytest

from qvuln.qsim import (
    MAX_QUBITS,
    Gate,
    apply_gate,
    cnot,
    expect_z,
    h,
    init_state,
    rx,
    ry,
    rz,
)

import dense_oracle


def random_gate(rng: np.random.Generator, n_qubits: int) -> Gate:
    kinds = ("H", "RX", "RY", "RZ", "CNOT") if n_qubits > 1 else ("H", "RX", "RY", "RZ")
    kind = kinds[rng.integers(len(kinds))]
    if kind == "CNOT":
        control, target = rng.choice(n_qubits, size=2, replace=False)
        return cnot(int(control), int(target))
    q = int(rng.integers(n_qubits))
    angle = float(rng.uniform(-np.pi, np.pi))
    return {"H": h(q), "RX": rx(angle, q), "RY": ry(angle, q), "RZ": rz(angle, q)}[kind]


def apply_gate_dense(state: np.ndarray, gate: Gate, n_qubits: int) -> np.ndarray:
    if gate.kind == "CNOT":
        return dense_oracle.cnot_matrix(gate.targets[0], gate.targets[1], n_qubits) @ state
    two = {
        "H": dense_oracle.H,
        "RX": dense_oracle.rx_matrix(gate.angle),
        "RY": dense_oracle.ry_matrix(gate.angle),
        "RZ": dense_oracle.rz_matrix(gate.angle),
    }[gate.kind]
    return dense_oracle.on_qubit(two, gate.targets[0], n_qubits) @ state


class TestInitState:
    def test_single_qubit(self):
        state = init_state(1)
        assert state.amplitudes.tolist() == [1.0 + 0.0j, 0.0 + 0.0j]

    def test_four_qubits(self):
        state = init_state(4)
        assert state.amplitudes.shape == (16,)
        assert state.amplitudes[0] == 1.0 + 0.0j
        assert np.all(state.amplitudes[1:] == 0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            init_state(0)
        with pytest.raises(ValueError):
            init_state(MAX_QUBITS + 1)


class TestApplyGate:
    def test_hadamard_on_zero(self):
        state = apply_gate(init_state(1), h(0))
        np.testing.assert_allclose(state.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)

    def test_rx_pi_on_zero(self):
        state = apply_gate(init_state(1), rx(np.pi, 0))
        np.testing.assert_allclose(state.amplitudes, [0.0, -1.0j], atol=1e-15)

    def test_cnot_lsb_convention(self):
        # |q1 q0> = |01> is basis index 1; control 0 set, so target 1 flips
        state = init_state(2)
        state.amplitudes[:] = [0, 1, 0, 0]
        apply_gate(state, cnot(0, 1))
        assert state.amplitudes.tolist() == [0, 0, 0, 1]

    def test_cnot_control_zero_is_identity(self):
        state = init_state(2)
        apply_gate(state, cnot(0, 1))
        assert state.amplitudes.tolist() == [1, 0, 0, 0]

    def test_invalid_targets(self):
        state = init_state(2)
        with pytest.raises(ValueError):
            apply_gate(state, h(2))
        with pytest.raises(ValueError):
            apply_gate(state, cnot(1, 1))
        with pytest.raises(ValueError):
            apply_gate(state, cnot(0, 5))

    def test_matches_dense_reference_on_random_circuits(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            gates = [random_gate(rng, n) for _ in range(15)]
            state = init_state(n)
            for gate in gates:
                apply_gate(state, gate)
            dense = np.zeros(1 << n, dtype=complex)
            dense[0] = 1
            for gate in gates:
                dense = apply_gate_dense(dense, gate, n)
            np.testing.assert_allclose(state.amplitudes, dense, atol=1e-12)


class TestGateMatrices:
    def test_all_kinds_unitary(self):
        rng = np.random.default_rng(11)
        gates = [h(0), cnot(0, 1)] + [
            make(float(rng.uniform(-np.pi, np.pi)), 0) for make in (rx, ry, rz) for _ in range(3)
        ]
        for gate in gates:
            m = gate.matrix()
            np.testing.assert_allclose(m.conj().T @ m, np.eye(m.shape[0]), atol=1e-12)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(4)
        state = init_state(3)
        for _ in range(50):
            apply_gate(state, random_gate(rng, 3))
        for gate in [h(1), rx(0.7, 0), ry(-1.3, 2), rz(2.2, 1), cnot(2, 0)]:
            before = state.amplitudes.copy()
            apply_gate(state, gate)
            apply_gate(state, gate.inverse())
            np.testing.assert_allclose(state.amplitudes, before, atol=1e-10)


class TestExpectZ:
    def test_zero_state(self):
        assert expect_z(init_state(1), 0) == 1.0

    def test_plus_state(self):
        state = apply_gate(init_state(1), h(0))
        assert abs(expect_z(state, 0)) < 1e-12

    def test_ry_gives_cosine(self):
        for theta in (0.3, 1.2, 2.9):
            state = apply_gate(init_state(1), ry(theta, 0))
            assert abs(expect_z(state, 0) - np.cos(theta)) < 1e-12
            dense = dense_oracle.ry_matrix(theta) @ np.array([1, 0], dtype=complex)
            assert abs(dense_oracle.z_expectation(dense, 0, 1) - np.cos(theta)) < 1e-12

    def test_invariant_under_rz_on_measured_qubit(self):
        rng = np.random.default_rng(9)
        state = init_state(4)
        for _ in range(30):
            apply_gate(state, random_gate(rng, 4))
        before = [expect_z(state, q) for q in range(4)]
        for q in range(4):
            apply_gate(state, rz(float(rng.uniform(-np.pi, np.pi)), q))
        after = [expect_z(state, q) for q in range(4)]
        np.testing.assert_allclose(after, before, atol=1e-12)

    def test_qubit_out_of_range(self):
        with pytest.raises(ValueError):
            expect_z(init_state(2), 2)

    def test_basis_index_convention(self):
        # RX(pi) on qubit 1 prepares |0010> up to phase: index 2 is populated
        state = apply_gate(init_state(4), rx(np.pi, 1))
        assert abs(abs(state.amplitudes[2]) - 1.0) < 1e-12
        for q, want in [(0, 1.0), (1, -1.0), (2, 1.0), (3, 1.0)]:
            assert abs(expect_z(state, q) - want) < 1e-12


def test_norm_preserved_over_long_random_circuit():
    rng = np.random.default_rng(21)
    state = init_state(4)
    for _ in range(1000):
        apply_gate(state, random_gate(rng, 4))
    assert abs(state.norm_sq() - 1.0) < 1e-10
