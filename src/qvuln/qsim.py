"""Exact complex statevector simulation of few-qubit circuits.

Convention: qubit 0 is the least-significant bit of the basis index, so
basis state |q3 q2 q1 q0> = |0010> lives at index 2.  Amplitudes are
complex128 and gate application mutates the state in place over strided
index pairs.  A gate's matrix takes an array of angles too, one rotation
per angle; `vqc` builds its transfer matrices from those.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 24

ROTATION_KINDS = ("RX", "RY", "RZ")

_H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


@dataclass
class StateVector:
    """Full amplitude vector over the 2^n basis states of n qubits."""

    n_qubits: int
    amplitudes: np.ndarray

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


@dataclass(frozen=True)
class Gate:
    """One of H, RX, RY, RZ (angle in radians) or CNOT (control, target)."""

    kind: str
    targets: tuple[int, ...]
    angle: float | np.ndarray = 0.0

    def matrix(self) -> np.ndarray:
        """The gate's 2x2 (or 4x4 for CNOT) unitary; an array angle of shape
        S gives shape (2, 2, *S), one rotation per angle."""
        if self.kind == "H":
            return _H_MATRIX.copy()
        t = np.asarray(self.angle, dtype=float)
        c, s = np.cos(t / 2.0), np.sin(t / 2.0)
        if self.kind == "RX":
            return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
        if self.kind == "RY":
            return np.array([[c, -s], [s, c]], dtype=complex)
        if self.kind == "RZ":
            zero = np.zeros_like(t)
            return np.array([[np.exp(-0.5j * t), zero], [zero, np.exp(0.5j * t)]], dtype=complex)
        if self.kind == "CNOT":
            # basis order |t c>: target flips when the control bit is 1
            return np.array(
                [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
            )
        raise ValueError(f"unknown gate kind {self.kind!r}")

    def inverse(self) -> "Gate":
        if self.kind in ROTATION_KINDS:
            return Gate(self.kind, self.targets, -self.angle)
        return self  # H and CNOT are self-inverse


def h(qubit: int) -> Gate:
    return Gate("H", (qubit,))


def rx(angle: float, qubit: int) -> Gate:
    return Gate("RX", (qubit,), angle)


def ry(angle: float, qubit: int) -> Gate:
    return Gate("RY", (qubit,), angle)


def rz(angle: float, qubit: int) -> Gate:
    return Gate("RZ", (qubit,), angle)


def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", (control, target))


def init_state(n_qubits: int) -> StateVector:
    """All-zeros computational basis state |0...0>."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def _check_targets(state: StateVector, gate: Gate) -> None:
    n_expected = 2 if gate.kind == "CNOT" else 1
    if len(gate.targets) != n_expected:
        raise ValueError(f"{gate.kind} expects {n_expected} target(s), got {gate.targets}")
    if len(set(gate.targets)) != len(gate.targets):
        raise ValueError(f"{gate.kind} targets must be distinct, got {gate.targets}")
    for q in gate.targets:
        if not 0 <= q < state.n_qubits:
            raise ValueError(f"qubit index {q} out of range for {state.n_qubits} qubits")


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply `gate` to `state` in place and return the state."""
    _check_targets(state, gate)
    amps = state.amplitudes
    if gate.kind == "CNOT":
        control, target = gate.targets
        b = np.arange(amps.size)
        src = b[(((b >> control) & 1) == 1) & (((b >> target) & 1) == 0)]
        dst = src | (1 << target)
        amps[src], amps[dst] = amps[dst], amps[src]
        return state
    m = gate.matrix()
    view = amps.reshape(-1, 2, 1 << gate.targets[0])
    lo = view[:, 0].copy()
    hi = view[:, 1]
    view[:, 0] = m[0, 0] * lo + m[0, 1] * hi
    view[:, 1] = m[1, 0] * lo + m[1, 1] * hi
    return state


def expect_z(state: StateVector, qubit: int) -> float:
    """Pauli-Z expectation on one qubit: sum of |amp|^2 signed by the qubit's bit."""
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(f"qubit index {qubit} out of range for {state.n_qubits} qubits")
    view = state.amplitudes.reshape(-1, 2, 1 << qubit)
    p0 = np.sum(np.abs(view[:, 0, :]) ** 2)
    p1 = np.sum(np.abs(view[:, 1, :]) ** 2)
    return float(p0 - p1)
