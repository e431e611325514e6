"""Reference dense-matrix simulator: builds explicit 2^n x 2^n operators and
multiplies full matrices, sharing no code with the package under test."""
from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)


def ry_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rx_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def rz_matrix(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def on_qubit(gate_2x2: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    """Embed a 1-qubit operator; qubit 0 is the least-significant basis bit,
    so the Kronecker product runs from the most-significant factor down."""
    full = np.eye(1, dtype=complex)
    for k in range(n_qubits - 1, -1, -1):
        full = np.kron(full, gate_2x2 if k == qubit else I2)
    return full


def cnot_matrix(control: int, target: int, n_qubits: int) -> np.ndarray:
    dim = 1 << n_qubits
    m = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        m[b ^ (((b >> control) & 1) << target), b] = 1
    return m


def pauli_strings(n_qubits: int = 4) -> np.ndarray:
    """The (4^n, 2^n, 2^n) Pauli strings: string s has digit (s // 4^k) % 4
    on qubit k, 0..3 for I, X, Y, Z."""
    paulis = (I2, X, Y, Z)
    strings = []
    for s in range(4**n_qubits):
        full = np.eye(1 << n_qubits, dtype=complex)
        for k in range(n_qubits):
            full = on_qubit(paulis[(s >> (2 * k)) & 3], k, n_qubits) @ full
        strings.append(full)
    return np.array(strings)


def pauli_vector(op: np.ndarray, strings: np.ndarray) -> np.ndarray:
    """The real coefficients c of a Hermitian op = sum_s c_s P_s over
    `pauli_strings`, c_s = Tr(P_s op) / 2^n."""
    return np.real(np.einsum("sab,ba->s", strings, op)) / op.shape[0]


def z_expectation(state: np.ndarray, qubit: int, n_qubits: int) -> float:
    return float(np.real(state.conj() @ on_qubit(Z, qubit, n_qubits) @ state))


def encode_state(a: np.ndarray) -> np.ndarray:
    """The 4-qubit data-loading stage: H, RY(arctan a_q), RZ(arctan a_q^2)."""
    return encode_angles(np.arctan(a), np.arctan(np.asarray(a) ** 2))


def encode_angles(enc_ry: np.ndarray, enc_rz: np.ndarray) -> np.ndarray:
    """H, then RY(enc_ry[q]), then RZ(enc_rz[q]) on every qubit q of |0000>."""
    state = np.zeros(16, dtype=complex)
    state[0] = 1
    for q in range(4):
        state = on_qubit(H, q, 4) @ state
    for q in range(4):
        state = on_qubit(ry_matrix(enc_ry[q]), q, 4) @ state
    for q in range(4):
        state = on_qubit(rz_matrix(enc_rz[q]), q, 4) @ state
    return state


def circuit_expectations(a: np.ndarray, var_angles: np.ndarray) -> np.ndarray:
    """Full block: encoding, then two entangling layers, each a CNOT ring
    0->1,1->2,2->3,3->0 followed by per-qubit RZ, RY, RZ rotations."""
    return layer_expectations(encode_state(a), var_angles)


def layer_expectations(state: np.ndarray, var_angles: np.ndarray) -> np.ndarray:
    """The two entangling layers on an encoded state, then <Z_q> per qubit."""
    for layer in range(2):
        for c in range(4):
            state = cnot_matrix(c, (c + 1) % 4, 4) @ state
        for q in range(4):
            state = on_qubit(rz_matrix(var_angles[layer, q, 0]), q, 4) @ state
        for q in range(4):
            state = on_qubit(ry_matrix(var_angles[layer, q, 1]), q, 4) @ state
        for q in range(4):
            state = on_qubit(rz_matrix(var_angles[layer, q, 2]), q, 4) @ state
    return np.array([z_expectation(state, q, 4) for q in range(4)])
