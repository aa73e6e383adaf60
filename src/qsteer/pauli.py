"""Pauli-basis decomposition of two- and three-qubit states.

The three-qubit coefficient tensor is theta[i, j, k] = tr(rho s_i x s_j x s_k)
with s_0 the identity and s_1, s_2, s_3 the standard Pauli matrices. Parseval
identities link sums of squared coefficients to reduced-state purities.
"""

from __future__ import annotations

import numpy as np

from .states import ordered_sum

__all__ = [
    "PAULI",
    "pauli_tensor",
    "pauli_tensor_pair",
    "density_from_theta",
    "purity_from_theta",
]

PAULI = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

# stacked Pauli strings: PAULI3[16*i + 4*j + k] = s_i x s_j x s_k
PAULI2 = np.stack([np.kron(PAULI[i], PAULI[j]) for i in range(4) for j in range(4)])
PAULI3 = np.stack(
    [np.kron(np.kron(PAULI[i], PAULI[j]), PAULI[k])
     for i in range(4) for j in range(4) for k in range(4)]
)

_IMAG_TOL = 1e-12


def _entry_tables(strings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each Pauli string has one nonzero entry per column: tr(rho P) = sum_c
    rho[c, r(c)] P[r(c), c]. Returns the flat indices c*d + r(c) and the values."""
    d = strings.shape[-1]
    rows = np.argmax(strings != 0, axis=1)
    values = np.take_along_axis(strings, rows[:, None, :], axis=1)[:, 0, :]
    return np.arange(d) * d + rows, values


_ENTRIES = {d: _entry_tables(s) for d, s in ((4, PAULI2), (8, PAULI3))}


def _real_traces(rho: np.ndarray, d: int) -> np.ndarray:
    # a gather and an ordered sum, not a BLAS product: its blocking, and so
    # its rounding, would depend on how many states are stacked
    index, values = _ENTRIES[d]
    vals = ordered_sum(rho.reshape(rho.shape[:-2] + (d * d,))[..., index] * values)
    worst = float(np.max(np.abs(vals.imag)))
    if worst > _IMAG_TOL:
        raise ValueError(f"non-Hermitian input: Pauli trace imaginary part {worst:.3e}")
    return vals.real


def pauli_tensor(rho: np.ndarray) -> np.ndarray:
    """All 64 coefficients of an 8x8 state as a real (4, 4, 4) array.

    A stack of states (..., 8, 8) gives (..., 4, 4, 4); each state's
    coefficients are bit-identical to those it gets on its own.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (8, 8):
        raise ValueError(f"expected an 8x8 density matrix, got {rho.shape}")
    return _real_traces(rho, 8).reshape(rho.shape[:-2] + (4, 4, 4))


def pauli_tensor_pair(rho2: np.ndarray) -> np.ndarray:
    """All 16 coefficients of a 4x4 state as a real (4, 4) array."""
    rho2 = np.asarray(rho2, dtype=complex)
    if rho2.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got {rho2.shape}")
    return _real_traces(rho2, 4).reshape(4, 4)


def density_from_theta(theta: np.ndarray) -> np.ndarray:
    """Reconstruct the 8x8 state rho = (1/8) sum theta_ijk s_i x s_j x s_k."""
    theta = np.asarray(theta, dtype=float)
    return np.einsum("n,nij->ij", theta.ravel(), PAULI3) / 8.0


def purity_from_theta(theta: np.ndarray, cut: str = "full") -> float:
    """Reduced-state purity from squared Pauli coefficients.

    cut "A":   tr(rho_a^2)  = (1/2) sum_i theta[i, 0, 0]^2
    cut "BC":  tr(rho_bc^2) = (1/4) sum_jk theta[0, j, k]^2
    cut "full": tr(rho^2)   = (1/8) sum theta^2
    """
    theta = np.asarray(theta, dtype=float)
    if cut == "A":
        return float(np.sum(theta[:, 0, 0] ** 2) / 2.0)
    if cut == "BC":
        return float(np.sum(theta[0] ** 2) / 4.0)
    if cut == "full":
        return float(np.sum(theta**2) / 8.0)
    raise ValueError(f"unknown cut {cut!r}; expected 'A', 'BC', or 'full'")
