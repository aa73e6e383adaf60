"""Pauli-basis decomposition of two- and three-qubit states.

The three-qubit coefficient tensor is theta[i, j, k] = tr(rho s_i x s_j x s_k)
with s_0 the identity and s_1, s_2, s_3 the standard Pauli matrices. Parseval
identities link sums of squared coefficients to reduced-state purities.

Every nonzero entry of a Pauli string is +-1 or +-i, so the real and the
imaginary part of each term rho[c, r] P[r, c] of tr(rho P) is plus or minus
the real or the imaginary part of one entry of rho. The traces are one gather
from rho and -rho viewed as floats, then a sum over the terms in column order;
the same gather can add up entries of rho too, such as those of a reduced state.
"""

from __future__ import annotations

import math

import numpy as np

from .states import HERM_TOL

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

# the 8 columns of a Pauli string pair up by Hermitian conjugation, so
# |Im tr(rho P)| <= 4 max|rho - rho^+|; the factor 2 on top is rounding headroom
_IMAG_TOL = 8 * HERM_TOL


def _signed(rho: np.ndarray) -> np.ndarray:
    """The floats of [rho, -rho, 0], each d x d matrix of a complex stack
    flattened, float axis first: (4 d^2 + 2, ...).

    Float 2e is the real and 2e + 1 the imaginary part of flat entry e,
    2 d^2 further on lies its negative, and 4 d^2 is an exact zero.
    """
    d2 = rho.shape[-1] ** 2
    out = np.zeros(rho.shape[:-2] + (2 * d2 + 1,), dtype=complex)
    out[..., :d2] = rho.reshape(rho.shape[:-2] + (d2,))
    signed = out.view(float)
    np.negative(signed[..., :2 * d2], out=signed[..., 2 * d2:4 * d2])
    return signed.transpose((-1,) + tuple(range(signed.ndim - 1)))


def _gather_table(strings: np.ndarray) -> np.ndarray:
    """Float indices into _signed(rho) of the real and imaginary part of every
    trace term: (2, d, strings).

    Each Pauli string has one nonzero entry per column c, in row r(c), so
    tr(rho P) = sum_c rho[c, r(c)] P[r(c), c]. With P = +-1 the term is
    +-(re + i im) of that entry; with P = +-i it is +-(-im + i re).
    """
    d = strings.shape[-1]
    rows = np.argmax(strings != 0, axis=1)
    values = np.take_along_axis(strings, rows[:, None, :], axis=1)[:, 0, :]
    re = 2 * (np.arange(d) * d + rows)  # float index of re rho[c, r(c)]
    one = values.imag == 0  # P[r(c), c] is +-1, else +-i
    negative = 2 * d * d  # offset of -rho
    table = np.stack([
        np.where(one, re, re + 1) + negative * np.where(one, values.real < 0, values.imag > 0),
        np.where(one, re + 1, re) + negative * np.where(one, values.real < 0, values.imag < 0),
    ])
    return table.transpose(0, 2, 1)


def _trace_table(d: int, entries: np.ndarray | None = None) -> np.ndarray:
    """Float indices into _signed(rho) of the terms that _traces adds: (d, sums).

    The sums are the real parts of the d^2 Pauli traces, a zero, the
    imaginary parts of the traces, then the real parts and after them the
    imaginary parts of the entry sums sum_t rho.flat[entries[e, t]], each of
    at most d terms. Flat index d^2 stands for a zero, which also pads the
    shorter sums.
    """
    real, imag = _gather_table({4: PAULI2, 8: PAULI3}[d])
    zero = 4 * d * d
    sums = [real, np.full((d, 1), zero), imag]
    if entries is not None:
        terms = np.pad(entries, ((0, 0), (0, d - entries.shape[1])), constant_values=d * d).T
        pad = terms == d * d
        sums += [np.where(pad, zero, 2 * terms), np.where(pad, zero, 2 * terms + 1)]
    return np.concatenate(sums, axis=1)


_TRACE_TABLE = {d: _trace_table(d) for d in (4, 8)}


def _traces(signed: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sums of a _trace_table over the floats _signed(rho) of a complex
    stack rho, sum axis first: theta, the d^2 Pauli coefficients followed by
    a zero, and the entry sums.

    Raises ValueError where rho has a NaN or an infinite entry, and where a
    trace has an imaginary part above _IMAG_TOL, which neither a Hermitian
    rho nor one within HERM_TOL of it has.
    """
    # a gather and a sum, not a BLAS product, whose blocking (and so rounding)
    # would depend on how many states are stacked; the term axis is outermost
    # in memory, so numpy adds it slab by slab, left to right, not pairwise
    s = len(table) ** 2
    vals = np.add.reduce(signed.take(table, axis=0), axis=0)
    worst = float(np.abs(vals[s + 1:2 * s + 1]).max(initial=0.0))
    # every float of rho is a term of a real or an imaginary part of a trace, so a
    # NaN or an infinity in rho leaves worst or the real parts' largest magnitude
    # non-finite (their sum could meet inf - inf)
    if not math.isfinite(worst + float(np.abs(vals[:s]).max(initial=0.0))):
        raise ValueError("non-finite input: NaN or infinity in a Pauli trace")
    if worst > _IMAG_TOL:
        raise ValueError(f"non-Hermitian input: Pauli trace imaginary part {worst:.3e}")
    return vals[:s + 1], vals[2 * s + 1:]


def pauli_tensor(rho: np.ndarray) -> np.ndarray:
    """All 64 coefficients of an 8x8 state as a real (4, 4, 4) array.

    A stack of states (..., 8, 8) gives (..., 4, 4, 4); each state's
    coefficients are bit-identical to those it gets on its own.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (8, 8):
        raise ValueError(f"expected an 8x8 density matrix, got {rho.shape}")
    theta = _traces(_signed(rho), _TRACE_TABLE[8])[0][:64]
    return np.moveaxis(theta, 0, -1).reshape(rho.shape[:-2] + (4, 4, 4))


def pauli_tensor_pair(rho2: np.ndarray) -> np.ndarray:
    """All 16 coefficients of a 4x4 state as a real (4, 4) array."""
    rho2 = np.asarray(rho2, dtype=complex)
    if rho2.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got {rho2.shape}")
    return _traces(_signed(rho2), _TRACE_TABLE[4])[0][:16].reshape(4, 4)


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
