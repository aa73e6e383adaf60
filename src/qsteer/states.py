"""Construction and manipulation of one-, two-, and three-qubit states.

Index convention: the leftmost ket label is the most significant bit, so
|abc> sits at amplitude index 4a + 2b + c. Qubit A is the leftmost (most
significant) qubit everywhere in this package.

States are plain numpy arrays: pure states are complex vectors of length
2**q, density matrices are (2**q, 2**q) complex arrays with q in {1, 2, 3}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "SchmidtParams",
    "StateDiagnostics",
    "ghz_state",
    "w_state",
    "schmidt_state",
    "density_from_pure",
    "partial_trace",
    "purity",
    "purity_deficit",
    "permute_qubits",
    "validate_state",
    "state_to_payload",
    "state_from_payload",
]

HERM_TOL = 1e-12
TRACE_TOL = 1e-12
EIG_TOL = 1e-9

# einsum contractions for tracing a 3-qubit state down to a subsystem;
# row indices abc, column indices def.
_PTRACE_EXPR = {
    (0,): "abcdbc->ad",
    (1,): "abcaec->be",
    (2,): "abcabf->cf",
    (0, 1): "abcdec->abde",
    (0, 2): "abcdbf->acdf",
    (1, 2): "abcaef->bcef",
}

_QUBIT_NAMES = {"A": 0, "B": 1, "C": 2}


class SchmidtParams(NamedTuple):
    """Nonnegative coordinates (x, y, z, h) on the unit 3-sphere.

    Parametrizes the pure-state family x|000> + y|100> + z|101> + h|110>.
    """

    x: float
    y: float
    z: float
    h: float

    def as_array(self) -> np.ndarray:
        return np.array(self, dtype=float)

    def constraint_residual(self) -> float:
        return abs(self.x**2 + self.y**2 + self.z**2 + self.h**2 - 1.0)

    def validate(self, tol: float = 1e-9) -> "SchmidtParams":
        if min(self) < 0:
            raise ValueError(f"Schmidt coordinates must be nonnegative, got {tuple(self)}")
        res = self.constraint_residual()
        if res > tol:
            raise ValueError(f"Schmidt coordinates off the unit sphere by {res:.3e}")
        return self


def ghz_state(theta: float) -> np.ndarray:
    """Generalized GHZ state sin(theta)|000> + cos(theta)|111>."""
    psi = np.zeros(8, dtype=complex)
    psi[0] = np.sin(theta)
    psi[7] = np.cos(theta)
    return psi


def w_state(theta: float, alpha: float) -> np.ndarray:
    """Generalized W state.

    sin(theta)sin(alpha)|100> + sin(alpha)cos(theta)|010> + cos(alpha)|001>.
    """
    psi = np.zeros(8, dtype=complex)
    psi[4] = np.sin(theta) * np.sin(alpha)
    psi[2] = np.sin(alpha) * np.cos(theta)
    psi[1] = np.cos(alpha)
    return psi


def schmidt_state(p: SchmidtParams | tuple[float, float, float, float]) -> np.ndarray:
    """Pure state x|000> + y|100> + z|101> + h|110> from sphere coordinates."""
    p = SchmidtParams(*p).validate()
    psi = np.zeros(8, dtype=complex)
    psi[0], psi[4], psi[5], psi[6] = p.x, p.y, p.z, p.h
    return psi


def density_from_pure(psi: np.ndarray) -> np.ndarray:
    """Rank-1 density matrix |psi><psi|."""
    psi = np.asarray(psi, dtype=complex).ravel()
    return np.outer(psi, psi.conj())


def _as_qubit_tensor(rho: np.ndarray) -> np.ndarray:
    if rho.shape != (8, 8):
        raise ValueError(f"expected an 8x8 three-qubit density matrix, got {rho.shape}")
    return rho.reshape(2, 2, 2, 2, 2, 2)


def partial_trace(rho: np.ndarray, keep) -> np.ndarray:
    """Reduced state of a three-qubit density matrix.

    `keep` is a subset of {"A","B","C"} (or qubit indices {0,1,2}); the
    remaining qubits are traced out. Result dimension is 2 or 4.
    """
    idx = tuple(sorted(_QUBIT_NAMES.get(k, k) for k in keep))
    if idx not in _PTRACE_EXPR:
        raise ValueError(f"invalid subsystem set {keep!r}")
    out = np.einsum(_PTRACE_EXPR[idx], _as_qubit_tensor(np.asarray(rho, dtype=complex)))
    d = 2 ** len(idx)
    return out.reshape(d, d)


def purity(rho: np.ndarray) -> float:
    """tr(rho^2)."""
    rho = np.asarray(rho)
    return float(np.real(np.einsum("ij,ji->", rho, rho)))


# deficits below this are within entry-rounding of an exactly pure marginal;
# flooring them keeps sqrt(deficit) from turning 1e-17 of matrix noise into 1e-8
DEFICIT_FLOOR = 1e-14


def purity_deficit(rho: np.ndarray) -> float:
    """1 - tr(rho^2) for a unit-trace matrix, clamped at 0.

    Computed as twice the sum of principal 2x2 minors, which is an exact
    identity and, unlike 1 - sum|rho_ij|^2, does not cancel catastrophically
    when rho is nearly pure. That matters because this quantity sits under a
    square root in the steering bounds.
    """
    rho = np.asarray(rho)
    diag = rho.diagonal().real
    gram = (rho.real**2 + rho.imag**2) if np.iscomplexobj(rho) else rho**2
    total = 0.0
    for i in range(rho.shape[0]):
        for j in range(i + 1, rho.shape[0]):
            total += diag[i] * diag[j] - gram[i, j]
    deficit = 2.0 * total
    return 0.0 if deficit < DEFICIT_FLOOR else deficit


def permute_qubits(rho: np.ndarray, perm) -> np.ndarray:
    """Relabel qubits so that qubit k of the output is qubit perm[k] of the input.

    `perm` is a permutation of ("A","B","C") or of (0,1,2); e.g. ("B","C","A")
    moves the original qubit B into the leading slot.
    """
    p = tuple(_QUBIT_NAMES.get(k, k) for k in perm)
    if sorted(p) != [0, 1, 2]:
        raise ValueError(f"invalid qubit permutation {perm!r}")
    r6 = _as_qubit_tensor(np.asarray(rho, dtype=complex))
    return r6.transpose(p + tuple(q + 3 for q in p)).reshape(8, 8)


@dataclass
class StateDiagnostics:
    """Validity report for a candidate density matrix."""

    dim: int
    hermiticity_residual: float
    trace_residual: float
    min_eigenvalue: float
    hermitian_ok: bool
    trace_ok: bool
    positive_ok: bool

    @property
    def passed(self) -> bool:
        return self.hermitian_ok and self.trace_ok and self.positive_ok

    def as_dict(self) -> dict:
        return {
            "dim": self.dim,
            "hermiticity_residual": self.hermiticity_residual,
            "trace_residual": self.trace_residual,
            "min_eigenvalue": self.min_eigenvalue,
            "passed": self.passed,
        }


def validate_state(
    rho: np.ndarray,
    herm_tol: float = HERM_TOL,
    trace_tol: float = TRACE_TOL,
    eig_tol: float = EIG_TOL,
) -> StateDiagnostics:
    """Check Hermiticity, unit trace, and positivity of a square matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    tr = float(abs(np.trace(rho) - 1.0))
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0])
    return StateDiagnostics(
        dim=rho.shape[0],
        hermiticity_residual=herm,
        trace_residual=tr,
        min_eigenvalue=min_eig,
        hermitian_ok=herm <= herm_tol,
        trace_ok=tr <= trace_tol,
        positive_ok=min_eig >= -eig_tol,
    )


def state_to_payload(state: np.ndarray, kind: str | None = None) -> dict:
    """JSON-serializable payload for a pure state vector or density matrix.

    Pure: {"qubits": q, "kind": "pure", "amplitudes": [[re, im], ...]}
    Mixed: {"qubits": q, "kind": "mixed", "matrix": [[[re, im], ...], ...]}
    Row-major, most-significant-qubit-first indexing.
    """
    arr = np.asarray(state, dtype=complex)
    if arr.ndim == 1 or kind == "pure":
        arr = arr.ravel()
        q = int(round(np.log2(arr.size)))
        if 2**q != arr.size or q not in (1, 2, 3):
            raise ValueError(f"amplitude vector length {arr.size} is not 2^q for q in 1..3")
        amps = [[float(a.real), float(a.imag)] for a in arr]
        return {"qubits": q, "kind": "pure", "amplitudes": amps}
    q = int(round(np.log2(arr.shape[0])))
    if arr.shape != (2**q, 2**q) or q not in (1, 2, 3):
        raise ValueError(f"matrix shape {arr.shape} is not 2^q x 2^q for q in 1..3")
    mat = [[[float(v.real), float(v.imag)] for v in row] for row in arr]
    return {"qubits": q, "kind": "mixed", "matrix": mat}


def state_from_payload(payload: dict) -> np.ndarray:
    """Parse the JSON state payload back into a density matrix.

    Raises ValueError on schema or dimension problems. Pure payloads are
    converted to rank-1 density matrices. Validity of the state itself
    (norm, positivity) is the caller's concern via validate_state.
    """
    if not isinstance(payload, dict):
        raise ValueError("state payload must be a JSON object")
    q = payload.get("qubits")
    kind = payload.get("kind")
    if q not in (1, 2, 3):
        raise ValueError(f"unsupported qubit count {q!r}")
    d = 2**q
    if kind == "pure":
        amps = payload.get("amplitudes")
        if not isinstance(amps, list) or len(amps) != d:
            raise ValueError(f"expected {d} amplitude pairs, got {amps if amps is None else len(amps)}")
        try:
            vec = np.array([complex(re, im) for re, im in amps])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed amplitude entry: {exc}") from None
        return density_from_pure(vec)
    if kind == "mixed":
        mat = payload.get("matrix")
        if not isinstance(mat, list) or len(mat) != d or any(len(r) != d for r in mat):
            raise ValueError(f"expected a {d}x{d} matrix of [re, im] pairs")
        try:
            rho = np.array([[complex(re, im) for re, im in row] for row in mat])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed matrix entry: {exc}") from None
        return rho
    raise ValueError(f"unknown state kind {kind!r}")
