"""Building, checking and serializing one-, two-, and three-qubit states.

Index convention: the leftmost ket label is the most significant bit, so
|abc> sits at amplitude index 4a + 2b + c. Qubit A is the leftmost (most
significant) qubit everywhere in this package.

States are plain numpy arrays: pure states are complex vectors of length
2**q, density matrices are (2**q, 2**q) complex arrays with q in {1, 2, 3}.
Reduced states and purities (partial_trace, permute_qubits, purity,
purity_deficit) live in steering, beside the kernel that reproduces them.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = [
    "ghz_state",
    "w_state",
    "schmidt_points",
    "schmidt_state",
    "density_from_pure",
    "validate_state",
    "state_to_payload",
    "state_from_payload",
]

HERM_TOL = 1e-12  # |rho - rho^+| entries: ~1e-16 rounding per amplitude product, 1e4 headroom
TRACE_TOL = 1e-12  # |tr rho - 1|: a sum of eight ~1e-16-rounded diagonal entries, 1e3 headroom
EIG_TOL = 1e-9  # negative eigenvalue still taken as 0: eigvalsh error ~1e-15, payload rounding ~1e-12
# validate_state's (HERM_TOL, TRACE_TOL, EIG_TOL) by profile name, as `qsteer analyze --tolerance-profile` takes it
TOLERANCE_PROFILES = {
    "default": (HERM_TOL, TRACE_TOL, EIG_TOL),
    "strict": (1e-13, 1e-13, 1e-12),
    "loose": (1e-9, 1e-9, 1e-6),
}
SPHERE_TOL = 1e-9  # |x^2 + y^2 + z^2 + h^2 - 1| a Schmidt point may have; schmidt_state divides by the norm


def schmidt_points(p) -> np.ndarray:
    """Schmidt coordinates (x, y, z, h) as floats, a (4,) point or an (n, 4)
    stack (another shape raises a ValueError naming it), under the one rule of
    a family point: each row finite and nonnegative, |x^2 + y^2 + z^2 + h^2 - 1|
    <= SPHERE_TOL. The first row that breaks it raises a ValueError printing its plain floats."""
    p = np.asarray(p, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] != 4:
        raise ValueError(f"expected a (4,) Schmidt point or an (n, 4) stack of them, got shape {p.shape}")
    rows = np.atleast_2d(p)
    res = np.abs(ordered_sum(rows * rows) - 1.0)
    bad = (rows < 0).any(axis=1) | ~(res <= SPHERE_TOL)  # ~(<=) flags NaN
    if bad.any():
        i = bad.argmax()
        if not (np.isfinite(rows[i]).all() and rows[i].min() >= 0):
            raise ValueError(f"Schmidt coordinates must be finite and nonnegative, got {tuple(rows[i].tolist())}")
        raise ValueError(f"Schmidt coordinates off the unit sphere by {res[i]:.3e}")
    return p


def _check_integers(config, low: int, *names: str) -> None:
    """Raise a TypeError naming the first field in names that is not an integer
    (numpy's are, a bool is not), or a ValueError naming the first below low."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):  # bool subclasses int
            raise TypeError(f"{name} must be an integer, got {value!r}")
        if value < low:
            raise ValueError(f"{name} must be >= {low}")


def ghz_state(theta) -> np.ndarray:
    """Generalized GHZ state sin(theta)|000> + cos(theta)|111>; an array of
    angles gives a (..., 8) stack of states."""
    theta = np.asarray(theta, dtype=float)
    psi = np.zeros(theta.shape + (8,), dtype=complex)
    psi[..., 0] = np.sin(theta)
    psi[..., 7] = np.cos(theta)
    return psi


def w_state(theta, alpha) -> np.ndarray:
    """Generalized W state.

    sin(theta)sin(alpha)|100> + sin(alpha)cos(theta)|010> + cos(alpha)|001>;
    arrays of angles broadcast and give a (..., 8) stack of states.
    """
    theta, alpha = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(alpha, dtype=float))
    psi = np.zeros(theta.shape + (8,), dtype=complex)
    psi[..., 4] = np.sin(theta) * np.sin(alpha)
    psi[..., 2] = np.sin(alpha) * np.cos(theta)
    psi[..., 1] = np.cos(alpha)
    return psi


def schmidt_state(p) -> np.ndarray:
    """Pure state x|000> + y|100> + z|101> + h|110> from sphere coordinates
    that schmidt_points accepts, divided by their norm; an (n, 4) stack of
    coordinates gives an (n, 8) stack of states, each row the bits of its
    point alone."""
    p = schmidt_points(p)
    psi = np.zeros(p.shape[:-1] + (8,), dtype=complex)
    psi[..., [0, 4, 5, 6]] = p / np.sqrt(ordered_sum(p * p))[..., None]
    return psi


def density_from_pure(psi: np.ndarray) -> np.ndarray:
    """Rank-1 density matrix |psi><psi|; a stack of vectors gives a stack of matrices."""
    psi = np.asarray(psi, dtype=complex)
    return psi[..., :, None] * psi[..., None, :].conj()


def ordered_sum(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum over an axis, the last by default, adding the terms in order.

    numpy's reductions pick their summation order by array shape, so a state
    summed alone and inside a stack can differ in the last bit; the running
    sum of np.add.accumulate is computed elementwise and does not.
    """
    if not x.shape[axis]:  # no terms: the empty sum, 0.0
        return np.add.reduce(x, axis=axis)
    return np.add.accumulate(x, axis=axis).take(-1, axis=axis)


def validate_state(rho: np.ndarray, profile: str = "default") -> dict:
    """Check Hermiticity, unit trace, and positivity of a square matrix under
    the tolerances of one of TOLERANCE_PROFILES.

    Returns {"dim", "hermiticity_residual", "trace_residual",
    "min_eigenvalue", "passed"}. A matrix with a NaN or an infinite entry
    fails, with hermiticity_residual and min_eigenvalue NaN.
    """
    if profile not in TOLERANCE_PROFILES:
        raise ValueError(f"unknown tolerance profile {profile!r}: choose from {', '.join(TOLERANCE_PROFILES)}")
    herm_tol, trace_tol, eig_tol = TOLERANCE_PROFILES[profile]
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    if not rho.size:  # numpy's maximum has no identity to reduce an empty matrix to
        raise ValueError(f"expected a nonempty matrix, got shape {rho.shape}")
    rho_h = rho.conj().T
    # an infinity would meet inf - inf in rho - rho^+, and eigvalsh fails on a non-finite entry
    finite = bool(np.isfinite(rho).all())
    herm = float(np.abs(rho - rho_h).max()) if finite else math.nan
    tr = float(abs(rho.trace() - 1.0))
    min_eig = float(np.linalg.eigvalsh((rho + rho_h) / 2.0)[0]) if finite else math.nan
    return {
        "dim": rho.shape[0],
        "hermiticity_residual": herm,
        "trace_residual": tr,
        "min_eigenvalue": min_eig,
        "passed": herm <= herm_tol and tr <= trace_tol and min_eig >= -eig_tol,
    }


def state_to_payload(state: np.ndarray) -> dict:
    """JSON-serializable payload for a pure state vector or density matrix.

    Pure: {"qubits": q, "kind": "pure", "amplitudes": [[re, im], ...]}
    Mixed: {"qubits": q, "kind": "mixed", "matrix": [[[re, im], ...], ...]}
    Row-major, most-significant-qubit-first indexing.
    """
    arr = np.asarray(state, dtype=complex)
    q = arr.shape[0].bit_length() - 1 if arr.ndim else 0  # the largest 2^q <= the leading length
    if arr.ndim == 1:
        if q not in (1, 2, 3) or arr.size != 2**q:
            raise ValueError(f"amplitude vector length {arr.size} is not 2^q for q in 1..3")
        amps = [[float(a.real), float(a.imag)] for a in arr]
        return {"qubits": q, "kind": "pure", "amplitudes": amps}
    if q not in (1, 2, 3) or arr.shape != (2**q, 2**q):
        raise ValueError(f"matrix shape {arr.shape} is not 2^q x 2^q for q in 1..3")
    mat = [[[float(v.real), float(v.imag)] for v in row] for row in arr]
    return {"qubits": q, "kind": "mixed", "matrix": mat}


def _pairs_to_complex(value, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Complex array of `shape` from nested lists of finite [re, im] numbers.
    A boolean is no number, though np.array reads true as 1 beside numbers."""
    try:
        arr = np.array(value)
    except (TypeError, ValueError) as exc:  # ragged nesting
        raise ValueError(f"malformed {what}: {exc}") from None
    numbers = arr.shape == shape + (2,) and arr.dtype.kind in "iuf"
    if numbers:
        flat = value
        for _ in shape:  # rows of the checked shape, one nesting level per axis
            flat = itertools.chain.from_iterable(flat)
        numbers = {bool, np.bool_}.isdisjoint(map(type, flat))
    if not numbers:
        dims = "x".join(map(str, shape))
        raise ValueError(f"expected {what} as {dims} [re, im] number pairs")
    arr = np.ascontiguousarray(arr, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"non-finite number in {what}")
    return arr.view(complex)[..., 0]


def state_from_payload(payload: dict) -> np.ndarray:
    """Parse the JSON state payload back into a density matrix.

    Raises ValueError on schema or dimension problems, including non-list
    rows, non-numeric or non-finite (NaN, Infinity) entries and a qubit count
    that is not an integer 1, 2 or 3. Pure payloads are converted to rank-1
    density matrices. Validity of the state itself (norm, positivity) is the
    caller's concern via validate_state.
    """
    if not isinstance(payload, dict):
        raise ValueError("state payload must be a JSON object")
    q = payload.get("qubits")
    kind = payload.get("kind")
    if isinstance(q, bool) or not isinstance(q, int) or q not in (1, 2, 3):
        raise ValueError(f"unsupported qubit count {q!r}")
    d = 2**q
    if kind == "pure":
        return density_from_pure(_pairs_to_complex(payload.get("amplitudes"), (d,), "amplitudes"))
    if kind == "mixed":
        return _pairs_to_complex(payload.get("matrix"), (d, d), "matrix")
    raise ValueError(f"unknown state kind {kind!r}")
