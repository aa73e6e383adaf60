"""Construction and manipulation of one-, two-, and three-qubit states.

Index convention: the leftmost ket label is the most significant bit, so
|abc> sits at amplitude index 4a + 2b + c. Qubit A is the leftmost (most
significant) qubit everywhere in this package.

States are plain numpy arrays: pure states are complex vectors of length
2**q, density matrices are (2**q, 2**q) complex arrays with q in {1, 2, 3}.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "ghz_state",
    "w_state",
    "schmidt_points",
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

_QUBIT_NAMES = {"A": 0, "B": 1, "C": 2}


def schmidt_points(p) -> np.ndarray:
    """Schmidt coordinates (x, y, z, h) as floats, a (4,) point or an (n, 4)
    stack, under the one rule of a family point: each row finite and
    nonnegative, with |x^2 + y^2 + z^2 + h^2 - 1| <= SPHERE_TOL. The first
    row that breaks it raises a ValueError that prints its plain floats."""
    p = np.asarray(p, dtype=float)
    rows = np.atleast_2d(p)
    res = np.abs(ordered_sum(rows * rows) - 1.0)
    bad = (rows < 0).any(axis=1) | ~(res <= SPHERE_TOL)  # ~(<=) flags NaN
    if bad.any():
        i = bad.argmax()
        if not (np.isfinite(rows[i]).all() and rows[i].min() >= 0):
            raise ValueError(f"Schmidt coordinates must be finite and nonnegative, got {tuple(rows[i].tolist())}")
        raise ValueError(f"Schmidt coordinates off the unit sphere by {res[i]:.3e}")
    return p


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
    return np.add.accumulate(x, axis=axis).take(-1, axis=axis)


def _trace_terms(keep: tuple[int, ...]) -> np.ndarray:
    """Flat 8x8 indices of the terms of each reduced-state entry: (d, d, terms)."""
    out, qubits = np.arange(64).reshape((2,) * 6), 3
    for q in sorted({0, 1, 2} - set(keep), reverse=True):  # row axis q, column axis qubits + q
        out = out.diagonal(axis1=q, axis2=qubits + q)
        qubits -= 1
    d = 2 ** len(keep)
    return out.reshape(d, d, -1)


# keys are the subsystems partial_trace can keep, as sorted qubit indices
_TRACE_TERMS = {k: _trace_terms(k) for k in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2))}


def _as_qubit_tensor(rho: np.ndarray) -> np.ndarray:
    if rho.shape != (8, 8):
        raise ValueError(f"expected an 8x8 three-qubit density matrix, got {rho.shape}")
    return rho.reshape(2, 2, 2, 2, 2, 2)


def partial_trace(rho: np.ndarray, keep) -> np.ndarray:
    """Reduced state of a three-qubit density matrix.

    `keep` is a subset of {"A","B","C"} (or qubit indices {0,1,2}); the
    remaining qubits are traced out. Result dimension is 2 or 4. A stack of
    states (..., 8, 8) gives a stack of reduced states.
    """
    idx = tuple(sorted(_QUBIT_NAMES.get(k, k) for k in keep))
    if idx not in _TRACE_TERMS:
        raise ValueError(f"invalid subsystem set {keep!r}")
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (8, 8):
        raise ValueError(f"expected an 8x8 three-qubit density matrix, got {rho.shape}")
    return ordered_sum(rho.reshape(rho.shape[:-2] + (64,))[..., _TRACE_TERMS[idx]])


def purity(rho: np.ndarray) -> float:
    """tr(rho^2)."""
    rho = np.asarray(rho)
    return float(np.real(np.einsum("ij,ji->", rho, rho)))


# deficits below this are within entry-rounding of an exactly pure marginal;
# flooring them keeps sqrt(deficit) from turning 1e-17 of matrix noise into 1e-8
DEFICIT_FLOOR = 1e-14
# _minor_sum's constants as 0-d arrays, which numpy combines with arrays faster than floats
_TWO, _FLOOR, _ZERO = np.array(2.0), np.array(DEFICIT_FLOOR), np.array(0.0)


@functools.cache
def _minor_entries(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices of rho[i, i], rho[j, j] and rho[i, j] for the i < j minors."""
    i, j = np.triu_indices(d, 1)
    return i * (d + 1), j * (d + 1), i * d + j


@functools.cache
def _minor_floats(d: int) -> np.ndarray:
    """(4, minors) indices of re rho[i, i], re rho[j, j], re rho[i, j] and
    im rho[i, j] in the flat complex matrix viewed as floats."""
    ii, jj, ij = _minor_entries(d)
    return np.stack([2 * ii, 2 * jj, 2 * ij, 2 * ij + 1])


def _minor_terms(parts: np.ndarray) -> np.ndarray:
    """The principal 2x2 minors rho_ii rho_jj - |rho_ij|^2, given parts[0:4]
    = re rho_ii, re rho_jj, re rho_ij, im rho_ij."""
    ii, jj, re, im = parts
    return ii * jj - (np.square(re) + np.square(im))


def _minor_sum(minors: np.ndarray, add=ordered_sum) -> np.ndarray:
    """Twice the sum of principal minors, added in order over the first axis,
    clamped at DEFICIT_FLOOR. add may be np.add.reduce where a non-reduced
    axis longer than 1 remains, which keeps that sum in order (same bits);
    on a (minors, 1) array the reduce adds pairwise."""
    deficit = _TWO * add(minors, axis=0)
    return np.where(deficit < _FLOOR, _ZERO, deficit)


def purity_deficit(rho: np.ndarray) -> float | np.ndarray:
    """1 - tr(rho^2) for a unit-trace matrix, clamped at 0.

    Computed as twice the sum of principal 2x2 minors, which is an exact
    identity and, unlike 1 - sum|rho_ij|^2, does not cancel catastrophically
    when rho is nearly pure. That matters because this quantity sits under a
    square root in the steering bounds. For a qubit it is 2 det(rho). A stack
    (..., d, d) gives one deficit per matrix.
    """
    rho = np.ascontiguousarray(rho, dtype=complex)
    d = rho.shape[-1]
    flat = rho.reshape(rho.shape[:-2] + (d * d,)).view(float)
    deficit = _minor_sum(_minor_terms(np.moveaxis(flat, -1, 0).take(_minor_floats(d), axis=0)))
    return float(deficit) if deficit.ndim == 0 else deficit


def _deficit_tables(subsystems) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather tables of steering_batch's deficits: those of a list of
    subsystems, each a tuple of qubit indices, then the full state's.

    terms[e] holds the flat 8x8 indices summed into reduced-state entry e, in
    partial_trace's order, padded with 64: the index of a zero appended to
    rho. The last entry is all padding, so it is exactly 0. parts is the
    _minor_terms input of every minor, as float indices into the real parts
    of the entry sums, then their imaginary parts, then the 128 floats of rho
    itself: each subsystem's principal minors in purity_deficit's order,
    rho's 28, and a zero minor read from the zero entry. Column s of rows
    lists the minors of subsystem s, padded with the zero minor to the 28 of
    rho, whose column is the last. So the deficits are
    purity_deficit(partial_trace(rho, keep)) and purity_deficit(rho) bit for
    bit: appended to a left-to-right sum, the zeros change at most the sign
    of a zero, and the DEFICIT_FLOOR clamp maps every zero to 0.0.
    """
    entries, minors = [], []
    for keep in subsystems:
        d = 2 ** len(keep)
        terms = _TRACE_TERMS[tuple(sorted(keep))].reshape(d * d, -1)
        flat = _minor_entries(d)
        used = np.unique(np.concatenate(flat))  # the d x d entries the minors read
        position = np.zeros(d * d, dtype=int)
        position[used] = len(entries) + np.arange(len(used))
        entries += [terms[f] for f in used]
        minors.append(position[np.stack(flat)])
    zero = len(entries)
    terms = np.full((zero + 1, max(len(t) for t in entries)), 64)
    for e, t in enumerate(entries):
        terms[e, :len(t)] = t
    parts = [np.stack([ii, jj, ij, len(terms) + ij]) for ii, jj, ij in minors]
    parts += [2 * len(terms) + _minor_floats(8), np.full((4, 1), zero)]
    start = np.cumsum([0] + [p.shape[1] for p in parts])
    rows = np.full((parts[-2].shape[1], len(minors) + 1), start[-2])
    for s, p in enumerate(parts[:-1]):
        rows[:p.shape[1], s] = start[s] + np.arange(p.shape[1])
    return terms, np.concatenate(parts, axis=1), rows


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
    if arr.ndim == 1:
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


def _pairs_to_complex(value, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Complex array of `shape` from nested lists of finite [re, im] numbers."""
    try:
        arr = np.array(value)
    except (TypeError, ValueError) as exc:  # ragged nesting
        raise ValueError(f"malformed {what}: {exc}") from None
    if arr.shape != shape + (2,) or arr.dtype.kind not in "iuf":
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
