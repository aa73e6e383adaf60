"""Correlation-matrix steering criteria for three-qubit states.

The steering test for a cut compares the trace norm of a covariance matrix,
built from complete sets of local orthogonal observables (LOOs), against a
purity bound. For a qubit the LOO set is {s_m / sqrt(2)}, for a qubit pair
{(s_j x s_k) / 2}; those normalizations put factors 1/(2*sqrt(2)) and 1/2 in
front of the raw Pauli covariances below. A positive H value certifies
steerability in the stated direction; S = max(H, 0) is the quantifier.

The Pauli coefficients theta[i, j, k] = tr(rho s_i x s_j x s_k), s_0 the
identity and s_1, s_2, s_3 the Pauli matrices, are one gather from rho and
-rho viewed as floats and one sum in column order (_traces): each term of a
trace is plus or minus the real or imaginary part of one entry of rho, and
that gather holds the traces alone. partial_trace and purity_deficit (twice
the sum of principal 2x2 minors) are the direct route to the purity bounds;
the kernel's deficit gather (_deficit_tables) composes their two tables,
partial_trace's terms (_TRACE_TERMS) with purity_deficit's minors
(_minor_floats), so it adds the same floats in the same order, bit for bit.

A report is one flat dict with the keys of the qsteer analyze JSON, in its
order: h_, s_, norm_ and bound_ of each cut and direction (a_bc for A->BC,
bc_to_a for BC->A, b_to_ca, and so on), H and S of the pairs (h_ab, s_ab,
...), h_tot, s_tot, margin and classification. steering_batch fills it with
one array entry per state, steering_report with floats and a str label.

The kernel calls no LAPACK routine: _trace_norms takes every cut and pair
trace norm from one modified Gram-Schmidt pass over the three rows of each
block, then two fixed-point and two Newton steps on a closed-form equation
for the sum of the singular values; trace_norm (one SVD per matrix) of
correlation_matrix is the reference route, which h_pair and the tests use.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .states import HERM_TOL, ordered_sum, validate_state

__all__ = [
    "SteeringReport",
    "correlation_matrix",
    "trace_norm",
    "h_pair",
    "pauli_tensor",
    "partial_trace",
    "permute_qubits",
    "purity",
    "purity_deficit",
    "steering_batch",
    "steering_report",
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
    # contiguous, so the gathers read whole rows; one state's transpose already is
    return np.ascontiguousarray(signed.transpose((-1,) + tuple(range(signed.ndim - 1))))


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


# float indices into _signed(rho) of the terms that _traces adds, (d, 2 d^2 + 1):
# the real parts of the d^2 Pauli traces, a zero, then their imaginary parts
_TRACE_TABLE = {d: np.concatenate((real, np.full((d, 1), 4 * d * d), imag), axis=1)
                for d, (real, imag) in ((4, _gather_table(PAULI2)), (8, _gather_table(PAULI3)))}


def _traces(signed: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The sums of _TRACE_TABLE[d] over the floats _signed(rho) of a complex
    stack rho, sum axis first: theta, the d^2 Pauli coefficients followed by
    a zero. The trace gather holds no other sums; _deficit_tables gathers
    the reduced-state entries itself.

    Raises ValueError where rho has a NaN or an infinite entry, and where a
    trace has an imaginary part above _IMAG_TOL, which neither a Hermitian
    rho nor one within HERM_TOL of it has.
    """
    # a gather and a sum, not a BLAS product, whose blocking (and so rounding)
    # would depend on how many states are stacked; the term axis is outermost
    # in memory, so numpy adds it slab by slab, left to right, not pairwise
    s = len(table) ** 2
    vals = np.add.reduce(signed.take(table, axis=0), axis=0)
    size = np.abs(vals)
    worst = float(np.maximum.reduce(size[s + 1:], axis=None, initial=0.0))
    # every float of rho is a term of a real or an imaginary part of a trace, so a
    # NaN or an infinity in rho leaves worst or the real parts' largest magnitude
    # non-finite (their sum could meet inf - inf)
    if not math.isfinite(worst + float(np.maximum.reduce(size[:s], axis=None, initial=0.0))):
        raise ValueError("non-finite input: NaN or infinity in a Pauli trace")
    if worst > _IMAG_TOL:
        raise ValueError(f"non-Hermitian input: Pauli trace imaginary part {worst:.3e}")
    return vals[:s + 1]


def _qubits(rho: np.ndarray) -> int:
    """2 for a (..., 4, 4) stack of states, 3 for (..., 8, 8); any other shape raises ValueError."""
    d = rho.shape[-1] if rho.ndim >= 2 else 0
    if d not in _TRACE_TABLE or rho.shape[-2] != d:
        raise ValueError(f"expected a 4x4 or 8x8 density matrix or a stack of either, got {rho.shape}")
    return d.bit_length() - 1


def pauli_tensor(rho: np.ndarray) -> np.ndarray:
    """All coefficients of a two- or three-qubit state, one axis per qubit:
    a real (4, 4) array for a 4x4 state, (4, 4, 4) for an 8x8 one.

    A stack of states (..., d, d) gives (..., 4, 4) or (..., 4, 4, 4); each
    state's coefficients are bit-identical to those it gets on its own.
    """
    rho = np.asarray(rho, dtype=complex)
    qubits = _qubits(rho)
    theta = _traces(_signed(rho), _TRACE_TABLE[2 ** qubits])[:4 ** qubits]
    return np.moveaxis(theta, 0, -1).reshape(rho.shape[:-2] + (4,) * qubits)


_QUBIT_NAMES = {"A": 0, "B": 1, "C": 2}


def _is_integer(value) -> bool:
    """Whether value is an int or a numpy integer; a bool, though it subclasses int, is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _qubit_indices(labels) -> tuple[int, ...]:
    """Each label's qubit index: "A", "B", "C" read 0, 1, 2, an integer itself, any other label (a bool
    too) -1, and a non-iterable (a bare index, None) (). No subsystem set or permutation holds -1 or is ()."""
    try:
        return tuple(int(q) if _is_integer(q) else _QUBIT_NAMES.get(q, -1) for q in labels)
    except TypeError:  # labels not iterable, or a label unhashable
        return ()


def _trace_terms(qubits: int, keep: tuple[int, ...]) -> np.ndarray:
    """Flat indices into a qubits-qubit state of the terms of each reduced-state entry: (d, d, terms)."""
    out = np.arange(4 ** qubits).reshape((2,) * (2 * qubits))
    for q in sorted(set(range(qubits)) - set(keep), reverse=True):  # row axis q, column axis qubits + q
        out = out.diagonal(axis1=q, axis2=qubits + q)
        qubits -= 1
    return out.reshape((2 ** len(keep),) * 2 + (-1,))


# keys are (qubits, kept qubits as sorted indices), the subsystems partial_trace can keep
_TRACE_TERMS = {(n, k): _trace_terms(n, k) for n in (2, 3) for size in range(1, n)
                for k in itertools.combinations(range(n), size)}


def partial_trace(rho: np.ndarray, keep) -> np.ndarray:
    """Reduced state of a two- or three-qubit density matrix, or a stack of
    reduced states for a stack (..., d, d). `keep` is a subset of {"A","B"}
    for a 4x4 pair or of {"A","B","C"} for an 8x8 state (or qubit indices);
    the other qubits are traced out, each entry a sum of its terms in order."""
    rho = np.asarray(rho, dtype=complex)
    key = (_qubits(rho), tuple(sorted(_qubit_indices(keep))))
    if key not in _TRACE_TERMS:
        raise ValueError(f"invalid subsystem set {keep!r}")
    return ordered_sum(rho.reshape(rho.shape[:-2] + (rho.shape[-1] ** 2,))[..., _TRACE_TERMS[key]])


def _square(rho: np.ndarray) -> np.ndarray:
    """rho if it is a nonempty square matrix or a stack of them; any other shape raises ValueError."""
    if rho.ndim < 2 or not rho.shape[-1] or rho.shape[-2] != rho.shape[-1]:
        raise ValueError(f"expected a nonempty square matrix or a stack of them, got shape {rho.shape}")
    return rho


def purity(rho: np.ndarray) -> float | np.ndarray:
    """tr(rho^2); a stack (..., d, d) gives one per matrix."""
    rho = _square(np.asarray(rho))
    p = np.real(np.einsum("...ij,...ji->...", rho, rho))
    return float(p) if p.ndim == 0 else p


# deficits below this are within entry-rounding of an exactly pure marginal;
# flooring them keeps sqrt(deficit) from turning 1e-17 of matrix noise into 1e-8
DEFICIT_FLOOR = 1e-14
# _minor_sum's constants (and _ZERO below) as 0-d arrays, which numpy combines with arrays faster than floats
_TWO, _FLOOR = np.array(2.0), np.array(DEFICIT_FLOOR)


@functools.cache
def _minor_floats(d: int) -> np.ndarray:
    """(4, minors) float indices of re rho_ii, re rho_jj, re rho_ij and
    im rho_ij of the i < j minors in the flat complex matrix."""
    i, j = np.triu_indices(d, 1)
    ij = 2 * (i * d + j)
    return np.stack([2 * i * (d + 1), 2 * j * (d + 1), ij, ij + 1])


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
    (..., d, d) gives one deficit per matrix; a 1x1 state's is 0.0.
    """
    rho = _square(np.asarray(rho, dtype=complex, order="C"))
    d = rho.shape[-1]
    flat = rho.reshape(rho.shape[:-2] + (d * d,)).view(float)
    deficit = _minor_sum(_minor_terms(np.moveaxis(flat, -1, 0).take(_minor_floats(d), axis=0)))
    return float(deficit) if deficit.ndim == 0 else deficit


def permute_qubits(rho: np.ndarray, perm) -> np.ndarray:
    """Relabel qubits so that qubit k of the output is qubit perm[k] of the input.

    `perm` is a permutation of ("A","B","C") or of (0,1,2); e.g. ("B","C","A")
    moves the original qubit B into the leading slot.
    """
    p = _qubit_indices(perm)
    if sorted(p) != [0, 1, 2]:
        raise ValueError(f"invalid qubit permutation {perm!r}")
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (8, 8):
        raise ValueError(f"expected an 8x8 three-qubit density matrix, got {rho.shape}")
    return rho.reshape((2,) * 6).transpose(p + tuple(q + 3 for q in p)).reshape(8, 8)


ONE_TWO_SCALE = 1.0 / (2.0 * np.sqrt(2.0))  # 1/sqrt(2) qubit LOOs times 1/2 pair LOOs
PAIR_SCALE = 0.5  # two 1/sqrt(2) qubit LOO factors

# _trace_norms: a row norm below 2^-500 would square into underflow. Its
# products n1 2n2, n1 2c, n1 2n3, a 2n3, n2 2n3, a 2c, n2 2b and 2n2 2n3 take
# rows 0-5 (n1, a, b, n2, c, n3) and 14-19 (twice each) of its table. Its
# constants are 0-d arrays, which numpy multiplies faster than floats.
_ROW_FLOOR = np.array(2.0 ** -500)
_INF, _ZERO, _THREE = np.array(np.inf), np.array(0.0), np.array(3.0)
_LEFT = np.array([0, 0, 0, 1, 3, 1, 3, 17])
_RIGHT = np.array([17, 18, 19, 19, 19, 18, 16, 19])

# theta axes of each cut (A->BC, B->CA, C->AB): steering qubit, then the
# pair; the pair-to-qubit direction uses the transposed matrix, so it shares
# the trace norm. Names are the suffixes of the report keys.
_CUTS = {"a_bc": (0, 1, 2), "b_to_ca": (1, 2, 0), "c_to_ab": (2, 0, 1)}
_TWO_TO_ONE = {"a_bc": "bc_to_a", "b_to_ca": "ca_to_b", "c_to_ab": "ab_to_c"}
_CUT_ORDER = ("a_bc", "bc_to_a", "b_to_ca", "c_to_ab", "ca_to_b", "ab_to_c")
# qubits of the pairs AB, AC, BC; the first steers the second, and the
# reverse pairs BA, CA, CB the other way round
_PAIRS = {"ab": (0, 1), "ac": (0, 2), "bc": (1, 2)}
# the keys of every report: the A->BC cut, the pairs A->B, A->C, B->C, the
# monogamy totals and the verdict; requested cuts and reverse pairs follow
_REPORT_HEAD = ("h_a_bc", "s_a_bc", "norm_a_bc", "bound_a_bc", "h_ab", "h_ac", "h_bc",
                "s_ab", "s_ac", "s_bc", "h_tot", "s_tot", "margin", "classification")
_LABEL_AT = _REPORT_HEAD.index("classification")


def trace_norm(matrix) -> float | np.ndarray:
    """Sum of singular values, 0.0 for an empty matrix; one per matrix of a stack (..., m, n).

    The LAPACK reference route (one SVD per matrix): h_pair and the tests
    use it, while the steering kernel takes its norms from _trace_norms.
    """
    norms = ordered_sum(np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False))
    return float(norms) if norms.ndim == 0 else norms


def _trace_norms(m: np.ndarray) -> np.ndarray:
    """Trace norm of each 3 x c block m[:, :, j] of a stack m[3, c, B], with
    no LAPACK call.

    Modified Gram-Schmidt on the three rows gives m = L Q, with orthonormal
    rows in Q and L = [[n1, 0, 0], [a, n2, 0], [b, c, n3]], so m and L share
    their singular values s. Three invariants are sums of nonnegative terms:
    s1 = sum s_i^2 (the squares of L), s2 = sum_{i<j} s_i^2 s_j^2 (the
    squared 2x2 minors of L) and e = s_1 s_2 s_3 = n1 n2 n3. The trace norm t
    = sum s_i solves t = w(t) = sqrt(s1 + u) with u = 2 sqrt(s2 + 2 e t).
    From the upper bound sqrt(3 s1), two fixed-point steps t <- w (each
    shrinks the error at least ninefold, as w' = 2e / (u w) <= 1/9) and two
    Newton steps t <- w + (w - t) 2e / (u w - 2e) reach it to rounding: the
    iteration's own error is below 0.04 ulp over every ratio s_1 : s_2 : s_3
    (three Newton steps alone cost one more numpy call). A row whose
    norm is below _ROW_FLOOR (its squares would underflow) is not divided by
    that norm, which moves t by at most the norm; a zero block gives 0.0.

    Every sum runs over the column axis in order while a non-reduced axis
    longer than 1 remains (B >= 2), and everything else is elementwise, so a
    block's norm does not depend on the other blocks of the stack. Against
    LAPACK (trace_norm) the error budget is 1e-14 times the block's Frobenius
    norm plus 3 * 2^-500, checked on stacks of rank 0 to 3 with equal, graded
    and near-degenerate singular values (tests/test_steering.py).
    """
    r1, r23 = m[0], m[1:]
    # rows 0-5: n1, a, b, n2, c, n3, the entries of L; 6-11: twice its 2x2
    # minors; 13: 4 n2 n3; 14-19: twice the entries of L (see _LEFT)
    x = np.empty((20,) + m.shape[2:])
    g = np.add.reduce(r1 * m, 1)  # r1 . r1, r1 . r2, r1 . r3
    n1 = np.sqrt(g[0], x[0])
    n1 = np.where(n1 >= _ROW_FLOOR, n1, _INF)
    ab = np.divide(g[1:], n1, x[1:3])
    rest = r23 - (ab / n1)[:, None] * r1  # rows 2 and 3 less their r1 parts
    r2 = rest[0]
    p2, g23 = np.add.reduce(r2 * rest, 1)  # n2^2 and r2 . rest[1]
    n2 = np.sqrt(p2, x[3])
    beta = g23 / np.where(n2 >= _ROW_FLOOR, p2, _INF)
    np.multiply(beta, n2, x[4])
    r3 = rest[1] - beta * r2
    np.sqrt(np.add.reduce(r3 * r3, 0), x[5])
    np.add(x[:6], x[:6], x[14:])
    np.multiply(x.take(_LEFT, 0), x.take(_RIGHT, 0), x[6:14])
    np.subtract(x[11], x[12], x[11])  # a 2c - n2 2b
    # one sum of squares gives s1 and 4 s2
    s1, s4 = np.add.reduce(np.square(x[:12]).reshape((2, 6) + m.shape[2:]), 1)
    e2 = x[10] * x[0]
    e8 = x[13] * x[14]
    # u w >= 6e on the way down, and where e = 0 the step is w: the divisor
    # takes -1 for 2e there, so a block of rank 1 or 0 divides 0 by u w + 1
    div = e2 - (e2 == _ZERO)
    t = np.sqrt(s1 * _THREE)
    for newton in (False, False, True, True):
        u = np.sqrt(s4 + e8 * t)
        w = np.sqrt(s1 + u)
        t = (w - t) * (e2 / (u * w - div)) + w if newton else w
    return t


def correlation_matrix(rho: np.ndarray) -> np.ndarray:
    """LOO covariance matrix s (theta - theta[:, :1] theta[:1, :]) of theta =
    pauli_tensor(rho) read as 4 x 4^(q-1): for a pair (..., 4, 4) the 4x4 c_ij
    = (theta_ij - theta_i0 theta_0j) / 2; for an 8x8 state the 4x16 A -> BC
    matrix, s = 1/(2 sqrt 2), whose transpose is BC -> A. A stack gives a stack."""
    rho = np.asarray(rho, dtype=complex)
    qubits = _qubits(rho)
    theta = pauli_tensor(rho).reshape(rho.shape[:-2] + (4, 4 ** (qubits - 1)))
    return (PAIR_SCALE if qubits == 2 else ONE_TWO_SCALE) * (theta - theta[..., :, :1] * theta[..., :1, :])


def h_pair(rho2: np.ndarray, steering_side: int = 0) -> float:
    """H for one qubit of a 4x4 pair state steering the other.

    steering_side selects which marginal (each from partial_trace) drives the
    bound: H = ||c||_tr - sqrt((2 - tr rho_steer^2)(1 - tr rho_steered^2)).
    """
    if not _is_integer(steering_side) or steering_side not in (0, 1):
        raise ValueError("steering_side must be 0 or 1")
    if np.shape(rho2) != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got {np.shape(rho2)}")
    norm = trace_norm(correlation_matrix(rho2))
    steer, steered = (partial_trace(rho2, (q,)) for q in (steering_side, 1 - steering_side))
    return norm - float(np.sqrt((2.0 - purity(steer)) * purity_deficit(steered)))


class SteeringReport(dict):
    """Every requested H and S value plus the monogamy verdict, keyed and
    ordered as in the qsteer analyze JSON.

    For one state (steering_report) every value is a float and
    "classification" a str; for a batch (steering_batch) every value is an
    array with one entry per state, and row(i) gives state i's report.
    """

    # kept: perfbench/workloads.py is its only caller outside the tests; goes with ROADMAP item 3
    def to_dict(self) -> dict:
        return dict(self)

    def row(self, i: int) -> SteeringReport:
        """The float-valued report of state i of a batch."""
        return SteeringReport(
            (key, str(v[i]) if key == "classification" else float(v[i])) for key, v in self.items()
        )


_LABELS = np.array(["mixed", "corollary1", "corollary2"])  # codes 0, 1 and -1 (or 2)
# max(H, -inf) is H itself and max(H, 0) is S: one maximum gives both
_H_AND_S = np.array([-np.inf, 0.0])[:, None]


def _classes(h: np.ndarray) -> np.ndarray:
    """The label of each column of pair H values h (3, n): corollary1 when all
    three H >= 0, corollary2 when all < 0, else mixed."""
    # code 1 when every H >= 0, -1 when every H < 0, else 0: a NaN is neither,
    # as it is the minimum and the maximum of its set
    low, high = np.minimum.reduce(h, 0), np.maximum.reduce(h, 0)
    return _LABELS.take(np.subtract(low >= _ZERO, high < _ZERO, dtype=np.intp))


@dataclass(frozen=True)
class _Plan:
    """Index tables and report layout of one steering_batch configuration;
    see steering_batch. Every table indexes the first axis of an array whose
    last axis runs over the states."""

    theta: np.ndarray  # theta rows of the one covariance gather, 64 the appended zero: entry,
    # row factor and column factor of every covariance entry, each a (3 rows, 15 columns,
    # k + 3 blocks) table
    scale: np.ndarray  # (45 (k + 3), 1) LOO normalization of each covariance entry
    offset: np.ndarray  # (3 + k, 1) 1 for a qubit, 3 for a pair: 2 or 4 - tr r^2 is offset + deficit
    minors: np.ndarray  # (4 terms, 4, minors) _deficit_tables parts: floats of every minor
    deficits: np.ndarray  # (28, 3 + k + 1) minors of A, B, C, each cut's steered pair, rho
    pcol: np.ndarray  # per bound: the deficit row of its steering side
    dcol: np.ndarray  # per bound: the deficit row of its steered side
    ncol: np.ndarray  # per bound: its trace norm row (its block)
    pairs: int  # bound of the AB pair; AC and BC follow it
    keys: tuple  # report keys, in analyze JSON order
    columns: np.ndarray  # per key but "classification": its row of the stacked table


def _deficit_tables(subsystems) -> tuple[np.ndarray, np.ndarray]:
    """Gather tables of steering_batch's deficits: those of a list of
    subsystems, each a tuple of qubit indices, then the full state's.

    parts (4 terms, 4, minors) composes partial_trace's table with
    purity_deficit's: each float of _minor_floats(d) maps through its entry's
    _trace_terms to 8 / d floats of _signed(rho), padded to 4 terms with the
    zero float 256. The minors are each subsystem's, rho's 28 and a zero
    minor; column s of rows lists subsystem s's, padded with the zero minor
    to 28, rho's last. The terms add in partial_trace's order and the minors
    in purity_deficit's, so the deficits are theirs bit for bit: appended to
    a left-to-right sum, the zeros change at most the sign of a zero, and
    the DEFICIT_FLOOR clamp maps every zero to 0.0.
    """
    parts = []
    for keep in (*subsystems, (0, 1, 2)):
        d = 2 ** len(keep)
        floats = _minor_floats(d)
        terms = _trace_terms(3, keep).reshape(d * d, -1)[floats // 2]  # (4, minors, 8 / d)
        parts.append(np.pad(2 * terms + floats[..., None] % 2, ((0, 0), (0, 0), (0, 4 - 8 // d)),
                            constant_values=256))
    start = np.cumsum([0] + [p.shape[1] for p in parts])
    rows = np.full((28, len(parts)), start[-1])
    for s, p in enumerate(parts):
        rows[:p.shape[1], s] = start[s] + np.arange(p.shape[1])
    parts.append(np.full((4, 1, 4), 256))
    return np.concatenate(parts, axis=1).transpose(2, 0, 1).copy(), rows


@functools.cache
def _plan(all_cuts: bool, two_to_one: bool, reverse_pairs: bool) -> _Plan:
    names = list(_CUTS) if all_cuts else ["a_bc"]
    k = len(names)
    flat = np.arange(64).reshape(4, 4, 4)
    cut_flat = [flat.transpose(_CUTS[c]) for c in names]
    pair_flat = [flat[:, :, 0], flat[:, 0, :], flat[0]]  # AB, AC, BC
    # every block as a 4 x 16 theta table whose row 0 and column 0 hold the
    # factors: a cut's matrix, and a pair's 4 x 4 padded with the zero. The
    # covariance is entry - row * col on rows 1..3 and columns 1..15; a cut's
    # row 0 and column 00 are theta (1 - theta_000), zero at unit trace.
    blocks = [t.reshape(4, 16) for t in cut_flat] + [np.pad(t, ((0, 0), (0, 12)), constant_values=64)
                                                    for t in pair_flat]
    cov = np.stack([np.broadcast_arrays(b[1:, 1:], b[1:, :1], b[:1, 1:]) for b in blocks], axis=-1)

    # (name, steering deficit row, steered deficit row, norm row) per bound;
    # deficit rows 3.. hold each cut's pair (or, for a pure state, steering
    # qubit), and the cuts' steering qubits are A, B, C in order: rows 0..k-1
    bounds = [(c, i, 3 + i, i) for i, c in enumerate(names)]
    if two_to_one:
        bounds += [(_TWO_TO_ONE[c], 3 + i, i, i) for i, c in enumerate(names)]
    bounds.sort(key=lambda b: _CUT_ORDER.index(b[0]))
    cuts = len(bounds)
    bounds += [(p, a, b, k + i) for i, (p, (a, b)) in enumerate(_PAIRS.items())]
    if reverse_pairs:
        bounds += [(p[::-1], b, a, k + i) for i, (p, (a, b)) in enumerate(_PAIRS.items())]
    table = list(zip(*bounds))
    # the stacked table of _columns: h and s of every bound side by side, then
    # the norm and the bound of every bound, then h_tot, s_tot, margin
    n = len(bounds)
    column = {f"{q}_{name}": 2 * j + i for i, q in enumerate(("h", "s")) for j, name in enumerate(table[0])}
    column.update({f"{q}_{name}": i * n + j for i, q in enumerate(("norm", "bound"), 2)
                   for j, name in enumerate(table[0])})
    column.update(h_tot=4 * n, s_tot=4 * n + 1, margin=4 * n + 2)
    keys = list(_REPORT_HEAD)
    keys += [f"{q}_{name}" for name in table[0][1:cuts] for q in ("h", "s", "norm", "bound")]
    keys += ["h_ba", "h_ca", "h_cb"] * reverse_pairs
    # minors of the reduced states of qubits A, B, C and each cut's steered pair, then rho's
    minors, deficits = _deficit_tables(((0,), (1,), (2,)) + tuple(_CUTS[c][1:] for c in names))
    return _Plan(
        theta=cov.ravel(),
        scale=np.tile(np.repeat([ONE_TWO_SCALE, PAIR_SCALE], [k, 3]), 45)[:, None],
        offset=np.array([1.0] * 3 + [3.0] * k)[:, None],
        minors=minors,
        deficits=deficits,
        pcol=np.array(table[1]),
        dcol=np.array(table[2]),
        ncol=np.array(table[3]),
        pairs=cuts,
        keys=tuple(keys),
        columns=np.array([column[key] for key in keys if key != "classification"]),
    )


def _columns(rho: np.ndarray, plan: _Plan) -> tuple[np.ndarray, np.ndarray]:
    """The report of every state of the plan: a (keys - 1, n) table of the
    numbers in plan.keys order, and the n classification labels."""
    if rho.ndim != 3 or rho.shape[1:] != (8, 8):
        raise ValueError(f"expected a stack of 8x8 density matrices, got shape {rho.shape}")
    n, m = len(rho), len(plan.scale)
    blocks = m // 45  # k cuts, then the pairs AB, AC, BC
    signed = _signed(rho)
    theta = _traces(signed, _TRACE_TABLE[8])
    factors = theta.take(plan.theta, 0)
    cov = plan.scale * (factors[:m] - factors[m:2 * m] * factors[2 * m:])
    norm = _trace_norms(cov.reshape(3, 15, blocks * n)).reshape(blocks, n)
    minors = _minor_terms(np.add.reduce(signed.take(plan.minors, 0), 0))
    deficit = _minor_sum(minors.take(plan.deficits, 0), np.add.reduce)
    # a bound's first factor, 2 - tr r^2 = 1 + d for a qubit and 4 - tr r^2 =
    # 3 + d for a pair at unit trace: the steering side's own deficit, taken
    # before the pure-state switch swaps a pair's for its complement's
    first = (plan.offset + deficit[:-1]).take(plan.pcol, 0)
    # rho is pure where its own deficit (last row) reads 0 under the
    # DEFICIT_FLOOR clamp, like every marginal's; then a pair's deficit equals
    # its complement's 2 det, which stays exact where the cut factorizes
    np.copyto(deficit[3:-1], deficit[:blocks - 3], where=deficit[-1] == _ZERO)
    norm = norm.take(plan.ncol, 0)
    bound = np.sqrt(first * deficit.take(plan.dcol, 0))
    # H and S = max(H, 0) of every bound side by side: max(H, -inf) is H
    hs = np.maximum((norm - bound)[:, None], _H_AND_S)
    c = plan.pairs
    # h_tot = (h_ab + h_ac) + h_bc, and s_tot: the (2, n) rows that stay keep
    # the sum over the three pairs in order
    total = np.add.reduce(hs[c:c + 3], 0)
    margin = hs[0, 1:] - total[:1]  # bound 0 is a_bc
    table = np.concatenate((hs.reshape(2 * len(plan.pcol), n), norm, bound, total, margin))
    return table.take(plan.columns, 0), _classes(hs[c:c + 3, 0])


def steering_batch(
    rho: np.ndarray,
    include_all_cuts: bool = False,
    include_two_to_one: bool = False,
    include_reverse_pairs: bool = False,
) -> SteeringReport:
    """Steering analysis of a stack of three-qubit states rho[n, 8, 8].

    Each kind of quantity comes from one index table, built once per flag
    combination (_plan) on first use; arrays hold one column per state, so
    every gather copies whole rows:
    - traces: one gather from [rho, -rho, 0] viewed as floats and one sum
      over 8 terms (_traces, _TRACE_TABLE[8], as pauli_tensor) give the 64
      Pauli coefficients theta (plus a zero) and their imaginary parts,
      which must vanish;
    - covariances: one take from theta gives the entry, row and column
      factor of every covariance entry as one (3 rows, 15 columns, k + 3
      blocks) table: rows 1-3 and columns 1-15 of the 4x16 matrix of each
      cut, with B|CA and C|AB as axis transposes (its row 0 and column 00
      are theta (1 - tr rho), zero at unit trace), and the 3x3 block of
      each pair, with theta_AB = theta[:,:,0] and so on, padded with the
      zero. One _trace_norms pass gives every norm (both directions of a
      cut share one);
    - deficits: one gather from the same floats and one sum over 4 terms
      give the parts of every principal 2x2 minor of the reduced states of
      qubits A, B, C and each cut's steered pair, and of rho: _deficit_tables
      composes partial_trace's terms with purity_deficit's minors. One
      take lays the minors out in rows of 28 for purity_deficit's minor
      sum; a state is pure when its own deficit, the last, reads 0 under
      the same DEFICIT_FLOOR clamp as every marginal's, and then a pair's
      deficit is its complement's;
    - bounds: sqrt((1 + d_s) d_t), or sqrt((3 + d_pair) d_q) for a pair
      steering a qubit, from one take per factor of the deficit table: at
      unit trace 2 - tr rho_s^2 = 1 + d_s and 4 - tr rho_pair^2 = 3 + d_pair;
    - report: H = norm - bound and S = max(H, 0) per bound from one maximum,
      then h_tot = (h_ab + h_ac) + h_bc, s_tot likewise and
      margin = s_a_bc - h_tot, stacked into one table and taken into report
      order.

    Every entry is computed with the same operations in the same order as
    by the direct per-quantity route (pauli_tensor, partial_trace and
    purity_deficit, theta slices, _trace_norms on one state's stacked
    blocks), so the values are bit-identical to it; _deficit_tables says why
    its zero padding keeps them so. A state's values are also bit-identical
    to those it gets alone: every sum runs in a fixed order per state, with
    no BLAS product, whose rounding depends on the stack size. Returns a SteeringReport of arrays, one entry
    per state, keyed as the analyze JSON. The states are not validated.
    steering_report runs the same kernel on one state and reports Python
    floats, equal to row(i) of any batch.
    """
    rho = np.asarray(rho, dtype=complex)
    plan = _plan(bool(include_all_cuts), bool(include_two_to_one), bool(include_reverse_pairs))
    table, labels = _columns(rho, plan)
    values = list(table)
    values.insert(_LABEL_AT, labels)
    return SteeringReport(zip(plan.keys, values))


def steering_report(
    rho: np.ndarray,
    include_all_cuts: bool = False,
    include_two_to_one: bool = False,
    include_reverse_pairs: bool = False,
    validate: bool = True,
) -> SteeringReport:
    """Full steering analysis of one three-qubit state: steering_batch's
    kernel on a batch of one, after validating the state, reported in floats.

    Defaults compute the A->BC cut and the three pair directions A->B, A->C,
    B->C; the B|CA and C|AB cuts, the pair-to-qubit directions and the
    reverse pair directions are available on request.
    """
    rho = np.asarray(rho, dtype=complex)
    if validate:
        diag = validate_state(rho)
        if not diag["passed"]:
            raise ValueError(f"invalid density matrix: {diag}")
    if rho.shape != (8, 8):
        raise ValueError(f"expected an 8x8 density matrix, got shape {rho.shape}")
    plan = _plan(bool(include_all_cuts), bool(include_two_to_one), bool(include_reverse_pairs))
    table, labels = _columns(rho[None], plan)
    values = table[:, 0].tolist()
    values.insert(_LABEL_AT, str(labels[0]))
    return SteeringReport(zip(plan.keys, values))
