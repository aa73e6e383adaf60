"""Correlation-matrix steering criteria for three-qubit states.

The steering test for a cut compares the trace norm of a covariance matrix,
built from complete sets of local orthogonal observables (LOOs), against a
purity bound. For a qubit the LOO set is {s_m / sqrt(2)}, for a qubit pair
{(s_j x s_k) / 2}; those normalizations put factors 1/(2*sqrt(2)) and 1/2 in
front of the raw Pauli covariances below. A positive H value certifies
steerability in the stated direction; S = max(H, 0) is the quantifier.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .pauli import _trace_table, _traces, pauli_tensor_pair
from .states import _deficit_tables, _minor_sum, ordered_sum, purity_deficit, validate_state

# kept for perfbench/spans.py, which patches pauli_tensor, partial_trace and
# permute_qubits here, as it does purity_deficit
from .pauli import pauli_tensor  # noqa: F401
from .states import partial_trace, permute_qubits  # noqa: F401

__all__ = [
    "CorrelationMatrix",
    "SteeringReport",
    "classify_pairs",
    "correlation_one_to_two",
    "correlation_two_to_one",
    "correlation_pair",
    "trace_norm",
    "h_one_to_two",
    "h_two_to_one",
    "h_pair",
    "steering_value",
    "steering_batch",
    "steering_report",
]

ONE_TWO_SCALE = 1.0 / (2.0 * np.sqrt(2.0))  # 1/sqrt(2) qubit LOOs times 1/2 pair LOOs
PAIR_SCALE = 0.5  # two 1/sqrt(2) qubit LOO factors

# full-state deficit at or below which the pure-state route runs: rounding
# leaves a pure state's deficit near 1e-16, and swapping a pair deficit for its
# complement's at 1e-12 moves H by at most ~sqrt(1e-12) where a deficit is ~0
_PURE_DEFICIT_TOL = 1e-12

# theta axes of each cut: steering qubit, then the pair; the pair-to-qubit
# direction uses the transposed matrix, so it shares the trace norm
_CUTS = {"A->BC": (0, 1, 2), "B->CA": (1, 2, 0), "C->AB": (2, 0, 1)}
_TWO_TO_ONE = {"A->BC": "BC->A", "B->CA": "CA->B", "C->AB": "AB->C"}
_CUT_ORDER = ("A->BC", "BC->A", "B->CA", "C->AB", "CA->B", "AB->C")
# qubits of the pairs AB, AC, BC; the first steers the second, and the
# reverse pairs BA, CA, CB the other way round
_FIRST, _SECOND = [0, 0, 1], [1, 2, 2]


@dataclass
class CorrelationMatrix:
    """LOO covariance matrix (or a stack of them)."""

    entries: np.ndarray


def trace_norm(matrix) -> float | np.ndarray:
    """Sum of singular values; one per matrix of a stack (..., m, n)."""
    entries = matrix.entries if isinstance(matrix, CorrelationMatrix) else matrix
    norms = ordered_sum(np.linalg.svd(np.asarray(entries, dtype=float), compute_uv=False))
    return float(norms) if norms.ndim == 0 else norms


def correlation_one_to_two(theta: np.ndarray) -> CorrelationMatrix:
    """4x16 covariance matrix for steering the leading qubit into the pair.

    M[m, 4j+k] = (theta[m,j,k] - theta[m,0,0] * theta[0,j,k]) / (2*sqrt(2)).
    Row m=0 and column n=0 vanish identically. A stack of tensors
    (..., 4, 4, 4) gives a stack of matrices.
    """
    theta = np.asarray(theta, dtype=float)
    cov = theta - theta[..., :, 0, 0, None, None] * theta[..., None, 0, :, :]
    return CorrelationMatrix(ONE_TWO_SCALE * cov.reshape(theta.shape[:-3] + (4, 16)))


def correlation_two_to_one(theta: np.ndarray) -> CorrelationMatrix:
    """16x4 covariance matrix for steering the pair into the leading qubit:
    the transpose of correlation_one_to_two, stacks included."""
    return CorrelationMatrix(np.swapaxes(correlation_one_to_two(theta).entries, -1, -2))


def correlation_pair(rho2: np.ndarray) -> CorrelationMatrix:
    """4x4 covariance matrix c_ij = (theta_ij - theta_i0 * theta_0j) / 2."""
    theta = pauli_tensor_pair(rho2)
    cov = theta - np.outer(theta[:, 0], theta[0])
    return CorrelationMatrix(PAIR_SCALE * cov)


def _pair_marginals(rho2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    r = np.asarray(rho2, dtype=complex).reshape(2, 2, 2, 2)
    return np.einsum("abcb->ac", r), np.einsum("abac->bc", r)


def h_one_to_two(rho: np.ndarray) -> float:
    """H for steering qubit A into the BC pair: ||M||_tr - sqrt((2 - tr rho_a^2)(1 - tr rho_bc^2))."""
    return steering_report(rho, validate=False).h_a_bc


def h_two_to_one(rho: np.ndarray) -> float:
    """H for steering the BC pair into qubit A: ||M'||_tr - sqrt((4 - tr rho_bc^2)(1 - tr rho_a^2))."""
    return steering_report(rho, include_two_to_one=True, validate=False).cuts["BC->A"].h


def h_pair(rho2: np.ndarray, steering_side: int = 0) -> float:
    """H for one qubit of a pair steering the other.

    steering_side selects which marginal drives the bound: H equals
    ||c||_tr - sqrt((2 - tr rho_steer^2)(1 - tr rho_steered^2)).
    """
    if steering_side not in (0, 1):
        raise ValueError("steering_side must be 0 or 1")
    norm = trace_norm(correlation_pair(rho2))
    m0, m1 = _pair_marginals(rho2)
    steer, steered = (m0, m1) if steering_side == 0 else (m1, m0)
    p_steer = float(np.real(np.einsum("ij,ji->", steer, steer)))
    return norm - float(np.sqrt((2.0 - p_steer) * purity_deficit(steered)))


def steering_value(h) -> float | np.ndarray:
    """Steering quantifier max(H, 0), elementwise on arrays."""
    s = np.maximum(h, 0.0)
    return float(s) if s.ndim == 0 else s


@dataclass
class CutQuantities:
    """Trace norm, purity bound, and H/S for one cut and direction (floats,
    or arrays over the states of a batch)."""

    norm: float
    bound: float

    @property
    def h(self) -> float:
        return self.norm - self.bound

    @property
    def s(self) -> float:
        return steering_value(self.h)


@dataclass
class SteeringReport:
    """All requested H and S values plus the monogamy verdict.

    For one state (steering_report) every value is a float and the
    classification a str; for a batch (steering_batch) they are arrays with
    one entry per state, and row(i) gives state i's report.
    """

    cuts: dict[str, CutQuantities]
    pair_h: dict[str, float]
    classification: str
    extras: dict[str, float] = field(default_factory=dict)

    @property
    def h_a_bc(self) -> float:
        return self.cuts["A->BC"].h

    @property
    def s_a_bc(self) -> float:
        return self.cuts["A->BC"].s

    @property
    def h_tot(self) -> float:
        return (self.pair_h["AB"] + self.pair_h["AC"]) + self.pair_h["BC"]

    @property
    def s_tot(self) -> float:
        return (
            steering_value(self.pair_h["AB"])
            + steering_value(self.pair_h["AC"])
            + steering_value(self.pair_h["BC"])
        )

    @property
    def margin(self) -> float:
        return self.s_a_bc - self.h_tot

    def to_dict(self) -> dict:
        cuts = list(self.cuts.items())
        pair_h = [self.pair_h["AB"], self.pair_h["AC"], self.pair_h["BC"]]
        cut_h = [cut.h for _, cut in cuts]
        s_values = np.maximum(cut_h + pair_h, 0.0)  # every S from one call, floats or arrays
        s_values = s_values.tolist() if s_values.ndim == 1 else list(s_values)
        s_ab, s_ac, s_bc = s_values[-3:]
        a_bc = self.cuts["A->BC"]
        s_a_bc = s_values[list(self.cuts).index("A->BC")]
        h_tot = (pair_h[0] + pair_h[1]) + pair_h[2]
        out = {
            "h_a_bc": a_bc.h,
            "s_a_bc": s_a_bc,
            "norm_a_bc": a_bc.norm,
            "bound_a_bc": a_bc.bound,
            "h_ab": pair_h[0],
            "h_ac": pair_h[1],
            "h_bc": pair_h[2],
            "s_ab": s_ab,
            "s_ac": s_ac,
            "s_bc": s_bc,
            "h_tot": h_tot,
            "s_tot": (s_ab + s_ac) + s_bc,
            "margin": s_a_bc - h_tot,
            "classification": self.classification,
        }
        for (name, cut), h, s in zip(cuts, cut_h, s_values):
            if name == "A->BC":
                continue
            key = name.replace("->", "_to_").lower()
            out[f"h_{key}"] = h
            out[f"s_{key}"] = s
            out[f"norm_{key}"] = cut.norm
            out[f"bound_{key}"] = cut.bound
        out.update(self.extras)
        return out

    def row(self, i: int) -> SteeringReport:
        """The float-valued report of state i of a batch."""
        return SteeringReport(
            cuts={k: CutQuantities(float(c.norm[i]), float(c.bound[i])) for k, c in self.cuts.items()},
            pair_h={k: float(v[i]) for k, v in self.pair_h.items()},
            classification=str(self.classification[i]),
            extras={k: float(v[i]) for k, v in self.extras.items()},
        )


_LABELS = np.array(["mixed", "corollary1", "corollary2"])


def _classes(h: np.ndarray, axis: int) -> np.ndarray:
    # code 1 when every H >= 0, 2 when every H < 0, else 0: a NaN is neither
    return _LABELS[(h >= 0.0).all(axis) + 2 * (h < 0.0).all(axis)]


def classify_pairs(h_ab, h_ac, h_bc) -> str | np.ndarray:
    """corollary1 when all pair H >= 0, corollary2 when all < 0, else mixed.

    Elementwise on arrays of H values.
    """
    label = _classes(np.array([h_ab, h_ac, h_bc], dtype=float), axis=0)
    return str(label) if label.ndim == 0 else label


@dataclass(frozen=True)
class _Plan:
    """Index tables of one steering_batch configuration; see steering_batch."""

    front: np.ndarray  # pauli._trace_table of the 64 traces and the reduced-state entries
    minors: np.ndarray  # (4, subsystems, minors) entry columns of ii.re, jj.re, ij.re, ij.im
    steer: np.ndarray  # steering qubit of each cut
    cov: np.ndarray  # (3, 64k + 27) flat theta indices: entry, row factor, column factor
    scale: np.ndarray  # LOO normalization of each covariance entry
    purity: np.ndarray  # (3 [+ k], width) flat theta indices, 64 the appended zero
    divisor: np.ndarray  # 2 for a qubit purity, 4 for a pair's
    const: np.ndarray  # per bound: 2 or 4 minus a purity, times a deficit
    pcol: np.ndarray  # per bound: its purity column
    dcol: np.ndarray  # per bound: its deficit column
    ncol: np.ndarray  # per bound: its trace norm column
    cuts: tuple  # names of the leading len(cuts) bounds, in _CUT_ORDER


def _cov_table(entry, row, col) -> np.ndarray:
    """(3, m) flat theta indices of the covariance entries entry - row * col."""
    return np.stack([a.ravel() for a in np.broadcast_arrays(entry, row, col)])


@functools.cache
def _plan(all_cuts: bool, two_to_one: bool, reverse_pairs: bool) -> _Plan:
    names = list(_CUTS) if all_cuts else ["A->BC"]
    k = len(names)
    flat = np.arange(64).reshape(4, 4, 4)
    cut_flat = [flat.transpose(_CUTS[c]) for c in names]
    pair_flat = [flat[:, :, 0], flat[:, 0, :], flat[0]]  # AB, AC, BC
    cov = [_cov_table(t, t[:, :1, :1], t[:1]) for t in cut_flat]
    cov += [_cov_table(t[1:, 1:], t[1:, :1], t[:1, 1:]) for t in pair_flat]
    purity = [flat[:, 0, 0], flat[0, :, 0], flat[0, 0, :]]  # Bloch vectors of A, B, C
    if two_to_one:
        purity += [t[0].ravel() for t in cut_flat]  # each cut's pair
    width = max(len(r) for r in purity)
    purity = np.array([np.pad(r, (0, width - len(r)), constant_values=64) for r in purity])

    steer = [_CUTS[c][0] for c in names]
    # (name, constant, purity column, deficit column, norm column) per bound;
    # deficit columns 3.. hold each cut's steered pair (or, for a pure state, steering qubit)
    bounds = [(c, 2.0, steer[i], 3 + i, i) for i, c in enumerate(names)]
    if two_to_one:
        bounds += [(_TWO_TO_ONE[c], 4.0, 3 + i, steer[i], i) for i, c in enumerate(names)]
    bounds.sort(key=lambda b: _CUT_ORDER.index(b[0]))
    bounds += [(None, 2.0, a, b, k + i) for i, (a, b) in enumerate(zip(_FIRST, _SECOND))]
    if reverse_pairs:
        bounds += [(None, 2.0, b, a, k + i) for i, (a, b) in enumerate(zip(_FIRST, _SECOND))]
    table = list(zip(*bounds))
    # entries of the reduced states of qubits A, B, C and each cut's steered pair
    terms, ii, jj, ij = _deficit_tables(((0,), (1,), (2,)) + tuple(_CUTS[c][1:] for c in names))
    return _Plan(
        front=_trace_table(8, terms),
        minors=np.stack([ii, jj, ij, len(terms) + ij]),
        steer=np.array(steer),
        cov=np.concatenate(cov, axis=1),
        scale=np.repeat([ONE_TWO_SCALE, PAIR_SCALE], [64 * k, 27]),
        purity=purity,
        divisor=np.array([2.0] * 3 + [4.0] * (k * two_to_one)),
        const=np.array(table[1]),
        pcol=np.array(table[2]),
        dcol=np.array(table[3]),
        ncol=np.array(table[4]),
        cuts=tuple(name for name in table[0] if name is not None),
    )


def _columns(rho: np.ndarray, plan: _Plan) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trace norm, bound and H of every bound of the plan: three (n, bounds) arrays."""
    if rho.ndim != 3 or rho.shape[1:] != (8, 8):
        raise ValueError(f"expected a stack of 8x8 density matrices, got shape {rho.shape}")
    n, k = len(rho), len(plan.steer)
    theta, entries = _traces(rho, plan.front)
    i, row, col = plan.cov
    cov = plan.scale * (theta[:, i] - theta[:, row] * theta[:, col])
    norm = np.concatenate([trace_norm(cov[:, :64 * k].reshape(n, k, 4, 16)),
                           trace_norm(cov[:, 64 * k:].reshape(n, 3, 3, 3))], axis=1)
    purity = ordered_sum(theta[:, plan.purity] ** 2) / plan.divisor
    deficit = _minor_sum(*entries.take(plan.minors, axis=1).transpose(1, 0, 2, 3))
    # for a globally pure state the pair deficit equals its complement's 2 det,
    # which stays exact where the cut factorizes
    pure = purity_deficit(rho) <= _PURE_DEFICIT_TOL
    deficit[:, 3:] = np.where(pure[:, None], deficit[:, plan.steer], deficit[:, 3:])
    bound = np.sqrt((plan.const - purity[:, plan.pcol]) * deficit[:, plan.dcol])
    norm = norm[:, plan.ncol]
    return norm, bound, norm - bound


def _report(plan: _Plan, norm, bound, h, classification) -> SteeringReport:
    """SteeringReport from per-bound columns: norm[j] is bound j's trace norm,
    an array over a batch or a float for one state."""
    c = len(plan.cuts)
    return SteeringReport(
        cuts={name: CutQuantities(norm[j], bound[j]) for j, name in enumerate(plan.cuts)},
        pair_h={"AB": h[c], "AC": h[c + 1], "BC": h[c + 2]},
        classification=classification,
        extras={"h_ba": h[c + 3], "h_ca": h[c + 4], "h_cb": h[c + 5]} if len(h) > c + 3 else {},
    )


def steering_batch(
    rho: np.ndarray,
    include_all_cuts: bool = False,
    include_two_to_one: bool = False,
    include_reverse_pairs: bool = False,
) -> SteeringReport:
    """Steering analysis of a stack of three-qubit states rho[n, 8, 8].

    Each kind of quantity comes from one index table, built once per flag
    combination (_plan) on first use:
    - front: one gather from [rho, -rho, 0] viewed as floats and one sum
      over 8 terms (pauli._traces) give the 64 Pauli coefficients theta
      (plus a zero), their imaginary parts, which must vanish, and every
      entry of the reduced states of qubits A, B, C and each cut's steered
      pair that a principal 2x2 minor reads;
    - covariances: three gathers from the flat theta (entry, row and column
      factor) give the 4x16 matrix of each cut, with B|CA and C|AB as axis
      transposes, and the 3x3 block of each pair, with theta_AB = theta[:,:,0]
      and so on; one SVD per shape, and both directions of a cut share a norm;
    - purities: one gather of Bloch vectors and, for the pair-to-qubit
      direction, each cut's pair slice, then one ordered sum;
    - deficits: one gather of those entries per minor, then the minor sum
      of reduced_deficits and purity_deficit (states._minor_sum); a state
      is globally pure when purity_deficit(rho) is at most 1e-12, and then a
      pair's deficit is its complement's;
    - bounds: sqrt((2 or 4 - purity) * deficit) from one gather per factor.

    Every entry is computed with the same operations in the same order as
    by the direct per-quantity route (pauli_tensor, reduced_deficits,
    purity_deficit, theta slices), so the values are bit-identical to it.
    Rows of unequal length are padded with exact zeros at the end of a
    left-to-right sum: adding +0.0 changes at most the sign of a zero partial
    sum, a purity is a sum of squares, and a zero deficit is clamped to 0.0.
    A state's values are also bit-identical to those it gets alone: every sum
    runs in a fixed order per state, with no BLAS product, whose rounding
    depends on the stack size. Returns a SteeringReport of arrays. The states
    are not validated. steering_report runs the same kernel on one state and
    builds its report from Python floats, equal to row(i) of any batch.
    """
    rho = np.asarray(rho, dtype=complex)
    plan = _plan(bool(include_all_cuts), bool(include_two_to_one), bool(include_reverse_pairs))
    norm, bound, h = _columns(rho, plan)
    c = len(plan.cuts)
    return _report(plan, norm.T, bound.T, h.T, _classes(h[:, c:c + 3], axis=1))


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
        if not diag.passed:
            raise ValueError(f"invalid density matrix: {diag.as_dict()}")
    plan = _plan(bool(include_all_cuts), bool(include_two_to_one), bool(include_reverse_pairs))
    norm, bound, h = _columns(rho[None], plan)
    c = len(plan.cuts)
    label = str(_classes(h[0, c:c + 3], axis=0))
    return _report(plan, norm[0].tolist(), bound[0].tolist(), h[0].tolist(), label)
