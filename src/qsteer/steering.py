"""Correlation-matrix steering criteria for three-qubit states.

The steering test for a cut compares the trace norm of a covariance matrix,
built from complete sets of local orthogonal observables (LOOs), against a
purity bound. For a qubit the LOO set is {s_m / sqrt(2)}, for a qubit pair
{(s_j x s_k) / 2}; those normalizations put factors 1/(2*sqrt(2)) and 1/2 in
front of the raw Pauli covariances below. A positive H value certifies
steerability in the stated direction; S = max(H, 0) is the quantifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pauli import pauli_tensor, pauli_tensor_pair
from .states import ordered_sum, partial_trace, purity_deficit, validate_state
from .states import permute_qubits  # noqa: F401  kept: perfbench/spans.py patches this name here

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
    """16x4 covariance matrix for steering the pair into the leading qubit.

    Built from the coefficient tensor reordered to BCA slot order; equals the
    transpose of correlation_one_to_two on the same state.
    """
    theta_bca = np.transpose(np.asarray(theta, dtype=float), (1, 2, 0))
    cov = theta_bca - np.einsum("jk,m->jkm", theta_bca[:, :, 0], theta_bca[0, 0])
    return CorrelationMatrix(ONE_TWO_SCALE * cov.reshape(16, 4))


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
        out = {
            "h_a_bc": self.h_a_bc,
            "s_a_bc": self.s_a_bc,
            "norm_a_bc": self.cuts["A->BC"].norm,
            "bound_a_bc": self.cuts["A->BC"].bound,
            "h_ab": self.pair_h["AB"],
            "h_ac": self.pair_h["AC"],
            "h_bc": self.pair_h["BC"],
            "s_ab": steering_value(self.pair_h["AB"]),
            "s_ac": steering_value(self.pair_h["AC"]),
            "s_bc": steering_value(self.pair_h["BC"]),
            "h_tot": self.h_tot,
            "s_tot": self.s_tot,
            "margin": self.margin,
            "classification": self.classification,
        }
        for name, cut in self.cuts.items():
            if name == "A->BC":
                continue
            key = name.replace("->", "_to_").lower()
            out[f"h_{key}"] = cut.h
            out[f"s_{key}"] = cut.s
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


def classify_pairs(h_ab, h_ac, h_bc) -> str | np.ndarray:
    """corollary1 when all pair H >= 0, corollary2 when all < 0, else mixed.

    Elementwise on arrays of H values.
    """
    h = np.array([h_ab, h_ac, h_bc], dtype=float)
    label = np.where(np.all(h >= 0.0, axis=0), "corollary1",
                     np.where(np.all(h < 0.0, axis=0), "corollary2", "mixed"))
    return str(label) if label.ndim == 0 else label


def steering_batch(
    rho: np.ndarray,
    include_all_cuts: bool = False,
    include_two_to_one: bool = False,
    include_reverse_pairs: bool = False,
) -> SteeringReport:
    """Steering analysis of a stack of three-qubit states rho[n, 8, 8].

    One Pauli tensor per state gives every cut (B|CA and C|AB as axis
    transposes) and pair (its slices); both directions of a cut share one
    trace norm. Returns a SteeringReport of arrays. A state's values are
    bit-identical to those it gets alone: every sum runs in a fixed order per
    state, with no BLAS product, whose rounding depends on the stack size.
    The states are not validated.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 3:
        raise ValueError(f"expected a stack of 8x8 density matrices, got shape {rho.shape}")
    theta = pauli_tensor(rho)
    qubit_deficit = purity_deficit(np.stack([partial_trace(rho, (q,)) for q in range(3)], axis=1))
    bloch = np.stack([theta[:, :, 0, 0], theta[:, 0, :, 0], theta[:, 0, 0, :]], axis=1)
    qubit_purity = ordered_sum(bloch**2) / 2.0

    names = list(_CUTS) if include_all_cuts else ["A->BC"]
    steer = [_CUTS[c][0] for c in names]
    cut_theta = np.stack([theta.transpose((0,) + tuple(1 + a for a in _CUTS[c])) for c in names], axis=1)
    norm = trace_norm(correlation_one_to_two(cut_theta))
    # for a globally pure state the pair deficit equals its complement's 2 det,
    # which stays exact where the cut factorizes
    pure = purity_deficit(rho) <= _PURE_DEFICIT_TOL
    pair_deficit = purity_deficit(np.stack([partial_trace(rho, _CUTS[c][1:]) for c in names], axis=1))
    steered_deficit = np.where(pure[:, None], qubit_deficit[:, steer], pair_deficit)
    bound = np.sqrt((2.0 - qubit_purity[:, steer]) * steered_deficit)
    found = {c: CutQuantities(norm[:, k], bound[:, k]) for k, c in enumerate(names)}
    if include_two_to_one:
        pair_purity = ordered_sum(cut_theta[:, :, 0].reshape(len(rho), len(names), 16) ** 2) / 4.0
        bound = np.sqrt((4.0 - pair_purity) * qubit_deficit[:, steer])
        found.update({_TWO_TO_ONE[c]: CutQuantities(norm[:, k], bound[:, k]) for k, c in enumerate(names)})
    cuts = {c: found[c] for c in _CUT_ORDER if c in found}

    pair_theta = np.stack([theta[:, :, :, 0], theta[:, :, 0, :], theta[:, 0, :, :]], axis=1)
    cov = pair_theta[..., 1:, 1:] - pair_theta[..., 1:, :1] * pair_theta[..., :1, 1:]
    pair_norm = trace_norm(PAIR_SCALE * cov)
    h = pair_norm - np.sqrt((2.0 - qubit_purity[:, _FIRST]) * qubit_deficit[:, _SECOND])
    pair_h = {"AB": h[:, 0], "AC": h[:, 1], "BC": h[:, 2]}
    extras = {}
    if include_reverse_pairs:
        h = pair_norm - np.sqrt((2.0 - qubit_purity[:, _SECOND]) * qubit_deficit[:, _FIRST])
        extras = {"h_ba": h[:, 0], "h_ca": h[:, 1], "h_cb": h[:, 2]}
    return SteeringReport(
        cuts=cuts,
        pair_h=pair_h,
        classification=classify_pairs(pair_h["AB"], pair_h["AC"], pair_h["BC"]),
        extras=extras,
    )


def steering_report(
    rho: np.ndarray,
    include_all_cuts: bool = False,
    include_two_to_one: bool = False,
    include_reverse_pairs: bool = False,
    validate: bool = True,
) -> SteeringReport:
    """Full steering analysis of one three-qubit state: steering_batch on a
    batch of one, after validating the state.

    Defaults compute the A->BC cut and the three pair directions A->B, A->C,
    B->C; the B|CA and C|AB cuts, the pair-to-qubit directions and the
    reverse pair directions are available on request.
    """
    rho = np.asarray(rho, dtype=complex)
    if validate:
        diag = validate_state(rho)
        if not diag.passed:
            raise ValueError(f"invalid density matrix: {diag.as_dict()}")
    return steering_batch(rho[None], include_all_cuts, include_two_to_one, include_reverse_pairs).row(0)
