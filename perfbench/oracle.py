"""Reference values the benchmark checks the program's outputs against.

Everything here is written from the formulas, batched over states, and shares
no code with the qsteer package: Pauli coefficients come from Kronecker
products built here, pair tensors are slices of the three-qubit tensor
instead of partial traces. Mixed-state deficits are formed as 1 - purity,
which cancels when a marginal is nearly pure, so mixed states are only
checked far from purity (random ensembles). For pure states the qubit
deficits 2 det(rho_q) come from sums of squared 2x2 minors of the amplitude
matrix (Cauchy-Binet), which stay exact next to product states, where the
sphere scan finds its minima.
"""

from __future__ import annotations

import numpy as np

_SIGMA = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
# _STRINGS[i, j, k] = s_i x s_j x s_k
_STRINGS = np.einsum("iab,jcd,kef->ijkacebdf", _SIGMA, _SIGMA, _SIGMA).reshape(4, 4, 4, 8, 8)

_CASCADE_PARENTS = (None, 0, 1, 2, 3, 4, 4, 6)
MARGIN_VIOLATION = -1e-9


def ensemble(seed: int, mode: str, count: int) -> np.ndarray:
    """(count, 8, 8) states of the documented random-state recipe.

    State i uses the stream SeedSequence(seed, spawn_key=(i,)): cascade
    probabilities (mixed mode only), then a Hermitian matrix from a uniform
    [-1, 1] square, whose eigenvectors in descending order carry the
    probabilities.
    """
    draws = np.zeros((count, 8))
    k = np.empty((count, 8, 8))
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        if mode == "mixed":
            draws[i] = rng.uniform(0.0, 1.0, size=8)
        k[i] = rng.uniform(-1.0, 1.0, size=(8, 8))
    if mode == "mixed":
        n = draws.copy()
        for j in range(1, 8):
            n[:, j] = n[:, _CASCADE_PARENTS[j]] * draws[:, j]
        lams = n / n.sum(axis=1, keepdims=True)
    else:
        lams = np.zeros((count, 8))
        lams[:, 0] = 1.0
    up, lo = np.triu(k, 1), np.tril(k, -1)
    herm = k * np.eye(8) + (up.transpose(0, 2, 1) + up) + 1j * (lo.transpose(0, 2, 1) - lo)
    vecs = np.linalg.eigh(herm)[1][:, :, ::-1]
    return (vecs * lams[:, None, :]) @ vecs.conj().transpose(0, 2, 1)


def pure_deficits(psi: np.ndarray) -> np.ndarray:
    """(n, 3) deficits 1 - tr(rho_q^2) of qubits A, B, C for (n, 8) state vectors."""
    out = []
    for q in range(3):
        m = np.moveaxis(psi.reshape(-1, 2, 2, 2), q + 1, 1).reshape(-1, 2, 4)
        minors = m[:, 0, :, None] * m[:, 1, None, :] - m[:, 0, None, :] * m[:, 1, :, None]
        out.append(np.sum(np.abs(minors) ** 2, axis=(1, 2)))  # each minor appears twice: 2 det
    return np.stack(out, axis=1)


def _bloch_deficit(bloch: np.ndarray) -> np.ndarray:
    # 1 - tr(rho^2) of a qubit with Bloch vector r is (1 - |r|^2) / 2
    return np.clip((1.0 - np.einsum("ni,ni->n", bloch, bloch)) / 2.0, 0.0, None)


def _pair_h(theta2: np.ndarray, steered_deficit: np.ndarray) -> np.ndarray:
    """H for the first qubit of a pair steering the second, from (n, 4, 4) coefficients."""
    cov = theta2[:, 1:, 1:] - theta2[:, 1:, :1] * theta2[:, :1, 1:]
    norm = 0.5 * np.linalg.svd(cov, compute_uv=False).sum(axis=1)
    p_steer = (1.0 + np.einsum("ni,ni->n", theta2[:, 1:, 0], theta2[:, 1:, 0])) / 2.0
    return norm - np.sqrt((2.0 - p_steer) * steered_deficit)


def report(rhos: np.ndarray, deficits: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Default steering report quantities for a (n, 8, 8) stack of states.

    `deficits` are the (n, 3) qubit deficits of pure states (pure_deficits);
    without them every deficit is taken from purities.
    """
    n = len(rhos)
    theta = (rhos.transpose(0, 2, 1).reshape(n, 64) @ _STRINGS.reshape(64, 64).T).real.reshape(n, 4, 4, 4)
    cov = theta - theta[:, :, 0, 0][:, :, None, None] * theta[:, None, 0]
    norm = np.linalg.svd(cov.reshape(-1, 4, 16), compute_uv=False).sum(axis=1) / (2.0 * np.sqrt(2.0))
    p_a = np.einsum("ni,ni->n", theta[:, :, 0, 0], theta[:, :, 0, 0]) / 2.0
    if deficits is None:
        q_bc = np.clip(1.0 - np.einsum("njk,njk->n", theta[:, 0], theta[:, 0]) / 4.0, 0.0, None)
        q_b, q_c = _bloch_deficit(theta[:, 0, 1:, 0]), _bloch_deficit(theta[:, 0, 0, 1:])
    else:
        q_bc, q_b, q_c = deficits.T  # a pure state's BC deficit equals A's
    h_a_bc = norm - np.sqrt((2.0 - p_a) * q_bc)
    h_ab = _pair_h(theta[:, :, :, 0], q_b)
    h_ac = _pair_h(theta[:, :, 0, :], q_c)
    h_bc = _pair_h(theta[:, 0, :, :], q_c)
    h_tot = (h_ab + h_ac) + h_bc
    classification = np.where(
        (h_ab >= 0) & (h_ac >= 0) & (h_bc >= 0), "corollary1",
        np.where((h_ab < 0) & (h_ac < 0) & (h_bc < 0), "corollary2", "mixed"))
    return {
        "norm_a_bc": norm, "h_a_bc": h_a_bc, "h_ab": h_ab, "h_ac": h_ac, "h_bc": h_bc,
        "h_tot": h_tot, "margin": np.maximum(h_a_bc, 0.0) - h_tot,
        "classification": classification,
    }


def family_f(points: np.ndarray) -> np.ndarray:
    """Monogamy gap H_A->BC - (H_AB + H_AC + H_BC) at (n, 4) sphere points
    of the family x|000> + y|100> + z|101> + h|110>."""
    points = np.atleast_2d(points)
    psi = np.zeros((len(points), 8))
    psi[:, [0, 4, 5, 6]] = points
    rep = report(np.einsum("ni,nj->nij", psi, psi).astype(complex), pure_deficits(psi))
    return rep["h_a_bc"] - rep["h_tot"]


def ghz(theta: float) -> dict[str, float]:
    """Closed forms for sin(t)|000> + cos(t)|111> (acceptance criterion 1).

    The state is symmetric under qubit permutations, so every cut and every
    pair direction takes these values.
    """
    c, s = np.cos(theta), np.sin(theta)
    norm = 2 * abs(c * s) + 2 * c**2 * s**2
    p4 = c**4 + s**4
    return {
        "norm": norm,
        "h_cut": norm - np.sqrt((5 - np.cos(4 * theta)) / 4 * 2 * c**2 * s**2),
        "h_pair": 2 * c**2 * s**2 - np.sqrt((2 - p4) * (1 - p4)),
    }


def w(alpha: float) -> dict[str, float]:
    """Closed forms of the A->BC cut for the W state at theta = pi/3 (acceptance criterion 3)."""
    base = (5 + 3 * np.cos(2 * alpha)) * np.sin(alpha) ** 2
    lam_a = (85 - 12 * np.cos(2 * alpha) - 9 * np.cos(4 * alpha)) / 64
    norm = np.sqrt(3 / 8 * base) + 3 / 16 * base
    return {"norm": norm, "h_cut": norm - np.sqrt(lam_a * 3 / 16 * base)}
