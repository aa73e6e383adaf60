"""Shared fixtures and independent brute-force oracles.

The oracle helpers here deliberately avoid the package's vectorized code
paths: Pauli expectations go through explicit np.kron products, partial
traces and the random-state recipe through index loops, so expected values
are computed by a route the implementation under test never touches. Nothing
here imports qsteer.
"""

import numpy as np
import pytest

S0 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA = [S0, SX, SY, SZ]


def kron3(i, j, k):
    return np.kron(np.kron(SIGMA[i], SIGMA[j]), SIGMA[k])


def oracle_theta3(rho):
    t = np.zeros((4, 4, 4))
    for i in range(4):
        for j in range(4):
            for k in range(4):
                t[i, j, k] = np.trace(rho @ kron3(i, j, k)).real
    return t


def oracle_theta2(rho2):
    t = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            t[i, j] = np.trace(rho2 @ np.kron(SIGMA[i], SIGMA[j])).real
    return t


def density_from_theta(theta):
    """The 8x8 state rho = (1/8) sum theta_ijk s_i x s_j x s_k."""
    return sum(theta[i, j, k] * kron3(i, j, k) for i, j, k in np.ndindex(4, 4, 4)) / 8.0


def purity_from_theta(theta, cut="full"):
    """Reduced-state purity from squared Pauli coefficients (Parseval).

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


def recipe_cascade(u):
    """Eight probabilities from eight uniforms: N_1 = u_1, N_{n+1} = N_n u_{n+1}
    up to N_6, then N_7 = N_5 u_7 and N_8 = N_7 u_8, normalized to sum 1."""
    n = [u[0]]
    for i in range(1, 8):
        n.append((n[4] if i == 6 else n[i - 1]) * u[i])
    n = np.array(n)
    return n / n.sum()


def recipe_hermitian(k):
    """The recipe's 8x8 Hermitian matrix from K: H[i, i] = K[i, i] and, for
    i < j, H[i, j] = K[i, j] + i K[j, i] with H[j, i] its conjugate."""
    h = np.zeros((8, 8), dtype=complex)
    for i in range(8):
        h[i, i] = k[i, i]
        for j in range(i + 1, 8):
            h[i, j] = complex(k[i, j], k[j, i])
            h[j, i] = complex(k[i, j], -k[j, i])
    return h


def recipe_spectrum(seed, mode, index):
    """State number index of a (seed, mode) random batch, one state at a time
    from its own child stream: the eigenvalues (e_1 for a pure state) and the
    eigenvectors of the recipe's H, leading column first."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    lams = recipe_cascade(rng.random(8)) if mode == "mixed" else np.eye(8)[0]
    vecs = np.linalg.eigh(recipe_hermitian(rng.uniform(-1.0, 1.0, size=(8, 8))))[1][:, ::-1]
    return lams, vecs


def oracle_ptrace(rho, keep):
    """Index-loop partial trace of an 8x8 state; keep is a tuple of qubit ids."""
    keep = tuple(sorted(keep))
    traced = [q for q in range(3) if q not in keep]
    dk = 2 ** len(keep)
    out = np.zeros((dk, dk), dtype=complex)
    for row in range(8):
        for col in range(8):
            rb = [(row >> (2 - q)) & 1 for q in range(3)]
            cb = [(col >> (2 - q)) & 1 for q in range(3)]
            if any(rb[q] != cb[q] for q in traced):
                continue
            r_idx = 0
            c_idx = 0
            for q in keep:
                r_idx = (r_idx << 1) | rb[q]
                c_idx = (c_idx << 1) | cb[q]
            out[r_idx, c_idx] += rho[row, col]
    return out


def random_pure_density(rng, dim=8):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_mixed_density(rng, dim=8):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_unitary_2(rng):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_octant_point(rng):
    p = np.abs(rng.standard_normal(4))
    return p / np.linalg.norm(p)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
