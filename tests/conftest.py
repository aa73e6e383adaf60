"""Shared fixtures and independent brute-force oracles.

The oracle helpers here deliberately avoid the package's vectorized code
paths: Pauli expectations go through explicit np.kron products, partial
traces and the random-state recipe through index loops, so expected values
are computed by a route the implementation under test never touches. Nothing
here imports qsteer. exact_report is the exact reference: every quantity of
a steering report in 80-digit decimal arithmetic.
"""

import decimal
from decimal import Decimal

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


def oracle_ptrace(rho, keep, qubits=3):
    """Index-loop partial trace of a state of the given number of qubits
    (an 8x8 state by default); keep is a tuple of qubit ids."""
    keep = tuple(sorted(keep))
    traced = [q for q in range(qubits) if q not in keep]
    dk = 2 ** len(keep)
    out = np.zeros((dk, dk), dtype=complex)
    for row in range(2**qubits):
        for col in range(2**qubits):
            rb = [(row >> (qubits - 1 - q)) & 1 for q in range(qubits)]
            cb = [(col >> (qubits - 1 - q)) & 1 for q in range(qubits)]
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


EXACT_DIGITS = 80
# each direction of exact_report: (its steering qubits, its steered qubits)
EXACT_DIRECTIONS = {
    "a_bc": ((0,), (1, 2)), "bc_to_a": ((1, 2), (0,)),
    "b_to_ca": ((1,), (0, 2)), "ca_to_b": ((0, 2), (1,)),
    "c_to_ab": ((2,), (0, 1)), "ab_to_c": ((0, 1), (2,)),
    "ab": ((0,), (1,)), "ba": ((1,), (0,)),
    "ac": ((0,), (2,)), "ca": ((2,), (0,)),
    "bc": ((1,), (2,)), "cb": ((2,), (1,)),
}


def _exact_state(rho, psi):
    """The 8x8 state as rows of (re, im) Decimal pairs, divided by its exact
    trace: the float rho taken exactly, or psi psi^+ built from the float psi."""
    if psi is not None:
        amps = [(Decimal(a.real), Decimal(a.imag)) for a in np.asarray(psi, dtype=complex).tolist()]
        rows = [[(ar * br + ai * bi, ai * br - ar * bi) for br, bi in amps] for ar, ai in amps]
    else:
        rows = [[(Decimal(v.real), Decimal(v.imag)) for v in row] for row in np.asarray(rho, dtype=complex).tolist()]
    tr = sum(rows[i][i][0] for i in range(8))
    return [[(re / tr, im / tr) for re, im in row] for row in rows]


def _exact_theta(rows):
    """theta[i, j, k] = Re sum_rc rho_rc P_cr over the entries 0, +-1, +-i of
    the Pauli string P = kron3(i, j, k); a dict keyed by (i, j, k)."""
    theta = {}
    for ijk in np.ndindex(4, 4, 4):
        total = Decimal(0)
        for (c, r), p in np.ndenumerate(kron3(*ijk)):
            re, im = rows[r][c]
            total += re * int(p.real) - im * int(p.imag)  # Re((re + i im) p)
        theta[ijk] = total
    return theta


def _exact_deficit(rows, keep):
    """1 - sum |rho_ij|^2 of the reduced state of the qubits in keep, by an
    index loop over the traced qubits' equal bits."""
    reduced = {}
    for r, c in np.ndindex(8, 8):
        rb, cb = ([(x >> (2 - q)) & 1 for q in range(3)] for x in (r, c))
        if all(rb[q] == cb[q] for q in range(3) if q not in keep):
            key = (tuple(rb[q] for q in keep), tuple(cb[q] for q in keep))
            re, im = reduced.get(key, (Decimal(0), Decimal(0)))
            reduced[key] = (re + rows[r][c][0], im + rows[r][c][1])
    return 1 - sum(re * re + im * im for re, im in reduced.values())


def _exact_trace_norm(matrix):
    """Sum of the singular values of a 3 x n Decimal matrix: the square roots
    of its Gram matrix's eigenvalues, each by bisection on the characteristic
    polynomial p(x) = x^3 - c2 x^2 + c1 x - c0. The roots of p' split [0, c2]
    into three intervals with one eigenvalue each, on which p rises, falls
    and rises."""
    g = [[sum(a * b for a, b in zip(u, v)) for v in matrix] for u in matrix]
    c2 = g[0][0] + g[1][1] + g[2][2]
    c1 = sum(g[i][i] * g[j][j] - g[i][j] * g[i][j] for i, j in ((0, 1), (0, 2), (1, 2)))
    c0 = (g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[1][2]) - g[0][1] * (g[0][1] * g[2][2] - g[1][2] * g[0][2])
          + g[0][2] * (g[0][1] * g[1][2] - g[1][1] * g[0][2]))
    root = max(c2 * c2 - 3 * c1, Decimal(0)).sqrt()
    mu1, mu2 = (c2 - root) / 3, (c2 + root) / 3
    total = Decimal(0)
    for lo, hi, rising in ((Decimal(0), mu1, True), (mu1, mu2, False), (mu2, c2, True)):
        for _ in range(4 * EXACT_DIGITS):  # 2^-320 of the interval, below 10^-80
            mid = (lo + hi) / 2
            if (((mid - c2) * mid + c1) * mid - c0 < 0) == rising:
                lo = mid
            else:
                hi = mid
        total += max((lo + hi) / 2, Decimal(0)).sqrt()
    return total


def exact_report(rho=None, psi=None):
    """norm_, bound_ and h_ of every direction in EXACT_DIRECTIONS, as Decimals
    at EXACT_DIGITS digits, for the float state rho taken exactly or the exact
    rank-1 state of the float vector psi.

    The covariance entries are the definitions: theta_mn - theta_m0 theta_0n
    between the steering side's Pauli index m and the steered side's n, both
    nonzero, over 2 sqrt 2 for a qubit and a pair and over 2 for two qubits;
    row and column 0 hold theta (1 - tr rho) and vanish. Each deficit is 1 -
    tr rho_s^2 of its marginal, and the bound sqrt((2^k - tr rho_s^2) d_t) for
    k steering qubits. Nothing is shared with the kernel: no minors, no
    pure-state switch, no floor, and no closed-form equation for the norm.
    """
    with decimal.localcontext(decimal.Context(prec=EXACT_DIGITS)):
        rows = _exact_state(rho, psi)
        theta = _exact_theta(rows)
        deficit = {keep: _exact_deficit(rows, keep) for keep in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2))}
        out = {}
        for name, (steer, steered) in EXACT_DIRECTIONS.items():
            qubit, pair = sorted((steer, steered), key=len)  # a pair direction keeps its order

            def t(m, n):  # theta with Pauli index m on qubit, the indices n on pair, 0 elsewhere
                index = [0, 0, 0]
                for q, i in zip(qubit + pair, (m,) + n):
                    index[q] = i
                return theta[tuple(index)]

            ns = [n for n in np.ndindex(*(4,) * len(pair)) if any(n)]
            zero = (0,) * len(pair)
            scale = 1 / (2 * Decimal(2).sqrt()) if len(pair) == 2 else Decimal(1) / 2
            cov = [[scale * (t(m, n) - t(m, zero) * t(0, n)) for n in ns] for m in (1, 2, 3)]
            norm = _exact_trace_norm(cov)
            bound = ((2 ** len(steer) - 1 + deficit[tuple(sorted(steer))])
                     * deficit[tuple(sorted(steered))]).sqrt()
            out.update({f"norm_{name}": norm, f"bound_{name}": bound, f"h_{name}": norm - bound})
        return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
