import decimal
import functools
import itertools
import json
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from qsteer.randgen import RandomStateSpec, random_state_batch
from qsteer.states import (
    density_from_pure,
    ghz_state,
    schmidt_state,
    validate_state,
    w_state,
)
from qsteer.steering import (
    DEFICIT_FLOOR,
    ONE_TWO_SCALE,
    PAIR_SCALE,
    _trace_norms,
    SteeringReport,
    _classes,
    correlation_matrix,
    h_pair,
    partial_trace,
    pauli_tensor,
    permute_qubits,
    purity_deficit,
    steering_batch,
    steering_report,
    trace_norm,
)

from conftest import (
    SIGMA,
    exact_report,
    kron3,
    oracle_ptrace,
    oracle_theta2,
    oracle_theta3,
    purity_from_theta,
    random_mixed_density,
    random_pure_density,
    random_unitary_2,
)

R2 = 1 / np.sqrt(2)
GHZ_H = 1.5 - np.sqrt(0.75)  # 0.6339745962155614
GHZ_PAIR_H = 0.5 - np.sqrt(0.75)  # -0.3660254037844386
# trace norm sqrt(3)/2 + 3/8, bound sqrt(1.375 * 0.375); computed by the
# explicit LOO covariance oracle below and frozen here
W_HALFPI_H = 0.5229550729671851


def oracle_one_to_two_entries(rho):
    """Definition-level covariance matrix: explicit LOO kron products."""
    rho_a = oracle_ptrace(rho, (0,))
    rho_bc = oracle_ptrace(rho, (1, 2))
    out = np.zeros((4, 16))
    for m in range(4):
        ga = SIGMA[m] / np.sqrt(2)
        for n in range(16):
            j, k = divmod(n, 4)
            gbc = np.kron(SIGMA[j], SIGMA[k]) / 2
            op = np.kron(ga, gbc)
            out[m, n] = np.trace(op @ (rho - np.kron(rho_a, rho_bc))).real
    return out


def oracle_pair_entries(rho2):
    r0 = np.einsum("abcb->ac", rho2.reshape(2, 2, 2, 2))
    r1 = np.einsum("abac->bc", rho2.reshape(2, 2, 2, 2))
    out = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            op = np.kron(SIGMA[i], SIGMA[j]) / 2
            out[i, j] = np.trace(op @ (rho2 - np.kron(r0, r1))).real
    return out


class TestCorrelationMatrices:
    def test_is_the_two_theta_formulas(self):
        # the qubit -> pair matrix of a three-qubit state and the pair matrix,
        # each as it was once computed from a Pauli tensor: the same products
        # and subtraction, so the same bytes, for stacks and for one state
        for n, mode in ((7, "pure"), (200, "mixed")):
            rho = random_state_batch(RandomStateSpec(seed=n, mode=mode, count=n), 0, n)
            theta = pauli_tensor(rho)
            cov = theta - theta[..., :, 0, 0, None, None] * theta[..., None, 0, :, :]
            expect = (1.0 / (2.0 * np.sqrt(2.0))) * cov.reshape(n, 4, 16)
            assert correlation_matrix(rho).tobytes() == expect.tobytes()
            assert correlation_matrix(rho[0]).tobytes() == expect[0].tobytes()
            pairs = np.concatenate([partial_trace(rho, keep) for keep in ("AB", "AC", "BC")])
            expect = np.stack([0.5 * (t - np.outer(t[:, 0], t[0])) for t in pauli_tensor(pairs)])
            assert correlation_matrix(pairs).tobytes() == expect.tobytes()
            assert correlation_matrix(pairs[-1]).tobytes() == expect[-1].tobytes()

    def test_matches_definition(self, rng):
        for maker in (random_pure_density, random_mixed_density):
            rho = maker(rng)
            m = correlation_matrix(rho)
            assert_allclose(m, oracle_one_to_two_entries(rho), atol=1e-12)

    def test_zero_borders(self, rng):
        for _ in range(10):
            rho = random_mixed_density(rng)
            m = correlation_matrix(rho)
            assert np.max(np.abs(m[0, :])) < 1e-12
            assert np.max(np.abs(m[:, 0])) < 1e-12
            mp = correlation_matrix(rho).swapaxes(-1, -2)
            assert np.max(np.abs(mp[0, :])) < 1e-12
            assert np.max(np.abs(mp[:, 0])) < 1e-12
            c = correlation_matrix(partial_trace(rho, ("A", "B")))
            assert np.max(np.abs(c[0, :])) < 1e-12
            assert np.max(np.abs(c[:, 0])) < 1e-12

    def test_product_state_vanishes(self):
        m = correlation_matrix(density_from_pure(np.eye(8)[0]))
        assert np.max(np.abs(m)) < 1e-14
        assert np.max(np.abs(m.swapaxes(-1, -2))) < 1e-14

    def test_maximally_mixed_vanishes(self):
        assert np.max(np.abs(correlation_matrix(np.eye(8, dtype=complex) / 8))) < 1e-14

    def test_ghz_rows_and_norm(self):
        m = correlation_matrix(density_from_pure(ghz_state(np.pi / 4)))
        assert np.max(np.abs(m[0])) < 1e-14
        assert trace_norm(m) == pytest.approx(1.5, abs=1e-12)

    def test_two_to_one_is_transpose(self, rng):
        # the pair -> qubit matrix is the transpose, so a cut's two directions share one norm
        rho = random_mixed_density(rng)
        rep = steering_report(rho, include_all_cuts=True, include_two_to_one=True)
        for name, _, reverse in CUT_AXES:
            assert rep[f"norm_{reverse}"] == rep[f"norm_{name}"]
        stack = np.stack([random_mixed_density(rng) for _ in range(7)])
        m = correlation_matrix(stack).swapaxes(-1, -2)
        assert m.shape == (7, 16, 4)
        for i in range(7):
            assert np.array_equal(m[i], correlation_matrix(stack[i]).T)

    def test_two_to_one_via_permutation_pipeline(self, rng):
        # same matrix out of the relabeled-state tensor and the direct formula
        rho = random_mixed_density(rng)
        tp = pauli_tensor(permute_qubits(rho, ("B", "C", "A")))
        scale = 1 / (2 * np.sqrt(2))
        direct = np.zeros((16, 4))
        for n in range(16):
            j, k = divmod(n, 4)
            for m in range(4):
                direct[n, m] = scale * (tp[j, k, m] - tp[j, k, 0] * tp[0, 0, m])
        assert_allclose(correlation_matrix(rho).swapaxes(-1, -2), direct, atol=1e-12)

    def test_pair_matches_definition(self, rng):
        rho2 = partial_trace(random_mixed_density(rng), ("A", "C"))
        c = correlation_matrix(rho2)
        assert_allclose(c, oracle_pair_entries(rho2), atol=1e-12)

    def test_pair_examples(self):
        prod = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2).astype(complex)
        assert np.max(np.abs(correlation_matrix(prod))) < 1e-14
        bell = np.zeros(4, dtype=complex)
        bell[1] = bell[2] = R2
        c = correlation_matrix(np.outer(bell, bell.conj()))
        assert trace_norm(c) == pytest.approx(1.5, abs=1e-12)

    def test_ghz_pair_norm_closed_form(self):
        for th in np.linspace(0, np.pi / 2, 21):
            rho2 = partial_trace(density_from_pure(ghz_state(th)), ("A", "B"))
            expect = 2 * np.cos(th) ** 2 * np.sin(th) ** 2
            assert trace_norm(correlation_matrix(rho2)) == pytest.approx(expect, abs=1e-12)


class TestTraceNorm:
    def test_zero(self):
        assert trace_norm(np.zeros((4, 16))) == 0.0

    def test_identity(self):
        assert trace_norm(np.eye(4)) == pytest.approx(4.0)

    def test_positive_iff_nonzero(self, rng):
        m = rng.standard_normal((4, 16))
        assert trace_norm(m) > 0

    def test_empty_is_zero(self):
        # a sum of no singular values: 0.0, and one zero per matrix of a stack
        for shape in ((0, 3), (3, 0)):
            got = trace_norm(np.zeros(shape))
            assert type(got) is float and got == 0.0
        assert np.array_equal(trace_norm(np.zeros((2, 0, 3))), np.zeros(2))


def _blocks(rng, cols, count, sigma=None, rank=3):
    """(3, cols, count) stack of blocks: Gaussian of the given rank, or
    U diag(sigma) V^T with Haar-random U and orthonormal columns V."""
    if sigma is None:
        blocks = rng.standard_normal((count, 3, rank)) @ rng.standard_normal((count, rank, cols))
    else:
        u = np.linalg.qr(rng.standard_normal((count, 3, 3)))[0]
        v = np.linalg.qr(rng.standard_normal((count, cols, 3)))[0]
        blocks = u * np.asarray(sigma, dtype=float) @ np.swapaxes(v, 1, 2)
    return np.moveaxis(blocks, 0, -1)


# singular values of the adversarial stacks: equal, graded, near-degenerate,
# repeated small ones, and rows too small to square (below 2^-500)
SIGMAS = [(1, 1, 1), (1, 1, 0), (1, 1e-5, 1e-11), (1, 1 + 1e-9, 1e-9), (2, 1e-8, 1e-8), (1e-3, 1e-3, 1e-3),
          (1, 1e-300, 0), (1, 1e-160, 1e-170), (1e-160, 1e-161, 0)]


class TestTraceNorms:
    """The kernel's closed-form route against LAPACK (trace_norm)."""

    @staticmethod
    def assert_within_budget(m):
        # 1e-14 of the block's scale, plus what the floor may drop: rows of
        # norm below 2^-500 are not normalised
        got, ref = _trace_norms(m), trace_norm(np.moveaxis(m, -1, 0))
        scale = np.sqrt(np.einsum("ijk,ijk->k", m, m))
        assert np.all(np.abs(got - ref) <= 1e-14 * scale + 3 * 2.0**-500)

    @pytest.mark.parametrize("cols", [3, 15])
    @pytest.mark.parametrize("rank", [0, 1, 2, 3])
    def test_gaussian_ranks(self, rng, cols, rank):
        self.assert_within_budget(_blocks(rng, cols, 500, rank=rank))

    @pytest.mark.parametrize("cols", [3, 15])
    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_adversarial_singular_values(self, rng, cols, sigma):
        self.assert_within_budget(_blocks(rng, cols, 500, sigma=sigma))

    @pytest.mark.parametrize("cols", [3, 15])
    def test_negative_determinant_sparse_and_underflowing_rows(self, rng, cols):
        m = _blocks(rng, cols, 200)
        m[0] *= -1
        self.assert_within_budget(m)
        sparse = np.zeros((3, cols, 7))
        sparse[2, 1, 0] = 1.0  # a GHZ pair block: rank 1
        sparse[0, 0, 1], sparse[1, 1, 1] = 1.0, -0.5
        sparse[:, 0, 2] = rng.standard_normal(3)
        # a first row just under the floor, whose squares are still normal
        sparse[0, 0, 3], sparse[1, :2, 3], sparse[2, [0, 2], 3] = 2.0**-501, 1.0, [0.5, 1.0]
        # a second row whose squares are subnormal, along which the third has weight
        sparse[0, 0, 4], sparse[1, 1:3, 4], sparse[2, 1, 4] = 1.0, 1e-160, 1.0
        sparse[1, 1:3, 5], sparse[2, 1, 5] = 1e-160, 1.0
        # a first row whose squares are subnormal, along which the second has weight
        sparse[0, :2, 6], sparse[1, 0, 6], sparse[2, 2, 6] = 1e-160, 1.0, 1.0
        self.assert_within_budget(sparse)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_block_is_exactly_zero(self, rng):
        m = _blocks(rng, 15, 6)
        m[..., ::2] = 0.0
        m[1:, :, 1] = 0.0  # rank 1
        with np.errstate(all="raise"):
            norms = _trace_norms(m)
        assert norms[::2].tolist() == [0.0, 0.0, 0.0]
        assert abs(norms[1] - trace_norm(m[..., 1])) <= 1e-14 * norms[1]
        assert np.all(norms[3::2] > 0)

    def test_block_independent_of_its_stack(self, rng):
        m = _blocks(rng, 15, 12)
        m[..., 3] = 0.0
        whole = _trace_norms(m)
        for size in (2, 3, 5):
            for lo in range(0, 12 - size + 1):
                assert _trace_norms(m[..., lo:lo + size]).tobytes() == whole[lo:lo + size].tobytes()
        assert _trace_norms(m[..., ::-1]).tobytes() == whole[::-1].tobytes()

    def test_kernel_calls_no_svd(self, rng, monkeypatch):
        rhos = np.stack([random_mixed_density(rng) for _ in range(3)])
        expect = steering_batch(rhos, **ALL).to_dict()

        def refuse(*args, **kwargs):
            raise AssertionError("the kernel called np.linalg.svd")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        got = steering_batch(rhos, **ALL).to_dict()
        assert all(np.array_equal(got[k], v) for k, v in expect.items())

    def test_trace_off_one_moves_a_norm_by_its_budget(self, rng):
        # the kernel drops each cut matrix's row 0 and column 00, which equal
        # theta (1 - tr rho): zero at unit trace, at most |1 - tr rho| |theta|
        # of Frobenius weight otherwise, so a norm moves by at most that times
        # sqrt(2) (the dropped part has rank 2) over 2 sqrt(2)
        for maker in (random_pure_density, random_mixed_density):
            for _ in range(10):
                rho = maker(rng) * (1 + 1e-12)
                theta = pauli_tensor(rho)
                got = steering_batch(rho[None], include_all_cuts=True)
                for name, axes, _ in CUT_AXES:
                    full = trace_norm(correlation_matrix(permute_qubits(rho, axes)))
                    budget = 1e-12 * np.linalg.norm(theta) / 2 + 1e-14
                    assert abs(got[f"norm_{name}"][0] - full) <= budget, name


class TestHValues:
    def test_ghz_point(self):
        rho = density_from_pure(ghz_state(np.pi / 4))
        assert steering_report(rho, validate=False)["h_a_bc"] == pytest.approx(GHZ_H, abs=1e-9)

    def test_product_zero(self):
        rep = steering_report(density_from_pure(np.eye(8)[0]), validate=False)
        assert rep["h_a_bc"] == pytest.approx(0.0, abs=1e-12)

    def test_w_half_pi(self):
        # oracle: definition-level covariance matrix + marginal purities
        rho = density_from_pure(w_state(np.pi / 3, np.pi / 2))
        m = oracle_one_to_two_entries(rho)
        norm = np.linalg.svd(m, compute_uv=False).sum()
        pa = np.trace(oracle_ptrace(rho, (0,)) @ oracle_ptrace(rho, (0,))).real
        pbc = np.trace(oracle_ptrace(rho, (1, 2)) @ oracle_ptrace(rho, (1, 2))).real
        oracle = norm - np.sqrt((2 - pa) * (1 - pbc))
        assert oracle == pytest.approx(W_HALFPI_H, abs=1e-12)
        assert steering_report(rho, validate=False)["h_a_bc"] == pytest.approx(oracle, abs=1e-10)
        assert norm == pytest.approx(np.sqrt(3) / 2 + 3 / 8, abs=1e-12)

    def test_two_to_one(self, rng):
        def h_bc_to_a(rho):
            return steering_report(rho, include_two_to_one=True, validate=False)["h_bc_to_a"]

        assert h_bc_to_a(density_from_pure(np.eye(8)[0])) == pytest.approx(0.0, abs=1e-12)
        mixed = np.eye(8, dtype=complex) / 8
        assert h_bc_to_a(mixed) == pytest.approx(-np.sqrt(3.75 * 0.5), abs=1e-12)
        rho = density_from_pure(ghz_state(np.pi / 4))
        assert h_bc_to_a(rho) == pytest.approx(1.5 - np.sqrt(1.75), abs=1e-10)

    def test_pair_values(self):
        bell = np.zeros(4, dtype=complex)
        bell[1] = bell[2] = R2
        rho2 = np.outer(bell, bell.conj())
        for side in (0, 1):
            assert h_pair(rho2, side) == pytest.approx(1.5 - np.sqrt(0.75), abs=1e-10)
        prod = np.kron(np.diag([1.0, 0.0]), np.diag([0.5, 0.5]) + 0.5 * np.array([[0, 1], [1, 0]]))
        assert h_pair(prod.astype(complex)) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ValueError, match="^steering_side must be 0 or 1$"):
            h_pair(rho2, steering_side=2)

    @pytest.mark.parametrize("side", [True, 1.0, np.True_, "1"], ids=["bool", "float", "numpy-bool", "str"])
    def test_pair_side_is_an_integer(self, side):
        # a bool or a float equal to 1 would pass as 1
        bell = np.zeros(4, dtype=complex)
        bell[[0, 3]] = R2
        with pytest.raises(ValueError, match="^steering_side must be 0 or 1$"):
            h_pair(np.outer(bell, bell), side)
        assert h_pair(np.outer(bell, bell), np.int64(1)) == h_pair(np.outer(bell, bell), 1)

    def test_pair_ghz_closed_form(self):
        for th in np.linspace(0, np.pi / 2, 21):
            rho2 = partial_trace(density_from_pure(ghz_state(th)), ("A", "B"))
            p4 = np.cos(th) ** 4 + np.sin(th) ** 4
            expect = 2 * np.cos(th) ** 2 * np.sin(th) ** 2 - np.sqrt((2 - p4) * (1 - p4))
            assert h_pair(rho2) == pytest.approx(expect, abs=1e-10)

    def test_steering_value(self):
        # S = max(H, 0) on a steerable (H > 0), an unsteerable (H < 0) and a product (H = 0) state
        states = (density_from_pure(ghz_state(np.pi / 4)), np.eye(8, dtype=complex) / 8,
                  density_from_pure(np.eye(8)[0]))
        h = [steering_report(rho)["h_a_bc"] for rho in states]
        assert h[0] > 0 > h[1] and h[2] == 0.0
        for rho in states:
            rep = steering_report(rho, include_all_cuts=True, include_two_to_one=True)
            for key in (k for k in rep if k.startswith("h_") and k != "h_tot"):
                assert rep["s_" + key[2:]] == np.maximum(rep[key], 0.0)


class TestPureClosedForm:
    def test_every_cut_from_one_schmidt_product(self):
        # a pure state's cut q|pair has norm 2c + 2c^2 in both directions, with
        # H_q->pair = c(2 + 2c - sqrt(2 + 4c^2)) and H_pair->q = c(2 + 2c - sqrt(6 + 4c^2)),
        # c the product of the singular values of psi reshaped to (2, 4) with qubit q
        # first; c comes from an SVD of psi, not from the kernel's deficits
        rng = np.random.default_rng(11)
        n = 5000
        psi = rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        q, r = np.linalg.qr(rng.standard_normal((n, 3, 2, 2)) + 1j * rng.standard_normal((n, 3, 2, 2)))
        phases = np.diagonal(r, axis1=-2, axis2=-1)
        u = q * (phases / np.abs(phases))[..., None, :]  # Haar local unitaries, one per qubit
        psi = np.einsum("nai,nbj,nck,nijk->nabc", u[:, 0], u[:, 1], u[:, 2], psi.reshape(n, 2, 2, 2))
        flat = psi.reshape(n, 8)
        rep = steering_batch(flat[:, :, None] * flat[:, None, :].conj(),
                             include_all_cuts=True, include_two_to_one=True)
        for qubit, one, two in [(0, "a_bc", "bc_to_a"), (1, "b_to_ca", "ca_to_b"), (2, "c_to_ab", "ab_to_c")]:
            s = np.linalg.svd(np.moveaxis(psi, 1 + qubit, 1).reshape(n, 2, 4), compute_uv=False)
            c = s[:, 0] * s[:, 1]
            for key in (one, two):
                assert np.max(np.abs(rep[f"norm_{key}"] - (2 * c + 2 * c * c))) <= 1e-14
            assert np.max(np.abs(rep[f"h_{one}"] - c * (2 + 2 * c - np.sqrt(2 + 4 * c * c)))) <= 1e-14
            assert np.max(np.abs(rep[f"h_{two}"] - c * (2 + 2 * c - np.sqrt(6 + 4 * c * c)))) <= 1e-14
            # the 2->1 criterion misses exactly the states with c < 1/4
            assert np.all((rep[f"h_{two}"] > 0) == (c > 0.25))
            assert np.all(rep[f"h_{one}"] > 0)

    def test_ghz_and_w_norms_are_special_cases(self):
        # GHZ(pi/4) has c = 1/2 on every cut; the symmetric W state has c = sqrt(2)/3
        for psi, c in [(ghz_state(np.pi / 4), 0.5), (w_state(np.pi / 4, np.arccos(3**-0.5)), 2**0.5 / 3)]:
            rep = steering_report(density_from_pure(psi), include_all_cuts=True, include_two_to_one=True)
            for key in ("a_bc", "bc_to_a", "b_to_ca", "c_to_ab"):
                assert rep[f"norm_{key}"] == pytest.approx(2 * c + 2 * c * c, abs=1e-14)
            assert rep["h_a_bc"] == pytest.approx(c * (2 + 2 * c - np.sqrt(2 + 4 * c * c)), abs=1e-14)


class TestWhiteNoiseThresholds:
    """Where the criterion stops detecting a pure state mixed with white noise.

    For GHZ(pi/4), rho(p) = p |psi><psi| + (1 - p) I/8 has both cut norms 3p/2,
    d_A = 1/2 and d_BC = (3 - p^2)/4, so H_A->BC = 3p/2 - sqrt((1 + d_A) d_BC)
    vanishes at p = sqrt(3/7) and H_BC->A = 3p/2 - sqrt((3 + d_BC) d_A) at
    sqrt(15/19). The singlet Werner state's H_pair vanishes at 1/sqrt(3).
    """

    SIDES = (1 - 1e-12, 1 + 1e-12)  # just below and just above each threshold

    @staticmethod
    def _ghz(p):
        return p * density_from_pure(ghz_state(np.pi / 4)) + (1 - p) * np.eye(8) / 8

    @pytest.mark.parametrize("key,threshold", [("h_a_bc", np.sqrt(3 / 7)), ("h_bc_to_a", np.sqrt(15 / 19))],
                             ids=["h_a_bc", "h_bc_to_a"])
    def test_ghz_thresholds(self, key, threshold):
        rhos = [self._ghz(threshold * side) for side in self.SIDES]
        kernel = steering_batch(np.stack(rhos), include_two_to_one=True)[key]
        direct = []
        for rho in rhos:
            d_a, d_bc = purity_deficit(partial_trace(rho, "A")), purity_deficit(partial_trace(rho, "BC"))
            if key == "h_a_bc":
                direct.append(trace_norm(correlation_matrix(rho)) - np.sqrt((1 + d_a) * d_bc))
            else:
                direct.append(trace_norm(correlation_matrix(rho).swapaxes(-1, -2)) - np.sqrt((3 + d_bc) * d_a))
        for h in (kernel, np.array(direct)):
            assert h[0] < 0 < h[1]
            assert np.max(np.abs(h)) <= 1e-11

    def test_werner_pair_threshold(self):
        singlet = np.array([0.0, R2, -R2, 0.0])
        h = [h_pair(p * np.outer(singlet, singlet) + (1 - p) * np.eye(4) / 4)
             for p in np.array(self.SIDES) / np.sqrt(3)]
        assert h[0] < 0 < h[1]
        assert max(map(abs, h)) <= 1e-11


class TestBellDiagonal:
    """The pair criterion on Bell-diagonal states rho = (I + sum_i t_i s_i x s_i)/4.

    Both marginals are I/2, so every deficit is 1/2 and the pair covariance
    is diag(t)/2: H = (sum |t_i| - sqrt(3))/2 in either direction. The
    points are Dirichlet-uniform in the tetrahedron of valid t, whose
    vertices are the four Bell states.
    """

    VERTICES = np.array([[-1, -1, -1], [-1, 1, 1], [1, -1, 1], [1, 1, -1]], dtype=float)

    @staticmethod
    def _states(t):
        return (np.eye(4) + np.einsum("ni,ijk->njk", t, np.stack([np.kron(s, s) for s in SIGMA[1:]]))) / 4

    def test_closed_form_and_cjwr_inclusion(self):
        t = np.random.default_rng(0).dirichlet(np.ones(4), size=1500) @ self.VERTICES
        rho = self._states(t)
        closed = (np.abs(t).sum(1) - np.sqrt(3)) / 2
        direct = np.array([h_pair(r) for r in rho])
        # rho_AB x |0><0|_C: the kernel's A->B pair
        kernel = steering_batch(np.einsum("nij,kl->nikjl", rho, np.diag([1.0, 0.0])).reshape(-1, 8, 8))["h_ab"]
        for h in (direct, kernel):
            assert np.max(np.abs(h - closed)) <= 1e-14
        # sum |t_i| > sqrt(3) implies sum t_i^2 > 1 (Cauchy-Schwarz): every
        # point the pair criterion detects violates the CJWR inequality
        detected = kernel > 0
        assert detected.any()
        assert np.all((t * t).sum(1)[detected] > 1)

    def test_detected_points_are_projectively_steerable(self):
        # all projective measurements steer the state iff (1/2pi) int_{S^2} |T n| dn
        # > 1, T = diag(t) (Jevtic et al., JOSA B 32, A40 (2015)); |T n| is even in
        # each coordinate, so the sphere's integral is 8 times the first octant's
        from scipy import integrate

        def steering_integral(t):
            a, b, c = np.square(t)

            def octant(theta, phi):  # |T n| sin(theta), n at polar angle theta and azimuth phi
                xy = a * np.cos(phi) ** 2 + b * np.sin(phi) ** 2
                return np.sqrt(xy * np.sin(theta) ** 2 + c * np.cos(theta) ** 2) * np.sin(theta)

            octant_integral = integrate.dblquad(octant, 0, np.pi / 2, 0, np.pi / 2, epsabs=1e-13, epsrel=1e-13)[0]
            return 8 * octant_integral / (2 * np.pi)

        # the Werner point T = -p I integrates to 2p, steerable iff p > 1/2;
        # T = diag(0, 0, c) integrates to c
        for p in (0.5, 0.3, 0.9):
            assert abs(steering_integral(np.full(3, -p)) - 2 * p) <= 1e-10
        assert abs(steering_integral([0.0, 0.0, 0.7]) - 0.7) <= 1e-10
        # Dirichlet(1/2) weights put more points near the Bell vertices, where the criterion detects
        t = np.random.default_rng(0).dirichlet(np.full(4, 0.5), size=20) @ self.VERTICES
        detected = np.array([h_pair(rho) for rho in self._states(t)]) > 0
        steerable = np.array([steering_integral(x) for x in t]) > 1
        assert detected.sum() >= 5
        assert np.all(steerable[detected])


def _direct_one_to_two(rho):
    """Each 1->2 cut's (H, norm, bound) through trace_norm's SVD, keyed as the report."""
    out = {}
    for name, axes, _ in CUT_AXES:
        q, pair = axes[0], axes[1:]
        norm = trace_norm(correlation_matrix(permute_qubits(rho, axes)))
        bound = np.sqrt((1 + purity_deficit(partial_trace(rho, (q,)))) * purity_deficit(partial_trace(rho, pair)))
        out[name] = (norm - bound, norm, bound)
    return out


class TestBiseparableCounterexample:
    """rho = 1/2 |0>_B Phi+_CA + 1/2 |0>_C Phi+_AB mixes a product across B|CA
    with a product across C|AB, so it is biseparable, yet every 1->2 cut
    detects it: passing every cut is no test of genuine multipartite steering.
    Closed forms (sympy): A->BC has the norm (2 sqrt 2 + sqrt 3)/4 and the
    bound sqrt 15/4; B->CA and C->AB the norm (2 + sqrt 2)/4 and the bound
    sqrt 11/4."""

    H_A_BC = (2 * np.sqrt(2) + np.sqrt(3) - np.sqrt(15)) / 4  # 0.17187364652691263
    H_B_C = (2 + np.sqrt(2) - np.sqrt(11)) / 4  # 0.0243971930044238

    @staticmethod
    def _rho():
        b_product = np.zeros(8)
        b_product[[0, 5]] = R2  # |0>_B (|00> + |11>)_CA / sqrt 2 = (|000> + |101>) / sqrt 2
        c_product = np.zeros(8)
        c_product[[0, 6]] = R2  # |0>_C (|00> + |11>)_AB / sqrt 2 = (|000> + |110>) / sqrt 2
        return (density_from_pure(b_product) + density_from_pure(c_product)) / 2

    def test_valid_rank_two(self):
        rho = self._rho()
        assert validate_state(rho)["passed"]
        assert_allclose(np.linalg.eigvalsh(rho), [0] * 6 + [0.25, 0.75], rtol=0, atol=1e-15)

    def test_every_one_to_two_cut_detects_it(self):
        rho = self._rho()
        kernel = steering_batch(rho[None], include_all_cuts=True)
        direct = _direct_one_to_two(rho)
        expect = {"a_bc": (self.H_A_BC, (2 * np.sqrt(2) + np.sqrt(3)) / 4, np.sqrt(15) / 4),
                  "b_to_ca": (self.H_B_C, (2 + np.sqrt(2)) / 4, np.sqrt(11) / 4),
                  "c_to_ab": (self.H_B_C, (2 + np.sqrt(2)) / 4, np.sqrt(11) / 4)}
        for name, (h, norm, bound) in expect.items():
            got = [kernel[f"{key}_{name}"][0] for key in ("h", "norm", "bound")]
            assert_allclose(got, [h, norm, bound], rtol=0, atol=1e-14)
            assert_allclose(direct[name], [h, norm, bound], rtol=0, atol=1e-14)
        assert min(self.H_A_BC, self.H_B_C) > 0.024


def _t3_norm(rho):
    """||T3||_HS, the norm of the three-body block theta[1:, 1:, 1:] of the
    Pauli tensor; one per state of a stack."""
    return np.sqrt(np.square(pauli_tensor(rho)[..., 1:, 1:, 1:]).sum(axis=(-3, -2, -1)))


def _pure_products(rng, n, q):
    """n pure products of a Haar qubit q and a Haar pair of the other two
    qubits, as density matrices (n, 8, 8)."""
    v = [rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)) for d in (2, 4)]
    qubit, pair = (x / np.linalg.norm(x, axis=1, keepdims=True) for x in v)
    psi = qubit[:, :, None] * pair[:, None, :]
    # axes (qubit q, the pair's first, its second) moved into A, B, C order
    return density_from_pure(np.moveaxis(psi.reshape(n, 2, 2, 2), 1, 1 + q).reshape(n, 8))


class TestThreeBodyFloor:
    """||T3||_HS <= sqrt 3 on every biseparable state, so ||T3||_HS > sqrt 3
    certifies genuine tripartite entanglement. A pure product across A|BC
    has T3 = a x t with |a| = 1, and 4 tr rho_BC^2 = 1 + |b|^2 + |c|^2 +
    |t|^2 = 4 gives |t|^2 <= 3; likewise across B|CA and C|AB, and the norm
    is convex in rho. Under white noise T3 scales by p, so the floor
    certifies GHZ(pi/4) from p > sqrt 3 / 2 and W from p > sqrt(9/11)."""

    W = np.array([0, 1, 1, 0, 1, 0, 0, 0]) / np.sqrt(3)

    def test_closed_forms(self):
        phi = np.zeros(8)
        phi[[0, 3]] = R2  # |0>_A x Phi+_BC, a product on the floor
        rhos = [density_from_pure(ghz_state(np.pi / 4)), density_from_pure(self.W),
                TestBiseparableCounterexample._rho(), density_from_pure(phi)]
        assert_allclose(_t3_norm(np.stack(rhos)), [2, np.sqrt(11 / 3), np.sqrt(2), np.sqrt(3)],
                        rtol=0, atol=1e-14)

    def test_biseparable_at_most_sqrt_3(self):
        rng = np.random.default_rng(15)
        for q in range(3):  # 10^4 pure products across each cut, 1000 at a time
            for _ in range(10):
                assert _t3_norm(_pure_products(rng, 1000, q)).max() <= np.sqrt(3) + 1e-12
        for _ in range(3):  # mixtures of one pure product across each cut
            weights = rng.dirichlet(np.ones(3), 1000).T[:, :, None, None]
            rho = np.add.reduce(weights * np.stack([_pure_products(rng, 1000, q) for q in range(3)]))
            assert _t3_norm(rho).max() <= np.sqrt(3) + 1e-12

    def test_white_noise_threshold(self):
        for psi, p in ((ghz_state(np.pi / 4), np.sqrt(3) / 2), (self.W, np.sqrt(9 / 11))):
            below, above = (_t3_norm(q * density_from_pure(psi) + (1 - q) * np.eye(8) / 8)
                            for q in (p * (1 - 1e-12), p * (1 + 1e-12)))
            assert below < np.sqrt(3) < above


class TestCKWMonogamy:
    """The Coffman-Kundu-Wootters form S_A->BC >= S_A->B + S_A->C fails where
    the paper's S_A->BC >= H_A->B + H_A->C + H_B->C holds: pure state 464 of
    RandomStateSpec(seed=5), the worst of the 5 CKW failures in its first
    20,000 states. The paper's relation holds there only through its
    negative H_B->C term. Mixed states fail it more often and by more."""

    @staticmethod
    def _rho():
        return random_state_batch(RandomStateSpec(seed=5, mode="pure", count=465), 464, 465)[0]

    def test_ckw_fails_paper_holds(self):
        rho = self._rho()
        r = steering_report(rho)
        ckw = r["s_a_bc"] - r["s_ab"] - r["s_ac"]
        assert_allclose([r["s_a_bc"], r["s_ab"], r["s_ac"], ckw], [0.38273, 0.24594, 0.15103, -0.0142471],
                        rtol=0, atol=1e-5)
        # both pair H >= 0, so S = H there, and the relation survives on h_bc < 0
        assert r["h_ab"] > 0 and r["h_ac"] > 0
        assert_allclose(r["h_bc"], -0.18957, rtol=0, atol=1e-5)
        assert r["margin"] == r["s_a_bc"] - r["h_tot"] and r["margin"] > 0.17

    def test_direct_route_agrees(self):
        rho = self._rho()
        r = steering_report(rho)
        s_a_bc = max(_direct_one_to_two(rho)["a_bc"][0], 0.0)
        s_ab, s_ac = (max(h_pair(partial_trace(rho, pair)), 0.0) for pair in ("AB", "AC"))
        assert abs((s_a_bc - s_ab - s_ac) - (r["s_a_bc"] - r["s_ab"] - r["s_ac"])) <= 1e-12
        h_bc = h_pair(partial_trace(rho, "BC"))
        assert abs(h_bc - r["h_bc"]) <= 1e-12
        assert s_a_bc - (s_ab + s_ac + h_bc) >= 0

    def test_worst_mixed_state(self):
        # mixed state 5560 of RandomStateSpec(seed=5, mode="mixed"), the worst of
        # the 75 CKW failures in its first 20,000 states: A->C is detected while
        # A->BC is not, and the paper's relation holds on two negative pair H
        rho = random_state_batch(RandomStateSpec(seed=5, mode="mixed", count=5561), 5560, 5561)[0]
        r = steering_report(rho)
        assert_allclose([r["h_a_bc"], r["s_ac"], r["h_ab"], r["h_bc"], r["margin"]],
                        [-0.0640814, 0.2382672, -0.5655557, -0.5407306, 0.8680191], rtol=0, atol=1e-7)
        assert r["s_a_bc"] == r["s_ab"] == 0.0 and r["s_ac"] == r["h_ac"]
        h_a_bc = _direct_one_to_two(rho)["a_bc"][0]
        h_ac = h_pair(partial_trace(rho, "AC"))
        assert abs(h_a_bc - r["h_a_bc"]) <= 1e-12 and abs(h_ac - r["h_ac"]) <= 1e-12
        assert max(h_a_bc, 0.0) - max(h_ac, 0.0) < -0.238


class TestTwoToOneMonogamy:
    """The 2->1 analogue S_BC->A >= H_B->A + H_C->A + H_B->C of the paper's
    relation fails where the paper's own relation holds: pure state 1950 of
    RandomStateSpec(seed=5), the worst of the 5123 2->1 failures in its first
    20,000 states."""

    @staticmethod
    def _rho():
        return random_state_batch(RandomStateSpec(seed=5, mode="pure", count=1951), 1950, 1951)

    def test_two_to_one_fails_paper_holds(self):
        r = steering_batch(self._rho(), True, True, True)
        gap = r["s_bc_to_a"] - (r["h_ba"] + r["h_ca"] + r["h_bc"])
        assert_allclose(gap, [-0.510005], rtol=0, atol=1e-6)
        assert_allclose(r["margin"], [0.47525], rtol=0, atol=1e-5)

    def test_direct_route_agrees(self):
        rhos = self._rho()
        r = steering_batch(rhos, True, True, True)
        rho = rhos[0]
        norm = trace_norm(correlation_matrix(rho))
        bound = np.sqrt((3 + purity_deficit(partial_trace(rho, "BC"))) * purity_deficit(partial_trace(rho, "A")))
        s_bc_to_a = max(norm - bound, 0.0)
        h_ba, h_ca = (h_pair(partial_trace(rho, pair), steering_side=1) for pair in ("AB", "AC"))
        h_bc = h_pair(partial_trace(rho, "BC"))
        direct = s_bc_to_a - (h_ba + h_ca + h_bc)
        assert abs(direct - (r["s_bc_to_a"] - (r["h_ba"] + r["h_ca"] + r["h_bc"]))[0]) <= 1e-12


class TestInvariantMeasures:
    """The monogamy findings under unitarily invariant measures, which the
    recipe's is not (test_randgen.test_pure_measure_is_not_haar): 20,000 Haar
    pure states (normalised complex Gaussian vectors) and 20,000
    Hilbert-Schmidt mixed states (G G^+ / tr G G^+, G a complex Gaussian
    matrix), each drawn from a fresh default_rng(5)."""

    N = 20_000

    @staticmethod
    def _gaps(rho):
        """The CKW gap S_A->BC - S_A->B - S_A->C, the paper's margin and the
        2->1 gap S_BC->A - (H_B->A + H_C->A + H_B->C) of every state, in blocks
        of 4000 (a state's values do not depend on its stack)."""
        parts = []
        for block in np.split(rho, len(rho) // 4000):
            r = steering_batch(block, True, True, True)
            parts.append((r["s_a_bc"] - r["s_ab"] - r["s_ac"], r["margin"],
                          r["s_bc_to_a"] - (r["h_ba"] + r["h_ca"] + r["h_bc"])))
        return [np.concatenate(p) for p in zip(*parts)]

    def test_haar_pure(self):
        rng = np.random.default_rng(5)
        psi = rng.standard_normal((self.N, 8)) + 1j * rng.standard_normal((self.N, 8))
        ckw, margin, two_to_one = self._gaps(density_from_pure(psi / np.linalg.norm(psi, axis=1, keepdims=True)))
        assert np.count_nonzero(ckw < 0) == 18 and ckw.argmin() == 11305
        assert np.count_nonzero(two_to_one < 0) == 5631
        assert_allclose([ckw.min(), margin.min(), two_to_one.min()], [-0.0254637, 0.0560991, -0.515115],
                        rtol=0, atol=1e-6)

    def test_hilbert_schmidt_mixed(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((self.N, 8, 8)) + 1j * rng.standard_normal((self.N, 8, 8))
        m = g @ g.conj().transpose(0, 2, 1)
        ckw, margin, two_to_one = self._gaps(m / np.trace(m, axis1=1, axis2=2).real[:, None, None])
        assert np.count_nonzero(ckw < 0) == 0 and np.count_nonzero(two_to_one < 0) == 0
        assert_allclose(margin.min(), 1.20204, rtol=0, atol=1e-5)


@functools.cache
def _exact_states():
    """(float rho, exact report) of a few seeded states: Hilbert-Schmidt mixed
    and Haar pure ones (the pure ones exact from psi), and the recipe's."""
    rng = np.random.default_rng(13)
    out = []
    for _ in range(3):
        rho = random_mixed_density(rng)
        psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi /= np.linalg.norm(psi)
        out += [(rho, exact_report(rho)), (density_from_pure(psi), exact_report(psi=psi))]
    for mode in ("mixed", "pure"):
        out += [(rho, exact_report(rho)) for rho in random_state_batch(RandomStateSpec(seed=1, mode=mode, count=2), 0, 2)]
    return out


class TestExactOracle:
    """Forward error of every route against exact_report, the 80-digit
    decimal reference of tests/conftest.py. The kernel reads tr rho as 1, so
    a trace residual e moves a value by up to ~e; the recipe's states carry
    e up to ~1.5e-15. Each route stays within EXACT_BUDGET + 2e."""

    # measured on 80 generic and 240 recipe states: error - 2e <= 5.4e-16 on
    # every route, and error <= 6.4e-16 on the generic ones
    EXACT_BUDGET = 1e-15

    @staticmethod
    def _error(value, exact):
        return abs(float(Decimal(float(value)) - exact))

    def test_oracle_closed_forms(self):
        # GHZ(pi/4): H = 3/2 - sqrt 3/2 on each 1->2 cut, 3/2 - sqrt 7/2 on each
        # 2->1 cut, 1/2 - sqrt 3/2 on each pair; |000> gives zeros. The norms of
        # GHZ's cuts are a triple root, which bisection pins to ~1e-27
        with decimal.localcontext(decimal.Context(prec=80)):
            root3, root7 = Decimal(3).sqrt() / 2, Decimal(7).sqrt() / 2
            ghz = exact_report(psi=ghz_state(np.pi / 4))
            for name in ("a_bc", "b_to_ca", "c_to_ab"):
                assert abs(ghz[f"h_{name}"] - (Decimal(3) / 2 - root3)) < Decimal("1e-25")
            for name in ("bc_to_a", "ca_to_b", "ab_to_c"):
                assert abs(ghz[f"h_{name}"] - (Decimal(3) / 2 - root7)) < Decimal("1e-25")
            for name in ("ab", "ba", "ac", "ca", "bc", "cb"):
                assert abs(ghz[f"h_{name}"] - (Decimal(1) / 2 - root3)) < Decimal("1e-30")
        assert all(v == 0 for v in exact_report(psi=np.eye(8)[0]).values())

    def test_kernel_within_budget(self):
        states = _exact_states()
        batch = steering_batch(np.stack([rho for rho, _ in states]), True, True, True)
        for i, (rho, exact) in enumerate(states):
            budget = self.EXACT_BUDGET + 2 * abs(math.fsum(np.diag(rho).real) - 1)
            expect = dict(exact)
            for name in ("a_bc", "bc_to_a", "b_to_ca", "ca_to_b", "c_to_ab", "ab_to_c", "ab", "ac", "bc"):
                expect[f"s_{name}"] = max(exact[f"h_{name}"], Decimal(0))
            pairs = [exact[k] for k in ("h_ab", "h_ac", "h_bc")]
            expect.update(h_tot=sum(pairs), s_tot=expect["s_ab"] + expect["s_ac"] + expect["s_bc"],
                          margin=expect["s_a_bc"] - sum(pairs))
            label = "corollary1" if min(pairs) >= 0 else "corollary2" if max(pairs) < 0 else "mixed"
            for report in (batch.row(i), steering_report(rho, True, True, True)):
                assert report.pop("classification") == label
                errors = {key: self._error(value, expect[key]) for key, value in report.items()}
                assert max(errors.values()) <= budget, (i, max(errors, key=errors.get))

    def test_reference_routes_within_budget(self):
        for rho, exact in _exact_states():
            budget = self.EXACT_BUDGET + 2 * abs(math.fsum(np.diag(rho).real) - 1)
            for name, axes, reverse in CUT_AXES:
                norm = trace_norm(correlation_matrix(permute_qubits(rho, axes)))
                assert self._error(norm, exact[f"norm_{name}"]) <= budget
                assert self._error(norm, exact[f"norm_{reverse}"]) <= budget
            for pair, forward, backward in PAIR_KEYS:
                rho2 = partial_trace(rho, pair)
                assert self._error(trace_norm(correlation_matrix(rho2)), exact[f"norm{forward[1:]}"]) <= budget
                assert self._error(h_pair(rho2), exact[forward]) <= budget
                assert self._error(h_pair(rho2, steering_side=1), exact[backward]) <= budget


class TestWPairNorms:
    def test_tt1_closed_forms(self):
        # the ac/bc forms need |sin 2a| to stay nonnegative past pi/2
        for al in np.linspace(0.05, np.pi - 0.05, 29):
            rho = density_from_pure(w_state(np.pi / 3, al))
            s, s2 = np.sin(al), np.sin(2 * al)
            nab = trace_norm(correlation_matrix(partial_trace(rho, ("A", "B"))))
            nac = trace_norm(correlation_matrix(partial_trace(rho, ("A", "C"))))
            nbc = trace_norm(correlation_matrix(partial_trace(rho, ("B", "C"))))
            assert nab == pytest.approx(np.sqrt(3) / 2 * s**2 + 3 / 8 * s**4, abs=1e-10)
            assert nac == pytest.approx(np.sqrt(3) / 2 * abs(s2) + 3 / 8 * s2**2, abs=1e-10)
            assert nbc == pytest.approx(0.5 * abs(s2) + 0.5 * s**2 * np.cos(al) ** 2, abs=1e-10)


class TestReport:
    def test_ghz_report(self):
        rep = steering_report(density_from_pure(ghz_state(np.pi / 4)))
        assert rep["s_a_bc"] == pytest.approx(GHZ_H, abs=1e-9)
        for key in ("h_ab", "h_ac", "h_bc"):
            assert rep[key] == pytest.approx(GHZ_PAIR_H, abs=1e-12)
        assert rep["classification"] == "corollary2"
        assert rep["margin"] == pytest.approx(np.sqrt(3), abs=1e-9)
        assert rep["margin"] > 0

    def test_product_report(self):
        rep = steering_report(density_from_pure(np.eye(8)[0]))
        assert rep["h_a_bc"] == pytest.approx(0.0, abs=1e-12)
        assert rep["s_tot"] == 0.0
        assert rep["margin"] == pytest.approx(0.0, abs=1e-12)

    def test_schmidt_bell_report(self):
        rep = steering_report(density_from_pure(schmidt_state((0, 0, R2, R2))))
        assert rep["s_a_bc"] == pytest.approx(0.0, abs=1e-12)
        assert rep["h_ab"] == pytest.approx(-R2, abs=1e-10)
        assert rep["h_ac"] == pytest.approx(-R2, abs=1e-10)
        assert rep["h_bc"] == pytest.approx(GHZ_H, abs=1e-10)
        assert rep["margin"] == pytest.approx(0.780239, abs=1e-5)
        assert rep["classification"] == "mixed"

    def test_w_half_pi_report(self):
        rep = steering_report(density_from_pure(w_state(np.pi / 3, np.pi / 2)))
        assert rep["h_a_bc"] == pytest.approx(W_HALFPI_H, abs=1e-10)
        assert rep["h_ab"] == pytest.approx(W_HALFPI_H, abs=1e-10)
        assert rep["h_ac"] == pytest.approx(0.0, abs=1e-12)
        assert rep["h_bc"] == pytest.approx(0.0, abs=1e-12)
        assert rep["classification"] == "corollary1"

    def test_classification_rule(self):
        # one column of pair H values (h_ab, h_ac, h_bc) per state; H = 0 counts as steerable
        h = np.array([[0.0, -0.1, -0.1], [0.1, -0.2, 0.2], [0.2, -0.3, 0.3]])
        assert _classes(h).tolist() == ["corollary1", "corollary2", "mixed"]

    def test_report_keys(self, rng):
        rep = steering_report(random_mixed_density(rng), include_all_cuts=True,
                              include_two_to_one=True, include_reverse_pairs=True)
        d = rep.to_dict()
        core = {"h_a_bc", "s_a_bc", "h_ab", "h_ac", "h_bc", "s_ab", "s_ac", "s_bc",
                "h_tot", "s_tot", "margin", "classification"}
        assert core <= set(d)
        for extra in ("h_b_to_ca", "h_c_to_ab", "h_bc_to_a", "h_ba"):
            assert extra in d
        assert d["s_ab"] == np.maximum(d["h_ab"], 0.0)

    def test_cut_consistency_via_permutation(self, rng):
        # the B->CA cut equals the A->BC cut of the relabeled state
        rho = random_mixed_density(rng)
        rep = steering_report(rho, include_all_cuts=True)
        direct = steering_report(permute_qubits(rho, ("B", "C", "A")), validate=False)["h_a_bc"]
        assert rep["h_b_to_ca"] == pytest.approx(direct, abs=1e-12)

    def test_invalid_state_rejected(self, rng):
        rho = random_mixed_density(rng)
        rho[0, 0] += 0.2
        with pytest.raises(ValueError, match="invalid density matrix"):
            steering_report(rho)

    @pytest.mark.parametrize("validate", [True, False])
    def test_non_three_qubit_rejected(self, validate):
        # a valid one-qubit state: the message names the caller's shape, not the batch of one
        with pytest.raises(ValueError, match=r"^expected an 8x8 density matrix, got shape \(2, 2\)$"):
            steering_report(np.eye(2) / 2, validate=validate)

    def test_stack_rejected(self):
        with pytest.raises(ValueError, match=r"^expected an 8x8 density matrix, got shape \(3, 8, 8\)$"):
            steering_report(np.stack([np.eye(8) / 8] * 3), validate=False)


class TestInvariance:
    def test_local_unitary_invariance(self, rng):
        for _ in range(10):
            rho = random_mixed_density(rng)
            u = np.kron(np.kron(random_unitary_2(rng), random_unitary_2(rng)),
                        random_unitary_2(rng))
            rotated = u @ rho @ u.conj().T
            a = steering_report(rho, include_two_to_one=True, validate=False)
            b = steering_report(rotated, include_two_to_one=True, validate=False)
            assert b["h_a_bc"] == pytest.approx(a["h_a_bc"], abs=1e-9)
            assert b["h_bc_to_a"] == pytest.approx(a["h_bc_to_a"], abs=1e-9)
            for key in ("h_ab", "h_ac", "h_bc"):
                assert b[key] == pytest.approx(a[key], abs=1e-9)

    def test_pure_state_monogamy_sample(self, rng):
        for _ in range(300):
            rep = steering_report(random_pure_density(rng), validate=False)
            assert rep["margin"] >= -1e-9

    def test_corollary_consistency(self, rng):
        seen = {"corollary1": 0, "corollary2": 0}
        for _ in range(600):
            rep = steering_report(random_pure_density(rng), validate=False)
            if rep["classification"] == "corollary1":
                assert rep["s_a_bc"] >= rep["s_tot"] - 1e-9
                seen["corollary1"] += 1
            elif rep["classification"] == "corollary2":
                assert rep["s_tot"] == 0.0
                assert rep["s_a_bc"] >= 0.0
                seen["corollary2"] += 1
        assert seen["corollary2"] > 0  # the ensemble hits this class often


# ---------------------------------------------------------------------------
# the batched kernel

ALL = dict(include_all_cuts=True, include_two_to_one=True, include_reverse_pairs=True)
# multiples of 1/8 give exact zeros (product and sector-empty states) and keep
# every nonzero deficit far from the 1e-14 floor, where sqrt amplifies rounding
GRID = st.integers(-8, 8).map(lambda k: k / 8.0)


@st.composite
def states(draw, pure=None):
    """(rho, pure): a normalised pure state, or G G^+ / tr mixed with the identity."""
    pure = draw(st.booleans()) if pure is None else pure
    if pure:
        v = draw(arrays(np.float64, (2, 8), elements=GRID))
        psi = v[0] + 1j * v[1]
        assume(np.linalg.norm(psi) > 0)
        psi = psi / np.linalg.norm(psi)
        return np.outer(psi, psi.conj()), True
    g = draw(arrays(np.float64, (2, 8, 8), elements=GRID))
    g = g[0] + 1j * g[1]
    m = g @ g.conj().T
    assume(np.trace(m).real > 0)
    t = draw(st.sampled_from([0.05, 0.3, 1.0]))  # weight of the identity
    return (1 - t) * m / np.trace(m).real + t * np.eye(8) / 8, False


def _qubit_deficit_oracle(rho1):
    d = 2.0 * (rho1[0, 0] * rho1[1, 1] - abs(rho1[0, 1]) ** 2).real
    return 0.0 if d < DEFICIT_FLOOR else d


def oracle_report(rho, pure):
    """Every H from kron-loop Pauli coefficients and index-loop partial traces.

    Qubit deficits are 2 det(rho_q); a pair's deficit is 1 - tr(rho_pair^2),
    or for a pure state the deficit of the complementary qubit (Schmidt).
    """
    theta = oracle_theta3(rho)
    qubit = [oracle_ptrace(rho, (q,)) for q in range(3)]
    p_q = [np.trace(r @ r).real for r in qubit]
    d_q = [_qubit_deficit_oracle(r) for r in qubit]
    out = {}
    for name, axes, key21 in (("a_bc", (0, 1, 2), "bc_to_a"), ("b_to_ca", (1, 2, 0), "ca_to_b"),
                              ("c_to_ab", (2, 0, 1), "ab_to_c")):
        t = np.transpose(theta, axes)
        m = (t - np.einsum("m,jk->mjk", t[:, 0, 0], t[0])).reshape(4, 16) / (2 * np.sqrt(2))
        norm = np.linalg.svd(m, compute_uv=False).sum()
        q, rest = axes[0], oracle_ptrace(rho, axes[1:])
        p_rest = np.trace(rest @ rest).real
        d_rest = d_q[q] if pure else 1.0 - p_rest
        out[f"h_{name}"] = norm - np.sqrt((2 - p_q[q]) * d_rest)
        out[f"h_{key21}"] = norm - np.sqrt((4 - p_rest) * d_q[q])
    for (a, b), fwd, rev in (((0, 1), "h_ab", "h_ba"), ((0, 2), "h_ac", "h_ca"), ((1, 2), "h_bc", "h_cb")):
        t2 = oracle_theta2(oracle_ptrace(rho, (a, b)))
        norm = np.linalg.svd((t2[1:, 1:] - np.outer(t2[1:, 0], t2[0, 1:])) / 2, compute_uv=False).sum()
        out[fwd] = norm - np.sqrt((2 - p_q[a]) * d_q[b])
        out[rev] = norm - np.sqrt((2 - p_q[b]) * d_q[a])
    return out


def _h_values(d):
    return {k: v for k, v in d.items() if k.startswith("h_") and k != "h_tot"}


CUT_AXES = (("a_bc", (0, 1, 2), "bc_to_a"), ("b_to_ca", (1, 2, 0), "ca_to_b"), ("c_to_ab", (2, 0, 1), "ab_to_c"))
PAIR_KEYS = (((0, 1), "h_ab", "h_ba"), ((0, 2), "h_ac", "h_ca"), ((1, 2), "h_bc", "h_cb"))


def deficit_factor(rho, theta, keep):
    """A bound's first factor as the kernel takes it, from the steering side
    keep's own deficit: 2 - tr rho_q^2 = 1 + d_q, 4 - tr rho_pair^2 = 3 + d_pair."""
    return (1.0 if len(keep) == 1 else 3.0) + purity_deficit(partial_trace(rho, keep))


def parseval_factor(rho, theta, keep):
    """The same factor from squared Pauli coefficients (purity_from_theta)."""
    rest = tuple(q for q in range(3) if q not in keep)
    if len(keep) == 1:
        return 2.0 - purity_from_theta(theta.transpose(keep + rest), "A")
    return 4.0 - purity_from_theta(theta.transpose(rest + keep), "BC")


def direct_h(rho, first=deficit_factor):
    """Every H and cut bound of steering_batch(..., **ALL) for one state, one
    quantity at a time from the public helpers: pauli_tensor and theta slices,
    partial_trace and purity_deficit, and correlation_matrix's formula on
    theta slices.

    The trace norms come from the kernel's _trace_norms on this state's six
    blocks, stacked: each cut's 4x16 matrix less row 0 and column 0, and each
    pair's 3x3 block padded with zero columns to 3x15 (the route itself is
    checked against LAPACK in TestTraceNorms). first(rho, theta, keep) gives
    a bound's first factor for the steering subsystem keep. A steered pair's
    deficit is its complement's for a pure state, one whose own deficit reads
    0 (purity_deficit(rho) == 0.0), as in steering_batch.
    """
    theta = pauli_tensor(rho)
    pure = purity_deficit(rho) == 0.0
    d_q = [purity_deficit(partial_trace(rho, (q,))) for q in range(3)]
    blocks = []
    for _, axes, _ in CUT_AXES:  # as correlation_matrix takes them, from theta slices
        t = theta.transpose(axes).reshape(4, 16)
        blocks.append(ONE_TWO_SCALE * (t[1:, 1:] - t[1:, :1] * t[:1, 1:]))
    for (a, b), _, _ in PAIR_KEYS:
        t2 = np.take(theta, 0, axis=3 - a - b)  # theta_AB = theta[:, :, 0] and so on
        blocks.append(np.pad(PAIR_SCALE * (t2[1:, 1:] - t2[1:, :1] * t2[:1, 1:]), ((0, 0), (0, 12))))
    norms = _trace_norms(np.stack(blocks, axis=-1))
    out = {}
    for norm, (name, axes, key21) in zip(norms[:3], CUT_AXES):
        q, pair = axes[0], axes[1:]
        d_pair = d_q[q] if pure else purity_deficit(partial_trace(rho, pair))
        for key, bound in ((name, np.sqrt(first(rho, theta, (q,)) * d_pair)),
                           (key21, np.sqrt(first(rho, theta, pair) * d_q[q]))):
            out[f"h_{key}"], out[f"bound_{key}"] = norm - bound, bound
    for norm, ((a, b), fwd, rev) in zip(norms[3:], PAIR_KEYS):
        out[fwd] = norm - np.sqrt(first(rho, theta, (a,)) * d_q[b])
        out[rev] = norm - np.sqrt(first(rho, theta, (b,)) * d_q[a])
    return out


def _ray(*v):
    """|v><v| / <v|v>, exact for entries 0, +-1 and +-i."""
    v = np.array(v, dtype=complex)
    return density_from_pure(v) / np.vdot(v, v).real


# pure qubits |0>, |+>, |+i>, |1> and entangled pairs, exactly representable:
# their products give exact zeros
EXACT_QUBITS = [_ray(1, 0), _ray(1, 1), _ray(1, 1j), _ray(0, 1)]
EXACT_PAIRS = [_ray(1, 0, 0, 1), _ray(0, 1, -1, 0), _ray(1, 1, 1, -1)]
# per product: the H keys of its factorized cuts whose steered side is pure
FACTORIZED = {"AxBxC": ["h_a_bc", "h_bc_to_a", "h_b_to_ca", "h_ca_to_b", "h_c_to_ab", "h_ab_to_c",
                        "h_ab", "h_ac", "h_bc", "h_ba", "h_ca", "h_cb"],
              "AxBC": ["h_a_bc", "h_bc_to_a", "h_ba", "h_ca"],
              "ABxC": ["h_c_to_ab", "h_ab_to_c", "h_ac", "h_bc"]}


class TestBatchKernel:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(states(), min_size=1, max_size=10))
    def test_rows_bit_identical_to_batch_of_one(self, drawn):
        rhos = np.stack([rho for rho, _ in drawn])
        batch = steering_batch(rhos, **ALL)
        for i, rho in enumerate(rhos):
            row = batch.row(i).to_dict()
            single = steering_report(rho, validate=False, **ALL).to_dict()
            assert row == single
            # built-in types only: json.dumps and the CSV formats rely on them
            for report in (row, single):
                assert type(report.pop("classification")) is str
                assert {type(v) for v in report.values()} == {float}

    @settings(max_examples=20, deadline=None)
    @given(st.lists(states(), min_size=2, max_size=12), st.integers(1, 5))
    def test_bit_identical_across_chunk_sizes(self, drawn, chunk):
        rhos = np.stack([rho for rho, _ in drawn])
        whole = steering_batch(rhos, **ALL).to_dict()
        parts = [steering_batch(rhos[i:i + chunk], **ALL).to_dict() for i in range(0, len(rhos), chunk)]
        for key, values in whole.items():
            assert np.array_equal(np.concatenate([p[key] for p in parts]), values), key

    @settings(max_examples=60, deadline=None)
    @given(states())
    def test_every_h_matches_oracle(self, drawn):
        rho, pure = drawn
        got = _h_values(steering_report(rho, validate=False, **ALL).to_dict())
        expect = oracle_report(rho, pure)
        assert set(got) == set(expect)
        for key, value in expect.items():
            assert abs(got[key] - value) <= 1e-12, key

    def test_every_h_matches_oracle_on_random_states(self, rng):
        for maker, pure in ((random_pure_density, True), (random_mixed_density, False)):
            for _ in range(20):
                rho = maker(rng)
                got = _h_values(steering_report(rho, validate=False, **ALL).to_dict())
                for key, value in oracle_report(rho, pure).items():
                    assert abs(got[key] - value) <= 1e-12, key

    @settings(max_examples=40, deadline=None)
    @given(states())
    def test_qubit_permutation_covariance(self, drawn):
        rho, _ = drawn
        rep = steering_report(rho, validate=False, **ALL)
        for perm, one_two, two_one in ((("B", "C", "A"), "h_b_to_ca", "h_ca_to_b"),
                                       (("C", "A", "B"), "h_c_to_ab", "h_ab_to_c")):
            moved = steering_report(permute_qubits(rho, perm), validate=False, include_two_to_one=True)
            assert abs(rep[one_two] - moved["h_a_bc"]) <= 1e-12
            assert abs(rep[two_one] - moved["h_bc_to_a"]) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.lists(states(), min_size=1, max_size=6), st.integers(0, 2**32 - 1))
    def test_local_unitary_invariance(self, drawn, seed):
        rhos = np.stack([rho for rho, _ in drawn])
        rng = np.random.default_rng(seed)
        u = np.stack([np.kron(np.kron(random_unitary_2(rng), random_unitary_2(rng)), random_unitary_2(rng))
                      for _ in rhos])
        rotated = u @ rhos @ u.conj().transpose(0, 2, 1)
        before = _h_values(steering_batch(rhos, **ALL).to_dict())
        after = _h_values(steering_batch(rotated, **ALL).to_dict())
        assert len(before) == 12  # six cut directions, three pairs each way
        for key, value in before.items():
            assert np.max(np.abs(after[key] - value)) <= 1e-9, key

    @settings(max_examples=40, deadline=None)
    @given(st.lists(states(pure=False), min_size=1, max_size=6), st.integers(0, 2**32 - 1))
    def test_classification_stable_under_tiny_perturbation(self, drawn, seed):
        # a Hermitian, trace-zero perturbation of norm 1e-15 moves each H by
        # about that much, so no label flips while every pair H is 1e-6 from 0
        rhos = np.stack([rho for rho, _ in drawn])
        before = steering_batch(rhos)
        clear = np.all([np.abs(before[k]) > 1e-6 for k in ("h_ab", "h_ac", "h_bc")], axis=0)
        assume(clear.any())
        rhos, labels = rhos[clear], before["classification"][clear].tolist()
        g = np.random.default_rng(seed).standard_normal((2, len(rhos), 8, 8))
        e = g[0] + 1j * g[1]
        e = e + e.conj().transpose(0, 2, 1)
        e -= np.trace(e, axis1=1, axis2=2).real[:, None, None] * np.eye(8) / 8
        e *= 1e-15 / np.linalg.norm(e, axis=(1, 2), keepdims=True)
        assert steering_batch(rhos + e)["classification"].tolist() == labels
        for rho, label in zip(rhos + e, labels):
            assert steering_report(rho, validate=False)["classification"] == label

    @settings(max_examples=40, deadline=None)
    @given(states(pure=True))
    def test_continuous_across_pure_switch(self, drawn):
        # the full deficit leaves 0, the pure-state switch, near eps = 5.7e-15
        rho, _ = drawn
        base = _h_values(steering_report(rho, validate=False, **ALL).to_dict())
        entangled = min(purity_deficit(partial_trace(rho, (q,))) for q in range(3)) >= 1e-2
        for eps in 10.0 ** np.arange(-16, -7.75, 0.5):
            mixed = (1 - eps) * rho + eps * np.eye(8) / 8
            h = _h_values(steering_report(mixed, validate=False, **ALL).to_dict())
            for key, value in base.items():
                assert abs(h[key] - value) <= 4 * np.sqrt(eps) + 1e-12, (key, eps)
                if entangled:
                    assert abs(h[key] - value) <= 100 * eps + 1e-12, (key, eps)

    def test_every_h_bit_identical_to_direct_route(self, rng):
        pure = np.stack([random_pure_density(rng) for _ in range(200)])
        mixed = np.stack([random_mixed_density(rng) for _ in range(200)])
        eps = 10.0 ** np.arange(-16, -7.75, 0.5)  # the full deficit leaves 0 near eps = 5.7e-15
        sweep = np.stack([(1 - e) * rho + e * np.eye(8) / 8 for rho in pure[:6] for e in eps])
        assert {purity_deficit(rho) == 0.0 for rho in sweep} == {True, False}
        # product states A x B x C, A x BC and AB x C reach the deficit floor
        q = [random_pure_density(rng, 2) for _ in range(6)] + [random_mixed_density(rng, 2) for _ in range(6)]
        p = [random_pure_density(rng, 4) for _ in range(3)] + [random_mixed_density(rng, 4) for _ in range(3)]
        product = [np.kron(np.kron(q[i], q[i - 4]), q[i - 8]) for i in range(12)]
        product += [np.kron(q[i], p[i]) for i in range(6)] + [np.kron(p[i], q[6 + i]) for i in range(6)]
        product += [density_from_pure(ghz_state(t)) for t in (0.0, np.pi / 2)] + [np.eye(8) / 8]
        product = np.stack(product)
        assert any(purity_deficit(partial_trace(rho, (k,))) == 0.0 for rho in product for k in range(3))
        # the same states with every exact-zero real and imaginary part -0.0:
        # the kernel pads its reduced-state sums with +0.0, which turns a -0.0
        # sum into +0.0, a change the DEFICIT_FLOOR clamp must erase; the cut
        # bounds, compared too, carry a deficit's sign (sqrt(-0.0) is -0.0)
        negative = []
        for rhos in (sweep, product):
            parts = rhos.view(float)
            negative.append(np.copysign(parts, np.where(parts == 0.0, -1.0, parts)).view(complex))
            assert np.signbit(negative[-1].view(float)[parts == 0.0]).all()
        for rhos in (pure, mixed, sweep, product, *negative):
            got = steering_batch(rhos, **ALL)
            for i, rho in enumerate(rhos):
                expect = direct_h(rho)
                assert set(expect) == set(_h_values(got)) | {key for key in got if key.startswith("bound_")}
                for key, value in expect.items():
                    assert got[key][i].tobytes() == np.float64(value).tobytes(), (key, i)

    def test_first_factor_within_budget_of_parseval(self, rng):
        # 1 + d and 3 + d stand for 2 - tr rho^2 and 4 - tr rho^2: against the
        # Parseval sums of squared theta, every H and bound moves by <= 1e-14,
        # on both sides of the pure-state switch, and exact products keep H = 0
        pure = [random_pure_density(rng) for _ in range(40)]
        mixed = [random_mixed_density(rng) for _ in range(40)]
        eps = 10.0 ** np.arange(-16, -7.75, 0.5)  # the full deficit leaves 0 near eps = 5.7e-15
        sweep = [(1 - e) * rho + e * np.eye(8) / 8 for rho in pure[:4] for e in eps]
        q = [random_pure_density(rng, 2) for _ in range(4)] + [random_mixed_density(rng, 2) for _ in range(4)]
        p = [random_pure_density(rng, 4) for _ in range(2)] + [random_mixed_density(rng, 4) for _ in range(2)]
        product = [np.kron(np.kron(q[i], q[i - 3]), q[i - 6]) for i in range(8)]
        product += [np.kron(q[i], p[i % 4]) for i in range(8)] + [np.kron(p[i % 4], q[i]) for i in range(8)]
        exact = {"AxBxC": [np.kron(np.kron(a, b), c) for a, b, c in itertools.product(EXACT_QUBITS, repeat=3)],
                 "AxBC": [np.kron(a, bc) for a in EXACT_QUBITS for bc in EXACT_PAIRS],
                 "ABxC": [np.kron(ab, c) for ab in EXACT_PAIRS for c in EXACT_QUBITS]}
        rhos = np.stack(pure + mixed + sweep + product + [rho for group in exact.values() for rho in group])
        assert {purity_deficit(rho) == 0.0 for rho in sweep} == {True, False}
        got = steering_batch(rhos, **ALL)
        for i, rho in enumerate(rhos):
            for key, value in direct_h(rho, parseval_factor).items():
                assert abs(got[key][i] - value) <= 1e-14, (key, i)
                if "bound" + key[1:] in got:  # same norm: the bounds differ as the H do
                    bound = got["norm" + key[1:]][i] - value
                    assert abs(got["bound" + key[1:]][i] - bound) <= 1e-14, (key, i)
        start = len(rhos) - sum(len(group) for group in exact.values())
        for kind, group in exact.items():
            for key in FACTORIZED[kind]:
                assert np.all(got[key][start:start + len(group)] == 0.0), (kind, key)
            start += len(group)

    def test_non_hermitian_rejected(self, rng):
        # the imaginary parts of the Pauli traces must vanish, to 1e-12
        rho = random_mixed_density(rng)
        rho[2, 5] += 1e-6
        with pytest.raises(ValueError, match="non-Hermitian"):
            steering_batch(rho[None])
        with pytest.raises(ValueError, match="non-Hermitian"):
            steering_report(rho, validate=False)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [(3, 3), (2, 5)])
    def test_non_finite_entry_rejected(self, value, at, rng):
        rho = random_mixed_density(rng)
        rho[at] = value
        diag = validate_state(rho)
        assert not diag["passed"] and np.isnan(diag["min_eigenvalue"])
        assert np.isnan(diag["hermiticity_residual"])
        with pytest.raises(ValueError, match="invalid density matrix"):
            steering_report(rho)
        with pytest.raises(ValueError, match="non-finite input"):
            steering_report(rho, validate=False)
        with pytest.raises(ValueError, match="non-finite input"):
            steering_batch(np.stack([random_mixed_density(rng), rho]), **ALL)

    def test_pure_switch_edge_bisected(self, rng):
        # bisect eps in (1 - eps) rho + eps I/8 down to adjacent floats, so the
        # full deficit lands on each side of the DEFICIT_FLOOR clamp, the
        # switch, as close as it can
        edge = []
        for rho in [random_pure_density(rng) for _ in range(6)]:
            def deficit(e):
                return purity_deficit((1 - e) * rho + e * np.eye(8) / 8)
            lo, hi = 0.0, 1e-13
            assert deficit(lo) == 0.0 < deficit(hi)
            while lo < (mid := (lo + hi) / 2) < hi:
                lo, hi = (mid, hi) if deficit(mid) == 0.0 else (lo, mid)
            assert deficit(lo) == 0.0 and deficit(hi) - DEFICIT_FLOOR <= 4 * np.spacing(1.0)
            edge += [(1 - e) * rho + e * np.eye(8) / 8 for e in (lo, hi)]
        edge = np.stack(edge)
        got = steering_batch(edge, **ALL)
        for i, rho in enumerate(edge):
            for key, value in direct_h(rho).items():
                assert got[key][i].tobytes() == np.float64(value).tobytes(), (key, i)
            # the two routes differ here, and the kernel takes the one that
            # purity_deficit(rho) == 0.0 picks
            f_a = 1.0 + purity_deficit(partial_trace(rho, (0,)))
            route = {d: got["norm_a_bc"][i] - np.sqrt(f_a * purity_deficit(partial_trace(rho, d)))
                     for d in ((0,), (1, 2))}
            assert route[(0,)] != route[(1, 2)]
            assert got["h_a_bc"][i] == route[(0,) if purity_deficit(rho) == 0.0 else (1, 2)]
        assert [purity_deficit(rho) == 0.0 for rho in edge] == [True, False] * 6

    @pytest.mark.parametrize("eps", [1e-13, 4e-13])
    @pytest.mark.parametrize("name, axes", [cut[:2] for cut in CUT_AXES], ids=[cut[0] for cut in CUT_AXES])
    def test_mixed_near_pure_keeps_pair_deficit(self, name, axes, eps, rng):
        # a pure steering qubit times a rank-2 pair (1 - eps)|chi><chi| +
        # eps|chi'><chi'| is mixed, with a full deficit of 2 eps (1 - eps) below
        # 1e-12 but above the floor: the pair keeps its own deficit, so the
        # bound reads sqrt(2 eps) and not the steering qubit's 0
        chi = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))[0].T
        pair = (1 - eps) * density_from_pure(chi[0]) + eps * density_from_pure(chi[1])
        rho = permute_qubits(np.kron(random_pure_density(rng, 2), pair), tuple(np.argsort(axes)))
        assert DEFICIT_FLOOR < purity_deficit(rho) < 1e-12
        got = steering_report(rho, include_all_cuts=True)
        d_q = purity_deficit(partial_trace(rho, axes[:1]))
        d_pair = purity_deficit(partial_trace(rho, axes[1:]))
        expect = got[f"norm_{name}"] - np.sqrt((1.0 + d_q) * d_pair)
        assert np.float64(got[f"h_{name}"]).tobytes() == expect.tobytes()
        assert got[f"s_{name}"] == 0.0 and got[f"bound_{name}"] > 0.0

    @pytest.mark.parametrize("t", [1e-7, 3e-7, 1e-6])
    def test_pure_route_exact_near_product(self, t):
        # GHZ(t) with Hadamards on B and C: rho_bc has O(1) entries whose
        # minors cancel to a 2t^2 deficit, while rho_a stays diagonal, so the
        # pure-state route 2 det(rho_a) keeps H_A->BC at its closed form
        hd = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        rho = density_from_pure(np.kron(np.eye(2), np.kron(hd, hd)) @ ghz_state(t))
        c, s = np.cos(t), np.sin(t)
        norm = 2 * c * s + 2 * c**2 * s**2
        expect = norm - np.sqrt((5 - np.cos(4 * t)) / 4 * 2 * c**2 * s**2)
        assert abs(steering_report(rho, validate=False)["h_a_bc"] - expect) <= 1e-12

    def test_batch_values_are_arrays(self, rng):
        rhos = np.stack([random_mixed_density(rng) for _ in range(3)])
        batch = steering_batch(rhos, include_all_cuts=True)
        for key, value in batch.items():
            assert isinstance(value, np.ndarray) and value.shape == (3,), key
        row = batch.row(2)
        assert type(row) is SteeringReport and list(row) == list(batch)
        assert type(row.pop("classification")) is str
        assert {type(v) for v in row.values()} == {float}
        with pytest.raises(ValueError, match="stack"):
            steering_batch(rhos[0])


# the keys of every report, in the order of the qsteer analyze JSON
REPORT_HEAD = ["h_a_bc", "s_a_bc", "norm_a_bc", "bound_a_bc", "h_ab", "h_ac", "h_bc",
               "s_ab", "s_ac", "s_bc", "h_tot", "s_tot", "margin", "classification"]
# the further cut directions in report order: (key suffix, needs all cuts, needs 2->1)
FURTHER_CUTS = [("bc_to_a", False, True), ("b_to_ca", True, False), ("c_to_ab", True, False),
                ("ca_to_b", True, True), ("ab_to_c", True, True)]
FLAG_SETS = list(itertools.product([False, True], repeat=3))


def expected_keys(all_cuts, two_to_one, reverse_pairs):
    cuts = [name for name, needs_all, needs_21 in FURTHER_CUTS
            if (all_cuts or not needs_all) and (two_to_one or not needs_21)]
    keys = REPORT_HEAD + [f"{q}_{name}" for name in cuts for q in ("h", "s", "norm", "bound")]
    return keys + ["h_ba", "h_ca", "h_cb"] * reverse_pairs


class TestFlatReport:
    @pytest.mark.parametrize("flags", FLAG_SETS)
    def test_keys_in_analyze_order(self, flags, rng):
        kw = dict(zip(("include_all_cuts", "include_two_to_one", "include_reverse_pairs"), flags))
        rhos = np.stack([random_pure_density(rng), random_mixed_density(rng)])
        rep = steering_report(rhos[1], validate=False, **kw)
        batch = steering_batch(rhos, **kw)
        assert list(rep) == expected_keys(*flags)
        assert list(batch) == expected_keys(*flags)
        assert list(batch.row(0)) == expected_keys(*flags)
        # the report is the analyze JSON's dict: floats and a str label
        assert isinstance(rep, dict)
        d = rep.to_dict()
        assert type(d) is dict and d == rep
        assert json.dumps(rep) == json.dumps(d)
        assert type(rep["classification"]) is str
        assert {type(v) for k, v in rep.items() if k != "classification"} == {float}
