import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qsteer.randgen import RandomStateSpec, random_state_batch
from qsteer.states import HERM_TOL, density_from_pure, ghz_state, ordered_sum, validate_state, w_state
from qsteer.steering import (
    PAULI2, PAULI3, correlation_one_to_two, correlation_pair, partial_trace, pauli_tensor, permute_qubits,
    purity,
)

from conftest import density_from_theta, oracle_theta2, oracle_theta3, purity_from_theta, random_mixed_density


def test_basis_state_pattern():
    # |000> has coefficient 1 exactly when every slot is identity or sigma_z
    theta = pauli_tensor(density_from_pure(np.eye(8)[0]))
    for i in range(4):
        for j in range(4):
            for k in range(4):
                expect = 1.0 if all(s in (0, 3) for s in (i, j, k)) else 0.0
                assert theta[i, j, k] == pytest.approx(expect, abs=1e-14)


def test_ghz_pattern_matches_oracle():
    rho = density_from_pure(ghz_state(np.pi / 4))
    theta = pauli_tensor(rho)
    assert_allclose(theta, oracle_theta3(rho), atol=1e-13)
    expected = {
        (0, 0, 0): 1.0,
        (1, 1, 1): 1.0,
        (1, 2, 2): -1.0,
        (2, 1, 2): -1.0,
        (2, 2, 1): -1.0,
        (0, 3, 3): 1.0,
        (3, 0, 3): 1.0,
        (3, 3, 0): 1.0,
    }
    for idx in np.ndindex(4, 4, 4):
        assert theta[idx] == pytest.approx(expected.get(idx, 0.0), abs=1e-13)


def test_maximally_mixed():
    theta = pauli_tensor(np.eye(8, dtype=complex) / 8)
    assert theta[0, 0, 0] == pytest.approx(1.0)
    theta[0, 0, 0] = 0.0
    assert np.max(np.abs(theta)) < 1e-14


def test_round_trip_reconstruction(rng):
    for _ in range(10):
        rho = random_mixed_density(rng)
        theta = pauli_tensor(rho)
        assert_allclose(density_from_theta(theta), rho, atol=1e-12)
        assert theta[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(theta)) <= 1 + 1e-9


def test_parseval(rng):
    for _ in range(100):
        rho = random_mixed_density(rng)
        assert purity_from_theta(pauli_tensor(rho), "full") == pytest.approx(purity(rho), abs=1e-10)


def test_slot_permutation(rng):
    rho = random_mixed_density(rng)
    theta = pauli_tensor(rho)
    permuted = pauli_tensor(permute_qubits(rho, ("B", "C", "A")))
    # output slot order (B, C, A): permuted[j, k, i] == theta[i, j, k]
    assert_allclose(permuted, np.transpose(theta, (1, 2, 0)), atol=1e-12)


def test_marginal_purities(rng):
    rho = random_mixed_density(rng)
    theta = pauli_tensor(rho)
    assert purity_from_theta(theta, "A") == pytest.approx(
        purity(partial_trace(rho, ("A",))), abs=1e-10)
    assert purity_from_theta(theta, "BC") == pytest.approx(
        purity(partial_trace(rho, ("B", "C"))), abs=1e-10)


def test_ghz_marginal_closed_form():
    for th in np.linspace(0, np.pi / 2, 25):
        theta = pauli_tensor(density_from_pure(ghz_state(th)))
        expect = (3 + np.cos(4 * th)) / 4  # = cos^4 + sin^4
        assert purity_from_theta(theta, "A") == pytest.approx(expect, abs=1e-12)
    theta = pauli_tensor(density_from_pure(ghz_state(np.pi / 4)))
    assert purity_from_theta(theta, "A") == pytest.approx(0.5, abs=1e-12)
    theta000 = pauli_tensor(density_from_pure(np.eye(8)[0]))
    assert purity_from_theta(theta000, "BC") == pytest.approx(1.0, abs=1e-12)


def test_pair_tensor(rng):
    rho = random_mixed_density(rng)
    pair = partial_trace(rho, ("A", "B"))
    t2 = pauli_tensor(pair)
    assert t2.shape == (4, 4)
    assert_allclose(t2, oracle_theta2(pair), rtol=0, atol=1e-13)
    assert t2[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(t2)) <= 1 + 1e-9


def test_non_hermitian_rejected(rng):
    rho = random_mixed_density(rng)
    rho[2, 5] += 1e-6
    with pytest.raises(ValueError, match="non-Hermitian"):
        pauli_tensor(rho)


def test_residual_within_herm_tol_accepted(rng):
    # rho + i s P for a Pauli string P has the residual 2s of every entry and
    # the largest imaginary trace part a residual allows, 8s = 4 HERM_TOL; a
    # diagonal rho keeps both exact
    rho = np.diag(rng.dirichlet(np.ones(8))).astype(complex)
    skewed = rho + 0.5j * HERM_TOL * PAULI3
    assert all(validate_state(s)["hermiticity_residual"] == HERM_TOL for s in skewed)
    theta = pauli_tensor(skewed)
    assert_allclose(theta, np.broadcast_to(pauli_tensor(rho), theta.shape), rtol=0, atol=1e-15)


def test_bad_shape():
    # neither a 4x4 nor an 8x8 matrix, nor a stack of one of them
    for shape in ((), (4,), (2, 2), (8, 4), (4, 8), (16, 16), (3, 2, 2), (5, 8, 4)):
        with pytest.raises(ValueError, match=r"^expected a 4x4 or 8x8 density matrix or a stack of either, got "):
            pauli_tensor(np.zeros(shape))
    # the pair matrix takes one 4x4 state
    for rho in (np.eye(8) / 8, np.stack([np.eye(4) / 4] * 2)):
        with pytest.raises(ValueError, match=r"^expected a 4x4 density matrix, got "):
            correlation_pair(rho)
    # the 1->2 matrix takes a 4x4x4 tensor or a stack of them
    for shape in ((4, 4), (4, 4, 3), (2, 4, 4, 5), (64,)):
        message = f"expected a 4x4x4 Pauli tensor or a stack of them, got {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            correlation_one_to_two(np.zeros(shape))


def _complex_route(rho, strings):
    """Pauli traces by a complex gather, a complex multiply by the string's
    entries and a running sum over the terms in column order."""
    d = strings.shape[-1]
    rows = np.argmax(strings != 0, axis=1)
    values = np.take_along_axis(strings, rows[:, None, :], axis=1)[:, 0, :]
    terms = rho.reshape(rho.shape[:-2] + (d * d,))[..., np.arange(d) * d + rows] * values
    return np.add.accumulate(terms, axis=-1)[..., -1].real


def test_terms_summed_left_to_right():
    # 1e16 + 1 rounds back to 1e16, so only a left-to-right sum of the diagonal
    # gives 1e16; numpy's pairwise np.sum gives 1e16 + 6
    diag = np.array([1e16] + [1.0] * 7)
    assert ordered_sum(diag) == 1e16
    assert pauli_tensor(np.diag(diag).astype(complex))[0, 0, 0] == 1e16


def _stacks():
    for n in (1, 7, 256):
        for mode in ("pure", "mixed"):
            yield random_state_batch(RandomStateSpec(seed=n, mode=mode, count=n), 0, n)
    yield density_from_pure(np.stack([ghz_state(t) for t in np.linspace(0, np.pi / 2, 101)]))
    for theta in (np.pi / 3, np.pi / 5):
        yield density_from_pure(np.stack([w_state(theta, a) for a in np.linspace(0, np.pi, 101)]))


def test_matches_complex_route():
    for rho in _stacks():
        assert np.array_equal(pauli_tensor(rho).reshape(len(rho), 64), _complex_route(rho, PAULI3))


def test_pair_matches_complex_route():
    # a stack of pairs gives each pair's coefficients as it gets them alone,
    # and those are the complex route's bit for bit
    for rho in _stacks():
        for keep in (("A", "B"), ("A", "C"), ("B", "C")):
            pairs = partial_trace(rho[:: max(1, len(rho) // 16)], keep)
            theta = pauli_tensor(pairs)
            assert theta.shape == (len(pairs), 4, 4)
            assert np.array_equal(theta.reshape(len(pairs), 16), _complex_route(pairs, PAULI2))
            for pair, t in zip(pairs, theta):
                assert np.array_equal(pauli_tensor(pair), t)
