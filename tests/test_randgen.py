import copy

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qsteer.randgen import (
    RandomStateSpec,
    random_eigenvalues,
    random_hermitian,
    random_pure_vector,
    random_state,
    random_state_batch,
    random_states,
)
from qsteer.states import purity, validate_state


def test_eigenvalue_cascade_properties():
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        lam = random_eigenvalues(rng)
        assert lam.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(lam >= 0)
        # the cascade is nonincreasing up to n=6 and from 7 to 8; the restart
        # at n=7 may break monotonicity against n=6
        assert np.all(np.diff(lam[:6]) <= 1e-15)
        assert lam[6] >= lam[7] - 1e-15
        assert lam[4] >= lam[6] - 1e-15  # N7 chains from N5


def test_cascade_variants_differ():
    a = random_eigenvalues(np.random.default_rng(9), "verbatim")
    b = random_eigenvalues(np.random.default_rng(9), "n6")
    assert not np.allclose(a, b)
    assert np.all(np.diff(b) <= 1e-15)  # the n6 chain is fully nonincreasing


def test_hermitian_construction():
    rng = np.random.default_rng(12)
    probe = copy.deepcopy(rng)
    h = random_hermitian(rng)
    assert_allclose(h, h.conj().T, atol=1e-15)
    k = probe.uniform(-1.0, 1.0, size=(8, 8))
    assert_allclose(np.diag(h).real, np.diag(k), atol=1e-15)
    assert np.max(np.abs(np.diag(h).imag)) == 0.0
    assert np.all(np.isreal(np.linalg.eigvalsh(h)))


def test_pure_mode():
    spec = RandomStateSpec(seed=100, mode="pure", count=20)
    for rho in random_states(spec):
        assert purity(rho) == pytest.approx(1.0, abs=1e-10)
        eig = np.linalg.eigvalsh(rho)
        assert eig[-2] < 1e-10  # rank one
        assert validate_state(rho).passed


def test_pure_vector_matches_state():
    spec = RandomStateSpec(seed=4, mode="pure", count=3)
    for i in range(3):
        v = random_pure_vector(spec, i)
        assert_allclose(np.outer(v, v.conj()), random_state(spec, i), atol=1e-12)
    with pytest.raises(ValueError):
        random_pure_vector(RandomStateSpec(seed=4, mode="mixed", count=1), 0)


def test_mixed_mode():
    spec = RandomStateSpec(seed=101, mode="mixed", count=20)
    for rho in random_states(spec):
        p = purity(rho)
        assert 1 / 8 < p <= 1 + 1e-12
        assert validate_state(rho).passed


def test_determinism_and_order_independence():
    spec = RandomStateSpec(seed=77, mode="mixed", count=6)
    batch1 = list(random_states(spec))
    batch2 = list(random_states(spec))
    for a, b in zip(batch1, batch2):
        assert np.array_equal(a, b)  # bit identical
    # single-index access equals its batch position
    assert np.array_equal(random_state(spec, 3), batch1[3])


def test_seed_changes_output():
    a = random_state(RandomStateSpec(seed=1, mode="pure", count=1), 0)
    b = random_state(RandomStateSpec(seed=2, mode="pure", count=1), 0)
    assert not np.allclose(a, b)


def test_spec_validation():
    with pytest.raises(ValueError):
        RandomStateSpec(seed=0, mode="thermal", count=1)
    with pytest.raises(ValueError):
        RandomStateSpec(seed=0, mode="pure", count=0)
    with pytest.raises(ValueError):
        RandomStateSpec(seed=0, mode="pure", count=1, cascade_variant="n5")
    with pytest.raises(IndexError):
        random_state(RandomStateSpec(seed=0, mode="pure", count=2), 2)


def _reference_state(spec, index):
    """The recipe for one state with 2-D numpy calls, as the generator ran before batching."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(index,)))
    lams = random_eigenvalues(rng, spec.cascade_variant) if spec.mode == "mixed" else np.eye(8)[0]
    vecs = np.linalg.eigh(random_hermitian(rng))[1][:, ::-1]
    return (vecs * lams) @ vecs.conj().T


@pytest.mark.parametrize("mode", ["pure", "mixed"])
def test_batch_generator_bit_identical(mode):
    spec = RandomStateSpec(seed=31, mode=mode, count=2000)
    batched = np.concatenate([random_state_batch(spec, s, min(s + 300, spec.count))
                              for s in range(0, spec.count, 300)])
    assert batched.shape == (2000, 8, 8)
    for i in range(spec.count):
        assert np.array_equal(batched[i], random_state(spec, i))
        assert np.array_equal(batched[i], _reference_state(spec, i))


def test_batch_generator_bounds():
    spec = RandomStateSpec(seed=1, mode="pure", count=4)
    with pytest.raises(IndexError):
        random_state_batch(spec, 2, 5)
    with pytest.raises(IndexError):
        random_state_batch(spec, 3, 3)
