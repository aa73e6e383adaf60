import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qsteer.randgen import (
    RandomStateSpec,
    _cascade,
    _draws,
    _hermitian,
    _uniforms,
    random_pure_batch,
    random_state,
    random_state_batch,
)
from qsteer.states import purity, validate_state

from conftest import recipe_cascade, recipe_spectrum


def test_eigenvalue_cascade_properties():
    lams = _cascade(np.random.default_rng(5).random((10_000, 8)))
    for lam in lams:
        assert lam.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(lam >= 0)
        # the cascade is nonincreasing up to n=6 and from 7 to 8; the restart
        # at n=7 may break monotonicity against n=6
        assert np.all(np.diff(lam[:6]) <= 1e-15)
        assert lam[6] >= lam[7] - 1e-15
        assert lam[4] >= lam[6] - 1e-15  # N7 chains from N5


def test_eigenvalues_match_index_loop_cascade():
    # the documented recipe, one index at a time, on the cascade uniforms of a mixed batch
    spec = RandomStateSpec(seed=21, mode="mixed", count=200)
    u = _draws(spec, 0, spec.count)[:, :8]
    for row, lam in zip(u, _cascade(u)):
        assert np.array_equal(lam, recipe_cascade(row))


def test_hermitian_construction():
    # K from state 3's stream, probed with numpy's own generator for that stream
    spec = RandomStateSpec(seed=12, mode="pure", count=4)
    h = _hermitian((2.0 * _draws(spec, 3, 4) - 1.0).reshape(8, 8))
    probe = np.random.default_rng(np.random.SeedSequence(12, spawn_key=(3,)))
    k = probe.uniform(-1.0, 1.0, size=(8, 8))
    assert_allclose(h, h.conj().T, atol=1e-15)
    assert_allclose(np.diag(h).real, np.diag(k), atol=1e-15)
    assert np.max(np.abs(np.diag(h).imag)) == 0.0
    for i, j in zip(*np.triu_indices(8, 1)):  # exact: H[i, j] = K[i, j] + i K[j, i]
        assert h[i, j].real == k[i, j] and h[i, j].imag == k[j, i]
    assert np.all(np.isreal(np.linalg.eigvalsh(h)))


def _states(spec):
    """Every state of the batch, random_state_batch over chunks of 7."""
    return np.concatenate([random_state_batch(spec, s, min(s + 7, spec.count)) for s in range(0, spec.count, 7)])


def test_pure_mode():
    spec = RandomStateSpec(seed=100, mode="pure", count=20)
    for rho in _states(spec):
        assert purity(rho) == pytest.approx(1.0, abs=1e-10)
        eig = np.linalg.eigvalsh(rho)
        assert eig[-2] < 1e-10  # rank one
        assert validate_state(rho)["passed"]


def test_pure_vector_matches_state():
    spec = RandomStateSpec(seed=4, mode="pure", count=3)
    for i in range(3):
        v = random_pure_batch(spec, i, i + 1)[0]
        assert_allclose(np.outer(v, v.conj()), random_state(spec, i), atol=1e-12)
    with pytest.raises(ValueError):
        random_pure_batch(RandomStateSpec(seed=4, mode="mixed", count=1), 0, 1)


def test_mixed_mode():
    spec = RandomStateSpec(seed=101, mode="mixed", count=20)
    for rho in _states(spec):
        p = purity(rho)
        assert 1 / 8 < p <= 1 + 1e-12
        assert validate_state(rho)["passed"]


def test_determinism_and_order_independence():
    spec = RandomStateSpec(seed=77, mode="mixed", count=6)
    batch1 = _states(spec)
    batch2 = _states(spec)
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
    RandomStateSpec(seed=0, mode="pure", count=2**32)  # index 2**32 - 1 still has a one-word spawn key
    with pytest.raises(ValueError):
        RandomStateSpec(seed=0, mode="pure", count=2**32 + 1)
    with pytest.raises(IndexError):
        random_state(RandomStateSpec(seed=0, mode="pure", count=2), 2)


def _reference_state(spec, index):
    """The recipe for one state, written out in conftest with index loops and 2-D numpy calls."""
    lams, vecs = recipe_spectrum(spec.seed, spec.mode, index)
    return (vecs * lams) @ vecs.conj().T


@pytest.mark.parametrize("mode", ["pure", "mixed"])
def test_batch_generator_bit_identical(mode):
    spec = RandomStateSpec(seed=31, mode=mode, count=2000)
    batched = np.concatenate([random_state_batch(spec, s, min(s + 300, spec.count))
                              for s in range(0, spec.count, 300)])
    assert batched.shape == (2000, 8, 8)
    for i in range(spec.count):  # bytes, so the sign of a zero counts too
        assert batched[i].tobytes() == random_state(spec, i).tobytes()
        assert batched[i].tobytes() == _reference_state(spec, i).tobytes()


def test_batch_generator_bounds():
    spec = RandomStateSpec(seed=1, mode="pure", count=4)
    with pytest.raises(IndexError):
        random_state_batch(spec, 2, 5)
    with pytest.raises(IndexError):
        random_state_batch(spec, 3, 3)


def _numpy_streams(seed, start, stop, width):
    """Rows from numpy's own child streams, one Generator per index."""
    return np.stack([np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,))).random(width)
                     for i in range(start, stop)])


@pytest.mark.parametrize("width", [64, 72])
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**40 + 3, 2**130 + 5, np.uint64(2**64 - 1)])
def test_uniforms_match_numpy_streams(seed, width):
    # 2**40 + 3 is a two-word seed; 2**130 + 5 has five words, one past the pool;
    # a numpy integer seeds the same stream as the int
    for start, stop in [(0, 300), (2**31 + 5, 2**31 + 6), (2**32 - 3, 2**32)]:
        assert _uniforms(seed, start, stop, width).tobytes() == _numpy_streams(seed, start, stop, width).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**200 - 1), st.integers(0, 2**32 - 1), st.integers(1, 3), st.sampled_from([64, 72]))
def test_uniforms_match_numpy_streams_property(seed, start, n, width):
    stop = min(start + n, 2**32)
    assert _uniforms(seed, start, stop, width).tobytes() == _numpy_streams(seed, start, stop, width).tobytes()
