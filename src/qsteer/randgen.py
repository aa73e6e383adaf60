"""Seeded generation of random three-qubit states.

Recipe: a probability vector comes from a multiplicative cascade of uniform
draws, eigenvectors come from a random Hermitian matrix assembled out of a
uniform[-1, 1] square matrix, and the state is the spectral mixture of the
two. Pure mode keeps only the leading eigenvector.

Determinism contract: state number i is generated from the child stream
SeedSequence(seed, spawn_key=(i,)), so identical (seed, mode, count) specs
give bit-identical output regardless of batching or ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = [
    "GENERATOR_NAME",
    "RandomStateSpec",
    "random_eigenvalues",
    "random_hermitian",
    "random_pure_vector",
    "random_state",
    "random_state_batch",
    "random_states",
]

GENERATOR_NAME = "pcg64-seedseq-spawn"

# index of the cascade entry each N_n multiplies; N_7 restarts from N_5
_CASCADE_PARENTS = {"verbatim": (None, 0, 1, 2, 3, 4, 4, 6), "n6": (None, 0, 1, 2, 3, 4, 5, 6)}
_CHUNK = 256  # states per random_state_batch call in random_states


@dataclass(frozen=True)
class RandomStateSpec:
    """Reproducible batch description: seed, mode ('pure' | 'mixed'), count."""

    seed: int
    mode: str = "pure"
    count: int = 1
    cascade_variant: str = "verbatim"

    def __post_init__(self):
        if self.mode not in ("pure", "mixed"):
            raise ValueError(f"mode must be 'pure' or 'mixed', got {self.mode!r}")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.cascade_variant not in _CASCADE_PARENTS:
            raise ValueError(f"cascade_variant must be one of {sorted(_CASCADE_PARENTS)}")


def _stream(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def random_eigenvalues(rng: np.random.Generator, cascade_variant: str = "verbatim") -> np.ndarray:
    """Eight probabilities from the multiplicative uniform cascade.

    N_1 = U, N_{n+1} = N_n * U for n up to 6, then N_7 = N_5 * U and
    N_8 = N_7 * U ("verbatim" variant; "n6" chains N_7 from N_6 instead).
    Normalized to sum 1; nonincreasing except possibly at n = 7.
    """
    parents = _CASCADE_PARENTS[cascade_variant]
    draws = rng.uniform(0.0, 1.0, size=8)
    n = np.empty(8)
    n[0] = draws[0]
    for i in range(1, 8):
        n[i] = n[parents[i]] * draws[i]
    return n / n.sum()


def random_hermitian(rng: np.random.Generator) -> np.ndarray:
    """8x8 Hermitian H = D + (U^T + U) + i(L^T - L) from uniform[-1, 1] K.

    D, U, L are the diagonal, strictly upper, and strictly lower parts of K;
    the diagonal of H equals the diagonal of K.
    """
    return _hermitian(rng.uniform(-1.0, 1.0, size=(8, 8)))


def _hermitian(k: np.ndarray) -> np.ndarray:
    """The random_hermitian construction on a stack of K matrices (..., 8, 8)."""
    d = k * np.eye(8)
    u = np.triu(k, 1)
    lo = np.tril(k, -1)
    return d + (np.swapaxes(u, -1, -2) + u) + 1j * (np.swapaxes(lo, -1, -2) - lo)


def _draw(rng: np.random.Generator, mode: str, cascade_variant: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and the K matrix of random_hermitian for one state, read
    from its stream in this order."""
    if mode == "mixed":
        lams = random_eigenvalues(rng, cascade_variant)
    else:
        lams = np.zeros(8)
        lams[0] = 1.0
    return lams, rng.uniform(-1.0, 1.0, size=(8, 8))


def random_state_batch(spec: RandomStateSpec, start: int, stop: int) -> np.ndarray:
    """States start, ..., stop - 1 of the batch as an (n, 8, 8) stack.

    Each state is drawn from its own stream; the eigendecompositions and the
    spectral sums run batched, and each state is bit-identical to
    random_state(spec, i).
    """
    if not 0 <= start < stop <= spec.count:
        raise IndexError(f"indices {start}..{stop - 1} outside batch of {spec.count}")
    lams, ks = zip(*(_draw(_stream(spec.seed, i), spec.mode, spec.cascade_variant)
                     for i in range(start, stop)))
    # descending eigenvalue order; lambda_1 pairs with the top eigenvector
    vecs = np.linalg.eigh(_hermitian(np.stack(ks)))[1][..., ::-1]
    return (vecs * np.stack(lams)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)


def random_state(spec: RandomStateSpec, index: int) -> np.ndarray:
    """Density matrix number `index` of the batch described by `spec`."""
    if not 0 <= index < spec.count:
        raise IndexError(f"index {index} outside batch of {spec.count}")
    return random_state_batch(spec, index, index + 1)[0]


def random_pure_vector(spec: RandomStateSpec, index: int) -> np.ndarray:
    """State vector for a pure-mode draw (leading eigenvector of the same H)."""
    if spec.mode != "pure":
        raise ValueError("state vectors exist only in pure mode")
    if not 0 <= index < spec.count:
        raise IndexError(f"index {index} outside batch of {spec.count}")
    _, k = _draw(_stream(spec.seed, index), spec.mode, spec.cascade_variant)
    return np.linalg.eigh(_hermitian(k))[1][:, -1]


def random_states(spec: RandomStateSpec) -> Iterator[np.ndarray]:
    """All states of the batch, in index order, generated _CHUNK at a time."""
    for start in range(0, spec.count, _CHUNK):
        yield from random_state_batch(spec, start, min(start + _CHUNK, spec.count))
