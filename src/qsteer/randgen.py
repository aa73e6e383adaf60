"""Seeded generation of random three-qubit states.

Recipe: a probability vector comes from a multiplicative cascade of uniform
draws, eigenvectors come from a random Hermitian matrix assembled out of a
uniform[-1, 1] square matrix, and the state is the spectral mixture of the
two. A pure state is the projector on the leading eigenvector: no cascade,
64 uniforms.

Determinism contract: state number i is generated from the child stream
default_rng(SeedSequence(seed, spawn_key=(i,))), numpy's PCG64, so identical
(seed, mode, count) specs give bit-identical output regardless of batching or
ordering. The stream is read once per state, 8 cascade uniforms (mixed mode
only) then the 64 of K, the same doubles in the same order as separate
uniform calls. The SeedSequence hash runs vectorised over a whole index
range (see `_uniforms`), and numpy's own PCG64 seeds itself from each state's
hashed words and draws its doubles, so the streams are numpy's, bit for bit.
State indices stay below 2**32 (count <= 2**32), where the spawn key is one
32-bit word.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["RandomStateSpec", "random_state", "random_state_batch"]

GENERATOR_NAME = "pcg64-seedseq-spawn"

# index of the cascade entry each N_n multiplies; N_7 restarts from N_5
_CASCADE_PARENTS = (None, 0, 1, 2, 3, 4, 4, 6)

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), which _uniforms reproduces
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class RandomStateSpec:
    """Reproducible batch description: seed, mode ('pure' | 'mixed'), count."""

    seed: int
    mode: str = "pure"
    count: int = 1

    def __post_init__(self):
        if self.mode not in ("pure", "mixed"):
            raise ValueError(f"mode must be 'pure' or 'mixed', got {self.mode!r}")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.count > 2**32:
            raise ValueError("count must be <= 2**32: state indices are one spawn-key word")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _hash_constants(h: int, mult: int, skip: int, count: int) -> np.ndarray:
    """(xor, multiplier) of SeedSequence hashmix steps skip..skip + count - 1,
    the hash constant before and after each multiplication by mult, as a
    (2, count, 1) uint32 array."""
    steps = []
    for _ in range(skip + count):
        steps.append((h, h * mult & _MASK32))
        h = steps[-1][1]
    return np.array(steps[skip:], np.uint32).T[..., None]


def _hashmix(value, xor, mul):
    """SeedSequence's hashmix on uint32 arrays (which wrap)."""
    value = (value ^ xor) * mul & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix on uint32 arrays (which wrap)."""
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ r >> 16


class _Words(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands PCG64 one stream's (4,) uint64 words, those of
    SeedSequence.generate_state(4, np.uint64); PCG64 reads them from the array's
    buffer, so the array is contiguous."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _uniforms(seed: int, start: int, stop: int, width: int) -> np.ndarray:
    """Row i - start holds default_rng(SeedSequence(seed, spawn_key=(i,))).random(width),
    bit for bit, for i = start..stop - 1 below 2**32.

    SeedSequence mixes the seed's 32-bit words, zero-padded to the pool size,
    then the spawn word i. Only that last phase depends on i, so the seed
    phases are numpy's own SeedSequence(seed).pool, taken once, and the spawn
    phase and generate_state's 8 output words run as (4, n) and (8, n) uint32
    steps over all indices. numpy's own PCG64 seeds itself from each row's
    words (_Words) and draws the row.
    """
    seed = operator.index(seed)  # numpy integers too, as SeedSequence takes them
    pool = np.random.SeedSequence(seed).pool[:, None]  # the seed phases, a (4, 1) uint32 column
    # the spawn word's hashmix constants follow the 4 * max(4, words) the seed phases used
    skip = _POOL_SIZE * max(_POOL_SIZE, -(-seed.bit_length() // 32))
    xor, mul = _hash_constants(_INIT_A, _MULT_A, skip, _POOL_SIZE)
    index = np.arange(start, stop, dtype=np.uint32)
    pools = _mix(pool, _hashmix(index, xor, mul))
    # generate_state(4, np.uint64): 8 words from the cycled pool, paired little-endian
    xor, mul = _hash_constants(_INIT_B, _MULT_B, 0, 8)
    w = _hashmix(np.concatenate((pools, pools)), xor, mul).astype(np.uint64)
    seeds = np.ascontiguousarray((w[0::2] | w[1::2] << 32).T)
    u = np.empty((stop - start, width))
    for row, words in zip(u, seeds):
        np.random.Generator(np.random.PCG64(_Words(words))).random(out=row)
    return u


def _cascade(u: np.ndarray) -> np.ndarray:
    """Eight probabilities from each row of uniforms u (..., 8), one column
    product per step: N_1 = U, N_{n+1} = N_n * U for n up to 6, then
    N_7 = N_5 * U and N_8 = N_7 * U, as the recipe prints it. Normalized to
    sum 1; nonincreasing except possibly at n = 7.
    """
    n = np.empty_like(u)
    n[..., 0] = u[..., 0]
    for i in range(1, 8):
        n[..., i] = n[..., _CASCADE_PARENTS[i]] * u[..., i]
    return n / n.sum(axis=-1, keepdims=True)


def _hermitian(k: np.ndarray) -> np.ndarray:
    """8x8 Hermitian H = D + (U^T + U) + i(L^T - L) from each uniform[-1, 1]
    matrix K of a stack (..., 8, 8).

    D, U, L are the diagonal, strictly upper, and strictly lower parts of K;
    the diagonal of H equals the diagonal of K.
    """
    d = k * np.eye(8)
    u = np.triu(k, 1)
    lo = np.tril(k, -1)
    return d + (np.swapaxes(u, -1, -2) + u) + 1j * (np.swapaxes(lo, -1, -2) - lo)


def _draws(spec: RandomStateSpec, start: int, stop: int) -> np.ndarray:
    """Uniforms of states start..stop - 1, one row per state: in mixed mode 8
    for the cascade, then the 64 of K (each stream is read once)."""
    if not 0 <= start < stop <= spec.count:
        raise IndexError(f"indices {start}..{stop - 1} outside batch of {spec.count}")
    return _uniforms(spec.seed, start, stop, 72 if spec.mode == "mixed" else 64)


def _eigenvectors(u: np.ndarray) -> np.ndarray:
    """Eigenvectors (n, 8, 8) of each row's H, leading column first (descending
    eigenvalues); K holds the last 64 uniforms as 2u - 1, what uniform(-1, 1)
    returns for the same doubles."""
    return np.linalg.eigh(_hermitian((2.0 * u[:, -64:] - 1.0).reshape(-1, 8, 8)))[1][..., ::-1]


def random_state_batch(spec: RandomStateSpec, start: int, stop: int) -> np.ndarray:
    """States start, ..., stop - 1 of the batch as an (n, 8, 8) stack.

    Each state is drawn from its own stream; the eigendecompositions and the
    products run batched, and each state is bit-identical to
    random_state(spec, i). A pure state is v v† of the leading eigenvector, a
    mixed one the spectral sum with lambda_1 on the leading eigenvector.
    """
    u = _draws(spec, start, stop)
    vecs = _eigenvectors(u)
    if spec.mode == "pure":
        v = vecs[..., :1]
        return v @ v.conj().transpose(0, 2, 1)
    return (vecs * _cascade(u[:, :8])[:, None, :]) @ vecs.conj().transpose(0, 2, 1)


# kept: the tests and perfbench/spans.py's tracing are its only callers; goes with ROADMAP item 3
def random_state(spec: RandomStateSpec, index: int) -> np.ndarray:
    """Density matrix number `index` of the batch described by `spec`."""
    return random_state_batch(spec, index, index + 1)[0]


def random_pure_batch(spec: RandomStateSpec, start: int, stop: int) -> np.ndarray:
    """State vectors start, ..., stop - 1 of a pure-mode batch as an (n, 8) stack:
    the leading eigenvectors whose projectors random_state_batch returns."""
    if spec.mode != "pure":
        raise ValueError("state vectors exist only in pure mode")
    return _eigenvectors(_draws(spec, start, stop))[..., 0]

