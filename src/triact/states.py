"""Named state constructors and random-state samplers.

Sampling uses counter-based Philox streams keyed by ``(seed,
stream_index)`` so that Monte Carlo work can be partitioned
deterministically across workers: stream ``i`` always yields the same
draws no matter which worker runs it.  The samplers take either an
``RngSeed`` or a ``numpy.random.Generator``, which they draw from as it
stands.  The harness re-keys one Philox per chunk (``_streams``) rather
than making a fresh one per state; each re-keyed stream gives the same
bits as ``RngSeed(seed, i)``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .qcore import (MAX_PAIR_D, MAX_TOTAL_DIM, DensityMatrix, PureState,
                    _checked, _kron)


# Philox's default counter, 0, as the 4-word array Philox turns it into:
# numpy converts a scalar counter word by word in Python, an array in one
# astype copy, so the state is the same, each stream costs about 2 us
# less to make, and the array is never written.
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)
_ZERO_COUNTER.flags.writeable = False


@dataclass(frozen=True)
class RngSeed:
    """A (seed, stream_index) pair that fully determines a sample stream."""

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", _checked(
            self.seed, "seed", 0, 2**64, integer=True, hi_open=True))
        object.__setattr__(self, "stream_index", _checked(
            self.stream_index, "stream_index", 0, 2**64, integer=True,
            hi_open=True))

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(
            _philox_key_type()(key), counter=_ZERO_COUNTER))


@functools.cache
def _philox_key_type():
    """The seed type below, defined on the first ``generator()`` call:
    its base class lives in numpy.random, which ``import triact`` then
    does not load."""
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        """Hands Philox its key as-is.

        ``Philox(key=key)`` first seeds itself from a fresh
        ``SeedSequence()``, which draws OS entropy, and then overwrites
        the key.  Passed as the seed, this object is asked for the key
        instead, so the state equals ``Philox(key=key).state`` and no
        entropy is drawn.
        """

        __slots__ = ("key",)

        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"a Philox key is 2 uint64 words, not "
                                 f"{n_words} of {np.dtype(dtype)}")
            return self.key

    return PhiloxKey


def _psi_plus(d: int) -> np.ndarray:
    """The d^2 amplitudes of |Psi_+^d>, d an integer in [2, MAX_PAIR_D]."""
    d = _checked(d, "d", 2, MAX_PAIR_D, integer=True)
    amps = np.zeros(d * d, dtype=complex)
    amps[:: d + 1] = 1 / np.sqrt(d)
    return amps


def max_entangled(d: int) -> PureState:
    """|Psi_+^d> = sum_i |ii> / sqrt(d)."""
    return PureState((d, d), _psi_plus(d))


def isotropic(p: float, d: int = 2) -> DensityMatrix:
    """Maximally entangled state mixed with white noise.

    rho = p |Psi_+^d><Psi_+^d| + (1 - p) I / d^2.
    """
    return DensityMatrix((d, d), _isotropic_matrix(p, d))


def _isotropic_matrix(p: float, d: int) -> np.ndarray:
    """The matrix of ``isotropic(p, d)``, for kernels that need no
    validated container."""
    p = _checked(p, "p", 0, 1) + 0.0  # p = -0.0 leaves no negative zero
    d = _checked(d, "d", 2, MAX_PAIR_D, integer=True)
    # p |Psi_+><Psi_+| is p (1/sqrt d)^2 on the |ii> rows and columns
    amp = 1 / np.sqrt(d)
    mat = np.zeros((d * d, d * d), dtype=complex)
    mat[:: d + 1, :: d + 1] = p * (amp * amp)
    mat.reshape(-1)[:: d * d + 1] += (1 - p) / d**2
    return mat


def erased(k: float) -> DensityMatrix:
    """Qubit-qutrit state of a Bell pair sent through an erasure channel.

    With probability 1/k the pair survives on B-levels {0, 1}; otherwise
    B is left in the flag level |2> and A maximally mixed.
    """
    k = _checked(k, "k", 1)
    mat = (1 - 1 / k) * _kron(np.eye(2) / 2, np.diag([0.0, 0.0, 1.0]))
    # |Psi_+><Psi_+| / k: |00> and |11> are indices 0 and 4 of the 2x3 layout.
    mat[np.ix_((0, 4), (0, 4))] += 0.5 / k
    return DensityMatrix((2, 3), mat)


def _complex_gaussian(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    # both blocks in one draw, real block first: the same draws as two
    # calls of ``shape`` each, written into one complex array block by
    # block (tuple-unpacking the draw would iterate it in Python)
    draws = rng.standard_normal((2, *shape))
    z = np.empty(shape, dtype=complex)
    z.real = draws[0]
    z.imag = draws[1]
    return z


def _streams(seed: int, indices):
    """Yield, for each i of ``indices``, a Generator in the state that
    ``RngSeed(seed, i).generator()`` starts in, so with its draws.

    One Philox and Generator serve every i: the public ``state`` setter
    re-keys it to counter 0, key (seed, i), an empty buffer and no cached
    uint32, at a fraction of the cost of a fresh stream.  The yielded
    Generator is valid until the next one is drawn."""
    gen = RngSeed(seed).generator()
    bitgen = gen.bit_generator
    # stream (seed, 0) as numpy starts it, its arrays as lists of Python
    # ints, which the setter converts faster than numpy's
    fresh = bitgen.state
    key = fresh["state"]["key"].tolist()
    state = {**fresh, "buffer": fresh["buffer"].tolist(),
             "state": {"counter": fresh["state"]["counter"].tolist(),
                       "key": key}}
    for i in indices:
        key[1] = i
        bitgen.state = state
        yield gen


def _generator(rng) -> np.random.Generator:
    """The Generator a sampler draws from: a fresh one for an
    ``RngSeed``, ``rng`` itself, as it stands, for a Generator."""
    if isinstance(rng, RngSeed):
        return rng.generator()
    # numpy.random loads here, with the first draw, not on import
    if isinstance(rng, np.random.Generator):
        return rng
    raise ValueError(f"rng must be an RngSeed or a numpy.random.Generator, "
                     f"not {type(rng).__name__}")


def random_mixed_hs(d_total: int, rng, dims=None) -> DensityMatrix:
    """Hilbert-Schmidt-random mixed state via the square Ginibre construction.

    rho = G G^dag / Tr(G G^dag) with G a d x d matrix of independent
    standard complex Gaussian entries, drawn from ``rng``: an ``RngSeed``
    or a ``numpy.random.Generator``.
    """
    d_total = _checked(d_total, "d_total", 2, MAX_TOTAL_DIM, integer=True)
    g = _complex_gaussian(_generator(rng), (d_total, d_total))
    m = np.dot(g, g.conj().T)  # the zgemm of @, without matmul's set-up
    m /= m.diagonal().sum().real  # ndarray.trace's reduction, unwrapped
    return DensityMatrix(dims if dims is not None else (d_total,), m)


def random_pure_fs(d_total: int, rng, dims=None) -> PureState:
    """Fubini-Study-random pure state: normalized complex Gaussian vector,
    drawn from ``rng`` as in ``random_mixed_hs``."""
    d_total = _checked(d_total, "d_total", 2, MAX_TOTAL_DIM, integer=True)
    v = _complex_gaussian(_generator(rng), (d_total,))
    return PureState(dims if dims is not None else (d_total,),
                     v / np.linalg.norm(v))
