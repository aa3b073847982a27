"""Named state constructors and random-state samplers.

Sampling uses counter-based Philox streams keyed by ``(seed,
stream_index)`` so that Monte Carlo work can be partitioned
deterministically across workers: stream ``i`` always yields the same
draws no matter which worker runs it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .qcore import (MAX_PAIR_D, MAX_TOTAL_DIM, DensityMatrix, PureState,
                    _checked, _kron)


@dataclass(frozen=True)
class RngSeed:
    """A (seed, stream_index) pair that fully determines a sample stream."""

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_index"):
            object.__setattr__(self, name, _checked(
                getattr(self, name), name, 0, 2**64, integer=True,
                hi_open=True))

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(_philox_key_type()(key)))


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


@functools.lru_cache(maxsize=8)
def _psi_plus(d: int) -> np.ndarray:
    """The d^2 amplitudes of |Psi_+^d>, built once per d and shared,
    hence read-only."""
    d = _checked(d, "d", 2, MAX_PAIR_D, integer=True)
    amps = np.zeros(d * d, dtype=complex)
    amps[:: d + 1] = 1 / np.sqrt(d)
    amps.flags.writeable = False
    return amps


def max_entangled(d: int) -> PureState:
    """|Psi_+^d> = sum_i |ii> / sqrt(d)."""
    return PureState((d, d), _psi_plus(d))


@functools.lru_cache(maxsize=8)
def _isotropic_parts(d: int) -> tuple:
    """|Psi_+^d><Psi_+^d| and the d^2 x d^2 identity, built once per d and
    shared, hence read-only."""
    psi = _psi_plus(d)
    parts = np.outer(psi, psi.conj()), np.eye(d * d)
    for part in parts:
        part.flags.writeable = False
    return parts


def isotropic(p: float, d: int = 2) -> DensityMatrix:
    """Maximally entangled state mixed with white noise.

    rho = p |Psi_+^d><Psi_+^d| + (1 - p) I / d^2.
    """
    return DensityMatrix((d, d), _isotropic_matrix(p, d))


def _isotropic_matrix(p: float, d: int) -> np.ndarray:
    """The matrix of ``isotropic(p, d)``, for kernels that need no
    validated container."""
    p = _checked(p, "p", 0, 1)
    proj, eye = _isotropic_parts(d)
    mat = p * proj
    mat += (1 - p) * eye / d**2
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
    # calls of ``shape`` each, written into one complex array
    draws = rng.standard_normal((2, *shape))
    z = np.empty(shape, dtype=complex)
    z.real, z.imag = draws
    return z


def random_mixed_hs(d_total: int, rng: RngSeed, dims=None) -> DensityMatrix:
    """Hilbert-Schmidt-random mixed state via the square Ginibre construction.

    rho = G G^dag / Tr(G G^dag) with G a d x d matrix of independent
    standard complex Gaussian entries.
    """
    d_total = _checked(d_total, "d_total", 2, MAX_TOTAL_DIM, integer=True)
    g = _complex_gaussian(rng.generator(), (d_total, d_total))
    m = g @ g.conj().T
    m /= m.trace().real
    return DensityMatrix(dims if dims is not None else (d_total,), m)


def random_pure_fs(d_total: int, rng: RngSeed, dims=None) -> PureState:
    """Fubini-Study-random pure state: normalized complex Gaussian vector."""
    d_total = _checked(d_total, "d_total", 2, MAX_TOTAL_DIM, integer=True)
    v = _complex_gaussian(rng.generator(), (d_total,))
    return PureState(dims if dims is not None else (d_total,),
                     v / np.linalg.norm(v))
