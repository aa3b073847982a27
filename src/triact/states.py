"""Named state constructors and random-state samplers.

Sampling uses counter-based Philox streams keyed by ``(seed,
stream_index)`` so that Monte Carlo work can be partitioned
deterministically across workers: stream ``i`` always yields the same
draws no matter which worker runs it.  The samplers take either an
``RngSeed`` or a ``numpy.random.Generator``, which they draw from as it
stands.  ``_streams`` alone keys a Philox, one per chunk re-keyed to
each stream; ``RngSeed.generator()`` is its chunk of one.
"""

from __future__ import annotations

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
        object.__setattr__(self, "seed", _checked(
            self.seed, "seed", 0, 2**64, integer=True, hi_open=True))
        object.__setattr__(self, "stream_index", _checked(
            self.stream_index, "stream_index", 0, 2**64, integer=True,
            hi_open=True))

    def generator(self) -> np.random.Generator:
        """A fresh Philox Generator at counter 0, keyed by the uint64
        words (seed, stream_index); no OS entropy is drawn."""
        return next(_streams(self.seed, (self.stream_index,)))


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
    """Yield, for each i of ``indices``, a Generator in the state of a
    fresh Philox keyed by the uint64 words (seed, i), so with its draws.

    One Philox and Generator serve every i: the public ``state`` setter
    re-keys it to counter 0, key (seed, i), an empty buffer and no cached
    uint32, at a fraction of the cost of a fresh stream.  The yielded
    Generator is valid until the next one is drawn."""
    # a fixed seed draws no OS entropy; the setter overwrites its state
    gen = np.random.Generator(np.random.Philox(0))
    bitgen = gen.bit_generator
    # numpy's public Philox state format; lists set faster than arrays
    key = [seed, 0]
    state = {"bit_generator": "Philox", "buffer": [0] * 4, "buffer_pos": 4,
             "state": {"counter": [0] * 4, "key": key},
             "has_uint32": 0, "uinteger": 0}
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
    m = g.dot(g.conj().T)  # np.dot's zgemm, without its dispatch
    m /= np.add.reduce(m.diagonal()).real  # ndarray.trace's reduction
    return DensityMatrix(dims if dims is not None else (d_total,), m)


def random_pure_fs(d_total: int, rng, dims=None) -> PureState:
    """Fubini-Study-random pure state: normalized complex Gaussian vector,
    drawn from ``rng`` as in ``random_mixed_hs``."""
    d_total = _checked(d_total, "d_total", 2, MAX_TOTAL_DIM, integer=True)
    v = _complex_gaussian(_generator(rng), (d_total,))
    return PureState(dims if dims is not None else (d_total,),
                     v / np.linalg.norm(v))
