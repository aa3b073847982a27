"""Two-qubit state classification.

Two criteria drive everything: the Horodecki necessary-and-sufficient
condition for CHSH violation (sum of the two largest eigenvalues of
T^T T above 1, with T the Pauli correlation matrix), and the hashing
sufficient condition for one-way distillability (a marginal entropy
exceeding the global entropy).  A state passing the second but not the
first is flagged as a nonlocal resource: it cannot violate CHSH on its
own, yet many copies in a three-party network can.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import (ENTROPY_CUTOFF, PAULI_BASIS, DensityMatrix, _kron,
                    partial_trace, von_neumann_entropy)

# Boundary cases (M = 1, entropy ties) classify negative.
TIE_TOLERANCE = 1e-9
# maximize_chsh: random starts, rounds per start, tolerance and seed.
CHSH_RESTARTS, CHSH_ROUNDS, CHSH_TOL, CHSH_SEED = 10, 100, 1e-12, 7

# sigma_i (x) sigma_j, row-major in (i, j), has one nonzero entry c per
# row a, at a column b, and c is +-1 or +-i.  So T_ij = Re Tr[rho P]
# sums four exact terms Re(c rho[b, a]), each +-Re or +-Im of rho[b, a]:
# _T_TERMS[r, k] indexes term r of T_k (k = 3 i + j) in the float view of
# a flattened rho, _T_SIGNS[r, k] is its sign.  Rows run over a, the
# order in which an einsum of the nine products with rho accumulates, so
# the sums agree with that einsum bit for bit.
_p = _kron(PAULI_BASIS[1:, None], PAULI_BASIS[None, 1:]).reshape(9, 4, 4)
_k, _a, _b = np.nonzero(_p)
_c = _p[_k, _a, _b]
_T_TERMS = (2 * (4 * _b + _a) + (_c.imag != 0)).reshape(9, 4).T
_T_SIGNS = (_c.real - _c.imag).reshape(9, 4).T
del _p, _k, _a, _b, _c


@dataclass(frozen=True)
class Classification:
    """Per-state record of the CHSH and distillability criteria."""

    m_value: float
    chsh_max: float
    s_a: float
    s_b: float
    s_ab: float
    violates_chsh: bool
    hashing_distillable: bool
    nonlocal_resource: bool


def _require_two_qubit(rho: DensityMatrix):
    if rho.dims != (2, 2):
        raise ValueError(f"expected a two-qubit state, got dims {rho.dims}")


def _correlation_stack(mats: np.ndarray) -> np.ndarray:
    """T of every matrix of a complex (n, 4, 4) stack, as an (n, 3, 3)
    array: the one path from rho to T."""
    n = mats.shape[0]
    x = np.ascontiguousarray(mats).reshape(n, 16).view(float)
    corr = x[:, _T_TERMS[0]] * _T_SIGNS[0]
    for terms, signs in zip(_T_TERMS[1:], _T_SIGNS[1:]):
        corr += x[:, terms] * signs
    return corr.reshape(n, 3, 3)


def _hashing_margin(s_a, s_b, s_ab):
    """max(S_A, S_B) - S_AB, positive for a hashing-distillable state."""
    return np.maximum(s_a, s_b) - s_ab


def _fields(m, s_a, s_b, s_ab) -> dict:
    """The Classification fields from M and the three entropies, on numpy
    scalars and arrays alike.  Boundary cases (M = 1, entropy ties)
    classify negative."""
    violates = m > 1 + TIE_TOLERANCE
    distillable = _hashing_margin(s_a, s_b, s_ab) > TIE_TOLERANCE
    return {
        "m_value": m,
        "chsh_max": 2 * np.sqrt(np.clip(m, 0.0, None)),
        "s_a": s_a,
        "s_b": s_b,
        "s_ab": s_ab,
        "violates_chsh": violates,
        "hashing_distillable": distillable,
        "nonlocal_resource": ~violates & distillable,
    }


def correlation_matrix(rho: DensityMatrix) -> np.ndarray:
    """Real 3x3 matrix T with T_ij = Tr[rho (sigma_i (x) sigma_j)]."""
    _require_two_qubit(rho)
    return _correlation_stack(rho.matrix[None])[0]


def horodecki_m(rho: DensityMatrix) -> float:
    """M(rho): sum of the two largest eigenvalues of T^T T.

    The state violates CHSH iff M > 1; the maximal CHSH value is
    2 sqrt(M).
    """
    t = correlation_matrix(rho)
    w = np.linalg.eigvalsh(t.T @ t)
    return float(w[-1] + w[-2])


def hashing_criterion(rho: DensityMatrix):
    """Entropic one-way distillability check on a two-party state.

    Returns (s_a, s_b, s_ab, distillable) in bits.
    """
    if len(rho.dims) != 2:
        raise ValueError(f"expected a two-party state, got dims {rho.dims}")
    s_a = von_neumann_entropy(partial_trace(rho, {0}))
    s_b = von_neumann_entropy(partial_trace(rho, {1}))
    s_ab = von_neumann_entropy(rho)
    # M does not enter the hashing flag.
    rule = _fields(np.float64(0.0), s_a, s_b, s_ab)
    return s_a, s_b, s_ab, bool(rule["hashing_distillable"])


def classify(rho: DensityMatrix) -> Classification:
    """Full two-qubit classification: CHSH first, hashing if no violation."""
    _require_two_qubit(rho)
    m = horodecki_m(rho)
    s_a, s_b, s_ab, _ = hashing_criterion(rho)
    # numpy scalars into the rule, Python floats and bools out of it
    fields = _fields(*np.array([m, s_a, s_b, s_ab]))
    return Classification(**{k: v.item() for k, v in fields.items()})


def classify_batch(mats: np.ndarray, spectra: np.ndarray | None = None):
    """Vectorized `classify` over a stack of two-qubit matrices (n, 4, 4).

    Returns a dict of arrays with the Classification fields.  Used by the
    Monte Carlo harness; agrees with `classify` entry by entry.  T is
    `correlation_matrix`'s, and the marginals are sums of slices of the
    stack, bit-identical to np.trace.  ``spectra``, an (n, 4) stack of the
    matrices' ascending eigenvalues (each `DensityMatrix.spectrum`), takes
    the place of the stack's own eigensolve for S_AB.
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.ndim != 3 or mats.shape[1:] != (4, 4):
        raise ValueError(f"expected an (n, 4, 4) stack of two-qubit "
                         f"matrices, got shape {mats.shape}")
    n = mats.shape[0]
    if spectra is None:
        spectra = np.linalg.eigvalsh(mats)
    elif np.shape(spectra) != (n, 4):
        raise ValueError(f"spectra must be an ({n}, 4) stack, got shape "
                         f"{np.shape(spectra)}")
    corr = _correlation_stack(mats)
    tt = np.einsum("nji,njk->nik", corr, corr)
    w = np.linalg.eigvalsh(tt)

    def entropy(ev):
        ev = np.clip(ev, 0.0, None)
        safe = np.where(ev > ENTROPY_CUTOFF, ev, 1.0)
        return -np.sum(ev * np.log2(safe), axis=-1)

    t = mats.reshape(n, 2, 2, 2, 2)
    marginals = np.empty((2, n, 2, 2), dtype=complex)
    np.add(t[:, :, 0, :, 0], t[:, :, 1, :, 1], out=marginals[0])  # rho_A
    np.add(t[:, 0, :, 0, :], t[:, 1, :, 1, :], out=marginals[1])  # rho_B
    s_a, s_b = entropy(np.linalg.eigvalsh(marginals))
    return _fields(w[:, -1] + w[:, -2], s_a, s_b, entropy(spectra))


def maximize_chsh(rho: DensityMatrix):
    """Numerically maximized CHSH value with the optimal settings.

    Alternating closed-form updates: given (b, b'), the best a and a'
    align with T(b + b') and T(b - b'); symmetrically for (b, b') given
    (a, a').  Serves as an independent oracle for 2 sqrt(M).
    """
    t = correlation_matrix(rho)
    rng = np.random.default_rng(CHSH_SEED)

    def unit(v):
        nv = np.linalg.norm(v)
        return v / nv if nv > 1e-15 else np.array([1.0, 0.0, 0.0])

    best_val, best_settings = -np.inf, None
    for _ in range(CHSH_RESTARTS):
        b = unit(rng.standard_normal(3))
        b2 = unit(rng.standard_normal(3))
        val = -np.inf
        for _ in range(CHSH_ROUNDS):
            a = unit(t @ (b + b2))
            a2 = unit(t @ (b - b2))
            b = unit(t.T @ (a + a2))
            b2 = unit(t.T @ (a - a2))
            new = a @ t @ (b + b2) + a2 @ t @ (b - b2)
            if new - val < CHSH_TOL:
                val = new
                break
            val = new
        if val > best_val:
            best_val, best_settings = val, (a, a2, b, b2)
    return float(best_val), best_settings
