"""Tripartite activation protocols.

Three parties share two copies of a bipartite state, the middle party
(Bob) measures both of his subsystems, and the conditional state left
between the outer parties (Alice and Charlie) is examined.  If that
conditional state violates CHSH for some outcome, the parent state was
nonlocal, since conditioning a local state can only yield local states.

Protocols implemented: double teleportation through a pair of isotropic
states, the two-step measurement on a pair of erased states, and the
explicit symmetric extension that certifies the erased state's
single-copy locality against k measurements on B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import classify
from .qcore import (COMPLETENESS_TOL, MAX_PAIR_D, ZERO_PROB, DensityMatrix,
                    DimensionError, PureState, _checked, _conditioned, _items,
                    _kron, _require_psd, partial_trace, project_and_condition,
                    require_hermitian, tensor)
from .states import _isotropic_matrix, _psi_plus, erased

# Largest local dimension the teleportation protocols check and support.
MAX_TELEPORT_D = 3
# Largest copy count for the extension (2 * 3^k).
MAX_EXTENSION_K = 4
# From this k on, the erased protocol's success branch (probability
# 1/(4k^2)) falls under the zero-probability marker: exactly 5e5.
MAX_ERASED_K = (4 * ZERO_PROB) ** -0.5
# A teleported state's local weight 1 - p^2 at or below this leaves no
# local part to normalize: teleport_distribution takes it maximally mixed.
LOCAL_WEIGHT_CUTOFF = 1e-15


@dataclass(frozen=True)
class ProtocolOutcome:
    success_probability: float
    conditional_state: DensityMatrix | None
    outcome_labels: tuple


def _weyl(d: int, k: int) -> np.ndarray:
    """The Heisenberg-Weyl unitary X^a Z^b, k = a*d + b, for a checked d;
    built here, as no other module of the package reads it."""
    a, b = divmod(k, d)
    omega = np.exp(2j * np.pi / d)
    x = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    z = np.diag(omega ** np.arange(d))
    return np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)


def _bell_amplitudes(d: int, k: int) -> np.ndarray:
    """psi W_k^T: the Bell vector with W_k on the second subsystem, psi
    being |Psi_+^d> as a d x d array."""
    return _psi_plus(d).reshape(d, d) @ _weyl(d, k).T


def _bell_bras(d: int) -> np.ndarray:
    bras = np.stack([_bell_amplitudes(d, k) for k in range(d * d)]).conj()
    bras.flags.writeable = False
    return bras


# The conjugated ``_bell_amplitudes`` of every k, one read-only
# (d^2, d, d) stack per d in [2, MAX_TELEPORT_D]: the bras the protocols
# contract, built once at import.
_BELL_BRAS = {d: _bell_bras(d) for d in range(2, MAX_TELEPORT_D + 1)}


def bell_state(d: int, index: int) -> PureState:
    """Generalized Bell state (I (x) X^a Z^b)|Psi_+^d>, index = a*d + b."""
    d = _checked(d, "d", 2, MAX_PAIR_D, integer=True)
    index = _checked(index, "Bell index", 0, d * d, integer=True, hi_open=True)
    return PureState((d, d), _bell_amplitudes(d, index).reshape(-1))


def _swap(rho, proj, d_outer: int, d_bob: int):
    """Entanglement swapping on raw arrays, conditioned on Bob's outcome.

    ``rho`` is the one shared state, ordered (outer party, Bob's share),
    and serves as both rho_{A B1} and rho_{C B2}.  The (A, C) matrix
    Tr_{B1 B2}[proj (rho_{A B1} (x) rho_{C B2})] is contracted without
    the four-party array.  Both third-observer protocols end here, each
    passing Bob's operator for its outcome.  Returns ``(probability,
    state)``, or ``(0.0, None)`` below ``ZERO_PROB``."""
    pair = rho.reshape(d_outer, d_bob, d_outer, d_bob)
    proj = proj.reshape(d_bob, d_bob, d_bob, d_bob)
    ac = np.einsum("xyij,aibx,cjdy->acbd", proj, pair, pair)
    return _conditioned(ac.reshape(d_outer**2, d_outer**2), (d_outer, d_outer))


def _teleport_d(phi: PureState, d) -> int:
    """The teleportation protocols' d, an integer in [2, MAX_TELEPORT_D]
    (else DimensionError), with ``phi`` on (d, d)."""
    d = _checked(d, "d", 2, MAX_TELEPORT_D, integer=True, error=DimensionError)
    if phi.dims != (d, d):
        raise ValueError(f"phi must have dims ({d}, {d}), got {phi.dims}")
    return d


def double_teleport(phi: PureState, p: float, d: int,
                    bell_outcome) -> ProtocolOutcome:
    """Teleport both halves of |phi> through isotropic states.

    The network state is iso(p)_{A B1} (x) |phi><phi|_{F1 F2} (x)
    iso(p)_{B2 C}; Bob Bell-measures the pairs (B1, F1) and (F2, B2) and
    the Alice-Charlie conditional state for the requested outcome pair is
    returned uncorrected.  The (0, 0) (i.e. Psi_+, Psi_+) branch carries
    |phi> itself; branch (o1, o2) matches it after the local correction
    U = W_o1 (x) W_o2 (rho -> U rho U^dag), which leaves M unchanged.

    The projection is contracted leg by leg, without the d^6 network
    state, and stays independent of the closed form ``eq2_mixture``.
    """
    d = _teleport_d(phi, d)
    out1, out2 = (_checked(out, "Bell outcome", 0, d * d, integer=True,
                           hi_open=True)
                  for out in _items(bell_outcome, "bell_outcome", 2))
    iso = _isotropic_matrix(p, d)
    # The Bell basis carries the Weyl on the prepared-state slot of each
    # pair: F1 is the second subsystem of (B1, F1), F2 the first of
    # (F2, B2), whose bra is the table's row transposed, since
    # W psi = (psi W^T)^T.  w[b1, b2] = <v1|_{B1 F1} <v2|_{F2 B2}
    # |phi>_{F1 F2}: Bob's projection leaves B1 B2 in w, which the
    # isotropic pairs carry to A and C; iso is symmetric under a party
    # swap, so it serves as (A, B1) and (C, B2).
    bras = _BELL_BRAS[d]
    w = (bras[out1] @ phi.amplitudes.reshape(d, d) @ bras[out2].T).reshape(-1)
    return ProtocolOutcome(*_swap(iso, np.outer(w.conj(), w), d, d),
                           (out1, out2))


def _eq2_terms(phi: PureState, p: float, d: int):
    """|phi><phi| and the local part of the Psi_+ branch mixture,
    p(1-p) (sigma_A (x) I/d + I/d (x) sigma_C) + (1-p)^2 I/d (x) I/d."""
    a = phi.amplitudes.reshape(d, d)
    sigma_a = a @ a.conj().T
    sigma_c = a.T @ a.conj()
    eye = np.eye(d) / d
    local = (p * (1 - p) * (_kron(sigma_a, eye) + _kron(eye, sigma_c))
             + (1 - p)**2 * _kron(eye, eye))
    return np.outer(a, a.conj()), local


def eq2_mixture(phi: PureState, p: float, d: int) -> DensityMatrix:
    """The four-term conditional-state mixture for the Psi_+ branch:
    p^2 |phi><phi| + p(1-p) (sigma_A (x) I/d + I/d (x) sigma_C)
    + (1-p)^2 I/d (x) I/d."""
    d = _teleport_d(phi, d)
    p = _checked(p, "p", 0, 1)
    rho_phi, local = _eq2_terms(phi, p, d)
    return DensityMatrix((d, d), p**2 * rho_phi + local)


@dataclass(frozen=True)
class TeleportDistribution:
    joint: np.ndarray
    p_phi: np.ndarray
    p_loc: np.ndarray
    residual: float


def _check_povm(ops, d: int):
    mats = [require_hermitian(o) for o in ops]
    total = np.zeros((d, d), dtype=complex)
    for m in mats:
        if m.shape != (d, d):
            raise ValueError("POVM elements must be d x d matrices")
        _require_psd(m)
        total += m
    if np.max(np.abs(total - np.eye(d))) > COMPLETENESS_TOL:
        raise ValueError("POVM elements must sum to the identity")
    return mats


def _joint_table(rho_mat: np.ndarray, alice, charlie) -> np.ndarray:
    table = np.empty((len(alice), len(charlie)))
    for i, a in enumerate(alice):
        for j, c in enumerate(charlie):
            table[i, j] = np.trace(_kron(a, c) @ rho_mat).real
    return table


def teleport_distribution(phi: PureState, p: float, d: int, alice_povm,
                          charlie_povm) -> TeleportDistribution:
    """Joint outcome distribution on the double-teleported state.

    Decomposes as p^2 P_phi + (1 - p^2) P_loc, with P_phi the same
    measurement on |phi><phi| and P_loc a mixture of product
    distributions (hence local).
    """
    d = _teleport_d(phi, d)
    alice = _check_povm(alice_povm, d)
    charlie = _check_povm(charlie_povm, d)
    rho_f = double_teleport(phi, p, d, (0, 0)).conditional_state
    joint = _joint_table(rho_f.matrix, alice, charlie)
    rho_phi, local = _eq2_terms(phi, p, d)
    p_phi = _joint_table(rho_phi, alice, charlie)
    if 1 - p**2 > LOCAL_WEIGHT_CUTOFF:
        loc_mat = local / (1 - p**2)
    else:
        loc_mat = np.eye(d * d) / d**2
    p_loc = _joint_table(loc_mat, alice, charlie)
    residual = float(np.max(np.abs(joint - p**2 * p_phi - (1 - p**2) * p_loc)))
    return TeleportDistribution(joint, p_phi, p_loc, residual)


# Projector onto the unerased qubit subspace of a qutrit (M_B^0); its
# complement |2><2| is M_B^1.
M_B0 = np.diag([1.0, 1.0, 0.0]).astype(complex)
M_B1 = np.diag([0.0, 0.0, 1.0]).astype(complex)


def _erased_pair_state(k: float) -> DensityMatrix:
    """erased(k)_{A B1} (x) erased(k)_{B2 C}, Bob holding both qutrits:
    the literal network that `erased_protocol` contracts without building."""
    ab = erased(k)
    # Second copy with the qutrit first: permute the (2, 3) state to (3, 2).
    t = ab.matrix.reshape(2, 3, 2, 3).transpose(1, 0, 3, 2).reshape(6, 6)
    ba = DensityMatrix((3, 2), t)
    return tensor(ab, ba)


def erased_protocol(k: float, bell_outcome: int = 0,
                    b_outcomes=(0, 0)) -> ProtocolOutcome:
    """Two-step measurement on a pair of erased states.

    Bob first measures {M_B^0, M_B^1} on both qutrits B1, B2; on the
    double-M_B^0 branch (probability 1/k^2) he Bell-measures the
    surviving qubit pair, leaving Alice and Charlie maximally entangled
    for every outcome.  ``b_outcomes`` selects the first-step results; a
    1 on either side ends the protocol there.
    """
    bell_outcome = _checked(bell_outcome, "bell_outcome", 0, 4, integer=True,
                            hi_open=True)
    b_outcomes = tuple(_checked(b, "b_outcomes", 0, 1, integer=True)
                       for b in _items(b_outcomes, "b_outcomes", 2))
    if b_outcomes == (0, 0):
        # The Bell projector on the qubit levels of (B1, B2) lies inside
        # M_B^0 (x) M_B^0, so it covers both measurement steps at once.
        v = np.zeros((3, 3), dtype=complex)
        v[:2, :2] = _BELL_BRAS[2][bell_outcome].conj()
        proj = np.outer(v, v.conj())
        labels = b_outcomes + (bell_outcome,)
    else:
        proj = _kron(*(M_B0 if b == 0 else M_B1 for b in b_outcomes))
        labels = b_outcomes
    # erased(k) checks k and is ordered (outer party, Bob's share).
    return ProtocolOutcome(*_swap(erased(k).matrix, proj, 2, 3), labels)


def build_symmetric_extension(k: int) -> DensityMatrix:
    """Explicit (k+1)-party state whose every (A, B_i) marginal is erased(k).

    rho = (1/k) sum_i Bell(A, B_i) (x) |2><2| on the other B's; the Bobs
    are exchangeable by construction.
    """
    k = _checked(k, "k", 2, MAX_EXTENSION_K, integer=True, error=DimensionError)
    dims = (2,) + (3,) * k
    total = 2 * 3**k
    # Each term's two nonzero amplitudes (|0>, |1> on A and B_i, |2> on
    # the other B's) span a 2x2 block of its own, so the blocks are
    # assigned, not summed; each holds the terms' values bit for bit.
    amps = np.full(2, 1 / np.sqrt(2), dtype=complex)
    block = np.outer(amps, amps.conj()) / k
    mat = np.zeros((total, total), dtype=complex)
    for i in range(k):
        levels = np.full((k, 2), 2)
        levels[i] = (0, 1)
        idx = np.ravel_multi_index(((0, 1), *levels), dims)
        mat[np.ix_(idx, idx)] = block
    return DensityMatrix(dims, mat)


def verify_locality_observation(rho: DensityMatrix, proj, proj_subsystems,
                                cut) -> bool:
    """Certify a multipartite state nonlocal by conditioning.

    Projects ``rho`` on the given outcome, reduces to the two-qubit cut,
    and reports whether the conditional state violates CHSH.  A True
    result certifies the parent state nonlocal; False is inconclusive.
    """
    prob, cond = project_and_condition(rho, proj, proj_subsystems)
    if cond is None:
        return False
    reduced = partial_trace(cond, cut)
    if reduced.dims != (2, 2):
        raise ValueError(f"cut must select two qubits, got dims {reduced.dims}")
    return classify(reduced).violates_chsh
