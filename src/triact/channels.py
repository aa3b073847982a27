"""Quantum channels in operator-sum form.

Covers the three single-qubit decoherence processes (amplitude damping,
phase damping, depolarization) on a strength parameter t in [0, 1] and
the qubit-to-qutrit erasure channel whose Choi state is the erased
state.

The printed phase-damping operators (sqrt(t) I, sqrt(1-t) sigma_z) act
as the identity at t = 1 and as a unitary flip at t = 0, which inverts
the meaning of t used everywhere else.  The default here is the standard
family sqrt(1 - t/2) I, sqrt(t/2) sigma_z (identity at t = 0, full
dephasing at t = 1); ``make_pd(t, verbatim=True)`` keeps the other
parametrization available for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import (COMPLETENESS_TOL, PAULI_BASIS, DensityMatrix, PureState,
                    ValidationError, _checked, _kron, apply_to_legs)


@dataclass(frozen=True)
class KrausChannel:
    """A finite set of Kraus operators satisfying sum E_i^dag E_i = I,
    held as one read-only (k, d_out, d_in) array."""

    kraus_ops: np.ndarray

    def __post_init__(self):
        try:
            ops = np.array(self.kraus_ops, dtype=complex)
        except ValueError as exc:
            raise ValidationError("Kraus operators disagree in shape") from exc
        if ops.shape[:1] == (0,):
            raise ValidationError("channel needs at least one Kraus operator")
        if ops.ndim != 3:
            raise ValidationError("Kraus operators must be matrices")
        if not ops.size:
            raise ValidationError(
                f"Kraus operators are zero-size: shape {ops.shape[1:]}")
        # sum_k E_k^dag E_k as one product of the stacked operators,
        # minus the identity on its diagonal
        d_in = ops.shape[2]
        flat = ops.reshape(-1, d_in)
        s = np.dot(flat.conj().T, flat)
        s.reshape(-1)[::d_in + 1] -= 1
        if not abs(s).max() <= COMPLETENESS_TOL:
            raise ValidationError("completeness relation violated")
        ops.flags.writeable = False
        object.__setattr__(self, "kraus_ops", ops)


def make_ad(t: float) -> KrausChannel:
    """Amplitude damping: decay |1> -> |0> with probability t."""
    t = _checked(t, "t", 0, 1)
    return KrausChannel(np.array([[[1, 0], [0, math.sqrt(1 - t)]],
                                  [[0, math.sqrt(t)], [0, 0]]], dtype=complex))


def make_pd(t: float, verbatim: bool = False) -> KrausChannel:
    """Phase damping.

    Default: rho' = (1 - t/2) rho + (t/2) sigma_z rho sigma_z, so the
    off-diagonal elements shrink by (1 - t).  Verbatim mode uses the
    alternative operators sqrt(t) I, sqrt(1 - t) sigma_z instead.
    """
    t = _checked(t, "t", 0, 1)
    a, b = (t, 1 - t) if verbatim else (1 - t / 2, t / 2)
    # PAULI_BASIS[::3] holds I and sigma_z
    return KrausChannel(np.array([math.sqrt(a), math.sqrt(b)])[:, None, None]
                        * PAULI_BASIS[::3])


def make_d(t: float) -> KrausChannel:
    """Qubit depolarization: rho' = (1 - t) rho + t I/2."""
    t = _checked(t, "t", 0, 1)
    w = math.sqrt(t / 4)
    return KrausChannel(
        np.array([math.sqrt(1 - 3 * t / 4), w, w, w])[:, None, None]
        * PAULI_BASIS)


def make_erasure(k: float) -> KrausChannel:
    """Qubit-to-qutrit erasure: survive on levels {0,1} with probability
    1/k, else land in the flag level |2>."""
    k = _checked(k, "k", 1)
    # keep, then lose |0>, then lose |1>
    ops = np.zeros((3, 3, 2), dtype=complex)
    ops[0, 0, 0] = ops[0, 1, 1] = np.sqrt(1 / k)
    ops[1, 2, 0] = ops[2, 2, 1] = np.sqrt(1 - 1 / k)
    return KrausChannel(ops)


def apply(ch: KrausChannel, rho: DensityMatrix, subsystem: int) -> DensityMatrix:
    """Apply the channel to one subsystem of a composite state."""
    return DensityMatrix.cleaned(
        *apply_to_legs(ch.kraus_ops, rho.matrix, rho.dims, [subsystem]))


def local_decohere(psi: PureState, make_channel, t: float) -> DensityMatrix:
    """Send both qubits of a two-qubit pure state through the same
    single-qubit channel at strength t."""
    if psi.dims != (2, 2):
        raise ValueError(f"expected a two-qubit pure state, got {psi.dims}")
    ch = make_channel(t)
    rho = psi.density_matrix()
    return apply(ch, apply(ch, rho, 0), 1)


def two_qubit_kraus_stack(make_channel, ts) -> np.ndarray:
    """Stacked two-qubit Kraus operators E_i (x) E_j over a grid of t.

    Shape (len(ts), k^2, 4, 4).  One batched ``_kron`` forms every pair
    at once.  The decoherence sweep builds its per-t superoperator from
    this stack (``harness._superoperators``).
    """
    e = np.stack([make_channel(t).kraus_ops for t in ts])
    return _kron(e[:, :, None], e[:, None]).reshape(len(e), -1, 4, 4)
