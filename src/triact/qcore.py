"""Dense complex-matrix foundation for finite-dimensional quantum states.

States are plain numpy arrays wrapped in light validated containers.
Subsystem ordering convention: ``dims[0]`` is the leftmost (most
significant) tensor factor, so the flat basis index of ``|i0 i1 ...>`` is
``i0 * d1 * d2 * ... + i1 * d2 * ... + ...`` and ``tensor(a, b)`` is
``np.kron(a, b)``.  All subsystem embeddings in this package follow that
convention.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from functools import reduce
from typing import Collection, Sequence

import numpy as np

# Validation tolerances for state containers.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
NORM_TOL = 1e-12
# Outcome probability below which a conditioned state is None (the
# zero-probability marker).
ZERO_PROB = 1e-12

# Largest total Hilbert-space dimension of a PureState, DensityMatrix or
# tensor product; the builders bound their d by it before allocating.
MAX_TOTAL_DIM = 4096
# Largest d of a (d, d) pair, derived from the cap: 64.
MAX_PAIR_D = math.isqrt(MAX_TOTAL_DIM)


class DimensionError(ValueError):
    """Subsystem dimensions are inconsistent or exceed the configured cap."""


class ValidationError(ValueError):
    """A matrix fails a structural requirement (Hermiticity, PSD, ...)."""


def _as_complex_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValidationError(f"expected a 2-d matrix, got shape {a.shape}")
    return a


def require_hermitian(m) -> np.ndarray:
    a = _as_complex_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValidationError(f"matrix is not square: {a.shape}")
    dev = abs(a - a.conj().T).max()
    if not dev <= HERMITICITY_TOL:
        raise ValidationError(f"matrix is not Hermitian (deviation {dev:.3e})")
    return a


def _checked(value, name: str, lo, hi=math.inf, *, integer: bool = False,
             hi_open: bool = False, error=ValueError):
    """``value`` as a Python int (``integer``: Python and numpy integers
    only) or float (any real number), checked to lie in [lo, hi], or in
    [lo, hi) with ``hi_open``; NaN fails every bound.  Anything else
    raises ``error`` with ``name`` first."""
    if integer:
        try:
            x = operator.index(value)
        except TypeError:
            raise error(f"{name}: integers only, got {value!r}") from None
    elif isinstance(value, numbers.Real):
        x = float(value)
    else:
        raise error(f"{name} must be a real number, got {value!r}")
    if not (lo <= x < hi if hi_open else lo <= x <= hi):
        bounds = (f">= {lo}" if hi == math.inf else
                  f"in [{lo}, {hi}{')' if hi_open else ']'}")
        raise error(f"{name} must be {bounds}, got {x!r}")
    return x


def _items(value, name: str, length: int | None = None, *,
           error=ValueError) -> tuple:
    """The items of a sized collection ``value`` as a tuple, counted
    against ``length`` (if given) before any is read; anything else
    raises ``error`` with ``name`` first."""
    try:
        n = len(value)
    except TypeError:
        raise error(f"{name} must be a sequence, got {value!r}") from None
    if length is not None and n != length:
        raise error(f"{name} must hold {length} items, got {n}")
    return tuple(value)


def _checked_dims(dims) -> tuple:
    """``(dims, total)``: ``dims`` as Python ints >= 1 and their product,
    at most MAX_TOTAL_DIM, else DimensionError; run before any array."""
    dims = tuple(_checked(d, "dims", 1, integer=True, error=DimensionError)
                 for d in _items(dims, "dims", error=DimensionError))
    total = math.prod(dims)
    if total > MAX_TOTAL_DIM:
        raise DimensionError(
            f"total dimension {total} exceeds cap {MAX_TOTAL_DIM}")
    return dims, total


@dataclass(frozen=True)
class PureState:
    """Normalized state vector over an ordered list of subsystem dimensions."""

    dims: tuple
    amplitudes: np.ndarray

    def __post_init__(self):
        dims, total = _checked_dims(self.dims)
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)
        if amps.size != total:
            raise DimensionError(
                f"amplitude length {amps.size} != product of dims {total}")
        norm2 = float(np.vdot(amps, amps).real)
        if not abs(norm2 - 1.0) <= NORM_TOL:
            raise ValidationError(f"state not normalized: ||psi||^2 = {norm2}")
        amps.flags.writeable = False

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(self.dims, np.outer(self.amplitudes,
                                                 self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix over registered subsystem dims."""

    dims: tuple
    matrix: np.ndarray

    def __post_init__(self):
        dims, total = _checked_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        m = require_hermitian(self.matrix)
        if m.shape != (total, total):
            raise DimensionError(
                f"matrix shape {m.shape} != ({total}, {total}) from dims {dims}")
        tr = complex(m.trace())
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValidationError(f"trace is {tr}, expected 1")
        lo = float(np.linalg.eigvalsh(m)[0])
        if not lo >= -PSD_TOL:
            raise ValidationError(f"matrix not PSD: min eigenvalue {lo:.3e}")
        object.__setattr__(self, "matrix", m)
        m.flags.writeable = False

    @classmethod
    def cleaned(cls, matrix, dims: Sequence[int]) -> "DensityMatrix":
        """Build a state after numerical hygiene.

        Re-Hermitizes via (m + m^dag)/2 and renormalizes the trace.  The
        constructor's PSD_TOL check stays the only PSD gate: negativity
        beyond it is a real error, not noise, and raises.
        """
        m = _as_complex_matrix(matrix)
        m = (m + m.conj().T) / 2
        tr = float(np.trace(m).real)
        if tr <= 0:
            raise ValidationError("cannot clean: non-positive trace")
        return cls(dims, m / tr)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two 2-d arrays, bit for bit: the one broadcast
    product, without np.kron's n-d set-up, which dominates at the small
    operands the protocols use."""
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def tensor(a: DensityMatrix, b: DensityMatrix, *rest: DensityMatrix) -> DensityMatrix:
    """Kronecker product of states; dims concatenate in argument order."""
    factors = (a, b) + rest
    dims, _ = _checked_dims([d for f in factors for d in f.dims])
    mat = reduce(_kron, (f.matrix for f in factors))
    return DensityMatrix(dims, mat)


def partial_trace(rho: DensityMatrix, keep: Collection[int]) -> DensityMatrix:
    """Trace out every subsystem not in ``keep``; kept order is preserved."""
    n = len(rho.dims)
    keep = sorted({_checked(i, "subsystem indices", 0, n, integer=True,
                            hi_open=True) for i in _items(keep, "keep")})
    if not keep:
        raise ValueError("keep set must be nonempty")
    dims = list(rho.dims)
    t = rho.matrix.reshape(dims + dims)
    traced = [i for i in range(n) if i not in keep]
    for idx in sorted(traced, reverse=True):
        t = np.trace(t, axis1=idx, axis2=idx + len(dims))
        dims.pop(idx)
    d = math.prod(dims)
    return DensityMatrix(tuple(dims), t.reshape(d, d))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -Tr(rho log2 rho), in bits; 0 log 0 := 0."""
    w = np.linalg.eigvalsh(rho.matrix)
    w = w[w > 1e-14]
    return float(-np.sum(w * np.log2(w)))


def apply_to_legs(ops, matrix: np.ndarray, dims: Sequence[int],
                  legs: Sequence[int]):
    """Sum_K K rho K^dag, each K acting only on the listed tensor legs.

    ``matrix`` is a raw (D, D) array over ``dims``; ``legs`` must be
    distinct and ascending, and each K acts on them in that order.  K is
    either square on those legs, or maps a single leg to a new dimension
    (d_out x d_in).  Returns ``(out_matrix, out_dims)``.
    """
    n = len(dims)
    legs = [_checked(s, "subsystem indices", 0, n, integer=True, hi_open=True)
            for s in _items(legs, "subsystems")]
    k = len(legs)
    if sorted(set(legs)) != legs:
        raise ValueError("subsystems must be distinct and ascending")
    sub_dims = [dims[s] for s in legs]
    d_sub = math.prod(sub_dims)
    stack = np.asarray(ops, dtype=complex)
    if stack.ndim != 3 or stack.shape[2] != d_sub or (
            k > 1 and stack.shape[1] != d_sub):
        raise DimensionError(f"operator shape {stack.shape[1:]} does not "
                             f"act on subsystems of dims {sub_dims}")
    out_sub = sub_dims if k > 1 else [stack.shape[1]]
    out_dims = list(dims)
    for s, d in zip(legs, out_sub):
        out_dims[s] = d
    # Stack axes: (Kraus index, K's output legs, K's input legs).
    stack = stack.reshape([len(stack)] + out_sub + sub_dims)
    ins = list(range(k + 1, 2 * k + 1))
    cols = [n + s for s in legs]
    # K on the row legs (the Kraus index stays in front), then K^dag on
    # the column legs, contracting the Kraus index to sum over K.
    t = matrix.reshape(list(dims) * 2)
    t = np.moveaxis(np.tensordot(stack, t, axes=(ins, legs)),
                    range(1, k + 1), [1 + s for s in legs])
    t = np.tensordot(t, stack.conj(), axes=([0] + [1 + c for c in cols],
                                            [0] + ins))
    t = np.moveaxis(t, range(2 * n - k, 2 * n), cols)
    d_out = math.prod(out_dims)
    return t.reshape(d_out, d_out), tuple(out_dims)


def project_and_condition(rho: DensityMatrix, proj, subsystems: Sequence[int]):
    """Condition ``rho`` on a projector on the given subsystems.

    ``proj`` acts on the listed subsystems in their given (ascending)
    order and is applied to those tensor legs only.  Returns
    ``(probability, conditional_state)``, or ``(0.0, None)`` when the
    outcome probability is below ``ZERO_PROB``.
    """
    p = require_hermitian(proj)
    if np.max(np.abs(p @ p - p)) > HERMITICITY_TOL:
        raise ValidationError("projector is not idempotent")
    out, _ = apply_to_legs([p], rho.matrix, rho.dims, subsystems)
    prob = float(np.trace(out).real)
    if prob < ZERO_PROB:
        return 0.0, None
    return prob, DensityMatrix.cleaned(out / prob, rho.dims)


def fidelity_pure(rho: DensityMatrix, psi: PureState) -> float:
    """<psi| rho |psi>."""
    if rho.dims != psi.dims:
        raise DimensionError(f"dims mismatch: {rho.dims} vs {psi.dims}")
    val = float(np.vdot(psi.amplitudes, rho.matrix @ psi.amplitudes).real)
    if not -1e-10 <= val <= 1 + 1e-10:
        raise ValidationError(f"fidelity {val} outside [0, 1]")
    return val
