import dataclasses
import pickle
import re
import subprocess
import sys
import textwrap
import warnings
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from triact.protocols import build_symmetric_extension
from triact.qcore import (ENTROPY_CUTOFF, FIDELITY_TOL, HERMITICITY_TOL,
                          PAULI_BASIS, TRACE_TOL, DensityMatrix,
                          DimensionError, PureState, ValidationError, _kron,
                          _spectrum, fidelity_pure, partial_trace,
                          project_and_condition, require_hermitian, tensor,
                          von_neumann_entropy)
from triact.states import RngSeed, erased, isotropic, max_entangled, \
    random_mixed_hs, random_pure_fs

# 25 fixed seeds spread over [0, 500)
PROPERTY_SEEDS = range(0, 500, 20)


def mixed(seed, dims=(2, 2)):
    d = int(np.prod(dims))
    return random_mixed_hs(d, RngSeed(99, seed), dims=dims)


def test_density_matrix_rejects_bad_input():
    with pytest.raises(ValidationError):
        DensityMatrix((2,), np.array([[0.5, 1.0], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ValidationError):
        DensityMatrix((2,), np.eye(2))  # trace 2
    with pytest.raises(ValidationError):
        DensityMatrix((2,), np.diag([1.5, -0.5]))  # not PSD
    with pytest.raises(DimensionError):
        DensityMatrix((2, 3), np.eye(4) / 4)
    # NaN compares false with every bound, so each gate must be written
    # to fail unless its check holds. NaN anywhere, the diagonal included,
    # fails the Hermiticity gate first.
    for i, j in ((0, 0), (0, 1), (1, 1)):
        for nan in (np.nan, complex(0, np.nan)):
            m = np.eye(2, dtype=complex) / 2
            m[i, j] = nan
            with pytest.raises(ValidationError, match=re.escape(
                    "matrix is not Hermitian (deviation nan)")):
                DensityMatrix((2,), m)
    # A finite Hermitian matrix whose trace overflows fails the trace
    # gate (numpy may warn of the overflow on the way).
    with np.errstate(over="ignore"), pytest.raises(
            ValidationError, match=re.escape("trace is (inf+0j), expected 1")):
        DensityMatrix((2,), np.diag([1e308, 1e308]))


def test_containers_reject_bad_shapes():
    with pytest.raises(ValidationError, match="expected a 2-d matrix"):
        DensityMatrix((2,), [1, 0])
    with pytest.raises(ValidationError, match="not square"):
        DensityMatrix((2,), np.ones((2, 3)))
    with pytest.raises(DimensionError, match="amplitude length 3 != "):
        PureState((2, 2), [1, 0, 0])
    # an empty matrix has no largest deviation: numpy's own error, as
    # ndarray.max raises it
    with pytest.raises(ValueError) as want:
        np.zeros((0, 0)).max()
    with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
        require_hermitian(np.zeros((0, 0)))


@pytest.mark.parametrize("scale", [0.5, 2.0])
@pytest.mark.parametrize("unit", [1, 1j])
def test_hermiticity_gate_at_its_tolerance(scale, unit):
    # m[0, 1] off its mirror by scale * HERMITICITY_TOL, real or imaginary
    m = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
    m[0, 1] += unit * scale * HERMITICITY_TOL
    if scale < 1:
        assert DensityMatrix((2,), m).matrix.tobytes() == m.tobytes()
        return
    dev = abs(m[0, 1] - m[1, 0])
    with pytest.raises(ValidationError, match=re.escape(
            f"matrix is not Hermitian (deviation {dev:.3e})")):
        DensityMatrix((2,), m)


@pytest.mark.parametrize("scale", [0.5, -0.5, 2.0, -2.0])
def test_trace_gate_at_its_tolerance(scale):
    m = np.diag([0.5 + scale * TRACE_TOL, 0.5]).astype(complex)
    if abs(scale) < 1:
        DensityMatrix((2,), m)
        return
    tr = complex(m[0, 0] + m[1, 1])
    with pytest.raises(ValidationError,
                       match=f"^{re.escape(f'trace is {tr}, expected 1')}$"):
        DensityMatrix((2,), m)


def test_cleaned_leaves_the_psd_gate_to_the_constructor():
    # One PSD gate: noise within PSD_TOL passes, real negativity raises.
    with pytest.raises(ValidationError):
        DensityMatrix.cleaned(np.diag([1 + 1e-6, -1e-6]), (2,))
    out = DensityMatrix.cleaned(np.diag([1 + 1e-12, -1e-12]), (2,))
    np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.0]), atol=1e-11)


def test_containers_do_not_change_through_the_callers_array():
    # a view of the caller's array is copied: freezing it would leave
    # its base writable
    v = np.array([[1, 0], [0, 0]], dtype=complex)
    psi = PureState((2, 2), v)
    w = np.diag([1.0, 0, 0, 0]).astype(complex)
    rho = DensityMatrix((2, 2), w.T)
    v[0, 0] = w[0, 0] = 5
    assert psi.amplitudes[0] == 1 and rho.matrix.trace() == 1
    # an array the container can own is frozen in place, not copied
    m, u = np.eye(4, dtype=complex) / 4, np.array([1, 0], dtype=complex)
    assert DensityMatrix((2, 2), m).matrix is m
    assert PureState((2,), u).amplitudes is u
    assert not (m.flags.writeable or u.flags.writeable)


def test_cleaned_rejects_non_positive_trace():
    with pytest.raises(ValidationError, match="non-positive trace"):
        DensityMatrix.cleaned(np.zeros((2, 2)), (2,))


def test_tensor_identity_case():
    half = DensityMatrix((2,), np.eye(2) / 2)
    out = tensor(half, half)
    assert out.dims == (2, 2)
    np.testing.assert_allclose(out.matrix, np.eye(4) / 4)


def test_tensor_basis_case():
    zero = DensityMatrix((2,), np.diag([1.0, 0.0]))
    one = DensityMatrix((2,), np.diag([0.0, 1.0]))
    out = tensor(zero, one)
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0  # |01> is flat index 1
    np.testing.assert_allclose(out.matrix, expected)


def test_tensor_isotropic_pair_against_elementwise_oracle():
    a = isotropic(0.8, 2)
    out = tensor(a, a)
    assert out.dims == (2, 2, 2, 2)
    # independent elementwise Kronecker oracle
    ref = np.empty((16, 16), dtype=complex)
    for i in range(4):
        for j in range(4):
            ref[4 * i:4 * i + 4, 4 * j:4 * j + 4] = a.matrix[i, j] * a.matrix
    np.testing.assert_allclose(out.matrix, ref, atol=1e-14)
    assert abs(np.trace(out.matrix) - 1) < 1e-12
    assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-12


def test_kron_is_np_kron_bit_for_bit():
    rng = np.random.default_rng(5)

    def operand(shape, complex_):
        a = rng.standard_normal(shape)
        if complex_:
            a = a + 1j * rng.standard_normal(shape)
        a.flat[0] = -0.0  # signed zeros must come out as np.kron has them
        return a

    shapes = [((2, 2), (3, 3)), ((3, 3), (3, 3)), ((2, 3), (3, 2)),
              ((3, 2), (2, 3)), ((1, 1), (4, 4)), ((4, 4), (1, 1)),
              ((1, 1), (1, 1))]
    for sa, sb in shapes:
        for ca in (False, True):
            for cb in (False, True):
                a, b = operand(sa, ca), operand(sb, cb)
                got, want = _kron(a, b), np.kron(a, b)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (sa, sb, ca, cb)
    # Batched operands, pair by pair: a (T, k, 1, 2, 2) x (T, 1, k, 2, 2)
    # Kraus-pair stack, and the 3 x 3 Pauli products.
    e = operand((5, 4, 2, 2), True)
    got = _kron(e[:, :, None], e[:, None])
    assert got.shape == (5, 4, 4, 4, 4)
    for t, i, j in np.ndindex(5, 4, 4):
        assert got[t, i, j].tobytes() == np.kron(e[t, i], e[t, j]).tobytes()
    paulis = PAULI_BASIS[1:]
    got = _kron(paulis[:, None], paulis[None])
    assert got.shape == (3, 3, 4, 4)
    for i, j in np.ndindex(3, 3):
        assert got[i, j].tobytes() == np.kron(paulis[i], paulis[j]).tobytes()


def test_pauli_basis_is_read_only_literal():
    want = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                     [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    assert PAULI_BASIS.dtype == complex and not PAULI_BASIS.flags.writeable
    assert PAULI_BASIS.tobytes() == want.tobytes()


def test_tensor_is_np_kron_bit_for_bit():
    factors = [mixed(1, (2,)), mixed(2, (3,)), isotropic(0.3, 2)]
    for n in (2, 3):
        want = reduce(np.kron, (f.matrix for f in factors[:n]))
        assert tensor(*factors[:n]).matrix.tobytes() == want.tobytes()


def test_tensor_dimension_cap():
    big = DensityMatrix((72,), np.eye(72) / 72)
    with pytest.raises(DimensionError):
        tensor(big, big)


def test_partial_trace_maximally_entangled_marginal():
    rho = max_entangled(2).density_matrix()
    np.testing.assert_allclose(partial_trace(rho, {0}).matrix, np.eye(2) / 2,
                               atol=1e-12)


def test_partial_trace_product_recovery():
    a, b = mixed(0), mixed(1, dims=(3,))
    out = partial_trace(tensor(a, b), {0, 1})
    np.testing.assert_allclose(out.matrix, a.matrix, atol=1e-12)
    assert out.dims == (2, 2)


def test_partial_trace_erased_a_marginal():
    # hand computation: both terms of the erased state have A-marginal I/2
    out = partial_trace(erased(3), {0})
    np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_empty_keep_rejected():
    with pytest.raises(ValueError):
        partial_trace(mixed(2), set())


@pytest.mark.parametrize("seed", PROPERTY_SEEDS)
def test_partial_trace_inverts_tensor(seed):
    a, b = mixed(2 * seed), mixed(2 * seed + 1)
    back = partial_trace(tensor(a, b), {0, 1})
    assert np.max(np.abs(back.matrix - a.matrix)) < 1e-12


def test_entropy_pure_and_mixed():
    assert von_neumann_entropy(max_entangled(2).density_matrix()) < 1e-10
    assert abs(von_neumann_entropy(DensityMatrix((2, 2), np.eye(4) / 4)) - 2) < 1e-12


def test_entropy_isotropic_from_spectrum():
    probs = np.array([0.625, 0.125, 0.125, 0.125])
    expected = -np.sum(probs * np.log2(probs))
    assert abs(von_neumann_entropy(isotropic(0.5, 2)) - expected) < 1e-12


@pytest.mark.parametrize("seed", PROPERTY_SEEDS)
def test_entropy_additive_on_products(seed):
    a, b = mixed(3 * seed), mixed(3 * seed + 1)
    s = von_neumann_entropy(tensor(a, b))
    assert abs(s - von_neumann_entropy(a) - von_neumann_entropy(b)) < 1e-9


def _gate_inputs():
    """Random Hermitian matrices at every size the package validates, and
    degenerate spectra: I/4, a rank-1 pure state and two rank-deficient
    states."""
    rng = np.random.default_rng(23)
    for d in (1, 2, 3, 4, 6, 9, 18, 162):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        yield g + g.conj().T
    yield np.eye(4, dtype=complex) / 4
    yield max_entangled(3).density_matrix().matrix
    yield erased(3).matrix
    yield build_symmetric_extension(4).matrix


def _spectrum_states():
    """HS states, pure states, d = 3 isotropic states and the k = 4
    symmetric extension."""
    yield from (mixed(i, dims) for i in range(5)
                for dims in ((2,), (2, 2), (2, 3)))
    yield from (max_entangled(d).density_matrix() for d in (2, 3))
    yield from (random_pure_fs(d, RngSeed(5, d)).density_matrix()
                for d in (2, 4, 6))
    yield from (isotropic(p, 3) for p in (0.0, 0.3, 0.25, 1.0))
    yield build_symmetric_extension(4)


def test_spectrum_is_np_linalg_eigvalsh_bit_for_bit():
    # The PSD gate's kernel calls numpy's gufunc without np.linalg's
    # wrapper; the eigenvalues, and so every accept/reject, must not move.
    # DensityMatrix keeps the gate's eigenvalues as its spectrum.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cases = [(m, _spectrum(m)) for m in _gate_inputs()]
        cases += [(rho.matrix, rho.spectrum) for rho in _spectrum_states()]
        for m, got in cases:
            want = np.linalg.eigvalsh(m)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), m.shape


def test_spectrum_falls_back_to_np_linalg_eigvalsh():
    """A numpy whose gufunc module has no ``eigvalsh_lo`` gets
    np.linalg.eigvalsh bound at import, with the direct binding's bits;
    this numpy keeps the direct binding."""
    import triact
    src = str(Path(triact.__file__).resolve().parents[1])
    code = textwrap.dedent(f"""
        import sys, types
        import numpy as np
        stub = types.ModuleType("numpy.linalg._umath_linalg")
        sys.modules["numpy.linalg._umath_linalg"] = stub
        sys.path.insert(0, {src!r})
        from triact import qcore
        from triact.states import RngSeed, random_mixed_hs
        assert qcore._spectrum is np.linalg.eigvalsh
        rho = random_mixed_hs(4, RngSeed(7, 3), dims=(2, 2))
        print(rho.spectrum.tobytes().hex())
        """)
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True)
    rho = random_mixed_hs(4, RngSeed(7, 3), dims=(2, 2))
    assert _spectrum is not np.linalg.eigvalsh
    assert out.stdout.strip() == rho.spectrum.tobytes().hex()


def test_spectrum_is_a_read_only_derived_field():
    rho = mixed(3)
    assert not rho.spectrum.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        rho.spectrum[0] = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        rho.spectrum = np.zeros(4)
    with pytest.raises(TypeError, match="spectrum"):
        DensityMatrix((2, 2), rho.matrix, spectrum=rho.spectrum)
    # not shown, and not compared: two states of one matrix are equal
    # whatever their spectra
    assert "spectrum" not in repr(rho)
    assert [f.name for f in dataclasses.fields(rho) if f.compare] == [
        "dims", "matrix"]
    small = DensityMatrix((1,), np.ones((1, 1)))
    other = DensityMatrix((1,), np.ones((1, 1)))
    object.__setattr__(other, "spectrum", np.array([0.5]))
    assert small == other


def test_spectrum_survives_replace_and_pickle():
    rho = mixed(4)
    swapped = dataclasses.replace(rho, dims=(4,))
    assert swapped.spectrum.tobytes() == rho.spectrum.tobytes()
    assert not swapped.spectrum.flags.writeable
    back = pickle.loads(pickle.dumps(rho))
    assert back.spectrum.dtype == rho.spectrum.dtype
    assert back.spectrum.tobytes() == rho.spectrum.tobytes()
    assert back.matrix.tobytes() == rho.matrix.tobytes()


def test_entropy_is_the_np_linalg_formula_bit_for_bit():
    states = [mixed(7), mixed(8, (2, 3)), isotropic(0.5, 2), erased(3),
              max_entangled(3).density_matrix(), build_symmetric_extension(4)]
    for rho in states:
        w = np.linalg.eigvalsh(rho.matrix)
        w = w[w > ENTROPY_CUTOFF]
        assert von_neumann_entropy(rho) == float(-np.sum(w * np.log2(w)))


def test_condition_on_first_qubit():
    rho = DensityMatrix((2, 2), np.eye(4) / 4)
    proj = np.diag([1.0, 0.0])
    prob, cond = project_and_condition(rho, proj, [0])
    assert abs(prob - 0.5) < 1e-12
    expected = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2)
    np.testing.assert_allclose(cond.matrix, expected, atol=1e-12)


def test_condition_erased_on_qubit_subspace():
    k = 4
    prob, cond = project_and_condition(erased(k), np.diag([1.0, 1.0, 0.0]), [1])
    assert abs(prob - 1 / k) < 1e-12
    # Bell pair padded into the qubit subspace of the qutrit
    expected = np.zeros((6, 6), dtype=complex)
    for i in (0, 4):
        for j in (0, 4):
            expected[i, j] = 0.5
    np.testing.assert_allclose(cond.matrix, expected, atol=1e-12)


def test_condition_on_non_adjacent_subsystems():
    dims = (2, 3, 2)
    rho = mixed(9, dims)
    g = np.random.default_rng(4).standard_normal((2, 4))
    v = g[0] + 1j * g[1]
    proj = np.outer(v, v.conj()) / np.vdot(v, v).real
    # Reference: proj (x) I_B on the order (A, C, B), legs permuted back
    # to (A, B, C).
    full = np.kron(proj, np.eye(3)).reshape((2, 2, 3) * 2)
    full = full.transpose(0, 2, 1, 3, 5, 4).reshape(12, 12)
    out = full @ rho.matrix @ full.conj().T
    prob, cond = project_and_condition(rho, proj, (0, 2))
    assert abs(prob - np.trace(out).real) < 1e-12
    np.testing.assert_allclose(cond.matrix, out / prob, atol=1e-12)
    assert cond.dims == dims


def test_condition_rejects_bad_subsystems():
    rho = mixed(9, (2, 3, 2))
    # Unordered, repeated, out of range, and a shape mismatch.
    for subs in ((2, 0), (0, 0), (0, 3), (0, 1)):
        with pytest.raises(ValueError):
            project_and_condition(rho, np.eye(4), subs)


def test_condition_zero_probability_marker():
    rho = DensityMatrix((2, 3), erased(1).matrix)
    prob, cond = project_and_condition(rho, np.diag([0.0, 0.0, 1.0]), [1])
    assert prob == 0.0 and cond is None


def test_condition_rejects_non_projector():
    rho = DensityMatrix((2, 2), np.eye(4) / 4)
    with pytest.raises(ValidationError):
        project_and_condition(rho, 0.5 * np.eye(2), [0])


def test_condition_probabilities_sum_to_one():
    rho = mixed(7)
    total = 0.0
    for lev in range(2):
        p = np.zeros((2, 2))
        p[lev, lev] = 1.0
        prob, _ = project_and_condition(rho, p, [1])
        total += prob
    assert abs(total - 1) < 1e-10


def test_fidelity_pure_cases():
    psi = max_entangled(2)
    assert abs(fidelity_pure(psi.density_matrix(), psi) - 1) < 1e-12
    maxmix = DensityMatrix((2, 2), np.eye(4) / 4)
    assert abs(fidelity_pure(maxmix, psi) - 0.25) < 1e-12
    # linearity over the isotropic mixture: p + (1-p)/d^2
    for p in (0.0, 0.3, 1.0):
        assert abs(fidelity_pure(isotropic(p, 2), psi) - (p + (1 - p) / 4)) < 1e-12


def test_fidelity_above_its_tolerance_rejected():
    # within the trace and PSD gates, yet <0|rho|0> = 1 + 1.9e-10
    rho = DensityMatrix((2,), np.diag([1 + 1.9e-10, -0.95e-10]))
    zero = PureState((2,), [1, 0])
    assert rho.matrix[0, 0].real > 1 + FIDELITY_TOL
    with pytest.raises(ValidationError, match="outside"):
        fidelity_pure(rho, zero)


def test_fidelity_dim_mismatch():
    with pytest.raises(DimensionError):
        fidelity_pure(mixed(8), max_entangled(3))


def test_pure_state_norm_enforced():
    with pytest.raises(ValidationError):
        PureState((2,), np.array([1.0, 1.0]))
    with pytest.raises(ValidationError):
        PureState((2,), np.array([np.nan, 1.0]))
