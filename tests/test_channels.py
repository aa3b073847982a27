import numpy as np
import pytest

from triact.channels import (KrausChannel, apply, local_decohere, make_ad,
                             make_d, make_erasure, make_pd,
                             two_qubit_kraus_stack)
from triact.criteria import correlation_matrix
from triact.protocols import _weyl
from triact.qcore import (COMPLETENESS_TOL, DensityMatrix, PureState,
                          ValidationError, fidelity_pure)
from triact.states import RngSeed, erased, isotropic, max_entangled, \
    random_mixed_hs

from literals import weyl

T_GRID = np.linspace(0.0, 1.0, 20)


def qubit(mat):
    return DensityMatrix((2,), mat)


def act(ch, mat):
    return apply(ch, qubit(mat), 0).matrix


def make_depolarizing(p, d):
    """d-dimensional depolarizing channel s -> p s + (1 - p) I/d: the
    weighted identity plus the d^2 - 1 other Heisenberg-Weyl unitaries."""
    q = (1 - p) / d**2
    return KrausChannel([np.sqrt(p + q) * np.eye(d)]
                        + [np.sqrt(q) * weyl(d, k) for k in range(1, d * d)])


def test_completeness_enforced():
    bad = [np.eye(2) * 0.5]
    for x in (np.nan, np.inf):
        for i, j in ((0, 0), (0, 1), (1, 0)):
            op = np.eye(2, dtype=complex)
            op[i, j] = x
            bad.append(op)
    for op in bad:
        # inf reaches the product as inf * 0, which numpy may warn of
        with np.errstate(invalid="ignore"), pytest.raises(
                ValidationError, match="^completeness relation violated$"):
            KrausChannel((op,))
    for make in (make_ad, make_pd, lambda t: make_pd(t, verbatim=True), make_d):
        for t in T_GRID:
            ch = make(t)
            s = sum(e.conj().T @ e for e in ch.kraus_ops)
            assert np.max(np.abs(s - np.eye(2))) <= 1e-10


@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_completeness_gate_at_its_tolerance(scale):
    # sum E^dag E off the identity by scale * COMPLETENESS_TOL, on the
    # diagonal (E = diag(sqrt(1 + e), 1)), off it (E = I + e |0><1|),
    # or spread over two operators
    e = scale * COMPLETENESS_TOL
    cases = [[np.diag([np.sqrt(1 + e), 1.0])],
             [np.array([[1.0, e], [0.0, 1.0]])],
             [np.sqrt(0.5) * np.eye(2),
              np.diag([np.sqrt(0.5 + e), np.sqrt(0.5)])]]
    for ops in cases:
        if scale < 1:
            KrausChannel(ops)
            continue
        with pytest.raises(ValidationError,
                           match="^completeness relation violated$"):
            KrausChannel(ops)


@pytest.mark.parametrize("shape", [(1, 2, 0), (1, 0, 0), (1, 0, 2)])
def test_kraus_channel_rejects_zero_size_operators(shape):
    with pytest.raises(ValidationError, match="zero-size"):
        KrausChannel(np.zeros(shape))


def test_kraus_channel_rejects_ragged_operators():
    # Complete, but E_1 maps to a qutrit while E_0 stays on a qubit.
    e = np.zeros((3, 2))
    e[1, 1] = 1.0
    with pytest.raises(ValidationError, match="disagree in shape"):
        KrausChannel((np.diag([1.0, 0.0]), e))
    with pytest.raises(ValidationError, match="at least one"):
        KrausChannel(())
    # a 0-d input reaches the ndim gate, not a TypeError from len()
    for scalar in (5, None):
        with pytest.raises(ValidationError,
                           match="^Kraus operators must be matrices$"):
            KrausChannel(scalar)


def test_kraus_channel_holds_one_read_only_stack():
    given = np.array([np.eye(2)])
    ch = KrausChannel(given)
    assert given.flags.writeable
    assert ch.kraus_ops.shape == (1, 2, 2)
    assert make_erasure(2.0).kraus_ops.shape == (3, 3, 2)
    with pytest.raises(ValueError):
        ch.kraus_ops[0, 0, 0] = 0


def test_sweep_operators_equal_literal_formulas():
    """AD, PD (both forms) and D on the sweep's 1000-point grid, bit for
    bit against the operator formulas written out one by one."""
    eye = np.eye(2)
    paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.array([[1, 0], [0, -1]])]
    z = paulis[2]
    for t in np.linspace(0.0, 1.0, 1000):
        for ch, ops in (
                (make_ad(t), [np.array([[1, 0], [0, np.sqrt(1 - t)]]),
                              np.array([[0, np.sqrt(t)], [0, 0]])]),
                (make_pd(t), [np.sqrt(1 - t / 2) * eye, np.sqrt(t / 2) * z]),
                (make_pd(t, verbatim=True),
                 [np.sqrt(t) * eye, np.sqrt(1 - t) * z]),
                (make_d(t), [np.sqrt(1 - 3 * t / 4) * eye]
                 + [np.sqrt(t / 4) * s for s in paulis])):
            want = np.array(ops, dtype=complex)
            np.testing.assert_array_equal(ch.kraus_ops, want)
            np.testing.assert_array_equal(np.signbit(ch.kraus_ops.view(float)),
                                          np.signbit(want.view(float)))


def test_ad_cases():
    plus = np.full((2, 2), 0.5)
    np.testing.assert_allclose(act(make_ad(0.0), plus), plus, atol=1e-14)
    # full damping sends everything to |0><0|
    np.testing.assert_allclose(act(make_ad(1.0), np.diag([0.3, 0.7])),
                               np.diag([1.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(act(make_ad(0.5), np.diag([0.0, 1.0])),
                               np.diag([0.5, 0.5]), atol=1e-14)


def test_pd_default_cases():
    plus = np.full((2, 2), 0.5)
    np.testing.assert_allclose(act(make_pd(0.0), plus), plus, atol=1e-14)
    np.testing.assert_allclose(act(make_pd(1.0), plus), np.eye(2) / 2,
                               atol=1e-14)
    # off-diagonals shrink by (1 - t)
    out = act(make_pd(0.4), plus)
    assert abs(out[0, 1] - 0.5 * 0.6) < 1e-14


def test_pd_verbatim_is_identity_at_t1():
    plus = np.full((2, 2), 0.5)
    np.testing.assert_allclose(act(make_pd(1.0, verbatim=True), plus), plus,
                               atol=1e-14)
    # and a sigma_z flip at t = 0
    out = act(make_pd(0.0, verbatim=True), plus)
    assert abs(out[0, 1] + 0.5) < 1e-14


def test_d_cases():
    plus = np.full((2, 2), 0.5)
    np.testing.assert_allclose(act(make_d(0.0), plus), plus, atol=1e-14)
    np.testing.assert_allclose(act(make_d(1.0), plus), np.eye(2) / 2,
                               atol=1e-14)
    np.testing.assert_allclose(act(make_d(0.4), plus),
                               0.6 * plus + 0.4 * np.eye(2) / 2, atol=1e-14)


def test_d_equals_convex_mixture():
    rng = np.random.default_rng(8)
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        ch = make_d(t)
        for i in range(5):
            rho = random_mixed_hs(2, RngSeed(41, 5 * i + int(t * 4))).matrix
            got = act(ch, rho)
            np.testing.assert_allclose(got, (1 - t) * rho + t * np.eye(2) / 2,
                                       atol=1e-12)


def test_trace_preserving_and_psd_on_random_inputs():
    makes = {"AD": make_ad, "PD": make_pd, "D": make_d,
             "PDv": lambda t: make_pd(t, verbatim=True)}
    for name, make in makes.items():
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            for i in range(3):
                rho = random_mixed_hs(2, RngSeed(97, i))
                out = apply(make(t), rho, 0)
                assert abs(np.trace(out.matrix) - 1) < 1e-10
                assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-10


def test_depolarizing_choi_is_isotropic():
    for d in (2, 3):
        for p in (0.0, 0.4, 1.0):
            ch = make_depolarizing(p, d)
            bell = max_entangled(d).density_matrix()
            choi = apply(ch, bell, 1)
            np.testing.assert_allclose(choi.matrix, isotropic(p, d).matrix,
                                       atol=1e-12)


def test_depolarizing_action():
    ch = make_depolarizing(0.0, 3)
    rho = random_mixed_hs(3, RngSeed(14, 0))
    np.testing.assert_allclose(apply(ch, rho, 0).matrix, np.eye(3) / 3,
                               atol=1e-12)
    ch = make_depolarizing(1.0, 3)
    np.testing.assert_allclose(apply(ch, rho, 0).matrix, rho.matrix,
                               atol=1e-12)


def test_erasure_choi_is_erased_state():
    for k in (1.0, 2.0, 5.0):
        ch = make_erasure(k)
        bell = max_entangled(2).density_matrix()
        choi = apply(ch, bell, 1)
        assert choi.dims == (2, 3)
        np.testing.assert_allclose(choi.matrix, erased(k).matrix, atol=1e-12)


def test_apply_identity_channel():
    ident = KrausChannel((np.eye(2),))
    rho = random_mixed_hs(4, RngSeed(3, 3), dims=(2, 2))
    np.testing.assert_allclose(apply(ident, rho, 1).matrix, rho.matrix,
                               atol=1e-12)


def test_apply_dim_mismatch():
    rho = random_mixed_hs(6, RngSeed(3, 4), dims=(2, 3))
    with pytest.raises(ValueError):
        apply(make_ad(0.3), rho, 1)


def kron_reference(ops, rho, leg):
    """Sum_K K rho K^dag on one leg: permute the leg to the front, apply
    K (x) I on the rest, and permute back."""
    dims, n = list(rho.dims), len(rho.dims)
    perm = [leg] + [i for i in range(n) if i != leg]
    rest = int(np.prod(dims)) // dims[leg]
    m = rho.matrix.reshape(dims * 2).transpose(perm + [n + i for i in perm])
    m = m.reshape(dims[leg] * rest, -1)
    embed = [np.kron(k, np.eye(rest)) for k in ops]
    out = sum(e @ m @ e.conj().T for e in embed)
    moved = [ops[0].shape[0]] + [dims[i] for i in perm[1:]]
    inv = list(np.argsort(perm))
    out = out.reshape(moved * 2).transpose(inv + [n + i for i in inv])
    d = int(np.prod(moved))
    return out.reshape(d, d)


def test_apply_middle_leg_matches_kron_reference():
    rho = random_mixed_hs(8, RngSeed(3, 5), dims=(2, 2, 2))
    for ch in (make_ad(0.3), make_d(0.6)):
        out = apply(ch, rho, 1)
        assert out.dims == (2, 2, 2)
        np.testing.assert_allclose(out.matrix,
                                   kron_reference(ch.kraus_ops, rho, 1),
                                   atol=1e-12)


def test_erasure_on_non_last_leg_matches_kron_reference():
    rho = random_mixed_hs(8, RngSeed(3, 6), dims=(2, 2, 2))
    ch = make_erasure(2.5)
    for leg, dims in ((0, (3, 2, 2)), (1, (2, 3, 2))):
        out = apply(ch, rho, leg)
        assert out.dims == dims
        np.testing.assert_allclose(out.matrix,
                                   kron_reference(ch.kraus_ops, rho, leg),
                                   atol=1e-12)


def test_apply_disjoint_subsystems_commute():
    psi = max_entangled(2)
    rho = psi.density_matrix()
    ch = make_ad(0.3)
    first = apply(ch, apply(ch, rho, 0), 1)
    second = apply(ch, apply(ch, rho, 1), 0)
    np.testing.assert_allclose(first.matrix, second.matrix, atol=1e-12)


def test_d_on_both_qubits_gives_werner_correlations():
    for t in (0.2, 0.6):
        out = local_decohere(max_entangled(2), make_d, t)
        c = (1 - t) ** 2
        np.testing.assert_allclose(correlation_matrix(out),
                                   np.diag([c, -c, c]), atol=1e-12)


def test_ad_semigroup_composition():
    rho = random_mixed_hs(2, RngSeed(6, 1))
    for t1, t2 in ((0.3, 0.5), (0.9, 0.2)):
        seq = apply(make_ad(t2), apply(make_ad(t1), rho, 0), 0)
        combined = apply(make_ad(1 - (1 - t1) * (1 - t2)), rho, 0)
        np.testing.assert_allclose(seq.matrix, combined.matrix, atol=1e-12)


def test_local_decohere_endpoints():
    psi = max_entangled(2)
    np.testing.assert_allclose(local_decohere(psi, make_ad, 0.0).matrix,
                               psi.density_matrix().matrix, atol=1e-12)
    np.testing.assert_allclose(local_decohere(psi, make_d, 1.0).matrix,
                               np.eye(4) / 4, atol=1e-12)


def test_local_decohere_ad_fidelity_closed_form():
    # brute-force Kraus expansion of AD x AD on the Bell state gives
    # F(t) = (2 - t)^2 / 4 + t^2 / 4
    psi = max_entangled(2)
    for t in np.linspace(0, 1, 9):
        out = local_decohere(psi, make_ad, float(t))
        expected = ((2 - t) ** 2 + t ** 2) / 4
        assert abs(fidelity_pure(out, psi) - expected) < 1e-12


SWEEP_CHANNELS = (make_ad, make_pd, lambda t: make_pd(t, verbatim=True),
                  make_d)


def test_two_qubit_kraus_stack_matches_local_decohere():
    psi = max_entangled(2)
    ts = np.linspace(0, 1, 7)
    rho = psi.density_matrix().matrix
    for make in SWEEP_CHANNELS:
        ops = two_qubit_kraus_stack(make, ts)
        rho_t = np.einsum("tkab,bc,tkdc->tad", ops, rho, ops.conj())
        for i, t in enumerate(ts):
            np.testing.assert_allclose(
                rho_t[i], local_decohere(psi, make, float(t)).matrix,
                atol=1e-12)


def test_two_qubit_kraus_stack_equals_kron_of_pairs():
    """The stack holds exactly E_i (x) E_j, in (i, j) order, at each t."""
    ts = np.linspace(0.0, 1.0, 1000)
    for make in SWEEP_CHANNELS:
        want = []
        for t in ts:
            ops = make(t).kraus_ops
            want.append([np.kron(a, b) for a in ops for b in ops])
        np.testing.assert_array_equal(two_qubit_kraus_stack(make, ts),
                                      np.array(want))


def test_weyl_operators_are_unitary_and_distinct():
    # the protocols' Weyl unitaries are the written-out X^a Z^b, bit for
    # bit, unitary and trace-orthogonal
    for d in (2, 3, 5):
        ws = [_weyl(d, k) for k in range(d * d)]
        for k, w in enumerate(ws):
            assert w.tobytes() == weyl(d, k).tobytes()
            np.testing.assert_allclose(w @ w.conj().T, np.eye(d), atol=1e-12)
        gram = [[abs(np.trace(a.conj().T @ b)) for b in ws] for a in ws]
        np.testing.assert_allclose(gram, d * np.eye(d * d), atol=1e-12)


def test_local_decohere_takes_only_two_qubits():
    with pytest.raises(ValueError, match="two-qubit pure state"):
        local_decohere(PureState((4,), [1, 0, 0, 0]), make_ad, 0.3)
