import math
from functools import reduce

import numpy as np
import pytest

from triact.criteria import horodecki_m
from triact.protocols import (LOCAL_WEIGHT_CUTOFF, M_B0, M_B1, MAX_ERASED_K,
                              MAX_TELEPORT_D, ProtocolOutcome, bell_state,
                              build_symmetric_extension, double_teleport,
                              erased_protocol, teleport_distribution,
                              verify_locality_observation, _BELL_BRAS,
                              _erased_pair_state, _weyl)
from triact.qcore import (PSD_TOL, DensityMatrix, PureState, ValidationError,
                          fidelity_pure, partial_trace, project_and_condition,
                          tensor)
from triact.states import erased, isotropic, max_entangled

from literals import weyl


def random_pure(rng, d):
    v = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
    return PureState((d, d), v / np.linalg.norm(v))


def test_bell_state_basis_is_orthonormal():
    for d in (2, 3):
        vs = [bell_state(d, i).amplitudes for i in range(d * d)]
        gram = np.array([[np.vdot(a, b) for b in vs] for a in vs])
        np.testing.assert_allclose(gram, np.eye(d * d), atol=1e-12)


def test_bell_bra_table_read_only():
    assert list(_BELL_BRAS) == list(range(2, MAX_TELEPORT_D + 1))
    for d, bras in _BELL_BRAS.items():
        assert bras.shape == (d * d, d, d)
        with pytest.raises(ValueError):
            bras[0, 0, 0] = 1.0


def test_bell_state_equals_literal_formula():
    # (I (x) W_k)|Psi_+> as the d x d amplitude array psi W_k^T, from a
    # test-local |Psi_+>, and the bras double_teleport contracts: the
    # table row, and W_k psi read as its transpose.
    for d in (2, 3):
        psi = np.zeros((d, d), dtype=complex)
        psi[range(d), range(d)] = 1 / np.sqrt(d)
        for k in range(d * d):
            w = weyl(d, k)
            want = psi @ w.T
            got = bell_state(d, k).amplitudes
            assert got.tobytes() == want.reshape(-1).tobytes()
            assert _BELL_BRAS[d][k].tobytes() == want.conj().tobytes()
            assert (w @ psi).tobytes() == want.T.tobytes()


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


def literal_double_teleport(phi, p, d, o1, o2):
    """Reference: the full six-party network A, B1, F1, F2, B2, C, Bell
    projections on (B1, F1) and (F2, B2), then the (A, C) marginal."""
    iso = isotropic(p, d)
    full = tensor(iso, phi.density_matrix(), iso)
    psi = max_entangled(d).amplitudes.reshape(d, d)
    v1 = (psi @ weyl(d, o1).T).reshape(-1)
    v2 = (weyl(d, o2) @ psi).reshape(-1)
    proj = np.kron(np.outer(v1, v1.conj()), np.outer(v2, v2.conj()))
    prob, cond = project_and_condition(full, proj, (1, 2, 3, 4))
    return prob, partial_trace(cond, {0, 5}).matrix


def test_double_teleport_matches_literal_network():
    rng = np.random.default_rng(11)
    cases = [(2, o1, o2) for o1 in range(4) for o2 in range(4)]
    cases += [(3, 0, 0), (3, 5, 7)]
    for d, o1, o2 in cases:
        phi = random_pure(rng, d)
        p = rng.uniform()
        prob, ac = literal_double_teleport(phi, p, d, o1, o2)
        u = np.kron(weyl(d, o1), weyl(d, o2))
        out = double_teleport(phi, p, d, (o1, o2))
        assert out.outcome_labels == (o1, o2)
        assert abs(out.success_probability - prob) <= 1e-10
        got = out.conditional_state.matrix
        # the corrected branch: W_o1 (x) W_o2 applied to both sides
        for have, want in ((got, ac), (u @ got @ u.conj().T,
                                       u @ ac @ u.conj().T)):
            assert np.max(np.abs(have - want)) <= 1e-10


def test_double_teleport_noiseless():
    phi = max_entangled(2)
    out = double_teleport(phi, 1.0, 2, (0, 0))
    assert abs(out.success_probability - 1 / 16) < 1e-10
    assert abs(fidelity_pure(out.conditional_state, phi) - 1) < 1e-10


def test_double_teleport_pure_noise():
    rng = np.random.default_rng(0)
    phi = random_pure(rng, 2)
    for outcome in ((0, 0), (1, 3), (2, 1)):
        out = double_teleport(phi, 0.0, 2, outcome)
        np.testing.assert_allclose(out.conditional_state.matrix, np.eye(4) / 4,
                                   atol=1e-10)


def test_double_teleport_corrected_branches():
    rng = np.random.default_rng(3)
    phi = random_pure(rng, 2)
    for o1 in range(4):
        for o2 in range(4):
            # The teleportation correction W_o1 (x) W_o2, local to A and C.
            u = np.kron(weyl(2, o1), weyl(2, o2))
            rho = double_teleport(phi, 1.0, 2, (o1, o2)).conditional_state
            corrected = DensityMatrix((2, 2), u @ rho.matrix @ u.conj().T)
            assert abs(fidelity_pure(corrected, phi) - 1) < 1e-9


def test_double_teleport_outcomes_average_to_marginal():
    rng = np.random.default_rng(5)
    phi = random_pure(rng, 2)
    p = 0.6
    iso = isotropic(p, 2)
    full = tensor(iso, phi.density_matrix(), iso)
    marginal = partial_trace(full, {0, 5})
    acc = np.zeros((4, 4), dtype=complex)
    total = 0.0
    for o1 in range(4):
        for o2 in range(4):
            out = double_teleport(phi, p, 2, (o1, o2))
            acc += out.success_probability * out.conditional_state.matrix
            total += out.success_probability
    assert abs(total - 1) < 1e-10
    np.testing.assert_allclose(acc, marginal.matrix, atol=1e-10)


def bloch_povm(v):
    v = np.asarray(v, dtype=float)
    op = (np.eye(2) + v[0] * np.array([[0, 1], [1, 0]])
          + v[1] * np.array([[0, -1j], [1j, 0]])
          + v[2] * np.diag([1, -1])) / 2
    return [op, np.eye(2) - op]


def test_teleport_distribution_endpoints():
    phi = max_entangled(2)
    alice = bloch_povm([0, 0, 1])
    charlie = bloch_povm([1, 0, 0])
    dist = teleport_distribution(phi, 1.0, 2, alice, charlie)
    np.testing.assert_allclose(dist.joint, dist.p_phi, atol=1e-12)
    dist = teleport_distribution(phi, 0.0, 2, alice, charlie)
    np.testing.assert_allclose(dist.joint, np.full((2, 2), 0.25), atol=1e-10)
    assert dist.residual <= 1e-10


def test_teleport_distribution_local_weight_cutoff():
    # |00>'s local part is not uniform for a Z measurement on Alice, so
    # only the maximally mixed branch gives the uniform table.
    phi = PureState((2, 2), np.array([1, 0, 0, 0], dtype=complex))
    alice = bloch_povm([0, 0, 1])
    charlie = bloch_povm([1, 0, 0])
    p = np.nextafter(1.0, 0.0)
    assert 0 < 1 - p**2 <= LOCAL_WEIGHT_CUTOFF
    dist = teleport_distribution(phi, p, 2, alice, charlie)
    np.testing.assert_allclose(dist.p_loc, np.full((2, 2), 0.25), atol=1e-15)
    assert dist.residual <= 1e-10
    p = 1 - 1e-13
    assert 1 - p**2 > LOCAL_WEIGHT_CUTOFF
    dist = teleport_distribution(phi, p, 2, alice, charlie)
    assert abs(dist.p_loc.sum() - 1) <= 1e-12
    assert abs(dist.p_loc[0].sum() - 0.75) <= 1e-9
    assert dist.residual <= 1e-10


def test_teleport_distribution_rejects_bad_povm():
    with pytest.raises(ValueError):
        teleport_distribution(max_entangled(2), 0.5, 2,
                              [np.eye(2), np.eye(2)], bloch_povm([0, 0, 1]))
    with pytest.raises(ValueError, match="d x d"):
        teleport_distribution(max_entangled(2), 0.5, 2, [np.eye(3)],
                              bloch_povm([0, 0, 1]))


def test_double_teleport_checks_phi_dims():
    with pytest.raises(ValueError, match=r"phi must have dims \(3, 3\)"):
        double_teleport(max_entangled(2), 0.5, 3, (0, 0))


@pytest.mark.parametrize("scale, rejected", [(10, True), (0.1, False)])
def test_teleport_distribution_povm_psd_gate_is_psd_tol(scale, rejected):
    # both elements have lowest eigenvalue -scale * PSD_TOL and sum to I
    e = scale * PSD_TOL
    povm = [np.diag([1 + e, -e]), np.diag([-e, 1 + e])]
    args = (max_entangled(2), 0.5, 2, povm, bloch_povm([0, 0, 1]))
    if rejected:
        with pytest.raises(ValidationError, match="not PSD"):
            teleport_distribution(*args)
    else:
        teleport_distribution(*args)


def chsh_of_tables(tables):
    # tables: {(x, z): 2x2 joint table}; E = sum_ab (-1)^(a+b) P(ab|xz)
    sign = np.array([[1, -1], [-1, 1]])
    e = {k: float(np.sum(sign * v)) for k, v in tables.items()}
    return e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1]


def test_teleport_distribution_chsh_linearity():
    phi = max_entangled(2)
    s = 1 / math.sqrt(2)
    alices = [bloch_povm([1, 0, 0]), bloch_povm([0, 0, 1])]
    charlies = [bloch_povm([s, 0, s]), bloch_povm([s, 0, -s])]
    p = 0.8
    joint, p_phi, p_loc = {}, {}, {}
    for x, a in enumerate(alices):
        for z, c in enumerate(charlies):
            dist = teleport_distribution(phi, p, 2, a, c)
            assert dist.residual <= 1e-10
            joint[x, z] = dist.joint
            p_phi[x, z] = dist.p_phi
            p_loc[x, z] = dist.p_loc
    lhs = chsh_of_tables(joint)
    rhs = (p * p * chsh_of_tables(p_phi)
           + (1 - p * p) * chsh_of_tables(p_loc))
    assert abs(lhs - rhs) < 1e-9
    assert abs(chsh_of_tables(p_phi) - 2 * math.sqrt(2)) < 1e-9
    assert abs(chsh_of_tables(p_loc)) <= 2 + 1e-9


def test_erased_protocol_success_branch():
    k = 5.0
    for b in range(4):
        out = erased_protocol(k, bell_outcome=b)
        assert abs(out.success_probability - 1 / (4 * k * k)) < 1e-12
        chsh = 2 * math.sqrt(horodecki_m(out.conditional_state))
        assert abs(chsh - 2 * math.sqrt(2)) < 1e-9


def test_erased_protocol_failure_branch_is_product():
    for b_out in ((1, 0), (0, 1), (1, 1)):
        out = erased_protocol(3.0, b_outcomes=b_out)
        assert horodecki_m(out.conditional_state) < 1e-10
        expected = (1 - 1 / 3) ** sum(b_out) * (1 / 3) ** (2 - sum(b_out))
        assert abs(out.success_probability - expected) < 1e-12


def literal_erased_protocol(k, bell_outcome, b_outcomes):
    """Reference: the four-party state A, B1, B2, C conditioned on Bob's
    first step, then on the Bell projector embedded in the qubit levels
    of (B1, B2), then traced down to (A, C)."""
    full = _erased_pair_state(k)
    proj1 = np.kron(*(M_B0 if b == 0 else M_B1 for b in b_outcomes))
    prob1, cond = project_and_condition(full, proj1, (1, 2))
    if cond is None:
        return 0.0, None, b_outcomes
    if b_outcomes != (0, 0):
        return prob1, partial_trace(cond, {0, 3}).matrix, b_outcomes
    bp = bell_state(2, bell_outcome).amplitudes
    embed = np.zeros((9, 9), dtype=complex)
    idx = [r * 3 + c for r in (0, 1) for c in (0, 1)]
    embed[np.ix_(idx, idx)] = np.outer(bp, bp.conj())
    prob2, cond2 = project_and_condition(cond, embed, (1, 2))
    labels = b_outcomes + (bell_outcome,)
    if cond2 is None:
        return 0.0, None, labels
    return prob1 * prob2, partial_trace(cond2, {0, 3}).matrix, labels


def test_erased_protocol_matches_literal_network():
    for k in (1.0, 2.5, 7.5):
        for b_out in ((0, 0), (0, 1), (1, 0), (1, 1)):
            for b in range(4):
                prob, ac, labels = literal_erased_protocol(k, b, b_out)
                out = erased_protocol(k, b, b_out)
                assert out.outcome_labels == labels
                assert abs(out.success_probability - prob) <= 1e-12
                if ac is None:
                    assert out.conditional_state is None
                else:
                    dev = np.abs(out.conditional_state.matrix - ac)
                    assert np.max(dev) <= 1e-12


def test_erased_protocol_zero_marker_on_total_probability():
    # The 1e-12 marker applies to the outcome's total probability: the
    # success branch, 1/(4k^2), keeps its state just below MAX_ERASED_K
    # and loses it from there on.
    k = 0.999 * MAX_ERASED_K
    below = erased_protocol(k, 2)
    assert below.conditional_state is not None
    assert abs(below.success_probability * 4 * k * k - 1) < 1e-9
    assert erased_protocol(MAX_ERASED_K, 2) == ProtocolOutcome(0.0, None,
                                                               (0, 0, 2))


def test_erased_protocol_outcome_tree_sums_to_one():
    k = 4.0
    total = 0.0
    for b1 in (0, 1):
        for b2 in (0, 1):
            if (b1, b2) == (0, 0):
                total += sum(erased_protocol(k, b, (0, 0)).success_probability
                             for b in range(4))
            else:
                total += erased_protocol(k, 0, (b1, b2)).success_probability
    assert abs(total - 1) < 1e-10


def test_symmetric_extension_equals_literal_sum():
    # (1/k) sum_i |psi_i><psi_i|, psi_i = (|0>|0>_i + |1>|1>_i)/sqrt(2)
    # with |2> on the other B's, each term an outer product of full vectors.
    basis = np.eye(3)
    for k in (2, 3, 4):
        total = 2 * 3**k
        want = np.zeros((total, total), dtype=complex)
        for i in range(k):
            psi = np.zeros(total, dtype=complex)
            for q in (0, 1):
                legs = [basis[q] if j == i else basis[2] for j in range(k)]
                psi += reduce(np.kron, [basis[q][:2]] + legs) / np.sqrt(2)
            want += np.outer(psi, psi.conj()) / k
        got = build_symmetric_extension(k).matrix
        assert got.tobytes() == want.tobytes(), k


def test_symmetric_extension_permutation_invariant():
    ext = build_symmetric_extension(3)
    t = ext.matrix.reshape((2, 3, 3, 3) * 2)
    # swap B1 and B2 on both row and column legs
    swapped = t.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(54, 54)
    np.testing.assert_allclose(swapped, ext.matrix, atol=1e-12)


def test_verify_locality_observation_erased_parent():
    # Bell-projecting Bob's two qutrits certifies the erased pair nonlocal
    full = _erased_pair_state(3.0)
    bp = bell_state(2, 0).amplitudes
    embed = np.zeros((9, 9), dtype=complex)
    idx = [r * 3 + c for r in (0, 1) for c in (0, 1)]
    embed[np.ix_(idx, idx)] = np.outer(bp, bp.conj())
    assert verify_locality_observation(full, embed, (1, 2), {0, 3})


def test_verify_locality_observation_trivial_cases():
    maxmix = DensityMatrix((2, 2), np.eye(4) / 4)
    assert not verify_locality_observation(maxmix, np.eye(2), [0], {0, 1})
    out = double_teleport(max_entangled(2), 0.95, 2, (0, 0))
    assert horodecki_m(out.conditional_state) > 1  # 0.95^2 * 2sqrt2 > 2


def test_verify_locality_observation_zero_outcome_and_bad_cut():
    # C sits in |0>, so its |1><1| outcome has probability 0: inconclusive
    zero = DensityMatrix((2,), np.diag([1.0, 0.0]))
    one = np.diag([0.0, 1.0])
    rho = tensor(max_entangled(2).density_matrix(), zero)
    assert project_and_condition(rho, one, [2]) == (0.0, None)
    assert verify_locality_observation(rho, one, [2], {0, 1}) is False
    # a qubit-qutrit cut has no CHSH test
    rho = tensor(erased(3.0), zero)
    with pytest.raises(ValueError, match="two qubits"):
        verify_locality_observation(rho, np.diag([1.0, 0.0]), [2], {0, 1})
