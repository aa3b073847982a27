import dataclasses

import numpy as np
import pytest

from triact import criteria, harness
from triact.channels import local_decohere, two_qubit_kraus_stack
from triact.criteria import (TIE_TOLERANCE, Classification, classify,
                             classify_batch, correlation_matrix,
                             hashing_criterion, horodecki_m, maximize_chsh)
from triact.harness import CHANNELS, ExperimentConfig, _sweep_chunk
from triact.protocols import verify_locality_observation
from triact.qcore import PAULI_BASIS, DensityMatrix, tensor
from triact.states import (RngSeed, isotropic, max_entangled, random_mixed_hs,
                           random_pure_fs)

from literals import haar_unitary

MAXMIX = DensityMatrix((2, 2), np.eye(4) / 4)
BELL = max_entangled(2).density_matrix()
# sigma_i (x) sigma_j stacked as a (9, 4, 4) array, row-major in (i, j):
# the independent reference for the package's one rho -> T kernel.
PAULI_KRON = np.array([np.kron(a, b) for a in PAULI_BASIS[1:]
                       for b in PAULI_BASIS[1:]])


def mixed(i, seed=31):
    return random_mixed_hs(4, RngSeed(seed, i), dims=(2, 2))


def chsh_value(rho, a, a2, b, b2):
    """CHSH combination E(a,b) + E(a,b') + E(a',b) - E(a',b') for explicit
    Bloch measurement directions, with E(a,b) = a^T T b: the reference
    that `maximize_chsh`'s settings are checked against."""
    vecs = [np.asarray(v, dtype=float) for v in (a, a2, b, b2)]
    for v in vecs:
        if v.shape != (3,) or not abs(np.linalg.norm(v) - 1) <= 1e-10:
            raise ValueError("measurement settings must be unit 3-vectors")
    a, a2, b, b2 = vecs
    t = correlation_matrix(rho)
    return float(a @ t @ b + a @ t @ b2 + a2 @ t @ b - a2 @ t @ b2)


def test_correlation_matrix_cases():
    np.testing.assert_allclose(correlation_matrix(MAXMIX), np.zeros((3, 3)),
                               atol=1e-12)
    np.testing.assert_allclose(correlation_matrix(BELL),
                               np.diag([1.0, -1.0, 1.0]), atol=1e-12)
    for p in (0.2, 0.7):
        np.testing.assert_allclose(correlation_matrix(isotropic(p, 2)),
                                   np.diag([p, -p, p]), atol=1e-12)


def test_correlation_matrix_rejects_wrong_dims():
    with pytest.raises(ValueError):
        correlation_matrix(DensityMatrix((4,), np.eye(4) / 4))


def einsum_correlation_matrix(rho):
    """T by its defining formula, Tr[rho (sigma_i (x) sigma_j)]."""
    return np.einsum("kab,ba->k", PAULI_KRON, rho.matrix).real.reshape(3, 3)


def test_correlation_matrix_bit_identical_to_einsum():
    # The first 4096 census states (seed 0), and FS states decohered by
    # each channel along an 11-point t grid.
    states = [random_mixed_hs(4, RngSeed(0, i), dims=(2, 2))
              for i in range(4096)]
    for i in range(20):
        psi = random_pure_fs(4, RngSeed(3, i), dims=(2, 2))
        for make in CHANNELS.values():
            states += [local_decohere(psi, make, float(t))
                       for t in np.linspace(0.0, 1.0, 11)]
    for rho in states:
        assert (correlation_matrix(rho).tobytes()
                == einsum_correlation_matrix(rho).tobytes())


def test_classify_fields_are_python_float_and_bool():
    for rho in (BELL, MAXMIX, mixed(0), isotropic(0.8, 2)):
        c = classify(rho)
        for field in dataclasses.fields(Classification):
            kind = bool if field.type == "bool" else float
            assert type(getattr(c, field.name)) is kind, field.name


def bell_diagonal(m):
    """The isotropic state whose M is ``m``: T = diag(p, -p, p) with
    2 p^2 = m."""
    return isotropic(np.sqrt(m / 2), 2)


def test_violation_rule_at_its_boundary():
    """Within TIE_TOLERANCE above M = 1 every path calls the state
    non-violating; past it every path calls it violating.  The state is
    also read through `verify_locality_observation`, as the A-B pair of
    rho (x) |0><0|_C conditioned on C's |0><0|."""
    keep = np.diag([1.0, 0.0]).astype(complex)
    for m, violates in ((1 + TIE_TOLERANCE / 2, False),
                        (1 + 2 * TIE_TOLERANCE, True)):
        rho = bell_diagonal(m)
        c = classify(rho)
        assert c.m_value == pytest.approx(m, rel=0, abs=1e-14)
        assert c.violates_chsh is violates
        assert classify_batch(rho.matrix[None])["violates_chsh"][0] == violates
        full = tensor(rho, DensityMatrix((2,), keep))
        assert verify_locality_observation(full, keep, [2], {0, 1}) is violates


def test_horodecki_m_cases():
    assert abs(horodecki_m(MAXMIX)) < 1e-12
    assert abs(horodecki_m(BELL) - 2) < 1e-12
    for p in (0.3, 1 / np.sqrt(2), 0.9):
        assert abs(horodecki_m(isotropic(p, 2)) - 2 * p * p) < 1e-12
    # violation iff p > 1/sqrt(2)
    assert not classify(isotropic(1 / np.sqrt(2) - 1e-3, 2)).violates_chsh
    assert classify(isotropic(1 / np.sqrt(2) + 1e-3, 2)).violates_chsh


def test_hashing_criterion_cases():
    s_a, s_b, s_ab, dist = hashing_criterion(BELL)
    assert (round(s_a, 9), round(s_b, 9), round(s_ab, 9), dist) == (1, 1, 0, True)
    s_a, s_b, s_ab, dist = hashing_criterion(MAXMIX)
    assert (round(s_a, 9), round(s_b, 9), round(s_ab, 9), dist) == (1, 1, 2, False)


def iso_entropy(p):
    w = np.array([(1 + 3 * p) / 4, (1 - p) / 4, (1 - p) / 4, (1 - p) / 4])
    w = w[w > 0]
    return -np.sum(w * np.log2(w))


def test_hashing_threshold_matches_bisection_oracle():
    # independent oracle: bisect max-marginal entropy (=1) against the
    # analytic global entropy of the isotropic state
    lo, hi = 0.5, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if iso_entropy(mid) > 1:
            lo = mid
        else:
            hi = mid
    p_star = (lo + hi) / 2
    eps = 1e-6
    assert not hashing_criterion(isotropic(p_star - eps, 2))[3]
    assert hashing_criterion(isotropic(p_star + eps, 2))[3]


def test_hashing_rejects_non_two_party_state():
    with pytest.raises(ValueError, match="two-party"):
        hashing_criterion(DensityMatrix((2, 2, 2), np.eye(8) / 8))


def test_hashing_symmetric_under_swap():
    rho = mixed(3)
    swap = rho.matrix.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    s_a, s_b, s_ab, _ = hashing_criterion(rho)
    s_a2, s_b2, s_ab2, _ = hashing_criterion(DensityMatrix((2, 2), swap))
    assert abs(s_a - s_b2) < 1e-10 and abs(s_b - s_a2) < 1e-10
    assert abs(s_ab - s_ab2) < 1e-10


def test_classify_ignores_residue_the_hermiticity_gate_accepts():
    # Within HERMITICITY_TOL of I/4; its sigma_x (x) sigma_x expectation
    # carries an imaginary residue of 2e-10.
    m = np.eye(4, dtype=complex) / 4
    for i, j in ((0, 3), (3, 0), (1, 2), (2, 1)):
        m[i, j] += 0.5e-10j
    rho = DensityMatrix((2, 2), m)
    c = classify(rho)
    row = classify_batch(rho.matrix[None])
    for name, col in row.items():
        assert getattr(c, name) == pytest.approx(col[0], abs=1e-12), name


def test_classify_flag_consistency():
    for i in range(100):
        c = classify(mixed(i))
        assert c.violates_chsh == (c.m_value > 1 + TIE_TOLERANCE)
        assert c.hashing_distillable == (max(c.s_a, c.s_b) - c.s_ab > TIE_TOLERANCE)
        assert c.nonlocal_resource == ((not c.violates_chsh)
                                       and c.hashing_distillable)
        assert abs(c.chsh_max - 2 * np.sqrt(c.m_value)) < 1e-12


def test_classify_reference_states():
    c = classify(BELL)
    assert c.violates_chsh and not c.nonlocal_resource
    c = classify(MAXMIX)
    assert not (c.violates_chsh or c.hashing_distillable or c.nonlocal_resource)


def test_classify_batch_matches_scalar():
    mats = np.stack([mixed(i).matrix for i in range(50)])
    batch = classify_batch(mats)
    for i in range(50):
        c = classify(mixed(i))
        assert abs(batch["m_value"][i] - c.m_value) < 1e-12
        assert abs(batch["s_ab"][i] - c.s_ab) < 1e-10
        assert bool(batch["nonlocal_resource"][i]) == c.nonlocal_resource
        assert bool(batch["violates_chsh"][i]) == c.violates_chsh


def einsum_classify_batch(mats):
    """classify_batch by its defining formulas: T by the PAULI_KRON
    einsum, the marginals by np.trace, one eigvalsh call per entropy."""
    n = mats.shape[0]
    corr = np.einsum("kab,nba->nk", PAULI_KRON, mats).real.reshape(n, 3, 3)
    w = np.linalg.eigvalsh(np.einsum("nji,njk->nik", corr, corr))
    m = w[:, -1] + w[:, -2]

    def entropy(stack):
        ev = np.clip(np.linalg.eigvalsh(stack), 0.0, None)
        return -np.sum(ev * np.log2(np.where(ev > 1e-14, ev, 1.0)), axis=-1)

    t = mats.reshape(n, 2, 2, 2, 2)
    s_a = entropy(np.trace(t, axis1=2, axis2=4))
    s_b = entropy(np.trace(t, axis1=1, axis2=3))
    s_ab = entropy(mats)
    violates = m > 1 + TIE_TOLERANCE
    distillable = np.maximum(s_a, s_b) - s_ab > TIE_TOLERANCE
    return {"m_value": m, "chsh_max": 2 * np.sqrt(np.clip(m, 0.0, None)),
            "s_a": s_a, "s_b": s_b, "s_ab": s_ab, "violates_chsh": violates,
            "hashing_distillable": distillable,
            "nonlocal_resource": ~violates & distillable}


def assert_classify_batch_bit_identical(mats):
    got, want = classify_batch(mats), einsum_classify_batch(mats)
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)
        np.testing.assert_array_equal(np.signbit(got[key]),
                                      np.signbit(want[key]), err_msg=key)


def test_classify_batch_bit_identical_on_census_chunks():
    # From the seed-0 stream: the first 4096 states and the last 1696 of
    # a 100k census, then a full census chunk and the short last chunk of
    # a 100k census; then a single matrix.
    last = list(harness._chunks(100_000, harness.CHUNK_SIZE))[-1]
    assert len(last) < harness.CHUNK_SIZE
    for idx in (range(4096), range(98304, 100000),
                range(harness.CHUNK_SIZE), last):
        assert_classify_batch_bit_identical(np.stack([
            random_mixed_hs(4, RngSeed(0, i), dims=(2, 2)).matrix
            for i in idx]))
    assert_classify_batch_bit_identical(mixed(0).matrix[None])


def test_classify_batch_bit_identical_on_sweep_states(monkeypatch):
    # The Kraus sums of three seed-0 states on the 1000-step grid, and
    # the stacks the sweep's per-t superoperators give for them.
    ts = np.linspace(0.0, 1.0, 1000)
    swept = []

    def recording(mats):
        swept.append(mats)
        return classify_batch(mats)

    with monkeypatch.context() as m:
        m.setattr(criteria, "classify_batch", recording)
        for channel in CHANNELS:
            _sweep_chunk(0, range(3), channel, ts)
    for make in CHANNELS.values():
        ops = two_qubit_kraus_stack(make, ts)
        for i in range(3):
            psi = random_pure_fs(4, RngSeed(0, i), dims=(2, 2)).amplitudes
            v = np.einsum("tkab,b->tka", ops, psi)
            assert_classify_batch_bit_identical(
                v.transpose(0, 2, 1) @ v.conj())
    assert len(swept) == 3 * len(CHANNELS)
    for mats in swept:
        assert_classify_batch_bit_identical(mats)


def test_t_kernel_reads_strided_matrices():
    # A view with a non-contiguous last axis: the float view of the
    # flattened stack needs a copy first.
    mats = np.stack([mixed(i).matrix for i in range(3)])
    wide = np.zeros((3, 4, 8), dtype=complex)
    wide[:, :, ::2] = mats
    got, want = classify_batch(wide[:, :, ::2]), classify_batch(mats)
    for key in want:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)
    rho = DensityMatrix((2, 2), wide[0, :, ::2])
    assert (correlation_matrix(rho).tobytes()
            == correlation_matrix(mixed(0)).tobytes())


def test_classify_batch_requires_stack_of_4x4():
    for shape in ((4, 4), (3, 3, 3), (2, 4, 4, 1), (2, 4, 2)):
        with pytest.raises(ValueError, match=r"\(n, 4, 4\) stack"):
            classify_batch(np.zeros(shape))


def spectra_batches(monkeypatch):
    """The (mats, spectra) pairs the harness hands `classify_batch`: a
    census chunk of the first 4096 states and one full census chunk,
    then the verify batch and the iso-curve's 201 conditional states;
    batches without spectra are left out."""
    calls = []

    def recording(mats, spectra=None):
        if spectra is not None:
            calls.append((mats, spectra))
        return classify_batch(mats, spectra)

    with monkeypatch.context() as m:
        m.setattr(criteria, "classify_batch", recording)
        harness._census_chunk(0, range(4096))
        harness._census_chunk(0, range(harness.CHUNK_SIZE))
        harness.run_protocol_verify(ExperimentConfig(experiment="protocol_verify"))
        harness.run_iso_curve(ExperimentConfig(experiment="iso_curve"))
    assert ([len(mats) for mats, _ in calls]
            == [4096, harness.CHUNK_SIZE, 15, 201])
    return calls


def test_classify_batch_with_spectra_is_bit_identical(monkeypatch):
    # The states' own spectra are np.linalg.eigvalsh of the stack bit for
    # bit, so every field keeps its bytes.
    for mats, spectra in spectra_batches(monkeypatch):
        assert spectra.tobytes() == np.linalg.eigvalsh(mats).tobytes()
        got, want = classify_batch(mats, spectra), classify_batch(mats)
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].dtype == want[key].dtype, key
            assert got[key].tobytes() == want[key].tobytes(), key


def test_classify_batch_rejects_misshapen_spectra():
    mats = np.stack([mixed(i).matrix for i in range(3)])
    for shape in ((3, 3), (2, 4), (12,), (3, 4, 1)):
        with pytest.raises(ValueError, match=r"^spectra must be an \(3, 4\)"):
            classify_batch(mats, np.zeros(shape))


def test_census_classifies_with_two_eigensolves(monkeypatch):
    # T^T T and the stacked marginals; S_AB reads the sampled states'
    # spectra, and the samplers' PSD gate does not go through np.linalg.
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    harness._census_chunk(0, range(64))
    assert calls == [(64, 3, 3), (2, 64, 2, 2)]


def test_chsh_value_bell_optimal_settings():
    s = 1 / np.sqrt(2)
    val = chsh_value(BELL, (1, 0, 0), (0, 0, 1),
                     (s, 0, s), (s, 0, -s))
    assert abs(val - 2 * np.sqrt(2)) < 1e-12


def test_chsh_value_degenerate_settings():
    for i in range(10):
        rho = mixed(i, seed=77)
        a = np.array([0.0, 0.0, 1.0])
        val = chsh_value(rho, a, a, a, a)
        t = correlation_matrix(rho)
        assert abs(val - 2 * (a @ t @ a)) < 1e-12
        assert abs(val) <= 2 + 1e-9


def test_chsh_value_rejects_non_unit_vectors():
    with pytest.raises(ValueError):
        chsh_value(BELL, (1, 1, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0))
    with pytest.raises(ValueError):
        chsh_value(BELL, (np.nan, 0, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0))


def test_chsh_value_never_exceeds_tsirelson_form():
    for i in range(20):
        rho = mixed(i, seed=13)
        bound = 2 * np.sqrt(horodecki_m(rho))
        rng = np.random.default_rng(i)
        for _ in range(5):
            vs = rng.standard_normal((4, 3))
            vs /= np.linalg.norm(vs, axis=1, keepdims=True)
            assert abs(chsh_value(rho, *vs)) <= bound + 1e-9


def test_maximize_chsh_matches_horodecki():
    for i in range(40):
        rho = mixed(i, seed=55)
        val, settings = maximize_chsh(rho)
        target = 2 * np.sqrt(horodecki_m(rho))
        assert abs(val - target) < 1e-5
        assert val <= target + 1e-9
        # the returned settings actually achieve the value
        assert abs(chsh_value(rho, *settings) - val) < 1e-9


def test_horodecki_local_unitary_invariance():
    rng = np.random.default_rng(4)
    for i in range(20):
        rho = mixed(i, seed=19)
        u = np.kron(haar_unitary(rng), haar_unitary(rng))
        rotated = DensityMatrix((2, 2), u @ rho.matrix @ u.conj().T)
        assert abs(horodecki_m(rho) - horodecki_m(rotated)) < 1e-9
    # classify_batch: every float field is invariant under U (x) V, and
    # each flag wherever its quantity is clear of the 1 and 0 boundaries
    mats = np.stack([mixed(i, seed=23).matrix for i in range(200)])
    us = [np.kron(haar_unitary(rng), haar_unitary(rng))
          for _ in range(len(mats))]
    got = classify_batch(mats)
    rot = classify_batch(np.stack([u @ m @ u.conj().T
                                   for u, m in zip(us, mats)]))
    for field in ("m_value", "chsh_max", "s_a", "s_b", "s_ab"):
        np.testing.assert_allclose(rot[field], got[field], rtol=0,
                                   atol=1e-12)
    m_clear = np.abs(got["m_value"] - 1) > 1e-6
    margin = np.maximum(got["s_a"], got["s_b"]) - got["s_ab"]
    margin_clear = np.abs(margin) > 1e-6
    for flag, clear in (("violates_chsh", m_clear),
                        ("hashing_distillable", margin_clear),
                        ("nonlocal_resource", m_clear & margin_clear)):
        np.testing.assert_array_equal(rot[flag][clear], got[flag][clear])
