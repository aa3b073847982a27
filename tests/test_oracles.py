"""Oracles independent of the code they check: the sampler against the
known Hilbert-Schmidt separability probability, the criteria against
the Peres condition, and the decoherence sweeps against properties every
local channel must have.  The partial transpose is computed here, not
through `criteria`, and the sweeps evolve each state with
`local_decohere`, not with the harness's Kraus stack; the harness's
sweep flags are checked against its sweep of locally rotated states,
and the matrices its per-t superoperators give against the Kraus sums
of the stack.
Every written census, sweep and iso-curve record is checked against the
scalar `classify` (the sweep's on states evolved by `local_decohere`),
and the literal measurement in `double_teleport` and the closed form
`eq2_mixture` are each shown to run without the other's code."""

import dataclasses
import json
import math

import numpy as np
import pytest

from triact import channels, criteria, harness, protocols
from triact.channels import (local_decohere, make_ad, make_d, make_pd,
                             two_qubit_kraus_stack)
from triact.criteria import classify, classify_batch, horodecki_m
from triact.harness import (ExperimentConfig, run_census,
                            run_decoherence_sweep, run_iso_curve)
from triact.protocols import double_teleport, eq2_mixture
from triact.qcore import PureState
from triact.states import (RngSeed, _isotropic_matrix, isotropic,
                           max_entangled, random_mixed_hs, random_pure_fs)

from literals import haar_unitary

N_STATES = 20000
SWEEP_STATES = 7
SWEEP_TS = np.linspace(0.0, 1.0, 201)


def disabled(*args, **kwargs):
    """Stands in for code that the check of an oracle must not reach."""
    raise AssertionError("a check reached into the code it checks")


@pytest.fixture(scope="module")
def hs_states():
    """The first N_STATES states of the census stream (seed 0)."""
    return np.array([random_mixed_hs(4, RngSeed(0, i), dims=(2, 2)).matrix
                     for i in range(N_STATES)])


def is_ppt(mats):
    """True where the partial transpose on B of each (n, 4, 4) two-qubit
    matrix has no negative eigenvalue."""
    t_b = mats.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2)
    return np.linalg.eigvalsh(t_b.reshape(-1, 4, 4))[:, 0] >= 0


def test_hs_ppt_share_is_8_over_33(hs_states):
    # Two-qubit HS-random states are PPT (= separable) with probability
    # 8/33: Lovas and Andai, J. Phys. A 50, 295303 (2017).
    share = is_ppt(hs_states).mean()
    se = np.sqrt(share * (1 - share) / N_STATES)
    assert abs(share - 8 / 33) < 4 * se


def test_nonlocal_resources_are_npt(hs_states):
    # Peres, PRL 77, 1413 (1996): a PPT state is not distillable, and a
    # CHSH violation implies distillability for two qubits, so neither
    # criterion may fire on a PPT state.
    cls = classify_batch(hs_states)
    flagged = cls["violates_chsh"] | cls["hashing_distillable"]
    assert flagged.any()
    assert not np.any(flagged & is_ppt(hs_states))


@pytest.fixture(scope="module")
def sweeps():
    """classify_batch columns, shaped (state, t), of the first
    SWEEP_STATES FS-random states of the sweep stream (seed 0) on
    SWEEP_TS.  "PD_folded" is PD at 1 - |2t - 1|."""
    psis = [random_pure_fs(4, RngSeed(0, i), dims=(2, 2))
            for i in range(SWEEP_STATES)]
    runs = {"AD": (make_ad, SWEEP_TS), "PD": (make_pd, SWEEP_TS),
            "D": (make_d, SWEEP_TS),
            "PD_verbatim": (lambda t: make_pd(t, verbatim=True), SWEEP_TS),
            "PD_folded": (make_pd, 1 - np.abs(2 * SWEEP_TS - 1))}
    out = {}
    for name, (make, ts) in runs.items():
        mats = np.array([local_decohere(psi, make, t).matrix
                         for psi in psis for t in ts])
        out[name] = {key: col.reshape(SWEEP_STATES, len(ts))
                     for key, col in classify_batch(mats).items()}
    return out


def test_sweep_chsh_violation_never_grows(sweeps):
    # AD, PD and D compose multiplicatively in 1 - t, and a local channel
    # cannot raise the maximal CHSH value, so max(M, 1) cannot rise along
    # t.  Below 1, M itself does rise along AD.
    for channel in ("AD", "PD", "D"):
        m = np.maximum(sweeps[channel]["m_value"], 1.0)
        assert np.max(np.diff(m, axis=1)) <= 1e-12, channel


def test_sweep_hashing_margin_never_grows_under_unital_channels(sweeps):
    # A unital channel on one side cannot lower the conditional entropies
    # S(A|B) and S(B|A).  AD is not unital, and there the margin rises.
    for channel in ("PD", "D"):
        cols = sweeps[channel]
        margin = np.maximum(cols["s_a"], cols["s_b"]) - cols["s_ab"]
        assert np.max(np.diff(margin, axis=1)) <= 1e-12, channel


def test_sweep_flags_change_at_most_once(sweeps):
    for channel in ("AD", "PD", "D"):
        for flag in ("violates_chsh", "hashing_distillable"):
            changes = np.diff(sweeps[channel][flag].astype(int), axis=1)
            assert np.max(np.sum(changes != 0, axis=1)) <= 1, (channel, flag)


def test_pd_verbatim_is_pd_at_folded_strength(sweeps):
    # Verbatim PD scales the coherences by 2t - 1, PD by 1 - t': equal
    # magnitudes at t' = 1 - |2t - 1|, and the sign is a local Z on both
    # qubits, which leaves M and every entropy unchanged.
    for key in ("m_value", "s_a", "s_b", "s_ab"):
        dev = np.abs(sweeps["PD_verbatim"][key] - sweeps["PD_folded"][key])
        assert np.max(dev) <= 1e-12, key


def z_phases(rng):
    """e^{i a Z} (x) e^{i b Z} for uniform a, b."""
    a, b = rng.uniform(0, 2 * np.pi, 2)
    return np.kron(np.diag(np.exp([1j * a, -1j * a])),
                   np.diag(np.exp([1j * b, -1j * b])))


X_FLIPS = np.kron([[0, 1], [1, 0]], [[0, 1], [1, 0]]).astype(complex)

# Each channel with a draw of local unitaries it commutes with: D with
# every unitary, AD and PD with z-rotations, PD also with an X flip.
COVARIANT = {
    "D-haar": ("D", lambda rng: np.kron(haar_unitary(rng),
                                        haar_unitary(rng))),
    "AD-z": ("AD", z_phases),
    "PD-z": ("PD", z_phases),
    "PD-x-flip": ("PD", lambda rng: X_FLIPS @ z_phases(rng)),
    "PD_verbatim-z": ("PD_verbatim", z_phases),
}


@pytest.mark.parametrize("channel, draw", COVARIANT.values(),
                         ids=COVARIANT.keys())
def test_sweep_flags_invariant_under_local_unitaries(monkeypatch, channel,
                                                     draw):
    """If the channel commutes with U (x) V, the rotated state evolves
    into the rotation of the unrotated state's evolution, and the
    classification is invariant under local unitaries: `_sweep_chunk`
    gives the same flags when each drawn state is rotated, except within
    1e-6 of the CHSH or hashing boundary of the unrotated state."""
    indices = range(40)
    cols = []

    def recording(mats):
        cols.append(classify_batch(mats))
        return cols[-1]

    with monkeypatch.context() as m:
        m.setattr(criteria, "classify_batch", recording)
        want = harness._sweep_chunk(0, indices, channel, SWEEP_TS)
    rng = np.random.default_rng(11)
    drawn = harness.random_pure_fs

    def rotated(*args, **kwargs):
        psi = drawn(*args, **kwargs)
        return PureState(psi.dims, draw(rng) @ psi.amplitudes)

    monkeypatch.setattr(harness, "random_pure_fs", rotated)
    got = harness._sweep_chunk(0, indices, channel, SWEEP_TS)
    m_value = np.stack([c["m_value"] for c in cols])
    margin = np.stack([np.maximum(c["s_a"], c["s_b"]) - c["s_ab"]
                       for c in cols])
    clear = (np.abs(m_value - 1) >= 1e-6) & (np.abs(margin) >= 1e-6)
    assert want.any() and clear.mean() > 0.9
    np.testing.assert_array_equal(got[clear], want[clear])


@pytest.mark.parametrize("channel", harness.CHANNELS)
def test_sweep_superoperators_give_the_kraus_sums(monkeypatch, channel):
    """Each stack `_sweep_chunk` hands `classify_batch` is
    sum_k (E_k psi)(E_k psi)^dag over the `two_qubit_kraus_stack`
    operators of its drawn state, on the paper's 1000-step grid, and its
    flags are those of the Kraus sums except within 1e-6 of the CHSH or
    hashing boundary.  The sweep calls neither `local_decohere` nor
    `classify`."""
    ts = np.linspace(0.0, 1.0, 1000)
    stacks = []

    def recording(mats):
        stacks.append(mats)
        return classify_batch(mats)

    with monkeypatch.context() as m:
        m.setattr(criteria, "classify_batch", recording)
        m.setattr(channels, "local_decohere", disabled)
        m.setattr(criteria, "classify", disabled)
        got = harness._sweep_chunk(0, range(10), channel, ts)
    ops = two_qubit_kraus_stack(harness.CHANNELS[channel], ts)
    assert len(stacks) == 10
    for i, mats in enumerate(stacks):
        psi = random_pure_fs(4, RngSeed(0, i), dims=(2, 2)).amplitudes
        v = ops @ psi
        want = np.einsum("tka,tkb->tab", v, v.conj())
        np.testing.assert_allclose(mats, want, rtol=0, atol=1e-14)
        cls = classify_batch(want)
        margin = np.maximum(cls["s_a"], cls["s_b"]) - cls["s_ab"]
        clear = ((np.abs(cls["m_value"] - 1) > 1e-6)
                 & (np.abs(margin) > 1e-6))
        np.testing.assert_array_equal(got[i][clear],
                                      cls["nonlocal_resource"][clear])


def test_isotropic_matrix_is_the_validated_matrix():
    for d in (2, 3):
        for p in (0.0, 0.3, 2 ** -0.25, 1.0):
            assert (_isotropic_matrix(p, d).tobytes()
                    == isotropic(p, d).matrix.tobytes())


# M <= 2 and CHSH <= 2 sqrt(2).  The batch path forms T^T T by an einsum,
# `horodecki_m` by a matrix product, so the two agree to rounding only.
RECORD_TOL = 8 * np.finfo(float).eps  # 8 ulps of 1.0


def test_census_records_equal_the_scalar_path(monkeypatch, tmp_path):
    """Every written census record of 2000 states has the flags and
    entropies `classify` gives its state, exactly, and its M and CHSH
    within RECORD_TOL.  The runner then runs with `classify` and
    `horodecki_m` disabled, so the batch path cannot lean on the oracle
    it is checked against."""
    want = [dataclasses.asdict(classify(random_mixed_hs(
        4, RngSeed(0, i), dims=(2, 2)))) for i in range(2000)]
    assert any(w["nonlocal_resource"] for w in want)  # the rarest flag

    monkeypatch.setattr(criteria, "classify", disabled)
    monkeypatch.setattr(criteria, "horodecki_m", disabled)
    path = tmp_path / "census.json"
    run_census(ExperimentConfig(n_states=len(want), seed=0,
                                output_path=str(path), output_format="json"))
    records = json.loads(path.read_text())["records"]
    assert len(records) == len(want)
    for i, (got, w) in enumerate(zip(records, want)):
        assert got.pop("state_index") == i
        for key in ("m_value", "chsh_max"):
            assert abs(got.pop(key) - w.pop(key)) <= RECORD_TOL
        assert got == w


def test_sweep_trajectory_matches_batch_sweep(tmp_path):
    """Every written sweep record agrees with the flags of its state
    decohered by `channels.local_decohere` and classified by
    `criteria.classify` at each grid point."""
    path = tmp_path / "s.json"
    seen = set()
    for channel in ("AD", "PD", "PD_verbatim", "D"):
        cfg = ExperimentConfig(experiment="decoherence_sweep", n_states=4,
                               n_time_steps=25, channel=channel, seed=9,
                               output_path=str(path), output_format="json")
        run_decoherence_sweep(cfg)
        records = json.loads(path.read_text())["records"]
        assert len(records) == cfg.n_states
        ts = np.linspace(0.0, 1.0, cfg.n_time_steps)
        for i, rec in enumerate(records):
            psi = random_pure_fs(4, RngSeed(cfg.seed, i), dims=(2, 2))
            hits = np.flatnonzero([
                criteria.classify(channels.local_decohere(
                    psi, harness.CHANNELS[channel], float(t))
                ).nonlocal_resource for t in ts])
            assert rec["state_index"] == i
            assert rec["n_nlr_steps"] == hits.size
            if hits.size:
                assert rec["t_start"] == ts[hits[0]]
                assert rec["t_end"] == ts[hits[-1]]
                multi = hits.size != hits[-1] - hits[0] + 1
                assert rec["multi_interval"] == multi
                seen.add("multi" if multi else "single")
            else:
                assert rec["t_start"] is None and rec["t_end"] is None
                seen.add("never")
    # the sample covers each kind of record
    assert seen == {"single", "multi", "never"}


def test_iso_curve_equals_the_scalar_path(monkeypatch, tmp_path):
    """Every written iso-curve record equals the scalar path exactly, and
    the crossing is the first grid p whose conditional state `classify`
    calls violating.  The runner then runs with `classify` and
    `horodecki_m` disabled, so the batch path cannot lean on the oracle
    it is checked against."""
    phi = max_entangled(2)
    want, violating = [], []
    for p in np.linspace(0.0, 1.0, 201):
        cls = classify(isotropic(p, 2))
        cond = double_teleport(phi, float(p), 2, (0, 0)).conditional_state
        want.append({"p": float(p), "m_value": cls.m_value,
                     "chsh_max": cls.chsh_max,
                     "hashing_margin": max(cls.s_a, cls.s_b) - cls.s_ab,
                     "activated_chsh": 2 * math.sqrt(horodecki_m(cond))})
        if classify(cond).violates_chsh:
            violating.append(float(p))

    monkeypatch.setattr(criteria, "classify", disabled)
    monkeypatch.setattr(criteria, "horodecki_m", disabled)
    path = tmp_path / "iso.json"
    summary = run_iso_curve(ExperimentConfig(
        experiment="iso_curve", output_path=str(path), output_format="json"))
    assert json.loads(path.read_text())["records"] == want
    assert summary == {"activated_crossing_p": violating[0]}


def test_teleport_kernel_and_eq2_closed_form_share_no_code(monkeypatch):
    """`eq2_mixture` runs with the teleport kernel's contraction and Bell
    bra table disabled, and `double_teleport` with the closed form
    disabled; each gives the same bits as with nothing disabled."""
    rng = np.random.default_rng(8)
    cases = []
    for d in (2, 3):
        v = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
        phi = PureState((d, d), v / np.linalg.norm(v))
        p = float(rng.uniform())
        cases.append((phi, p, d,
                      eq2_mixture(phi, p, d).matrix.tobytes(),
                      double_teleport(phi, p, d, (0, 0))
                      .conditional_state.matrix.tobytes()))

    class Disabled(dict):
        __getitem__ = disabled

    with monkeypatch.context() as m:
        m.setattr(protocols, "_swap", disabled)
        m.setattr(protocols, "_BELL_BRAS", Disabled())
        for phi, p, d, eq2, _ in cases:
            assert eq2_mixture(phi, p, d).matrix.tobytes() == eq2
        with pytest.raises(AssertionError):
            double_teleport(phi, p, d, (0, 0))
    with monkeypatch.context() as m:
        m.setattr(protocols, "eq2_mixture", disabled)
        m.setattr(protocols, "_eq2_terms", disabled)
        for phi, p, d, _, teleported in cases:
            out = double_teleport(phi, p, d, (0, 0)).conditional_state
            assert out.matrix.tobytes() == teleported
