"""Acceptance suite: every criterion runs at its stated scale and
tolerance and prints one PASS/FAIL line (visible with `pytest -s` or in
the captured output of failing tests)."""

import math

import numpy as np
import pytest

from triact.criteria import classify, horodecki_m, maximize_chsh
from triact.harness import ExperimentConfig, run_census, run_decoherence_sweep
from triact.protocols import (bell_state, build_symmetric_extension,
                              double_teleport, eq2_mixture, erased_protocol)
from triact.qcore import PureState, fidelity_pure, partial_trace, tensor, \
    von_neumann_entropy
from triact.states import RngSeed, erased, max_entangled, random_mixed_hs, \
    random_pure_fs

SEED = 0


def report(name, passed, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} — {detail}")
    return passed


# ------------------------------------------------------------ criterion 1

def test_1_census_reproduction():
    cfg = ExperimentConfig(experiment="census", n_states=100_000, seed=SEED)
    s = run_census(cfg)
    ok_nv = 0.988 <= s["frac_no_chsh_violation"] <= 0.994
    ok_nlr = 0.0005 <= s["frac_nlr_of_all"] <= 0.0011
    passed = report(
        "1 census",
        ok_nv and ok_nlr,
        f"no-violation {s['frac_no_chsh_violation']:.4f} (target 0.991±0.003), "
        f"NLR {s['frac_nlr_of_all']:.5f} (target 0.0008±0.0003)")
    assert passed


# ------------------------------------------------------------ criterion 2

# Targets are the paper's values on its 10^3-step t grid.  The pct
# tolerances cover the sampling error of 2000 states (standard error about
# 1.1 points), not the bias of a coarser grid: at 200 steps the grid misses
# many of the narrow PD and D windows and reads about 10 points low for D.
TABLE1 = {  # channel -> (pct, pct_tol, width, width_std)
    "AD": (92.6, 2.5, 0.078, 0.078),
    "PD": (68.5, 3.0, 0.023, 0.020),
    "D": (56.4, 3.0, 0.005, 0.002),
}


@pytest.fixture(scope="module")
def sweep_summaries():
    out = {}
    for ch in ("AD", "PD", "PD_verbatim", "D"):
        out[ch] = run_decoherence_sweep(ExperimentConfig(
            experiment="decoherence_sweep", n_states=2000, n_time_steps=1000,
            channel=ch, seed=SEED, threads=2))
    return out


def width_in_band(summary, center, std):
    lo, hi = center - std, center + std
    act = summary["mean_interval_width_activated"]
    allm = summary["mean_interval_width_all"]
    which = []
    if lo <= act <= hi:
        which.append("activated")
    if lo <= allm <= hi:
        which.append("all")
    return which, act, allm


def test_2_table1_ad(sweep_summaries):
    pct, tol, w, ws = TABLE1["AD"]
    s = sweep_summaries["AD"]
    ok_pct = abs(s["pct_nlr_states"] - pct) <= tol
    which, act, allm = width_in_band(s, w, ws)
    passed = report(
        "2 Table1 AD",
        ok_pct and bool(which),
        f"pct {s['pct_nlr_states']:.2f} (target {pct}±{tol}); width "
        f"activated {act:.4f} / all {allm:.4f} vs {w}±{ws}, matching "
        f"normalization(s): {which or 'none'}")
    assert passed


def test_2_table1_pd(sweep_summaries):
    # The default PD must land; PD_verbatim's reading is reported only.
    pct, tol, w, ws = TABLE1["PD"]
    results = {name: sweep_summaries[name]["pct_nlr_states"]
               for name in ("PD", "PD_verbatim")}
    landed = {n: v for n, v in results.items() if abs(v - pct) <= tol}
    missed = {n: v for n, v in results.items() if n not in landed}
    which, act, allm = width_in_band(sweep_summaries["PD"], w, ws)
    passed = report(
        "2 Table1 PD",
        "PD" in landed and bool(which),
        f"parametrizations in {pct}±{tol}: {landed or 'none'}; "
        f"discrepant: {missed}; default widths activated {act:.4f} / "
        f"all {allm:.4f} vs {w}±{ws}")
    assert passed


def test_2_table1_d(sweep_summaries):
    pct, tol, w, ws = TABLE1["D"]
    s = sweep_summaries["D"]
    ok_pct = abs(s["pct_nlr_states"] - pct) <= tol
    which, act, allm = width_in_band(s, w, ws)
    passed = report(
        "2 Table1 D",
        ok_pct and bool(which),
        f"pct {s['pct_nlr_states']:.2f} (target {pct}±{tol}); width "
        f"activated {act:.4f} / all {allm:.4f} vs {w}±{ws}, matching "
        f"normalization(s): {which or 'none'}")
    assert passed


# ------------------------------------------------------------ criterion 3

def test_3_horodecki_oracle_equivalence():
    worst_gap, worst_excess = 0.0, -np.inf
    for i in range(200):
        rho = random_mixed_hs(4, RngSeed(1234, i), dims=(2, 2))
        val, _ = maximize_chsh(rho)
        target = 2 * math.sqrt(horodecki_m(rho))
        worst_gap = max(worst_gap, abs(val - target))
        worst_excess = max(worst_excess, val - target)
    passed = report(
        "3 CHSH oracle", worst_gap < 1e-5 and worst_excess <= 1e-9,
        f"max |opt - 2sqrt(M)| = {worst_gap:.2e}, max excess "
        f"{worst_excess:.2e}")
    assert passed


# ------------------------------------------------------------ criterion 4

def test_4_eq2_structural_identity():
    rng = np.random.default_rng(77)
    worst = 0.0
    for d in (2, 3):
        for _ in range(10):
            v = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
            phi = PureState((d, d), v / np.linalg.norm(v))
            p = rng.uniform()
            got = double_teleport(phi, p, d, (0, 0)).conditional_state
            worst = max(worst, float(np.max(np.abs(
                got.matrix - eq2_mixture(phi, p, d).matrix))))
    # activated CHSH curve and its crossing of the local bound
    phi = max_entangled(2)
    grid = np.linspace(0, 1, 201)
    chsh_err = 0.0
    crossing = None
    for p in grid:
        out = double_teleport(phi, float(p), 2, (0, 0))
        chsh = 2 * math.sqrt(horodecki_m(out.conditional_state))
        chsh_err = max(chsh_err, abs(chsh - 2 * math.sqrt(2) * p * p))
        if crossing is None and chsh > 2:
            crossing = float(p)
    cross_ok = abs(crossing - 2 ** -0.25) <= grid[1] + 1e-12
    passed = report(
        "4 Eq2 identity",
        worst <= 1e-10 and chsh_err <= 1e-9 and cross_ok,
        f"mixture residual {worst:.2e}; CHSH-vs-2sqrt2p^2 error "
        f"{chsh_err:.2e}; crossing at p={crossing:.4f} "
        f"(2^-1/4={2**-0.25:.4f})")
    assert passed


# ------------------------------------------------------------ criterion 5

def test_5_erased_state_activation():
    worst_prob, worst_fid, worst_chsh = 0.0, 0.0, 0.0
    for k in (1.0, 2.0, 5.0, 10.0):
        total = 0.0
        for b in range(4):
            out = erased_protocol(k, bell_outcome=b)
            total += out.success_probability
            best = max(fidelity_pure(out.conditional_state, bell_state(2, j))
                       for j in range(4))
            worst_fid = max(worst_fid, abs(1 - best))
            chsh = 2 * math.sqrt(horodecki_m(out.conditional_state))
            worst_chsh = max(worst_chsh, abs(chsh - 2 * math.sqrt(2)))
        worst_prob = max(worst_prob, abs(total - 1 / k**2))
    passed = report(
        "5 erased activation",
        worst_prob <= 1e-12 and worst_fid <= 1e-10 and worst_chsh <= 1e-9,
        f"double-M0 prob error {worst_prob:.2e}; Bell fidelity error "
        f"{worst_fid:.2e}; CHSH error {worst_chsh:.2e}")
    assert passed


# ------------------------------------------------------------ criterion 6

def test_6_symmetric_extension_certificate():
    worst = 0.0
    for k in (2, 3, 4):
        ext = build_symmetric_extension(k)
        target = erased(k).matrix
        for i in range(1, k + 1):
            marg = partial_trace(ext, {0, i}).matrix
            worst = max(worst, float(np.max(np.abs(marg - target))))
    passed = report("6 extension marginals", worst <= 1e-12,
                    f"max marginal residual {worst:.2e}")
    assert passed


# ------------------------------------------------------------ criterion 7

def test_7_property_suites():
    # channel completeness / trace preservation
    from triact.channels import apply, make_ad, make_d, make_pd
    ok = True
    for make in (make_ad, make_pd, make_d):
        for t in np.linspace(0, 1, 20):
            ch = make(float(t))
            s = sum(e.conj().T @ e for e in ch.kraus_ops)
            ok &= np.max(np.abs(s - np.eye(2))) <= 1e-10
    rho = random_mixed_hs(4, RngSeed(5, 5), dims=(2, 2))
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        out = apply(make_ad(t), rho, 0)
        ok &= abs(np.trace(out.matrix) - 1) < 1e-10

    # entropy additivity
    for i in range(20):
        a = random_mixed_hs(4, RngSeed(6, 2 * i), dims=(2, 2))
        b = random_mixed_hs(4, RngSeed(6, 2 * i + 1), dims=(2, 2))
        s = von_neumann_entropy(tensor(a, b))
        ok &= abs(s - von_neumann_entropy(a) - von_neumann_entropy(b)) < 1e-9

    # sampler determinism
    x = random_pure_fs(4, RngSeed(8, 8)).amplitudes
    y = random_pure_fs(4, RngSeed(8, 8)).amplitudes
    ok &= bool(np.array_equal(x, y))

    # census bookkeeping identity
    s = run_census(ExperimentConfig(experiment="census", n_states=2000,
                                    seed=SEED))
    ok &= abs(s["frac_nlr_of_nonviolating"] * s["frac_no_chsh_violation"]
              - s["frac_nlr_of_all"]) < 1e-12

    # classification flag consistency on a fresh sample
    for i in range(50):
        c = classify(random_mixed_hs(4, RngSeed(9, i), dims=(2, 2)))
        ok &= c.nonlocal_resource == ((not c.violates_chsh)
                                      and c.hashing_distillable)

    # asymptotic d->infinity thresholds are intentionally not reproduced;
    # only the finite-d structural checks above are in scope
    passed = report("7 property suites", ok, "all sub-suites clean")
    assert passed
