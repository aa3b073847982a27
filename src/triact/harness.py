"""Monte Carlo experiment driver.

Every experiment is deterministic given its config: state ``i`` always
draws from the Philox stream ``(seed, i)``, so results do not depend on
the number of workers or their scheduling, and aggregation is
order-insensitive.  Records are written ordered by state index with a
fixed float format, which makes CSV output byte-identical across runs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import channels, criteria, protocols
from .qcore import PureState, _checked, fidelity_pure, partial_trace
from .states import RngSeed, _complex_gaussian, _isotropic_matrix, erased, \
    max_entangled, random_mixed_hs, random_pure_fs

CHANNELS = {
    "AD": channels.make_ad,
    "PD": channels.make_pd,
    "PD_verbatim": lambda t: channels.make_pd(t, verbatim=True),
    "D": channels.make_d,
}

CHUNK_SIZE = 4096  # states per census or sweep chunk, one worker task

CENSUS_FIELDS = ("state_index", "m_value", "chsh_max", "s_a", "s_b", "s_ab",
                 "violates_chsh", "hashing_distillable", "nonlocal_resource")


class HarnessIOError(OSError):
    """Output could not be written; the target was left as it was."""


@dataclass
class ExperimentConfig:
    experiment: str = "census"
    n_states: int | None = None  # 2000 for sweeps, else 100 000
    n_time_steps: int = 1000
    channel: str = "AD"
    seed: int = 0
    output_path: str | None = None
    output_format: str = "csv"
    threads: int = 1
    k: float = 3  # an integer for extension_verify
    p: float = 0.9

    def __post_init__(self):
        # Tuples, so that an unhashable value is unknown, not a TypeError.
        for what, value, known in (
                ("experiment", self.experiment, tuple(RUNNERS)),
                ("channel", self.channel, tuple(CHANNELS)),
                ("output format", self.output_format, ("csv", "json"))):
            if value not in known:
                raise ValueError(f"unknown {what} {value!r}")
        if self.output_path == "":
            raise ValueError("output_path must not be empty")
        # Every field is checked for every experiment; only the n_states
        # default and the k rule depend on it.
        if self.n_states is None:
            sweep = self.experiment == "decoherence_sweep"
            self.n_states = 2000 if sweep else 100_000
        self.n_states = _checked(self.n_states, "n_states", 1, integer=True)
        self.n_time_steps = _checked(self.n_time_steps, "n_time_steps", 2,
                                     integer=True)
        self.seed = _checked(self.seed, "seed", 0, 2**64, integer=True,
                             hi_open=True)
        self.threads = _checked(self.threads, "threads", 1, integer=True)
        self.p = _checked(self.p, "p", 0, 1)
        if self.experiment == "extension_verify":
            self.k = _checked(self.k, "k", 2, protocols.MAX_EXTENSION_K,
                              integer=True)
        else:
            self.k = _checked(self.k, "k", 1, protocols.MAX_ERASED_K,
                              hi_open=True)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    return f"{x:.12g}"


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` to a new file next to ``path``, then move it onto
    ``path``: the target holds either all of ``text`` or what it held
    before, and the new file never outlives a failure."""
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "x", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise HarnessIOError(f"cannot write {path}: {exc}") from exc
        raise


# json's text for the floats that have no JSON literal.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_cells(col: np.ndarray) -> list:
    """json's text of every value of ``col``, with one format per dtype
    picked once for the column; object columns go value by value."""
    values = col.tolist()
    kind = col.dtype.kind
    if kind == "b":
        return ["true" if x else "false" for x in values]
    if kind in "iu":
        return list(map(str, values))
    if kind == "f":
        cells = list(map(repr, values))
        for i in np.flatnonzero(~np.isfinite(col)):
            cells[i] = _JSON_NONFINITE[cells[i]]
        return cells
    return list(map(json.dumps, values))


def _json_text(cols: dict, summary: dict) -> str:
    """``json.dumps({"records": [...], "summary": summary}, indent=1)``
    plus a newline, with the records filled into one template per row."""
    keys = (json.dumps(name).replace("%", "%%") for name in cols)
    template = "  {\n" + ",\n".join(f"   {key}: %s" for key in keys) + "\n  }"
    rows = zip(*map(_json_cells, cols.values()))
    records = ",\n".join(template % row for row in rows)
    head = f"[\n{records}\n ]" if records else "[]"
    # json.dumps writes the summary, less the opening brace and newline.
    tail = json.dumps({"summary": summary}, indent=1)[2:]
    return f'{{\n "records": {head},\n{tail}\n'


# The %-format of a CSV cell by column dtype kind, giving ``_fmt``'s text.
_CSV_FORMATS = {"b": "%d", "i": "%d", "u": "%d", "f": "%.12g"}


def _csv_text(cols: dict, summary: dict) -> str:
    """What ``csv.writer`` writes for the header, one row of ``_fmt``
    cells per record and one ``# key`` row per summary key, with the
    records filled into one template per row.  Object columns go through
    ``_fmt`` value by value; their cells must need no quoting."""
    template = ",".join(_CSV_FORMATS.get(c.dtype.kind, "%s")
                        for c in cols.values()) + "\r\n"
    cells = (c.tolist() if c.dtype.kind in _CSV_FORMATS
             else list(map(_fmt, c.tolist())) for c in cols.values())
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(cols)
    buf.write("".join(template % row for row in zip(*cells)))
    for key in sorted(summary):
        writer.writerow([f"# {key}", _fmt(summary[key])])
    return buf.getvalue()


def _write_table(cfg: ExperimentConfig, cols: dict, summary: dict):
    """Write one record per row of ``cols`` (field name -> 1-D array, all
    of one length, in column order) and the summary, as CSV or JSON."""
    if cfg.output_format == "json":
        text = _json_text(cols, summary)
    else:
        text = _csv_text(cols, summary)
    _write_atomic(cfg.output_path, text)


def _chunks(n: int):
    for lo in range(0, n, CHUNK_SIZE):
        yield range(lo, min(lo + CHUNK_SIZE, n))


def _run_chunked(worker, args_for, cfg: ExperimentConfig, n: int):
    """Map worker over index chunks, in processes when threads > 1 and
    there is more than one chunk."""
    chunk_args = [args_for(idx) for idx in _chunks(n)]
    # Every worker of the pool is started on the first submit, so never
    # ask for more of them than there are chunks.
    workers = min(cfg.threads, len(chunk_args))
    if workers == 1:
        return [worker(*a) for a in chunk_args]
    # Imported here: a serial run never loads the process-pool machinery.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, *zip(*chunk_args)))


# ---------------------------------------------------------------- census

def _census_chunk(seed: int, indices):
    mats = np.empty((len(indices), 4, 4), dtype=complex)
    for j, i in enumerate(indices):
        mats[j] = random_mixed_hs(4, RngSeed(seed, i), dims=(2, 2)).matrix
    return criteria.classify_batch(mats)


def run_census(cfg: ExperimentConfig):
    """Classify n_states Hilbert-Schmidt-random two-qubit states."""
    parts = _run_chunked(_census_chunk, lambda idx: (cfg.seed, list(idx)),
                         cfg, cfg.n_states)
    n = cfg.n_states
    cols = {"state_index": np.arange(n),
            **{f: np.concatenate([p[f] for p in parts])
               for f in CENSUS_FIELDS[1:]}}
    no_viol = int(np.sum(~cols["violates_chsh"]))
    nlr = int(np.sum(cols["nonlocal_resource"]))

    def frac_se(count):
        f = count / n
        return f, math.sqrt(max(f * (1 - f), 0.0) / n)

    f_nv, se_nv = frac_se(no_viol)
    f_nlr, se_nlr = frac_se(nlr)
    f_cond = nlr / no_viol if no_viol else 0.0
    summary = {
        "n_states": n,
        "frac_no_chsh_violation": f_nv,
        "frac_no_chsh_violation_se": se_nv,
        "frac_nlr_of_all": f_nlr,
        "frac_nlr_of_all_se": se_nlr,
        "frac_nlr_of_nonviolating": f_cond,
    }
    if cfg.output_path:
        _write_table(cfg, cols, summary)
    return summary


# ----------------------------------------------------------------- sweep

def _sweep_chunk(seed: int, indices, channel: str, n_steps: int):
    ts = np.linspace(0.0, 1.0, n_steps)
    ops = channels.two_qubit_kraus_stack(CHANNELS[channel], ts)
    out = []
    for i in indices:
        psi = random_pure_fs(4, RngSeed(seed, i), dims=(2, 2))
        # E |psi><psi| E^dag = (E psi)(E psi)^dag: no density matrix needed.
        # The einsum gives the bits of ops @ psi in about half the time.
        v = np.einsum("tkab,b->tka", ops, psi.amplitudes)
        rho_t = v.transpose(0, 2, 1) @ v.conj()
        flags = criteria.classify_batch(rho_t)["nonlocal_resource"]
        out.append(flags)
    return np.stack(out)


def _interval_columns(flags: np.ndarray, ts: np.ndarray) -> dict:
    """Sweep columns from the (n_states, n_steps) NLR flag matrix on the
    grid ts; t_start and t_end are None for states never activated."""
    dt = ts[1] - ts[0]
    n_hits = flags.sum(axis=1)
    activated = n_hits > 0
    first = flags.argmax(axis=1)
    last = flags.shape[1] - 1 - flags[:, ::-1].argmax(axis=1)
    t_start, t_end = ts[first], ts[last]
    return {
        "activated": activated,
        "t_start": np.where(activated, t_start, None),
        "t_end": np.where(activated, t_end, None),
        # total measure: counts the occupied grid cells, equals the span
        # convention when the hit set is contiguous
        "width": n_hits * dt,
        "span_width": np.where(activated, (t_end - t_start) + dt, 0.0),
        "multi_interval": activated & (n_hits != last - first + 1),
        "n_nlr_steps": n_hits,
    }


def run_decoherence_sweep(cfg: ExperimentConfig):
    """Locally decohere FS-random pure states over a t grid and track the
    interval where they are nonlocal resources."""
    ts = np.linspace(0.0, 1.0, cfg.n_time_steps)
    parts = _run_chunked(
        _sweep_chunk,
        lambda idx: (cfg.seed, list(idx), cfg.channel, cfg.n_time_steps),
        cfg, cfg.n_states)
    cols = {"state_index": np.arange(cfg.n_states),
            **_interval_columns(np.concatenate(parts, axis=0), ts)}
    widths, activated = cols["width"], cols["activated"]
    n_act = int(activated.sum())
    act_widths = widths[activated] if n_act else np.zeros(1)
    summary = {
        "n_states": cfg.n_states,
        "n_time_steps": cfg.n_time_steps,
        "channel": cfg.channel,
        "pct_nlr_states": 100.0 * n_act / cfg.n_states,
        "mean_interval_width_activated": float(act_widths.mean()),
        "std_interval_width_activated": float(act_widths.std()),
        "mean_interval_width_all": float(widths.mean()),
        "std_interval_width_all": float(widths.std()),
        "n_multi_interval": int(cols["multi_interval"].sum()),
    }
    if cfg.output_path:
        _write_table(cfg, cols, summary)
    return summary


# ------------------------------------------------------ protocol checks

def _check(name, residual, tol):
    return {"name": name, "residual": float(residual), "tol": tol,
            "passed": bool(residual <= tol)}


def run_protocol_verify(cfg: ExperimentConfig):
    """Structural residual checks on the activation protocols."""
    rng = np.random.default_rng(cfg.seed)
    checks = []

    # Double-teleport conditional state vs the four-term mixture.
    for d in (2, 3):
        worst = 0.0
        for _ in range(5):
            phi = _random_pure(rng, d)
            p = rng.uniform(0, 1)
            got = protocols.double_teleport(phi, p, d, (0, 0))
            want = protocols.eq2_mixture(phi, p, d)
            worst = max(worst, float(np.max(np.abs(
                got.conditional_state.matrix - want.matrix))))
        checks.append(_check(f"eq2_mixture_residual_d{d}", worst, 1e-10))

    # Noiseless teleportation returns phi exactly.
    phi = max_entangled(2)
    out = protocols.double_teleport(phi, 1.0, 2, (0, 0))
    checks.append(_check("teleport_p1_fidelity",
                         abs(1 - fidelity_pure(out.conditional_state, phi)),
                         1e-10))

    # Activated CHSH through the protocol follows 2 sqrt(2) p^2; one batch
    # also holds the erased protocol's Bell pairs, checked below.
    ps = np.linspace(0, 1, 11)
    k = cfg.k
    outs = [protocols.erased_protocol(k, bell_outcome=b) for b in range(4)]
    teleported = [protocols.double_teleport(phi, p, 2, (0, 0)) for p in ps]
    chsh = criteria.classify_batch(np.stack([
        out.conditional_state.matrix for out in teleported + outs]))["chsh_max"]
    worst = np.max(np.abs(chsh[:len(ps)] - 2 * math.sqrt(2) * ps * ps))
    checks.append(_check("activated_chsh_vs_2sqrt2_p2", worst, 1e-9))

    # Erased protocol: success probabilities and Bell fidelities.
    bells = [protocols.bell_state(2, j) for j in range(4)]
    prob_err = max(abs(out.success_probability - 1 / (4 * k * k))
                   for out in outs)
    fid_err = max(abs(1 - max(fidelity_pure(out.conditional_state, bell)
                              for bell in bells)) for out in outs)
    checks.append(_check("erased_success_probability", prob_err, 1e-12))
    checks.append(_check("erased_bell_fidelity", fid_err, 1e-10))
    checks.append(_check("erased_conditional_chsh",
                         np.max(np.abs(chsh[len(ps):] - 2 * math.sqrt(2))),
                         1e-9))

    # Eq. (3) decomposition residual for random POVMs.
    povm = _projective_povm(rng, 2)
    dist = protocols.teleport_distribution(max_entangled(2), cfg.p, 2,
                                           povm, _projective_povm(rng, 2))
    checks.append(_check("teleport_distribution_residual", dist.residual,
                         1e-10))

    summary = {
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
    if cfg.output_path:
        _write_atomic(cfg.output_path, json.dumps(summary, indent=1) + "\n")
    return summary


def _random_pure(rng, d: int):
    v = _complex_gaussian(rng, (d * d,))
    return PureState((d, d), v / np.linalg.norm(v))


def _projective_povm(rng, d: int):
    g = _complex_gaussian(rng, (d, d))
    q, _ = np.linalg.qr(g)
    return [np.outer(q[:, i], q[:, i].conj()) for i in range(d)]


def run_extension_verify(cfg: ExperimentConfig):
    """Check that every (A, B_i) marginal of the k-party extension is
    erased(k)."""
    k = cfg.k
    ext = protocols.build_symmetric_extension(k)
    target = erased(k).matrix
    worst = 0.0
    for i in range(1, k + 1):
        marg = partial_trace(ext, {0, i}).matrix
        worst = max(worst, float(np.max(np.abs(marg - target))))
    check = _check(f"extension_marginals_k{k}", worst, 1e-12)
    return {"checks": [check], "all_passed": check["passed"]}


# -------------------------------------------------------------- iso curve

def run_iso_curve(cfg: ExperimentConfig):
    """Nonlocality quantities of the two-qubit isotropic state on a
    201-point p grid, with the activated CHSH value computed through the
    double-teleportation protocol rather than the closed form.  Both the
    isotropic states and the conditional states are classified in one
    batch each."""
    ps = np.linspace(0.0, 1.0, 201)
    cls = criteria.classify_batch(np.stack([_isotropic_matrix(p, 2)
                                            for p in ps]))
    phi = max_entangled(2)
    conditional = np.stack([
        protocols.double_teleport(phi, float(p), 2, (0, 0))
        .conditional_state.matrix for p in ps])
    act = criteria.classify_batch(conditional)["chsh_max"]
    cols = {
        "p": ps,
        "m_value": cls["m_value"],
        "chsh_max": cls["chsh_max"],
        "hashing_margin": np.maximum(cls["s_a"], cls["s_b"]) - cls["s_ab"],
        "activated_chsh": act,
    }
    rows = zip(*(c.tolist() for c in cols.values()))
    records = [dict(zip(cols, row)) for row in rows]
    crossing = next((r["p"] for r in records if r["activated_chsh"] > 2),
                    None)
    summary = {"activated_crossing_p": crossing}
    if cfg.output_path:
        _write_table(cfg, cols, summary)
    return {"records": records, **summary}


RUNNERS = {
    "census": run_census,
    "decoherence_sweep": run_decoherence_sweep,
    "protocol_verify": run_protocol_verify,
    "extension_verify": run_extension_verify,
    "iso_curve": run_iso_curve,
}


def run(cfg: ExperimentConfig):
    return RUNNERS[cfg.experiment](cfg)
