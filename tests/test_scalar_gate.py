"""Every scalar argument of the public entry points goes through one gate:
a str, None, NaN, bool or out-of-range value raises ValueError
(DimensionError where documented), never TypeError, with a message that
starts with the argument's name; numpy numbers are accepted and stored as
Python numbers.  A sequence argument given a non-sequence raises the same
way, and a d or dims over the MAX_TOTAL_DIM cap is rejected before
anything is built.  The builders keep nothing between calls and leave
the protocols' Bell bra table, built at import, as it was.  This file is
the one place an argument's rejection is tested: a new bad-argument case
is a GATED row."""

import math
import re
import sys
import tracemalloc

import numpy as np
import pytest

from triact import protocols
from triact.channels import apply, make_ad, make_d, make_erasure, make_pd
from triact.harness import ExperimentConfig
from triact.protocols import (bell_state, build_symmetric_extension,
                              double_teleport, eq2_mixture, erased_protocol,
                              teleport_distribution)
from triact.qcore import (DensityMatrix, DimensionError, PureState,
                          partial_trace, project_and_condition)
from triact.states import (RngSeed, erased, isotropic, max_entangled,
                           random_mixed_hs, random_pure_fs)

NAN = float("nan")
PHI = max_entangled(2)
PSI_2 = np.array([1, 0], dtype=complex)
POVM = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
RHO = isotropic(0.5, 2)
# two subsystems of different size, so keeping 0 and keeping 1 differ
RHO_23 = DensityMatrix((2, 3), np.eye(6) / 6)


def unit(n):
    v = np.zeros(n, dtype=complex)
    v[0] = 1
    return v


def config(experiment, **kw):
    return ExperimentConfig(experiment=experiment, **kw)


# A bool is no number, though Python's is an int: every integer and real
# slot rejects Python's and numpy's.
FLAGS = (True, np.True_)

# (entry point, call with the value in its gated slot, the values that
# must fail: a str, None, NaN, then out of range, then FLAGS, the error
# raised, the start of its message: the argument's name as the gate
# spells it, or "total dimension" for the cap rows).  A sequence slot
# takes non-sequences.  The first value over the cap is 65 for a (d, d)
# pair, 4097 for a d_total and (65, 65) for dims.
GATED = [
    ("make_ad t", make_ad, ("0.3", None, NAN, 1.5, -0.1, *FLAGS),
     ValueError, "t"),
    ("make_pd t", make_pd, ("0.3", None, NAN, 1.5, -0.1, *FLAGS),
     ValueError, "t"),
    ("make_pd verbatim t", lambda t: make_pd(t, verbatim=True),
     ("0.3", None, NAN, 1.5, *FLAGS), ValueError, "t"),
    ("make_d t", make_d, ("0.3", None, NAN, 1.5, -0.1, *FLAGS), ValueError,
     "t"),
    ("make_erasure k", make_erasure, ("3", None, NAN, 0.5, *FLAGS),
     ValueError, "k"),
    ("apply subsystem", lambda s: apply(make_d(0.1), RHO, s),
     ("0", None, NAN, 2, -1, 0.5, 1.0, *FLAGS), ValueError,
     "subsystem indices"),
    # NaN fails at the gate, not as the eigensolver's LinAlgError (also
    # a ValueError, but not one that names k)
    ("erased k", erased, ("3", None, NAN, 0.5, *FLAGS), ValueError, "k"),
    ("isotropic p", isotropic, ("0.5", None, NAN, 1.2, -0.1, *FLAGS),
     ValueError, "p"),
    ("isotropic d", lambda d: isotropic(0.5, d),
     ("2", None, NAN, 1, 65, 2.0, *FLAGS), ValueError, "d"),
    ("max_entangled d", max_entangled, ("2", None, NAN, 1, 65, 2.0, *FLAGS),
     ValueError, "d"),
    ("random_mixed_hs d_total", lambda d: random_mixed_hs(d, RngSeed(0)),
     ("4", None, NAN, 1, 4097, 4.0, *FLAGS), ValueError, "d_total"),
    ("random_pure_fs d_total", lambda d: random_pure_fs(d, RngSeed(0)),
     ("4", None, NAN, 1, 4097, 4.0, *FLAGS), ValueError, "d_total"),
    # only an RngSeed or a numpy Generator is a stream
    ("random_mixed_hs rng", lambda rng: random_mixed_hs(4, rng),
     ("x", None, NAN, 5, *FLAGS), ValueError, "rng"),
    ("random_pure_fs rng", lambda rng: random_pure_fs(4, rng),
     ("x", None, NAN, 5, *FLAGS), ValueError, "rng"),
    ("RngSeed seed", RngSeed, ("1", None, NAN, -1, 2**64, 1.0, 1.5, *FLAGS),
     ValueError, "seed"),
    ("RngSeed stream_index", lambda i: RngSeed(0, i),
     ("1", None, NAN, -1, 2**64, 1.0, *FLAGS), ValueError, "stream_index"),
    ("DensityMatrix dims", lambda d: DensityMatrix((d, 2), np.eye(4) / 4),
     ("2", None, NAN, 0, 2.5, 2.0, *FLAGS), DimensionError, "dims"),
    ("PureState dims", lambda d: PureState((d,), PSI_2),
     ("2", None, NAN, 0, 2.7, 2.0, *FLAGS), DimensionError, "dims"),
    ("DensityMatrix dims tuple",
     lambda dims: DensityMatrix(dims, np.eye(4) / 4), (4, None),
     DimensionError, "dims"),
    ("DensityMatrix dims tuple",
     lambda dims: DensityMatrix(dims, np.eye(4) / 4), ((65, 65),),
     DimensionError, "total dimension"),
    ("PureState dims tuple", lambda dims: PureState(dims, unit(65 * 65)),
     (4225, None), DimensionError, "dims"),
    # the amplitudes fit (65, 65): only the cap fails
    ("PureState dims tuple", lambda dims: PureState(dims, unit(65 * 65)),
     ((65, 65),), DimensionError, "total dimension"),
    ("bell_state d", lambda d: bell_state(d, 1),
     ("2", None, NAN, 1, 65, 2.5, 2.0, *FLAGS), ValueError, "d"),
    ("bell_state index", lambda i: bell_state(2, i),
     ("1", None, NAN, 4, -1, 1.5, *FLAGS), ValueError, "Bell index"),
    # the d gate runs before the check that phi lives on (d, d)
    ("double_teleport d", lambda d: double_teleport(PHI, 0.5, d, (0, 0)),
     ("2", None, NAN, 4, 1, 2.0, *FLAGS), DimensionError, "d"),
    ("double_teleport p", lambda p: double_teleport(PHI, p, 2, (0, 0)),
     ("0.5", None, NAN, 1.5, *FLAGS), ValueError, "p"),
    ("double_teleport first outcome",
     lambda o: double_teleport(PHI, 0.5, 2, (o, 0)),
     ("0", None, NAN, 4, -1, 16, 1.5, *FLAGS), ValueError, "Bell outcome"),
    ("double_teleport outcome",
     lambda o: double_teleport(PHI, 0.5, 2, (0, o)),
     ("0", None, NAN, 4, -1, 16, 1.5, *FLAGS), ValueError, "Bell outcome"),
    ("double_teleport bell_outcome",
     lambda o: double_teleport(PHI, 0.5, 2, o), (0, None), ValueError,
     "bell_outcome"),
    ("eq2_mixture d", lambda d: eq2_mixture(PHI, 0.5, d),
     ("2", None, NAN, 4, 1, 2.0, *FLAGS), DimensionError, "d"),
    ("eq2_mixture p", lambda p: eq2_mixture(PHI, p, 2),
     ("0.5", None, NAN, 1.5, -0.1, *FLAGS), ValueError, "p"),
    ("teleport_distribution d",
     lambda d: teleport_distribution(PHI, 0.5, d, POVM, POVM),
     ("2", None, NAN, 4, 1, 2.0, *FLAGS), DimensionError, "d"),
    ("erased_protocol k", erased_protocol, ("3", None, NAN, 0.5, *FLAGS),
     ValueError, "k"),
    ("erased_protocol bell_outcome", lambda b: erased_protocol(3.0, b),
     ("0", None, NAN, 4, -1, 1.5, *FLAGS), ValueError, "bell_outcome"),
    ("erased_protocol b_outcomes",
     lambda b: erased_protocol(3.0, 0, (b, 0)),
     ("0", None, NAN, 2, 1.0, *FLAGS), ValueError, "b_outcomes"),
    ("erased_protocol second b_outcomes",
     lambda b: erased_protocol(3.0, 0, (0, b)),
     ("0", None, NAN, 2, -1, 0.0, 0.5, *FLAGS), ValueError, "b_outcomes"),
    ("erased_protocol b_outcomes pair", lambda b: erased_protocol(3, 0, b),
     (5, None, (0,)), ValueError, "b_outcomes"),
    ("partial_trace keep", lambda keep: partial_trace(RHO, keep), (0, None),
     ValueError, "keep"),
    ("partial_trace keep items", lambda i: partial_trace(RHO_23, {i}),
     ("0", None, NAN, 2, -1, 0.7, 1.9, 1.0, *FLAGS), ValueError,
     "subsystem indices"),
    ("project_and_condition subsystems",
     lambda s: project_and_condition(RHO, np.diag([1.0, 0.0]), s),
     (0, None), ValueError, "subsystems"),
    ("build_symmetric_extension k", build_symmetric_extension,
     ("3", None, NAN, 5, 1, 3.0, 2.5, *FLAGS), DimensionError, "k"),
    ("verify k", lambda k: config("protocol_verify", k=k),
     ("3", None, NAN, 5e5, 0.5, math.inf, *FLAGS), ValueError, "k"),
    ("verify p", lambda p: config("protocol_verify", p=p),
     ("0.5", None, NAN, 1.5, *FLAGS), ValueError, "p"),
    ("extension k", lambda k: config("extension_verify", k=k),
     ("3", None, NAN, 5, 2.5, 3.0, *FLAGS), ValueError, "k"),
    # census reads none of these three: every field is checked anyway
    ("census p", lambda p: config("census", p=p), ("x", *FLAGS), ValueError,
     "p"),
    ("census k", lambda k: config("census", k=k), (None, *FLAGS), ValueError,
     "k"),
    ("census n_time_steps", lambda n: config("census", n_time_steps=n),
     (-5, *FLAGS), ValueError, "n_time_steps"),
    # None is n_states' default, the experiment's own count
    ("n_states", lambda n: config("census", n_states=n),
     ("2", 2.5, NAN, 0, 2.0, *FLAGS), ValueError, "n_states"),
    ("n_time_steps", lambda n: config("decoherence_sweep", n_time_steps=n),
     ("2", None, NAN, 1, 2.5, 2.0, *FLAGS), ValueError, "n_time_steps"),
    ("seed", lambda s: config("census", seed=s),
     ("2", None, NAN, -1, 2**64, 2.5, 2.0, *FLAGS), ValueError, "seed"),
    ("threads", lambda n: config("census", threads=n),
     ("2", None, NAN, 0, 2.5, 2.0, *FLAGS), ValueError, "threads"),
    # a path slot: a str or a path to one, so no bytes
    ("output_path", lambda path: config("census", output_path=path),
     (5, b"x.csv", ["a"]), ValueError, "output_path"),
]


@pytest.mark.parametrize(
    "call, bad, error, prefix",
    [pytest.param(call, bad, error, prefix, id=f"{name}={bad!r}")
     for name, call, bads, error, prefix in GATED for bad in bads])
def test_gated_entry_point_rejects_bad_scalar(call, bad, error, prefix):
    with pytest.raises(error, match=f"^{re.escape(prefix)}[: ]"):
        call(bad)


def equal_valid_dim(bad):
    """A small valid dim equal to ``bad`` in value and hash (1 for True, 2
    for 2.0), else 2."""
    try:
        n = int(bad)
    except (TypeError, ValueError):
        return 2
    return n if n == bad and 1 <= n <= 64 else 2


@pytest.mark.parametrize(
    "call, bad, error, prefix",
    [pytest.param(call, bad, error, prefix, id=f"{name}={bad!r}")
     for name, call, bads, error, prefix in GATED if " dims" in name
     for bad in bads])
def test_dims_gate_holds_after_equal_valid_dims(call, bad, error, prefix):
    """A valid state over dims equal to the bad ones, built first, changes
    no rejection: ``(True, 2) == (1, 2)`` and their hashes match, so a
    cache of checked dims keyed by value would let ``(True, 2)`` pass."""
    with pytest.raises(error) as first:
        call(bad)
    n = equal_valid_dim(bad)
    DensityMatrix((n, 2), np.eye(2 * n) / (2 * n))
    PureState((n,), unit(n))
    with pytest.raises(error, match=f"^{re.escape(prefix)}[: ]") as again:
        call(bad)
    assert str(again.value) == str(first.value)
    # numpy integers equal to valid Python dims still come back as ints
    dims = DensityMatrix((np.int64(2), np.int64(2)), np.eye(4) / 4).dims
    assert dims == (2, 2) and all(type(d) is int for d in dims)


# The (d, d) pair builders and the samplers at their first d over the
# cap; unchecked, each would build arrays of hundreds of MB.
OVER_CAP = {
    "max_entangled": lambda: max_entangled(65),
    "isotropic": lambda: isotropic(0.5, 65),
    "bell_state": lambda: bell_state(65, 0),
    "random_mixed_hs": lambda: random_mixed_hs(4097, RngSeed(0)),
    "random_pure_fs": lambda: random_pure_fs(4097, RngSeed(0)),
}


def assert_table_unchanged(table):
    # same keys, each holding the same array object
    assert protocols._BELL_BRAS.keys() == table.keys()
    assert all(protocols._BELL_BRAS[d] is bras for d, bras in table.items())


@pytest.mark.parametrize("build", OVER_CAP.values(), ids=OVER_CAP)
def test_over_cap_builder_raises_before_allocating(build):
    table = dict(protocols._BELL_BRAS)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="must be in"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert_table_unchanged(table)


# The builders at a large d: built for the call only.
LARGE_D = {
    "max_entangled": lambda: max_entangled(32),
    "isotropic": lambda: isotropic(0.5, 32),
    "bell_state": lambda: bell_state(32, 0),
}


@pytest.mark.parametrize("build", LARGE_D.values(), ids=LARGE_D)
def test_large_d_builder_keeps_nothing(build):
    table = dict(protocols._BELL_BRAS)
    tracemalloc.start()
    try:
        build()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2**20
    assert_table_unchanged(table)


def test_bell_state_builds_only_its_vector():
    # the (d^2, d, d) stack of every Bell bra would be 256 MiB at d = 64
    tracemalloc.start()
    try:
        bell_state(64, 4095)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_gate_errors_name_the_argument():
    with pytest.raises(ValueError, match="^t must be in"):
        make_d(NAN)
    with pytest.raises(ValueError, match="^k must be a real number"):
        erased("3")
    with pytest.raises(DimensionError, match="^dims: integers only"):
        DensityMatrix((2.5, 2), np.eye(4) / 4)
    with pytest.raises(ValueError, match=r"^seed must be in \[0, "):
        RngSeed(-1)
    with pytest.raises(ValueError, match="^bell_outcome must be a sequence"):
        double_teleport(PHI, 0.5, 2, 0)
    with pytest.raises(ValueError, match="^b_outcomes must hold 2 items"):
        erased_protocol(3, 0, (0, 0, 0))
    with pytest.raises(ValueError, match="^keep must be a sequence"):
        partial_trace(RHO, 0)
    with pytest.raises(DimensionError, match="^total dimension 4225 exceeds"):
        PureState((65, 65), unit(65 * 65))
    with pytest.raises(ValueError, match=r"^d must be in \[2, 64\]"):
        isotropic(0.5, 65)
    # a p-range error, not the PSD gate of the mixture it would build
    with pytest.raises(ValueError, match=r"^p must be in \[0, 1\]"):
        eq2_mixture(PHI, 1.5, 2)


def test_numpy_scalars_are_stored_as_python_numbers():
    dm = DensityMatrix((np.int64(2), np.uint8(2)), np.eye(4) / 4)
    assert dm.dims == (2, 2) and all(type(d) is int for d in dm.dims)
    ps = PureState((np.int32(2),), PSI_2)
    assert type(ps.dims[0]) is int
    seed = RngSeed(np.int64(3), np.uint64(2**64 - 1))
    assert (seed.seed, seed.stream_index) == (3, 2**64 - 1)
    assert (type(seed.seed), type(seed.stream_index)) == (int, int)
    cfg = config("protocol_verify", k=np.float64(3.0), p=np.float32(0.5))
    assert (cfg.k, cfg.p) == (3.0, 0.5)
    assert type(cfg.k) is float and type(cfg.p) is float
    cfg = config("extension_verify", k=np.int64(3))
    assert cfg.k == 3 and type(cfg.k) is int
    cfg = config("census", n_states=np.int64(5), n_time_steps=np.uint8(3),
                 seed=np.uint64(2**64 - 1), threads=np.int32(2))
    fields = (cfg.n_states, cfg.n_time_steps, cfg.seed, cfg.threads)
    assert fields == (5, 3, 2**64 - 1, 2)
    assert all(type(v) is int for v in fields)
    out = double_teleport(PHI, np.float64(0.7), np.int64(2),
                          (np.int64(1), np.uint8(0)))
    assert out.outcome_labels == (1, 0)
    assert all(type(o) is int for o in out.outcome_labels)
    labels = erased_protocol(2.0, 0, (np.int64(1), 0)).outcome_labels
    assert labels == (1, 0) and all(type(b) is int for b in labels)
    assert all(type(d) is int for d in bell_state(np.int64(2), 1).dims)
    ext = build_symmetric_extension(np.int64(2))
    assert all(type(d) is int for d in ext.dims)
    assert partial_trace(RHO_23, {np.int64(1)}).dims == (3,)
    # numpy reals give the bits of the same Python float
    assert (erased(np.float64(3.0)).matrix.tobytes()
            == erased(3.0).matrix.tobytes())
    assert (make_ad(np.float64(0.3)).kraus_ops.tobytes()
            == make_ad(0.3).kraus_ops.tobytes())
    assert (isotropic(np.float64(0.3), np.int64(2)).matrix.tobytes()
            == isotropic(0.3, 2).matrix.tobytes())
    rho = random_mixed_hs(4, RngSeed(3, 8), dims=(2, 2))
    assert (apply(make_d(0.1), rho, np.int64(1)).matrix.tobytes()
            == apply(make_d(0.1), rho, 1).matrix.tobytes())


_UNIT_EDGES = [0.0, -0.0, 1.0, math.nextafter(1.0, 2.0),
               math.nextafter(0.0, -1.0), NAN, math.inf, -math.inf]
# the edges, two subnormals, the largest finite floats, and 50 seeded
# random 64-bit patterns read as float64
_PATTERNS = np.random.default_rng(28).bytes(8 * 50)
_UNIT_PROBES = (_UNIT_EDGES + [math.ulp(0.0), sys.float_info.min / 2,
                               sys.float_info.max, -sys.float_info.max]
                + np.frombuffer(_PATTERNS, dtype=np.float64).tolist())


def test_unit_interval_accepts_a_float_iff_it_lies_in_0_1():
    for x in _UNIT_PROBES:
        for make in (isotropic, make_d):
            if 0 <= x <= 1:
                make(x)
            else:
                with pytest.raises(ValueError, match="must be in"):
                    make(x)
