"""Every scalar argument of the public entry points goes through one gate:
a str, None, NaN or out-of-range value raises ValueError (DimensionError
where documented), never TypeError, and numpy scalars are accepted and
stored as Python numbers.  A sequence argument given a non-sequence
raises the same way, and a d or dims over the MAX_TOTAL_DIM cap is
rejected before anything is built."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triact.channels import (make_ad, make_d, make_erasure, make_pd,
                             weyl_operators)
from triact.harness import ExperimentConfig
from triact.protocols import (_bell_vectors, bell_state,
                              build_symmetric_extension, double_teleport,
                              eq2_mixture, erased_protocol,
                              teleport_distribution)
from triact.qcore import (DensityMatrix, DimensionError, PureState,
                          partial_trace, project_and_condition)
from triact.states import (RngSeed, _isotropic_parts, _psi_plus, erased,
                           isotropic, max_entangled, random_mixed_hs,
                           random_pure_fs)

NAN = float("nan")
PHI = max_entangled(2)
PSI_2 = np.array([1, 0], dtype=complex)
POVM = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
RHO = isotropic(0.5, 2)


def unit(n):
    v = np.zeros(n, dtype=complex)
    v[0] = 1
    return v


def config(experiment, **kw):
    return ExperimentConfig(experiment=experiment, **kw)


# (entry point, call with the value in its gated slot, the values that
# must fail: a str, None, NaN, then out of range, the error raised).  A
# sequence slot takes non-sequences.  The first value over the cap is 65
# for a (d, d) pair, 4097 for a d_total and (65, 65) for dims.
GATED = [
    ("make_ad t", make_ad, ("0.3", None, NAN, 1.5, -0.1), ValueError),
    ("make_pd t", make_pd, ("0.3", None, NAN, 1.5, -0.1), ValueError),
    ("make_pd verbatim t", lambda t: make_pd(t, verbatim=True),
     ("0.3", None, NAN, 1.5), ValueError),
    ("make_d t", make_d, ("0.3", None, NAN, 1.5, -0.1), ValueError),
    ("make_erasure k", make_erasure, ("3", None, NAN, 0.5), ValueError),
    ("weyl_operators d", weyl_operators, ("2", None, NAN, 0, 65, 2.5, 2.0),
     ValueError),
    ("erased k", erased, ("3", None, NAN, 0.5), ValueError),
    ("isotropic p", isotropic, ("0.5", None, NAN, 1.2, -0.1), ValueError),
    ("isotropic d", lambda d: isotropic(0.5, d),
     ("2", None, NAN, 1, 65, 2.0), ValueError),
    ("max_entangled d", max_entangled, ("2", None, NAN, 1, 65, 2.0),
     ValueError),
    ("random_mixed_hs d_total", lambda d: random_mixed_hs(d, RngSeed(0)),
     ("4", None, NAN, 1, 4097, 4.0), ValueError),
    ("random_pure_fs d_total", lambda d: random_pure_fs(d, RngSeed(0)),
     ("4", None, NAN, 1, 4097, 4.0), ValueError),
    ("RngSeed seed", RngSeed, ("1", None, NAN, -1, 2**64, 1.0), ValueError),
    ("RngSeed stream_index", lambda i: RngSeed(0, i),
     ("1", None, NAN, -1, 2**64, 1.0), ValueError),
    ("DensityMatrix dims", lambda d: DensityMatrix((d, 2), np.eye(4) / 4),
     ("2", None, NAN, 0, 2.5, 2.0), DimensionError),
    ("PureState dims", lambda d: PureState((d,), PSI_2),
     ("2", None, NAN, 0, 2.7, 2.0), DimensionError),
    ("DensityMatrix dims tuple",
     lambda dims: DensityMatrix(dims, np.eye(4) / 4), (4, None, (65, 65)),
     DimensionError),
    # the amplitudes fit (65, 65): only the cap fails
    ("PureState dims tuple", lambda dims: PureState(dims, unit(65 * 65)),
     (4225, None, (65, 65)), DimensionError),
    ("bell_state d", lambda d: bell_state(d, 1),
     ("2", None, NAN, 1, 65, 2.5), ValueError),
    ("bell_state index", lambda i: bell_state(2, i), ("1", None, NAN, 4, -1),
     ValueError),
    ("double_teleport d", lambda d: double_teleport(PHI, 0.5, d, (0, 0)),
     ("2", None, NAN, 4, 1, 2.0), DimensionError),
    ("double_teleport p", lambda p: double_teleport(PHI, p, 2, (0, 0)),
     ("0.5", None, NAN, 1.5), ValueError),
    ("double_teleport outcome",
     lambda o: double_teleport(PHI, 0.5, 2, (0, o)), ("0", None, NAN, 4),
     ValueError),
    ("double_teleport bell_outcome",
     lambda o: double_teleport(PHI, 0.5, 2, o), (0, None), ValueError),
    ("eq2_mixture d", lambda d: eq2_mixture(PHI, 0.5, d),
     ("2", None, NAN, 4, 1, 2.0), DimensionError),
    ("eq2_mixture p", lambda p: eq2_mixture(PHI, p, 2),
     ("0.5", None, NAN, 1.5, -0.1), ValueError),
    ("teleport_distribution d",
     lambda d: teleport_distribution(PHI, 0.5, d, POVM, POVM),
     ("2", None, NAN, 4, 1, 2.0), DimensionError),
    ("erased_protocol k", erased_protocol, ("3", None, NAN, 0.5), ValueError),
    ("erased_protocol bell_outcome", lambda b: erased_protocol(3.0, b),
     ("0", None, NAN, 4), ValueError),
    ("erased_protocol b_outcomes",
     lambda b: erased_protocol(3.0, 0, (b, 0)), ("0", None, NAN, 2),
     ValueError),
    ("erased_protocol b_outcomes pair", lambda b: erased_protocol(3, 0, b),
     (5, None), ValueError),
    ("partial_trace keep", lambda keep: partial_trace(RHO, keep), (0, None),
     ValueError),
    ("project_and_condition subsystems",
     lambda s: project_and_condition(RHO, np.diag([1.0, 0.0]), s),
     (0, None), ValueError),
    ("build_symmetric_extension k", build_symmetric_extension,
     ("3", None, NAN, 5, 1, 3.0), DimensionError),
    ("verify k", lambda k: config("protocol_verify", k=k),
     ("3", None, NAN, 5e5, 0.5, math.inf), ValueError),
    ("verify p", lambda p: config("protocol_verify", p=p),
     ("0.5", None, NAN, 1.5), ValueError),
    ("extension k", lambda k: config("extension_verify", k=k),
     ("3", None, NAN, 5, 2.5, 3.0), ValueError),
    # None is n_states' default, the experiment's own count
    ("n_states", lambda n: config("census", n_states=n),
     ("2", 2.5, NAN, 0), ValueError),
    ("n_time_steps", lambda n: config("decoherence_sweep", n_time_steps=n),
     ("2", None, NAN, 1), ValueError),
    ("seed", lambda s: config("census", seed=s), ("2", None, NAN, -1, 2**64),
     ValueError),
    ("threads", lambda n: config("census", threads=n), ("2", None, NAN, 0),
     ValueError),
]


@pytest.mark.parametrize(
    "call, bad, error",
    [pytest.param(call, bad, error, id=f"{name}={bad!r}")
     for name, call, bads, error in GATED for bad in bads])
def test_gated_entry_point_rejects_bad_scalar(call, bad, error):
    with pytest.raises(error):
        call(bad)


# The (d, d) pair builders and the samplers at their first d over the
# cap; unchecked, each would build arrays of hundreds of MB.
OVER_CAP = {
    "max_entangled": lambda: max_entangled(65),
    "isotropic": lambda: isotropic(0.5, 65),
    "bell_state": lambda: bell_state(65, 0),
    "weyl_operators": lambda: weyl_operators(65),
    "random_mixed_hs": lambda: random_mixed_hs(4097, RngSeed(0)),
    "random_pure_fs": lambda: random_pure_fs(4097, RngSeed(0)),
}
CACHES = (_psi_plus, _isotropic_parts, weyl_operators, _bell_vectors)


@pytest.mark.parametrize("build", OVER_CAP.values(), ids=OVER_CAP)
def test_over_cap_builder_raises_before_allocating(build):
    sizes = [cache.cache_info().currsize for cache in CACHES]
    # a full cache would keep its size through an insertion
    assert all(size < cache.cache_info().maxsize
               for size, cache in zip(sizes, CACHES))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="must be in"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert [cache.cache_info().currsize for cache in CACHES] == sizes


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
    cfg = config("protocol_verify", k=np.float64(3.0), p=np.float32(0.5))
    assert (cfg.k, cfg.p) == (3.0, 0.5)
    assert type(cfg.k) is float and type(cfg.p) is float
    cfg = config("extension_verify", k=np.int64(3))
    assert cfg.k == 3 and type(cfg.k) is int
    out = double_teleport(PHI, np.float64(0.7), np.int64(2),
                          (np.int64(1), np.uint8(0)))
    assert out.outcome_labels == (1, 0)
    assert all(type(o) is int for o in out.outcome_labels)
    assert all(type(d) is int for d in bell_state(np.int64(2), 1).dims)
    ext = build_symmetric_extension(np.int64(2))
    assert all(type(d) is int for d in ext.dims)
    # numpy reals give the bits of the same Python float
    assert (erased(np.float64(3.0)).matrix.tobytes()
            == erased(3.0).matrix.tobytes())
    assert (make_ad(np.float64(0.3)).kraus_ops.tobytes()
            == make_ad(0.3).kraus_ops.tobytes())
    assert (isotropic(np.float64(0.3), np.int64(2)).matrix.tobytes()
            == isotropic(0.3, 2).matrix.tobytes())


_UNIT_EDGES = [0.0, -0.0, 1.0, math.nextafter(1.0, 2.0),
               math.nextafter(0.0, -1.0), NAN, math.inf, -math.inf]


@given(st.one_of(st.floats(), st.sampled_from(_UNIT_EDGES)))
@settings(max_examples=50, deadline=None)
def test_unit_interval_accepts_a_float_iff_it_lies_in_0_1(x):
    for make in (isotropic, make_d):
        if 0 <= x <= 1:
            make(x)
        else:
            with pytest.raises(ValueError, match="must be in"):
                make(x)
