import numpy as np
import pytest

from triact import states
from triact.qcore import partial_trace
from triact.states import (RngSeed, erased, isotropic, max_entangled,
                           random_mixed_hs, random_pure_fs)


def test_max_entangled_d2():
    psi = max_entangled(2)
    np.testing.assert_allclose(psi.amplitudes,
                               np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_max_entangled_d3():
    psi = max_entangled(3)
    expected = np.zeros(9)
    expected[[0, 4, 8]] = 1 / np.sqrt(3)
    np.testing.assert_allclose(psi.amplitudes, expected)


def test_max_entangled_marginals():
    for d in (2, 3, 4):
        rho = max_entangled(d).density_matrix()
        for side in ({0}, {1}):
            np.testing.assert_allclose(partial_trace(rho, side).matrix,
                                       np.eye(d) / d, atol=1e-12)


def test_isotropic_endpoints():
    psi = max_entangled(2)
    np.testing.assert_allclose(isotropic(1.0, 2).matrix,
                               psi.density_matrix().matrix, atol=1e-14)
    np.testing.assert_allclose(isotropic(0.0, 2).matrix, np.eye(4) / 4,
                               atol=1e-14)


def test_isotropic_literal_matrix():
    # hand-written entries for p = 0.3, d = 2
    p = 0.3
    lit = np.array([
        [p / 2 + (1 - p) / 4, 0, 0, p / 2],
        [0, (1 - p) / 4, 0, 0],
        [0, 0, (1 - p) / 4, 0],
        [p / 2, 0, 0, p / 2 + (1 - p) / 4],
    ])
    np.testing.assert_allclose(isotropic(p, 2).matrix, lit, atol=1e-14)


def test_isotropic_matrix_equals_literal_formula():
    # p |Psi_+><Psi_+| + (1 - p) I / d^2 from a test-local |Psi_+>, in
    # the same operation order; the result is a fresh array.
    for d in (2, 3):
        psi = np.zeros(d * d, dtype=complex)
        psi[:: d + 1] = 1 / np.sqrt(d)
        for p in (0.0, 0.3, 2 ** -0.25, 0.1 + 0.2, 1.0):
            want = p * np.outer(psi, psi.conj())
            want += (1 - p) * np.eye(d * d) / d**2
            got = states._isotropic_matrix(p, d)
            assert got.tobytes() == want.tobytes(), (d, p)
            assert got.flags.writeable


def test_isotropic_matrix_of_negative_zero_p_is_that_of_zero():
    # p = -0.0 passes the range gate; it must leave no negative zero
    for d in (2, 3):
        assert (states._isotropic_matrix(-0.0, d).tobytes()
                == states._isotropic_matrix(0.0, d).tobytes())


def test_isotropic_spectrum():
    w = np.linalg.eigvalsh(isotropic(0.5, 2).matrix)[::-1]
    np.testing.assert_allclose(w, [0.625, 0.125, 0.125, 0.125], atol=1e-14)


def test_erased_literal_matrix():
    # hand-written 6x6 matrix for k = 4, basis |a b> with b the qutrit
    k = 4
    lit = np.zeros((6, 6))
    lit[0, 0] = lit[4, 4] = 1 / (2 * k)       # Bell diagonal
    lit[0, 4] = lit[4, 0] = 1 / (2 * k)       # Bell coherence
    lit[2, 2] = lit[5, 5] = (1 - 1 / k) / 2   # erased flag on both A levels
    np.testing.assert_allclose(erased(k).matrix, lit, atol=1e-14)


def test_erased_cases():
    # k=1: pure Bell pair embedded in qubit x qutrit
    w = np.linalg.eigvalsh(erased(1).matrix)
    assert abs(w[-1] - 1) < 1e-12
    # k=2: trace of the Bell block is 1/2
    m = erased(2).matrix
    bell_block = m[np.ix_([0, 1, 3, 4], [0, 1, 3, 4])]
    assert abs(np.trace(bell_block).real - 0.5) < 1e-12


def test_erased_marginals():
    for k in (1.0, 2.5, 7.0):
        rho = erased(k)
        np.testing.assert_allclose(partial_trace(rho, {0}).matrix,
                                   np.eye(2) / 2, atol=1e-12)
        sigma_b = partial_trace(rho, {1}).matrix
        assert abs(sigma_b[2, 2].real - (1 - 1 / k)) < 1e-12


def test_hs_sampler_mean_is_maximally_mixed():
    # unitary invariance of the Ginibre construction: Monte Carlo oracle
    n = 10_000
    acc = np.zeros((4, 4), dtype=complex)
    for i in range(n):
        acc += random_mixed_hs(4, RngSeed(11, i)).matrix
    assert np.max(np.abs(acc / n - np.eye(4) / 4)) < 0.01


def test_hs_sampler_purity_range():
    for i in range(50):
        m = random_mixed_hs(4, RngSeed(2, i)).matrix
        purity = np.trace(m @ m).real
        assert 0.25 < purity <= 1.0


def test_fs_sampler_marginal_mean():
    n = 10_000
    acc = np.zeros((2, 2), dtype=complex)
    for i in range(n):
        psi = random_pure_fs(4, RngSeed(13, i), dims=(2, 2))
        acc += partial_trace(psi.density_matrix(), {0}).matrix
    assert np.max(np.abs(acc / n - np.eye(2) / 2)) < 0.01


def test_stream_independence_sanity():
    n = 10_000
    xs = np.empty(n)
    ys = np.empty(n)
    for i in range(n):
        xs[i] = RngSeed(21, 2 * i).generator().standard_normal()
        ys[i] = RngSeed(21, 2 * i + 1).generator().standard_normal()
    r = np.corrcoef(xs, ys)[0, 1]
    assert abs(r) < 0.05


@pytest.mark.parametrize("seed, stream", [(0, 0), (5, 17),
                                          (2**64 - 1, 2**64 - 1)])
def test_stream_equals_philox_keyed_directly(seed, stream):
    ours = RngSeed(seed, stream).generator()
    ref = np.random.Generator(np.random.Philox(key=[seed, stream]))
    got, want = ours.bit_generator.state, ref.bit_generator.state
    assert got["bit_generator"] == want["bit_generator"] == "Philox"
    for key in ("counter", "key"):
        assert got["state"][key].dtype == want["state"][key].dtype
        np.testing.assert_array_equal(got["state"][key], want["state"][key])
    np.testing.assert_array_equal(got["buffer"], want["buffer"])
    for key in ("buffer_pos", "has_uint32", "uinteger"):
        assert got[key] == want[key]
    assert ours.standard_normal(1000).tobytes() == \
        ref.standard_normal(1000).tobytes()


# Draws that leave a stream spent before the next key: 1, 3 and 5 normals
# mostly stop inside Philox's 4-word buffer (a ziggurat rejection takes one
# more word), and a small integers call caches half a word as a uint32.
LEAVE = {"1 normal": lambda gen: gen.standard_normal(1),
         "3 normals": lambda gen: gen.standard_normal(3),
         "5 normals": lambda gen: gen.standard_normal(5),
         "integers": lambda gen: gen.integers(10)}


def _rekeyed(seed, stream, leave):
    """The chunk generator keyed to ``stream``, after ``leave`` drew from
    the stream before it."""
    streams = states._streams(seed, [stream ^ 1, stream])
    leave(next(streams))
    return next(streams)


def _philox_state(gen):
    st = gen.bit_generator.state
    return (st["state"]["counter"].tolist(), st["state"]["key"].tolist(),
            st["buffer"].tolist(), st["buffer_pos"], st["has_uint32"],
            st["uinteger"])


@pytest.mark.parametrize("leave", LEAVE.values(), ids=LEAVE)
@pytest.mark.parametrize("seed, stream", [(0, 0), (5, 17),
                                          (2**64 - 1, 2**64 - 1)])
def test_rekeyed_stream_equals_a_fresh_stream_bit_for_bit(seed, stream,
                                                          leave):
    left = next(states._streams(seed, [stream ^ 1]))
    leave(left)
    assert _philox_state(left) != _philox_state(
        RngSeed(seed, stream ^ 1).generator())
    gen = _rekeyed(seed, stream, leave)
    fresh = RngSeed(seed, stream).generator()
    assert _philox_state(gen) == _philox_state(fresh)
    assert gen.standard_normal(1000).tobytes() == \
        fresh.standard_normal(1000).tobytes()
    assert gen.integers(2**63, size=100).tobytes() == \
        fresh.integers(2**63, size=100).tobytes()
    # the samplers draw from a given Generator as from the RngSeed
    want = random_mixed_hs(4, RngSeed(seed, stream), dims=(2, 2))
    got = random_mixed_hs(4, _rekeyed(seed, stream, leave), dims=(2, 2))
    assert got.matrix.tobytes() == want.matrix.tobytes()
    assert got.spectrum.tobytes() == want.spectrum.tobytes()
    want = random_pure_fs(4, RngSeed(seed, stream), dims=(2, 2))
    got = random_pure_fs(4, _rekeyed(seed, stream, leave), dims=(2, 2))
    assert got.amplitudes.tobytes() == want.amplitudes.tobytes()


def test_zero_counter_is_read_only_and_stays_zero():
    # every generator() starts Philox from this array; Philox copies it
    counter = states._ZERO_COUNTER
    assert counter.dtype == np.uint64 and counter.shape == (4,)
    assert not counter.flags.writeable
    rng = RngSeed(3, 9).generator()
    rng.standard_normal(1000)
    assert rng.bit_generator.state["state"]["counter"].any()
    assert counter.tobytes() == bytes(32)
    with pytest.raises(ValueError):
        counter[0] = 1


def test_philox_key_serves_only_a_philox_key_request():
    key = states._philox_key_type()(np.array([1, 2], dtype=np.uint64))
    with pytest.raises(ValueError):
        key.generate_state(4, np.uint64)   # what PCG64 asks for
    with pytest.raises(ValueError):
        key.generate_state(2, np.uint32)


def _literal_gaussian(rng, shape):
    # the literal Ginibre block: the real block plus 1j times the other
    real, imag = rng.standard_normal((2, *shape))
    return real + 1j * imag


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_samplers_equal_the_literal_formulas_bit_for_bit(seed):
    # 2000 streams of the census size, 200 of each other size
    for d, n in ((4, 2000), (2, 200), (3, 200), (6, 200), (9, 200), (16, 200)):
        for i in range(n):
            stream = RngSeed(seed, i)
            g = _literal_gaussian(stream.generator(), (d, d))
            got = states._complex_gaussian(stream.generator(), (d, d))
            assert got.tobytes() == g.tobytes()
            m = g @ g.conj().T
            m = m / m.trace().real
            assert random_mixed_hs(d, stream).matrix.tobytes() == m.tobytes()
            v = _literal_gaussian(stream.generator(), (d,))
            v = v / np.linalg.norm(v)
            assert random_pure_fs(d, stream).amplitudes.tobytes() == \
                v.tobytes()
