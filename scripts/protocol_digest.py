"""Print one sha256 line per protocol and d over outcomes the CLI never
requests: `double_teleport` for every Bell outcome pair at d = 2 and 3,
`erased_protocol` for every Bell outcome and first-step branch, and
every `bell_state` at d = 2 to 8 (beyond d = 3, past the Bell bra
table the protocols build at import).  Then the scalar criteria no CLI
command reaches: one sha256 line each for the `classify` fields (value
and type) and the `correlation_matrix` bytes over fixed HS, isotropic
and decohered states, one line of `verify_locality_observation`
outcomes, one digit each, and one sha256 line of `von_neumann_entropy`
beyond two qubits: erased(k) at the k above, d = 3 isotropic states, the
k = 4 symmetric extension and its (A, B_i) marginals.  Last, one sha256
line of `RngSeed` stream bytes at small and edge keys: 7 normals, a
small `integers` draw (which caches half a word as a uint32), 3 normals.

Usage: PYTHONPATH=src python scripts/protocol_digest.py

Uses only the public API, so the same script runs against any checkout;
`scripts/compare_cli_outputs.sh` cmps its output between two trees.
"""

import hashlib
import itertools

import numpy as np

from triact.channels import apply, local_decohere, make_ad, make_d, make_pd
from triact.criteria import classify, correlation_matrix
from triact.protocols import (bell_state, build_symmetric_extension,
                              double_teleport, erased_protocol,
                              verify_locality_observation)
from triact.qcore import (DensityMatrix, PureState, partial_trace, tensor,
                          von_neumann_entropy)
from triact.states import (RngSeed, erased, isotropic, random_mixed_hs,
                           random_pure_fs)

N_PHI = 40
ERASED_K = (1, 2, 3, 7.5)
BELL_D = range(2, 9)
N_HS, N_FS = 1000, 20
# M - 1 of the tie-band isotropic states
TIE_OFFSETS = (-1e-6, -1e-9, 0.0, 5e-10, 1e-9, 2e-9, 1e-6)
STREAM_KEYS = ((0, 0), (5, 17), (2**64 - 1, 0), (0, 2**64 - 1),
               (2**64 - 1, 2**64 - 1))


def outcome_bytes(out) -> bytes:
    state = out.conditional_state
    return (np.float64(out.success_probability).tobytes()
            + repr(out.outcome_labels).encode()
            + (b"None" if state is None else state.matrix.tobytes()))


def main():
    rng = np.random.default_rng(0)
    for d in (2, 3):
        digest = hashlib.sha256()
        for _ in range(N_PHI):
            v = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
            phi = PureState((d, d), v / np.linalg.norm(v))
            p = float(rng.uniform())
            for pair in itertools.product(range(d * d), repeat=2):
                digest.update(outcome_bytes(double_teleport(phi, p, d, pair)))
        print(f"double_teleport d={d} {digest.hexdigest()}")
    digest = hashlib.sha256()
    for k in ERASED_K:
        for bell in range(4):
            for branch in itertools.product((0, 1), repeat=2):
                digest.update(outcome_bytes(erased_protocol(k, bell, branch)))
    print(f"erased_protocol d=2 {digest.hexdigest()}")
    for d in BELL_D:
        digest = hashlib.sha256()
        for index in range(d * d):
            digest.update(bell_state(d, index).amplitudes.tobytes())
        print(f"bell_state d={d} {digest.hexdigest()}")
    criteria_digests()
    entropy_digest()
    stream_digest()


def tie_band():
    """Isotropic states with M = 2 p^2 around M = 1 and its tie band."""
    return [isotropic(np.sqrt((1 + dm) / 2), 2) for dm in TIE_OFFSETS]


def two_qubit_states():
    """HS states of the census stream, isotropic states across the whole
    p range and in the tie band, and FS states decohered by AD, PD and D
    on an 11-point t grid."""
    states = [random_mixed_hs(4, RngSeed(0, i), dims=(2, 2))
              for i in range(N_HS)]
    states += [isotropic(p, 2) for p in np.linspace(0.0, 1.0, 101)]
    states += tie_band()
    for i in range(N_FS):
        psi = random_pure_fs(4, RngSeed(1, i), dims=(2, 2))
        for make in (make_ad, make_pd, make_d):
            states += [local_decohere(psi, make, float(t))
                       for t in np.linspace(0.0, 1.0, 11)]
    return states


def criteria_digests():
    fields, corr = hashlib.sha256(), hashlib.sha256()
    for rho in two_qubit_states():
        for name, value in vars(classify(rho)).items():
            fields.update(repr((name, type(value).__name__, value)).encode())
        corr.update(correlation_matrix(rho).tobytes())
    print(f"classify {fields.hexdigest()}")
    print(f"correlation_matrix {corr.hexdigest()}")
    # The A-B pair conditioned on C's |0><0| or |+><+|: of isotropic rho
    # around M = 1 with C in |0>, then of FS three-qubit states with A
    # depolarized at t = 0, 0.2 and 0.4.
    keep = np.diag([1.0, 0.0]).astype(complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    cases = [(tensor(rho, DensityMatrix((2,), keep)), keep)
             for rho in tie_band()]
    for i in range(10):
        psi = random_pure_fs(8, RngSeed(2, i), dims=(2, 2, 2))
        for t in (0.0, 0.2, 0.4):
            rho = apply(make_d(t), psi.density_matrix(), 0)
            cases += [(rho, keep), (rho, plus)]
    bits = "".join(str(int(verify_locality_observation(rho, proj, [2],
                                                       {0, 1})))
                   for rho, proj in cases)
    print(f"verify_locality_observation {bits}")


def entropy_digest():
    ext = build_symmetric_extension(4)
    states = [erased(k) for k in ERASED_K]
    states += [isotropic(p, 3) for p in np.linspace(0.0, 1.0, 101)]
    states += [ext] + [partial_trace(ext, {0, i}) for i in range(1, 5)]
    digest = hashlib.sha256()
    for rho in states:
        digest.update(np.float64(von_neumann_entropy(rho)).tobytes())
    print(f"von_neumann_entropy {digest.hexdigest()}")


def stream_digest():
    digest = hashlib.sha256()
    for seed, stream in STREAM_KEYS:
        gen = RngSeed(seed, stream).generator()
        for draw in (gen.standard_normal(7), gen.integers(10),
                     gen.standard_normal(3)):
            digest.update(draw.tobytes())
    print(f"RngSeed {digest.hexdigest()}")


if __name__ == "__main__":
    main()
