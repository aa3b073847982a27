"""Print one sha256 line per protocol and d over outcomes the CLI never
requests: `double_teleport` for every Bell outcome pair at d = 2 and 3,
`erased_protocol` for every Bell outcome and first-step branch, and
every `bell_state` at d = 2 and 3.

Usage: PYTHONPATH=src python scripts/protocol_digest.py

Uses only the public API, so the same script runs against any checkout;
`scripts/compare_cli_outputs.sh` cmps its output between two trees.
"""

import hashlib
import itertools

import numpy as np

from triact.protocols import bell_state, double_teleport, erased_protocol
from triact.qcore import PureState

N_PHI = 40
ERASED_K = (1, 2, 3, 7.5)


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
    for d in (2, 3):
        digest = hashlib.sha256()
        for index in range(d * d):
            digest.update(bell_state(d, index).amplitudes.tobytes())
        print(f"bell_state d={d} {digest.hexdigest()}")


if __name__ == "__main__":
    main()
