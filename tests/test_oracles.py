"""Oracles independent of the code they check: the sampler against the
known Hilbert-Schmidt separability probability, and the criteria against
the Peres condition.  The partial transpose is computed here, not through
`criteria`."""

import numpy as np
import pytest

from triact.criteria import classify_batch
from triact.states import RngSeed, random_mixed_hs

N_STATES = 20000


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
