"""Reference literals shared by several test modules, each written out
once, independent of the package code the tests check."""

import numpy as np


def weyl(d, k):
    """The Heisenberg-Weyl unitary X^a Z^b, k = a*d + b, written out: X
    the cyclic shift |j> -> |j + 1>, Z the clock diag(omega^j)."""
    a, b = divmod(k, d)
    x = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    z = np.diag(np.exp(2j * np.pi / d) ** np.arange(d))
    return np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)


def haar_unitary(rng, d=2):
    """A Haar-random d x d unitary: the Q of a complex Ginibre matrix, its
    columns' phases fixed by the diagonal of R."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))
