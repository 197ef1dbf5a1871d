"""Seeded random inputs and plain reference rules shared by the test modules, one copy of each.

Each generator draws from the ``numpy.random.Generator`` it is given, in a
fixed order, so a seeded test sees the same inputs on every run.
"""
import numpy as np


def random_unitary(rng, n):
    """A Haar-random n x n unitary: the QR factor of a complex Gaussian matrix, its phases fixed."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_doubly_stochastic(rng, n, terms=4):
    """A Birkhoff mixture: Dirichlet weights on ``terms`` random n x n permutation matrices."""
    m = np.zeros((n, n))
    for w in rng.dirichlet(np.ones(terms)):
        m += w * np.eye(n)[rng.permutation(n)]
    return m


def random_function_graph(rng, n):
    """A 0/1 matrix with exactly one 1 per column: a function on vertices."""
    m = np.zeros((n, n), dtype=np.int64)
    for src in range(n):
        m[int(rng.integers(n)), src] = 1
    return m


def reference_column_map(m):
    """Each column's argmax when every entry is 0 or 1 and each column holds exactly one 1; else None."""
    m = np.asarray(m)
    if np.isin(m, (0, 1)).all() and ((m == 1).sum(axis=0) == 1).all():
        return m.argmax(axis=0)
    return None
