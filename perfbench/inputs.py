"""Seeded input generator: matrices, states, circuits and their file forms.

Everything here is a pure function of a ``numpy.random.Generator``, so a
seed fixes every graph file, state file, circuit and observable the
benchmark hands to ketsim.  Graph and state files write each weight as
the repr of a Python float (``.tolist()`` first): a bare ``np.float64``
repr would print ``np.float64(...)``, which the graph parser rightly
rejects.
"""
from __future__ import annotations

import numpy as np

# Gate names a random circuit draws from, with their wire counts.
CIRCUIT_GATES = {"H": 1, "NOT": 1, "I": 1, "CNOT": 2}


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Ginibre matrix, R's diagonal phases fixed."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def birkhoff_stochastic(rng: np.random.Generator, n: int, terms: int) -> np.ndarray:
    """Doubly stochastic matrix: a convex mixture of ``terms`` permutation matrices."""
    weights = rng.dirichlet(np.ones(terms))
    m = np.zeros((n, n))
    cols = np.arange(n)
    for w in weights:
        m[rng.permutation(n), cols] += w
    return m


def functional_graph(rng: np.random.Generator, n: int) -> np.ndarray:
    """Deterministic 0/1 matrix with exactly one 1 per column."""
    m = np.zeros((n, n), dtype=np.int64)
    m[rng.integers(0, n, size=n), np.arange(n)] = 1
    return m


def hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    """Dense complex hermitian observable."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2


def distribution(rng: np.random.Generator, n: int) -> np.ndarray:
    """Probability vector with every entry positive."""
    return rng.dirichlet(np.ones(n))


def amplitudes(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit-norm complex state."""
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def counts(rng: np.random.Generator, n: int) -> np.ndarray:
    """Positive integer marble counts, so no state is the zero vector."""
    return rng.integers(1, 10, size=n)


def random_circuit(rng: np.random.Generator, wires: int, layers: int,
                   entangle_top: bool) -> list[list[str]]:
    """Layers of gate names covering ``wires`` top to bottom, CNOT on adjacent pairs.

    The top wire meets only one-wire gates, except that with
    ``entangle_top`` layers 0 and 1 open with H on the top wire, a
    basis-preserving gate below it, then CNOT across both: the state is
    then entangled across the top-wire split, and local gates cannot undo
    that.  So whether the state factors over that split is fixed by the
    flag, and the separability test's cost with it.
    """
    out = []
    for t in range(layers):
        if entangle_top and t == 0:
            layer, k = ["H", ("NOT", "I")[int(rng.integers(2))]], 2
        elif entangle_top and t == 1:
            layer, k = ["CNOT"], 2
        else:
            layer, k = [("H", "NOT", "I")[int(rng.integers(3))]], 1
        while k < wires:
            if wires - k >= 2 and rng.random() < 0.35:
                name = "CNOT"
            else:
                name = ("H", "NOT", "I")[int(rng.integers(3))]
            layer.append(name)
            k += CIRCUIT_GATES[name]
        out.append(layer)
    return out


def _number_fields(re: float, im: float) -> str:
    return f"{re!r}" if im == 0.0 else f"{re!r} {im!r}"


def graph_text(m: np.ndarray) -> str:
    """Edge-list file for matrix ``m``: entry [dst, src] is the edge src -> dst."""
    dst, src = np.nonzero(m)
    w = m[dst, src].astype(np.complex128)
    fields = map(_number_fields, w.real.tolist(), w.imag.tolist())
    lines = [f"dim {m.shape[0]}"]
    lines += [f"{s} {d} {f}" for s, d, f in zip(src.tolist(), dst.tolist(), fields)]
    return "\n".join(lines) + "\n"


def state_text(v: np.ndarray) -> str:
    """Sparse ``<index> <re> [<im>]`` state file."""
    idx = np.nonzero(v)[0]
    w = v[idx].astype(np.complex128)
    fields = map(_number_fields, w.real.tolist(), w.imag.tolist())
    return "".join(f"{i} {f}\n" for i, f in zip(idx.tolist(), fields))
