"""Measurement: collapse sampling, observables, and separability.

Measuring a state vector in the standard basis yields outcome j with
probability |c_j|^2 / S where S is the squared norm; the state then
collapses to the basis ket at the sampled index.  Observables are
hermitian matrices; their spectral decomposition comes from LAPACK's
hermitian eigensolver (``np.linalg.eigh``).  A joint state is a product
exactly when its amplitude grid has Schmidt rank one, which is tested
on the grid's two largest singular values.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import DEFAULT_TOL, as_state, euclidean_norm, largest_part, squared_moduli, validate


def random_source(seed: int | None = None) -> np.random.Generator:
    """Seedable stream of uniform draws in [0, 1).

    The same seed always reproduces the same stream, so sampling runs
    are repeatable.  Pass ``None`` for a fresh, entropy-seeded stream.
    """
    return np.random.default_rng(seed)


def basis_distribution(state) -> np.ndarray:
    """Outcome probabilities p_j = |c_j|^2 / S for a standard-basis measurement.

    When S underflows to 0 or overflows to inf for a nonzero state, the
    state is first divided by its ``largest_part``, so any finite state
    has probabilities.
    """
    x = as_state(state)
    w = squared_moduli(x)
    total = float(w.sum())
    if not 0.0 < total < np.inf:
        if not np.any(x):
            raise ValueError("cannot measure the zero vector")
        with np.errstate(under="ignore"):
            w = squared_moduli(x / largest_part(x))
        total = float(w.sum())
    return w / total


def collapse(state, rnd: np.random.Generator) -> tuple[int, np.ndarray]:
    """Sample one measurement outcome and the post-measurement state.

    The outcome index is drawn by inverting the cumulative distribution:
    a uniform draw u lands in the half-open interval [cum[j-1], cum[j]).
    A draw equal to an interval boundary goes to the higher index.  The
    post-measurement state is exactly the basis ket at the outcome.
    """
    p = basis_distribution(state)
    cum = np.cumsum(p)
    u = rnd.random()
    idx = int(np.searchsorted(cum, u, side="right"))
    if idx >= p.shape[0]:  # u beyond cum[-1] by accumulated rounding dust
        idx = p.shape[0] - 1
    post = np.zeros(p.shape[0])
    post[idx] = 1.0
    return idx, post


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Real eigenvalues in ascending order and matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def spectral_decompose(observable, tol: float = DEFAULT_TOL) -> EigenDecomposition:
    """Full eigensystem of a hermitian matrix.

    After the hermitian check the matrix is symmetrised and handed to
    ``np.linalg.eigh``.  Eigenvalues come out real (sorted ascending)
    and the eigenvector columns are orthonormal, with
    A @ v_j = lambda_j * v_j for each column.
    """
    violations = validate(observable, "hermitian", tol)
    if violations:
        raise ValueError("observable must be hermitian: " + "; ".join(violations))
    a = np.asarray(observable, dtype=np.complex128)
    a = (a + a.conj().T) / 2  # kill asymmetry dust within tol
    return EigenDecomposition(*np.linalg.eigh(a))


@dataclass(frozen=True, eq=False)
class SeparabilityResult:
    """Outcome of a product-state test over a two-part split."""

    is_product: bool
    factor_a: np.ndarray | None = None
    factor_b: np.ndarray | None = None


def is_product_state(state, dim_a: int, dim_b: int, tol: float = DEFAULT_TOL) -> SeparabilityResult:
    """Decide whether a combined state factors over a dim_a x dim_b split.

    The amplitudes, reshaped into a dim_a-by-dim_b grid, form a rank-one
    grid exactly when the state is a tensor product.  On the normalized
    grid with singular values s1 >= s2 >= ..., the state counts as a
    product when s1 * s2 <= tol (always, when a side has dimension 1).
    That product bounds every 2x2 minor of the grid, so no minor of a
    state called a product exceeds tol.  For product states the factors
    are read off a maximal-modulus pivot and re-tensor to the input up
    to one overall scalar.
    """
    v = as_state(state)
    if dim_a < 1 or dim_b < 1 or dim_a * dim_b != v.shape[0]:
        raise ValueError(
            f"state of dimension {v.shape[0]} does not split as {dim_a} x {dim_b}"
        )
    with np.errstate(over="ignore"):  # euclidean_norm rescales an overflowed norm
        n = euclidean_norm(v)
    if n == 0.0:
        raise ValueError("cannot test the zero vector")
    grid = (v / n).reshape(dim_a, dim_b)
    sigma = np.linalg.svd(grid, compute_uv=False)
    if sigma.shape[0] > 1 and sigma[0] * sigma[1] > tol:
        return SeparabilityResult(False)
    r, c = np.unravel_index(int(np.argmax(np.abs(grid))), grid.shape)
    factor_a = grid[:, c].copy()
    factor_b = grid[r, :] / grid[r, c]
    return SeparabilityResult(True, factor_a, factor_b)
