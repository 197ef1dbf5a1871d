"""Dense complex linear algebra with regime validation.

States are 1-D numpy arrays; transition matrices are 2-D numpy arrays
indexed so that ``m[i, j]`` is the weight of the edge from vertex ``j``
to vertex ``i`` (columns are sources).  Under that convention ``m @ x``
advances the state ``x`` by one time click.

Integer inputs stay integer throughout (marble counts are never
rounded); float and complex inputs follow numpy promotion.
"""
from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-9

REGIMES = ("deterministic", "stochastic", "quantum", "hermitian")


def _require_finite_numbers(a: np.ndarray, what: str) -> None:
    # bool, integer, float or complex; numpy stores a Python int beyond 64 bits as an object
    if a.dtype.kind not in "biufc":
        raise ValueError(f"{what} entries must be numbers, got dtype {a.dtype}")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} entries must all be finite")


def as_matrix(m) -> np.ndarray:
    """Coerce to a non-empty, finite 2-D array of numbers."""
    a = np.asarray(m)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got an array of ndim {a.ndim}")
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise ValueError(f"matrix must have positive dimensions, got {a.shape[0]}x{a.shape[1]}")
    _require_finite_numbers(a, "matrix")
    return a


def as_state(v) -> np.ndarray:
    """Coerce to a non-empty, finite 1-D array of numbers."""
    a = np.asarray(v)
    if a.ndim != 1:
        raise ValueError(f"expected a 1-D state vector, got an array of ndim {a.ndim}")
    if a.shape[0] == 0:
        raise ValueError("state vector must have positive dimension")
    _require_finite_numbers(a, "state")
    return a


def mat_vec(m, x) -> np.ndarray:
    """Multiply matrix by state: one time click of the dynamics."""
    m = as_matrix(m)
    x = as_state(x)
    if m.shape[1] != x.shape[0]:
        raise ValueError(
            f"dimension mismatch: matrix is {m.shape[0]}x{m.shape[1]}, "
            f"state has dimension {x.shape[0]}"
        )
    return m @ x


def mat_mul(a, b) -> np.ndarray:
    """Matrix product ``a @ b`` (apply ``b`` first, then ``a``)."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(
            f"dimension mismatch: cannot multiply {a.shape[0]}x{a.shape[1]} "
            f"by {b.shape[0]}x{b.shape[1]}"
        )
    return a @ b


def _require_boolean(m: np.ndarray, side: str) -> np.ndarray:
    bad = ~((m == 0) | (m == 1))
    if np.any(bad):
        i, j = (int(k[0]) for k in np.nonzero(bad))
        raise ValueError(f"{side} matrix entry [{i},{j}] = {m[i, j]} is not 0 or 1")
    return (m != 0).astype(np.int64)


def bool_mat_mul(a, b) -> np.ndarray:
    """Boolean matrix product: c[i,j] = OR_k (a[i,k] AND b[k,j]).

    Both inputs must have entries in {0, 1}.  The result encodes
    edge-path composition: ``bool_mat_mul(m, m)[i, j]`` is 1 exactly
    when a two-edge path leads from vertex j to vertex i.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(
            f"dimension mismatch: cannot multiply {a.shape[0]}x{a.shape[1]} "
            f"by {b.shape[0]}x{b.shape[1]}"
        )
    ai = _require_boolean(a, "left")
    bi = _require_boolean(b, "right")
    return (ai @ bi > 0).astype(np.int64)


def kron(a, b) -> np.ndarray:
    """Tensor (Kronecker) product with the first factor outermost.

    Index t of the product space decodes as (t // b_dim, t % b_dim),
    so the first argument is the most significant factor.
    """
    return np.kron(as_matrix(a), as_matrix(b))


def adjoint(m) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(m).conj().T


def squared_moduli(a) -> np.ndarray:
    """Entrywise |a|^2 as a float array of any shape; no input checks."""
    if np.iscomplexobj(a):
        return a.real**2 + a.imag**2
    return np.asarray(a, dtype=float) ** 2


def modulus_squared(m) -> np.ndarray:
    """Entrywise |m[i,j]|^2 as a real array."""
    return squared_moduli(as_matrix(m))


def largest_part(x) -> float:
    """Largest |re| or |im| over the entries; finite for finite ``x``, unlike max |x_j|."""
    return float(max(np.max(np.abs(x.real)), np.max(np.abs(x.imag))))


def euclidean_norm(x) -> float:
    """sqrt(sum |x_j|^2) of a 1-D array at any scale; no input checks.

    ``np.linalg.norm`` stands when it is finite and nonzero.  A nonzero
    ``x`` whose norm underflowed to 0 or overflowed to inf is divided by
    its ``largest_part`` and measured again.  A norm beyond the float
    range raises ValueError.
    """
    n = float(np.linalg.norm(x))
    if 0.0 < n < np.inf or not np.any(x):
        return n
    scale = largest_part(x)
    with np.errstate(under="ignore"):
        n = float(np.linalg.norm(x / scale)) * scale
    if n == np.inf:
        raise ValueError("norm exceeds the float range")
    return n


def norm(v) -> float:
    """Euclidean length sqrt(sum |c_j|^2), at any scale the float range holds."""
    v = as_state(v)
    with np.errstate(over="ignore"):  # euclidean_norm rescales an overflowed norm
        return euclidean_norm(v)


def normalize(v) -> np.ndarray:
    """Scale to unit norm.  Rejects the zero vector."""
    v = as_state(v)
    n = norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def validate(m, regime: str, tol: float = DEFAULT_TOL) -> list[str]:
    """Check a square matrix against a regime predicate within a finite ``tol`` >= 0.

    Returns a list of human-readable violations; an empty list means the
    matrix passes.  Regimes:

    - ``deterministic``: entries in {0, 1} with exactly one 1 per column
      (every vertex has exactly one outgoing edge);
    - ``stochastic``: real entries in [0, 1], every row and column
      summing to 1 within ``tol`` (doubly stochastic);
    - ``quantum``: unitary, max |(m† m - I)| <= tol;
    - ``hermitian``: max |m - m†| <= tol.
    """
    m = as_matrix(m)
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}, expected one of {REGIMES}")
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be at least 0 and finite, got {tol}")
    if m.shape[0] != m.shape[1]:
        raise ValueError(
            f"{regime} validation requires a square matrix, got {m.shape[0]}x{m.shape[1]}"
        )
    if regime == "deterministic":
        return _validate_deterministic(m)
    if regime == "stochastic":
        return _validate_stochastic(m, tol)
    if regime == "quantum":
        return _validate_quantum(m, tol)
    return _validate_hermitian(m, tol)


def _validate_deterministic(m: np.ndarray) -> list[str]:
    violations = []
    bad = ~((m == 0) | (m == 1))
    for i, j in zip(*np.nonzero(bad)):
        violations.append(f"entry [{i},{j}] = {m[i, j]} is not 0 or 1")
    if violations:
        return violations
    ones_per_column = (m == 1).sum(axis=0)
    for j, count in enumerate(ones_per_column):
        if count != 1:
            violations.append(f"column {j} has {count} ones, expected exactly 1")
    return violations


def _validate_stochastic(m: np.ndarray, tol: float) -> list[str]:
    violations = []
    if np.iscomplexobj(m):
        for i, j in zip(*np.nonzero(np.abs(m.imag) > tol)):
            violations.append(f"entry [{i},{j}] = {m[i, j]} is not real")
        if violations:
            return violations
    re = m.real.astype(float)
    for i, j in zip(*np.nonzero((re < -tol) | (re > 1 + tol))):
        violations.append(f"entry [{i},{j}] = {re[i, j]} lies outside [0, 1]")
    for i, s in enumerate(re.sum(axis=1)):
        if abs(s - 1) > tol:
            violations.append(f"row {i} sums to {s}, expected 1")
    for j, s in enumerate(re.sum(axis=0)):
        if abs(s - 1) > tol:
            violations.append(f"column {j} sums to {s}, expected 1")
    return violations


def _max_abs_entry(d: np.ndarray) -> tuple[float, int, int]:
    flat = np.abs(d)
    i, j = np.unravel_index(int(np.argmax(flat)), d.shape)
    return float(flat[i, j]), int(i), int(j)


def _validate_quantum(m: np.ndarray, tol: float) -> list[str]:
    d = m.conj().T @ m - np.eye(m.shape[0])
    dev, i, j = _max_abs_entry(d)
    if dev > tol:
        return [f"not unitary: adjoint product deviates from identity by {dev:.6g} at entry [{i},{j}]"]
    return []


def _validate_hermitian(m: np.ndarray, tol: float) -> list[str]:
    d = m - m.conj().T
    dev, i, j = _max_abs_entry(d)
    if dev > tol:
        return [f"not hermitian: differs from own adjoint by {dev:.6g} at entry [{i},{j}]"]
    return []
