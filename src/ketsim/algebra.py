"""Dense complex linear algebra with regime validation.

States are 1-D numpy arrays; transition matrices are 2-D numpy arrays
indexed so that ``m[i, j]`` is the weight of the edge from vertex ``j``
to vertex ``i`` (columns are sources).  Under that convention ``m @ x``
advances the state ``x`` by one time click.

Integer inputs stay integer throughout (marble counts are never
rounded), and integer products are exact or refused; float and complex
inputs follow numpy promotion, and their products are finite or refused.
"""
from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-9

_TINY, _MAX = float(np.finfo(float).tiny), float(np.finfo(float).max)

REGIMES = ("deterministic", "stochastic", "quantum", "hermitian")

NAMED_VIOLATIONS = 10  # a refusal names this many violations and counts the rest


def _require_finite_numbers(a: np.ndarray, what: str) -> None:
    # bool, integer, float or complex; numpy stores a Python int beyond 64 bits as an object
    if a.dtype.kind not in "biufc":
        raise ValueError(f"{what} entries must be numbers, got dtype {a.dtype}")
    if a.dtype.kind in "fc" and not np.isfinite(a).all():  # a bool or integer holds no inf or nan
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


def as_count(value, name: str) -> int:
    """Coerce a count (clicks, shots, wires) to an int: any int, numpy integer or integral float."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 0:
        return int(value)
    if isinstance(value, (float, np.floating)) and value >= 0 and float(value).is_integer():
        return int(value)
    raise ValueError(f"{name} must be a non-negative integer, got {value}")


def as_tolerance(value) -> float:
    """Coerce a tolerance to a float: any int, float or numpy real (not a bool), finite and >= 0."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    finite = real and (value <= _MAX if isinstance(value, int) else np.isfinite(float(value)))
    if finite and value >= 0:
        return float(value)
    raise ValueError(f"tolerance must be at least 0 and finite, got {value}")


def _limit(op, left: np.ndarray, dtype: np.dtype) -> float:
    """L such that ``op(left, right)`` fits integer ``dtype`` whenever max |right| < L."""
    a = np.abs(left, dtype=np.float64)  # in float64: int64 holds no |-2**63|
    # n * 2**-50 is 8n ulps: more than the n + 4 that the float64 sum, products and quotient round
    bound = float((a.sum(axis=1) if op is np.matmul else a).max()) * (1 + left.shape[-1] * 2.0**-50)
    return (np.iinfo(dtype).max + 1.0) / bound if bound else np.inf


def _product(op, left: np.ndarray, right: np.ndarray, limit: float | None = None) -> np.ndarray:
    """``op(left, right)`` for np.matmul, np.kron or ``_kron`` (or any product, on float operands):
    exact and finite, or ValueError.

    The one product rule: an integer product that ``_limit`` cannot clear is redone in Python
    ints, and a result that is not finite is refused, with no numpy warning either way.
    """
    dtype, noun = np.result_type(left, right), "state" if right.ndim == 1 else "matrix"
    if dtype.kind in "iu":  # an integer product would wrap silently
        limit = _limit(op, left, dtype) if limit is None else limit
        if float(np.abs(right, dtype=np.float64).max()) < limit:
            return op(left, right)
        out, info = op(left.astype(object), right.astype(object)), np.iinfo(dtype)  # in Python ints
        if info.min <= out.min() and out.max() <= info.max:
            return out.astype(dtype)
        raise ValueError(f"{noun} entries exceed what {dtype} holds")
    with np.errstate(over="ignore", invalid="ignore"):  # a result that is not finite is refused
        out = op(left, right)
    _require_finite_numbers(out, noun)
    return out


def mat_vec(m, x) -> np.ndarray:
    """Multiply matrix by state: one time click of the dynamics."""
    m = as_matrix(m)
    x = as_state(x)
    if m.shape[1] != x.shape[0]:
        raise ValueError(
            f"dimension mismatch: matrix is {m.shape[0]}x{m.shape[1]}, "
            f"state has dimension {x.shape[0]}"
        )
    return _product(np.matmul, m, x)


def _product_operands(a, b) -> tuple[np.ndarray, np.ndarray]:
    a, b = as_matrix(a), as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: cannot multiply {a.shape[0]}x{a.shape[1]} "
                         f"by {b.shape[0]}x{b.shape[1]}")
    return a, b


def mat_mul(a, b) -> np.ndarray:
    """Matrix product ``a @ b`` (apply ``b`` first, then ``a``)."""
    return _product(np.matmul, *_product_operands(a, b))


def _non_boolean_entries(m: np.ndarray) -> np.ndarray:
    """Row-major [i, j] index pairs of the entries that are neither 0 nor 1."""
    return np.argwhere((m != 0) & (m != 1))


def _column_map(m: np.ndarray) -> np.ndarray | None:
    """``dst``, the row of each column's 1, when ``m`` is 0/1 with exactly one 1 per column; else None.

    Each column's largest entry is 1 and ``m`` holds as many nonzeros as columns, so that 1 is each
    column's only nonzero and sum_i i·m[i, j] is its row: three reductions, no array of m's shape.
    """
    if np.count_nonzero(m) != m.shape[1] or not (m.max(axis=0) == 1).all():
        return None
    return np.einsum("i,ij->j", np.arange(m.shape[0]), m).real.astype(np.intp)


def _require_boolean(m: np.ndarray, side: str) -> np.ndarray:
    bad = _non_boolean_entries(m)
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"{side} matrix entry [{i},{j}] = {m[i, j]} is not 0 or 1")
    return (m != 0).astype(np.int64)


def bool_mat_mul(a, b) -> np.ndarray:
    """Boolean matrix product: c[i,j] = OR_k (a[i,k] AND b[k,j]).

    Both inputs must have entries in {0, 1}.  The result encodes
    edge-path composition: ``bool_mat_mul(m, m)[i, j]`` is 1 exactly
    when a two-edge path leads from vertex j to vertex i.
    """
    a, b = _product_operands(a, b)
    return (_require_boolean(a, "left") @ _require_boolean(b, "right") > 0).astype(np.int64)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices, bit for bit: one multiply, the longer column axis innermost.

    Entry [r·k + m, c·l + n] of the join of a (i, j) and b (k, l) is
    a[r, c]·b[m, n], written into the (i, k, j, l) view of a new C-ordered
    output, with b's l columns innermost, or a's j columns when l < j.  Joins
    run in ``kron``, ``parallel``, ``compose_parallel`` and product gates,
    inside a cut circuit's sides, and on the first read of its ``matrix``.
    """
    (i, j), (k, l) = a.shape, b.shape
    out = np.empty((i, k, j, l), np.result_type(a, b))
    if l < j:
        np.multiply(a[:, None, None, :], b[None, :, :, None], out=out.transpose(0, 1, 3, 2), order="C")
    else:
        np.multiply(a[:, None, :, None], b[None, :, None, :], out=out, order="C")
    return out.reshape(i * k, j * l)


def kron(a, b) -> np.ndarray:
    """Tensor (Kronecker) product with the first factor outermost.

    Index t of the product space decodes as (t // b_dim, t % b_dim),
    so the first argument is the most significant factor.  The result is
    np.kron's, byte for byte.
    """
    return _product(_kron, as_matrix(a), as_matrix(b))


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


def rescaled(x) -> tuple[np.ndarray, float]:
    """A nonzero ``x`` over its largest |re| or |im| (finite, unlike max |x_j|), and that scale"""
    scale = float(max(np.max(np.abs(x.real)), np.max(np.abs(x.imag))))
    # the parts apart: numpy divides a complex array by multiplying with 1 / scale, inf below 6e-309
    with np.errstate(under="ignore"):
        y = x.real / scale + 1j * (x.imag / scale) if np.iscomplexobj(x) else x / scale
    return y, scale


def stands(sum_of_squares: float) -> bool:
    """Whether a plain result stands: its sum of squares is a normal float, neither tiny nor inf."""
    return _TINY <= sum_of_squares < np.inf


def euclidean_norm(x) -> float:
    """sqrt(sum |x_j|^2) of a 1-D array at any scale; no input checks.

    ``np.linalg.norm`` stands when its square is a normal float.  Any
    other nonzero ``x`` is measured ``rescaled``.  A norm beyond the
    float range raises ValueError.
    """
    n = float(np.linalg.norm(x))
    if stands(n * n) or not np.any(x):
        return n
    y, scale = rescaled(x)
    n = float(np.linalg.norm(y)) * scale
    if n == np.inf:
        raise ValueError("norm exceeds the float range")
    return n


def unit(x, n: float) -> np.ndarray:
    """``x / n`` for a nonzero ``x`` of norm n; redone at any scale when n does not stand."""
    if stands(n * n):
        return x / n
    y = rescaled(x)[0]
    return y / np.linalg.norm(y)


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
    return unit(v, n)


def validate(m, regime: str, tol: float = DEFAULT_TOL, *, limit: int | None = None) -> list[str]:
    """Check a square matrix against a regime predicate within a finite ``tol`` >= 0.

    Returns a list of human-readable violations; an empty list means the
    matrix passes.  With a ``limit``, only the first ``limit`` violations
    are formatted and one last entry counts the rest (``and N more``), so
    a refusal of a large matrix costs array work, not a string for each
    violation.  Regimes:

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
    tol = as_tolerance(tol)
    limit = None if limit is None else as_count(limit, "limit")
    if m.shape[0] != m.shape[1]:
        raise ValueError(
            f"{regime} validation requires a square matrix, got {m.shape[0]}x{m.shape[1]}"
        )
    if regime == "deterministic":
        return _validate_deterministic(m, limit)
    if regime == "quantum":
        return _largest(_unitary_deviation(m), tol, "unitary: adjoint product deviates from identity")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed deviation reads inf: refused
        if regime == "stochastic":
            return _validate_stochastic(m, tol, limit)
        return _largest(_max_abs_entry(m - m.conj().T), tol, "hermitian: differs from own adjoint")


def refuse(m, regime: str, tol: float, prefix: str) -> None:
    """Raise ValueError(prefix + the violations joined by "; ") when ``m`` fails ``regime``.

    Every check that refuses a matrix raises here.  Past ``NAMED_VIOLATIONS``
    the rest are counted, not named or formatted, so the message stays short
    and quick for a large matrix that breaks a rule everywhere.
    """
    violations = validate(m, regime, tol, limit=NAMED_VIOLATIONS)
    if violations:
        raise ValueError(prefix + "; ".join(violations))


def _listed(groups, limit: int | None) -> list[str]:
    """Violations from ``(where, say)`` groups in order, naming at most ``limit`` and counting the rest.

    ``where`` holds a violation's indices in each row (from ``np.argwhere``)
    and ``say`` formats one of them; only the named ones are formatted.
    """
    named, total = [], 0
    for where, say in groups:
        total += len(where)
        room = len(where) if limit is None else max(limit - len(named), 0)
        named += [say(*index) for index in where[:room]]
    more = total - len(named)
    return named + [f"and {more} more"] if more > 0 else named


def _validate_deterministic(m: np.ndarray, limit: int | None) -> list[str]:
    """A column map (``_column_map``) passes; only a matrix that is not one has its violations listed."""
    if _column_map(m) is not None:
        return []
    bad = _non_boolean_entries(m)
    if bad.size:
        return _listed([(bad, lambda i, j: f"entry [{i},{j}] = {m[i, j]} is not 0 or 1")], limit)
    ones = (m == 1).sum(axis=0)
    return _listed([(np.argwhere(ones != 1),
                     lambda j: f"column {j} has {ones[j]} ones, expected exactly 1")], limit)


def _validate_stochastic(m: np.ndarray, tol: float, limit: int | None) -> list[str]:
    """The stochastic violations of ``m``: imaginary parts past ``tol``, or else entries outside
    [0, 1] and row and column sums off 1 by more than ``tol``.

    A clean matrix passes on whole-array reductions (the extremes of its
    parts and of its sums' deviations); the listing of each violation's
    indices is built only when one exists.
    """
    if np.iscomplexobj(m) and not -tol <= m.imag.min() <= m.imag.max() <= tol:
        unreal = np.argwhere(np.abs(m.imag) > tol)
        return _listed([(unreal, lambda i, j: f"entry [{i},{j}] = {m[i, j]} is not real")], limit)
    re = np.asarray(m.real, dtype=np.float64)  # in place: a float64 matrix is read, not copied
    rows, columns = re.sum(axis=1), re.sum(axis=0)
    if (-tol <= re.min() and re.max() <= 1 + tol
            and np.abs(rows - 1).max() <= tol and np.abs(columns - 1).max() <= tol):
        return []
    return _listed([
        (np.argwhere((re < -tol) | (re > 1 + tol)),
         lambda i, j: f"entry [{i},{j}] = {re[i, j]} lies outside [0, 1]"),
        (np.argwhere(np.abs(rows - 1) > tol), lambda i: f"row {i} sums to {rows[i]}, expected 1"),
        (np.argwhere(np.abs(columns - 1) > tol),
         lambda j: f"column {j} sums to {columns[j]}, expected 1"),
    ], limit)


def _max_abs_entry(d: np.ndarray) -> tuple[float, int, int]:
    flat = np.abs(d)
    i, j = np.unravel_index(int(np.argmax(flat)), d.shape)
    return float(flat[i, j]), int(i), int(j)


def _unitary_deviation(m: np.ndarray) -> tuple[float, int, int]:
    """max |(m† m - I)[i, j]|, computed, and where it lies; an overflowed product reads inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _max_abs_entry(m.conj().T @ m - np.eye(m.shape[0]))


def _largest(deviation: tuple[float, int, int], tol: float, words: str) -> list[str]:
    """The one violation of a rule measured by its largest deviation, when that exceeds ``tol``."""
    dev, i, j = deviation
    return [f"not {words} by {dev:.6g} at entry [{i},{j}]"] if dev > tol else []
