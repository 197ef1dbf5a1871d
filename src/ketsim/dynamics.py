"""Regime-tagged systems evolving state vectors over discrete time clicks.

A system is a square transition matrix tagged with one of three regimes:

- ``deterministic``: 0/1 matrix moving integer counts along edges;
- ``stochastic``: doubly stochastic matrix moving probability mass;
- ``quantum``: unitary matrix moving complex amplitudes.

Strict systems verify the regime predicate at construction.  ``evolve``
checks the state once on entry, sanity checks the strict click inputs
that can be wrong, and refuses a result that is not finite.  Unchecked systems skip
the regime checks, which lets the double-slit toy matrices (deliberately
non-conforming: they drop the edges that would make them
stochastic/unitary) run as-is.

A strict deterministic matrix is a function on vertices, ``dst[j]`` = the
row of column j's 1, so a strict deterministic run of k clicks is that
function raised to the k-th power by repeated squaring and one exact
integer scatter: O(dim · log k).  A strict stochastic or quantum run
clicks in blocks into one buffer and tests a block's click inputs
together, in a few whole-block reductions and with a margin that makes
the block test stricter than the per-state check; only an input the
block test does not pass gets the exact check, so every click's input
is checked as if one at a time.  The block test's constants are set once
per system, when it is built, and a run binds its product once, so a
click costs one BLAS call.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (DEFAULT_TOL, _column_map, _kron, _limit, _product, _require_finite_numbers, as_count,
                      as_matrix, as_state, as_tolerance, euclidean_norm, refuse, unit)

MODES = ("strict", "unchecked")

_DYNAMIC_REGIMES = ("deterministic", "stochastic", "quantum")

# A strict stochastic or quantum run clicks in blocks of up to _MAX_BLOCK clicks (a buffer of at
# most 64 KiB at dim 64), starting at one: a run of a few clicks costs what one click at a time
# would.  A clean block doubles the next; a flagged click ends its block.  The block test's
# constants are set once per system (RegimeSystem._bounds), and a run binds its product once.
_MAX_BLOCK = 64
_BLOCK_TOL = 2.0**-10  # the block test's tolerance is at most this: a tighter test only flags more


def _coerce_regime_matrix(m: np.ndarray, regime: str) -> np.ndarray:
    if regime == "quantum":
        return m.astype(np.complex128)
    if np.iscomplexobj(m):
        if np.any(m.imag != 0):
            raise ValueError(f"{regime} matrix entries must be real")
        m = m.real
    # deterministic: int64 exactly when every entry is an integer that int64 holds
    integral = regime == "deterministic" and (m.dtype.kind in "biu" or np.all(m == np.round(m)))
    if integral and -(2**63) <= int(m.min()) and int(m.max()) < 2**63:
        return m.astype(np.int64)
    return m.astype(np.float64)


@dataclass(frozen=True, eq=False)
class RegimeSystem:
    """A square transition matrix with a regime tag and validation mode."""

    regime: str
    matrix: np.ndarray
    mode: str = "strict"
    tol: float = DEFAULT_TOL
    _dst: np.ndarray | None = field(default=None, init=False, repr=False)  # strict deterministic
    _bounds: tuple | None = field(default=None, init=False, repr=False)  # strict stochastic or quantum

    def __post_init__(self):
        if self.regime not in _DYNAMIC_REGIMES:
            raise ValueError(
                f"unknown regime {self.regime!r}, expected one of {_DYNAMIC_REGIMES}"
            )
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        object.__setattr__(self, "tol", as_tolerance(self.tol))
        m = as_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"system matrix must be square, got {m.shape[0]}x{m.shape[1]}")
        m = _coerce_regime_matrix(m, self.regime)  # a new array: never the caller's
        # strict deterministic: dst[j] is the row of column j's 1; refuse only words a failure
        dst = _column_map(m) if self.mode == "strict" and self.regime == "deterministic" else None
        if self.mode == "strict" and dst is None:
            refuse(m, self.regime, self.tol, f"matrix fails {self.regime} validation: ")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if dst is not None:
            dst.setflags(write=False)
            object.__setattr__(self, "_dst", dst)
        elif self.mode == "strict":
            object.__setattr__(self, "_bounds", _block_bounds(self.regime, self.tol, m.shape[0]))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _check_strict_state(sys: RegimeSystem, x: np.ndarray) -> np.ndarray:
    """Regime sanity checks applied to inputs of strict systems.

    Deterministic states must be non-negative integer counts whose total
    int64 holds, stochastic states must be distributions, and quantum
    states are normalized here when they arrive with a norm other than 1.
    """
    if sys.regime == "deterministic":
        # a strict click conserves the total and bounds each count by it, so int64 holds every click
        if not np.iscomplexobj(x) and (total := sum(map(int, x.tolist()))) >= 2**63:
            raise ValueError(f"deterministic counts total {total}, more than int64 holds")
        if np.iscomplexobj(x) or np.any(x != np.floor(x)) or np.any(x < 0):
            raise ValueError("deterministic state must hold non-negative integer counts")
        return x.astype(np.int64)
    if sys.regime == "stochastic":
        if np.iscomplexobj(x):
            raise ValueError("stochastic state must be real")
        x = x.astype(np.float64, copy=False)  # converts only a caller's state, not a click's
        if np.any(x < -sys.tol) or np.any(x > 1 + sys.tol):
            raise ValueError("stochastic state entries must lie in [0, 1]")
        total = float(x.sum())
        if abs(total - 1) > sys.tol:
            raise ValueError(f"stochastic state sums to {total}, expected 1")
        return x
    x = x.astype(np.complex128, copy=False)
    n = euclidean_norm(x)  # its overflow warning is silenced by evolve's errstate
    if n == 0.0:
        raise ValueError("quantum state must be nonzero")
    if abs(n - 1) > sys.tol:
        x = unit(x, n)
    return x


def step(sys: RegimeSystem, state) -> np.ndarray:
    """One time click: ``evolve(sys, state, 1)``."""
    return evolve(sys, state, 1)


def evolve(sys: RegimeSystem, state, steps: int) -> np.ndarray:
    """Apply ``steps`` successive time clicks.  ``steps=0`` is the identity.

    The state is checked once on entry.  A strict system checks each
    click's input, but a deterministic one only the first: its validated
    0/1 matrix keeps valid counts valid, so its run is the click function
    raised to the ``steps``-th power, O(dim · log steps), and one exact
    scatter of the counts.  A strict stochastic or quantum run clicks in
    blocks and checks each block's click inputs together
    (``_checked_clicks``), with the same results and refusals as checking
    them one at a time.  An unchecked run's clicks are each exact and
    finite, or refused at the first that is not (``_product``).  A result
    that is not finite, or unchecked counts that int64 does not hold, raise
    ValueError, no warning.
    """
    steps = as_count(steps, "steps")
    x = as_state(state)
    if x.shape[0] != sys.dim:
        raise ValueError(f"state has dimension {x.shape[0]}, system expects {sys.dim}")
    if steps == 0:
        return x.copy() if x is state else x
    if sys._dst is not None:  # strict deterministic: the entry check bounds every count below 2**63
        out = np.zeros(sys.dim, dtype=np.int64)
        np.add.at(out, _power(sys._dst, steps), _check_strict_state(sys, x))
        return out
    if sys.mode == "unchecked":
        dtype = np.result_type(sys.matrix, x)
        limit = _limit(np.matmul, sys.matrix, dtype) if dtype.kind in "iu" else None  # once per call
        for _ in range(steps):
            x = _product(np.matmul, sys.matrix, x, limit)
        return x
    with np.errstate(over="ignore", invalid="ignore"):  # the finite check below reports it
        # strict stochastic or quantum: the caller's state is checked here, later click inputs in blocks
        x = sys.matrix @ _checked_clicks(sys, _check_strict_state(sys, x), steps - 1)
    _require_finite_numbers(x, "state")
    return x


def _power(f: np.ndarray, k: int) -> np.ndarray:
    """The map f applied k >= 1 times, ``f[f[...f[j]]]``, by repeated squaring: O(len(f) · log k)."""
    out = None
    while True:
        if k & 1:
            out = f if out is None else f[out]
        k >>= 1
        if not k:
            return out
        f = f[f]


def _checked_clicks(sys: RegimeSystem, x: np.ndarray, n: int) -> np.ndarray:
    """``n`` clicks of a strict stochastic or quantum system from a checked input ``x``, each
    click's output checked as the next click's input.

    With ``n == 0`` it returns ``x`` (a strided ``x`` as a contiguous copy,
    as the buffer held it) and builds no buffer.  Otherwise the clicks run
    in blocks through one buffer: row 0 holds a block's input, row i the
    output of its i-th click, and ``_passes`` tests the block's outputs
    together.  It passes only what ``_check_strict_state`` would return
    unchanged.  A run binds ``m.dot`` and pairs each buffer row with the
    next once, so a click is one call ``dot(a, b)``, the same BLAS product
    as ``np.dot(m, a, out=b)``.  At the first output the block test does
    not pass, the run rewinds to that output: the exact check refuses it,
    renormalises it or keeps it, as it would have one click at a time, and
    the next block starts there.
    """
    if not n:
        return np.ascontiguousarray(x)
    m, k, since = sys.matrix, 1, 0  # k: the next block's length
    buf = np.empty((min(n, _MAX_BLOCK) + 1, sys.dim), m.dtype)
    rows = list(buf)  # the row views, made once per run
    dot, pairs = m.dot, list(zip(rows, rows[1:]))  # (input row, output row) of each click in a block
    buf[0] = x
    while n:
        k = min(k, n)
        for a, b in pairs[:k]:
            dot(a, b)
        ok = _passes(sys, buf[1:k + 1])
        i = int(ok.argmin())  # the first output that does not pass, if any does not
        flagged = not ok[i]
        taken = i + 1 if flagged else k
        buf[0] = _check_strict_state(sys, buf[taken]) if flagged else buf[k]
        n -= taken
        if flagged:  # a system that renormalises every few clicks does so about every `since + taken`
            k, since = min(since + taken, _MAX_BLOCK), 0
        else:
            k, since = min(2 * k, _MAX_BLOCK), since + taken
    return buf[0]


def _block_bounds(regime: str, tol: float, dim: int) -> tuple:
    """The constants of ``_passes`` for a strict stochastic or quantum system, set once when it is
    built: ``(eff, eff - slack, ones)`` or ``((1 - eff)**2 + slack, (1 + eff)**2 - slack)``."""
    eff = min(tol, _BLOCK_TOL)
    slack = dim * 2.0**-48 * (1 + dim * eff)
    if regime == "stochastic":
        ones = np.ones(dim)
        ones.setflags(write=False)
        return eff, eff - slack, ones
    return (1 - eff) ** 2 + slack, (1 + eff) ** 2 - slack


def _passes(sys: RegimeSystem, rows: np.ndarray) -> np.ndarray:
    """A mask of the state rows that ``_check_strict_state`` would surely return unchanged.

    The check's range test is repeated exactly, with a tolerance ``eff``
    of at most ``tol``: on the whole block, and row by row only when the
    block holds an entry out of range.  Its sum or norm is computed in
    another order here (a stochastic block's row sums are one product
    with a ones vector), so these are held ``slack`` inside ``eff``: two
    float sums of ``dim`` terms whose moduli add up to S differ by at most
    dim · 2**-52 · S, whatever their order, and S is at most
    2 + 2 · dim · eff for a state in range with total near 1, so ``slack``
    is 8 times that.  A quantum norm is within ``eff`` of 1 when
    its square is within [(1 - eff)**2, (1 + eff)**2].  A row holding nan or
    inf never passes.  The constants are the system's ``_bounds``
    (``_block_bounds``), set once when it was built.
    """
    if sys.regime == "stochastic":
        eff, within, ones = sys._bounds
        ok = np.abs(rows @ ones - 1) <= within
        if not (rows.min() >= -eff and rows.max() <= 1 + eff):  # some row is out of range: which
            ok &= (rows.min(axis=1) >= -eff) & (rows.max(axis=1) <= 1 + eff)
        return ok
    low, high = sys._bounds
    parts = rows.view(np.float64)
    squares = np.einsum("ij,ij->i", parts, parts)
    return (squares >= low) & (squares <= high)


def compose_sequential(first: RegimeSystem, second: RegimeSystem) -> RegimeSystem:
    """System performing ``first`` then ``second`` in one click: ``second @ first``, any regime."""
    if first.regime != second.regime:
        raise ValueError(
            f"cannot compose {first.regime} system with {second.regime} system"
        )
    if first.dim != second.dim:
        raise ValueError(
            f"dimension mismatch: {first.dim} versus {second.dim}"
        )
    m = _product(np.matmul, second.matrix, first.matrix)
    mode = "strict" if (first.mode == "strict" and second.mode == "strict") else "unchecked"
    return RegimeSystem(first.regime, m, mode=mode, tol=min(first.tol, second.tol))


def compose_parallel(a: RegimeSystem, b: RegimeSystem) -> RegimeSystem:
    """Side-by-side combination: the tensor product system.

    The result acts on the product space of dimension a.dim * b.dim,
    with ``a`` as the outer (most significant) factor.
    """
    if a.regime != b.regime:
        raise ValueError(f"cannot combine {a.regime} system with {b.regime} system")
    mode = "strict" if (a.mode == "strict" and b.mode == "strict") else "unchecked"
    m = _product(_kron, a.matrix, b.matrix)
    return RegimeSystem(a.regime, m, mode=mode, tol=min(a.tol, b.tol))


def state_tensor(a, b) -> np.ndarray:
    """Combined state of two independent systems: out[i*m + j] = a[i]*b[j]."""
    return _product(np.kron, as_state(a), as_state(b))
