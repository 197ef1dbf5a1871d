"""Regime-tagged systems evolving state vectors over discrete time clicks.

A system is a square transition matrix tagged with one of three regimes:

- ``deterministic``: 0/1 matrix moving integer counts along edges;
- ``stochastic``: doubly stochastic matrix moving probability mass;
- ``quantum``: unitary matrix moving complex amplitudes.

Strict systems verify the regime predicate at construction.  ``evolve``
checks the state once on entry, sanity checks each strict click's input
state, and refuses a result that is not finite.  Unchecked systems skip
the regime checks, which lets the double-slit toy matrices (deliberately
non-conforming: they drop the edges that would make them
stochastic/unitary) run as-is.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import DEFAULT_TOL, as_matrix, as_state, bool_mat_mul, euclidean_norm, validate

MODES = ("strict", "unchecked")

_DYNAMIC_REGIMES = ("deterministic", "stochastic", "quantum")


def _coerce_regime_matrix(m: np.ndarray, regime: str) -> np.ndarray:
    if regime == "quantum":
        return m.astype(np.complex128)
    if np.iscomplexobj(m):
        if np.any(m.imag != 0):
            raise ValueError(f"{regime} matrix entries must be real")
        m = m.real
    if regime == "stochastic":
        return m.astype(np.float64)
    # deterministic: keep exact integer arithmetic whenever possible
    if np.issubdtype(m.dtype, np.integer):
        return m.astype(np.int64)
    if np.all(m == np.round(m)):
        return np.round(m).astype(np.int64)
    return m.astype(np.float64)


@dataclass(frozen=True, eq=False)
class RegimeSystem:
    """A square transition matrix with a regime tag and validation mode."""

    regime: str
    matrix: np.ndarray
    mode: str = "strict"
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.regime not in _DYNAMIC_REGIMES:
            raise ValueError(
                f"unknown regime {self.regime!r}, expected one of {_DYNAMIC_REGIMES}"
            )
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        m = as_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"system matrix must be square, got {m.shape[0]}x{m.shape[1]}")
        m = _coerce_regime_matrix(m, self.regime).copy()
        if self.mode == "strict":
            violations = validate(m, self.regime, self.tol)
            if violations:
                raise ValueError(
                    f"matrix fails {self.regime} validation: " + "; ".join(violations)
                )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _check_strict_state(sys: RegimeSystem, x: np.ndarray) -> np.ndarray:
    """Regime sanity checks applied to inputs of strict systems.

    Deterministic states must be non-negative integer counts, stochastic
    states must be distributions, and quantum states are normalized here
    when they arrive with a norm other than 1.
    """
    if sys.regime == "deterministic":
        if np.iscomplexobj(x) or np.any(x != np.floor(x)) or np.any(x < 0):
            raise ValueError("deterministic state must hold non-negative integer counts")
        return x.astype(np.int64)
    if sys.regime == "stochastic":
        if np.iscomplexobj(x):
            raise ValueError("stochastic state must be real")
        x = x.astype(np.float64)
        if np.any(x < -sys.tol) or np.any(x > 1 + sys.tol):
            raise ValueError("stochastic state entries must lie in [0, 1]")
        total = float(x.sum())
        if abs(total - 1) > sys.tol:
            raise ValueError(f"stochastic state sums to {total}, expected 1")
        return x
    x = x.astype(np.complex128)
    n = euclidean_norm(x)  # its overflow warning is silenced by evolve's errstate
    if n == 0.0:
        raise ValueError("quantum state must be nonzero")
    if abs(n - 1) > sys.tol:
        x = x / n
    return x


def step(sys: RegimeSystem, state) -> np.ndarray:
    """One time click: ``evolve(sys, state, 1)``."""
    return evolve(sys, state, 1)


def evolve(sys: RegimeSystem, state, steps: int) -> np.ndarray:
    """Apply ``steps`` successive time clicks.  ``steps=0`` is the identity.

    The state is checked once on entry, and so is the exact total count
    of a strict deterministic run (int64 must hold it); a strict system
    checks each click's input state; a result that is not finite raises
    ValueError, not a numpy warning.
    """
    if isinstance(steps, (bool, np.bool_)) or steps < 0 or steps != int(steps):
        raise ValueError(f"steps must be a non-negative integer, got {steps}")
    x = as_state(state)
    if x.shape[0] != sys.dim:
        raise ValueError(f"state has dimension {x.shape[0]}, system expects {sys.dim}")
    if steps and sys.mode == "strict" and sys.regime == "deterministic" and not np.iscomplexobj(x):
        # a strict click conserves the total and bounds each count by it, so int64 holds every click
        total = sum(map(int, x.tolist()))
        if total >= 2**63:
            raise ValueError(f"deterministic counts total {total}, more than int64 holds")
    with np.errstate(over="ignore", invalid="ignore"):  # the finite check below reports it
        for _ in range(int(steps)):
            if sys.mode == "strict":
                x = _check_strict_state(sys, x)
            x = sys.matrix @ x
    if not np.all(np.isfinite(x)):
        raise ValueError("state entries must all be finite")
    return x.copy() if x is state else x


def compose_sequential(first: RegimeSystem, second: RegimeSystem) -> RegimeSystem:
    """System performing ``first`` then ``second`` in one click.

    The deterministic regime composes edges as boolean paths; the other
    regimes use the ordinary matrix product ``second @ first``.
    """
    if first.regime != second.regime:
        raise ValueError(
            f"cannot compose {first.regime} system with {second.regime} system"
        )
    if first.dim != second.dim:
        raise ValueError(
            f"dimension mismatch: {first.dim} versus {second.dim}"
        )
    if first.regime == "deterministic":
        m = bool_mat_mul(second.matrix, first.matrix)
    else:
        m = second.matrix @ first.matrix
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
    return RegimeSystem(a.regime, np.kron(a.matrix, b.matrix), mode=mode, tol=min(a.tol, b.tol))


def state_tensor(a, b) -> np.ndarray:
    """Combined state of two independent systems: out[i*m + j] = a[i]*b[j]."""
    return np.kron(as_state(a), as_state(b))
