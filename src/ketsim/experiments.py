"""Canned scenarios: small named systems with golden expected results.

Each scenario packages a transition matrix, an optional start state and
step count, and the values the run must reproduce.  The golden numbers
are stored as exact fractions and surds evaluated at load time, never as
pre-rounded decimals, so the comparison tolerance stays meaningful.
Each scenario is built once, at import, and shared read-only.

Scenarios run with validation off: the two double-slit walls are
deliberately missing the return edges that would make their matrices
doubly stochastic / unitary, and they must run anyway.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import adjoint, bool_mat_mul, mat_mul, modulus_squared, squared_moduli
from .dynamics import RegimeSystem, compose_parallel, evolve

# --- six-vertex marble shuffle: one marble stream follows the unique
# outgoing edge of each vertex, so integer counts just get rerouted.
MARBLE_MATRIX = np.array(
    [
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 1],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [1, 0, 0, 0, 1, 0],
    ],
    dtype=np.int64,
)
MARBLE_START = np.array([6, 2, 1, 5, 3, 10], dtype=np.int64)
MARBLE_AFTER_ONE_CLICK = np.array([0, 0, 12, 5, 1, 9], dtype=np.int64)

# Which vertex feeds which across two clicks (boolean matrix square).
MARBLE_TWO_CLICK_PATHS = np.array(
    [
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 1, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 0, 1],
        [0, 0, 1, 0, 0, 0],
    ],
    dtype=np.int64,
)

# --- three-vertex doubly stochastic walk.
STOCHASTIC_MATRIX = np.array(
    [
        [0, 1 / 6, 5 / 6],
        [1 / 3, 1 / 2, 1 / 6],
        [2 / 3, 1 / 3, 0],
    ]
)
STOCHASTIC_START = np.array([1 / 6, 1 / 6, 2 / 3])
STOCHASTIC_AFTER_ONE_CLICK = np.array([21 / 36, 9 / 36, 6 / 36])

# --- second walker joined by tensor product: a two-state coin flip.
PAIR_MATRIX = np.array([[1 / 3, 2 / 3], [2 / 3, 1 / 3]])

# Combined two-walker transition matrix, written out entry by entry.
TWO_MARBLE_MATRIX = np.array(
    [
        [0, 0, 1 / 18, 2 / 18, 5 / 18, 10 / 18],
        [0, 0, 2 / 18, 1 / 18, 10 / 18, 5 / 18],
        [2 / 18, 4 / 18, 3 / 18, 6 / 18, 1 / 18, 2 / 18],
        [4 / 18, 2 / 18, 6 / 18, 3 / 18, 2 / 18, 1 / 18],
        [4 / 18, 8 / 18, 2 / 18, 4 / 18, 0, 0],
        [8 / 18, 4 / 18, 4 / 18, 2 / 18, 0, 0],
    ]
)

# --- double-slit wall, probabilistic version: a bullet reaches the two
# slits with probability 1/2 each, then fans out to three wall targets
# with probability 1/3 each; targets absorb (weight-1 self loops).
BULLET_MATRIX = np.array(
    [
        [0, 0, 0, 0, 0, 0, 0, 0],
        [1 / 2, 0, 0, 0, 0, 0, 0, 0],
        [1 / 2, 0, 0, 0, 0, 0, 0, 0],
        [0, 1 / 3, 0, 1, 0, 0, 0, 0],
        [0, 1 / 3, 0, 0, 1, 0, 0, 0],
        [0, 1 / 3, 1 / 3, 0, 0, 1, 0, 0],
        [0, 0, 1 / 3, 0, 0, 0, 1, 0],
        [0, 0, 1 / 3, 0, 0, 0, 0, 1],
    ]
)
BULLET_START = np.eye(8)[0]
BULLET_AFTER_TWO_CLICKS = np.array([0, 0, 0, 1 / 6, 1 / 6, 1 / 3, 1 / 6, 1 / 6])

# Two-click transition matrix written out: identical to the wall matrix
# except for the first column, where the two slit routes have merged.
BULLET_TWO_CLICK_MATRIX = np.array(
    [
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [1 / 6, 1 / 3, 0, 1, 0, 0, 0, 0],
        [1 / 6, 1 / 3, 0, 0, 1, 0, 0, 0],
        [1 / 3, 1 / 3, 1 / 3, 0, 0, 1, 0, 0],
        [1 / 6, 0, 1 / 3, 0, 0, 0, 1, 0],
        [1 / 6, 0, 1 / 3, 0, 0, 0, 0, 1],
    ]
)

# --- double-slit wall, amplitude version: same wiring as the bullets,
# but every edge carries a complex amplitude whose squared modulus is
# the bullet probability.  The middle target hears the two slits with
# amplitudes (1-i)/sqrt(6) and (-1+i)/sqrt(6), which cancel exactly.
_SLIT_WEIGHT = 1 / np.sqrt(2)
_FAN_UP = (-1 + 1j) / np.sqrt(6)
_FAN_MID = (-1 - 1j) / np.sqrt(6)
_FAN_DOWN = (1 - 1j) / np.sqrt(6)
PHOTON_MATRIX = np.array(
    [
        [0, 0, 0, 0, 0, 0, 0, 0],
        [_SLIT_WEIGHT, 0, 0, 0, 0, 0, 0, 0],
        [_SLIT_WEIGHT, 0, 0, 0, 0, 0, 0, 0],
        [0, _FAN_UP, 0, 1, 0, 0, 0, 0],
        [0, _FAN_MID, 0, 0, 1, 0, 0, 0],
        [0, _FAN_DOWN, _FAN_UP, 0, 0, 1, 0, 0],
        [0, 0, _FAN_MID, 0, 0, 0, 1, 0],
        [0, 0, _FAN_DOWN, 0, 0, 0, 0, 1],
    ]
)
PHOTON_START = np.eye(8)[0]
# Detection probabilities two clicks after leaving vertex 0: the middle
# target goes dark even though both slits feed it.
PHOTON_TWO_CLICK_PROBABILITIES = np.array([0, 0, 0, 1 / 6, 1 / 6, 0, 1 / 6, 1 / 6])

# --- three-state unitary evolution with complex amplitudes.
UNITARY_MATRIX = np.array(
    [
        [1 / np.sqrt(2), 1 / np.sqrt(2), 0],
        [-1j / np.sqrt(2), 1j / np.sqrt(2), 0],
        [0, 0, 1j],
    ]
)
UNITARY_MOD_SQUARED = np.array(
    [
        [1 / 2, 1 / 2, 0],
        [1 / 2, 1 / 2, 0],
        [0, 0, 1],
    ]
)

@dataclass(frozen=True, eq=False)
class GoldenCheck:
    """A computed array pinned against its expected value."""

    label: str
    actual: np.ndarray
    expected: np.ndarray
    exact: bool = False


@dataclass(frozen=True, eq=False)
class Scenario:
    name: str
    note: str
    system: RegimeSystem
    initial: np.ndarray | None = None
    steps: int = 0
    expected_final: np.ndarray | None = None
    exact: bool = False
    expected_probabilities: np.ndarray | None = None
    checks: tuple[GoldenCheck, ...] = ()


@dataclass(frozen=True, eq=False)
class CheckResult:
    label: str
    passed: bool
    deviation: float


@dataclass(frozen=True, eq=False)
class ScenarioReport:
    scenario: Scenario
    trace: tuple[np.ndarray, ...]
    final: np.ndarray | None
    probabilities: np.ndarray | None
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _read_only(s: Scenario) -> Scenario:
    """Freeze every array a shared scenario holds; its system's matrix already is."""
    checked = (a for c in s.checks for a in (c.actual, c.expected))
    for a in (s.initial, s.expected_final, s.expected_probabilities, *checked):
        if a is not None:
            a.setflags(write=False)
    return s


_TWO_WALKERS = compose_parallel(
    RegimeSystem("stochastic", STOCHASTIC_MATRIX, mode="unchecked"),
    RegimeSystem("stochastic", PAIR_MATRIX, mode="unchecked"),
)

# Built once at import, the checks' computed values included; lookups share them.
_SCENARIOS = {
    s.name: _read_only(s)
    for s in (
        Scenario(
            name="marbles-6",
            note="six-vertex marble shuffle, one click of integer counts",
            system=RegimeSystem("deterministic", MARBLE_MATRIX, mode="unchecked"),
            initial=MARBLE_START,
            steps=1,
            expected_final=MARBLE_AFTER_ONE_CLICK,
            exact=True,
            checks=(
                GoldenCheck(
                    "two-click reachability",
                    bool_mat_mul(MARBLE_MATRIX, MARBLE_MATRIX),
                    MARBLE_TWO_CLICK_PATHS,
                    exact=True,
                ),
            ),
        ),
        Scenario(
            name="stochastic-3",
            note="three-vertex doubly stochastic walk, one click",
            system=RegimeSystem("stochastic", STOCHASTIC_MATRIX, mode="unchecked"),
            initial=STOCHASTIC_START,
            steps=1,
            expected_final=STOCHASTIC_AFTER_ONE_CLICK,
        ),
        Scenario(
            name="bullets",
            note="double slit with probabilities: the middle target collects both routes",
            system=RegimeSystem("stochastic", BULLET_MATRIX, mode="unchecked"),
            initial=BULLET_START,
            steps=2,
            expected_final=BULLET_AFTER_TWO_CLICKS,
        ),
        Scenario(
            name="photons",
            note="double slit with amplitudes: the middle target cancels to zero",
            system=RegimeSystem("quantum", PHOTON_MATRIX, mode="unchecked"),
            initial=PHOTON_START,
            steps=2,
            expected_probabilities=PHOTON_TWO_CLICK_PROBABILITIES,
            checks=(
                GoldenCheck(
                    "per-edge intensities equal the bullet probabilities",
                    modulus_squared(PHOTON_MATRIX),
                    BULLET_MATRIX,
                ),
            ),
        ),
        Scenario(
            name="two-marbles",
            note="two independent walkers combined by tensor product",
            system=_TWO_WALKERS,
            checks=(
                GoldenCheck("combined transition matrix", _TWO_WALKERS.matrix, TWO_MARBLE_MATRIX),
            ),
        ),
        Scenario(
            name="unitary-3",
            note="three-state unitary evolution: reversible, intensities doubly stochastic",
            system=RegimeSystem("quantum", UNITARY_MATRIX, mode="unchecked"),
            checks=(
                GoldenCheck(
                    "reverse then forward is the identity",
                    mat_mul(adjoint(UNITARY_MATRIX), UNITARY_MATRIX),
                    np.eye(3),
                ),
                GoldenCheck(
                    "squared moduli form a doubly stochastic matrix",
                    modulus_squared(UNITARY_MATRIX),
                    UNITARY_MOD_SQUARED,
                ),
            ),
        ),
    )
}
SCENARIO_NAMES = tuple(_SCENARIOS)


def scenario(name: str) -> Scenario:
    """The canned scenario of that name: one shared, read-only object per name."""
    if name not in SCENARIO_NAMES:
        raise ValueError(f"unknown scenario {name!r}, expected one of {SCENARIO_NAMES}")
    return _SCENARIOS[name]


def _deviation(actual: np.ndarray, expected: np.ndarray) -> float:
    return float(np.max(np.abs(np.asarray(actual) - np.asarray(expected))))


def run_scenario(s: Scenario, tol: float = 1e-9) -> ScenarioReport:
    """Evolve the scenario and grade every golden value.

    A check passes when its maximum deviation is at most ``tol``
    (exactly zero for integer-valued goldens).
    """
    trace: tuple[np.ndarray, ...] = ()
    final = None
    probabilities = None
    if s.initial is not None:
        states = [s.initial]
        for _ in range(s.steps):
            states.append(evolve(s.system, states[-1], 1))
        trace = tuple(states)
        final = states[-1]
        if s.system.regime == "quantum":
            probabilities = squared_moduli(final)
        elif s.system.regime == "stochastic":
            probabilities = np.asarray(final, dtype=float)
    final_checks = (
        GoldenCheck("final state", final, s.expected_final, s.exact),
        GoldenCheck("final probabilities", probabilities, s.expected_probabilities),
    )
    results = []
    for check in [c for c in final_checks if c.expected is not None] + list(s.checks):
        dev = _deviation(check.actual, check.expected)
        passed = dev == 0.0 if check.exact else dev <= tol
        results.append(CheckResult(check.label, passed, dev))
    return ScenarioReport(
        scenario=s,
        trace=trace,
        final=final,
        probabilities=probabilities,
        checks=tuple(results),
    )
