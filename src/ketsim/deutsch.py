"""One-query test deciding whether a one-bit function is constant or balanced.

A function f: {0,1} -> {0,1} is embedded reversibly as the two-wire
permutation gate |x,y> -> |x, y XOR f(x)>.  Querying it once on the
superposed input (H tensor H)|01> and applying a final Hadamard to the
top wire steers all amplitude onto top-wire value 0 when f is constant
and onto 1 when f is balanced, so a single measurement of the top wire
answers a question that classically needs two evaluations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import as_state
from .gates import Gate, apply, ket_of_bits, parallel, standard_gate
from .measurement import basis_distribution

# Classification guard: the top-wire distribution is analytically a point
# mass, so the threshold only has to absorb float noise.
_POINT_MASS_MIN = 1 - 1e-6

# The fixed two-wire Hadamard layers, built and validated once.
_H, _I = standard_gate("H"), standard_gate("I")
_H_H, _H_I, _I_H = parallel(_H, _H), parallel(_H, _I), parallel(_I, _H)


@dataclass(frozen=True)
class BinaryFunction:
    """Lookup table of a function from one bit to one bit."""

    f0: int
    f1: int

    def __post_init__(self):
        if self.f0 not in (0, 1) or self.f1 not in (0, 1):
            raise ValueError(f"function values must be bits, got ({self.f0}, {self.f1})")

    def value(self, x: int) -> int:
        if x not in (0, 1):
            raise ValueError(f"input must be a bit, got {x}")
        return self.f0 if x == 0 else self.f1

    @property
    def classification(self) -> str:
        return "constant" if self.f0 == self.f1 else "balanced"


# The whole input space, keyed by the oracle names the CLI accepts.
BINARY_FUNCTIONS = {
    "const0": BinaryFunction(0, 0),
    "const1": BinaryFunction(1, 1),
    "id": BinaryFunction(0, 1),
    "not": BinaryFunction(1, 0),
}


# Built and validated once, as the standard gates are: a Gate is frozen and its matrix read-only.
# Column 2x + y holds its 1 in row 2x + (y XOR f(x)).
_ORACLES = {
    (f0, f1): Gate(f"oracle({f0},{f1})", np.equal.outer(range(4), [f0, 1 - f0, 2 + f1, 3 - f1]), 2, 2,
                   quantum=True)
    for f0 in (0, 1) for f1 in (0, 1)
}


def oracle_matrix(f: BinaryFunction) -> Gate:
    """Two-wire permutation gate sending |x,y> to |x, y XOR f(x)>, shared by every call.

    XOR-ing twice undoes itself, so every oracle is its own inverse.
    """
    return _ORACLES[f.f0, f.f1]


def first_attempt(f: BinaryFunction) -> np.ndarray:
    """Query the oracle on a superposed top wire only.

    Returns the oracle output for input (H tensor I)|00>, which is
    (|0,f(0)> + |1,f(1)>)/sqrt(2).  Measuring the top wire of this state
    gives 0 or 1 with equal probability regardless of f, so this attempt
    learns nothing.
    """
    return apply(oracle_matrix(f), apply(_H_I, ket_of_bits("00")))


def second_attempt(f: BinaryFunction, x: int) -> np.ndarray:
    """Query the oracle with the bottom wire in the (|0>-|1>)/sqrt(2) state.

    Returns the oracle output for input (I tensor H)|x,1>, which equals
    (-1)^f(x) |x> tensor (|0>-|1>)/sqrt(2): the function value moves into
    a sign on the top wire while the bottom wire is left unchanged.
    """
    if x not in (0, 1):
        raise ValueError(f"input must be a bit, got {x}")
    return apply(oracle_matrix(f), apply(_I_H, ket_of_bits(f"{x}1")))


def top_marginal(state) -> np.ndarray:
    """Measurement distribution of the top wire of a two-wire state."""
    v = as_state(state)
    if v.shape[0] != 4:
        raise ValueError(f"expected a two-wire state of dimension 4, got {v.shape[0]}")
    return basis_distribution(v).reshape(2, 2).sum(axis=1)


@dataclass(frozen=True, eq=False)
class DeutschRun:
    """Full trace of one run: the state after each stage, plus the verdict.

    snapshots[0] is the prepared input |01>, [1] the state after the
    input Hadamards, [2] the state after the single oracle query, and
    [3] the final state after the top-wire Hadamard.
    """

    function: BinaryFunction
    snapshots: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    top_distribution: np.ndarray
    classification: str


def run_deutsch(f: BinaryFunction) -> DeutschRun:
    """Decide constant versus balanced with a single oracle query."""
    prepared = ket_of_bits("01")
    superposed = apply(_H_H, prepared)
    queried = apply(oracle_matrix(f), superposed)
    finished = apply(_H_I, queried)

    distribution = top_marginal(finished)
    verdict = "constant" if distribution[0] >= _POINT_MASS_MIN else "balanced"
    return DeutschRun(
        function=f,
        snapshots=(prepared, superposed, queried, finished),
        top_distribution=distribution,
        classification=verdict,
    )
