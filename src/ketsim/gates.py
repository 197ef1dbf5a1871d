"""Bit/qubit kets, the standard gate library, and circuit composition.

Wire convention: the top wire is the leftmost bit of a bitstring and the
first (outer, most significant) tensor factor.  A gate on n input wires
acts on states of dimension 2^n; classical gates may shrink the wire
count (AND takes two wires to one), so gate matrices are 2^out by 2^in.

Sequential composition multiplies matrices in reverse order (the second
gate's matrix goes on the left); parallel composition is the Kronecker
product with the top gate as the outer factor.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .algebra import (DEFAULT_TOL, as_count, as_matrix, as_state, is_deterministic,
                      refuse_violations, validate)


@dataclass(frozen=True, eq=False)
class Gate:
    """A named matrix on fixed input/output wires, checked once when built; read-only after."""

    name: str
    matrix: np.ndarray
    in_bits: int
    out_bits: int
    quantum: bool

    def __post_init__(self):
        object.__setattr__(self, "in_bits", as_count(self.in_bits, "in_bits"))
        object.__setattr__(self, "out_bits", as_count(self.out_bits, "out_bits"))
        m = as_matrix(self.matrix)
        m = np.array(m, dtype=np.complex128 if np.iscomplexobj(m) else np.float64)
        want = (2**self.out_bits, 2**self.in_bits)
        if m.shape != want:
            raise ValueError(
                f"gate {self.name!r} with {self.in_bits} in / {self.out_bits} out wires "
                f"needs a {want[0]}x{want[1]} matrix, got {m.shape[0]}x{m.shape[1]}"
            )
        if self.quantum:
            violations = validate(m, "quantum", DEFAULT_TOL)
            refuse_violations(violations, f"gate {self.name!r} flagged quantum but ")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def ket_of_bits(bits: str) -> np.ndarray:
    """Basis ket for a bitstring; leftmost bit is the most significant.

    "01101011" denotes the basis vector of dimension 256 with a single 1
    at index 0b01101011 = 107.
    """
    if not bits:
        raise ValueError("bitstring must be non-empty")
    if any(ch not in "01" for ch in bits):
        raise ValueError(f"bitstring may contain only 0 and 1, got {bits!r}")
    v = np.zeros(2 ** len(bits))
    v[int(bits, 2)] = 1.0
    return v


def _truth_table_matrix(table: dict[int, int], in_bits: int, out_bits: int) -> np.ndarray:
    m = np.zeros((2**out_bits, 2**in_bits))
    for col, row in table.items():
        m[row, col] = 1.0
    return m


def _identity_name(wires: int) -> str:
    return f"I({wires})" if wires != 1 else "I"


def identity(wires: int) -> Gate:
    """Identity gate on the given number of wires."""
    wires = as_count(wires, "wires")
    return Gate(_identity_name(wires), np.eye(2**wires), wires, wires, quantum=True)


# Built and validated once: a Gate is frozen and its matrix read-only, so lookups share it.
_STANDARD_GATES = {
    g.name: g
    for g in (
        Gate("NOT", np.array([[0.0, 1.0], [1.0, 0.0]]), 1, 1, quantum=True),
        Gate("AND", _truth_table_matrix({0: 0, 1: 0, 2: 0, 3: 1}, 2, 1), 2, 1, quantum=False),
        Gate("NAND", _truth_table_matrix({0: 1, 1: 1, 2: 1, 3: 0}, 2, 1), 2, 1, quantum=False),
        Gate("OR", _truth_table_matrix({0: 0, 1: 1, 2: 1, 3: 1}, 2, 1), 2, 1, quantum=False),
        Gate("NOR", _truth_table_matrix({0: 1, 1: 0, 2: 0, 3: 0}, 2, 1), 2, 1, quantum=False),
        Gate("H", np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2), 1, 1, quantum=True),
        # control on the top wire: |x,y> -> |x, x XOR y>
        Gate("CNOT", _truth_table_matrix({0: 0, 1: 1, 2: 3, 3: 2}, 2, 2), 2, 2, quantum=True),
        identity(1),
    )
}


def standard_gate(name: str) -> Gate:
    """Look up a gate by name: NOT, AND, NAND, OR, NOR, H, CNOT, I, or a fresh I(n)."""
    if name in _STANDARD_GATES:
        return _STANDARD_GATES[name]
    hit = re.fullmatch(r"I\((\d+)\)", name)
    if hit:
        return identity(int(hit.group(1)))
    raise ValueError(f"unknown gate name {name!r}")


def sequential(first: Gate, second: Gate) -> Gate:
    """Gate performing ``first`` then ``second``."""
    if second.in_bits != first.out_bits:
        raise ValueError(
            f"cannot run {second.name!r} ({second.in_bits} wires in) after "
            f"{first.name!r} ({first.out_bits} wires out)"
        )
    return Gate(
        f"{first.name}>{second.name}",
        second.matrix @ first.matrix,
        first.in_bits,
        second.out_bits,
        quantum=first.quantum and second.quantum,
    )


def parallel(top: Gate, bottom: Gate) -> Gate:
    """Gate acting as ``top`` on the upper wires and ``bottom`` on the lower."""
    return Gate(
        f"{top.name}|{bottom.name}",
        np.kron(top.matrix, bottom.matrix),
        top.in_bits + bottom.in_bits,
        top.out_bits + bottom.out_bits,
        quantum=top.quantum and bottom.quantum,
    )


def apply(g: Gate, state) -> np.ndarray:
    """Send a state through a gate."""
    x = np.asarray(state)
    if x.ndim != 1 or x.shape[0] != 2**g.in_bits:
        got = x.shape[0] if x.ndim == 1 else f"ndim-{x.ndim} array"
        raise ValueError(
            f"gate {g.name!r} expects a state of dimension {2**g.in_bits}, got {got}"
        )
    return g.matrix @ as_state(x)


@dataclass(frozen=True, eq=False)
class Circuit:
    """Gates arranged in layers over a fixed number of input wires.

    Each layer lists gates top to bottom over disjoint contiguous wire
    groups covering the full width; the wire count flowing out of one
    layer must match the next layer's input.  Reversible and
    irreversible gates cannot share a circuit: a layer of Hadamards
    followed by an AND has no consistent reading, so construction
    rejects such mixtures.
    """

    wires: int
    layers: tuple[tuple[Gate, ...], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "wires", as_count(self.wires, "wires"))
        layers = tuple(tuple(layer) for layer in self.layers)
        object.__setattr__(self, "layers", layers)
        width = self.wires
        for t, layer in enumerate(layers):
            layer_in = sum(g.in_bits for g in layer)
            if layer_in != width:
                raise ValueError(
                    f"layer {t} takes {layer_in} wires but {width} arrive"
                )
            width = sum(g.out_bits for g in layer)
        gates = [g for layer in layers for g in layer]
        quantum_only = [g for g in gates if g.quantum and not is_deterministic(g.matrix)]
        irreversible = [g for g in gates if not g.quantum]
        if quantum_only and irreversible:
            raise ValueError(
                f"cannot mix irreversible gate {irreversible[0].name!r} with "
                f"quantum gate {quantum_only[0].name!r} in one circuit"
            )

    @property
    def out_wires(self) -> int:
        if not self.layers:
            return self.wires
        return sum(g.out_bits for g in self.layers[-1])


def circuit_matrix(c: Circuit) -> Gate:
    """Collapse a circuit to a single gate.

    The result equals composing the layers sequentially in time order,
    each layer the tensor product of its gates (top gate outermost); the
    empty circuit is the identity on its wires.  It is computed without
    forming any layer's Kronecker product: the columns of the identity
    are pushed through one gate at a time, viewing the block as
    (2^above, 2^in, 2^below * columns) and contracting the gate's wires
    with one batched matmul, O(4^n * 2^k) per k-wire gate instead of
    O(8^n) per layer.  Only the finished gate is validated.
    """
    total = np.eye(2**c.wires)
    name = _identity_name(c.wires)
    quantum = True
    for layer in filter(None, c.layers):  # only a zero-wire circuit has empty layers
        above = 0  # output wires of the gates already applied in this layer
        for g in layer:
            block = total.reshape(2**above, 2**g.in_bits, -1)
            total = np.matmul(g.matrix, block).reshape(-1, 2**c.wires)
            above += g.out_bits
        name += ">" + "|".join(g.name for g in layer)
        quantum = quantum and all(g.quantum for g in layer)
    return Gate(name, total, c.wires, c.out_wires, quantum)
