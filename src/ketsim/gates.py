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

import math
import re
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .algebra import (DEFAULT_TOL, _kron, _product, _require_finite_numbers, _unitary_deviation, as_count,
                      as_matrix, as_state, is_deterministic, refuse)

_EPS = float(np.finfo(float).eps)  # 2**-52, twice the unit roundoff of float64


@dataclass(frozen=True, eq=False)
class Gate:
    """A named matrix on fixed input/output wires, checked once when built; read-only after.

    A quantum ``circuit_matrix`` result that is cut in two keeps its two
    sides, top and below, and its ``matrix``, their Kronecker product, is
    joined when it is first read (``__getattr__``), then kept.  Until then
    the gate holds 4^p + 4^(n-p) entries for a cut after p of its n wires,
    in place of 4^n.  Two threads that read it first at once may each join
    it, to the same bytes.
    """

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
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        bound = math.inf  # ``_bound``: a bound on ||M† M - I||_2 (``_from_checked`` sets a product's)
        if self.quantum:
            if self.in_bits != self.out_bits:
                raise ValueError(f"gate {self.name!r} flagged quantum but maps {self.in_bits} "
                                 f"wires to {self.out_bits}: a unitary keeps the wire count")
            deviation = _unitary_deviation(m)[0]  # measured once: validate's test, and ``_bound``'s
            if not deviation <= DEFAULT_TOL:
                refuse(m, "quantum", DEFAULT_TOL, f"gate {self.name!r} flagged quantum but ")
            # The bound of a permutation is 0: its M† M is exact.  Any other gate has passed
            # validate's test on ``deviation``, max |(M† M - I)[i, j]| up to the rounding of M† M:
            # each entry is a sum of n = 2^in_bits products, so it errs by at most
            # 2·n·eps·(1 + the true deviation) (``_product_bound``).  With ``deviation`` <=
            # DEFAULT_TOL that puts every true entry within deviation + 3·n·eps, and a matrix's
            # 2-norm is at most n times its largest entry.
            n = m.shape[0]
            bound = 0.0 if self._deterministic else n * (deviation + 3 * n * _EPS)
        object.__setattr__(self, "_bound", bound)

    def __getattr__(self, name):
        # Reached only when ``name`` is not set, so a gate whose matrix is set pays nothing here.
        sides = vars(self).get("_sides")
        if name != "matrix" or sides is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        m = _kron(*sides)
        m.setflags(write=False)
        vars(self)["matrix"] = m
        return m

    # Facts about the read-only matrix, each worked out once, when first asked for.

    @cached_property
    def _deterministic(self) -> bool:
        return is_deterministic(self.matrix)

    @cached_property
    def _identity(self) -> bool:
        """Exactly the real identity, so contracting it changes no value (only the sign of a zero)."""
        m = self.matrix
        return m.dtype == np.float64 and np.array_equal(m, np.eye(m.shape[1]))


def _grown(a: float, b: float) -> float:
    """(1 + a)(1 + b) - 1 for a, b >= 0, without rounding 1 + a."""
    return a + b + a * b


def _product_bound(a: float, b: float, dot: int, columns: int) -> float:
    """A bound on ||P† P - I||_2 for the computed product P of parts bounded by ``a`` and ``b``.

    P is X @ Y, with ``dot`` terms in each entry's sum and ``columns``
    columns, or X ⊗ Y (``dot`` = 1).  Exactly, (XY)†(XY) - I =
    Y†(X†X - I)Y + (Y†Y - I) and (X⊗Y)†(X⊗Y) - I = X†X ⊗ Y†Y - I, so
    either deviates from I by at most (1 + a)(1 + b) - 1.

    Rounding: a computed sum of ``dot`` complex products errs by at most
    (dot + 2)·eps/2 <= 2·dot·eps times the sum of their moduli (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., sections
    3.1 and 3.6), in any order of summation and with or without fused
    multiply-add.  So the error F is at most 2·dot·eps·|X||Y| entrywise
    (|X| ⊗ |Y| for a Kronecker product).  A matrix A with c columns has
    || |A| ||_2 <= ||A||_F <= sqrt(c)·||A||_2; X has ``dot`` columns and Y
    ``columns`` (for X ⊗ Y, their column counts multiply to ``columns``).
    So ||F||_2 <= phi·||X||_2·||Y||_2 with phi = 2·dot·sqrt(dot·columns)·eps,
    and the computed P + F deviates from I by at most
    (1 + a)(1 + b)(1 + phi)^2 - 1.  In a circuit, X = I ⊗ G ⊗ I for a
    k-wire gate G, and |X| = I ⊗ |G| ⊗ I has the norm of |G|, so dot = 2^k
    and columns = 2^wires: a few times 4^k·sqrt(2^wires)·eps per gate placed.

    Every term is non-negative, so the float rounding of this bound is
    relative and far inside the slack of 2·dot·eps.  The rounding term is
    folded in first, so an inf bound never meets a 0 (inf·0 is nan).
    """
    phi = 2 * dot * math.sqrt(dot * columns) * _EPS
    return _grown(_grown(a, phi * (2 + phi)), b)


def _from_checked(name: str, m: np.ndarray, in_bits: int, out_bits: int, quantum: bool,
                  bound: float) -> Gate:
    """A gate whose matrix ``m`` is a new product of checked gates (or the identity), kept without a copy.

    A quantum product whose ``bound`` (``_product_bound``) is within
    DEFAULT_TOL passes ``validate``, so it is not checked again; past it,
    it is checked as any new gate is.  A classical product is checked to be
    finite, as ``Gate`` checks it, since finite parts can multiply past the
    float range (``sequential`` and ``parallel`` refuse it sooner, in ``_product``).
    """
    if not quantum:
        as_matrix(m)
    elif bound > DEFAULT_TOL:
        refuse(m, "quantum", DEFAULT_TOL, f"gate {name!r} flagged quantum but ")
    m.setflags(write=False)
    g = object.__new__(Gate)  # the fields Gate.__post_init__ would set, and the bound
    vars(g).update(name=name, matrix=m, in_bits=in_bits, out_bits=out_bits, quantum=quantum,
                   _bound=bound if quantum else math.inf)
    return g


def _unjoined(name: str, wires: int, sides: tuple[np.ndarray, np.ndarray], bound: float) -> Gate:
    """A quantum gate whose matrix is top ⊗ below, new products of checked gates, joined when first read.

    Its ``bound`` (``_product_bound``, the join's rounding included) is
    within DEFAULT_TOL, so the joined matrix would pass ``validate``, and
    it is not validated, as ``_from_checked`` would not validate it.
    """
    for side in sides:
        side.setflags(write=False)
    g = object.__new__(Gate)  # as ``_from_checked``'s, with the sides in place of the matrix
    vars(g).update(name=name, in_bits=wires, out_bits=wires, quantum=True, _bound=bound, _sides=sides)
    return g


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
    """Identity gate on the given number of wires: exactly unitary, so built without ``validate``."""
    wires = as_count(wires, "wires")
    return _from_checked(_identity_name(wires), np.eye(2**wires), wires, wires, True, 0.0)


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
    return _from_checked(
        f"{first.name}>{second.name}",
        _product(np.matmul, second.matrix, first.matrix),
        first.in_bits,
        second.out_bits,
        first.quantum and second.quantum,
        _product_bound(second._bound, first._bound, 2**second.in_bits, 2**first.in_bits),
    )


def parallel(top: Gate, bottom: Gate) -> Gate:
    """Gate acting as ``top`` on the upper wires and ``bottom`` on the lower."""
    in_bits = top.in_bits + bottom.in_bits
    return _from_checked(
        f"{top.name}|{bottom.name}",
        _product(_kron, top.matrix, bottom.matrix),
        in_bits,
        top.out_bits + bottom.out_bits,
        top.quantum and bottom.quantum,
        _product_bound(top._bound, bottom._bound, 1, 2**in_bits),
    )


def apply(g: Gate, state) -> np.ndarray:
    """Send a state through a gate: the product ``g.matrix @ state``, finite or refused.

    A gate that keeps two sides (a cut ``circuit_matrix`` result) is
    applied side by side, with no 2^n × 2^n matrix: by (A ⊗ B)·vec(X) =
    vec(A X Bᵀ), for X the state as a grid of 2^(top wires) rows (Van
    Loan, *The ubiquitous Kronecker product*, J. Comput. Appl. Math. 123,
    2000).  It takes this path whether or not ``g.matrix`` has been read,
    and agrees with ``g.matrix @ state`` up to rounding, not bit for bit.
    """
    x = np.asarray(state)
    if x.ndim != 1 or x.shape[0] != 2**g.in_bits:
        got = x.shape[0] if x.ndim == 1 else f"ndim-{x.ndim} array"
        raise ValueError(
            f"gate {g.name!r} expects a state of dimension {2**g.in_bits}, got {got}"
        )
    sides = vars(g).get("_sides")
    if sides is None:
        return _product(np.matmul, g.matrix, as_state(x))
    top, below = sides
    grid = as_state(x).reshape(top.shape[1], below.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):  # an inf in top @ grid leaves the result not finite
        out = (top @ grid @ below.T).reshape(-1)
    _require_finite_numbers(out, "state")
    return out


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
        quantum_only = [g for g in gates if g.quantum and not g._deterministic]
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


# Narrower circuits and sides are not cut.  Below 7 wires a gate's pass over the
# whole matrix costs little more than the numpy call for it, so the walk and join
# a cut adds cost more than the smaller passes save (timed in CHANGES.md).
_CUT_WIRES = 7


def _cut(wires: int, layers: tuple[tuple[Gate, ...], ...]) -> tuple[int, tuple[int, ...]] | None:
    """Where to cut layers on ``wires`` input wires in two: (input wire, each layer's gate index there).

    A cut between two input wires is free when no gate of any layer
    crosses it.  It is followed from layer to layer by its wire position,
    which classical gates move (below an AND on wires 0-1, a cut at input
    wire 2 sits at wire 1 in the next layer).  One pass over a layer's
    gates maps the running sums of their in_bits to (gate index, running
    sum of out_bits); a cut survives the layer when its position is one of
    those sums; where zero-wire gates make several gates start at one
    wire, the cut falls before the last of them.  Of the free cuts, the
    one whose sides are closest to equal is returned, the first of two
    equally close.  None when no wire is free, or when there are fewer
    than ``_CUT_WIRES`` wires.
    """
    if wires < _CUT_WIRES:
        return None
    cuts = {p: (p, ()) for p in range(1, wires)}  # input wire -> (wire in the next layer, gate indices)
    for layer in layers:
        # the in-wire where each gate starts, and where the layer ends -> (gate index, out-wire)
        at, i, o = {}, 0, 0
        for k, g in enumerate(layer):
            at[i] = k, o
            i += g.in_bits
            o += g.out_bits
        at[i] = len(layer), o
        cuts = {p: (at[w][1], index + (at[w][0],)) for p, (w, index) in cuts.items() if w in at}
        if not cuts:
            return None
    p = min(cuts, key=lambda p: abs(2 * p - wires))
    return p, cuts[p][1]


def _contract(wires: int, layers: tuple[tuple[Gate, ...], ...]) -> tuple[np.ndarray, float]:
    """The matrix of layers on ``wires`` input wires, one gate at a time, and its bound."""
    total = np.eye(2**wires)
    bound = 0.0
    for layer in layers:
        above = 0  # output wires of the gates already applied in this layer
        for g in layer:
            if not g._identity:
                block = total.reshape(2**above, 2**g.in_bits, -1)
                total = np.matmul(g.matrix, block).reshape(-1, 2**wires)
                bound = _product_bound(g._bound, bound, 2**g.in_bits, 2**wires)
            above += g.out_bits
    return total, bound


def _parts(wires: int, layers: tuple[tuple[Gate, ...], ...]) -> tuple[tuple[np.ndarray, ...], float]:
    """The matrix of layers on ``wires`` input wires as its Kronecker factors, and its bound.

    Uncut by ``_cut``, the one factor is the layers contracted whole.  Cut,
    the two factors are the sides above and below, each worked out as
    ``_matrix``, and the bound allows for their join's rounding as
    ``parallel``'s does.
    """
    cut = _cut(wires, layers)
    if cut is None:
        total, bound = _contract(wires, layers)
        return (total,), bound
    p, at = cut
    top, top_bound = _matrix(p, tuple(layer[:k] for layer, k in zip(layers, at)))
    below, below_bound = _matrix(wires - p, tuple(layer[k:] for layer, k in zip(layers, at)))
    return (top, below), _product_bound(top_bound, below_bound, 1, 2**wires)


def _matrix(wires: int, layers: tuple[tuple[Gate, ...], ...]) -> tuple[np.ndarray, float]:
    """The matrix of layers on ``wires`` input wires and its bound: ``_parts``, joined by one Kronecker product."""
    parts, bound = _parts(wires, layers)
    return reduce(_kron, parts), bound


def circuit_matrix(c: Circuit) -> Gate:
    """Collapse a circuit to a single gate.

    The result equals composing the layers sequentially in time order,
    each layer the tensor product of its gates (top gate outermost); the
    empty circuit is the identity on its wires.  It is computed without
    forming any layer's Kronecker product: the columns of the identity
    are pushed through one gate at a time, viewing the block as
    (2^above, 2^in, 2^below * columns) and contracting the gate's wires
    with one batched matmul, O(4^n * 2^k) per k-wire gate instead of
    O(8^n) per layer.  A gate whose matrix is exactly the identity is
    skipped.

    Where no gate of any layer crosses a cut between two input wires,
    the circuit is the tensor product of the sub-circuits above and below
    it, by the interchange law (A ⊗ B)(C ⊗ D) = AC ⊗ BD.  So a circuit of
    ``_CUT_WIRES`` or more wires is cut once, at the free wire closest to
    its middle (``_cut``).  Each side is contracted whole on its own 2^w
    wires when narrower than ``_CUT_WIRES``, and cut again by the same
    rule when not (``_matrix``).  The two sides are joined by one
    Kronecker product, a 4^n pass between two matrices of about 2^(n/2)
    rows, in place of a full-size pass per gate.  The result agrees with
    the per-gate product up to rounding, not bit for bit.

    A cut quantum circuit whose bound (below) is within DEFAULT_TOL keeps
    its two sides and is not joined here: its ``matrix`` is joined by the
    same Kronecker product when first read, and ``apply`` sends a state
    through the two sides without it.  Every other result is joined at once.

    Each gate was checked when it was built, so the result is not
    validated again while it is sure to pass: every quantum gate carries
    an upper bound on ||M† M - I||_2, and the bounds of the gates placed,
    with an allowance for the rounding of each contraction and each join
    (as ``parallel`` allows for it), add up to a bound on the result.  A
    quantum result whose bound exceeds DEFAULT_TOL is validated as any
    new gate is, and refused with the same message.  A classical result
    that is not finite is refused, with no numpy warning.
    """
    if not c.layers:
        return identity(c.wires)
    name = _identity_name(c.wires) + "".join(
        ">" + "|".join(g.name for g in layer) for layer in c.layers if layer)
    quantum = all(g.quantum for layer in c.layers for g in layer)
    with np.errstate(over="ignore", invalid="ignore"):  # a result that is not finite is refused below
        parts, bound = _parts(c.wires, c.layers)
        if len(parts) == 2 and quantum and bound <= DEFAULT_TOL:
            return _unjoined(name, c.wires, parts, bound)
        total = reduce(_kron, parts)
    return _from_checked(name, total, c.wires, c.out_wires, quantum, bound)
