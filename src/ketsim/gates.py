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
from functools import cached_property

import numpy as np

from .algebra import (DEFAULT_TOL, _column_map, _kron, _product, _unitary_deviation, as_count, as_matrix,
                      as_state, refuse)

_EPS = float(np.finfo(float).eps)  # 2**-52, twice the unit roundoff of float64


@dataclass(frozen=True, eq=False, repr=False)
class Gate:
    """A named matrix on fixed input/output wires, checked once when built; read-only after.

    Every product of gates (``identity``, ``sequential``, ``parallel``,
    ``circuit_matrix``) is made by ``_product_gate``, with a bound on its
    deviation in place of a second check.  A quantum ``circuit_matrix``
    result whose bound is within DEFAULT_TOL keeps its circuit's layers,
    contracts its ``matrix`` when it is first read (``__getattr__``), then
    keeps it; until then ``apply`` runs the layers on the state.  Two
    threads that read it first at once may each contract it, to the same
    bytes.  Its ``repr`` names it and its wires, and never reads the matrix.
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
        bound = math.inf  # ``_bound``: a bound on ||M† M - I||_2 (``_product_gate`` sets a product's)
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
            bound = 0.0 if self._map is not None else n * (deviation + 3 * n * _EPS)
        object.__setattr__(self, "_bound", bound)

    def __getattr__(self, name):
        # Reached only when ``name`` is not set, so a gate whose matrix is set pays nothing here.
        layers = vars(self).get("_layers")
        if name != "matrix" or layers is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        m = _parts(self.in_bits, layers, True)[0]
        m.setflags(write=False)
        vars(self)["matrix"] = m
        return m

    def __repr__(self):
        return (f"Gate({self.name!r}, in_bits={self.in_bits}, out_bits={self.out_bits}, "
                f"quantum={self.quantum})")

    # Facts about the read-only matrix, each worked out once, when first asked for.

    @cached_property
    def _map(self) -> np.ndarray | None:  # the row of each column's 1 (``_column_map``), or None
        return _column_map(self.matrix)

    @cached_property
    def _identity(self) -> bool:
        """Exactly the real identity, so contracting it changes no value (only the sign of a zero).

        A gate that keeps its layers counts as the identity when each of their gates does, since
        skipping them all leaves the real identity as it is.  That is told without its matrix, so
        a product that is exactly I by cancellation (NOT then NOT) counts as no identity.
        """
        layers = vars(self).get("_layers")
        if layers is not None:
            return all(g._identity for layer in layers for g in layer)
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


def _product_gate(name: str, m: np.ndarray | tuple, in_bits: int, out_bits: int, quantum: bool,
                  bound: float) -> Gate:
    """The gate of ``m``: a new product of checked gates (or the identity), kept without a copy, or
    a circuit's layers, contracted when the gate's ``matrix`` is first read.  Every product gate is
    made here.

    A product whose ``bound`` (``_product_bound``) is within DEFAULT_TOL
    passes ``validate``, so it is not checked again; layers come here only
    then.  A quantum matrix past DEFAULT_TOL is checked as any new gate is,
    and a classical one is checked to be finite, as ``Gate`` checks it,
    since finite parts can multiply past the float range.
    """
    g = object.__new__(Gate)  # the fields Gate.__post_init__ would set, and the bound
    vars(g).update(name=name, in_bits=in_bits, out_bits=out_bits, quantum=quantum,
                   _bound=bound if quantum else math.inf)
    if isinstance(m, tuple):
        vars(g)["_layers"] = m
        return g
    if not quantum:
        as_matrix(m)
    elif bound > DEFAULT_TOL:
        refuse(m, "quantum", DEFAULT_TOL, f"gate {name!r} flagged quantum but ")
    m.setflags(write=False)
    vars(g)["matrix"] = m
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


def _identity_name(wires: int) -> str:
    return f"I({wires})" if wires != 1 else "I"


def identity(wires: int) -> Gate:
    """Identity gate on the given number of wires: exactly unitary, so built without ``validate``."""
    wires = as_count(wires, "wires")
    return _product_gate(_identity_name(wires), np.eye(2**wires), wires, wires, True, 0.0)


# Built and validated once: a Gate is frozen and its matrix read-only, so lookups share it.  A 0/1
# gate is given by its column map: column j holds its one 1 in row dst[j], so entry [i, j] is dst[j] == i.
_STANDARD_GATES = {
    g.name: g
    for g in (
        Gate("NOT", np.array([[0.0, 1.0], [1.0, 0.0]]), 1, 1, quantum=True),
        Gate("AND", np.equal.outer(range(2), [0, 0, 0, 1]), 2, 1, quantum=False),
        Gate("NAND", np.equal.outer(range(2), [1, 1, 1, 0]), 2, 1, quantum=False),
        Gate("OR", np.equal.outer(range(2), [0, 1, 1, 1]), 2, 1, quantum=False),
        Gate("NOR", np.equal.outer(range(2), [1, 0, 0, 0]), 2, 1, quantum=False),
        Gate("H", np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2), 1, 1, quantum=True),
        # control on the top wire: |x,y> -> |x, x XOR y>
        Gate("CNOT", np.equal.outer(range(4), [0, 1, 3, 2]), 2, 2, quantum=True),
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
    return _product_gate(f"{first.name}>{second.name}", _product(np.matmul, second.matrix, first.matrix),
                         first.in_bits, second.out_bits, first.quantum and second.quantum,
                         _product_bound(second._bound, first._bound, 2**second.in_bits, 2**first.in_bits))


def parallel(top: Gate, bottom: Gate) -> Gate:
    """Gate acting as ``top`` on the upper wires and ``bottom`` on the lower."""
    in_bits = top.in_bits + bottom.in_bits
    return _product_gate(f"{top.name}|{bottom.name}", _product(_kron, top.matrix, bottom.matrix),
                         in_bits, top.out_bits + bottom.out_bits, top.quantum and bottom.quantum,
                         _product_bound(top._bound, bottom._bound, 1, 2**in_bits))


def apply(g: Gate, state) -> np.ndarray:
    """Send a state through a gate: the product ``g.matrix @ state``, finite or refused.

    A gate that keeps its circuit's layers (a ``circuit_matrix`` result)
    runs them on the state with ``_contract``, one gate at a time, with no
    2^n × 2^n matrix and no bound: the bound was worked out when the gate
    was made, and the product rule checks the result.  It takes this path
    whether or not ``g.matrix`` has been read, and agrees with
    ``g.matrix @ state`` up to rounding, not bit for bit.
    """
    x = np.asarray(state)
    if x.ndim != 1 or x.shape[0] != 2**g.in_bits:
        got = x.shape[0] if x.ndim == 1 else f"ndim-{x.ndim} array"
        raise ValueError(
            f"gate {g.name!r} expects a state of dimension {2**g.in_bits}, got {got}"
        )
    layers = vars(g).get("_layers")
    if layers is None:
        return _product(np.matmul, g.matrix, as_state(x))
    y = as_state(x).astype(np.result_type(x, float))  # cast as g.matrix @ x would cast it
    return _product(lambda _, v: _contract(layers, v), y, y)  # the product rule, on the layers


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
        irreversible = next((g for g in gates if not g.quantum), None)
        # only then is a quantum gate's matrix read, to tell a 0/1 one (which may mix) from the rest
        quantum_only = irreversible and next((g for g in gates if g.quantum and g._map is None), None)
        if quantum_only:
            raise ValueError(
                f"cannot mix irreversible gate {irreversible.name!r} with "
                f"quantum gate {quantum_only.name!r} in one circuit"
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


def _bound(wires: int, layers: tuple[tuple[Gate, ...], ...]) -> float:
    """The bound of layers on ``wires`` input wires, contracted by ``_contract`` on the identity.

    Each gate ``_contract`` does not skip is one product on the 2^wires
    columns, so its bound is folded in as ``sequential`` folds a second
    gate's, in the order the gates run.  A gate that keeps its own layers
    is placed as one gate, by its own bound.
    """
    bound = 0.0
    for layer in layers:
        for g in layer:
            if not g._identity:
                bound = _product_bound(g._bound, bound, 2**g.in_bits, 2**wires)
    return bound


def _contract(layers: tuple[tuple[Gate, ...], ...], total: np.ndarray, offset: int = 0) -> np.ndarray:
    """Layers applied to ``total``, the identity (for their matrix) or a state, one gate at a time.

    The gate after ``above`` output wires acts on the middle axis of ``total``
    viewed as (2^above, 2^in, rest), by one batched matmul, or, on a state's
    last wires (rest is 1), by one matrix product of the (2^above, 2^in) view
    with the gate's transpose.  An identity gate is skipped (a gate that keeps
    its layers is one when all of theirs are).  On a state, a gate that
    keeps its own layers runs them, ``offset`` wires down; on the
    identity its matrix is read, as its bound covers it, and that matrix is
    no larger than the one being made.
    """
    columns = total.shape[1:]  # (2^wires,) for the identity, () for a state
    for layer in layers:
        above = offset  # output wires above this gate: those of the gates already applied in this layer
        for g in layer:
            if not g._identity:
                if total.ndim == 1 and "_layers" in vars(g):
                    total = _contract(g._layers, total, above)
                else:
                    a, k = 1 << above, 1 << g.in_bits
                    out = (total.reshape(a, k) @ g.matrix.T if total.size == a * k
                           else np.matmul(g.matrix, total.reshape(a, k, -1)))
                    total = out.reshape((-1,) + columns)
            above += g.out_bits
    return total


def _parts(wires: int, layers: tuple[tuple[Gate, ...], ...], contract: bool
           ) -> tuple[np.ndarray | None, float]:
    """The matrix of layers on ``wires`` input wires (if ``contract``, else None), and its bound.

    Uncut by ``_cut``, the bound is ``_bound``'s, and the matrix is
    ``_contract``'s on the identity.  Cut, the sides above and below are
    each worked out by ``_parts`` and joined, and the bound allows for
    their join's rounding as ``parallel``'s does.
    """
    cut = _cut(wires, layers)
    if cut is None:
        return _contract(layers, np.eye(2**wires)) if contract else None, _bound(wires, layers)
    p, at = cut
    (top, a), (below, b) = (_parts(p, tuple(layer[:k] for layer, k in zip(layers, at)), contract),
                            _parts(wires - p, tuple(layer[k:] for layer, k in zip(layers, at)), contract))
    return _kron(top, below) if contract else None, _product_bound(a, b, 1, 2**wires)


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
    skipped, and so is a result that keeps its layers when all of their
    gates are; it is told from them, so its matrix is not read for that.

    Where no gate of any layer crosses a cut between two input wires,
    the circuit is the tensor product of the sub-circuits above and below
    it, by the interchange law (A ⊗ B)(C ⊗ D) = AC ⊗ BD.  So a circuit of
    ``_CUT_WIRES`` or more wires is cut once, at the free wire closest to
    its middle (``_cut``).  Each side is contracted whole on its own 2^w
    wires when narrower than ``_CUT_WIRES``, and cut again by the same
    rule when not (``_parts``).  The two sides are joined by one
    Kronecker product, a 4^n pass between two matrices of about 2^(n/2)
    rows, in place of a full-size pass per gate.  The result agrees with
    the per-gate product up to rounding, not bit for bit.

    The result is made as every product gate is (``_product_gate``).  Its
    bound (below) is worked out first, over the same cuts, by ``_bound``'s
    walk over the gates, with no contraction.  A quantum result within
    DEFAULT_TOL, cut or not, keeps
    the circuit's layers: its ``matrix`` is contracted as above when first
    read, and ``apply`` runs the layers on the state without it.  Every
    other result is contracted, and checked, at once.

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
    bound = _parts(c.wires, c.layers, False)[1] if quantum else math.inf
    if bound <= DEFAULT_TOL:
        return _product_gate(name, c.layers, c.wires, c.wires, True, bound)
    with np.errstate(over="ignore", invalid="ignore"):  # a result that is not finite is refused when made
        m = _parts(c.wires, c.layers, True)[0]
    return _product_gate(name, m, c.wires, c.out_wires, quantum, bound)
