"""Gate library, truth tables, and circuit composition."""
import copy
import pickle
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ketsim.gates
from ketsim.algebra import DEFAULT_TOL, kron, mat_mul, validate
from ketsim.gates import (
    Circuit,
    Gate,
    apply,
    circuit_matrix,
    identity,
    ket_of_bits,
    parallel,
    sequential,
    standard_gate,
)
from reference import random_unitary

H = standard_gate("H")
I1 = standard_gate("I")


def random_gate(rng, in_bits, out_bits, name="R"):
    """Arbitrary (non-quantum) gate for algebraic identity checks."""
    m = rng.normal(size=(2**out_bits, 2**in_bits))
    return Gate(name, m, in_bits, out_bits, quantum=False)


# --- kets ---------------------------------------------------------------------

def test_single_bit_kets():
    assert np.array_equal(ket_of_bits("0"), [1, 0])
    assert np.array_equal(ket_of_bits("1"), [0, 1])


def test_two_bit_ket():
    assert np.array_equal(ket_of_bits("01"), [0, 1, 0, 0])


def test_byte_ket_hits_index_107():
    v = ket_of_bits("01101011")
    assert v.shape == (256,)
    assert v[107] == 1.0
    assert v.sum() == 1.0


def test_ket_concatenation_is_tensor_product():
    assert np.array_equal(
        ket_of_bits("01" + "10"), np.kron(ket_of_bits("01"), ket_of_bits("10"))
    )


@given(st.text(alphabet="01", min_size=1, max_size=4), st.text(alphabet="01", min_size=1, max_size=4))
def test_ket_concatenation_property(s, t):
    assert np.array_equal(ket_of_bits(s + t), np.kron(ket_of_bits(s), ket_of_bits(t)))


def test_ket_rejects_bad_input():
    with pytest.raises(ValueError, match="non-empty"):
        ket_of_bits("")
    with pytest.raises(ValueError, match="only 0 and 1"):
        ket_of_bits("012")


# --- standard gates --------------------------------------------------------------

def test_not_matrix():
    assert np.array_equal(standard_gate("NOT").matrix, [[0, 1], [1, 0]])


def test_and_or_matrices():
    assert np.array_equal(standard_gate("AND").matrix, [[1, 1, 1, 0], [0, 0, 0, 1]])
    assert np.array_equal(standard_gate("OR").matrix, [[1, 0, 0, 0], [0, 1, 1, 1]])


def test_hadamard_matrix():
    want = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.max(np.abs(H.matrix - want)) == 0


def test_cnot_columns():
    cnot = standard_gate("CNOT")
    for bits, out in (("00", "00"), ("01", "01"), ("10", "11"), ("11", "10")):
        assert np.array_equal(apply(cnot, ket_of_bits(bits)), ket_of_bits(out))


def test_multi_wire_identity():
    gate = standard_gate("I(3)")
    assert gate.in_bits == 3
    assert np.array_equal(gate.matrix, np.eye(8))


def test_unknown_gate_rejected():
    with pytest.raises(ValueError, match="unknown gate"):
        standard_gate("TOFFOLI")


@pytest.mark.parametrize("name", ["NOT", "AND", "NAND", "OR", "NOR", "H", "CNOT", "I"])
def test_fixed_library_gates_are_shared_and_read_only(name):
    gate = standard_gate(name)
    assert standard_gate(name) is gate
    assert gate.name == name
    with pytest.raises(ValueError, match="read-only"):
        gate.matrix[0, 0] = 0.5
    with pytest.raises(AttributeError):
        gate.matrix = np.eye(2)


def test_sized_identity_is_built_fresh():
    gate = standard_gate("I(3)")
    assert gate is not standard_gate("I(3)")
    assert np.array_equal(gate.matrix, np.eye(8))


@pytest.mark.parametrize("wires", range(9))
def test_identity_is_built_without_validate_and_passes_it(wires):
    gate = identity(wires)
    assert gate.matrix.dtype == np.float64 and np.array_equal(gate.matrix, np.eye(2**wires))
    assert validate(gate.matrix, "quantum") == []
    assert gate.name == ("I" if wires == 1 else f"I({wires})")
    assert (gate.in_bits, gate.out_bits, gate.quantum, gate._bound) == (wires, wires, True, 0.0)
    with pytest.raises(ValueError, match="read-only"):
        gate.matrix[0, 0] = 0.5


def test_quantum_gates_are_unitary_classical_are_column_deterministic():
    for name in ("NOT", "H", "CNOT", "I", "I(2)"):
        gate = standard_gate(name)
        assert gate.quantum
        prod = mat_mul(gate.matrix.conj().T, gate.matrix)
        assert np.max(np.abs(prod - np.eye(2**gate.in_bits))) < 1e-9
    for name in ("AND", "NAND", "OR", "NOR"):
        gate = standard_gate(name)
        assert not gate.quantum
        assert np.all((gate.matrix == 0) | (gate.matrix == 1))
        assert np.all(gate.matrix.sum(axis=0) == 1)


def test_truth_tables_exhaustively():
    tables = {
        "AND": lambda x, y: x & y,
        "OR": lambda x, y: x | y,
        "NAND": lambda x, y: 1 - (x & y),
        "NOR": lambda x, y: 1 - (x | y),
    }
    for name, fn in tables.items():
        gate = standard_gate(name)
        for x in (0, 1):
            for y in (0, 1):
                out = apply(gate, ket_of_bits(f"{x}{y}"))
                assert np.array_equal(out, ket_of_bits(str(fn(x, y))))


def test_gate_shape_must_match_wire_counts():
    with pytest.raises(ValueError, match="2x4"):
        Gate("BAD", np.eye(3), 2, 1, quantum=False)


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[np.nan, 0.0], [0.0, 1.0]], "matrix entries must all be finite"),
        ([[1.0, 0.0], [0.0, np.inf]], "matrix entries must all be finite"),
        ([1.0, 0.0], "expected a 2-D matrix, got an array of ndim 1"),
        (1.0, "expected a 2-D matrix, got an array of ndim 0"),
        # checked as given: converting first built a NOT gate from strings and rounded 2**64
        ([["0", "1"], ["1", "0"]], "matrix entries must be numbers, got dtype <U1"),
        ([[1, 0], [0, 2**64]], "matrix entries must be numbers, got dtype object"),
    ],
    ids=["nan", "inf", "1-D", "0-D", "strings", "int-beyond-uint64"],
)
def test_gate_refuses_a_matrix_that_is_not_finite_and_2d(matrix, message):
    with pytest.raises(ValueError, match=message):
        Gate("BAD", matrix, 1, 1, quantum=False)


def test_quantum_flag_requires_unitary():
    with pytest.raises(ValueError, match="quantum"):
        Gate("BAD", np.array([[1.0, 1.0], [0.0, 1.0]]), 1, 1, quantum=True)


def test_quantum_flag_refuses_unequal_wire_counts_by_name():
    with pytest.raises(ValueError) as exc:
        Gate("q", np.eye(4)[:2], 2, 1, quantum=True)
    assert str(exc.value) == "gate 'q' flagged quantum but maps 2 wires to 1: a unitary keeps the wire count"


# --- composition -------------------------------------------------------------------

def test_hadamard_is_its_own_inverse():
    assert np.max(np.abs(sequential(H, H).matrix - np.eye(2))) < 1e-12


def test_not_twice_is_identity():
    n = standard_gate("NOT")
    assert np.array_equal(sequential(n, n).matrix, np.eye(2))


def test_negated_inputs_into_and_make_nor():
    n = standard_gate("NOT")
    built = sequential(parallel(n, n), standard_gate("AND"))
    # independent truth-table reference for NOT(x) AND NOT(y)
    for x in (0, 1):
        for y in (0, 1):
            want = (1 - x) & (1 - y)
            out = apply(built, ket_of_bits(f"{x}{y}"))
            assert np.array_equal(out, ket_of_bits(str(want)))
    assert np.array_equal(built.matrix, standard_gate("NOR").matrix)


def test_sequential_arity_mismatch_rejected():
    with pytest.raises(ValueError, match="wires"):
        sequential(standard_gate("AND"), standard_gate("CNOT"))


def test_parallel_identities():
    assert np.array_equal(parallel(I1, I1).matrix, np.eye(4))


def test_hadamard_pair_on_ket_01():
    out = apply(parallel(H, H), ket_of_bits("01"))
    assert np.allclose(out, [0.5, -0.5, 0.5, -0.5], atol=1e-12, rtol=0)


def test_parallel_then_sequential_interchange():
    rng = np.random.default_rng(53)
    for _ in range(40):
        a = random_gate(rng, 1, 2)
        a2 = random_gate(rng, 2, 1)
        b = random_gate(rng, 1, 1)
        b2 = random_gate(rng, 1, 2)
        lhs = parallel(sequential(a, a2), sequential(b, b2)).matrix
        rhs = sequential(parallel(a, b), parallel(a2, b2)).matrix
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_apply_matches_composition():
    rng = np.random.default_rng(59)
    v = rng.normal(size=4)
    a = random_gate(rng, 2, 2)
    b = random_gate(rng, 2, 1)
    assert np.max(np.abs(apply(sequential(a, b), v) - apply(b, apply(a, v)))) < 1e-9


def test_apply_factors_over_parallel():
    rng = np.random.default_rng(61)
    u = rng.normal(size=2)
    v = rng.normal(size=2)
    a = random_gate(rng, 1, 1)
    b = random_gate(rng, 1, 1)
    lhs = apply(parallel(a, b), np.kron(u, v))
    rhs = np.kron(apply(a, u), apply(b, v))
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_apply_dimension_check():
    with pytest.raises(ValueError, match="dimension 2"):
        apply(H, np.ones(4))


@pytest.mark.parametrize(
    "state, message",
    [
        (np.ones(4), "gate 'H' expects a state of dimension 2, got 4"),
        (np.ones((2, 2)), "gate 'H' expects a state of dimension 2, got ndim-2 array"),
        ([np.nan, 1.0], "state entries must all be finite"),
        ([1.0, np.inf], "state entries must all be finite"),
    ],
    ids=["wrong-dimension", "2-D", "nan", "inf"],
)
def test_apply_refuses_a_bad_state(state, message):
    with pytest.raises(ValueError, match=message):
        apply(H, state)


def test_apply_is_the_plain_product_or_refused_with_warnings_as_errors():
    # apply follows the one product rule: numpy's own bits when finite, refused otherwise, and
    # no numpy warning either way (as under python -W error)
    rng = np.random.default_rng(67)
    big = Gate("big", [[1e300, 0], [0, 1]], 1, 1, quantum=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bits in (1, 2, 3):
            g, x = random_gate(rng, bits, bits), rng.normal(size=2**bits) * 2.0 ** rng.integers(-500, 500)
            assert apply(g, x).tobytes() == (g.matrix @ x).tobytes()
        assert apply(big, [1.0, 2.0]).tolist() == [1e300, 2.0]
        for state in ([1e300, 0], [-1e300, 1]):
            with pytest.raises(ValueError, match="^state entries must all be finite$"):
                apply(big, state)


def test_not_flips_bits():
    n = standard_gate("NOT")
    assert np.array_equal(apply(n, ket_of_bits("0")), ket_of_bits("1"))


def test_hadamard_makes_even_superposition():
    out = apply(H, ket_of_bits("0"))
    assert np.allclose(out, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12, rtol=0)


# --- circuits -------------------------------------------------------------------------

def test_circuit_of_single_gate():
    c = Circuit(1, [[standard_gate("NOT")]])
    assert np.array_equal(circuit_matrix(c).matrix, standard_gate("NOT").matrix)


def test_empty_circuit_is_identity():
    c = Circuit(3)
    assert c.out_wires == 3
    gate = circuit_matrix(c)
    assert np.array_equal(gate.matrix, np.eye(8))


def test_three_stage_pipeline_matches_explicit_product():
    cnot = standard_gate("CNOT")
    c = Circuit(2, [[H, H], [cnot], [H, I1]])
    built = circuit_matrix(c).matrix
    explicit = mat_mul(
        kron(H.matrix, np.eye(2)), mat_mul(cnot.matrix, kron(H.matrix, H.matrix))
    )
    assert np.max(np.abs(built - explicit)) < 1e-12


def test_layer_width_mismatch_rejected():
    with pytest.raises(ValueError, match="layer 0"):
        Circuit(2, [[H]])


def test_widths_may_shrink_through_classical_gates():
    c = Circuit(2, [[standard_gate("AND")], [standard_gate("NOT")]])
    gate = circuit_matrix(c)
    assert gate.matrix.shape == (2, 4)
    # combined circuit computes NAND
    assert np.array_equal(gate.matrix, standard_gate("NAND").matrix)


def test_mixing_quantum_and_irreversible_gates_rejected():
    with pytest.raises(ValueError, match="mix"):
        Circuit(3, [[H, standard_gate("AND")]])


def test_a_circuit_of_quantum_gates_reads_no_matrix_to_tell_them_apart():
    g = circuit_matrix(Circuit(8, [[H] * 8]))
    Circuit(8, [[g]])
    Circuit(9, [[g, standard_gate("NOT")], [I1, g]])
    assert "matrix" not in vars(g)  # its layers were not contracted to ask whether it is a 0/1 gate
    for layers in ([[H, I1], [standard_gate("AND")]], [[standard_gate("AND")], [H]]):
        with pytest.raises(ValueError) as exc:
            Circuit(2, layers)
        assert str(exc.value) == "cannot mix irreversible gate 'AND' with quantum gate 'H' in one circuit"


def test_reversible_gates_mix_freely():
    Circuit(3, [[standard_gate("NOT"), standard_gate("CNOT")], [H, I1, I1]])


def test_classical_only_circuits_allowed():
    Circuit(4, [[standard_gate("AND"), standard_gate("OR")], [standard_gate("NAND")]])


# --- circuit_matrix against the layer-by-layer Kronecker reference ----------------

QUANTUM_GATES = ("H", "NOT", "I", "CNOT", "U")
CLASSICAL_GATES = ("AND", "NAND", "OR", "NOR", "NOT", "CNOT")


def random_unitary_gate(rng, wires):
    return Gate(f"U{wires}", random_unitary(rng, 2**wires), wires, wires, quantum=True)


def random_layer(rng, width, names):
    """Gates drawn from ``names`` tiling ``width`` wires top to bottom."""
    layer = []
    while width > 0:
        name = names[int(rng.integers(len(names)))]
        gate = random_unitary_gate(rng, int(rng.integers(1, 3))) if name == "U" else standard_gate(name)
        if gate.in_bits <= width:
            layer.append(gate)
            width -= gate.in_bits
    return layer


def random_circuit(rng, kind):
    wires = int(rng.integers(0 if kind == "empty" else 1, 9))
    if kind == "empty":
        return Circuit(wires)
    names = QUANTUM_GATES if kind == "quantum" else CLASSICAL_GATES
    layers, width = [], wires
    for _ in range(int(rng.integers(1, 5))):
        layer = random_layer(rng, width, names)
        layers.append(layer)
        width = sum(g.out_bits for g in layer)
    return Circuit(wires, layers)


def reference_circuit_matrix(c):
    """Each layer as a Kronecker product of its gates, layers composed in time order."""
    total = identity(c.wires)
    for layer in c.layers:
        if layer:
            total = sequential(total, reduce(parallel, layer))
    return total


def assert_matches_reference(c):
    """circuit_matrix(c) is the Kronecker reference within 1e-12, with its name, wires, flag and dtype."""
    got, want = circuit_matrix(c), reference_circuit_matrix(c)
    assert got.name == want.name
    assert (got.in_bits, got.out_bits, got.quantum) == (want.in_bits, want.out_bits, want.quantum)
    assert got.matrix.dtype == want.matrix.dtype
    assert got.matrix.shape == want.matrix.shape
    assert np.max(np.abs(got.matrix - want.matrix)) <= 1e-12
    return got


@pytest.mark.parametrize("kind", ["quantum", "classical", "empty"])
def test_circuit_matrix_matches_kronecker_reference(kind):
    rng = np.random.default_rng({"quantum": 101, "classical": 103, "empty": 107}[kind])
    for _ in range(40):
        assert_matches_reference(random_circuit(rng, kind))


def test_circuit_matrix_skips_empty_layers_on_zero_wires():
    c = Circuit(0, [[], []])
    got = circuit_matrix(c)
    assert got.name == reference_circuit_matrix(c).name == "I(0)"
    assert np.array_equal(got.matrix, np.eye(1))


# --- circuit_matrix cut at one balanced free wire -------------------------------------

def stacked_parts(rng, blocks):
    """Random sub-circuits of one depth, one per (wires, gate names) block, top first."""
    depth = int(rng.integers(1, 5))
    parts = []
    for wires, names in blocks:
        layers, width = [], wires
        for _ in range(depth):
            layers.append(random_layer(rng, width, names))
            width = sum(g.out_bits for g in layers[-1])
        parts.append(Circuit(wires, layers))
    return parts


def side_by_side(parts):
    """The circuit running each part on its own wires, the first part on top."""
    depth = len(parts[0].layers)
    return Circuit(sum(p.wires for p in parts), [[g for p in parts for g in p.layers[t]] for t in range(depth)])


def stacked_circuit(rng, blocks):
    """Random layers of each block's gates, the blocks side by side: (wires, gate names) each, top first.

    No gate crosses from one block to the next, so the circuit can be cut
    at least between each pair of blocks.
    """
    return side_by_side(stacked_parts(rng, blocks))


REAL_QUANTUM_GATES = ("H", "NOT", "I", "CNOT")
CUT_BLOCKS = {
    # AND, OR and the rest shrink the width on one side of a cut, not on the other
    "shrinking": (("AND", "NAND", "OR", "NOR", "NOT"), ("NOT", "CNOT")),
    "classical": (CLASSICAL_GATES, CLASSICAL_GATES, CLASSICAL_GATES),
    "identity": (REAL_QUANTUM_GATES, ("I",), REAL_QUANTUM_GATES),
    # random complex unitaries in the middle factor only, so the result is complex128
    "complex": (REAL_QUANTUM_GATES, ("U",), REAL_QUANTUM_GATES),
}


def cut_everywhere(monkeypatch):
    """Let circuit_matrix cut circuits and sides of any width, not only the wide ones it cuts by default."""
    monkeypatch.setattr(ketsim.gates, "_CUT_WIRES", 1)


def cut(c):
    return ketsim.gates._cut(c.wires, c.layers)


def joins_of(c):
    """circuit_matrix(c), and the (top, below) shapes of the Kronecker joins made for its matrix, in order.

    The matrix is read inside the spy, since a quantum result contracts its layers at that read.
    """
    shapes = []

    def spy(a, b):
        shapes.append((a.shape, b.shape))
        return ketsim.algebra._kron(a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ketsim.gates, "_kron", spy)
        g = circuit_matrix(c)
        g.matrix
        return g, shapes


@pytest.mark.parametrize("kind", sorted(CUT_BLOCKS))
@pytest.mark.parametrize("narrow_cuts", [True, False])
def test_a_circuit_cut_into_factors_matches_the_kronecker_reference(monkeypatch, kind, narrow_cuts):
    if narrow_cuts:
        cut_everywhere(monkeypatch)
    rng = np.random.default_rng(sorted(CUT_BLOCKS).index(kind) + 157)
    join_counts = set()
    for t in range(40):
        if t % 4 == 0:  # a plain random circuit, often with no cut
            c = random_circuit(rng, "classical" if kind in ("shrinking", "classical") else "quantum")
        else:
            names = CUT_BLOCKS[kind]
            c = stacked_circuit(rng, [(int(rng.integers(1, 9 // len(names) + 1)), n) for n in names])
            if c.wires >= ketsim.gates._CUT_WIRES:
                assert cut(c) is not None
        got = assert_matches_reference(c)
        joins = joins_of(c)[1]
        if narrow_cuts and t % 4:  # every side is cut again, at least down to the blocks
            assert len(joins) >= len(CUT_BLOCKS[kind]) - 1
        join_counts.add(len(joins))
        assert_within_bound(got)
        if kind == "complex" and t % 4:
            assert got.matrix.dtype == np.complex128
    assert min(join_counts) == 0 and max(join_counts) > 0  # both the uncut and the cut path ran


def test_a_cut_is_followed_through_gates_that_shrink_the_width(monkeypatch):
    cut_everywhere(monkeypatch)
    and_, or_, not_ = (standard_gate(n) for n in ("AND", "OR", "NOT"))
    # the cut above input wire 2 sits above wire 1 after the AND, where layer 1 has a gate boundary too
    c = Circuit(4, [[and_, not_, not_], [not_, or_]])
    assert cut(c) == (2, (1, 1))
    c = Circuit(5, [[and_, not_, or_], [not_] * 3, [and_, not_]])
    assert cut(c) == (3, (2, 2, 1))
    top, below = Circuit(3, [[and_, not_], [not_, not_], [and_]]), Circuit(2, [[or_], [not_], [not_]])
    assert side_by_side([top, below]).layers == c.layers and cut(top) is None and cut(below) is None
    got = circuit_matrix(c).matrix
    assert np.array_equal(got, reference_circuit_matrix(c).matrix)
    assert np.array_equal(got, np.kron(reference_circuit_matrix(top).matrix,
                                       reference_circuit_matrix(below).matrix))
    # gates with no output wire move a cut to the bottom or top edge of the next layer, where it holds
    drop = Gate("drop", [[1.0, 1.0]], 1, 0, quantum=False)
    for layers, at in (([[not_] * 4 + [drop] * 4, [not_] * 4], (4, 4)),
                       ([[drop] * 4 + [not_] * 4, [not_] * 4], (4, 0))):
        c = Circuit(8, layers)
        assert cut(c) == (4, at)
        assert np.array_equal(circuit_matrix(c).matrix, reference_circuit_matrix(c).matrix)


def test_narrow_circuits_are_not_cut():
    n = ketsim.gates._CUT_WIRES
    c = Circuit(n - 1, [[H] * (n - 1)])
    assert cut(c) is None and joins_of(c)[1] == []
    # a wide one is cut once; its sides, narrower than _CUT_WIRES, are contracted whole
    wide = Circuit(n, [[H] * n])
    assert cut(wide) == (n // 2, (n // 2,))
    assert joins_of(wide)[1] == [((2 ** (n // 2),) * 2, (2 ** (n - n // 2),) * 2)]


def test_zero_wire_gates_at_the_cut_match_the_reference():
    i0, cnot = identity(0), standard_gate("CNOT")
    # free only at input wire 4: three I(0) gates sit there in layer 0 and one in layer 1, more at
    # the top and bottom edges; each boundary's I(0) gates fall to the side above it
    c = Circuit(8, [[i0, i0, cnot, cnot, i0, i0, i0, cnot, cnot, i0],
                    [i0, H, cnot, H, i0, H, cnot, H, i0, i0]])
    assert cut(c) == (4, (7, 5))
    got, joins = joins_of(c)
    assert joins == [((16, 16), (16, 16))]
    assert_matches_reference(c)
    assert_within_bound(got)


@pytest.mark.parametrize("narrow_cuts", [True, False])
def test_zero_wire_gates_anywhere_match_the_reference(monkeypatch, narrow_cuts):
    if narrow_cuts:
        cut_everywhere(monkeypatch)
    i0 = identity(0)
    rng = np.random.default_rng(173)
    for kind in sorted(CUT_BLOCKS) * 5:
        c = stacked_circuit(rng, [(int(rng.integers(1, 4)), n) for n in CUT_BLOCKS[kind]])
        layers = [list(layer) for layer in c.layers]
        for layer in layers:  # several I(0) at a few gate boundaries, the two edges included
            for k in sorted(rng.choice(len(layer) + 1, size=min(3, len(layer) + 1), replace=False))[::-1]:
                layer[k:k] = [i0] * int(rng.integers(1, 4))
        assert_within_bound(assert_matches_reference(Circuit(c.wires, layers)))


def free_cuts(c):
    """Every input wire no gate crosses, with each layer's gate index there: _cut's walk, restated slowly.

    A cut at wire w of a layer falls before the last gate that starts at
    w, so zero-wire gates there go to the side above.
    """
    free = {}
    for p in range(1, c.wires):
        w, index = p, []
        for layer in c.layers:
            starts = [k for k in range(len(layer) + 1) if sum(g.in_bits for g in layer[:k]) == w]
            if not starts:
                break
            index.append(starts[-1])
            w = sum(g.out_bits for g in layer[:starts[-1]])
        else:
            free[p] = tuple(index)
    return free


@pytest.mark.parametrize("narrow_cuts", [True, False])
def test_the_cut_is_the_brute_force_one(monkeypatch, narrow_cuts):
    if narrow_cuts:
        cut_everywhere(monkeypatch)
    rng = np.random.default_rng(179)
    cuts = 0
    for t in range(120):
        blocks = CUT_BLOCKS[sorted(CUT_BLOCKS)[t % len(CUT_BLOCKS)]]
        c = stacked_circuit(rng, [(int(rng.integers(1, 9 // len(blocks) + 1)), names) for names in blocks])
        free = free_cuts(c)
        if not free or c.wires < ketsim.gates._CUT_WIRES:
            assert cut(c) is None
            continue
        p = min(free, key=lambda p: (abs(2 * p - c.wires), p))
        assert cut(c) == (p, free[p])
        # the two sides are circuits of their own, and the whole is their Kronecker product
        top = Circuit(p, [layer[:k] for layer, k in zip(c.layers, free[p])])
        below = Circuit(c.wires - p, [layer[k:] for layer, k in zip(c.layers, free[p])])
        assert side_by_side([top, below]).layers == c.layers
        want = np.kron(reference_circuit_matrix(top).matrix, reference_circuit_matrix(below).matrix)
        assert np.max(np.abs(reference_circuit_matrix(c).matrix - want)) <= 1e-12
        cuts += 1
    assert cuts >= 30  # the comparison ran on cut circuits, not only on uncut ones


def test_a_wide_side_is_cut_again():
    cnot = standard_gate("CNOT")
    # free only at input wires 2 and 8, equally balanced: the first is cut, and the 8-wire side
    # below it is cut again at its wire 6
    c = Circuit(10, [[cnot] * 5, [cnot, H, cnot, cnot, H, cnot]])
    assert cut(c) == (2, (1, 1))
    got, joins = joins_of(c)
    assert joins == [((64, 64), (4, 4)), ((4, 4), (256, 256))]
    assert np.max(np.abs(got.matrix - reference_circuit_matrix(c).matrix)) <= 1e-12
    assert_within_bound(got)


def test_four_hadamard_layers_on_ten_wires_are_the_identity():
    # every wire is free, so the cut is at wire 5 and the two 5-wire sides are contracted whole
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = circuit_matrix(Circuit(10, [[H] * 10] * 4)).matrix
        assert np.max(np.abs(m - np.eye(1024))) <= 1e-12 and validate(m, "quantum") == []


def test_of_several_free_wires_the_most_balanced_is_cut():
    # free wires 1, 5 and 7 between sub-circuits of widths 1, 4, 2 and 3: 5 is cut, and the result
    # is the Kronecker product of the sub-circuits
    n, cnot = standard_gate("NOT"), standard_gate("CNOT")
    parts = [Circuit(1, [[H], [n]]), Circuit(4, [[cnot, cnot], [H, cnot, H]]),
             Circuit(2, [[cnot], [H, H]]), Circuit(3, [[cnot, H], [H, cnot]])]
    c = side_by_side(parts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cut(c) == (5, (3, 4))
        m = circuit_matrix(c).matrix
        want = reduce(np.kron, (circuit_matrix(p).matrix for p in parts))
        assert np.max(np.abs(m - want)) <= 1e-12 and validate(m, "quantum") == []


def test_a_cut_through_and_and_or_gives_the_exact_classical_product():
    # at the default cut width: 5 wires are contracted whole, and 10 are cut through AND and OR
    a, n, o = (standard_gate(x) for x in ("AND", "NOT", "OR"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for w, layers in ((5, [[a, n, o], [n] * 3, [a, n]]), (10, [[a, n, o] * 2, [n] * 6, [a, n] * 2])):
            c = Circuit(w, layers)
            assert np.array_equal(circuit_matrix(c).matrix, reference_circuit_matrix(c).matrix), w


@pytest.mark.parametrize("shape_a, shape_b", [
    ((8, 8), (2, 2)), ((2, 2), (8, 8)), ((4, 4), (4, 4)), ((1, 4), (2, 1)), ((2, 1), (1, 4)),
    ((4, 4), (8, 8)), ((16, 16), (32, 32)), ((32, 32), (4, 4)),
    # the non-square factors of circuits whose gates shrink the width
    ((2, 4), (8, 8)), ((16, 16), (4, 16)), ((4, 8), (16, 4)), ((8, 4), (4, 2)),
    # with (32, 32) ⊗ (4, 4) above, the joins that the `circuits` benchmark workload makes at seed 7
    ((128, 128), (2, 2)), ((64, 64), (2, 2)), ((2, 2), (64, 64)),
])
def test_the_join_is_numpys_kron_bit_for_bit(shape_a, shape_b):
    rng = np.random.default_rng(163)
    a = rng.normal(size=shape_a) + 1j * rng.normal(size=shape_a)
    b = rng.normal(size=shape_b)
    fortran_a, fortran_b = np.asfortranarray(a), np.asfortranarray(b)
    for x, y in ((a, b), (b, a), (a.real, b), (b, a.real), (fortran_a, fortran_b), (fortran_b, a.real),
                 (a.T, b), (b.T, a.T)):
        got, want = ketsim.algebra._kron(x, y), np.kron(x, y)
        assert got.dtype == want.dtype and got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


# --- the cut is at the most balanced free wire -----------------------------------------

UNEVEN_WIDTHS = [(1, 2, 2, 1, 1, 1, 1), (1, 5, 1, 2), (3, 1, 4), (2, 1, 1, 1, 3), (1, 1, 6), (6, 1, 1),
                 (4, 2, 1)]


@pytest.mark.parametrize("names", [QUANTUM_GATES, CLASSICAL_GATES, ("NOT", "CNOT", "I")],
                         ids=["quantum", "classical", "permutation"])
@pytest.mark.parametrize("narrow_cuts", [True, False])
def test_the_balanced_join_matches_the_left_to_right_join(monkeypatch, narrow_cuts, names):
    if narrow_cuts:
        cut_everywhere(monkeypatch)
    rng = np.random.default_rng(167 + len(names))
    for t in range(3 * len(UNEVEN_WIDTHS)):
        parts = stacked_parts(rng, [(width, names) for width in UNEVEN_WIDTHS[t % len(UNEVEN_WIDTHS)]])
        c = side_by_side(parts)
        assert cut(c) is not None
        got = circuit_matrix(c)
        want = reduce(np.kron, (reference_circuit_matrix(p).matrix for p in parts))
        assert got.matrix.dtype == want.dtype and got.matrix.shape == want.shape
        if "U" in names:
            assert np.max(np.abs(got.matrix - want)) <= 1e-15
        else:  # 0/1 entries: every product is exact, in any order
            assert got.matrix.tobytes() == want.tobytes()
        assert_within_bound(got)


def widths_cut(widths):
    """``_cut`` of one layer of identity gates of these widths, top first."""
    return cut(Circuit(sum(widths), [[identity(w) for w in widths]]))


def test_the_top_split_is_the_most_balanced_one(monkeypatch):
    assert widths_cut([1, 2, 2, 1, 1, 1, 1]) == (5, (3,))  # 5 wires above, 4 below
    assert widths_cut([3, 1, 4]) == (4, (2,))
    assert widths_cut([1, 8]) == (1, (1,)) and widths_cut([8, 1]) == (8, (1,))
    assert widths_cut([1] * 7) == (3, (3,))  # of two equally balanced cuts, the first
    cut_everywhere(monkeypatch)
    assert widths_cut([1, 1, 1]) == (1, (1,))


def test_the_last_join_is_between_the_two_halves():
    cnot = standard_gate("CNOT")
    c = Circuit(9, [[H, cnot, cnot, H, H, H, H]])
    got, joins = joins_of(c)
    assert joins == [((32, 32), (16, 16))]  # one cut, after 5 wires; both sides are contracted whole
    assert np.max(np.abs(got.matrix - reference_circuit_matrix(c).matrix)) <= 1e-12


@pytest.mark.parametrize("wires", range(9))
def test_a_circuit_with_no_layers_is_the_identity(wires):
    got = assert_matches_reference(Circuit(wires))
    assert np.array_equal(got.matrix, np.eye(2**wires)) and got._bound == 0.0
    assert_within_bound(got)


# --- a product of checked gates is not checked again ----------------------------------

def test_every_kind_of_gate_keeps_its_exact_bound():
    not_, cnot = standard_gate("NOT"), standard_gate("CNOT")
    names = ("NOT", "AND", "NAND", "OR", "NOR", "H", "CNOT", "I")
    library = {name: standard_gate(name)._bound for name in names}
    assert library == {"NOT": 0.0, "AND": np.inf, "NAND": np.inf, "OR": np.inf, "NOR": np.inf,
                       "H": 3.1086244689504383e-15, "CNOT": 0.0, "I": 0.0}
    assert [identity(w)._bound for w in range(4)] == [0.0] * 4
    assert sequential(H, H)._bound == 9.769962616701412e-15
    assert sequential(H, not_)._bound == 6.6613381477509534e-15
    assert parallel(H, cnot)._bound == 5.620772402844488e-15
    cut_at_4 = circuit_matrix(Circuit(8, [[H] * 8, [cnot] * 4]))
    uncut = circuit_matrix(Circuit(4, [[H] * 4, [cnot, cnot], [H, cnot, H]]))
    assert "matrix" not in vars(cut_at_4) and cut_at_4._bound == 2.331554220730569e-13
    assert "matrix" not in vars(uncut) and uncut._bound == 1.6420842551838432e-13


def assert_within_bound(g):
    """A quantum gate passes validate and its recorded bound covers its measured deviation."""
    if not g.quantum:
        assert g._bound == np.inf
        return
    m = g.matrix
    assert validate(m, "quantum") == []
    assert g._bound >= np.linalg.norm(m.conj().T @ m - np.eye(len(m)), 2)


def random_chain(rng, kind):
    """A gate built by up to six random ``sequential``/``parallel`` steps, at most 8 wires wide."""
    names = QUANTUM_GATES if kind == "quantum" else CLASSICAL_GATES
    g = reduce(parallel, random_layer(rng, int(rng.integers(1, 4)), names))
    for _ in range(int(rng.integers(1, 7))):
        if rng.random() < 0.5 and g.in_bits < 8:
            part = reduce(parallel, random_layer(rng, int(rng.integers(1, 9 - g.in_bits)), names))
            g = parallel(g, part) if rng.random() < 0.5 else parallel(part, g)
        else:
            g = sequential(g, reduce(parallel, random_layer(rng, g.out_bits, names)))
    return g


@pytest.mark.parametrize("kind", ["quantum", "classical", "empty"])
def test_circuit_results_stay_within_their_recorded_bound(kind):
    rng = np.random.default_rng({"quantum": 127, "classical": 131, "empty": 137}[kind])
    for _ in range(40):
        c = random_circuit(rng, kind)
        assert_within_bound(circuit_matrix(c))
        assert_within_bound(reference_circuit_matrix(c))


@pytest.mark.parametrize("kind", ["quantum", "classical"])
def test_sequential_and_parallel_chains_stay_within_their_recorded_bound(kind):
    rng = np.random.default_rng({"quantum": 139, "classical": 149}[kind])
    for _ in range(60):
        assert_within_bound(random_chain(rng, kind))


def counting_validate(monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return validate(*args, **kwargs)

    monkeypatch.setattr(ketsim.algebra, "validate", spy)  # gates refuse through algebra.refuse
    return calls


def test_a_deep_circuit_is_not_validated_and_stays_unitary(monkeypatch):
    rng = np.random.default_rng(151)
    c = Circuit(6, [random_layer(rng, 6, ("H", "NOT", "I", "CNOT")) for _ in range(2500)])
    calls = counting_validate(monkeypatch)
    got = circuit_matrix(c)
    assert calls == []
    assert got._bound <= DEFAULT_TOL
    assert_within_bound(got)


def test_a_deep_eight_wire_circuit_passes_validate():
    # 500 layers: the gates' summed bound stays within tol, so the product is not validated again
    cnot = standard_gate("CNOT")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = Circuit(8, [[H] * 8, [cnot] * 4] * 250)
        assert validate(circuit_matrix(c).matrix, "quantum") == []


def rotation(scale, name="U"):
    t = 0.3
    return Gate(name, np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]) * scale, 1, 1, quantum=True)


def test_a_product_past_the_tolerance_is_still_refused():
    u = rotation(1 + 4e-10)  # deviates by 8e-10: passes on its own
    message = ("flagged quantum but not unitary: adjoint product deviates from identity by {} "
               "at entry [0,0]")
    for build, name, dev in (
        (lambda: circuit_matrix(Circuit(1, [[u], [u], [u]])), "I>U>U>U", "2.4e-09"),
        (lambda: sequential(u, u), "U>U", "1.6e-09"),
        (lambda: parallel(u, u), "U|U", "1.6e-09"),
    ):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == f"gate {name!r} " + message.format(dev)


@pytest.mark.parametrize("narrow_cuts, entry", [(False, "[1,1]"), (True, "[0,0]")])
def test_a_refused_two_wire_circuit_names_its_largest_entry(monkeypatch, narrow_cuts, entry):
    # Cut between its wires, the circuit is V ⊗ V for V = U>U>U, so M† M = V†V ⊗ V†V has
    # four diagonal entries equal to the last bit and the first, [0,0], is named.  Uncut,
    # rounding makes [1,1] and [3,3] larger than [0,0] and [2,2] by 2.2e-16.
    if narrow_cuts:
        cut_everywhere(monkeypatch)
    u = rotation(1 + 4e-10)
    with pytest.raises(ValueError) as exc:
        circuit_matrix(Circuit(2, [[u, u]] * 3))
    assert str(exc.value) == ("gate 'I(2)>U|U>U|U>U|U' flagged quantum but not unitary: adjoint product "
                              f"deviates from identity by 4.8e-09 at entry {entry}")


def test_a_product_past_its_bound_is_validated_and_kept_when_it_passes(monkeypatch):
    u = rotation(1 + 1e-10)  # three deviate by 6e-10, but their summed bound exceeds 1e-9
    calls = counting_validate(monkeypatch)
    got = circuit_matrix(Circuit(1, [[u], [u], [u]]))
    assert len(calls) == 1 and got._bound > DEFAULT_TOL
    assert np.max(np.abs(got.matrix - u.matrix @ u.matrix @ u.matrix)) <= 1e-15


def test_a_checked_gate_measures_its_deviation_once(monkeypatch):
    calls = []
    measure = ketsim.algebra._unitary_deviation

    def spy(m):
        calls.append(m.shape)
        return measure(m)

    monkeypatch.setattr(ketsim.algebra, "_unitary_deviation", spy)
    monkeypatch.setattr(ketsim.gates, "_unitary_deviation", spy)
    u = rotation(1 + 1e-10)
    product = sequential(u, u)  # reads u's bound, and is not validated again
    assert calls == [(2, 2)]
    assert u._bound == 2 * (measure(u.matrix)[0] + 6 * np.finfo(float).eps)
    assert_within_bound(u)
    assert_within_bound(product)


def test_identity_gates_are_told_by_their_matrix_not_their_name():
    not_named_i = Gate("I", standard_gate("NOT").matrix, 1, 1, quantum=True)
    assert np.array_equal(circuit_matrix(Circuit(1, [[not_named_i]])).matrix, [[0, 1], [1, 0]])
    plain = Gate("P", np.eye(2), 1, 1, quantum=True)
    assert plain._identity and not not_named_i._identity
    # a complex identity is contracted, so the result stays complex as before
    complex_i = Gate("J", np.eye(2, dtype=complex), 1, 1, quantum=True)
    assert circuit_matrix(Circuit(2, [[complex_i, plain]])).matrix.dtype == np.complex128


def test_the_deterministic_flag_is_read_from_the_matrix():
    z = Gate("Z", np.diag([1.0, -1.0]), 1, 1, quantum=True)
    zz = sequential(z, z)  # exactly the identity, though its parts are not 0/1
    Circuit(3, [[zz, standard_gate("AND")]])
    with pytest.raises(ValueError, match="mix"):
        Circuit(3, [[z, standard_gate("AND")]])


# --- a quantum circuit keeps its layers, and contracts them when its matrix is read ---

EPS = np.finfo(float).eps


def unjoined_circuits(seed, count=12, most=10):
    """Cut quantum circuits of 7 to ``most`` wires in three blocks, real (H, NOT, I, CNOT) and complex (U in the middle).

    At most 10 wires by default, where a 2^n × 2^n complex matrix takes 16 MiB.
    """
    rng = np.random.default_rng(seed)
    for t in range(count):
        blocks = CUT_BLOCKS["identity" if t % 2 else "complex"]
        widths = [0]
        while not 7 <= sum(widths) <= most:
            widths = [int(w) for w in rng.integers(1, 5, size=len(blocks))]
        yield stacked_circuit(rng, list(zip(widths, blocks)))


def eager_join(c):
    """A cut circuit's matrix joined at once: ``_kron`` of its two sides' own ``circuit_matrix`` results."""
    p, at = cut(c)
    top = Circuit(p, [layer[:k] for layer, k in zip(c.layers, at)])
    below = Circuit(c.wires - p, [layer[k:] for layer, k in zip(c.layers, at)])
    return ketsim.algebra._kron(circuit_matrix(top).matrix, circuit_matrix(below).matrix)


def test_a_quantum_circuit_keeps_its_layers_until_its_matrix_is_read():
    dtypes = set()
    for c in unjoined_circuits(191):
        g = circuit_matrix(c)
        assert "matrix" not in vars(g) and g._layers is c.layers and g._bound <= DEFAULT_TOL
        assert (g.in_bits, g.out_bits, g.quantum) == (c.wires, c.wires, True)
        m = g.matrix
        assert "matrix" in vars(g) and g.matrix is m and not m.flags.writeable
        assert m.tobytes() == eager_join(c).tobytes()  # the same bytes as a join made at once
        assert np.max(np.abs(m - reference_circuit_matrix(c).matrix)) <= 1e-12
        assert_within_bound(g)
        dtypes.add(m.dtype)
    assert dtypes == {np.dtype(np.float64), np.dtype(np.complex128)}


def test_apply_runs_the_two_sides_and_agrees_with_the_matrix_product():
    # Each entry of either product is a sum of at most 2^n terms, and the terms' moduli add up to at
    # most ||row|| ||x|| <= (1 + DEFAULT_TOL) ||x||, so either errs by at most about 2^n eps ||x||
    # (Higham, 3.1 and 3.6): they differ by at most twice that.
    rng = np.random.default_rng(193)
    for c in unjoined_circuits(197):
        g = circuit_matrix(c)
        xs = (rng.normal(size=2**c.wires), rng.normal(size=2**c.wires) + 1j * rng.normal(size=2**c.wires))
        before = [apply(g, x) for x in xs]
        assert "matrix" not in vars(g)  # applied without contracting its matrix
        for x, got in zip(xs, before):
            want = g.matrix @ x
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 2 * 2**c.wires * EPS * np.linalg.norm(x)
            assert apply(g, x).tobytes() == got.tobytes()  # the same path after the read


def test_apply_of_the_sides_is_finite_or_refused_with_warnings_as_errors():
    rng = np.random.default_rng(199)
    refused = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in unjoined_circuits(211, most=12):
            g = circuit_matrix(c)
            x = rng.normal(size=2**c.wires)
            unit = apply(g, x)
            for scale in (2.0**-500, 2.0**500):  # within the float range at every step: exact scaling
                assert apply(g, x * scale).tobytes() == (unit * scale).tobytes()
            try:
                got = apply(g, x / np.max(np.abs(x)) * np.finfo(float).max)
            except ValueError as exc:
                assert str(exc) == "state entries must all be finite"
                refused += 1
            else:
                assert np.isfinite(got).all()
            with pytest.raises(ValueError, match="^state entries must all be finite$"):
                apply(g, np.where(np.arange(2**c.wires) == 3, np.inf, x))
            assert "matrix" not in vars(g)
    assert refused > 0  # the refusal ran, not only the finite path


def test_an_unjoined_gate_copies_and_pickles():
    c = next(unjoined_circuits(223))
    x = np.random.default_rng(227).normal(size=2**c.wires)
    for copied in (copy.copy, lambda g: pickle.loads(pickle.dumps(g))):
        g = circuit_matrix(c)
        twin = copied(g)
        assert "matrix" not in vars(g) and "matrix" not in vars(twin)
        assert (twin.name, twin.in_bits, twin.out_bits, twin.quantum, twin._bound) == (
            g.name, g.in_bits, g.out_bits, g.quantum, g._bound)
        assert apply(twin, x).tobytes() == apply(g, x).tobytes()
        assert twin.matrix.tobytes() == g.matrix.tobytes()
    with pytest.raises(AttributeError, match="'Gate' object has no attribute 'nothing'"):
        circuit_matrix(c).nothing


def test_no_full_size_join_is_made_until_the_matrix_is_read(monkeypatch):
    sizes = []

    def spy(a, b):
        sizes.append(a.size * b.size)
        return ketsim.algebra._kron(a, b)

    monkeypatch.setattr(ketsim.gates, "_kron", spy)
    for c in unjoined_circuits(229):
        sizes.clear()
        g = circuit_matrix(c)
        apply(g, ket_of_bits("0" * c.wires))
        assert sizes == []  # the layers run on the state, with no join at all
        g.matrix
        assert sizes[-1] == 4**c.wires


def test_only_quantum_results_within_their_bound_keep_their_layers():
    not_, cnot = standard_gate("NOT"), standard_gate("CNOT")
    for c in (Circuit(8, [[H] * 8, [cnot] * 4]),  # cut
              Circuit(8, [[H] * 8, [cnot] * 4, [H, cnot, cnot, cnot, H]]),  # no free wire
              Circuit(4, [[H] * 4])):  # narrower than _CUT_WIRES
        g = circuit_matrix(c)
        assert "matrix" not in vars(g) and g._layers is c.layers
    classical = circuit_matrix(Circuit(8, [[standard_gate("AND")] * 4, [not_] * 4]))  # contracted to check it
    u = rotation(1 + 1e-10)  # its summed bound passes DEFAULT_TOL: validated, so contracted now
    unbounded = circuit_matrix(Circuit(8, [[u] + [H] * 7] * 3))
    assert unbounded._bound > DEFAULT_TOL
    for g in (classical, unbounded, identity(3), sequential(H, H), parallel(H, cnot)):
        assert "matrix" in vars(g) and "_layers" not in vars(g)


def brickwork(wires, depth):
    """H layers alternating with CNOT layers at offsets 0 and 1, so no wire is free."""
    cnot, layers = standard_gate("CNOT"), []
    for t in range(depth):
        layers.append([H] * wires)
        layers.append([cnot] * (wires // 2) if t % 2 == 0 else [I1] + [cnot] * ((wires - 1) // 2) + [I1])
    return Circuit(wires, layers)


def einsum_state(c, x):
    """The state after each gate of ``c`` in turn, by one einsum on that gate's own wires."""
    psi, letters = np.asarray(x).reshape((2,) * c.wires), "abcdefghijklmnopqrstuvwxyz"
    wire_sub = letters[:c.wires]
    for layer in c.layers:
        k = 0
        for g in layer:
            new, old = letters[c.wires:c.wires + g.in_bits], wire_sub[k:k + g.in_bits]
            tensor = g.matrix.reshape((2,) * (2 * g.in_bits))
            out = wire_sub[:k] + new + wire_sub[k + g.in_bits:]
            psi = np.einsum(f"{new}{old},{wire_sub}->{out}", tensor, psi)
            k += g.in_bits
    return psi.reshape(-1)


def test_an_uncut_twelve_wire_brickwork_is_applied_gate_by_gate_with_no_matrix():
    c = brickwork(12, 5)
    assert cut(c) is None
    g = circuit_matrix(c)
    rng = np.random.default_rng(233)
    for x in (ket_of_bits("0" * 12), rng.normal(size=2**12) + 1j * rng.normal(size=2**12)):
        got = apply(g, x)
        assert got.dtype == np.result_type(x, float) and got.shape == (2**12,)
        assert np.max(np.abs(got - einsum_state(c, x))) <= 1e-12
    assert "matrix" not in vars(g) and g._bound <= DEFAULT_TOL


def test_an_identity_only_circuit_and_an_int_state_keep_the_matrix_products_dtype():
    cnot = standard_gate("CNOT")
    for c in (Circuit(8, [[I1] * 8, [identity(3), identity(5)]]), Circuit(8, [[H] * 8, [cnot] * 4])):
        g = circuit_matrix(c)
        for x in (np.arange(2**8), np.arange(2**8, dtype=np.float32), np.ones(2**8, dtype=np.complex64),
                  np.linspace(0, 1, 2**8)):
            got, want = apply(g, x), g.matrix @ x
            assert got.dtype == want.dtype and got.dtype in (np.float64, np.complex128)
            assert np.max(np.abs(got - want)) <= 2 * 2**8 * EPS * np.linalg.norm(x)
            assert not np.shares_memory(got, x)  # a fresh array, even where every gate is skipped


def test_a_result_that_keeps_its_layers_is_a_gate_of_another_circuit():
    inner = circuit_matrix(Circuit(8, [[H] * 8, [standard_gate("CNOT")] * 4]))
    outer = Circuit(9, [[inner, standard_gate("NOT")], [I1, inner], [H] * 9])
    g = circuit_matrix(outer)
    assert "matrix" not in vars(g) and g._layers is outer.layers
    x = np.random.default_rng(239).normal(size=2**9)
    got = apply(g, x)
    assert "matrix" not in vars(inner)  # its bound and its run on the state read only its layers
    want = reference_circuit_matrix(outer).matrix
    assert np.max(np.abs(got - want @ x)) <= 1e-12
    assert np.max(np.abs(g.matrix - want)) <= 1e-12
    assert_within_bound(g)
    y = x[:2**8]
    assert np.max(np.abs(apply(sequential(inner, inner), y) - inner.matrix @ (inner.matrix @ y))) <= 1e-12


def test_a_layered_product_that_is_exactly_the_identity_is_placed_by_its_bound():
    # told from its layers, NOT then NOT is no identity, though its matrix is exactly I
    not_not = circuit_matrix(Circuit(1, [[standard_gate("NOT")], [standard_gate("NOT")]]))
    assert not not_not._identity and "matrix" not in vars(not_not)
    outer = circuit_matrix(Circuit(2, [[not_not, H]]))
    assert outer._bound == 2.026264356212778e-14  # with NOT·NOT skipped, H's alone: 8.13292033673854e-15
    assert np.array_equal(not_not.matrix, np.eye(2))
    assert np.array_equal(outer.matrix, parallel(identity(1), H).matrix)
    assert_within_bound(outer)


def test_a_gates_repr_names_it_and_its_wires_and_reads_no_matrix():
    small, wide = circuit_matrix(Circuit(4, [[H] * 4])), circuit_matrix(brickwork(16, 20))  # wide: 32 GiB
    assert repr(small) == str(small) == "Gate('I(4)>H|H|H|H', in_bits=4, out_bits=4, quantum=True)"
    assert repr(wide) == str(wide) == f"Gate({wide.name!r}, in_bits=16, out_bits=16, quantum=True)"
    assert "matrix" not in vars(small) and "matrix" not in vars(wide)
    assert repr(standard_gate("AND")) == "Gate('AND', in_bits=2, out_bits=1, quantum=False)"
    assert repr(identity(3)) == "Gate('I(3)', in_bits=3, out_bits=3, quantum=True)"


def random_layered_circuit(rng, wires, inner=True):
    """1-5 layers of H, NOT, I, CNOT and random unitaries on one or two wires (so not all symmetric),
    each ending in a gate other than I on the last one or two wires, some with I(0) at their edges,
    and (if ``inner``) some holding a layered result on up to 6 wires."""
    layers = []
    for _ in range(int(rng.integers(1, 6))):
        k = int(rng.integers(1, min(wires, 2) + 1))
        last = (random_unitary_gate(rng, k) if rng.random() < 0.4
                else standard_gate("CNOT" if k == 2 else ("H", "NOT")[int(rng.integers(2))]))
        layer = random_layer(rng, wires - k, QUANTUM_GATES) + [last]
        if inner and rng.random() < 0.3:  # a layered gate on the top or the last wires
            w = int(rng.integers(1, min(wires, 6) + 1))
            g = circuit_matrix(random_layered_circuit(rng, w, inner=False))
            rest = random_layer(rng, wires - w, QUANTUM_GATES)
            layer = [g] + rest if rng.random() < 0.5 else rest + [g]
        for at in (0, len(layer)):
            if rng.random() < 0.3:
                layer.insert(at, identity(0))
        layers.append(layer)
    return Circuit(wires, layers)


def test_apply_of_random_layered_circuits_is_the_per_gate_state():
    rng = np.random.default_rng(241)
    states = (lambda n: rng.normal(size=n), lambda n: rng.normal(size=n) + 1j * rng.normal(size=n),
              lambda n: rng.normal(size=n).astype(np.float32), lambda n: rng.integers(-3, 4, size=n))
    for t in range(96):
        c = random_layered_circuit(rng, 1 + t % 12)
        g, x = circuit_matrix(c), states[t % 4](2**c.wires)
        assert "_layers" in vars(g)
        got = apply(g, x)
        assert "matrix" not in vars(g) and got.shape == x.shape
        assert apply(g, x).tobytes() == got.tobytes()
        assert np.max(np.abs(got - einsum_state(c, x))) <= 1e-12
        # g.matrix's dtype, from its gates' (an inner layered gate's matrix is at most 2^6 square)
        assert got.dtype == np.result_type(x, np.float64, *(h.matrix for layer in c.layers for h in layer))
        if c.wires <= 8:
            assert got.dtype == (g.matrix @ x).dtype and apply(g, x).tobytes() == got.tobytes()


def test_apply_of_a_layered_gate_works_out_no_bound(monkeypatch):
    calls, real = [], ketsim.gates._product_bound
    monkeypatch.setattr(ketsim.gates, "_product_bound", lambda *args: calls.append(args) or real(*args))
    c = brickwork(12, 5)
    g = circuit_matrix(c)
    assert len(calls) == sum(h is not I1 for layer in c.layers for h in layer)  # the spy sees the bound walk
    calls.clear()
    apply(g, ket_of_bits("0" * 12))
    assert calls == []
