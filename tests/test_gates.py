"""Gate library, truth tables, and circuit composition."""
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ketsim.algebra import kron, mat_mul
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


def test_quantum_flag_requires_unitary():
    with pytest.raises(ValueError, match="quantum"):
        Gate("BAD", np.array([[1.0, 1.0], [0.0, 1.0]]), 1, 1, quantum=True)


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


def test_reversible_gates_mix_freely():
    Circuit(3, [[standard_gate("NOT"), standard_gate("CNOT")], [H, I1, I1]])


def test_classical_only_circuits_allowed():
    Circuit(4, [[standard_gate("AND"), standard_gate("OR")], [standard_gate("NAND")]])


# --- circuit_matrix against the layer-by-layer Kronecker reference ----------------

QUANTUM_GATES = ("H", "NOT", "I", "CNOT", "U")
CLASSICAL_GATES = ("AND", "NAND", "OR", "NOR", "NOT", "CNOT")


def random_unitary_gate(rng, wires):
    z = rng.normal(size=(2**wires, 2**wires)) + 1j * rng.normal(size=(2**wires, 2**wires))
    q, r = np.linalg.qr(z)
    return Gate(f"U{wires}", q * (np.diag(r) / np.abs(np.diag(r))), wires, wires, quantum=True)


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


@pytest.mark.parametrize("kind", ["quantum", "classical", "empty"])
def test_circuit_matrix_matches_kronecker_reference(kind):
    rng = np.random.default_rng({"quantum": 101, "classical": 103, "empty": 107}[kind])
    for _ in range(40):
        c = random_circuit(rng, kind)
        got = circuit_matrix(c)
        want = reference_circuit_matrix(c)
        assert got.name == want.name
        assert (got.in_bits, got.out_bits, got.quantum) == (want.in_bits, want.out_bits, want.quantum)
        assert got.matrix.dtype == want.matrix.dtype
        assert got.matrix.shape == want.matrix.shape
        assert np.max(np.abs(got.matrix - want.matrix)) <= 1e-12


def test_circuit_matrix_skips_empty_layers_on_zero_wires():
    c = Circuit(0, [[], []])
    got = circuit_matrix(c)
    assert got.name == reference_circuit_matrix(c).name == "I(0)"
    assert np.array_equal(got.matrix, np.eye(1))
