"""Oracle construction and the one-query constant/balanced decision."""
import numpy as np
import pytest

from ketsim.algebra import mat_mul, mat_vec, validate
from ketsim.deutsch import (
    BINARY_FUNCTIONS,
    BinaryFunction,
    first_attempt,
    oracle_matrix,
    run_deutsch,
    second_attempt,
    top_marginal,
)
from ketsim.gates import Gate, apply, ket_of_bits, standard_gate

MINUS = np.array([1.0, -1.0]) / np.sqrt(2)  # bottom-wire state (|0> - |1|)/sqrt(2)

ALL_FUNCTIONS = list(BINARY_FUNCTIONS.values())


def test_function_table_is_complete():
    assert len(ALL_FUNCTIONS) == 4
    assert {(f.f0, f.f1) for f in ALL_FUNCTIONS} == {(0, 0), (1, 1), (0, 1), (1, 0)}


def test_classification_of_each_function():
    assert BINARY_FUNCTIONS["const0"].classification == "constant"
    assert BINARY_FUNCTIONS["const1"].classification == "constant"
    assert BINARY_FUNCTIONS["id"].classification == "balanced"
    assert BINARY_FUNCTIONS["not"].classification == "balanced"


def test_function_values_must_be_bits():
    with pytest.raises(ValueError, match="bits"):
        BinaryFunction(0, 2)
    with pytest.raises(ValueError, match="bit"):
        BINARY_FUNCTIONS["id"].value(3)


# --- oracle construction ---------------------------------------------------------

def test_oracle_for_bit_flip_function():
    # f(0)=1, f(1)=0 swaps |00> with |01> and leaves |10>, |11> alone
    want = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert np.array_equal(oracle_matrix(BINARY_FUNCTIONS["not"]).matrix, want)


def test_oracle_for_constant_zero_is_identity():
    assert np.array_equal(oracle_matrix(BINARY_FUNCTIONS["const0"]).matrix, np.eye(4))


def test_oracle_for_identity_function_is_cnot():
    assert np.array_equal(
        oracle_matrix(BINARY_FUNCTIONS["id"]).matrix, standard_gate("CNOT").matrix
    )


def test_oracle_basis_action_enumerated():
    for f in ALL_FUNCTIONS:
        gate = oracle_matrix(f)
        for x in (0, 1):
            for y in (0, 1):
                out = apply(gate, ket_of_bits(f"{x}{y}"))
                assert np.array_equal(out, ket_of_bits(f"{x}{y ^ f.value(x)}"))


def test_every_oracle_is_unitary_and_self_inverse():
    for f in ALL_FUNCTIONS:
        m = oracle_matrix(f).matrix
        assert validate(m, "quantum", 1e-12) == []
        assert np.array_equal(mat_mul(m, m), np.eye(4))


def test_each_oracle_is_built_once_and_read_only():
    for f in ALL_FUNCTIONS:
        gate = oracle_matrix(f)
        assert gate is oracle_matrix(f) is oracle_matrix(BinaryFunction(f.f0, f.f1))
        assert gate.name == f"oracle({f.f0},{f.f1})" and not gate.matrix.flags.writeable
        with pytest.raises(AttributeError):
            gate.name = "changed"


# --- failed attempts --------------------------------------------------------------

def test_first_attempt_fixture():
    out = first_attempt(BINARY_FUNCTIONS["not"])
    want = np.zeros(4)
    want[[1, 2]] = 1 / np.sqrt(2)  # (|01> + |10>)/sqrt(2)
    assert np.max(np.abs(out - want)) < 1e-12


def test_first_attempt_closed_form_for_all_functions():
    for f in ALL_FUNCTIONS:
        out = first_attempt(f)
        want = (
            ket_of_bits(f"0{f.value(0)}") + ket_of_bits(f"1{f.value(1)}")
        ) / np.sqrt(2)
        assert np.max(np.abs(out - want)) < 1e-12


def test_first_attempt_top_wire_is_fifty_fifty():
    for f in ALL_FUNCTIONS:
        assert np.max(np.abs(top_marginal(first_attempt(f)) - [0.5, 0.5])) < 1e-12


def test_second_attempt_sign_pattern():
    for f in ALL_FUNCTIONS:
        for x in (0, 1):
            out = second_attempt(f, x)
            want = (-1) ** f.value(x) * np.kron(ket_of_bits(str(x)), MINUS)
            assert np.max(np.abs(out - want)) < 1e-12


def test_second_attempt_bottom_wire_is_fifty_fifty():
    for f in ALL_FUNCTIONS:
        out = second_attempt(f, 0)
        squares = out**2
        bottom = np.array([squares[0] + squares[2], squares[1] + squares[3]])
        assert np.max(np.abs(bottom / squares.sum() - [0.5, 0.5])) < 1e-12


def test_second_attempt_rejects_non_bit_input():
    with pytest.raises(ValueError, match="bit"):
        second_attempt(BINARY_FUNCTIONS["id"], 2)


# --- the full decision circuit ------------------------------------------------------

def test_superposed_stage_is_the_same_for_every_oracle():
    for f in ALL_FUNCTIONS:
        run = run_deutsch(f)
        assert np.max(np.abs(run.snapshots[1] - [0.5, -0.5, 0.5, -0.5])) < 1e-12


def test_classification_exhaustive_with_point_mass():
    for name, f in BINARY_FUNCTIONS.items():
        run = run_deutsch(f)
        assert run.classification == f.classification, name
        expected = [1.0, 0.0] if f.classification == "constant" else [0.0, 1.0]
        assert np.max(np.abs(run.top_distribution - expected)) < 1e-9


def test_both_constant_functions_give_identical_distribution():
    a = run_deutsch(BINARY_FUNCTIONS["const0"]).top_distribution
    b = run_deutsch(BINARY_FUNCTIONS["const1"]).top_distribution
    assert np.array_equal(a, b)


def test_oracle_applied_exactly_once(monkeypatch):
    calls = []

    def counting_apply(gate, state):
        calls.append(gate.name)
        return apply(gate, state)

    monkeypatch.setattr("ketsim.deutsch.apply", counting_apply)
    for f in ALL_FUNCTIONS:
        calls.clear()
        run_deutsch(f)
        assert [name for name in calls if name.startswith("oracle")] == [f"oracle({f.f0},{f.f1})"]


@pytest.mark.parametrize(
    "run",
    [run_deutsch, first_attempt, lambda f: second_attempt(f, 1)],
    ids=["run_deutsch", "first_attempt", "second_attempt"],
)
def test_each_query_builds_no_gate(monkeypatch, run):
    """The oracles and Hadamard layers are built when the module loads, and every query shares them."""
    built = []
    check = Gate.__post_init__

    def counting_post_init(gate):
        built.append(gate.name)
        check(gate)

    monkeypatch.setattr(Gate, "__post_init__", counting_post_init)
    for f in ALL_FUNCTIONS:
        built.clear()
        run(f)
        assert built == []


def test_queried_stage_matches_brute_force_product():
    h = standard_gate("H").matrix
    for f in ALL_FUNCTIONS:
        run = run_deutsch(f)
        brute = mat_vec(
            mat_mul(oracle_matrix(f).matrix, np.kron(h, h)), ket_of_bits("01")
        )
        assert np.max(np.abs(run.snapshots[2] - brute)) < 1e-12


def test_queried_stage_case_formula():
    # oracle output is (+-1) (|0> +- |1>)/sqrt(2) tensor (|0> - |1>)/sqrt(2)
    for f in ALL_FUNCTIONS:
        run = run_deutsch(f)
        top_sign = (-1) ** f.value(0)
        relative = 1 if f.classification == "constant" else -1
        top = np.array([1.0, relative]) / np.sqrt(2)
        want = top_sign * np.kron(top, MINUS)
        assert np.max(np.abs(run.snapshots[2] - want)) < 1e-12


def test_run_records_four_snapshots_and_input():
    run = run_deutsch(BINARY_FUNCTIONS["id"])
    assert len(run.snapshots) == 4
    assert np.array_equal(run.snapshots[0], ket_of_bits("01"))
    assert run.function == BINARY_FUNCTIONS["id"]


# --- top-wire marginal -----------------------------------------------------------------

def test_top_marginal_of_basis_ket():
    assert np.array_equal(top_marginal(ket_of_bits("01")), [1.0, 0.0])


def test_top_marginal_of_even_mixture():
    v = (ket_of_bits("01") + ket_of_bits("10")) / np.sqrt(2)
    assert np.max(np.abs(top_marginal(v) - [0.5, 0.5])) < 1e-12


def test_top_marginal_of_lower_branch():
    v = np.kron(ket_of_bits("1"), MINUS)
    assert np.max(np.abs(top_marginal(v) - [0.0, 1.0])) < 1e-12


def test_top_marginal_input_checks():
    with pytest.raises(ValueError, match="dimension 4"):
        top_marginal(np.ones(3))
    with pytest.raises(ValueError, match="zero"):
        top_marginal(np.zeros(4))
