"""Core linear algebra against naive reference implementations."""
import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from ketsim.algebra import (
    adjoint,
    as_matrix,
    as_state,
    bool_mat_mul,
    kron,
    mat_mul,
    mat_vec,
    modulus_squared,
    norm,
    normalize,
    validate,
)
from ketsim.dynamics import RegimeSystem, evolve
from ketsim.experiments import (
    BULLET_MATRIX,
    MARBLE_MATRIX,
    MARBLE_START,
    MARBLE_TWO_CLICK_PATHS,
    PHOTON_MATRIX,
    STOCHASTIC_MATRIX,
    STOCHASTIC_START,
    UNITARY_MATRIX,
    UNITARY_MOD_SQUARED,
)
from ketsim.gates import apply, standard_gate

TOL = 1e-9


# --- reference implementations, kept deliberately naive ---------------------

def naive_mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0j] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            for k in range(inner):
                out[i][j] += a[i][k] * b[k][j]
    return np.array(out)


def naive_kron(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    rows, cols = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    out = np.zeros((rows, cols), dtype=np.result_type(a, b))
    for j in range(rows):
        for k in range(cols):
            out[j, k] = a[j // b.shape[0], k // b.shape[1]] * b[j % b.shape[0], k % b.shape[1]]
    return out


def two_edge_paths(adjacency):
    """1 at [i, j] when some vertex k has edges j -> k and k -> i."""
    n = len(adjacency)
    out = np.zeros((n, n), dtype=np.int64)
    for j in range(n):
        for i in range(n):
            if any(adjacency[k][j] and adjacency[i][k] for k in range(n)):
                out[i, j] = 1
    return out


def reachable_in_exactly(adjacency, k):
    """Set-based path walk: out[i, j] = 1 iff a length-k edge path runs j -> i."""
    n = len(adjacency)
    out = np.zeros((n, n), dtype=np.int64)
    for start in range(n):
        frontier = {start}
        for _ in range(k):
            frontier = {to for v in frontier for to in range(n) if adjacency[to][v]}
        for v in frontier:
            out[v, start] = 1
    return out


complex_entries = st.complex_numbers(
    min_magnitude=0, max_magnitude=10, allow_nan=False, allow_infinity=False
)


def square_matrices(n):
    return arrays(np.complex128, (n, n), elements=complex_entries)


# --- fixtures from the worked examples --------------------------------------

def test_marble_step_matches_fixture():
    assert np.array_equal(mat_vec(MARBLE_MATRIX, MARBLE_START), [0, 0, 12, 5, 1, 9])


def test_marble_step_stays_integer():
    assert mat_vec(MARBLE_MATRIX, MARBLE_START).dtype == np.int64


def test_identity_mat_vec():
    x = np.array([6, 2, 1, 5, 3, 10])
    assert np.array_equal(mat_vec(np.eye(6, dtype=np.int64), x), x)


def test_stochastic_step_matches_fixture():
    out = mat_vec(STOCHASTIC_MATRIX, STOCHASTIC_START)
    assert np.allclose(out, [21 / 36, 9 / 36, 6 / 36], atol=1e-12, rtol=0)
    assert abs(out.sum() - 1) < 1e-12


def test_adjoint_of_unitary_fixture():
    expected = np.array(
        [
            [1 / np.sqrt(2), 1j / np.sqrt(2), 0],
            [1 / np.sqrt(2), -1j / np.sqrt(2), 0],
            [0, 0, -1j],
        ]
    )
    assert np.max(np.abs(adjoint(UNITARY_MATRIX) - expected)) < 1e-12


def test_adjoint_of_real_symmetric_is_itself():
    m = np.array([[1.0, 2.0], [2.0, 5.0]])
    assert np.array_equal(adjoint(m), m)


def test_unitary_times_adjoint_is_identity():
    assert np.max(np.abs(mat_mul(adjoint(UNITARY_MATRIX), UNITARY_MATRIX) - np.eye(3))) < 1e-12


def test_mat_mul_identity():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.allclose(mat_mul(a, np.eye(3)), a, atol=1e-12, rtol=0)


def test_mat_mul_against_naive_reference():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    b = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    assert np.max(np.abs(mat_mul(a, b) - naive_mat_mul(a, b))) < 1e-9


def test_modulus_squared_of_unitary_fixture():
    assert np.max(np.abs(modulus_squared(UNITARY_MATRIX) - UNITARY_MOD_SQUARED)) < 1e-12


def test_modulus_squared_of_photon_wall_is_bullet_wall():
    assert np.max(np.abs(modulus_squared(PHOTON_MATRIX) - BULLET_MATRIX)) < 1e-12


def test_modulus_squared_of_zero_matrix():
    assert np.array_equal(modulus_squared(np.zeros((2, 2))), np.zeros((2, 2)))


def test_norm_fixture():
    assert abs(norm(np.array([5 + 3j, 6j])) - np.sqrt(70)) < 1e-12


def test_norm_of_basis_ket():
    v = np.array([0.0, 1.0])
    assert norm(v) == 1.0
    assert np.array_equal(normalize(v), v)


def test_normalize_ignores_positive_scale():
    v = np.array([1.0, 2.0, 2.0])
    assert np.allclose(normalize(2 * v), normalize(v), atol=1e-12, rtol=0)


def test_normalize_rejects_zero_vector():
    with pytest.raises(ValueError, match="zero"):
        normalize(np.zeros(3))


# --- boolean products --------------------------------------------------------

def test_boolean_square_matches_fixture():
    assert np.array_equal(bool_mat_mul(MARBLE_MATRIX, MARBLE_MATRIX), MARBLE_TWO_CLICK_PATHS)


def test_boolean_product_with_identity():
    assert np.array_equal(
        bool_mat_mul(MARBLE_MATRIX, np.eye(6, dtype=np.int64)), MARBLE_MATRIX
    )


def test_boolean_product_counts_two_edge_paths():
    rng = np.random.default_rng(5)
    for _ in range(30):
        adjacency = (rng.random((5, 5)) < 0.4).astype(np.int64)
        assert np.array_equal(bool_mat_mul(adjacency, adjacency), two_edge_paths(adjacency))


def test_boolean_powers_of_every_small_function_graph():
    # all digraphs with exactly one outgoing edge per vertex, up to 4 vertices
    for n in (2, 3, 4):
        for code in range(n**n):
            targets = [(code // n**j) % n for j in range(n)]
            m = np.zeros((n, n), dtype=np.int64)
            for j, t in enumerate(targets):
                m[t, j] = 1
            power = m
            for k in (2, 3):
                power = bool_mat_mul(power, m)
                assert np.array_equal(power, reachable_in_exactly(m, k))


def test_boolean_product_rejects_non_boolean_entries():
    with pytest.raises(ValueError, match=r"\[0,0\]"):
        bool_mat_mul(np.array([[2, 0], [0, 1]]), np.eye(2, dtype=np.int64))


# --- kronecker product --------------------------------------------------------

def test_kron_matches_naive_reference():
    rng = np.random.default_rng(17)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.max(np.abs(kron(a, b) - naive_kron(a, b))) < 1e-12


def test_kron_with_one_by_one_identity():
    assert np.array_equal(kron(STOCHASTIC_MATRIX, np.array([[1.0]])), STOCHASTIC_MATRIX)


def test_kron_first_factor_is_outer():
    a = np.array([[1, 2], [3, 4]])
    b = np.array([[0, 1], [1, 0]])
    out = kron(a, b)
    assert out.shape == (4, 4)
    assert out[0, 1] == a[0, 0] * b[0, 1]
    assert out[2, 0] == a[1, 0] * b[0, 0]


@given(square_matrices(2), square_matrices(2), square_matrices(2), square_matrices(2))
def test_kron_mixed_product_law(a, b, c, d):
    lhs = mat_mul(kron(a, b), kron(c, d))
    rhs = kron(mat_mul(a, c), mat_mul(b, d))
    assert np.max(np.abs(lhs - rhs)) < TOL * (1 + np.max(np.abs(rhs)))


@given(square_matrices(3), square_matrices(3), square_matrices(3))
def test_mat_mul_associativity(a, b, c):
    lhs = mat_mul(mat_mul(a, b), c)
    rhs = mat_mul(a, mat_mul(b, c))
    assert np.max(np.abs(lhs - rhs)) < TOL * (1 + np.max(np.abs(rhs)))


@given(square_matrices(3), square_matrices(3))
def test_adjoint_reverses_products(a, b):
    lhs = adjoint(mat_mul(a, b))
    rhs = mat_mul(adjoint(b), adjoint(a))
    assert np.max(np.abs(lhs - rhs)) < TOL * (1 + np.max(np.abs(rhs)))


@given(square_matrices(3))
def test_adjoint_is_an_involution(a):
    assert np.array_equal(adjoint(adjoint(a)), a)


def test_squared_moduli_of_random_unitaries_are_doubly_stochastic():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        assert validate(q, "quantum", TOL) == []
        assert validate(modulus_squared(q), "stochastic", TOL) == []


# --- regime validation --------------------------------------------------------

def test_validate_accepts_marble_matrix():
    assert validate(MARBLE_MATRIX, "deterministic") == []


def test_validate_rejects_photon_wall_as_quantum():
    problems = validate(PHOTON_MATRIX, "quantum")
    assert problems and "unitary" in problems[0]


def test_validate_rejects_bullet_wall_as_stochastic():
    # every column sums to 1 but rows 0..2 fall short and rows 3..7 exceed
    problems = validate(BULLET_MATRIX, "stochastic")
    assert any("row 0" in p for p in problems)
    assert any("row 5" in p for p in problems)
    assert not any("column" in p for p in problems)


def test_validate_accepts_hermitian_example():
    m = np.array([[5, 4 + 5j, 6 - 16j], [4 - 5j, 13, 7], [6 + 16j, 7, -2.1]])
    assert validate(m, "hermitian") == []


def test_validate_rejects_non_hermitian():
    problems = validate(np.array([[0, 1j], [1j, 0]]), "hermitian")
    assert problems and "adjoint" in problems[0]


def test_validate_names_bad_deterministic_column():
    m = np.array([[1, 1], [0, 1]])
    problems = validate(m, "deterministic")
    assert any("column" in p for p in problems)


def test_validate_names_non_boolean_entry():
    problems = validate(np.array([[2, 0], [0, 1]]), "deterministic")
    assert any("[0,0]" in p for p in problems)


def test_validate_accepts_stochastic_walk():
    assert validate(STOCHASTIC_MATRIX, "stochastic") == []


def test_validate_rejects_unknown_regime():
    with pytest.raises(ValueError, match="regime"):
        validate(np.eye(2), "thermal")


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_validate_rejects_a_tolerance_that_is_not_finite_and_non_negative(tol):
    with pytest.raises(ValueError, match="tolerance"):
        validate(np.eye(2), "quantum", tol)
    with pytest.raises(ValueError, match="tolerance"):
        RegimeSystem("quantum", np.ones((2, 2)), tol=tol)
    assert validate(np.eye(2), "quantum", 0.0) == []


def test_validate_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        validate(np.zeros((2, 3)), "quantum")


# --- input hygiene -------------------------------------------------------------

def test_mat_vec_reports_both_shapes():
    with pytest.raises(ValueError, match="3x3.*dimension 2"):
        mat_vec(np.eye(3), np.array([1.0, 2.0]))


def test_mat_mul_reports_both_shapes():
    with pytest.raises(ValueError, match="2x3.*2x2"):
        mat_mul(np.zeros((2, 3)), np.zeros((2, 2)))


def test_non_finite_entries_rejected():
    with pytest.raises(ValueError, match="finite"):
        mat_vec(np.array([[np.nan, 0], [0, 1]]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="finite"):
        norm(np.array([np.inf, 0.0]))


def test_wrong_rank_inputs_rejected():
    with pytest.raises(ValueError, match="2-D"):
        mat_mul(np.zeros(3), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="1-D"):
        norm(np.zeros((2, 2)))


@pytest.mark.parametrize(
    "v, want",
    [
        ([1e200, 1e200], np.sqrt(2) * 1e200),
        ([3e200j, 4e200], 5e200),
        ([1e308 + 1e308j, 0.0], np.sqrt(2) * 1e308),
        ([1e-200, 0.0], 1e-200),
        ([3e-300, 4e-300], 5e-300),
    ],
)
def test_norm_at_any_scale(v, want):
    assert norm(v) == pytest.approx(want, rel=1e-12, abs=0)


def test_norm_beyond_the_float_range_is_refused():
    with pytest.raises(ValueError, match="norm exceeds the float range"):
        norm([1.5e308, 1.5e308])


@pytest.mark.parametrize("v, want", [([1e-200, 0.0], [1, 0]), ([3e200, 4e200j], [0.6, 0.8j])])
def test_normalize_at_any_scale(v, want):
    assert np.allclose(normalize(v), want, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "call",
    [
        lambda: as_state([2**64]),
        lambda: as_state(np.array(["1", "0"])),
        lambda: as_matrix([[2**64]]),
        lambda: as_matrix([["1"]]),
        lambda: RegimeSystem("deterministic", [[2**64]], mode="unchecked"),
        lambda: evolve(RegimeSystem("deterministic", [[1]]), [2**64], 1),
        lambda: apply(standard_gate("NOT"), [2**64, 0]),
    ],
    ids=["as_state-int", "as_state-str", "as_matrix-int", "as_matrix-str",
         "RegimeSystem", "evolve", "apply"],
)
def test_object_and_string_arrays_are_refused_as_values(call):
    with pytest.raises(ValueError, match="entries must be numbers, got dtype"):
        call()


@pytest.mark.parametrize("dtype", [bool, np.uint8, np.int8, np.int64, np.uint64, np.float16, np.complex64])
def test_bool_and_every_numeric_kind_are_accepted(dtype):
    assert as_state(np.ones(2, dtype=dtype)).dtype == dtype
    assert as_matrix(np.eye(2, dtype=dtype)).dtype == dtype
