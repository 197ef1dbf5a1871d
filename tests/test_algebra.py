"""Core linear algebra against naive reference implementations."""
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ketsim.algebra import (
    DEFAULT_TOL,
    NAMED_VIOLATIONS,
    _column_map,
    _kron,
    _listed,
    adjoint,
    as_count,
    as_matrix,
    as_state,
    bool_mat_mul,
    kron,
    mat_mul,
    mat_vec,
    modulus_squared,
    norm,
    normalize,
    refuse,
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
    run_scenario,
    scenario,
)
from ketsim.gates import Circuit, Gate, apply, identity, standard_gate
from ketsim.measurement import is_product_state, random_source, sample_counts, spectral_decompose
from reference import reference_column_map

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


def typed_matrix(rng, shape, dtype):
    """Random entries of ``dtype``; a fifth of the float parts are signed zeros."""
    if dtype == "int64":
        return rng.integers(-9, 10, size=shape)
    parts = [np.where(rng.random(shape) < 0.2, rng.choice([0.0, -0.0], shape), rng.normal(size=shape))
             for _ in range(1 if dtype == "float64" else 2)]
    return parts[0] if dtype == "float64" else parts[0] + 1j * parts[1]


@pytest.mark.parametrize("dtype_a", ["int64", "float64", "complex128"])
@pytest.mark.parametrize("dtype_b", ["int64", "float64", "complex128"])
def test_kron_is_numpys_kron_byte_for_byte(dtype_a, dtype_b):
    rng = np.random.default_rng(19)
    # the row path takes (8, 8) ⊗ (8, 8) and up, 4,096 output entries; (4, 4) ⊗ (8, 8) is below it.
    # From 16,384 entries a side of at most 4 entries is joined block by block; (2, 4) and (3, 3)
    # are not, and (2, 2) ⊗ (32, 32) is below that floor
    for shape_a, shape_b in (((2, 2), (8, 8)), ((8, 8), (2, 2)), ((4, 4), (8, 8)), ((5, 3), (4, 6)),
                             ((1, 3), (4, 4)), ((8, 8), (8, 8)), ((4, 4), (16, 16)), ((4, 4), (4, 4)),
                             ((2, 2), (128, 128)), ((128, 128), (2, 2)), ((1, 3), (96, 64)),
                             ((64, 96), (3, 1)), ((2, 1), (128, 70)), ((1, 1), (130, 127)),
                             ((2, 2), (64, 64)), ((2, 2), (32, 32)), ((2, 4), (128, 128)),
                             ((128, 128), (4, 2)), ((3, 3), (64, 64)), ((64, 64), (3, 3))):
        a, b = typed_matrix(rng, shape_a, dtype_a), typed_matrix(rng, shape_b, dtype_b)
        got, want = kron(a, b), np.kron(a, b)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@st.composite
def kron_operands(draw):
    """Two random matrices of 1 to 32 rows and columns, some entries signed zeros."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shapes = [(draw(st.integers(1, 32)), draw(st.integers(1, 32))) for _ in range(2)]
    return [np.where(rng.random(shape) < 0.2, rng.choice([0.0, -0.0], shape), rng.normal(size=shape))
            for shape in shapes]


def kron_example(shape_a, shape_b, seed):
    """Operands of the given shapes, as kron_operands draws them, for an explicit example."""
    rng = np.random.default_rng(seed)
    return example([rng.normal(size=shape_a), rng.normal(size=shape_b)], seed % 2 == 0, seed % 3 == 0)


# on both sides of the row path's floor of 4,096 output entries, and at it
@kron_example((4, 4), (4, 4), 1)
@kron_example((4, 4), (8, 8), 2)
@kron_example((4, 4), (15, 17), 3)
@kron_example((4, 4), (16, 16), 4)
@kron_example((8, 8), (8, 8), 5)
@kron_example((16, 16), (4, 4), 6)
@kron_example((5, 32), (4, 31), 7)
@given(kron_operands(), st.booleans(), st.booleans())
def test_the_kron_kernel_is_numpys_kron_bit_for_bit(operands, complex_a, complex_b):
    a, b = (m + 1j * m[::-1] if is_complex else m for m, is_complex in zip(operands, (complex_a, complex_b)))
    for x, y in ((a, b), (b, a)):
        got, want = _kron(x, y), np.kron(x, y)
        assert got.dtype == want.dtype and got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


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


BAD_TOLERANCES = [float("nan"), float("inf"), -1.0, True, "abc", None, 1j]


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_validate_rejects_a_tolerance_that_is_not_finite_and_non_negative(tol):
    with pytest.raises(ValueError, match="tolerance"):
        validate(np.eye(2), "quantum", tol)
    with pytest.raises(ValueError, match="tolerance"):
        RegimeSystem("quantum", np.ones((2, 2)), tol=tol)
    assert validate(np.eye(2), "quantum", 0.0) == []


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_every_entry_point_refuses_a_bad_tolerance_alike(tol):
    calls = [
        lambda: RegimeSystem("quantum", np.eye(2), tol=tol),
        lambda: RegimeSystem("quantum", np.eye(2), mode="unchecked", tol=tol),
        lambda: spectral_decompose(np.eye(2), tol),
        lambda: is_product_state([1, 0, 0, 0], 2, 2, tol),
        lambda: run_scenario(scenario("photons"), tol),
    ]
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == f"tolerance must be at least 0 and finite, got {tol}"


@pytest.mark.parametrize("tol", [0, 2, np.float32(0.5), np.int8(1), np.uint64(3), 1e-12])
def test_a_system_stores_its_tolerance_as_a_float(tol):
    stored = RegimeSystem("quantum", np.eye(2), mode="unchecked", tol=tol).tol
    assert type(stored) is float and stored == tol


def test_validate_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        validate(np.zeros((2, 3)), "quantum")


def test_validate_reports_an_overflowing_deviation_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="deviates from identity by inf at entry"):
            RegimeSystem("quantum", [[1e200]])
        with pytest.raises(ValueError, match="flagged quantum but not unitary: .* by inf"):
            Gate("g", [[1e200, 0], [0, 1]], 1, 1, quantum=True)
        assert "row 0 sums to inf, expected 1" in validate([[1e308, 1e308], [0, 0]], "stochastic")
        assert validate([[0, 1e308], [-1e308, 0]], "hermitian") == [
            "not hermitian: differs from own adjoint by inf at entry [0,1]"
        ]
        assert validate([[1e308, 1e307], [1e307, -1e308]], "hermitian") == []


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
        ([1e-320j, 0], 1e-320),
    ],
)
def test_norm_at_any_scale(v, want):
    assert norm(v) == pytest.approx(want, rel=1e-12, abs=0)


def test_norm_beyond_the_float_range_is_refused():
    with pytest.raises(ValueError, match="norm exceeds the float range"):
        norm([1.5e308, 1.5e308])


@pytest.mark.parametrize(
    "v, want",
    [
        ([1e-200, 0.0], [1, 0]),
        ([3e200, 4e200j], [0.6, 0.8j]),
        ([1e-320j, 1e-320], [np.sqrt(0.5) * 1j, np.sqrt(0.5)]),
    ],
)
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


def test_an_empty_matrix_or_state_is_refused():
    with pytest.raises(ValueError, match=r"^matrix must have positive dimensions, got 0x3$"):
        as_matrix(np.zeros((0, 3)))
    with pytest.raises(ValueError, match="^state vector must have positive dimension$"):
        as_state([])


@pytest.mark.parametrize("dtype", [bool, np.uint8, np.int8, np.int64, np.uint64, np.float16, np.complex64])
def test_bool_and_every_numeric_kind_are_accepted(dtype):
    assert as_state(np.ones(2, dtype=dtype)).dtype == dtype
    assert as_matrix(np.eye(2, dtype=dtype)).dtype == dtype


# Each entry point that takes a count: (argument name, call with the count n, the int it kept).
# The valid counts below are 0 and 3, so a gate's matrix has 1 or 8 columns (rows).
COUNT_ENTRY_POINTS = {
    "evolve": ("steps", lambda n: evolve(RegimeSystem("quantum", [[1j]]), [1.0], n), None),
    "sample_counts": ("shots", lambda n: sample_counts([1.0, 1.0], n, random_source(1)), None),
    "Gate.in_bits": ("in_bits", lambda n: Gate("g", np.ones((1, 8 if n else 1)), n, 0, False),
                     lambda g: g.in_bits),
    "Gate.out_bits": ("out_bits", lambda n: Gate("g", np.ones((8 if n else 1, 1)), 0, n, False),
                      lambda g: g.out_bits),
    "identity": ("wires", identity, lambda g: g.in_bits),
    "Circuit": ("wires", Circuit, lambda c: c.wires),
}


@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
@pytest.mark.parametrize("bad", [True, -1, 2.5, float("inf"), float("nan")])
def test_every_count_refuses_what_is_not_a_non_negative_integer(entry, bad):
    name, call, _ = COUNT_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be a non-negative integer, got {bad}$"):
        call(bad)


@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
@pytest.mark.parametrize("good", [0, np.int64(3), 3.0])
def test_every_count_accepts_integral_values_and_keeps_an_int(entry, good):
    _, call, kept = COUNT_ENTRY_POINTS[entry]
    result = call(good)
    if kept is not None:
        assert type(kept(result)) is int and kept(result) == good
    elif entry == "evolve":
        assert result.tolist() == [1j**good]
    else:
        assert result.sum() == good


def test_a_count_may_be_any_int():
    assert as_count(10**400, "n") == 10**400
    assert as_count(np.uint64(2**64 - 1), "n") == 2**64 - 1
    assert as_count(1e300, "n") == int(1e300)


@pytest.mark.parametrize("count", [0, 1, 9, 10, 11, 25])
def test_a_refusal_names_ten_violations_and_counts_the_rest(count):
    m = np.eye(25)
    m[0, :count] = 2.0
    violations = [f"entry [0,{j}] = 2.0 is not 0 or 1" for j in range(count)]
    if count == 0:
        assert refuse(m, "deterministic", DEFAULT_TOL, "bad: ") is None
        return
    with pytest.raises(ValueError) as exc:
        refuse(m, "deterministic", DEFAULT_TOL, "bad: ")
    if count <= NAMED_VIOLATIONS:  # as the whole list was always joined
        assert str(exc.value) == "bad: " + "; ".join(violations)
    else:
        assert str(exc.value) == "bad: " + "; ".join(violations[:10]) + f"; and {count - 10} more"
    assert validate(m, "deterministic") == violations  # the caller's matrix is left as it was


def test_a_matrix_that_breaks_a_rule_everywhere_gets_a_short_refusal():
    m = np.full((1000, 1000), 2.0)
    start = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        RegimeSystem("stochastic", m)
    elapsed = time.perf_counter() - start
    message = str(exc.value)
    assert len(message) < 2000
    assert message.startswith("matrix fails stochastic validation: entry [0,0] = 2.0 lies outside")
    assert message.endswith(f"; and {1000 * 1000 + 2000 - 10} more")
    named = "; ".join(f"entry [0,{j}] = 2.0 lies outside [0, 1]" for j in range(10))
    assert message == f"matrix fails stochastic validation: {named}; and 1001990 more"
    assert elapsed < 1.0  # only ten of the 1,002,000 violations are formatted (2.3 s for all)


def _violating_matrix(rng, regime, dim):
    """A dim x dim matrix breaking ``regime`` in a random number of places, or in none."""
    if regime == "deterministic":
        m = np.eye(dim)[:, rng.integers(dim, size=dim)]  # columns may repeat: rows then miss a 1
        return np.where(rng.random((dim, dim)) < rng.random() / 4, 2.0, m)
    m = np.eye(dim)[rng.permutation(dim)] * (1 + 0.5j * (rng.random() < 0.2))
    return np.where(rng.random((dim, dim)) < rng.random() / 4, rng.normal(size=(dim, dim)), m)


@pytest.mark.parametrize("regime", ["deterministic", "stochastic"])
def test_a_limited_validate_names_the_first_violations_and_counts_the_rest(regime):
    rng = np.random.default_rng(113)
    for _ in range(60):
        m = _violating_matrix(rng, regime, int(rng.integers(1, 12)))
        everything = validate(m, regime)
        for limit in (0, 1, NAMED_VIOLATIONS, 200):
            more = len(everything) - limit
            tail = [f"and {more} more"] if more > 0 else []
            assert validate(m, regime, limit=limit) == everything[:limit] + tail
        if everything and not np.iscomplexobj(m):  # a complex matrix is refused before validation
            with pytest.raises(ValueError) as exc:
                RegimeSystem(regime, m)
            stored = RegimeSystem(regime, m, mode="unchecked").matrix  # as the strict check sees it
            with pytest.raises(ValueError) as listed:
                refuse(stored, regime, DEFAULT_TOL, f"matrix fails {regime} validation: ")
            assert str(exc.value) == str(listed.value)


def reference_validate_stochastic(m, tol, limit):
    """The stochastic listing as it was before the clean path: every violation's indices listed."""
    if np.iscomplexobj(m):
        unreal = np.argwhere(np.abs(m.imag) > tol)
        if unreal.size:
            return _listed([(unreal, lambda i, j: f"entry [{i},{j}] = {m[i, j]} is not real")], limit)
    re = m.real.astype(float)
    rows, columns = re.sum(axis=1), re.sum(axis=0)
    return _listed([
        (np.argwhere((re < -tol) | (re > 1 + tol)),
         lambda i, j: f"entry [{i},{j}] = {re[i, j]} lies outside [0, 1]"),
        (np.argwhere(np.abs(rows - 1) > tol), lambda i: f"row {i} sums to {rows[i]}, expected 1"),
        (np.argwhere(np.abs(columns - 1) > tol),
         lambda j: f"column {j} sums to {columns[j]}, expected 1"),
    ], limit)


@st.composite
def stochastic_candidates(draw):
    """A doubly stochastic matrix that is clean, near its bounds, complex or broken, and a tol."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim, tol = draw(st.integers(1, 24)), draw(st.sampled_from([0.0, 1e-12, DEFAULT_TOL, 1e-3]))
    # every entry at least 1 / (2 dim): a shift by about tol moves sums, not entries, out of range
    m = (np.full((dim, dim), 1 / dim) + sum(w * np.eye(dim)[rng.permutation(dim)]
                                           for w in rng.dirichlet(np.ones(3)))) / 2
    kind = draw(st.sampled_from(["clean", "near", "low", "high", "complex", "unreal", "broken", "transposed",
                                 "fortran", "strided"]))
    ulps = draw(st.integers(-4, 4)) * 2.0**-52
    i, j, i2, j2 = rng.integers(dim, size=4)
    if kind == "near":  # sums at 1 ± tol within a few ulps: of row i and column j, or of columns
        # j and j2 only (a shift within row i), or of rows i and i2 only; or an entry at an edge
        shift, where = draw(st.sampled_from([-1, 1])) * (tol + ulps), draw(st.sampled_from("xrce"))
        if where == "e":
            m[i, j] = draw(st.sampled_from([-tol, 1 + tol])) * (1 + ulps)
        else:
            m[i, j] += shift
            m[i, j2] -= shift if where == "r" else 0
            m[i2, j] -= shift if where == "c" else 0
    elif kind in ("low", "high") and dim >= 3:  # every sum kept at 1 and one bound broken, near tol
        e = draw(st.sampled_from([0.5, 1, 1.5])) * tol * (1 + ulps)
        m, k = np.eye(dim), rng.permutation(dim)[:3]
        if kind == "low":  # an entry -e, every entry at most 1
            m[np.ix_(k, k)] += e * np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]])
        else:  # an entry 1 + e, every entry at least -e / 2
            m[np.ix_(k, k)] += e * (1.5 * np.eye(3) - 0.5)
    elif kind == "complex":
        m = m + 0j * m
    elif kind == "unreal":
        m = m + 1j * np.where(rng.random((dim, dim)) < 0.2, draw(st.sampled_from([-1, 1])) * (tol + ulps), 0)
    elif kind == "broken":
        m = np.where(rng.random((dim, dim)) < rng.random() / 2, rng.normal(size=(dim, dim)), m)
    elif kind == "transposed":
        m = m.T
    elif kind == "fortran":
        m = np.asfortranarray(m)
    elif kind == "strided":  # a view into a larger array, read in place
        m = np.repeat(np.repeat(m, 2, axis=0), 3, axis=1)[::2, ::3]
    return m, tol


@settings(derandomize=True, max_examples=600, deadline=None)
@given(stochastic_candidates(), st.sampled_from([None, 0, 1, NAMED_VIOLATIONS]))
def test_a_stochastic_validate_is_the_full_listing(case, limit):
    m, tol = case
    assert validate(m, "stochastic", tol, limit=limit) == reference_validate_stochastic(m, tol, limit)


def test_a_clean_stochastic_validate_reads_the_matrix_in_place():
    """A float64 matrix is not copied: at dim 1024 (8 MiB) validate's peak stays below 2 MiB."""
    m = np.full((1024, 1024), 1 / 1024)
    tracemalloc.start()
    try:
        assert validate(m, "stochastic") == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_a_clean_deterministic_validate_writes_no_matrix_sized_array():
    """An int64 column map is read in place: at dim 1024 (8 MiB) validate's peak stays below 1.5 MiB."""
    m = np.eye(1024, dtype=np.int64)[np.random.default_rng(5).permutation(1024)]
    tracemalloc.start()
    try:
        assert validate(m, "deterministic") == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_a_strict_deterministic_system_holds_one_int64_copy(dtype):
    """At dim 1024 a strict deterministic RegimeSystem's peak stays below 10 MiB: its int64 matrix
    (8 MiB), and for a float input the whole-number test of ``_coerce_regime_matrix`` (9 MiB)."""
    m = np.eye(1024, dtype=dtype)[np.random.default_rng(6).permutation(1024)]
    tracemalloc.start()
    try:
        sys_ = RegimeSystem("deterministic", m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sys_._dst is not None and peak < 10 * 2**20


def _non_hermitian_matrix(rng, dim):
    """A dim x dim complex matrix that is hermitian, off by a little, or not hermitian at all."""
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2 + rng.choice([0, 1e-10, 1e-6, 1]) * m


# Each constructor that checks a matrix: (the check it runs, build from a matrix and a tol, prefix).
CHECKED_CONSTRUCTORS = {
    "RegimeSystem-deterministic": ("deterministic", lambda m, tol: RegimeSystem("deterministic", m, tol=tol),
                                   "matrix fails deterministic validation: "),
    "RegimeSystem-stochastic": ("stochastic", lambda m, tol: RegimeSystem("stochastic", m, tol=tol),
                                "matrix fails stochastic validation: "),
    "RegimeSystem-quantum": ("quantum", lambda m, tol: RegimeSystem("quantum", m, tol=tol),
                             "matrix fails quantum validation: "),
    "Gate": ("quantum", lambda m, tol: Gate("U", m, len(m).bit_length() - 1, len(m).bit_length() - 1,
                                            quantum=True), "gate 'U' flagged quantum but "),
    "spectral_decompose": ("hermitian", spectral_decompose, "observable must be hermitian: "),
}


@pytest.mark.parametrize("entry", CHECKED_CONSTRUCTORS)
def test_every_refusal_is_its_prefix_and_the_limited_violations(entry):
    regime, build, prefix = CHECKED_CONSTRUCTORS[entry]
    rng = np.random.default_rng(191)
    for _ in range(80):
        dim = 2 ** int(rng.integers(0, 4)) if entry == "Gate" else int(rng.integers(1, 12))
        tol = DEFAULT_TOL if entry == "Gate" else float(rng.choice([0, DEFAULT_TOL, 1e-3]))
        if regime == "hermitian":
            m = _non_hermitian_matrix(rng, dim)
        else:
            m = _violating_matrix(rng, regime, dim)
        if entry.startswith("RegimeSystem"):
            if regime == "stochastic" and np.any(m.imag != 0):
                continue  # refused as complex before the regime check
            checked = RegimeSystem(regime, m, mode="unchecked").matrix  # as the strict check sees it
        else:
            checked = m
        violations = validate(checked, regime, tol, limit=NAMED_VIOLATIONS)
        if not violations:
            build(m, tol)
            continue
        with pytest.raises(ValueError) as exc:
            build(m, tol)
        assert str(exc.value) == prefix + "; ".join(violations)


def _verdict(m):
    """Whether ``_column_map`` finds a map, checked against ``reference_column_map``."""
    got, want = _column_map(m), reference_column_map(m)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.dtype == np.intp and got.tolist() == want.tolist()
    return got is not None


@pytest.mark.parametrize("name", ["AND", "OR", "NAND", "NOR"])
def test_the_irreversible_gates_are_deterministic(name):
    m = standard_gate(name).matrix
    square = np.vstack([m, np.zeros((2, 4))])  # rows of zeros: the same columns, so the same verdict
    assert _verdict(m) == (validate(square, "deterministic") == []) == _verdict(square)
    assert _verdict(m)


def test_is_deterministic_is_a_passing_deterministic_validate():
    rng = np.random.default_rng(193)
    verdicts = set()
    for _ in range(300):
        dim = int(rng.integers(1, 7))
        m = np.eye(dim)[:, rng.integers(dim, size=dim)]
        spoiled = rng.random((dim, dim)) < rng.random() / 3
        m = np.where(spoiled, rng.integers(0, 3, size=(dim, dim)), m)
        verdict = _verdict(m)
        assert verdict == (validate(m, "deterministic") == [])
        verdicts.add(verdict)
    assert verdicts == {True, False}


# An entry a column map may hold in place of one of its own, by dtype kind: the 0/1 values themselves,
# a negative zero, values a rounding away from 0 and 1, and imaginary parts.
NEAR_BOOLEAN = {
    "b": [False, True],
    "i": [0, 1, 2, -1],
    "f": [0.0, -0.0, 1.0, 2.0, -1.0, 0.5, 1 + 2.0**-52, 1 - 2.0**-53, 2.0**-1074],
}
NEAR_BOOLEAN["c"] = NEAR_BOOLEAN["f"] + [1j, -1j, 1 + 1j, complex(1, -0.0), complex(-0.0, -0.0), complex(1, 2.0**-1074)]


@st.composite
def column_map_candidates(draw):
    """A 0/1 matrix with one 1 per column, any shape and dtype, laid out in memory in one of four ways,
    with its zeros made negative or up to two entries replaced by ``NEAR_BOOLEAN`` values."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 6))
    columns = draw(st.just(rows) | st.integers(1, 6))  # square about half the time, so validate judges it
    dtype = np.dtype(draw(st.sampled_from([np.int64, np.bool_, np.float64, np.complex128])))
    m = np.zeros((rows, columns), dtype)
    m[rng.integers(rows, size=columns), np.arange(columns)] = 1
    if dtype.kind in "fc" and draw(st.booleans()):
        m[m == 0] = -0.0
    for _ in range(draw(st.integers(0, 2))):
        m[rng.integers(rows), rng.integers(columns)] = draw(st.sampled_from(NEAR_BOOLEAN[dtype.kind]))
    layout = draw(st.sampled_from(["C", "fortran", "transposed", "strided"]))
    if layout == "fortran":
        m = np.asfortranarray(m)
    elif layout == "transposed":
        m = m.T
    elif layout == "strided":  # a view into a larger array, read in place
        m = np.repeat(np.repeat(m, 2, axis=0), 3, axis=1)[::2, ::3]
    return m


@settings(derandomize=True, max_examples=600, deadline=None)
@given(column_map_candidates())
@example(np.array([[1.0, -0.0], [-0.0, 1.0]]))
@example(np.array([[1 + 2.0**-52, 0.0], [0.0, 1.0]]))
@example(np.array([[1j, 0], [0, 1]]))
@example(np.array([[complex(1, -0.0), 0], [0, 1]]))
@example(np.array([[False, True], [True, False]]))
def test_a_column_map_is_found_exactly_when_deterministic_validate_passes(m):
    verdict = _verdict(m)
    if m.shape[0] == m.shape[1]:
        assert (validate(m, "deterministic") == []) == verdict
