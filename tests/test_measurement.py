"""Collapse sampling, the eigensolver, and the product-state test."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from ketsim.algebra import norm
from ketsim.dynamics import state_tensor
from ketsim.measurement import (
    basis_distribution,
    collapse,
    is_product_state,
    random_source,
    spectral_decompose,
)


class ScriptedDraws:
    """Stand-in random source replaying a fixed list of uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


# --- distributions -----------------------------------------------------------

def test_distribution_of_unnormalized_state():
    p = basis_distribution(np.array([5 + 3j, 6j]))
    assert np.allclose(p, [34 / 70, 36 / 70], atol=1e-12, rtol=0)


def test_distribution_of_basis_ket_is_degenerate():
    assert np.array_equal(basis_distribution(np.array([0.0, 1.0, 0.0])), [0, 1, 0])


def test_distribution_of_four_level_example():
    p = basis_distribution(np.array([1, 0, -1, 1]) / np.sqrt(3))
    assert np.allclose(p, [1 / 3, 0, 1 / 3, 1 / 3], atol=1e-12, rtol=0)


def test_distribution_rejects_zero_vector():
    with pytest.raises(ValueError, match="zero"):
        basis_distribution(np.zeros(4))


@given(
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False)
)
def test_distribution_ignores_global_scalar(c):
    v = np.array([1 + 2j, -0.5, 3j, 0.25])
    assert np.max(np.abs(basis_distribution(c * v) - basis_distribution(v))) < 1e-9


def test_distribution_sums_to_one():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        assert abs(basis_distribution(v).sum() - 1) < 1e-9


# --- collapse ------------------------------------------------------------------

def test_collapse_of_pure_state_is_certain():
    rnd = random_source(0)
    for _ in range(20):
        idx, post = collapse(np.array([0.0, 1.0]), rnd)
        assert idx == 1
        assert np.array_equal(post, [0.0, 1.0])


def test_collapse_same_seed_same_outcomes():
    v = np.array([1.0, 1.0, 1.0, 1.0])
    a = random_source(123)
    b = random_source(123)
    seq_a = [collapse(v, a)[0] for _ in range(200)]
    seq_b = [collapse(v, b)[0] for _ in range(200)]
    assert seq_a == seq_b
    assert len(set(seq_a)) > 1  # actually random, not a constant stream


def test_collapse_boundary_draw_goes_to_higher_index():
    # p = [0.5, 0, 0.5] exactly: a draw exactly at 0.5 skips the zero bucket
    v = np.array([1.0, 0.0, 1.0])
    idx, _ = collapse(v, ScriptedDraws([0.5]))
    assert idx == 2
    idx, _ = collapse(v, ScriptedDraws([0.0]))
    assert idx == 0
    idx, _ = collapse(v, ScriptedDraws([0.4999999]))
    assert idx == 0


def test_collapse_frequency_tracks_distribution():
    rnd = random_source(2024)
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    hits = sum(collapse(v, rnd)[0] == 0 for _ in range(20000))
    assert abs(hits / 20000 - 0.5) < 0.02


def test_collapse_rejects_zero_vector():
    with pytest.raises(ValueError, match="zero"):
        collapse(np.zeros(2), random_source(1))


def test_random_source_streams_are_reproducible():
    assert [random_source(7).random() for _ in range(3)] == [
        random_source(7).random() for _ in range(3)
    ]


# --- spectral decomposition ------------------------------------------------------

def test_identity_eigensystem():
    dec = spectral_decompose(np.eye(3))
    assert np.array_equal(dec.eigenvalues, [1.0, 1.0, 1.0])


def test_diagonal_eigensystem_sorted():
    dec = spectral_decompose(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(dec.eigenvalues, [1, 2, 3], atol=1e-12, rtol=0)
    # eigenvector for eigenvalue 1 is the second standard basis vector
    assert abs(abs(dec.eigenvectors[1, 0]) - 1) < 1e-12


def test_exchange_matrix_eigenvalues_solved_by_hand():
    # characteristic polynomial x^2 - 1 has roots -1 and +1
    dec = spectral_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-12, rtol=0)


def test_hermitian_example_decomposes():
    m = np.array([[5, 4 + 5j, 6 - 16j], [4 - 5j, 13, 7], [6 + 16j, 7, -2.1]])
    dec = spectral_decompose(m)
    assert np.all(np.isreal(dec.eigenvalues))
    assert abs(dec.eigenvalues.sum() - np.trace(m).real) < 1e-8
    for j in range(3):
        residual = m @ dec.eigenvectors[:, j] - dec.eigenvalues[j] * dec.eigenvectors[:, j]
        assert np.linalg.norm(residual) < 1e-8


def test_decomposition_matches_reference_eigenvalues():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        m = random_hermitian(rng, n)
        ours = spectral_decompose(m).eigenvalues
        reference = np.linalg.eigvalsh(m)
        assert np.max(np.abs(ours - reference)) < 1e-8


def test_decomposition_residual_orthogonality_reconstruction():
    rng = np.random.default_rng(13)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        m = random_hermitian(rng, n)
        dec = spectral_decompose(m)
        vecs = dec.eigenvectors
        vals = dec.eigenvalues
        assert np.all(np.diff(vals) >= 0)
        for j in range(n):
            assert np.linalg.norm(m @ vecs[:, j] - vals[j] * vecs[:, j]) <= 1e-8
            assert abs(np.linalg.norm(vecs[:, j]) - 1) <= 1e-8
        for i in range(n):
            for j in range(i + 1, n):
                if abs(vals[i] - vals[j]) > 1e-6:
                    assert abs(np.vdot(vecs[:, i], vecs[:, j])) <= 1e-8
        rebuilt = (vecs * vals) @ vecs.conj().T
        assert np.max(np.abs(rebuilt - m)) <= 1e-7


@pytest.mark.parametrize("n", [32, 64])
def test_large_decomposition_matches_reference(n):
    rng = np.random.default_rng(n)
    m = random_hermitian(rng, n)
    dec = spectral_decompose(m)
    vals, vecs = dec.eigenvalues, dec.eigenvectors
    assert np.max(np.abs(vals - np.linalg.eigvalsh(m))) < 1e-8
    assert np.max(np.linalg.norm(m @ vecs - vecs * vals, axis=0)) < 1e-8
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(n))) < 1e-10


def test_degenerate_spectrum_keeps_multiplicity_and_orthonormal_basis():
    rng = np.random.default_rng(17)
    spectrum = np.array([-1.0, 2.0, 2.0, 2.0, 5.0, 5.0])
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    m = (q * spectrum) @ q.conj().T
    dec = spectral_decompose(m)
    vals, vecs = dec.eigenvalues, dec.eigenvectors
    assert np.max(np.abs(vals - spectrum)) < 1e-12
    assert np.max(np.linalg.norm(m @ vecs - vecs * vals, axis=0)) < 1e-12
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(6))) < 1e-12


def test_decompose_rejects_non_hermitian():
    with pytest.raises(ValueError, match="hermitian"):
        spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


# --- separability ------------------------------------------------------------------

def test_simple_product_state_with_factors():
    state = np.array([0.0, 1.0, 0.0, 0.0])  # first bit 0, second bit 1
    res = is_product_state(state, 2, 2)
    assert res.is_product
    assert np.allclose(np.abs(res.factor_a), [1, 0], atol=1e-12, rtol=0)
    assert np.allclose(np.abs(res.factor_b), [0, 1], atol=1e-12, rtol=0)


def test_bell_state_is_entangled():
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    assert not is_product_state(bell, 2, 2).is_product


def test_three_term_superposition_is_entangled():
    state = np.array([1.0, 0.0, -1.0, 1.0]) / np.sqrt(3)
    assert not is_product_state(state, 2, 2).is_product


def test_constructed_products_recover_factors():
    rng = np.random.default_rng(29)
    for _ in range(60):
        da = int(rng.integers(2, 5))
        db = int(rng.integers(2, 5))
        a = rng.normal(size=da) + 1j * rng.normal(size=da)
        b = rng.normal(size=db) + 1j * rng.normal(size=db)
        state = state_tensor(a, b)
        res = is_product_state(state, da, db)
        assert res.is_product
        rebuilt = state_tensor(res.factor_a, res.factor_b)
        scale = state[np.argmax(np.abs(state))] / rebuilt[np.argmax(np.abs(state))]
        assert np.max(np.abs(scale * rebuilt - state)) < 1e-9 * norm(state)


def test_product_test_rejects_bad_split_and_zero():
    with pytest.raises(ValueError, match="split"):
        is_product_state(np.ones(6), 2, 2)
    with pytest.raises(ValueError, match="zero"):
        is_product_state(np.zeros(4), 2, 2)


def minor_loop_is_product(state, dim_a, dim_b, tol=1e-9):
    """Brute-force reference: every 2x2 minor of the normalized grid within tol."""
    grid = (state / np.linalg.norm(state)).reshape(dim_a, dim_b)
    for i in range(dim_a - 1):
        for k in range(i + 1, dim_a):
            for j in range(dim_b - 1):
                for l in range(j + 1, dim_b):
                    if abs(grid[i, j] * grid[k, l] - grid[i, l] * grid[k, j]) > tol:
                        return False
    return True


def grid_with_singular_values(rng, dim_a, dim_b, sigma):
    """Flattened dim_a x dim_b grid U diag(sigma) V† with random unitary U, V."""
    def unitary(n):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        return q

    k = len(sigma)
    return (unitary(dim_a)[:, :k] * sigma) @ unitary(dim_b)[:k, :]


@pytest.mark.parametrize("tol", [1e-9, 1e-4])
@pytest.mark.parametrize("factor, product", [(0.5, True), (2.0, False)])
def test_product_verdict_on_either_side_of_tol(tol, factor, product):
    rng = np.random.default_rng(31)
    small = factor * tol
    sigma = np.array([np.sqrt(1 - small**2), small])  # unit norm, s1 * s2 ~ factor * tol
    state = grid_with_singular_values(rng, 3, 4, sigma).reshape(-1)
    assert is_product_state(state, 3, 4, tol).is_product is product


def test_product_verdict_matches_minor_loop_reference():
    rng = np.random.default_rng(37)
    for dim_a in range(1, 7):
        for dim_b in range(1, 7):
            a = rng.normal(size=dim_a) + 1j * rng.normal(size=dim_a)
            b = rng.normal(size=dim_b) + 1j * rng.normal(size=dim_b)
            product = np.kron(a, b)
            assert is_product_state(product, dim_a, dim_b).is_product
            assert minor_loop_is_product(product, dim_a, dim_b)
            generic = rng.normal(size=dim_a * dim_b) + 1j * rng.normal(size=dim_a * dim_b)
            want = minor_loop_is_product(generic, dim_a, dim_b)
            assert want == (min(dim_a, dim_b) == 1)
            assert is_product_state(generic, dim_a, dim_b).is_product == want


def test_every_product_verdict_passes_the_minor_loop():
    # near the threshold the singular-value test may call a state entangled
    # that the minor loop accepts, never the other way round
    rng = np.random.default_rng(41)
    for _ in range(300):
        dim_a, dim_b = (int(d) for d in rng.integers(2, 7, size=2))
        k = min(dim_a, dim_b)
        sigma = np.zeros(k)
        sigma[1:] = 10.0 ** rng.uniform(-11, -8, size=k - 1)
        sigma[0] = np.sqrt(1 - np.sum(sigma[1:] ** 2))
        state = grid_with_singular_values(rng, dim_a, dim_b, sigma).reshape(-1)
        if is_product_state(state, dim_a, dim_b).is_product:
            assert minor_loop_is_product(state, dim_a, dim_b)


@pytest.mark.parametrize(
    "state, want",
    [
        ([1e200, 0.0], [1.0, 0.0]),
        ([1e200, 1e200], [0.5, 0.5]),
        ([1e308 + 1e308j, 1e308], [2 / 3, 1 / 3]),
        ([1e-200, 0.0], [1.0, 0.0]),
        ([1e-200j, 1e-200], [0.5, 0.5]),
    ],
)
def test_distribution_at_any_scale(state, want):
    with np.errstate(over="ignore"):  # the plain |c|^2 overflows before the rescale
        p = basis_distribution(state)
    assert np.allclose(p, want, rtol=0, atol=1e-15)


def test_product_test_at_any_scale():
    with np.errstate(over="ignore"):
        assert not is_product_state([1e200, 0, 0, 1e200], 2, 2).is_product
        assert not is_product_state([1e-200, 0, 0, 1e-200], 2, 2).is_product
        product = is_product_state([1e200, 1e200, 1e200, 1e200], 2, 2)
    assert product.is_product
    assert np.allclose(np.kron(product.factor_a, product.factor_b), [0.5] * 4, rtol=0, atol=1e-15)
