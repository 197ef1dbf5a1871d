"""Regime systems: stepping, validation modes, and composition."""
import numpy as np
import pytest

from ketsim.algebra import adjoint, as_state, mat_vec, norm, validate
from ketsim.dynamics import (
    RegimeSystem,
    _check_strict_state,
    compose_parallel,
    compose_sequential,
    evolve,
    state_tensor,
    step,
)
from ketsim.experiments import (
    BULLET_MATRIX,
    BULLET_TWO_CLICK_MATRIX,
    MARBLE_MATRIX,
    MARBLE_START,
    PAIR_MATRIX,
    PHOTON_MATRIX,
    STOCHASTIC_MATRIX,
    UNITARY_MATRIX,
)


def random_function_graph(rng, n):
    """0/1 matrix with exactly one 1 per column: a function on vertices."""
    m = np.zeros((n, n), dtype=np.int64)
    for j in range(n):
        m[rng.integers(0, n), j] = 1
    return m


def random_doubly_stochastic(rng, n):
    """Convex combination of permutation matrices."""
    weights = rng.dirichlet(np.ones(4))
    out = np.zeros((n, n))
    for w in weights:
        out += w * np.eye(n)[rng.permutation(n)]
    return out


def random_unitary(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


def random_state(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


# --- construction and validation modes ---------------------------------------

def test_strict_accepts_conforming_matrices():
    RegimeSystem("deterministic", MARBLE_MATRIX)
    RegimeSystem("stochastic", STOCHASTIC_MATRIX)
    RegimeSystem("quantum", UNITARY_MATRIX)


def test_strict_rejects_bullet_wall():
    with pytest.raises(ValueError, match="stochastic validation"):
        RegimeSystem("stochastic", BULLET_MATRIX)


def test_strict_rejects_photon_wall():
    with pytest.raises(ValueError, match="quantum validation"):
        RegimeSystem("quantum", PHOTON_MATRIX)


def test_unchecked_accepts_both_walls():
    RegimeSystem("stochastic", BULLET_MATRIX, mode="unchecked")
    RegimeSystem("quantum", PHOTON_MATRIX, mode="unchecked")


def test_unknown_regime_and_mode_rejected():
    with pytest.raises(ValueError, match="regime"):
        RegimeSystem("fuzzy", np.eye(2))
    with pytest.raises(ValueError, match="mode"):
        RegimeSystem("quantum", np.eye(2), mode="sloppy")


def test_non_square_matrix_rejected():
    with pytest.raises(ValueError, match="square"):
        RegimeSystem("quantum", np.zeros((2, 3)), mode="unchecked")


def test_deterministic_matrix_stored_as_integers():
    sys_ = RegimeSystem("deterministic", MARBLE_MATRIX.astype(float))
    assert sys_.matrix.dtype == np.int64


def test_system_matrix_is_read_only():
    sys_ = RegimeSystem("stochastic", STOCHASTIC_MATRIX)
    with pytest.raises(ValueError):
        sys_.matrix[0, 0] = 9.0


# --- stepping -----------------------------------------------------------------

def test_marble_step_fixture():
    sys_ = RegimeSystem("deterministic", MARBLE_MATRIX)
    out = step(sys_, MARBLE_START)
    assert np.array_equal(out, [0, 0, 12, 5, 1, 9])
    assert out.dtype == np.int64


def test_identity_step_returns_same_state():
    sys_ = RegimeSystem("quantum", np.eye(3))
    v = np.array([0.6, 0.8, 0.0])
    assert np.allclose(step(sys_, v), v, atol=1e-12, rtol=0)


def test_quantum_step_preserves_norm():
    rng = np.random.default_rng(2)
    sys_ = RegimeSystem("quantum", UNITARY_MATRIX)
    for _ in range(25):
        v = random_state(rng, 3)
        v /= norm(v)
        assert abs(norm(step(sys_, v)) - 1) < 1e-9


def test_strict_quantum_normalizes_scaled_input():
    sys_ = RegimeSystem("quantum", UNITARY_MATRIX)
    v = np.array([0.6, 0.8j, 0.0])
    assert np.allclose(step(sys_, 5 * v), step(sys_, v), atol=1e-12, rtol=0)


def test_strict_state_checks():
    det = RegimeSystem("deterministic", MARBLE_MATRIX)
    with pytest.raises(ValueError, match="non-negative integer"):
        step(det, np.array([1, -2, 0, 0, 0, 0]))
    stoch = RegimeSystem("stochastic", STOCHASTIC_MATRIX)
    with pytest.raises(ValueError, match="sums to"):
        step(stoch, np.array([0.5, 0.4, 0.3]))
    quantum = RegimeSystem("quantum", UNITARY_MATRIX)
    with pytest.raises(ValueError, match="nonzero"):
        step(quantum, np.zeros(3))


def test_unchecked_skips_state_checks():
    det = RegimeSystem("deterministic", MARBLE_MATRIX, mode="unchecked")
    out = step(det, np.array([1, -2, 0, 0, 0, 0]))
    assert out[2] == -2


def test_step_dimension_mismatch():
    sys_ = RegimeSystem("quantum", UNITARY_MATRIX)
    with pytest.raises(ValueError, match="dimension 2.*expects 3"):
        step(sys_, np.array([1.0, 0.0]))


# --- evolve ---------------------------------------------------------------------

def test_evolve_zero_steps_is_identity():
    sys_ = RegimeSystem("deterministic", MARBLE_MATRIX)
    out = evolve(sys_, MARBLE_START, 0)
    assert np.array_equal(out, MARBLE_START)
    assert out is not MARBLE_START


def test_evolve_two_clicks_of_bullets():
    sys_ = RegimeSystem("stochastic", BULLET_MATRIX, mode="unchecked")
    e0 = np.eye(8)[0]
    out = evolve(sys_, e0, 2)
    assert np.allclose(out, [0, 0, 0, 1 / 6, 1 / 6, 1 / 3, 1 / 6, 1 / 6], atol=1e-12, rtol=0)


def test_evolve_two_clicks_of_photons_cancels_middle_target():
    sys_ = RegimeSystem("quantum", PHOTON_MATRIX, mode="unchecked")
    out = evolve(sys_, np.eye(8)[0], 2)
    assert abs(out[5]) ** 2 <= 1e-12


def test_evolve_rejects_negative_steps():
    sys_ = RegimeSystem("quantum", np.eye(2))
    with pytest.raises(ValueError, match="non-negative"):
        evolve(sys_, np.array([1.0, 0.0]), -1)


def test_evolve_rejects_boolean_steps():
    sys_ = RegimeSystem("quantum", np.eye(2))
    for steps in (True, np.True_):
        with pytest.raises(ValueError, match="steps must be a non-negative integer, got True"):
            evolve(sys_, np.array([1.0, 0.0]), steps)


MERGE = [[1, 1], [0, 0]]  # both vertices send their counts to vertex 0


def test_strict_deterministic_total_must_fit_in_int64():
    sys_ = RegimeSystem("deterministic", MERGE)
    with pytest.raises(ValueError, match="counts total 9223372036854775808, more than int64"):
        evolve(sys_, np.array([2**62, 2**62]), 1)
    with pytest.raises(ValueError, match="counts total 10000000000000000003"):
        evolve(RegimeSystem("deterministic", [[0, 1], [1, 0]]), np.array([1e19, 3.0]), 1)
    top = evolve(sys_, np.array([2**62, 2**62 - 1]), 5)  # a total of 2**63 - 1 still runs
    assert top.dtype == np.int64 and top.tolist() == [2**63 - 1, 0]
    assert evolve(sys_, np.array([2**62, 2**62]), 0).tolist() == [2**62, 2**62]


def test_round_trip_through_adjoint_system():
    rng = np.random.default_rng(9)
    forward = RegimeSystem("quantum", UNITARY_MATRIX)
    backward = RegimeSystem("quantum", adjoint(UNITARY_MATRIX))
    for _ in range(25):
        v = random_state(rng, 3)
        v /= norm(v)
        assert np.max(np.abs(step(backward, step(forward, v)) - v)) < 1e-9


# --- composition -----------------------------------------------------------------

def test_sequential_bullets_matches_two_click_fixture():
    wall = RegimeSystem("stochastic", BULLET_MATRIX, mode="unchecked")
    twice = compose_sequential(wall, wall)
    assert np.max(np.abs(twice.matrix - BULLET_TWO_CLICK_MATRIX)) < 1e-12
    assert twice.mode == "unchecked"


def test_sequential_with_identity_keeps_matrix():
    sys_ = RegimeSystem("stochastic", STOCHASTIC_MATRIX)
    ident = RegimeSystem("stochastic", np.eye(3))
    out = compose_sequential(sys_, ident)
    assert np.array_equal(out.matrix, STOCHASTIC_MATRIX)


def test_sequential_unitary_then_adjoint_is_identity_system():
    forward = RegimeSystem("quantum", UNITARY_MATRIX)
    backward = RegimeSystem("quantum", adjoint(UNITARY_MATRIX))
    round_trip = compose_sequential(forward, backward)
    assert np.max(np.abs(round_trip.matrix - np.eye(3))) < 1e-12
    assert round_trip.mode == "strict"


def test_sequential_deterministic_uses_boolean_paths():
    sys_ = RegimeSystem("deterministic", MARBLE_MATRIX)
    squared = compose_sequential(sys_, sys_)
    assert set(np.unique(squared.matrix)) <= {0, 1}
    assert validate(squared.matrix, "deterministic") == []


def test_sequential_rejects_mismatches():
    stoch = RegimeSystem("stochastic", STOCHASTIC_MATRIX)
    quantum = RegimeSystem("quantum", np.eye(3))
    with pytest.raises(ValueError, match="compose"):
        compose_sequential(stoch, quantum)
    small = RegimeSystem("stochastic", PAIR_MATRIX)
    with pytest.raises(ValueError, match="dimension"):
        compose_sequential(stoch, small)


def test_parallel_matches_entrywise_tensor_oracle():
    a = RegimeSystem("stochastic", STOCHASTIC_MATRIX)
    b = RegimeSystem("stochastic", PAIR_MATRIX)
    combined = compose_parallel(a, b)
    assert combined.dim == 6
    for j in range(6):
        for k in range(6):
            want = STOCHASTIC_MATRIX[j // 2, k // 2] * PAIR_MATRIX[j % 2, k % 2]
            assert abs(combined.matrix[j, k] - want) < 1e-15


def test_parallel_of_stochastic_is_stochastic():
    combined = compose_parallel(
        RegimeSystem("stochastic", STOCHASTIC_MATRIX),
        RegimeSystem("stochastic", PAIR_MATRIX),
    )
    assert validate(combined.matrix, "stochastic") == []
    assert combined.mode == "strict"


def test_parallel_identities_give_identity():
    a = RegimeSystem("quantum", np.eye(2))
    combined = compose_parallel(a, a)
    assert np.array_equal(combined.matrix, np.eye(4))


def test_parallel_rejects_regime_mismatch():
    with pytest.raises(ValueError, match="combine"):
        compose_parallel(
            RegimeSystem("quantum", np.eye(2)),
            RegimeSystem("stochastic", np.eye(2)),
        )


def test_repeated_self_parallel_dimension_growth():
    coin = RegimeSystem("stochastic", PAIR_MATRIX)
    combined = coin
    for m in range(2, 7):
        combined = compose_parallel(combined, coin)
        assert combined.dim == 2**m


def test_parallel_action_factors_over_tensor_states():
    rng = np.random.default_rng(31)
    for _ in range(25):
        u1 = RegimeSystem("quantum", random_unitary(rng, 2))
        u2 = RegimeSystem("quantum", random_unitary(rng, 3))
        v1 = random_state(rng, 2)
        v1 /= norm(v1)
        v2 = random_state(rng, 3)
        v2 /= norm(v2)
        lhs = step(compose_parallel(u1, u2), state_tensor(v1, v2))
        rhs = state_tensor(step(u1, v1), step(u2, v2))
        assert np.max(np.abs(lhs - rhs)) < 1e-9


# --- state tensor -----------------------------------------------------------------

def test_state_tensor_fixtures():
    zero = np.array([1.0, 0.0])
    one = np.array([0.0, 1.0])
    assert np.array_equal(state_tensor(zero, one), [0, 1, 0, 0])
    assert np.array_equal(state_tensor(one, zero), [0, 0, 1, 0])


def test_state_tensor_order_matters():
    zero = np.array([1.0, 0.0])
    one = np.array([0.0, 1.0])
    assert not np.array_equal(state_tensor(zero, one), state_tensor(one, zero))


def test_state_tensor_with_scalar_one():
    v = np.array([0.2, 0.3, 0.5])
    assert np.array_equal(state_tensor(v, np.array([1.0])), v)


def reference_evolve(sys_, state, steps):
    """The click loop before the checks were hoisted: every click re-coerces
    the state, runs the strict check and multiplies through ``mat_vec``."""
    x = as_state(state)
    if x.shape[0] != sys_.dim:
        raise ValueError(f"state has dimension {x.shape[0]}, system expects {sys_.dim}")
    for _ in range(steps):
        x = as_state(x)
        if sys_.mode == "strict":
            x = _check_strict_state(sys_, x)
        x = mat_vec(sys_.matrix, x)
    return x.copy() if x is state else x


def outcome(run, *args):
    """Result bytes and dtype of a run, or the message it was refused with."""
    try:
        x = run(*args)
    except ValueError as exc:
        return ("refused", str(exc))
    return ("ok", x.dtype, x.tobytes())


def random_start(rng, regime, n):
    if regime == "deterministic":
        return rng.integers(-1, 9, size=n)  # a negative count trips the strict check
    if regime == "stochastic":
        return rng.dirichlet(np.ones(n))
    return random_state(rng, n)  # not normalised: strict runs renormalise it


RANDOM_MATRIX = {
    "deterministic": random_function_graph,
    "stochastic": random_doubly_stochastic,
    "quantum": random_unitary,
}


@pytest.mark.parametrize("mode", ["strict", "unchecked"])
@pytest.mark.parametrize("regime", sorted(RANDOM_MATRIX))
def test_evolve_matches_the_per_click_reference_loop(regime, mode):
    rng = np.random.default_rng(53)
    refused = 0
    for _ in range(20):
        n = int(rng.integers(1, 7))
        sys_ = RegimeSystem(regime, RANDOM_MATRIX[regime](rng, n), mode=mode)
        x = random_start(rng, regime, n)
        for steps in range(13):
            want = outcome(reference_evolve, sys_, x, steps)
            assert outcome(evolve, sys_, x, steps) == want
            refused += want[0] == "refused"
        assert outcome(step, sys_, x) == outcome(evolve, sys_, x, 1)
    if regime == "deterministic" and mode == "strict":
        assert refused > 0


def test_evolve_matches_reference_when_strict_checks_fire_mid_run():
    rng = np.random.default_rng(59)
    # norm drifts by 4e-10 a click: renormalisation kicks in after a few clicks
    for scale in (1 + 4e-10, 1 - 4e-10):
        sys_ = RegimeSystem("quantum", random_unitary(rng, 4) * scale)
        x = random_state(rng, 4)
        x /= norm(x)
        for steps in range(13):
            assert outcome(evolve, sys_, x, steps) == outcome(reference_evolve, sys_, x, steps)
    # column sums 1 + 6e-10: the input of click 3 sums to 1 + 1.2e-9 and is refused
    drifting = RegimeSystem("stochastic", random_doubly_stochastic(rng, 4) * (1 + 6e-10))
    p = rng.dirichlet(np.ones(4))
    evolve(drifting, p, 2)
    for steps in range(13):
        assert outcome(evolve, drifting, p, steps) == outcome(reference_evolve, drifting, p, steps)
    with pytest.raises(ValueError, match="sums to"):
        evolve(drifting, p, 3)
    # a negative count is refused at the first click of a strict run only;
    # steps=0 runs no check and keeps the float dtype
    counts = np.array([3.0, -1.0, 0.0, 2.0, 0.0, 0.0])
    for mode in ("strict", "unchecked"):
        sys_ = RegimeSystem("deterministic", MARBLE_MATRIX, mode=mode)
        for steps in range(13):
            assert outcome(evolve, sys_, counts, steps) == outcome(reference_evolve, sys_, counts, steps)


def test_non_finite_result_is_refused():
    sys_ = RegimeSystem("stochastic", [[1e200]], mode="unchecked")
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        evolve(sys_, [1e200], 1)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        step(sys_, [1e200])


# --- conservation properties ---------------------------------------------------

def test_deterministic_steps_conserve_total_count():
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        sys_ = RegimeSystem("deterministic", random_function_graph(rng, n))
        counts = rng.integers(0, 50, size=n)
        out = step(sys_, counts)
        assert out.sum() == counts.sum()
        assert out.dtype == np.int64


def test_stochastic_steps_preserve_total_probability():
    rng = np.random.default_rng(43)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        sys_ = RegimeSystem("stochastic", random_doubly_stochastic(rng, n))
        p = rng.dirichlet(np.ones(n))
        assert abs(step(sys_, p).sum() - 1) < 1e-9


def test_quantum_steps_preserve_norm_on_random_unitaries():
    rng = np.random.default_rng(47)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        sys_ = RegimeSystem("quantum", random_unitary(rng, n))
        v = random_state(rng, n)
        v /= norm(v)
        assert abs(norm(step(sys_, v)) - 1) < 1e-9


@pytest.mark.parametrize(
    "state, want",
    [
        ([1e200, 1e200], [np.sqrt(0.5), np.sqrt(0.5)]),
        ([1e-200, 0.0], [1.0, 0.0]),
        ([3e-300, 4e-300j], [0.6, 0.8j]),
    ],
)
def test_strict_quantum_renormalises_at_any_scale(state, want):
    out = evolve(RegimeSystem("quantum", np.eye(2)), state, 1)
    assert np.allclose(out, want, rtol=0, atol=1e-15)


def test_strict_quantum_refuses_a_norm_beyond_the_float_range():
    with pytest.raises(ValueError, match="norm exceeds the float range"):
        evolve(RegimeSystem("quantum", np.eye(2)), [1.5e308, 1.5e308], 1)
