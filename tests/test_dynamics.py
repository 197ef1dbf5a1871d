"""Regime systems: stepping, validation modes, and composition."""
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ketsim.dynamics
from ketsim.algebra import DEFAULT_TOL, adjoint, as_state, bool_mat_mul, kron, mat_mul, mat_vec, norm, normalize, validate
from ketsim.dynamics import (
    _BLOCK_TOL,
    _MAX_BLOCK,
    MODES,
    RegimeSystem,
    _check_strict_state,
    _checked_clicks,
    _passes,
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
from ketsim.gates import Circuit, Gate, apply, circuit_matrix, parallel, sequential
from reference import random_doubly_stochastic, random_function_graph, random_unitary


@pytest.fixture(autouse=True, scope="module")
def every_strict_deterministic_map_is_each_columns_argmax():
    """Every strict deterministic system this module builds keeps, as ``_dst``, its matrix's argmax
    down each column, read-only and of dtype intp."""
    built = RegimeSystem.__post_init__

    def checked(sys_):
        built(sys_)
        if sys_._dst is not None:
            assert sys_._dst.dtype == np.intp and not sys_._dst.flags.writeable
            assert sys_._dst.tolist() == sys_.matrix.argmax(axis=0).tolist()

    with mock.patch.object(RegimeSystem, "__post_init__", checked):
        yield


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


@pytest.mark.parametrize(
    "m, dtype, want",
    [
        (np.array([[2**64 - 1]], dtype=np.uint64), np.float64, [[1.8446744073709552e19]]),
        ([[2.0**63]], np.float64, [[2.0**63]]),
        ([[1e300, 0.0], [0.0, 1.0]], np.float64, [[1e300, 0.0], [0.0, 1.0]]),
        (np.array([[2**63 - 1, 0], [-(2**63), 1]]), np.int64, [[2**63 - 1, 0], [-(2**63), 1]]),
        (np.array([[True, False], [False, True]]), np.int64, [[1, 0], [0, 1]]),
    ],
    ids=["uint64-max", "2^63", "1e300", "int64-range", "bool"],
)
def test_deterministic_storage_is_int64_exactly_when_int64_holds_every_entry(m, dtype, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stored = RegimeSystem("deterministic", m, mode="unchecked").matrix
    assert stored.dtype == dtype
    assert stored.tolist() == want


@pytest.mark.parametrize("regime, dtype", [("deterministic", np.int64), ("stochastic", np.float64)])
def test_a_complex_matrix_with_no_imaginary_part_is_stored_real(regime, dtype):
    m = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    stored = RegimeSystem(regime, m).matrix
    assert stored.dtype == dtype
    assert stored.tolist() == [[0, 1], [1, 0]]


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
    with pytest.raises(ValueError, match="^stochastic state must be real$"):
        evolve(stoch, np.array([1, 0, 0], dtype=np.complex128), 2)


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


def test_strict_deterministic_composition_equals_the_boolean_product():
    # a 0/1 function matrix times another is one: the boolean and ordinary products agree
    rng = np.random.default_rng(71)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        first = RegimeSystem("deterministic", random_function_graph(rng, n))
        second = RegimeSystem("deterministic", np.eye(n, dtype=np.int64)[rng.permutation(n)])
        for a, b in ((first, second), (second, first), (first, first)):
            out, want = compose_sequential(a, b).matrix, bool_mat_mul(b.matrix, a.matrix)
            assert out.dtype == want.dtype and out.tobytes() == want.tobytes()


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
    # the benchmark's shape: 300 clicks at dim 64, from a state every strict check accepts
    sys_ = RegimeSystem(regime, RANDOM_MATRIX[regime](rng, 64), mode=mode)
    x = random_start(rng, regime, 64)
    x = np.abs(x) if regime == "deterministic" else x
    want = outcome(reference_evolve, sys_, x, 300)
    assert want[0] == "ok" and outcome(evolve, sys_, x, 300) == want


@pytest.mark.parametrize(
    "regime, mode, steps, calls",
    [
        ("deterministic", "strict", 50, 1),
        ("stochastic", "strict", 50, None),
        ("quantum", "strict", 50, None),
        *[(regime, "unchecked", 50, 0) for regime in sorted(RANDOM_MATRIX)],
        *[(regime, "strict", 0, 0) for regime in sorted(RANDOM_MATRIX)],
    ],
)
def test_strict_checks_run_only_on_clicks_that_can_spoil_the_state(
    monkeypatch, regime, mode, steps, calls
):
    checked = []

    def counting_check(sys_, x):
        checked.append(x)
        return _check_strict_state(sys_, x)

    monkeypatch.setattr("ketsim.dynamics._check_strict_state", counting_check)
    rng = np.random.default_rng(61)
    sys_ = RegimeSystem(regime, RANDOM_MATRIX[regime](rng, 8), mode=mode)
    x = random_start(rng, regime, 8)
    x = np.abs(x) if regime == "deterministic" else x
    evolve(sys_, x, steps)
    if calls is not None:
        assert len(checked) == calls
    else:  # the caller's state is checked exactly; later click inputs in blocks, which pass here
        assert checked[0] is x and len(checked) < steps


@pytest.mark.parametrize(
    "regime, dtype",
    [(regime, dtype) for regime in ("stochastic", "quantum")
     for dtype in (np.float16, np.float32, np.longdouble)] + [("quantum", np.complex64)],
)
def test_strict_runs_read_the_callers_state_at_the_matrix_precision(regime, dtype):
    # a click returns the matrix dtype; the caller's state is converted to it before its check
    rng = np.random.default_rng(67)
    sys_ = RegimeSystem(regime, RANDOM_MATRIX[regime](rng, 5), tol=1e-3)
    x = rng.dirichlet(np.ones(5)) if regime == "stochastic" else random_state(rng, 5)
    x = x.astype(dtype) if np.issubdtype(dtype, np.complexfloating) else x.real.astype(dtype)
    for steps in (1, 3):
        want = outcome(evolve, sys_, x.astype(sys_.matrix.dtype), steps)
        assert want[0] == "ok" and outcome(evolve, sys_, x, steps) == want


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


CLICKS_PAST_TWO_BLOCKS = st.integers(0, 2 * _MAX_BLOCK + 1)


@st.composite
def drifting_systems(draw):
    """A strict stochastic or quantum system, often scaled by 1 + d within its ``tol``: its
    runs are refused (stochastic) or renormalised (quantum) every so many clicks."""
    regime = draw(st.sampled_from(["stochastic", "quantum"]))
    n = draw(st.integers(1, 8))
    tol = draw(st.sampled_from([1e-9, 1e-6, 1e-3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # the scaled matrix passes strict validation: column sums 1 + d, or M† M = (1 + d)**2 I
    reach = 0.95 if regime == "stochastic" else 0.45
    d = draw(st.sampled_from([0.0]) | st.floats(-reach, reach)) * tol
    m = RANDOM_MATRIX[regime](rng, n) * (1 + d)
    return RegimeSystem(regime, m, tol=tol), random_start(rng, regime, n)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(drifting_systems(), CLICKS_PAST_TWO_BLOCKS)
def test_blocked_strict_runs_match_the_per_click_reference(case, steps):
    sys_, x = case
    assert outcome(evolve, sys_, x, steps) == outcome(reference_evolve, sys_, x, steps)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(drifting_systems(), st.integers(0, 600))
def test_the_block_test_sees_few_rows_per_click_kept(case, steps):
    # a click's output is kept when the run goes on from it or stops at it.  Blocks grow while
    # clean and restart near a flagged system's period: 3,000 runs of this strategy tested at
    # most 2.52 rows per click kept, where fixed blocks of _MAX_BLOCK clicks would test up to
    # _MAX_BLOCK on a system that renormalises every click
    sys_, x = case
    tested, kept = [], []

    def counting_passes(system, rows):
        ok = _passes(system, rows)
        tested.append(len(rows))
        kept.append(len(rows) if ok.all() else int(ok.argmin()) + 1)
        return ok

    with mock.patch("ketsim.dynamics._passes", counting_passes):
        outcome(evolve, sys_, x, steps)
    assert sum(kept) <= max(steps - 1, 0) and sum(tested) <= 3 * sum(kept)
    # a run past one click tests its blocks through the module's _passes, so the spy sees them
    assert bool(tested) == (steps >= 2)


def reference_passes(sys_, rows):
    """``_passes`` with three reductions on each row, as it was before the whole-block test."""
    eff, dim = min(sys_.tol, _BLOCK_TOL), rows.shape[1]
    slack = dim * 2.0**-48 * (1 + dim * eff)
    if sys_.regime == "stochastic":
        return ((rows.min(axis=1) >= -eff) & (rows.max(axis=1) <= 1 + eff)
                & (np.abs(rows.sum(axis=1) - 1) <= eff - slack))
    parts = rows.view(np.float64)
    squares = np.einsum("ij,ij->i", parts, parts)
    return (squares >= (1 - eff) ** 2 + slack) & (squares <= (1 + eff) ** 2 - slack)


@st.composite
def stochastic_blocks(draw):
    """A strict stochastic system and a block of 1-64 distributions of its dimension (1-64), up
    to three of them pushed out of range, off sum or to nan by amounts near ``eff`` and ``slack``."""
    n, dim = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    sys_ = RegimeSystem("stochastic", np.eye(dim), tol=draw(st.sampled_from([1e-9, 1e-6, 1e-3, 0.3])))
    eff = min(sys_.tol, _BLOCK_TOL)
    slack = dim * 2.0**-48 * (1 + dim * eff)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.dirichlet(np.ones(dim), size=n)
    for r in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        ulps = 1 + draw(st.integers(-4, 4)) * 2.0**-52
        how = draw(st.sampled_from(["low", "high", "sum", "nan"]))
        if how == "sum":  # the sum lands near 1 ± (eff - slack), the block test's bound
            near = draw(st.sampled_from([eff - 3 * slack, eff - slack, eff, eff + slack, eff + 3 * slack]))
            rows[r] *= 1 + draw(st.sampled_from([-1, 1])) * near * ulps
        else:
            edge = {"low": -eff, "high": 1 + eff, "nan": np.nan}[how]
            rows[r, rng.integers(dim)] = edge * ulps
    return sys_, rows, eff, slack


@settings(derandomize=True, max_examples=400, deadline=None)
@given(stochastic_blocks())
def test_the_whole_block_test_is_the_row_by_row_test(case):
    # the row sums come from BLAS here and from numpy's sum in the reference: they may round apart,
    # by less than slack, so only a row whose sum lies within slack of the bound may read otherwise
    sys_, rows, eff, slack = case
    ok, want = _passes(sys_, rows), reference_passes(sys_, rows)
    assert ok.dtype == want.dtype == bool and ok.shape == want.shape == (len(rows),)
    clear = ~(np.abs(np.abs(rows.sum(axis=1) - 1) - (eff - slack)) <= slack)
    assert np.array_equal(ok[clear], want[clear])


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.integers(1, 129), st.booleans(), st.integers(-600, 600), st.integers(0, 2**32 - 1))
def test_a_click_into_the_buffer_is_bitwise_the_matmul_click(n, complex_, exponent, seed):
    # _checked_clicks writes a click with np.dot into the next buffer row; evolve's last click,
    # unchecked runs and reference_evolve multiply with @
    rng = np.random.default_rng(seed)
    m, x = rng.standard_normal((n, n)) * 2.0**exponent, rng.standard_normal(n)
    if complex_:
        m, x = m + 1j * rng.standard_normal((n, n)) * 2.0**exponent, x + 1j * rng.standard_normal(n)
    buf = np.empty((4, n), m.dtype)
    buf[0] = x
    np.dot(m, buf[0], out=buf[1])
    assert buf[1].tobytes() == np.matmul(m, buf[0]).tobytes() == (m @ x).tobytes()
    # the loop's own form, m.dot bound once and one call per (input row, output row) pair, is the
    # np.dot click bit for bit, click after click; past one click the entries may overflow, as
    # under evolve's errstate
    rows, plain = list(buf), buf.copy()
    dot = m.dot
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (a, b) in enumerate(zip(rows, rows[1:])):
            dot(a, b)
            np.dot(m, plain[i], out=plain[i + 1])
            assert b.tobytes() == plain[i + 1].tobytes()


def test_a_strict_dim_64_run_is_the_plain_click_loop_byte_for_byte():
    # a strict stochastic or quantum run clicks in checked blocks, yet its result is the plain
    # x = m @ x loop's, across no block, one, two and ten blocks
    rng = np.random.default_rng(64)
    haar = random_unitary(rng, 64)
    birkhoff = random_doubly_stochastic(rng, 64, terms=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for regime, m, x in (("stochastic", birkhoff, rng.dirichlet(np.ones(64))),
                             ("quantum", haar, haar[:, 0].copy())):
            s = RegimeSystem(regime, m)
            for steps in (0, 1, 2, 65, 300):
                want = x.astype(s.matrix.dtype)
                for _ in range(steps):
                    want = s.matrix @ want
                out = evolve(s, x, steps)
                assert out.dtype == want.dtype and out.tobytes() == want.tobytes(), (regime, steps)


def per_block_bounds(sys_):
    """The block test's constants as ``_passes`` worked them out for each block before they were
    set once per system."""
    eff, dim = min(sys_.tol, _BLOCK_TOL), sys_.dim
    slack = dim * 2.0**-48 * (1 + dim * eff)
    if sys_.regime == "stochastic":
        return eff, eff - slack, np.ones(dim)
    return (1 - eff) ** 2 + slack, (1 + eff) ** 2 - slack


@pytest.mark.parametrize("tol", [0.0, 1e-300, 1e-9, DEFAULT_TOL, 1e-3, 0.3, 2.0])
def test_the_block_bounds_are_set_once_for_strict_stochastic_and_quantum_systems(tol):
    # permutations pass every regime at every tol: the bounds depend on the regime, tol and dim only
    rng = np.random.default_rng(83)
    for n in (1, 2, 6, 64):
        m = np.eye(n, dtype=np.int64)[rng.permutation(n)]
        for regime in ("deterministic", "stochastic", "quantum"):
            for mode in MODES:
                sys_ = RegimeSystem(regime, m, mode=mode, tol=tol)
                two = RegimeSystem(regime, np.eye(2), mode=mode, tol=tol)
                for made in (sys_, compose_sequential(sys_, sys_), compose_parallel(sys_, two)):
                    if mode == "unchecked" or regime == "deterministic":
                        assert made._bounds is None
                        continue
                    bounds, want = made._bounds, per_block_bounds(made)
                    assert len(bounds) == len(want)
                    for got, expected in zip(bounds, want):  # bit for bit, the ones vector's dtype too
                        assert np.asarray(got).dtype == np.asarray(expected).dtype
                        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
                    if regime == "stochastic":
                        assert bounds[2].shape == (made.dim,) and not bounds[2].flags.writeable


def test_a_run_without_checked_clicks_builds_no_buffer():
    rng = np.random.default_rng(89)
    for regime in ("stochastic", "quantum"):
        sys_ = RegimeSystem(regime, RANDOM_MATRIX[regime](rng, 6))
        x = _check_strict_state(sys_, random_start(rng, regime, 6))
        assert _checked_clicks(sys_, x, 0) is x
        # a strided state is multiplied as the buffer held it, contiguous: BLAS's bits, not numpy's
        # own loop, which sums a reversed view in another order
        for view in (x[::-1], np.repeat(x, 2)[::2]):
            assert not view.flags.c_contiguous
            contiguous = np.ascontiguousarray(view)
            assert _checked_clicks(sys_, view, 0).tobytes() == contiguous.tobytes()
            assert evolve(sys_, view, 1).tobytes() == (sys_.matrix @ contiguous).tobytes()


@pytest.mark.parametrize("tol", [1e-9, 1e-3, 0.3])
@pytest.mark.parametrize("regime", ["stochastic", "quantum"])
def test_the_block_test_passes_only_what_the_exact_check_keeps(regime, tol):
    # states within a few ulps of the edges of tol and of the block test's own tolerance, where
    # the rounding of the two sums decides
    rng = np.random.default_rng(73)
    edges = [1 + e for e in (tol, -tol, _BLOCK_TOL, -_BLOCK_TOL)]
    for n in (1, 2, 3, 7, 16, 64):
        sys_ = RegimeSystem(regime, np.eye(n), tol=tol)
        for _ in range(10):
            z = rng.dirichlet(np.ones(n)) if regime == "stochastic" else normalize(random_state(rng, n))
            rows = np.array([z * (edge * (1 + j * 2.0**-52)) for edge in edges for j in range(-40, 41)])
            for row in rows[_passes(sys_, rows)]:
                assert _check_strict_state(sys_, row) is row


@pytest.mark.parametrize("tol", [0.0, 1e-300])
def test_blocked_strict_runs_at_a_tolerance_no_block_passes(tol):
    # a permutation keeps a one-hot state exact, so every click's exact check passes it
    perm = np.eye(5)[[3, 0, 4, 1, 2]]
    for regime in ("stochastic", "quantum"):
        sys_ = RegimeSystem(regime, perm, tol=tol)
        x = np.eye(5)[2]
        for steps in (0, 1, 2, 3, 7, 2 * _MAX_BLOCK + 1):
            want = outcome(reference_evolve, sys_, x, steps)
            assert want[0] == "ok" and outcome(evolve, sys_, x, steps) == want


@pytest.mark.parametrize("click", range(2, 2 * _MAX_BLOCK + 2))
def test_a_stochastic_run_is_refused_at_the_click_its_input_drifts_out(click):
    # the state sums to 1 + 0.6 tol, and each click adds about d = 0.4 tol / (click - 1.5): the
    # input of `click` is the first past 1 + tol, whichever block it lands in
    rng = np.random.default_rng(click)
    tol = 1e-9
    d = 0.4 * tol / (click - 1.5)
    sys_ = RegimeSystem("stochastic", random_doubly_stochastic(rng, 6) * (1 + d), tol=tol)
    p = rng.dirichlet(np.ones(6)) * (1 + 0.6 * tol)
    assert outcome(reference_evolve, sys_, p, click - 1)[0] == "ok"
    for steps in (click, 2 * _MAX_BLOCK + 1):
        want = outcome(reference_evolve, sys_, p, steps)
        assert want[0] == "refused" and "sums to" in want[1]
        assert outcome(evolve, sys_, p, steps) == want


@pytest.mark.parametrize("click", range(2, 2 * _MAX_BLOCK + 2))
def test_a_stochastic_run_is_refused_at_the_click_an_entry_leaves_the_range(click):
    # column 1 sends -d to vertex 0 and 1 + d back to itself, so entry 0 falls by about d / 2 a
    # click while the sum stays 1: the input of `click` is the first with an entry below -tol
    rng = np.random.default_rng(click)
    tol, d, half = 1e-9, 0.9e-9, 0.5
    m = np.zeros((6, 6))
    m[:2, :2] = [[1, -d], [0, 1 + d]]
    m[2:, 2:] = random_doubly_stochastic(rng, 4)
    sys_ = RegimeSystem("stochastic", m, tol=tol)
    first = -tol + half * ((1 + d) ** (click - 1.5) - 1)
    p = np.concatenate([[first, half], rng.dirichlet(np.ones(4)) * (half - first)])
    assert outcome(reference_evolve, sys_, p, click - 1)[0] == "ok"
    for steps in (click, 2 * _MAX_BLOCK + 1):
        want = outcome(reference_evolve, sys_, p, steps)
        assert want == ("refused", "stochastic state entries must lie in [0, 1]")
        assert outcome(evolve, sys_, p, steps) == want


@st.composite
def counted_function_graphs(draw):
    n = draw(st.integers(1, 8))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    m = np.zeros((n, n), dtype=np.int64)
    m[dst, np.arange(n)] = 1
    # counts up to the int64 total: some share 2**63 - 1 among the vertices
    cap = draw(st.sampled_from([100, 2**62, 2**63 - 1]))
    counts = draw(st.lists(st.integers(0, cap), min_size=n, max_size=n))
    while sum(counts) >= 2**63:
        counts[counts.index(max(counts))] //= 2
    return m, np.array(counts, dtype=np.int64)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(counted_function_graphs(), st.integers(0, 300) | st.integers(0, 10**18))
@example((np.array([[0, 1], [1, 0]]), np.array([3, 5])), 10**18)
def test_strict_deterministic_runs_are_the_matrix_power(case, steps):
    m, x = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = evolve(RegimeSystem("deterministic", m), x, steps)
    want = np.linalg.matrix_power(m, steps) @ x  # exact: a power of a 0/1 function is one
    assert out.dtype == want.dtype == np.int64 and out.tolist() == want.tolist()


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
        ([3e-160, 0.0], [1.0, 0.0]),
        ([1e-320 + 1e-320j, 0.0], [np.sqrt(0.5) * (1 + 1j), 0.0]),
    ],
)
def test_strict_quantum_renormalises_at_any_scale(state, want):
    out = evolve(RegimeSystem("quantum", np.eye(2)), state, 1)
    assert np.allclose(out, want, rtol=0, atol=1e-15)


def test_strict_quantum_refuses_a_norm_beyond_the_float_range():
    with pytest.raises(ValueError, match="norm exceeds the float range"):
        evolve(RegimeSystem("quantum", np.eye(2)), [1.5e308, 1.5e308], 1)


# --- one product rule: exact or refused, never wrapped or warned ----------------

def unchecked(regime, m):
    return RegimeSystem(regime, m, mode="unchecked")


FIBONACCI = unchecked("deterministic", [[1, 1], [1, 0]])
DOUBLING = unchecked("deterministic", [[2]])
TWO_TO_62 = unchecked("deterministic", [[2**62]])
HUGE = unchecked("stochastic", [[1e200]])
FOUR_INTO_ONE = [[1, 1, 1, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]  # a 0/1 function graph
BIG_GATE = Gate("big", [[1e300, 0], [0, 1]], 1, 1, quantum=False)


@pytest.mark.parametrize(
    "run, want",
    [
        (lambda: evolve(compose_sequential(FIBONACCI, FIBONACCI), [3, 5], 1), [11, 8]),
        (lambda: compose_sequential(DOUBLING, DOUBLING).matrix, [[4]]),
        (lambda: evolve(DOUBLING, [1], 62), [2**62]),
        (lambda: evolve(unchecked("deterministic", [[1, 1], [0, 1]]), [2**62, 1], 1),
         [2**62 + 1, 1]),
        (lambda: evolve(unchecked("deterministic", FOUR_INTO_ONE), [2**61, 0, 0, 0], 1),
         [2**61, 0, 0, 0]),
        (lambda: state_tensor([-(2**63)], [1]), [-(2**63)]),
        (lambda: evolve(DOUBLING, [1], 64), "exceed what int64 holds"),
        (lambda: compose_parallel(TWO_TO_62, unchecked("deterministic", [[4]])),
         "exceed what int64 holds"),
        (lambda: state_tensor([2**62], [4]), "exceed what int64 holds"),
        (lambda: state_tensor([1e200], [1e200]), "must all be finite"),
        (lambda: compose_sequential(HUGE, HUGE), "must all be finite"),
        (lambda: compose_parallel(HUGE, HUGE), "must all be finite"),
        (lambda: mat_mul([[2**61, 2**61]], [[1], [1]]), [[2**62]]),
        (lambda: kron([[2**62]], [[-2]]), [[-(2**63)]]),
        (lambda: mat_mul([[2**62]], [[4]]), "exceed what int64 holds"),
        (lambda: mat_vec([[2**62]], [4]), "exceed what int64 holds"),
        (lambda: kron([[2**62]], [[4]]), "exceed what int64 holds"),
        (lambda: mat_mul([[1e200]], [[1e200]]), "must all be finite"),
        (lambda: mat_vec([[1e200]], [1e200]), "must all be finite"),
        (lambda: mat_vec([[1e300]], [1e300]), "must all be finite"),
        (lambda: kron([[1e200]], [[1e200]]), "must all be finite"),
        (lambda: sequential(BIG_GATE, BIG_GATE), "must all be finite"),
        (lambda: parallel(BIG_GATE, BIG_GATE), "must all be finite"),
        (lambda: circuit_matrix(Circuit(1, [[BIG_GATE], [BIG_GATE]])), "must all be finite"),
        (lambda: apply(BIG_GATE, [1e300, 0]), "state entries must all be finite"),
    ],
    ids=["composed-clicks", "composed-weights", "2^62", "near-int64", "four-into-one", "int64-min",
         "evolve-wrap", "parallel-wrap", "tensor-wrap", "tensor-inf", "sequential-inf", "parallel-inf",
         "mat_mul-2^62", "kron-int64-min", "mat_mul-wrap", "mat_vec-wrap", "kron-wrap", "mat_mul-inf",
         "mat_vec-inf", "mat_vec-1e300-inf", "kron-inf", "gate-sequential-inf", "gate-parallel-inf",
         "circuit-inf", "gate-apply-inf"],
)
def test_products_are_exact_or_refused_without_a_warning(run, want):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if isinstance(want, str):
            with pytest.raises(ValueError, match=want):
                run()
        else:
            out = run()
            assert out.dtype == np.int64 and out.tolist() == want
    assert [str(w.message) for w in caught] == []


def test_an_unchecked_run_is_refused_at_its_first_click_that_is_not_finite():
    with mock.patch("ketsim.dynamics._product", wraps=ketsim.dynamics._product) as clicks:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                evolve(HUGE, [1e100], 1000)  # click 1 reaches 1e300, click 2 overflows
    assert str(exc.value) == "state entries must all be finite" and clicks.call_count == 2


@pytest.mark.parametrize("regime", ["deterministic", "stochastic", "quantum"])
def test_an_unchecked_run_is_bitwise_the_plain_loop(regime):
    rng = np.random.default_rng(89)
    for n in (1, 3, 8):
        m = rng.integers(-3, 4, size=(n, n))
        sys_ = unchecked(regime, m if regime == "deterministic" else m * rng.standard_normal((n, n)))
        x = want = rng.integers(0, 5, size=n) if regime == "deterministic" else rng.standard_normal(n)
        for _ in range(7):
            want = sys_.matrix @ want
        got = evolve(sys_, x, 7)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# edge values beside small ones, which are drawn more often so that some products stay in range
BIG_INTEGERS = [2**31, -(2**31), 2**62, -(2**62), 2**63 - 1]
EDGE_INTEGERS = st.sampled_from([0, 1, -1]) | st.sampled_from([0, 1, -1, *BIG_INTEGERS])
COUNTS = st.sampled_from([0, 1, 2]) | st.sampled_from([2**31, 2**62])


def unflowing_floats(low, high):
    """Floats in [low, high] that are 0 or of magnitude 1e-50 and up: no product of three of them
    underflows, which would leave it no relative error bound."""
    return st.floats(low, high).filter(lambda v: v == 0 or abs(v) >= 1e-50)


UNIT_FLOATS = unflowing_floats(-1, 1)
EDGE_FLOATS = unflowing_floats(-4, 4) | UNIT_FLOATS | st.sampled_from([1e200, -1e200])
REGIMES = ["deterministic", "stochastic", "quantum"]


def drawn_array(draw, entries, *shape):
    return np.array([draw(entries) for _ in range(int(np.prod(shape)))]).reshape(shape)


def drawn_complex(draw, entries, *shape):
    return drawn_array(draw, entries, *shape) + 1j * drawn_array(draw, entries, *shape)


@st.composite
def systems(draw, regime, n, may_be_strict=True):
    """A strict permutation, Birkhoff mixture or QR unitary, or unchecked edge values."""
    def permutation():
        return np.eye(n, dtype=np.int64)[draw(st.permutations(range(n)))]

    if may_be_strict and draw(st.booleans()):
        if regime == "deterministic":
            return RegimeSystem(regime, permutation())
        if regime == "stochastic":
            weights = draw(st.lists(st.floats(0.01, 1), min_size=1, max_size=3))
            return RegimeSystem(regime, sum(w * permutation() for w in weights) / sum(weights))
        return RegimeSystem(regime, np.linalg.qr(drawn_complex(draw, UNIT_FLOATS, n, n))[0])
    if regime == "deterministic":
        return unchecked(regime, drawn_array(draw, EDGE_INTEGERS, n, n))
    if regime == "stochastic":
        return unchecked(regime, drawn_array(draw, EDGE_FLOATS, n, n))
    return unchecked(regime, drawn_complex(draw, EDGE_FLOATS, n, n))


@st.composite
def states(draw, regime, n, valid):
    """Edge values, or (``valid``) a state every strict check passes through unchanged."""
    if regime == "deterministic":
        return drawn_array(draw, COUNTS if valid else EDGE_INTEGERS, n)
    if not valid:
        return (drawn_complex if regime == "quantum" else drawn_array)(draw, EDGE_FLOATS, n)
    if regime == "stochastic":
        w = drawn_array(draw, st.floats(0.01, 1), n)
        return w / w.sum()
    z = drawn_complex(draw, UNIT_FLOATS, n)
    return normalize(z) if np.any(z) else np.eye(n)[0].astype(complex)


def returned(run, *args):
    """``run(*args)``, or None when it refuses with ValueError; a numpy warning fails the test."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = run(*args)
        except ValueError:
            out = None
    assert [str(w.message) for w in caught] == []
    return out


def exact(a):
    """``a`` as Python numbers, whose integer arithmetic neither wraps nor rounds."""
    return np.asarray(a).astype(object)


PRODUCTS = {"mat_mul": (mat_mul, np.matmul), "mat_vec": (mat_vec, np.matmul), "kron": (kron, np.kron)}


@st.composite
def product_cases(draw):
    """An algebra product and its operands, each of edge integers or of edge floats."""
    name = draw(st.sampled_from(sorted(PRODUCTS)))
    sizes = st.integers(1, 3)
    rows, columns = draw(sizes), draw(sizes)
    if name == "mat_vec":
        shape = (columns,)
    else:
        shape = (columns if name == "mat_mul" else draw(sizes), draw(sizes))
    a = drawn_array(draw, draw(st.sampled_from([EDGE_INTEGERS, EDGE_FLOATS])), rows, columns)
    b = drawn_array(draw, draw(st.sampled_from([EDGE_INTEGERS, EDGE_FLOATS])), *shape)
    return name, a, b


@settings(derandomize=True, max_examples=500, deadline=None)
@given(product_cases())
def test_an_algebra_product_is_exact_and_finite_or_refused(case):
    name, a, b = case
    run, plain = PRODUCTS[name]
    out = returned(run, a, b)
    if np.result_type(a, b).kind in "iu":  # the Python-int product, when int64 holds it
        want = plain(exact(a), exact(b))
        fits = all(-(2**63) <= v < 2**63 for v in want.ravel())
        assert (out is not None) == fits
        if fits:
            assert out.dtype == np.int64 and out.tolist() == want.tolist()
    else:  # numpy's own product, bit for bit, when it is finite
        with np.errstate(over="ignore", invalid="ignore"):
            want = plain(a, b)
        assert (out is not None) == bool(np.all(np.isfinite(want)))
        if out is not None:
            assert out.dtype == want.dtype and out.tobytes() == want.tobytes()


def assert_exact(out, want):
    """An integer result equals the Python-int arithmetic ``want()``."""
    if out is not None and out.dtype.kind in "iu":
        assert out.tolist() == want().tolist()


def magnitude(m, x):
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(m) @ np.abs(x)


def assert_same_click(got, want, scale):
    """Integers agree exactly; floats within 1e-12 of the forward-error scale |M| |x|, which
    bounds the rounding of a sum however far it cancels."""
    assert got.dtype == want.dtype
    if got.dtype.kind in "iu":
        assert got.tolist() == want.tolist()
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.all(np.abs(got - want) <= 1e-12 * scale)


@st.composite
def composition_cases(draw, sequential):
    regime = draw(st.sampled_from(REGIMES))
    n_a = draw(st.integers(1, 4))
    n_b = n_a if sequential else draw(st.integers(1, 4))
    a = draw(systems(regime, n_a))
    # a strict check after an unchecked click would renormalise what the composed system does not
    b = draw(systems(regime, n_b, may_be_strict=not sequential or a.mode == "strict"))
    valid = "strict" in (a.mode, b.mode)
    return a, b, draw(states(regime, n_a, valid)), draw(states(regime, n_b, valid))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(composition_cases(sequential=True))
def test_a_sequential_composition_clicks_like_its_parts(case):
    a, b, x, _ = case
    composed = returned(compose_sequential, a, b)
    assert_exact(getattr(composed, "matrix", None), lambda: exact(b.matrix) @ exact(a.matrix))
    lhs = None if composed is None else returned(evolve, composed, x, 1)
    ax = returned(evolve, a, x, 1)
    rhs = None if ax is None else returned(evolve, b, ax, 1)
    assert_exact(ax, lambda: exact(a.matrix) @ exact(x))
    for out in (lhs, rhs):
        assert_exact(out, lambda: exact(b.matrix) @ (exact(a.matrix) @ exact(x)))
    if lhs is not None and rhs is not None:
        assert_same_click(lhs, rhs, magnitude(b.matrix, magnitude(a.matrix, x)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(composition_cases(sequential=False))
def test_a_parallel_composition_clicks_like_its_parts(case):
    a, b, x, y = case
    composed = returned(compose_parallel, a, b)
    assert_exact(getattr(composed, "matrix", None),
                 lambda: np.kron(exact(a.matrix), exact(b.matrix)))
    xy = returned(state_tensor, x, y)
    assert_exact(xy, lambda: np.kron(exact(x), exact(y)))
    lhs = None if composed is None or xy is None else returned(evolve, composed, xy, 1)
    ax, by = returned(evolve, a, x, 1), returned(evolve, b, y, 1)
    rhs = None if ax is None or by is None else returned(state_tensor, ax, by)
    assert_exact(ax, lambda: exact(a.matrix) @ exact(x))
    assert_exact(by, lambda: exact(b.matrix) @ exact(y))
    for out in (lhs, rhs):
        assert_exact(out, lambda: np.kron(exact(a.matrix) @ exact(x), exact(b.matrix) @ exact(y)))
    if lhs is not None and rhs is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            scale = np.kron(magnitude(a.matrix, x), magnitude(b.matrix, y))
        assert_same_click(lhs, rhs, scale)
