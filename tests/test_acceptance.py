"""Acceptance gate: the thirteen behaviors this package promises.

Each test covers one numbered criterion and ends with an explicit
``criterion NN PASS`` line (visible under ``pytest -s`` or ``-rP``),
so a run of this file doubles as a checklist.  Tolerances are part of
the contract and are asserted literally, not loosely.
"""
import time
from pathlib import Path

import numpy as np

from ketsim.algebra import (
    adjoint,
    bool_mat_mul,
    kron,
    mat_mul,
    mat_vec,
    modulus_squared,
    norm,
    validate,
)
from ketsim.cli import main
from ketsim.deutsch import (
    BINARY_FUNCTIONS,
    BinaryFunction,
    first_attempt,
    oracle_matrix,
    run_deutsch,
    second_attempt,
    top_marginal,
)
from ketsim.dynamics import RegimeSystem, evolve, state_tensor
from ketsim.experiments import (
    BULLET_MATRIX,
    MARBLE_MATRIX,
    MARBLE_TWO_CLICK_PATHS,
    PAIR_MATRIX,
    PHOTON_MATRIX,
    SCENARIO_NAMES,
    STOCHASTIC_MATRIX,
    TWO_MARBLE_MATRIX,
    UNITARY_MATRIX,
)
from ketsim.gates import apply
from ketsim.measurement import (
    basis_distribution,
    collapse,
    is_product_state,
    random_source,
    spectral_decompose,
)
from reference import random_doubly_stochastic, random_function_graph, random_unitary

GOLDEN_DIR = Path(__file__).parent / "golden"


def _max_dev(actual, expected) -> float:
    return float(np.max(np.abs(np.asarray(actual) - np.asarray(expected))))


def test_criterion_01_marble_counts_reroute_exactly():
    start = np.array([6, 2, 1, 5, 3, 10], dtype=np.int64)
    after = mat_vec(MARBLE_MATRIX, start)
    assert after.dtype == np.int64
    assert np.array_equal(after, [0, 0, 12, 5, 1, 9])
    print("criterion 01 PASS - marble counts reroute with exact integer equality")


def test_criterion_02_boolean_square_gives_two_click_paths():
    squared = bool_mat_mul(MARBLE_MATRIX, MARBLE_MATRIX)
    assert np.array_equal(squared, MARBLE_TWO_CLICK_PATHS)
    print("criterion 02 PASS - boolean matrix square matches two-click reachability")


def test_criterion_03_stochastic_step_and_conservation():
    out = mat_vec(STOCHASTIC_MATRIX, np.array([1 / 6, 1 / 6, 2 / 3]))
    assert _max_dev(out, [21 / 36, 9 / 36, 6 / 36]) <= 1e-12
    assert abs(float(out.sum()) - 1.0) <= 1e-12
    print("criterion 03 PASS - stochastic step within 1e-12, total probability 1")


def test_criterion_04_bullet_wall_two_clicks():
    sys_ = RegimeSystem("stochastic", BULLET_MATRIX, mode="unchecked")
    out = evolve(sys_, np.eye(8)[0], 2)
    assert _max_dev(out, [0, 0, 0, 1 / 6, 1 / 6, 1 / 3, 1 / 6, 1 / 6]) <= 1e-12
    print("criterion 04 PASS - bullet double slit spreads 1/6,1/6,1/3,1/6,1/6")


def test_criterion_05_photon_interference_null():
    two_click = mat_mul(PHOTON_MATRIX, PHOTON_MATRIX)
    first_col = two_click[:, 0]
    intensity = first_col.real**2 + first_col.imag**2
    assert intensity[5] <= 1e-12
    for i in (3, 4, 6, 7):
        assert abs(intensity[i] - 1 / 6) <= 1e-12
    assert _max_dev(modulus_squared(PHOTON_MATRIX), BULLET_MATRIX) <= 1e-12
    print("criterion 05 PASS - photon middle target cancels; per-edge intensities match bullets")


def test_criterion_06_unitarity_and_doubly_stochastic_moduli():
    gram = mat_mul(adjoint(UNITARY_MATRIX), UNITARY_MATRIX)
    assert _max_dev(gram, np.eye(3)) <= 1e-12
    assert validate(modulus_squared(UNITARY_MATRIX), "stochastic", 1e-12) == []
    print("criterion 06 PASS - unitary reverses exactly; squared moduli doubly stochastic")


def test_criterion_07_tensor_of_two_walkers():
    combined = kron(STOCHASTIC_MATRIX, PAIR_MATRIX)
    assert _max_dev(combined, TWO_MARBLE_MATRIX) <= 1e-12
    assert abs(combined[0, 2] - 1 / 18) <= 1e-12
    assert abs(combined[5, 0] - 4 / 9) <= 1e-12
    print("criterion 07 PASS - tensor product matches the typed 6x6 combined matrix")


def test_criterion_08_unnormalized_qubit_distribution():
    dist = basis_distribution(np.array([5 + 3j, 6j]))
    assert _max_dev(dist, [34 / 70, 36 / 70]) <= 1e-12
    print("criterion 08 PASS - [5+3i, 6i] measures as (34/70, 36/70)")


def test_criterion_09_one_query_classification_exhaustive(monkeypatch):
    calls = []

    def counting_apply(gate, state):
        if gate.name.startswith("oracle"):
            calls.append(gate.name)
        return apply(gate, state)

    monkeypatch.setattr("ketsim.deutsch.apply", counting_apply)
    for name, f in BINARY_FUNCTIONS.items():
        calls.clear()
        run = run_deutsch(f)
        assert run.classification == f.classification
        assert _max_dev(run.snapshots[1], [0.5, -0.5, 0.5, -0.5]) <= 1e-12
        hi, lo = max(run.top_distribution), min(run.top_distribution)
        assert abs(hi - 1.0) <= 1e-9 and lo <= 1e-9
        assert len(calls) == 1, name
    print("criterion 09 PASS - all four oracles classified with one query each")


def test_criterion_10_failed_attempts_behave_as_derived():
    minus = np.array([1.0, -1.0]) / np.sqrt(2)

    swapped = first_attempt(BinaryFunction(1, 0))
    want = np.array([0, 1, 1, 0]) / np.sqrt(2)
    assert _max_dev(swapped, want) <= 1e-12
    assert _max_dev(top_marginal(swapped), [0.5, 0.5]) <= 1e-12

    for f in BINARY_FUNCTIONS.values():
        for x in (0, 1):
            got = second_attempt(f, x)
            top = np.eye(2)[x]
            want = (-1.0) ** f.value(x) * state_tensor(top, minus)
            assert _max_dev(got, want) <= 1e-12
    print("criterion 10 PASS - superposed query scrambles; phase kickback signs all match")


def test_criterion_11_property_suites():
    rng = np.random.default_rng(11)

    # tensor respects matrix action on each factor
    for _ in range(200):
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        a = rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da))
        b = rng.normal(size=(db, db)) + 1j * rng.normal(size=(db, db))
        x = rng.normal(size=da) + 1j * rng.normal(size=da)
        y = rng.normal(size=db) + 1j * rng.normal(size=db)
        lhs = mat_vec(kron(a, b), state_tensor(x, y))
        rhs = state_tensor(mat_vec(a, x), mat_vec(b, y))
        assert _max_dev(lhs, rhs) <= 1e-10 * (1.0 + float(np.max(np.abs(rhs))))

    # each regime conserves its own notion of total weight
    for _ in range(200):
        n = int(rng.integers(2, 7))
        counts = rng.integers(0, 50, size=n)
        sys_ = RegimeSystem("deterministic", random_function_graph(rng, n))
        assert int(evolve(sys_, counts, 3).sum()) == int(counts.sum())
    for _ in range(200):
        n = int(rng.integers(2, 7))
        p = rng.dirichlet(np.ones(n))
        sys_ = RegimeSystem("stochastic", random_doubly_stochastic(rng, n))
        assert abs(float(evolve(sys_, p, 3).sum()) - 1.0) <= 1e-12
    for _ in range(200):
        n = int(rng.integers(2, 7))
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v /= norm(v)
        sys_ = RegimeSystem("quantum", random_unitary(rng, n))
        assert abs(norm(evolve(sys_, v, 3)) - 1.0) <= 1e-12

    # every oracle undoes itself: cycle the whole 4-element family
    names = list(BINARY_FUNCTIONS)
    for i in range(200):
        gate = oracle_matrix(BINARY_FUNCTIONS[names[i % 4]])
        assert _max_dev(mat_mul(gate.matrix, gate.matrix), np.eye(4)) <= 1e-12

    # eigendecomposition accuracy on random observables
    for _ in range(200):
        n = int(rng.integers(2, 7))
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (z + z.conj().T) / 2
        dec = spectral_decompose(h)
        lam, vecs = dec.eigenvalues, dec.eigenvectors
        assert _max_dev(h @ vecs, vecs * lam) <= 1e-8
        assert _max_dev((vecs * lam) @ vecs.conj().T, h) <= 1e-7

    # separability detection on built products, plus one entangled witness
    for _ in range(200):
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        a = rng.normal(size=da) + 1j * rng.normal(size=da)
        b = rng.normal(size=db) + 1j * rng.normal(size=db)
        state = state_tensor(a, b)
        res = is_product_state(state, da, db)
        assert res.is_product
        rebuilt = state_tensor(res.factor_a, res.factor_b)
        pivot = int(np.argmax(np.abs(state)))
        scale = state[pivot] / rebuilt[pivot]
        assert _max_dev(scale * rebuilt, state) <= 1e-9 * norm(state)
    bell = np.array([1.0, 0, 0, 1.0]) / np.sqrt(2)
    assert not is_product_state(bell, 2, 2).is_product
    print("criterion 11 PASS - 200-case property suites hold for all five families")


def test_criterion_12_collapse_frequencies_converge():
    state = np.array([1.0, 1.0]) / np.sqrt(2)
    rnd = random_source(424242)
    shots = 100_000
    started = time.perf_counter()
    zeros = sum(1 for _ in range(shots) if collapse(state, rnd)[0] == 0)
    elapsed = time.perf_counter() - started
    assert abs(zeros / shots - 0.5) <= 0.00474
    assert elapsed < 5.0
    print(f"criterion 12 PASS - {shots} collapses in {elapsed:.2f}s, freq(0) = {zeros / shots}")


def test_criterion_13_cli_golden_runs(tmp_path, capsys):
    for name in SCENARIO_NAMES:
        assert main(["scenario", name]) == 0, name
        assert capsys.readouterr().out.splitlines()[-1] == "PASS"

    for oracle in ("const0", "const1", "id", "not"):
        assert main(["deutsch", "--oracle", oracle]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN_DIR / f"deutsch_{oracle}.txt").read_text(), oracle

    bad = tmp_path / "bad.graph"
    bad.write_text("dim 3\n0 1 0.5\n7 0 0.5\n")
    assert main(["validate", str(bad), "--regime", "stochastic"]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err
    print("criterion 13 PASS - scenarios, stored CLI transcripts, and parse errors agree")
