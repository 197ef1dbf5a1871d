"""Canned scenarios reproduce their golden values."""
import numpy as np
import pytest

from ketsim.experiments import (
    BULLET_MATRIX,
    MARBLE_MATRIX,
    PAIR_MATRIX,
    PHOTON_MATRIX,
    SCENARIO_NAMES,
    STOCHASTIC_MATRIX,
    TWO_MARBLE_MATRIX,
    Scenario,
    run_scenario,
    scenario,
)


def test_every_scenario_passes_its_goldens():
    for name in SCENARIO_NAMES:
        report = run_scenario(scenario(name))
        assert report.passed, (name, [(c.label, c.deviation) for c in report.checks])


def test_scenario_names_round_trip():
    for name in SCENARIO_NAMES:
        assert scenario(name).name == name


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        scenario("triple-slit")


def test_marble_scenario_is_exact_integer():
    report = run_scenario(scenario("marbles-6"))
    assert report.final.dtype == np.int64
    assert np.array_equal(report.final, [0, 0, 12, 5, 1, 9])
    assert report.probabilities is None


def test_marble_trace_has_initial_and_final():
    report = run_scenario(scenario("marbles-6"))
    assert len(report.trace) == 2
    assert np.array_equal(report.trace[0], [6, 2, 1, 5, 3, 10])


def test_stochastic_scenario_final():
    report = run_scenario(scenario("stochastic-3"))
    assert np.allclose(report.final, [21 / 36, 9 / 36, 6 / 36], atol=1e-12, rtol=0)
    assert np.allclose(report.probabilities, report.final, atol=0, rtol=0)


def test_bullet_scenario_spreads_over_both_routes():
    report = run_scenario(scenario("bullets"))
    assert len(report.trace) == 3
    assert np.allclose(
        report.final, [0, 0, 0, 1 / 6, 1 / 6, 1 / 3, 1 / 6, 1 / 6], atol=1e-12, rtol=0
    )


def test_photon_scenario_goes_dark_in_the_middle():
    report = run_scenario(scenario("photons"))
    assert abs(report.final[5]) ** 2 <= 1e-12
    assert np.allclose(
        report.probabilities, [0, 0, 0, 1 / 6, 1 / 6, 0, 1 / 6, 1 / 6], atol=1e-12, rtol=0
    )


def test_photon_intensities_match_bullet_probabilities():
    # |amplitude|^2, edge by edge, reproduces the probabilistic wall
    squared = PHOTON_MATRIX.real**2 + PHOTON_MATRIX.imag**2
    assert np.max(np.abs(squared - BULLET_MATRIX)) < 1e-12


def test_two_marble_matrix_spot_values():
    assert abs(TWO_MARBLE_MATRIX[0, 2] - 1 / 18) == 0
    assert abs(TWO_MARBLE_MATRIX[5, 0] - 4 / 9) < 1e-15
    report = run_scenario(scenario("two-marbles"))
    assert report.final is None
    assert report.passed


def test_two_marble_matrix_is_the_tensor_of_its_parts():
    # entrywise index-formula reference, independent of the library kron
    for j in range(6):
        for k in range(6):
            want = STOCHASTIC_MATRIX[j // 2, k // 2] * PAIR_MATRIX[j % 2, k % 2]
            assert abs(TWO_MARBLE_MATRIX[j, k] - want) < 1e-15


def test_unitary_scenario_checks():
    report = run_scenario(scenario("unitary-3"))
    labels = [c.label for c in report.checks]
    assert len(labels) == 2
    assert report.passed
    for check in report.checks:
        assert check.deviation <= 1e-12


def test_deterministic_fixture_is_a_valid_shuffle():
    # exactly one outgoing edge per vertex
    assert np.all((MARBLE_MATRIX == 1).sum(axis=0) == 1)


def test_reports_carry_notes():
    for name in SCENARIO_NAMES:
        assert scenario(name).note


def test_scenario_is_one_shared_read_only_object():
    for name in SCENARIO_NAMES:
        s = scenario(name)
        assert scenario(name) is s
        held = [s.system.matrix, s.initial, s.expected_final, s.expected_probabilities]
        held += [a for c in s.checks for a in (c.actual, c.expected)]
        for a in held:
            if a is not None:
                with pytest.raises(ValueError, match="read-only"):
                    a[(0,) * a.ndim] = 7
        assert run_scenario(s).passed


def test_run_scenario_grades_in_order_with_the_same_pass_rules():
    labels = {
        name: [c.label for c in run_scenario(scenario(name)).checks] for name in SCENARIO_NAMES
    }
    assert labels == {
        "marbles-6": ["final state", "two-click reachability"],
        "stochastic-3": ["final state"],
        "bullets": ["final state"],
        "photons": ["final probabilities", "per-edge intensities equal the bullet probabilities"],
        "two-marbles": ["combined transition matrix"],
        "unitary-3": [
            "reverse then forward is the identity",
            "squared moduli form a doubly stochastic matrix",
        ],
    }
    marbles = run_scenario(scenario("marbles-6"))
    assert all(c.deviation == 0.0 for c in marbles.checks)
    # a loose tolerance never passes an exact check with a nonzero deviation, but passes the rest
    s = scenario("marbles-6")
    off_by_one = Scenario(s.name, s.note, s.system, s.initial, s.steps,
                          s.expected_final + 1, checks=s.checks)
    graded = run_scenario(off_by_one, tol=10.0).checks
    assert [(c.passed, c.deviation) for c in graded] == [(False, 1.0), (True, 0.0)]
    photons = scenario("photons")
    loose = Scenario(photons.name, photons.note, photons.system, photons.initial, photons.steps,
                     expected_probabilities=photons.expected_probabilities + 1e-3)
    (check,) = run_scenario(loose, tol=1e-2).checks
    assert check.label == "final probabilities" and check.passed
