"""Command-line interface: file parsing, output formats, exit codes."""
import argparse
import contextlib
import errno
import functools
import io
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ketsim import cli
from ketsim.cli import (MAX_CLICK_WORK, MAX_SHOTS, ParseFailure, fmt_number, fmt_real, main,
                        parse_graph, parse_state)
from ketsim.algebra import validate
from ketsim.dynamics import RegimeSystem, evolve
from ketsim.experiments import BULLET_MATRIX, SCENARIO_NAMES, STOCHASTIC_MATRIX
from ketsim.gates import standard_gate
from ketsim.measurement import basis_distribution

GOLDEN_DIR = Path(__file__).parent / "golden"


def graph_text(matrix):
    """Serialize a matrix as an edge-list file using round-trip exact reprs."""
    m = np.asarray(matrix)
    lines = [f"dim {m.shape[0]}"]
    for src in range(m.shape[1]):
        for dst in range(m.shape[0]):
            w = m[dst, src]
            if w == 0:
                continue
            if np.iscomplexobj(m):
                lines.append(f"{src} {dst} {float(w.real)!r} {float(w.imag)!r}")
            else:
                lines.append(f"{src} {dst} {float(w)!r}")
    return "\n".join(lines) + "\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- parsing

def test_parse_graph_no_edges_gives_zero_matrix():
    m = parse_graph("dim 2\n")
    assert m.shape == (2, 2)
    assert not np.iscomplexobj(m)
    assert np.all(m == 0)


def test_parse_graph_round_trips_the_stochastic_fixture():
    m = parse_graph(graph_text(STOCHASTIC_MATRIX))
    assert np.array_equal(m, STOCHASTIC_MATRIX)


def test_parse_graph_round_trips_complex_weights():
    h = standard_gate("H").matrix
    m = parse_graph(graph_text(h.astype(np.complex128)))
    assert np.array_equal(m, h)


def test_parse_graph_edge_goes_from_column_to_row():
    m = parse_graph("dim 3\n0 2 0.25\n")
    assert m[2, 0] == 0.25
    assert np.count_nonzero(m) == 1


def test_parse_graph_skips_comments_but_keeps_line_numbers():
    text = "# wall\n\ndim 2\n# edges\n0 1 1.0\n0 9 1.0\n"
    with pytest.raises(ParseFailure, match=r"line 6: vertex out of range 0\.\.1"):
        parse_graph(text)


def test_parse_graph_rejects_missing_header():
    with pytest.raises(ParseFailure, match="expected `dim <n>`"):
        parse_graph("0 1 1.0\n")


def test_parse_graph_rejects_bad_dimension():
    with pytest.raises(ParseFailure, match="not an integer"):
        parse_graph("dim two\n")
    with pytest.raises(ParseFailure, match="must be positive"):
        parse_graph("dim 0\n")


def test_parse_graph_rejects_a_dimension_above_the_limit(tmp_path, capsys):
    with pytest.raises(ParseFailure, match="line 2: dimension 4097 exceeds the limit of 4096"):
        parse_graph("# huge\ndim 4097\n")
    graph = tmp_path / "huge.graph"
    graph.write_text("dim 100000000\n")
    code, out, err = run(capsys, "validate", str(graph), "--regime", "stoch")
    assert (code, out) == (2, "")
    assert err == "error: line 1: dimension 100000000 exceeds the limit of 4096\n"


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("dim \u0662\n", 1),  # ARABIC-INDIC DIGIT TWO, which int() reads as 2
        ("dim 2\n0 \uff11 1\n", 2),  # FULLWIDTH DIGIT ONE as a vertex
        ("dim 2\n0 1 \u0661\n", 2),  # a weight
        ("dim 2\n0 1 1_0\n", 2),  # an underscore, which int() and float() skip
        ("dim 1_0\n", 1),
        ("dim 0\n0 1 \u0661\n", 2),  # refused before the bad header is
        ("dim x\n0 1 1\n0 1 \u0661\n", 3),  # checked over the whole file before the header
    ],
)
def test_parse_graph_reads_only_ascii_numbers_without_underscores(text, lineno, tmp_path, capsys):
    line = text.splitlines()[lineno - 1]
    message = f"line {lineno}: expected ASCII text without `_`, got {ascii(line)}"
    with pytest.raises(ParseFailure) as exc:
        parse_graph(text)
    assert str(exc.value) == message
    graph = tmp_path / "g.graph"
    graph.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "evolve", str(graph), "--state", "0 1", "--regime", "stoch",
                         "--unchecked")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_comments_may_hold_any_text():
    m = parse_graph("# d\u00e9j\u00e0 vu: dim \u0662, 1_0\ndim 2 # \u2192 two\n0 1 1 # _\u0661\n")
    assert m.tolist() == [[0, 0], [1, 0]]


def test_parse_graph_rejects_duplicate_edge():
    with pytest.raises(ParseFailure, match=r"line 3: duplicate edge 0 -> 1"):
        parse_graph("dim 2\n0 1 0.5\n0 1 0.5\n")


def test_parse_graph_rejects_bad_weight():
    with pytest.raises(ParseFailure, match="line 2: bad weight"):
        parse_graph("dim 2\n0 1 fast\n")
    with pytest.raises(ParseFailure, match="must be finite"):
        parse_graph("dim 2\n0 1 inf\n")


def test_parse_state_bitstring():
    v = parse_state("01\n", 4)
    assert not np.iscomplexobj(v)
    assert np.array_equal(v, [0, 1, 0, 0])


def test_parse_state_bitstring_must_match_dimension():
    with pytest.raises(ParseFailure, match="dimension 4, but the system has dimension 8"):
        parse_state("01\n", 8)


def test_parse_state_sparse_lines():
    v = parse_state("0 0.5\n2 0 -1\n", 3)
    assert np.iscomplexobj(v)
    assert v[0] == 0.5 and v[1] == 0 and v[2] == -1j


def test_parse_state_scientific_notation():
    v = parse_state("1 1e-7\n", 2)
    assert v[1] == 1e-7


def test_parse_state_rejects_duplicates_and_bad_indices():
    with pytest.raises(ParseFailure, match="listed twice"):
        parse_state("0 1\n0 2\n", 2)
    with pytest.raises(ParseFailure, match="out of range"):
        parse_state("5 1\n", 2)


# ------------------------------------------------------------- formatting

def test_fmt_real_squashes_negative_zero():
    assert fmt_real(-0.0) == "0"
    assert fmt_real(0.25) == "0.25"
    assert fmt_real(1 / 3) == "0.333333333333"


def test_fmt_number_complex_forms():
    assert fmt_number(1.5) == "1.5"
    assert fmt_number(1j) == "0+1i"
    assert fmt_number(-0.5 - 0.5j) == "-0.5-0.5i"
    assert fmt_number(complex(-0.0, 0.0)) == "0"


# the JSON writer must spell every payload exactly as json.dumps(obj, indent=2) does
SPECIAL_FLOATS = [-0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 1e-7, math.inf, -math.inf, math.nan]
SPECIAL_INTS = [2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64, 2**64 + 1, 10**30, -(10**30)]
SPECIAL_CHARS = '"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'


def json_leaves():
    return st.one_of(
        st.none(), st.booleans(), st.integers(), st.sampled_from(SPECIAL_INTS),
        st.floats(), st.sampled_from(SPECIAL_FLOATS), st.floats().map(np.float64),
        st.text(st.characters() | st.sampled_from(SPECIAL_CHARS), max_size=8),
        # the shapes the writer joins in one pass, non-finite values included
        st.lists(st.floats() | st.sampled_from(SPECIAL_FLOATS), max_size=6),
        st.lists(st.lists(st.floats(), min_size=2, max_size=2), max_size=4),
    )


def json_payloads():
    keys = st.text(st.characters() | st.sampled_from(SPECIAL_CHARS), max_size=6)
    return st.recursive(json_leaves(), lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(keys, kids, max_size=4),
    ), max_leaves=20)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(json_payloads())
def test_json_writer_matches_json_dumps_on_any_payload(obj):
    assert cli._json_text(obj, "") == json.dumps(obj, indent=2)


VECTOR_ENTRIES = {  # real, complex and integer vectors, as the three regimes evolve them
    np.float64: st.floats(-1e3, 1e3) | st.sampled_from([-0.0, 5e-324, 1e-300]),
    np.complex128: st.complex_numbers(max_magnitude=1e3),
    np.int64: st.integers(0, 10**6),
}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(list(VECTOR_ENTRIES)).flatmap(
           lambda t: arrays(t, st.integers(1, 64), elements=VECTOR_ENTRIES[t])),
       st.integers(0, 4), st.booleans())
def test_json_writer_matches_json_dumps_on_the_cli_payloads(v, steps, passed):
    probabilities = basis_distribution(v).tolist() if np.any(v) else None
    evolved = {"dim": len(v), "amplitudes": cli._amplitude_pairs(v), "probabilities": probabilities}
    report = {
        "name": "unitary-3", "dim": len(v), "steps": steps, "final": cli._amplitude_pairs(v),
        "probabilities": probabilities,
        "checks": [{"label": "norm", "passed": passed, "deviation": float(abs(v[0]))}],
        "passed": passed,
    }
    oracle = {
        "oracle": "id", "stages": [cli._amplitude_pairs(v)] * steps,
        "top_distribution": probabilities, "classification": "balanced",
    }
    for payload in (evolved, report, oracle):
        assert cli._json_text(payload, "") == json.dumps(payload, indent=2)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
       st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(0, 40), st.booleans())
def test_json_writer_spells_a_non_finite_float_in_a_float_list(xs, bad, at, paired):
    xs.insert(at % (len(xs) + 1), bad)
    obj = [[x, 0.0] for x in xs] if paired else xs
    assert cli._json_text(obj, "") == json.dumps(obj, indent=2)
    assert ("NaN" if bad != bad else "Infinity") in cli._json_text(obj, "")


@pytest.mark.parametrize("obj", [
    np.int64(1), np.bool_(True), 1j, {1, 2}, b"bytes", object(), [1.0, np.int64(2)],
    [[1.0, np.float32(2.0)]], {"a": {"b": [None, np.array([1.0])]}},
    [np.array([1.0, 2.0])], [{0.5: 1.0, 1.5: 2.0}],  # two floats each, but not a list or tuple
    {1: "int key"},  # json would write "1"; the CLI's payloads have str keys only
])
def test_json_writer_refuses_what_json_cannot_write_and_non_str_keys(obj):
    with pytest.raises(TypeError):
        cli._json_text(obj, "")


# ------------------------------------------------------------ end to end

def test_validate_accepts_stochastic_fixture(tmp_path, capsys):
    path = tmp_path / "walk.graph"
    path.write_text(graph_text(STOCHASTIC_MATRIX))
    code, out, err = run(capsys, "validate", str(path), "--regime", "stoch")
    assert (code, out, err) == (0, "OK\n", "")


def test_validate_reports_violations_and_exits_one(tmp_path, capsys):
    path = tmp_path / "wall.graph"
    path.write_text(graph_text(BULLET_MATRIX))
    code, out, err = run(capsys, "validate", str(path), "--regime", "stochastic")
    assert code == 1
    assert "row 0" in out
    # every column of this wall sums to one, so no column lines appear
    assert "column" not in out


def test_validate_reports_every_violation_one_per_line(tmp_path, capsys):
    path = tmp_path / "twos.graph"
    path.write_text(graph_text(np.full((4, 4), 2.0)))
    code, out, err = run(capsys, "validate", str(path), "--regime", "stoch")
    assert (code, err) == (1, "")
    assert out.splitlines() == validate(np.full((4, 4), 2.0), "stochastic")
    assert len(out.splitlines()) == 16 + 4 + 4  # past the ten that a refusal names


def test_validate_hermitian_regime(tmp_path, capsys):
    path = tmp_path / "obs.graph"
    path.write_text("dim 2\n0 0 2.0\n0 1 0.0 1.0\n1 0 0.0 -1.0\n1 1 -1.0\n")
    code, out, _ = run(capsys, "validate", str(path), "--regime", "hermitian")
    assert code == 0 and out == "OK\n"


def test_evolve_stochastic_text_output(tmp_path, capsys):
    graph = tmp_path / "walk.graph"
    graph.write_text(graph_text(STOCHASTIC_MATRIX))
    state = tmp_path / "start.state"
    state.write_text(f"0 {1 / 6!r}\n1 {1 / 6!r}\n2 {2 / 3!r}\n")
    code, out, err = run(
        capsys, "evolve", str(graph), "--state", str(state), "--regime", "stoch"
    )
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "dim 3",
        "0 0.583333333333",
        "1 0.25",
        "2 0.166666666667",
    ]


def test_evolve_quantum_bitstring_with_probabilities(tmp_path, capsys):
    graph = tmp_path / "h.graph"
    graph.write_text(graph_text(standard_gate("H").matrix))
    code, out, _ = run(
        capsys, "evolve", str(graph), "--state", "0", "--probabilities"
    )
    assert code == 0
    assert out.splitlines() == [
        "dim 2",
        "0 0.707106781187",
        "1 0.707106781187",
        "probabilities:",
        "0 0.5",
        "1 0.5",
    ]


def test_evolve_json_round_trips_exact_floats(tmp_path, capsys):
    graph = tmp_path / "walk.graph"
    graph.write_text(graph_text(STOCHASTIC_MATRIX))
    state = tmp_path / "start.state"
    state.write_text(f"0 {1 / 6!r}\n1 {1 / 6!r}\n2 {2 / 3!r}\n")
    code, out, _ = run(
        capsys,
        "evolve", str(graph), "--state", str(state),
        "--regime", "stochastic", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 3

    # the serialized floats equal the library's own result bitwise
    sys_ = RegimeSystem("stochastic", STOCHASTIC_MATRIX)
    want = evolve(sys_, np.array([1 / 6, 1 / 6, 2 / 3]), 1)
    got = np.array([complex(re, im) for re, im in payload["amplitudes"]])
    assert np.array_equal(got.real, want) and np.all(got.imag == 0)
    assert np.array_equal(payload["probabilities"], basis_distribution(want))

    # serializing the parsed payload again reproduces the bytes
    assert json.dumps(payload, indent=2) + "\n" == out


def test_evolve_strict_rejects_wall_graph(tmp_path, capsys):
    graph = tmp_path / "wall.graph"
    graph.write_text(graph_text(BULLET_MATRIX))
    code, _, err = run(
        capsys, "evolve", str(graph), "--state", "000", "--regime", "stoch"
    )
    assert code == 1
    assert err.startswith("error:")


def test_evolve_unchecked_runs_wall_graph(tmp_path, capsys):
    graph = tmp_path / "wall.graph"
    graph.write_text(graph_text(BULLET_MATRIX))
    code, out, _ = run(
        capsys,
        "evolve", str(graph), "--state", "000",
        "--regime", "stoch", "--steps", "2", "--unchecked",
    )
    assert code == 0
    assert out.splitlines()[4] == "3 0.166666666667"


def test_evolve_zero_state_has_null_probabilities(tmp_path, capsys):
    graph = tmp_path / "idle.graph"
    graph.write_text("dim 2\n")
    code, out, _ = run(
        capsys,
        "evolve", str(graph), "--state", "0 0",
        "--regime", "det", "--unchecked", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["probabilities"] is None


def test_evolve_refuses_the_probabilities_of_a_zero_state_after_printing_it(tmp_path, capsys):
    graph = tmp_path / "idle.graph"
    graph.write_text("dim 2\n")
    argv = ("evolve", str(graph), "--state", "0 0", "--regime", "det", "--unchecked", "--probabilities")
    assert run(capsys, *argv) == (1, "dim 2\n0 0\n1 0\n", "error: zero state has no probabilities\n")


def test_evolve_refuses_a_result_that_overflows(tmp_path, capsys):
    graph = tmp_path / "grow.graph"
    graph.write_text("dim 1\n0 0 1e200\n")
    with np.errstate(over="ignore"):
        code, out, err = run(
            capsys, "evolve", str(graph), "--state", "0 1e200", "--regime", "stoch", "--unchecked"
        )
    assert (code, out) == (1, "")
    assert err == "error: state entries must all be finite\n"


def run_module(*argv):
    """Run ``python -W error -m ketsim.cli`` in a child process; a hang fails the test after 60 s.

    The child inherits this process's environment, so it runs the package these tests import.
    """
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "ketsim.cli", *argv],
        capture_output=True, text=True, check=False, timeout=60,
    )


def test_evolve_overflow_prints_only_the_error_line(tmp_path):
    graph = tmp_path / "grow.graph"
    graph.write_text("dim 1\n0 0 1e200\n")
    done = run_module("evolve", str(graph), "--state", "0 1e200", "--regime", "stoch", "--unchecked")
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "error: state entries must all be finite\n"


TWO_CYCLE = (None, ("--state", "0 1", "--regime", "det"))  # None: a two-cycle written per test
README_H = (GOLDEN_DIR / "sample" / "h.graph", ("--state", "0"))


@pytest.mark.parametrize(
    "command, graph, state",
    [("evolve", *TWO_CYCLE), ("sample", *TWO_CYCLE), ("evolve", *README_H), ("sample", *README_H)],
    ids=["evolve", "sample", "h-evolve", "h-sample"],
)
def test_steps_beyond_the_work_limit_are_refused_before_any_click(tmp_path, command, graph, state):
    if graph is None:
        graph = tmp_path / "two.graph"
        graph.write_text("dim 2\n0 1 1\n1 0 1\n")
    steps = 10**20
    done = run_module(command, str(graph), *state, "--steps", str(steps))
    assert (done.returncode, done.stdout) == (2, "")
    limit = MAX_CLICK_WORK // (128 * 128)  # the floor on the work of a click below dim 128
    assert done.stderr == f"error: --steps {steps} exceeds the limit of {limit} at dimension 2\n"


@pytest.mark.parametrize("dim, limit", [(2, 3), (128, 3), (200, 1)])
def test_the_steps_limit_counts_each_click_as_at_least_128_squared_entries(
    tmp_path, capsys, monkeypatch, dim, limit
):
    monkeypatch.setattr(cli, "MAX_CLICK_WORK", 3 * 128 * 128)
    graph = tmp_path / "cycle.graph"
    graph.write_text(graph_text(np.roll(np.eye(dim, dtype=np.int64), 1, axis=0)))
    state = "\n".join(f"{i} 1" for i in range(dim))
    code, _, err = run(capsys, "evolve", str(graph), "--state", state, "--regime", "det",
                       "--steps", str(limit))
    assert (code, err) == (0, "")
    code, out, err = run(capsys, "sample", str(graph), "--state", state, "--regime", "det",
                         "--steps", str(limit + 1))
    assert (code, out) == (2, "")
    assert err == f"error: --steps {limit + 1} exceeds the limit of {limit} at dimension {dim}\n"


@pytest.mark.parametrize("command", ["evolve", "sample"])
def test_an_overflowing_unitarity_check_prints_only_the_error_line(tmp_path, command):
    graph = tmp_path / "huge.graph"
    graph.write_text("dim 2\n0 0 1e200\n0 1 1e200\n1 0 1e200\n1 1 -1e200\n")
    done = run_module(command, str(graph), "--state", "0")
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == (
        "error: matrix fails quantum validation: not unitary: "
        "adjoint product deviates from identity by inf at entry [0,0]\n"
    )


def test_evolve_refuses_a_count_total_beyond_int64(tmp_path, capsys):
    graph = tmp_path / "swap.graph"
    graph.write_text("dim 2\n0 1 1\n1 0 1\n")
    code, out, err = run(capsys, "evolve", str(graph), "--state", "0 1e19\n1 3", "--regime", "det")
    assert (code, out) == (1, "")
    assert err == "error: deterministic counts total 10000000000000000003, more than int64 holds\n"


def test_scenario_list(capsys):
    code, out, _ = run(capsys, "scenario", "--list")
    assert code == 0
    assert tuple(out.splitlines()) == SCENARIO_NAMES


def test_every_scenario_passes_from_the_cli(capsys):
    for name in SCENARIO_NAMES:
        code, out, _ = run(capsys, "scenario", name)
        assert code == 0, (name, out)
        assert out.splitlines()[-1] == "PASS"


def test_scenario_text_report_shape(capsys):
    code, out, _ = run(capsys, "scenario", "photons")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "scenario photons"
    assert "probabilities:" in lines
    assert any(line.startswith("check ") and "PASS" in line for line in lines)


def test_scenario_json_report(capsys):
    code, out, _ = run(capsys, "scenario", "unitary-3", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["passed"] is True
    assert len(payload["checks"]) == 2
    assert all(c["deviation"] <= 1e-9 for c in payload["checks"])


def test_scenario_requires_a_name(capsys):
    assert run(capsys, "scenario") == (2, "", "error: scenario name required (or --list)\n")


@pytest.mark.parametrize("oracle", ["const0", "const1", "id", "not"])
def test_deutsch_text_matches_golden(oracle, capsys):
    code, out, err = run(capsys, "deutsch", "--oracle", oracle)
    assert (code, err) == (0, "")
    golden = (GOLDEN_DIR / f"deutsch_{oracle}.txt").read_text()
    assert out == golden


def test_deutsch_json_classifications(capsys):
    for oracle, verdict in [("const0", "constant"), ("id", "balanced")]:
        code, out, _ = run(capsys, "deutsch", "--oracle", oracle, "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["classification"] == verdict
        assert len(payload["stages"]) == 4


def test_sample_is_deterministic_given_a_seed(tmp_path, capsys):
    graph = tmp_path / "h.graph"
    graph.write_text(graph_text(standard_gate("H").matrix))
    argv = ("sample", str(graph), "--state", "0", "--shots", "400", "--seed", "7")
    code_a, out_a, _ = run(capsys, *argv)
    code_b, out_b, _ = run(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    lines = out_a.splitlines()
    assert lines[0] == "shots 400"
    counts = [int(line.split()[1]) for line in lines[1:]]
    assert sum(counts) == 400
    assert all(c > 0 for c in counts)


SAMPLE_GOLDENS = {
    # the README's line: ketsim sample h.graph --state 0 --shots 10000 --seed 42
    "h": ("h.graph", "--state", "0", "--shots", "10000", "--seed", "42"),
    "quantum32": ("quantum32.graph", "--state", "quantum32.state", "--steps", "2",
                  "--shots", "100000", "--seed", "5"),
    "stochastic32": ("stochastic32.graph", "--state", "stochastic32.state", "--regime", "stoch",
                     "--steps", "2", "--shots", "100000", "--seed", "6"),
}


@pytest.mark.parametrize("name", SAMPLE_GOLDENS)
def test_seeded_sample_matches_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR / "sample")
    code, out, err = run(capsys, "sample", *SAMPLE_GOLDENS[name])
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / "sample" / f"{name}.txt").read_text()


JSON_GOLDENS = {
    # written by json.dumps(payload, indent=2); the graph and state files sit beside each golden
    "evolve_quantum32": ("sample", "evolve", "quantum32.graph", "--state", "quantum32.state",
                         "--steps", "2"),
    "evolve_stochastic32": ("sample", "evolve", "stochastic32.graph", "--state",
                            "stochastic32.state", "--regime", "stoch", "--steps", "2"),
    # 300 clicks cross ten blocks of the strict click loop
    "evolve_quantum32_300": ("sample", "evolve", "quantum32.graph", "--state", "quantum32.state",
                             "--steps", "300"),
    "evolve_stochastic32_300": ("sample", "evolve", "stochastic32.graph", "--state",
                                "stochastic32.state", "--regime", "stoch", "--steps", "300"),
    "evolve_marbles6": ("json", "evolve", "marbles6.graph", "--state", "marbles6.state",
                        "--regime", "det", "--steps", "2"),
    **{f"scenario_{name}": ("json", "scenario", name) for name in SCENARIO_NAMES},
    **{f"deutsch_{oracle}": ("json", "deutsch", "--oracle", oracle)
       for oracle in ("const0", "const1", "id", "not")},
}


@pytest.mark.parametrize("name", JSON_GOLDENS)
def test_json_output_matches_golden_bytes(name, capsys, monkeypatch):
    folder, *argv = JSON_GOLDENS[name]
    monkeypatch.chdir(GOLDEN_DIR / folder)
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / "json" / f"{name}.json").read_text()


def test_an_argv_that_argparse_reads_prints_the_same_json_bytes(capsys):
    # `--oracle=id` and the abbreviation `--form` are left to argparse, not the plain reader
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run(capsys, "deutsch", "--oracle=id", "--form", "json")
    assert got == (0, (GOLDEN_DIR / "json" / "deutsch_id.json").read_text(), "")


def test_malformed_graph_exits_two(tmp_path, capsys):
    graph = tmp_path / "bad.graph"
    graph.write_text("dim 3\n0 5 1.0\n")
    code, _, err = run(capsys, "evolve", str(graph), "--state", "0 1")
    assert code == 2
    assert "line 2" in err and "out of range" in err


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "validate", "/no/such/file", "--regime", "quantum")
    assert code == 2
    assert "cannot read" in err


def test_graph_file_that_is_not_utf8_exits_two(tmp_path, capsys):
    graph = tmp_path / "bad.graph"
    graph.write_bytes(b"dim 2\n0 1 1\xff\n")
    code, out, err = run(capsys, "validate", str(graph), "--regime", "det")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {graph}: 'utf-8' codec can't decode byte 0xff")


def test_state_file_that_is_not_utf8_exits_two(tmp_path, capsys):
    graph = tmp_path / "h.graph"
    graph.write_text(graph_text(standard_gate("H").matrix))
    state = tmp_path / "bad.state"
    state.write_bytes(b"0 1\xff\n")
    code, out, err = run(capsys, "sample", str(graph), "--state", str(state), "--seed", "1")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {state}: 'utf-8' codec can't decode byte 0xff")


def test_bad_choices_exit_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "x.graph", "--regime", "thermal"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["launch"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("sample", "--shots", "0"),
        ("sample", "--shots", "-3"),
        ("sample", "--steps", "-1"),
        ("sample", "--seed", "-1"),
        ("evolve", "--steps", "-1"),
        ("validate", "--tol", "nan"),
        ("validate", "--tol", "inf"),
        ("validate", "--tol", "-1"),
        ("evolve", "--tol", "nan"),
        ("evolve", "--tol", "-0.5"),
        ("sample", "--tol", "inf"),
        ("sample", "--tol", "-2"),
        ("sample", "--tol", "tiny"),
    ],
)
def test_out_of_range_counts_are_usage_errors(tmp_path, capsys, command, flag, value):
    graph = tmp_path / "h.graph"
    graph.write_text(graph_text(standard_gate("H").matrix))
    with pytest.raises(SystemExit) as exc:
        main([command, str(graph), "--state", "0", flag, value])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert f"error: argument {flag}: must be at least" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("shots", [MAX_SHOTS + 1, 10**400], ids=["max+1", "400-digit"])
def test_shots_above_the_limit_are_usage_errors(capsys, monkeypatch, shots):
    # the 400-digit count used to overflow float() in sample_counts: a traceback
    monkeypatch.chdir(GOLDEN_DIR / "sample")
    with pytest.raises(SystemExit) as exc:
        main(["sample", "h.graph", "--state", "0", "--seed", "1", "--shots", str(shots)])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.err.endswith(
        f"error: argument --shots: must be at most {MAX_SHOTS}, got {shots}\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 fast", "line 1: bad amplitude in '0 fast'"),
        ("1 0.5\n0 1 i", "line 2: bad amplitude in '0 1 i'"),
        ("0 nan", "line 1: amplitude must be finite in '0 nan'"),
        ("0 1 inf", "line 1: amplitude must be finite in '0 1 inf'"),
        ("1 -inf", "line 1: amplitude must be finite in '1 -inf'"),
        ("0 \u0661", "line 1: expected ASCII text without `_`, got '0 \\u0661'"),
        ("0 1\n1 0.000_1", "line 2: expected ASCII text without `_`, got '1 0.000_1'"),
    ],
)
def test_parse_state_rejects_bad_and_non_finite_amplitudes(text, message):
    with pytest.raises(ParseFailure) as exc:
        parse_state(text, 2)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "state, extra, want",
    [
        ("0 1e200", ("--regime", "stoch", "--unchecked", "--probabilities"),
         "dim 1\n0 1e+200\nprobabilities:\n0 1\n"),
        ("0 1e-200", ("--regime", "stoch", "--unchecked", "--probabilities"),
         "dim 1\n0 1e-200\nprobabilities:\n0 1\n"),
        ("0 1e200", (), "dim 1\n0 1\n"),
        ("0 1e-200", (), "dim 1\n0 1\n"),
        ("0 3e-160", (), "dim 1\n0 1\n"),
        ("0 1e-320 1e-320", ("--probabilities",),
         "dim 1\n0 0.707106781187+0.707106781187i\nprobabilities:\n0 1\n"),
    ],
)
def test_evolve_at_any_scale(tmp_path, capsys, state, extra, want):
    graph = tmp_path / "one.graph"
    graph.write_text("dim 1\n0 0 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(capsys, "evolve", str(graph), "--state", state, *extra) == (0, want, "")


def test_evolve_json_probabilities_of_an_overflowing_state(tmp_path, capsys):
    graph = tmp_path / "one.graph"
    graph.write_text("dim 1\n0 0 1\n")
    code, out, err = run(
        capsys, "evolve", str(graph), "--state", "0 1e200",
        "--regime", "stoch", "--unchecked", "--format", "json",
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["probabilities"] == [1.0]


def test_sample_of_an_overflowing_state_prints_no_warning(tmp_path):
    graph = tmp_path / "two.graph"
    graph.write_text("dim 2\n0 0 1\n1 1 1\n")
    done = run_module("sample", str(graph), "--state", "0 1e200\n1 1e200",
                      "--regime", "stoch", "--unchecked", "--shots", "10", "--seed", "1")
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert lines[0] == "shots 10"
    assert sum(int(line.split()[1]) for line in lines[1:]) == 10


def test_a_deterministic_weight_beyond_int64_is_stored_as_a_float(tmp_path, capsys):
    graph = tmp_path / "big.graph"
    graph.write_text("dim 2\n0 0 1e300\n1 1 1\n")
    argv = ("evolve", str(graph), "--state", "0 1", "--regime", "det")
    assert run(capsys, *argv) == (
        1, "", "error: matrix fails deterministic validation: entry [0,0] = 1e+300 is not 0 or 1\n"
    )
    assert run(capsys, *argv, "--unchecked") == (0, "dim 2\n0 1e+300\n1 0\n", "")


# ------------------------------------------------------ the cached parser

HELP_DIR = GOLDEN_DIR / "help"
HELP_ARGVS = {"ketsim": [], **{name: [name] for name in ("validate", "evolve", "scenario",
                                                           "deutsch", "sample")}}
# the help and usage goldens hold argparse's wording under Python 3.10 and 3.11
ARGPARSE_WORDING = pytest.mark.skipif(sys.version_info >= (3, 12),
                                      reason="argparse words help and errors differently from 3.12")


def usage_error_cases():
    """(argv, exit code, stderr) of each transcript in usage_errors.txt."""
    text = (HELP_DIR / "usage_errors.txt").read_text(encoding="utf-8")
    cases = []
    for block in text.split("$ ketsim ")[1:]:
        command, status, err = block.split("\n", 2)
        cases.append((shlex.split(command), int(status.strip("[exit ]")), err))
    return cases


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


@ARGPARSE_WORDING
@pytest.mark.parametrize("name", HELP_ARGVS)
def test_help_matches_golden(name, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help at the terminal width
    for _ in range(2):  # the first call may build the parser, the second reuses it
        with pytest.raises(SystemExit) as exc:
            main([*HELP_ARGVS[name], "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr() == ((HELP_DIR / f"{name}.txt").read_text(encoding="utf-8"), "")


@ARGPARSE_WORDING
@pytest.mark.parametrize("argv, code, err", usage_error_cases(), ids=lambda v: " ".join(v)
                         if isinstance(v, list) else None)
def test_usage_errors_match_golden(argv, code, err, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        assert capsys.readouterr() == ("", err)


def test_flags_of_one_call_do_not_carry_into_the_next(tmp_path, capsys):
    graph = tmp_path / "stoch.graph"
    graph.write_text(graph_text(STOCHASTIC_MATRIX))
    plain = ["evolve", str(graph), "--state", "0 1", "--regime", "stoch"]
    first = run(capsys, *plain)
    assert first[0] == 0 and first[1].startswith("dim 3\n") and "probabilities" not in first[1]
    flagged = run(capsys, *plain, "--probabilities", "--unchecked", "--format", "json")
    assert flagged[0] == 0 and json.loads(flagged[1])["probabilities"] is not None
    assert run(capsys, *plain) == first
    args = cli.build_parser().parse_args(plain)
    assert (args.probabilities, args.unchecked, args.format) == (False, False, "text")


def test_unchecked_on_one_call_does_not_carry_into_the_next(tmp_path, capsys):
    graph = tmp_path / "wall.graph"
    graph.write_text(graph_text(BULLET_MATRIX))
    argv = ["evolve", str(graph), "--state", "000", "--regime", "stoch"]
    assert run(capsys, *argv, "--unchecked")[0] == 0
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: matrix fails stochastic validation: ")


def test_a_usage_error_leaves_the_next_call_untouched(capsys):
    golden = (GOLDEN_DIR / "deutsch_id.txt").read_text()
    with pytest.raises(SystemExit) as exc:
        main(["deutsch", "--oracle", "maybe", "--format", "json"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, "deutsch", "--oracle", "id") == (0, golden, "")


# ---------------------------------------------------------------- fuzzing

# the edges of the float and integer ranges, next to ordinary finite floats
EDGE_NUMBERS = [1e300, -1e300, 2.0**63, 2.0**64, 1e-320, -5e-324, 2.2e-308, 1.797e308]


def number_text():
    """`<re> [<im>]` text with parts from finite floats and the edge values."""
    part = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_NUMBERS))
    return st.builds(
        lambda re_part, im_part: " ".join(repr(x) for x in (re_part, im_part) if x is not None),
        part, st.none() | part,
    )


@st.composite
def cli_runs(draw):
    """Graph text, sparse state text and argv (after the graph path) of one CLI run."""
    dim = draw(st.integers(1, 4))
    vertex = st.integers(0, dim - 1)
    edges = draw(st.dictionaries(st.tuples(vertex, vertex), number_text(), max_size=dim * dim))
    amplitudes = draw(st.dictionaries(vertex, number_text(), max_size=dim))
    graph = f"dim {dim}\n" + "".join(f"{s} {d} {w}\n" for (s, d), w in edges.items())
    state = "".join(f"{i} {a}\n" for i, a in amplitudes.items())
    command = draw(st.sampled_from([
        ("evolve",), ("evolve", "--format", "json"), ("evolve", "--probabilities"),
        ("sample", "--shots", "5", "--seed", "1"), ("validate",),
    ]))
    regime = ("--regime", draw(st.sampled_from(["det", "stoch", "quantum"])))
    if command[0] == "validate":
        return graph, state, command, regime
    steps = ("--steps", str(draw(st.integers(0, 3))))
    unchecked = ("--unchecked",) if draw(st.booleans()) else ()
    return graph, state, command, (*regime, *steps, *unchecked)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cli_runs())
def test_every_cli_run_exits_cleanly(tmp_path_factory, case):
    graph_text_, state_text, command, options = case
    folder = tmp_path_factory.getbasetemp()
    graph, state = folder / "fuzz.graph", folder / "fuzz.state"
    graph.write_text(graph_text_)
    state.write_text(state_text)
    argv = [command[0], str(graph), *command[1:], *options]
    if command[0] != "validate":
        argv += ["--state", str(state)]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert [str(w.message) for w in caught] == []
    assert all(line.startswith("error: ") for line in err.getvalue().splitlines())
    if command[0] != "validate":  # a validation report may say a row sums to inf
        assert "nan" not in out.getvalue().lower() and "inf" not in out.getvalue().lower()


def parser_flags():
    """Each subcommand's own option strings but help, by name, and under "" every option string."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    def options(p):
        return {flag for action in p._actions for flag in action.option_strings}

    flags = {name: sorted(options(p) - {"-h", "--help"}) for name, p in commands.choices.items()}
    return {**flags, "": sorted(options(parser).union(*map(options, commands.choices.values())))}


FLAGS = parser_flags()
CHOICES = sorted({*cli.REGIME_ALIASES, *SCENARIO_NAMES, "text", "json", "id", "not"})
ODD_VALUES = ["0", "1", "3", "0.5", "1e-9", "-1", "-0.5", "1" + "0" * 30, "nan", "inf", "1_0", "٣",
              ""]
# a valid run of each subcommand, on the paths GRAPH and STATE
VALID_ARGVS = {
    "validate": ["validate", "GRAPH", "--regime", "quantum"],
    "evolve": ["evolve", "GRAPH", "--state", "STATE"],
    "scenario": ["scenario", SCENARIO_NAMES[0]],
    "deutsch": ["deutsch", "--oracle", "id"],
    "sample": ["sample", "GRAPH", "--state", "STATE", "--shots", "3"],
}
# random text has no path separator (so it names no real file) and no line break (stderr is
# read by line)
RANDOM_TEXT = st.text(
    st.characters(exclude_categories=["Cc", "Cs", "Zl", "Zp"], exclude_characters="/\\"), max_size=8
)


@st.composite
def argvs(draw):
    """A valid run, a bare subcommand or nothing, then flags (mostly the subcommand's own) with
    values, and at most one loose value.  Values are subcommand names, the parser's choices,
    odd numbers, random text and the paths GRAPH and STATE."""
    words = [*VALID_ARGVS, *CHOICES, "GRAPH", "STATE"]
    value = st.sampled_from(ODD_VALUES) | st.sampled_from(words) | RANDOM_TEXT
    command = draw(st.sampled_from(sorted(VALID_ARGVS)))
    argv = draw(st.sampled_from([VALID_ARGVS[command], VALID_ARGVS[command], [command], []]))
    flag = st.sampled_from(FLAGS[command]) | st.sampled_from(FLAGS[""])
    for option in draw(st.lists(st.tuples(flag, value) | st.tuples(flag), max_size=3)):
        argv = [*argv, *option]
    return argv + draw(st.lists(value, max_size=1))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(argvs())
def test_every_argv_exits_cleanly(tmp_path_factory, argv):
    folder = tmp_path_factory.getbasetemp()
    # the identity passes every regime's validation, and |0> is a state of every regime
    paths = {"GRAPH": folder / "identity.graph", "STATE": folder / "zero.state"}
    paths["GRAPH"].write_text("dim 2\n0 0 1\n1 1 1\n")
    paths["STATE"].write_text("0 1\n")
    argv = [str(paths.get(token, token)) for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
                assert code in (0, 1, 2)
            except SystemExit as exc:
                code = exc.code
                assert code == 2 or (code == 0 and ("-h" in argv or "--help" in argv))
    assert [str(w.message) for w in caught] == []
    if code != 0:
        assert "error: " in err.getvalue().splitlines()[-1]


# pieces of graph and state files: well-formed lines, then line ends, a BOM, NUL, a lone
# surrogate's bytes, invalid UTF-8, Unicode digits and spaces, `_` and huge tokens
GOOD_PIECES = [b"0 0 1\n", b"1 1 1 0\r\n", b"0 1 0.5\n", b"1 0 -0.5 0.5\n", b"01", b"# c\n", b"\n"]
ODD_PIECES = [
    b"dim 2\n", b"\r", b" ", b"\t", b"\x0b", b"\x0c", b"\x1f", b"#", b"_", b"\xef\xbb\xbf", b"\x00",
    b"\xed\xa0\x80", b"\xff", b"\xc3", b"\xc3\xa9", b"\xd9\xa2", b"\xe2\x80\xa8", b"\xc2\x85",
    b"\xe3\x80\x80", b"9" * 5000, b"1e" + b"9" * 400, b"0." + b"0" * 4000 + b"1", b"nan", b"1e999",
]


def file_bytes(first):
    """``first`` then pieces, one in four of them odd or random bytes."""
    odd = st.sampled_from(ODD_PIECES) | st.binary(max_size=6)
    piece = st.integers(0, 3).flatmap(lambda i: odd if i == 0 else st.sampled_from(GOOD_PIECES))
    return st.tuples(st.sampled_from(first), st.lists(piece, max_size=8)).map(
        lambda t: t[0] + b"".join(t[1]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(file_bytes([b"dim 2\n", b"dim 1\r\n", b""]), file_bytes([b""]), st.sampled_from([
    ("validate", "--regime", "quantum"), ("validate", "--regime", "stoch"),
    ("evolve", "--regime", "quantum"), ("evolve", "--regime", "det", "--unchecked"),
    ("sample", "--regime", "stoch", "--shots", "3", "--seed", "1"),
]))
def test_any_bytes_as_graph_and_state_files_exit_cleanly(tmp_path_factory, graph_bytes,
                                                         state_bytes, command):
    folder = tmp_path_factory.getbasetemp()
    graph, state = folder / "raw.graph", folder / "raw.state"
    graph.write_bytes(graph_bytes)
    state.write_bytes(state_bytes)
    argv = [command[0], str(graph), *command[1:]]
    if command[0] != "validate":
        argv += ["--state", str(state)]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)  # a traceback would fail the test here
    assert code in (0, 1, 2)
    assert [str(w.message) for w in caught] == []
    assert all(line.startswith("error: ") for line in err.getvalue().splitlines())
    assert err.getvalue() != "" if code == 2 else code == 1 or err.getvalue() == ""


# ------------------------------------------------------- the plain argv reader

def subcommand_actions(command):
    """The parser's own actions of one subcommand, help left out."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [a for a in commands.choices[command]._actions if a.default is not argparse.SUPPRESS]


@st.composite
def plain_argvs(draw):
    """A subcommand, some of its positionals, then its options in exact spellings, each value
    mostly one the option accepts (a choice, or a number for the typed ones), sometimes an odd
    value, a word or random text."""
    command = draw(st.sampled_from(sorted(VALID_ARGVS)))
    odd = st.sampled_from(ODD_VALUES) | st.sampled_from([*VALID_ARGVS, *CHOICES, "GRAPH"]) | RANDOM_TEXT
    def value(action):
        good = st.sampled_from(action.choices) if action.choices else st.sampled_from(["0", "3", "1e-9"])
        return st.integers(0, 3).flatmap(lambda i: odd if i == 0 else good)
    actions = subcommand_actions(command)
    positionals = [a for a in actions if not a.option_strings]
    argv = [command] + [draw(value(a)) for a in positionals[:draw(st.integers(0, len(positionals)))]]
    for action in draw(st.lists(st.sampled_from([a for a in actions if a.option_strings]), max_size=6)):
        argv += [action.option_strings[0]] + ([draw(value(action))] if action.nargs is None else [])
    return argv


def argparse_reading(argv):
    """vars() of argparse's namespace for argv, or None where argparse exits."""
    try:
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            return vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        return None


@settings(derandomize=True, max_examples=600, deadline=None)
@given(argvs() | plain_argvs() | st.sampled_from(list(VALID_ARGVS.values())))
def test_a_plainly_read_argv_is_what_argparse_reads(argv):
    plain = cli._plain_args(argv)
    if plain is not None:
        assert vars(plain) == argparse_reading(argv)


@pytest.mark.parametrize("argv", [*VALID_ARGVS.values(), ["scenario"], ["scenario", "--list"],
                                  ["evolve", "GRAPH", "--state", "S", "--steps", "2", "--steps", "3"]])
def test_the_plain_reader_reads_each_valid_run(argv):
    plain = cli._plain_args(argv)
    assert plain is not None and vars(plain) == argparse_reading(argv)


@pytest.mark.parametrize("argv", [
    ["deutsch", "--oracle", "id", "--help"],
    ["deutsch", "-h", "--oracle", "id"],
    ["validate", "GRAPH", "--prob", "--regime", "quantum"],
    ["evolve", "GRAPH", "--state", "0", "--steps=3"],
    ["evolve", "GRAPH", "--state", "0", "--"],
    ["evolve", "GRAPH", "--state", "0", "--steps", "-1"],
    ["scenario", "--format", "json", "photons"],
    ["evolve", "GRAPH"],
    ["validate", "GRAPH", "--regime", "quantum", "EXTRA"],
    ["validate", "--regime", "quantum"],
    ["validate", "-GRAPH", "--regime", "quantum"],
    ["deutsch", "--oracle"],
    ["deutsch", "--oracle", "maybe"],
    ["sample", "GRAPH", "--state", "0", "--shots", "0"],
    ["evolve", "GRAPH", "--state", "0", "--tol", "nan"],
    ["deutsch", "--oracle", 1],
    ["--help"],
    ["deu", "--oracle", "id"],
    [],
], ids=lambda argv: " ".join(map(str, argv)) or "empty")
def test_the_plain_reader_leaves_every_other_argv_to_argparse(argv):
    assert cli._plain_args(argv) is None


def toy_parser():
    """A parser with action kinds, defaults and aliases that ketsim's own parser does not use."""
    parser = argparse.ArgumentParser(prog="toy")
    sub = parser.add_subparsers(dest="command", required=True)
    a = sub.add_parser("a", aliases=["ay"])
    a.add_argument("first")
    a.add_argument("second", nargs="?", default="2", type=int, choices=(2, 3))
    a.add_argument("--level", "-l", type=int, default="7")
    a.add_argument("--name", default="x", choices=("x", "y"))
    a.add_argument("--on", action="store_const", const="yes", default="no")
    a.add_argument("--off", action="store_false")
    a.add_argument("--many", action="append")
    a.add_argument("--need", required=True)
    a.set_defaults(func=len, extra=1)
    sub.add_parser("b").add_argument("items", nargs="*")
    return parser


@pytest.mark.parametrize("argv, plain", [
    (["a", "F", "--need", "n"], True),
    (["ay", "F", "3", "--need", "n", "-l", "9", "--level", "8"], True),
    (["a", "F", "--need", "n", "--on", "--off", "--name", "y"], True),
    (["a", "F", "4", "--need", "n"], False),  # not a choice
    (["a", "F", "--need", "n", "--level", "x"], False),  # not an int
    (["a", "F"], False),  # --need missing
    (["a", "--need", "n"], False),  # first missing
    (["a", "F", "--many", "m", "--need", "n"], False),  # an append action
    (["b", "x", "y"], False),  # a '*' positional
])
def test_a_flag_added_to_the_parser_is_read_from_its_own_action(monkeypatch, argv, plain):
    monkeypatch.setattr(cli, "build_parser", functools.cache(toy_parser))
    cli._argv_grammar.cache_clear()
    try:
        got, want = cli._plain_args(argv), argparse_reading(argv)
    finally:
        cli._argv_grammar.cache_clear()
    assert (got is not None) == plain
    assert got is None or vars(got) == want


def test_a_parser_with_a_top_level_option_is_left_to_argparse(monkeypatch):
    def parser_with_verbose():
        parser = toy_parser()
        parser.add_argument("--verbose", action="store_true")
        return parser

    monkeypatch.setattr(cli, "build_parser", functools.cache(parser_with_verbose))
    cli._argv_grammar.cache_clear()
    try:
        assert cli._plain_args(["a", "F", "--need", "n"]) is None
    finally:
        cli._argv_grammar.cache_clear()


def test_the_plain_reader_reads_sys_argv_when_given_none(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["ketsim", "deutsch", "--oracle", "not"])
    assert vars(cli._plain_args(None)) == argparse_reading(["deutsch", "--oracle", "not"])


def test_the_argv_shapes_perfbench_sends_skip_argparse(tmp_path, capsys, monkeypatch):
    graph, state = tmp_path / "h.graph", tmp_path / "zero.state"
    graph.write_text(graph_text(standard_gate("H").matrix))
    state.write_text("0 1\n")
    calls = []
    parser = cli.build_parser()
    monkeypatch.setattr(parser, "parse_args", lambda *a, **k: calls.append(a) or
                        argparse.ArgumentParser.parse_args(parser, *a, **k))
    g, s = str(graph), str(state)
    for argv in (
        ["sample", g, "--state", s, "--steps", "2", "--shots", "10", "--seed", "3", "--regime", "quantum"],
        ["evolve", g, "--state", s, "--steps", "2", "--regime", "quantum", "--format", "json"],
        ["evolve", g, "--state", s, "--steps", "1", "--regime", "quantum", "--probabilities"],
        ["scenario", "photons", "--format", "json"],
        ["deutsch", "--oracle", "id", "--format", "text"],
        ["validate", g, "--regime", "quantum"],
    ):
        assert run(capsys, *argv)[0] == 0
    assert calls == []
    assert run(capsys, "deutsch", "--oracle=id")[0] == 0  # the same run spelled otherwise
    assert calls == [(["deutsch", "--oracle=id"],)]


# ---------------------------------------------------------------- output faults

class ShortFile(io.RawIOBase):
    """A raw writer on descriptor ``fd`` that takes ``room`` bytes, then fails each write with ``err``.

    EPIPE is a reader that closed its pipe, ENOSPC a full disk.  Once ``fd``
    is pointed at devnull, writes succeed and are dropped, as they would be.
    """

    def __init__(self, fd, room, err):
        self.fd, self.room, self.err, self.data = fd, room, err, bytearray()

    def writable(self):
        return True

    def fileno(self):
        return self.fd

    def write(self, b):
        if os.path.samestat(os.fstat(self.fd), os.stat(os.devnull)):
            return len(b)
        n = min(len(b), self.room - len(self.data))
        if n <= 0:
            raise OSError(self.err, os.strerror(self.err))  # EPIPE makes a BrokenPipeError
        self.data += b[:n]
        return n


def faulted_main(tmp_path, argv, room, err, buffer_size):
    """main(argv) with stdout buffered as a real one is, on a ShortFile: (code, bytes written, stderr, devnull)."""
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    try:
        raw = ShortFile(fd, room, err)
        out = io.TextIOWrapper(io.BufferedWriter(raw, buffer_size), encoding="utf-8", write_through=True)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as stderr:
            code = main(argv)
        written, devnull = bytes(raw.data), os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        raw.room = math.inf  # the disk is freed: what the buffer holds goes out, so closing it cannot fail
        out.close()
    finally:
        os.close(fd)
    return code, written, stderr.getvalue(), devnull


@pytest.mark.parametrize("argv", [
    ["deutsch", "--oracle", "id"],
    ["scenario", "marbles-6"],
    ["evolve", "marbles6.graph", "--state", "marbles6.state", "--regime", "det", "--steps", "2",
     "--format", "json"],
], ids=["deutsch", "scenario", "evolve-json"])
@pytest.mark.parametrize("buffer_size", [16, io.DEFAULT_BUFFER_SIZE], ids=["fails-in-print", "fails-in-flush"])
def test_a_closed_pipe_or_a_full_disk_never_ends_in_a_traceback(tmp_path, monkeypatch, argv, buffer_size):
    monkeypatch.chdir(GOLDEN_DIR / "json")
    want = faulted_main(tmp_path, argv, math.inf, errno.EPIPE, buffer_size)[1]
    assert want and (argv[0] != "deutsch" or want == (GOLDEN_DIR / "deutsch_id.txt").read_bytes())
    for room in range(len(want) + 1):
        for err in (errno.EPIPE, errno.ENOSPC):
            code, written, stderr, devnull = faulted_main(tmp_path, argv, room, err, buffer_size)
            assert written == want[:room]
            if room == len(want):  # every byte fit
                assert (code, stderr, devnull) == (0, "", False)
            elif err == errno.EPIPE:  # the reader has gone: nothing to say, and nothing more to write
                assert (code, stderr, devnull) == (1, "", True)
            else:
                assert (code, devnull) == (1, False)
                assert stderr == f"error: cannot write output: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


def test_a_reader_that_closes_the_pipe_early_gets_no_traceback(tmp_path):
    import fcntl

    graph = tmp_path / "cycle.graph"
    graph.write_text("dim 2048\n" + "".join(f"{i} {(i + 1) % 2048} 1\n" for i in range(2048)))
    read_end, write_end = os.pipe()
    if hasattr(fcntl, "F_SETPIPE_SZ"):  # Linux: a one-page pipe holds little of the 88 kB of JSON
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    with open(read_end, "rb") as reader:
        try:
            child = subprocess.Popen(
                [sys.executable, "-W", "error", "-m", "ketsim.cli", "evolve", str(graph), "--state", "0 1",
                 "--regime", "det", "--format", "json"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(write_end)
        assert reader.read(9) == b'{\n  "dim"'
    # the reader has gone while the child still has most of its output to write
    try:
        stderr = child.communicate(timeout=60)[1]
    finally:
        child.kill()
        child.wait()
    assert (child.returncode, stderr) == (1, "")
