"""Command-line interface: file parsing, output formats, exit codes."""
import json
from pathlib import Path

import numpy as np
import pytest

from ketsim.cli import ParseFailure, fmt_number, fmt_real, main, parse_graph, parse_state
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
    code, _, err = run(capsys, "scenario")
    assert code == 2
    assert "scenario name required" in err


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
