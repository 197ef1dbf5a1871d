"""The four workloads: seeded op pools, each op checked against numpy.

A workload is a list of ``Op``s built from one seed.  ``Op.run`` is the
timed call into ketsim's public entry points (``ketsim.cli.main`` or the
``gates``/``measurement`` API); ``Op.check`` decides, outside the timed
region, whether what came back is right.  The references are written
from the documented semantics with plain numpy, never by calling ketsim.

Calls go through attribute lookups on the ``ketsim`` package at call
time (``km.cli.main``, ``km.gates.circuit_matrix``), so the tracer's
patches take effect and a re-imported package is used as a whole.
"""
from __future__ import annotations

import io
import json
import re
import string
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import inputs

SCENARIOS = ("marbles-6", "stochastic-3", "bullets", "photons", "two-marbles", "unitary-3")
# Oracle name -> (f(0), f(1)), written out here rather than read from ketsim.
ORACLES = {"const0": (0, 0), "const1": (1, 1), "id": (0, 1), "not": (1, 0)}
CLI_REGIME = {"deterministic": "det", "stochastic": "stoch", "quantum": "quantum"}
TOL = 1e-9


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


# ------------------------------------------------------------ references

def _dtype(regime: str):
    return {"deterministic": np.int64, "stochastic": np.float64, "quantum": np.complex128}[regime]


def reference_evolve(regime: str, m: np.ndarray, x0: np.ndarray, steps: int) -> np.ndarray:
    """The benchmark's own ``m @ x`` loop."""
    m = m.astype(_dtype(regime))
    x = x0.astype(_dtype(regime))
    for _ in range(steps):
        x = m @ x
    return x


def evolution_ok(regime: str, m, x0, steps: int, final: np.ndarray) -> bool:
    """Final state equals the reference loop and the regime's conserved quantity holds."""
    ref = reference_evolve(regime, m, x0, steps)
    if final.shape != ref.shape or np.max(np.abs(final - ref)) > TOL:
        return False
    if regime == "deterministic":
        real = final.real
        return bool(np.all(final.imag == 0) and np.all(real == np.round(real))
                    and int(round(real.sum())) == int(x0.sum()))
    if regime == "stochastic":
        return abs(float(final.real.sum()) - 1.0) <= TOL
    return abs(float(np.sum(np.abs(final) ** 2)) - 1.0) <= TOL


def reference_counts(final: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Inverse-CDF sampling: one uniform per shot, ``searchsorted(side="right")``."""
    p = np.abs(final) ** 2
    cum = np.cumsum(p / p.sum())
    idx = np.searchsorted(cum, np.random.default_rng(seed).random(shots), side="right")
    return np.bincount(np.minimum(idx, len(final) - 1), minlength=len(final))


def sample_ok(out: str, final: np.ndarray, shots: int, seed: int) -> bool:
    lines = out.splitlines()
    if not lines or lines[0] != f"shots {shots}" or len(lines) != len(final) + 1:
        return False
    got = np.array([int(line.split()[1]) for line in lines[1:]])
    return bool(np.array_equal(got, reference_counts(final, shots, seed)))


_TEXT_NUMBER = re.compile(
    r"(-?[\d.]+(?:e[+-]?\d+)?)(?:([+-])([\d.]+(?:e[+-]?\d+)?)i)?"
)


def parse_text_number(token: str) -> complex:
    """Read ``fmt_number`` text: ``0.5``, ``-1e-05`` or ``0.5-0.25i``."""
    hit = _TEXT_NUMBER.fullmatch(token)
    if hit is None:
        raise ValueError(f"unreadable number {token!r}")
    re_part, sign, im_part = hit.groups()
    im = 0.0 if im_part is None else float(im_part) * (-1.0 if sign == "-" else 1.0)
    return complex(float(re_part), im)


def _json_state(payload) -> np.ndarray:
    return np.array([complex(re_, im) for re_, im in payload["amplitudes"]])


def _probabilities_ok(probs, final: np.ndarray) -> bool:
    p = np.abs(final) ** 2
    return probs is not None and np.max(np.abs(np.asarray(probs) - p / p.sum())) <= TOL


# -------------------------------------------------------------- helpers

def cli_call(km, argv: list[str]) -> Callable[[], tuple[int, str, str]]:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = km.cli.main(argv)
        return code, out.getvalue(), err.getvalue()
    return run


class Files:
    """Writes generated inputs under one work directory."""

    def __init__(self, root: Path):
        self.root = root
        self.n = 0

    def write(self, text: str, suffix: str) -> str:
        self.n += 1
        path = self.root / f"in{self.n:04d}.{suffix}"
        path.write_text(text, encoding="utf-8")
        return str(path)


def _regime_matrix(rng, regime: str, n: int) -> np.ndarray:
    if regime == "deterministic":
        return inputs.functional_graph(rng, n)
    if regime == "stochastic":
        return inputs.birkhoff_stochastic(rng, n, terms=4)
    return inputs.haar_unitary(rng, n)


def _regime_state(rng, regime: str, n: int) -> np.ndarray:
    if regime == "deterministic":
        return inputs.counts(rng, n)
    if regime == "stochastic":
        return inputs.distribution(rng, n)
    return inputs.amplitudes(rng, n)


# ---------------------------------------------------------- sample-shots

def build_sample_shots(km, rng, files: Files, golden: Path) -> list[Op]:
    """100 ``ketsim sample`` calls, alternating dense Haar and Birkhoff dim-32 graphs.

    The Birkhoff mixtures have 4*dim terms, so both kinds of graph file
    are (nearly) dense and cost about the same per call: the median then
    falls inside one cluster of op times, not in a gap between two.
    """
    ops = []
    for i in range(100):
        regime = "quantum" if i % 2 == 0 else "stochastic"
        ops.append(_sample_op(km, rng, files, regime, dim=32, steps=2, shots=1000, terms=128))
    return ops


def _sample_op(km, rng, files, regime, dim, steps, shots, terms) -> Op:
    m = (inputs.haar_unitary(rng, dim) if regime == "quantum"
         else inputs.birkhoff_stochastic(rng, dim, terms))
    x0 = _regime_state(rng, regime, dim)
    seed = int(rng.integers(2**31))
    argv = ["sample", files.write(inputs.graph_text(m), "graph"),
            "--state", files.write(inputs.state_text(x0), "state"),
            "--steps", str(steps), "--shots", str(shots), "--seed", str(seed),
            "--regime", CLI_REGIME[regime]]
    final = reference_evolve(regime, m, x0, steps)

    def check(res):
        code, out, err = res
        return code == 0 and err == "" and sample_ok(out, final, shots, seed)

    return Op(f"sample {regime} dim {dim}", cli_call(km, argv), check)


# --------------------------------------------------------- evolve-clicks

def build_evolve_clicks(km, rng, files: Files, golden: Path) -> list[Op]:
    """120 strict ``ketsim evolve --format json`` calls of 300 clicks on dim-64 graphs."""
    regimes = ("deterministic", "stochastic", "quantum")
    return [_evolve_json_op(km, rng, files, regimes[i % 3], dim=64, steps=300) for i in range(120)]


def _evolve_json_op(km, rng, files, regime, dim, steps) -> Op:
    m = _regime_matrix(rng, regime, dim)
    x0 = _regime_state(rng, regime, dim)
    argv = ["evolve", files.write(inputs.graph_text(m), "graph"),
            "--state", files.write(inputs.state_text(x0), "state"),
            "--steps", str(steps), "--regime", CLI_REGIME[regime], "--format", "json"]

    def check(res):
        code, out, err = res
        if code != 0 or err:
            return False
        payload = json.loads(out)
        final = _json_state(payload)
        return (payload["dim"] == dim and evolution_ok(regime, m, x0, steps, final)
                and _probabilities_ok(payload["probabilities"], final))

    return Op(f"evolve {regime} dim {dim}", cli_call(km, argv), check)


# --------------------------------------------------------------- circuits

_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
_CNOT = np.eye(4)[[0, 1, 3, 2]]
REFERENCE_GATES = {
    "H": _H,
    "NOT": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "I": np.eye(2),
    "CNOT": _CNOT.reshape(2, 2, 2, 2),
}


def reference_circuit_state(spec: list[list[str]], wires: int) -> np.ndarray:
    """Run the circuit on |0...0> by one einsum per gate on its own wires."""
    psi = np.zeros((2,) * wires)
    psi[(0,) * wires] = 1.0
    letters = string.ascii_letters
    wire_sub = letters[:wires]
    for layer in spec:
        k = 0
        for name in layer:
            nb = inputs.CIRCUIT_GATES[name]
            new = letters[wires:wires + nb]
            out = wire_sub[:k] + new + wire_sub[k + nb:]
            psi = np.einsum(f"{new}{wire_sub[k:k + nb]},{wire_sub}->{out}", REFERENCE_GATES[name], psi)
            k += nb
    return psi.reshape(-1)


def build_circuits(km, rng, files: Files, golden: Path) -> list[Op]:
    """100 library ops on 7-9 wire, 4-layer random circuits plus a dim 8-16 observable.

    Wire count, observable size and whether the top wire is entangled
    follow the op index, so every seed gives the same mix of op sizes.
    """
    ops = []
    for i in range(100):
        wires = 7 + i % 3
        spec = inputs.random_circuit(rng, wires, layers=4, entangle_top=(i // 3) % 2 == 0)
        obs = inputs.hermitian(rng, 8 + i % 9)
        ops.append(_circuit_op(km, wires, spec, obs))
    return ops


def _circuit_op(km, wires, spec, obs) -> Op:
    def run():
        g = km.gates
        layers = [[g.standard_gate(name) for name in layer] for layer in spec]
        unitary = g.circuit_matrix(g.Circuit(wires, layers))
        state = g.apply(unitary, g.ket_of_bits("0" * wires))
        split = km.measurement.is_product_state(state, 2, 2 ** (wires - 1))
        eig = km.measurement.spectral_decompose(obs)
        return state, split, eig

    def check(res):
        state, split, eig = res
        if np.max(np.abs(state - reference_circuit_state(spec, wires))) > TOL:
            return False
        sv = np.linalg.svd(state.reshape(2, -1), compute_uv=False)
        if split.is_product != bool(sv[1] <= 1e-8 * sv[0]):
            return False
        ev = np.linalg.eigvalsh(obs)
        scale = max(1.0, float(np.max(np.abs(ev))))
        vals, vecs = eig.eigenvalues, eig.eigenvectors
        residual = np.max(np.linalg.norm(obs @ vecs - vecs * vals, axis=0))
        return bool(np.max(np.abs(vals - ev)) <= 1e-8 * scale and residual <= 1e-8 * scale)

    return Op(f"circuit {wires} wires", run, check)


# -------------------------------------------------------------- cli-short

def build_cli_short(km, rng, files: Files, golden: Path) -> list[Op]:
    """200 cheap ``main`` calls, one in five on input that must be refused."""
    ops = []
    for _ in range(4):
        for name in SCENARIOS:
            ops.append(_scenario_op(km, name, "text"))
            ops.append(_scenario_op(km, name, "json"))
        for oracle in ORACLES:
            ops.append(_deutsch_op(km, oracle, "text", golden))
            ops.append(_deutsch_op(km, oracle, "json", golden))
    regimes = ("deterministic", "stochastic", "quantum")
    for i in range(30):
        ops.append(_validate_ok_op(km, rng, files, regimes[i % 3], int(rng.integers(4, 9))))
    for i in range(30):
        ops.append(_evolve_tiny_op(km, rng, files, regimes[i % 3], int(rng.integers(4, 9)),
                                   int(rng.integers(1, 4)), ("text", "json")[i % 2]))
    for i in range(20):
        ops.append(_sample_op(km, rng, files, regimes[1 + i % 2], int(rng.integers(4, 9)),
                              steps=1, shots=int(rng.integers(10, 51)), terms=2))
    for i in range(20):
        ops.append(_malformed_op(km, rng, files, i % 4, ("validate", "evolve", "sample")[i % 3]))
    for i in range(20):
        ops.append(_nonconforming_op(km, rng, files, regimes[i % 3], via_evolve=i % 2 == 1))
    order = rng.permutation(len(ops))
    return [ops[k] for k in order]


def _scenario_op(km, name, fmt) -> Op:
    def check(res):
        code, out, err = res
        if code != 0 or err:
            return False
        if fmt == "json":
            payload = json.loads(out)
            return payload["name"] == name and payload["passed"] is True and all(
                c["passed"] for c in payload["checks"])
        lines = out.splitlines()
        return lines[0] == f"scenario {name}" and lines[-1] == "PASS" and "FAIL" not in out

    return Op(f"scenario {name} {fmt}", cli_call(km, ["scenario", name, "--format", fmt]), check)


def _deutsch_op(km, oracle, fmt, golden: Path) -> Op:
    expected_text = (golden / f"deutsch_{oracle}.txt").read_text(encoding="utf-8")
    f0, f1 = ORACLES[oracle]
    verdict = "constant" if f0 == f1 else "balanced"

    def check(res):
        code, out, err = res
        if code != 0 or err:
            return False
        if fmt == "text":
            return out == expected_text
        payload = json.loads(out)
        top = payload["top_distribution"][0 if verdict == "constant" else 1]
        return (payload["classification"] == verdict and len(payload["stages"]) == 4
                and abs(top - 1.0) <= TOL)

    return Op(f"deutsch {oracle} {fmt}", cli_call(km, ["deutsch", "--oracle", oracle, "--format", fmt]), check)


def _validate_ok_op(km, rng, files, regime, dim) -> Op:
    m = _regime_matrix(rng, regime, dim)
    argv = ["validate", files.write(inputs.graph_text(m), "graph"), "--regime", CLI_REGIME[regime]]
    return Op(f"validate {regime}", cli_call(km, argv), lambda res: res == (0, "OK\n", ""))


def _evolve_tiny_op(km, rng, files, regime, dim, steps, fmt) -> Op:
    if fmt == "json":
        return _evolve_json_op(km, rng, files, regime, dim, steps)
    m = _regime_matrix(rng, regime, dim)
    x0 = _regime_state(rng, regime, dim)
    argv = ["evolve", files.write(inputs.graph_text(m), "graph"),
            "--state", files.write(inputs.state_text(x0), "state"),
            "--steps", str(steps), "--regime", CLI_REGIME[regime], "--probabilities"]

    def check(res):
        code, out, err = res
        lines = out.splitlines()
        if code != 0 or err or lines[0] != f"dim {dim}" or lines[dim + 1] != "probabilities:":
            return False
        final = np.array([parse_text_number(line.split()[1]) for line in lines[1:dim + 1]])
        probs = [float(line.split()[1]) for line in lines[dim + 2:]]
        return evolution_ok(regime, m, x0, steps, final) and _probabilities_ok(probs, final)

    return Op(f"evolve {regime} text", cli_call(km, argv), check)


def _malformed_op(km, rng, files, kind, command) -> Op:
    """A graph file broken in one line; the refusal must name that line and exit 2."""
    dim = int(rng.integers(4, 9))
    lines = inputs.graph_text(inputs.birkhoff_stochastic(rng, dim, terms=2)).splitlines()
    if kind == 0:  # a numpy scalar repr where a weight belongs
        bad = int(rng.integers(1, len(lines)))
        src, dst, w = lines[bad].split()[:3]
        lines[bad] = f"{src} {dst} np.float64({w})"
    elif kind == 1:  # the same edge twice
        bad = len(lines)
        lines.append(lines[int(rng.integers(1, len(lines)))])
    elif kind == 2:  # a vertex past the end
        bad = len(lines)
        lines.append(f"{dim} 0 0.5")
    else:  # a non-integer dimension
        bad = 0
        lines[0] = "dim four"
    argv = [command, files.write("\n".join(lines) + "\n", "graph")]
    if command != "validate":
        argv += ["--state", files.write(inputs.state_text(inputs.distribution(rng, dim)), "state")]
    argv += ["--regime", "stoch"]
    prefix = f"error: line {bad + 1}:"
    return Op(f"malformed {kind} {command}", cli_call(km, argv),
              lambda res: res[0] == 2 and res[1] == "" and res[2].startswith(prefix))


def _nonconforming_op(km, rng, files, regime, via_evolve) -> Op:
    """A matrix that breaks its regime in a known way; it must exit 1 naming each violation."""
    dim = int(rng.integers(4, 9))
    m = _regime_matrix(rng, regime, dim).astype(float if regime != "quantum" else complex)
    if regime == "deterministic":
        j = int(rng.integers(dim))
        row = int(np.flatnonzero(m[:, j])[0])
        m[(row + 1) % dim, j] = 1.0
        expected = [f"column {j} has 2 ones, expected exactly 1"]
    elif regime == "stochastic":
        i, j = np.unravel_index(int(np.argmax(m)), m.shape)
        m[i, j] -= 0.01
        expected = [f"row {i} sums to", f"column {j} sums to"]
    else:
        m[:, 0] *= 1.01
        expected = ["not unitary:"]
    graph = files.write(inputs.graph_text(m), "graph")
    if via_evolve:
        state = files.write(inputs.state_text(_regime_state(rng, regime, dim)), "state")
        argv = ["evolve", graph, "--state", state, "--regime", CLI_REGIME[regime]]
    else:
        argv = ["validate", graph, "--regime", CLI_REGIME[regime]]

    def check(res):
        code, out, err = res
        if code != 1:
            return False
        if via_evolve:
            head = f"error: matrix fails {regime} validation: "
            if out or not err.startswith(head):
                return False
            found = err[len(head):].rstrip("\n").split("; ")
        else:
            found = out.splitlines()
        return len(found) == len(expected) and all(f.startswith(e) for f, e in zip(found, expected))

    return Op(f"nonconforming {regime}", cli_call(km, argv), check)


WORKLOADS = {
    "sample-shots": build_sample_shots,
    "evolve-clicks": build_evolve_clicks,
    "circuits": build_circuits,
    "cli-short": build_cli_short,
}
