"""Command-line front end.

Subcommands: validate, evolve, scenario, deutsch, sample.  Graphs arrive
as edge-list files (``dim <n>`` then ``<from> <to> <re> [<im>]`` lines,
``#`` comments); the matrix entry [to, from] holds the edge weight, so
columns index source vertices.  States are either a bitstring or sparse
``<index> <re> [<im>]`` lines.

Exit codes: 0 success, 1 validation or golden-check failure, 2 parse or
usage error.  Text output prints numbers at 12 significant digits; JSON
carries round-trip exact doubles.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .algebra import REGIMES, validate
from .deutsch import BINARY_FUNCTIONS, run_deutsch
from .dynamics import RegimeSystem, evolve
from .experiments import SCENARIO_NAMES, run_scenario, scenario
from .gates import ket_of_bits
from .measurement import basis_distribution, collapse, random_source

REGIME_ALIASES = {"det": "deterministic", "stoch": "stochastic", **{r: r for r in REGIMES}}

# hermitian matrices are observables, not dynamics; evolve/sample exclude them
_EVOLVE_REGIMES = tuple(k for k in sorted(REGIME_ALIASES) if k != "hermitian")


MAX_DIM = 4096  # a dense complex matrix costs 16 * dim**2 bytes: 256 MiB at this limit


class ParseFailure(Exception):
    """Malformed input file; the message names the offending line."""


# ---------------------------------------------------------------- parsing

def _content_lines(text: str):
    """Yield (line_number, stripped_text) with comments and blanks removed."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _complex_value(fields: list[str], noun: str, lineno: int, line: str) -> complex:
    """Read the trailing `<re> [<im>]` fields: two finite floats, the second defaulting to 0."""
    try:
        re_part = float(fields[0])
        im_part = float(fields[1]) if len(fields) == 2 else 0.0
    except ValueError:
        raise ParseFailure(f"line {lineno}: bad {noun} in {line!r}")
    if not (math.isfinite(re_part) and math.isfinite(im_part)):
        raise ParseFailure(f"line {lineno}: {noun} must be finite in {line!r}")
    return complex(re_part, im_part)


def _real_if_possible(a: np.ndarray) -> np.ndarray:
    return a.real if np.all(a.imag == 0) else a


def parse_graph(text: str) -> np.ndarray:
    """Read an edge-list description into a dense matrix."""
    lines = list(_content_lines(text))
    if not lines:
        raise ParseFailure("line 1: empty graph file, expected `dim <n>`")
    lineno, header = lines[0]
    fields = header.split()
    if len(fields) != 2 or fields[0] != "dim":
        raise ParseFailure(f"line {lineno}: expected `dim <n>`, got {header!r}")
    try:
        dim = int(fields[1])
    except ValueError:
        raise ParseFailure(f"line {lineno}: dimension {fields[1]!r} is not an integer")
    if dim < 1:
        raise ParseFailure(f"line {lineno}: dimension must be positive, got {dim}")
    if dim > MAX_DIM:
        raise ParseFailure(f"line {lineno}: dimension {dim} exceeds the limit of {MAX_DIM}")
    m = np.zeros((dim, dim), dtype=np.complex128)
    seen: set[tuple[int, int]] = set()
    for lineno, line in lines[1:]:
        fields = line.split()
        if len(fields) not in (3, 4):
            raise ParseFailure(
                f"line {lineno}: expected `<from> <to> <re> [<im>]`, got {line!r}"
            )
        try:
            src, dst = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseFailure(f"line {lineno}: vertex indices must be integers in {line!r}")
        if not (0 <= src < dim and 0 <= dst < dim):
            raise ParseFailure(f"line {lineno}: vertex out of range 0..{dim - 1} in {line!r}")
        if (src, dst) in seen:
            raise ParseFailure(f"line {lineno}: duplicate edge {src} -> {dst}")
        seen.add((src, dst))
        m[dst, src] = _complex_value(fields[2:], "weight", lineno, line)
    return _real_if_possible(m)


def parse_state(text: str, dim: int) -> np.ndarray:
    """Read a state: a single bitstring, or sparse `<index> <re> [<im>]` lines."""
    lines = list(_content_lines(text))
    if len(lines) == 1:
        token = lines[0][1]
        if " " not in token and set(token) <= {"0", "1"}:
            if 2 ** len(token) != dim:
                raise ParseFailure(
                    f"line {lines[0][0]}: bitstring of length {len(token)} describes "
                    f"dimension {2 ** len(token)}, but the system has dimension {dim}"
                )
            return ket_of_bits(token)
    v = np.zeros(dim, dtype=np.complex128)
    filled: set[int] = set()
    for lineno, line in lines:
        fields = line.split()
        if len(fields) not in (2, 3):
            raise ParseFailure(f"line {lineno}: expected `<index> <re> [<im>]`, got {line!r}")
        try:
            idx = int(fields[0])
        except ValueError:
            raise ParseFailure(f"line {lineno}: index {fields[0]!r} is not an integer")
        if not 0 <= idx < dim:
            raise ParseFailure(f"line {lineno}: index {idx} out of range 0..{dim - 1}")
        if idx in filled:
            raise ParseFailure(f"line {lineno}: index {idx} listed twice")
        filled.add(idx)
        v[idx] = _complex_value(fields[1:], "amplitude", lineno, line)
    return _real_if_possible(v)


# ------------------------------------------------------------- formatting

def fmt_real(x: float) -> str:
    x = float(x)
    if x == 0.0:  # squash negative zero so output is stable
        x = 0.0
    return f"{x:.12g}"


def fmt_number(z) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return fmt_real(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{fmt_real(z.real)}{sign}{fmt_real(abs(z.imag))}i"


def _state_lines(v: np.ndarray) -> list[str]:
    return [f"{i} {fmt_number(c)}" for i, c in enumerate(v)]


def _amplitude_pairs(v: np.ndarray) -> list[list[float]]:
    w = np.asarray(v, dtype=np.complex128)
    return np.column_stack([w.real, w.imag]).tolist()


def _print_probabilities(p: np.ndarray) -> None:
    print("probabilities:")
    for i, x in enumerate(p):
        print(f"{i} {fmt_real(x)}")


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


# ------------------------------------------------------------ subcommands

def _load_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from exc


def _state_from_arg(arg: str, dim: int) -> np.ndarray:
    """A state argument is a file path if one exists, else literal state text."""
    if os.path.exists(arg):
        return parse_state(_load_file(arg), dim)
    return parse_state(arg, dim)


def cmd_validate(args) -> int:
    m = parse_graph(_load_file(args.graph))
    violations = validate(m, REGIME_ALIASES[args.regime], args.tol)
    if violations:
        for v in violations:
            print(v)
        return 1
    print("OK")
    return 0


def _evolved_state(args) -> np.ndarray:
    """Front half of ``evolve`` and ``sample``: read the graph and state, then evolve."""
    graph = parse_graph(_load_file(args.graph))
    mode = "unchecked" if args.unchecked else "strict"
    system = RegimeSystem(REGIME_ALIASES[args.regime], graph, mode=mode, tol=args.tol)
    return evolve(system, _state_from_arg(args.state, system.dim), args.steps)


def cmd_evolve(args) -> int:
    final = _evolved_state(args)
    probs = basis_distribution(final) if np.any(final) else None  # None: the zero state
    if args.format == "json":
        _emit_json(
            {
                "dim": int(final.shape[0]),
                "amplitudes": _amplitude_pairs(final),
                "probabilities": None if probs is None else probs.tolist(),
            }
        )
        return 0
    print(f"dim {final.shape[0]}")
    for line in _state_lines(final):
        print(line)
    if args.probabilities:
        if probs is None:
            print("error: zero state has no probabilities", file=sys.stderr)
            return 1
        _print_probabilities(probs)
    return 0


def _scenario_json(report) -> dict:
    s = report.scenario
    return {
        "name": s.name,
        "dim": s.system.dim,
        "steps": s.steps,
        "final": None if report.final is None else _amplitude_pairs(report.final),
        "probabilities": None if report.probabilities is None else report.probabilities.tolist(),
        "checks": [
            {"label": c.label, "passed": c.passed, "deviation": c.deviation}
            for c in report.checks
        ],
        "passed": report.passed,
    }


def cmd_scenario(args) -> int:
    if args.list:
        for name in SCENARIO_NAMES:
            print(name)
        return 0
    if args.name is None:
        print("error: scenario name required (or --list)", file=sys.stderr)
        return 2
    report = run_scenario(scenario(args.name))
    if args.format == "json":
        _emit_json(_scenario_json(report))
        return 0 if report.passed else 1
    s = report.scenario
    print(f"scenario {s.name}")
    print(s.note)
    print(f"dim {s.system.dim}")
    if report.final is not None:
        print(f"steps {s.steps}")
        print("final:")
        for line in _state_lines(report.final):
            print(line)
    if report.probabilities is not None:
        _print_probabilities(report.probabilities)
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"check {c.label}: {status} (max deviation {fmt_real(c.deviation)})")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def cmd_deutsch(args) -> int:
    run = run_deutsch(BINARY_FUNCTIONS[args.oracle])
    if args.format == "json":
        _emit_json(
            {
                "oracle": args.oracle,
                "stages": [_amplitude_pairs(snap) for snap in run.snapshots],
                "top_distribution": run.top_distribution.tolist(),
                "classification": run.classification,
            }
        )
        return 0
    print(f"oracle {args.oracle}")
    for t, snap in enumerate(run.snapshots):
        print(f"stage {t}: " + " ".join(fmt_number(c) for c in snap))
    print("top distribution: " + " ".join(fmt_real(p) for p in run.top_distribution))
    print(f"classification: {run.classification}")
    return 0


def cmd_sample(args) -> int:
    final = _evolved_state(args)
    rnd = random_source(args.seed)
    counts = np.zeros(final.shape[0], dtype=np.int64)
    for _ in range(args.shots):
        idx, _post = collapse(final, rnd)
        counts[idx] += 1
    print(f"shots {args.shots}")
    for i in range(final.shape[0]):
        print(f"{i} {counts[i]} {fmt_real(counts[i] / args.shots)}")
    return 0


# ------------------------------------------------------------------ main

def _int_at_least(low: int):
    """argparse type for an integer flag; a value below ``low`` is a usage error."""

    def integer(text: str) -> int:  # argparse names the type in its error for a non-integer
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def _tolerance(text: str) -> float:
    """argparse type for ``--tol``: a non-number, nan, inf or a negative value is a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not (np.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be at least 0 and finite, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ketsim",
        description="Evolve states over weighted digraphs in deterministic, "
        "stochastic, and quantum regimes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a graph against a regime predicate")
    p_validate.add_argument("graph")
    p_validate.add_argument("--regime", required=True, choices=sorted(REGIME_ALIASES))
    p_validate.add_argument("--tol", type=_tolerance, default=1e-9)
    p_validate.set_defaults(func=cmd_validate)

    p_evolve = sub.add_parser("evolve", help="advance a state through time clicks")
    p_evolve.add_argument("graph")
    p_evolve.add_argument("--state", required=True, help="state file or literal bitstring")
    p_evolve.add_argument("--steps", type=_int_at_least(0), default=1)
    p_evolve.add_argument("--regime", default="quantum", choices=_EVOLVE_REGIMES)
    p_evolve.add_argument("--unchecked", action="store_true", help="skip regime validation")
    p_evolve.add_argument("--probabilities", action="store_true")
    p_evolve.add_argument("--tol", type=_tolerance, default=1e-9)
    p_evolve.add_argument("--format", default="text", choices=("text", "json"))
    p_evolve.set_defaults(func=cmd_evolve)

    p_scenario = sub.add_parser("scenario", help="run a canned scenario with golden checks")
    p_scenario.add_argument("name", nargs="?", choices=SCENARIO_NAMES)
    p_scenario.add_argument("--list", action="store_true", help="list scenario names")
    p_scenario.add_argument("--format", default="text", choices=("text", "json"))
    p_scenario.set_defaults(func=cmd_scenario)

    p_deutsch = sub.add_parser("deutsch", help="one-query constant/balanced decision")
    p_deutsch.add_argument("--oracle", required=True, choices=tuple(BINARY_FUNCTIONS))
    p_deutsch.add_argument("--format", default="text", choices=("text", "json"))
    p_deutsch.set_defaults(func=cmd_deutsch)

    p_sample = sub.add_parser("sample", help="evolve, then collapse-sample repeatedly")
    p_sample.add_argument("graph")
    p_sample.add_argument("--state", required=True)
    p_sample.add_argument("--steps", type=_int_at_least(0), default=1)
    p_sample.add_argument("--shots", type=_int_at_least(1), default=1000)
    p_sample.add_argument("--seed", type=_int_at_least(0), default=None)
    p_sample.add_argument("--regime", default="quantum", choices=_EVOLVE_REGIMES)
    p_sample.add_argument("--unchecked", action="store_true")
    p_sample.add_argument("--tol", type=_tolerance, default=1e-9)
    p_sample.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="ignore"):  # what overflows is rescaled or refused; no numpy warning
            return args.func(args)
    except ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
