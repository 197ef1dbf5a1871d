"""Command-line front end.

Subcommands: validate, evolve, scenario, deutsch, sample.  Graphs arrive
as edge-list files (``dim <n>`` then ``<from> <to> <re> [<im>]`` lines,
``#`` comments); the matrix entry [to, from] holds the edge weight, so
columns index source vertices.  States are either a bitstring or sparse
``<index> <re> [<im>]`` lines.

Arguments in exact spellings are read from ``build_parser()``'s own table
of actions (``_plain_args``); argparse reads everything else: help,
abbreviations, ``--opt=value``, ``--`` and every usage error.

Exit codes: 0 success, 1 validation or golden-check failure or output that
cannot be written (a closed pipe exits 1 with nothing on stderr), 2 parse or
usage error.  Text output prints numbers at 12 significant digits; JSON
carries round-trip exact doubles and equals ``json.dumps(payload, indent=2)`` byte for byte
(pinned by ``tests/golden/json/``).
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import warnings
from collections.abc import Iterator
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .algebra import DEFAULT_TOL, REGIMES, as_tolerance, validate
from .deutsch import BINARY_FUNCTIONS, run_deutsch
from .dynamics import RegimeSystem, evolve
from .experiments import SCENARIO_NAMES, run_scenario, scenario
from .gates import ket_of_bits
from .measurement import basis_distribution, random_source, sample_counts

REGIME_ALIASES = {"det": "deterministic", "stoch": "stochastic", **{r: r for r in REGIMES}}

# hermitian matrices are observables, not dynamics; evolve/sample exclude them
_EVOLVE_REGIMES = tuple(k for k in sorted(REGIME_ALIASES) if k != "hermitian")


MAX_DIM = 4096  # a dense complex matrix costs 16 * dim**2 bytes: 256 MiB at this limit
MAX_SHOTS = 1 << 30  # sample_counts draws about 16M shots/s at dim 32: a minute at this limit
# --steps * max(dim**2, 128**2) matrix entries: a click costs 2-7 us below dim 128 and 0.2-1.8 ns
# per entry from dim 128 to 2048, the most in an unchecked deterministic run's int64 product (a
# strict deterministic run is O(dim * log steps)); 2-core x86-64 VM.  So at most about a minute
MAX_CLICK_WORK = 1 << 35
_BULK_LINES = 16  # below this many lines numpy's fixed cost per read outweighs the loop's per line


class ParseFailure(Exception):
    """Malformed input file (the message names the offending line) or a run beyond a limit."""


# ---------------------------------------------------------------- parsing

def _echo(value, show=repr) -> str:
    """``show(value)`` as an error message quotes a piece of a bad line: its first 80 characters and
    ``...`` when it is longer, so a message stays short however long the line."""
    text = show(value)
    return text if len(text) <= 80 else text[:80] + "..."


def _content_lines(raw: list[str], plain: bool) -> Iterator[tuple[int, str]]:
    """(line_number, stripped_text) of each line with text outside comments, ASCII without ``_``
    (checked unless ``plain``): Python's ``int`` and ``float`` read other digits, ``1_0`` as 10."""
    for lineno, full in enumerate(raw, start=1):
        if line := full.partition("#")[0].strip():
            if not (plain or line.isascii() and "_" not in line):
                raise ParseFailure(f"line {lineno}: expected ASCII text without `_`, "
                                   f"got {_echo(line, ascii)}")
            yield lineno, line


def _complex_value(fields: list[str], noun: str, lineno: int, line: str) -> complex:
    """Read the trailing `<re> [<im>]` fields: two finite floats, the second defaulting to 0."""
    try:
        re_part = float(fields[0])
        im_part = float(fields[1]) if len(fields) == 2 else 0.0
    except ValueError:
        raise ParseFailure(f"line {lineno}: bad {noun} in {_echo(line)}")
    if not (math.isfinite(re_part) and math.isfinite(im_part)):
        raise ParseFailure(f"line {lineno}: {noun} must be finite in {_echo(line)}")
    return complex(re_part, im_part)


def _real_if_possible(a: np.ndarray) -> np.ndarray:
    return a.real.copy() if np.all(a.imag == 0) else a


def _bulk_entries(body: list[str], shape: tuple[int, ...]) -> np.ndarray | None:
    """The array that plain entry lines describe, read by numpy in one pass; None if one is bad.

    A line holds one index per axis, the last axis first (a graph's ``<from> <to>`` is entry
    [to, from]), then ``<re> [<im>]``; the array is real when every imaginary part is 0."""
    k = len(shape)
    first = next((fields for line in body if (fields := line.partition("#")[0].split())), [])
    if not first:
        return np.zeros(shape)
    columns = _columns(body, k, len(first)) if len(first) in (k + 1, k + 2) else None
    if columns is None:  # lines with and without an imaginary part get one retry, padded with 0
        rows = [(r, len(r.split())) for r in (line.partition("#")[0] for line in body)]
        if {k + 1, k + 2} <= {w for _, w in rows} <= {0, k + 1, k + 2}:
            columns = _columns([r + " 0" if w == k + 1 else r for r, w in rows], k, k + 2)
        if columns is None:
            return None
    try:
        index = np.ravel_multi_index(columns[k - 1::-1], shape)
    except ValueError:  # an index out of range
        return None
    parts = columns[k:]
    ordered = np.sort(index)  # not np.unique, whose first call imports numpy.ma (about 1 MiB)
    if (ordered[1:] == ordered[:-1]).any() or not np.isfinite(parts).all():
        return None
    out = np.zeros(shape, np.complex128 if parts[1:] and parts[1].any() else np.float64)
    out.reshape(-1).real[index] = parts[0]
    if out.dtype.kind == "c":
        out.reshape(-1).imag[index] = parts[1]
    return out


def _columns(rows: list[str], k: int, width: int) -> list[np.ndarray] | None:
    """numpy's C reader on rows of k ``intp`` then ``float64`` fields, or None if it fails or warns.

    Its floats are ``float``'s (``PyOS_string_to_double``); numpy < 2 warns on an index ``1.0``."""
    dtype = np.dtype([(f"f{i}", np.intp if i < k else np.float64) for i in range(width)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(rows, dtype, comments="#", ndmin=1, unpack=True)
        except (ValueError, OverflowError, Warning):
            return None


def parse_graph(text: str) -> np.ndarray:
    """Read an edge-list description into a dense matrix."""
    raw, plain = text.splitlines(), text.isascii() and "_" not in text
    lines = _content_lines(raw, plain) if plain else iter(list(_content_lines(raw, plain)))
    lineno, header = next(lines, (1, ""))
    if not header:
        raise ParseFailure("line 1: empty graph file, expected `dim <n>`")
    fields = header.split()
    if len(fields) != 2 or fields[0] != "dim":
        raise ParseFailure(f"line {lineno}: expected `dim <n>`, got {_echo(header)}")
    try:
        dim = int(fields[1])
    except ValueError:
        raise ParseFailure(f"line {lineno}: dimension {_echo(fields[1])} is not an integer")
    if dim < 1:
        raise ParseFailure(f"line {lineno}: dimension must be positive, got {_echo(dim, str)}")
    if dim > MAX_DIM:
        raise ParseFailure(f"line {lineno}: dimension {_echo(dim, str)} exceeds the limit of {MAX_DIM}")
    body = raw[lineno:]
    array = _bulk_entries(body, (dim, dim)) if plain and len(body) >= _BULK_LINES else None
    return _edge_loop(list(lines), dim) if array is None else array


def _edge_loop(lines: list[tuple[int, str]], dim: int) -> np.ndarray:
    """Read edge lines one at a time, naming the first bad line: short files and the error path."""
    m = np.zeros((dim, dim), dtype=np.complex128)
    seen: set[tuple[int, int]] = set()
    for lineno, line in lines:
        fields = line.split()
        if len(fields) not in (3, 4):
            raise ParseFailure(
                f"line {lineno}: expected `<from> <to> <re> [<im>]`, got {_echo(line)}"
            )
        try:
            src, dst = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseFailure(f"line {lineno}: vertex indices must be integers in {_echo(line)}")
        if not (0 <= src < dim and 0 <= dst < dim):
            raise ParseFailure(f"line {lineno}: vertex out of range 0..{dim - 1} in {_echo(line)}")
        if (src, dst) in seen:
            raise ParseFailure(f"line {lineno}: duplicate edge {src} -> {dst}")
        seen.add((src, dst))
        m[dst, src] = _complex_value(fields[2:], "weight", lineno, line)
    return _real_if_possible(m)


def parse_state(text: str, dim: int) -> np.ndarray:
    """Read a state: a single bitstring, or sparse `<index> <re> [<im>]` lines.

    Well-formed sparse lines, ``_BULK_LINES`` or more in ASCII without ``_``, are read in one
    numpy pass; ``_amplitude_loop`` reads any other text, naming its first bad line.
    """
    raw, plain = text.splitlines(), text.isascii() and "_" not in text
    array = _bulk_entries(raw, (dim,)) if plain and len(raw) >= _BULK_LINES else None
    return _amplitude_loop(list(_content_lines(raw, plain)), dim) if array is None else array


def _amplitude_loop(lines: list[tuple[int, str]], dim: int) -> np.ndarray:
    """Read a lone bitstring, or amplitude lines one at a time naming the first bad line."""
    if len(lines) == 1 and " " not in lines[0][1] and set(lines[0][1]) <= {"0", "1"}:
        lineno, bits = lines[0]
        if 2 ** len(bits) != dim:  # past 64 bits, 2**n: str() of a huge int is slow, or refused
            described = 2 ** len(bits) if len(bits) <= 64 else f"2**{len(bits)}"
            raise ParseFailure(
                f"line {lineno}: bitstring of length {len(bits)} describes "
                f"dimension {described}, but the system has dimension {dim}"
            )
        return ket_of_bits(bits)
    v = np.zeros(dim, dtype=np.complex128)
    filled: set[int] = set()
    for lineno, line in lines:
        fields = line.split()
        if len(fields) not in (2, 3):
            raise ParseFailure(f"line {lineno}: expected `<index> <re> [<im>]`, got {_echo(line)}")
        try:
            idx = int(fields[0])
        except ValueError:
            raise ParseFailure(f"line {lineno}: index {_echo(fields[0])} is not an integer")
        if not 0 <= idx < dim:
            raise ParseFailure(f"line {lineno}: index {_echo(idx, str)} out of range 0..{dim - 1}")
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
    print(_json_text(obj, ""))


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # JSON's spelling of each


def _json_text(o, indent: str) -> str:
    """``o`` as ``json.dumps(o, indent=2)`` writes it, at nesting prefix ``indent``.

    Takes JSON's types as ``json`` does (subclasses too, such as ``np.float64``), dicts with
    ``str`` keys only, and raises ``TypeError`` on any other object.  The pure-Python encoder that
    ``json`` falls back to under an indent spends a generator step per value; here a list of
    finite floats and a list of ``[re, im]`` float pairs, nearly all of a payload's bytes, are
    each one pass of ``float.__repr__`` and one join."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        text = float.__repr__(o)
        return _NON_FINITE.get(text, text)
    inner = indent + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        items = _float_reprs(o) or _pair_texts(o, inner) or [_json_text(x, inner) for x in o]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in o.items()]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _float_reprs(xs) -> list[str] | None:
    """``float.__repr__`` of each item if every item is a finite float, else None."""
    try:
        texts = list(map(float.__repr__, xs))
    except TypeError:  # an item that is not a float
        return None
    return texts if all(map(math.isfinite, xs)) else None


def _pair_texts(xs, indent: str) -> list[str] | None:
    """Each item's JSON at ``indent`` if every item is a pair of finite floats, else None."""
    if not set(map(type, xs)) <= {list, tuple} or set(map(len, xs)) != {2}:
        return None
    texts = _float_reprs(list(chain.from_iterable(xs)))
    if texts is None:
        return None
    inner = indent + "  "
    pair = iter(texts)
    return list(map(f"[\n{inner}%s,\n{inner}%s\n{indent}]".__mod__, zip(pair, pair)))


# ------------------------------------------------------------ subcommands

def _load_file(path: str) -> str:
    """A graph or state file's text, read up to the most that a valid input needs: a header and a
    64-byte line per entry of a ``MAX_DIM`` x ``MAX_DIM`` graph (1 GiB).  A longer file is refused
    once that much is read, so an endless one (``/dev/zero``) is too."""
    limit = 64 * (MAX_DIM**2 + 1)
    chunks, size = [], 0
    try:
        with open(path, "rb", buffering=0) as fh:  # each read is one system call, into a buffer of its size
            while size <= limit and (chunk := fh.read(min(1 << 20, limit + 1 - size))):
                chunks.append(chunk)
                size += len(chunk)
        if size > limit:
            raise ParseFailure(f"cannot read {path}: longer than the limit of {limit} bytes")
        return b"".join(chunks).decode("utf-8")  # newlines as written: the readers split on each kind
    except (OSError, UnicodeDecodeError) as exc:
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
    dim = graph.shape[0]
    max_steps = MAX_CLICK_WORK // max(dim * dim, 128 * 128)
    if args.steps > max_steps:
        raise ParseFailure(f"--steps {args.steps} exceeds the limit of {max_steps} at dimension {dim}")
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
            raise ValueError("zero state has no probabilities")
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
        raise ParseFailure("scenario name required (or --list)")
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
    counts = sample_counts(final, args.shots, random_source(args.seed))
    print(f"shots {args.shots}")
    for i in range(final.shape[0]):
        print(f"{i} {counts[i]} {fmt_real(counts[i] / args.shots)}")
    return 0


# ------------------------------------------------------------------ main

def _int_in_range(low: int, high: int | None = None):
    """argparse type for an integer flag; a value outside ``low``..``high`` is a usage error."""

    def integer(text: str) -> int:  # argparse names the type in its error for a non-integer
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return integer


def _tolerance(text: str) -> float:
    """argparse type for ``--tol``: a non-number, nan, inf or a negative value is a usage error."""
    try:
        return as_tolerance(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be at least 0 and finite, got {text}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="ketsim",
        description="Evolve states over weighted digraphs in deterministic, "
        "stochastic, and quantum regimes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a graph against a regime predicate")
    p_validate.add_argument("graph")
    p_validate.add_argument("--regime", required=True, choices=sorted(REGIME_ALIASES))
    p_validate.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p_validate.set_defaults(func=cmd_validate)

    p_evolve = sub.add_parser("evolve", help="advance a state through time clicks")
    p_evolve.add_argument("graph")
    p_evolve.add_argument("--state", required=True, help="state file or literal bitstring")
    p_evolve.add_argument("--steps", type=_int_in_range(0), default=1)
    p_evolve.add_argument("--regime", default="quantum", choices=_EVOLVE_REGIMES)
    p_evolve.add_argument("--unchecked", action="store_true", help="skip regime validation")
    p_evolve.add_argument("--probabilities", action="store_true")
    p_evolve.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
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
    p_sample.add_argument("--steps", type=_int_in_range(0), default=1)
    p_sample.add_argument("--shots", type=_int_in_range(1, MAX_SHOTS), default=1000)
    p_sample.add_argument("--seed", type=_int_in_range(0), default=None)
    p_sample.add_argument("--regime", default="quantum", choices=_EVOLVE_REGIMES)
    p_sample.add_argument("--unchecked", action="store_true")
    p_sample.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p_sample.set_defaults(func=cmd_sample)

    return parser


@functools.cache
def _argv_grammar() -> dict:
    """Per subcommand name: its positionals, its options by exact spelling, its required options
    and the namespace before any token, all read from ``build_parser()``'s own actions.

    Actions whose default is ``SUPPRESS`` (``--help``) are left out, so their spellings are not
    read.  An option is read when it stores one value or a constant; a subcommand with another
    kind of positional, and any top-level option, is left to argparse."""
    parser = build_parser()
    kept = [a for a in parser._actions if a.default is not argparse.SUPPRESS]
    if len(kept) != 1 or not isinstance(kept[0], argparse._SubParsersAction):
        return {}
    grammar = {}
    for name, sub in kept[0].choices.items():
        actions = [a for a in sub._actions if a.default is not argparse.SUPPRESS]
        positionals = [a for a in actions if not a.option_strings]
        if not all(type(a) is argparse._StoreAction and a.nargs in (None, "?") for a in positionals):
            continue
        options = {s: a for a in actions for s in a.option_strings
                   if type(a) is argparse._StoreAction and a.nargs is None
                   or isinstance(a, argparse._StoreConstAction)}
        start = {kept[0].dest: name, **sub._defaults, **{a.dest: a.default for a in actions}}
        required = [a for a in actions if a.required and a.option_strings]
        grammar[name] = positionals, options, required, start
    return grammar


def _value(action: argparse.Action, text: str):
    """``text`` through the action's ``type``, then checked against its ``choices``, as argparse
    does; ValueError, TypeError or ArgumentTypeError where argparse would report a usage error."""
    value = text if action.type is None else action.type(text)
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"{value!r} is not a choice")
    return value


def _plain_args(argv=None) -> argparse.Namespace | None:
    """What ``build_parser().parse_args(argv)`` returns, for argv spelled plainly; else None.

    Plain is a subcommand name, then its positionals, then options in their exact spellings, a
    value being the next token and not starting with ``-``; the values go through each action's
    ``type`` and ``choices``, and a repeated option keeps its last.  Anything else returns None
    for argparse to read: help, an abbreviation, ``--opt=value``, ``--``, a value or positional
    starting with ``-``, a positional after an option, a missing or extra argument, a failed
    ``type`` or ``choices`` check and an item that is not a ``str``.  On ketsim's own argv
    shapes argparse's matcher takes 33-69 us a call, this reader 5-9 us (2-core x86-64 VM)."""
    argv = sys.argv[1:] if argv is None else argv
    if not isinstance(argv, (list, tuple)) or not all(isinstance(t, str) for t in argv):
        return None
    grammar = _argv_grammar().get(argv[0] if argv else None)
    if grammar is None:
        return None
    positionals, options, required, start = grammar
    rest = argv[1:]
    n = next((i for i, token in enumerate(rest) if token.startswith("-")), len(rest))
    if n > len(positionals) or any(a.nargs is None for a in positionals[n:]):
        return None
    values, seen = dict(start), set()
    try:
        for action, token in zip(positionals, rest[:n]):
            values[action.dest] = _value(action, token)
        for action in positionals[n:]:  # a '?' positional with no token, as argparse fills it
            default = action.default
            values[action.dest] = _value(action, default) if isinstance(default, str) else default
        while n < len(rest):
            action = options.get(rest[n])
            if action is None:
                return None
            if action.nargs == 0:
                values[action.dest] = action.const
            elif n + 1 < len(rest) and not rest[n + 1].startswith("-"):
                n += 1
                values[action.dest] = _value(action, rest[n])
            else:
                return None
            seen.add(action)
            n += 1
        for action in options.values():  # argparse types a str default that no token replaced
            if (action.type is not None and action not in seen
                    and isinstance(action.default, str) and values[action.dest] is action.default):
                values[action.dest] = action.type(action.default)
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    if any(action not in seen for action in required):
        return None
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    args = _plain_args(argv) or build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a write fault surfaces here, not in the flush at exit
        return code
    except ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed the pipe: point stdout at devnull, so the flush at exit writes what is left
        # nowhere instead of raising again (https://docs.python.org/3/library/signal.html#note-on-sigpipe).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except OSError as exc:  # reads raise ParseFailure, so this is a write: a full disk, say
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
