"""The bulk graph and state reader against the per-line reference readers it replaces.

``reference_parse_graph`` and ``reference_parse_state`` below are the
readers as they stood before the bulk reader: one line at a time, naming
the first bad line.  On well-formed text the CLI's readers must build the
same array, bit for bit and with the same dtype; on text with a bad line
they must raise the same message.
"""
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ketsim import cli
from ketsim.cli import MAX_DIM, ParseFailure, main, parse_graph, parse_state
from ketsim.gates import ket_of_bits

# ------------------------------------------------------ reference readers


def _quoted(shown):
    """A piece of a bad line as an error message quotes it: its first 80 characters, `...` if longer."""
    return shown if len(shown) <= 80 else shown[:80] + "..."


def _reference_content_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            if not line.isascii() or "_" in line:
                raise ParseFailure(
                    f"line {lineno}: expected ASCII text without `_`, got {_quoted(ascii(line))}")
            yield lineno, line


def _reference_complex_value(fields, noun, lineno, line):
    try:
        re_part = float(fields[0])
        im_part = float(fields[1]) if len(fields) == 2 else 0.0
    except ValueError:
        raise ParseFailure(f"line {lineno}: bad {noun} in {_quoted(repr(line))}")
    if not (math.isfinite(re_part) and math.isfinite(im_part)):
        raise ParseFailure(f"line {lineno}: {noun} must be finite in {_quoted(repr(line))}")
    return complex(re_part, im_part)


def _reference_real_if_possible(a):
    return a.real if np.all(a.imag == 0) else a


def reference_parse_graph(text):
    lines = list(_reference_content_lines(text))
    if not lines:
        raise ParseFailure("line 1: empty graph file, expected `dim <n>`")
    lineno, header = lines[0]
    fields = header.split()
    if len(fields) != 2 or fields[0] != "dim":
        raise ParseFailure(f"line {lineno}: expected `dim <n>`, got {_quoted(repr(header))}")
    try:
        dim = int(fields[1])
    except ValueError:
        raise ParseFailure(f"line {lineno}: dimension {_quoted(repr(fields[1]))} is not an integer")
    if dim < 1:
        raise ParseFailure(f"line {lineno}: dimension must be positive, got {_quoted(str(dim))}")
    if dim > MAX_DIM:
        raise ParseFailure(f"line {lineno}: dimension {_quoted(str(dim))} exceeds the limit of {MAX_DIM}")
    m = np.zeros((dim, dim), dtype=np.complex128)
    seen = set()
    for lineno, line in lines[1:]:
        fields = line.split()
        if len(fields) not in (3, 4):
            raise ParseFailure(
                f"line {lineno}: expected `<from> <to> <re> [<im>]`, got {_quoted(repr(line))}"
            )
        try:
            src, dst = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseFailure(f"line {lineno}: vertex indices must be integers in {_quoted(repr(line))}")
        if not (0 <= src < dim and 0 <= dst < dim):
            raise ParseFailure(f"line {lineno}: vertex out of range 0..{dim - 1} in {_quoted(repr(line))}")
        if (src, dst) in seen:
            raise ParseFailure(f"line {lineno}: duplicate edge {src} -> {dst}")
        seen.add((src, dst))
        m[dst, src] = _reference_complex_value(fields[2:], "weight", lineno, line)
    return _reference_real_if_possible(m)


def reference_parse_state(text, dim):
    lines = list(_reference_content_lines(text))
    if len(lines) == 1:
        token = lines[0][1]
        if " " not in token and set(token) <= {"0", "1"}:
            if 2 ** len(token) != dim:
                described = 2 ** len(token) if len(token) <= 64 else f"2**{len(token)}"
                raise ParseFailure(
                    f"line {lines[0][0]}: bitstring of length {len(token)} describes "
                    f"dimension {described}, but the system has dimension {dim}"
                )
            return ket_of_bits(token)
    v = np.zeros(dim, dtype=np.complex128)
    filled = set()
    for lineno, line in lines:
        fields = line.split()
        if len(fields) not in (2, 3):
            raise ParseFailure(f"line {lineno}: expected `<index> <re> [<im>]`, got {_quoted(repr(line))}")
        try:
            idx = int(fields[0])
        except ValueError:
            raise ParseFailure(f"line {lineno}: index {_quoted(repr(fields[0]))} is not an integer")
        if not 0 <= idx < dim:
            raise ParseFailure(f"line {lineno}: index {_quoted(str(idx))} out of range 0..{dim - 1}")
        if idx in filled:
            raise ParseFailure(f"line {lineno}: index {idx} listed twice")
        filled.add(idx)
        v[idx] = _reference_complex_value(fields[1:], "amplitude", lineno, line)
    return _reference_real_if_possible(v)


# ------------------------------------------------------------ strategies

# numbers where Python's int/float and numpy's own parsers disagree, overflow or round
EDGE_WEIGHTS = ["+3", "03", "3.0", "-0.0", "0", "1e-320", "5e-324", "1e300", "-1.797e308", ".5",
                "5.", "+.5e-3"]
# tokens that make a line bad, by where they stand: each is refused only by the per-line loop
BAD_INDICES = ["0.0", "1.0", "1e0", "+0.0", "99999999999999999999", "-99999999999999999999",
               str(2**63), "0x0", "nan", "inf", "\u0660", "0_0", "zero"]
BAD_WEIGHTS = ["1e999", "-1e999", "nan", "inf", "-inf", "NaN", "infinity", "0x1", "1e", "fast",
               "np.float64(1)", "1_0", "\u0663"]


def index_text(i):
    """Integer text that Python's int reads as i: plain, with a sign or with leading zeros."""
    return st.sampled_from([str(i), f"+{i}", f"0{i}", f"00{i}"])


def weight_text():
    part = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.sampled_from(EDGE_WEIGHTS),
    )
    return st.one_of(part, st.tuples(part, part).map(" ".join))


def decorate(draw, lines):
    """Interleave comments and blank lines, pad with spaces, join with LF or CRLF."""
    out = []
    for line in lines:
        for _ in range(draw(st.integers(0, 2 if draw(st.booleans()) else 0))):
            out.append(draw(st.sampled_from(["", "   ", "# a comment", "  # déjà vu 1_0"])))
        pad = draw(st.sampled_from(["", " ", "\t"]))
        out.append(pad + line + draw(st.sampled_from(["", "  ", " # note", "\t#"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(out) + (newline if draw(st.booleans()) else "")


def entry_lines(draw, n_index, dim):
    """Well-formed entry lines: distinct index tuples, weights with or without an imaginary part."""
    keys = draw(st.lists(st.tuples(*[st.integers(0, dim - 1)] * n_index), unique=True,
                         max_size=min(dim**n_index, 12)))
    return [" ".join([*(draw(index_text(i)) for i in key), draw(weight_text())]) for key in keys]


def bad_line(draw, n_index, dim, lines):
    """One line that the per-line loop refuses."""
    kind = draw(st.sampled_from(["number", "width", "range", "duplicate"]))
    if kind == "duplicate" and lines:
        key = draw(st.sampled_from(lines)).split()[:n_index]
        return " ".join([*key, "0.5"])
    if kind == "range":
        index = draw(st.sampled_from([str(dim), "-1", "99999999999999999999", str(2**63)]))
        return " ".join(["0"] * (n_index - 1) + [index, "1"])
    if kind == "width":
        return " ".join(["0"] * draw(st.sampled_from([n_index, n_index + 3, n_index + 4])))
    fields = ["0"] * n_index + ["1", "0"][:draw(st.integers(1, 2))]
    at = draw(st.integers(0, len(fields) - 1))
    fields[at] = draw(st.sampled_from(BAD_INDICES if at < n_index else BAD_WEIGHTS))
    return " ".join(fields)


@st.composite
def graph_texts(draw, bad):
    dim = draw(st.integers(1, 5))
    lines = entry_lines(draw, 2, dim)
    if bad:
        lines.insert(draw(st.integers(0, len(lines))), bad_line(draw, 2, dim, lines))
    return decorate(draw, [f"dim {dim}", *lines])


@st.composite
def state_texts(draw, bad):
    dim = draw(st.integers(1, 8))
    lines = entry_lines(draw, 1, dim)
    if bad:
        lines.insert(draw(st.integers(0, len(lines))), bad_line(draw, 1, dim, lines))
    return decorate(draw, lines), dim


def outcome(read, *args):
    try:
        return read(*args)
    except ParseFailure as exc:
        return f"ParseFailure: {exc}"


def assert_same_array(got, want):
    assert isinstance(got, np.ndarray), got
    assert isinstance(want, np.ndarray), want
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()  # signed zeros too


def assert_same_outcome(got, want):
    """The same refusal message, or the same array (text drawn as bad may still be good)."""
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_array(got, want)


def assert_bulk_builds_or_refuses(body, shape, want):
    """On the text the CLI gives it (ASCII without `_`), the bulk reader builds the reference's
    array, or returns None where the reference refuses the text."""
    text = "\n".join(body)
    if text.isascii() and "_" not in text:
        got = cli._bulk_entries(body, shape)
        if isinstance(want, str):
            assert got is None, want
        else:
            assert_same_array(got, want)


def graph_body(text):
    """The lines after the header of a graph text, and its matrix's shape."""
    raw = text.splitlines()
    lineno, header = next(cli._content_lines(raw, False))
    dim = int(header.split()[1])
    return raw[lineno:], (dim, dim)


def padded(text):
    """``text`` with enough comment lines at its end for the CLI's readers to try bulk first."""
    return text + "\n#" * cli._BULK_LINES


def is_bitstring(text):
    lines = [line for raw in text.splitlines() if (line := raw.partition("#")[0].strip())]
    return len(lines) == 1 and " " not in lines[0] and set(lines[0]) <= {"0", "1"}


# ----------------------------------------------------------------- tests


@settings(derandomize=True, max_examples=300, deadline=None)
@given(graph_texts(bad=False))
def test_the_bulk_reader_builds_the_reference_graph(text):
    want = reference_parse_graph(text)
    body, shape = graph_body(text)
    assert_same_array(cli._bulk_entries(body, shape), want)
    assert_same_array(parse_graph(text), want)
    assert_same_array(parse_graph(padded(text)), want)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(graph_texts(bad=True))
def test_a_bad_graph_line_is_named_as_the_reference_names_it(text):
    want = outcome(reference_parse_graph, text)
    assert_same_outcome(outcome(parse_graph, text), want)
    assert_same_outcome(outcome(parse_graph, padded(text)), want)
    assert_bulk_builds_or_refuses(*graph_body(text), want)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(state_texts(bad=False))
def test_the_bulk_reader_builds_the_reference_state(case):
    text, dim = case
    want = reference_parse_state(text, dim)
    assert_same_array(cli._bulk_entries(text.splitlines(), (dim,)), want)
    assert_same_array(parse_state(text, dim), want)
    assert_same_array(parse_state(padded(text), dim), want)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(state_texts(bad=True))
def test_a_bad_state_line_is_named_as_the_reference_names_it(case):
    text, dim = case
    want = outcome(reference_parse_state, text, dim)
    assert_same_outcome(outcome(parse_state, text, dim), want)
    assert_same_outcome(outcome(parse_state, padded(text), dim), want)
    if not is_bitstring(text):  # only the loop reads a bitstring
        assert_bulk_builds_or_refuses(text.splitlines(), (dim,), want)


@pytest.mark.parametrize(
    "body, reason",
    [
        ("99999999999999999999 0 1", "vertex out of range 0..2"),
        ("0 -99999999999999999999 1", "vertex out of range 0..2"),
        ("3.0 0 1", "vertex indices must be integers"),
        ("1.0 0 1", "vertex indices must be integers"),
        ("0 0 1e999", "weight must be finite"),
        ("0 0 1 nan", "weight must be finite"),
        ("0 0 inf 0", "weight must be finite"),
        ("0 0 0x1", "bad weight"),
    ],
)
def test_edge_values_are_refused_with_the_reference_message(body, reason):
    text = f"dim 3\n{body}\n1 1 0.5\n"
    message = f"line 2: {reason} in {body!r}"
    assert outcome(reference_parse_graph, text) == f"ParseFailure: {message}"
    for read in (text, padded(text)):
        with pytest.raises(ParseFailure) as exc:
            parse_graph(read)
        assert str(exc.value) == message
    assert cli._bulk_entries(text.splitlines()[1:], (3, 3)) is None


def test_signs_and_leading_zeros_read_as_python_reads_them():
    text = "dim 4\r\n+3 03 3.0\r\n\r\n# c\r\n0 0 -0.0 0\r\n1 2 +.5 5.\r\n"
    m = parse_graph(text)
    assert m.dtype == np.complex128
    assert m[3, 3] == 3 and m[2, 1] == 0.5 + 5j
    assert_same_array(m, reference_parse_graph(text))
    assert_same_array(parse_graph(padded(text)), m)
    assert_same_array(parse_graph("dim 2\n1 0 -0.0\n"), reference_parse_graph("dim 2\n1 0 -0.0\n"))


def test_an_empty_body_is_the_zero_array():
    assert_same_array(parse_graph("dim 3\n# no edges\n"), reference_parse_graph("dim 3\n"))
    assert_same_array(parse_state("", 4), reference_parse_state("", 4))
    assert_same_array(parse_state("# nothing\n\n", 4), reference_parse_state("", 4))


def test_a_mix_of_real_and_complex_lines_is_complex_only_when_an_imaginary_part_is_not_zero():
    real = "dim 2\n0 0 1\n1 1 1 0\n0 1 0 -0.0\n"
    mixed = "dim 2\n0 0 1\n1 1 0 1\n"
    for text in (real, padded(real), mixed, padded(mixed)):
        assert_same_array(parse_graph(text), reference_parse_graph(text))
    assert parse_graph(padded(real)).dtype == np.float64
    assert parse_graph(padded(mixed)).dtype == np.complex128


# ------------------------------------- where str.split and numpy could disagree

# Python's str.split() and splitlines() treat these as blanks or line breaks (NUL as neither), and
# numpy's C tokenizer has its own rules; only the first three leave a line in one piece
ODD_BLANKS = ["\t", "\x1f", " \t\x1f ", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\r", "\r\n",
              "\x00", " \x00 "]
ODD_NEWLINES = ["\r", "\x0b", "\x0c", "\x1e"]
BLANK_LINES = ["", " ", "\t", "\x1f", " \x0c ", "\x1c\t", "#", " # x"]
ODD_INDICES = ["1.0", "1e0", "+3", "03", "99999999999999999999", "12345678901234567890"]


def rarely(common, odd):
    """Mostly ``common``, one draw in eight ``odd``."""
    return st.integers(0, 7).flatmap(lambda i: odd if i == 0 else common)


@st.composite
def odd_body(draw, n_index, dim):
    """Entry lines with odd blanks between tokens, `#` mid-line, blank-only lines and odd indices.

    Each oddity is drawn rarely enough that most texts stay well formed.
    """
    keys = draw(st.lists(st.tuples(*[st.integers(0, dim - 1)] * n_index), unique=True,
                         min_size=1, max_size=min(dim**n_index, 8)))
    blank = rarely(st.just(" "), st.sampled_from(ODD_BLANKS))
    out = []
    for key in keys:
        if draw(st.integers(0, 3)) == 0:
            out.append(draw(st.sampled_from(BLANK_LINES)))
        tokens = [draw(rarely(index_text(i), st.sampled_from(ODD_INDICES))) for i in key]
        tokens += draw(weight_text()).split()
        if draw(st.integers(0, 3)) == 0:  # a comment from here on: mid-line, or after the weight
            at = draw(st.integers(0, len(tokens)))
            tokens.insert(at, draw(st.sampled_from(["#", "#0", "# 1"])))
        line = tokens[0]
        for token in tokens[1:]:
            line += draw(blank) + token
        out.append(draw(st.sampled_from(["", " ", "\t", "\x1f"])) + line)
    newline = draw(rarely(st.sampled_from(["\n", "\r\n"]), st.sampled_from(ODD_NEWLINES)))
    return newline.join(out) + (newline if draw(st.booleans()) else "")


def assert_bulk_agrees_with_the_loop(body, shape, loop):
    """Equal arrays (values, dtype, C-contiguity) from both readers, or bulk None and a refusal."""
    got = cli._bulk_entries(body.splitlines(), shape)
    lines = list(cli._content_lines(body.splitlines(), False))
    if got is None:
        with pytest.raises(ParseFailure):
            loop(lines, shape[0])
        return
    want = loop(lines, shape[0])
    assert got.flags.c_contiguous and want.flags.c_contiguous
    assert_same_array(got, want)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.integers(1, 4).flatmap(lambda dim: st.tuples(st.just(dim), odd_body(2, dim))))
def test_odd_graph_text_is_read_alike_or_refused(case):
    dim, body = case
    assert_bulk_agrees_with_the_loop(body, (dim, dim), cli._edge_loop)
    text = f"dim {dim}\n{body}"
    assert_same_outcome(outcome(parse_graph, text), outcome(reference_parse_graph, text))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.integers(1, 6).flatmap(lambda dim: st.tuples(st.just(dim), odd_body(1, dim))))
def test_odd_state_text_is_read_alike_or_refused(case):
    dim, body = case
    if not is_bitstring(body):  # only the loop reads a bitstring
        assert_bulk_agrees_with_the_loop(body, (dim,), cli._amplitude_loop)
    assert_same_outcome(outcome(parse_state, body, dim), outcome(reference_parse_state, body, dim))


def test_a_file_may_mix_lines_with_and_without_an_imaginary_part_in_either_order():
    for body in ["0 0 1\n1 1 0 -0.0\n0 1 2 3\n", "1 1 0 -0.0\n\n0 0 1 # c\n0 1 2 3\n"]:
        assert_bulk_agrees_with_the_loop(body, (2, 2), cli._edge_loop)
        assert cli._bulk_entries(body.splitlines(), (2, 2)) is not None


def test_the_bulk_reader_holds_no_more_memory_than_the_loop():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    weights = m.T.reshape(-1).tolist()  # column by column: source vertex s, then target d
    text = "dim 64\n" + "".join(
        f"{i // 64} {i % 64} {w.real!r} {w.imag!r}\n" for i, w in enumerate(weights)
    )

    def peak(read):
        read()  # first calls fill caches that are not the reader's
        tracemalloc.start()
        try:
            read()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    bulk = peak(lambda: parse_graph(text))
    loop = peak(lambda: cli._edge_loop(list(cli._content_lines(text.splitlines(), True))[1:], 64))
    assert cli._bulk_entries(text.splitlines()[1:], (64, 64)) is not None
    assert bulk <= loop, (bulk, loop)


def test_plain_files_from_bulk_lines_on_are_read_by_one_numpy_pass_and_shorter_ones_by_the_loop(
    monkeypatch,
):
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kw: calls.append(1) or loadtxt(*args, **kw))

    def texts(n):
        graph = "dim 8\n" + "".join(f"{i % 8} {i // 8} 0.25\n" for i in range(n))
        return graph, "".join(f"{i} 0.25 -1\n" for i in range(n))

    def refuse(*args):
        raise AssertionError("read by the other reader")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_edge_loop", refuse)
        patch.setattr(cli, "_amplitude_loop", refuse)
        for n in (cli._BULK_LINES, 40):
            graph, state = texts(n)
            assert_same_array(parse_graph(graph), reference_parse_graph(graph))
            assert_same_array(parse_state(state, 64), reference_parse_state(state, 64))
    assert len(calls) == 4
    monkeypatch.setattr(cli, "_bulk_entries", refuse)
    for n in (1, cli._BULK_LINES - 1):
        graph, state = texts(n)
        assert_same_array(parse_graph(graph), reference_parse_graph(graph))
        assert_same_array(parse_state(state, 64), reference_parse_state(state, 64))


@pytest.mark.parametrize(
    "text, reads",
    [
        ("dim 2\n0 0 1\n0 1 nan\n", 1),  # read, then refused
        ("dim 2\n0 0 1\n0 1 x\n", 1),
        ("dim 2\n0 0 1\n0 0 1\n", 1),
        ("dim 2\n0 0 1\n0 1 1 0 0\n", 1),  # the widths are not 3 and 4: no padded retry
        ("dim 2\n0 0 1\n1.0 1 1 0\n", 2),  # 3 and 4 fields: one padded retry
        ("dim 2\n0 0 1 0\n1 1 1\n0 1 x\n", 2),
        ("dim 2\n0 0\n", 0),  # no read when the first line's width is wrong
        ("dim 2\n0 0 \u0661\n", 0),  # nor when the text is not ASCII
    ],
)
def test_a_refused_file_pays_at_most_one_numpy_read_per_width(monkeypatch, text, reads):
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kw: calls.append(1) or loadtxt(*args, **kw))
    text = padded(text)
    got = outcome(parse_graph, text)
    assert len(calls) == reads
    assert got.startswith("ParseFailure") and got == outcome(reference_parse_graph, text)


# ------------------------------------------------ whole files through the command line


def hadamard_pair_graph(odd):
    """H (x) H as 16 edge lines; ``odd`` spells it with CRLF, a comment line, a blank line and a
    trailing comment or a -0.0 imaginary part on alternate lines."""
    lines = ["dim 4", "# H (x) H", ""] if odd else ["dim 4"]
    for s in range(4):
        for d in range(4):
            edge = f"{s} {d} {'-0.5' if bin(s & d).count('1') == 1 else '0.5'}"
            lines.append((f"{edge} # edge" if (s + d) % 2 == 0 else f"{edge} -0.0") if odd else edge)
    newline = "\r\n" if odd else "\n"
    return (newline.join(lines) + newline).encode()


def run_cli(capsys, *argv):
    """``main(argv)`` with every warning an error: exit code, stdout and stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(list(argv))
    return (code, *capsys.readouterr())


def test_an_oddly_spelled_graph_evolves_as_its_plain_twin(tmp_path, capsys):
    runs = []
    for name, odd in (("clean", False), ("crlf", True)):
        graph = tmp_path / f"{name}.graph"
        graph.write_bytes(hadamard_pair_graph(odd))
        runs.append(run_cli(capsys, "evolve", str(graph), "--state", "01", "--steps", "3",
                            "--probabilities"))
    assert runs[0][0] == 0 and runs[0][2] == ""
    assert runs[1] == runs[0]


def test_an_index_numpy_before_2_read_through_float_is_refused_naming_its_line(tmp_path, capsys):
    graph = tmp_path / "float_index.graph"
    graph.write_bytes(hadamard_pair_graph(False) + b"1.0 1 0.5\n")
    assert run_cli(capsys, "validate", str(graph), "--regime", "quantum") == (
        2, "", "error: line 18: vertex indices must be integers in '1.0 1 0.5'\n"
    )


# ------------------------------------------------ long lines and long files


def test_a_long_bad_line_is_quoted_cut_at_a_fixed_width(tmp_path, capsys):
    graph = tmp_path / "h.graph"
    graph.write_bytes(hadamard_pair_graph(False))
    line = " ".join(["0"] * 2048)  # 2,048 fields: 4,095 characters
    quoted = repr(line)[:80] + "..."
    state = tmp_path / "long.state"
    for text, lineno in ((line, 1), (f"0 1\n{line}\n", 2)):
        state.write_text(text)
        message = f"line {lineno}: expected `<index> <re> [<im>]`, got {quoted}"
        assert run_cli(capsys, "evolve", str(graph), "--state", str(state)) == (2, "", f"error: {message}\n")
        assert outcome(reference_parse_state, text, 4) == f"ParseFailure: {message}"
    nines = "9" * 100

    def cut(shown):
        return shown[:80] + "..."

    cases = [  # graph text, and its message quoting the bad line or field cut at 80 characters
        (f"dim 2\n0 1 {nines}x\n", f"line 2: bad weight in {cut(repr(f'0 1 {nines}x'))}"),
        (f"dim 2\n{line}\n", f"line 2: expected `<from> <to> <re> [<im>]`, got {quoted}"),
        (f"dim 2\n0 {nines} 1\n", f"line 2: vertex out of range 0..1 in {cut(repr(f'0 {nines} 1'))}"),
        (f"dim {nines}\n", f"line 1: dimension {cut(nines)} exceeds the limit of {MAX_DIM}"),
        (f"dim -{nines}\n", f"line 1: dimension must be positive, got {cut('-' + nines)}"),
        (f"dim x{nines}\n", f"line 1: dimension {cut(repr('x' + nines))} is not an integer"),
        (f"{line}\n", f"line 1: expected `dim <n>`, got {quoted}"),
        (f"dim 2\n0 1 1{chr(0x661) * 30}\n",
         f"line 2: expected ASCII text without `_`, got {cut(ascii('0 1 1' + chr(0x661) * 30))}"),
    ]
    for text, message in cases:
        assert outcome(parse_graph, text) == f"ParseFailure: {message}"
        assert outcome(reference_parse_graph, text) == f"ParseFailure: {message}"
    for text, message in ((f"{nines} 1\n", f"line 1: index {cut(nines)} out of range 0..3"),
                          (f"x{nines} 1\n", f"line 1: index {cut(repr('x' + nines))} is not an integer"),
                          ("1" * 20000, "line 1: bitstring of length 20000 describes dimension 2**20000, "
                                        "but the system has dimension 4")):
        assert outcome(parse_state, text, 4) == f"ParseFailure: {message}"
        assert outcome(reference_parse_state, text, 4) == f"ParseFailure: {message}"


def test_a_file_longer_than_the_read_limit_is_refused(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_DIM", 4)
    limit = 64 * (4**2 + 1)  # a header and one 64-byte line per entry of a 4 x 4 graph
    graph, state = tmp_path / "g.graph", tmp_path / "s.state"
    body = "dim 2\n0 0 1\n1 1 1\n"
    state.write_text("0 1\n")
    graph.write_text(body + "#" * (limit - len(body)))
    assert run_cli(capsys, "evolve", str(graph), "--state", str(state), "--regime", "det") == (
        0, "dim 2\n0 1\n1 0\n", "")
    refused = f"error: cannot read {{}}: longer than the limit of {limit} bytes\n"
    graph.write_text(body + "#" * (limit - len(body) + 1))
    assert run_cli(capsys, "validate", str(graph), "--regime", "det") == (2, "", refused.format(graph))
    graph.write_text(body)
    state.write_text("0 1\n" + "#" * limit)
    assert run_cli(capsys, "evolve", str(graph), "--state", str(state), "--regime", "det") == (
        2, "", refused.format(state))


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_an_endless_file_is_refused_once_the_limit_is_read():
    # in a child under a 2 GiB address-space cap, so a reader without a limit fails fast
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31)); "
            "from ketsim import cli; cli.MAX_DIM = 4; "
            "sys.exit(cli.main(['validate', '/dev/zero', '--regime', 'det']))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: cannot read /dev/zero: longer than the limit of {64 * 17} bytes\n"


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_a_file_read_from_a_pipe_is_read_whole():
    # 256 KiB of comments, more than a pipe holds at once, so the reader sees short reads; the edges
    # come last, so a reader that stopped at a short read would see none
    text = "dim 2\n" + "# padding\n" * 26214 + "0 1 1\n1 0 1\n"
    code = "import sys; from ketsim import cli; sys.exit(cli.main(['validate', '/dev/stdin', '--regime', 'det']))"
    done = subprocess.run([sys.executable, "-c", code], input=text, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "OK\n", "")
