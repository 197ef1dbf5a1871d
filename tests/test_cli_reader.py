"""The bulk graph and state reader against the per-line reference readers it replaces.

``reference_parse_graph`` and ``reference_parse_state`` below are the
readers as they stood before the bulk reader: one line at a time, naming
the first bad line.  On well-formed text the CLI's readers must build the
same array, bit for bit and with the same dtype; on text with a bad line
they must raise the same message.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ketsim import cli
from ketsim.cli import MAX_DIM, ParseFailure, parse_graph, parse_state
from ketsim.gates import ket_of_bits

# ------------------------------------------------------ reference readers


def _reference_content_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            if not line.isascii() or "_" in line:
                raise ParseFailure(f"line {lineno}: expected ASCII text without `_`, got {line!a}")
            yield lineno, line


def _reference_complex_value(fields, noun, lineno, line):
    try:
        re_part = float(fields[0])
        im_part = float(fields[1]) if len(fields) == 2 else 0.0
    except ValueError:
        raise ParseFailure(f"line {lineno}: bad {noun} in {line!r}")
    if not (math.isfinite(re_part) and math.isfinite(im_part)):
        raise ParseFailure(f"line {lineno}: {noun} must be finite in {line!r}")
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
    seen = set()
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
        m[dst, src] = _reference_complex_value(fields[2:], "weight", lineno, line)
    return _reference_real_if_possible(m)


def reference_parse_state(text, dim):
    lines = list(_reference_content_lines(text))
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
    filled = set()
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


# ----------------------------------------------------------------- tests


@settings(derandomize=True, max_examples=300, deadline=None)
@given(graph_texts(bad=False))
def test_the_bulk_reader_builds_the_reference_graph(text):
    lines = cli._content_lines(text)
    assert cli._bulk_entries(lines[1:], (int(lines[0][1].split()[1]),) * 2) is not None
    assert_same_array(parse_graph(text), reference_parse_graph(text))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(graph_texts(bad=True))
def test_a_bad_graph_line_is_named_as_the_reference_names_it(text):
    assert_same_outcome(outcome(parse_graph, text), outcome(reference_parse_graph, text))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(state_texts(bad=False))
def test_the_bulk_reader_builds_the_reference_state(case):
    text, dim = case
    assert cli._bulk_entries(cli._content_lines(text), (dim,)) is not None
    assert_same_array(parse_state(text, dim), reference_parse_state(text, dim))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(state_texts(bad=True))
def test_a_bad_state_line_is_named_as_the_reference_names_it(case):
    text, dim = case
    assert_same_outcome(outcome(parse_state, text, dim), outcome(reference_parse_state, text, dim))


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
    with pytest.raises(ParseFailure) as exc:
        parse_graph(text)
    assert str(exc.value) == message


def test_signs_and_leading_zeros_read_as_python_reads_them():
    text = "dim 4\r\n+3 03 3.0\r\n\r\n# c\r\n0 0 -0.0 0\r\n1 2 +.5 5.\r\n"
    m = parse_graph(text)
    assert m.dtype == np.complex128
    assert m[3, 3] == 3 and m[2, 1] == 0.5 + 5j
    assert_same_array(m, reference_parse_graph(text))
    assert_same_array(parse_graph("dim 2\n1 0 -0.0\n"), reference_parse_graph("dim 2\n1 0 -0.0\n"))


def test_an_empty_body_is_the_zero_array():
    assert_same_array(parse_graph("dim 3\n# no edges\n"), reference_parse_graph("dim 3\n"))
    assert_same_array(parse_state("", 4), reference_parse_state("", 4))
    assert_same_array(parse_state("# nothing\n\n", 4), reference_parse_state("", 4))


def test_a_mix_of_real_and_complex_lines_is_complex_only_when_an_imaginary_part_is_not_zero():
    real = "dim 2\n0 0 1\n1 1 1 0\n0 1 0 -0.0\n"
    assert parse_graph(real).dtype == np.float64
    assert_same_array(parse_graph(real), reference_parse_graph(real))
    mixed = "dim 2\n0 0 1\n1 1 0 1\n"
    assert parse_graph(mixed).dtype == np.complex128
    assert_same_array(parse_graph(mixed), reference_parse_graph(mixed))
