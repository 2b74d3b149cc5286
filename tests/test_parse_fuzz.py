"""Mutation fuzzing of the truth-table parser and of `bentkit analyze`.

Canonical texts for n <= 10 are mutated by flipping the case of a
character, inserting whitespace or CR, dropping or duplicating a
character, or putting a non-ASCII digit in place of a character.  Every
result must parse or raise TruthTableFormatError, and the CLI must read
a file exactly as the parser reads the text.
"""

import contextlib
import io

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bentkit import BooleanFunction, TruthTableFormatError, parse_truth_table
from bentkit import serialize_truth_table
from bentkit.cli import main

# Arabic-Indic three, superscript two, fullwidth three, Devanagari one
_NON_ASCII_DIGITS = "\u0663\u00b2\uff13\u0967"
_WHITESPACE = " \t\r\n\u00a0"


@st.composite
def canonical_texts(draw):
    n = draw(st.integers(1, 10))
    return serialize_truth_table(BooleanFunction(n, draw(st.integers(0, (1 << (1 << n)) - 1))))


@st.composite
def mutated_texts(draw):
    text = draw(canonical_texts())
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text) - 1))
        op = draw(st.sampled_from(["case", "space", "drop", "duplicate", "digit"]))
        if op == "case":
            text = text[:i] + text[i].swapcase() + text[i + 1:]
        elif op == "space":
            text = text[:i] + draw(st.sampled_from(_WHITESPACE)) + text[i:]
        elif op == "drop" and len(text) > 1:
            text = text[:i] + text[i + 1:]
        elif op == "duplicate":
            text = text[:i] + text[i] + text[i:]
        elif op == "digit":
            text = text[:i] + draw(st.sampled_from(_NON_ASCII_DIGITS)) + text[i + 1:]
    return text


_LONE_CR = "n=2\rbits=8\n"  # a CR line break that newline translation would hide
_LONG_HEADER = "n=" + "9" * 5000 + "\nbits=00\n"  # beyond int()'s digit limit


def _parses(text: str) -> bool:
    try:
        parse_truth_table(text)
    except TruthTableFormatError:
        return False
    return True


@settings(max_examples=300)
@given(mutated_texts())
@example(_LONE_CR)
@example(_LONG_HEADER)
def test_mutated_text_parses_or_raises_the_format_error(text):
    _parses(text)  # any other exception fails the test


@given(canonical_texts())
def test_canonical_text_round_trips(text):
    assert serialize_truth_table(parse_truth_table(text)) == text


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mutated_texts())
@example(text=_LONE_CR)
@example(text=_LONG_HEADER)
def test_analyze_reads_a_file_as_the_parser_reads_its_text(tmp_path, text):
    path = tmp_path / "f.tt"
    path.write_bytes(text.encode())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze", str(path)])
    if _parses(text):
        assert code == 0 and err.getvalue() == ""
    else:
        assert code == 2 and out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
