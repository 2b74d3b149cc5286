"""Mutation fuzzing of the truth-table parser and of `bentkit analyze`.

Canonical texts for n <= 10 are mutated by flipping the case of a
character, inserting whitespace or CR, dropping or duplicating a
character, or putting a non-ASCII digit in place of a character.  Every
result must parse or raise TruthTableFormatError, the CLI must read a
file exactly as the parser reads the text, and the byte-table codec must
agree with the digit-by-digit codec it replaced, kept below as the
reference.
"""

import contextlib
import io
import random

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bentkit import BooleanFunction, TruthTableFormatError, parse_truth_table
from bentkit import serialize_truth_table
from bentkit.cli import main
from bentkit.core import MAX_VARS

# -- the reference codec: one hex digit at a time ------------------------

_HEX = "0123456789abcdef"


def reference_serialize(f: BooleanFunction) -> str:
    if f.n == 1:
        payload = f"{f.bit(0)}{f.bit(1)}"
    else:
        nibbles = f.values().reshape(-1, 4)
        digits = nibbles @ np.array([8, 4, 2, 1], dtype=np.uint8)
        payload = "".join(_HEX[d] for d in digits)
    return f"n={f.n}\nbits={payload}\n"


def reference_parse(text: str) -> BooleanFunction:
    lines = text.split("\n")
    # tolerate CR and trailing blank lines, nothing else
    lines = [ln.rstrip("\r") for ln in lines]
    while lines and lines[-1] == "":
        lines.pop()
    if len(lines) != 2:
        raise TruthTableFormatError(
            f"expected exactly two lines (n=..., bits=...), got {len(lines)}"
        )
    head, body = lines
    digits = head[2:]
    if not head.startswith("n=") or not (digits.isascii() and digits.isdigit()):
        raise TruthTableFormatError(f"malformed header line {head!r}")
    n = int(digits) if len(digits) < 10 else 0  # int() refuses over 4300 digits
    if not 1 <= n <= MAX_VARS:
        raise TruthTableFormatError(
            f"variable count {digits[:9]} outside [1, {MAX_VARS}]"
        )
    if not body.startswith("bits="):
        raise TruthTableFormatError("second line must start with 'bits='")
    payload = body[5:]
    if n == 1:
        if len(payload) != 2 or any(c not in "01" for c in payload):
            raise TruthTableFormatError(
                "n=1 payload must be two literal 0/1 characters"
            )
        return BooleanFunction(1, [int(payload[0]), int(payload[1])])
    want = (1 << n) // 4
    if len(payload) != want:
        raise TruthTableFormatError(
            f"payload carries {len(payload) * 4} bits, table needs {1 << n}"
        )
    try:
        digits = np.array([_HEX.index(c) for c in payload.lower()], dtype=np.uint8)
    except ValueError:
        raise TruthTableFormatError("payload contains non-hex characters") from None
    bits = ((digits[:, None] >> np.array([3, 2, 1, 0], dtype=np.uint8)) & 1).reshape(-1)
    return BooleanFunction(n, bits)


# -- strategies ------------------------------------------------------------

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


# whitespace that bytes.fromhex would skip, in place of payload digits
_SKIPPED_SPACE = ["n=2\nbits= \n", "n=3\nbits=0 \n", "n=4\nbits=0\x0b16\n",
                  "n=4\nbits=01\x0c\x0c\n", "n=5\nbits=00  0116\n"]


def _outcome(parse, text: str):
    """The mask the parser returns, or the message of its format error."""
    try:
        return parse(text).mask
    except TruthTableFormatError as exc:
        return str(exc)


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


@settings(max_examples=500)
@given(st.one_of(mutated_texts(), canonical_texts()))
@example(_LONE_CR)
@example(_LONG_HEADER)
@example("n=3\nbits=A5\n")
def test_parser_agrees_with_the_reference(text):
    assert _outcome(parse_truth_table, text) == _outcome(reference_parse, text)


def test_parser_agrees_with_the_reference_on_skipped_whitespace():
    for text in _SKIPPED_SPACE:
        assert _outcome(parse_truth_table, text) == _outcome(reference_parse, text)
        assert _outcome(parse_truth_table, text) == "payload contains non-hex characters"


def test_serializer_agrees_with_the_reference_at_every_small_n_and_at_20():
    rng = random.Random(2012)
    for n in [*range(1, 11), 20]:
        f = BooleanFunction(n, rng.getrandbits(1 << n))
        assert serialize_truth_table(f) == reference_serialize(f)
        assert parse_truth_table(reference_serialize(f)) == f


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
