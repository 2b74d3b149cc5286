"""Truth-table representation and the elementary Boolean-function algebra.

Index convention: a point x = (x_1, ..., x_n) of F_2^n maps to the table
index i = sum_j x_j * 2^(n-j), i.e. x_1 is the most significant bit and
x_n varies fastest.  Every table, spectrum and ANF in the package is
indexed this way.  Truth tables are stored bit-packed in a Python int
(bit i of the int is f at index i).  Moebius, the affine tables,
translate, restrict and the ANF degree work on the int or its bytes;
numpy views are materialised on demand for the Walsh kernel and the
support scans.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

from .errors import TruthTableFormatError

# A 2^26-bit table packs into 8 MiB, but its Walsh spectrum, which
# walsh_transform allocates once in int32 and works in, takes 256 MiB;
# builds reach this cap.
MAX_VARS = 26


def _integer(value, name: str, lo=-math.inf, hi=math.inf) -> int:
    """The integer argument `name` read with operator.index, so a NumPy
    integer counts and a float, None or str is a TypeError; a bool counts
    only as a bit, where [lo, hi] is [0, 1].  Outside [lo, hi] is a
    ValueError.  Every integer is read here but BooleanFunction's arrays."""
    try:
        if value.__class__ is bool and (lo, hi) != (0, 1):
            raise TypeError
        v = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if not lo <= v <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {v}")
    return v


def encode_point(x: Sequence[int]) -> int:
    """Map a bit vector (x_1, ..., x_n) to its table index."""
    i = 0
    for b in x:
        i = (i << 1) | _integer(b, "vector entry", 0, 1)
    return i


def _as_index(a, n: int) -> int:
    """Accept a point either as a bit vector of length n or a raw index."""
    if not hasattr(a, "__iter__"):
        return _integer(a, "index", 0, (1 << n) - 1)
    vec = tuple(a)
    if len(vec) != n:
        raise ValueError(f"expected a vector of length {n}, got {len(vec)}")
    return encode_point(vec)


def _table_bytes(n: int) -> int:
    return max(1, (1 << n) // 8)


def _mask_bytes(mask: int, n: int) -> np.ndarray:
    """Bit-packed table -> its little-endian bytes, a read-only uint8 array."""
    return np.frombuffer(mask.to_bytes(_table_bytes(n), "little"), np.uint8)


def _unpack_bits(mask: int, n: int) -> np.ndarray:
    """Bit-packed table -> uint8 array of length 2^n (index order)."""
    return np.unpackbits(_mask_bytes(mask, n), bitorder="little")[: 1 << n]


def _doubling_table(first: int, width: int, lines: Sequence[int]) -> int:
    """The packed table of 2^len(lines) rows of `width` bits, a power of
    two: row x is `first` XOR line s for every set bit s of x.  Step s
    copies the 2^s rows so far above themselves, XORed with line s
    repeated over every row.  A line repeats as bytes: a row of under a
    byte is first repeated to fill one, and cut to the table while the
    table is under a byte."""
    unit = max(width, 8)  # the bits of one repeat: a row, or a byte of rows
    size, fill = unit // 8, ((1 << unit) - 1) // ((1 << width) - 1)
    table = first
    for s, line in enumerate(lines):
        span = width << s
        if line:  # a zero line, as most of a coordinate mask's are, repeats as 0
            head = (line * fill & ((1 << min(span, unit)) - 1)).to_bytes(size, "little")
            line = int.from_bytes(head * -(-span // unit), "little")
        table |= (table ^ line) << span
    return table


# the n coordinate masks of each n up to _MASKED_VARS, about 0.25 MiB in all
_MASKED_VARS = 16
_COORDINATE_MASKS: dict[int, list[int]] = {}


def _coordinate_mask(n: int, s: int) -> int:
    """The packed table of x -> bit s of x, linear(n, 1 << s), kept for n
    up to _MASKED_VARS."""
    if n > _MASKED_VARS:
        return BooleanFunction.linear(n, 1 << s).mask
    if n not in _COORDINATE_MASKS:
        _COORDINATE_MASKS[n] = [BooleanFunction.linear(n, 1 << j).mask for j in range(n)]
    return _COORDINATE_MASKS[n][s]


def _nibble_select(p: int, b: int) -> bytes:
    """A bytes.translate table taking a byte, the table on index bits
    0-2, to the nibble of its bits x with bit p of x equal to b."""
    keep = np.array([x for x in range(8) if x >> p & 1 == b])
    nibble = ((np.arange(256)[:, None] >> keep) & 1) @ (1 << np.arange(4))
    return nibble.astype(np.uint8).tobytes()


_NIBBLE_SELECT = [[_nibble_select(p, b) for b in (0, 1)] for p in range(3)]

# entry v: the largest weight wt(x) among the set bits x of the byte v
_TOP_WEIGHT = (
    ((np.arange(256)[:, None] >> np.arange(8)) & 1) * np.bitwise_count(np.arange(8))
).max(axis=1)


def _pack_bits(bits: np.ndarray) -> int:
    packed = np.packbits(bits.astype(np.uint8, copy=False), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


class BooleanFunction:
    """A function F_2^n -> F_2 held as a bit-packed truth table, built from
    an integer mask (bit i = value at index i) or from 2^n entries 0/1 in an
    integer or bool sequence or array; another type is a TypeError."""

    __slots__ = ("_n", "_mask", "_spectrum", "_weight")

    def __init__(self, n: int, table):
        n = _integer(n, "variable count", 1, MAX_VARS)
        size = 1 << n
        if not hasattr(table, "__len__"):
            mask = _integer(table, "table mask", 0)
            if mask >> size:
                raise ValueError("table mask has bits beyond 2^n entries")
        else:
            bits = np.asarray(table)
            if bits.shape != (size,):
                raise ValueError(f"table length must be {size}, got shape {bits.shape}")
            if bits.dtype.kind not in "biu":  # _integer's rule on the whole array
                raise TypeError(f"table entries must be bits (0 or 1), not {bits.dtype}")
            if np.count_nonzero((bits != 0) & (bits != 1)):
                raise ValueError("table entries must be bits (0 or 1)")
            mask = _pack_bits(bits)
        self._n = n
        self._mask = mask
        self._spectrum = None
        self._weight = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "BooleanFunction":
        return cls(n, 0)

    @classmethod
    def constant(cls, n: int, bit: int) -> "BooleanFunction":
        return cls.linear(n, 0, bit)

    @classmethod
    def variable(cls, n: int, j: int) -> "BooleanFunction":
        """The coordinate function x_j."""
        n = _integer(n, "variable count", 1, MAX_VARS)
        return cls.linear(n, 1 << (n - _integer(j, "variable index", 1, n)))

    @classmethod
    def linear(cls, n: int, mask: int, const: int = 0) -> "BooleanFunction":
        """The affine function x -> mask.x (+ const), mask index-encoded."""
        n = _integer(n, "variable count", 1, MAX_VARS)
        mask = _integer(mask, "linear mask", 0, (1 << n) - 1)
        const = _integer(const, "constant", 0, 1)
        return cls(n, _doubling_table(const, 1, [mask >> s & 1 for s in range(n)]))

    # -- basic accessors ----------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def mask(self) -> int:
        """The bit-packed table (bit i = value at index i)."""
        return self._mask

    @property
    def weight(self) -> int:
        if self._weight is None:
            self._weight = self._mask.bit_count()
        return self._weight

    @property
    def is_balanced(self) -> bool:
        return self.weight == 1 << (self._n - 1)

    def bit(self, i: int) -> int:
        """Table value at index i."""
        return (self._mask >> _integer(i, "index", 0, (1 << self._n) - 1)) & 1

    def evaluate(self, x: Sequence[int]) -> int:
        vec = tuple(x)
        if len(vec) != self._n:
            raise ValueError(f"expected {self._n} coordinates, got {len(vec)}")
        return self.bit(encode_point(vec))

    __call__ = evaluate

    def values(self) -> np.ndarray:
        """The full table as a fresh uint8 array in index order."""
        return _unpack_bits(self._mask, self._n)

    # -- algebra -------------------------------------------------------

    def _check_same_n(self, other: "BooleanFunction") -> None:
        if self._n != other._n:
            raise ValueError(
                f"inputs must share a variable count, got {self._n} and {other._n}"
            )

    def __xor__(self, other: "BooleanFunction") -> "BooleanFunction":
        self._check_same_n(other)
        return BooleanFunction(self._n, self._mask ^ other._mask)

    def __and__(self, other: "BooleanFunction") -> "BooleanFunction":
        self._check_same_n(other)
        return BooleanFunction(self._n, self._mask & other._mask)

    def __invert__(self) -> "BooleanFunction":
        return BooleanFunction(self._n, self._mask ^ ((1 << (1 << self._n)) - 1))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BooleanFunction)
            and self._n == other._n
            and self._mask == other._mask
        )

    def __hash__(self) -> int:
        return hash((self._n, self._mask))

    def __repr__(self) -> str:
        if self._n <= 6:
            body = format(self._mask, f"0{max(1, (1 << self._n) // 4)}x")
        else:
            body = f"weight={self.weight}"
        return f"BooleanFunction(n={self._n}, {body})"

    def translate(self, a) -> "BooleanFunction":
        """x -> f(x xor a): for each set bit s of a, the two halves of
        every 2^(s+1)-bit period of the packed table swap places."""
        shift = _as_index(a, self._n)
        if shift == 0:
            return self
        mask = self._mask
        for s in range(shift.bit_length()):
            if shift >> s & 1:
                high, w = _coordinate_mask(self._n, s), 1 << s
                mask = (mask & high) >> w | (mask << w) & high
        return BooleanFunction(self._n, mask)

    def derivative(self, a) -> "BooleanFunction":
        """D_a f: x -> f(x) xor f(x xor a)."""
        return self ^ self.translate(a)

    def restrict(self, j: int, b: int) -> "BooleanFunction":
        """Fix x_j = b; remaining variables keep their relative order."""
        if self._n < 2:
            raise ValueError("cannot restrict a 1-variable function")
        p = self._n - _integer(j, "variable index", 1, self._n)  # x_j's index bit
        bit = _integer(b, "restriction value", 0, 1)
        raw = self._mask.to_bytes(_table_bytes(self._n), "little")
        if p >= 3:  # each half is a run of 2^(p-3) whole bytes
            rows = np.frombuffer(raw, np.uint8).reshape(-1, 2, 1 << (p - 3))
            mask = int.from_bytes(rows[:, bit].tobytes(), "little")
        else:  # byte 2k gives the low nibble of byte k, byte 2k + 1 the high
            select = _NIBBLE_SELECT[p][bit]
            low = int.from_bytes(raw[0::2].translate(select), "little")
            mask = low | int.from_bytes(raw[1::2].translate(select), "little") << 4
        return BooleanFunction(self._n - 1, mask)


# -- truth-table file format ------------------------------------------
#
# line 1: n=<decimal>
# line 2: bits=<payload>, LF-terminated, no trailing whitespace.
# For n >= 2 the payload is 2^n / 4 lowercase hex digits; bit i of the
# table is bit (3 - (i mod 4)) of hex digit floor(i/4) (MSB-first within
# a digit).  For n = 1 the payload is two literal 0/1 characters giving
# f(0) and f(1).  Byte j of a packed mask holds bits 8j..8j+7 LSB first
# and the payload reads each byte MSB first: both ways reverse every byte.

_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def serialize_truth_table(f: BooleanFunction) -> str:
    if f.n == 1:
        payload = f"{f.bit(0)}{f.bit(1)}"
    else:
        raw = f.mask.to_bytes(_table_bytes(f.n), "little")
        payload = raw.translate(_REVERSED).hex()[: (1 << f.n) // 4]
    return f"n={f.n}\nbits={payload}\n"


def parse_truth_table(text: str) -> BooleanFunction:
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
        return BooleanFunction(1, int(payload[::-1], 2))
    if len(payload) != (1 << n) // 4:
        raise TruthTableFormatError(
            f"payload carries {len(payload) * 4} bits, table needs {1 << n}"
        )
    try:  # fromhex skips ASCII whitespace, which shows as missing bytes
        raw = bytes.fromhex(payload + "0" * (n == 2))
        if len(raw) != _table_bytes(n):
            raise ValueError
    except ValueError:
        raise TruthTableFormatError("payload contains non-hex characters") from None
    return BooleanFunction(n, int.from_bytes(raw.translate(_REVERSED), "little"))


# -- Walsh transform ---------------------------------------------------


class WalshSpectrum:
    """The 2^n signed values W_f(w), same index encoding as the table.

    The values are integers in [-2^n, 2^n], held in int32, and their
    squares sum to 2^(2n) (Parseval's identity); a sequence failing
    either cannot be a Walsh spectrum.  An int32 array is held as given,
    not copied, and made read-only.
    """

    __slots__ = ("n", "_raw", "_values", "_max_abs")

    def __init__(self, n: int, values: np.ndarray):
        n = _integer(n, "variable count", 1, MAX_VARS)
        raw = np.asarray(values)
        if raw.shape != (1 << n,):
            raise ValueError(f"spectrum length must be {1 << n}")
        if raw.dtype.kind not in "iu":
            raise TypeError(f"spectrum values must be integers, not {raw.dtype}")
        max_abs = max(int(raw.max()), -int(raw.min()))
        if max_abs > 1 << n:
            raise ValueError(f"spectrum values must lie in [-2^{n}, 2^{n}]")
        raw = raw.astype(np.int32, copy=False)
        # Each square is at most 2^(2n), so a row of 2^(62 - 2n) of them
        # sums in int64 without wrapping; einsum casts as it goes.
        rows = raw.reshape(-1, min(raw.shape[0], 1 << (62 - 2 * n)))
        squares = sum(np.einsum("ij,ij->i", rows, rows, dtype=np.int64).tolist())
        if squares != 1 << (2 * n):
            raise ValueError("Parseval check failed: not a Walsh spectrum")
        raw.flags.writeable = False
        self.n = n
        self._raw = raw
        self._values = None
        self._max_abs = max_abs

    @property
    def values(self) -> np.ndarray:
        """The spectrum as a read-only int64 array, made on first read.
        The package itself reads the int32 array, so that no int64 copy
        is made on its paths."""
        if self._values is None:
            self._values = self._raw.astype(np.int64)
            self._values.flags.writeable = False
        return self._values

    def __getitem__(self, w) -> int:
        return int(self._raw[_as_index(w, self.n)])

    def __len__(self) -> int:
        return 1 << self.n

    def __iter__(self):
        # __getitem__ raises ValueError past the end, not the IndexError
        # that ends Python's iteration by index
        return map(int, self._raw)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WalshSpectrum)
            and self.n == other.n
            and bool(np.array_equal(self._raw, other._raw))
        )

    def __repr__(self) -> str:
        return f"WalshSpectrum(n={self.n}, max_abs={self.max_abs})"

    @property
    def max_abs(self) -> int:
        """max |W(w)|, taken at construction from the two extremes, with
        no |W| array.  As Parseval's identity holds, max_abs^2 >= 2^n,
        equal iff bent."""
        return self._max_abs


def _byte_walsh() -> np.ndarray:
    """Row b is the 8-point Walsh transform of the 3-variable function
    whose table is byte b (bit x = value at index x), as int16."""
    x = np.arange(8)
    fx = (np.arange(256)[:, None, None] >> x) & 1  # [b, 1, x]
    wx = np.bitwise_count(x[:, None] & x).astype(np.int64) & 1  # [w, x]
    return (1 - 2 * (fx ^ wx)).sum(axis=-1, dtype=np.int16)


_BYTE_WALSH = _byte_walsh()
_BYTE_WALSH.flags.writeable = False


# Stages with h below this run block by block.  A block of the int32
# result takes 512 KiB and its three int16 work blocks 768 KiB, which
# stays inside a 2 MiB L2 cache.
_BLOCK = 1 << 17

# The first stage run in int32.  After the stage at pair distance h every
# partial sum lies within +-2h, so the gather and the stages with h below
# this stay within +-2^14 and are exact in int16, at half the bytes.
_WIDE = 1 << 14


def _butterfly(src: np.ndarray, dst: np.ndarray, h: int, tmp: np.ndarray) -> None:
    """One int16 stage from src into dst: each (x, y) pair h apart ->
    (x + y, x - y).

    Both operations run contiguous over every offset-h pair, and only the
    rows that need each result keep it: dst[i] = src[i] + src[i+h] is
    right where bit h of i is clear, tmp[i+h] = src[i] - src[i+h] where it
    is set, and the set rows are copied over.  tmp is as long as src and
    of its dtype.
    """
    np.add(src[:-h], src[h:], out=dst[:-h])
    np.subtract(src[:-h], src[h:], out=tmp[h:])
    dst.reshape(-1, 2, h)[:, 1] = tmp.reshape(-1, 2, h)[:, 1]


def _butterfly_in_place(a: np.ndarray, h: int) -> None:
    """One int32 stage over a in place: each (x, y) pair h apart ->
    (x + y, x - y), as x += y; y *= -2; y += x over chunks of at most
    `_BLOCK // 2` pairs.  With |x|, |y| <= h, every value stays within
    +-2h, so the stage needs no scratch."""
    pairs = a.reshape(-1, 2, h)
    cols = min(h, _BLOCK // 2)
    rows = _BLOCK // 2 // cols
    for i in range(0, pairs.shape[0], rows):
        for j in range(0, h, cols):
            chunk = pairs[i : i + rows, :, j : j + cols]
            x, y = chunk[:, 0], chunk[:, 1]
            x += y
            y *= -2
            y += x


def walsh_transform(f: BooleanFunction) -> WalshSpectrum:
    """W_f(w) = sum_x (-1)^(f(x) xor w.x), in O(n 2^n).

    The int32 result is the only spectrum-sized allocation; int32 is exact
    as every partial sum lies within +-2^n <= 2^26.  Byte j of the packed
    mask is the table of x -> f(8j + x) on the three fastest variables,
    so a gather from `_BYTE_WALSH` does the first three stages.  Tables
    of n < 3 are repeated to fill a byte, which scales W by 2^(3-n) on
    w < 2^n.

    The gather and the stages with h < `_BLOCK` run one block at a time,
    the rest over the whole array.  In a block, the gather and the stages
    with h < `_WIDE` run in int16, which is exact there (see `_WIDE`),
    each from one of two int16 blocks into the other, with a third as
    scratch (see `_butterfly`).  The int16 result is widened into the
    result's block, and every later stage runs in place there (see
    `_butterfly_in_place`).  The result is cached on the function, which
    is immutable.
    """
    if f._spectrum is None:
        n = f.n
        mask = f.mask if n >= 3 else f.mask * (0xFF // ((1 << (1 << n)) - 1))
        raw = _mask_bytes(mask, n)
        size = 8 * raw.shape[0]
        block = min(_BLOCK, size)
        out = np.empty(size, np.int32)
        x, y, tmp = np.empty((3, block), np.int16)
        for lo in range(0, size, block):
            hi = lo + block
            # mode="clip" writes straight into x; "raise" would buffer it
            dst = x.reshape(-1, 8)
            _BYTE_WALSH.take(raw[lo // 8 : hi // 8], axis=0, out=dst, mode="clip")
            h = 8
            while h < min(block, _WIDE):
                _butterfly(x, y, h, tmp)
                x, y = y, x
                h *= 2
            out[lo:hi] = x
            while h < block:
                _butterfly_in_place(out[lo:hi], h)
                h *= 2
        while h < size:
            _butterfly_in_place(out, h)
            h *= 2
        if n < 3:
            out = out[: 1 << n] >> (3 - n)
        f._spectrum = WalshSpectrum(n, out)
    return f._spectrum


# -- algebraic normal form --------------------------------------------


class AnfPolynomial:
    """Moebius coefficients, bit-packed: bit I = a_I for prod_{l in I} x_l.

    Subset index encoding matches the table encoding: variable j sits at
    bit (n - j) of I.
    """

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int):
        n = _integer(n, "variable count", 1, MAX_VARS)
        mask = _integer(mask, "coefficient mask")
        if mask < 0 or mask >> (1 << n):
            raise ValueError("coefficient mask has bits beyond 2^n entries")
        self.n = n
        self.mask = mask

    def monomials(self) -> list[tuple[int, ...]]:
        """Sorted variable-index tuples of the nonzero coefficients."""
        out = []
        for idx in np.flatnonzero(_unpack_bits(self.mask, self.n)):
            out.append(
                tuple(j for j in range(1, self.n + 1) if (int(idx) >> (self.n - j)) & 1)
            )
        return out

    @property
    def degree(self) -> int:
        """Max monomial size; 0 for the zero function by convention.
        Byte k holds the subsets I = 8k + x, of size wt(k) + wt(x), so
        the degree is the max over nonzero bytes of wt(k) plus the
        largest wt(x) among the byte's set bits."""
        raw = _mask_bytes(self.mask, self.n)
        k = np.flatnonzero(raw)
        return int((np.bitwise_count(k) + _TOP_WEIGHT[raw[k]]).max(initial=0))

    def degree_per_variable(self) -> list[int]:
        """degree_of_variable for x_1, ..., x_n in turn."""
        return [self.degree_of_variable(j) for j in range(1, self.n + 1)]

    def degree_of_variable(self, i: int) -> int:
        """Size of the longest monomial containing x_i (0 if x_i absent)."""
        i = _integer(i, "variable index", 1, self.n)
        # the monomials that hold x_i, whose index has bit n - i set
        holding = self.mask & _coordinate_mask(self.n, self.n - i)
        return AnfPolynomial(self.n, holding).degree

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AnfPolynomial)
            and self.n == other.n
            and self.mask == other.mask
        )

    def __repr__(self) -> str:
        return f"AnfPolynomial(n={self.n}, degree={self.degree})"


def _mobius(mask: int, n: int) -> int:
    """The binary Moebius butterfly on a packed table: at stage s every
    index with bit s set takes the XOR of the entry 2^s below it."""
    for s in range(n):
        mask ^= (mask << (1 << s)) & _coordinate_mask(n, s)
    return mask


def mobius(f: BooleanFunction) -> AnfPolynomial:
    """Truth table -> ANF coefficients (binary Moebius transform)."""
    return AnfPolynomial(f.n, _mobius(f.mask, f.n))


def mobius_inv(p: AnfPolynomial) -> BooleanFunction:
    """ANF coefficients -> truth table (the transform is an involution)."""
    return BooleanFunction(p.n, _mobius(p.mask, p.n))


def degree(f: BooleanFunction) -> int:
    return mobius(f).degree


def degree_of_variable(f: BooleanFunction, i: int) -> int:
    return mobius(f).degree_of_variable(i)
