"""Truth-table representation and the elementary Boolean-function algebra.

Index convention: a point x = (x_1, ..., x_n) of F_2^n maps to the table
index i = sum_j x_j * 2^(n-j), i.e. x_1 is the most significant bit and
x_n varies fastest.  Every table, spectrum and ANF in the package is
indexed this way.  Truth tables are stored bit-packed in a Python int
(bit i of the int is f at index i); numpy views are materialised on
demand for the transform kernels.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import TruthTableFormatError

# A 2^26-bit table packs into 8 MiB, but its int64 Walsh spectrum takes
# 512 MiB, which walsh_transform allocates once and also uses as its work
# buffer; builds reach this cap.
MAX_VARS = 26


def encode_point(x: Sequence[int]) -> int:
    """Map a bit vector (x_1, ..., x_n) to its table index."""
    i = 0
    for b in x:
        if b not in (0, 1):
            raise ValueError(f"vector entries must be bits, got {b!r}")
        i = (i << 1) | b
    return i


def decode_point(i: int, n: int) -> tuple[int, ...]:
    """Inverse of encode_point for n variables."""
    return tuple((i >> (n - j)) & 1 for j in range(1, n + 1))


def _as_index(a, n: int) -> int:
    """Accept a point either as a bit vector of length n or a raw index."""
    if isinstance(a, (int, np.integer)):
        a = int(a)
        if not 0 <= a < (1 << n):
            raise ValueError(f"index {a} out of range for n={n}")
        return a
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


def _pack_bits(bits: np.ndarray) -> int:
    packed = np.packbits(bits.astype(np.uint8, copy=False), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


class BooleanFunction:
    """A function F_2^n -> F_2 held as a bit-packed truth table, built from
    an int mask (bit i = value at index i) or from 2^n entries 0/1 in a
    sequence or array; anything else is a ValueError."""

    __slots__ = ("_n", "_mask", "_spectrum", "_weight")

    def __init__(self, n: int, table):
        if not 1 <= n <= MAX_VARS:
            raise ValueError(f"variable count must be in [1, {MAX_VARS}], got {n}")
        size = 1 << n
        if isinstance(table, (int, np.integer)):
            mask = int(table)
            if mask < 0 or mask >> size:
                raise ValueError("table mask has bits beyond 2^n entries")
        else:
            bits = np.asarray(table)
            if bits.shape != (size,):
                raise ValueError(f"table length must be {size}, got shape {bits.shape}")
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
        return cls(n, ((1 << (1 << n)) - 1) if bit else 0)

    @classmethod
    def variable(cls, n: int, j: int) -> "BooleanFunction":
        """The coordinate function x_j."""
        if not 1 <= j <= n:
            raise ValueError(f"variable index {j} out of range for n={n}")
        return cls.linear(n, 1 << (n - j))

    @classmethod
    def linear(cls, n: int, mask: int, const: int = 0) -> "BooleanFunction":
        """The affine function x -> mask.x (+ const), mask index-encoded."""
        if not 0 <= mask < (1 << n):
            raise ValueError(f"linear mask {mask} out of range for n={n}")
        idx = np.arange(1 << n, dtype=np.uint32)
        bits = np.bitwise_count(idx & np.uint32(mask)) & 1
        if const:
            bits ^= 1
        return cls(n, bits)

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
        return (self._mask >> i) & 1

    def evaluate(self, x: Sequence[int]) -> int:
        vec = tuple(x)
        if len(vec) != self._n:
            raise ValueError(f"expected {self._n} coordinates, got {len(vec)}")
        return self.bit(encode_point(vec))

    __call__ = evaluate

    def values(self) -> np.ndarray:
        """The full table as a fresh uint8 array in index order."""
        return _unpack_bits(self._mask, self._n)

    def signs(self) -> np.ndarray:
        """(-1)^f as an int64 array."""
        return 1 - 2 * self.values().astype(np.int64)

    # -- algebra -------------------------------------------------------

    def _check_same_n(self, other: "BooleanFunction") -> None:
        if self._n != other._n:
            raise ValueError(
                f"variable counts differ: {self._n} vs {other._n}"
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
        """x -> f(x xor a)."""
        shift = _as_index(a, self._n)
        if shift == 0:
            return self
        idx = np.arange(1 << self._n, dtype=np.intp)
        return BooleanFunction(self._n, self.values()[idx ^ shift])

    def derivative(self, a) -> "BooleanFunction":
        """D_a f: x -> f(x) xor f(x xor a)."""
        return self ^ self.translate(a)

    def restrict(self, j: int, b: int) -> "BooleanFunction":
        """Fix x_j = b; remaining variables keep their relative order."""
        if self._n < 2:
            raise ValueError("cannot restrict a 1-variable function")
        if not 1 <= j <= self._n:
            raise ValueError(f"variable index {j} out of range for n={self._n}")
        if b not in (0, 1):
            raise ValueError(f"restriction value must be a bit, got {b!r}")
        p = self._n - j  # bit position of x_j inside the index
        block = 1 << p
        sub = self.values().reshape(-1, 2 * block)[:, b * block : (b + 1) * block]
        return BooleanFunction(self._n - 1, sub.reshape(-1))


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

    Parseval's identity (sum of squares = 2^(2n)) is enforced at
    construction; a sequence failing it cannot be a Walsh spectrum.  An
    int64 array is held as given, not copied, and made read-only.
    """

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: np.ndarray):
        values = np.asarray(values, dtype=np.int64)
        if values.shape != (1 << n,):
            raise ValueError(f"spectrum length must be {1 << n}")
        if int(np.dot(values, values)) != 1 << (2 * n):
            raise ValueError("Parseval check failed: not a Walsh spectrum")
        values.flags.writeable = False
        self.n = n
        self.values = values

    def __getitem__(self, w) -> int:
        return int(self.values[_as_index(w, self.n)])

    def __len__(self) -> int:
        return 1 << self.n

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WalshSpectrum)
            and self.n == other.n
            and bool(np.array_equal(self.values, other.values))
        )

    def __repr__(self) -> str:
        return f"WalshSpectrum(n={self.n}, max_abs={self.max_abs})"

    @property
    def max_abs(self) -> int:
        """max |W(w)| from the two extremes, with no |W| array.  As the
        Parseval check above holds, max_abs^2 >= 2^n, equal iff bent."""
        return max(int(self.values.max()), -int(self.values.min()))


def _byte_walsh() -> np.ndarray:
    """Row b is the 8-point Walsh transform of the 3-variable function
    whose table is byte b (bit x = value at index x), as int32."""
    x = np.arange(8)
    fx = (np.arange(256)[:, None, None] >> x) & 1  # [b, 1, x]
    wx = np.bitwise_count(x[:, None] & x).astype(np.int64) & 1  # [w, x]
    return (1 - 2 * (fx ^ wx)).sum(axis=-1, dtype=np.int32)


_BYTE_WALSH = _byte_walsh()
_BYTE_WALSH.flags.writeable = False


# Stages with h below this run block by block: a block's two int32 halves
# take 2 x 256 KiB, which stays inside a 2 MiB L2 cache.
_BLOCK = 1 << 16


def _butterfly(src: np.ndarray, dst: np.ndarray, h: int) -> None:
    """One stage from src into dst: each (x, y) pair h apart -> (x + y, x - y)."""
    s, d = src.reshape(-1, 2, h), dst.reshape(-1, 2, h)
    x, y = s[:, 0], s[:, 1]
    np.add(x, y, out=d[:, 0])
    np.subtract(x, y, out=d[:, 1])


def walsh_transform(f: BooleanFunction) -> WalshSpectrum:
    """W_f(w) = sum_x (-1)^(f(x) xor w.x), in O(n 2^n).

    The int64 result is the only spectrum-sized allocation: its two int32
    halves are the work buffers, and each butterfly stage reads one half
    and writes the other.  Byte j of the packed mask is the table of
    x -> f(8j + x) on the three fastest variables, so a gather from
    `_BYTE_WALSH` does the first three stages.  Tables of n < 3 are
    repeated to fill a byte, which scales W by 2^(3-n) on w < 2^n.  The
    gather and the stages with h < `_BLOCK` run one block at a time, the
    rest over the whole array; every partial sum lies within
    +-2^n <= 2^26, so int32 is exact.  The last stage lands in the upper
    half, which is widened forward in place.  The result is cached on the
    function, which is immutable.
    """
    if f._spectrum is None:
        n = f.n
        mask = f.mask if n >= 3 else f.mask * (0xFF // ((1 << (1 << n)) - 1))
        raw = _mask_bytes(mask, n)
        size = 8 * raw.shape[0]
        out = np.empty(size, np.int64)
        halves = out.view(np.int32).reshape(2, size)
        block = min(_BLOCK, size)
        first = (size.bit_length() - 1) & 1  # so the last stage writes halves[1]
        for lo in range(0, size, block):
            hi, side = lo + block, first
            # mode="clip" writes straight into out; "raise" would buffer it
            dst = halves[side, lo:hi].reshape(-1, 8)
            _BYTE_WALSH.take(raw[lo // 8 : hi // 8], axis=0, out=dst, mode="clip")
            h = 8
            while h < block:
                _butterfly(halves[side, lo:hi], halves[side ^ 1, lo:hi], h)
                side ^= 1
                h *= 2
        while h < size:
            _butterfly(halves[side], halves[side ^ 1], h)
            side ^= 1
            h *= 2
        # Widen over halving chunks [lo, lo + c): the int64 writes end at
        # int32 offset 2 lo + 2 c = size + lo, where the chunk's source
        # begins, so a chunk neither overlaps its source nor overwrites
        # entries still to be read.  Only the short tail would overlap, so
        # it is copied out first.
        top = halves[1]
        lo, c = 0, size // 2
        while c >= 1 << 10:
            out[lo : lo + c] = top[lo : lo + c]
            lo += c
            c //= 2
        out[lo:] = top[lo:].copy()
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
        if not 1 <= n <= MAX_VARS:
            raise ValueError(f"variable count must be in [1, {MAX_VARS}], got {n}")
        if mask < 0 or mask >> (1 << n):
            raise ValueError("coefficient mask has bits beyond 2^n entries")
        self.n = n
        self.mask = mask

    def monomials(self) -> list[tuple[int, ...]]:
        """Sorted variable-index tuples of the nonzero coefficients."""
        out = []
        for idx in np.nonzero(_unpack_bits(self.mask, self.n))[0]:
            out.append(
                tuple(j for j in range(1, self.n + 1) if (int(idx) >> (self.n - j)) & 1)
            )
        return out

    @property
    def degree(self) -> int:
        """Max monomial size; 0 for the zero function by convention."""
        nz = np.flatnonzero(_unpack_bits(self.mask, self.n))
        return int(np.bitwise_count(nz).max(initial=0))

    def degree_of_variable(self, i: int) -> int:
        """Size of the longest monomial containing x_i (0 if x_i absent)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"variable index {i} out of range for n={self.n}")
        bit = 1 << (self.n - i)
        nz = np.flatnonzero(_unpack_bits(self.mask, self.n))
        nz = nz[(nz & bit) != 0]
        return int(np.bitwise_count(nz).max(initial=0))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AnfPolynomial)
            and self.n == other.n
            and self.mask == other.mask
        )

    def __repr__(self) -> str:
        return f"AnfPolynomial(n={self.n}, degree={self.degree})"


def _mobius_kernel(a: np.ndarray) -> np.ndarray:
    """The binary Moebius butterfly, in place on a fresh array."""
    size = a.shape[0]
    h = 1
    while h < size:
        b = a.reshape(-1, 2 * h)
        b[:, h:] ^= b[:, :h]
        h *= 2
    return a


def mobius(f: BooleanFunction) -> AnfPolynomial:
    """Truth table -> ANF coefficients (binary Moebius transform)."""
    return AnfPolynomial(f.n, _pack_bits(_mobius_kernel(f.values())))


def mobius_inv(p: AnfPolynomial) -> BooleanFunction:
    """ANF coefficients -> truth table (the transform is an involution)."""
    return BooleanFunction(p.n, _pack_bits(_mobius_kernel(_unpack_bits(p.mask, p.n))))


def degree(f: BooleanFunction) -> int:
    return mobius(f).degree


def degree_of_variable(f: BooleanFunction, i: int) -> int:
    return mobius(f).degree_of_variable(i)
