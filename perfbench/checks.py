"""Independent references for checking bentkit's outputs.

Nothing here imports bentkit.  The truth-table codec, the integer fast
Walsh-Hadamard transform, the binary Moebius transform and the GF(2^m)
arithmetic are written from the published definitions, so a defect in
the program cannot hide behind the same defect in its checker.

Conventions (from the bentkit README): table index i = sum x_j 2^(n-j),
so x_1 is the most significant index bit; a file is "n=<n>\\nbits=<hex>\\n"
with bit i of the table in bit (3 - i mod 4) of hex digit i // 4, and
two literal 0/1 characters for n = 1.
"""

from __future__ import annotations

import numpy as np

# -- truth-table codec ----------------------------------------------------


def decode(text: str) -> tuple[int, np.ndarray]:
    """File text -> (n, uint8 table in index order)."""
    head, body, tail = text.split("\n")
    if tail != "" or not head.startswith("n=") or not body.startswith("bits="):
        raise ValueError("not a truth-table file")
    n = int(head[2:])
    payload = body[5:]
    if n == 1:
        if len(payload) != 2 or set(payload) - {"0", "1"}:
            raise ValueError("n=1 payload must be two 0/1 characters")
        return 1, np.array([int(c) for c in payload], dtype=np.uint8)
    if len(payload) != (1 << n) // 4 or payload != payload.lower():
        raise ValueError("payload length or case is wrong")
    raw = bytes.fromhex(payload + "0" * (len(payload) % 2))
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="big")
    return n, bits[: 1 << n]


def encode(bits: np.ndarray) -> str:
    """uint8 table in index order -> file text."""
    n = len(bits).bit_length() - 1
    if n == 1:
        return f"n=1\nbits={int(bits[0])}{int(bits[1])}\n"
    digits = np.packbits(bits.astype(np.uint8), bitorder="big").tobytes().hex()
    return f"n={n}\nbits={digits[: (1 << n) // 4]}\n"


def from_mask(mask: int, n: int) -> np.ndarray:
    """A bit-packed table (bit i = value at index i) as a uint8 array."""
    raw = mask.to_bytes(max(1, (1 << n) // 8), "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[: 1 << n]


# -- transforms -------------------------------------------------------------


def walsh(bits: np.ndarray) -> np.ndarray:
    """W(w) = sum_x (-1)^(f(x) + w.x) by the radix-2 butterfly, in int32,
    along the last axis (so a stack of tables goes through at once)."""
    a = 1 - 2 * bits.astype(np.int32)
    h = 1
    while h < a.shape[-1]:
        pairs = a.reshape(-1, 2, h)
        total = pairs[:, 0] + pairs[:, 1]
        pairs[:, 1] = pairs[:, 0] - pairs[:, 1]
        pairs[:, 0] = total
        h *= 2
    return a


def anf(bits: np.ndarray) -> np.ndarray:
    """Binary Moebius transform along the last axis: the coefficient a_I
    at subset index I."""
    a = bits.astype(np.uint8)
    h = 1
    while h < a.shape[-1]:
        pairs = a.reshape(-1, 2, h)
        pairs[:, 1] ^= pairs[:, 0]
        h *= 2
    return a


def weights(n: int) -> np.ndarray:
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint32))


def degree(coeffs: np.ndarray) -> int:
    """Algebraic degree from ANF coefficients (0 for the zero function)."""
    n = coeffs.size.bit_length() - 1
    support = np.nonzero(coeffs)[0]
    return int(weights(n)[support].max()) if support.size else 0


def nonlinearity(spectrum: np.ndarray) -> int:
    n = spectrum.size.bit_length() - 1
    return (1 << (n - 1)) - int(np.abs(spectrum).max()) // 2


def is_bent(spectrum: np.ndarray) -> bool:
    n = spectrum.size.bit_length() - 1
    return n % 2 == 0 and bool(np.all(np.abs(spectrum) == 1 << (n // 2)))


def resiliency(spectrum: np.ndarray) -> int:
    """Largest r with W = 0 on all weights <= r; -1 if unbalanced."""
    if spectrum[0] != 0:
        return -1
    n = spectrum.size.bit_length() - 1
    nonzero = weights(n)[np.nonzero(spectrum)[0]]
    return int(nonzero.min()) - 1


# -- GF(2^m) ------------------------------------------------------------------


def _polymod(a: int, q: int) -> int:
    while a.bit_length() >= q.bit_length():
        a ^= q << (a.bit_length() - q.bit_length())
    return a


def smallest_irreducible(m: int) -> int:
    """The numerically smallest degree-m polynomial over GF(2) that no
    polynomial of degree 1..m//2 divides."""
    for poly in range(1 << m, 1 << (m + 1)):
        if all(_polymod(poly, q) for q in range(2, 1 << (m // 2 + 1))):
            return poly
    raise AssertionError("every degree has an irreducible polynomial")


def mul_table(m: int) -> np.ndarray:
    """T[p, q] = p * q in GF(2)[X] / (smallest irreducible of degree m)."""
    poly = smallest_irreducible(m)
    elems = np.arange(1 << m, dtype=np.int64)
    shifted = elems.copy()  # p * X^j, reduced
    table = np.zeros((1 << m, 1 << m), dtype=np.int64)
    for j in range(m):
        table ^= shifted[:, None] * ((elems[None, :] >> j) & 1)
        shifted = shifted << 1
        shifted ^= np.where(shifted >> m, poly, 0)
    return table


def quotient_table(m: int) -> np.ndarray:
    """Q[p, q] = p / q with the convention p / 0 = 0."""
    table = mul_table(m)
    inverse = np.zeros(1 << m, dtype=np.int64)
    rows, cols = np.nonzero(table == 1)
    inverse[cols] = rows
    quotient = table[:, inverse]
    quotient[:, 0] = 0
    return quotient


def psap_table(theta: list[int], m: int) -> np.ndarray:
    """theta(x / y) on 2m variables; the element of a block (x_1..x_m)
    carries x_j in bit j-1, i.e. it is the block read bit-reversed."""
    block = np.arange(1 << m)
    elem = np.zeros_like(block)
    for j in range(m):
        elem |= ((block >> j) & 1) << (m - 1 - j)
    q = quotient_table(m)[elem[:, None], elem[None, :]]
    return np.asarray(theta, dtype=np.uint8)[q].reshape(-1)


# -- Maiorana-McFarland and the restricted indirect sum ----------------------


def mm_table(perm: list[int], u: np.ndarray) -> np.ndarray:
    """x . perm(y) + u(y), x in the first k variables, y in the last k."""
    k = len(perm).bit_length() - 1
    x = np.arange(1 << k, dtype=np.uint32)
    dot = np.bitwise_count(x[:, None] & np.asarray(perm, dtype=np.uint32)[None, :]) & 1
    return (dot.astype(np.uint8) ^ u[None, :]).reshape(-1)


def restrictions(bits: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    """(f with x_j = 0, f with x_j = 1), the other variables kept in order."""
    n = bits.size.bit_length() - 1
    blocks = bits.reshape(-1, 2, 1 << (n - j))
    return blocks[:, 0].reshape(-1), blocks[:, 1].reshape(-1)


def restricted_sum(
    f: np.ndarray, mu: int, g: np.ndarray, rho: int, variant: str
) -> np.ndarray:
    """fa(x) + gb(y) + (f0 + f1)(x) (g0 + g1)(y) over the restrictions of
    f at x_mu and g at y_rho; variant picks the base restrictions a, b."""
    f0, f1 = restrictions(f, mu)
    g0, g1 = restrictions(g, rho)
    fa = f1 if variant[0] == "1" else f0
    gb = g1 if variant[1] == "1" else g0
    return (fa[:, None] ^ gb[None, :] ^ ((f0 ^ f1)[:, None] & (g0 ^ g1)[None, :])).reshape(-1)


def bent_claims(bits: np.ndarray) -> dict:
    """The `verified` block a bent build must report, from our spectrum."""
    spectrum = walsh(bits)
    return {"bent": is_bent(spectrum), "nonlinearity": nonlinearity(spectrum)}


class CheckFailed(Exception):
    """An output differs from what the method or the reference promises."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)
