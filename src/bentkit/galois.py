"""GF(2^m) arithmetic in polynomial basis, 1 <= m <= MAX_VARS / 2 = 13.

The degree is capped there because the field's only use is the PS_ap
class, whose functions take 2m variables, at most MAX_VARS.

Elements are m-bit ints, bit j = coefficient of X^j.  Each degree uses
the lexicographically smallest irreducible reduction polynomial so that
identical parameters always produce identical truth tables.  Division
follows the x/0 = 0 convention used by the partial-spread bent class.
Scalar products are bit-serial; inverses and whole quotient tables use
exp/log tables over the smallest generator of the multiplicative group.
"""

from __future__ import annotations

import numpy as np

from .core import MAX_VARS, _integer


def _polymod(a: int, q: int) -> int:
    """a mod q over GF(2)[X]."""
    dq = q.bit_length() - 1
    while a.bit_length() - 1 >= dq:
        a ^= q << (a.bit_length() - 1 - dq)
    return a


def is_irreducible(poly: int, m: int) -> bool:
    """Exhaustive trial division by every factor of degree 1..m//2."""
    if poly.bit_length() - 1 != m:
        return False
    if m == 1:
        return True
    for q in range(2, 1 << (m // 2 + 1)):
        if _polymod(poly, q) == 0:
            return False
    return True


def smallest_irreducible(m: int) -> int:
    """The least irreducible polynomial of degree m; every degree has one."""
    return next(c for c in range(1 << m, 1 << (m + 1)) if is_irreducible(c, m))


class GaloisField:
    """GF(2^m) with a fixed irreducible reduction polynomial."""

    __slots__ = ("m", "reduction_poly", "order", "exp", "log")

    def __init__(self, m: int):
        self.m = m = _integer(m, "extension degree", 1, MAX_VARS // 2)
        self.reduction_poly = smallest_irreducible(m)
        self.order = 1 << m
        self.exp, self.log = self._tables()

    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """exp[k] = g^k for k < order - 1 and log[exp[k]] = k, where g is
        the smallest generator; log[0] is 0 but means nothing."""
        for g in range(1, self.order):
            powers, x = [1], g
            while x != 1:
                powers.append(x)
                x = self.mul(x, g)
            if len(powers) == self.order - 1:
                break
        exp = np.array(powers, dtype=np.int64)
        log = np.zeros(self.order, dtype=np.int64)
        log[exp] = np.arange(self.order - 1)
        return exp, log

    def mul(self, p: int, q: int) -> int:
        p = _integer(p, "element", 0, self.order - 1)
        q = _integer(q, "element", 0, self.order - 1)
        acc = 0
        while q:
            if q & 1:
                acc ^= p
            p <<= 1
            if p >> self.m:
                p ^= self.reduction_poly
            q >>= 1
        return acc

    def inv(self, p: int) -> int:
        p = _integer(p, "element", 0, self.order - 1)
        if p == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int(self.exp[-self.log[p]])  # g^(-k) = exp[order - 1 - k]

    def div(self, p: int, q: int) -> int:
        """p/q with the convention p/0 = 0."""
        p = _integer(p, "element", 0, self.order - 1)
        q = _integer(q, "element", 0, self.order - 1)
        return self.mul(p, self.inv(q)) if q else 0

    def trace(self, p: int) -> int:
        """Absolute trace sum_{i<m} p^(2^i); always lands in {0, 1}."""
        acc = p = _integer(p, "element", 0, self.order - 1)
        t = p
        for _ in range(self.m - 1):
            t = self.mul(t, t)
            acc ^= t
        if acc not in (0, 1):
            raise RuntimeError(f"trace of {p} is {acc}: the modulus is not irreducible")
        return acc

    def reverse_bits(self, v):
        """Element <-> block index, elementwise on integer arrays too.

        This is the identification of F_2^m with the field: a block index
        of m variables holds x_1 in its top bit and an element holds x_j
        in bit j-1, so each is the other read backwards.
        """
        out = 0
        for j in range(self.m):
            out |= ((v >> j) & 1) << (self.m - 1 - j)
        return out

    def __repr__(self) -> str:
        return f"GaloisField(m={self.m}, poly={self.reduction_poly:#x})"

