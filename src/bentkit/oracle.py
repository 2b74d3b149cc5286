"""Independent brute-force references for certifying the fast paths.

Every check here goes straight to a definition: the Walsh sum over all
(w, x) pairs, the minimum distance over every affine function, and the
statistical-independence test over every variable subset.  Agreement
with the fast paths is exact integer equality, zero tolerance.

Size caps keep the full suite fast; exceeding one raises CapError.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analysis import is_bent, is_resilient, nonlinearity, resiliency_report
from .core import BooleanFunction, WalshSpectrum, _integer, walsh_transform
from .errors import CapError

WALSH_CAP = 14
NONLINEARITY_CAP = 12
RESILIENCY_CAP = 10

_SIGN_MATRIX_CACHE: dict[int, np.ndarray] = {}
_SIGN_MATRIX_MAX_N = 12  # 2^24 int8 entries = 16 MiB


def _sign_matrix(n: int) -> np.ndarray:
    """H[w, x] = (-1)^(w.x) built by Sylvester doubling."""
    mat = _SIGN_MATRIX_CACHE.get(n)
    if mat is None:
        mat = np.array([[1]], dtype=np.int8)
        block = np.array([[1, 1], [1, -1]], dtype=np.int8)
        for _ in range(n):
            mat = np.kron(mat, block)
        mat.flags.writeable = False
        _SIGN_MATRIX_CACHE[n] = mat
    return mat


def naive_walsh(f: BooleanFunction) -> WalshSpectrum:
    """Definitional spectrum: W(w) = sum_x (-1)^(f(x) xor w.x).

    Evaluated as the full 2^n x 2^n sign-matrix sum (O(4^n)); no
    butterfly anywhere on this path.
    """
    if f.n > WALSH_CAP:
        raise CapError(f"naive Walsh transform capped at n={WALSH_CAP}")
    signs = f.signs()
    if f.n <= _SIGN_MATRIX_MAX_N:
        values = _sign_matrix(f.n) @ signs
    else:
        size = 1 << f.n
        idx = np.arange(size, dtype=np.uint32)
        parity = (np.bitwise_count(idx) & 1).astype(np.int64)
        values = np.empty(size, dtype=np.int64)
        for w in range(size):
            values[w] = np.dot(signs, 1 - 2 * parity[idx & np.uint32(w)])
    return WalshSpectrum(f.n, values)


def exhaustive_nonlinearity(f: BooleanFunction) -> int:
    """Minimum Hamming distance to all 2^(n+1) affine functions."""
    if f.n > NONLINEARITY_CAP:
        raise CapError(f"exhaustive nonlinearity capped at n={NONLINEARITY_CAP}")
    size = 1 << f.n
    idx = np.arange(size, dtype=np.uint32)
    parity = np.bitwise_count(idx) & 1
    bits = f.values()
    best = size
    for w in range(size):
        lin = parity[idx & np.uint32(w)]
        d = int(np.count_nonzero(bits ^ lin))
        best = min(best, d, size - d)
    return best


def correlation_immune_by_definition(f: BooleanFunction, r: int) -> bool:
    """True iff the output is statistically independent of every set of
    r input variables: each subfunction fixed on such a set must carry
    weight wt(f)/2^r."""
    if f.n > RESILIENCY_CAP:
        raise CapError(f"definition-level resiliency capped at n={RESILIENCY_CAP}")
    r = _integer(r, "order r", 0, f.n)
    total = f.weight
    if total % (1 << r):
        return False
    expect = total >> r
    bits = f.values()
    idx = np.arange(1 << f.n, dtype=np.uint32)
    for subset in itertools.combinations(range(1, f.n + 1), r):
        mask = 0
        for j in subset:
            mask |= 1 << (f.n - j)
        sel = idx & np.uint32(mask)
        for assignment in range(1 << r):
            # spread the assignment bits onto the subset's positions
            pattern = 0
            for k, j in enumerate(subset):
                if (assignment >> (r - 1 - k)) & 1:
                    pattern |= 1 << (f.n - j)
            if int(bits[sel == np.uint32(pattern)].sum()) != expect:
                return False
    return True


def resiliency_by_definition(f: BooleanFunction, r: int) -> bool:
    """True iff f is r-resilient: balanced plus r-th order independence."""
    r = _integer(r, "order r", 0, f.n)
    if not f.is_balanced:
        if f.n > RESILIENCY_CAP:
            raise CapError(
                f"definition-level resiliency capped at n={RESILIENCY_CAP}"
            )
        return False
    return correlation_immune_by_definition(f, r)


@dataclass
class OracleReport:
    """Outcome of one fast-path-vs-oracle comparison."""

    subject: str
    agreed: bool
    first_divergence: Optional[tuple] = None

    def as_dict(self) -> dict:
        return {
            "subject": self.subject,
            "agreed": self.agreed,
            "first_divergence": (
                list(self.first_divergence) if self.first_divergence else None
            ),
        }


def verify_walsh(f: BooleanFunction) -> OracleReport:
    fast = walsh_transform(f)._raw
    slow = naive_walsh(f)._raw
    diff = np.nonzero(fast != slow)[0]
    if diff.size:
        w = int(diff[0])
        return OracleReport("walsh", False, (w, int(fast[w]), int(slow[w])))
    return OracleReport("walsh", True)


def verify_nonlinearity(f: BooleanFunction) -> OracleReport:
    fast = nonlinearity(f)
    slow = exhaustive_nonlinearity(f)
    if fast != slow:
        return OracleReport("nonlinearity", False, (None, fast, slow))
    return OracleReport("nonlinearity", True)


def verify_resiliency(f: BooleanFunction) -> OracleReport:
    """The resiliency from the spectrum, then is_resilient(f, r) for every
    r from -1 to n + 1, each against the definition.  Every function is
    (-1)-resilient and none is (n+1)-resilient; a divergence at r is
    reported as (r, fast, slow)."""
    by_definition = [resiliency_by_definition(f, r) for r in range(f.n + 1)]
    fast = resiliency_report(f).resiliency
    slow = by_definition.index(False) - 1  # no function is n-resilient
    if fast != slow:
        return OracleReport("resiliency", False, (None, fast, slow))
    for r, slow_r in enumerate([True, *by_definition, False], start=-1):
        fast_r = is_resilient(f, r)
        if fast_r != slow_r:
            return OracleReport("resiliency", False, (r, fast_r, slow_r))
    return OracleReport("resiliency", True)


def verify_bent(f: BooleanFunction) -> OracleReport:
    fast = is_bent(f)
    amp = 1 << (f.n // 2)
    slow = f.n % 2 == 0 and bool(
        np.all(np.abs(naive_walsh(f)._raw) == amp)
    )
    if fast != slow:
        return OracleReport("bent", False, (None, fast, slow))
    return OracleReport("bent", True)


VERIFIERS = {
    "walsh": verify_walsh,
    "nonlinearity": verify_nonlinearity,
    "resiliency": verify_resiliency,
    "bent": verify_bent,
}
