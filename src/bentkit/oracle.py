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

_BLOCK = 1 << 18  # entries of the linear-function tables built at once


def _distances(f: BooleanFunction) -> np.ndarray:
    """d(w) = wt(f + w.x) for every w, as int32.

    The table of each linear function w.x is popcount(w & x) mod 2 over
    every x; it is XORed with f's table and its ones counted, a block of
    rows w at a time (the caps keep a row of 2^n within a block)."""
    size = 1 << f.n
    x = np.arange(size, dtype=np.uint32)
    bits = f.values()
    rows = _BLOCK >> f.n
    d = np.empty(size, dtype=np.int32)
    for start in range(0, size, rows):
        lin = np.bitwise_count(x[start:start + rows, None] & x) & 1
        d[start:start + rows] = np.count_nonzero(lin ^ bits, axis=1)
    return d


def naive_walsh(f: BooleanFunction) -> WalshSpectrum:
    """Definitional spectrum: W(w) = sum_x (-1)^(f(x) xor w.x), the
    number of points where f agrees with w.x minus the number where it
    does not, 2^n - 2 d(w) (O(4^n)); no butterfly anywhere on this path.
    """
    if f.n > WALSH_CAP:
        raise CapError(f"naive Walsh transform capped at n={WALSH_CAP}")
    return WalshSpectrum(f.n, (1 << f.n) - 2 * _distances(f))


def exhaustive_nonlinearity(f: BooleanFunction) -> int:
    """Minimum Hamming distance to all 2^(n+1) affine functions: w.x
    lies at distance d(w) and its complement at 2^n - d(w)."""
    if f.n > NONLINEARITY_CAP:
        raise CapError(f"exhaustive nonlinearity capped at n={NONLINEARITY_CAP}")
    d = _distances(f)
    return int(np.minimum(d, (1 << f.n) - d).min())


def correlation_immune_by_definition(f: BooleanFunction, r: int) -> bool:
    """True iff the output is statistically independent of every set of
    r input variables: each subfunction fixed on such a set must carry
    weight wt(f)/2^r.  Each point is keyed by its values on the set, and
    one bincount of the keys where f = 1, read back at every point's
    key, gives the weight of the subfunction that point lies in."""
    if f.n > RESILIENCY_CAP:
        raise CapError(f"definition-level resiliency capped at n={RESILIENCY_CAP}")
    r = _integer(r, "order r", 0, f.n)
    total = f.weight
    if total % (1 << r):
        return False
    expect = total >> r
    size = 1 << f.n
    idx = np.arange(size, dtype=np.uint32)
    ones = idx[f.values() == 1]
    for subset in itertools.combinations([1 << i for i in range(f.n)], r):
        mask = np.uint32(sum(subset))
        weights = np.bincount(ones & mask, minlength=size)
        if np.any(weights[idx & mask] != expect):
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


# Each verifier runs its oracle first, so that an input above the
# oracle's cap is refused before any fast-path work.


def verify_walsh(f: BooleanFunction) -> OracleReport:
    slow = naive_walsh(f)._raw
    fast = walsh_transform(f)._raw
    diff = np.nonzero(fast != slow)[0]
    if diff.size:
        w = int(diff[0])
        return OracleReport("walsh", False, (w, int(fast[w]), int(slow[w])))
    return OracleReport("walsh", True)


def verify_nonlinearity(f: BooleanFunction) -> OracleReport:
    slow = exhaustive_nonlinearity(f)
    fast = nonlinearity(f)
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
    amp = 1 << (f.n // 2)
    slow = f.n % 2 == 0 and bool(
        np.all(np.abs(naive_walsh(f)._raw) == amp)
    )
    fast = is_bent(f)
    if fast != slow:
        return OracleReport("bent", False, (None, fast, slow))
    return OracleReport("bent", True)


VERIFIERS = {
    "walsh": verify_walsh,
    "nonlinearity": verify_nonlinearity,
    "resiliency": verify_resiliency,
    "bent": verify_bent,
}
