"""Independent brute-force references for certifying the fast paths.

Every check here goes straight to a definition: the Walsh sum over all
(w, x) pairs, the minimum distance over every affine function, and the
statistical-independence test over every variable subset.  Agreement
with the fast paths is exact integer equality, zero tolerance.

One size cap, CAP, bounds every oracle: an input on more variables
raises CapError before any work.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .analysis import is_bent, is_resilient, nonlinearity, resiliency_report
from .core import BooleanFunction, WalshSpectrum, _integer, walsh_transform
from .errors import CapError

CAP = 14

_BLOCK = 1 << 18  # entries of the linear-function tables built at once


def _check_cap(f: BooleanFunction, oracle: str) -> None:
    if f.n > CAP:
        raise CapError(f"{oracle} capped at n={CAP}")


def _distances(f: BooleanFunction) -> np.ndarray:
    """d(w) = wt(f + w.x) for every w, as int32.

    The table of each linear function w.x is popcount(w & x) mod 2 over
    every x; it is XORed with f's table and its ones counted, a block of
    rows w at a time (the cap keeps a row of 2^n within a block)."""
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
    _check_cap(f, "naive Walsh transform")
    return WalshSpectrum(f.n, (1 << f.n) - 2 * _distances(f))


def exhaustive_nonlinearity(f: BooleanFunction) -> int:
    """Minimum Hamming distance to all 2^(n+1) affine functions: w.x
    lies at distance d(w) and its complement at 2^n - d(w)."""
    _check_cap(f, "exhaustive nonlinearity")
    d = _distances(f)
    return int(np.minimum(d, (1 << f.n) - d).min())


def correlation_immune_by_definition(f: BooleanFunction, r: int) -> bool:
    """True iff the output is statistically independent of every set of
    r input variables: each of the 2^r subfunctions fixed on such a set
    must carry weight wt(f)/2^r.  Each point where f = 1 is keyed by its
    values on the set, and one bincount of the keys gives every
    subfunction's weight; as the 2^r weights sum to wt(f), they all equal
    wt(f)/2^r iff none is larger."""
    _check_cap(f, "definition-level resiliency")
    r = _integer(r, "order r", 0, f.n)
    total = f.weight
    if total % (1 << r):
        return False
    ones = np.arange(1 << f.n, dtype=np.uint32)[f.values() == 1]
    for subset in itertools.combinations([1 << i for i in range(f.n)], r):
        if np.bincount(ones & np.uint32(sum(subset))).max(initial=0) > total >> r:
            return False
    return True


def resiliency_by_definition(f: BooleanFunction, r: int) -> bool:
    """True iff f is r-resilient: balanced plus r-th order independence."""
    r = _integer(r, "order r", 0, f.n)
    _check_cap(f, "definition-level resiliency")
    return f.is_balanced and correlation_immune_by_definition(f, r)


@dataclass
class OracleReport:
    """Outcome of one fast-path-vs-oracle comparison."""

    subject: str
    agreed: bool
    first_divergence: Optional[tuple] = None

    def as_dict(self) -> dict:
        return asdict(self)


def _verdict(subject: str, fast, slow) -> OracleReport:
    if fast != slow:
        return OracleReport(subject, False, (None, fast, slow))
    return OracleReport(subject, True)


# Each verifier runs its oracle first, so that an input above the cap is
# refused before any fast-path work.


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
    return _verdict("nonlinearity", nonlinearity(f), slow)


def verify_resiliency(f: BooleanFunction) -> OracleReport:
    """The resiliency from the spectrum, then is_resilient(f, r) for every
    r from -1 to n + 1, each against the definition.  Every function is
    (-1)-resilient and none is (n+1)-resilient; a divergence at r is
    reported as (r, fast, slow)."""
    by_definition = [resiliency_by_definition(f, r) for r in range(f.n + 1)]
    slow = by_definition.index(False) - 1  # no function is n-resilient
    report = _verdict("resiliency", resiliency_report(f).resiliency, slow)
    if not report.agreed:
        return report
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
    return _verdict("bent", is_bent(f), slow)


VERIFIERS = {
    "walsh": verify_walsh,
    "nonlinearity": verify_nonlinearity,
    "resiliency": verify_resiliency,
    "bent": verify_bent,
}
