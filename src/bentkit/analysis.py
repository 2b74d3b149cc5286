"""Classification of Boolean functions: nonlinearity, bentness and duals,
correlation immunity and resiliency, plateaued order, and the reported
degree/nonlinearity caps for resilient functions.

Conventions: every function is 0th-order correlation immune and
(-1)-resilient; a balanced function is 0-resilient.  CI order is
computed even for unbalanced functions, but only balanced functions are
called resilient.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import MAX_VARS, BooleanFunction, degree, walsh_transform
from .errors import PremiseError


def nonlinearity(f: BooleanFunction) -> int:
    """N_f = 2^(n-1) - max|W_f|/2, the distance to the affine functions."""
    return (1 << (f.n - 1)) - walsh_transform(f).max_abs // 2


def is_bent(f: BooleanFunction) -> bool:
    """Every W(w) = +-2^(n/2), tested as max|W|^2 == 2^n: exact as
    WalshSpectrum enforces Parseval (the 2^n squares sum to 4^n, so the
    largest is 2^n only if all are).  No odd n passes: 2^n is no square."""
    return walsh_transform(f).max_abs ** 2 == 1 << f.n


def dual(f: BooleanFunction) -> BooleanFunction:
    """The bent dual: W_f(w) = 2^(n/2) * (-1)^dual(w).  Involution."""
    if not is_bent(f):
        raise PremiseError("dual is defined for bent functions only")
    return BooleanFunction(f.n, (walsh_transform(f).values < 0).astype(np.uint8))


# resiliency_report scans the spectrum as rows of _ROW entries, _ROWS rows
# at a time: the weight of w is that of its offset in the row plus that of
# the row's index, each from a table.
_ROW = 1 << 12
_ROWS = 16
_OFFSET_WEIGHT = np.bitwise_count(np.arange(_ROW, dtype=np.uint16))
_ROW_WEIGHT = np.bitwise_count(np.arange(1 << (MAX_VARS - 12)))[:, None]


class ResiliencyReport(NamedTuple):
    ci_order: int
    resiliency: int


def resiliency_report(f: BooleanFunction) -> ResiliencyReport:
    """Largest r with W_f = 0 on 1 <= wt(w) <= r, and the resiliency.

    ci_order is 0 when some weight-1 coefficient is nonzero; resiliency
    equals ci_order for balanced functions and -1 otherwise.

    The spectrum is scanned _ROWS rows at a time, so no spectrum-sized
    temporary is made; a nonzero W_f(w) at wt(w) = 1 ends the scan.
    """
    spec = walsh_transform(f).values
    rows = spec.reshape(-1, min(_ROW, spec.shape[0]))
    none = np.uint8(f.n + 1)  # above every weight: W_f(w) = 0 for all w != 0
    least = f.n + 1
    for r in range(0, rows.shape[0], _ROWS):
        nonzero = rows[r : r + _ROWS] != 0
        weight = np.where(nonzero, _OFFSET_WEIGHT[: rows.shape[1]], none)
        weight += _ROW_WEIGHT[r : r + weight.shape[0]]
        if r == 0:
            weight[0, 0] = none  # w = 0 is left out
        least = min(least, int(weight.min()))
        if least == 1:
            break
    ci = least - 1
    return ResiliencyReport(ci, ci if int(spec[0]) == 0 else -1)


def plateaued_order(f: BooleanFunction) -> Optional[int]:
    """r such that the spectrum support has size 2^r (r even) and all
    nonzero values are +-2^(n - r/2); None when f is not plateaued.
    Tested as support * max|W|^2 == 4^n: exact as WalshSpectrum enforces
    Parseval (the nonzero squares sum to 4^n, which reaches that product
    only if all equal the largest; the support is then 4^n / max|W|^2)."""
    spec = walsh_transform(f)
    support = int(np.count_nonzero(spec.values))
    if support * spec.max_abs ** 2 != 1 << (2 * f.n):
        return None
    return support.bit_length() - 1


def semi_bent_order(n: int) -> int:
    """The plateaued order that makes an n-variable function semi-bent."""
    return 2 * math.ceil((n - 2) / 2)


def is_semi_bent(f: BooleanFunction) -> bool:
    return plateaued_order(f) == semi_bent_order(f.n)


def complementary_plateaued(g1: BooleanFunction, g2: BooleanFunction) -> bool:
    """Both (p-1)th-order plateaued in p (odd) variables with Walsh
    supports partitioning F_2^p."""
    if g1.n != g2.n:
        raise ValueError(f"variable counts differ: {g1.n} vs {g2.n}")
    p = g1.n
    if p % 2 == 0:
        raise ValueError("complementary plateaued pairs need an odd variable count")
    if plateaued_order(g1) != p - 1 or plateaued_order(g2) != p - 1:
        return False
    s1 = walsh_transform(g1).values != 0
    s2 = walsh_transform(g2).values != 0
    return bool(np.all(s1 ^ s2))


def _universal_nonlinearity_cap(n: int) -> int:
    """floor(2^(n-1) - 2^(n/2-1)), the covering-radius bound."""
    if n == 1:
        return 0
    sq = 1 << (n - 2)
    root = math.isqrt(sq)
    if root * root < sq:
        root += 1  # odd n: round 2^(n/2-1) up so the cap rounds down
    return (1 << (n - 1)) - root


@dataclass
class BoundsReport:
    """Degree and nonlinearity caps applicable at a given resiliency."""

    n: int
    resiliency: int
    degree_cap: int
    nonlinearity_cap: int

    def as_dict(self) -> dict:
        return asdict(self)


def bounds_report(n: int, resiliency: int, degree: Optional[int] = None) -> BoundsReport:
    """Siegenthaler degree cap and the Sarkar et al. nonlinearity cap.

    resiliency -1 leaves only the universal bound; resiliency m with
    0 <= m <= n-2 caps nonlinearity at 2^(n-1) - 2^(m+1), sharpened to
    2^(n-1) - 2^(n/2-1) - 2^(m+1) for even n with m <= n/2 - 2, and to
    the largest multiple of 2^(m+1) under the universal bound for odd n.
    (n-1)-resilient functions are affine: degree 1, nonlinearity 0.
    """
    if resiliency < -1:
        raise ValueError("resiliency is at least -1 by convention")
    caps = [_universal_nonlinearity_cap(n)]
    if resiliency >= n - 1:
        deg_cap = 1
        caps.append(0)
    elif resiliency >= 0:
        m = resiliency
        deg_cap = n - m - 1
        caps.append((1 << (n - 1)) - (1 << (m + 1)))
        if n % 2 == 0 and m <= n // 2 - 2:
            caps.append((1 << (n - 1)) - (1 << (n // 2 - 1)) - (1 << (m + 1)))
        if n % 2 == 1:
            step = 1 << (m + 1)
            caps.append((_universal_nonlinearity_cap(n) // step) * step)
    else:
        deg_cap = n
    report = BoundsReport(n, resiliency, deg_cap, min(caps))
    if degree is not None and degree > report.degree_cap:
        raise PremiseError(
            f"degree {degree} exceeds the cap {report.degree_cap} "
            f"for a {resiliency}-resilient function"
        )
    return report


@dataclass
class AnalysisProfile:
    """Aggregated certification record for one function."""

    n: int
    weight: int
    balanced: bool
    nonlinearity: int
    degree: int
    ci_order: int
    resiliency: int
    bent: bool
    plateaued_order: Optional[int]
    semi_bent: bool
    sarkar_maitra_bound: Optional[int] = None

    def as_dict(self) -> dict:
        out = asdict(self)
        # reported only when the bound statement applies
        if not 0 <= self.resiliency <= self.n - 2:
            del out["sarkar_maitra_bound"]
        return out

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)


def analyze(f: BooleanFunction) -> AnalysisProfile:
    """Full profile; raises RuntimeError if it breaks the reported bounds."""
    ci, res = resiliency_report(f)
    nl = nonlinearity(f)
    deg = degree(f)
    bounds = bounds_report(f.n, res)
    if nl > bounds.nonlinearity_cap or (res >= 0 and deg > bounds.degree_cap):
        raise RuntimeError(
            f"nonlinearity {nl} and degree {deg} break the caps {bounds.as_dict()}"
        )
    sm = bounds.nonlinearity_cap if 0 <= res <= f.n - 2 else None
    order = plateaued_order(f)
    return AnalysisProfile(
        n=f.n,
        weight=f.weight,
        balanced=f.is_balanced,
        nonlinearity=nl,
        degree=deg,
        ci_order=ci,
        resiliency=res,
        bent=is_bent(f),
        plateaued_order=order,
        semi_bent=order == semi_bent_order(f.n),
        sarkar_maitra_bound=sm,
    )
