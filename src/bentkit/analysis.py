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
import operator
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import (
    MAX_VARS, BooleanFunction, _coordinate_mask, _integer, _pack_bits, degree,
    walsh_transform,
)
from .errors import PremiseError


def nonlinearity(f: BooleanFunction) -> int:
    """N_f = 2^(n-1) - max|W_f|/2, the distance to the affine functions."""
    return (1 << (f.n - 1)) - walsh_transform(f).max_abs // 2


def is_bent(f: BooleanFunction) -> bool:
    """Every W(w) = +-2^(n/2), tested as max|W|^2 == 2^n: exact as
    WalshSpectrum enforces Parseval (the 2^n squares sum to 4^n, so the
    largest is 2^n only if all are).  No odd n is bent, as 2^n is no
    square, so odd n is answered from n alone and no spectrum is made."""
    return f.n % 2 == 0 and walsh_transform(f).max_abs ** 2 == 1 << f.n


def dual(f: BooleanFunction) -> BooleanFunction:
    """The bent dual: W_f(w) = 2^(n/2) * (-1)^dual(w).  Involution."""
    if not is_bent(f):
        raise PremiseError("dual is defined for bent functions only")
    return BooleanFunction(f.n, _pack_bits(walsh_transform(f)._raw < 0))


_CHUNK = 1 << 14  # spectrum entries read at a time by the scans below
_UNITS = 1 << np.arange(MAX_VARS)  # the points w of weight 1


class ResiliencyReport(NamedTuple):
    ci_order: int
    resiliency: int


def resiliency_report(f: BooleanFunction) -> ResiliencyReport:
    """Largest r with W_f = 0 on 1 <= wt(w) <= r, and the resiliency.

    ci_order is 0 when some weight-1 coefficient is nonzero; resiliency
    equals ci_order for balanced functions and -1 otherwise.

    The n weight-1 entries W_f(2^j) are read first, and a nonzero one
    answers at once (every bent function does).  Otherwise the least
    weight of a w != 0 with W_f(w) != 0 is taken one _CHUNK-entry slice
    of the spectrum at a time, so no spectrum-sized temporary is made.
    Every w in the slice at lo weighs at least wt(lo), so a slice is
    skipped once wt(lo) reaches the least weight found.
    """
    spec = walsh_transform(f)._raw
    if spec[_UNITS[: f.n]].any():
        return ResiliencyReport(0, 0 if spec[0] == 0 else -1)
    least = f.n + 1  # above every weight: W_f(w) = 0 for all w != 0
    for lo in range(0, spec.size, _CHUNK):
        base = lo.bit_count()  # w = lo + r weighs base + wt(r)
        if base >= least:
            continue
        nonzero = spec[lo : lo + _CHUNK] != 0
        nonzero[0] &= lo != 0  # w = 0 is left out
        r = np.flatnonzero(nonzero)
        least = min(least, base + int(np.bitwise_count(r).min(initial=least)))
        if least == 2:  # the lowest weight left, as none of weight 1 is nonzero
            break
    ci = least - 1
    return ResiliencyReport(ci, ci if int(spec[0]) == 0 else -1)


def is_resilient(f: BooleanFunction, order: int) -> bool:
    """Whether f is order-resilient, as resiliency_report(f).resiliency >=
    order, with orders up to 1 decided from table weights alone.

    W_f(w) = 2^n - 2 wt(f + w.x), so W_f(w) = 0 iff f + w.x is balanced.
    Order 0 asks W_f(0) = 0, a balanced f; order 1 asks the same of the n
    functions f + x_j as well (Xiao-Massey).  Only an order of 2 or more,
    after both weight tests pass, computes the spectrum.  Every order
    below 0 holds.
    """
    if order < 0:
        return True
    if not f.is_balanced:
        return False
    if order == 0:
        return True
    n, half = f.n, 1 << (f.n - 1)
    for s in range(n):
        if (f.mask ^ _coordinate_mask(n, s)).bit_count() != half:
            return False
    return order == 1 or resiliency_report(f).resiliency >= order


def plateaued_order(f: BooleanFunction) -> Optional[int]:
    """r such that the spectrum support has size 2^r (r even) and all
    nonzero values are +-2^(n - r/2); None when f is not plateaued.
    Tested as support * max|W|^2 == 4^n: exact as WalshSpectrum enforces
    Parseval (the nonzero squares sum to 4^n, which reaches that product
    only if all equal the largest; the support is then 4^n / max|W|^2)."""
    spec = walsh_transform(f)
    support = int(np.count_nonzero(spec._raw))
    if support * spec.max_abs ** 2 != 1 << (2 * f.n):
        return None
    return support.bit_length() - 1


def semi_bent_order(n: int) -> int:
    """The plateaued order that makes an n-variable function semi-bent."""
    return 2 * math.ceil((n - 2) / 2)


def complementary_plateaued(g1: BooleanFunction, g2: BooleanFunction) -> bool:
    """Both (p-1)th-order plateaued in p (odd) variables with Walsh
    supports partitioning F_2^p."""
    g1._check_same_n(g2)  # plateaued_order reads each input alone
    p = g1.n
    if p % 2 == 0:
        raise ValueError("complementary plateaued pairs need an odd variable count")
    if plateaued_order(g1) != p - 1 or plateaued_order(g2) != p - 1:
        return False
    s1, s2 = walsh_transform(g1)._raw, walsh_transform(g2)._raw
    # the supports compared _CHUNK entries at a time
    return all(
        np.all((s1[lo : lo + _CHUNK] != 0) ^ (s2[lo : lo + _CHUNK] != 0))
        for lo in range(0, s1.size, _CHUNK)
    )


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


def bounds_report(n: int, resiliency: int) -> BoundsReport:
    """Siegenthaler degree cap and the Sarkar et al. nonlinearity cap.

    resiliency -1 leaves only the universal bound; resiliency m with
    0 <= m <= n-2 caps nonlinearity at 2^(n-1) - 2^(m+1), sharpened to
    2^(n-1) - 2^(n/2-1) - 2^(m+1) for even n with m <= n/2 - 2, and to
    the largest multiple of 2^(m+1) under the universal bound for odd n.
    (n-1)-resilient functions are affine: degree 1, nonlinearity 0.
    """
    n = _integer(n, "variable count", 1, MAX_VARS)
    resiliency = _integer(resiliency, "resiliency", -1)
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
    return BoundsReport(n, resiliency, deg_cap, min(caps))


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
        if self.sarkar_maitra_bound is None:  # analyze sets it only where it applies
            del out["sarkar_maitra_bound"]
        return out


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
        sarkar_maitra_bound=bounds.nonlinearity_cap if 0 <= res <= f.n - 2 else None,
    )


# A promise is a (claim, relation, value) that a construction's theorem
# states of its output, given the premises the construction checked.
_HOLDS = {"==": operator.eq, ">=": operator.ge}


def certify(name: str, h: BooleanFunction, promises=(), resilient: bool = False) -> dict:
    """The claims verified on h, the output of construction `name`: bent
    and nonlinearity, or, when resilient, resiliency, CI order,
    nonlinearity and plateaued order.  Raises RuntimeError at the first
    promise h breaks, as a broken theorem is an internal error."""
    if resilient:
        ci, res = resiliency_report(h)
        claims = {"resiliency": res, "ci_order": ci, "nonlinearity": nonlinearity(h),
                  "plateaued_order": plateaued_order(h)}
    else:
        claims = {"bent": is_bent(h), "nonlinearity": nonlinearity(h)}
    for claim, relation, value in promises:
        if not _HOLDS[relation](claims[claim], value):
            raise RuntimeError(f"{name} promises {claim} {relation} {json.dumps(value)}, "
                               f"but its output has {claim} {json.dumps(claims[claim])}")
    return claims
