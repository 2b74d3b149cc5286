"""Every builder in the toolkit.

Primary classes: Maiorana-McFarland, partial-spread (PS_ap) via field
division, and class D (M-M plus subspace indicators).  Secondary
builders: direct sum, indirect sum, Rothaus extension, the restricted
indirect sum (indirect sum of coordinate restrictions of two bent
functions, in n+m-2 variables) with its dual formula and base-term
variants, the specializations of that construction to M-M / PS_ap /
class D inputs, and the generalized indirect sum for resilient and
highly nonlinear functions, including the two bent-triple routes.

Composite outputs always place the (reduced) x-block before the y-block;
fresh variables are appended after the existing ones.  All builders are
pure and deterministic.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .analysis import dual, is_bent, is_resilient, nonlinearity, walsh_transform
from .core import (
    MAX_VARS, BooleanFunction, _doubling_table, _integer, _mask_bytes, _pack_bits,
    _table_bytes,
)
from .errors import PremiseError
from .galois import GaloisField


def check_total(n: int) -> None:
    if n > MAX_VARS:
        raise ValueError(f"composite output would need {n} > {MAX_VARS} variables")


def _require_bent(*named: tuple[str, BooleanFunction]) -> None:
    """Raise PremiseError at the first (name, function) that is not bent."""
    for name, fn in named:
        if not is_bent(fn):
            raise PremiseError(f"{name} must be bent")


def _require_resilient(label: str, order: int, *named: tuple) -> int:
    """The order, read as the integer argument `label`, once every (name,
    function) is order-resilient; PremiseError at the first that is not.
    An order below -1, the resiliency of every function, is a bad
    parameter.  Orders 0 and 1 are decided from table weights (see
    is_resilient); only an order of 2 or more computes a spectrum."""
    order = _integer(order, label, -1)
    for name, fn in named:
        if not is_resilient(fn, order):
            raise PremiseError(f"{name} is not {order}-resilient")
    return order


def _with_xor(side: str, a: BooleanFunction, b: BooleanFunction, c: BooleanFunction):
    """The named premises side1, side2, side3 and side1+side2+side3."""
    return (
        (f"{side}1", a), (f"{side}2", b), (f"{side}3", c),
        (f"{side}1+{side}2+{side}3", a ^ b ^ c),
    )


# -- vectorial maps and subspaces ---------------------------------------


class PermutationMap:
    """A map F_2^k -> F_2^r given by its 2^k images, index-encoded.

    Output coordinate i of image value v is bit (r - i), matching the
    core index convention.  Bijectivity is only demanded where a
    construction requires a Boolean permutation.
    """

    __slots__ = ("k", "r", "images")

    def __init__(self, images: Sequence[int], r: Optional[int] = None):
        images = tuple(images)
        size = len(images)
        k = size.bit_length() - 1
        if k < 1 or size != 1 << k:
            raise ValueError(f"image count must be a power of two >= 2, got {size}")
        r = k if r is None else _integer(r, "r", 1, MAX_VARS)
        self.k = k
        self.r = r
        self.images = tuple([_integer(v, "image", 0, (1 << r) - 1) for v in images])

    @classmethod
    def identity(cls, k: int) -> "PermutationMap":
        """The identity of F_2^k, k at most MAX_VARS / 2: a map with r = k
        feeds only builders of 2k variables."""
        return cls(range(1 << _integer(k, "k", 1, MAX_VARS // 2)))

    @property
    def is_permutation(self) -> bool:
        return self.r == self.k and len(set(self.images)) == len(self.images)

    def __call__(self, y: int) -> int:
        return self.images[_integer(y, "index", 0, (1 << self.k) - 1)]

    def __repr__(self) -> str:
        kind = "permutation" if self.is_permutation else f"map to F_2^{self.r}"
        return f"PermutationMap(k={self.k}, {kind})"


class LinearSubspace:
    """A linear subspace of F_2^k held as its reduced echelon basis: each
    row's top bit is its pivot, set in no other row, and the rows descend.
    A subspace has exactly one such basis."""

    __slots__ = ("k", "basis")

    def __init__(self, k: int, vectors: Sequence[int] = ()):
        k = _integer(k, "ambient dimension", 1, MAX_VARS)
        rows: list[int] = []
        for v in vectors:
            v = _integer(v, "vector", 0, (1 << k) - 1)
            for r in rows:
                v = min(v, v ^ r)
            if v:
                # v holds no pivot, so its top bit is a new one: clear that
                # bit from the rows (their pivots and order stay), insert v
                rows = sorted([min(r, r ^ v) for r in rows] + [v], reverse=True)
        self.k = k
        self.basis = tuple(rows)

    @classmethod
    def zero(cls, k: int) -> "LinearSubspace":
        return cls(k)

    @classmethod
    def full(cls, k: int) -> "LinearSubspace":
        k = _integer(k, "ambient dimension", 1, MAX_VARS)
        return cls(k, [1 << i for i in range(k)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def members(self) -> list[int]:
        out = [0]
        for b in self.basis:
            out += [v ^ b for v in out]
        return sorted(out)

    def contains(self, v: int) -> bool:
        v = _integer(v, "vector", 0, (1 << self.k) - 1)
        for r in self.basis:
            v = min(v, v ^ r)
        return v == 0

    def orthogonal(self) -> "LinearSubspace":
        """All w with w.b = 0 for every basis vector b.  Each coordinate c
        that is no row's pivot gives one vector: bit c plus the pivot of
        every row holding bit c.  A row holds only its own pivot, so the
        vector meets each row in zero or two bits."""
        pivots = [1 << (r.bit_length() - 1) for r in self.basis]
        return LinearSubspace(self.k, [
            1 << c | sum(p for r, p in zip(self.basis, pivots) if r >> c & 1)
            for c in range(self.k)
            if 1 << c not in pivots
        ])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearSubspace)
            and (self.k, self.basis) == (other.k, other.basis)
        )

    def __repr__(self) -> str:
        return f"LinearSubspace(k={self.k}, dim={self.dim})"


# -- primary builders ---------------------------------------------------


def mm_function(
    phi: PermutationMap, u: BooleanFunction, require_bent: bool = False
) -> BooleanFunction:
    """Maiorana-McFarland form x.phi(y) + u(y), x in the first r
    variables and y in the last k.  Bent iff r = k and phi is a
    permutation; pass require_bent to insist on that."""
    if u.n != phi.k:
        raise ValueError(f"u must have {phi.k} variables, got {u.n}")
    check_total(phi.r + phi.k)
    if require_bent and not phi.is_permutation:
        raise PremiseError("bent M-M functions need a Boolean permutation")
    # row x of the table is u XOR line s for each set bit s of x, line s
    # the row y -> bit s of phi(y)
    bits = np.array(phi.images) >> np.arange(phi.r)[:, None] & 1
    packed = np.packbits(bits, axis=1, bitorder="little")
    lines = [int.from_bytes(line, "little") for line in packed]
    return BooleanFunction(phi.r + phi.k, _doubling_table(u.mask, 1 << phi.k, lines))


def psap_bent(field: GaloisField, theta: Sequence[int]) -> BooleanFunction:
    """Partial-spread bent function theta(x/y) on 2m variables.

    theta is a bit sequence indexed by field element; it must be
    balanced with theta(0) = 0 so that the x/0 = 0 convention and the
    f(x, 0) = 0 reading of the class agree.
    """
    bits = [_integer(b, "theta entry", 0, 1) for b in theta]
    if len(bits) != field.order:
        raise ValueError(f"theta must be a bit table over all {field.order} elements")
    if sum(bits) != field.order // 2:
        raise PremiseError("theta must be balanced on the field")
    if bits[0] != 0:
        raise PremiseError("theta(0) must be 0")
    # for x, y != 0, x/y = g^(log x - log y): theta(g^k), laid out twice,
    # is indexed by log x + (order - 1 - log y) in the smallest dtype that
    # holds it; the x = 0 row and the y = 0 column are theta(0)
    span = field.order - 1
    logs = field.log[field.reverse_bits(np.arange(field.order))]
    logs = logs.astype(np.min_scalar_type(2 * span))
    powers = np.array(bits, dtype=np.uint8)[field.exp]
    table = np.concatenate([powers, powers])[np.add.outer(logs, span - logs)]
    table[0, :] = table[:, 0] = bits[0]
    return BooleanFunction(2 * field.m, _pack_bits(table.reshape(-1)))


def class_d_bent(
    phi: PermutationMap, e1: LinearSubspace, e2: LinearSubspace
) -> BooleanFunction:
    """x.phi(y) + 1_E1(x) 1_E2(y), bent when phi(E2) equals the
    orthogonal complement of E1."""
    k = phi.k
    if not phi.is_permutation:
        raise PremiseError("class D needs a Boolean permutation")
    if e1.k != k or e2.k != k:
        raise ValueError(f"subspaces must live in F_2^{k}")
    image = sorted(phi(v) for v in e2.members())
    if image != e1.orthogonal().members():
        raise PremiseError("class D requires phi(E2) to equal the dual of E1")
    zero = BooleanFunction.zero(k)
    ind = [BooleanFunction(k, sum(1 << v for v in e.members())) for e in (e1, e2)]
    return mm_function(phi, zero) ^ _two_block(zero, zero, ind)


def class_d_e1(phi: PermutationMap, e2: LinearSubspace) -> LinearSubspace:
    """The E1 = phi(E2)^perp that makes class_d_bent(phi, E1, E2) bent."""
    if e2.k != phi.k:
        raise ValueError(f"subspaces must live in F_2^{phi.k}")
    return LinearSubspace(phi.k, [phi(v) for v in e2.members()]).orthogonal()


# -- classical secondary builders ----------------------------------------


# _WIDEN[b][v] is byte v with each bit repeated b times, held as one
# little-endian b-byte word: eight table rows of b bits each.
_WIDEN = {
    b: np.packbits(
        np.unpackbits(np.arange(256, dtype=np.uint8), bitorder="little").repeat(b),
        bitorder="little",
    ).view(f"<u{b}")
    for b in (2, 4, 8)
}


def _two_block(
    fa: BooleanFunction,
    gb: BooleanFunction,
    *products: tuple[BooleanFunction, BooleanFunction],
) -> BooleanFunction:
    """fa(x) + gb(y) + the sum of p(x) q(y) over the (p, q) products, with
    the block layout, built a byte at a time.  Row x of the packed table is
    b = min(2^m, 8) bits of a byte, or 2^(m-3) whole bytes (m = gb.n): a
    function of x gives each row its bit, repeated b times through _WIDEN,
    and a function of y its bytes, repeated to fill a byte when shorter."""
    n = fa.n + gb.n
    check_total(n)
    b = min(1 << gb.n, 8)
    fill = ((1 << min(1 << n, 8)) - 1) // ((1 << b) - 1)

    def column(f: BooleanFunction) -> np.ndarray:
        return _WIDEN[b][_mask_bytes(f.mask, f.n)].view(np.uint8)

    def row(g: BooleanFunction) -> np.ndarray:
        return _mask_bytes(g.mask * fill, g.n)

    rows = np.bitwise_xor.outer(column(fa), row(gb))
    for p, q in products:
        rows ^= np.bitwise_and.outer(column(p), row(q))
    table = rows.reshape(-1)[: _table_bytes(n)].tobytes()
    return BooleanFunction(n, int.from_bytes(table, "little"))


def direct_sum(f: BooleanFunction, g: BooleanFunction) -> BooleanFunction:
    """h(x, y) = f(x) + g(y) on n+m variables."""
    return _two_block(f, g)


def direct_sum_nonlinearity(f: BooleanFunction, g: BooleanFunction) -> int:
    """The nonlinearity of direct_sum(f, g): 2^n N_g + 2^m N_f - 2 N_f N_g."""
    nf, ng = nonlinearity(f), nonlinearity(g)
    return (1 << f.n) * ng + (1 << g.n) * nf - 2 * nf * ng


def indirect_sum(
    f1: BooleanFunction, f2: BooleanFunction, g1: BooleanFunction, g2: BooleanFunction
) -> BooleanFunction:
    """f1(x) + g1(y) + (f1+f2)(x)(g1+g2)(y); maps bent 4-tuples to bent
    functions, with the dual given by the same formula on the duals.
    Mismatched variable counts on either side are a ValueError."""
    return _two_block(f1, g1, (f1 ^ f2, g1 ^ g2))


def _rothaus_table(
    f1: BooleanFunction, f2: BooleanFunction, f3: BooleanFunction
) -> BooleanFunction:
    """rothaus without its premise checks: one table over the block (y, z)."""
    y, z = BooleanFunction.variable(2, 1), BooleanFunction.variable(2, 2)
    maj = (f1 & f2) ^ (f1 & f3) ^ (f2 & f3)
    return _two_block(maj, y & z, (f1 ^ f2, y), (f1 ^ f3, z))


def rothaus(
    f1: BooleanFunction, f2: BooleanFunction, f3: BooleanFunction
) -> BooleanFunction:
    """The classical extension maj(f1, f2, f3) + (f1+f2) y + (f1+f3) z + y z
    to n+2 variables, the fresh y, z appended after x_n.  All four bentness
    premises (f1, f2, f3 and their XOR) are checked eagerly."""
    check_total(f1.n + 2)
    _require_bent(*_with_xor("f", f1, f2, f3))
    return _rothaus_table(f1, f2, f3)


# -- the restricted indirect sum -----------------------------------------


def _check_coordinates(mu: int, n: int, rho: int, m: int) -> None:
    """An out-of-range coordinate is a bad parameter, reported before any premise."""
    _integer(mu, "mu", 1, n)
    _integer(rho, "rho", 1, m)


def _halves(
    f: BooleanFunction, j: int, a: int = 0
) -> tuple[BooleanFunction, BooleanFunction]:
    """The restrictions of f to x_j = a and to x_j = 1 - a."""
    return f.restrict(j, a), f.restrict(j, 1 - a)


def restricted_indirect_sum(
    f: BooleanFunction,
    mu: int,
    g: BooleanFunction,
    rho: int,
    variant: str = "00",
) -> BooleanFunction:
    """Split two bent functions at one coordinate each and take the
    indirect sum of the two pairs of restrictions, landing in n+m-2
    variables.  variant "ab" is indirect_sum(f_a, f_a', g_b, g_b') with
    a' = 1 - a and b' = 1 - b ("00" uses f_0 and g_0 as base terms); all
    four variants are bent.
    """
    check_total(f.n + g.n - 2)
    _check_coordinates(mu, f.n, rho, g.n)
    if variant not in ("00", "01", "10", "11"):
        raise ValueError(f"variant must be one of 00/01/10/11, got {variant!r}")
    _require_bent(("f", f), ("g", g))
    a, b = int(variant[0]), int(variant[1])
    return indirect_sum(*_halves(f, mu, a), *_halves(g, rho, b))


def restricted_indirect_sum_dual(
    f: BooleanFunction, mu: int, g: BooleanFunction, rho: int
) -> BooleanFunction:
    """The dual of restricted_indirect_sum(f, mu, g, rho, "00"), built
    from the same formula over restrictions of the two duals."""
    check_total(f.n + g.n - 2)
    _check_coordinates(mu, f.n, rho, g.n)
    return indirect_sum(*_halves(dual(f), mu), *_halves(dual(g), rho))


def mm_restricted_sum(
    phi: PermutationMap,
    psi: PermutationMap,
    mu: int,
    rho: int,
    u: BooleanFunction,
    v: BooleanFunction,
) -> BooleanFunction:
    """The restricted indirect sum of two M-M functions at affine
    coordinates mu and rho: the indirect sum of the halves of
    mm_function(phi, u) at x_mu and of mm_function(psi, v) at x_rho.
    mm_function checks that each map is a permutation, which makes each
    M-M function bent, so no Walsh transform is run."""
    check_total(2 * phi.k + 2 * psi.k - 2)
    _check_coordinates(mu, phi.k, rho, psi.k)
    f = mm_function(phi, u, require_bent=True)
    g = mm_function(psi, v, require_bent=True)
    return indirect_sum(*_halves(f, mu), *_halves(g, rho))


def _trace_hyperplane_split(
    f: BooleanFunction,
    field: GaloisField,
    form: tuple[int, int],
    shift: tuple[int, int],
) -> tuple[BooleanFunction, BooleanFunction]:
    """Restrictions of a 2m-variable function to the trace hyperplane
    Tr(a x + b y) = 0 and to its shifted coset, in matching coordinates.

    The hyperplane basis comes from Gaussian elimination on the linear
    form with the lexicographically first pivot: each half is read in the
    other variables with x_pivot set to the rest of the form, then cut by
    restrict.  The coset uses the given shift, whose trace value must be 1.
    """
    m = field.m
    n = 2 * m
    a, b = form
    if a == 0 and b == 0:
        raise PremiseError("the hyperplane form must be nonzero")
    alpha, beta = shift
    if field.trace(field.mul(a, alpha) ^ field.mul(b, beta)) != 1:
        raise PremiseError("the shift must take trace value 1 under the form")
    # vector of the linear form: component for variable j via unit points
    lam = 0
    for j in range(1, m + 1):
        unit = 1 << (j - 1)
        lam |= field.trace(field.mul(a, unit)) << (n - j)
        lam |= field.trace(field.mul(b, unit)) << (n - (m + j))
    pivot = next(j for j in range(1, n + 1) if (lam >> (n - j)) & 1)
    e = 1 << (n - pivot)
    rest = BooleanFunction.linear(n, lam ^ e)  # the form without x_pivot

    def half(g: BooleanFunction) -> BooleanFunction:
        # g read at x_pivot = rest(x): flip x_pivot where rest is 1, then cut
        return (g ^ (rest & g.derivative(e))).restrict(pivot, 0)

    # the shift point: alpha on the x block, beta on the y block
    sidx = (field.reverse_bits(alpha) << m) | field.reverse_bits(beta)
    return half(f), half(f.translate(sidx))


def psap_restricted_sum(
    field_f: GaloisField,
    theta: Sequence[int],
    form_f: tuple[int, int],
    shift_f: tuple[int, int],
    field_g: GaloisField,
    vartheta: Sequence[int],
    form_g: tuple[int, int],
    shift_g: tuple[int, int],
) -> BooleanFunction:
    """Restricted indirect sum of two partial-spread bent functions,
    split along trace hyperplanes instead of coordinate hyperplanes."""
    check_total(2 * field_f.m + 2 * field_g.m - 2)
    f = psap_bent(field_f, theta)
    g = psap_bent(field_g, vartheta)
    f0, f1 = _trace_hyperplane_split(f, field_f, form_f, shift_f)
    g0, g1 = _trace_hyperplane_split(g, field_g, form_g, shift_g)
    return indirect_sum(f0, f1, g0, g1)


def rothaus_restricted_sum(
    f1: BooleanFunction,
    f2: BooleanFunction,
    f3: BooleanFunction,
    g1: BooleanFunction,
    g2: BooleanFunction,
    g3: BooleanFunction,
) -> BooleanFunction:
    """Combine two Rothaus extensions into n+m+2 variables: the indirect
    sum of their halves at the last fresh variable z, bit-identical to
    restricted_indirect_sum of the two extensions, all eight premises first."""
    check_total(f1.n + g1.n + 2)
    _require_bent(*_with_xor("f", f1, f2, f3), *_with_xor("g", g1, g2, g3))
    f, g = _rothaus_table(f1, f2, f3), _rothaus_table(g1, g2, g3)
    return indirect_sum(*_halves(f, f.n), *_halves(g, g.n))


def class_d_restricted_sum(
    phi: PermutationMap,
    e1: LinearSubspace,
    e2: LinearSubspace,
    psi: PermutationMap,
    xi1: LinearSubspace,
    xi2: LinearSubspace,
    mu: int,
    rho: int,
) -> BooleanFunction:
    """Restricted indirect sum of two class-D bent functions at affine
    coordinates mu and rho; class_d_bent checks the premise that makes
    each bent, so no Walsh transform is run."""
    check_total(2 * phi.k + 2 * psi.k - 2)
    _check_coordinates(mu, phi.k, rho, psi.k)
    f = class_d_bent(phi, e1, e2)
    g = class_d_bent(psi, xi1, xi2)
    return indirect_sum(*_halves(f, mu), *_halves(g, rho))


# -- generalized indirect sum and the bent-triple routes ------------------


class BentTriple:
    """Three bent functions f1, f2, f3 whose XOR nu1 is bent, with
    dual(nu1) = dual(f1)+dual(f2)+dual(f3) bit-exactly.  The constructor
    checks all of it and the members cannot be reassigned, so every
    BentTriple holds these premises."""

    __slots__ = ("f1", "f2", "f3")

    def __init__(self, f1: BooleanFunction, f2: BooleanFunction, f3: BooleanFunction):
        named = _with_xor("f", f1, f2, f3)
        _require_bent(*named)
        nu1 = named[-1][1]  # the XOR whose spectrum is_bent cached
        if dual(nu1) != dual(f1) ^ dual(f2) ^ dual(f3):
            raise PremiseError("the dual of the XOR must equal the XOR of the duals")
        for name, f in zip(self.__slots__, (f1, f2, f3)):
            object.__setattr__(self, name, f)

    def __setattr__(self, name, value):
        raise AttributeError("a BentTriple's members are fixed when it is made")

    @property
    def n(self) -> int:
        return self.f1.n

    @property
    def nu1(self) -> BooleanFunction:
        return self.f1 ^ self.f2 ^ self.f3

    def __repr__(self) -> str:
        return f"BentTriple(n={self.n})"


def bent_triple_from_derivative(
    vartheta: BooleanFunction, theta: BooleanFunction, a
) -> BentTriple:
    """The triple (vartheta, vartheta(. + a), theta) via the shared
    derivative: requires D_a(vartheta) = D_a(theta) bit-exactly."""
    vartheta._check_same_n(theta)  # the first joint use, !=, never compares counts
    if vartheta.derivative(a) != theta.derivative(a):
        raise PremiseError("the two derivatives at a must coincide")
    return BentTriple(vartheta, vartheta.translate(a), theta)


def generalized_indirect_sum(
    f1: BooleanFunction,
    f2: BooleanFunction,
    f3: BooleanFunction,
    g1: BooleanFunction,
    g2: BooleanFunction,
    g3: BooleanFunction,
    mode: Optional[str] = None,
    t: Optional[int] = None,
    k: Optional[int] = None,
) -> BooleanFunction:
    """f1(x) + g1(y) + (f1+f2)(x)(g1+g2)(y) + (f2+f3)(x)(g2+g3)(y).

    mode="resilient" certifies the premise that f1, f2, f3, f1+f2+f3
    are t-resilient and g1, g2, g3, g1+g2+g3 are k-resilient (the output
    is then (t+k+1)-resilient); t and k are read in that mode only.
    mode="bent" certifies that all eight functions are bent and the f-side
    dual-sum condition holds (the output is then bent).  With f2 = f3 and
    g2 = g3 the formula reduces to the plain indirect sum.  Mismatched
    variable counts on either side are a ValueError, raised before any
    premise is checked.
    """
    check_total(f1.n + g1.n)
    if mode != "resilient" and (t is not None or k is not None):
        raise ValueError(f"t and k are read only in resilient mode, got mode {mode!r}")
    if mode == "resilient":
        if t is None or k is None:
            raise ValueError("resilient mode needs both t and k")
        fs, gs = _with_xor("f", f1, f2, f3), _with_xor("g", g1, g2, g3)
        _require_resilient("t", t, *fs)
        _require_resilient("k", k, *gs)
    elif mode == "bent":
        gs = _with_xor("g", g1, g2, g3)
        BentTriple(f1, f2, f3)
        _require_bent(*gs)
    elif mode is not None:
        raise ValueError(f"unknown mode {mode!r}")
    return _two_block(f1, g1, (f1 ^ f2, g1 ^ g2), (f2 ^ f3, g2 ^ g3))


def walsh_case(triple: BentTriple, alpha) -> tuple[int, str]:
    """The sign case of (W_f1, W_f2, W_f3) at alpha, and which g-side
    spectrum multiplies W_f1(alpha) there.

    With a = [W_f1 != W_f2] and b = [W_f2 != W_f3] at alpha, the case is
    1 + 2a + b and the multiplier is g1 + a(g1+g2) + b(g2+g3): g1, nu2
    (= g1+g2+g3), g2 or g3 for cases 1, 2, 3, 4.
    """
    w1, w2, w3 = (walsh_transform(f)[alpha] for f in (triple.f1, triple.f2, triple.f3))
    ab = 2 * (w1 != w2) + (w2 != w3)
    return 1 + ab, ("g1", "nu2", "g2", "g3")[ab]


@dataclass
class ResilientSumCertificate:
    """A resilient route's statement about its output: nonlinearity is
    computed from the output table, resiliency is the premise order k,
    nonlinearity_bound comes from the seeds' spectra, and
    equality_condition is the paper's stated condition, not a fact."""

    resiliency: int
    nonlinearity: int
    nonlinearity_bound: int
    equality_condition: bool

    def as_dict(self) -> dict:
        return asdict(self)

    @property
    def promises(self) -> list:
        """The (claim, relation, value) the theorem states of the output:
        it is at least k-resilient, with nonlinearity at least the bound."""
        return [("resiliency", ">=", self.resiliency),
                ("nonlinearity", ">=", self.nonlinearity_bound)]


def _distinct_up_to_complement(
    f1: BooleanFunction, f2: BooleanFunction, f3: BooleanFunction
) -> bool:
    full = (1 << (1 << f1.n)) - 1
    # one representative per complement class: three classes iff pairwise distinct
    return len({min(f.mask, f.mask ^ full) for f in (f1, f2, f3)}) == 3


def _certified_sum(
    triple: BentTriple, gs: tuple, k: int, named_seeds: tuple, equality: bool
) -> tuple[BooleanFunction, ResilientSumCertificate]:
    """The generalized indirect sum of triple with gs = (g1, g2, g3) and its
    certificate, once the k-resiliency of the (name, seed) pairs and
    k < m-1 hold; the nonlinearity bound uses the largest |W| among the seeds."""
    n, m = triple.n, gs[0].n
    k = _require_resilient("k", k, *named_seeds)
    if not k < m - 1:
        raise PremiseError(f"need k < m-1, got k={k}, m={m}")
    h = generalized_indirect_sum(triple.f1, triple.f2, triple.f3, *gs)
    spread = max(walsh_transform(s).max_abs for _, s in named_seeds)
    bound = (1 << (n + m - 1)) - (1 << (n // 2 - 1)) * spread
    return h, ResilientSumCertificate(k, nonlinearity(h), bound, equality)


def resilient_indirect_sum(
    triple: BentTriple,
    g1: BooleanFunction,
    g2: BooleanFunction,
    g3: BooleanFunction,
    k: int,
) -> tuple[BooleanFunction, ResilientSumCertificate]:
    """Generalized indirect sum of a bent triple with three k-resilient
    functions (k-resilient XOR required), k < m-1.

    The output is k-resilient with nonlinearity at least
    2^(n+m-1) - 2^(n/2-1) * max over the four g spectra maxima, a lower
    bound only: equality_condition reports the paper's stated condition
    for equality, the triple members pairwise distinct up to complement,
    but the bound can be strict when it holds and attained when it fails.
    """
    check_total(triple.n + g1.n)
    distinct = _distinct_up_to_complement(triple.f1, triple.f2, triple.f3)
    return _certified_sum(triple, (g1, g2, g3), k, _with_xor("g", g1, g2, g3), distinct)


def resilient_indirect_sum_from_pair(
    triple: BentTriple,
    p: BooleanFunction,
    q: BooleanFunction,
    i: int,
    k: int,
) -> tuple[BooleanFunction, ResilientSumCertificate]:
    """Assign (g1, g2, g3) from two k-resilient seeds p, q and the
    coordinate function y_i, then apply the generalized indirect sum.

    With z = y_i when b = [W_f2(0) != W_f3(0)] is 1 (an even walsh_case
    at 0) and z = 0 otherwise, the assignment is (p+z, q+z, q+y_i+z):
    the multiplier at alpha = 0 is then p or q, so the output is
    k-resilient.  Its nonlinearity is at least
    2^(n+m-1) - 2^(n/2-1) * max(max|W_p|, max|W_q|), a lower bound only:
    equality_condition reports the paper's stated condition for
    equality, that f1 = f2 = f3 fails, but the bound can be strict when
    it holds and attained when it fails.
    """
    check_total(triple.n + p.n)
    m = p.n
    yi = BooleanFunction.variable(m, i)
    z = yi if walsh_case(triple, 0)[0] % 2 == 0 else BooleanFunction.zero(m)
    gs = p ^ z, q ^ z, q ^ yi ^ z
    not_all_equal = not (triple.f1 == triple.f2 == triple.f3)
    return _certified_sum(triple, gs, k, (("p", p), ("q", q)), not_all_equal)
