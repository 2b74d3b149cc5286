"""Every builder in the toolkit.

Primary classes: Maiorana-McFarland, partial-spread (PS_ap) via field
division, and class D (M-M plus subspace indicators).  Secondary
builders: direct sum, indirect sum, Rothaus extension, the restricted
indirect sum (indirect sum of coordinate restrictions of two bent
functions, in n+m-2 variables) with its dual formula and base-term
variants, the specializations of that construction to M-M / PS_ap /
class D inputs, and the generalized indirect sum for resilient and
highly nonlinear functions, including the certified bent-triple routes.

Composite outputs always place the (reduced) x-block before the y-block;
fresh variables are appended after the existing ones.  All builders are
pure and deterministic.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .analysis import dual, is_bent, nonlinearity, resiliency_report, walsh_transform
from .core import MAX_VARS, BooleanFunction, _mask_bytes
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


def _require_resilient(order: int, *named: tuple[str, BooleanFunction]) -> None:
    """Raise PremiseError at the first (name, function) not order-resilient;
    an order below -1, the resiliency of every function, is a bad parameter."""
    if order < -1:
        raise PremiseError(f"resiliency order {order} is below -1")
    for name, fn in named:
        if resiliency_report(fn).resiliency < order:
            raise PremiseError(f"{name} is not {order}-resilient")


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
        images = tuple(map(operator.index, images))
        size = len(images)
        k = size.bit_length() - 1
        if size != 1 << k or k < 1:
            raise ValueError(f"image count must be a power of two >= 2, got {size}")
        if r is None:
            r = k
        if any(not 0 <= v < (1 << r) for v in images):
            raise ValueError(f"images must lie in [0, 2^{r})")
        self.k = k
        self.r = r
        self.images = images

    @classmethod
    def identity(cls, k: int) -> "PermutationMap":
        return cls(range(1 << k))

    @property
    def is_permutation(self) -> bool:
        return self.r == self.k and len(set(self.images)) == len(self.images)

    def __call__(self, y: int) -> int:
        return self.images[y]

    def coordinate(self, i: int) -> BooleanFunction:
        """The i-th coordinate function, as a k-variable function."""
        if not 1 <= i <= self.r:
            raise ValueError(f"output coordinate {i} out of range")
        bit = self.r - i
        return BooleanFunction(self.k, [(v >> bit) & 1 for v in self.images])

    def drop_coordinate(self, i: int) -> "PermutationMap":
        """Remove output coordinate i, keeping the others in order."""
        if not 1 <= i <= self.r:
            raise ValueError(f"output coordinate {i} out of range")
        pos = self.r - i
        low = (1 << pos) - 1
        return PermutationMap(
            [((v >> (pos + 1)) << pos) | (v & low) for v in self.images],
            r=self.r - 1,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PermutationMap)
            and (self.k, self.r, self.images) == (other.k, other.r, other.images)
        )

    def __repr__(self) -> str:
        kind = "permutation" if self.is_permutation else f"map to F_2^{self.r}"
        return f"PermutationMap(k={self.k}, {kind})"


class LinearSubspace:
    """A linear subspace of F_2^k held as a canonical echelon basis."""

    __slots__ = ("k", "basis")

    def __init__(self, k: int, vectors: Sequence[int] = ()):
        if not 1 <= k <= MAX_VARS:
            raise ValueError(f"ambient dimension must be in [1, {MAX_VARS}]")
        rows: list[int] = []
        for v in vectors:
            v = operator.index(v)
            if not 0 <= v < (1 << k):
                raise ValueError(f"vector {v} outside F_2^{k}")
            for r in rows:
                if v ^ r < v:
                    v ^= r
            if v:
                rows.append(v)
                rows.sort(reverse=True)
        # back-substitute so each pivot appears in exactly one row
        for i, r in enumerate(rows):
            p = r.bit_length() - 1
            for j in range(len(rows)):
                if j != i and (rows[j] >> p) & 1:
                    rows[j] ^= r
        rows.sort(reverse=True)
        self.k = k
        self.basis = tuple(rows)

    @classmethod
    def zero(cls, k: int) -> "LinearSubspace":
        return cls(k)

    @classmethod
    def full(cls, k: int) -> "LinearSubspace":
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
        for r in self.basis:
            if v ^ r < v:
                v ^= r
        return v == 0

    def orthogonal(self) -> "LinearSubspace":
        """All w with w.b = 0 for every basis vector b."""
        keep = [
            w
            for w in range(1 << self.k)
            if all((w & b).bit_count() & 1 == 0 for b in self.basis)
        ]
        return LinearSubspace(self.k, keep)

    def indicator(self) -> np.ndarray:
        """Characteristic table over F_2^k as a uint8 array."""
        table = np.zeros(1 << self.k, dtype=np.uint8)
        table[self.members()] = 1
        return table

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
    imgs = np.array(phi.images, dtype=np.uint32)
    x = np.arange(1 << phi.r, dtype=np.uint32)
    table = np.bitwise_count(np.bitwise_and.outer(x, imgs))
    table &= 1
    table ^= u.values()
    return BooleanFunction(phi.r + phi.k, table.reshape(-1))


def psap_bent(field: GaloisField, theta: Sequence[int]) -> BooleanFunction:
    """Partial-spread bent function theta(x/y) on 2m variables.

    theta is a bit sequence indexed by field element; it must be
    balanced with theta(0) = 0 so that the x/0 = 0 convention and the
    f(x, 0) = 0 reading of the class agree.
    """
    m = field.m
    check_total(2 * m)
    bits = [operator.index(b) for b in theta]
    if len(bits) != field.order or any(b not in (0, 1) for b in bits):
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
    return BooleanFunction(2 * m, table.reshape(-1))


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
    base = mm_function(phi, BooleanFunction.zero(k))
    prod = np.bitwise_and.outer(e1.indicator(), e2.indicator()).reshape(-1)
    return BooleanFunction(2 * k, base.values() ^ prod)


def class_d_e1(phi: PermutationMap, e2: LinearSubspace) -> LinearSubspace:
    """The E1 = phi(E2)^perp that makes class_d_bent(phi, E1, E2) bent."""
    if e2.k != phi.k:
        raise ValueError(f"subspaces must live in F_2^{phi.k}")
    return LinearSubspace(phi.k, [phi(v) for v in e2.members()]).orthogonal()


# -- classical secondary builders ----------------------------------------


def direct_sum(f: BooleanFunction, g: BooleanFunction) -> BooleanFunction:
    """h(x, y) = f(x) + g(y) on n+m variables."""
    check_total(f.n + g.n)
    table = np.bitwise_xor.outer(f.values(), g.values())
    return BooleanFunction(f.n + g.n, table.reshape(-1))


def _indirect_tables(
    fa: BooleanFunction,
    df: BooleanFunction,
    gb: BooleanFunction,
    dg: BooleanFunction,
) -> BooleanFunction:
    """fa(x) + gb(y) + df(x) dg(y) with the block layout.

    With 3 or more y variables the row of each x is whole bytes of the
    packed table: dg's bytes where df(x) = 1, XOR gb's bytes, complemented
    where fa(x) = 1.  Rows of 1 or 2 variables are built bit by bit."""
    check_total(fa.n + gb.n)
    if gb.n < 3:
        table = np.bitwise_and.outer(df.values(), dg.values())
        table ^= np.bitwise_xor.outer(fa.values(), gb.values())
        return BooleanFunction(fa.n + gb.n, table.reshape(-1))
    ones = np.uint8(0xFF)
    rows = np.bitwise_and.outer(df.values() * ones, _mask_bytes(dg.mask, dg.n))
    rows ^= np.bitwise_xor.outer(fa.values() * ones, _mask_bytes(gb.mask, gb.n))
    return BooleanFunction(fa.n + gb.n, int.from_bytes(rows.tobytes(), "little"))


def indirect_sum(
    f1: BooleanFunction,
    f2: BooleanFunction,
    g1: BooleanFunction,
    g2: BooleanFunction,
) -> BooleanFunction:
    """f1(x) + g1(y) + (f1+f2)(x)(g1+g2)(y); maps bent 4-tuples to bent
    functions, with the dual given by the same formula on the duals."""
    if f1.n != f2.n:
        raise ValueError(f"variable counts differ: {f1.n} vs {f2.n}")
    if g1.n != g2.n:
        raise ValueError(f"variable counts differ: {g1.n} vs {g2.n}")
    return _indirect_tables(f1, f1 ^ f2, g1, g1 ^ g2)


def _with_fresh_product(a: BooleanFunction, b: BooleanFunction) -> BooleanFunction:
    """a(x) + b(x) z on n+1 variables, the fresh z appended after x_n."""
    z = BooleanFunction.variable(1, 1)
    return _indirect_tables(a, b, BooleanFunction.zero(1), z)


def _rothaus_halves(
    f1: BooleanFunction, f2: BooleanFunction, f3: BooleanFunction
) -> tuple[BooleanFunction, BooleanFunction]:
    """The Rothaus extension maj(f1, f2, f3) + (f1+f2) y + (f1+f3) z + y z
    split at its last fresh variable z: the base half (z = 0) is
    maj + (f1+f2) y and the difference half is (f1+f3) + y."""
    maj = (f1 & f2) ^ (f1 & f3) ^ (f2 & f3)
    one = BooleanFunction.constant(f1.n, 1)
    return _with_fresh_product(maj, f1 ^ f2), _with_fresh_product(f1 ^ f3, one)


def rothaus(
    f1: BooleanFunction, f2: BooleanFunction, f3: BooleanFunction
) -> BooleanFunction:
    """The classical three-function extension to n+2 variables; the two
    fresh variables are appended after x_n.  All four bentness premises
    (f1, f2, f3 and their XOR) are checked eagerly."""
    if not (f1.n == f2.n == f3.n):
        raise ValueError("the three inputs must share a variable count")
    check_total(f1.n + 2)
    _require_bent(*_with_xor("f", f1, f2, f3))
    return _with_fresh_product(*_rothaus_halves(f1, f2, f3))


# -- the restricted indirect sum -----------------------------------------


def restricted_indirect_sum(
    f: BooleanFunction,
    mu: int,
    g: BooleanFunction,
    rho: int,
    variant: str = "00",
) -> BooleanFunction:
    """Split two bent functions at one coordinate each and recombine the
    restrictions through the indirect-sum formula, landing in n+m-2
    variables.  variant picks which restriction serves as the base term
    on each side ("00" uses f_0 and g_0); all four variants are bent.
    """
    check_total(f.n + g.n - 2)
    if f.n % 2 or g.n % 2:
        raise PremiseError("inputs must have even variable counts")
    if variant not in ("00", "01", "10", "11"):
        raise ValueError(f"variant must be one of 00/01/10/11, got {variant!r}")
    _require_bent(("f", f), ("g", g))
    f0, f1 = f.restrict(mu, 0), f.restrict(mu, 1)
    g0, g1 = g.restrict(rho, 0), g.restrict(rho, 1)
    fa = f1 if variant[0] == "1" else f0
    gb = g1 if variant[1] == "1" else g0
    return _indirect_tables(fa, f0 ^ f1, gb, g0 ^ g1)


def restricted_indirect_sum_dual(
    f: BooleanFunction, mu: int, g: BooleanFunction, rho: int
) -> BooleanFunction:
    """The dual of restricted_indirect_sum(f, mu, g, rho, "00"), built
    from the same formula over restrictions of the two duals."""
    check_total(f.n + g.n - 2)
    df, dg = dual(f), dual(g)
    df0, df1 = df.restrict(mu, 0), df.restrict(mu, 1)
    dg0, dg1 = dg.restrict(rho, 0), dg.restrict(rho, 1)
    return _indirect_tables(df0, df0 ^ df1, dg0, dg0 ^ dg1)


def mm_restricted_sum(
    phi: PermutationMap,
    psi: PermutationMap,
    mu: int,
    rho: int,
    u: BooleanFunction,
    v: BooleanFunction,
) -> BooleanFunction:
    """The restricted indirect sum of two M-M functions, built directly:
    both M-M parts lose their mu-th / rho-th affine term and the product
    phi_mu(x'') psi_rho(y'') is added.  Bit-identical to composing
    mm_function with restricted_indirect_sum at the same coordinates."""
    check_total(2 * phi.k + 2 * psi.k - 2)
    if not (phi.is_permutation and psi.is_permutation):
        raise PremiseError("both maps must be Boolean permutations")
    if not 1 <= mu <= phi.k or not 1 <= rho <= psi.k:
        raise ValueError("mu and rho must index an affine coordinate")
    fside = mm_function(phi.drop_coordinate(mu), u)  # n-1 variables
    gside = mm_function(psi.drop_coordinate(rho), v)  # m-1 variables
    # phi_mu(y) and psi_rho(y) as functions of each side's (x', y)
    cf = np.tile(phi.coordinate(mu).values(), 1 << (phi.k - 1))
    cg = np.tile(psi.coordinate(rho).values(), 1 << (psi.k - 1))
    return _indirect_tables(
        fside, BooleanFunction(fside.n, cf), gside, BooleanFunction(gside.n, cg)
    )


def _trace_hyperplane_split(
    f: BooleanFunction,
    field: GaloisField,
    form: tuple[int, int],
    shift: tuple[int, int],
) -> tuple[BooleanFunction, BooleanFunction]:
    """Restrictions of a 2m-variable function to the trace hyperplane
    Tr(a x + b y) = 0 and to its shifted coset, in matching coordinates.

    The hyperplane basis comes from Gaussian elimination on the linear
    form with the lexicographically first pivot; the coset uses the
    given shift, whose trace value must be 1.
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
        e = 1 << (j - 1)
        lam |= field.trace(field.mul(a, e)) << (n - j)
        lam |= field.trace(field.mul(b, e)) << (n - (m + j))
    pivot = next(j for j in range(1, n + 1) if (lam >> (n - j)) & 1)
    basis = []
    for j in range(1, n + 1):
        if j == pivot:
            continue
        vec = 1 << (n - j)
        if (lam >> (n - j)) & 1:
            vec ^= 1 << (n - pivot)
        basis.append(vec)
    size = 1 << (n - 1)
    pts = np.zeros(size, dtype=np.int64)
    t = np.arange(size)
    for pos, vec in enumerate(basis):  # basis[pos] belongs to t_(pos+1)
        pts[((t >> (n - 2 - pos)) & 1) == 1] ^= vec
    # the shift point: alpha on the x block, beta on the y block
    sidx = (field.reverse_bits(alpha) << m) | field.reverse_bits(beta)
    vals = f.values()
    return (
        BooleanFunction(n - 1, vals[pts]),
        BooleanFunction(n - 1, vals[pts ^ sidx]),
    )


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
    return _indirect_tables(f0, f0 ^ f1, g0, g0 ^ g1)


def rothaus_restricted_sum(
    f1: BooleanFunction,
    f2: BooleanFunction,
    f3: BooleanFunction,
    g1: BooleanFunction,
    g2: BooleanFunction,
    g3: BooleanFunction,
) -> BooleanFunction:
    """Combine two Rothaus extensions into n+m+2 variables: the indirect
    sum of their halves at the last fresh variable, bit-identical to
    restricted_indirect_sum of the two extensions at that variable."""
    check_total(f1.n + g1.n + 2)
    _require_bent(*_with_xor("f", f1, f2, f3), *_with_xor("g", g1, g2, g3))
    return _indirect_tables(*_rothaus_halves(f1, f2, f3), *_rothaus_halves(g1, g2, g3))


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
    coordinates mu and rho (composition route)."""
    check_total(2 * phi.k + 2 * psi.k - 2)
    f = class_d_bent(phi, e1, e2)
    g = class_d_bent(psi, xi1, xi2)
    if not 1 <= mu <= phi.k or not 1 <= rho <= psi.k:
        raise ValueError("mu and rho must index an affine coordinate")
    return restricted_indirect_sum(f, mu, g, rho, "00")


# -- generalized indirect sum and the bent-triple routes ------------------


class BentTriple:
    """Three bent functions whose XOR is bent with matching dual sum.

    certified means it was verified that f1, f2, f3 and nu1 = f1+f2+f3
    are all bent and dual(nu1) = dual(f1)+dual(f2)+dual(f3) bit-exactly;
    only certify sets it.
    """

    __slots__ = ("f1", "f2", "f3", "certified")

    def __init__(self, f1: BooleanFunction, f2: BooleanFunction, f3: BooleanFunction):
        if not (f1.n == f2.n == f3.n):
            raise ValueError("triple members must share a variable count")
        if f1.n % 2:
            raise ValueError("bent triples need an even variable count")
        self.f1 = f1
        self.f2 = f2
        self.f3 = f3
        self.certified = False

    @property
    def n(self) -> int:
        return self.f1.n

    @property
    def nu1(self) -> BooleanFunction:
        return self.f1 ^ self.f2 ^ self.f3

    @classmethod
    def certify(
        cls, f1: BooleanFunction, f2: BooleanFunction, f3: BooleanFunction
    ) -> "BentTriple":
        triple = cls(f1, f2, f3)
        nu1 = triple.nu1
        _require_bent(("f1", f1), ("f2", f2), ("f3", f3), ("f1+f2+f3", nu1))
        if dual(nu1) != dual(f1) ^ dual(f2) ^ dual(f3):
            raise PremiseError("the dual of the XOR must equal the XOR of the duals")
        triple.certified = True
        return triple

    def __repr__(self) -> str:
        tag = "certified" if self.certified else "unverified"
        return f"BentTriple(n={self.n}, {tag})"


def bent_triple_from_derivative(
    vartheta: BooleanFunction, theta: BooleanFunction, a
) -> BentTriple:
    """(vartheta, vartheta(. + a), theta) certified via the shared
    derivative: requires D_a(vartheta) = D_a(theta) bit-exactly."""
    if vartheta.n != theta.n:
        raise ValueError("inputs must share a variable count")
    _require_bent(("both inputs", vartheta), ("both inputs", theta))
    if vartheta.derivative(a) != theta.derivative(a):
        raise PremiseError("the two derivatives at a must coincide")
    return BentTriple.certify(vartheta, vartheta.translate(a), theta)


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
    is then (t+k+1)-resilient); mode="bent" certifies that all eight
    functions are bent and the f-side dual-sum condition holds (the
    output is then bent).  With f2 = f3 and g2 = g3 the formula reduces
    to the plain indirect sum.
    """
    if not (f1.n == f2.n == f3.n):
        raise ValueError("f inputs must share a variable count")
    if not (g1.n == g2.n == g3.n):
        raise ValueError("g inputs must share a variable count")
    n, m = f1.n, g1.n
    check_total(n + m)
    if mode == "resilient":
        if t is None or k is None:
            raise ValueError("resilient mode needs both t and k")
        _require_resilient(t, *_with_xor("f", f1, f2, f3))
        _require_resilient(k, *_with_xor("g", g1, g2, g3))
    elif mode == "bent":
        BentTriple.certify(f1, f2, f3)
        _require_bent(*_with_xor("g", g1, g2, g3))
    elif mode is not None:
        raise ValueError(f"unknown mode {mode!r}")
    cross = np.bitwise_and.outer((f2 ^ f3).values(), (g2 ^ g3).values())
    h = _indirect_tables(f1, f1 ^ f2, g1, g1 ^ g2)
    return h ^ BooleanFunction(n + m, cross.reshape(-1))


_CASE_MULTIPLIER = {1: "g1", 2: "nu2", 3: "g2", 4: "g3"}


def walsh_case(triple: BentTriple, alpha) -> tuple[int, str]:
    """Which of the four sign patterns W_f1/W_f2/W_f3 takes at alpha,
    and which g-side spectrum multiplies W_f1(alpha) there.

    case 1: all equal -> g1; case 2: f1=f2 != f3 -> g1+g2+g3;
    case 3: f1 != f2=f3 -> g2; case 4: f1=f3 != f2 -> g3.
    """
    if not triple.certified:
        raise PremiseError("the triple must be certified")
    w1 = walsh_transform(triple.f1)[alpha]
    w2 = walsh_transform(triple.f2)[alpha]
    w3 = walsh_transform(triple.f3)[alpha]
    if w1 == w2 == w3:
        case = 1
    elif w1 == w2:
        case = 2
    elif w2 == w3:
        case = 3
    else:
        case = 4
    return case, _CASE_MULTIPLIER[case]


@dataclass
class ResilientSumCertificate:
    """Verified facts about a resilient generalized-indirect-sum output."""

    resiliency: int
    nonlinearity: int
    nonlinearity_bound: int
    equality_condition: bool

    def as_dict(self) -> dict:
        return asdict(self)


def _distinct_up_to_complement(
    f1: BooleanFunction, f2: BooleanFunction, f3: BooleanFunction
) -> bool:
    full = (1 << (1 << f1.n)) - 1
    # one representative per complement class: three classes iff pairwise distinct
    return len({min(f.mask, f.mask ^ full) for f in (f1, f2, f3)}) == 3


def _certified_sum(
    triple: BentTriple, gs: tuple, k: int, seeds: tuple, equality: bool
) -> tuple[BooleanFunction, ResilientSumCertificate]:
    """The generalized indirect sum of triple with gs and its certificate;
    the nonlinearity bound uses the largest |W| among the seeds."""
    h = generalized_indirect_sum(triple.f1, triple.f2, triple.f3, *gs)
    n, m = triple.n, gs[0].n
    spread = max(walsh_transform(s).max_abs for s in seeds)
    bound = (1 << (n + m - 1)) - (1 << (n // 2 - 1)) * spread
    return h, ResilientSumCertificate(k, nonlinearity(h), bound, equality)


def resilient_indirect_sum(
    triple: BentTriple,
    g1: BooleanFunction,
    g2: BooleanFunction,
    g3: BooleanFunction,
    k: int,
) -> tuple[BooleanFunction, ResilientSumCertificate]:
    """Generalized indirect sum of a certified bent triple with three
    k-resilient functions (k-resilient XOR required), k < m-1.

    The output is k-resilient with nonlinearity at least
    2^(n+m-1) - 2^(n/2-1) * max over the four g spectra maxima; the
    bound is attained exactly when the triple members are pairwise
    distinct up to complement.
    """
    check_total(triple.n + g1.n)
    if not triple.certified:
        raise PremiseError("the triple must be certified")
    if not (g1.n == g2.n == g3.n):
        raise ValueError("g inputs must share a variable count")
    m = g1.n
    if not k < m - 1:
        raise PremiseError(f"need k < m-1, got k={k}, m={m}")
    nu2 = g1 ^ g2 ^ g3
    _require_resilient(k, ("g1", g1), ("g2", g2), ("g3", g3), ("g1+g2+g3", nu2))
    distinct = _distinct_up_to_complement(triple.f1, triple.f2, triple.f3)
    return _certified_sum(triple, (g1, g2, g3), k, (g1, g2, g3, nu2), distinct)


def resilient_indirect_sum_from_pair(
    triple: BentTriple,
    p: BooleanFunction,
    q: BooleanFunction,
    i: int,
    k: int,
) -> tuple[BooleanFunction, ResilientSumCertificate]:
    """Assign (g1, g2, g3) from two k-resilient seeds p, q and the
    coordinate function y_i, steered by the signs of the three triple
    spectra at 0, then apply the generalized indirect sum.

    Sign patterns (1)/(3) take (p, q, q+y_i); patterns (2)/(4) take
    (p+y_i, q+y_i, q).  The output is k-resilient with nonlinearity at
    least 2^(n+m-1) - 2^(n/2-1) * max(max|W_p|, max|W_q|), attained
    exactly when f1 = f2 = f3 fails.
    """
    check_total(triple.n + p.n)
    if not triple.certified:
        raise PremiseError("the triple must be certified")
    if p.n != q.n:
        raise ValueError("p and q must share a variable count")
    m = p.n
    if not 1 <= i <= m:
        raise ValueError(f"coordinate {i} out of range for m={m}")
    if not k < m - 1:
        raise PremiseError(f"need k < m-1, got k={k}, m={m}")
    _require_resilient(k, ("p", p), ("q", q))
    yi = BooleanFunction.variable(m, i)
    if walsh_case(triple, 0)[0] in (1, 3):
        gs = p, q, q ^ yi
    else:
        gs = p ^ yi, q ^ yi, q
    not_all_equal = not (triple.f1 == triple.f2 == triple.f3)
    return _certified_sum(triple, gs, k, (p, q), not_all_equal)
