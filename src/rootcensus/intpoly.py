"""Exact arithmetic on integer polynomials.

Coefficients are stored leading-first: ``IntPolynomial((a0, a1, ..., an))``
represents a0*X^n + a1*X^(n-1) + ... + an, matching the external
"a_0,a_1,...,a_n" serialization. The zero polynomial is the empty tuple
and reports degree -1.

Everything here is exact integer (or Fraction) arithmetic: subresultant
resultants, primitive-PRS gcd, Yun squarefree decomposition, Sturm
chains, the Graeffe root-squaring transform, reciprocal and
power-substitution structure, and the pairwise root-product polynomial
prod_{i<j} (X - alpha_i alpha_j) built from resultants by interpolation.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .errors import (
    BadParameters,
    DegreeTooSmall,
    EndpointIsRoot,
    ZeroConstantTerm,
    ZeroPolynomial,
)

__all__ = [
    "IntPolynomial",
    "SturmChain",
    "SquarefreeDecomposition",
    "parse_coeff_string",
    "coeff_string",
    "divmod_exact",
    "pseudo_divmod",
    "subresultant_gcd",
    "resultant",
    "discriminant",
    "disc2",
    "disc3",
    "squarefree_decomposition",
    "squarefree_part",
    "graeffe_transform",
    "reciprocal",
    "power_substitution",
    "sturm_chain",
    "sturm_real_root_count",
    "pair_product_full",
    "root_product_poly",
    "poly_sqrt_exact",
]


def _trim(coeffs: Sequence[int]) -> Tuple[int, ...]:
    i = 0
    while i < len(coeffs) and coeffs[i] == 0:
        i += 1
    return tuple(coeffs[i:])


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial, leading coefficient first.

    >>> f = IntPolynomial((1, 0, -2))
    >>> f.degree, f(2)
    (2, 2)
    >>> IntPolynomial((0, 0)).is_zero
    True
    """

    coeffs: Tuple[int, ...]
    # roots._analysis stores the polynomial's squarefree factors and real
    # counts on the instance as `_analysis`, outside the dataclass fields
    # that equality and hashing read

    def __post_init__(self):
        cs = self.coeffs
        # the fast path: every internal construction passes a tuple of ints
        if type(cs) is not tuple or not all(type(c) is int for c in cs):
            try:
                cs = tuple(operator.index(c) for c in cs)
            except TypeError:
                raise BadParameters("coefficients must be integers: %r" % (cs,)) from None
        if cs and cs[0] == 0:
            cs = _trim(cs)
        object.__setattr__(self, "coeffs", cs)

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[0]

    @property
    def constant(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def height(self) -> int:
        """Max absolute coefficient (0 for the zero polynomial)."""
        return max((abs(c) for c in self.coeffs), default=0)

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[0] == 1

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- evaluation ---------------------------------------------------

    def __call__(self, x):
        return self.eval_at(x)

    def eval_at(self, x):
        """Horner evaluation; works for any ring element (int, Fraction,
        float, complex, mpf/mpc, interval types)."""
        if self.is_zero:
            return 0 * x
        acc = self.coeffs[0] + 0 * x
        for c in self.coeffs[1:]:
            acc = acc * x + c
        return acc

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        off = len(a) - len(b)
        for i, c in enumerate(b):
            out[off + i] += c
        return IntPolynomial(tuple(out))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(tuple(out))

    def __rmul__(self, other):
        return self.__mul__(other)

    def shift_degree(self, k: int) -> "IntPolynomial":
        """Multiply by X^k."""
        if self.is_zero or k == 0:
            return self if k == 0 else self
        return IntPolynomial(self.coeffs + (0,) * k)

    def derivative(self) -> "IntPolynomial":
        n = self.degree
        if n <= 0:
            return IntPolynomial(())
        return IntPolynomial(tuple(c * (n - i) for i, c in enumerate(self.coeffs[:-1])))

    def content(self) -> int:
        """gcd of the coefficients, nonnegative; 0 for the zero polynomial."""
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
            if g == 1:
                break
        return g

    def primitive_part(self) -> "IntPolynomial":
        """self / content; preserves the sign of the leading coefficient."""
        c = self.content()
        if c <= 1:
            return self
        return IntPolynomial(tuple(x // c for x in self.coeffs))

    def monic_positive(self) -> "IntPolynomial":
        """Primitive part normalized to a positive leading coefficient."""
        p = self.primitive_part()
        if p.coeffs and p.coeffs[0] < 0:
            return -p
        return p

    # -- display ------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        n = self.degree
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            e = n - i
            if e == 0:
                term = str(abs(c))
            else:
                xs = "X" if e == 1 else "X^%d" % e
                term = xs if abs(c) == 1 else "%d%s" % (abs(c), xs)
            sign = "-" if c < 0 else "+"
            parts.append((sign, term))
        head_sign, head = parts[0]
        s = ("-" if head_sign == "-" else "") + head
        for sign, term in parts[1:]:
            s += " %s %s" % (sign, term)
        return s


def parse_coeff_string(s: str) -> IntPolynomial:
    """Parse "a_0,a_1,...,a_n" (leading coefficient first).

    A zero leading coefficient is rejected: textual input with a0 = 0
    almost always means a typo in the intended degree.
    """
    try:
        cs = [int(tok.strip()) for tok in s.split(",")]
    except ValueError as exc:
        raise BadParameters("bad coefficient string %r: %s" % (s, exc)) from None
    if not cs:
        raise BadParameters("empty coefficient string")
    if all(c == 0 for c in cs):
        raise ZeroPolynomial("all coefficients are zero")
    if cs[0] == 0:
        raise BadParameters("leading coefficient a_0 must be nonzero, got %r" % s)
    return IntPolynomial(tuple(cs))


def coeff_string(f: IntPolynomial) -> str:
    """Inverse of parse_coeff_string."""
    if f.is_zero:
        return "0"
    return ",".join(str(c) for c in f.coeffs)


# -- division ----------------------------------------------------------


def divmod_exact(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """Exact quotient f / g over the integers; raises if not exact."""
    if g.is_zero:
        raise ZeroPolynomial("division by the zero polynomial")
    if f.is_zero:
        return f
    if f.degree < g.degree:
        raise BadParameters("inexact polynomial division (degree)")
    r = list(f.coeffs)
    gl = g.coeffs[0]
    dq = f.degree - g.degree
    q = [0] * (dq + 1)
    for i in range(dq + 1):
        c = r[i]
        if c % gl != 0:
            raise BadParameters("inexact polynomial division (leading)")
        t = c // gl
        q[i] = t
        if t:
            for j, gc in enumerate(g.coeffs):
                r[i + j] -= t * gc
    if any(r[dq + 1 :]):
        raise BadParameters("inexact polynomial division (remainder)")
    return IntPolynomial(tuple(q))


def pseudo_divmod(f: IntPolynomial, g: IntPolynomial) -> Tuple[IntPolynomial, IntPolynomial]:
    """Pseudo-division: lc(g)^(deg f - deg g + 1) * f = q*g + r.

    Requires deg f >= deg g >= 0. Each nonzero leading term t of the
    running remainder is cancelled by lc(g) * r - t X^k g; each skipped
    (zero) step becomes one more factor lc(g) at the end.
    """
    if g.is_zero:
        raise ZeroPolynomial("pseudo-division by the zero polynomial")
    r = list(f.coeffs)
    gc = g.coeffs
    steps = len(r) - len(gc) + 1
    if steps < 1:
        raise BadParameters("pseudo_divmod needs deg f >= deg g")
    lcg = gc[0]
    q = [0] * steps
    skipped = 0
    for i in range(steps):
        t = r[i]
        if not t:
            skipped += 1
            continue
        if lcg != 1:
            for k in range(i):
                q[k] *= lcg
            for k in range(i + 1, len(r)):
                r[k] *= lcg
        q[i] = t
        for j in range(1, len(gc)):
            r[i + j] -= t * gc[j]
    rest = r[steps:]
    if skipped and lcg != 1:
        scale = lcg**skipped
        q = [c * scale for c in q]
        rest = [c * scale for c in rest]
    return IntPolynomial(tuple(q)), IntPolynomial(tuple(rest))


def _prem(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    return pseudo_divmod(f, g)[1]


# -- gcd / resultant ----------------------------------------------------


def subresultant_gcd(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """gcd in Z[X], primitive with positive leading coefficient times the
    content gcd; gcd(0, 0) = 0."""
    if f.is_zero and g.is_zero:
        return IntPolynomial(())
    if f.is_zero:
        return g.monic_positive() * g.content() if not g.is_zero else g
    if g.is_zero:
        return f.monic_positive() * f.content()
    cont = math.gcd(f.content(), g.content())
    a = f.monic_positive()
    b = g.monic_positive()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero and b.degree > 0:
        r = _prem(a, b)
        a, b = b, r.monic_positive()
    if not b.is_zero:
        # nonzero constant remainder: coprime primitive parts
        return IntPolynomial((cont,))
    return a * cont


def resultant(f: IntPolynomial, g: IntPolynomial) -> int:
    """Resultant over Z via the subresultant polynomial remainder sequence."""
    if f.is_zero or g.is_zero:
        return 0
    if f.degree == 0 and g.degree == 0:
        return 1
    if f.degree == 0:
        return f.coeffs[0] ** g.degree
    if g.degree == 0:
        return g.coeffs[0] ** f.degree
    s = 1
    A, B = f, g
    if A.degree < B.degree:
        if (A.degree % 2 == 1) and (B.degree % 2 == 1):
            s = -1
        A, B = B, A
    ca, cb = A.content(), B.content()
    t = (ca ** B.degree) * (cb ** A.degree)
    A = A.primitive_part()
    B = B.primitive_part()
    gg = 1
    hh = 1
    while True:
        dA, dB = A.degree, B.degree
        delta = dA - dB
        if (dA % 2 == 1) and (dB % 2 == 1):
            s = -s
        R = _prem(A, B)
        if R.is_zero:
            return 0
        A = B
        div = gg * hh**delta
        B = IntPolynomial(tuple(c // div for c in R.coeffs))
        if any(c % div for c in R.coeffs):
            raise AssertionError("subresultant PRS division not exact")
        gg = A.coeffs[0]
        if delta == 0:
            pass  # h unchanged
        elif delta == 1:
            hh = gg
        else:
            num = gg**delta
            den = hh ** (delta - 1)
            if num % den:
                raise AssertionError("subresultant h-update not exact")
            hh = num // den
        if B.degree <= 0:
            break
    dA = A.degree
    lB = B.coeffs[0]
    num = lB**dA
    den = hh ** (dA - 1) if dA >= 1 else 1
    if den != 0 and num % den:
        raise AssertionError("subresultant final step not exact")
    return s * t * (num // den)


def discriminant(f: IntPolynomial) -> int:
    """disc(f) = (-1)^(n(n-1)/2) * Res(f, f') / a0 for deg f = n >= 1."""
    n = f.degree
    if n < 1:
        raise DegreeTooSmall("discriminant needs degree >= 1")
    if n == 1:
        return 1
    if n == 2:
        a, b, c = f.coeffs
        return disc2(a, b, c)
    if n == 3:
        a, b, c, d = f.coeffs
        return disc3(a, b, c, d)
    r = resultant(f, f.derivative())
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    q, rem = divmod(sign * r, f.coeffs[0])
    if rem:
        raise AssertionError("discriminant division not exact")
    return q


def disc2(a: int, b: int, c: int) -> int:
    return b * b - 4 * a * c


def disc3(a: int, b: int, c: int, d: int) -> int:
    return (
        18 * a * b * c * d
        - 4 * b * b * b * d
        + b * b * c * c
        - 4 * a * c * c * c
        - 27 * a * a * d * d
    )


# -- squarefree structure ------------------------------------------------


@dataclass(frozen=True)
class SquarefreeDecomposition:
    """f = content * prod factor_i ^ mult_i with primitive, positive-leading,
    pairwise-coprime squarefree factors; content carries the sign."""

    content: int
    factors: Tuple[Tuple[IntPolynomial, int], ...]

    def reconstruct(self) -> IntPolynomial:
        out = IntPolynomial((self.content,))
        for p, m in self.factors:
            for _ in range(m):
                out = out * p
        return out


def squarefree_decomposition(f: IntPolynomial) -> SquarefreeDecomposition:
    """Yun's algorithm over Z (characteristic zero)."""
    if f.is_zero:
        raise ZeroPolynomial("squarefree decomposition of the zero polynomial")
    cont = f.content()
    if f.coeffs[0] < 0:
        cont = -cont
    p = f.monic_positive()
    if p.degree == 0:
        return SquarefreeDecomposition(cont, ())
    d = subresultant_gcd(p, p.derivative())
    if d.degree == 0:
        return SquarefreeDecomposition(cont, ((p, 1),))
    out = []
    b = divmod_exact(p, d)
    c = divmod_exact(p.derivative(), d)
    w = c - b.derivative()
    i = 1
    while b.degree > 0:
        a = subresultant_gcd(b, w)
        if a.degree > 0:
            out.append((a, i))
            b = divmod_exact(b, a)
            c = divmod_exact(w, a)
        else:
            c = w
        w = c - b.derivative()
        i += 1
    return SquarefreeDecomposition(cont, tuple(out))


def squarefree_part(f: IntPolynomial) -> IntPolynomial:
    """Product of the distinct irreducible factors, primitive and
    positive-leading."""
    dec = squarefree_decomposition(f)
    out = IntPolynomial((1,))
    for p, _ in dec.factors:
        out = out * p
    return out


# -- structural transforms ------------------------------------------------


def graeffe_transform(f: IntPolynomial) -> IntPolynomial:
    """G with G(X^2) = (-1)^deg(f) f(X) f(-X): roots of G are the squared
    roots of f, leading coefficient a0^2, degree preserved."""
    n = f.degree
    if n < 0:
        raise ZeroPolynomial("graeffe transform of the zero polynomial")
    asc = list(reversed(f.coeffs))
    even = asc[0::2]
    odd = asc[1::2]
    E = IntPolynomial(tuple(reversed(even)))
    O = IntPolynomial(tuple(reversed(odd)))
    F = E * E - (O * O).shift_degree(1)
    if n % 2:
        F = -F
    return F


def reciprocal(f: IntPolynomial) -> IntPolynomial:
    """X^n f(1/X); roots map to their inverses. Needs f(0) != 0."""
    if f.is_zero:
        raise ZeroPolynomial("reciprocal of the zero polynomial")
    if f.coeffs[-1] == 0:
        raise ZeroConstantTerm("reciprocal needs a nonzero constant term")
    return IntPolynomial(tuple(reversed(f.coeffs)))


def power_substitution(f: IntPolynomial) -> Tuple[int, IntPolynomial]:
    """Largest m with f(X) = g(X^m); returns (m, g). m = 1 means no
    structure. Needs degree >= 1."""
    n = f.degree
    if n < 1:
        raise DegreeTooSmall("power substitution needs degree >= 1")
    m = 0
    for i, c in enumerate(f.coeffs):
        if c != 0:
            m = math.gcd(m, n - i)
        if m == 1:
            break
    if m == 0:  # only the constant term is nonzero: impossible for deg >= 1
        raise AssertionError("unreachable: nonzero degree with single term at 0")
    if m == 1:
        return 1, f
    g = tuple(f.coeffs[i] for i in range(0, n + 1, m))
    return m, IntPolynomial(g)


# -- Sturm chains ---------------------------------------------------------


@dataclass(frozen=True)
class SturmChain:
    """Sign-correct Sturm sequence of the squarefree part of a polynomial."""

    polys: Tuple[IntPolynomial, ...]

    def variations_at(self, x: Fraction) -> int:
        signs = []
        for p in self.polys:
            v = p.eval_at(x)
            if v > 0:
                signs.append(1)
            elif v < 0:
                signs.append(-1)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    def variations_at_minus_inf(self) -> int:
        signs = []
        for p in self.polys:
            s = 1 if p.coeffs[0] > 0 else -1
            if p.degree % 2:
                s = -s
            signs.append(s)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    def variations_at_plus_inf(self) -> int:
        signs = [1 if p.coeffs[0] > 0 else -1 for p in self.polys]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_chain(f: IntPolynomial) -> SturmChain:
    """Build the Sturm chain of squarefree_part(f).

    Remainders are computed fraction-free; every rescaling factor is kept
    positive so the sign variations match the classical chain.

    The chain of a squarefree f is its own gcd computation: it ends in a
    nonzero constant exactly when gcd(f, f') = 1. So it is built from f
    first and rebuilt from squarefree_part(f) only when it stops early,
    at a repeated factor.
    """
    if not f.is_zero:
        chain = _sturm_sequence(f.monic_positive())
        if chain.polys[-1].degree < 1:
            return chain
    return _sturm_sequence(squarefree_part(f))


def _sturm_sequence(p0: IntPolynomial) -> SturmChain:
    """The chain of p0 (primitive, positive leading coefficient); for p0
    with a repeated factor it stops at a multiple of gcd(p0, p0')."""
    if p0.degree < 1:
        return SturmChain((p0,)) if not p0.is_zero else SturmChain(())
    chain = [p0, p0.derivative().primitive_part()]
    while chain[-1].degree > 0:
        a, b = chain[-2], chain[-1]
        r = _prem(a, b)
        if r.is_zero:
            break  # b is a multiple of gcd(p0, p0'), of positive degree
        # prem multiplies by lc(b)^(delta+1); flip back when that factor
        # is negative so only positive scalings touch the chain
        delta = a.degree - b.degree
        if b.coeffs[0] < 0 and (delta + 1) % 2 == 1:
            r = -r
        chain.append((-r).primitive_part())
    return SturmChain(tuple(chain))


def sturm_real_root_count(
    f: IntPolynomial,
    interval: Tuple[Optional[Fraction], Optional[Fraction]] = (None, None),
) -> int:
    """Number of distinct real roots of f in the interval.

    Endpoints are Fractions (or ints), None meaning -oo / +oo. An endpoint
    that is itself a root raises EndpointIsRoot.
    """
    if f.is_zero:
        raise ZeroPolynomial("root count of the zero polynomial")
    if f.degree == 0:
        return 0
    lo, hi = interval
    if lo is not None and hi is not None and Fraction(lo) >= Fraction(hi):
        raise BadParameters("empty interval for root count")
    chain = sturm_chain(f)
    p0 = chain.polys[0]
    if lo is not None:
        lo = Fraction(lo)
        if p0.eval_at(lo) == 0:
            raise EndpointIsRoot("lower endpoint %s is a root" % lo)
    if hi is not None:
        hi = Fraction(hi)
        if p0.eval_at(hi) == 0:
            raise EndpointIsRoot("upper endpoint %s is a root" % hi)
    va = chain.variations_at(lo) if lo is not None else chain.variations_at_minus_inf()
    vb = chain.variations_at(hi) if hi is not None else chain.variations_at_plus_inf()
    return va - vb


# -- root-product polynomial ----------------------------------------------


def _interpolate(xs: Sequence[int], ys: Sequence[int]) -> Optional[IntPolynomial]:
    """The polynomial of degree < len(xs) through the integer points
    (xs[i], ys[i]) if its coefficients are integers, else None.

    Newton's divided differences in integers: an integer polynomial has
    integer divided differences at integer nodes, so the first nonzero
    remainder proves the interpolant is not integral.
    """
    m = len(xs)
    coefs = list(ys)
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            coefs[i], rem = divmod(coefs[i] - coefs[i - 1], xs[i] - xs[i - j])
            if rem:
                return None
    # expand c0 + c1 (x-x0) + c2 (x-x0)(x-x1) + ..., highest degree first
    poly = [coefs[m - 1]]
    for j in range(m - 2, -1, -1):
        # poly <- poly * (x - xs[j]) + coefs[j]
        shifted = [0] + [c * xs[j] for c in poly]
        poly = [a - b for a, b in zip(poly + [coefs[j]], shifted)]
    return IntPolynomial(tuple(poly))


def poly_sqrt_exact(f: IntPolynomial) -> IntPolynomial:
    """Exact integer polynomial square root; raises if f is not a perfect
    square. The result has a positive leading coefficient."""
    if f.is_zero:
        return f
    d = f.degree
    if d % 2:
        raise BadParameters("odd degree has no polynomial square root")
    q = f.coeffs
    if q[0] < 0:
        raise BadParameters("negative leading coefficient is not a square")
    s0 = math.isqrt(q[0])
    if s0 * s0 != q[0]:
        raise BadParameters("leading coefficient is not a perfect square")
    k = d // 2
    s = [s0]
    for j in range(1, k + 1):
        acc = q[j]
        for i in range(1, j):
            acc -= s[i] * s[j - i]
        num = acc
        den = 2 * s0
        if num % den:
            raise BadParameters("polynomial is not a perfect square")
        s.append(num // den)
    cand = IntPolynomial(tuple(s))
    if cand * cand != f:
        raise BadParameters("polynomial is not a perfect square")
    return cand


def _deflate_zero_roots(f: IntPolynomial) -> Tuple[int, IntPolynomial]:
    """Split f = g * X^v with g(0) != 0; returns (v, g)."""
    cs = list(f.coeffs)
    v = 0
    while cs and cs[-1] == 0:
        cs.pop()
        v += 1
    return v, IntPolynomial(tuple(cs))


def pair_product_full(g: IntPolynomial) -> IntPolynomial:
    """T(x) = a0^(2m) prod_{j,k} (x - alpha_j alpha_k) over ORDERED pairs
    (diagonal included) of roots of g; needs g(0) != 0 and deg g >= 1.

    T is the resultant Res_y(g(y), y^m g(x/y)) viewed as a polynomial in
    x, computed by evaluating at m^2 + 1 integer points and
    interpolating exactly.
    """
    m = g.degree
    if m < 1:
        raise DegreeTooSmall("pair products need degree >= 1")
    b = g.coeffs
    if b[-1] == 0:
        raise ZeroConstantTerm("pair_product_full needs a nonzero constant term")
    if m == 1:
        a0, a1 = b
        return IntPolynomial((a0 * a0, -(a1 * a1)))
    npts = m * m + 1
    xs, ys = [], []
    t = 0
    while len(xs) < npts:
        for x in ((t,) if t == 0 else (t, -t)):
            if len(xs) >= npts:
                break
            # G_x(y) = sum_i b_i x^(m-i) y^i ; leading y-coeff is b_m != 0
            gy = tuple(b[m - j] * x**j for j in range(m + 1))
            xs.append(x)
            ys.append(resultant(g, IntPolynomial(gy)))
        t += 1
    t_full = _interpolate(xs, ys)
    if t_full is None:
        raise AssertionError("interpolation produced a non-integer coefficient")
    if t_full.degree != m * m:
        raise AssertionError("pair-product resultant has wrong degree")
    return t_full


def root_product_poly(f: IntPolynomial) -> IntPolynomial:
    """Integer polynomial proportional to prod_{i<j} (X - alpha_i alpha_j)
    over all unordered pairs of roots of f (with multiplicity), degree
    n(n-1)/2. The proportionality constant is a0^(m-1) where m is the
    degree after deflating zero roots; it never affects zero tests.

    Method: pair_product_full covers all ordered pairs; dividing by the
    Graeffe transform removes the diagonal and leaves an exact square
    whose integer square root is the answer. Zero roots contribute a
    plain monomial factor.
    """
    n = f.degree
    if n < 2:
        raise DegreeTooSmall("root products need degree >= 2")
    v, g = _deflate_zero_roots(f)
    m = g.degree
    zero_pairs = v * m + v * (v - 1) // 2
    if m < 2:
        return IntPolynomial((1,)).shift_degree(zero_pairs)
    t_full = pair_product_full(g)
    gr = graeffe_transform(g)
    q = divmod_exact(t_full, gr)
    s = poly_sqrt_exact(q)
    return s.shift_degree(zero_pairs)
