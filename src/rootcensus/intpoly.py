"""Exact arithmetic on integer polynomials.

Coefficients are stored leading-first: ``IntPolynomial((a0, a1, ..., an))``
represents a0*X^n + a1*X^(n-1) + ... + an, matching the external
"a_0,a_1,...,a_n" serialization. The zero polynomial is the empty tuple
and reports degree -1.

Everything here is exact integer (or Fraction) arithmetic: subresultant
resultants, primitive-PRS gcd, Yun squarefree decomposition, Sturm
chains, power-substitution structure, and the polynomials of the
pairwise root products alpha_i alpha_j (pairs i <= j, or i < j), built
from power sums of the roots.
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
    ZeroPolynomial,
)

__all__ = [
    "IntPolynomial",
    "SturmChain",
    "SquarefreeDecomposition",
    "parse_coeff_string",
    "coeff_string",
    "divmod_exact",
    "subresultant_gcd",
    "resultant",
    "discriminant",
    "disc2",
    "disc3",
    "squarefree_decomposition",
    "squarefree_part",
    "power_substitution",
    "sturm_chain",
    "sturm_real_root_count",
    "root_product_poly",
]


def _trim(coeffs: Sequence[int]) -> Tuple[int, ...]:
    i = 0
    while i < len(coeffs) and coeffs[i] == 0:
        i += 1
    return tuple(coeffs[i:])


def _poly(cs: Tuple[int, ...]) -> "IntPolynomial":
    """IntPolynomial(cs) for a tuple of Python ints, trimmed of leading
    zeros but not re-validated: every arithmetic result inside this
    module has such coefficients by construction."""
    p = object.__new__(IntPolynomial)
    object.__setattr__(p, "coeffs", _trim(cs) if cs and cs[0] == 0 else cs)
    return p


def _int_nthroot(x: int, n: int) -> int:
    """floor(x^(1/n)) for integers x >= 0 and n >= 1, by Newton's method
    from above."""
    if x < 0:
        raise ValueError("negative")
    if x == 0:
        return 0
    r = 1 << (x.bit_length() // n + 1)
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            return r
        r = nr


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial, leading coefficient first.

    >>> f = IntPolynomial((1, 0, -2))
    >>> f.degree, f.eval_at(2)
    (2, 2)
    >>> IntPolynomial((0, 0)).is_zero
    True
    """

    coeffs: Tuple[int, ...]
    # roots._analysis stores the polynomial's zero roots and squarefree
    # factors on the instance as `_analysis`, outside the dataclass fields
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
    def height(self) -> int:
        """Max absolute coefficient (0 for the zero polynomial)."""
        return max((abs(c) for c in self.coeffs), default=0)

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- evaluation ---------------------------------------------------

    def eval_at(self, x):
        """Horner evaluation; works for any ring element (int, Fraction,
        float, complex, interval types)."""
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
        return _poly(tuple(out))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __neg__(self) -> "IntPolynomial":
        return _poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return _poly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _poly(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return _poly(tuple(out))

    def __rmul__(self, other):
        return self.__mul__(other)

    def shift_degree(self, k: int) -> "IntPolynomial":
        """Multiply by X^k."""
        return _poly(self.coeffs + (0,) * k) if self.coeffs and k else self

    def derivative(self) -> "IntPolynomial":
        n = self.degree
        if n <= 0:
            return _poly(())
        return _poly(tuple(c * (n - i) for i, c in enumerate(self.coeffs[:-1])))

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
        return _poly(tuple(x // c for x in self.coeffs))

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
    return _poly(tuple(q))


def _prem(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """Pseudo-remainder r of lc(g)^(deg f - deg g + 1) * f = q*g + r.

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
        raise BadParameters("pseudo-division needs deg f >= deg g")
    lcg = gc[0]
    skipped = 0
    for i in range(steps):
        t = r[i]
        if not t:
            skipped += 1
            continue
        if lcg != 1:
            for k in range(i + 1, len(r)):
                r[k] *= lcg
        for j in range(1, len(gc)):
            r[i + j] -= t * gc[j]
    rest = r[steps:]
    if skipped and lcg != 1:
        scale = lcg**skipped
        rest = [c * scale for c in rest]
    return _poly(tuple(rest))


# -- gcd / resultant ----------------------------------------------------


def subresultant_gcd(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """gcd in Z[X], primitive with positive leading coefficient times the
    content gcd; gcd(0, 0) = 0."""
    if f.is_zero or g.is_zero:
        h = g if f.is_zero else f
        return h.monic_positive() * h.content()
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
        return _poly((cont,))
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
        B = _poly(tuple(c // div for c in R.coeffs))
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
    """18abcd - 4b^3 d + b^2 c^2 - 4ac^3 - 27a^2 d^2, grouped so that at
    height H no partial result exceeds 54 H^4 in modulus."""
    return (18 * a * b * c - 4 * b * b * b - 27 * a * a * d) * d + (b * b - 4 * a * c) * c * c


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
    """Sign-correct Sturm sequence of a polynomial f, down to a last member
    g, a multiple of gcd(f, f'). g divides every member, so wherever
    g(x) != 0 the signs at x are those of the chain of the squarefree f / g
    times sign g(x): the variations count distinct roots of f (Basu,
    Pollack and Roy, Algorithms in Real Algebraic Geometry, ch. 2)."""

    polys: Tuple[IntPolynomial, ...]

    def roots_in(self, lo: Fraction, hi: Fraction) -> int:
        """Number of distinct real roots in the closed interval [lo, hi].

        V(lo) - V(hi) counts the roots in (lo, hi], as the chain loses one
        sign variation exactly at each root; a root at lo is added. Where
        g vanishes, at a repeated root of f, the count is read on the chain
        divided by g, exact in Z[X] as g is primitive (Gauss's lemma)."""
        at_lo, at_hi = self._values(lo), self._values(hi)
        if at_lo[-1] == 0 or at_hi[-1] == 0:
            g = self.polys[-1]
            reduced = SturmChain(tuple(divmod_exact(p, g) for p in self.polys))
            at_lo, at_hi = reduced._values(lo), reduced._values(hi)
        return _sign_changes(at_lo) - _sign_changes(at_hi) + (at_lo[0] == 0)

    def _values(self, x: Fraction):
        # the scale b^deg(p) of x = a/b is positive: signs are those of p(x)
        return [_scaled_value(p, x.numerator, x.denominator) for p in self.polys]

    def variations_at_minus_inf(self) -> int:
        return _sign_changes([-p.coeffs[0] if p.degree % 2 else p.coeffs[0] for p in self.polys])

    def variations_at_plus_inf(self) -> int:
        return _sign_changes([p.coeffs[0] for p in self.polys])


def _sign_changes(vals) -> int:
    """Sign variations of a sequence of numbers, zeros dropped."""
    signs = [v > 0 for v in vals if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_chain(f: IntPolynomial) -> SturmChain:
    """The Sturm sequence of f.monic_positive(), which ends in a nonzero
    constant exactly when f is squarefree.

    Remainders are computed fraction-free; every rescaling factor is kept
    positive so the sign variations match the classical chain.
    """
    if f.is_zero:
        raise ZeroPolynomial("Sturm chain of the zero polynomial")
    p0 = f.monic_positive()
    if p0.degree < 1:
        return SturmChain((p0,))
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


def _scaled_value(p: IntPolynomial, a: int, b: int) -> int:
    """b^deg(p) p(a/b) in integers: sum c_i a^(deg(p)-i) b^i."""
    acc = 0
    bpow = 1
    for c in p.coeffs:
        acc = acc * a + c * bpow
        bpow *= b
    return acc


def sturm_real_root_count(f: IntPolynomial) -> int:
    """Number of distinct real roots of f: a repeated factor ends the chain
    in a common factor of its members, which flips every sign at -inf,
    and at +inf, alike."""
    chain = sturm_chain(f)
    return chain.variations_at_minus_inf() - chain.variations_at_plus_inf()


# -- interpolation and pair products -----------------------------------------


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
    return _poly(tuple(poly))


def _deflate_zero_roots(f: IntPolynomial) -> Tuple[int, IntPolynomial]:
    """Split f = g * X^v with g(0) != 0; returns (v, g), g being f itself
    when v = 0."""
    cs = f.coeffs
    v = 0
    while v < len(cs) and cs[-1 - v] == 0:
        v += 1
    return v, _poly(cs[: len(cs) - v]) if v else f


def _pair_products(g: IntPolynomial, distinct: bool) -> IntPolynomial:
    """|a0|^e prod (X - alpha_j alpha_k) over the pairs j <= k of roots of
    g, diagonal included, with e = m + 1; or over the pairs j < k when
    distinct, with e = m - 1. Here m = deg g >= 1.

    The composed product of Bostan, Flajolet, Salvy and Schost ("Fast
    computation of special resultants", J. Symbolic Comput. 41, 2006).
    The beta = a0 alpha are the roots of the monic integer polynomial
    y^m + sum_i a_i a0^(i-1) y^(m-i), so Newton's identities give their
    power sums p_k in integers. The products beta_j beta_k have the power
    sums (p_k^2 + p_2k) / 2 over pairs j <= k and (p_k^2 - p_2k) / 2 over
    pairs j < k; the inverse recurrence, dividing exactly by k, turns them
    into the coefficients u_i of the monic polynomial of those products.
    Its roots are a0^2 alpha_j alpha_k, so X -> a0^2 X scales u_i by
    |a0|^(e - 2i). Over j <= k this is the Graeffe polynomial
    a0^2 prod (X - alpha_j^2) times root_product_poly(g).
    """
    a0, m = g.coeffs[0], g.degree
    if distinct:
        npairs, e, sign = m * (m - 1) // 2, m - 1, -1
    else:
        npairs, e, sign = m * (m + 1) // 2, m + 1, 1
    c = [a * a0**i for i, a in enumerate(g.coeffs[1:])]
    p = [m]
    for k in range(1, 2 * npairs + 1):
        s = sum(c[i - 1] * p[k - i] for i in range(1, min(k, m + 1)))
        p.append(-(s + k * c[k - 1]) if k <= m else -s)
    q = [(p[k] ** 2 + sign * p[2 * k]) // 2 for k in range(npairs + 1)]
    u = [1]
    for k in range(1, npairs + 1):
        u.append(-sum(u[k - i] * q[i] for i in range(1, k + 1)) // k)
    a = abs(a0)
    return _poly(tuple(
        ui * a ** (e - 2 * i) if 2 * i <= e else ui // a ** (2 * i - e)
        for i, ui in enumerate(u)
    ))


def root_product_poly(f: IntPolynomial) -> IntPolynomial:
    """|a0|^(m-1) prod_{i<j} (X - alpha_i alpha_j) over all unordered pairs
    of roots of f (with multiplicity): an integer polynomial of degree
    n(n-1)/2 with a positive leading coefficient, where m is the degree
    after deflating zero roots. The constant never affects zero tests.

    The pairs of nonzero roots come from power sums by _pair_products;
    zero roots contribute a plain monomial factor.
    """
    if f.degree < 2:
        raise DegreeTooSmall("root products need degree >= 2")
    v, g = _deflate_zero_roots(f)
    m = g.degree
    rp = _pair_products(g, distinct=True) if m else IntPolynomial((1,))
    return rp.shift_degree(v * m + v * (v - 1) // 2)
