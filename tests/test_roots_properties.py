"""Property tests of the certification rung on adversarial families.

Families: Mignotte-like X^n - 2(aX - 1)^2 (two real roots closer than
a^(-(n+2)/2)), products of cyclotomic polynomials (roots on the unit
circle, repeated factors), clustered roots (X - k)^m +- 1, a simple
rational root next to a double quadratic factor (aX - b)(X^2 + c)^2
(the root b/a is a squarefree factor of its own, and its disk is only
as wide as the rounding of b/a), dense polynomials with
coefficients up to 2^60, and polynomials of degree 2-5 with
coefficients of 2^1000 to 2^1200, mostly beyond the double range, where
Newton-polygon seeds start the fixed-point sweeps.

For a 53-bit and a 212-bit start each: every disk holds exactly as many
roots as its multiplicity, against 50-digit roots from sympy's
factorization and mpmath polyroots; disks are
pairwise disjoint in exact rational arithmetic; multiplicities sum to the
degree; the real disks number the distinct real roots (Sturm), and those
of each squarefree factor the factor's exact real count. The two
starts must agree root for root. The exact enclosure of |root|^2 that
modulus profiles read from each disk must hold the squared modulus of
its 50-digit root.

The multiplicative-relation prefilter is checked on the same families
plus dense 20-bit polynomials of degree 4-8: whenever it certifies the
pair products apart, the exact root-product polynomial has no repeated
root. Its product enclosures must hold the products of points on the
boundaries of random dyadic disks. The example budget is set by the
hypothesis profile in conftest.py.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rootcensus.classify import _mod2, _product_disks, _products_separated, _real_count
from rootcensus.intpoly import (
    IntPolynomial,
    _deflate_zero_roots,
    discriminant,
    root_product_poly,
    squarefree_part,
    sturm_real_root_count,
)
from rootcensus.roots import (
    CertifiedRootSet,
    RootDisk,
    _analysis,
    _dyadic,
    isolate_roots,
)

_X = sympy.symbols("x")
_DIGITS = 50
# room for the error of a 50-digit root next to a disk of radius 2^-212
_SLACK = mpmath.mpf(10) ** (5 - _DIGITS)


def _poly(expr) -> IntPolynomial:
    return IntPolynomial(tuple(int(c) for c in sympy.Poly(expr, _X).all_coeffs()))


def _mignotte(n: int, a: int) -> IntPolynomial:
    return _poly(_X**n - 2 * (a * _X - 1) ** 2)


def _cyclotomic_product(ks) -> IntPolynomial:
    return _poly(sympy.prod(sympy.cyclotomic_poly(k, _X) for k in ks))


def _clustered(k: int, m: int, sign: int) -> IntPolynomial:
    return _poly((_X - k) ** m + sign)


def _rational_root(a: int, b: int, c: int) -> IntPolynomial:
    return _poly((a * _X - b) * (_X**2 + c) ** 2)


mignotte = st.builds(_mignotte, st.integers(3, 8), st.integers(2, 40))
cyclotomic_products = st.builds(
    _cyclotomic_product, st.lists(st.integers(1, 12), min_size=1, max_size=3)
)
clustered = st.builds(
    _clustered, st.integers(-4, 4), st.integers(2, 7), st.sampled_from((1, -1))
)
rational_root = st.builds(
    _rational_root, st.integers(1, 15), st.integers(-15, 15), st.integers(-3, 3)
)
big_coefficients = (
    st.lists(st.integers(-(2**60), 2**60), min_size=3, max_size=7)
    .filter(lambda cs: cs[0] != 0)
    .map(lambda cs: IntPolynomial(tuple(cs)))
)
beyond_doubles = st.integers(2, 5).flatmap(
    lambda n: st.lists(
        st.tuples(st.sampled_from((1, -1)), st.integers(2**1000, 2**1200)).map(
            lambda t: t[0] * t[1]
        ),
        min_size=n + 1,
        max_size=n + 1,
    )
).map(lambda cs: IntPolynomial(tuple(cs)))
dense_20_bit = (
    st.integers(4, 8)
    .flatmap(lambda n: st.lists(st.integers(-(2**20), 2**20), min_size=n + 1, max_size=n + 1))
    .filter(lambda cs: cs[0] != 0)
    .map(lambda cs: IntPolynomial(tuple(cs)))
)


def _mp(x: Fraction):
    """A disk's dyadic Fraction as an mpf at the working precision."""
    return mpmath.mpf(x.numerator) / x.denominator


def _near(z, slack, d: RootDisk) -> bool:
    """Whether the 50-digit root z lies in the disk, up to its error slack."""
    c = mpmath.mpc(_mp(d.center_re), _mp(d.center_im))
    return abs(z - c) <= _mp(d.radius) + slack


def _oracle_roots(f: IntPolynomial):
    """Roots z of f with multiplicity, at 50 digits, each with the slack of
    its error: sympy's exact factorization, then mpmath polyroots (the
    solver behind sympy nroots) on each irreducible factor, so no
    repeated root reaches the iteration. Extra precision and steps let it
    converge on roots of very different sizes.

    The error of polyroots is absolute, so its slack is _SLACK max(1, |z|).
    A factor with coefficients wider than 64 bits can have roots far
    below 1, which that slack does not tell apart; its roots below modulus
    1 are taken as the inverses 1/w of the roots w beyond modulus 1 of the
    reversed factor, with the relative slack _SLACK |z|."""
    _, factors = sympy.factor_list(sympy.Poly(list(f.coeffs), _X))
    out = []
    with mpmath.workdps(_DIGITS):
        for fac, mult in factors:
            cs = [int(c) for c in fac.all_coeffs()]
            bits = max(abs(c).bit_length() for c in cs)

            def roots(cs):
                return [
                    mpmath.mpc(z)
                    for z in mpmath.polyroots(cs, maxsteps=1000, extraprec=4 * bits + 100)
                ]

            got = [(z, _SLACK * max(1, abs(z))) for z in roots(cs)]
            if bits > 64:
                got = [(z, s) for z, s in got if abs(z) >= 1]
                got += [(1 / w, _SLACK / abs(w)) for w in roots(cs[::-1]) if abs(w) > 1]
                assert len(got) == len(cs) - 1, f.coeffs
            out += got * mult
    return out


def _check_certified(f: IntPolynomial, rs: CertifiedRootSet, roots) -> None:
    assert rs.status == "CERTIFIED"
    assert rs.total_multiplicity == f.degree
    disks = [(d.center_re, d.center_im, d.radius) for d in rs.disks]
    for i in range(len(disks)):
        for j in range(i + 1, len(disks)):
            (ar, ai, ra), (br, bi, rb) = disks[i], disks[j]
            assert (ar - br) ** 2 + (ai - bi) ** 2 > (ra + rb) ** 2, f.coeffs
    assert sum(d.is_real for d in rs.disks) == sturm_real_root_count(f), f.coeffs
    # the hull rule's real disks of each squarefree factor, told apart by
    # multiplicity from each other and from the point disk at 0, number
    # the factor's exact real roots
    a = _analysis(f)
    zero = RootDisk(Fraction(0), Fraction(0), Fraction(0), a.zeros, True)
    assert [
        sum(d.is_real for d in rs.disks if d.multiplicity == mult and d != zero)
        for _, mult in a.factors
    ] == [_real_count(fac) for fac, _ in a.factors], f.coeffs
    with mpmath.workdps(_DIGITS + 10):
        held = [0] * len(rs.disks)
        for z, slack in roots:
            hits = [k for k, d in enumerate(rs.disks) if _near(z, slack, d)]
            assert len(hits) == 1, (f.coeffs, z)
            held[hits[0]] += 1
        assert held == [d.multiplicity for d in rs.disks], f.coeffs


def _check_starts_agree(f: IntPolynomial) -> None:
    fast = isolate_roots(f, precision_bits=53)
    slow = isolate_roots(f, precision_bits=212)
    roots = _oracle_roots(f)
    _check_certified(f, fast, roots)
    _check_certified(f, slow, roots)
    assert len(fast.disks) == len(slow.disks)
    for d in fast.disks:
        hits = [
            e
            for e in slow.disks
            if (d.center_re - e.center_re) ** 2 + (d.center_im - e.center_im) ** 2
            <= (d.radius + e.radius) ** 2
        ]
        assert len(hits) == 1, f.coeffs
        assert (hits[0].multiplicity, hits[0].is_real) == (d.multiplicity, d.is_real)


@given(st.one_of(mignotte, cyclotomic_products, clustered, rational_root, big_coefficients))
def test_squared_modulus_enclosures(f):
    """The exact enclosure of |root|^2 that modulus profiles compare holds
    the squared modulus of every 50-digit root in the disk."""
    roots = _oracle_roots(f)
    for bits in (53, 212):
        rs = isolate_roots(f, precision_bits=bits)
        disks = rs.disks
        with mpmath.workdps(2 * _DIGITS):
            for z, tol in roots:
                i = next(i for i, d in enumerate(disks) if _near(z, tol, d))
                lo, hi = (_dyadic(x, 2 * rs.exponent) for x in _mod2(*rs.cells[i][:3]))
                m2, slack = abs(z) ** 2, 3 * _SLACK * max(1, abs(z)) ** 2
                assert lo.numerator <= (m2 + slack) * lo.denominator, (f.coeffs, z)
                assert (m2 - slack) * hi.denominator <= hi.numerator, (f.coeffs, z)


@given(mignotte)
def test_mignotte_like(f):
    _check_starts_agree(f)


@given(cyclotomic_products)
def test_cyclotomic_products(f):
    _check_starts_agree(f)


@given(clustered)
def test_clustered_roots(f):
    _check_starts_agree(f)


@example(_rational_root(3, 1, 1))
@given(rational_root)
def test_rational_root_next_to_a_double_factor(f):
    _check_starts_agree(f)


@given(big_coefficients)
def test_coefficients_up_to_2_60(f):
    _check_starts_agree(f)


# X^2 + 10^400 X + 1 and X^4 + 2^1100 X^3 + 3X^2 + X + 1: the roots near
# -10^400 and -2^1100 lie beyond the double range, the others far inside
# the unit circle
@example(IntPolynomial((1, 10**400, 1)))
@example(IntPolynomial((1, 2**1100, 3, 1, 1)))
@settings(max_examples=6)
@given(beyond_doubles)
def test_coefficients_beyond_the_double_range(f):
    _check_starts_agree(f)


@given(
    st.one_of(mignotte, cyclotomic_products, clustered, rational_root, big_coefficients, dense_20_bit)
)
def test_relation_prefilter_is_sound(f):
    """Separated product enclosures certify that the pairwise root
    products of the squarefree, zero-free part g of f are distinct."""
    g = squarefree_part(_deflate_zero_roots(f)[1])
    assume(g.degree >= 2)
    if _products_separated(g):
        assert discriminant(root_product_poly(g)) != 0, g.coeffs


# rational points of the unit circle
_DIRECTIONS = [(1, 0), (0, 1), (-1, 0), (0, -1), (Fraction(3, 5), Fraction(4, 5)),
               (Fraction(-12, 13), Fraction(5, 13)), (Fraction(8, 17), Fraction(-15, 17))]
dyadic_disks = st.lists(
    st.tuples(st.integers(-40, 40), st.integers(-40, 40), st.integers(0, 8), st.integers(-4, 4)),
    min_size=2,
    max_size=4,
)


# (a, b, k, e) is the disk of centre (a + bi) 2^e and radius k 2^e.
# Real centres 3 and 2, radius 1: the product 4 * 3 = 12 of the outermost
# points lies on the enclosure's boundary, |12 - 6| = 3*1 + 2*1 + 1*1.
@example([(3, 0, 1, 0), (2, 0, 1, 0)])
# Centre 1 + i, radius 0, times 3 from the disk of centre 2 and radius 1:
# |(1 + i) 3 - (1 + i) 2| = sqrt 2, within ceil(sqrt 2) * 1 = 2.
@example([(1, 1, 0, 0), (2, 0, 1, 0)])
@given(dyadic_disks)
def test_product_disks_hold_products_of_boundary_points(raw):
    # the disks as cells at their finest scale 2^low
    low = min(e for *_, e in raw)
    prods = _product_disks([(a << e - low, b << e - low, k << e - low, 1, False) for a, b, k, e in raw])
    scale = Fraction(4) ** low
    points = [
        [((x + k * u) * Fraction(2) ** e, (y + k * v) * Fraction(2) ** e) for u, v in _DIRECTIONS]
        for x, y, k, e in raw
    ]
    pairs = [(i, j) for i in range(len(raw)) for j in range(i + 1, len(raw))]
    for (i, j), (px, py, pr) in zip(pairs, prods):
        for x1, y1 in points[i]:
            for x2, y2 in points[j]:
                dx = x1 * x2 - y1 * y2 - px * scale
                dy = x1 * y2 + y1 * x2 - py * scale
                assert dx * dx + dy * dy <= (pr * scale) ** 2, (raw, i, j)
