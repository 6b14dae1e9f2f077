"""Property tests of the certification rung on adversarial families.

Families: Mignotte-like X^n - 2(aX - 1)^2 (two real roots closer than
a^(-(n+2)/2)), products of cyclotomic polynomials (roots on the unit
circle, repeated factors), clustered roots (X - k)^m +- 1, and dense
polynomials with coefficients up to 2^60 (past the 50-bit gate of the
double step).

For a 53-bit and a 212-bit start each: every disk holds exactly as many
roots as its multiplicity, against 50-digit roots from sympy's
factorization and mpmath polyroots; disks are
pairwise disjoint in exact rational arithmetic; multiplicities sum to the
degree; the real disks number the distinct real roots (Sturm). The two
starts must agree root for root. The exact enclosure of |root|^2 that
modulus profiles read from each disk must hold the squared modulus of
its 50-digit root. The example budget is set by the hypothesis profile
in conftest.py.
"""

from __future__ import annotations

import mpmath
import sympy
from hypothesis import given
from hypothesis import strategies as st

from rootcensus.classify import _disk_mod2
from rootcensus.intpoly import IntPolynomial, sturm_real_root_count
from rootcensus.roots import CertifiedRootSet, isolate_roots, mpf_to_fraction

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


mignotte = st.builds(_mignotte, st.integers(3, 8), st.integers(2, 40))
cyclotomic_products = st.builds(
    _cyclotomic_product, st.lists(st.integers(1, 12), min_size=1, max_size=3)
)
clustered = st.builds(
    _clustered, st.integers(-4, 4), st.integers(2, 7), st.sampled_from((1, -1))
)
big_coefficients = (
    st.lists(st.integers(-(2**60), 2**60), min_size=3, max_size=7)
    .filter(lambda cs: cs[0] != 0)
    .map(lambda cs: IntPolynomial(tuple(cs)))
)


def _oracle_roots(f: IntPolynomial):
    """Roots of f with multiplicity, at 50 digits: sympy's exact
    factorization, then mpmath polyroots (the solver behind sympy nroots)
    on each irreducible factor, so no repeated root reaches the iteration.
    Extra precision and steps let it converge on roots of very different
    sizes."""
    _, factors = sympy.factor_list(sympy.Poly(list(f.coeffs), _X))
    out = []
    with mpmath.workdps(_DIGITS):
        for fac, mult in factors:
            cs = [int(c) for c in fac.all_coeffs()]
            bits = max(abs(c).bit_length() for c in cs)
            for z in mpmath.polyroots(cs, maxsteps=1000, extraprec=4 * bits + 100):
                out += [mpmath.mpc(z)] * mult
    return out


def _check_certified(f: IntPolynomial, rs: CertifiedRootSet) -> None:
    assert rs.status == "CERTIFIED"
    assert rs.total_multiplicity == f.degree
    disks = [
        (mpf_to_fraction(d.center_re), mpf_to_fraction(d.center_im), mpf_to_fraction(d.radius))
        for d in rs.disks
    ]
    for i in range(len(disks)):
        for j in range(i + 1, len(disks)):
            (ar, ai, ra), (br, bi, rb) = disks[i], disks[j]
            assert (ar - br) ** 2 + (ai - bi) ** 2 > (ra + rb) ** 2, f.coeffs
    assert sum(d.is_real for d in rs.disks) == sturm_real_root_count(f), f.coeffs
    with mpmath.workdps(_DIGITS + 10):
        held = [0] * len(rs.disks)
        for z in _oracle_roots(f):
            hits = [
                k
                for k, d in enumerate(rs.disks)
                if abs(z - mpmath.mpc(d.center_re, d.center_im))
                <= d.radius + _SLACK * max(1, abs(z))
            ]
            assert len(hits) == 1, (f.coeffs, z)
            held[hits[0]] += 1
        assert held == [d.multiplicity for d in rs.disks], f.coeffs


def _check_starts_agree(f: IntPolynomial) -> None:
    fast = isolate_roots(f, precision_bits=53)
    slow = isolate_roots(f, precision_bits=212)
    _check_certified(f, fast)
    _check_certified(f, slow)
    assert len(fast.disks) == len(slow.disks)
    for d in fast.disks:
        c = (mpf_to_fraction(d.center_re), mpf_to_fraction(d.center_im))
        r = mpf_to_fraction(d.radius)
        hits = [
            e
            for e in slow.disks
            if (c[0] - mpf_to_fraction(e.center_re)) ** 2
            + (c[1] - mpf_to_fraction(e.center_im)) ** 2
            <= (r + mpf_to_fraction(e.radius)) ** 2
        ]
        assert len(hits) == 1, f.coeffs
        assert (hits[0].multiplicity, hits[0].is_real) == (d.multiplicity, d.is_real)


@given(st.one_of(mignotte, cyclotomic_products, clustered, big_coefficients))
def test_squared_modulus_enclosures(f):
    """The exact enclosure of |root|^2 that modulus profiles compare holds
    the squared modulus of every 50-digit root in the disk."""
    roots = _oracle_roots(f)
    for bits in (53, 212):
        rs = isolate_roots(f, precision_bits=bits)
        with mpmath.workdps(2 * _DIGITS):
            for z in roots:
                disk = next(
                    d
                    for d in rs.disks
                    if abs(z - mpmath.mpc(d.center_re, d.center_im))
                    <= d.radius + _SLACK * max(1, abs(z))
                )
                lo, hi = _disk_mod2(disk)
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


@given(big_coefficients)
def test_coefficients_up_to_2_60(f):
    _check_starts_agree(f)
