"""Exact polynomial arithmetic against independent oracles.

Resultants, discriminants and squarefree structure are checked against
sympy (argument order kept degree-descending, since the subresultant
convention fixes res(f, g) = (-1)^{deg f deg g} res(g, f)); the pair- and
root-product polynomials are checked coefficient for coefficient against
sympy resultants, and against numpy root multisets.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from rootcensus.errors import BadParameters, ZeroPolynomial
from rootcensus.intpoly import (
    IntPolynomial,
    _deflate_zero_roots,
    _pair_products,
    _prem,
    coeff_string,
    disc2,
    disc3,
    discriminant,
    divmod_exact,
    parse_coeff_string,
    power_substitution,
    resultant,
    root_product_poly,
    squarefree_decomposition,
    squarefree_part,
    sturm_chain,
    sturm_real_root_count,
    subresultant_gcd,
)

_X, _Y = sympy.symbols("x y")


def _sym(f: IntPolynomial):
    return sympy.Poly(list(f.coeffs), _X)


def _rand_poly(rng: random.Random, max_deg: int = 5, height: int = 9) -> IntPolynomial:
    n = rng.randint(1, max_deg)
    cs = [rng.randint(-height, height) for _ in range(n + 1)]
    if cs[0] == 0:
        cs[0] = rng.randint(1, height)
    return IntPolynomial(tuple(cs))


def _roots_multiset(f: IntPolynomial):
    return np.sort_complex(np.roots([float(c) for c in f.coeffs]))


def _same_multiset(a, b, tol=1e-6) -> bool:
    # greedy matching; sorting alone misorders near-tied conjugate pairs
    if len(a) != len(b):
        return False
    left = list(b)
    for z in a:
        j = min(range(len(left)), key=lambda k: abs(left[k] - z))
        if abs(left[j] - z) >= tol:
            return False
        left.pop(j)
    return True


# -- parsing ---------------------------------------------------------------


def test_constructor_rejects_non_integral_coefficients():
    for bad in ((1.5, 2), (1, Fraction(7, 2)), ("3",), (np.float64(2.0), 1)):
        with pytest.raises(BadParameters):
            IntPolynomial(bad)


def test_constructor_gives_plain_ints():
    for cs in ((np.int64(3), True, 0), [3, 1, 0]):
        f = IntPolynomial(cs)
        assert f.coeffs == (3, 1, 0)
        assert all(type(c) is int for c in f.coeffs)
    assert IntPolynomial((0, 0, 2, -1)).coeffs == (2, -1)
    assert IntPolynomial((False, 0)).coeffs == ()


def test_arithmetic_results_are_trimmed_int_polynomials():
    # results built inside intpoly skip the public constructor's checks,
    # so cancelled leading terms must still be trimmed and every
    # coefficient stay a Python int
    a = IntPolynomial((np.int64(2), 1, -3))
    for got, want in (
        (a - a, ()),
        (a * 0, ()),
        (a + IntPolynomial((-2, 0, 0)), (1, -3)),
        # X^3 + X + 1 = X (X^2 + 1) + 1: the remainder's X term is 0
        (_prem(IntPolynomial((1, 0, 1, 1)), IntPolynomial((1, 0, 1))), (1,)),
        (divmod_exact(a * IntPolynomial((3, -1)), IntPolynomial((3, -1))), (2, 1, -3)),
        (IntPolynomial((4, 0, 7)).derivative().derivative().derivative(), ()),
        (IntPolynomial((6, -4, 2)).primitive_part(), (3, -2, 1)),
    ):
        assert got.coeffs == want and all(type(c) is int for c in got.coeffs)
        assert got == IntPolynomial(want) and hash(got) == hash(IntPolynomial(want))
        assert got.degree == len(want) - 1


def test_parse_round_trip():
    f = parse_coeff_string("3,-1,0,7")
    assert f.coeffs == (3, -1, 0, 7)
    assert f.degree == 3
    assert f.height == 7
    assert coeff_string(f) == "3,-1,0,7"


def test_parse_whitespace_and_negative():
    assert parse_coeff_string(" 1 , 0 , -2 ").coeffs == (1, 0, -2)


def test_parse_all_zero_is_zero_polynomial():
    with pytest.raises(ZeroPolynomial):
        parse_coeff_string("0,0")


def test_parse_leading_zero_rejected():
    with pytest.raises(BadParameters):
        parse_coeff_string("0,1")


def test_parse_garbage_rejected():
    for bad in ("", "1,,2", "1,a", "1;2"):
        with pytest.raises(BadParameters):
            parse_coeff_string(bad)


def test_multiplication_and_derivative():
    f = IntPolynomial((1, -1))  # x - 1
    g = IntPolynomial((1, 1))  # x + 1
    assert (f * g).coeffs == (1, 0, -1)
    assert IntPolynomial((1, 0, -1)).derivative().coeffs == (2, 0)


# -- resultants and discriminants --------------------------------------------


def test_resultant_matches_sympy_seeded():
    rng = random.Random(101)
    for _ in range(120):
        f = _rand_poly(rng)
        g = _rand_poly(rng)
        if f.degree < g.degree:
            f, g = g, f
        want = int(sympy.resultant(_sym(f).as_expr(), _sym(g).as_expr(), _X))
        assert resultant(f, g) == want, (f.coeffs, g.coeffs)


def test_resultant_multiplicative_in_roots():
    # res(f, g) = lc(f)^deg g * prod g(alpha_i); check on exact linear factors
    f = IntPolynomial((2, -6))  # root 3
    g = IntPolynomial((1, 0, -4))  # roots +-2
    assert resultant(f, g) == 2 ** 2 * (9 - 4)


def test_discriminant_matches_sympy_seeded():
    rng = random.Random(202)
    for _ in range(100):
        f = _rand_poly(rng, max_deg=6)
        if f.degree < 1:
            continue
        want = int(sympy.discriminant(_sym(f).as_expr(), _X))
        assert discriminant(f) == want, f.coeffs


def test_low_degree_disc_formulas():
    rng = random.Random(303)
    for _ in range(200):
        a = rng.randint(1, 9)
        b, c, d = (rng.randint(-9, 9) for _ in range(3))
        assert disc2(a, b, c) == b * b - 4 * a * c
        assert disc3(a, b, c, d) == discriminant(IntPolynomial((a, b, c, d)))


def test_prem_matches_sympy_seeded():
    # sparse pairs: when f and g both lack their second coefficient, the
    # running remainder's leading term vanishes after the first step, a
    # skipped step that scales by lc(g) at the end
    rng = random.Random(505)

    def sparse(n: int, lead: int) -> IntPolynomial:
        return IntPolynomial((lead,) + tuple(rng.choice((0, rng.randint(-9, 9))) for _ in range(n)))

    skipped = nonunit = 0
    for _ in range(300):
        g = sparse(rng.randint(1, 4), rng.choice((-1, 1)) * rng.randint(1, 4))
        f = sparse(g.degree + rng.randint(0, 4), rng.randint(1, 9))
        assert _sym(_prem(f, g)) == sympy.prem(_sym(f), _sym(g)), (f.coeffs, g.coeffs)
        nonunit += abs(g.coeffs[0]) != 1
        skipped += f.degree > g.degree and f.coeffs[1] == g.coeffs[1] == 0
    assert skipped >= 20 and nonunit >= 100


# -- gcd and squarefree structure ---------------------------------------------


def test_subresultant_gcd_seeded():
    rng = random.Random(404)
    for _ in range(60):
        g = _rand_poly(rng, max_deg=3, height=4)
        a = _rand_poly(rng, max_deg=2, height=4)
        b = _rand_poly(rng, max_deg=2, height=4)
        got = subresultant_gcd(g * a, g * b)
        # the common factor g must divide the computed gcd
        q = sympy.gcd(_sym(g * a), _sym(g * b))
        assert sympy.rem(q.as_expr(), _sym(got).as_expr(), _X) == 0
        assert sympy.degree(q.as_expr(), _X) == got.degree


def test_squarefree_decomposition_structure():
    # f = (x-1)^3 (x+2)^2 (x^2+1)
    f = (
        IntPolynomial((1, -1)) * IntPolynomial((1, -1)) * IntPolynomial((1, -1))
        * IntPolynomial((1, 2)) * IntPolynomial((1, 2)) * IntPolynomial((1, 0, 1))
    )
    dec = squarefree_decomposition(f)
    assert dec.reconstruct() == f
    mults = sorted(m for _, m in dec.factors)
    assert mults == [1, 2, 3]
    sf = squarefree_part(f)
    assert sf.degree == 4  # (x-1)(x+2)(x^2+1)


def test_squarefree_part_of_squarefree_is_self():
    rng = random.Random(505)
    for _ in range(40):
        f = _rand_poly(rng)
        if discriminant(f) == 0:
            continue
        assert squarefree_part(f).degree == f.degree


# -- Sturm ---------------------------------------------------------------------


def test_sturm_chain_of_squareful_counts_like_its_squarefree_part():
    # (X - 1)^2 (X + 2)^3 (X^2 + 1): the chain of f itself stops at a
    # multiple of gcd(f, f') and counts the distinct roots, as the chain
    # of the squarefree part does, on every interval and over the line
    lin, lin2, quad = IntPolynomial((1, -1)), IntPolynomial((1, 2)), IntPolynomial((1, 0, 1))
    f = -3 * lin * lin * lin2 * lin2 * lin2 * quad
    sf = squarefree_part(f)
    chain, want = sturm_chain(f), sturm_chain(sf)
    assert chain.polys[0] == lin * lin * lin2 * lin2 * lin2 * quad
    assert chain.polys[-1].degree == 3 and want.polys[-1].degree == 0
    ends = [Fraction(k, 2) for k in range(-8, 9)]  # -2 and 1 among them
    for lo in ends:
        for hi in ends:
            if lo <= hi:
                assert chain.roots_in(lo, hi) == want.roots_in(lo, hi), (lo, hi)
    assert sturm_real_root_count(f) == sturm_real_root_count(sf) == 2
    # squarefree input: the chain starts at the primitive, positive part
    g = -6 * lin * quad
    assert sturm_chain(g).polys[0] == lin * quad


def test_sturm_count_where_the_last_member_vanishes():
    # S of (X^2+1)(X^2+X+1) has the double roots -1 (i^2, (-i)^2) and 1
    # (i (-i), w w'); at them every member of its chain vanishes, so the
    # count is read on the chain divided by its last member
    s = _pair_products(IntPolynomial((1, 1, 2, 1, 1)), distinct=False)
    chain, want = sturm_chain(s), sturm_chain(squarefree_part(s))
    last = chain.polys[-1]
    assert last.eval_at(1) == last.eval_at(-1) == 0
    sym = _sym(s).sqf_part()
    one = Fraction(1)
    assert chain.roots_in(one, one) == want.roots_in(one, one) == 1
    ends = [Fraction(k, 4) for k in range(-9, 10)]
    checked = 0
    for lo in ends:
        for hi in ends:
            if lo > hi:
                continue
            got = chain.roots_in(lo, hi)
            assert got == want.roots_in(lo, hi), (lo, hi)
            assert got == sym.count_roots(sympy.Rational(lo.numerator, lo.denominator),
                                          sympy.Rational(hi.numerator, hi.denominator)), (lo, hi)
            checked += abs(lo) == 1 or abs(hi) == 1
    assert checked > 30


_dyadic_roots = st.lists(st.integers(-32, 32).map(lambda k: Fraction(k, 8)), min_size=1, max_size=3)


@given(_dyadic_roots, _dyadic_roots, st.lists(st.integers(-5, 5), min_size=2, max_size=4))
def test_sturm_chain_of_products_with_squared_factors(squared, simple, extra):
    # f = prod (qX - p)^2 over the squared roots, times the simple ones and
    # one more factor: counts on the chain of f match those of the chain
    # of its squarefree part, with the repeated roots as endpoints
    f = IntPolynomial(tuple(extra) if extra[0] else (1,) + tuple(extra))
    for r in squared:
        lin = IntPolynomial((r.denominator, -r.numerator))
        f = f * lin * lin
    for r in simple:
        f = f * IntPolynomial((r.denominator, -r.numerator))
    chain, want = sturm_chain(f), sturm_chain(squarefree_part(f))
    ends = sorted(set(squared + simple + [Fraction(-5), Fraction(-3, 16), Fraction(5)]))
    for i, lo in enumerate(ends):
        for hi in ends[i:]:
            assert chain.roots_in(lo, hi) == want.roots_in(lo, hi), (f.coeffs, lo, hi)
    assert sturm_real_root_count(f) == want.variations_at_minus_inf() - want.variations_at_plus_inf()


def test_sturm_count_matches_sympy_seeded():
    rng = random.Random(606)
    for _ in range(80):
        f = _rand_poly(rng)
        f = squarefree_part(f)
        if f.degree < 1:
            continue
        want = len(sympy.real_roots(_sym(f)))
        assert sturm_real_root_count(f) == want, f.coeffs


def test_sturm_closed_interval_count_matches_sympy_seeded():
    # f has the rational roots p/q, so endpoints drawn from them are
    # roots, and a closed count must include them
    rng = random.Random(808)
    checked_root_ends = 0
    for _ in range(60):
        rats = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        f = _rand_poly(rng, max_deg=3, height=6)
        for r in rats:
            f = f * IntPolynomial((r.denominator, -r.numerator))
        chain = sturm_chain(f)
        sym = _sym(squarefree_part(f))
        ends = rats + [Fraction(rng.randint(-40, 40), rng.randint(1, 8)) for _ in range(3)]
        for lo in ends:
            for hi in ends:
                if lo > hi:
                    continue
                want = sym.count_roots(sympy.Rational(lo.numerator, lo.denominator),
                                       sympy.Rational(hi.numerator, hi.denominator))
                assert chain.roots_in(lo, hi) == want, (f.coeffs, lo, hi)
                checked_root_ends += lo in rats
    assert checked_root_ends > 100


# -- root-level transforms -------------------------------------------------------


def test_power_substitution_detects_structure():
    # x^6 - 2 = g(x^3) with g = y^2 - 2 after the largest substitution y = x^k
    f = IntPolynomial((1, 0, 0, 0, 0, 0, -2))
    k, g = power_substitution(f)
    assert k == 6 and g.coeffs == (1, -2)
    k2, g2 = power_substitution(IntPolynomial((1, 1, 1)))
    assert k2 == 1 and g2.coeffs == (1, 1, 1)


def test_pair_product_roots_seeded():
    # pairs j <= k, diagonal included: m(m+1)/2 roots alpha_j * alpha_k
    rng = random.Random(808)
    for _ in range(10):
        f = _rand_poly(rng, max_deg=4, height=3)
        f = squarefree_part(f)
        if f.degree < 2 or f.coeffs[-1] == 0:
            continue
        rr = _roots_multiset(f)
        want = np.sort_complex(
            [rr[i] * rr[j] for i in range(len(rr)) for j in range(i, len(rr))]
        )
        got = _roots_multiset(_pair_products(f, distinct=False))
        assert _same_multiset(want, got, tol=1e-4), f.coeffs


def test_root_product_poly_quartic():
    f = IntPolynomial((1, 0, -5, 0, 4))  # roots +-1, +-2
    rr = _roots_multiset(f)
    want = np.sort_complex(
        [rr[i] * rr[j] for i in range(4) for j in range(i + 1, 4)]
    )
    got = _roots_multiset(root_product_poly(f))
    assert _same_multiset(want, got, tol=1e-5)


def _oracle_pair_products(cs):
    """(T, G) from sympy resultants in y: T = Res(g(y), y^m g(x/y)), whose
    roots are the products over ordered pairs of roots, and
    G = Res(g(y), x - y^2), whose roots are the squared roots of
    g = sum cs[i] y^(m-i)."""
    m = len(cs) - 1
    g = sympy.Poly(sum(c * _Y ** (m - i) for i, c in enumerate(cs)), _Y, _X)
    h = sympy.Poly(sum(c * _X ** (m - i) * _Y**i for i, c in enumerate(cs)), _Y, _X)
    t = sympy.Poly(g.resultant(h), _X)
    return t, sympy.Poly(g.resultant(sympy.Poly(_X - _Y**2, _Y, _X)), _X)


def test_pair_and_root_products_match_resultants_seeded():
    # over the ordered pairs of the resultant T every off-diagonal product
    # appears twice and the diagonal holds the squared roots, so
    # T = +-G R^2 with R = root_product_poly(g), whose leading coefficient
    # must be |a0|^(m-1); the pairs j <= k give S = G R, leading
    # coefficient |a0|^(m+1)
    rng = random.Random(1212)
    corpus = [(3, 5), (2**20, -3), (-(2**20), 7, 1), (-47, 721869, -252289), (-5, 2, 0, 7)]
    for n in range(1, 9):
        for sign in ((1, -1) if n <= 6 else (rng.choice((1, -1)),)):
            lead = sign * rng.randint(1, 2**20)
            corpus.append((lead,) + tuple(rng.randint(-(2**60), 2**60) for _ in range(n)))
    structured = [
        _X**4 + 1,
        (_X**2 - 2) * (_X**2 - 3),
        sympy.cyclotomic_poly(3, _X) * sympy.cyclotomic_poly(5, _X),
        (_X - 3) ** 7 + 1,
        -((_X + 2) ** 4) - 1,
        (_X - 2) ** 6 - 1,
        _X**5 - 2 * (7 * _X - 1) ** 2,
        -(_X**8) + 2 * (40 * _X - 1) ** 2,
    ]
    corpus += [tuple(int(c) for c in sympy.Poly(e, _X).all_coeffs()) for e in structured]
    for cs in corpus:
        g = IntPolynomial(cs)
        t, big_g = _oracle_pair_products(cs)
        m = g.degree
        s = _pair_products(g, distinct=False)
        r0 = sympy.Poly(list(_pair_products(g, distinct=True).coeffs), _X)
        assert sympy.Poly(list(s.coeffs), _X) == big_g * r0, cs
        assert s.coeffs[0] == abs(cs[0]) ** (m + 1), cs
        # zero roots add the monomial factor X^(vm + v(v-1)/2)
        for v in range(max(0, 2 - m), 3):
            rp = root_product_poly(g * IntPolynomial((1,) + (0,) * v))
            zero_pairs = v * m + v * (v - 1) // 2
            assert rp.degree == (m + v) * (m + v - 1) // 2, (cs, v)
            assert not any(rp.coeffs[rp.degree + 1 - zero_pairs :]), (cs, v)
            r = sympy.Poly(list(rp.coeffs[: rp.degree + 1 - zero_pairs]), _X)
            assert r.LC() == abs(cs[0]) ** (m - 1), (cs, v)
            assert t in (big_g * r**2, -big_g * r**2), (cs, v)
    assert root_product_poly(IntPolynomial((-47, 721869, -252289))).coeffs == (47, -252289)
    assert root_product_poly(IntPolynomial((-5, 0, 0))).coeffs == (1, 0)


def test_deflate_zero_roots():
    f = IntPolynomial((3, 0, -1, 0, 0))
    assert _deflate_zero_roots(f) == (2, IntPolynomial((3, 0, -1)))
    # without a zero root f itself comes back, not a copy of it
    g = IntPolynomial((3, 0, -1))
    assert _deflate_zero_roots(g)[1] is g
