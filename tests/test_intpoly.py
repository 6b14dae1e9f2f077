"""Exact polynomial arithmetic against independent oracles.

Resultants, discriminants and squarefree structure are checked against
sympy (argument order kept degree-descending, since the subresultant
convention fixes res(f, g) = (-1)^{deg f deg g} res(g, f)); root-level
transforms (Graeffe, reciprocal, pairwise products) are checked against
numpy root multisets.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from rootcensus.errors import BadParameters, ZeroPolynomial
from rootcensus.intpoly import (
    IntPolynomial,
    coeff_string,
    disc2,
    disc3,
    discriminant,
    graeffe_transform,
    pair_product_full,
    parse_coeff_string,
    power_substitution,
    reciprocal,
    resultant,
    root_product_poly,
    squarefree_decomposition,
    squarefree_part,
    sturm_chain,
    sturm_real_root_count,
    subresultant_gcd,
)

_X = sympy.symbols("x")


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


def test_sturm_chain_of_squareful_is_chain_of_squarefree_part():
    # (X - 1)^2 (X + 2)^3 (X^2 + 1): the chain built from f itself stops
    # at the gcd, and the one of the squarefree part is returned instead
    lin, lin2, quad = IntPolynomial((1, -1)), IntPolynomial((1, 2)), IntPolynomial((1, 0, 1))
    f = -3 * lin * lin * lin2 * lin2 * lin2 * quad
    assert sturm_chain(f) == sturm_chain(squarefree_part(f))
    assert sturm_real_root_count(f) == 2
    # squarefree input: the chain starts at the primitive, positive part
    g = -6 * lin * quad
    assert sturm_chain(g).polys[0] == lin * quad


def test_sturm_count_matches_sympy_seeded():
    rng = random.Random(606)
    for _ in range(80):
        f = _rand_poly(rng)
        f = squarefree_part(f)
        if f.degree < 1:
            continue
        want = len(sympy.real_roots(_sym(f)))
        assert sturm_real_root_count(f) == want, f.coeffs


# -- root-level transforms -------------------------------------------------------


def test_graeffe_squares_roots_seeded():
    rng = random.Random(707)
    for _ in range(40):
        f = _rand_poly(rng, max_deg=4)
        g = graeffe_transform(f)
        want = np.sort_complex(_roots_multiset(f) ** 2)
        got = _roots_multiset(g)
        assert _same_multiset(np.sort_complex(want), got, tol=1e-5), f.coeffs


def test_reciprocal_inverts_roots():
    f = IntPolynomial((2, -3, 1))  # roots 1, 1/2
    r = reciprocal(f)
    got = sorted(np.real(_roots_multiset(r)))
    assert abs(got[0] - 1.0) < 1e-12 and abs(got[1] - 2.0) < 1e-12


def test_power_substitution_detects_structure():
    # x^6 - 2 = g(x^3) with g = y^2 - 2 after the largest substitution y = x^k
    f = IntPolynomial((1, 0, 0, 0, 0, 0, -2))
    k, g = power_substitution(f)
    assert k == 6 and g.coeffs == (1, -2)
    k2, g2 = power_substitution(IntPolynomial((1, 1, 1)))
    assert k2 == 1 and g2.coeffs == (1, 1, 1)


def test_pair_product_roots_seeded():
    # ordered pairs, diagonal included: m^2 roots alpha_j * alpha_k
    rng = random.Random(808)
    for _ in range(10):
        f = _rand_poly(rng, max_deg=4, height=3)
        f = squarefree_part(f)
        if f.degree < 2 or f.constant == 0:
            continue
        rr = _roots_multiset(f)
        want = np.sort_complex(
            [rr[i] * rr[j] for i in range(len(rr)) for j in range(len(rr))]
        )
        got = _roots_multiset(pair_product_full(f))
        assert _same_multiset(want, got, tol=1e-4), f.coeffs


def test_root_product_poly_quartic():
    f = IntPolynomial((1, 0, -5, 0, 4))  # roots +-1, +-2
    rr = _roots_multiset(f)
    want = np.sort_complex(
        [rr[i] * rr[j] for i in range(4) for j in range(i + 1, 4)]
    )
    got = _roots_multiset(root_product_poly(f))
    assert _same_multiset(want, got, tol=1e-5)
