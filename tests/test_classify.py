"""Classification layers against brute-force numeric and sympy oracles.

Modulus profiles are compared with direct numpy root-modulus counting
on random polynomials whose moduli are well separated; signatures with
sympy real-root counts; factorization with sympy's factor_list; the
multiplicative-relation decider with an all-pairs numeric scan.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
import sympy

from rootcensus import classify
from rootcensus.errors import DegreeCapExceeded, NotIrreducible
from rootcensus.intpoly import IntPolynomial, discriminant
from rootcensus.classify import (
    factorize,
    has_multiplicative_relation,
    modulus_profile,
    profile_pair_deg2,
    profile_pair_deg3,
    real_count_deg2,
    real_count_deg3,
    root_signature,
    sn_certificate,
)

_X = sympy.symbols("x")


def _rand_poly(rng: random.Random, max_deg: int = 6, height: int = 50) -> IntPolynomial:
    n = rng.randint(1, max_deg)
    cs = [rng.randint(-height, height) for _ in range(n + 1)]
    if cs[0] == 0:
        cs[0] = rng.randint(1, height)
    return IntPolynomial(tuple(cs))


def _brute_profile(f: IntPolynomial, tol: float = 1e-7):
    mods = np.abs(np.roots([float(c) for c in f.coeffs]))
    mmax, mmin = mods.max(), mods.min()
    kmax = int(np.sum(mods >= mmax * (1 - tol)))
    kmin = int(np.sum(mods <= mmin + tol * max(mmin, 1.0)))
    return kmax, kmin


# -- modulus profiles ----------------------------------------------------------


def test_profile_knowns():
    cases = {
        (1, 0, 1): (2, 2),  # x^2+1: both roots on |z| = 1
        (1, -3, 2): (1, 1),  # roots 1, 2
        (1, 0, 0, -2): (3, 3),  # x^3-2: all on |z| = 2^(1/3)
        (2, 0, -1, 0, 0, 1): (1, 2),  # one dominant real + close pairs
        (1, 0, -1, 0): (2, 1),  # x^3-x: roots 0, +-1
    }
    for cs, (km, kn) in cases.items():
        p = modulus_profile(IntPolynomial(cs))
        assert (p.k_max, p.k_min) == (km, kn), cs
        assert p.dominant == (km == 1)


def test_profile_matches_brute_seeded():
    rng = random.Random(1234)
    checked = 0
    for _ in range(200):
        f = _rand_poly(rng)
        if f.degree < 1:
            continue
        p = modulus_profile(f)
        mods = sorted(np.abs(np.roots([float(c) for c in f.coeffs])))
        # skip numerically ambiguous moduli; the brute oracle cannot
        # resolve ties the certified path decides exactly
        if len(mods) >= 2 and (
            mods[1] - mods[0] < 1e-5 or mods[-1] - mods[-2] < 1e-5
        ):
            continue
        assert (p.k_max, p.k_min) == (1, 1), f.coeffs
        assert p.dominant
        checked += 1
    assert checked > 60


def test_profile_exact_tie_path():
    # x^4 + 1 needs the exact tie logic: all moduli equal
    p = modulus_profile(IntPolynomial((1, 0, 0, 0, 1)))
    assert (p.k_max, p.k_min) == (4, 4)
    assert not p.dominant


def test_low_degree_kernels_match_general_path():
    rng = random.Random(77)
    for _ in range(300):
        a = rng.randint(1, 9)
        b, c, d = (rng.randint(-9, 9) for _ in range(3))
        f2 = IntPolynomial((a, b, c))
        p2 = modulus_profile(f2)
        assert profile_pair_deg2(a, b, c) == (p2.k_max, p2.k_min)
        s2 = root_signature(f2)
        assert real_count_deg2(a, b, c) == s2.r
        f3 = IntPolynomial((a, b, c, d))
        p3 = modulus_profile(f3)
        assert profile_pair_deg3(a, b, c, d) == (p3.k_max, p3.k_min), (a, b, c, d)
        s3 = root_signature(f3)
        assert real_count_deg3(a, b, c, d) == s3.r


# -- signatures ------------------------------------------------------------------


def test_signature_matches_sympy_seeded():
    rng = random.Random(55)
    for _ in range(120):
        f = _rand_poly(rng)
        sig = root_signature(f)
        assert sig.r + 2 * sig.s == f.degree
        want = sum(m for _, m in sympy.Poly(list(f.coeffs), _X).real_roots(multiple=False))
        assert sig.r == want, f.coeffs


def test_signature_with_multiplicity():
    # (x-1)^2 (x^2+1): r = 2, s = 1
    f = IntPolynomial((1, -2, 1)) * IntPolynomial((1, 0, 1))
    assert root_signature(f) == root_signature(f).__class__(2, 1)


# -- factorization ---------------------------------------------------------------


def _sympy_factors(f: IntPolynomial):
    _, facs = sympy.Poly(list(f.coeffs), _X).factor_list()
    return sorted((g.degree(), m) for g, m in facs if g.degree() > 0)


def test_factorize_matches_sympy_seeded():
    rng = random.Random(66)
    for _ in range(80):
        f = _rand_poly(rng, max_deg=6, height=20)
        fr = factorize(f)
        assert fr.reconstruct() == f
        got = sorted((p.degree, m) for p, m in fr.factors)
        assert got == _sympy_factors(f), f.coeffs


def test_factorize_constructed_product():
    f = IntPolynomial((1, 0, -2)) * IntPolynomial((1, 0, -2)) * IntPolynomial((1, 1, 1))
    fr = factorize(f)
    assert not fr.irreducible
    assert sorted((p.coeffs, m) for p, m in fr.factors) == [
        ((1, 0, -2), 2),
        ((1, 1, 1), 1),
    ]


def test_factorize_irreducible_flag():
    assert factorize(IntPolynomial((1, 0, -2))).irreducible
    assert factorize(IntPolynomial((1, 0, 1))).irreducible
    assert not factorize(IntPolynomial((1, 0, -1))).irreducible
    # content alone never counts as a factor
    fr = factorize(IntPolynomial((2, 0, -4)))
    assert fr.content == 2 and fr.irreducible


def test_factorize_degree_cap():
    f = IntPolynomial((1,) + (0,) * 8 + (-2,))  # degree 9
    with pytest.raises(DegreeCapExceeded):
        factorize(f)
    assert factorize(f, degree_cap=9).irreducible


# -- S_n certificates --------------------------------------------------------------


def test_sn_certificate_knowns():
    # x^3 - x - 1: disc = -23, Galois group S_3; for n = 3 the
    # (n-1)-cycle and the transposition are the same pattern (1, 2)
    c = sn_certificate(IntPolynomial((1, 0, -1, -1)))
    assert c.verdict == "CERTIFIED_SN"
    pats = sorted(pat for _, pat in c.witnesses)
    assert pats == [(1, 2), (3,)]
    # x^5 - x - 1 has Galois group S_5
    assert sn_certificate(IntPolynomial((1, 0, 0, 0, -1, -1))).verdict == "CERTIFIED_SN"


def test_sn_certificate_undecided_on_small_group():
    # x^4 + 1 has Galois group (Z/2)^2: no n-cycle pattern exists mod any p
    c = sn_certificate(IntPolynomial((1, 0, 0, 0, 1)), prime_bound=500)
    assert c.verdict == "UNDECIDED"


def test_sn_certificate_quadratic_trivial():
    c = sn_certificate(IntPolynomial((1, 0, -2)))
    assert c.verdict == "CERTIFIED_SN" and c.witnesses == ()


def test_sn_certificate_requires_irreducible():
    with pytest.raises(NotIrreducible):
        sn_certificate(IntPolynomial((1, 0, -1)))


def test_sn_witness_patterns_are_honest():
    # every reported witness must reproduce under direct reduction
    from rootcensus.modp import factor_degree_pattern

    f = IntPolynomial((1, 2, 0, 0, -3, 7))
    c = sn_certificate(f)
    for p, pat in c.witnesses:
        assert factor_degree_pattern(f, p) == pat


# -- multiplicative relations --------------------------------------------------------


def _brute_relation(f: IntPolynomial, tol: float = 1e-8) -> bool:
    rr = np.roots([float(c) for c in f.coeffs])
    n = len(rr)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    prods = [rr[i] * rr[j] for i, j in pairs]
    scale = max(1.0, max(abs(z) for z in prods))
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            if abs(prods[a] - prods[b]) < tol * scale:
                return True
    return False


def test_relation_knowns():
    # (x^2-2)(x^2-3): sqrt2*sqrt3 = (-sqrt2)*(-sqrt3), two pairs share sqrt6
    f = IntPolynomial((1, 0, -2)) * IntPolynomial((1, 0, -3))
    assert has_multiplicative_relation(f)
    # x^4 + x + 1 (S_4 Galois group): no relation
    assert not has_multiplicative_relation(IntPolynomial((1, 0, 0, 1, 1)))
    # zero root: every pair through it multiplies to 0
    assert has_multiplicative_relation(IntPolynomial((1, 1, 2, 3, 0)))
    # squareful: repeated root collides pair products
    f2 = IntPolynomial((1, -1)) * IntPolynomial((1, -1)) * IntPolynomial((1, 0, 1))
    assert has_multiplicative_relation(f2)


def test_relation_matches_brute_seeded():
    rng = random.Random(88)
    checked = 0
    for _ in range(60):
        cs = [rng.randint(-6, 6) for _ in range(5)]
        if cs[0] == 0:
            cs[0] = 1
        f = IntPolynomial(tuple(cs))
        got = has_multiplicative_relation(f)
        want = _brute_relation(f)
        # near-collisions below 1e-8 cannot be adjudicated by the brute
        # oracle; require agreement only when it is clearly one-sided
        if want == _brute_relation(f, tol=1e-4):
            assert got == want, f.coeffs
            checked += 1
    assert checked > 40


def test_relation_prefilter_agrees_with_exact():
    rng = random.Random(99)
    for _ in range(25):
        cs = [rng.randint(-5, 5) for _ in range(5)]
        if cs[0] == 0:
            cs[0] = 1
        f = IntPolynomial(tuple(cs))
        assert has_multiplicative_relation(f, prefilter=True) == has_multiplicative_relation(
            f, prefilter=False
        ), f.coeffs


def test_relation_prefilter_lets_unexpected_errors_through(monkeypatch):
    # the prefilter may give up only on an exhausted precision ladder; any
    # other error from root isolation is a bug and must surface
    def broken(*args, **kwargs):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(classify, "isolate_roots", broken)
    with pytest.raises(ZeroDivisionError):
        has_multiplicative_relation(IntPolynomial((1, 0, 0, 1, 1)))
