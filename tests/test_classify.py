"""Classification layers against brute-force numeric and sympy oracles.

Modulus profiles are compared with direct numpy root-modulus counting
on random polynomials whose moduli are well separated; signatures with
sympy real-root counts; factorization with sympy's factor_list; the
multiplicative-relation decider with an all-pairs numeric scan.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from mpmath import mpf

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
from rootcensus.roots import RootDisk, isolate_roots

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


def test_profile_exact_tie_path(monkeypatch):
    # x^4 + 1 = g(X^4): every modulus equal by power substitution
    p = modulus_profile(IntPolynomial((1, 0, 0, 0, 1)))
    assert (p.k_max, p.k_min) == (4, 4)
    assert not p.dominant
    # (X^2+1)(X^2+X+1): two conjugate pairs on the unit circle, whose
    # enclosures overlap until the separation bound decides the tie
    calls = []
    bound = classify.modulus_separation_bound
    monkeypatch.setattr(
        classify, "modulus_separation_bound", lambda f: calls.append(f) or bound(f)
    )
    p = modulus_profile(IntPolynomial((1, 1, 2, 1, 1)))
    assert (p.k_max, p.k_min, p.decision) == (4, 4, "EXACT")
    assert len(calls) == 1


def test_conjugate_pair_from_mp_rung_is_one_unit():
    # two real roots and one conjugate pair: three moduli, whatever rung
    # produced the disks (the default start is the 128-bit one)
    f = IntPolynomial((1, -2, -2, -2, -1))
    rs = isolate_roots(f)
    assert rs.precision_bits > 53
    assert len(classify._modulus_units(rs)) == 3
    assert modulus_profile(f).decision == "NUMERIC_CERTIFIED"


def test_disk_mod2_is_exact_on_dyadic_disks():
    # centre 3/4 + i, radius 1/4: |c| = 5/4, enclosure (1, 3/2)^2
    disk = RootDisk(mpf(0.75), mpf(1), mpf(0.25), 1, False)
    assert classify._disk_mod2(disk) == (1, Fraction(9, 4))
    # centre 1 + i, radius 1/2: |c| = sqrt 2 is bounded above by 3/2, so
    # (sqrt 2 -+ 1/2)^2 = 9/4 -+ sqrt 2 lies inside (3/4, 15/4)
    disk = RootDisk(mpf(1), mpf(1), mpf(0.5), 1, False)
    assert classify._disk_mod2(disk) == (Fraction(3, 4), Fraction(15, 4))
    # a disk around 0 may hold the root 0
    disk = RootDisk(mpf(0.125), mpf(-0.125), mpf(0.25), 1, False)
    assert classify._disk_mod2(disk)[0] == 0
    assert classify._disk_mod2(RootDisk(mpf(-2), mpf(0), mpf(0), 2, True)) == (4, 4)


def test_low_degree_kernels_match_general_path():
    rng = random.Random(77)
    for _ in range(300):
        a = rng.randint(1, 9)
        b, c, d = (rng.randint(-9, 9) for _ in range(3))
        f2 = IntPolynomial((a, b, c))
        p2 = modulus_profile(f2, method="certified")
        assert profile_pair_deg2(a, b, c) == (p2.k_max, p2.k_min)
        s2 = root_signature(f2)
        assert real_count_deg2(a, b, c) == s2.r
        f3 = IntPolynomial((a, b, c, d))
        p3 = modulus_profile(f3, method="certified")
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


@pytest.mark.parametrize("cs", [
    (-41226, 1027051, -105397, 1014547, -441560),
    (-755496, -477502, -175425, 328698, -994083, -95792),
    (-752528, -102578, 61789, -964437, -744580, 55792, 586440),
    (-864652, 836022, 509988, -155066, -126267, -592826, -280004, -641997, -841058),
])
def test_sieve_proves_dense_irreducibles_without_kronecker(monkeypatch, cs):
    """Irreducible polynomials with 20-bit coefficients whose first eight
    good primes leave a factor degree open; a Kronecker search on them
    takes 0.6-4 s, the sieve's further primes a few milliseconds."""

    def no_search(w, k):
        raise AssertionError("Kronecker search for a degree-%d factor" % k)

    monkeypatch.setattr(classify, "_kronecker_search", no_search)
    f = IntPolynomial(cs)
    assert factorize(f).irreducible
    assert _sympy_factors(f) == [(f.degree, 1)]


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
