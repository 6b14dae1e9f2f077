"""Classification layers against brute-force numeric and sympy oracles.

Modulus profiles are compared with direct numpy root-modulus counting
on random polynomials whose moduli are well separated, and with exact
rational moduli on products of quadratics and linear factors full of
ties; signatures with sympy real-root counts; factorization with
sympy's factor_list; the multiplicative-relation decider with an
all-pairs numeric scan.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import List

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given
from hypothesis import strategies as st

from rootcensus import classify
from rootcensus.errors import DegreeCapExceeded, NotIrreducible, PrecisionCapExceeded
from rootcensus.intpoly import IntPolynomial, _pair_products, disc3, discriminant, root_product_poly
from rootcensus.modp import factor_degree_pattern, primes_up_to
from rootcensus.classify import (
    factorize,
    has_multiplicative_relation,
    modulus_profile,
    profile_pair_deg2,
    profile_pair_deg3,
    root_signature,
    sn_certificate,
)
from rootcensus.roots import isolate_roots

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


def _spy(monkeypatch, name):
    """Record the calls of classify's binding of name."""
    calls = []
    fn = getattr(classify, name)
    monkeypatch.setattr(classify, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def test_profile_exact_tie_path(monkeypatch):
    # x^4 + 1 = g(X^4): every modulus equal by power substitution
    p = modulus_profile(IntPolynomial((1, 0, 0, 0, 1)))
    assert (p.k_max, p.k_min) == (4, 4)
    assert not p.dominant
    # (X^2+1)(X^2+X+1): two conjugate pairs on the unit circle form one
    # run of overlapping enclosures, which holds a single distinct root
    # of the pair-product polynomial at the first count; the chain is that
    # of S itself, whose double roots -1 and 1 take no squarefree part
    chains = _spy(monkeypatch, "sturm_chain")
    refines = _spy(monkeypatch, "refine")
    f = IntPolynomial((1, 1, 2, 1, 1))
    p = modulus_profile(f)
    assert (p.k_max, p.k_min, p.decision) == (4, 4, "EXACT")
    assert (len(chains), len(refines)) == (1, 0)
    assert chains[0] == (_pair_products(f, distinct=False),)


@pytest.mark.parametrize(
    "coeffs, counts",
    [
        # X^5 - 2^40 X + 1: four roots near 2^10 i^k whose squared moduli
        # differ in about the 50th bit, and one near 2^-40; the real root
        # near -2^10 is strictly the largest
        ((1, 0, 0, 0, -(2**40), 1), (1, 1)),
        # X^4 - 2^48 X + 1: a real root and a conjugate pair near modulus
        # 2^16, the pair slightly larger, form one run that holds two
        # distinct roots of the pair-product polynomial (with 2^40 the
        # first disks already tell them apart)
        ((1, 0, 0, -(2**48), 1), (2, 1)),
        # X^5 - 2^48 X + 1: the first case from a 65-bit start, where
        # the squared moduli differ in about the 61st bit
        ((1, 0, 0, 0, -(2**48), 1), (1, 1)),
    ],
)
def test_profile_near_tie_is_refined_apart(monkeypatch, coeffs, counts):
    # the 53-bit enclosures of the largest moduli overlap; only refined
    # enclosures tell them apart
    refines = _spy(monkeypatch, "refine")
    p = modulus_profile(IntPolynomial(coeffs))
    assert ((p.k_max, p.k_min), p.decision) == (counts, "EXACT")
    assert len(refines) >= 1


# squared modulus c/a of aX^2 + bX + c with b^2 < 4ac (a conjugate pair)
_PAIR = st.tuples(st.integers(1, 3), st.integers(-4, 4), st.integers(1, 6)).filter(
    lambda q: q[1] * q[1] < 4 * q[0] * q[2]
)


@given(
    st.lists(_PAIR, max_size=3),
    st.lists(st.integers(-3, 3), max_size=3),
)
@example([(1, 0, 1), (1, 1, 1)], [])  # (X^2+1)(X^2+X+1)
@example([(1, 1, 1), (1, -1, 1)], [1, -1])  # six roots on the unit circle
@example([(2, 1, 2), (1, 0, 4)], [2, -2])  # two moduli, each twice
def test_profile_of_products_with_exact_moduli(pairs, roots):
    """Products of conjugate-pair quadratics and integer linear factors,
    with many equal moduli: the certified profile counts the roots of
    the largest and smallest exact squared modulus."""
    assume(2 <= 2 * len(pairs) + len(roots) <= 7)
    f = IntPolynomial((1,))
    mod2: List[Fraction] = []
    for a, b, c in pairs:
        f = f * IntPolynomial((a, b, c))
        mod2 += [Fraction(c, a)] * 2
    for r in roots:
        f = f * IntPolynomial((1, -r))
        mod2.append(Fraction(r * r))
    profiles = [modulus_profile(f)]
    if f.coeffs[-1] != 0:
        profiles.append(classify._profile_certified(f))  # at every degree
    for p in profiles:
        assert (p.k_max, p.k_min) == (mod2.count(max(mod2)), mod2.count(min(mod2))), f.coeffs
        assert p.dominant == (p.k_max == 1)


@pytest.mark.parametrize(
    "coeffs",
    [(1, -2, -1, 2), (1, -3, -2, 6)],
    ids=["point-disks", "precision-bound"],
)
def test_tie_loop_is_bounded(monkeypatch, coeffs):
    # with a defective S whose Sturm count never reaches 1 the tie path
    # gives up with PrecisionCapExceeded instead of refining forever: at
    # once on the exact disks of the roots 1, -1, 2, and past the bits
    # bound on the disks of +-sqrt(2), 3, which always shrink
    monkeypatch.setattr(classify, "_pair_products", lambda f, distinct: IntPolynomial((1, 0, 1)))
    refine = classify.refine
    calls = []

    def counted(rs, radius_target):
        calls.append(rs.precision_bits)
        if len(calls) > 50:
            raise RuntimeError("tie loop still refining after 50 calls")
        return refine(rs, radius_target)

    monkeypatch.setattr(classify, "refine", counted)
    with pytest.raises(PrecisionCapExceeded):
        classify._profile_certified(IntPolynomial(coeffs))


def test_conjugate_pair_from_mp_rung_is_one_unit():
    # two real roots and one conjugate pair: three moduli, whatever rung
    # produced the disks (the default start is the 128-bit one)
    f = IntPolynomial((1, -2, -2, -2, -1))
    rs = isolate_roots(f)
    assert rs.precision_bits > 53
    runs, _ = classify._disk_runs(rs)
    assert sum(run.size for run in runs) == 3
    assert modulus_profile(f).decision == "NUMERIC_CERTIFIED"


def test_mod2_is_exact_on_dyadic_disks():
    # centre 3/4 + i, radius 1/4, at the scale 2^-2: |c| = 5/4, enclosure
    # (1, 3/2)^2 = (16, 36) 4^-2
    assert classify._mod2(3, 4, 1) == (16, 36)
    # centre 1 + i, radius 1/2, at the scale 2^-1: |c| = sqrt 2 is bounded
    # above by 3/2, so (sqrt 2 -+ 1/2)^2 = 9/4 -+ sqrt 2 lies inside
    # (3/4, 15/4) = (3, 15) 4^-1
    assert classify._mod2(2, 2, 1) == (3, 15)
    # a disk around 0 may hold the root 0: centre (1 - i)/8, radius 1/4
    assert classify._mod2(1, -1, 2)[0] == 0
    # a point disk at -2
    assert classify._mod2(-2, 0, 0) == (4, 4)


def test_mod2_on_int64_columns_matches_integers():
    # the int64 pass of the n = 4 census kernel reads the enclosures of
    # whole columns, with a ceil sqrt from doubles corrected by one: each
    # entry is the enclosure of the Python integers, perfect squares,
    # their neighbours and disks around 0 included
    rng = random.Random(11)
    disks = [(3, 4, 1), (2, 2, 1), (1, -1, 2), (-2, 0, 0), (0, 0, 5), (2**24, 2**24 - 1, 2**29)]
    disks += [(m, 0, k) for m in (2**25 - 1, 2**25, 2**25 + 1) for k in (0, 1, m)]
    disks += [(rng.randint(-2**24, 2**24), rng.randint(-2**24, 2**24), rng.randint(0, 2**29)) for _ in range(3000)]
    lo, hi = classify._mod2(*(np.array(col, dtype=np.int64) for col in zip(*disks)))
    assert list(zip(lo.tolist(), hi.tolist())) == [classify._mod2(*d) for d in disks]


def test_low_degree_kernels_match_general_path():
    # the kernels take a nonzero constant term; modulus_profile splits zero
    # roots off before it calls them, on either path, and both paths agree
    # on everything but the decision
    def counts(p):
        return p.k_max, p.k_min, p.dominant

    rng = random.Random(77)
    for _ in range(300):
        a = rng.choice((-1, 1)) * rng.randint(1, 9)
        b, c, d = (rng.randint(-9, 9) for _ in range(3))
        f2 = IntPolynomial((a, b, c))
        if c != 0:
            p2 = classify._profile_certified(f2)
            assert counts(modulus_profile(f2)) == counts(p2), (a, b, c)
            assert profile_pair_deg2(a, b, c) == (p2.k_max, p2.k_min)
        assert root_signature(f2).r == len(sympy.Poly([a, b, c], _X).real_roots())
        f3 = IntPolynomial((a, b, c, d))
        if d != 0:
            p3 = classify._profile_certified(f3)
            assert counts(modulus_profile(f3)) == counts(p3), (a, b, c, d)
            assert profile_pair_deg3(a, b, c, d) == (p3.k_max, p3.k_min), (a, b, c, d)
        assert root_signature(f3).r == len(sympy.Poly([a, b, c, d], _X).real_roots()), (a, b, c, d)


def test_cubic_opposite_pair_never_ties_the_lone_root():
    # the disc > 0 tie branch of profile_pair_deg3 has no (3, 3) case: with
    # f = (aX + b)(X^2 + d/b), a^2 d + b^3 = 0 would make the lone root
    # -b/a a root of X^2 + d/b, a repeated root, and disc = 0
    a, b, c, d = np.ix_(*[np.arange(-8, 9)] * 4)
    tie = (a != 0) & (disc3(a, b, c, d) > 0) & (b != 0) & (b * c == a * d)
    assert tie.sum() > 100
    assert not (tie & (a * a * d + b * b * b == 0)).any()


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


def _sympy_rational_roots(f: IntPolynomial):
    _, facs = sympy.Poly(list(f.coeffs), _X).factor_list()
    return {Fraction(-int(g.coeffs()[1]), int(g.coeffs()[0])) for g, _ in facs if g.degree() == 1}


def test_rational_root_matches_sympy_seeded():
    """Leading and constant coefficients with many divisors (720, 5040,
    2^4 3^2 5 7 11): the candidate num/den runs over all their divisor
    pairs."""
    rng = random.Random(5150)
    rich = (720, 5040, 2 ** 4 * 3 ** 2 * 5 * 7 * 11)
    found = 0
    for _ in range(60):
        f = IntPolynomial((1,))
        for _ in range(rng.randint(0, 2)):
            num = rng.choice(rich) // rng.randint(1, 12)
            den = rng.choice(rich) // rng.randint(1, 12)
            f = f * IntPolynomial((den, rng.choice((-1, 1)) * num))
        rest = [rng.randint(-50, 50) for _ in range(rng.randint(1, 4))]
        f = f * IntPolynomial((rng.choice(rich),) + tuple(rest) + (rng.choice(rich),))
        f = f.monic_positive()
        roots = _sympy_rational_roots(f)
        got = classify._find_rational_root(f)
        if got is None:
            assert not roots, f.coeffs
        else:
            num, den = got
            assert den > 0 and math.gcd(num, den) == 1
            assert Fraction(num, den) in roots, f.coeffs
            found += 1
    assert 10 < found < 60


def test_factorize_repeated_rational_and_zero_roots_match_sympy():
    """Rational roots of several multiplicities, in one squarefree factor
    of the Yun decomposition or spread over several, with and without
    zero roots, next to irreducible factors."""
    lin = [(1, -1), (2, 3), (3, -1), (1, 2), (5, 7)]
    irr = [(1, 0, 1), (1, 0, -2), (1, 1, 0, 3)]
    rng = random.Random(4040)
    for _ in range(40):
        f = IntPolynomial((rng.choice((-3, -1, 1, 2)),))
        for cs in rng.sample(lin, rng.randint(1, 3)) + rng.sample(irr, rng.randint(0, 1)):
            for _ in range(rng.randint(1, 3)):
                f = f * IntPolynomial(cs)
        f = f * IntPolynomial((1,) + (0,) * rng.randint(0, 2))
        if f.degree > 8:
            continue
        fr = factorize(f)
        _, facs = sympy.Poly(list(f.coeffs), _X).factor_list()
        want = sorted(
            (tuple(int(c) for c in g.all_coeffs()), m) for g, m in facs if g.degree() > 0
        )
        assert sorted((p.coeffs, m) for p, m in fr.factors) == want, f.coeffs
        assert fr.reconstruct() == f


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


def test_one_squarefree_decomposition_per_analysed_polynomial(monkeypatch):
    # isolation, profile, signature, factorization and the relation test
    # all read one analysis: X^6 - X - 1 is irreducible, and the profile of
    # X (X - 2)^2 (X^2 + X + 3) reads its zero-deflated quartic, which
    # shares the analysis of f
    from rootcensus import intpoly, roots

    calls = []
    fn = intpoly.squarefree_decomposition
    for mod in (intpoly, roots, classify):
        if getattr(mod, "squarefree_decomposition", None) is fn:
            monkeypatch.setattr(mod, "squarefree_decomposition", lambda f: calls.append(f) or fn(f))
    x, square = IntPolynomial((1, 0)), IntPolynomial((1, -2)) * IntPolynomial((1, -2))
    for f in (IntPolynomial((1, 0, 0, 0, 0, -1, -1)), x * square * IntPolynomial((1, 1, 3))):
        calls.clear()
        isolate_roots(f, 53)
        modulus_profile(f)
        root_signature(f)
        factorize(f)
        has_multiplicative_relation(f)
        assert len(calls) == 1, f.coeffs


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
    c = sn_certificate(IntPolynomial((2, 2)))
    assert c.verdict == "CERTIFIED_SN" and c.witnesses == ()


def test_sn_certificate_requires_irreducible():
    with pytest.raises(NotIrreducible):
        sn_certificate(IntPolynomial((1, 0, -1)))


def test_sn_witness_patterns_are_honest():
    # every reported witness must reproduce under direct reduction, and
    # be the first prime with its pattern
    polys = [IntPolynomial((1,) + (0,) * (n - 2) + (-1, -1)) for n in (3, 5, 7)]  # X^n - X - 1
    for f in polys + [IntPolynomial((1, 2, 0, 0, -3, 7))]:
        c = sn_certificate(f)
        assert c.witnesses
        for p, pat in c.witnesses:
            assert factor_degree_pattern(f, p) == pat
            assert all(factor_degree_pattern(f, q) != pat for q in primes_up_to(p - 1))


def _sn_reference(f: IntPolynomial, prime_bound: int) -> classify.SnCertificate:
    """The scan without the root-count gate: the factor degree pattern
    of every prime up to the bound, in order."""
    n = f.degree
    targets = {
        (n,): None,
        tuple(sorted((1, n - 1))): None,
        tuple(sorted([1] * (n - 2) + [2])): None,
    }
    witnesses = []
    for p in primes_up_to(prime_bound):
        pat = factor_degree_pattern(f, p)
        if pat in targets and targets[pat] is None:
            targets[pat] = p
            witnesses.append((p, pat))
            if all(v is not None for v in targets.values()):
                break
    verdict = "CERTIFIED_SN" if all(v is not None for v in targets.values()) else "UNDECIDED"
    return classify.SnCertificate(verdict, tuple(witnesses), prime_bound)


def _gate_corpus(rng: random.Random, count: int, max_deg: int) -> List[IntPolynomial]:
    out = []
    while len(out) < count:
        n = rng.randint(3, max_deg)
        h = rng.choice((3, 40, 1 << 20, 1 << 70))
        cs = [rng.randint(-h, h) for _ in range(n + 1)]
        if rng.random() < 0.25:
            cs[0] = 2 * 3 * 5 * 7
        if cs[0] != 0 and cs[-1] != 0:
            out.append(IntPolynomial(tuple(cs)))
    return out


@pytest.mark.parametrize("bound, count, max_deg", [(200, 40, 10), (2000, 16, 7)])
def test_sn_gate_matches_ungated_scan(bound, count, max_deg):
    """The root-count gate skips only primes that cannot show a missing
    pattern: same verdict, witnesses in the same order, same bound."""
    certified = 0
    for f in _gate_corpus(random.Random(bound), count, max_deg):
        c = sn_certificate(f, prime_bound=bound, assume_irreducible=True)
        assert c == _sn_reference(f, bound), f.coeffs
        certified += c.verdict == "CERTIFIED_SN"
    assert 0 < certified < count


def test_sn_gate_matches_ungated_scan_on_edge_cases():
    # no prime below 257 has good reduction: the gate on every count
    # ends before the first witness
    smooth = math.prod(primes_up_to(255))
    cases = [
        (IntPolynomial((1, 0, -1, -1)), 200),  # n = 3: {1, n-1} is the transposition
        (IntPolynomial((1, 0, -3, 1)), 600),  # cyclic cubic: never {1, 2}
        (IntPolynomial((2 * 3 * 5 * 7, 0, 0, 1, 1)), 2000),
        (IntPolynomial((2 * 3 * 5 * 7, 5, -1, 0, 3, 1)), 200),
        (IntPolynomial((1, 0, 0, 0, 1)), 600),  # above the cutoff, never certified
        (IntPolynomial((1, 0, 0, smooth, smooth)), 2000),
        (IntPolynomial((1, 0, 0, 0, 0, 2 * smooth, smooth)), 2000),
    ]
    assert 600 > classify._ROOT_COUNT_CUTOFF
    for f, bound in cases:
        c = sn_certificate(f, prime_bound=bound, assume_irreducible=True)
        assert c == _sn_reference(f, bound), f.coeffs
    assert sn_certificate(cases[-1][0], 2000, assume_irreducible=True).witnesses[0][0] == 257


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
    for n in range(4, 9):
        for _ in range(25):
            cs = [rng.randint(-5, 5) for _ in range(n + 1)]
            if cs[0] == 0:
                cs[0] = 1
            f = IntPolynomial(tuple(cs))
            exact = discriminant(root_product_poly(f)) == 0
            assert has_multiplicative_relation(f) == exact, f.coeffs


@pytest.mark.parametrize(
    "f",
    [
        # sqrt2 sqrt3 = (-sqrt2)(-sqrt3)
        IntPolynomial((1, 0, -2)) * IntPolynomial((1, 0, -3)),
        # X^4 + 1: zeta zeta^7 = zeta^3 zeta^5 = 1 for zeta = e^(i pi/4)
        IntPolynomial((1, 0, 0, 0, 1)),
        # Phi_3 Phi_5: omega omega^2 = zeta zeta^4 = 1
        IntPolynomial((1, 1, 1)) * IntPolynomial((1, 1, 1, 1, 1)),
    ],
)
def test_relation_prefilter_cannot_separate_colliding_products(f):
    assert not classify._products_separated(f)
    assert has_multiplicative_relation(f)


def test_relation_verdict_on_a_near_collision():
    # 4096 alpha = 1 + O(4096^-4) = 2 * (1/2) for the root alpha of
    # X^4 - 4096X + 1 near 1/4096: the 53-bit product enclosures of this
    # near-collision overlap, so the exact discriminant decides
    f = (
        IntPolynomial((1, -4096))
        * IntPolynomial((1, -2))
        * IntPolynomial((2, -1))
        * IntPolynomial((1, 0, 0, -4096, 1))
    )
    cells = isolate_roots(f, precision_bits=53).cells
    assert not classify._disjoint(classify._product_disks(cells))
    assert not classify._products_separated(f)
    assert not has_multiplicative_relation(f)
    assert discriminant(root_product_poly(f)) != 0


def test_relation_prefilter_lets_unexpected_errors_through(monkeypatch):
    # the prefilter may give up only on an exhausted precision ladder; any
    # other error from root isolation is a bug and must surface
    def broken(*args, **kwargs):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(classify, "isolate_roots", broken)
    with pytest.raises(ZeroDivisionError):
        has_multiplicative_relation(IntPolynomial((1, 0, 0, 1, 1)))
