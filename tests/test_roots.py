"""Certified root isolation against numpy eigenvalue roots.

Every certified disk must contain the matching numpy root (up to the
numpy error itself), multiplicities must sum to the degree, real flags
must agree with the Sturm count, and rational roots must be enclosed
exactly. The hardware-double step (precision_bits <= 53, small
coefficients) must agree with the exact fixed-point step on the same
polynomials. The Fujiwara bound is checked against its exact closed
form, also beyond the double range.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from rootcensus.classify import _mod2, _modulus_units, _runs, modulus_profile, root_signature
from rootcensus.errors import DegreeTooSmall, PrecisionCapExceeded, ZeroPolynomial
from rootcensus.intpoly import IntPolynomial
from rootcensus.roots import (
    CertifiedRootSet,
    RootDisk,
    _FUJIWARA_BITS,
    _apart,
    _certified,
    _companion_roots,
    _disjoint,
    _float_centres,
    _propose,
    _realness,
    fujiwara_bound,
    isolate_roots,
    refine,
    isolate_roots as _isolate,
)


def _rand_poly(rng: random.Random, max_deg: int = 6, height: int = 1000) -> IntPolynomial:
    n = rng.randint(1, max_deg)
    cs = [rng.randint(-height, height) for _ in range(n + 1)]
    if cs[0] == 0:
        cs[0] = rng.randint(1, height)
    return IntPolynomial(tuple(cs))


def _mod2_interval(cell, e: int):
    """Bounds on |root|^2 for a root in the disk of the cell (a, b, k, ...)
    at the scale 2^e: _mod2 on its integers."""
    lo, hi = _mod2(*cell[:3])
    return lo * Fraction(4) ** e, hi * Fraction(4) ** e


def _check_against_numpy(f: IntPolynomial, rs: CertifiedRootSet, slack: float = 1e-6):
    rr = list(np.roots([float(c) for c in f.coeffs]))
    for d in rs.disks:
        c = complex(float(d.center_re), float(d.center_im))
        r = float(d.radius)
        near = [z for z in rr if abs(z - c) <= r + slack]
        assert len(near) >= d.multiplicity, (f.coeffs, c, r)
        for z in near[: d.multiplicity]:
            rr.remove(z)
    assert not rr


def test_total_multiplicity_and_containment_seeded():
    rng = random.Random(42)
    for _ in range(60):
        f = _rand_poly(rng)
        rs = isolate_roots(f)
        assert rs.status == "CERTIFIED"
        assert rs.total_multiplicity == f.degree
        _check_against_numpy(f, rs)


def test_disks_pairwise_disjoint_seeded():
    rng = random.Random(43)
    for _ in range(40):
        f = _rand_poly(rng)
        rs = isolate_roots(f)
        ds = rs.disks
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                ci = complex(float(ds[i].center_re), float(ds[i].center_im))
                cj = complex(float(ds[j].center_re), float(ds[j].center_im))
                assert abs(ci - cj) > float(ds[i].radius) + float(ds[j].radius)


def test_real_flags_count():
    cases = {
        (1, 0, -2): 2,  # x^2 - 2
        (1, 0, 1): 0,  # x^2 + 1
        (1, 0, 0, -2): 1,  # x^3 - 2
        (1, -1, -1, 1): 3,  # (x-1)^2 (x+1): 2 distinct, 3 with multiplicity
    }
    for cs, want in cases.items():
        rs = isolate_roots(IntPolynomial(cs))
        got = sum(d.multiplicity for d in rs.disks if d.is_real)
        assert got == want, cs


def test_repeated_roots_multiplicity():
    # (x^2 - 2)^2: two real double roots
    f = IntPolynomial((1, 0, -2)) * IntPolynomial((1, 0, -2))
    rs = isolate_roots(f)
    assert sorted(d.multiplicity for d in rs.disks) == [2, 2]
    assert all(d.is_real for d in rs.disks)


def test_zero_root_exact():
    # x^3 - x = x (x-1) (x+1); the zero root gets the exact point disk {0}
    f = IntPolynomial((1, 0, -1, 0))
    rs = isolate_roots(f)
    # the roots +-1 are dyadic, so their disks have radius 0 as well
    zero_cells = [c for c in rs.cells if c[:2] == (0, 0)]
    assert len(zero_cells) == 1
    assert zero_cells[0][2] == 0
    lo, hi = _mod2_interval(zero_cells[0], rs.exponent)
    assert lo == 0


def test_modulus_interval_is_exact_on_dyadic_disks():
    # centre 3/4 + i, radius 1/4: |c| = 5/4, so |root|^2 lies exactly in
    # [1, 3/2]^2
    assert _mod2_interval((3, 4, 1), -2) == (1, Fraction(9, 4))
    # centre 1 + i, radius 1/2: sqrt 2 is bounded above by 3/2 on the
    # half-integer grid of the disk, so (sqrt 2 -+ 1/2)^2 = 9/4 -+ sqrt 2
    # lies in [3/4, 15/4]
    assert _mod2_interval((2, 2, 1), -1) == (Fraction(3, 4), Fraction(15, 4))
    # a disk around 0 may hold the root 0: centre (1 - i)/8, radius 1/4,
    # |c| = sqrt 2 / 8 <= 1/4
    assert _mod2_interval((1, -1, 2), -3) == (0, Fraction(7, 32))
    assert _mod2_interval((-2, 0, 0, 2, True), 0) == (4, 4)


def test_rational_root_enclosed():
    # 3x - 7 has the single root 7/3
    rs = isolate_roots(IntPolynomial((3, -7)))
    d = rs.disks[0]
    assert abs(d.center_re - Fraction(7, 3)) <= d.radius
    assert d.is_real and d.multiplicity == 1


def test_cyclotomic_conjugate_disks():
    # x^4 + 1: four simple roots on the unit circle, none real
    rs = isolate_roots(IntPolynomial((1, 0, 0, 0, 1)))
    assert len(rs.disks) == 4
    assert not any(d.is_real for d in rs.disks)
    for cell in rs.cells:
        lo, hi = _mod2_interval(cell, rs.exponent)
        assert lo <= 1 <= hi


def test_conjugate_disks_are_exact_mirrors_seeded():
    # every non-real disk has its mirror image in the set, with the same
    # radius and multiplicity, at every step of the ladder
    rng = random.Random(45)
    polys = [_rand_poly(rng) for _ in range(30)]
    q1, q2, q3 = IntPolynomial((1, 1, 1)), IntPolynomial((2, -1, 3)), IntPolynomial((1, 0, 1))
    polys += [
        q1 * q1 * IntPolynomial((1, 0, 2)),
        q2 * q2 * q2 * IntPolynomial((1, -1, 0)),
        IntPolynomial((1, 0, 0, 0, 1)) * q3 * q3,
    ]
    for f in polys:
        rs = isolate_roots(f, precision_bits=53)
        for sets in (rs, isolate_roots(f), refine(rs, rs.max_radius() / 2**20)):
            keys = {(d.center_re, d.center_im, d.radius, d.multiplicity) for d in sets.disks}
            for d in sets.disks:
                if not d.is_real:
                    assert (d.center_re, -d.center_im, d.radius, d.multiplicity) in keys, f.coeffs


def test_disks_are_the_cells_at_the_exponent():
    # a set keeps the certifier's integers; its disks are the cells times
    # 2^exponent, sorted by centre, at every step of the ladder
    rng = random.Random(27)
    for _ in range(40):
        f = _rand_poly(rng, max_deg=7)
        rs = isolate_roots(f, precision_bits=53)
        for sets in (rs, isolate_roots(f), refine(rs, rs.max_radius() / 2**20)):
            scale = Fraction(2) ** sets.exponent
            want = tuple(
                RootDisk(a * scale, b * scale, r * scale, m, real) for a, b, r, m, real in sets.cells
            )
            assert sets.exponent <= 0 and sets.disks == want, f.coeffs
            centres = [(d.center_re, d.center_im) for d in sets.disks]
            assert centres == sorted(centres), f.coeffs
            assert sets.max_radius() == max(d.radius for d in want)
            assert sets.total_multiplicity == f.degree


def test_refine_continues_the_ladder(monkeypatch):
    # the step at a set's own precision_bits only certifies the set again:
    # refine starts one step above it, and returns a set that already
    # meets the target as it is, without certifying anything
    from rootcensus import roots

    f = IntPolynomial((1, -3, 1, 2, -5))
    rs = isolate_roots(f, precision_bits=53)
    target = rs.max_radius() / 2**20
    want = isolate_roots(f, precision_bits=53, radius_target=target)
    steps, calls = [], []
    propose, certified = roots._propose, roots._certified
    monkeypatch.setattr(roots, "_propose", lambda g, bits: steps.append(bits) or propose(g, bits))
    monkeypatch.setattr(roots, "_certified", lambda fs, v: calls.append(v) or certified(fs, v))
    assert rs.precision_bits == 53
    assert refine(rs, rs.max_radius()) is rs and calls == []
    assert refine(rs, target) == want
    # one certification per step from 106 bits up to the one that meets it
    assert steps[0] == 106 and 53 << len(calls) == want.precision_bits


def test_apart_on_integers_and_int64_columns():
    # one disk test for Python integers and whole int64 columns: tangent
    # disks meet, and _disjoint asks it of every pair
    pairs = [((0, 0, 1), (3, 4, 4)), ((0, 0, 1), (3, 4, 3)), ((-2, 1, 0), (-2, 1, 0)), ((5, -1, 2), (0, 0, 2))]
    want = [False, True, False, True]
    assert [_apart(p, q) for p, q in pairs] == want
    cols = [np.array(col, dtype=np.int64) for col in zip(*(p for p, _ in pairs))]
    other = [np.array(col, dtype=np.int64) for col in zip(*(q for _, q in pairs))]
    assert _apart(cols, other).tolist() == want
    assert _disjoint([pairs[1][0], pairs[1][1], (9, 9, 1)])
    assert not _disjoint([pairs[1][0], (9, 9, 1), pairs[0][1]])


def test_realness_by_the_symmetric_hull():
    # disks [a, b, r] at one scale: a straddling disk (|b| <= r) is real
    # when its hull [a, 0, r + |b|] misses the factor's other disks
    assert _realness([[0, 1, 2], [0, -1, 2]]) is None  # a straddling mirror pair
    disks = [[0, 1, 2], [10, -1, 2]]
    assert _realness(disks) == [True, True]
    assert disks == [[0, 0, 2], [10, 0, 2]]
    # [7, -3, 1] misses the disk [0, 3, 4] but meets its hull [0, 0, 7]
    assert _realness([[0, 3, 4], [7, -3, 1]]) is None


@pytest.mark.parametrize("m", [20, 40, 80])
def test_a_pair_near_the_axis_is_never_real(m):
    # 2^(2m) X^2 - 2^(2m+1) X + 2^(2m) + 1 has the roots 1 +- 2^-m i. At
    # m = 40 and 80 its coefficients in doubles have the double root 1, so
    # the companion eigenvalues coincide and Newton-polygon seeds take over
    f = IntPolynomial((1 << 2 * m, -(1 << 2 * m + 1), (1 << 2 * m) + 1))
    for bits in (53, 128):
        rs = isolate_roots(f, precision_bits=bits)
        assert len(rs.disks) == 2 and not any(d.is_real for d in rs.disks), bits


def test_certified_reads_realness_off_the_disks():
    # (2^20 X^2 - 2^21 X + 2^20 + 1)(2X - 1)(X - 3) has the roots 1/2, 3
    # and 1 +- 2^-10 i. Centres on the roots certify two real roots, and
    # the disks' modulus runs give the profile. With the upper root's
    # centre moved a fifth of the way to the axis its disk straddles the
    # axis, apart from the other disks, but its hull meets the lower disk:
    # the certificate must fail, not count three reals
    row = (2**21, -11 * 2**20, 19 * 2**20 + 2, -13 * 2**20 - 7, 3 * 2**20 + 3)
    f = IntPolynomial(row)
    k, y = 40, 2**30
    prof = modulus_profile(f)
    want = (prof.k_max, prof.k_min, root_signature(f).r)
    assert want[2] == 2
    for b, stats in ((y, want), (4 * y // 5, None)):
        centres = [(1 << k - 1, 0, k), (3 << k, 0, k), (1 << k, b, k), (1 << k, -y, k)]
        got = _certified([(row, 1, centres)], 0)
        if got is not None:
            cells, _ = got
            runs = _runs(_modulus_units(cells))
            got = (runs[-1].mult, runs[0].mult, sum(c[4] for c in cells))
        assert got == stats, b


def test_a_repeated_root_never_certifies():
    # degree-n disks that certify are n disjoint disks each holding a
    # root, so a factor with a repeated root never certifies as one: not
    # from double centres, nor from its roots moved apart by 2^-60
    k = 100
    sqrt2, sqrt3 = math.isqrt(2 << 2 * k), math.isqrt(3 << 2 * k)
    cases = {
        (1, 0, -4, 0, 4): [(sqrt2, 0), (-sqrt2, 0)],  # (X^2 - 2)^2
        (1, 1, -5, 3): [(1 << k, 0), (-3 << k, 0)],  # (X - 1)^2 (X + 3)
        (1, 2, 3, 2, 1): [(-1 << k - 1, sqrt3 >> 1), (-1 << k - 1, -(sqrt3 >> 1))],  # (X^2 + X + 1)^2
    }
    for cs, roots in cases.items():
        moved = [(a + s, b, k) for a, b in roots for s in (1 << 40, -(1 << 40))]
        if len(cs) == 4:
            moved = moved[:3]  # the simple root -3 once
        fast = _float_centres(np.roots(cs).tolist(), 53)
        for centres in (moved, fast):
            assert len(centres) == len(cs) - 1
            assert _certified([(cs, 1, centres)], 0) is None, (cs, centres)


def test_refine_shrinks_radii():
    f = IntPolynomial((1, -3, 1, 5, -2))
    rs = isolate_roots(f)
    target = Fraction(1, 1 << 60)
    fine = refine(rs, target)
    assert fine.status == "CERTIFIED"
    assert all(d.radius <= target for d in fine.disks)
    # refinement must keep disks nested in the coarse ones (same roots)
    for d in fine.disks:
        c = complex(float(d.center_re), float(d.center_im))
        assert any(
            abs(c - complex(float(e.center_re), float(e.center_im)))
            <= float(e.radius) + 1e-15
            for e in rs.disks
        )


def test_fujiwara_dominates_all_roots_seeded():
    rng = random.Random(44)
    for _ in range(60):
        f = _rand_poly(rng)
        fb = fujiwara_bound(f)
        rr = np.roots([float(c) for c in f.coeffs])
        assert all(abs(z) <= fb * (1 + 1e-9) for z in rr), f.coeffs


def test_fujiwara_bound_against_its_closed_form_seeded():
    # every term ratio^(1/k) is at most half the bound, and half the bound
    # lies within 2^-s of the largest term: (bound/2 - 2^-s)^k < ratio for
    # some k
    rng = random.Random(47)
    step = Fraction(1, 1 << _FUJIWARA_BITS)
    for _ in range(80):
        f = _rand_poly(rng, height=10 ** rng.randint(1, 40))
        fb = fujiwara_bound(f)
        assert type(fb) is Fraction and fb.denominator & (fb.denominator - 1) == 0
        n, a0 = f.degree, abs(f.coeffs[0])
        terms = [
            (Fraction(abs(f.coeffs[k]), 2 * a0 if k == n else a0), k)
            for k in range(1, n + 1)
            if f.coeffs[k]
        ]
        half = fb / 2
        assert all(half**k >= ratio for ratio, k in terms), f.coeffs
        if terms:
            assert any((half - step) ** k < ratio for ratio, k in terms), f.coeffs
        else:
            assert fb == 0


def test_fujiwara_bound_beyond_the_double_range():
    # |a1/a0| = 10^400 overflows a double; the bound is twice that term
    fb = fujiwara_bound(IntPolynomial((1, 10**400, 1)))
    assert 2 * 10**400 <= fb <= 2 * 10**400 + Fraction(2, 1 << _FUJIWARA_BITS)


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomial):
        isolate_roots(IntPolynomial((0,)))


def test_degree_zero_rejected():
    with pytest.raises(DegreeTooSmall):
        isolate_roots(IntPolynomial((5,)))


def test_double_step_agrees_with_fixed_point_step_seeded():
    # precision 53 with small coefficients uses the hardware-double step;
    # the certified disks must match a 212-bit fixed-point run root for root
    rng = random.Random(45)
    for _ in range(150):
        f = _rand_poly(rng, max_deg=6, height=10**6)
        fast = _isolate(f, precision_bits=53)
        slow = _isolate(f, precision_bits=212)
        assert fast.total_multiplicity == slow.total_multiplicity == f.degree
        used = [False] * len(slow.disks)
        for d in fast.disks:
            c = complex(float(d.center_re), float(d.center_im))
            r = float(d.radius)
            hit = None
            for k, e in enumerate(slow.disks):
                if used[k]:
                    continue
                ce = complex(float(e.center_re), float(e.center_im))
                if abs(c - ce) <= r + float(e.radius):
                    hit = k
                    break
            assert hit is not None, (f.coeffs, c, r)
            used[hit] = True
            assert d.multiplicity == slow.disks[hit].multiplicity
            assert d.is_real == slow.disks[hit].is_real


def test_double_step_centres_are_the_companion_eigenvalues_seeded():
    # the 53-bit centres of a factor of degree >= 2 are its companion
    # eigenvalues, rounded and nothing more
    rng = random.Random(48)
    for _ in range(80):
        g = _rand_poly(rng, height=10**6)
        if g.degree >= 2:
            z = _companion_roots([g.coeffs])[0].tolist()
            assert _propose(g, 53) == _float_centres(z, 53), g.coeffs


def test_criterion_7_polynomials_certify_at_the_double_step():
    # every polynomial of degree >= 2 among the first 2,000 of criterion 7
    # (coefficients up to 10^6) certifies from its companion eigenvalues,
    # with no step up the ladder
    from rootcensus.acceptance import _c7_poly

    polys = [f for f in map(_c7_poly, range(2000)) if f.degree >= 2]
    climbed = [f.coeffs for f in polys if isolate_roots(f, precision_bits=53).precision_bits != 53]
    assert len(polys) > 1500 and climbed == []


def test_companion_roots_are_real_or_exact_conjugate_pairs():
    # the int64 pass of the n = 4 census reads a real root off an exactly
    # zero imaginary part and pairs disks as exact mirror images: every
    # eigenvalue is real with imaginary part 0.0 or has its exact conjugate
    # among the row's other eigenvalues, over the whole n = 4 H = 2 block
    # (a negative lead gives the same companion matrix) and random rows of
    # degree 2-8 with coefficients up to 10^6
    rng = random.Random(49)
    blocks = [list(itertools.product(range(1, 3), *[range(-2, 3)] * 4))]
    for n in range(2, 9):
        blocks.append([
            [rng.choice((-1, 1)) * rng.randint(1, 10**6)] + [rng.randint(-(10**6), 10**6) for _ in range(n)]
            for _ in range(2000)
        ])
    for rows in blocks:
        for row, z in zip(rows, _companion_roots(rows).tolist()):
            upper = Counter(w for w in z if w.imag > 0)
            assert upper == Counter(w.conjugate() for w in z if w.imag < 0), row
            assert 2 * sum(upper.values()) + sum(w.imag == 0 for w in z) == len(z), row


def test_isolation_builds_no_sturm_chain(monkeypatch):
    # real roots are read off the disks: the squarefree quartic X^4 - X - 1,
    # with two real roots, certifies without a Sturm count
    from rootcensus import intpoly

    chains = []
    chain = intpoly.sturm_chain
    monkeypatch.setattr(intpoly, "sturm_chain", lambda f: chains.append(f) or chain(f))
    rs = isolate_roots(IntPolynomial((1, 0, 0, -1, -1)))
    assert sum(d.is_real for d in rs.disks) == 2
    assert chains == []


def test_huge_coefficients_escalate_cleanly():
    # far beyond what a double holds exactly: must still certify
    f = IntPolynomial((10**40, 0, -(10**41), 1))
    rs = isolate_roots(f, precision_bits=53)
    assert rs.status == "CERTIFIED"
    assert rs.total_multiplicity == 3


def _holds_roots(f: IntPolynomial, rs: CertifiedRootSet) -> bool:
    """Whether every 60-digit root of f lies in a disk of rs."""
    with mpmath.workdps(60):
        def mp(x: Fraction):
            return mpmath.mpf(x.numerator) / x.denominator

        return all(
            any(
                abs(z - mpmath.mpc(mp(d.center_re), mp(d.center_im))) <= mp(d.radius) + 1e-50
                for d in rs.disks
            )
            for z in mpmath.polyroots(list(f.coeffs), maxsteps=200, extraprec=200)
        )


@pytest.mark.parametrize("bits", [53, 128])
def test_disks_do_not_depend_on_global_precision(bits):
    # (X - 2)(X - 1)(X^2 + X + 1): three roots of modulus 1. Disks built
    # from the global mpmath precision missed the roots -1/2 +- i sqrt(3)/2
    # under workprec(10) and the profile came out (1, 1)
    f = IntPolynomial((1, -2, 0, -1, 2))
    want = isolate_roots(f, precision_bits=bits)
    with mpmath.workprec(10):
        got = isolate_roots(f, precision_bits=bits)
        prof = modulus_profile(f)
    assert got.disks == want.disks
    assert _holds_roots(f, got)
    assert (prof.k_max, prof.k_min) == (1, 3)


@pytest.mark.parametrize("bits", [53, 128, 212])
def test_disks_are_exact_dyadic_fractions(bits):
    rng = random.Random(46)
    for _ in range(40):
        f = _rand_poly(rng, max_deg=7)
        rs = isolate_roots(f, precision_bits=bits)
        for d in rs.disks:
            for x in (d.center_re, d.center_im, d.radius):
                assert type(x) is Fraction, (f.coeffs, d)
                assert x.denominator & (x.denominator - 1) == 0, (f.coeffs, d)


@pytest.mark.parametrize("bits", [53, 128])
@pytest.mark.parametrize("q", [(1, 0, 1), (1, 0, 2, 0, 1)])
def test_rational_root_disks(bits, q):
    # (aX - b) q with q = X^2 + 1 or (X^2 + 1)^2; with the square the
    # simple root b/a is a squarefree factor of its own, whose centre is
    # the rounded quotient b/a. The dyadic root 1/2 is then its own centre
    # and gets radius 0, and so it does from the centres polished at 128
    # bits; a 53-bit companion eigenvalue of the cubic (2X - 1)(X^2 + 1)
    # may miss it by a few units of 2^-53, and the radius, about three
    # times the miss, stays below 2^5 such units
    q = IntPolynomial(q)
    f = IntPolynomial((2, -1)) * q
    rs = isolate_roots(f, precision_bits=bits)
    (d,) = [d for d in rs.disks if d.is_real]
    if bits > 53 or q.degree == 4:
        assert (d.center_re, d.center_im, d.radius) == (Fraction(1, 2), 0, 0)
    assert d.radius <= Fraction(1, 1 << (bits - 5))
    assert abs(d.center_re - Fraction(1, 2)) <= d.radius
    assert _holds_roots(f, rs)
    # 1/3 is no dyadic rational: its disk is about as wide as the rounding
    f = IntPolynomial((3, -1)) * q
    rs = isolate_roots(f, precision_bits=bits)
    (d,) = [d for d in rs.disks if d.is_real]
    assert 0 < d.radius <= Fraction(1, 1 << (bits - 2))
    assert abs(d.center_re - Fraction(1, 3)) <= d.radius
    assert _holds_roots(f, rs)


# -- the memo of analyses and 53-bit root sets -----------------------------------


def _fresh(f: IntPolynomial, **kw):
    """isolate_roots(f, 53) from an empty memo, as (cells, exponent, bits),
    or None where it raises PrecisionCapExceeded."""
    from rootcensus import roots

    roots._MEMO.clear()
    return _served(f, **kw)


def _served(f: IntPolynomial, **kw):
    """isolate_roots(f, 53) from the memo as it stands, as _fresh reads it."""
    try:
        rs = isolate_roots(f, precision_bits=53, **kw)
    except PrecisionCapExceeded:
        return None
    return rs.cells, rs.exponent, rs.precision_bits


def test_memo_serves_the_set_a_fresh_isolation_certifies():
    # seeded degree 1-8 inputs, with roots at zero and squared factors: the
    # signature memoises the analysis of f, and the profile that of its
    # zero deflation u from it, with zeros=0. The sets then served for f
    # and u are those an empty memo certifies, and a second call on f
    # certifies nothing
    from rootcensus import roots

    rng = random.Random(83)
    x = IntPolynomial((1, 0))
    polys = []
    for n in range(1, 9):
        g = _rand_poly(rng, max_deg=n)
        polys += [g, g * x, g * x * x * x, g * g, x * g * g * _rand_poly(rng, max_deg=2)]
    calls = []
    certified = roots._certified
    for f in (f for f in polys if f.degree <= 8):
        _, u = roots._deflate_zero_roots(f)
        want = {f.coeffs: _fresh(f)} | ({u.coeffs: _fresh(u)} if u.degree >= 1 else {})
        roots._MEMO.clear()
        root_signature(f)
        modulus_profile(f)
        got = {p: _served(IntPolynomial(p)) for p in want}
        assert got == want, f.coeffs
        calls.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(roots, "_certified", lambda fs, v: calls.append(v) or certified(fs, v))
            assert _served(f) == want[f.coeffs] and calls == [], f.coeffs


def test_memo_serves_a_set_only_where_its_cap_would_certify_it():
    # X^3 - 2 (2^14 X - 1)^2, Mignotte's polynomial, has two roots about
    # 2^-34 apart and certifies at 106 bits from a 53-bit start. Under a
    # cap of 53 the ladder fails; under 64 or 80 its second step is clipped
    # to the cap and certifies there, a set no other cap reaches, which
    # the memo never keeps. In any order of the caps each call returns
    # what it returns from an empty memo
    f = IntPolynomial((1, -(1 << 29), 1 << 16, -2))
    caps = [53, 64, 80, 106, 200, 4096]
    want = {cap: _fresh(f, precision_cap=cap) for cap in caps}
    assert want[53] is None and [want[c][2] for c in caps[1:]] == [64, 80, 106, 106, 106]
    for order in (caps, caps[::-1], [106, 53, 80, 4096, 200, 64]):
        _fresh(f)
        assert {cap: _served(f, precision_cap=cap) for cap in order} == want, order
    # nor does it serve a call from another start, or with a radius target
    assert isolate_roots(f).precision_bits == 128
    target = Fraction(1, 1 << 120)
    assert isolate_roots(f, precision_bits=53, radius_target=target).max_radius() <= target


def test_memo_stays_at_its_size():
    # 1,000 distinct polynomials with a root at zero, each isolated and
    # profiled: the memo holds the last _MEMO_SIZE of them and of their
    # zero deflations, and never more
    from rootcensus import roots

    sizes = []
    for k in range(1000):
        f = IntPolynomial((1, k, -1, 0))
        isolate_roots(f, precision_bits=53)
        modulus_profile(f)
        sizes.append(len(roots._MEMO))
    assert max(sizes) == roots._MEMO_SIZE == len(roots._MEMO)
    assert list(roots._MEMO)[-2:] == [f.coeffs, (1, 999, -1)]
