"""Certified complex root isolation for integer polynomials.

The contract: isolate_roots(f) returns pairwise disjoint closed disks,
one per distinct root, each carrying the multiplicity of its root and a
certified is_real flag, such that every root of f lies in exactly one
disk. Centres and radii are exact dyadic Fractions.

Roots at zero are split off exactly and get a disk of radius zero, and
Yun decomposition hands the rest over as squarefree factors with their
Sturm real counts; this analysis (_analysis) is computed once per
polynomial and stored on it, so refine and the signatures in classify
reuse it. Each factor goes through one certification rung: the
arithmetic of its ladder step (see _Arithmetic) only proposes centres,
and one exact integer routine certifies them:

- candidate centers come from Aberth-Ehrlich simultaneous iteration in
  hardware doubles, seeded by companion-matrix eigenvalues when the
  coefficients fit a double and otherwise by a Fujiwara-radius circle
  with deterministic coefficient-seeded angular jitter; an mpmath step
  polishes them with further sweeps at its own precision;
- each centre z is read exactly as (a + bi) 2^-k, and the disk radius
  bounds deg(g) * |g(z)| / |g'(z)| from above for the squarefree factor
  g, from Gaussian-integer Horner values and one upward isqrt
  (_certify); by the classical argument (g'/g = sum 1/(z - root)) the
  disk holds at least one root of g, and pairwise disjointness, decided
  by exact squared distances, then pins exactly one root per disk;
- realness is decided by comparing the number of disks straddling the
  real axis with the exact Sturm count of the factor; straddling disks
  are then centered on the axis and the rest are matched into exact
  conjugate pairs.

No result depends on the global mpmath precision: a centre is whatever
dyadic rational the proposal produced, and a bad one can only fail a
check. A failed attempt escalates along a ladder that starts at
max(precision_bits, 53, coefficient bits + 16) and doubles up to
precision_cap (4096 bits by default). A start at 53 bits runs the
hardware-double step, then mpmath at 106, 212, ... bits; the default
start runs mpmath at 128, 256, ... bits. Past the cap isolate_roots
raises PrecisionCapExceeded.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from mpmath import mpc, mpf, workprec

from .errors import (
    DegreeTooSmall,
    PrecisionCapExceeded,
    ZeroPolynomial,
)
from .intpoly import (
    IntPolynomial,
    _deflate_zero_roots,
    squarefree_decomposition,
    sturm_real_root_count,
)

__all__ = [
    "RootDisk",
    "CertifiedRootSet",
    "fujiwara_bound",
    "isolate_roots",
    "refine",
]

_DEFAULT_PRECISION = 128
_DEFAULT_CAP = 4096


@dataclass(frozen=True)
class RootDisk:
    """Closed disk certified to contain exactly one distinct root of the
    polynomial, with that root's multiplicity. Center coordinates and
    radius are exact dyadic Fractions (denominators powers of two)."""

    center_re: Fraction
    center_im: Fraction
    radius: Fraction
    multiplicity: int
    is_real: bool

    def modulus_interval(self) -> Tuple[Fraction, Fraction]:
        """Exact rational bounds on |root|: with centre (a + bi) 2^e and
        radius k 2^e (_dyadic_disks) and c2 = a^2 + b^2, the integers
        (max(0, floor(sqrt c2) - k), ceil(sqrt c2) + k) 2^e enclose |c| -+ r."""
        ((a, b, k),), e = _dyadic_disks((self,))
        c2 = a * a + b * b
        lo = math.isqrt(c2)
        hi = lo if lo * lo == c2 else lo + 1
        return (_dyadic(max(0, lo - k), e), _dyadic(hi + k, e))


def _dyadic_disks(disks: Sequence[RootDisk]) -> Tuple[List[Tuple[int, int, int]], int]:
    """The disks' centres and radii as exact integers at one common dyadic
    exponent e: a triple (a, b, k) stands for centre (a + bi) 2^e and
    radius k 2^e, where 2^-e is the largest denominator of any value."""
    vals = [x for d in disks for x in (d.center_re, d.center_im, d.radius)]
    k = max(x.denominator for x in vals).bit_length() - 1
    ints = [x.numerator << (k + 1 - x.denominator.bit_length()) for x in vals]
    return [tuple(ints[i : i + 3]) for i in range(0, len(ints), 3)], -k


def _dyadic(n: int, e: int) -> Fraction:
    """The Fraction n 2^e."""
    return Fraction(n << e) if e >= 0 else Fraction(n, 1 << -e)


def _ceil_sqrt(n: int) -> int:
    """ceil(sqrt(n)) for an integer n >= 0."""
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def _fraction_sqrt_lower(q: Fraction, bits: int = 128) -> Fraction:
    """Rational lower bound on sqrt(q) for q >= 0, on a grid of step
    1 / (denominator(q) 2^bits)."""
    if q < 0:
        raise ValueError("negative")
    scale = q.denominator << bits
    return Fraction(math.isqrt(q.numerator * scale * (1 << bits)), scale)


def _fraction_sqrt_upper(q: Fraction, bits: int = 128) -> Fraction:
    """Rational upper bound on sqrt(q) for q >= 0: one grid step above the
    lower bound (0 for q = 0)."""
    lower = _fraction_sqrt_lower(q, bits)
    return lower + Fraction(1, q.denominator << bits) if q else lower


@dataclass(frozen=True)
class CertifiedRootSet:
    """Result of isolate_roots: disjoint certified disks covering all
    roots with multiplicity; status is "CERTIFIED" (the only value a
    returned set carries; a PrecisionCapExceeded error transports a
    partial set with status "REFINEMENT_CAP_REACHED")."""

    polynomial: IntPolynomial
    disks: Tuple[RootDisk, ...]
    precision_bits: int
    status: str

    @property
    def total_multiplicity(self) -> int:
        return sum(d.multiplicity for d in self.disks)

    def max_radius(self) -> Fraction:
        return max((d.radius for d in self.disks), default=Fraction(0))


# -- the exact analysis every certified question starts from -------------


class _Analysis(NamedTuple):
    """f = X^zeros * g with g(0) != 0, and the squarefree decomposition of
    g as (factor, multiplicity, number of distinct real roots) triples."""

    zeros: int
    factors: Tuple[Tuple[IntPolynomial, int, int], ...]


def _analysis(f: IntPolynomial) -> _Analysis:
    """The analysis of f, computed on first use and stored on f itself, so
    isolate_roots, refine and the signatures in classify decompose a
    polynomial once however many of them ask. It holds only factors and
    integers."""
    got = f.__dict__.get("_analysis")
    if got is None:
        v, g = _deflate_zero_roots(f)
        factors = ()
        if g.degree >= 1:
            factors = tuple(
                (fac, mult, sturm_real_root_count(fac))
                for fac, mult in squarefree_decomposition(g).factors
            )
        got = _Analysis(v, factors)
        object.__setattr__(f, "_analysis", got)
    return got


def _deflated(f: IntPolynomial) -> Tuple[int, IntPolynomial]:
    """(v, u) with f = X^v u and u(0) != 0; u gets f's stored analysis, if
    any, with zeros=0, which is exactly its own."""
    v, u = _deflate_zero_roots(f)
    got = f.__dict__.get("_analysis")
    if got is not None and v:
        object.__setattr__(u, "_analysis", got._replace(zeros=0))
    return v, u


# -- Fujiwara bound ------------------------------------------------------


def fujiwara_bound(f: IntPolynomial) -> float:
    """Upper bound on all root moduli:
    2 * max(|a1/a0|, |a2/a0|^(1/2), ..., |a_{n-1}/a0|^(1/(n-1)),
            |a_n/(2 a0)|^(1/n)).
    Rounded upward; the returned float is verified exactly to dominate
    every term."""
    n = f.degree
    if n < 1:
        raise DegreeTooSmall("fujiwara bound needs degree >= 1")
    a0 = abs(f.coeffs[0])
    best = 0.0
    terms: List[Tuple[Fraction, int]] = []
    for k in range(1, n + 1):
        ak = abs(f.coeffs[k])
        if ak == 0:
            continue
        ratio = Fraction(ak, 2 * a0) if k == n else Fraction(ak, a0)
        terms.append((ratio, k))
        u = _float_upper_root(ratio, k)
        if u > best:
            best = u
    bound = 2.0 * best
    # exact final verification: (bound/2)^k >= ratio for every term
    while True:
        half = Fraction(bound) / 2 if bound > 0 else Fraction(0)
        if all(half**k >= ratio for ratio, k in terms):
            return bound
        bound = bound * (1.0 + 1e-12) + 5e-324


def _float_upper_root(ratio: Fraction, k: int) -> float:
    """Float upper bound on ratio^(1/k)."""
    x = _fraction_to_float_upper(ratio)
    if x == 0.0:
        return 0.0
    u = x ** (1.0 / k)
    while Fraction(u) ** k < ratio:
        u = math.nextafter(u * (1.0 + 1e-15), math.inf)
    return u


def _fraction_to_float_upper(q: Fraction) -> float:
    try:
        x = float(q)
    except OverflowError:
        return math.inf
    if x == math.inf:
        return x
    while Fraction(x) < q:
        x = math.nextafter(x, math.inf)
    return x


# -- Aberth-Ehrlich seeds ------------------------------------------------


def _initial_guesses(g: IntPolynomial) -> List[complex]:
    """Equally spaced points on the Fujiwara circle with deterministic
    coefficient-seeded angular jitter."""
    d = g.degree
    rad = fujiwara_bound(g) * (1.0 + 1.0 / (4 * d + 4))
    if rad == 0.0 or not math.isfinite(rad):
        rad = 1.0 if rad == 0.0 else 1e150
    rng = random.Random("rootcensus:" + ",".join(str(c) for c in g.coeffs))
    base = rng.uniform(0.0, 2.0 * math.pi / d)
    out = []
    for j in range(d):
        ang = base + 2.0 * math.pi * j / d + rng.uniform(-0.25, 0.25) * (2.0 * math.pi / d)
        out.append(complex(rad * math.cos(ang), rad * math.sin(ang)))
    return out


def _companion_seeds(coeffs: Sequence[int]) -> Optional[List[complex]]:
    """Hardware eigenvalue seeds for Aberth, or None when the coefficients
    do not fit a double (the Fujiwara-circle ladder takes over)."""
    try:
        cf = [float(c) for c in coeffs]
    except OverflowError:
        return None
    if not all(math.isfinite(c) for c in cf):
        return None
    try:
        rr = np.roots(cf)
    except np.linalg.LinAlgError:
        return None
    out = [complex(w) for w in rr]
    if len(out) != len(coeffs) - 1:
        return None
    if not all(math.isfinite(w.real) and math.isfinite(w.imag) for w in out):
        return None
    return out


# -- the certification rung: proposals in one arithmetic, exact disks -----


class _Arithmetic(NamedTuple):
    """The number type in which one ladder step proposes root centres:
    `_DOUBLE` is hardware doubles (`complex`/`float`), the 53-bit ladder
    step; `_mp_arithmetic(bits)` is mpmath at `bits` bits (`mpc`/`mpf`),
    every step above. Only the Aberth sweeps and the rounding of a linear
    factor's root run in it; certification (_certify) reads each centre
    as the dyadic rational it is and works in exact integers, so a bad
    centre can only fail a check and the ladder escalates."""

    # how an integer becomes a number; a double conversion beyond range
    # raises OverflowError, which ends the double Aberth sweeps early
    real: Callable
    cplx: Callable
    # precision context of the proposal: none for doubles, whose rounding
    # is fixed; workprec(bits) for mp
    scope: Callable
    # doubles overflow to inf and nan, which fail the attempt; mpf
    # exponents are unbounded, so mp values from finite inputs stay finite
    finite: Callable
    # every step starts from double Aberth sweeps, which stop below a 1e-14
    # relative move (a few dozen double units) and nudge a point off a
    # zero derivative or a collision; mp polishes with 8 + bits/32 more
    # sweeps, stopping below 2^(10 - bits), and leaves such a point alone
    aberth_tol: object
    polish_sweeps: int
    nudge: Callable


_DOUBLE = _Arithmetic(
    real=float,
    cplx=complex,
    scope=contextlib.nullcontext,
    finite=cmath.isfinite,
    aberth_tol=1e-14,
    polish_sweeps=0,
    nudge=lambda z: z * (1.0 + 1e-7) + 1e-7,
)


def _mp_arithmetic(bits: int) -> _Arithmetic:
    return _Arithmetic(
        real=mpf,
        cplx=mpc,
        scope=functools.partial(workprec, bits),
        finite=lambda x: True,
        aberth_tol=mpf(2) ** (10 - bits),
        polish_sweeps=8 + bits // 32,
        nudge=lambda z: z,
    )


def _arithmetic(bits: int) -> _Arithmetic:
    """The arithmetic of one ladder step: hardware doubles at 53 bits,
    mpmath above."""
    return _DOUBLE if bits <= 53 else _mp_arithmetic(bits)


def _aberth(ar: _Arithmetic, coeffs: Sequence[int], z: list, sweeps: int) -> list:
    """Aberth sweeps on z in place; returns best-effort positions, which
    may be unconverged (certification decides whether they suffice)."""
    d = len(coeffs) - 1
    try:
        cf = [ar.real(c) for c in coeffs]
    except OverflowError:
        return z
    df = [cf[i] * (d - i) for i in range(d)]
    finite, nudge = ar.finite, ar.nudge
    for _ in range(sweeps):
        maxmove = 0
        for i in range(d):
            zi = z[i]
            p = cf[0]
            for a in cf[1:]:
                p = p * zi + a
            if p == 0:
                continue
            q = df[0]
            for a in df[1:]:
                q = q * zi + a
            if q == 0:
                z[i] = nudge(zi)
                continue
            w = p / q
            s = 0
            bad = False
            for j in range(d):
                if j != i:
                    dz = zi - z[j]
                    if dz == 0:
                        bad = True
                        break
                    s += 1 / dz
            if bad:
                z[i] = nudge(zi)
                continue
            den = 1 - w * s
            if den == 0:
                continue
            corr = w / den
            if not finite(corr):
                continue
            z[i] = zi - corr
            move = abs(corr) / (abs(zi) + 1)
            if move > maxmove:
                maxmove = move
        if maxmove < ar.aberth_tol:
            break
    return z


def _dyadic_centre(z) -> Tuple[int, int, int]:
    """A finite complex double or mpc z exactly as integers (a, b, k) with
    z = (a + bi) 2^-k and k >= 0: doubles and mpfs are dyadic rationals."""
    parts = []
    for x in (z.real, z.imag):
        if type(x) is float:
            n, den = x.as_integer_ratio()
            parts.append((n, den.bit_length() - 1))
        else:
            sign, man, exp, _ = x._mpf_
            man = -man if sign else man
            parts.append((man << exp, 0) if exp >= 0 else (man, -exp))
    (a, ka), (b, kb) = parts
    k = max(ka, kb)
    return a << (k - ka), b << (k - kb), k


def _certify(coeffs: Sequence[int], z) -> Optional[Tuple[int, int, int, int]]:
    """The disk (a, b, r, k) of centre (a + bi) 2^-k and radius r 2^-k
    around the proposed centre z of g (these coefficients, degree n),
    certified in exact integers to hold a root of g; None when g'(z) = 0.

    With z = (a + bi) 2^-k (_dyadic_centre), Horner in Gaussian integers
    gives G = 2^(kn) g(z) and D = 2^(k(n-1)) g'(z), so the inclusion
    radius n |g(z)| / |g'(z)| is n |G| / |D| 2^-k, and
    r = ceil(sqrt(ceil(n^2 |G|^2 / |D|^2))) bounds it from above. Since
    g'/g = sum 1/(z - root), some root of g lies within it."""
    a, b, k = _dyadic_centre(z)
    n = len(coeffs) - 1
    gr, gi, dr, di = coeffs[0], 0, 0, 0
    for j, c in enumerate(coeffs[1:], 1):
        dr, di = dr * a - di * b + gr, dr * b + di * a + gi
        gr, gi = gr * a - gi * b + (c << (k * j)), gr * b + gi * a
    d2 = dr * dr + di * di
    if d2 == 0:
        return None
    return a, b, _ceil_sqrt(-(-n * n * (gr * gr + gi * gi) // d2)), k


def _isolate_factor(ar: _Arithmetic, g: IntPolynomial):
    """Certified disks (a, b, r, k) (_certify) around the centres that ar
    proposes for one squarefree factor, or None if one fails."""
    with ar.scope():
        if g.degree == 1:
            z = [ar.cplx(ar.real(-g.coeffs[1]) / ar.real(g.coeffs[0]))]
        else:
            z = _companion_seeds(g.coeffs)
            if z is None:
                z = _aberth(_DOUBLE, g.coeffs, _initial_guesses(g), sweeps=80)
            else:
                z = _aberth(_DOUBLE, g.coeffs, z, sweeps=12)
            if ar.polish_sweeps:
                z = _aberth(ar, g.coeffs, [ar.cplx(w) for w in z], ar.polish_sweeps)
    disks = []
    for zi in z:
        disk = _certify(g.coeffs, zi) if ar.finite(zi) else None
        if disk is None:
            return None
        disks.append(disk)
    return disks


def _common(disks: Sequence[Tuple[int, int, int, int]]) -> Tuple[List[List[int]], int]:
    """Disks (a, b, r, k) as [a, b, r] at the largest k of any."""
    k = max(d[3] for d in disks)
    return [[a << (k - j), b << (k - j), r << (k - j)] for a, b, r, j in disks], k


def _disjoint(disks: Sequence[Sequence[int]]) -> bool:
    """Whether the disks [a, b, r] at one scale are pairwise disjoint:
    squared centre distance above the squared radius sum."""
    for i, (a, b, r) in enumerate(disks):
        for c, d, s in disks[i + 1 :]:
            if (a - c) ** 2 + (b - d) ** 2 <= (r + s) ** 2:
                return False
    return True


def _realness(disks: List[List[int]], realcount: int) -> Optional[List[bool]]:
    """Certify which of a factor's disjoint disks [a, b, r] (one scale)
    hold real roots and symmetrize them in place; returns the real flags,
    or None to request more precision."""
    # a disk holding a real root must straddle the axis: |b| <= |c - root| <= r
    flags = [abs(b) <= r for _, b, r in disks]
    if sum(flags) != realcount:
        return None
    upper, lower = [], []
    for i, disk in enumerate(disks):
        if flags[i]:
            # projecting the centre onto the axis moves it closer to the root
            disk[1] = 0
        else:
            (upper if disk[1] > 0 else lower).append(i)
    if len(upper) != len(lower):
        return None
    for i in upper:
        a, b, r = disks[i]
        # the lower disks meeting the mirror image of disk i
        cand = [
            j
            for j in lower
            if (a - disks[j][0]) ** 2 + (b + disks[j][1]) ** 2 <= (r + disks[j][2]) ** 2
        ]
        if len(cand) != 1:
            return None
        j = cand[0]
        lower.remove(j)
        # disk j holds the conjugate of disk i's root, so either disk and
        # its mirror image enclose the pair: keep the smaller one
        if disks[j][2] < r:
            a, b, r = disks[j][0], -disks[j][1], disks[j][2]
        disks[i], disks[j] = [a, b, r], [a, -b, r]
    return flags


def _attempt(ar: _Arithmetic, parts, v: int) -> Optional[List[RootDisk]]:
    """One full certification attempt from the centres ar proposes."""
    found: List[Tuple[int, int, int, int]] = []
    mults: List[int] = []
    reals: List[bool] = []
    for fac, mult, realcount in parts:
        got = _isolate_factor(ar, fac)
        if got is None:
            return None
        disks, k = _common(got)
        is_real = _realness(disks, realcount) if _disjoint(disks) else None
        if is_real is None:
            return None
        found += [(a, b, r, k) for a, b, r in disks]
        mults += [mult] * len(disks)
        reals += is_real
    if v > 0:
        found.append((0, 0, 0, 0))
        mults.append(v)
        reals.append(True)
    disks, k = _common(found)
    if not _disjoint(disks):
        return None
    return [
        RootDisk(_dyadic(a, -k), _dyadic(b, -k), _dyadic(r, -k), m, br)
        for (a, b, r), m, br in zip(disks, mults, reals)
    ]


def isolate_roots(
    f: IntPolynomial,
    precision_bits: int = _DEFAULT_PRECISION,
    precision_cap: int = _DEFAULT_CAP,
    radius_target: Optional[Fraction] = None,
) -> CertifiedRootSet:
    """Certified disjoint root disks for f (degree >= 1).

    Raises PrecisionCapExceeded (carrying a partial, uncertified set when
    available) if certification does not complete within precision_cap
    bits.
    """
    if f.is_zero:
        raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    if f.degree < 1:
        raise DegreeTooSmall("root isolation needs degree >= 1")
    maxbits = max(abs(c).bit_length() for c in f.coeffs)
    # callers may start below the default; certification escalates on failure
    prec = max(precision_bits, 53, maxbits + 16)
    cap = max(precision_cap, prec)
    v, parts = _analysis(f)

    def _sorted(disks):
        return tuple(sorted(disks, key=lambda d: (d.center_re, d.center_im)))

    while True:
        disks = _attempt(_arithmetic(prec), parts, v)
        if disks is not None:
            tight = radius_target is None or all(d.radius <= radius_target for d in disks)
            if tight:
                return CertifiedRootSet(f, _sorted(disks), prec, "CERTIFIED")
        if prec >= cap:
            partial = None
            if disks is not None:
                partial = CertifiedRootSet(
                    f, _sorted(disks), prec, "REFINEMENT_CAP_REACHED"
                )
            raise PrecisionCapExceeded(
                "certification incomplete at %d bits (cap %d) for %s"
                % (prec, cap, f.coeffs),
                partial=partial,
            )
        prec = min(prec * 2, cap)


def refine(rootset: CertifiedRootSet, radius_target: Fraction) -> CertifiedRootSet:
    """New certified set for the same polynomial with every positive disk
    radius at most radius_target."""
    return isolate_roots(
        rootset.polynomial,
        precision_bits=rootset.precision_bits,
        precision_cap=max(_DEFAULT_CAP, rootset.precision_bits * 8),
        radius_target=Fraction(radius_target),
    )
