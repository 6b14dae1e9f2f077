"""Certified complex root isolation for integer polynomials.

The contract: isolate_roots(f) returns pairwise disjoint closed disks,
one per distinct root, each carrying the multiplicity of its root and a
certified is_real flag, such that every root of f lies in exactly one
disk.

Roots at zero are split off exactly and get a disk of radius zero, and
Yun decomposition hands the rest over as squarefree factors with their
Sturm real counts; this analysis (_analysis) is computed once per
polynomial and stored on it, so refine and the signatures in classify
reuse it. Each factor goes through one certification rung, written once
and run in the arithmetic of its ladder step (see _Arithmetic):

- candidate centers come from Aberth-Ehrlich simultaneous iteration in
  hardware doubles, seeded by companion-matrix eigenvalues when the
  coefficients fit a double and otherwise by a Fujiwara-radius circle
  with deterministic coefficient-seeded angular jitter; an mpmath step
  polishes them with further sweeps at its own precision;
- each disk radius is deg(g) * |g(z)| / |g'(z)| for the squarefree
  factor g, evaluated with a running bound on the rounding error, which
  by the classical argument (g'/g = sum 1/(z - root)) guarantees at
  least one root of g in the disk; pairwise disjointness then pins
  exactly one root per disk;
- realness is decided by comparing the number of disks straddling the
  real axis with the exact Sturm count of the factor; straddling disks
  are then centered on the axis and the rest are matched into exact
  conjugate pairs.

A failed attempt escalates along a ladder that starts at
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
    "mpf_to_fraction",
]

_DEFAULT_PRECISION = 128
_DEFAULT_CAP = 4096


def mpf_to_fraction(x) -> Fraction:
    """Exact Fraction value of an mpf (mpfs are dyadic rationals)."""
    sign, man, exp, _ = x._mpf_
    return _dyadic(-man if sign else man, exp)


@dataclass(frozen=True)
class RootDisk:
    """Closed disk certified to contain exactly one distinct root of the
    polynomial, with that root's multiplicity. Center coordinates and
    radius are mpf values at the set's working precision."""

    center_re: object
    center_im: object
    radius: object
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
    exponent e (mpfs are dyadic rationals): a triple (a, b, k) stands for
    centre (a + bi) 2^e and radius k 2^e. e is the least exponent of any
    nonzero value, 0 when all are zero."""
    parts = [x._mpf_ for d in disks for x in (d.center_re, d.center_im, d.radius)]
    e = min((exp for _, man, exp, _ in parts if man), default=0)
    ints = [(-man if sign else man) << (exp - e) if man else 0 for sign, man, exp, _ in parts]
    return [tuple(ints[i : i + 3]) for i in range(0, len(ints), 3)], e


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

    def max_radius(self):
        return max((d.radius for d in self.disks), default=mpf(0))


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


# -- the certification rung and its two arithmetics ----------------------


class _Arithmetic(NamedTuple):
    """The number type of one certification attempt and the constants that
    depend on it: `_DOUBLE` is hardware doubles (`complex`/`float`), the
    53-bit ladder step; `_mp_arithmetic(bits)` is mpmath at `bits` bits
    (`mpc`/`mpf`), every step above. The rung below (Aberth sweeps, Horner
    evaluation with an error bound, radius certification, disjointness,
    realness) is written once over these fields. It is sound in the
    fail-safe direction: any non-finite value, non-positive derivative
    bound, disjointness failure or realness mismatch returns None and the
    ladder escalates. The slack constants are hand-picked margins, not a
    proved bound."""

    # how an integer becomes a number; a double conversion beyond range
    # raises OverflowError, which ends the double Aberth sweeps early
    real: Callable
    cplx: Callable
    # precision context entered once per attempt: none for doubles, whose
    # rounding is fixed; workprec(bits) for mp
    scope: Callable
    # Horner error bound horner * (n + 1) * unit * sum |a_i| |z|^i, unit
    # 2^-53 or 2^-bits: 8 generously covers the complex multiplication
    # constants and the final absolute-value rounding; doubles use 16 as
    # they also round while accumulating sum |a_i| |z|^i itself
    unit: object
    horner: object
    # relative inflation of a certified radius and of a merged conjugate
    # pair radius, for the rounding of the last operations on them:
    # 2^-30 and 2^-28 against the double unit 2^-53, 2^-40 for both
    # against an mp unit of 2^-54 or less, where an absolute floor of
    # 2^(-4 bits) also keeps every radius positive
    radius_slack: float
    pair_slack: float
    radius_floor: object
    # doubles overflow to inf and nan, which must fail the attempt; mpf
    # exponents are unbounded, so mp values from finite inputs stay finite
    finite: Callable
    # every step starts from double Aberth sweeps, which stop below a 1e-14
    # relative move (a few dozen double units) and nudge a point off a
    # zero derivative or a collision; mp polishes with 8 + bits/32 more
    # sweeps, stopping below 2^(10 - bits), and leaves such a point alone
    aberth_tol: object
    polish_sweeps: int
    nudge: Callable
    # disk of a linear factor's rational root: the nearest double within
    # (|z| + 1) 2^-50, or the mp quotient within (|z| + 1) 2^(2 - bits)
    linear: Callable
    # doubles hold integers exactly only up to 53 bits: a factor with a
    # coefficient above 50 bits (leaving 3 bits for its derivative) fails
    # the double step and escalates; mp has no such gate
    coeff_bits: Optional[int]


# relative margins, in either arithmetic, for the rounding of a center
# distance: disks count as disjoint only when the distance shrunk by
# 2^-30 still exceeds the radius sum, and a conjugate pair matches when
# the distance is within the radius sum grown by 2^-30
_APART = 1.0 - 2.0**-30
_NEAR = 1.0 + 2.0**-30


def _linear_double(root: Fraction):
    z = float(root)
    return [complex(z)], [(abs(z) + 1.0) * 2.0**-50]


_DOUBLE = _Arithmetic(
    real=float,
    cplx=complex,
    scope=contextlib.nullcontext,
    unit=2.0**-53,
    horner=16.0,
    radius_slack=1.0 + 2.0**-30,
    pair_slack=1.0 + 2.0**-28,
    radius_floor=0.0,
    finite=cmath.isfinite,
    aberth_tol=1e-14,
    polish_sweeps=0,
    nudge=lambda z: z * (1.0 + 1e-7) + 1e-7,
    linear=_linear_double,
    coeff_bits=50,
)


def _mp_arithmetic(bits: int) -> _Arithmetic:
    unit = mpf(2) ** -bits

    def linear(root: Fraction):
        z = mpf(root.numerator) / mpf(root.denominator)
        return [mpc(z)], [abs(z) * (4 * unit) + 4 * unit]

    return _Arithmetic(
        real=mpf,
        cplx=mpc,
        scope=functools.partial(workprec, bits),
        unit=unit,
        horner=8,
        radius_slack=1.0 + 2.0**-40,
        pair_slack=1.0 + 2.0**-40,
        radius_floor=unit**4,
        finite=lambda x: True,
        aberth_tol=1024 * unit,
        polish_sweeps=8 + bits // 32,
        nudge=lambda z: z,
        linear=linear,
        coeff_bits=None,
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


def _eval_with_error(ar: _Arithmetic, coeffs: Sequence[int], z):
    """Horner value of the polynomial at z plus a bound on its rounding
    error, the running bound horner * (n + 1) * unit * sum |a_i| |z|^i."""
    n = len(coeffs) - 1
    acc = ar.cplx(coeffs[0])
    az = abs(z)
    amax = ar.real(abs(coeffs[0]))
    for c in coeffs[1:]:
        acc = acc * z + c
        amax = amax * az + abs(c)
    return acc, amax * (ar.horner * (n + 1)) * ar.unit


def _certify_radius(ar: _Arithmetic, coeffs, dcoeffs, z, d: int):
    """Certified radius d*|g(z)|/|g'(z)| (upper bound), or None when the
    derivative bound cannot exclude zero in this arithmetic."""
    v, e = _eval_with_error(ar, coeffs, z)
    vd, ed = _eval_with_error(ar, dcoeffs, z)
    num = abs(v) + e
    den = abs(vd) - ed
    if not (ar.finite(num) and ar.finite(den)) or den <= 0:
        return None
    r = (num / den) * d * ar.radius_slack + ar.radius_floor
    return r if ar.finite(r) else None


def _isolate_factor(ar: _Arithmetic, g: IntPolynomial):
    """Aberth positions and certified radii for one squarefree factor;
    returns (centers, radii) or None if certification failed."""
    d = g.degree
    if d == 1:
        return ar.linear(Fraction(-g.coeffs[1], g.coeffs[0]))
    z = _companion_seeds(g.coeffs)
    if z is None:
        z = _aberth(_DOUBLE, g.coeffs, _initial_guesses(g), sweeps=80)
    else:
        z = _aberth(_DOUBLE, g.coeffs, z, sweeps=12)
    if ar.polish_sweeps:
        z = _aberth(ar, g.coeffs, [ar.cplx(w) for w in z], ar.polish_sweeps)
    dc = g.derivative().coeffs
    radii = []
    for zi in z:
        r = _certify_radius(ar, g.coeffs, dc, zi, d)
        if r is None:
            return None
        radii.append(r)
    return z, radii


def _disjoint(centers: list, radii: list) -> bool:
    m = len(centers)
    for i in range(m):
        for j in range(i + 1, m):
            if abs(centers[i] - centers[j]) * _APART <= radii[i] + radii[j]:
                return False
    return True


def _realness(ar: _Arithmetic, centers, radii, realcount):
    """Certify which disks hold real roots and symmetrize centers and radii
    in place; returns the real flags, or None to request more precision."""
    # a disk holding a real root must straddle the axis: |Im c| <= |c - a| <= r
    strad = [i for i in range(len(centers)) if abs(centers[i].imag) <= radii[i]]
    if len(strad) != realcount:
        return None
    flags = [False] * len(centers)
    for i in strad:
        # projecting the center onto the axis moves it closer to the root
        centers[i] = ar.cplx(centers[i].real, 0)
        flags[i] = True
    # conjugate pairing of the off-axis disks
    upper = [i for i in range(len(centers)) if not flags[i] and centers[i].imag > 0]
    lower = [i for i in range(len(centers)) if not flags[i] and centers[i].imag < 0]
    if len(upper) != len(lower):
        return None
    used = set()
    for i in upper:
        ci = centers[i].conjugate()
        cand = [
            j
            for j in lower
            if j not in used and abs(ci - centers[j]) <= (radii[i] + radii[j]) * _NEAR
        ]
        if len(cand) != 1:
            return None
        j = cand[0]
        used.add(j)
        mid = (centers[i] + centers[j].conjugate()) / 2
        rad = radii[i] if radii[i] > radii[j] else radii[j]
        rad = (rad + abs(centers[i] - centers[j].conjugate()) / 2) * ar.pair_slack
        if not ar.finite(rad):
            return None
        centers[i] = mid
        centers[j] = mid.conjugate()
        radii[i] = rad
        radii[j] = rad
    return flags


def _attempt(ar: _Arithmetic, parts, v: int) -> Optional[List[RootDisk]]:
    """One full certification attempt in one arithmetic."""
    if ar.coeff_bits is not None and any(
        abs(c).bit_length() > ar.coeff_bits for fac, _, _ in parts for c in fac.coeffs
    ):
        return None
    all_centers: list = []
    all_radii: list = []
    all_mult: List[int] = []
    all_real: List[bool] = []
    with ar.scope():
        for fac, mult, realcount in parts:
            got = _isolate_factor(ar, fac)
            if got is None:
                return None
            centers, radii = got
            if not _disjoint(centers, radii):
                return None
            is_real = _realness(ar, centers, radii, realcount)
            if is_real is None:
                return None
            all_centers.extend(centers)
            all_radii.extend(radii)
            all_mult.extend([mult] * len(centers))
            all_real.extend(is_real)

        if v > 0:
            all_centers.append(ar.cplx(0))
            all_radii.append(ar.real(0))
            all_mult.append(v)
            all_real.append(True)

        if not _disjoint(all_centers, all_radii):
            return None
        return [
            RootDisk(mpf(c.real), mpf(c.imag), mpf(r), m, br)
            for c, r, m, br in zip(all_centers, all_radii, all_mult, all_real)
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
        # mpf comparisons are exact, whatever the working precision
        return tuple(sorted(disks, key=lambda d: (d.center_re, d.center_im)))

    while True:
        disks = _attempt(_arithmetic(prec), parts, v)
        if disks is not None:
            tight = radius_target is None or all(
                mpf_to_fraction(d.radius) <= radius_target for d in disks
            )
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
