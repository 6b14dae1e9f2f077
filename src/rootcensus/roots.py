"""Certified complex root isolation for integer polynomials.

The contract: isolate_roots(f) returns pairwise disjoint closed disks,
one per distinct root, each carrying the multiplicity of its root and a
certified is_real flag, such that every root of f lies in exactly one
disk. The set keeps the disks as the certifier's integer cells at one
dyadic exponent, which classify, census and acceptance read as they are;
its disks view gives them as dyadic Fractions.

Roots at zero are split off exactly and get a disk of radius zero, and
Yun decomposition hands the rest over as squarefree factors with their
multiplicities; this analysis (_analysis) is computed once per
polynomial and stored on it, so refine and the classifiers in classify
reuse it.
Each factor goes through one certification rung: centres are proposed
at the bits of its ladder step (_propose), and one exact integer routine
certifies them (_certified, whose _horner and _apart the n = 4 census
also runs over int64 columns):

- a linear factor's centre is its root -c1/c0 rounded to the step's
  bits; for higher degrees, the companion-matrix eigenvalues in hardware
  doubles (_companion_roots, which the n = 4 census calls on whole
  blocks) are the centres of the 53-bit step, with no sweeps;
- above 53 bits, Aberth sweeps in exact Gaussian-integer fixed point
  polish those eigenvalues on one dyadic grid per factor, fine enough
  for its smallest root, and each centre is rounded to the step's bits;
  when the coefficients do not fit a double there are no eigenvalues,
  and the sweeps start from Newton-polygon circles at every step
  (_polish);
- each centre z is read exactly as (a + bi) 2^-k, and the disk radius
  bounds deg(g) * |g(z)| / |g'(z)| from above for the factor g, from
  Gaussian-integer Horner values and one upward isqrt (_certify); by the
  classical argument (g'/g = sum 1/(z - root), over the roots with
  multiplicity) the disk holds at least one root of g, and pairwise
  disjointness, decided by exact squared distances, then pins exactly one
  root per disk;
- realness is read off the disks: a disk straddling the real axis whose
  hull, symmetric about the axis, misses the factor's other disks holds
  a root and its conjugate, so a real root; such disks are centered on
  the axis, the rest matched into exact conjugate pairs. The m disjoint
  disks of a degree-m factor also prove it squarefree.

Proposals round, in doubles or on a dyadic grid, but certification does
not: a bad centre can only fail a check. A failed attempt escalates
along a ladder that starts at max(precision_bits, 53, coefficient
bits + 16) and doubles up to precision_cap (4096 bits by default). A
start at 53 bits runs the hardware-double step, then fixed point at
106, 212, ... bits; the default start runs fixed point at 128, 256, ...
bits. Past the cap isolate_roots raises PrecisionCapExceeded. refine
continues a set's ladder one step above the step that certified it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DegreeTooSmall,
    PrecisionCapExceeded,
    ZeroPolynomial,
)
from .intpoly import (
    IntPolynomial,
    _deflate_zero_roots,
    _int_nthroot,
    squarefree_decomposition,
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


def _dyadic(n: int, e: int) -> Fraction:
    """The Fraction n 2^e."""
    return Fraction(n << e) if e >= 0 else Fraction(n, 1 << -e)


def _ceil_sqrt(n):
    """ceil(sqrt(n)) for an integer n >= 0, or elementwise for int64 values below 2^52."""
    r = np.sqrt(n).astype(np.int64) if isinstance(n, np.ndarray) else math.isqrt(n)
    r -= r * r > n
    return r + (r * r < n)


@dataclass(frozen=True)
class CertifiedRootSet:
    """Result of isolate_roots: disjoint certified disks covering all
    roots with multiplicity, certified at precision_bits. Each cell
    (a, b, r, multiplicity, is_real) is the disk of centre (a + bi) 2^e and
    radius r 2^e, e = exponent <= 0, and the cells are sorted by centre;
    disks gives the same disks as RootDisk Fractions."""

    status = "CERTIFIED"

    polynomial: IntPolynomial
    cells: Tuple[Tuple[int, int, int, int, bool], ...]
    exponent: int
    precision_bits: int

    @property
    def disks(self) -> Tuple[RootDisk, ...]:
        e = self.exponent
        return tuple(RootDisk(_dyadic(a, e), _dyadic(b, e), _dyadic(r, e), m, real)
                     for a, b, r, m, real in self.cells)

    @property
    def total_multiplicity(self) -> int:
        return sum(c[3] for c in self.cells)

    def max_radius(self) -> Fraction:
        return _dyadic(max(c[2] for c in self.cells), self.exponent)


# -- the exact analysis every certified question starts from -------------


class _Analysis(NamedTuple):
    """f = X^zeros * g with g(0) != 0, and the squarefree decomposition of
    g as (factor, multiplicity) pairs."""

    zeros: int
    factors: Tuple[Tuple[IntPolynomial, int], ...]


def _analysis(f: IntPolynomial) -> _Analysis:
    """The analysis of f, computed on first use and stored on f itself, so
    isolate_roots, refine and the classifiers in classify decompose a
    polynomial once however many of them ask. It holds only factors and
    integers."""
    got = f.__dict__.get("_analysis")
    if got is None:
        v, g = _deflate_zero_roots(f)
        factors = squarefree_decomposition(g).factors if g.degree >= 1 else ()
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

# the grid 2^-s on which fujiwara_bound rounds each term up
_FUJIWARA_BITS = 64


def fujiwara_bound(f: IntPolynomial) -> Fraction:
    """Upper bound on all root moduli:
    2 * max(|a1/a0|, |a2/a0|^(1/2), ..., |a_{n-1}/a0|^(1/(n-1)),
            |a_n/(2 a0)|^(1/n)).
    Each term ratio^(1/k) is rounded up to the grid 2^-s, s =
    _FUJIWARA_BITS: the least integer r with r^k >= ceil(ratio 2^(sk))
    gives the term r 2^-s, so the returned dyadic Fraction dominates
    twice every term and lies within 2^(1-s) of twice the largest."""
    n = f.degree
    if n < 1:
        raise DegreeTooSmall("fujiwara bound needs degree >= 1")
    a0 = abs(f.coeffs[0])
    s = _FUJIWARA_BITS
    best = 0
    for k in range(1, n + 1):
        den = 2 * a0 if k == n else a0
        x = -((-abs(f.coeffs[k]) << (s * k)) // den)
        r = _int_nthroot(x, k)
        best = max(best, r if r**k >= x else r + 1)
    return Fraction(best, 1 << (s - 1))


# -- proposals: companion eigenvalues, then exact fixed-point polishing --


def _companion_roots(rows) -> np.ndarray:
    """The roots of each coefficient row (leading first, all of one degree
    n, nonzero leading coefficient) in hardware doubles, an (rows, n)
    complex array: the eigenvalues of the stacked companion matrices, built
    as np.roots builds them, from one np.linalg.eigvals call. Raises
    OverflowError when a coefficient does not fit a double."""
    cf = np.array(rows, dtype=float)
    n = cf.shape[1] - 1
    comp = np.zeros((len(cf), n, n))
    comp[:, 0, :] = -cf[:, 1:] / cf[:, :1]
    comp[:, range(1, n), range(n - 1)] = 1
    return np.linalg.eigvals(comp)


def _newton_seeds(coeffs: Sequence[int]) -> List[Tuple[complex, int]]:
    """Starting points (w, e), standing for w 2^e, from the Newton polygon
    (Bini, Numer. Algorithms 13, 1996): each edge of the upper convex hull
    of the points (i, bit length of the coefficient of X^i) from i0 to i1
    puts i1 - i0 points on the dyadic circle of radius 2^e, e the edge's
    slope rounded, which approximates |a_i0 / a_i1|^(1/(i1 - i0)). The
    points of the h-th edge (h = 0, 1, ...) start at the angle 0.7 (h + 1),
    so no two circles of one radius share a point."""
    hull: List[Tuple[int, int]] = []
    for i, c in enumerate(reversed(coeffs)):
        if c == 0:
            continue
        p = (i, abs(c).bit_length())
        while len(hull) >= 2:
            (i0, l0), (i1, l1) = hull[-2], hull[-1]
            if (i1 - i0) * (p[1] - l0) < (p[0] - i0) * (l1 - l0):
                break
            hull.pop()
        hull.append(p)
    seeds = []
    for h, ((i0, l0), (i1, l1)) in enumerate(zip(hull, hull[1:])):
        m = i1 - i0
        e = round((l0 - l1) / m)
        for j in range(m):
            t = 2 * math.pi * j / m + 0.7 * (h + 1)
            seeds.append((complex(math.cos(t), math.sin(t)), e))
    return seeds


def _horner(coeffs: Sequence[int], a: int, b: int, k: int) -> Tuple[int, int, int, int]:
    """Gaussian-integer Horner values at z = (a + bi) 2^-k of g (these
    coefficients, degree n): (Re G, Im G, Re D, Im D) with G = 2^(kn) g(z)
    and D = 2^(k(n-1)) g'(z)."""
    gr, gi, dr, di = coeffs[0], 0, 0, 0
    for j, c in enumerate(coeffs[1:], 1):
        dr, di = dr * a - di * b + gr, dr * b + di * a + gi
        gr, gi = gr * a - gi * b + (c << (k * j)), gr * b + gi * a
    return gr, gi, dr, di


def _div_round(x: int, q: int) -> int:
    """x / q rounded to the nearest integer, for q > 0."""
    return (2 * x + q) // (2 * q)


def _polish(
    coeffs: Sequence[int], seeds: Sequence[Tuple[complex, int]], bits: int
) -> Tuple[List[List[int]], int]:
    """Aberth sweeps in exact Gaussian-integer fixed point from the seeds
    (w, e), standing for w 2^e; returns the centres [a, b], standing for
    (a + bi) 2^-k, and k.

    The grid is one per factor, `bits` + 8 bits below the modulus of the
    smallest seed; the 8 guard bits absorb the error of that estimate. With Z_i = (a_i + b_i i) and the Horner values G
    and D at Z_i 2^-k (_horner), the Aberth correction
    (g/g') / (1 - (g/g') sum_{j != i} 1/(z_i - z_j)) is, in units of 2^-k,
    G S_d / (D S_d - G S_n), where S_n / S_d = sum_{j != i} 1/(Z_i - Z_j)
    is kept exact. Sweeps round it to the grid and stop once no centre
    moves by more than one unit, or after 8 + bits/32 sweeps; a centre
    that is a root, or meets another centre, is left where it is."""
    top = min(
        (max(math.frexp(x)[1] for x in (w.real, w.imag) if x) + e for w, e in seeds if w),
        default=0,
    )
    k = max(0, bits + 8 - top)
    Z = []
    for w, e in seeds:
        t = e + k
        parts = (w.real.as_integer_ratio(), w.imag.as_integer_ratio())
        Z.append([_div_round(n << max(0, t), d << max(0, -t)) for n, d in parts])
    for _ in range(8 + bits // 32):
        moved = 0
        for i, (a, b) in enumerate(Z):
            gr, gi, dr, di = _horner(coeffs, a, b, k)
            if gr == gi == 0:
                continue
            # fold 1/x_j, x_j = Z_i - Z_j, into S_n / S_d: N/S + 1/x = (N x + S) / (S x)
            nr, ni, sr, si = 0, 0, 1, 0
            for j, (c, d) in enumerate(Z):
                if j != i:
                    xr, xi = a - c, b - d
                    nr, ni = nr * xr - ni * xi + sr, nr * xi + ni * xr + si
                    sr, si = sr * xr - si * xi, sr * xi + si * xr
            ur, ui = gr * sr - gi * si, gr * si + gi * sr
            vr = dr * sr - di * si - gr * nr + gi * ni
            vi = dr * si + di * sr - gr * ni - gi * nr
            q = vr * vr + vi * vi
            if q == 0:
                continue
            cr = _div_round(ur * vr + ui * vi, q)
            ci = _div_round(ui * vr - ur * vi, q)
            Z[i] = [a - cr, b - ci]
            moved = max(moved, abs(cr), abs(ci))
        if moved <= 1:
            break
    return Z, k


def _rounded(p: int, q: int, bits: int) -> Tuple[int, int]:
    """p/q (q > 0) rounded to `bits` significant bits, to nearest with ties
    to even, as (m, s) with m 2^-s the rounded value and m odd or 0."""
    if p == 0:
        return 0, 0
    s = bits - abs(p).bit_length() + q.bit_length()
    while True:
        num, den = (abs(p) << s, q) if s >= 0 else (abs(p), q << -s)
        m, r = divmod(num, den)
        if m < 1 << bits:
            break
        s -= 1
    if 2 * r > den or (2 * r == den and m & 1):
        m += 1
    tz = (m & -m).bit_length() - 1
    return (m if p > 0 else -m) >> tz, s - tz


def _centre(re: Tuple[int, int], im: Tuple[int, int], bits: int) -> Tuple[int, int, int]:
    """The centre whose parts are the fractions re = (p, q) and im, each
    rounded to `bits` significant bits (_rounded), as integers (a, b, k)
    with centre (a + bi) 2^-k and k >= 0."""
    (a, ka), (b, kb) = _rounded(*re, bits), _rounded(*im, bits)
    k = max(ka, kb, 0)
    return a << (k - ka), b << (k - kb), k


def _certify(coeffs: Sequence[int], a: int, b: int, k: int) -> Optional[Tuple[int, int, int, int]]:
    """The disk (a, b, r, k) of centre (a + bi) 2^-k and radius r 2^-k,
    certified in exact integers to hold a root of g (these coefficients,
    degree n); None when g'(z) = 0.

    With G and D the Horner values at the centre (_horner), the inclusion
    radius n |g(z)| / |g'(z)| is n |G| / |D| 2^-k, and
    r = ceil(sqrt(ceil(n^2 |G|^2 / |D|^2))) bounds it from above. Since
    g'/g = sum 1/(z - root), some root of g lies within it."""
    n = len(coeffs) - 1
    gr, gi, dr, di = _horner(coeffs, a, b, k)
    d2 = dr * dr + di * di
    if d2 == 0:
        return None
    return a, b, _ceil_sqrt(-(-n * n * (gr * gr + gi * gi) // d2)), k


def _float_centres(z: Sequence[complex], bits: int) -> List[Tuple[int, int, int]]:
    """Points in hardware doubles as centres (a, b, k) rounded to `bits`
    bits (_centre)."""
    return [_centre(w.real.as_integer_ratio(), w.imag.as_integer_ratio(), bits) for w in z]


def _propose(g: IntPolynomial, bits: int) -> List[Tuple[int, int, int]]:
    """Centres (a, b, k) (_centre) proposed at `bits` bits for the roots of
    one squarefree factor.

    A linear factor's centre is its root rounded to `bits` bits. Otherwise
    the companion eigenvalues (_companion_roots) are the centres at 53
    bits, as they are, and above 53 bits exact fixed-point sweeps (_polish)
    start from them; without usable eigenvalues (coefficients beyond the
    double range, or eigenvalues not finite and distinct) the sweeps start
    from Newton-polygon seeds at every step. Each polished centre is
    rounded to `bits` bits."""
    cs = g.coeffs
    if g.degree == 1:
        c0, c1 = cs
        return [_centre((-c1 if c0 > 0 else c1, abs(c0)), (0, 1), bits)]
    try:
        z = _companion_roots([cs])[0].tolist()
    except (OverflowError, np.linalg.LinAlgError):
        z = None
    # equal points never certify, nor move apart under the sweeps
    if z is None or not all(map(cmath.isfinite, z)) or len(set(z)) < len(z):
        seeds = _newton_seeds(cs)
    elif bits <= 53:
        return _float_centres(z, bits)
    else:
        seeds = [(w, 0) for w in z]
    Z, k = _polish(cs, seeds, bits)
    return [_centre((a, 1 << k), (b, 1 << k), bits) for a, b in Z]


def _common(disks: Sequence[Tuple[int, int, int, int]]) -> Tuple[List[List[int]], int]:
    """Disks (a, b, r, k) as [a, b, r] at the largest k of any."""
    k = max(d[3] for d in disks)
    return [[a << (k - j), b << (k - j), r << (k - j)] for a, b, r, j in disks], k


def _apart(p, q):
    """Whether the disks p = (a, b, r) and q = (c, d, s) at one scale are
    disjoint, on Python integers or elementwise on int64 columns."""
    (a, b, r), (c, d, s) = p, q
    return (a - c) ** 2 + (b - d) ** 2 > (r + s) ** 2


def _disjoint(disks: Sequence[Sequence[int]]) -> bool:
    """Whether the disks [a, b, r] at one scale are pairwise disjoint."""
    return all(_apart(p, q) for i, p in enumerate(disks) for q in disks[i + 1 :])


def _realness(disks: List[List[int]]) -> Optional[List[bool]]:
    """Certify which of a factor's disjoint disks [a, b, r] (one scale)
    hold real roots and symmetrize them in place; returns the real flags,
    or None to request more precision. A real root's disk straddles the
    axis, |b| <= r; a straddling disk is real when its hull [a, 0, r + |b|],
    symmetric about the axis, misses the other disks, as it then holds the
    disk's one root and that root's conjugate."""
    flags = [abs(b) <= r for _, b, r in disks]
    for i, (a, b, r) in enumerate(disks):
        if flags[i] and not all(_apart((a, 0, r + abs(b)), d) for j, d in enumerate(disks) if j != i):
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
        cand = [j for j in lower if not _apart((a, -b, r), disks[j])]
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


def _certified(factors, v: int):
    """Certified disjoint disks around given centres, as (cells (a, b, r,
    multiplicity, is_real), each the disk of centre (a + bi) 2^-k and
    radius r 2^-k, and k), or None when a check fails: `factors` yields
    (coefficients, multiplicity, centres) for each factor, one centre per
    root, and v roots at zero get a disk of radius zero. Each centre is
    certified (_certify), a factor's disks must be disjoint, which proves
    the factor squarefree, and its real ones certified (_realness), and
    then all disks must be disjoint."""
    found: List[Tuple[int, int, int, int]] = []
    tags: List[Tuple[int, bool]] = []
    for cs, mult, centres in factors:
        got = [_certify(cs, *c) for c in centres]
        if None in got:
            return None
        disks, k = _common(got)
        is_real = _realness(disks) if _disjoint(disks) else None
        if is_real is None:
            return None
        found += [(a, b, r, k) for a, b, r in disks]
        tags += [(mult, real) for real in is_real]
    if v > 0:
        found.append((0, 0, 0, 0))
        tags.append((v, True))
    disks, k = _common(found)
    cells = [(a, b, r, m, real) for (a, b, r), (m, real) in zip(disks, tags)]
    return (cells, k) if _disjoint(disks) else None


def isolate_roots(
    f: IntPolynomial,
    precision_bits: int = _DEFAULT_PRECISION,
    precision_cap: int = _DEFAULT_CAP,
    radius_target: Optional[Fraction] = None,
) -> CertifiedRootSet:
    """Certified disjoint root disks for f (degree >= 1), every radius at
    most radius_target when one is given.

    Raises PrecisionCapExceeded if certification does not complete within
    precision_cap bits.
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
    t = None if radius_target is None else Fraction(radius_target)
    while True:
        got = _certified(
            ((fac.coeffs, mult, _propose(fac, prec)) for fac, mult in parts), v
        )
        if got is not None:
            cells, k = got
            if t is None or max(c[2] for c in cells) * t.denominator <= t.numerator << k:
                return CertifiedRootSet(f, tuple(sorted(cells)), -k, prec)
        if prec >= cap:
            raise PrecisionCapExceeded(
                "certification incomplete at %d bits (cap %d) for %s"
                % (prec, cap, f.coeffs)
            )
        prec = min(prec * 2, cap)


def refine(rootset: CertifiedRootSet, radius_target: Fraction) -> CertifiedRootSet:
    """Certified set for the same polynomial with every positive disk
    radius at most radius_target: rootset itself when its radii already
    are; otherwise its ladder continued one step above its precision_bits,
    as the step at precision_bits only certifies rootset again."""
    if rootset.max_radius() <= radius_target:
        return rootset
    bits = rootset.precision_bits
    return isolate_roots(
        rootset.polynomial,
        precision_bits=2 * bits,
        precision_cap=max(_DEFAULT_CAP, 8 * bits),
        radius_target=radius_target,
    )
