"""Constructive families of integer polynomials with prescribed root
geometry, built on an exact perturbation lemma.

The engine is a quantitative stability statement: around a polynomial
h with distinct roots (or known multiplicities e_j), pick a disk
radius gamma below half the minimal root gap and set

    M     = max_j sum_{i=0..n} (gamma + |alpha_j|)^i,
    delta = min_j |a_0| gamma^{e_j} prod_{i != j} (|alpha_i - alpha_j| - gamma)^{e_i},
    eps   = delta / M.

Then |h| >= delta on every disk boundary while a coefficientwise
perturbation below eps contributes less than eps * M <= delta there,
so each disk keeps exactly e_j roots. All four quantities are computed
as exact rationals with directed rounding (gamma and delta down, M up,
eps down), so the conclusion is valid, not approximate.

The families built from it:

- near_target_family: given conjugation-closed distinct target points
  beta_1..beta_n with h = prod (X - beta_i), every integer polynomial
  with a_i in the open interval (H(b_i - eps), H(b_i + eps)) is H*h
  plus a perturbation of height < eps*H, hence keeps one root per
  gamma-disk, real exactly when beta_i is real. The box holds at least
  floor(2*eps*H)^(n+1) lattice points, a positive-density family.
- theorem31_family: monic X^n + a_1 X^{n-1} + ... + a_n with
  -delta*sqrt(H) <= a_1 < 0, a_2 >= delta^2 H, 1 <= a_i <= H and the
  parity chain a_2 >= a_3, a_4 >= a_5, ...; members have a non-real
  maximal-modulus root, so roughly H^{n-1/2} monic polynomials miss
  the dominant class.
- showcase_families: a_0 X^3 + a_3 (all three roots share a modulus)
  and (X^3 + 8) * (a_0 X^{n-3} + ... + a_{n-3}) with coefficients in
  proportional windows 0 < d1 < d2 < l1 < l2 <= 1/9 of H, where the
  cofactor's roots stay below modulus 2 so exactly the three roots of
  X^3 + 8 share the maximal modulus.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import (
    BadParameters,
    DegreeTooSmall,
    EmptyRegion,
    EmptyStream,
    GammaTooLarge,
    HTooSmall,
    PrecisionCapExceeded,
    TargetNotSeparated,
)
from .intpoly import IntPolynomial, _int_nthroot, coeff_string
from .roots import CertifiedRootSet, isolate_roots, refine

__all__ = [
    "PerturbationBounds",
    "TargetSpec",
    "perturbation_bounds",
    "near_target_intervals",
    "near_target_family",
    "theorem31_family",
    "showcase_families",
    "validate_family",
    "sn_filtered_family",
]

_SQRT_BITS = 192


@dataclass(frozen=True)
class PerturbationBounds:
    """Validly rounded (gamma, M, delta, eps): any coefficientwise
    perturbation below eps keeps exactly e_j roots in each of the
    gamma-disks around the distinct roots."""

    gamma: Fraction
    M: Fraction
    delta: Fraction
    eps: Fraction


@dataclass(frozen=True)
class TargetSpec:
    """Distinct target points closed under conjugation, stored as
    exact (re, im) rational pairs."""

    points: Tuple[Tuple[Fraction, Fraction], ...]

    @classmethod
    def from_complex(cls, zs: Iterable[complex]) -> "TargetSpec":
        pts = tuple((Fraction(complex(z).real), Fraction(complex(z).imag)) for z in zs)
        return cls(pts)

    @property
    def n(self) -> int:
        return len(self.points)

    def validate(self) -> None:
        if not self.points:
            raise BadParameters("empty target")
        if len(set(self.points)) != len(self.points):
            raise TargetNotSeparated("target points are not pairwise distinct")
        bag = sorted(self.points)
        if sorted((re, -im) for re, im in self.points) != bag:
            raise BadParameters("target is not closed under conjugation")


# -- exact bounds engine ------------------------------------------------------

# internal root records: (re, im, rad, mult) with Fraction entries


def _sqrt_bounds(q: Fraction) -> Tuple[Fraction, Fraction]:
    """Bounds lo <= sqrt(q) <= hi for a rational q >= 0 on the grid of
    step 1 / (denominator(q) 2^_SQRT_BITS), hi one step above lo (both 0
    for q = 0). The grid follows q, as target points need not be dyadic."""
    scale = q.denominator << _SQRT_BITS
    lo = Fraction(math.isqrt(q.numerator * scale << _SQRT_BITS), scale)
    return lo, lo + Fraction(1, scale) if q else lo


def _gap_bounds(a, b) -> Tuple[Fraction, Fraction]:
    lo, hi = _sqrt_bounds((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2)
    return lo - a[2] - b[2], hi + a[2] + b[2]


def _min_gap_bounds(roots) -> Tuple[Fraction, Fraction]:
    gaps = [_gap_bounds(a, b) for a, b in itertools.combinations(roots, 2)]
    return min(lo for lo, _ in gaps), min(hi for _, hi in gaps)


def _bounds_from_roots(roots, n: int, lead_abs: Fraction, gam: Fraction) -> PerturbationBounds:
    """Assumes gam already validated (< half the certified min gap, or
    any positive value when there is a single distinct root)."""
    big_m = Fraction(0)
    for re, im, rad, _ in roots:
        mod_hi = _sqrt_bounds(re * re + im * im)[1] + rad
        base = gam + mod_hi
        total = Fraction(0)
        power = Fraction(1)
        for _ in range(n + 1):
            total += power
            power *= base
        if total > big_m:
            big_m = total
    delta = None
    for j in range(len(roots)):
        term = lead_abs * gam ** roots[j][3]
        for i in range(len(roots)):
            if i == j:
                continue
            glo, _ = _gap_bounds(roots[i], roots[j])
            term *= (glo - gam) ** roots[i][3]
        if delta is None or term < delta:
            delta = term
    return PerturbationBounds(gam, big_m, delta, delta / big_m)


_AT_BOUNDARY = "gamma sits at the root-gap boundary; cannot certify strictly"


def _resolve_gamma(roots, gamma) -> Optional[Fraction]:
    """gamma (by default a quarter of the certified minimal root gap, 1
    for a single distinct root) once it is certified strictly below half
    the minimal root gap, None while the enclosures leave that unsettled;
    GammaTooLarge when it is certainly not below."""
    gam = None if gamma is None else Fraction(gamma)
    if gam is not None and gam <= 0:
        raise BadParameters("gamma must be positive")
    if len(roots) == 1:
        return Fraction(1) if gam is None else gam
    lo, hi = _min_gap_bounds(roots)
    if gam is None:
        return lo / 4 if lo > 0 else None
    if 2 * gam < lo:
        return gam
    if 2 * gam >= hi:
        raise GammaTooLarge("gamma %s is not below half the minimal root gap" % gam)
    return None


def _disk_tuples(rs: CertifiedRootSet):
    return [(d.center_re, d.center_im, d.radius, d.multiplicity) for d in rs.disks]


def perturbation_bounds(f: IntPolynomial, gamma=None) -> PerturbationBounds:
    """Exact (gamma, M, delta, eps) for an integer polynomial from its
    certified root enclosures; gamma defaults to a quarter of the
    certified minimal root gap (an arbitrary 1 for a single distinct
    root, where no gap constrains it).

    While gamma is unsettled the enclosures are refined between at most
    six checks; a handful of rounds with a steep shrink suffices: a gamma
    still undecided inside a 2^-100-relative window is refused, which is
    the valid direction."""
    if f.degree < 1:
        raise DegreeTooSmall("perturbation bounds need degree >= 1")
    rs = isolate_roots(f)
    for attempt in range(6):
        roots = _disk_tuples(rs)
        gam = _resolve_gamma(roots, gamma)
        if gam is not None:
            return _bounds_from_roots(roots, f.degree, abs(Fraction(f.coeffs[0])), gam)
        rmax = rs.max_radius()
        if rmax == 0 or attempt == 5:
            break
        try:
            rs = refine(rs, rmax / 2**20)
        except PrecisionCapExceeded:
            break
    raise GammaTooLarge(_AT_BOUNDARY)


def _target_bounds(target: TargetSpec) -> PerturbationBounds:
    roots = [(re, im, Fraction(0), 1) for re, im in target.points]
    gam = _resolve_gamma(roots, None)
    if gam is None:
        raise GammaTooLarge(_AT_BOUNDARY)
    return _bounds_from_roots(roots, target.n, Fraction(1), gam)


# -- target polynomial and the near-target family ---------------------------------


def _target_poly(points: Sequence[Tuple[Fraction, Fraction]]) -> List[Fraction]:
    """Real coefficients of prod (X - beta_i), leading first, for distinct
    points closed under conjugation (TargetSpec.validate): the factor
    X - re of each real point and X^2 - 2 re X + re^2 + im^2 of each point
    with im > 0."""
    coeffs = [Fraction(1)]
    for re, im in points:
        if im < 0:
            continue
        factor = [Fraction(1), -2 * re, re * re + im * im] if im else [Fraction(1), -re]
        out = [Fraction(0)] * (len(coeffs) + len(factor) - 1)
        for a, ca in enumerate(coeffs):
            for b, cb in enumerate(factor):
                out[a + b] += ca * cb
        coeffs = out
    return coeffs


def _nth_root_lower(x: int, n: int, bits: int = 64) -> Fraction:
    return Fraction(_int_nthroot(x << (n * bits), n), 1 << bits)


def _open_interval_ints(lo: Fraction, hi: Fraction) -> Tuple[int, int]:
    return math.floor(lo) + 1, math.ceil(hi) - 1


def near_target_intervals(
    target: TargetSpec, H: int, monic: bool = False
) -> List[Tuple[int, int]]:
    """Inclusive integer ranges for each coefficient a_0..a_n (a_1..a_n
    when monic); raises HTooSmall when some range is empty."""
    target.validate()
    if H < 1:
        raise BadParameters("H must be >= 1")
    n = target.n
    if monic:
        # scale roots by ~H^(1/n): heights stay O(H) and the absolute
        # perturbation allowance eps is recomputed for the scaled target
        t = _nth_root_lower(H, n)
        pts = [(re * t, im * t) for re, im in target.points]
        scaled = TargetSpec(tuple(pts))
        pb = _target_bounds(scaled)
        centers = _target_poly(pts)
        spread = pb.eps
        start = 1
    else:
        pb = _target_bounds(target)
        centers = [Fraction(H) * b for b in _target_poly(target.points)]
        spread = Fraction(H) * pb.eps
        start = 0
    ranges = []
    for i in range(start, n + 1):
        lo, hi = _open_interval_ints(centers[i] - spread, centers[i] + spread)
        if i == 0:
            lo = max(lo, 1)  # keep the degree exactly n
        if lo > hi:
            raise HTooSmall(
                "interval for a_%d contains no integer at H=%d" % (i, H)
            )
        ranges.append((lo, hi))
    return ranges


def near_target_family(
    target: TargetSpec,
    H: int,
    budget: int = 1000,
    seed: int = 0,
    enumerate_all: bool = False,
    monic: bool = False,
) -> Iterator[IntPolynomial]:
    """Stream integer polynomials whose roots sit one per gamma-disk of
    the target points (real iff the point is real): seeded uniform
    samples from the coefficient box by default, lexicographic
    enumeration with enumerate_all; at most `budget` members."""
    ranges = near_target_intervals(target, H, monic=monic)
    head = (1,) if monic else ()
    if enumerate_all:
        stream = itertools.product(*(range(lo, hi + 1) for lo, hi in ranges))
        for tail in itertools.islice(stream, budget):
            yield IntPolynomial(head + tail)
    else:
        rng = random.Random(seed)
        for _ in range(budget):
            tail = tuple(rng.randint(lo, hi) for lo, hi in ranges)
            yield IntPolynomial(head + tail)


def sn_filtered_family(
    target: TargetSpec,
    H: int,
    budget: int = 1000,
    seed: int = 0,
    monic: bool = False,
    prime_bound: int = 200,
) -> Tuple[List[IntPolynomial], Dict[str, object]]:
    """near_target_family members that carry a full-symmetric-group
    certificate; reducible and undecided members are discarded and
    reported, never silently kept."""
    from .classify import factorize, sn_certificate

    kept: List[IntPolynomial] = []
    discarded_reducible = 0
    discarded_undecided = 0
    for f in near_target_family(target, H, budget, seed=seed, monic=monic):
        if not factorize(f).irreducible:
            discarded_reducible += 1
            continue
        cert = sn_certificate(f, prime_bound=prime_bound, assume_irreducible=True)
        if cert.verdict == "CERTIFIED_SN":
            kept.append(f)
        else:
            discarded_undecided += 1
    total = len(kept) + discarded_reducible + discarded_undecided
    report = {
        "sampled": total,
        "kept": len(kept),
        "discarded_reducible": discarded_reducible,
        "discarded_undecided": discarded_undecided,
        "discard_fraction": (total - len(kept)) / total if total else 0.0,
    }
    return kept, report


# -- the monic non-dominant family -------------------------------------------------


def _floor_mul_sqrt(d: Fraction, H: int) -> int:
    """floor(d * sqrt(H)) exactly: the largest k with k^2 q^2 <= p^2 H."""
    p, q = d.numerator, d.denominator
    return math.isqrt(p * p * H // (q * q))


def theorem31_family(
    n: int,
    H: int,
    delta_param,
    force_no_real: bool = False,
) -> Iterator[IntPolynomial]:
    """Monic X^n + a_1 X^{n-1} + ... + a_n with -delta*sqrt(H) <= a_1 < 0,
    a_2 >= delta^2 H, 1 <= a_i <= H, and every odd-indexed a_i (i >= 3)
    bounded by its even predecessor; the maximal-modulus root of every
    member is non-real. force_no_real (even n only) additionally keeps
    min of the even-indexed coefficients >= max of the odd-indexed ones
    (indices 3..n-1), which removes all real roots."""
    if n < 2:
        raise BadParameters("family needs degree >= 2")
    if H < 1:
        raise BadParameters("H must be >= 1")
    d = Fraction(delta_param)
    if not 0 < d < 1:
        raise BadParameters("delta must lie in (0, 1)")
    if force_no_real and n % 2:
        raise BadParameters("force_no_real applies to even degrees only")
    a1_low = -_floor_mul_sqrt(d, H)
    if a1_low > -1:
        raise EmptyRegion("no integer a_1 with -delta*sqrt(H) <= a_1 < 0")
    a2_min = max(1, math.ceil(d * d * H))
    if a2_min > H:
        raise EmptyRegion("no integer a_2 with delta^2 H <= a_2 <= H")

    def rec(prefix: Tuple[int, ...], idx: int) -> Iterator[Tuple[int, ...]]:
        if idx > n:
            yield prefix
            return
        if idx == 1:
            rng = range(a1_low, 0)
        elif idx == 2:
            rng = range(a2_min, H + 1)
        elif idx % 2 == 1:
            rng = range(1, prefix[idx - 1] + 1)  # a_i <= a_{i-1}, i odd
        else:
            rng = range(1, H + 1)
        for v in rng:
            yield from rec(prefix + (v,), idx + 1)

    for tail in rec((1,), 1):
        if force_no_real:
            evens = [tail[i] for i in range(2, n + 1, 2)]
            odds = [tail[i] for i in range(3, n, 2)]
            if odds and min(evens) < max(odds):
                continue
        yield IntPolynomial(tail)


# -- showcase families ----------------------------------------------------------------


_X3PLUS8 = IntPolynomial((1, 0, 0, 8))
_DEFAULT_X3PLUS8_PARAMS = (
    Fraction(1, 36),
    Fraction(1, 18),
    Fraction(1, 12),
    Fraction(1, 9),
)


def showcase_families(
    name: str,
    n: int,
    H: int,
    params: Optional[Sequence] = None,
) -> Iterator[IntPolynomial]:
    """A3_STAR_3: a_0 X^3 + a_3 over 1 <= a_0 <= H, 1 <= |a_3| <= H
    (three roots of equal modulus, so k_max = 3, about 2 H^2 members).
    X3PLUS8: (X^3 + 8) * (a_0 X^{n-3} + ... + a_{n-3}) with
    l1 H < a_0 < l2 H and d1 H < a_i < d2 H for the rational parameters
    (d1, d2, l1, l2), strictly 0 < d1 < d2 < l1 < l2 <= 1/9; the chain
    bounds every product coefficient below H and pins the cofactor's
    root moduli below 2, so k_max = 3 from the roots of X^3 + 8."""
    if H < 1:
        raise BadParameters("H must be >= 1")
    if name == "A3_STAR_3":
        if n != 3:
            raise BadParameters("A3_STAR_3 is a cubic family")
        for a0 in range(1, H + 1):
            for a3 in range(-H, H + 1):
                if a3 != 0:
                    yield IntPolynomial((a0, 0, 0, a3))
        return
    if name != "X3PLUS8":
        raise BadParameters("unknown family %r" % (name,))
    if n < 4:
        raise BadParameters("X3PLUS8 needs degree >= 4")
    raw = _DEFAULT_X3PLUS8_PARAMS if params is None else tuple(Fraction(p) for p in params)
    if len(raw) != 4:
        raise BadParameters("X3PLUS8 takes four parameters (d1, d2, l1, l2)")
    d1, d2, l1, l2 = raw
    if not (0 < d1 < d2 < l1 < l2 <= Fraction(1, 9)):
        raise BadParameters("parameters must satisfy 0 < d1 < d2 < l1 < l2 <= 1/9")
    lead_lo, lead_hi = _open_interval_ints(l1 * H, l2 * H)
    tail_lo, tail_hi = _open_interval_ints(d1 * H, d2 * H)
    if lead_lo > lead_hi or tail_lo > tail_hi:
        return
    m = n - 3
    for a0 in range(lead_lo, lead_hi + 1):
        for tail in itertools.product(range(tail_lo, tail_hi + 1), repeat=m):
            yield _X3PLUS8 * IntPolynomial((a0,) + tail)


# -- empirical validation ---------------------------------------------------------------


def validate_family(
    stream: Iterable[IntPolynomial],
    predicate: Callable[[IntPolynomial], bool],
    sample: int = 1000,
) -> Dict[str, object]:
    """Check up to `sample` members against the predicate; certified
    claims require pass_fraction == 1.0."""
    checked = passed = 0
    first_bad: Optional[IntPolynomial] = None
    for f in itertools.islice(stream, sample):
        checked += 1
        if predicate(f):
            passed += 1
        elif first_bad is None:
            first_bad = f
    if checked == 0:
        raise EmptyStream("family produced no members")
    return {
        "checked": checked,
        "passed": passed,
        "pass_fraction": passed / checked,
        "first_counterexample": None if first_bad is None else coeff_string(first_bad),
    }
