"""Root-geometry classification of integer polynomials.

Answers, with certificates, the questions driving the censuses:

- modulus_profile: how many roots (with multiplicity) attain the
  maximal and minimal modulus, and whether the maximal one is dominant
  (unique);
- root_signature: the number of real roots r and conjugate pairs s,
  r + 2s = n, by exact real-root counts of the squarefree factors;
- factorize: certified factorization into irreducibles over the
  integers of the squarefree factors of the memoised analysis
  (roots._analysis), recombining the memoised cells of a 53-bit isolation
  into candidates that exact division certifies (degree_cap bounds the
  subsets tried; the isolation may raise PrecisionCapExceeded);
- sn_certificate: one-sided Galois certification via Frobenius cycle
  types (an n-cycle, an (n-1)-cycle and a transposition seen mod
  good primes generate S_n); small primes whose root count mod p
  rules out every missing cycle type are skipped unfactored;
- has_multiplicative_relation: whether alpha_i alpha_j = alpha_k alpha_l
  for two different root pairs, decided exactly through a repeated root
  of the pairwise root-product polynomial; a prefilter first tries to
  prove all pair products distinct from root disks isolated at a 53-bit
  start, with product enclosures compared in exact integers.

Zero roots are split off exactly first, at every degree: they form the
strict minimal-modulus group, and the rest decides k_max. Degrees 1-3
are then decided by exact integer sign tests (the census hot path never
touches floating point). Degree >= 4 escalates:

1. f(X) = g(X^m) with m >= 2 reduces to g: each root y of g lifts to
   m roots of equal modulus |y|^(1/m), so both counts multiply by m
   (this covers all polynomials invariant under X -> -X);
2. otherwise certified root disks, isolated from a 53-bit start (the
   hardware-double step; the ladder escalates only where it fails),
   give enclosures of squared moduli in exact integers: one real root or
   one conjugate pair (its disks are exact mirror images) forms a unit,
   whose dyadic centre and radius bound |root|^2 with a single integer
   square root.
   Sorted by lower end, overlapping enclosures chain into runs. When
   every run is one unit the runs order the groups (NUMERIC_CERTIFIED).
   Otherwise every squared modulus is a positive real root of the
   pair-product polynomial S, whose n(n+1)/2 roots are the products
   alpha_j alpha_k with j <= k, and an extreme run whose union holds
   exactly one distinct root of S, by a Sturm count, is one modulus
   group; the disks are refined until both extreme runs pass (EXACT).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    BadParameters,
    DegreeCapExceeded,
    DegreeTooSmall,
    NotIrreducible,
    PrecisionCapExceeded,
    ZeroPolynomial,
)
from .intpoly import (
    IntPolynomial,
    SquarefreeDecomposition,
    _pair_products,
    disc2,
    disc3,
    discriminant,
    divmod_exact,
    power_substitution,
    root_product_poly,
    sturm_chain,
    sturm_real_root_count,
)
from .modp import factor_degree_pattern, primes_up_to, root_counts
from .roots import (
    CertifiedRootSet,
    _DEFAULT_CAP,
    _analysis,
    _ceil_sqrt,
    _deflated,
    _disjoint,
    _dyadic,
    isolate_roots,
    refine,
)

__all__ = [
    "ModulusProfile",
    "RootSignature",
    "FactorizationResult",
    "SnCertificate",
    "modulus_profile",
    "root_signature",
    "factorize",
    "sn_certificate",
    "has_multiplicative_relation",
    "profile_pair_deg2",
    "profile_pair_deg3",
]

DEFAULT_DEGREE_CAP = 8
DEFAULT_PRIME_BOUND = 200
# sn_certificate skips primes by their root count mod p below this
# bound. Where the O(n p) grid pays depends on the input: for dense
# degree 5-8 inputs the gate saves more than its grid at every prime up
# to 2,000, while X^4+1 (never certified, the cheapest patterns, a
# quarter of primes skipped) gains nothing at any prime. Every census,
# bench and default caller scans to 200, where the gate makes the scan
# 4x faster; the callers above 256 pass X^4+1, which a cutoff of 512 or
# 1024 would slow by 1-8%
_ROOT_COUNT_CUTOFF = 256


@dataclass(frozen=True)
class ModulusProfile:
    """k_max / k_min: number of roots (with multiplicity) of maximal /
    minimal modulus; dominant means k_max == 1. decision records whether
    exact tie logic was required ("EXACT") or certified numeric
    separation sufficed ("NUMERIC_CERTIFIED")."""

    k_max: int
    k_min: int
    dominant: bool
    decision: str


@dataclass(frozen=True)
class RootSignature:
    """r real roots and s conjugate pairs, counted with multiplicity:
    r + 2s = degree."""

    r: int
    s: int


@dataclass(frozen=True)
class FactorizationResult:
    """f = content * prod factor^multiplicity with primitive irreducible
    positive-leading factors sorted by (degree, coefficients);
    irreducible means a single factor of multiplicity 1."""

    content: int
    factors: Tuple[Tuple[IntPolynomial, int], ...]
    irreducible: bool

    def reconstruct(self) -> IntPolynomial:
        return SquarefreeDecomposition(self.content, self.factors).reconstruct()


@dataclass(frozen=True)
class SnCertificate:
    """verdict CERTIFIED_SN means factor patterns mod witness primes
    exhibit an n-cycle, an (n-1)-cycle and a transposition, which
    together generate S_n; UNDECIDED is NOT evidence of a smaller
    group."""

    verdict: str
    witnesses: Tuple[Tuple[int, Tuple[int, ...]], ...]
    prime_bound: int


# -- exact low-degree kernels (census hot path) ------------------------------


def profile_pair_deg2(a: int, b: int, c: int) -> Tuple[int, int]:
    """(k_max, k_min) for aX^2+bX+c, c != 0, by exact sign tests."""
    if b == 0:
        return (2, 2)  # roots +-sqrt(-c/a): opposite or conjugate pair
    if disc2(a, b, c) > 0:
        return (1, 1)  # distinct reals, not opposite since b != 0
    return (2, 2)  # conjugate pair or double real root


def profile_pair_deg3(a: int, b: int, c: int, d: int) -> Tuple[int, int]:
    """(k_max, k_min) for aX^3+bX^2+cX+d, d != 0, by exact integer sign
    tests: each case names an integer whose sign, positive for (2, 1),
    negative for (1, 2) and zero for (3, 3), decides.

    disc < 0 (one real root rho and a conjugate pair of modulus m):
    m = |rho| can only happen when rho = -c/b, and f(-c/b) equals
    -(a c^3 - b^3 d)/b^3, so D3 = a c^3 - b^3 d decides: D3 < 0 real root
    strictly maximal, D3 > 0 pair strictly maximal, D3 = 0 three-way
    tie; the other group is the minimal one. disc > 0 (three distinct
    reals): the only possible tie is an opposite pair +-t, present iff
    b != 0 and bc = ad (then f = (aX + b)(X^2 + d/b)); the pair modulus t
    and lone root s = -b/a compare via sign(t^2 - s^2) =
    sign(-(a^2 d + b^3) b), never 0: t = |s| would make s a root of
    X^2 + d/b, a repeated root, and disc = 0. disc = 0: the repeated and
    simple roots are rational (_double_root_order). Every quantity
    tested is unchanged under f -> -f, so a may be negative.
    """
    dsc = disc3(a, b, c, d)
    if dsc < 0:
        key = a * c * c * c - b * b * b * d
    elif dsc == 0:
        key = _double_root_order(a, b, c, d)
    elif b != 0 and b * c == a * d:
        key = -(a * a * d + b * b * b) * b
    else:
        return (1, 1)  # distinct reals, no opposite pair
    return (2, 1) if key > 0 else (1, 2) if key < 0 else (3, 3)


def _double_root_order(a, b, c, d):
    """For a cubic aX^3+bX^2+cX+d with disc = 0, an integer with the sign of
    |u| - |s|, u its double and s its simple root: with D = b^2 - 3ac and
    N = 9ad - bc, u = N/(2D) and s = -(bD + aN)/(aD), so |N a| - 2|bD + aN|.
    A triple root makes D = N = 0, a tie. For integers or numpy arrays;
    every term stays below 28 H^3 in modulus at height H."""
    dd = b * b - 3 * a * c
    nn = 9 * a * d - b * c
    return abs(nn * a) - 2 * abs(b * dd + a * nn)


# -- modulus profile ----------------------------------------------------------


def modulus_profile(f: IntPolynomial) -> ModulusProfile:
    """Certified (k_max, k_min, dominant) for f of degree >= 1.

    Zero roots are split off first, exactly: they form the strict
    minimal group, and the rest of f decides k_max. Degree <= 3 then
    goes to the exact integer kernels and higher degrees to the
    certified path (_profile_certified).
    """
    if f.is_zero:
        raise ZeroPolynomial("modulus profile of the zero polynomial")
    n = f.degree
    if n < 1:
        raise DegreeTooSmall("modulus profile needs degree >= 1")
    v, u = _deflated(f)
    if u.degree == 0:
        # a_0 X^n: all roots are 0
        return ModulusProfile(n, n, n == 1, "EXACT")
    if v > 0:
        sub = modulus_profile(u)
        return ModulusProfile(sub.k_max, v, sub.k_max == 1, sub.decision)
    if n <= 3:
        cs = f.coeffs
        if n == 1:
            kk = (1, 1)
        elif n == 2:
            kk = profile_pair_deg2(*cs)
        else:
            kk = profile_pair_deg3(*cs)
        return ModulusProfile(kk[0], kk[1], kk[0] == 1, "EXACT")
    return _profile_certified(f)


def _profile_certified(f: IntPolynomial) -> ModulusProfile:
    """The certified profile of f, f(0) != 0."""
    m, h = power_substitution(f)
    if m >= 2:
        # roots of f are the m-th roots of the roots of h: a root y of
        # h contributes m roots of equal modulus |y|^(1/m), preserving
        # the group order and multiplying both counts by m
        sub = modulus_profile(h)
        return ModulusProfile(m * sub.k_max, m * sub.k_min, False, sub.decision)
    # the double step first: the ladder escalates only where it fails
    rs = isolate_roots(f, precision_bits=53)
    runs, e = _disk_runs(rs)
    decision = "NUMERIC_CERTIFIED"
    if any(run.size > 1 for run in runs):
        # every squared modulus is a positive real root of S =
        # _pair_products(f, distinct=False), so an extreme run whose union
        # holds one distinct root of S, counted on the Sturm chain of S
        # itself, is one modulus group; refining splits the rest, as
        # distinct roots of S are separated
        decision = "EXACT"
        chain = _tie_chain(f)
        # correct input stays far below this bound (X^5 - 2^40 X + 1
        # needs one refine, to 228 bits); point disks cannot refine
        cap = max(_DEFAULT_CAP, 8 * rs.precision_bits)
        while not _extremes_split(runs, e, chain):
            radius = rs.max_radius()
            if radius == 0 or rs.precision_bits > cap:
                raise PrecisionCapExceeded(
                    "modulus tie undecided at %d bits for %s" % (rs.precision_bits, f.coeffs)
                )
            rs = refine(rs, radius / 2**20)
            runs, e = _disk_runs(rs)
    kmax, kmin = runs[-1].mult, runs[0].mult
    return ModulusProfile(kmax, kmin, kmax == 1, decision)


def _tie_chain(f: IntPolynomial):
    """The Sturm chain of S = _pair_products(f, distinct=False), which
    counts the distinct roots of S without its squarefree part: each
    squared modulus of a root of f, f(0) != 0, is a root of S."""
    return sturm_chain(_pair_products(f, distinct=False))


def _extremes_split(runs: List["_Run"], e: int, chain) -> bool:
    """Whether both extreme runs are modulus groups: one unit, or a union
    [lo2 2^e, hi2 2^e] holding exactly one distinct root of chain
    (_tie_chain), the squared modulus all its units then share."""
    return all(run.size == 1 or chain.roots_in(_dyadic(run.lo2, e), _dyadic(run.hi2, e)) == 1
               for run in (runs[0], runs[-1]))


def _mod2(a, b, k):
    """Integers (lo, hi) with lo 4^e <= |root|^2 <= hi 4^e for a root in the
    disk of centre (a + bi) 2^e and radius k 2^e, or int64 columns of them.

    With c2 = a^2 + b^2 and cu = ceil(sqrt(c2)) >= |c| 2^-e, the bounds
    c2 -+ 2 cu k + k^2 enclose (|c| -+ r)^2 4^-e, and so |root|^2 4^-e;
    the lower one is 0 when the disk may contain 0."""
    c2 = a * a + b * b
    cu = _ceil_sqrt(c2)
    lo = c2 - 2 * cu * k + k * k
    return lo * ((c2 > k * k) & (lo > 0)), c2 + 2 * cu * k + k * k


def _modulus_units(cells: Sequence[Sequence[int]]) -> List[Tuple[int, int, int]]:
    """The units of certified cells (a, b, k, multiplicity, is_real), disks
    of centre (a + bi) 2^e and radius k 2^e at one scale (the cells of a
    CertifiedRootSet, of roots._certified, or of the int64 pass of the
    n = 4 census): the disks certified to share one modulus, as
    (lo2, hi2, mult) with the exact enclosure of the squared modulus at
    the scale 4^e (_mod2) and the multiplicity of all their roots. A unit
    is a real disk or a conjugate pair, read from its upper disk (all
    three make the disks of a pair exact mirror images with one
    multiplicity)."""
    return [
        (*_mod2(a, b, k), mult * (1 if real else 2))
        for a, b, k, mult, real in cells
        if real or b > 0
    ]


class _Run(NamedTuple):
    """A maximal run of units with chained overlapping enclosures: the
    union [lo2, hi2], the summed multiplicity and the number of units."""

    lo2: int
    hi2: int
    mult: int
    size: int


def _runs(units: List[Tuple[int, int, int]]) -> List[_Run]:
    """The units chained into runs in lo2 order, lowest run first; two
    units overlap somewhere exactly when two lo2-neighbours do."""
    runs: List[_Run] = []
    for lo2, hi2, mult in sorted(units):
        if runs and lo2 <= runs[-1].hi2:
            r = runs[-1]
            runs[-1] = _Run(r.lo2, max(r.hi2, hi2), r.mult + mult, r.size + 1)
        else:
            runs.append(_Run(lo2, hi2, mult, 1))
    return runs


def _disk_runs(rs: CertifiedRootSet) -> Tuple[List[_Run], int]:
    """The modulus runs of the disks of rs, and the exponent e at which
    their integer bounds enclose squared moduli: lo2 2^e <= |root|^2 <=
    hi2 2^e, with 2^e the square of the disks' one dyadic scale."""
    return _runs(_modulus_units(rs.cells)), 2 * rs.exponent


# -- signature ----------------------------------------------------------------


def root_signature(f: IntPolynomial) -> RootSignature:
    """Exact (r, s) with multiplicity: r real roots, s conjugate pairs,
    from one real-root count per squarefree factor of the analysis of f
    (_signature_counts)."""
    if f.is_zero:
        raise ZeroPolynomial("signature of the zero polynomial")
    n = f.degree
    if n < 1:
        raise DegreeTooSmall("signature needs degree >= 1")
    r = _signature_counts(f)[0]
    return RootSignature(r, (n - r) // 2)


def _signature_counts(f: IntPolynomial) -> Tuple[int, int, int]:
    """(r, rd, nd) for f of degree >= 1: its real roots with multiplicity,
    its distinct real roots and its distinct roots, read from its analysis
    with one _real_count per squarefree factor."""
    a = _analysis(f)
    zero = 1 if a.zeros else 0
    r, rd, nd = a.zeros, zero, zero
    for fac, mult in a.factors:
        real = _real_count(fac)
        r += mult * real
        rd += real
        nd += fac.degree
    return r, rd, nd


def _real_count(fac: IntPolynomial) -> int:
    """Distinct real roots of a squarefree factor. Up to degree 3 it has
    at most one conjugate pair, so its nonzero discriminant, of sign
    (-1)^pairs, decides; above, a Sturm count."""
    if fac.degree <= 3:
        return fac.degree if discriminant(fac) > 0 else fac.degree - 2
    return sturm_real_root_count(fac)


# -- factorization ------------------------------------------------------------


def factorize(f: IntPolynomial, degree_cap: int = DEFAULT_DEGREE_CAP) -> FactorizationResult:
    """Certified factorization of f over the integers into content and
    primitive irreducible factors with positive leading coefficients.

    Each squarefree factor of the memoised analysis is split by recombining
    the cells of the memoised isolate_roots(f, precision_bits=53) (_recombine),
    refined only where an enclosure is too wide to decide, so factorize
    raises PrecisionCapExceeded wherever isolate_roots does. Degrees
    above degree_cap raise DegreeCapExceeded: the cap bounds the at most
    2^(n-1) root subsets recombination tries.
    """
    if f.is_zero:
        raise ZeroPolynomial("factorization of the zero polynomial")
    n = f.degree
    if n > degree_cap:
        raise DegreeCapExceeded("degree %d above factorization cap %d" % (n, degree_cap))
    content = f.content()
    if f.coeffs[0] < 0:
        content = -content
    a = _analysis(f)
    found: Dict[Tuple[int, ...], int] = {(1, 0): a.zeros} if a.zeros else {}
    rs = isolate_roots(f, precision_bits=53) if any(g.degree > 1 for g, _ in a.factors) else None
    for fac, mult in a.factors:
        pieces = _recombine(fac, mult, rs)
        while pieces is None:
            rs = refine(rs, rs.max_radius() / 2**32)
            pieces = _recombine(fac, mult, rs)
        for piece in pieces:
            found[piece.coeffs] = found.get(piece.coeffs, 0) + mult
    factors = tuple(
        sorted(
            ((IntPolynomial(k), m) for k, m in found.items()),
            key=lambda t: (t[0].degree, t[0].coeffs),
        )
    )
    irreducible = len(factors) == 1 and factors[0][1] == 1
    return FactorizationResult(content, factors, irreducible)


def _recombine(w: IntPolynomial, mult: int, rs: CertifiedRootSet) -> Optional[List[IntPolynomial]]:
    """The irreducible factors of w, the squarefree factor of multiplicity
    mult in the analysis of rs.polynomial, or None when rs is too coarse.

    If g | w has roots S, L prod_{z in S} (X - z) = (L / lc(g)) g is an
    integer polynomial, L = lc(w): Zassenhaus' factor combination with
    complex roots (von zur Gathen and Gerhard, Modern Computer Algebra,
    ch. 15). A unit is a real cell (a, 0, r) of multiplicity mult, the
    zero cell left out, as X - (a +- r), or the upper cell (a, b, r) of a
    pair as X^2 - (2a +- 2r) X + (a^2 + b^2 +- (2 cu r + r^2)), cu =
    ceil(sqrt(a^2 + b^2)) as in _product_disks. Unit subsets are tried by
    ascending degree k <= deg(w) / 2 (_times, _integer_coeffs): one
    integer in every enclosure is a candidate, whose primitive part is a
    factor if divmod_exact certifies it, irreducible as no lower degree
    split, and the search goes on over the quotient and the units left.
    """
    if w.degree == 1:
        return [w]
    e = rs.exponent
    units = []
    for a, b, r, m, real in rs.cells:
        if m != mult or (a, b, r) == (0, 0, 0):
            continue
        if real:
            units.append(((1, 0), (-a, r)))
        elif b > 0:
            c2 = a * a + b * b
            units.append(((1, 0), (-2 * a, 2 * r), (c2, 2 * _ceil_sqrt(c2) * r + r * r)))
    pieces = []
    k = 1
    while 2 * k <= w.degree:
        for subset in _subsets(units, k):
            poly = [(1, 0)]
            for i in subset:
                poly = _times(poly, units[i])
            cs = _integer_coeffs(w.coeffs[0], poly, e)
            if cs is None:
                return None
            if not cs:
                continue
            g = IntPolynomial(cs).monic_positive()
            try:
                w = divmod_exact(w, g)
            except BadParameters:
                continue
            pieces.append(g)
            units = [u for i, u in enumerate(units) if i not in subset]
            break
        else:
            k += 1
    return pieces + [w]


def _subsets(units: Sequence[tuple], k: int):
    """The index tuples of the units of total degree k (_recombine)."""
    reals = [i for i, u in enumerate(units) if len(u) == 2]
    pairs = [i for i, u in enumerate(units) if len(u) == 3]
    for p in range(k // 2 + 1):
        for ps in combinations(pairs, p):
            for qs in combinations(reals, k - 2 * p):
                yield ps + qs


def _times(p: Sequence[Sequence[int]], q: Sequence[Sequence[int]]) -> List[List[int]]:
    """The product of polynomials whose coefficients, leading first, are
    enclosures (m, r) of x, the j-th at the scale 2^(e j): |x y - m1 m2|
    <= |m1| r2 + |m2| r1 + r1 r2."""
    out = [[0, 0] for _ in range(len(p) + len(q) - 1)]
    for i, (m1, r1) in enumerate(p):
        for j, (m2, r2) in enumerate(q):
            out[i + j][0] += m1 * m2
            out[i + j][1] += abs(m1) * r2 + abs(m2) * r1 + r1 * r2
    return out


def _integer_coeffs(lead: int, poly: Sequence[Sequence[int]], e: int) -> Optional[Tuple[int, ...]]:
    """The integer in each coefficient enclosure of lead * poly, poly monic
    with enclosures at the scales 2^(e j), e <= 0 (_times): () when some
    enclosure holds none, None when none is empty but some holds two."""
    out, wide = [lead], False
    for j, (m, r) in enumerate(poly[1:], 1):
        mid, rad, s = lead * m, abs(lead) * r, -e * j
        lo, hi = -((rad - mid) >> s), (mid + rad) >> s
        if lo > hi:
            return ()
        wide = wide or lo < hi
        out.append(lo)
    return None if wide else tuple(out)


# -- Galois certification ------------------------------------------------------


def sn_certificate(
    f: IntPolynomial,
    prime_bound: int = DEFAULT_PRIME_BOUND,
    assume_irreducible: bool = False,
) -> SnCertificate:
    """One-sided S_n certificate for an irreducible f of degree n >= 1.

    Scans primes p <= prime_bound with good reduction (p does not
    divide lc(f) disc(f)) for factor degree patterns equal to the cycle
    types {n}, {1, n-1} and {2, 1, ..., 1}; all three present certify
    the Galois group is S_n. UNDECIDED never implies a smaller group,
    and for some inputs (X^4+1) no certificate exists at any bound.
    For n <= 2 the group of an irreducible f is S_n itself, certified
    with no witnesses.

    At a good prime the number of distinct roots mod p is the number of
    1s in the pattern, so a prime can show a missing cycle type only if
    its root count (from root_counts) is 0, 1 or n-2 for that type;
    every other prime is skipped without computing its pattern. The
    gate applies to primes below _ROOT_COUNT_CUTOFF; above, the grid
    would cost more than the patterns it saves, and every prime is
    tried. Either way each witness is the first prime with its
    pattern, so the certificate does not depend on the gate.
    """
    n = f.degree
    if n < 1:
        raise DegreeTooSmall("S_n certification needs degree >= 1")
    if not assume_irreducible and not factorize(f).irreducible:
        raise NotIrreducible("polynomial is not irreducible: %s" % (f,))
    if n <= 2:
        return SnCertificate("CERTIFIED_SN", (), prime_bound)
    # for n = 3 the (n-1)-cycle and the transposition are one pattern
    missing = {(n,), tuple(sorted((1, n - 1))), tuple(sorted([1] * (n - 2) + [2]))}
    witnesses: List[Tuple[int, Tuple[int, ...]]] = []
    primes = primes_up_to(prime_bound)
    # next(counts) is the root count of primes[i] while i < end
    end = bisect.bisect_left(primes, _ROOT_COUNT_CUTOFF)
    counts = root_counts(f, primes[:end])
    for i, p in enumerate(primes):
        if i < end and next(counts) not in {t.count(1) for t in missing}:
            continue
        pat = factor_degree_pattern(f, p)
        if pat in missing:
            missing.remove(pat)
            witnesses.append((p, pat))
            if not missing:
                break
    verdict = "UNDECIDED" if missing else "CERTIFIED_SN"
    return SnCertificate(verdict, tuple(witnesses), prime_bound)


# -- multiplicative relations ---------------------------------------------------


def has_multiplicative_relation(f: IntPolynomial) -> bool:
    """True iff the pairwise product polynomial prod_{i<j}(X - a_i a_j)
    of the roots of f (degree n >= 4) has a repeated root, i.e. some
    alpha_1 alpha_2 = alpha_3 alpha_4 over two different index pairs.

    Squareful f reports True (a repeated root already collides pair
    products), as does any zero root (all its pair products are 0).
    The exact decider is discriminant(root_product_poly(f)) == 0; first
    disjoint product enclosures, from root disks isolated at a 53-bit
    start and compared in exact integers, prove the negative cheaply,
    and only what they cannot separate falls through to exact
    arithmetic.
    """
    if f.degree < 4:
        raise DegreeTooSmall("multiplicative relations need degree >= 4")
    a = _analysis(f)
    # a repeated root collides pair products, and so does a zero root:
    # its n-1 >= 3 pair products all vanish
    if a.zeros or any(m >= 2 for _, m in a.factors):
        return True
    if _products_separated(f):
        return False
    return discriminant(root_product_poly(f)) == 0


def _products_separated(g: IntPolynomial) -> bool:
    """Certified proof that all pairwise root products of g (squarefree,
    no zero roots) are distinct: disjoint product enclosures of its disks
    from a 53-bit start. False only means "not shown"; what overlaps
    there is almost always an exact collision, which refining cannot
    separate and the exact discriminant decides."""
    try:
        rs = isolate_roots(g, precision_bits=53)
    except PrecisionCapExceeded:
        return False
    return _disjoint(_product_disks(rs.cells))


def _product_disks(cells: Sequence[Sequence[int]]) -> List[Tuple[int, int, int]]:
    """Integer enclosures (x + yi, R) 4^e of z1 z2 for every pair of
    disks. With the disks as cells (a, b, k, ...) at one scale 2^e
    (CertifiedRootSet), of centre c = (a + bi) 2^e and radius k 2^e, and
    cu = ceil(sqrt(a^2 + b^2)) >= |c| 2^-e, the centre is
    (a1 a2 - b1 b2, a1 b2 + b1 a2) and the radius cu1 k2 + cu2 k1 + k1 k2,
    since |z1 z2 - c1 c2| <= |c1| r2 + |c2| r1 + r1 r2."""
    cs = [(a, b, k, _ceil_sqrt(a * a + b * b)) for a, b, k, *_ in cells]
    return [
        (a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, cu1 * k2 + cu2 * k1 + k1 * k2)
        for i, (a1, b1, k1, cu1) in enumerate(cs)
        for a2, b2, k2, cu2 in cs[i + 1 :]
    ]
