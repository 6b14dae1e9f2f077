"""Root-geometry classification of integer polynomials.

Answers, with certificates, the questions driving the censuses:

- modulus_profile: how many roots (with multiplicity) attain the
  maximal and minimal modulus, and whether the maximal one is dominant
  (unique);
- root_signature: the number of real roots r and conjugate pairs s,
  r + 2s = n, by exact Sturm counts;
- factorize: certified factorization into
  irreducibles over the integers (rational roots, degree-pattern sieve
  mod p, Kronecker interpolation search);
- sn_certificate: one-sided Galois certification via Frobenius cycle
  types (an n-cycle, an (n-1)-cycle and a transposition seen mod
  good primes generate S_n);
- has_multiplicative_relation: whether alpha_i alpha_j = alpha_k alpha_l
  for two different root pairs, decided exactly through a repeated root
  of the pairwise root-product polynomial.

Degrees 1-3 are decided by exact integer sign tests (the census hot
path never touches floating point). Degree >= 4 escalates:

1. zero roots split off exactly (they form the minimal-modulus group);
2. f(X) = g(X^m) with m >= 2 reduces to g: each root y of g lifts to
   m roots of equal modulus |y|^(1/m), so both counts multiply by m
   (this covers all polynomials invariant under X -> -X);
3. otherwise certified root disks, isolated from a 53-bit start (the
   hardware-double step; the ladder escalates only where it fails),
   give enclosures of squared moduli in exact integers: one real root or
   one exactly mirrored conjugate pair forms a unit, whose dyadic centre
   and radius bound |root|^2 with a single integer square root.
   Disjoint enclosures order the groups (NUMERIC_CERTIFIED), and any
   overlap is forced to a decision by refining all enclosure widths
   below a quarter of the rational separation bound on squared moduli,
   after which overlap certifies exact equality (EXACT).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple

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
    _deflate_zero_roots,
    _interpolate,
    disc3,
    discriminant,
    divmod_exact,
    power_substitution,
    root_product_poly,
    squarefree_decomposition,
    subresultant_gcd,
)
from .modp import factor_degree_pattern, primes_up_to
from .roots import (
    CertifiedRootSet,
    RootDisk,
    _analysis,
    _fraction_sqrt_upper,
    fujiwara_bound,
    isolate_roots,
    modulus_separation_bound,
    mpf_to_fraction,
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
    "real_count_deg2",
    "real_count_deg3",
]

DEFAULT_DEGREE_CAP = 8
DEFAULT_PRIME_BOUND = 200


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
        out = IntPolynomial((self.content,))
        for p, m in self.factors:
            for _ in range(m):
                out = out * p
        return out


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
    """(k_max, k_min) for aX^2+bX+c by exact sign tests."""
    if c == 0:
        if b == 0:
            return (2, 2)  # double root 0
        return (1, 1)  # 0 and -b/a
    if b == 0:
        return (2, 2)  # roots +-sqrt(-c/a): opposite or conjugate pair
    if b * b - 4 * a * c > 0:
        return (1, 1)  # distinct reals, not opposite since b != 0
    return (2, 2)  # conjugate pair or double real root


def profile_pair_deg3(a: int, b: int, c: int, d: int) -> Tuple[int, int]:
    """(k_max, k_min) for aX^3+bX^2+cX+d by exact integer sign tests.

    disc < 0 (one real root rho and a conjugate pair of modulus m):
    m = |rho| can only happen when rho = -c/b, and f(-c/b) equals
    -(a c^3 - b^3 d)/b^3, so with a normalized positive the sign of
    D3 = a c^3 - b^3 d decides: D3 < 0 real root strictly maximal,
    D3 > 0 pair strictly maximal, D3 = 0 three-way tie; the minimal
    side mirrors through the reciprocal coefficients. disc > 0 (three
    distinct reals): the only possible tie is an opposite pair +-t,
    present iff b != 0 and bc = ad (then f = (aX + b)(X^2 + d/b)); the
    pair modulus t and lone root s = -b/a compare via
    sign(t^2 - s^2) = sign(-(a^2 d + b^3)) * sign(b). disc = 0: the
    repeated and simple roots are rational, compared exactly.
    """
    if a < 0:
        a, b, c, d = -a, -b, -c, -d
    if d == 0:
        if c == 0:
            if b == 0:
                return (3, 3)  # triple root 0
            return (1, 2)  # roots 0, 0, -b/a
        dd = b * b - 4 * a * c
        if dd > 0 and b != 0:
            return (1, 1)  # 0 and two reals of distinct nonzero moduli
        return (2, 1)  # 0 plus an equal-modulus pair (or a double root)
    dsc = disc3(a, b, c, d)
    if dsc < 0:
        d3 = a * c * c * c - b * b * b * d
        kmax = 1 if d3 < 0 else (2 if d3 > 0 else 3)
        ra, rb, rc, rd = (d, c, b, a) if d > 0 else (-d, -c, -b, -a)
        d3r = ra * rc * rc * rc - rb * rb * rb * rd
        kmin = 1 if d3r < 0 else (2 if d3r > 0 else 3)
        return (kmax, kmin)
    if dsc > 0:
        if b != 0 and b * c == a * d:
            num = -(a * a * d + b * b * b)
            sgn = (1 if num > 0 else -1 if num < 0 else 0) * (1 if b > 0 else -1)
            if sgn > 0:
                return (2, 1)
            if sgn < 0:
                return (1, 2)
            return (3, 3)  # |pair| = |s| would force disc = 0; defensive
        return (1, 1)
    # disc == 0, d != 0: rational double (or triple) root
    f = IntPolynomial((a, b, c, d))
    g = subresultant_gcd(f, f.derivative())
    if g.degree == 2:
        return (3, 3)  # triple root
    u = Fraction(-g.coeffs[1], g.coeffs[0])  # double root
    s = Fraction(-b, a) - 2 * u  # simple root
    au, asv = abs(u), abs(s)
    if au == asv:
        return (3, 3)  # s = -u
    if au > asv:
        return (2, 1)
    return (1, 2)


def real_count_deg2(a: int, b: int, c: int) -> int:
    return 2 if b * b - 4 * a * c >= 0 else 0


def real_count_deg3(a: int, b: int, c: int, d: int) -> int:
    return 3 if disc3(a, b, c, d) >= 0 else 1


# -- modulus profile ----------------------------------------------------------


def modulus_profile(f: IntPolynomial, method: str = "auto") -> ModulusProfile:
    """Certified (k_max, k_min, dominant) for f of degree >= 1.

    method "auto" routes degree <= 3 to exact integer kernels and
    higher degrees to the certified path; "certified" forces the
    certified path at any degree (used to cross-validate the kernels);
    "exact" requires degree <= 3.
    """
    if f.is_zero:
        raise ZeroPolynomial("modulus profile of the zero polynomial")
    n = f.degree
    if n < 1:
        raise DegreeTooSmall("modulus profile needs degree >= 1")
    if method not in ("auto", "exact", "certified"):
        raise BadParameters("unknown method %r" % (method,))
    if method != "certified" and n <= 3:
        cs = f.coeffs
        if n == 1:
            kk = (1, 1)
        elif n == 2:
            kk = profile_pair_deg2(*cs)
        else:
            kk = profile_pair_deg3(*cs)
        return ModulusProfile(kk[0], kk[1], kk[0] == 1, "EXACT")
    if method == "exact":
        raise BadParameters("exact method available only for degree <= 3")
    return _profile_certified(f)


def _profile_certified(f: IntPolynomial) -> ModulusProfile:
    n = f.degree
    v, u = _deflate_zero_roots(f)
    if u.degree == 0:
        # a_0 X^n: all roots are 0
        return ModulusProfile(n, n, n == 1, "EXACT")
    if v > 0:
        sub = modulus_profile(u)
        # zero roots form the strict minimal group; u's maximum stands
        return ModulusProfile(sub.k_max, v, sub.k_max == 1, sub.decision)
    m, h = power_substitution(u)
    if m >= 2:
        # roots of u are the m-th roots of the roots of h: a root y of
        # h contributes m roots of equal modulus |y|^(1/m), preserving
        # the group order and multiplying both counts by m
        sub = modulus_profile(h)
        return ModulusProfile(m * sub.k_max, m * sub.k_min, False, sub.decision)
    # the double step first: the ladder escalates only where it fails
    rs = isolate_roots(f, precision_bits=53)
    units = _modulus_units(rs)
    counts = _count_disjoint(units)
    if counts is not None:
        kmax, kmin = counts
        return ModulusProfile(kmax, kmin, kmax == 1, "NUMERIC_CERTIFIED")
    # overlapping enclosures: refine widths below sep/4, after which
    # overlap certifies exact equality of moduli
    sep = modulus_separation_bound(f)
    bigm = Fraction(fujiwara_bound(f)) + 1
    target = sep / (32 * bigm)
    if target > Fraction(1, 16):
        target = Fraction(1, 16)
    while True:
        rs = refine(rs, target)
        units = _modulus_units(rs)
        if all(unit.hi2 - unit.lo2 < sep / 4 for unit in units):
            break
        target = target / 4
    kmax, kmin = _count_with_ties(units)
    return ModulusProfile(kmax, kmin, kmax == 1, "EXACT")


class _Unit:
    """Disks certified to share one modulus (a real root or a conjugate
    pair), with an exact rational enclosure of the squared modulus."""

    __slots__ = ("lo2", "hi2", "mult")

    def __init__(self, lo2: Fraction, hi2: Fraction, mult: int):
        self.lo2 = lo2
        self.hi2 = hi2
        self.mult = mult


def _disk_mod2(d: RootDisk) -> Tuple[Fraction, Fraction]:
    """Exact rational enclosure of |root|^2 for a root inside the disk.

    Centre (x, y) and radius r are dyadic: with one common exponent e they
    are (a, b, k) * 2^e for integers a, b, k. With c2 = a^2 + b^2 and
    cu = ceil(sqrt(c2)) >= |c| 2^-e, the bounds (c2 -+ 2 cu k + k^2) 4^e
    enclose (|c| -+ r)^2, and so |root|^2, in exact integers; the lower
    one is 0 when the disk may contain 0."""
    parts = [x._mpf_ for x in (d.center_re, d.center_im, d.radius)]
    e = min((exp for _, man, exp, _ in parts if man), default=0)
    a, b, k = ((-man if sign else man) << (exp - e) if man else 0 for sign, man, exp, _ in parts)
    c2 = a * a + b * b
    cu = math.isqrt(c2)
    if cu * cu < c2:
        cu += 1
    lo = 0 if c2 <= k * k else max(0, c2 - 2 * cu * k + k * k)
    hi = c2 + 2 * cu * k + k * k
    if e >= 0:
        return (Fraction(lo << 2 * e), Fraction(hi << 2 * e))
    return (Fraction(lo, 1 << -2 * e), Fraction(hi, 1 << -2 * e))


def _modulus_units(rs: CertifiedRootSet) -> List[_Unit]:
    """Group disks into modulus units; conjugate pairs (exactly mirrored
    after symmetrization) merge into one unit."""
    units: List[_Unit] = []
    seen: Set[int] = set()
    disks = rs.disks
    for i, d in enumerate(disks):
        if i in seen:
            continue
        mult = d.multiplicity
        if not d.is_real:
            for j in range(i + 1, len(disks)):
                e = disks[j]
                if (
                    j not in seen
                    and not e.is_real
                    and e.center_re == d.center_re
                    # exact for any precision: -x would round to mp.prec
                    and e.center_im + d.center_im == 0
                    and e.radius == d.radius
                ):
                    seen.add(j)
                    mult += e.multiplicity
                    break
        lo2, hi2 = _disk_mod2(d)
        units.append(_Unit(lo2, hi2, mult))
    return units


def _count_disjoint(units: List[_Unit]) -> Optional[Tuple[int, int]]:
    """(k_max, k_min) when all units are pairwise disjoint, else None."""
    order = sorted(units, key=lambda u: (u.lo2, u.hi2))
    for a, b in zip(order, order[1:]):
        if b.lo2 <= a.hi2:
            return None
    return (order[-1].mult, order[0].mult)


def _count_with_ties(units: List[_Unit]) -> Tuple[int, int]:
    """(k_max, k_min) when overlap certifies equality (post-refinement):
    connected overlap components are exact modulus groups."""
    m = len(units)
    parent = list(range(m))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            u, w = units[i], units[j]
            if not (u.hi2 < w.lo2 or w.hi2 < u.lo2):
                parent[find(i)] = find(j)
    groups: Dict[int, List[_Unit]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(units[i])
    rows = sorted(
        ((min(u.lo2 for u in g), sum(u.mult for u in g)) for g in groups.values()),
        key=lambda t: t[0],
    )
    return (rows[-1][1], rows[0][1])


# -- signature ----------------------------------------------------------------


def root_signature(f: IntPolynomial) -> RootSignature:
    """Exact (r, s) with multiplicity: r real roots, s conjugate pairs."""
    if f.is_zero:
        raise ZeroPolynomial("signature of the zero polynomial")
    n = f.degree
    if n < 1:
        raise DegreeTooSmall("signature needs degree >= 1")
    cs = f.coeffs
    if n == 1:
        return RootSignature(1, 0)
    if n == 2:
        r = real_count_deg2(*cs)
        return RootSignature(r, (2 - r) // 2)
    if n == 3:
        r = real_count_deg3(*cs)
        return RootSignature(r, (3 - r) // 2)
    a = _analysis(f)
    r = a.zeros + sum(mult * real for _, mult, real in a.factors)
    return RootSignature(r, (n - r) // 2)


def _distinct_signature(f: IntPolynomial) -> RootSignature:
    """root_signature of the squarefree part of f (degree >= 1), read from
    the analysis of f itself."""
    a = _analysis(f)
    zero = 1 if a.zeros else 0
    r = zero + sum(real for _, _, real in a.factors)
    n = zero + sum(fac.degree for fac, _, _ in a.factors)
    return RootSignature(r, (n - r) // 2)


# -- factorization ------------------------------------------------------------


def _divisors(n: int) -> List[int]:
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def factorize(f: IntPolynomial, degree_cap: int = DEFAULT_DEGREE_CAP) -> FactorizationResult:
    """Certified factorization of f over the integers into content and
    primitive irreducible factors with positive leading coefficients.

    Degrees above degree_cap raise DegreeCapExceeded: the Kronecker
    search enumerates divisor tuples, exponential in the factor degree.
    """
    if f.is_zero:
        raise ZeroPolynomial("factorization of the zero polynomial")
    n = f.degree
    if n > degree_cap:
        raise DegreeCapExceeded("degree %d above factorization cap %d" % (n, degree_cap))
    content = f.content()
    if f.coeffs[0] < 0:
        content = -content
    p = f.monic_positive()
    if p.degree == 0:
        return FactorizationResult(content, (), False)
    found: Dict[Tuple[int, ...], int] = {}
    v, p = _deflate_zero_roots(p)
    if v:
        found[(1, 0)] = v
    while p.degree >= 1:
        root = _find_rational_root(p)
        if root is None:
            break
        num, den = root
        lin = IntPolynomial((den, -num))
        while True:
            try:
                p = divmod_exact(p, lin)
            except BadParameters:
                break
            found[lin.coeffs] = found.get(lin.coeffs, 0) + 1
            if p.degree == 0:
                break
        p = p.monic_positive()
    if p.degree >= 1:
        for fac, mult in squarefree_decomposition(p).factors:
            for piece in _factor_squarefree(fac):
                found[piece.coeffs] = found.get(piece.coeffs, 0) + mult
    factors = tuple(
        sorted(
            ((IntPolynomial(k), m) for k, m in found.items()),
            key=lambda t: (t[0].degree, t[0].coeffs),
        )
    )
    irreducible = len(factors) == 1 and factors[0][1] == 1
    return FactorizationResult(content, factors, irreducible)


def _find_rational_root(p: IntPolynomial) -> Optional[Tuple[int, int]]:
    """Some rational root num/den of p (primitive, constant term != 0),
    or None; den | leading and num | constant with gcd(num, den) = 1."""
    if p.coeffs[-1] == 0:
        return (0, 1)
    for den in _divisors(p.coeffs[0]):
        for num_abs in _divisors(p.coeffs[-1]):
            for num in (num_abs, -num_abs):
                if math.gcd(num, den) != 1:
                    continue
                acc = 0
                dpow = 1
                for c in p.coeffs:
                    acc = acc * num + c * dpow
                    dpow *= den
                if acc == 0:
                    return (num, den)
    return None


def _factor_squarefree(w: IntPolynomial) -> List[IntPolynomial]:
    """Irreducible factors of a primitive squarefree w without rational
    roots (so every factor has degree >= 2)."""
    d = w.degree
    if d <= 3:
        return [w]  # no rational root means irreducible for degree <= 3
    admissible = _sieve_factor_degrees(w)
    for k in sorted(x for x in admissible if 2 <= x <= d // 2):
        g = _kronecker_search(w, k)
        if g is not None:
            rest = divmod_exact(w, g).monic_positive()
            return sorted(
                _factor_squarefree(g) + _factor_squarefree(rest),
                key=lambda t: (t.degree, t.coeffs),
            )
    return [w]


def _sieve_factor_degrees(w: IntPolynomial, primes_to_try: int = 32) -> Set[int]:
    """Degrees a factor of w could have: the intersection over good
    primes of the subset sums of the mod-p factor degree pattern.

    A pattern costs about 0.1 ms at degree 8, a Kronecker search on
    20-bit coefficients up to seconds. About 2.5% of irreducible dense
    polynomials of degree 4-8 need 9-19 good primes before no degree is
    left, so the sieve stops only at an empty set or after 32 of them."""
    d = w.degree
    possible: Optional[Set[int]] = None
    used = 0
    for pr in primes_up_to(500):
        if used >= primes_to_try:
            break
        pat = factor_degree_pattern(w, pr)
        if pat is None:
            continue
        used += 1
        sums = {0}
        for part in pat:
            sums |= {s + part for s in sums}
        possible = sums if possible is None else (possible & sums)
        if not any(1 <= k <= d // 2 for k in possible):
            break
    if possible is None:
        return set(range(d + 1))
    return possible


def _kronecker_search(w: IntPolynomial, k: int) -> Optional[IntPolynomial]:
    """A degree-k factor of w found by interpolating divisor tuples, or
    None. Complete for the given k: any factor g satisfies
    g(x_i) | w(x_i) at the k+1 integer sample points."""
    from itertools import product as iproduct

    xs: List[int] = []
    vals: List[int] = []
    t = 0
    while len(xs) < k + 1:
        for x in (t,) if t == 0 else (t, -t):
            if len(xs) >= k + 1:
                break
            val = w.eval_at(x)
            if val != 0:  # impossible (no rational roots); defensive
                xs.append(x)
                vals.append(val)
        t += 1
    divlists: List[List[int]] = []
    for i, val in enumerate(vals):
        ds = _divisors(val)
        if i == 0:
            divlists.append(ds)  # fix sign: g and -g divide alike
        else:
            divlists.append([s * d0 for d0 in ds for s in (1, -1)])
    lead_w = w.coeffs[0]
    for combo in iproduct(*divlists):
        g = _interpolate(xs, combo)
        if g is None or g.degree != k or lead_w % g.coeffs[0] != 0:
            continue
        try:
            divmod_exact(w, g)
        except BadParameters:
            continue
        return g.monic_positive()
    return None


# -- Galois certification ------------------------------------------------------


def sn_certificate(
    f: IntPolynomial,
    prime_bound: int = DEFAULT_PRIME_BOUND,
    assume_irreducible: bool = False,
) -> SnCertificate:
    """One-sided S_n certificate for an irreducible f of degree n >= 2.

    Scans primes p <= prime_bound with good reduction (p does not
    divide lc(f) disc(f)) for factor degree patterns equal to the cycle
    types {n}, {1, n-1} and {2, 1, ..., 1}; all three present certify
    the Galois group is S_n. UNDECIDED never implies a smaller group,
    and for some inputs (X^4+1) no certificate exists at any bound.
    """
    n = f.degree
    if n < 2:
        raise DegreeTooSmall("S_n certification needs degree >= 2")
    if not assume_irreducible and not factorize(f).irreducible:
        raise NotIrreducible("polynomial is not irreducible: %s" % (f,))
    if n == 2:
        return SnCertificate("CERTIFIED_SN", (), prime_bound)
    targets: Dict[Tuple[int, ...], Optional[int]] = {
        (n,): None,
        tuple(sorted((1, n - 1))): None,
        tuple(sorted([1] * (n - 2) + [2])): None,
    }
    witnesses: List[Tuple[int, Tuple[int, ...]]] = []
    for p in primes_up_to(prime_bound):
        pat = factor_degree_pattern(f, p)
        if pat is None:
            continue
        if pat in targets and targets[pat] is None:
            targets[pat] = p
            witnesses.append((p, pat))
            if all(v is not None for v in targets.values()):
                break
    verdict = "CERTIFIED_SN" if all(v is not None for v in targets.values()) else "UNDECIDED"
    return SnCertificate(verdict, tuple(witnesses), prime_bound)


# -- multiplicative relations ---------------------------------------------------


def has_multiplicative_relation(f: IntPolynomial, prefilter: bool = True) -> bool:
    """True iff the pairwise product polynomial prod_{i<j}(X - a_i a_j)
    of the roots of f (degree n >= 4) has a repeated root, i.e. some
    alpha_1 alpha_2 = alpha_3 alpha_4 over two different index pairs.

    Squareful f reports True (a repeated root already collides pair
    products), as does any zero root (all its pair products are 0).
    The exact decider is discriminant(root_product_poly(f)) == 0; with
    prefilter=True a certified numeric separation of all pairwise
    products proves the negative cheaply, and only collisions fall
    through to exact arithmetic.
    """
    return _relation_detail(f, prefilter=prefilter)[0]


def _relation_detail(f: IntPolynomial, prefilter: bool = True) -> Tuple[bool, str]:
    n = f.degree
    if n < 4:
        raise DegreeTooSmall("multiplicative relations need degree >= 4")
    a = _analysis(f)
    if a.zeros >= 2 or any(m >= 2 for _, m, _ in a.factors):
        return True, "squareful"
    if f.coeffs[-1] == 0:
        # one zero root (f squarefree here): its n-1 >= 3 pair products
        # all vanish, a repeated root of the product polynomial
        return True, "zero-products"
    if prefilter and _products_separated(f):
        return False, "separated"
    rp = root_product_poly(f)
    if discriminant(rp) == 0:
        return True, "product-collision"
    return False, "product-separation-exact"


def _products_separated(g: IntPolynomial) -> bool:
    """Certified proof that all pairwise root products of g (squarefree,
    no zero roots) are distinct, via exact rational disjointness of
    product enclosures: D(c1, r1) * D(c2, r2) lies inside
    D(c1 c2, |c1| r2 + |c2| r1 + r1 r2). False only means "not shown"."""
    try:
        rs = isolate_roots(g)
    except PrecisionCapExceeded:
        return False
    for attempt in range(2):
        cs: List[Tuple[Fraction, Fraction, Fraction]] = []
        for d in rs.disks:
            re = mpf_to_fraction(d.center_re)
            im = mpf_to_fraction(d.center_im)
            r = mpf_to_fraction(d.radius)
            cs.append((re, im, r))
        prods: List[Tuple[Fraction, Fraction, Fraction]] = []
        m = len(cs)
        for i in range(m):
            for j in range(i + 1, m):
                are, aim, ar = cs[i]
                bre, bim, br = cs[j]
                pre = are * bre - aim * bim
                pim = are * bim + aim * bre
                amod = _fraction_sqrt_upper(are * are + aim * aim)
                bmod = _fraction_sqrt_upper(bre * bre + bim * bim)
                prods.append((pre, pim, amod * br + bmod * ar + ar * br))
        ok = True
        for i in range(len(prods)):
            for j in range(i + 1, len(prods)):
                dre = prods[i][0] - prods[j][0]
                dim = prods[i][1] - prods[j][1]
                rr = prods[i][2] + prods[j][2]
                if dre * dre + dim * dim <= rr * rr:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
        if attempt == 0:
            try:
                rs = refine(rs, Fraction(1, 10**25))
            except PrecisionCapExceeded:
                return False
    return False
