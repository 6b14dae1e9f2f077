"""Distinct-degree factor patterns and root counts of integer
polynomials mod p.

Used for Galois-group certification: for a prime p dividing neither the
leading coefficient nor the discriminant, the multiset of irreducible
factor degrees of f mod p equals the cycle type of the Frobenius element
acting on the roots. Only the degree pattern is needed, so factorization
stops at the distinct-degree stage.

factor_degree_pattern computes X^p mod f once and from it the Frobenius
(Berlekamp) matrix Q, whose row i is X^(ip) mod f; since h^p = h(X^p)
over F_p, each further distinct-degree step is one product h Q. A
residue mod f is one Python int of coefficient slots (_Packed), so each
product is one big-int multiplication. The gcds stay on short
coefficient lists.

At a good prime the number of distinct roots of f mod p is the
number of linear factors, i.e. of 1s in the pattern. root_counts gives
that number for many primes at once by evaluating f on the whole grid
0..p-1 in numpy: O(n p) work per prime against the log p products of
X^p mod f and the gcds of a pattern, and sn_certificate uses it to skip,
below a fixed prime cutoff, every prime whose count rules out each
cycle type still missing.

Coefficient lists in this module are ascending, of ints in [0, p); the
public entry points take an IntPolynomial.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .intpoly import IntPolynomial

__all__ = ["factor_degree_pattern", "primes_up_to", "root_counts"]

# grid points evaluated at once: a block of primes is a row per prime,
# as wide as its largest prime (a prime wider than this gets its own row);
# blocks start at _FIRST_BLOCK points and grow fourfold up to _GRID_BLOCK
_FIRST_BLOCK = 1 << 9
_GRID_BLOCK = 1 << 14


def primes_up_to(bound: int) -> List[int]:
    """All primes <= bound (simple sieve)."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(bound**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(range(i * i, bound + 1, i))
    return [i for i in range(2, bound + 1) if sieve[i]]


def _trim(a: List[int]) -> List[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gcd_degree(a: List[int], b: List[int], p: int) -> int:
    """Degree of gcd(a, b) over F_p, by Euclid's algorithm; a nonzero."""
    a, b = a[:], _trim(b[:])
    while b:
        db = len(b) - 1
        inv = p - pow(b[-1], p - 2, p)
        neg = [c * inv % p for c in b[:-1]]  # -b / lc(b), below the top
        while len(a) > db:
            t = a.pop()
            if t:
                for i, c in enumerate(neg, len(a) - db):
                    a[i] = (a[i] + t * c) % p
        a, b = b, _trim(a)
    return len(a) - 1


class _Packed:
    """Arithmetic mod (f, p) for a monic f of degree n over F_p. A residue
    of degree < n is one int whose slot i, w = bitlen(2 n p^2) bits at bit
    w i, holds the coefficient of X^i in [0, p) (Kronecker substitution),
    so a product is one big-int multiplication. reduce folds its high
    slots back from the top, slot k times X^(k-n) (X^n mod f), and takes
    every low slot mod p once; each slot sums fewer than 2n terms below
    p^2, so none carries into the next."""

    def __init__(self, a: List[int], p: int) -> None:
        n = len(a) - 1
        self.p = p
        self.w = w = (2 * n * p * p).bit_length()
        self.mask = (1 << w) - 1
        self.low = (1 << (n * w)) - 1
        self.shifts = range(0, n * w, w)
        x_n = sum((-c % p) << s for c, s in zip(a, self.shifts))  # X^n mod f
        self.tops = range((2 * n - 1) * w, n * w - 1, -w)
        self.folds = [x_n << (s - n * w) for s in self.tops]

    def coeffs(self, v: int) -> List[int]:
        """The n slots of v, each mod p."""
        return [((v >> s) & self.mask) % self.p for s in self.shifts]

    def reduce(self, v: int) -> int:
        """v of up to 2n slots, each below 2^w, mod (f, p)."""
        m, p = self.mask, self.p
        for s, fold in zip(self.tops, self.folds):
            c = ((v >> s) & m) % p
            if c:
                v += c * fold
        v &= self.low
        return sum((((v >> s) & m) % p) << s for s in self.shifts)


def _pow_x(e: int, ring: _Packed) -> int:
    """X^e mod (f, p), packed: square, times X by a shift, for each bit of e."""
    v = 1
    for bit in bin(e)[2:]:
        v *= v
        if bit == "1":
            v <<= ring.w
        v = ring.reduce(v)
    return v


def factor_degree_pattern(f: IntPolynomial, p: int) -> Optional[Tuple[int, ...]]:
    """Sorted degrees of the irreducible factors of f mod p, or None when
    the prime is unusable (p divides the leading coefficient, or f mod p
    is not squarefree). p must be prime: a composite modulus returns a
    meaningless pattern, and a modulus below 2 raises ValueError.

    Distinct-degree factorization over F_p: X^p mod f is computed once,
    and with it the Frobenius matrix Q whose row i is X^(ip) mod f, so
    that h^p = h(X^p) = sum h_i Q_i takes X^(p^d) to X^(p^(d+1)). Every
    step stays mod f: gcd(f, X^(p^d) - X) is the product of the factors
    of degree dividing d, and those of degree below d are already
    counted."""
    if p < 2:
        raise ValueError("modulus %d below 2" % p)
    n = f.degree
    if n < 1 or f.coeffs[0] % p == 0:
        return None
    a = [c % p for c in reversed(f.coeffs)]
    da = _trim([(i * a[i]) % p for i in range(1, len(a))])
    if not da or _gcd_degree(a, da, p) != 0:
        return None  # f' = 0 mod p, or f mod p not squarefree
    inv = pow(a[-1], p - 2, p)
    a = [(c * inv) % p for c in a]
    ring = _Packed(a, p)
    x_p = _pow_x(p, ring)
    h = ring.coeffs(x_p)
    rows: List[int] = []
    found = [0] * (n + 1)  # found[e]: factors of degree e
    rem_deg = n
    for d in range(1, n // 2 + 1):
        if 2 * d > rem_deg:
            break
        if d > 1:
            if not rows:
                rows = [1, x_p]
                while len(rows) < n:
                    rows.append(ring.reduce(rows[-1] * x_p))
            h = ring.coeffs(sum(c * row for c, row in zip(h, rows) if c))
        h_minus_x = [h[0], (h[1] - 1) % p] + h[2:]
        dg = _gcd_degree(a, h_minus_x, p) - sum(e * found[e] for e in range(1, d) if d % e == 0)
        found[d] = dg // d
        rem_deg -= dg
    # what is left has only factors of degree above rem_deg / 2: one or none
    pattern = [e for e in range(1, n + 1) for _ in range(found[e])]
    return tuple(pattern + [rem_deg] if rem_deg else pattern)


def root_counts(f: IntPolynomial, primes: Sequence[int]) -> Iterator[int]:
    """For each modulus p of primes in turn, the number of x in 0..p-1
    with f(x) = 0 mod p (p when f vanishes mod p).

    Consecutive moduli form blocks of grid points, a row 0..width-1
    per modulus, and f is evaluated on a block by Horner's rule in
    int64. Coefficients are reduced mod p in Python
    first, since they may not fit in 64 bits; after that every value
    stays below a bound tracked in Python ints, and is reduced mod p
    only when the next step could pass 2^63 (about every 60 / log2(p)
    steps), which needs p < 2^31. A block is evaluated only when its
    first count is requested, and the first blocks are small (the
    primes up to 37 for an ascending list), so a caller that stops
    after a few primes pays for a small grid only.
    """
    for p in primes:
        if not 2 <= p < 1 << 31:
            raise ValueError("modulus %d outside [2, 2^31)" % p)
    i, size = 0, _FIRST_BLOCK
    while i < len(primes):
        j, width = i + 1, primes[i]
        while j < len(primes) and (j + 1 - i) * max(width, primes[j]) <= size:
            width = max(width, primes[j])
            j += 1
        block = primes[i:j]
        mods = np.array(block, dtype=np.int64)[:, None]
        x = np.arange(width, dtype=np.int64)
        acc = np.empty((len(block), width), dtype=np.int64)
        coeffs = f.coeffs or (0,)
        acc[:] = _reduced(coeffs[0], block)
        top = width - 1  # every entry of acc is in [0, top]
        for c in coeffs[1:]:
            if (top + 1) * (width - 1) >= 1 << 63:
                acc %= mods
                top = width - 1
            acc *= x
            acc += _reduced(c, block)
            top = (top + 1) * (width - 1)
        acc %= mods
        yield from ((acc == 0) & (x < mods)).sum(axis=1).tolist()
        i, size = j, min(4 * size, _GRID_BLOCK)


def _reduced(c: int, block: Sequence[int]) -> np.ndarray:
    """Column of c mod p over the block, reduced in Python ints."""
    return np.array([c % p for p in block], dtype=np.int64)[:, None]
