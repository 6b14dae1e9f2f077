"""Dense polynomial arithmetic over F_p, distinct-degree factor patterns
and root counts mod p.

Used for Galois-group certification: for a prime p dividing neither the
leading coefficient nor the discriminant, the multiset of irreducible
factor degrees of f mod p equals the cycle type of the Frobenius element
acting on the roots. Only the degree pattern is needed, so factorization
stops at the distinct-degree stage.

At such a good prime the number of distinct roots of f mod p is the
number of linear factors, i.e. of 1s in the pattern. root_counts gives
that number for many primes at once by evaluating f on the whole grid
0..p-1 in numpy: O(n p) work per prime against the O(n^2 log p) of the
first distinct-degree step, so it is the cheaper test for small p, and
sn_certificate uses it to skip, below a fixed prime cutoff, every prime
whose count rules out each cycle type still missing.

Polynomials in this module are ascending coefficient lists of ints in
[0, p); the public entry points take an IntPolynomial.
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


def _mulmod(a: List[int], b: List[int], p: int) -> List[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _trim(out)


def _divmod(a: List[int], b: List[int], p: int) -> Tuple[List[int], List[int]]:
    """(q, r) with a = q b + r and deg r < deg b over F_p; b nonzero."""
    r = a[:]
    db = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    q = [0] * (len(r) - db)
    while len(r) - 1 >= db and r:
        if r[-1] == 0:
            r.pop()
            continue
        k = len(r) - 1 - db
        t = (r[-1] * inv) % p
        q[k] = t
        for i in range(db + 1):
            r[k + i] = (r[k + i] - t * b[i]) % p
        r.pop()
        _trim(r)
    return _trim(q), _trim(r)


def _rem(a: List[int], b: List[int], p: int) -> List[int]:
    """a mod b over F_p; b nonzero."""
    return _divmod(a, b, p)[1]


def _gcd(a: List[int], b: List[int], p: int) -> List[int]:
    a, b = _trim(a[:]), _trim(b[:])
    while b:
        a, b = b, _rem(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [(c * inv) % p for c in a]
    return a


def _powmod(base: List[int], e: int, f: List[int], p: int) -> List[int]:
    """base^e mod (f, p), square and multiply."""
    result = [1]
    base = _rem(base, f, p)
    while e:
        if e & 1:
            result = _rem(_mulmod(result, base, p), f, p)
        base = _rem(_mulmod(base, base, p), f, p)
        e >>= 1
    return result


def factor_degree_pattern(f: IntPolynomial, p: int) -> Optional[Tuple[int, ...]]:
    """Sorted degrees of the irreducible factors of f mod p, or None when
    the prime is unusable (p divides the leading coefficient, or f mod p
    is not squarefree)."""
    n = f.degree
    if n < 1 or f.coeffs[0] % p == 0:
        return None
    a = [c % p for c in reversed(f.coeffs)]
    a = _trim(a)
    # derivative
    da = _trim([(i * a[i]) % p for i in range(1, len(a))])
    if not da:
        return None  # f' = 0 mod p: certainly not squarefree for deg >= 1
    if len(_gcd(a, da, p)) - 1 != 0:
        return None  # not squarefree mod p
    # monic normalize
    inv = pow(a[-1], p - 2, p)
    a = [(c * inv) % p for c in a]
    pattern: List[int] = []
    h = [0, 1]  # x
    d = 0
    rem_deg = len(a) - 1
    while rem_deg > 0:
        d += 1
        if 2 * d > rem_deg:
            pattern.append(rem_deg)
            break
        h = _powmod(h, p, a, p)
        diff = h[:]
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        g = _gcd(a, _trim(diff), p)
        dg = len(g) - 1
        if dg > 0:
            pattern.extend([d] * (dg // d))
            a = _divmod(a, g, p)[0]
            h = _rem(h, a, p)
            rem_deg = len(a) - 1
    return tuple(sorted(pattern))


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
