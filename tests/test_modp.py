"""Mod-p degree patterns against sympy factor lists, root counts
against a per-prime brute force.

A usable prime (not dividing the leading coefficient, reduction
squarefree) must reproduce the sorted multiset of irreducible factor
degrees of f mod p; unusable primes must be reported as None. At a
usable prime the root count is the number of linear factors.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest
import sympy

from rootcensus import modp
from rootcensus.intpoly import IntPolynomial, discriminant
from rootcensus.modp import factor_degree_pattern, primes_up_to, root_counts

_X = sympy.symbols("x")


def _sympy_pattern(f: IntPolynomial, p: int):
    poly = sympy.Poly(list(f.coeffs), _X, modulus=p, symmetric=False)
    _, facs = poly.factor_list()
    out = []
    for g, m in facs:
        out.extend([g.degree()] * m)
    return tuple(sorted(out))


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_up_to(200)) == 46


def test_cyclotomic_x4_plus_1_patterns():
    # x^4+1 is reducible mod every prime: pattern is never (4,) for odd p
    f = IntPolynomial((1, 0, 0, 0, 1))
    for p in primes_up_to(60):
        pat = factor_degree_pattern(f, p)
        if pat is None:
            assert p == 2  # only bad reduction
        else:
            assert pat in ((1, 1, 1, 1), (2, 2), (1, 1, 2))
            assert pat == _sympy_pattern(f, p)


def test_known_irreducible_patterns():
    # x^2+1: irreducible mod p iff p = 3 mod 4
    f = IntPolynomial((1, 0, 1))
    for p in primes_up_to(50):
        pat = factor_degree_pattern(f, p)
        if p == 2:
            assert pat is None
        elif p % 4 == 3:
            assert pat == (2,)
        else:
            assert pat == (1, 1)


def test_bad_leading_coefficient():
    f = IntPolynomial((6, 1, 1))
    assert factor_degree_pattern(f, 2) is None
    assert factor_degree_pattern(f, 3) is None
    assert factor_degree_pattern(f, 5) is not None


def test_non_squarefree_reduction_is_none():
    # (x-1)^2 mod every p is never squarefree
    f = IntPolynomial((1, -2, 1))
    for p in primes_up_to(30):
        assert factor_degree_pattern(f, p) is None
    # disc(x^2 - x - 1) = 5, so exactly p = 5 is a bad reduction
    g = IntPolynomial((1, -1, -1))
    assert factor_degree_pattern(g, 5) is None
    assert factor_degree_pattern(g, 3) == (2,)


def test_patterns_match_sympy_seeded():
    rng = random.Random(909)
    primes = primes_up_to(60)
    checked = 0
    for _ in range(120):
        n = rng.randint(1, 6)
        cs = [rng.randint(-9, 9) for _ in range(n + 1)]
        if cs[0] == 0:
            cs[0] = 1
        f = IntPolynomial(tuple(cs))
        disc = discriminant(f)
        for p in primes:
            pat = factor_degree_pattern(f, p)
            if f.coeffs[0] % p == 0 or disc % p == 0:
                assert pat is None or sum(pat) == f.degree
                continue
            assert pat is not None
            assert pat == _sympy_pattern(f, p), (f.coeffs, p)
            checked += 1
    assert checked > 1000


def test_patterns_match_sympy_at_every_prime_below_2000():
    # degrees 1-10 with coefficients up to 2^70, one of them times X^2 + 1
    rng = random.Random(2000)
    polys = []
    for n, bits in ((1, 70), (7, 3), (8, 70), (10, 20)):
        cs = [rng.choice((-1, 1)) * rng.getrandbits(bits) for _ in range(n + 1)]
        polys.append(IntPolynomial((cs[0] or 1,) + tuple(cs[1:])))
    polys.append(polys[2] * IntPolynomial((1, 0, 1)))
    checked = 0
    for f in polys:
        disc = discriminant(f)
        for p in primes_up_to(2000):
            pat = factor_degree_pattern(f, p)
            if f.coeffs[0] % p == 0 or disc % p == 0:
                assert pat is None, (f.coeffs, p)
            else:
                assert pat == _sympy_pattern(f, p), (f.coeffs, p)
                checked += 1
    assert checked > 1400


def test_one_frobenius_power_per_pattern(monkeypatch):
    # X^8 - X - 1 is irreducible, and so mod 7 and 13: four distinct-degree
    # steps each, from one X^p
    f = IntPolynomial((1, 0, 0, 0, 0, 0, 0, -1, -1))
    powers = []
    pow_x = modp._pow_x
    monkeypatch.setattr(modp, "_pow_x", lambda e, ring: powers.append(e) or pow_x(e, ring))
    assert [factor_degree_pattern(f, p) for p in (7, 13)] == [(8,), (8,)]
    assert powers == [7, 13]


def test_modulus_below_2_rejected():
    f = IntPolynomial((1, 0, 1))
    for bad in (1, 0, -2):
        with pytest.raises(ValueError):
            factor_degree_pattern(f, bad)
    # a negative modulus must not hang: run it where a hang is cut off
    src = os.path.dirname(os.path.dirname(modp.__file__))
    code = ("from rootcensus.intpoly import IntPolynomial\n"
            "from rootcensus.modp import factor_degree_pattern\n"
            "try:\n    factor_degree_pattern(IntPolynomial((1, 0, 1)), -3)\n"
            "except ValueError:\n    print('refused')\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout == "refused\n", proc.stderr


def _brute_root_count(f: IntPolynomial, p: int) -> int:
    return sum(1 for x in range(p) if f.eval_at(x) % p == 0)


def test_root_counts_match_brute_force():
    rng = random.Random(4242)
    primes = primes_up_to(400)
    assert len(primes) * primes[-1] > modp._GRID_BLOCK  # more than one block
    polys = [
        # 70-bit and negative coefficients: reduced mod p before numpy
        IntPolynomial(tuple(rng.choice((-1, 1)) * rng.getrandbits(70) for _ in range(n + 1)))
        for n in (1, 3, 5, 8)
    ]
    polys += [
        IntPolynomial((2 * 3 * 5 * 7 * (1 << 66), -(3 << 64) - 1, 0, 5)),  # p | lc for p <= 7
        IntPolynomial((1, 2, -3, -4, 4)),  # (X^2 + X - 2)^2: never squarefree
        IntPolynomial((1, 0, -5)),  # squarefree except mod 2 and 5
        IntPolynomial((6, 0, 6)),  # vanishes mod 2 and 3: every x is a root
    ]
    for f in polys:
        assert list(root_counts(f, primes)) == [_brute_root_count(f, p) for p in primes], f
    assert factor_degree_pattern(polys[-2], 5) is None and polys[-2].coeffs[0] % 5
    # moduli in any order, one wider than a whole block
    wide = [16411, 3, 5, 2]
    assert wide[0] > modp._GRID_BLOCK
    f = polys[2]
    assert list(root_counts(f, wide)) == [_brute_root_count(f, p) for p in wide]


def test_root_counts_are_the_linear_factors_at_good_primes():
    rng = random.Random(77)
    primes = primes_up_to(120)
    for _ in range(40):
        n = rng.randint(2, 9)
        tail = tuple(rng.randint(-(1 << 40), 1 << 40) for _ in range(n))
        f = IntPolynomial((rng.randint(1, 1 << 40),) + tail)
        for p, count in zip(primes, root_counts(f, primes)):
            pat = factor_degree_pattern(f, p)
            if pat is not None:
                assert count == pat.count(1), (f.coeffs, p)


def test_root_counts_modulus_range():
    f = IntPolynomial((1, 0, 1))
    for bad in ([1], [7, 1 << 31]):
        with pytest.raises(ValueError):
            list(root_counts(f, bad))
    assert list(root_counts(f, [])) == []
    assert list(root_counts(IntPolynomial(()), [2, 3])) == [2, 3]
