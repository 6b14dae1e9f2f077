"""Constructive families against frozen closed-form oracles.

The perturbation bounds for X^2 - 1 at gamma = 1/2 evaluate by hand to
M = 19/4, delta = 3/4, eps = 3/19 (up to conservative rounding down);
X - 5 with its default gamma = 1 gives delta = 1, M = 7, eps = 1/7.
Family membership claims (every member has the advertised modulus
profile or signature) are checked member by member with the certified
classifiers.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rootcensus.census import fit_growth_exponent
from rootcensus.classify import modulus_profile, root_signature
from rootcensus.errors import (
    BadParameters,
    EmptyRegion,
    EmptyStream,
    GammaTooLarge,
    HTooSmall,
    TargetNotSeparated,
)
from rootcensus.generators import (
    TargetSpec,
    near_target_family,
    near_target_intervals,
    perturbation_bounds,
    showcase_families,
    sn_filtered_family,
    theorem31_family,
    validate_family,
)
from rootcensus.intpoly import IntPolynomial, coeff_string

_TINY = Fraction(1, 10**12)


# -- perturbation bounds -----------------------------------------------------


def test_bounds_x2_minus_1_closed_form():
    pb = perturbation_bounds(IntPolynomial((1, 0, -1)), Fraction(1, 2))
    assert pb.gamma == Fraction(1, 2)
    assert 0 <= pb.M - Fraction(19, 4) < _TINY
    assert 0 <= Fraction(3, 4) - pb.delta < _TINY
    assert 0 <= Fraction(3, 19) - pb.eps < _TINY


def test_bounds_single_root_closed_form():
    # X - 5: default gamma is 1, disk |z - 5| <= 1, M = 7, delta = 1
    pb = perturbation_bounds(IntPolynomial((1, -5)), 1)
    assert pb.delta == 1
    assert 0 <= pb.M - 7 < _TINY
    assert 0 <= Fraction(1, 7) - pb.eps < _TINY


def test_bounds_squareful_multiplicity_exponents():
    # (X-1)^2 (X+2) at gamma = 1/2:
    # delta = min over j of prod_{k != j} gap^e_k = min(g^2 * (3-g),
    # g * (3-g)^2) = 5/8 at g = 1/2
    pb = perturbation_bounds(IntPolynomial((1, 0, -3, 2)), Fraction(1, 2))
    assert 0 <= Fraction(5, 8) - pb.delta < Fraction(1, 10**10)


def test_bounds_gamma_too_large():
    # roots of X^2 - 1 sit at distance 2; gamma must stay below half
    with pytest.raises(GammaTooLarge):
        perturbation_bounds(IntPolynomial((1, 0, -1)), Fraction(6, 5))
    with pytest.raises(GammaTooLarge):
        perturbation_bounds(IntPolynomial((1, 0, -1)), 1)


@given(st.fractions(min_value=0, max_denominator=10**30).filter(lambda q: q < 10**40))
@example(Fraction(0))
@example(Fraction(1, 3))
@example(Fraction(9, 49))
@example(Fraction(2) ** 200 / 7)
def test_sqrt_bounds_bracket_on_the_grid(q):
    from rootcensus.generators import _SQRT_BITS, _sqrt_bounds

    lo, hi = _sqrt_bounds(q)
    assert 0 <= lo and lo * lo <= q <= hi * hi
    assert hi - lo == (Fraction(1, q.denominator << _SQRT_BITS) if q else 0)


def test_bounds_default_gamma_quarter_gap():
    pb = perturbation_bounds(IntPolynomial((1, 0, -1)))
    assert abs(float(pb.gamma) - 0.5) < 1e-6


# -- target specs ---------------------------------------------------------------


def test_target_validation():
    with pytest.raises(TargetNotSeparated):
        TargetSpec.from_complex([1j, -1j, 1j, -1j]).validate()
    with pytest.raises(BadParameters):
        TargetSpec.from_complex([1j, 2j]).validate()
    TargetSpec.from_complex([1.0, 1j, -1j]).validate()


def test_intervals_h_too_small():
    with pytest.raises(HTooSmall):
        near_target_intervals(TargetSpec.from_complex([0.5, -0.5]), 2)


# -- near-target families ----------------------------------------------------------


def test_quartet_family_lands_in_profile_2_2():
    # targets {+-i, +-i sqrt5}: two moduli, each from a conjugate pair
    s5 = math.sqrt(5)
    tgt = TargetSpec.from_complex([1j, -1j, complex(0, s5), complex(0, -s5)])
    members = list(near_target_family(tgt, 50, budget=60, seed=7))
    assert len(members) == 60
    for f in members:
        prof = modulus_profile(f)
        assert (prof.k_max, prof.k_min) == (2, 2), coeff_string(f)
        assert root_signature(f).r == 0


def test_real_targets_give_real_members():
    tgt = TargetSpec.from_complex([1.0, -1.0])
    for f in near_target_family(tgt, 100, budget=30, seed=3):
        assert root_signature(f) == root_signature(IntPolynomial((1, 0, -1)))


def test_dominant_target_gives_dominant_members():
    tgt = TargetSpec.from_complex([2.0, 1j, -1j])
    for f in near_target_family(tgt, 100, budget=30, seed=5):
        assert modulus_profile(f).dominant
        assert root_signature(f).r == 1


def test_family_size_grows_like_height_power():
    # the coefficient box has side ~ 2 eps H per coefficient
    from rootcensus.generators import _target_bounds

    tgt = TargetSpec.from_complex([1.0, -1.0])
    eps = _target_bounds(tgt).eps
    for H in (50, 100):
        size = 1
        for lo, hi in near_target_intervals(tgt, H):
            size *= hi - lo + 1
        assert size >= math.floor(2 * eps * H) ** (tgt.n + 1)


def test_streams_deterministic():
    tgt = TargetSpec.from_complex([2.0, 1j, -1j])
    e1 = [coeff_string(f) for f in near_target_family(tgt, 80, budget=10, enumerate_all=True)]
    e2 = [coeff_string(f) for f in near_target_family(tgt, 80, budget=10, enumerate_all=True)]
    s1 = [coeff_string(f) for f in near_target_family(tgt, 80, budget=10, seed=11)]
    s2 = [coeff_string(f) for f in near_target_family(tgt, 80, budget=10, seed=11)]
    assert e1 == e2 and s1 == s2 and e1 != s1


def test_monic_variant():
    tgt = TargetSpec.from_complex([1.0, -1.0])
    members = None
    for H in (4, 10, 30, 100, 300):
        try:
            members = list(near_target_family(tgt, H, budget=5, monic=True, enumerate_all=True))
            break
        except HTooSmall:
            continue
    assert members
    assert all(f.coeffs[0] == 1 for f in members)


# -- the monic non-dominant family ----------------------------------------------------


def test_theorem31_count_and_ranges():
    mem = list(theorem31_family(2, 100, Fraction(1, 2)))
    assert len(mem) == 380
    for f in mem:
        assert f.coeffs[0] == 1
        assert -5 <= f.coeffs[1] <= -1
        assert 25 <= f.coeffs[2] <= 100


def test_theorem31_k_max_claim():
    rep = validate_family(
        theorem31_family(2, 100, Fraction(1, 2)),
        lambda f: modulus_profile(f).k_max == 2,
        sample=380,
    )
    assert rep["pass_fraction"] == 1.0


def test_theorem31_growth_exponent():
    # member count should scale like H^(n + 1/2) = H^1.5 for n = 2
    counts = [
        (H, sum(1 for _ in theorem31_family(2, H, Fraction(1, 2))))
        for H in (100, 400, 1600)
    ]
    fit = fit_growth_exponent(counts)
    assert 1.4 <= fit.slope <= 1.6


def test_theorem31_chain_constraints():
    m4 = list(theorem31_family(4, 3, Fraction(9, 10)))
    assert m4 and all(f.coeffs[3] <= f.coeffs[2] for f in m4)
    m5 = list(theorem31_family(5, 2, Fraction(9, 10)))
    assert m5 and all(
        f.coeffs[3] <= f.coeffs[2] and f.coeffs[5] <= f.coeffs[4] for f in m5
    )


def test_theorem31_force_no_real():
    m4 = list(theorem31_family(4, 3, Fraction(9, 10)))
    mfr = list(theorem31_family(4, 3, Fraction(9, 10), force_no_real=True))
    assert 0 < len(mfr) < len(m4)
    assert all(root_signature(f).r == 0 for f in mfr)
    with pytest.raises(BadParameters):
        list(theorem31_family(3, 5, Fraction(1, 2), force_no_real=True))


def test_theorem31_empty_region():
    with pytest.raises(EmptyRegion):
        list(theorem31_family(2, 1, Fraction(1, 100)))


def test_theorem31_bad_delta():
    for bad in (0, 1, Fraction(3, 2)):
        with pytest.raises(BadParameters):
            list(theorem31_family(2, 10, bad))


# -- showcase families ------------------------------------------------------------------


def test_a3_star_3_members():
    fam = list(showcase_families("A3_STAR_3", 3, 10))
    assert len(fam) == 2 * 100
    assert IntPolynomial((7, 0, 0, 3)) in fam
    for f in random.Random(1).sample(fam, 20):
        assert modulus_profile(f).k_max == 3


def test_x3plus8_members():
    fam = list(showcase_families("X3PLUS8", 4, 90))
    assert IntPolynomial((1, 0, 0, 8)) * IntPolynomial((9, 4)) in fam
    assert all(f.height <= 90 for f in fam)
    assert all(modulus_profile(f).k_max == 3 for f in fam)


def test_showcase_parameter_errors():
    with pytest.raises(BadParameters):
        list(showcase_families("X3PLUS8", 4, 90, params=("1/36", "1/18", "1/12", "1/8")))
    with pytest.raises(BadParameters):
        list(showcase_families("A3_STAR_3", 4, 10))
    with pytest.raises(BadParameters):
        list(showcase_families("NOPE", 3, 10))


# -- validation plumbing --------------------------------------------------------------------


def test_validate_family_negative_control():
    rep = validate_family(
        showcase_families("A3_STAR_3", 3, 4),
        lambda f: modulus_profile(f).k_max == 1,
        sample=10,
    )
    assert rep["pass_fraction"] == 0.0
    assert rep["first_counterexample"] is not None


def test_validate_family_empty_stream():
    with pytest.raises(EmptyStream):
        validate_family(iter(()), lambda f: True)


def test_sn_filtered_family_reports():
    kept, rep = sn_filtered_family(
        TargetSpec.from_complex([2.0, 1j, -1j]), 100, budget=30, seed=2
    )
    assert rep["sampled"] == 30
    assert rep["kept"] == len(kept) > 0
    assert rep["kept"] + rep["discarded_reducible"] + rep["discarded_undecided"] == 30


def test_sn_filtered_family_keeps_every_linear_member():
    # a one-point target gives linear members, each irreducible with the
    # full group S_1
    kept, rep = sn_filtered_family(TargetSpec(((Fraction(1, 2), Fraction(0)),)), 20, budget=5)
    assert rep["sampled"] == rep["kept"] == len(kept) == 5
    assert all(f.degree == 1 for f in kept)
