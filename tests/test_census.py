"""Exhaustive census engine against hand counts and brute enumeration.

Small boxes are recounted directly with numpy/sympy oracles; the two
engines (scalar and vectorized low-degree kernels), the symmetry
reduction, multiprocess runs and checkpoint resume must all reproduce
the same table byte for byte.
"""

from __future__ import annotations

import itertools
import json
import math
import os

import pytest

from rootcensus.census import (
    CensusSpec,
    CounterTable,
    checkpoint_load,
    counter_table_csv,
    density_report,
    fit_growth_exponent,
    make_work_units,
    run_census,
)
from rootcensus.errors import (
    BadParameters,
    CheckpointCorrupt,
    InsufficientPoints,
    NonpositiveCount,
    SpecMismatch,
)
from rootcensus.intpoly import IntPolynomial


def _box(n: int, height: int, monic: bool):
    rng = range(-height, height + 1)
    if monic:
        for rest in itertools.product(rng, repeat=n):
            yield IntPolynomial((1,) + rest)
    else:
        for a0 in rng:
            if a0 == 0:
                continue
            for rest in itertools.product(rng, repeat=n):
                yield IntPolynomial((a0,) + rest)


# -- hand-verifiable small boxes ----------------------------------------------


def test_monic_quadratic_h1_known():
    # 9 monic quadratics with |b|,|c| <= 1: k_max=1 for 4, k_max=2 for 5
    t = run_census(CensusSpec(n=2, height=1, monic=True, counters=("A",)))
    assert t.totals == 9
    assert t.family("A") == {"1": 4, "2": 5}


def test_full_quadratic_h1_total():
    spec = CensusSpec(n=2, height=1, counters=("A*",))
    t = run_census(spec)
    assert t.totals == spec.total_points == 2 * 9
    assert t.family_total("A*") == t.totals


def test_monic_linear_trivial():
    t = run_census(CensusSpec(n=1, height=3, monic=True, counters=("A",)))
    assert t.totals == 7
    assert t.family("A") == {"1": 7}


def test_dstar_partition_matches_sympy():
    import sympy

    x = sympy.symbols("x")
    spec = CensusSpec(n=2, height=2, counters=("D*",))
    t = run_census(spec)
    want = {}
    for f in _box(2, 2, False):
        r = sum(m for _, m in sympy.Poly(list(f.coeffs), x).real_roots(multiple=False))
        key = "r=%d,s=%d" % (r, (2 - r) // 2)
        want[key] = want.get(key, 0) + 1
    assert t.family("D*") == want
    assert t.family_total("D*") == t.totals


def test_rho_matches_perfect_square_discriminants():
    # monic x^2 + bx + c is reducible over Z iff b^2 - 4c is a perfect square
    spec = CensusSpec(n=2, height=4, monic=True, counters=("RHO",))
    t = run_census(spec)
    want = 0
    for b in range(-4, 5):
        for c in range(-4, 5):
            d = b * b - 4 * c
            if d >= 0 and math.isqrt(d) ** 2 == d:
                want += 1
    assert t.family("rho") == {"m=1": want}


def test_e_upper_counts_all_uncertified():
    # E_upper = reducible members (never S_n) + irreducible members
    # without the three witness patterns below the prime bound
    from rootcensus.classify import factorize, sn_certificate

    spec = CensusSpec(n=3, height=1, counters=("RHO*", "E_UPPER"))
    t = run_census(spec)
    want = 0
    for f in _box(3, 1, False):
        if not factorize(f).irreducible:
            want += 1
        elif sn_certificate(f, assume_irreducible=True).verdict == "UNDECIDED":
            want += 1
    assert t.get("E_upper", "count") == want


def test_bstar_labels_bounded():
    t = run_census(CensusSpec(n=3, height=1, counters=("B*",)))
    for label in t.family("B*"):
        km, kn = label.split(",")
        assert int(km) <= 2 and int(kn) <= 2
    # B*nz is the a_n != 0 sub-box: every cell is at most the full cell
    for label, k in t.family("B*nz").items():
        assert k <= t.get("B*", label)


# -- engine and parallel equivalence ---------------------------------------------


# every counter with a vector labeler, on its box; D* also covers the
# distinct-root D*d fallback on the zero-discriminant rows
VECTOR_COUNTERS = pytest.mark.parametrize(
    "counter,monic",
    [("A", True), ("A*", False), ("B*", False), ("D*", False)],
    ids=["A", "Astar", "Bstar", "Dstar"],
)


@VECTOR_COUNTERS
def test_engines_agree_quadratic(counter, monic):
    base = dict(n=2, height=6, monic=monic, counters=(counter,))
    ts = run_census(CensusSpec(engine="scalar", **base))
    tv = run_census(CensusSpec(engine="vector", **base))
    assert ts == tv


@VECTOR_COUNTERS
def test_engines_agree_cubic(counter, monic):
    base = dict(n=3, height=3, monic=monic, counters=(counter,))
    ts = run_census(CensusSpec(engine="scalar", **base))
    tv = run_census(CensusSpec(engine="vector", **base))
    assert ts == tv
    if counter == "D*":
        assert ts.family("D*d") != ts.family("D*")  # repeated roots were met


def test_symmetry_reduction_equal():
    # symmetry is part of the fingerprint, so compare the payload fields
    base = dict(n=2, height=5, counters=("A*", "D*"))
    plain = run_census(CensusSpec(symmetry=False, **base))
    halved = run_census(CensusSpec(symmetry=True, **base))
    assert plain.totals == halved.totals
    assert plain.ambiguous == halved.ambiguous
    assert plain.counts == halved.counts


def test_jobs_equal():
    base = dict(n=2, height=4, counters=("A*",))
    t1 = run_census(CensusSpec(jobs=1, **base))
    t2 = run_census(CensusSpec(jobs=2, **base))
    assert t1 == t2


def test_work_units_cover_box():
    spec = CensusSpec(n=2, height=10, counters=("A*",))
    units = make_work_units(spec)
    leads = sorted(l for u in units for l in u.leads)
    assert leads == [a for a in range(-10, 11) if a != 0]
    assert len({u.unit_id for u in units}) == len(units)


# -- spec validation ----------------------------------------------------------------


def test_spec_validation_errors():
    with pytest.raises(BadParameters):
        run_census(CensusSpec(n=0, height=1))
    with pytest.raises(BadParameters):
        run_census(CensusSpec(n=2, height=0))
    with pytest.raises(BadParameters):
        run_census(CensusSpec(n=2, height=1, counters=("bogus",)))
    with pytest.raises(BadParameters):
        run_census(CensusSpec(n=2, height=1, counters=("A",)))  # A needs monic
    with pytest.raises(BadParameters):
        run_census(CensusSpec(n=2, height=1, monic=True, counters=("A*",)))
    with pytest.raises(BadParameters):
        run_census(CensusSpec(n=2, height=1, monic=True, counters=("A",), symmetry=True))


def test_duplicate_counter_names_are_one_census(tmp_path):
    once = dict(n=2, height=3, counters=("A*",))
    twice = dict(n=2, height=3, counters=("A*", "A*"))
    clean = run_census(CensusSpec(**once))
    assert run_census(CensusSpec(**twice)) == clean
    path = str(tmp_path / "census.ckpt")
    run_census(CensusSpec(checkpoint=path, **twice), limit_units=2)
    assert run_census(CensusSpec(checkpoint=path, **once)) == clean


def test_permissive_counts_precision_cap_as_ambiguous(monkeypatch):
    from rootcensus import census
    from rootcensus.errors import PrecisionCapExceeded

    profile = census.modulus_profile
    victim = IntPolynomial((1, 1, 1))

    def capped(f, *args, **kwargs):
        if f == victim:
            raise PrecisionCapExceeded("forced cap")
        return profile(f, *args, **kwargs)

    monkeypatch.setattr(census, "modulus_profile", capped)
    base = dict(n=2, height=1, counters=("A*", "B*", "D*"), engine="scalar")
    t = run_census(CensusSpec(permissive=True, **base))
    assert t.ambiguous == 1
    # the ambiguous polynomial lands in no family, D* included
    assert t.family_total("D*") == t.family_total("A*") == t.totals - 1
    with pytest.raises(PrecisionCapExceeded):
        run_census(CensusSpec(**base))


def test_pipeline_analyses_each_polynomial_once(monkeypatch):
    from rootcensus import census, classify, intpoly, roots

    calls = {"squarefree_decomposition": 0, "subresultant_gcd": 0, "sturm_chain": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        fn = getattr(intpoly, name)
        for mod in (intpoly, roots, classify, census):
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted(name, fn))
    # X^4 - X - 1: squarefree and irreducible, so one factor; its four
    # moduli are distinct, so the profile needs no tie decision
    f = IntPolynomial((1, 0, 0, -1, -1))
    spec = CensusSpec(n=4, height=1, counters=("A*", "B*", "D*"))
    cells = census.classify_pipeline(f, spec)
    assert ("A*", "1") in cells and ("D*d", "r=2,s=1") in cells
    # Yun's algorithm on f takes one gcd; the factor gets one Sturm
    # chain and is not decomposed again
    assert calls == {"squarefree_decomposition": 1, "subresultant_gcd": 1, "sturm_chain": 1}


def test_budget_exceeded():
    from rootcensus.errors import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        run_census(CensusSpec(n=4, height=20, counters=("A*",), budget=1000))


def test_merge_spec_mismatch():
    t1 = run_census(CensusSpec(n=2, height=1, counters=("A*",)))
    t2 = run_census(CensusSpec(n=2, height=2, counters=("A*",)))
    with pytest.raises(SpecMismatch):
        t1.merge(t2)


# -- checkpoints ----------------------------------------------------------------------


def test_checkpoint_interrupt_and_resume(tmp_path):
    path = str(tmp_path / "census.ckpt")
    spec = CensusSpec(n=2, height=6, counters=("A*",), checkpoint=path)
    units = make_work_units(spec)
    cut = len(units) // 2
    partial = run_census(spec, limit_units=cut)
    assert partial.totals < CensusSpec(n=2, height=6, counters=("A*",)).total_points
    assert os.path.exists(path)
    resumed = run_census(spec)
    clean = run_census(CensusSpec(n=2, height=6, counters=("A*",)))
    assert resumed == clean


def test_checkpoint_completed_run_is_stable(tmp_path):
    path = str(tmp_path / "census.ckpt")
    spec = CensusSpec(n=2, height=3, counters=("A*",), checkpoint=path)
    first = run_census(spec)
    again = run_census(spec)  # all units already recorded
    assert first == again


def test_checkpoint_corruption_detected(tmp_path):
    path = str(tmp_path / "census.ckpt")
    spec = CensusSpec(n=2, height=3, counters=("A*",), checkpoint=path)
    run_census(spec, limit_units=2)
    good = open(path, "r", encoding="utf-8").read()

    # truncated mid-record (no trailing newline)
    open(path, "w", encoding="utf-8").write(good[:-3])
    with pytest.raises(CheckpointCorrupt):
        checkpoint_load(path)

    # tampered payload breaks the checksum
    lines = good.splitlines(keepends=True)
    rec = json.loads(lines[1])
    rec["counters_delta"]["totals"] += 1
    lines[1] = json.dumps(rec, sort_keys=True) + "\n"
    open(path, "w", encoding="utf-8").write("".join(lines))
    with pytest.raises(CheckpointCorrupt):
        checkpoint_load(path)

    # bad header
    open(path, "w", encoding="utf-8").write('{"format": "other"}\n')
    with pytest.raises(CheckpointCorrupt):
        checkpoint_load(path)


def test_checkpoint_spec_mismatch_rejected(tmp_path):
    path = str(tmp_path / "census.ckpt")
    run_census(CensusSpec(n=2, height=3, counters=("A*",), checkpoint=path), limit_units=2)
    with pytest.raises(CheckpointCorrupt):
        run_census(CensusSpec(n=2, height=4, counters=("A*",), checkpoint=path))


# -- fits and reports -------------------------------------------------------------------


def test_fit_growth_exponent_exact_power():
    pts = [(h, 3.5 * h**2.0) for h in (10, 20, 40, 80)]
    fit = fit_growth_exponent(pts)
    assert abs(fit.slope - 2.0) < 1e-9
    assert fit.residual < 1e-9


def test_fit_growth_errors():
    with pytest.raises(InsufficientPoints):
        fit_growth_exponent([(1, 1), (2, 4)])
    with pytest.raises(NonpositiveCount):
        fit_growth_exponent([(1, 1), (2, 0), (3, 9)])


def test_density_report_structure():
    tables = [
        run_census(CensusSpec(n=2, height=h, counters=("A*", "B*", "D*")))
        for h in (1, 2, 3)
    ]
    rep = density_report(tables)
    assert rep["n"] == 2 and rep["monic"] is False
    assert [r["H"] for r in rep["rows"]] == [1, 2, 3]
    for row in rep["rows"]:
        assert row["sum_check"] and row["D*_sum_check"]
        assert 0 < row["dominant_ratio"] <= row["dominant_pair_ratio"] <= 1
    assert "pair_ratio_increased" in rep


def test_density_report_mixed_specs_rejected():
    t2 = run_census(CensusSpec(n=2, height=1, counters=("A*",)))
    t3 = run_census(CensusSpec(n=3, height=1, counters=("A*",)))
    with pytest.raises(SpecMismatch):
        density_report([t2, t3])


def test_counter_table_csv_shape():
    t = run_census(CensusSpec(n=2, height=1, monic=True, counters=("A",)))
    lines = counter_table_csv(t)
    assert lines[0] == "n,H,family,label,count"
    assert '2,1,A,"1",4' in lines
    assert '2,1,A,"2",5' in lines


def test_table_json_round_trip():
    spec = CensusSpec(n=2, height=2, counters=("A*",))
    t = run_census(spec)
    blob = t.to_json()
    assert blob["spec"] == spec.fingerprint()
    assert blob["totals"] == t.totals
    rebuilt = CounterTable.from_delta(t.spec_key, t.delta_dict())
    assert rebuilt == t
