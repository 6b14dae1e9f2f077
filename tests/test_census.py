"""Exhaustive census engine against hand counts and brute enumeration.

Small boxes are recounted directly with numpy/sympy oracles; the two
engines (scalar and vectorized low-degree kernels), the symmetry
reduction, multiprocess runs and checkpoint resume must all reproduce
the same table byte for byte.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import os
import random
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rootcensus.census import (
    CensusSpec,
    CounterTable,
    WorkUnit,
    checkpoint_load,
    classify_pipeline,
    counter_table_csv,
    density_report,
    fit_growth_exponent,
    _unit_worker,
    make_work_units,
    run_census,
)
from rootcensus.classify import profile_pair_deg3
from rootcensus.errors import (
    BadParameters,
    CheckpointCorrupt,
    EmptyInput,
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


def _pipeline_tally(spec, polys):
    """The table of the polynomials, each tallied through classify_pipeline."""
    from rootcensus import census

    table = CounterTable(spec.fingerprint(), census._empty_cells(spec))
    for f in polys:
        cells = classify_pipeline(f, spec)
        table.totals += 1
        table.ambiguous += cells is None
        for fam, label in cells or ():
            table.add(fam, label)
    return table


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


def _vector_counters():
    """Every counter the vector engine takes, with whether its box is the
    monic one."""
    from rootcensus import census

    out = []
    for name, c in census._COUNTERS.items():
        spec = CensusSpec(n=2, height=1, monic=c.monic is True, counters=(name,))
        if census._vector_ok(spec):
            out.append((name, spec.monic))
    return out


# every counter the vector engine takes, on its box; D* also covers the
# distinct roots D*d of the zero-discriminant rows
_VECTOR = _vector_counters()
VECTOR_COUNTERS = pytest.mark.parametrize(
    "counter,monic", _VECTOR, ids=[name.replace("*", "star") for name, _ in _VECTOR]
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


@pytest.mark.parametrize(
    "counter,monic,height",
    [("A", True, 2), ("A*", False, 2), ("B*", False, 2), ("D*", False, 2), ("A*", False, 3)],
    ids=["A", "Astar", "Bstar", "Dstar", "Astar-H3"],
)
def test_engines_agree_quartic(counter, monic, height, tmp_path):
    from rootcensus import census

    base = dict(n=4, height=height, monic=monic, counters=(counter,))
    assert census._vector_ok(CensusSpec(**base))  # what "auto" picks
    tables, blobs = [], []
    for engine in ("scalar", "vector"):
        path = str(tmp_path / engine)
        tables.append(run_census(CensusSpec(engine=engine, checkpoint=path, **base)))
        blobs.append(open(path, "rb").read())
    assert tables[0] == tables[1] and tables[0].to_json() == tables[1].to_json()
    assert blobs[0] == blobs[1]


# boxes with a kernel (n = 3, 4) and without (n = 1, 5): monic, full, and
# the full box halved by symmetry
_BOXES = [(3, 2, False, False), (4, 1, False, False), (4, 2, True, False), (1, 3, True, False),
          (1, 3, False, False), (1, 3, False, True), (5, 1, True, False), (5, 1, False, False),
          (5, 1, False, True)]


def _unit_rows(spec, unit):
    """The unit's coefficient rows, in enumeration order."""
    heads = [(1, lead) if spec.monic else (lead,) for lead in unit.leads]
    tails = itertools.product(range(-spec.height, spec.height + 1), repeat=spec.n + 1 - len(heads[0]))
    return [h + t for h, t in itertools.product(heads, tails)]


def _box_id(box):
    n, height, monic, symmetry = box
    return "%d-%d-%s" % (n, height, monic) + "-sym" * symmetry


@pytest.mark.parametrize("n,height,monic,symmetry", _BOXES, ids=map(_box_id, _BOXES))
def test_vector_blocks_cover_each_unit_in_order(monkeypatch, n, height, monic, symmetry):
    # a unit whose points exceed UNIT_TARGET is cut into open-grid blocks,
    # column i varying along axis i only, of at most that many points,
    # which together enumerate it in order, once; tables are the same on
    # every engine the box admits
    from rootcensus import census

    counters = ("A",) if monic else ("A*", "B*", "D*")
    spec = CensusSpec(n=n, height=height, monic=monic, symmetry=symmetry, counters=counters)
    want = run_census(dataclasses.replace(spec, engine="scalar"))
    monkeypatch.setattr(census, "UNIT_TARGET", 7)
    for unit in make_work_units(spec):
        blocks = list(census._blocks(spec, unit.leads))
        assert all(col.shape[i] == col.size for b in blocks for i, col in enumerate(b))
        assert max(math.prod(np.broadcast_shapes(*(col.shape for col in b))) for b in blocks) <= 7
        grids = [np.stack(np.broadcast_arrays(*b), axis=-1).reshape(-1, n + 1) for b in blocks]
        assert [tuple(r) for g in grids for r in g.tolist()] == _unit_rows(spec, unit)
    engines = ("scalar", "auto", "vector") if census._vector_ok(spec) else ("scalar", "auto")
    for engine in engines:
        assert run_census(dataclasses.replace(spec, engine=engine)) == want, engine


_KERNEL_FREE_BOXES = [
    (1, 3, True, False, ("A", "RHO", "E_UPPER")),
    (1, 3, False, True, ("A*", "B*", "D*")),
    (5, 1, True, False, ("A",)),
    (5, 1, False, False, ("A*", "B*", "D*")),
    (5, 1, False, True, ("RHO*", "E_UPPER")),
]


@pytest.mark.parametrize("n,height,monic,symmetry,counters", _KERNEL_FREE_BOXES,
                         ids=[_box_id(box[:4]) for box in _KERNEL_FREE_BOXES])
def test_unit_without_a_kernel_sends_every_row_through_classify_pipeline(
        monkeypatch, n, height, monic, symmetry, counters):
    # with no kernel (the scalar engine, and "auto" where no kernel serves
    # the degree or the counters) each row of a unit goes through
    # classify_pipeline once, and the unit's delta is that of the test's
    # own enumeration tallied through classify_pipeline, doubled when
    # symmetry mirrors the a_0 < 0 half-box
    from rootcensus import census

    calls = []
    monkeypatch.setattr(census, "classify_pipeline", lambda f, spec: calls.append(f) or classify_pipeline(f, spec))
    for engine in ("scalar", "auto"):
        spec = CensusSpec(n=n, height=height, monic=monic, symmetry=symmetry, counters=counters, engine=engine)
        spec.validate()
        for unit in make_work_units(spec):
            rows = _unit_rows(spec, unit)
            want = _pipeline_tally(spec, map(IntPolynomial, rows))
            calls.clear()
            assert _unit_worker((spec, unit)) == (unit.unit_id, (want.merge(want) if symmetry else want).delta_dict())
            assert [f.coeffs for f in calls] == rows


def _quartic_columns(rows):
    """Coefficient columns a_0..a_4 of the rows: int64 where every value
    fits, Python integers otherwise."""
    big = any(abs(c) >= 2**62 for r in rows for c in r)
    return [np.array(col, dtype=object if big else np.int64) for col in zip(*rows)]


# quartic rows the n = 4 kernel must never decide, beside rows it may
_NEAR_TIES = [
    (1, 1, 2, 1, 1),  # (X^2+1)(X^2+X+1): all four roots on the unit circle
    (1, 1, 0, -2, -4),  # (X^2-2)(X^2+X+2): four roots of modulus sqrt 2
    (1, 0, 0, -2**40, 1),  # a real root and a pair, moduli in ratio 1 + 2^-54
    (1, -1, 0, 0, -1),  # X^4 - X^3 - 1
    (4, 0, -1, 1, 1),
    (1, 2, 3, 2, 1),  # (X^2+X+1)^2: repeated roots
    (2, 0, 0, 0, 3),  # f(X^2) shape
]


# the statistics of a row, in the order of the kernels' table entries
_STATS = ("kmax", "kmin", "r", "rd", "nd")


def _quartic_sample():
    """800 seeded rows of the full n = 4 H = 3 box."""
    return random.Random(4).sample([tuple(f.coeffs) for f in _box(4, 3, False)], 800)


def test_quartic_batch_rows_match_classify_pipeline():
    # the table entry of every row's state that the n = 4 vector profile
    # decides holds the statistics the scalar pipeline computes for it,
    # which the counters then label; the rest are left to that pipeline,
    # and a row with a zero root is always decided
    from rootcensus import census

    spec = CensusSpec(n=4, height=3, counters=("A*", "B*", "D*"))
    for rows in (_quartic_sample(), _NEAR_TIES):
        states, table = census._vec_profile(_quartic_columns(rows))
        decided = np.flatnonzero(states).tolist()
        if rows is _NEAR_TIES:
            # the 2^40 coefficient leaves the block no int64 pass, so only
            # the f(X^2) row is decided, in closed form
            assert decided == [6]
        else:
            assert len(decided) > len(rows) * 3 // 4
            zero_root = {i for i, r in enumerate(rows) if r[-1] == 0}
            assert zero_root and zero_root <= set(decided)
        for i in decided:
            assert table[states[i]] == census._stats(IntPolynomial(rows[i]), spec), rows[i]


@pytest.mark.parametrize("n,height", [(2, 6), (3, 3)])
def test_every_row_state_names_the_row_statistics(n, height):
    # row by row over the whole box, X^v u rows included, the table entry
    # of each row's state is the row's _stats; equal tables alone could
    # hide two wrong entries that offset each other
    from rootcensus import census

    spec = CensusSpec(n=n, height=height, counters=("A*", "B*", "D*"))
    zeros = set()
    for unit in make_work_units(spec):
        for cols in census._blocks(spec, unit.leads):
            states, table = census._vec_profile(cols)
            rows = np.stack(np.broadcast_arrays(*cols), axis=-1).reshape(-1, n + 1).tolist()
            assert len(rows) == states.size
            for state, row in zip(states.tolist(), rows):
                assert table[state] == census._stats(IntPolynomial(row), spec), row
                zeros.add(len(row) - len(np.trim_zeros(row, "b")))
    assert zeros == set(range(n + 1))  # every v of X^v u was met


def test_quartic_fall_back_rows_have_no_zero_root(monkeypatch):
    # on the n = 4 H = 2 box the vector engine leaves 32 rows to the
    # scalar pipeline, the failed certificates, all with disc = 0 (the
    # f(X^2) rows are decided in closed form and the rows with a tied
    # extreme run by the tie step), and decides every row with a_4 = 0
    # itself
    from rootcensus import census

    seen = []
    monkeypatch.setattr(census, "classify_pipeline", lambda f, spec: seen.append(f) or classify_pipeline(f, spec))
    table = run_census(CensusSpec(n=4, height=2, counters=("A*",), engine="vector"))
    assert table.totals == 2500
    assert len(seen) == 32
    assert not any(f.coeffs[-1] == 0 for f in seen)


def test_quartic_rows_with_a_repeated_root_never_certify():
    # the n = 4 kernel has no discriminant: four disjoint certified disks
    # prove a row squarefree, so every row of the n = 4 H = 2 box with
    # disc = 0 that is not of f(X^2) shape stays undecided, the 32 that
    # reach certification included; an f(X^2) row with a_4 != 0 and disc
    # = 0, where g = aY^2 + cY + e has a double root, gets a closed-form
    # state with two distinct roots
    from rootcensus import census
    from rootcensus.intpoly import discriminant

    spec = CensusSpec(n=4, height=2, counters=("A*", "B*", "D*"))
    rows = [tuple(f.coeffs) for f in _box(4, 2, False)]
    states, table = census._vec_profile4(*_quartic_columns(rows))
    repeated = [i for i, r in enumerate(rows) if discriminant(IntPolynomial(r)) == 0]
    even = [i for i in repeated if rows[i][-1] and not (rows[i][1] or rows[i][3])]
    tried = [i for i in repeated if rows[i][-1] and (rows[i][1] or rows[i][3])]
    assert len(tried) == 32 and even
    assert not states[sorted(set(repeated) - set(even))].any()
    for i in even:
        want = census._stats(IntPolynomial(rows[i]), spec)
        assert want["nd"] == 2 and table[states[i]] == tuple(want[s] for s in _STATS), rows[i]


@pytest.mark.parametrize("dtype", [np.int32, np.int64, object], ids=["int32", "int64", "object"])
def test_quartic_f_of_x_squared_rows_in_closed_form(monkeypatch, dtype):
    # an f(X^2) row with a_4 != 0 is decided from g = aY^2 + cY + e alone,
    # in each of the seven cases of the sign of disc(g), c, ae and ac, and
    # for -f alike; the int64 pass sees none of these rows
    from rootcensus import census

    cases = {
        (1, 0, 0, 0, 1): (4, 4, 0, 0, 4),  # X^4 + 1: disc(g) < 0
        (1, 0, -2, 0, 1): (4, 4, 4, 2, 2),  # (X^2 - 1)^2: disc(g) = 0, ac < 0
        (1, 0, 2, 0, 1): (4, 4, 0, 0, 2),  # (X^2 + 1)^2: disc(g) = 0, ac > 0
        (1, 0, 0, 0, -2): (4, 4, 2, 2, 4),  # X^4 - 2: disc(g) > 0, c = 0
        (1, 0, 1, 0, -2): (2, 2, 2, 2, 4),  # X^4 + X^2 - 2: ae < 0
        (1, 0, -3, 0, 2): (2, 2, 4, 4, 4),  # X^4 - 3X^2 + 2: ae > 0, ac < 0
        (1, 0, 3, 0, 2): (2, 2, 0, 0, 4),  # X^4 + 3X^2 + 2: ae > 0, ac > 0
    }
    rows = [(tuple(sign * x for x in row), want) for row, want in cases.items() for sign in (1, -1)]
    passed = []
    vec_certify = census._vec_certify
    monkeypatch.setattr(census, "_vec_certify", lambda c, z, k: passed.append(c[0].size) or vec_certify(c, z, k))
    spec = CensusSpec(n=4, height=3, counters=("A*", "B*", "D*"))
    states, table = census._vec_profile4(*(np.array(col, dtype=dtype) for col in zip(*(r for r, _ in rows))))
    assert sum(passed) == 0
    for (row, want), state in zip(rows, states.tolist()):
        stats = census._stats(IntPolynomial(row), spec)
        assert table[state] == tuple(stats[s] for s in _STATS) == want, row


def test_quartic_state_table_encodes_each_state():
    # _certified_state numbers the squarefree states 1..48 once each, and
    # each is the table entry of the (kmax, kmin, r) it encodes; the two
    # f(X^2) states with a double root of g follow
    from rootcensus import census

    table = census._vec_profile4(*_quartic_columns([(1, 0, 0, 0, 1)]))[1]
    encoded = {census._certified_state(kmax, kmin, r): (kmax, kmin, r)
               for r in (0, 2, 4) for kmax in range(1, 5) for kmin in range(1, 5)}
    assert sorted(encoded) == list(range(1, 49)) and table[0] is None
    for state, (kmax, kmin, r) in encoded.items():
        assert table[state] == (kmax, kmin, r, r, 4), state
    assert table[49:] == [(4, 4, 4, 2, 2), (4, 4, 0, 0, 2)]


# exact ties the tie step decides, with the (kmax, kmin) they must get
_TIES = {
    (1, 1, 1, 1, 1): (4, 4),  # Phi_5: four roots of modulus 1
    (1, -2, 0, -1, 2): (1, 3),  # (X - 2)(X^3 - 1)
    (2, 2, 0, 1, 1): (1, 3),  # (X + 1)(2X^3 + 1)
    (1, 1, -1, -2, -2): (2, 2),  # (X^2 - 2)(X^2 + X + 1)
    (1, 1, 0, -2, -4): (4, 4),  # (X^2 - 2)(X^2 + X + 2)
}


def test_tie_step_rows_get_their_statistics(monkeypatch):
    # on the full n = 4 boxes with H <= 3, every row the tie step decides
    # gets the table entry of its _stats; at H = 2 it decides all 108 rows
    # the int64 pass certifies with a tied extreme run. So it does the
    # named exact ties, while a row beyond the pass's guard and a row with
    # repeated roots, whose disks never certify, stay in state 0
    from rootcensus import census

    # the rows the int64 pass certifies with a tied extreme run
    tied = []
    vec_certify = census._vec_certify

    def spy(cols, z, k):
        got = vec_certify(cols, z, k)
        tied.extend(map(tuple, np.stack(cols, axis=1)[got[1]].tolist()))
        return got

    monkeypatch.setattr(census, "_vec_certify", spy)
    counts = {}
    for height in (1, 2, 3):
        spec = CensusSpec(n=4, height=height, counters=("A*", "B*", "D*"))
        decided = 0
        for unit in make_work_units(spec):
            for cols in census._blocks(spec, unit.leads):
                tied.clear()
                states, table = census._vec_profile(cols)
                rows = np.stack(np.broadcast_arrays(*cols), axis=-1).reshape(-1, 5).tolist()
                state = dict(zip(map(tuple, rows), states.tolist()))
                for row in tied:
                    if state[row]:
                        decided += 1
                        assert table[state[row]] == census._stats(IntPolynomial(row), spec), row
        counts[height] = decided
    assert counts[2] == 108 and counts[3] > counts[2] > counts[1] > 0
    tied.clear()
    states, table = census._vec_profile4(*_quartic_columns(list(_TIES)))
    assert tied == list(_TIES)
    spec = CensusSpec(n=4, height=4, counters=("A*", "B*", "D*"))
    for (row, kk), state in zip(_TIES.items(), states.tolist()):
        want = census._stats(IntPolynomial(row), spec)
        assert table[state] == tuple(want[s] for s in _STATS) and table[state][:2] == kk, row
    for row in (_NEAR_TIES[2], _NEAR_TIES[5]):
        assert census._vec_profile4(*_quartic_columns([row]))[0][0] == 0, row


def _times(f, g):
    """The coefficients of the product of two polynomials."""
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return tuple(out)


_CYCLOTOMIC = {1: [(1, -1), (1, 1)], 2: [(1, 1, 1), (1, 0, 1), (1, -1, 1)],
               4: [(1, 1, 1, 1, 1), (1, 0, 0, 0, 1), (1, -1, 1, -1, 1), (1, 0, -1, 0, 1)]}
_small, _nonzero = st.integers(-4, 4), st.integers(-4, 4).filter(bool)
# quartics whose roots are forced into modulus ties: an opposite pair or a
# pair on one circle, times a quadratic; a root times three of one modulus;
# two quadratics with one product of roots; products of cyclotomic factors
_TIE_FAMILIES = st.one_of(
    st.builds(lambda b, d, q: _times((b, 0, d), q), _nonzero, _nonzero, st.tuples(_nonzero, _small, _small)),
    st.builds(lambda p, q, u, w: _times((p, q), (u, 0, 0, w)), _nonzero, _small, _nonzero, _nonzero),
    st.builds(lambda p, q, m: _times((1, p, m), (1, q, m)), _small, _small, _nonzero),
    st.lists(st.sampled_from((1, 2, 4)), min_size=1, max_size=4)
    .filter(lambda degs: sum(degs) == 4)
    .flatmap(lambda degs: st.tuples(*(st.sampled_from(_CYCLOTOMIC[d]) for d in degs)))
    .map(lambda fs: functools.reduce(_times, fs)),
)


@given(st.lists(_TIE_FAMILIES, min_size=1, max_size=6))
def test_exact_tie_families_get_their_statistics(rows):
    # every row of the tie families that _vec_profile decides, by the int64
    # pass, the tie step or a closed form, gets the table entry of its _stats
    from rootcensus import census

    spec = CensusSpec(n=4, height=4, counters=("A*", "B*", "D*"))
    states, table = census._vec_profile(_quartic_columns(rows))
    for i in np.flatnonzero(states).tolist():
        assert table[states[i]] == census._stats(IntPolynomial(rows[i]), spec), rows[i]


def _per_row_state(row, z):
    """The state of a quartic row from its proposed roots z rounded to 53
    bits, by roots._certified and the extreme runs of classify._runs, as
    the int64 pass decides a row with one-unit extreme runs; 0 when
    undecided."""
    from rootcensus import census
    from rootcensus.classify import _modulus_units, _runs
    from rootcensus.roots import _certified, _float_centres

    got = _certified([(list(row), 1, _float_centres(list(z), 53))], 0)
    if got is None:
        return 0
    cells, _ = got
    runs = _runs(_modulus_units(cells))
    if runs[0].size == runs[-1].size == 1:
        return census._certified_state(runs[-1].mult, runs[0].mult, sum(c[4] for c in cells))
    return 0


def test_one_companion_call_per_block_and_per_factor(monkeypatch):
    # both engines take their 53-bit roots from roots._companion_roots:
    # the n = 4 kernel in one call for a whole block, isolate_roots in one
    # call for each factor of degree >= 2
    from rootcensus import census, roots
    from rootcensus.roots import _companion_roots, isolate_roots

    calls = []

    def spy(rows):
        calls.append(len(rows))
        return _companion_roots(rows)

    monkeypatch.setattr(roots, "_companion_roots", spy)
    monkeypatch.setattr(census, "_companion_roots", spy)
    rows = _quartic_sample()
    census._vec_profile4(*_quartic_columns(rows))
    assert calls == [sum(1 for r in rows if r[-1] and (r[1] or r[3]))]
    calls.clear()
    # (X^2 + X + 1)^2 (X^3 - 2) (2X - 1)^3: factors of degree 3, 2 and 1
    f = IntPolynomial((1, 1, 1)) * IntPolynomial((1, 1, 1)) * IntPolynomial((1, 0, 0, -2))
    for _ in range(3):
        f = f * IntPolynomial((2, -1))
    assert isolate_roots(f, precision_bits=53).precision_bits == 53
    assert sorted(calls) == [1, 1]


def _guard_holds(row, z, k):
    """The overflow guard of the int64 pass, 2 (n + 1) H mu^n < 2^63, in
    exact integers: H the row's largest |coefficient|, mu the largest of
    2^k and the moduli of the centres z rounded at k bits."""
    a, b = (np.rint(part * 2.0**k).astype(np.int64).tolist() for part in (z.real, z.imag))
    mu2 = max(4**k, *(x * x + y * y for x, y in zip(a, b)))
    return (2 * len(row) * max(map(abs, row))) ** 2 * mu2 ** (len(row) - 1) < 2**126


def test_int64_pass_matches_the_per_row_certificate():
    # every row the int64 pass gives a state, at the block's k and at the
    # largest k its guard admits, gets the state the per-row certificate
    # gives it from the same roots and the table entry of its _stats; one k
    # further the guard holds for none of them, and the pass decides none.
    # Of the near ties, the exact ties certify with a tied extreme run and
    # get no state here, repeated roots never certify, and the row with a
    # coefficient 2^40 is beyond the guard already
    from rootcensus import census

    spec = CensusSpec(n=4, height=3, counters=("A*", "B*", "D*"))
    table = census._vec_profile4(*_quartic_columns(_NEAR_TIES))[1]
    never = {_NEAR_TIES[i] for i in (0, 1, 2, 5)}
    for rows, least in ((_quartic_sample(), 600), (_NEAR_TIES, 2)):
        rows = [r for r in rows if r[-1] and (r[1] or r[3])]
        z = np.array([np.roots(r) for r in rows])
        states, tied, _ = census._vec_certify(_quartic_columns(rows), z, 12)
        decided = np.flatnonzero(states).tolist()
        assert len(decided) >= least and not never & {rows[i] for i in decided}
        assert not set(decided) & set(tied.tolist())
        if rows is not _NEAR_TIES:
            assert tied.size
        else:
            assert {rows[i] for i in tied.tolist()} == {_NEAR_TIES[0], _NEAR_TIES[1]}
        edge = []
        for i in decided:
            stats = census._stats(IntPolynomial(rows[i]), spec)
            assert table[states[i]] == tuple(stats[s] for s in _STATS), rows[i]
            assert states[i] == _per_row_state(rows[i], z[i]), rows[i]
            k = max(k for k in range(2, 20) if _guard_holds(rows[i], z[i], k))
            assert not _guard_holds(rows[i], z[i], k + 1)
            edge.append((k, i))
        for k, group in itertools.groupby(sorted(edge), key=lambda e: e[0]):
            sel = [i for _, i in group]
            cols = _quartic_columns([rows[i] for i in sel])
            assert (census._vec_certify(cols, z[sel], k)[0] == states[sel]).all(), k
            above, tied, _ = census._vec_certify(cols, z[sel], k + 1)
            assert not above.any() and not tied.size, k


def test_int64_pass_leaves_a_straddling_pair_undecided():
    # (16X^2 - 32X + 17)(2X - 1)(X - 3) has the roots 1/2, 3 and 1 +- i/4.
    # Centres on the roots are decided: two real roots. With a centre of the
    # pair moved to 1 + i/64, or both to 1 +- i/64, a disk straddles the
    # axis, and the pass leaves the row, never counting it as real
    from rootcensus import census

    row = (32, -176, 306, -215, 51)
    cols = _quartic_columns([row])
    want = census._stats(IntPolynomial(row), CensusSpec(n=4, height=306, counters=("A*", "B*", "D*")))
    assert (want["r"], want["kmax"], want["kmin"]) == (2, 1, 1)
    roots = np.array([[0.5, 3, 1 + 0.25j, 1 - 0.25j]])
    states, tied, _ = census._vec_certify(cols, roots, 6)
    assert states[0] == census._certified_state(1, 1, 2) and not tied.size
    for moved in ([0.5, 3, 1 + 1j / 64, 1 - 0.25j], [0.5, 3, 1 + 1j / 64, 1 - 1j / 64]):
        states, tied, _ = census._vec_certify(cols, np.array([moved]), 6)
        assert states[0] == 0 and not tied.size, moved


def test_int64_pass_widens_int32_columns_and_skips_blocks_beyond_its_guard(monkeypatch):
    # _blocks gives int32 columns up to H = 79. There the pass takes k = 7,
    # and a constant term 79 shifted by 4k bits wraps in int32, so the pass
    # must widen the columns first: it alone decides these rows, and right.
    # A block with values at 2^62 leaves the pass no k: the f(X^2) row is
    # decided in closed form, and the others reach classify_pipeline,
    # without an error, and are tallied as the scalar engine tallies them
    from rootcensus import census

    assert _column_types(4, 79)[0] == np.int32
    assert (np.array([79], dtype=np.int32) << 28)[0] != 79 << 28
    passes, seen = [], []
    vec_certify = census._vec_certify
    monkeypatch.setattr(census, "_vec_certify", lambda c, z, k: passes.append(k) or vec_certify(c, z, k))
    rows = [(3, 1, -79, 2, 79), (2, 79, 0, 79, -79), (1, -2, 3, 79, 79), (1, 0, 0, 2, -79), (-5, 0, 1, 9, 79)]
    spec = CensusSpec(n=4, height=79, counters=("A*", "B*", "D*"))
    states, table = census._vec_profile([np.array(col, dtype=np.int32) for col in zip(*rows)])
    assert passes == [7]
    for i, row in enumerate(rows):
        assert table[states[i]] == census._stats(IntPolynomial(row), spec), row
    big = [(1, 0, 0, 2**62, 1), (2**62, 1, 0, 0, -3), (1, 1, 0, 1, 1), (1, 0, 2, 0, 1)]
    cols = [np.array(col, dtype=np.int64) for col in zip(*big)]
    passes.clear()
    states, table = census._vec_profile(cols)
    assert passes == [] and np.flatnonzero(states).tolist() == [3]
    assert table[states[3]] == census._stats(IntPolynomial(big[3]), spec)

    monkeypatch.setattr(census, "classify_pipeline", lambda f, spec: seen.append(f.coeffs) or classify_pipeline(f, spec))
    monkeypatch.setattr(census, "_blocks", lambda spec, leads: iter([cols]))
    vector = dataclasses.replace(spec, engine="vector")
    got = CounterTable.from_delta(spec.fingerprint(), _unit_worker((vector, WorkUnit(0, ())))[1])
    assert seen == big[:3]
    assert got == _pipeline_tally(spec, map(IntPolynomial, big)) and got.totals == 4


def test_radius_bound_is_above_the_exact_radius():
    # the double radius of the int64 pass bounds _certify's exact
    # ceil(sqrt(ceil(n^2 |G|^2 / |D|^2))) from above, also where the
    # doubles round G down (2^62 + 511 to 2^62) or divide by D = 1
    from rootcensus import census
    from rootcensus.roots import _ceil_sqrt

    rng = random.Random(7)
    top = 2**63 - 1
    vals = [(2**62 + 511, 0, 1, 0), (-(2**62) - 511, 2**40 + 1, 0, -1), (top, top, 1, 1), (5, 0, 0, 3)]
    vals += [tuple(rng.randint(-(2**rng.randint(1, 62)), 2**62) for _ in range(4)) for _ in range(2000)]
    gr, gi, dr, di = (np.array(col, dtype=np.int64) for col in zip(*vals))
    for n in (4, 5):
        got = census._radius_bound(n, gr, gi, dr, di)
        for (a, b, c, d), r in zip(vals, got.tolist()):
            d2 = c * c + d * d
            if d2:
                exact = _ceil_sqrt(-(-n * n * (a * a + b * b) // d2))
                assert exact <= r <= exact * (1 + 2**-38) + 2, (a, b, c, d)


def test_vector_engine_decides_rows_without_scalar_kernels(monkeypatch):
    # disc = 0 and repeated-root rows are decided over arrays too: the
    # exact scalar kernels run only for the rows the vector engine leaves
    # to classify_pipeline, none at n = 2 and 3, 32 at n = 4 H = 2. Beside
    # them, the n = 4 tie step builds one pair-product chain for each of
    # the 108 rows with a tied extreme run, with no gcd and no squarefree
    # decomposition: no gcd runs outside the fall-back
    from rootcensus import census

    names = ("_signature_counts", "profile_pair_deg3", "subresultant_gcd", "squarefree_decomposition")
    calls = _count_calls(monkeypatch, names)
    in_fallback = dict.fromkeys(calls, 0)
    in_tie_step = dict.fromkeys(calls, 0) | {"chains": 0}
    fallback = []
    tie_chain = census._tie_chain

    def chain(f):
        before = dict(calls)
        in_tie_step["chains"] += 1
        got = tie_chain(f)
        for name in calls:
            in_tie_step[name] += calls[name] - before[name]
        return got

    def spy(f, spec):
        before = dict(calls)
        fallback.append(f)
        cells = classify_pipeline(f, spec)
        for name in calls:
            in_fallback[name] += calls[name] - before[name]
        return cells

    monkeypatch.setattr(census, "classify_pipeline", spy)
    monkeypatch.setattr(census, "_tie_chain", chain)
    for n, height, rows, chains in ((2, 6, 0, 0), (3, 3, 0, 0), (4, 2, 32, 108)):
        fallback.clear()
        run_census(CensusSpec(n=n, height=height, counters=("A*", "B*", "D*"), engine="vector"))
        assert len(fallback) == rows, (n, height)
        assert in_tie_step["chains"] == chains, (n, height)
        outside = {name: calls[name] - in_fallback[name] for name in calls}
        assert outside == dict.fromkeys(calls, 0)
    assert in_fallback["_signature_counts"] == 32
    assert in_tie_step == dict.fromkeys(calls, 0) | {"chains": 108}


def _column_types(n, height):
    """The column type _blocks picks at a height and at the next one."""
    from rootcensus import census

    return [next(census._blocks(CensusSpec(n=n, height=h), [1]))[0].dtype for h in (height, height + 1)]


@pytest.mark.parametrize("dtype,height", [(np.int32, 79), (np.int64, None)], ids=["int32-H79", "int64-cap"])
def test_cubic_kernel_is_exact_at_the_column_type_height(dtype, height):
    # cubics with a repeated root near the height, (pX + q)^2 (rX + s)
    # and k (pX + q)^3, whose root moduli are known from p, q, r and s,
    # rows X^v u and the corners of the box: the kernels agree with the
    # construction and with the exact scalar kernels on Python integers,
    # on columns of the type and on columns of Python integers alike, at
    # the largest height whose term bound the type holds
    from rootcensus import census

    cap = height or census.VECTOR_HEIGHT_CAPS[3]
    # disc3's coefficients sum to 54 in modulus, and the disc = 0 closed
    # form's terms stay below 28 H^3
    assert 54 * cap**4 < 2 ** (np.iinfo(dtype).bits - 1) <= 54 * (cap + 1) ** 4
    assert _column_types(3, cap) == [dtype, np.int64]
    # an n = 4 block computes integer terms only in the cubic kernel, on
    # its rows X u, so it takes the cubic bound
    assert _column_types(4, cap) == _column_types(3, cap)
    rng = random.Random(5)
    double = {}
    for p, r in itertools.product((1, 2, 3), repeat=2):
        for q, s in itertools.product(range(-70, 71), range(-60, 61)):
            f = (p * p * r, p * p * s + 2 * p * q * r, 2 * p * q * s + q * q * r, q * q * s)
            if q and s and cap // 2 <= max(map(abs, f)) <= cap:
                # double root -q/p against simple root -s/r
                gap = abs(q) * r - abs(s) * p
                km = (2, 1) if gap > 0 else (1, 2) if gap < 0 else (3, 3)
                distinct = 1 if q * r == s * p else 2
                double.setdefault(km + (distinct, distinct), []).append(f)
    # both orders, the tie u = -s and the triple root
    assert len(double) == 4
    rows = [(f, want) for want, fs in sorted(double.items()) for f in rng.sample(fs, min(40, len(fs)))]
    for p, q in itertools.product(range(1, 6), range(-17, 18)):
        f = (p**3, 3 * p * p * q, 3 * p * q * q, q**3)
        if q and math.gcd(p, q) == 1 and max(map(abs, f)) <= cap:
            k = rng.choice((-1, 1)) * (cap // max(map(abs, f)))
            rows.append((tuple(k * x for x in f), (3, 3, 1, 1)))
    # the constructed rows reach the height, up to one
    assert max(abs(x) for f, _ in rows for x in f) >= cap - 1
    m = math.isqrt(cap)
    others = [(1, 2 * m, m * m, 0), (-cap, cap, -cap, 0), (cap, -1, 0, 0), (-cap, 0, 0, 0)]
    others += [r for r in itertools.product((-cap, 0, cap), repeat=4) if r[0] != 0]
    rows += [(f, None) for f in others]
    (states, table), (exact, exact_table) = (
        census._vec_profile([np.array(col, dtype=t) for col in zip(*(f for f, _ in rows))])
        for t in (dtype, object))
    spec = CensusSpec(n=3, height=cap, counters=("A*", "D*"))
    for i, (f, want) in enumerate(rows):
        got = table[states[i]]
        assert got == exact_table[exact[i]], f
        assert got == census._stats(IntPolynomial(f), spec), f
        if want is not None:
            assert (got["kmax"], got["kmin"], got["rd"], got["nd"]) == want, f
            assert profile_pair_deg3(*f) == want[:2], f


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


def _count_calls(monkeypatch, names):
    """Counts of calls to the named intpoly or classify functions, through
    every module's binding of them."""
    from rootcensus import census, classify, intpoly, roots

    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        fn = getattr(intpoly, name, None) or getattr(classify, name)
        for mod in (intpoly, roots, classify, census):
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted(name, fn))
    return calls


def test_pipeline_analyses_each_polynomial_once(monkeypatch):
    from rootcensus import census

    calls = _count_calls(monkeypatch, ("squarefree_decomposition", "subresultant_gcd", "sturm_chain"))
    # X^4 - X - 1: squarefree and irreducible, so one factor; its four
    # moduli are distinct, so the profile needs no tie decision
    f = IntPolynomial((1, 0, 0, -1, -1))
    spec = CensusSpec(n=4, height=1, counters=("A*", "B*", "D*"))
    cells = census.classify_pipeline(f, spec)
    assert ("A*", "1") in cells and ("D*d", "r=2,s=1") in cells
    # Yun's algorithm on f takes one gcd; the factor gets one Sturm
    # chain and is not decomposed again
    assert calls == {"squarefree_decomposition": 1, "subresultant_gcd": 1, "sturm_chain": 1}


def test_pipeline_reuses_the_analysis_of_a_deflated_polynomial(monkeypatch):
    from rootcensus import census

    calls = _count_calls(monkeypatch, ("squarefree_decomposition",))
    # X (X^4 - X - 1): the signature analyses f, and the profile of the
    # zero-deflated X^4 - X - 1 reads the same factors
    f = IntPolynomial((1, 0, 0, -1, -1, 0))
    cells = census.classify_pipeline(f, CensusSpec(n=5, height=1, counters=("A*", "D*")))
    assert ("A*", "1") in cells and ("D*d", "r=3,s=1") in cells
    assert calls == {"squarefree_decomposition": 1}


def test_budget_exceeded():
    from rootcensus.errors import BudgetExceeded

    # 2 * 20 * 41^6, about 1.9e11 points, is above the census budget
    with pytest.raises(BudgetExceeded):
        run_census(CensusSpec(n=6, height=20, counters=("A*",)))


def test_vector_engine_refused_before_any_work(tmp_path):
    # the vector engine covers n in {2, 3, 4} only: the spec is refused
    # before the checkpoint header is written
    path = tmp_path / "ck"
    with pytest.raises(BadParameters, match="vector engine unavailable"):
        run_census(CensusSpec(n=5, height=1, engine="vector", checkpoint=str(path)))
    assert not path.exists()


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


def _unit_zero_last(payload):
    """_unit_worker, with unit 0 held back so that it finishes last."""
    if payload[1].unit_id == 0:
        time.sleep(0.5)
    return _unit_worker(payload)


def test_checkpoint_bytes_do_not_depend_on_jobs(monkeypatch, tmp_path):
    # records are written in unit order, not in the order the workers
    # finish: with unit 0 finishing last, the jobs = 2 files, straight and
    # interrupted-then-resumed, are the jobs = 1 file byte for byte
    from rootcensus import census

    spec = CensusSpec(n=3, height=4, counters=("A*", "B*"))
    want, blobs = run_census(spec), []
    for jobs, cut in ((1, None), (2, None), (2, 3)):
        path = str(tmp_path / ("ck%d-%s" % (jobs, cut)))
        run = dataclasses.replace(spec, jobs=jobs, checkpoint=path)
        if jobs > 1:
            monkeypatch.setattr(census, "_unit_worker", _unit_zero_last)
        if cut is not None:
            run_census(run, limit_units=cut)
        assert run_census(run) == want
        blobs.append(open(path, "rb").read())
    assert blobs[1] == blobs[0] and blobs[2] == blobs[0]


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


def _refused_record(monkeypatch, tmp_path, unit_id, edit):
    """Run the n = 2 H = 2 census over a checkpoint holding unit 0 and a
    record of unit_id, with unit 0's delta changed by edit and a valid
    checksum: it must be refused before any unit runs."""
    from rootcensus import census

    path = str(tmp_path / "census.ckpt")
    spec = CensusSpec(n=2, height=2, counters=("A*",), checkpoint=path)
    run_census(spec, limit_units=1)
    delta = edit(json.loads(open(path, encoding="utf-8").read().splitlines()[1])["counters_delta"])
    rec = {"unit_id": unit_id, "counters_delta": delta,
           "checksum": census._record_checksum(unit_id, delta)}
    open(path, "a", encoding="utf-8").write(json.dumps(rec, sort_keys=True) + "\n")
    ran = []
    monkeypatch.setattr(census, "_unit_worker", lambda p: ran.append(p) or _unit_worker(p))
    with pytest.raises(CheckpointCorrupt):
        run_census(spec)
    assert ran == []


@pytest.mark.parametrize("unit_id", [999, "0"])
def test_checkpoint_unit_the_census_lacks_rejected(monkeypatch, tmp_path, unit_id):
    # a record with a valid checksum but a unit id this census does not
    # have would be merged into its totals
    _refused_record(monkeypatch, tmp_path, unit_id, lambda delta: delta)


# counter deltas of the wrong shape, or with families or labels the
# census does not count
_BAD_DELTAS = {
    "no-counts": lambda d: {"totals": d["totals"], "ambiguous": d["ambiguous"]},
    "counts-list": lambda d: dict(d, counts=[]),
    "totals-string": lambda d: dict(d, totals="x"),
    "delta-list": lambda d: [d],
    "cell-string": lambda d: dict(d, counts={"A*": {"1": "a"}}),
    "totals-negative": lambda d: dict(d, totals=-5),
    "family-not-counted": lambda d: dict(d, counts=dict(d["counts"], **{"B*": {"1,1": 1}})),
    "label-never-produced": lambda d: dict(d, counts={"A*": {"99": 25}}),
}


@pytest.mark.parametrize("edit", _BAD_DELTAS.values(), ids=_BAD_DELTAS.keys())
def test_checkpoint_malformed_delta_rejected(monkeypatch, tmp_path, edit):
    _refused_record(monkeypatch, tmp_path, 1, edit)


# -- fits and reports -------------------------------------------------------------------


def test_fit_growth_exponent_exact_power():
    pts = [(h, 3.5 * h**2.0) for h in (10, 20, 40, 80)]
    fit = fit_growth_exponent(pts)
    assert abs(fit.slope - 2.0) < 1e-9
    assert fit.residual < 1e-9


def test_fit_growth_errors():
    with pytest.raises(InsufficientPoints):
        fit_growth_exponent([(1, 1), (2, 4)])
    with pytest.raises(InsufficientPoints):  # one height: no slope to fit
        fit_growth_exponent([(2, 1), (2, 2), (2, 3)])
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


def test_density_report_of_a_table_of_no_points_rejected():
    empty = run_census(CensusSpec(n=2, height=2, counters=("A*",)), limit_units=0)
    assert empty.totals == 0
    with pytest.raises(EmptyInput):
        density_report([run_census(CensusSpec(n=2, height=1, counters=("A*",))), empty])


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
