"""Exhaustive censuses of integer polynomials by root geometry.

A census enumerates every degree-n integer polynomial in a height box
(monic: a_1..a_n in [-H, H], (2H+1)^n points; otherwise the full box
a_0 in [-H, H] minus 0 and a_1..a_n in [-H, H], 2H(2H+1)^n points),
classifies each one exactly, and maintains integer counters. The
counters, their boxes, families, labels and degree limits are declared
once, in `_COUNTERS` below; the README tabulates what each one counts.

Work is split into units along the leading enumerated coefficient,
each unit a contiguous chunk of at most ~250k lattice points; unit
results merge by plain addition, so the final table is a pure function
of the spec, independent of worker count, completion order, and
checkpoint interruptions. Checkpoints are line-delimited JSON with
per-record sha256 checksums, one record per unit in unit order at any
worker count, so a checkpoint's bytes too are a function of the spec;
any malformed or truncated line, or a record of a unit, family or label
the census does not have, is a CheckpointCorrupt error, not a silent
recovery.

One unit path tallies every unit (_unit_worker). It enumerates the unit
as open-grid blocks of int32 or int64 columns (_blocks), gives each row
a uint8 state, 0 when undecided, else one whose table entry holds the
row's statistics (k_max, k_min, real and distinct roots, ...) for each
counter's one labeler, counts a block's states with one np.bincount,
labels each state once, and sends the rows in state 0 through
classify_pipeline. The scalar engine decides no row, so classify_pipeline
sees every point. The vector engine, for n in {2, 3, 4} up to a height
cap per degree (VECTOR_HEIGHT_CAPS), takes the states from kernels over
broadcast numpy arrays (_vec_profile: exact integer decision trees at
n in {2, 3}, disc = 0 and repeated roots in closed form; at n = 4 f(X^2)
in closed form, else certified eigenvalue disks, ties decided by a Sturm
count); on the n=4 H=2 box it leaves 32 of 2,500 rows, each with disc = 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BadParameters,
    BudgetExceeded,
    CheckpointCorrupt,
    EmptyInput,
    InsufficientPoints,
    NonpositiveCount,
    PrecisionCapExceeded,
    SpecMismatch,
)
from .classify import (
    DEFAULT_DEGREE_CAP,
    DEFAULT_PRIME_BOUND,
    _double_root_order,
    _extremes_split,
    _mod2,
    _modulus_units,
    _runs,
    _signature_counts,
    _tie_chain,
    factorize,
    modulus_profile,
    sn_certificate,
)
from .intpoly import IntPolynomial, disc2, disc3
from .roots import _apart, _companion_roots, _horner

__all__ = [
    "CensusSpec",
    "CounterTable",
    "WorkUnit",
    "CheckpointState",
    "GrowthFit",
    "make_work_units",
    "classify_pipeline",
    "run_census",
    "fit_growth_exponent",
    "density_report",
    "checkpoint_load",
    "counter_table_csv",
]

UNIT_TARGET = 250_000
MIN_UNITS = 8
DEFAULT_BUDGET = 10**9
# each integer kernel's degree n with C: at height H its every integer term
# stays below C H^(2n - 2) in modulus (C sums the modulus of disc's
# coefficients). The n = 4 kernel has none of its own, so degree n is bound
# by the kernel of degree min(n, 3): the cap is the largest H whose bound is
# below 2^63, and _blocks takes int32 columns while it is below 2^31 (at
# n = 1, whose columns are bare coefficients, while the quadratic's is)
_TERM_BOUNDS = {2: 5, 3: 54}
VECTOR_HEIGHT_CAPS = {n: int((2**63 / _TERM_BOUNDS[min(n, 3)]) ** (1 / (2 * min(n, 3) - 2)))
                      for n in (2, 3, 4)}
CHECKPOINT_FORMAT = "rootcensus-census-checkpoint"


# -- counters ---------------------------------------------------------------------


# Every counter labels one flat dict of plain integers per polynomial,
# its statistics (_stats, _vec_profile): n, and by need "profile": kmax,
# kmin and nz (1 when a_n != 0); "signature": the real roots r among n,
# with multiplicity, and the distinct real roots rd among nd distinct
# roots; "factorization": m, the smallest factor degree when reducible,
# else 0; "sn": undecided (1 when S_n is not certified).


class _Counter(NamedTuple):
    """One census counter: the box it needs (monic, full, or either when
    None); its families, each with its complete labels at degree n; the
    statistics it needs; its labeler `cells(stats)`, giving the (family,
    label) cells of a polynomial's statistics; its degree limit, if any
    (needing the factorization also limits n to degree_cap); other
    spellings the CLI accepts; and whether its one cell is written as a
    bare number."""

    monic: Optional[bool]
    families: Dict[str, Callable[[int], List[str]]]
    needs: Tuple[str, ...]
    cells: Callable[[Dict[str, int]], List[Tuple[str, str]]]
    max_n: Optional[int] = None
    aliases: Tuple[str, ...] = ()
    scalar: bool = False


def _kmax_counter(family: str, monic: bool) -> _Counter:
    return _Counter(
        monic=monic,
        families={family: lambda n: [str(k) for k in range(1, n + 1)]},
        needs=("profile",),
        cells=lambda st: [(family, str(st["kmax"]))],
    )


def _signature_label(r: int, n: int) -> str:
    """The label of r real roots among n."""
    return "r=%d,s=%d" % (r, (n - r) // 2)


_PAIRS = ["%d,%d" % (i, j) for i in (1, 2) for j in (1, 2)]


def _pair_cells(st: Dict[str, int]) -> List[Tuple[str, str]]:
    if st["kmax"] > 2 or st["kmin"] > 2:
        return []
    label = "%d,%d" % (st["kmax"], st["kmin"])
    return [("B*", label)] + ([("B*nz", label)] if st["nz"] else [])


def _reducible_counter(family: str, monic: bool) -> _Counter:
    return _Counter(
        monic=monic,
        families={family: lambda n: ["m=%d" % m for m in range(1, n // 2 + 1)]},
        needs=("factorization",),
        cells=lambda st: [(family, "m=%d" % st["m"])] if st["m"] else [],
        max_n=6,
    )


# every census counter, in the order the CLI lists them
_COUNTERS: Dict[str, _Counter] = {
    # polynomials by k_max, the number of roots of maximal modulus
    "A": _kmax_counter("A", monic=True),
    "A*": _kmax_counter("A*", monic=False),
    # by real signature (r, s) with multiplicity; D*d by distinct roots
    "D*": _Counter(
        monic=False,
        families={"D*": lambda n: [_signature_label(r, n) for r in range(n % 2, n + 1, 2)],
                  "D*d": lambda n: []},
        needs=("signature",),
        cells=lambda st: [("D*", _signature_label(st["r"], st["n"])),
                          ("D*d", _signature_label(st["rd"], st["nd"]))],
    ),
    # by (k_max, k_min) with both <= 2; B*nz restricts to a_n != 0, where
    # the reciprocal identity B*(2,1) = B*(1,2) holds exactly
    "B*": _Counter(
        monic=False,
        families={"B*": lambda n: _PAIRS, "B*nz": lambda n: _PAIRS},
        needs=("profile",),
        cells=_pair_cells,
    ),
    # reducible polynomials by smallest irreducible factor degree
    "RHO": _reducible_counter("rho", monic=True),
    "RHO*": _reducible_counter("rho*", monic=False),
    # polynomials not certified S_n: an upper bound on the non-S_n count
    "E_UPPER": _Counter(
        monic=None,
        families={"E_upper": lambda n: ["count"]},
        needs=("factorization", "sn"),
        cells=lambda st: [("E_upper", "count")] if st["undecided"] else [],
        aliases=("E",),
        scalar=True,
    ),
}

_SCALAR_FAMILIES = frozenset(fam for c in _COUNTERS.values() if c.scalar for fam in c.families)


def _requested(counters: Sequence[str]) -> List[_Counter]:
    """The requested counters, each once, in declaration order."""
    return [c for name, c in _COUNTERS.items() if name in counters]


@dataclass(frozen=True)
class CensusSpec:
    """Full description of one census; the counter table is a pure
    function of everything here except jobs, checkpoint and engine
    (which only affect how the work is done)."""

    n: int
    height: int
    monic: bool = False
    counters: Tuple[str, ...] = ("A*",)
    jobs: int = 1
    checkpoint: Optional[str] = None
    prime_bound: int = DEFAULT_PRIME_BOUND
    degree_cap: int = DEFAULT_DEGREE_CAP
    permissive: bool = False
    symmetry: bool = False
    engine: str = "auto"

    def validate(self) -> None:
        if self.n < 1:
            raise BadParameters("census degree must be >= 1")
        if self.height < 1:
            raise BadParameters("census height must be >= 1")
        if self.jobs < 1:
            raise BadParameters("jobs must be >= 1")
        if self.engine not in ("auto", "scalar", "vector"):
            raise BadParameters("unknown engine %r" % (self.engine,))
        if not self.counters:
            raise BadParameters("no counters requested")
        if self.symmetry and self.monic:
            raise BadParameters("symmetry reduction applies only to the full box")
        for name in self.counters:
            c = _COUNTERS.get(name)
            if c is None:
                raise BadParameters(
                    "unknown counter %r (choices: %s)" % (name, ", ".join(_COUNTERS))
                )
            if c.monic is not None and c.monic != self.monic:
                box = "a monic census" if c.monic else "the full (non-monic) census"
                raise BadParameters("counter %s needs %s" % (name, box))
            if c.max_n is not None and self.n > c.max_n:
                raise BadParameters("counter %s is limited to n <= %d" % (name, c.max_n))
            if "factorization" in c.needs and self.n > self.degree_cap:
                raise BadParameters("factorization-based counters need n <= degree_cap")
        if self.engine == "vector" and not _vector_ok(self):
            raise BadParameters("vector engine unavailable for this spec")

    @property
    def total_points(self) -> int:
        side = 2 * self.height + 1
        if self.monic:
            return side**self.n
        return 2 * self.height * side**self.n

    def fingerprint(self) -> Dict[str, object]:
        return {
            "n": self.n,
            "height": self.height,
            "monic": self.monic,
            "counters": sorted(set(self.counters)),
            "prime_bound": self.prime_bound,
            "degree_cap": self.degree_cap,
            "permissive": self.permissive,
            "symmetry": self.symmetry,
        }


@dataclass(frozen=True)
class WorkUnit:
    """A contiguous chunk of leading-coefficient values; the worker
    enumerates the full sub-box beneath them in lexicographic order."""

    unit_id: int
    leads: Tuple[int, ...]


class CounterTable:
    """Integer counters for one census spec; merging is cellwise
    addition, so any partition of the box gives the same total."""

    def __init__(
        self,
        spec_key: Dict[str, object],
        counts: Optional[Dict[str, Dict[str, int]]] = None,
        totals: int = 0,
        ambiguous: int = 0,
    ):
        self.spec_key = spec_key
        self.counts: Dict[str, Dict[str, int]] = counts if counts is not None else {}
        self.totals = totals
        self.ambiguous = ambiguous

    def add(self, family: str, label: str, k: int = 1) -> None:
        fam = self.counts.setdefault(family, {})
        fam[label] = fam.get(label, 0) + k

    def get(self, family: str, label: str) -> int:
        return self.counts.get(family, {}).get(label, 0)

    def family(self, family: str) -> Dict[str, int]:
        return dict(self.counts.get(family, {}))

    def family_total(self, family: str) -> int:
        return sum(self.counts.get(family, {}).values())

    def merge(self, other: "CounterTable") -> "CounterTable":
        if self.spec_key != other.spec_key:
            raise SpecMismatch(
                "cannot merge tables: %r vs %r" % (self.spec_key, other.spec_key)
            )
        out = CounterTable(self.spec_key, totals=self.totals + other.totals,
                           ambiguous=self.ambiguous + other.ambiguous)
        for src in (self.counts, other.counts):
            for fam, cells in src.items():
                for label, k in cells.items():
                    out.add(fam, label, k)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CounterTable):
            return NotImplemented
        return (
            self.spec_key == other.spec_key
            and self.totals == other.totals
            and self.ambiguous == other.ambiguous
            and _trim(self.counts) == _trim(other.counts)
        )

    def delta_dict(self) -> Dict[str, object]:
        return {
            "totals": self.totals,
            "ambiguous": self.ambiguous,
            "counts": {f: dict(sorted(c.items())) for f, c in sorted(self.counts.items())},
        }

    @classmethod
    def from_delta(cls, spec_key: Dict[str, object], delta: Dict[str, object]) -> "CounterTable":
        counts = {f: dict(c) for f, c in delta["counts"].items()}
        return cls(spec_key, counts, int(delta["totals"]), int(delta["ambiguous"]))

    def to_json(self, runtime_seconds: Optional[float] = None) -> Dict[str, object]:
        counters: Dict[str, object] = {}
        for fam in sorted(self.counts):
            cells = self.counts[fam]
            if fam in _SCALAR_FAMILIES:
                counters[fam] = sum(cells.values())
            else:
                counters[fam] = dict(sorted(cells.items()))
        out: Dict[str, object] = {
            "spec": dict(self.spec_key),
            "totals": self.totals,
            "ambiguous": self.ambiguous,
            "counters": counters,
        }
        if runtime_seconds is not None:
            out["runtime_seconds"] = runtime_seconds
        return out


def _trim(counts: Dict[str, Dict[str, int]]) -> Dict[str, Dict[str, int]]:
    return {
        f: {l: k for l, k in cells.items() if k != 0}
        for f, cells in counts.items()
        if any(v != 0 for v in cells.values())
    }


# -- work partition -----------------------------------------------------------


def _lead_values(spec: CensusSpec) -> List[int]:
    hh = spec.height
    if spec.monic:
        return list(range(-hh, hh + 1))
    if spec.symmetry:
        return list(range(1, hh + 1))
    return [v for v in range(-hh, hh + 1) if v != 0]


def _points_per_lead(spec: CensusSpec) -> int:
    side = 2 * spec.height + 1
    return side ** (spec.n - 1) if spec.monic else side**spec.n


def make_work_units(spec: CensusSpec) -> List[WorkUnit]:
    """Partition the box into units of at most ~UNIT_TARGET points by
    chunking the leading enumerated coefficient (a_0, or a_1 when
    monic), but never fewer than MIN_UNITS units when the lead range
    allows it (so interruption and parallelism stay meaningful on
    small boxes). The partition depends only on fingerprint fields,
    never on jobs, so checkpoints replay across worker counts."""
    per = _points_per_lead(spec)
    values = _lead_values(spec)
    spread = -(-len(values) // MIN_UNITS)  # ceil division
    chunk = max(1, min(UNIT_TARGET // per, spread))
    units = []
    for i in range(0, len(values), chunk):
        units.append(WorkUnit(len(units), tuple(values[i : i + chunk])))
    return units


# -- per-polynomial pipeline ----------------------------------------------------


def _empty_cells(spec: CensusSpec) -> Dict[str, Dict[str, int]]:
    """All requested families with their complete label sets at 0, so
    complete tables always carry every expected key."""
    return {
        fam: dict.fromkeys(labels(spec.n), 0)
        for c in _requested(spec.counters)
        for fam, labels in c.families.items()
    }


def _stats(f: IntPolynomial, spec: CensusSpec) -> Optional[Dict[str, int]]:
    """The statistics of f that the requested counters need, each computed
    once, cheapest first. The modulus profile raises PrecisionCapExceeded
    on ambiguity unless spec.permissive, in which case f is ambiguous and
    this returns None."""
    needs = {s for c in _requested(spec.counters) for s in c.needs}
    st = {"n": f.degree}
    if "signature" in needs:
        st["r"], st["rd"], st["nd"] = _signature_counts(f)
    if "factorization" in needs:
        fr = factorize(f, degree_cap=spec.degree_cap)
        st["m"] = 0 if fr.irreducible else min(p.degree for p, _ in fr.factors)
        if "sn" in needs:
            st["undecided"] = int(not fr.irreducible or sn_certificate(
                f, prime_bound=spec.prime_bound, assume_irreducible=True).verdict == "UNDECIDED")
    if "profile" in needs:
        try:
            prof = modulus_profile(f)
        except PrecisionCapExceeded:
            if not spec.permissive:
                raise
            return None
        st.update(kmax=prof.k_max, kmin=prof.k_min, nz=int(f.coeffs[-1] != 0))
    return st


def classify_pipeline(f: IntPolynomial, spec: CensusSpec) -> Optional[List[Tuple[str, str]]]:
    """The (family, label) cells of f for the requested counters, or None
    when f is ambiguous (_stats)."""
    st = _stats(f, spec)
    if st is None:
        return None
    return [cell for c in _requested(spec.counters) for cell in c.cells(st)]


# -- unit tally ---------------------------------------------------------------------


# each _vec_profileN maps a block's coefficient columns, flat or open-grid
# (_blocks), to a uint8 state per row, of the block's shape, and the table
# from state to the row's (kmax, kmin, r, rd, nd) as in _stats: None for
# state 0, which leaves a row to classify_pipeline (only at n = 4), and
# for states no row takes. A disc = 0 row of degree <= 3 is decided in
# closed form: its roots are real, a double root (and a simple one) or a
# triple root. _vec_profile restates every row with a_n = 0, so a kernel
# may assume a nonzero constant term. The n = 4 kernel decides f(X^2) rows
# in closed form and certifies the rest in int64 where a guard allows
# (_vec_certify), ties by a Sturm count; what is left goes to classify_pipeline


def _case(key):
    """Bytes 0, 1, 2 as key = 0, > 0, < 0."""
    return (key > 0).view(np.uint8) + 2 * (key < 0).view(np.uint8)


def _vec_profile0(a):
    return np.ones(a.shape, dtype=np.uint8), [None, (0, 0, 0, 0, 0)]  # no roots


def _vec_profile1(a, b):
    return np.ones(np.broadcast_shapes(a.shape, b.shape), dtype=np.uint8), [None, (1, 1, 1, 1, 1)]


def _vec_profile2(a, b, c):
    """States 1 + _case(disc), or 4 when disc > 0 and b != 0 (no opposite pair)."""
    dd = disc2(a, b, c)
    states = 1 + _case(dd)
    states[(dd > 0) & (b != 0)] = 4
    return states, [None, (2, 2, 2, 1, 1), (2, 2, 2, 2, 2), (2, 2, 0, 0, 2), (1, 1, 2, 2, 2)]


def _vec_profile3(a, b, c, d):
    """States 1 + case + 4 g: g = 0, 1, 2 as disc < 0, = 0, > 0, and case
    0, 1, 2 as the key of profile_pair_deg3 is 0, > 0, < 0, or 3 when disc
    > 0 and no opposite pair, or disc = 0 and a triple root (a double root
    of the derivative; its key is 0); the table holds None where no row
    can be. Only the rows with an opposite pair and disc > 0, or with disc
    = 0, are gathered."""
    dsc = disc3(a, b, c, d)
    states = 1 + _case(a * c * c * c - b * b * b * d)
    pos = dsc > 0
    states[pos] = 12
    pair = np.flatnonzero(pos & (b != 0) & (b * c == a * d))
    a1, b1, _, d1 = _rows((a, b, c, d), pair)
    states.flat[pair] = 9 + _case(-(a1 * a1 * d1 + b1 * b1 * b1) * b1)
    zero = np.flatnonzero(dsc == 0)
    a0, b0, c0, d0 = _rows((a, b, c, d), zero)
    triple = (disc2(3 * a0, 2 * b0, c0) == 0).view(np.uint8)
    states.flat[zero] = 5 + _case(_double_root_order(a0, b0, c0, d0)) + 3 * triple
    return states, [None, (3, 3, 1, 1, 3), (2, 1, 1, 1, 3), (1, 2, 1, 1, 3), None,
                    (3, 3, 3, 2, 2), (2, 1, 3, 2, 2), (1, 2, 3, 2, 2), (3, 3, 3, 1, 1),
                    None, (2, 1, 3, 3, 3), (1, 2, 3, 3, 3), (1, 1, 3, 3, 3)]


def _certified_state(kmax, kmin, r):
    """The state of a squarefree n = 4 row (_vec_profile4's table)."""
    return 16 * (r // 2) + 4 * kmax + kmin - 4


def _radius_bound(n, gr, gi, dr, di):
    """ceil(n |G| / |D| (1 + 2^-40)) + 1 in doubles from int64 _horner values,
    which err by less than 2^-49 relative: above roots._certify's radius."""
    return np.ceil(n * np.hypot(gr, gi) / np.hypot(dr, di) * (1 + 2**-40)) + 1


def _vec_certify(cols, z, k):
    """The int64 pass over the columns a_0..a_n of rows with proposed roots
    z (n a row): a uint8 state per row (_certified_state), 0 where it
    cannot decide, and the rows it certifies with a tied extreme run, with
    their disks (A, B, r), an (n, 3) array a row. Centres (A + Bi) 2^-k
    round z. A row is taken only when 2 (n + 1) H mu^n < 2^63, H its
    largest |coefficient| and mu = max(|A + Bi|, 2^k), k >= 2: every partial
    value of _horner on the columns, widened to int64 first, then stays
    below it. A row is certified as roots._certified would certify it, or
    stricter: its radii below 2^30 (so no square overflows), its disks
    pairwise apart, each real (b = 0) or the exact mirror image of another,
    and so |b| > r; it has a state when both extreme runs are one unit."""
    n = len(cols) - 1
    cs = [col.astype(np.int64)[:, None] for col in cols]
    a, b = np.rint(z.real * 2.0**k), np.rint(z.imag * 2.0**k)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mu2 = np.maximum(a * a + b * b, 4.0**k)
        bound = 2 * (n + 1) * np.max(np.abs(np.stack(cs)), axis=0) * mu2 ** (n / 2)
        rows = np.flatnonzero(np.all(bound < 2.0**63, axis=1))
        cs, a, b = [c[rows] for c in cs], a[rows].astype(np.int64), b[rows].astype(np.int64)
        rf = _radius_bound(n, *_horner(cs, a, b, k))
    r = np.where(rf < 2**30, rf, 0).astype(np.int64)
    disks = np.stack((a, b, r))[..., None]
    apart = _apart(disks, disks.swapaxes(2, 3)) | np.eye(n, dtype=bool)
    mirror = (disks == np.stack((a, -b, r))[:, :, None, :]).all(axis=0)
    ok = np.all(rf < 2**30, axis=1) & apart.all(axis=(1, 2)) & mirror.any(axis=2).all(axis=1)
    # a unit (a real disk or the upper one of a pair) alone in an extreme
    # run has its enclosure below, or above, those of all other units
    real, (lo, hi) = b == 0, _mod2(a, b, r)
    unit = real | (b > 0)
    other = ~unit[:, None, :] | np.eye(n, dtype=bool)
    low = unit & ((hi[:, :, None] < lo[:, None, :]) | other).all(axis=2)
    high = unit & ((lo[:, :, None] > hi[:, None, :]) | other).all(axis=2)
    single = ok & low.any(axis=1) & high.any(axis=1)
    mult = 2 - real
    got = _certified_state((mult * high).sum(axis=1), (mult * low).sum(axis=1), real.sum(axis=1))
    states = np.zeros(cols[0].size, dtype=np.uint8)
    states[rows[single]] = got[single]
    tied = ok & ~single
    return states, rows[tied], np.stack((a, b, r), axis=2)[tied]


def _vec_profile4(a, b, c, d, e):
    """Quartic rows with e != 0. An f(X^2) row (b = d = 0) is decided in
    closed form: a root y of g = aY^2 + cY + e gives two roots of modulus
    |y|^(1/2), real when y > 0 and double when y is. Any other row is
    decided when disks around its companion eigenvalues certify in int64
    over the block (_vec_certify, at the k bits that keep the roots of the
    block's height H, of modulus at most H + 1, within its guard; none when
    k < 2) and each extreme modulus run is one unit or a union holding one
    distinct root of the pair-product Sturm chain (classify._extremes_split);
    every other row gets state 0. Four disjoint disks prove a certified row
    squarefree and give its real roots, so its state is that of (real
    roots, kmax, kmin); such a row with disc = 0 never certifies."""
    ks = range(1, 5)
    table = [None] + [(kx, kn, r, r, 4) for r in (0, 2, 4) for kx in ks for kn in ks]
    table += [(4, 4, 4, 2, 2), (4, 4, 0, 0, 2)]  # f(X^2) with a double root of g
    states = np.zeros(np.broadcast(a, b, c, d, e).shape, dtype=np.uint8)
    sq = np.flatnonzero(np.broadcast_to((e != 0) & (b == 0) & (d == 0), states.shape))
    a2, _, c2, _, e2 = _rows((a, b, c, d, e), sq)
    dg, r = disc2(a2, c2, e2), np.where(a2 * e2 < 0, 2, 4 * (a2 * c2 < 0))
    k2 = np.where((dg > 0) & (c2 != 0), 2, 4)
    states.flat[sq] = np.where(dg == 0, 49 + (r == 0), _certified_state(k2, k2, r * (dg > 0)))
    rows = np.flatnonzero(np.broadcast_to((e != 0) & ((b != 0) | (d != 0)), states.shape))
    cols = _rows((a, b, c, d, e), rows)
    h = max(int(np.abs(col).max(initial=0)) for col in cols)
    k = (63 - (10 * h * (h + 1) ** 4).bit_length()) // 4
    if k < 2:
        return states, table
    coeffs = np.stack(cols, axis=1)
    got, tied, disks = _vec_certify(cols, _companion_roots(coeffs), k)
    for i, row, dk in zip(tied.tolist(), coeffs[tied].tolist(), disks.tolist()):
        cells = [(x, y, r, 1, y == 0) for x, y, r in dk]
        runs = _runs(_modulus_units(cells))
        if _extremes_split(runs, -2 * k, _tie_chain(IntPolynomial(row))):
            got[i] = _certified_state(runs[-1].mult, runs[0].mult, sum(c[4] for c in cells))
    states.flat[rows] = got
    return states, table


_VEC_PROFILES = [_vec_profile0, _vec_profile1, _vec_profile2, _vec_profile3, _vec_profile4]


def _blocks(spec: CensusSpec, leads: Sequence[int]):
    """The unit's points as open-grid coefficient columns a_0..a_n (leading
    first, column i varying along axis i only, as from np.ix_), in
    enumeration order and in blocks of at most UNIT_TARGET points: the
    axes before axis j take one value at a time, and axis j is cut into
    slices as long as the axes after it allow."""
    m = min(max(spec.n, 2), 3)
    dtype = np.int32 if _TERM_BOUNDS[m] * spec.height ** (2 * m - 2) < 2**31 else np.int64
    rng = np.arange(-spec.height, spec.height + 1, dtype=dtype)
    # a monic box's a_0 = 1 is an axis of one value
    axes = [np.ones(1, dtype=dtype)] * spec.monic + [np.asarray(leads, dtype=dtype)]
    axes += [rng] * (spec.n - spec.monic)
    j = 0
    while math.prod(ax.size for ax in axes[j + 1 :]) > UNIT_TARGET:
        j += 1
    step = max(1, UNIT_TARGET // math.prod(ax.size for ax in axes[j + 1 :]))
    for head in itertools.product(*axes[:j]):
        for s in range(0, axes[j].size, step):
            yield list(np.ix_(*[np.array([h]) for h in head], axes[j][s : s + step], *axes[j + 1 :]))


def _rows(cols, rows):
    """The given flat rows of a block's broadcasting columns, as 1-D columns."""
    shape = np.broadcast_shapes(*(col.shape for col in cols))
    at = np.unravel_index(rows, shape)
    return [np.broadcast_to(col, shape)[at] for col in cols]


def _vec_profile(coeffs):
    """A block's rows (a_0 != 0) as one uint8 state each, flat, and the
    table from state to statistics, each a dict named as in _stats (n,
    kmax, kmin, r, rd, nd and nz), None for state 0: undecided. The
    degree-n kernel reads every row; a row X^v u with u(0) != 0 and v >= 1
    then takes the state of the degree-(n - v) kernel on its first n - v + 1
    columns, which hold u, shifted onto a copy of that kernel's table:
    kmax is u's (v when u has no roots), and the v zero roots are the
    strict minimal group, v more real roots and one more distinct real
    root. The kernels of degree < n decide every row."""
    n = len(coeffs) - 1
    states, entries = _VEC_PROFILES[n](*coeffs)
    zero = np.flatnonzero(np.broadcast_to(coeffs[-1] == 0, states.shape))
    states = states.reshape(-1)
    table = [e and dict(zip(("kmax", "kmin", "r", "rd", "nd"), e), n=n, nz=1) for e in entries]
    sub = _rows(coeffs, zero)
    # v, the number of trailing zero coefficients before a_0 != 0
    v = np.argmax(np.stack(sub[::-1]) != 0, axis=0)
    for k in set(v.tolist()):
        sel = np.flatnonzero(v == k)
        sub_states, entries = _VEC_PROFILES[n - k](*(col[sel] for col in sub[: n - k + 1]))
        states[zero[sel]] = sub_states + len(table)
        table += [e and dict(n=n, kmax=e[0] or k, kmin=k, r=e[2] + k, rd=e[3] + 1, nd=e[4] + 1, nz=0)
                  for e in entries]
    return states, table


def _vector_ok(spec: CensusSpec) -> bool:
    return spec.height <= VECTOR_HEIGHT_CAPS.get(spec.n, 0) and all(
        set(c.needs) <= {"profile", "signature"} for c in _requested(spec.counters)
    )


def _unit_worker(payload: Tuple[CensusSpec, WorkUnit]):
    """The unit id and the counter delta of one unit. Each block's rows
    take one state each, from _vec_profile when the spec's engine has a
    kernel, else state 0; the decided rows are tallied by state, one
    np.bincount a block, labelling each state that occurs once, and the
    undecided rows (state 0) go through classify_pipeline."""
    spec, unit = payload
    kernel = spec.engine == "vector" or (spec.engine == "auto" and _vector_ok(spec))
    counters = _requested(spec.counters)
    table = CounterTable(spec.fingerprint(), _empty_cells(spec))
    for coeffs in _blocks(spec, unit.leads):
        if kernel:
            states, stats = _vec_profile(coeffs)
        else:
            states, stats = np.zeros(np.broadcast(*coeffs).size, dtype=np.uint8), [None]
        hist = np.bincount(states).tolist()
        table.totals += states.size
        if hist[0]:
            for row in zip(*(col.tolist() for col in _rows(coeffs, np.flatnonzero(states == 0)))):
                cells = classify_pipeline(IntPolynomial(row), spec)
                if cells is None:
                    table.ambiguous += 1
                for fam, label in cells or ():
                    table.add(fam, label)
        for st, count in zip(stats[1:], hist[1:]):
            if count:
                for fam, label in (cell for c in counters for cell in c.cells(st)):
                    table.add(fam, label, count)
    if spec.symmetry:
        # -f has the same roots: every statistic matches, so the a_0 < 0
        # half-box is an exact mirror of the enumerated a_0 > 0 half
        table = table.merge(table)
    return unit.unit_id, table.delta_dict()


# -- checkpoints -----------------------------------------------------------------


@dataclass
class CheckpointState:
    fingerprint: Dict[str, object]
    deltas: Dict[int, Dict[str, object]] = field(default_factory=dict)


def _record_checksum(unit_id: int, delta: Dict[str, object]) -> str:
    blob = json.dumps(
        {"unit_id": unit_id, "counters_delta": delta},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _write_line(fh, record: Dict[str, object]) -> None:
    """Append one checkpoint line (the header or a unit record)."""
    fh.write(json.dumps(record, sort_keys=True) + "\n")
    fh.flush()


def _delta_ok(delta: object) -> bool:
    """Whether a counter delta has delta_dict's shape, each count an int >= 0,
    with no family above totals - ambiguous: each labels a point at most once."""
    if not (isinstance(delta, dict) and sorted(delta) == ["ambiguous", "counts", "totals"]
            and isinstance(delta["counts"], dict)
            and all(isinstance(cells, dict) for cells in delta["counts"].values())):
        return False
    counts = [delta["totals"], delta["ambiguous"]]
    counts += [k for cells in delta["counts"].values() for k in cells.values()]
    return all(type(k) is int and k >= 0 for k in counts) and all(
        sum(cells.values()) <= delta["totals"] - delta["ambiguous"] for cells in delta["counts"].values())


def checkpoint_load(path: str) -> CheckpointState:
    """Parse and validate a checkpoint; any defect (missing or bad
    header, unparseable or truncated record, checksum mismatch, unit id
    not an integer, malformed counter delta, duplicate unit) raises
    CheckpointCorrupt."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointCorrupt("cannot read checkpoint: %s" % exc) from exc
    lines = raw.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    else:
        raise CheckpointCorrupt("checkpoint ends mid-record (truncated write)")
    if not lines:
        raise CheckpointCorrupt("checkpoint is empty")
    try:
        header = json.loads(lines[0])
    except ValueError as exc:
        raise CheckpointCorrupt("bad checkpoint header") from exc
    if (
        not isinstance(header, dict)
        or header.get("format") != CHECKPOINT_FORMAT
        or header.get("version") != 1
        or "fingerprint" not in header
    ):
        raise CheckpointCorrupt("unrecognized checkpoint header")
    state = CheckpointState(header["fingerprint"])
    for ln, line in enumerate(lines[1:], start=2):
        try:
            rec = json.loads(line)
            unit_id = rec["unit_id"]
            delta = rec["counters_delta"]
            checksum = rec["checksum"]
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointCorrupt("bad checkpoint record at line %d" % ln) from exc
        if _record_checksum(unit_id, delta) != checksum:
            raise CheckpointCorrupt("checksum mismatch at line %d" % ln)
        if type(unit_id) is not int:
            raise CheckpointCorrupt("unit id %r at line %d is not an integer" % (unit_id, ln))
        if not _delta_ok(delta):
            raise CheckpointCorrupt("malformed counter delta at line %d" % ln)
        if unit_id in state.deltas:
            raise CheckpointCorrupt("duplicate unit %r at line %d" % (unit_id, ln))
        state.deltas[unit_id] = delta
    return state


# -- census driver -----------------------------------------------------------------


def run_census(spec: CensusSpec, limit_units: Optional[int] = None) -> CounterTable:
    """Classify every polynomial in the box exactly once and return the
    counter table: deterministic for a given spec, independent of job
    count and checkpoint interruption. Checkpoint records are written in
    unit order, so the checkpoint's bytes are as well.

    limit_units stops after that many units (for interruption tests);
    the partial result lands in the checkpoint, not the return value
    contract (totals then cover only the completed units).
    """
    spec.validate()
    if spec.total_points > DEFAULT_BUDGET:
        raise BudgetExceeded(
            "census needs %d lattice points, budget is %d"
            % (spec.total_points, DEFAULT_BUDGET)
        )
    units = make_work_units(spec)
    table = CounterTable(spec.fingerprint(), _empty_cells(spec))
    done: Dict[int, Dict[str, object]] = {}
    if spec.checkpoint and os.path.exists(spec.checkpoint):
        state = checkpoint_load(spec.checkpoint)
        if state.fingerprint != spec.fingerprint():
            raise CheckpointCorrupt(
                "checkpoint belongs to a different census: %r" % (state.fingerprint,)
            )
        done = state.deltas
        extra = set(done) - {u.unit_id for u in units}
        if extra:
            raise CheckpointCorrupt("checkpoint names units this census lacks: %s" % sorted(extra))
        families = set().union(*(delta["counts"] for delta in done.values())) - set(table.counts)
        if families:
            raise CheckpointCorrupt("checkpoint counts families this census does not: %s" % sorted(families))
        # a family with a complete label set (all but D*d) admits no other label
        strays = {(fam, label) for delta in done.values() for fam, cells in delta["counts"].items()
                  for label in cells if table.counts[fam] and label not in table.counts[fam]}
        if strays:
            raise CheckpointCorrupt("checkpoint has labels this census never produces: %s" % sorted(strays))
        for delta in done.values():
            table = table.merge(CounterTable.from_delta(spec.fingerprint(), delta))
    pending = [(spec, u) for u in units if u.unit_id not in done]
    if limit_units is not None:
        pending = pending[:limit_units]
    with contextlib.ExitStack() as stack:
        fh = None
        if spec.checkpoint:
            fresh = not os.path.exists(spec.checkpoint)
            try:
                fh = stack.enter_context(open(spec.checkpoint, "a", encoding="utf-8"))
            except OSError as exc:
                raise CheckpointCorrupt("cannot write checkpoint: %s" % exc) from exc
            if fresh:
                header = {"format": CHECKPOINT_FORMAT, "version": 1,
                          "fingerprint": spec.fingerprint()}
                _write_line(fh, header)
        if spec.jobs == 1 or len(pending) <= 1:
            results = map(_unit_worker, pending)
        else:
            pool = stack.enter_context(multiprocessing.Pool(spec.jobs))
            results = pool.imap(_unit_worker, pending)
        for unit_id, delta in results:
            table = table.merge(CounterTable.from_delta(spec.fingerprint(), delta))
            if fh is not None:
                checksum = _record_checksum(unit_id, delta)
                _write_line(fh, {"unit_id": unit_id, "counters_delta": delta,
                                 "checksum": checksum})
    return table


# -- fits and reports -----------------------------------------------------------------


@dataclass(frozen=True)
class GrowthFit:
    slope: float
    intercept: float
    residual: float


def fit_growth_exponent(points: Sequence[Tuple[float, float]]) -> GrowthFit:
    """Least-squares slope of log(count) against log(H): the empirical
    growth exponent, with the maximum absolute log residual."""
    if len(points) < 3:
        raise InsufficientPoints("growth fit needs >= 3 points, got %d" % len(points))
    for hval, count in points:
        if count <= 0:
            raise NonpositiveCount("count %r at H=%r is not positive" % (count, hval))
        if hval <= 0:
            raise BadParameters("H must be positive")
    if len({h for h, _ in points}) < 2:
        raise InsufficientPoints("growth fit needs >= 2 distinct heights")
    xs = np.log([float(h) for h, _ in points])
    ys = np.log([float(c) for _, c in points])
    amat = np.vstack([xs, np.ones_like(xs)]).T
    (slope, intercept), *_ = np.linalg.lstsq(amat, ys, rcond=None)
    residual = float(np.max(np.abs(ys - (slope * xs + intercept))))
    return GrowthFit(float(slope), float(intercept), residual)


def density_report(tables: Sequence[CounterTable]) -> Dict[str, object]:
    """Per-H density ratios for a family of tables at one fixed n,
    sorted by H: dominance ratios, the k >= 3 tail over H^n, B* and D*
    splits, the reciprocal identity on the a_n != 0 sub-box, and the
    completeness checksum."""
    if not tables or not all(t.totals for t in tables):
        raise EmptyInput("density report over no tables, or over a table of no points")
    n = tables[0].spec_key["n"]
    monic = tables[0].spec_key["monic"]
    for t in tables:
        if t.spec_key["n"] != n or t.spec_key["monic"] != monic:
            raise SpecMismatch("density report requires one (n, monic) family")
    akey = "A" if monic else "A*"
    rows = []
    for t in sorted(tables, key=lambda t: t.spec_key["height"]):
        hh = t.spec_key["height"]
        total = t.totals
        row: Dict[str, object] = {"H": hh, "total": total, "ambiguous": t.ambiguous}
        if akey in t.counts:
            fam = t.family(akey)
            a1 = fam.get("1", 0)
            a2 = fam.get("2", 0)
            tail = sum(v for k, v in fam.items() if int(k) >= 3)
            row["dominant_ratio"] = a1 / total
            row["dominant_pair_ratio"] = (a1 + a2) / total
            row["tail_count"] = tail
            row["tail_over_H_n"] = tail / hh**n
            row["sum_check"] = sum(fam.values()) + t.ambiguous == total
        if "B*" in t.counts:
            row["B*"] = t.family("B*")
            row["B*nz"] = t.family("B*nz")
            row["B*_reciprocal_equal"] = t.get("B*nz", "2,1") == t.get("B*nz", "1,2")
        if "D*" in t.counts:
            row["D*"] = t.family("D*")
            row["D*_sum_check"] = t.family_total("D*") + t.ambiguous == total
        rows.append(row)
    report: Dict[str, object] = {"n": n, "monic": monic, "rows": rows}
    ratios = [r["dominant_pair_ratio"] for r in rows if "dominant_pair_ratio" in r]
    if len(ratios) >= 2:
        report["pair_ratio_first"] = ratios[0]
        report["pair_ratio_last"] = ratios[-1]
        report["pair_ratio_increased"] = ratios[-1] > ratios[0]
    return report


def counter_table_csv(table: CounterTable) -> List[str]:
    """CSV lines (header included) with columns n,H,family,label,count."""
    n = table.spec_key["n"]
    hh = table.spec_key["height"]
    lines = ["n,H,family,label,count"]
    for fam in sorted(table.counts):
        for label, k in sorted(table.counts[fam].items()):
            lines.append("%d,%d,%s,%s,%d" % (n, hh, fam, '"%s"' % label, k))
    return lines
