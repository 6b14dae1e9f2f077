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
per-record sha256 checksums; any malformed or truncated line is a
CheckpointCorrupt error, not a silent recovery.

Two tally engines produce identical tables: a scalar path using the
exact per-polynomial kernels, and a vectorized path for n in {2, 3}
(the hot censuses) that mirrors the same integer decision trees over
numpy arrays, falling back to the scalar kernels on the rare exact
branches (repeated roots). Heights above 5000 force the scalar path
to keep every intermediate inside int64.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
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
    _distinct_signature,
    factorize,
    modulus_profile,
    profile_pair_deg3,
    root_signature,
    sn_certificate,
)
from .intpoly import IntPolynomial, squarefree_part

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
VECTOR_HEIGHT_CAP = 5000  # keeps disc3 terms well inside int64
CHECKPOINT_FORMAT = "rootcensus-census-checkpoint"


# -- counters ---------------------------------------------------------------------


class _Batch(NamedTuple):
    """One work unit of the vector engine (n in {2, 3}) as numpy arrays."""

    n: int
    coeffs: List[np.ndarray]  # a_0..a_n, leading first
    kmax: np.ndarray
    kmin: np.ndarray
    dsc: np.ndarray  # discriminant


class _Counter(NamedTuple):
    """One census counter: the box it needs (monic, full, or either when
    None); its families, each with its complete labels at degree n keyed
    by histogram code; the statistics its labeler `cells(f, stats)`
    reads; an optional vector labeler giving (family, label, count)
    cells of a _Batch; its degree limit, if any (needing the
    factorization also limits n to degree_cap); other spellings the CLI
    accepts; and whether its one cell is written as a bare number."""

    monic: Optional[bool]
    families: Dict[str, Callable[[int], Dict[int, str]]]
    needs: Tuple[str, ...]
    cells: Callable[[IntPolynomial, Dict[str, object]], List[Tuple[str, str]]]
    vector: Optional[Callable[[_Batch], List[Tuple[str, str, int]]]] = None
    max_n: Optional[int] = None
    aliases: Tuple[str, ...] = ()
    scalar: bool = False


def _histogram(family: str, codes: np.ndarray, labels: Dict[int, str]):
    hist = np.bincount(codes, minlength=max(labels) + 1)
    return [(family, label, int(hist[code])) for code, label in labels.items()]


def _kmax_labels(n: int) -> Dict[int, str]:
    return {k: str(k) for k in range(1, n + 1)}


def _kmax_counter(family: str, monic: bool) -> _Counter:
    return _Counter(
        monic=monic,
        families={family: _kmax_labels},
        needs=("profile",),
        cells=lambda f, st: [(family, str(st["profile"].k_max))],
        vector=lambda b: _histogram(family, b.kmax, _kmax_labels(b.n)),
    )


def _signature_label(r: int, s: int) -> str:
    return "r=%d,s=%d" % (r, s)


def _signature_labels(n: int) -> Dict[int, str]:
    """Signatures with multiplicity, keyed by the real-root count."""
    return {r: _signature_label(r, (n - r) // 2) for r in range(n % 2, n + 1, 2)}


def _signature_vector(b: _Batch) -> List[Tuple[str, str, int]]:
    labels = _signature_labels(b.n)
    rmul = np.where(b.dsc >= 0, b.n, b.n - 2)  # real roots with multiplicity
    # the distinct-root signature differs only on repeated roots (zero
    # discriminant), where the exact kernel decides
    repeated = b.dsc == 0
    out = _histogram("D*", rmul, labels) + _histogram("D*d", rmul[~repeated], labels)
    for i in np.nonzero(repeated)[0]:
        g = squarefree_part(IntPolynomial(tuple(int(arr[i]) for arr in b.coeffs)))
        sig = root_signature(g)
        out.append(("D*d", _signature_label(sig.r, sig.s), 1))
    return out


_PAIRS = {i * 4 + j: "%d,%d" % (i, j) for i in (1, 2) for j in (1, 2)}


def _pair_cells(f: IntPolynomial, st: Dict[str, object]) -> List[Tuple[str, str]]:
    prof = st["profile"]
    if prof.k_max > 2 or prof.k_min > 2:
        return []
    label = _PAIRS[prof.k_max * 4 + prof.k_min]
    return [("B*", label)] + ([("B*nz", label)] if f.coeffs[-1] != 0 else [])


def _pair_vector(b: _Batch) -> List[Tuple[str, str, int]]:
    code = b.kmax * 4 + b.kmin
    return _histogram("B*", code, _PAIRS) + _histogram("B*nz", code[b.coeffs[-1] != 0], _PAIRS)


def _reducible_counter(family: str, monic: bool) -> _Counter:
    def cells(f, st):
        fr = st["factorization"]
        if fr.irreducible:
            return []
        return [(family, "m=%d" % min(p.degree for p, _ in fr.factors))]

    return _Counter(
        monic=monic,
        families={family: lambda n: {m: "m=%d" % m for m in range(1, n // 2 + 1)}},
        needs=("factorization",),
        cells=cells,
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
        families={"D*": _signature_labels, "D*d": lambda n: {}},
        needs=("signature",),
        cells=lambda f, st: [("D*", _signature_label(*st["signature"])),
                             ("D*d", _signature_label(*st["distinct_signature"]))],
        vector=_signature_vector,
    ),
    # by (k_max, k_min) with both <= 2; B*nz restricts to a_n != 0, where
    # the reciprocal identity B*(2,1) = B*(1,2) holds exactly
    "B*": _Counter(
        monic=False,
        families={"B*": lambda n: _PAIRS, "B*nz": lambda n: _PAIRS},
        needs=("profile",),
        cells=_pair_cells,
        vector=_pair_vector,
    ),
    # reducible polynomials by smallest irreducible factor degree
    "RHO": _reducible_counter("rho", monic=True),
    "RHO*": _reducible_counter("rho*", monic=False),
    # polynomials not certified S_n: an upper bound on the non-S_n count
    "E_UPPER": _Counter(
        monic=None,
        families={"E_upper": lambda n: {0: "count"}},
        needs=("factorization", "sn"),
        cells=lambda f, st: [("E_upper", "count")] if st["sn"] == "UNDECIDED" else [],
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
    function of everything here except jobs, checkpoint, budget and
    engine (which only affect how the work is done)."""

    n: int
    height: int
    monic: bool = False
    counters: Tuple[str, ...] = ("A*",)
    jobs: int = 1
    checkpoint: Optional[str] = None
    prime_bound: int = 200
    degree_cap: int = 8
    permissive: bool = False
    symmetry: bool = False
    budget: int = DEFAULT_BUDGET
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
        fam: {label: 0 for label in labels(spec.n).values()}
        for c in _requested(spec.counters)
        for fam, labels in c.families.items()
    }


def classify_pipeline(f: IntPolynomial, spec: CensusSpec) -> Optional[List[Tuple[str, str]]]:
    """The (family, label) cells of f for the requested counters, each
    statistic they need computed once, cheapest first. The modulus
    profile raises PrecisionCapExceeded on ambiguity unless
    spec.permissive, in which case f is ambiguous and this returns None."""
    counters = _requested(spec.counters)
    needs = {s for c in counters for s in c.needs}
    st: Dict[str, object] = {}
    if "signature" in needs:
        sig, sigd = root_signature(f), _distinct_signature(f)
        st["signature"], st["distinct_signature"] = (sig.r, sig.s), (sigd.r, sigd.s)
    if "factorization" in needs:
        fr = st["factorization"] = factorize(f, degree_cap=spec.degree_cap)
        if "sn" in needs:
            if not fr.irreducible:
                st["sn"] = "UNDECIDED"
            elif f.degree < 2:
                st["sn"] = "CERTIFIED_SN"  # S_1 is trivially full
            else:
                cert = sn_certificate(f, prime_bound=spec.prime_bound, assume_irreducible=True)
                st["sn"] = cert.verdict
    if "profile" in needs:
        try:
            st["profile"] = modulus_profile(f)
        except PrecisionCapExceeded:
            if not spec.permissive:
                raise
            return None
    return [cell for c in counters for cell in c.cells(f, st)]


# -- scalar engine --------------------------------------------------------------


def _tally_scalar(spec: CensusSpec, leads: Sequence[int]) -> CounterTable:
    table = CounterTable(spec.fingerprint(), _empty_cells(spec))
    hh = spec.height
    rest = spec.n - 1 if spec.monic else spec.n
    rng = range(-hh, hh + 1)
    for lead in leads:
        for tail in itertools.product(rng, repeat=rest):
            coeffs = (1, lead) + tail if spec.monic else (lead,) + tail
            cells = classify_pipeline(IntPolynomial(coeffs), spec)
            table.totals += 1
            if cells is None:
                table.ambiguous += 1
                continue
            for fam, label in cells:
                table.add(fam, label)
    if spec.symmetry:
        _double(table)
    return table


def _double(table: CounterTable) -> None:
    # -f has the same roots: every statistic matches, so the a_0 < 0
    # half-box is an exact mirror of the enumerated a_0 > 0 half
    table.totals *= 2
    table.ambiguous *= 2
    for cells in table.counts.values():
        for label in cells:
            cells[label] *= 2


# -- vector engine ----------------------------------------------------------------


def _vec_profile2(a, b, c):
    dd = b * b - 4 * a * c
    single = ((c == 0) & (b != 0)) | ((c != 0) & (b != 0) & (dd > 0))
    k = np.where(single, 1, 2).astype(np.int64)
    return k, k.copy(), dd


def _vec_profile3(a0, b0, c0, d0):
    s = np.where(a0 < 0, -1, 1)
    a, b, c, d = a0 * s, b0 * s, c0 * s, d0 * s
    kmax = np.empty(a.shape, dtype=np.int64)
    kmin = np.empty(a.shape, dtype=np.int64)
    dzero = d == 0
    czero = c == 0
    bzero = b == 0
    m00 = dzero & czero & bzero
    kmax[m00], kmin[m00] = 3, 3
    m01 = dzero & czero & ~bzero
    kmax[m01], kmin[m01] = 1, 2
    m02 = dzero & ~czero
    dd = b * b - 4 * a * c
    m02a = m02 & (dd > 0) & ~bzero
    kmax[m02a], kmin[m02a] = 1, 1
    m02b = m02 & ~((dd > 0) & ~bzero)
    kmax[m02b], kmin[m02b] = 2, 1
    dsc = (
        18 * a * b * c * d
        - 4 * b * b * b * d
        + b * b * c * c
        - 4 * a * c * c * c
        - 27 * a * a * d * d
    )
    mneg = ~dzero & (dsc < 0)
    d3 = a * c * c * c - b * b * b * d
    kmax_neg = np.where(d3 < 0, 1, np.where(d3 > 0, 2, 3))
    s2 = np.where(d > 0, 1, -1)
    ra, rb, rc, rd = d * s2, c * s2, b * s2, a * s2
    d3r = ra * rc * rc * rc - rb * rb * rb * rd
    kmin_neg = np.where(d3r < 0, 1, np.where(d3r > 0, 2, 3))
    kmax[mneg] = kmax_neg[mneg]
    kmin[mneg] = kmin_neg[mneg]
    mpos = ~dzero & (dsc > 0)
    tie = ~bzero & (b * c == a * d)
    num = -(a * a * d + b * b * b)
    sgn = np.sign(num) * np.sign(b)
    kmax_pos = np.where(tie, np.where(sgn > 0, 2, np.where(sgn < 0, 1, 3)), 1)
    kmin_pos = np.where(tie, np.where(sgn > 0, 1, np.where(sgn < 0, 2, 3)), 1)
    kmax[mpos] = kmax_pos[mpos]
    kmin[mpos] = kmin_pos[mpos]
    # disc = 0 with d != 0: rational repeated root, exact scalar kernel
    mz = ~dzero & (dsc == 0)
    if mz.any():
        for i in np.nonzero(mz)[0]:
            km, kn = profile_pair_deg3(int(a0[i]), int(b0[i]), int(c0[i]), int(d0[i]))
            kmax[i], kmin[i] = km, kn
    return kmax, kmin, dsc


def _tally_vector(spec: CensusSpec, leads: Sequence[int]) -> CounterTable:
    table = CounterTable(spec.fingerprint(), _empty_cells(spec))
    hh, n = spec.height, spec.n
    rng = np.arange(-hh, hh + 1, dtype=np.int64)
    leads_arr = np.asarray(leads, dtype=np.int64)
    axes = [leads_arr] + [rng] * (n - 1 if spec.monic else n)
    grids = np.meshgrid(*axes, indexing="ij")
    flats = [g.ravel() for g in grids]
    if spec.monic:
        coeff_arrays = [np.ones_like(flats[0])] + flats
    else:
        coeff_arrays = flats
    table.totals += coeff_arrays[0].size
    profile = _vec_profile2 if n == 2 else _vec_profile3
    batch = _Batch(n, coeff_arrays, *profile(*coeff_arrays))
    for counter in _requested(spec.counters):
        for fam, label, k in counter.vector(batch):
            if k:
                table.add(fam, label, k)
    if spec.symmetry:
        _double(table)
    return table


def _vector_ok(spec: CensusSpec) -> bool:
    return (
        spec.n in (2, 3)
        and spec.height <= VECTOR_HEIGHT_CAP
        and all(c.vector is not None for c in _requested(spec.counters))
    )


def _tally_unit(spec: CensusSpec, unit: WorkUnit) -> CounterTable:
    engine = spec.engine
    if engine == "auto":
        engine = "vector" if _vector_ok(spec) else "scalar"
    elif engine == "vector" and not _vector_ok(spec):
        raise BadParameters("vector engine unavailable for this spec")
    if engine == "vector":
        return _tally_vector(spec, unit.leads)
    return _tally_scalar(spec, unit.leads)


def _unit_worker(payload: Tuple[CensusSpec, WorkUnit]):
    spec, unit = payload
    delta = _tally_unit(spec, unit)
    return unit.unit_id, delta.delta_dict()


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


def checkpoint_load(path: str) -> CheckpointState:
    """Parse and validate a checkpoint; any defect (missing or bad
    header, unparseable or truncated record, checksum mismatch,
    duplicate unit) raises CheckpointCorrupt."""
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
        if unit_id in state.deltas:
            raise CheckpointCorrupt("duplicate unit %r at line %d" % (unit_id, ln))
        state.deltas[unit_id] = delta
    return state


# -- census driver -----------------------------------------------------------------


def run_census(spec: CensusSpec, limit_units: Optional[int] = None) -> CounterTable:
    """Classify every polynomial in the box exactly once and return the
    counter table: deterministic for a given spec, independent of job
    count and checkpoint interruption.

    limit_units stops after that many units (for interruption tests);
    the partial result lands in the checkpoint, not the return value
    contract (totals then cover only the completed units).
    """
    spec.validate()
    if spec.total_points > spec.budget:
        raise BudgetExceeded(
            "census needs %d lattice points, budget is %d"
            % (spec.total_points, spec.budget)
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
        for delta in done.values():
            table = table.merge(CounterTable.from_delta(spec.fingerprint(), delta))
    pending = [(spec, u) for u in units if u.unit_id not in done]
    if limit_units is not None:
        pending = pending[:limit_units]
    with contextlib.ExitStack() as stack:
        fh = None
        if spec.checkpoint:
            fresh = not os.path.exists(spec.checkpoint)
            fh = stack.enter_context(open(spec.checkpoint, "a", encoding="utf-8"))
            if fresh:
                header = {"format": CHECKPOINT_FORMAT, "version": 1,
                          "fingerprint": spec.fingerprint()}
                _write_line(fh, header)
        if spec.jobs == 1 or len(pending) <= 1:
            results = map(_unit_worker, pending)
        else:
            pool = stack.enter_context(multiprocessing.Pool(spec.jobs))
            results = pool.imap_unordered(_unit_worker, pending)
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
    if not tables:
        raise EmptyInput("density report over no tables")
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
