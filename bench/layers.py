"""Per-layer metrics of a traced run, computed from its spans.

Counts and seconds cover the traced requests of one run: four censuses
for census_cubic, one for census_quartic, the first 100 polynomials for
classify_stream.
`BENCHMARK.json` lists the same names; `test_bench.py` keeps the two in
step. Which end-to-end metric each one should move, on which workload,
is recorded in `baseline.json` under `layer_map`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from spans import END, NAME, NOTE, OUTER, PARENT, START, LayerStats

# name, unit, better
PER_LAYER: List[Tuple[str, str, str]] = [
    ("classify.tie_path_ratio", "ratio", "lower"),
    ("roots.modulus_separation_bound.calls", "count", "lower"),
    ("roots.modulus_separation_bound.s", "s", "lower"),
    ("roots.refine.calls", "count", "lower"),
    ("roots.refine.s", "s", "lower"),
    ("intpoly.pair_product_full.s", "s", "lower"),
    ("roots.isolate_roots.calls", "count", "lower"),
    ("roots.isolate_roots.s", "s", "lower"),
    ("roots.isolate_roots.self_s", "s", "lower"),
    ("roots.rung.53", "count", "higher"),
    ("roots.rung.128", "count", "lower"),
    ("roots.rung.256", "count", "lower"),
    ("roots.rung.512plus", "count", "lower"),
    ("roots.precision_cap_exceeded", "count", "lower"),
    ("classify.modulus_profile.calls", "count", "lower"),
    ("classify.modulus_profile.s", "s", "lower"),
    ("classify.modulus_profile.self_s", "s", "lower"),
    ("classify.decision.EXACT", "count", "lower"),
    ("classify.decision.NUMERIC_CERTIFIED", "count", "higher"),
    ("classify.root_signature.s", "s", "lower"),
    ("intpoly.squarefree_decomposition.calls", "count", "lower"),
    ("intpoly.squarefree_decomposition.s", "s", "lower"),
    ("intpoly.sturm_real_root_count.calls", "count", "lower"),
    ("intpoly.sturm_real_root_count.s", "s", "lower"),
    ("intpoly.resultant.calls", "count", "lower"),
    ("intpoly.resultant.s", "s", "lower"),
    ("intpoly.subresultant_gcd.calls", "count", "lower"),
    ("intpoly.subresultant_gcd.s", "s", "lower"),
    ("classify.factorize.s", "s", "lower"),
    ("classify.sn_certificate.s", "s", "lower"),
    ("modp.factor_degree_pattern.calls", "count", "lower"),
    ("modp.factor_degree_pattern.s", "s", "lower"),
    ("classify.has_multiplicative_relation.s", "s", "lower"),
    ("census.run_census.self_s", "s", "lower"),
    ("census.fallback.calls", "count", "lower"),
    ("census.checkpoint_load.s", "s", "lower"),
    ("census.checkpoint.records", "count", "lower"),
    ("census.checkpoint.bytes", "bytes", "lower"),
    ("tracing_overhead_ratio", "ratio", "lower"),
]

# functions whose .calls and .s are reported as they are
_CALLS = (
    "roots.modulus_separation_bound", "roots.refine", "roots.isolate_roots",
    "classify.modulus_profile", "intpoly.squarefree_decomposition",
    "intpoly.sturm_real_root_count", "intpoly.resultant", "intpoly.subresultant_gcd",
    "modp.factor_degree_pattern",
)
_SECONDS = _CALLS + (
    "intpoly.pair_product_full", "classify.root_signature", "classify.factorize",
    "classify.sn_certificate", "classify.has_multiplicative_relation",
    "census.checkpoint_load",
)
_SELF = ("roots.isolate_roots", "classify.modulus_profile")
# vector-engine fall-backs: exact scalar kernels called by run_census itself,
# not through the scalar engine's classify_pipeline
_FALLBACK = ("classify.profile_pair_deg3", "classify.root_signature")


def _rung(bits: int) -> str:
    if bits <= 53:
        return "roots.rung.53"
    if bits <= 128:
        return "roots.rung.128"
    if bits <= 256:
        return "roots.rung.256"
    return "roots.rung.512plus"


def _layer(span: list) -> str:
    return span[NAME].partition(".")[0]


def _census_own_seconds(spans: List[list]) -> float:
    """Time inside run_census not covered by a span of another layer: its
    duration minus every span of another layer entered directly from a
    census function (classify_pipeline, checkpoint_load, run_census)."""
    total = 0.0
    for s in spans:
        if s[NAME] == "census.run_census" and s[OUTER]:
            total += s[END] - s[START]
        elif _layer(s) != "census" and s[PARENT] >= 0 and _layer(spans[s[PARENT]]) == "census":
            total -= s[END] - s[START]
    return total


def layer_metrics(spans: List[list], checkpoint: Tuple[int, int],
                  overhead_ratio: float) -> Dict[str, float]:
    """Every PER_LAYER metric from one traced run's spans, the checkpoint
    (records, bytes) left by its last request, and the tracing overhead
    ratio."""
    st = LayerStats(spans)
    out: Dict[str, float] = {}
    for name in _CALLS:
        out[name + ".calls"] = st.count(name)
    for name in _SECONDS:
        out[name + ".s"] = st.seconds(name)
    for name in _SELF:
        out[name + ".self_s"] = st.self_seconds(name)
    for bucket in ("53", "128", "256", "512plus"):
        out["roots.rung." + bucket] = 0
    out["roots.precision_cap_exceeded"] = 0
    out["classify.decision.EXACT"] = 0
    out["classify.decision.NUMERIC_CERTIFIED"] = 0
    profiles_deg4 = 0
    fallback = 0
    for s in spans:
        note = s[NOTE] or {}
        if s[NAME] == "roots.isolate_roots":
            if "bits" in note:
                out[_rung(note["bits"])] += 1
            elif note.get("raised") == "PrecisionCapExceeded":
                out["roots.precision_cap_exceeded"] += 1
        elif s[NAME] == "classify.modulus_profile" and s[OUTER] and "decision" in note:
            out["classify.decision." + note["decision"]] += 1
            profiles_deg4 += note["degree"] >= 4
        elif s[NAME] in _FALLBACK and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "census.run_census":
            fallback += 1
    msb = st.count("roots.modulus_separation_bound")
    out["classify.tie_path_ratio"] = msb / profiles_deg4 if profiles_deg4 else 0.0
    out["census.fallback.calls"] = fallback
    out["census.run_census.self_s"] = _census_own_seconds(spans)
    out["census.checkpoint.records"], out["census.checkpoint.bytes"] = checkpoint
    out["tracing_overhead_ratio"] = overhead_ratio
    return {name: out[name] for name, _, _ in PER_LAYER}
