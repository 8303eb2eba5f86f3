"""Names and units of every metric the benchmark reports.

``BENCHMARK.json`` lists the same names; a test keeps the two in step.
"""

from __future__ import annotations

import statistics

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

SUITES = ("interaction", "agm", "dp", "lehmann", "i1i2")

# Functions whose calls and self time are reported, by module.
LAYER_FUNCTIONS = {
    "dsl": (
        "parse_domain",
        "serialize_domain",
        "parse_scenario",
        "parse_formula",
        "parse_state_set",
        "serialize_result",
    ),
    "kernel": ("models", "complete_transitions"),
    "update": ("update", "update_seq"),
    "revision": ("revise", "dalal_ranking", "min_states", "combined_change"),
    "evolution": (
        "evolve",
        "consistent",
        "preimage",
        "repairs",
        "minimal_repair_candidates",
        "iterated_revise",
    ),
    "cli": ("main",),
}

# Counters beyond calls and self time: name -> unit.  Sizes are summed
# over calls; dalal_distance is the mean over revisions with a result.
LAYER_COUNTERS = {
    "dsl.serialize_result.bytes": "bytes",
    "kernel.models.states_out": "states",
    "revision.revise.kappa_size": "states",
    "revision.revise.alpha_size": "states",
    "revision.dalal_distance": "bits",
    "evolution.repairs.out_size": "count",
    "evolution.minimal_repair_candidates.out_size": "count",
    "evolution.minimal_repair_candidates.positions": "count",
    "evolution.repair_kept_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for mod, funcs in LAYER_FUNCTIONS.items():
        for fn in funcs:
            units[f"{mod}.{fn}.calls"] = "count"
            units[f"{mod}.{fn}.self_s"] = "s"
    units.update(LAYER_COUNTERS)
    for s in SUITES:
        units[f"postulates.run_suite.{s}.total_s"] = "s"
        units[f"postulates.instances.{s}"] = "count"
    units["trace.overhead_frac"] = "frac"
    return units


def layer_values(tracer, overhead_frac: float) -> dict[str, float]:
    """Per-layer metric values from a finished tracer."""
    out: dict[str, float] = {}
    for mod, funcs in LAYER_FUNCTIONS.items():
        for fn in funcs:
            label = f"{mod}.{fn}"
            out[f"{label}.calls"] = tracer.calls.get(label, 0)
            out[f"{label}.self_s"] = tracer.self_s.get(label, 0.0)
    stats = tracer.stats
    for name in LAYER_COUNTERS:
        out[name] = stats.get(name, 0)
    n = stats.get("revision.dalal_distance.n", 0)
    out["revision.dalal_distance"] = stats.get("revision.dalal_distance.sum", 0) / n if n else 0.0
    cands = stats.get("evolution.minimal_repair_candidates.out_size", 0)
    out["evolution.repair_kept_ratio"] = (
        stats.get("evolution.repairs.out_size", 0) / cands if cands else 0.0
    )
    for s in SUITES:
        out[f"postulates.run_suite.{s}.total_s"] = stats.get(f"postulates.run_suite.{s}.total_s", 0.0)
        out[f"postulates.instances.{s}"] = stats.get(f"postulates.instances.{s}", 0)
    out["trace.overhead_frac"] = overhead_frac
    return out


def weighted_quantile(pairs, q: float) -> float:
    """Smallest value whose cumulative weight reaches ``q`` of the total."""
    pairs = sorted(pairs)
    total = sum(w for _, w in pairs)
    acc = 0
    for value, weight in pairs:
        acc += weight
        if acc >= q * total:
            return value
    return pairs[-1][0]


def p50_p90(samples) -> tuple[float, float]:
    return statistics.median(samples), statistics.quantiles(samples, n=10)[8]
