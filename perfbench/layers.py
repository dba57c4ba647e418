"""The program's layers and the per-layer metrics derived from a traced pass.

Layers are the modules of ``tqftdims``.  Each metric here is named in
``BENCHMARK.json`` under ``per_layer``; ``perfbench/README.md`` says which
end-to-end metric, on which workload, each one should move.
"""

from __future__ import annotations

from tracer import Tracer

LAYERS = ("census", "recursion", "fusion", "cyclotomic", "polylab", "cli")

#: Counted, not spanned: the recursion calls each once per kernel entry
#: (about d^2 * gmax times per table), and each costs about a microsecond.
COUNT_ONLY = ("cyclotomic.is_prime", "census.beta_eta_closed")

#: A scope's self time is its layer's self time inside spans of these names.
SCOPES = {
    "recursion.delta_direct": frozenset({"recursion.delta_direct"}),
    "fusion.matrix_route": frozenset({"fusion.delta_via_matrix", "fusion.total_via_matrix"}),
    "fusion.galois_route": frozenset({"fusion.galois_sum_delta", "fusion.galois_sum_total"}),
    "fusion.det": frozenset({"fusion.FusionMatrix.det"}),
    "fusion.hopf": frozenset({"fusion.hopf_certificate"}),
    "cyclotomic.mul": frozenset({"cyclotomic.CycNum.__mul__", "cyclotomic.CycNum.__rmul__"}),
    "cyclotomic.inv": frozenset({"cyclotomic.inv"}),
    "cyclotomic.norm": frozenset({"cyclotomic.norm"}),
    "cyclotomic.h_valuation": frozenset({"cyclotomic.h_valuation"}),
    "polylab.interpolate": frozenset({"polylab.interpolate_delta", "polylab.interpolate_total"}),
    "polylab.residue": frozenset({"polylab.residue_total_poly"}),
}

HARNESS_OP = "harness.op"
STREAM_OP = "harness.stream_op"


class ColoringTally:
    """Result hook: sums fe + fo over every count_parities return."""

    def __init__(self) -> None:
        self.colorings = 0

    def __call__(self, result) -> None:
        self.colorings += result[0] + result[1]


def new_tracer() -> tuple[Tracer, ColoringTally]:
    tally = ColoringTally()
    tracer = Tracer(count_only=COUNT_ONLY, result_hooks={"census.count_parities": tally})
    return tracer, tally


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, s: dict, tally: ColoringTally, wall_s: float,
                      stdout_bytes: int) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_ratio``, which needs an
    untraced pass and is added by run.py.  ``s`` is ``tracer.summary(SCOPES)``."""
    layer, scope, dur = s["self_by_layer"], s["self_by_scope"], s["dur_by_name"]
    calls = tracer.call_count

    def scoped(name: str) -> float:
        return scope[(name, name.split(".", 1)[0])]

    cache = tracer.originals["recursion.dim_table"].cache_info()
    records = calls("census.coloring_record")
    m = {f"{name}.self_s": layer[name] for name in LAYERS}
    m.update({
        "census.count_parities.calls": calls("census.count_parities"),
        "census.colorings_counted": tally.colorings,
        "census.count_rate": _ratio(tally.colorings, dur["census.count_parities"]),
        "census.records_streamed": records,
        "census.stream_rate": _ratio(records, dur[STREAM_OP]),
        "census.beta_eta_bruteforce.calls": calls("census.beta_eta_bruteforce"),
        "recursion.dim_table.calls": calls("recursion.dim_table"),
        "recursion.dim_table.hit_ratio": _ratio(cache.hits, cache.hits + cache.misses),
        "recursion.kernel_calls": calls("census.beta_eta_closed", binding="recursion"),
        "recursion.delta_direct.self_s": scoped("recursion.delta_direct"),
        "fusion.matrix_route.self_s": scoped("fusion.matrix_route"),
        "fusion.mat_vec_products": calls("fusion.FusionMatrix.apply"),
        "fusion.galois_route.self_s": scoped("fusion.galois_route"),
        "fusion.det.calls": calls("fusion.FusionMatrix.det"),
        "fusion.det.self_s": scoped("fusion.det"),
        "fusion.matmul.calls": calls("fusion.FusionMatrix.__mul__", "fusion.FusionMatrix.__rmul__"),
        "fusion.hopf.self_s": scoped("fusion.hopf"),
        "cyclotomic.mul.calls": calls("cyclotomic.CycNum.__mul__", "cyclotomic.CycNum.__rmul__"),
        "cyclotomic.mul.self_s": scoped("cyclotomic.mul"),
        "cyclotomic.inv.calls": calls("cyclotomic.inv"),
        "cyclotomic.inv.self_s": scoped("cyclotomic.inv"),
        "cyclotomic.galois.calls": calls("cyclotomic.galois"),
        "cyclotomic.norm.self_s": scoped("cyclotomic.norm"),
        "cyclotomic.h_valuation.self_s": scoped("cyclotomic.h_valuation"),
        "polylab.interpolate.self_s": scoped("polylab.interpolate"),
        "polylab.samples": calls("recursion.dim_table", binding="polylab"),
        "polylab.newton.calls": calls("polylab.newton_coeffs"),
        "polylab.residue.self_s": scoped("polylab.residue"),
        "polylab.bipoly_mul.calls": calls("polylab.BiPoly.__mul__", "polylab.BiPoly.__rmul__"),
        "cli.stdout_bytes": stdout_bytes,
        "trace.unattributed_s": wall_s - sum(layer.values()),
    })
    return m
