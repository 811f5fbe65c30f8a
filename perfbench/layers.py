"""Per-layer metrics of one traced pass, from its spans and counters.

A span's self time is its duration minus the time its direct child spans
cover; a layer's self time is the sum over its spans.  ``other.self_s``
is the time inside operations that no layer span covers: the benchmark's
own calls and, for CLI operations, interpreter start-up and imports.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import LAYERS


def layer_metrics(dumps, records, cli_calls, cache_bytes) -> dict:
    """``dumps`` is a list of (op tag or None, Tracer.dump()) of the pass's processes."""
    walls = {r["name"]: sum(r["walls"]) for r in records}
    dur: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    in_op: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    covered: dict[str, float] = defaultdict(float)
    reconcile_ms: list[float] = []
    sums: dict[str, float] = defaultdict(float)
    maxes: dict[str, float] = {}
    nspans = 0
    for tag, d in dumps:
        spans = d["spans"]
        nspans += len(spans)
        child = [0.0] * len(spans)
        for name, start, end, parent, op in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, op) in enumerate(spans):
            op = tag or op
            t = end - start
            dur[name] += t
            count[name] += 1
            self_s[name.split(".")[0]] += t - child[i]
            if op is not None:
                in_op[op][name] += t
                if parent < 0:
                    covered[op] += t
            if name == "closedforms.reconcile_one":
                reconcile_ms.append(1000 * t)
        for k, v in d["sums"].items():
            sums[k] += v
        for k, v in d["maxes"].items():
            maxes[k] = max(maxes.get(k, v), v)

    def share(name: str) -> float:
        return max((in_op[op][name] / w for op, w in walls.items() if w > 0), default=0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    q = statistics.quantiles(reconcile_ms, n=100) if len(reconcile_ms) > 1 else [0.0] * 99
    hits = sums["oracle.stuffle_cache_hits"] + sums["oracle.shuffle_cache_hits"]
    misses = sums["oracle.stuffle_cache_misses"] + sums["oracle.shuffle_cache_misses"]
    m = {
        "ordering.enumerate_s": dur["ordering.enumerate_weight"],
        "ordering.columns": sums["ordering.columns"],
        "oracle.stuffle_s": dur["oracle.stuffle"],
        "oracle.shuffle_s": dur["oracle.shuffle"],
        "oracle.dsr_s": dur["oracle.dsr"],
        "oracle.calls": count["oracle.stuffle"] + count["oracle.shuffle"] + count["oracle.dsr"],
        "oracle.cache_hit_ratio": ratio(hits, hits + misses),
        "closedforms.closed_dsr_s": dur["closedforms.closed_dsr"],
        "closedforms.reconcile_one_s": dur["closedforms.reconcile_one"],
        "closedforms.reconcile_one_calls": count["closedforms.reconcile_one"],
        "closedforms.reconcile_one_p50_ms": q[49],
        "closedforms.reconcile_one_p99_ms": q[98],
        "closedforms.mismatches": sums["closedforms.mismatches"],
        "engine.generate_s": dur["engine.generate_relations"],
        "engine.generate_calls": sums["engine.generate_calls"],
        "engine.generate_redundancy": ratio(sums["engine.generate_calls"],
                                            sums["engine.generate_distinct"]),
        "engine.assemble_s": dur["engine.assemble_matrix"],
        "engine.eliminate_s": dur["engine.exact_rref"],
        "engine.eliminate_calls": sums["engine.eliminate_calls"],
        "engine.eliminate_op_share": share("engine.exact_rref"),
        "engine.numeric_failed": sums["engine.numeric_failed"],
        "numeric.eval_s": dur["numeric.eval_mzv"],
        "numeric.eval_calls": sums["numeric.eval_calls"],
        "numeric.eval_distinct": sums["numeric.eval_distinct"],
        "numeric.memo_hit_ratio": ratio(sums["numeric.memo_hits"], sums["numeric.eval_calls"]),
        "numeric.terms": sums["numeric.terms"],
        "numeric.unreachable": sums["numeric.unreachable"],
        "numeric.eval_op_share": share("numeric.eval_mzv"),
        "cli.cache_bytes": cache_bytes,
        "cli.output_bytes": sum(c["output_bytes"] for c in cli_calls),
        "cli.exit_code": max((c["exit"] for c in cli_calls), default=0),
        "other.self_s": sum(w - covered[op] for op, w in walls.items()),
        "trace.spans": nspans,
    }
    for label in ("stuffle", "shuffle"):
        for kind in ("hits", "misses", "size"):
            key = f"oracle.{label}_cache_{kind}"
            m[key] = sums[key]
    for key in ("engine.rows", "engine.cols", "engine.nnz", "engine.rank", "engine.table_nnz",
                "engine.table_num_bits", "engine.table_den_bits",
                "engine.numeric_worst_residual"):
        m[key] = maxes.get(key, 0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    return m
