"""Per-layer metrics of a traced run, computed from its spans and counters.

Unless a metric says otherwise, a time or count is divided by the caller
operations of the traced phase: requests for serve-*, ``check_many``
batches for fk-check, ``solutions_many`` calls for enum-pool.  A metric of
a layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from perfbench.spans import Span, self_times

CACHE_KINDS = ("hom", "enum", "pebble", "kernel", "subtree")

#: A percentile is reported only when at least this many samples lie above it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], fraction: float) -> Optional[Tuple[float, int]]:
    """Nearest-rank percentile with a ceiling rank, and the sample count.

    The rank is ``ceil(fraction * n)`` (1-based), so p99 of 100 samples is
    the 99th smallest, not the maximum.  Returns ``None`` unless at least
    :data:`MIN_BEYOND` samples lie beyond the rank: a tail that few samples
    support is not reported.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie strictly between 0 and 1")
    n = len(values)
    if n == 0:
        return None
    # round() first: 0.07 * 100 is 7.000000000000001, whose ceiling is 8.
    rank = max(1, math.ceil(round(fraction * n, 9)))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1], n


@dataclass
class Context:
    """What a runner knows about its traced phase besides the spans."""

    ops: int
    phase_start: float
    phase_end: float = float("inf")
    cache: Dict[str, int] = field(default_factory=dict)
    rejected: int = 0
    evaluation: Optional[object] = None  # EvaluationStatistics of fk-check
    regret: float = 0.0
    pool_gain: float = 0.0
    trace_overhead: float = 0.0
    resilience: Dict[str, int] = field(default_factory=dict)
    client_samples: List[object] = field(default_factory=list)  # untraced phase


def counter_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {name: after[name] - before.get(name, 0) for name in after}


def cache_sum(sessions: Iterable) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for session in sessions:
        for name, value in session.cache.statistics.as_dict().items():
            total[name] = total.get(name, 0) + value
    return total


def resilience_sum(sessions: Iterable) -> Dict[str, int]:
    total = {"worker_crashes": 0, "cells_degraded_serial": 0}
    for session in sessions:
        for name in total:
            total[name] += getattr(session.statistics, name)
    return total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _client(samples: List[object], op: str, fraction: float) -> float:
    found = percentile([s.latency * 1000.0 for s in samples if s.op == op], fraction)
    return found[0] if found is not None else 0.0


def per_layer(spans: List[Span], totals: Dict[str, List[float]], ctx: Context) -> Dict[str, float]:
    phase = [s for s in spans if ctx.phase_start <= s.start < ctx.phase_end]
    by_name: Dict[str, List[Span]] = {}
    for span in phase:
        by_name.setdefault(span.name, []).append(span)
    ops = max(1, ctx.ops)

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def total_ms(name: str) -> float:
        return 1000.0 * sum(
            s.busy if s.busy is not None else s.duration for s in by_name.get(name, ())
        )

    def mean_ms(name: str) -> float:
        return _ratio(total_ms(name), count(name))

    def tally(name: str) -> float:
        return totals.get(name, [0, 0.0])[0]

    def tally_ms(name: str) -> float:
        return 1000.0 * totals.get(name, [0, 0.0])[1]

    cache = ctx.cache
    own = self_times(phase)
    cache_self = sum(own[s.sid] for s in phase if s.name.startswith("cache."))
    plans = {
        name[len("plan.strategy."):]: value[0]
        for name, value in totals.items()
        if name.startswith("plan.strategy.")
    }
    plan_count = sum(plans.values())
    evaluation = ctx.evaluation
    samples = ctx.client_samples
    loads = [s for s in spans if s.name == "rdf.load"]

    metrics = {
        "wire.overhead_ms": (
            statistics.fmean(s.latency * 1000.0 - s.server_ms for s in samples) if samples else 0.0
        ),
        "wire.encode_ms": total_ms("wire.encode") / ops,
        "wire.decode_ms": total_ms("wire.decode") / ops,
        "wire.bytes_out": tally("wire.bytes_out") / ops,
        "service.queue_wait_ms": mean_ms("service.queue"),
        "service.chunk_ms": mean_ms("service.chunk"),
        "service.rejected": float(ctx.rejected),
        "gate.read_wait_ms": mean_ms("gate.read_wait"),
        "gate.write_wait_ms": mean_ms("gate.write_wait"),
        "gate.write_hold_ms": mean_ms("gate.write_hold"),
        "session.check_ms": mean_ms("session.check"),
        "session.solutions_ms": mean_ms("session.solutions"),
        "plan.ms": total_ms("plan") / ops,
        "plan.natural_share": _ratio(plans.get("natural", 0), plan_count),
        "plan.pebble_share": _ratio(plans.get("pebble", 0), plan_count),
        "plan.regret": ctx.regret,
        "cache.hit_ratio": _ratio(
            sum(cache.get(f"{k}_hits", 0) for k in CACHE_KINDS),
            sum(cache.get(f"{k}_hits", 0) + cache.get(f"{k}_misses", 0) for k in CACHE_KINDS),
        ),
        **{
            f"cache.{k}_hit_ratio": _ratio(
                cache.get(f"{k}_hits", 0), cache.get(f"{k}_hits", 0) + cache.get(f"{k}_misses", 0)
            )
            for k in CACHE_KINDS
        },
        "cache.invalidations": cache.get("invalidations", 0) / ops,
        "cache.evictions": cache.get("evictions", 0) / ops,
        "cache.index_builds": count("index.build") / ops,
        "cache.index_build_ms": mean_ms("index.build"),
        "cache.self_ms": 1000.0 * cache_self / ops,
        "eval.trees_visited": getattr(evaluation, "trees_visited", 0) / ops,
        "eval.child_checks": getattr(evaluation, "child_checks", 0) / ops,
        "eval.subtree_found": getattr(evaluation, "subtree_found", 0) / ops,
        "hom.find_calls": count("hom.find") / ops,
        "hom.find_ms": total_ms("hom.find") / ops,
        "hom.share": _ratio(
            total_ms("hom.find") + total_ms("hom.enum"),
            total_ms("session.check") + total_ms("session.solutions"),
        ),
        "hom.enum_calls": count("hom.enum") / ops,
        "hom.enum_results": tally("hom.enum_results") / ops,
        "hom.enum_ms": total_ms("hom.enum") / ops,
        "kernel.builds": count("kernel.build") / ops,
        "kernel.prepare_ms": total_ms("kernel.prepare") / ops,
        "kernel.winner_calls": count("kernel.winner") / ops,
        "kernel.winner_ms": total_ms("kernel.winner") / ops,
        "rdf.load_ms": _ratio(1000.0 * sum(s.duration for s in loads), len(loads)),
        "rdf.update_ms": mean_ms("rdf.update"),
        "rdf.scan_calls": tally("rdf.scan") / ops,
        "rdf.scan_ms": tally_ms("rdf.scan") / ops,
        "parse.calls": count("parse") / ops,
        "parse.ms": total_ms("parse") / ops,
        "pool.gain": ctx.pool_gain,
        "pool.worker_crashes": float(ctx.resilience.get("worker_crashes", 0)),
        "pool.cells_degraded": float(ctx.resilience.get("cells_degraded_serial", 0)),
        "trace.overhead": ctx.trace_overhead,
        "client.check_p50_ms": _client(samples, "check", 0.50),
        "client.check_p99_ms": _client(samples, "check", 0.99),
        "client.check_samples": float(sum(1 for s in samples if s.op == "check")),
        "client.solutions_p50_ms": _client(samples, "solutions", 0.50),
        "client.solutions_p95_ms": _client(samples, "solutions", 0.95),
        "client.solutions_samples": float(sum(1 for s in samples if s.op == "solutions")),
        "client.update_p50_ms": _client(samples, "update", 0.50),
        "client.update_p95_ms": _client(samples, "update", 0.95),
        "client.update_samples": float(sum(1 for s in samples if s.op == "update")),
    }
    return {name: float(value) for name, value in metrics.items()}
