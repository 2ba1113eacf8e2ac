"""Re-slicing after edits: the per-layer figures of ``service.incremental``,
``service.cache`` and ``sdg``.

One persistent engine holds a generated ~50-procedure, ~1,700-node
program.  Each op is one procedure-body edit followed by re-slicing a
fixed set of criteria with ``interprocedural``, so invalidation (writes)
happens beside memo hits and salvage replays (reads).  As an end-to-end
workload its figures swung with the host's speed far more than the
others' (see README), so it runs as a phase of the ``cold-analyze``
traced run, where no bound applies.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Tuple

from bench_common import NPROC, LayerSpans, check_span_names, metric
from programs import EditTrace, slice_payload

from repro.sdg.builder import sdg_for_analysis
from repro.sdg.closure import ensure_sdg_index
from repro.service.engine import SlicingEngine, enumerate_criteria
from repro.service.incremental import incremental, salvage_sdg_slice
from repro.service.protocol import dump_json, ok_envelope, slice_result_payload

ALGORITHM = "interprocedural"
#: Criteria re-sliced after every edit: the same in every run, drawn
#: from the main unit's (line, var) pairs in a fixed shuffled order,
#: skipping those the resolver rejects (unreachable from ``main``).  A
#: per-seed set would make each run's cost depend on which criteria it
#: drew, since salvage replays some slices and recomputes others.
CRITERIA = 8
CRITERIA_SEED = 7


def make_engine(trace: EditTrace):
    """Engine warmed on the base program, and the fixed criterion set."""
    engine = SlicingEngine(workers=NPROC)
    analysis = engine.analysis_for(trace.base)
    candidates = enumerate_criteria(analysis, mode="all")
    random.Random(CRITERIA_SEED).shuffle(candidates)
    criteria = []
    for criterion in candidates:
        payload = slice_payload(trace.base, criterion.line, criterion.var,
                                ALGORITHM)
        if engine.handle_payload(payload).get("ok"):
            criteria.append(criterion)
        if len(criteria) == CRITERIA:
            break
    if not criteria:
        raise RuntimeError("no sliceable criterion in the edit program")
    return engine, criteria


def layered(engine, source, criteria, spans: LayerSpans):
    """The engine's slice path for one edit, one layer call at a time.

    Re-analysis, the eight slices and the encoding are timed under no
    program span name: no program phase covers exactly those calls (its
    ``analyze`` and ``sdg-slice`` spans cover one unit and one slice).
    """
    with spans.layer("service.reanalyze_ms", None):
        analysis = engine.analysis_for(source)
    with spans.layer("sdg.build_ms", "sdg-build"):
        sdg = sdg_for_analysis(analysis)
    # The engine builds the SDG closure index only when some criterion
    # cannot be replayed from the salvage tier, so the replay does too.
    # The look-ahead counts its replays in the unit cache's stats, so
    # their number is returned for the caller to subtract.
    salvaged = [salvage_sdg_slice(analysis, sdg, c) for c in criteria]
    if None in salvaged:
        with spans.layer("sdg.index_build_ms", "sdg-index-build"):
            ensure_sdg_index(sdg, analysis)
    with spans.layer("sdg.slice_ms", None):
        results = [
            engine.slice_cached(analysis, c.line, c.var, ALGORITHM, c.proc)
            for c in criteria
        ]
    with spans.layer("protocol.encode_ms", None):
        bodies = [
            dump_json(ok_envelope("slice", slice_result_payload(result)))
            for result in results
        ]
    spans.samples.setdefault("sdg.summary_edges", []).append(
        sdg.summary_edges
    )
    return bodies, sum(r is not None for r in salvaged)


def edit_layers(seed: int, seconds: float) -> Tuple[Dict, List[str]]:
    """Edit and re-slice, one layer call at a time, for *seconds* of
    ops; returns the per-layer metrics and any check problems."""
    trace = EditTrace(seed)
    engine, criteria = make_engine(trace)
    spans = LayerSpans()
    lookahead_salvages = 0
    unit_before = engine.cache.unit_cache.stats.snapshot()
    memo_before = engine.slice_cache_stats.stats()
    ops = 0
    timed = 0.0
    while timed < seconds:
        source = trace.next_source()
        start = time.perf_counter()
        bodies, replays = layered(engine, source, criteria, spans)
        timed += time.perf_counter() - start
        lookahead_salvages += replays
        ops += 1
    unit_after = engine.cache.unit_cache.stats.snapshot()
    memo_after = engine.slice_cache_stats.stats()
    engine.close()

    # The last step's payloads must be byte-identical to a fresh,
    # non-incremental engine's.
    problems = []
    with incremental(False), SlicingEngine(workers=1) as fresh:
        expected = [
            dump_json(fresh.handle_payload(
                slice_payload(source, c.line, c.var, ALGORITHM)))
            for c in criteria
        ]
    if expected != bodies:
        problems.append("edit phase: payloads differ from a fresh "
                        "non-incremental engine")

    metrics = {
        name: metric(spans.median(name), "ms")
        for name in ("service.reanalyze_ms", "sdg.build_ms", "sdg.slice_ms")
    }
    # Mean per op: most ops replay every slice and build no index, so a
    # median would read 0.
    metrics["sdg.index_build_ms"] = metric(
        sum(spans.samples.get("sdg.index_build_ms", [0.0])) / ops, "ms")
    metrics["sdg.summary_edges"] = metric(
        spans.median("sdg.summary_edges"), "count")
    delta = {key: unit_after[key] - unit_before[key]
             for key in unit_before if isinstance(unit_before[key], int)}
    delta["slices_salvaged"] -= lookahead_salvages
    for key in ("units_built", "units_reused", "spans_parsed",
                "stitched_built", "slices_salvaged"):
        metrics[f"incremental.{key}"] = metric(delta[key] / ops, "count")
    units = delta["units_built"] + delta["units_reused"]
    metrics["incremental.unit_reuse_ratio"] = metric(
        delta["units_reused"] / units if units else 0.0, "ratio")
    hits = memo_after["hits"] - memo_before["hits"]
    lookups = hits + memo_after["misses"] - memo_before["misses"]
    metrics["cache.slice_memo_hit_ratio"] = metric(
        hits / lookups if lookups else 0.0, "ratio")
    with SlicingEngine(workers=1) as probe:
        c = criteria[0]
        envelope = probe.handle_payload(dict(
            slice_payload(source, c.line, c.var, ALGORITHM), trace=True))
    check_span_names(spans.names, envelope["trace"])
    return metrics, problems
