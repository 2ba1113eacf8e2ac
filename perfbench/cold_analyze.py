"""``cold-analyze``: first sight of a program, in process.

Each op is one ``agrawal`` slice, through ``SlicingEngine.handle_payload``
with the default cache configuration, of a generated program the engine
has never seen.  A round is 18 such programs (alternately structured and
unstructured, all in one CFG-node band) plus the two fixed hostile
inputs, so the failed share is the same in every run.
"""

from __future__ import annotations

import random
import signal
import sys
import time
from contextlib import contextmanager
from typing import Dict, List, Tuple

from bench_common import (
    MIN_OPS,
    NPROC,
    SETUP_AT_START,
    SETUP_REPEATS,
    LayerSpans,
    check_span_names,
    end_to_end,
    metric,
    p50,
    probe_setup,
    self_peak_rss_mb,
)
from edit_reslice import edit_layers
from programs import cold_program, hostile_payloads, slice_payload

from repro.analysis.control_dependence import compute_control_dependence
from repro.analysis.defuse import compute_data_dependence
from repro.analysis.lexical import build_lst
from repro.analysis.postdominance import build_postdominator_tree
from repro.analysis.reaching_defs import compute_reaching_definitions
from repro.cfg.builder import build_cfg
from repro.corpus import PAPER_PROGRAMS
from repro.interp.oracle import check_slice_correctness, criterion_trajectory
from repro.lang.errors import InterpreterError, SliceError
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser
from repro.pdg.builder import ProgramAnalysis, analyze_program, build_pdg
from repro.service.engine import SlicingEngine
from repro.service.protocol import ok_envelope, slice_result_payload
from repro.slicing.agrawal import _prune_redundant_jumps, agrawal_slice
from repro.slicing.ball_horwitz import ball_horwitz_slice
from repro.slicing.common import SliceResult, conventional_base
from repro.slicing.criterion import SlicingCriterion, resolve_criterion
from repro.slicing.extract import extract_slice

GENERATED_PER_ROUND = 18
#: Length of the traced run's edit phase (see edit_reslice.py).
EDIT_SECONDS = 3.0
#: Where in a round the two hostile inputs sit.
HOSTILE_AT = (6, 13)
#: ``peak_rss_mb`` is read once this many generated programs have been
#: handled, so it measures a fixed amount of work: the engine keeps
#: every program it has seen, and a reading at the end of the timed
#: loop would grow with the number of programs a faster engine gets
#: through.  A run always handles at least ``MIN_OPS`` of them.
RSS_AT = MIN_OPS
#: Limits of the semantic oracle.  Generated goto programs need not
#: terminate, and values can grow without bound (repeated squaring
#: makes each step a bignum multiplication), so an input on which the
#: original program passes either limit is skipped.  The step limit is
#: the one the repository's semantic test suite uses.  The slice check,
#: which runs the original again and then the slice, gets a wider time
#: limit, so that a busy machine cannot fail a correct slice.
STEPS = 50_000
ORIGINAL_SECONDS = 1.0
SLICE_SECONDS = 8.0
#: Oracle inputs per program, and the share of them that must actually
#: run (not be skipped past the limits) for the check to count.
ORACLE_INPUTS = 2
MIN_ORACLE_SHARE = 0.5


class OracleTimeout(Exception):
    pass


@contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise OracleTimeout(f"interpreter ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def make_engine() -> SlicingEngine:
    engine = SlicingEngine(workers=NPROC)
    fig3a = PAPER_PROGRAMS["fig3a"]
    for source, line, var in (
        (fig3a.source, *fig3a.criterion),
        cold_program(random.Random("warm-up"), structured=True),
    ):
        envelope = engine.handle_payload(
            slice_payload(source, line, var, "agrawal")
        )
        if not envelope.get("ok"):
            raise RuntimeError(f"warm-up slice failed: {envelope}")
    return engine


def setup_probe(seed: int) -> Dict[str, float]:
    start = time.perf_counter()
    cold_program(random.Random("warm-up"), structured=True)
    input_s = time.perf_counter() - start
    make_engine().close()
    return {"input_s": input_s}


def make_round(rng: random.Random) -> List[Tuple[Dict, bool]]:
    ops = []
    for index in range(GENERATED_PER_ROUND):
        source, line, var = cold_program(rng, structured=index % 2 == 0)
        ops.append((slice_payload(source, line, var, "agrawal"), False))
    for position, payload in zip(HOSTILE_AT, hostile_payloads()):
        ops.insert(position, (payload, True))
    return ops


def layered(payload: Dict, spans: LayerSpans) -> Dict:
    """The engine's cold slice path, one public layer call at a time.

    The algorithm call and the encoding are timed under no program span
    name: the program's ``fig7-traversal`` span covers one round of the
    algorithm, and its ``response-encode`` covers ``ok_envelope`` alone
    (the payload is built inside ``dispatch``).
    """
    source = payload["source"]
    with spans.layer("lang.tokenize_ms", "parse"):
        tokens = tokenize(source)
    with spans.layer("lang.parse_ms", "parse"):
        program = Parser(tokens, source=source).parse_program()
    with spans.layer("cfg.build_ms", "cfg-build"):
        cfg = build_cfg(program)
    with spans.layer("analysis.postdominance_ms", "postdominance"):
        pdt = build_postdominator_tree(cfg)
    with spans.layer("analysis.lst_ms", "lexical-successor-tree"):
        lst = build_lst(cfg)
    with spans.layer("analysis.control_dependence_ms", "control-dependence"):
        cdg = compute_control_dependence(cfg, pdt)
    with spans.layer("analysis.reaching_defs_ms", "reaching-defs"):
        reaching = compute_reaching_definitions(cfg)
    with spans.layer("analysis.data_dependence_ms", "data-dependence"):
        ddg = compute_data_dependence(cfg, reaching)
    with spans.layer("pdg.build_ms", "pdg-build"):
        pdg = build_pdg(cfg, cdg=cdg, ddg=ddg)
    analysis = ProgramAnalysis(
        program=program, cfg=cfg, pdt=pdt, lst=lst, cdg=cdg, ddg=ddg,
        pdg=pdg, reaching=reaching,
    )
    with spans.layer("pdg.closure_index_ms", "closure-index-build"):
        pdg.ensure_closure_index()
    with spans.layer("slicing.agrawal_ms", None):
        result = agrawal_slice(
            analysis, SlicingCriterion(payload["line"], payload["var"])
        )
    with spans.layer("protocol.encode_ms", None):
        envelope = ok_envelope("slice", slice_result_payload(result))
    spans.samples.setdefault("cfg.nodes", []).append(len(cfg.nodes))
    spans.samples.setdefault("pdg.edges", []).append(
        sum(1 for _ in pdg.edges())
    )
    spans.samples.setdefault("slicing.traversals", []).append(
        result.traversals
    )
    return envelope


def hostile_ok(outcome) -> bool:
    """Totality: exactly one structured envelope; an error must be
    non-retryable (the input fails the same way every time)."""
    if not isinstance(outcome, dict):
        return False
    if outcome.get("ok"):
        return isinstance(outcome.get("result", {}).get("nodes"), list)
    error = outcome.get("error")
    return (
        isinstance(error, dict)
        and isinstance(error.get("code"), str)
        and error.get("retryable") is False
    )


def check_slice(payload: Dict, result: Dict, salt: int,
                tally: Dict[str, int]) -> List[str]:
    """Check one slice against computations made apart from the engine,
    counting in *tally* what was checked:

    * the Ball–Horwitz slice on the augmented PDG of a fresh monolithic
      analysis.  The engine's slice, with its redundant jumps pruned by
      the repository's own pass (``prune_redundant=True`` of
      ``agrawal_slice``, erratum E2 in EXPERIMENTS.md), must equal it
      node for node.  On a program with dead code the two may
      legitimately differ (the augmented graph reaches dead nodes), so
      a mismatch there is counted as exempt rather than failed;
    * the semantic oracle: the extracted slice reproduces the criterion
      trajectory of the original on seeded inputs.
    """
    problems = []
    analysis = analyze_program(payload["source"])
    criterion = SlicingCriterion(payload["line"], payload["var"])
    nodes = result["nodes"]
    reference = ball_horwitz_slice(analysis, criterion)
    resolved = resolve_criterion(analysis, criterion)
    base = frozenset(conventional_base(analysis, resolved))
    pruned = set(nodes) | base
    _prune_redundant_jumps(analysis, pruned, base)
    ours = {n for n in pruned if analysis.cfg.nodes[n].stmt is not None}
    theirs = set(reference.statement_nodes())
    if ours == theirs:
        tally["bh_exact"] += 1
    elif analysis.cfg.unreachable_statements():
        tally["bh_exempt_dead_code"] += 1
    else:
        problems.append(
            f"pruned slice {sorted(ours)} vs Ball-Horwitz {sorted(theirs)}"
        )
    claimed = SliceResult(
        algorithm="agrawal",
        resolved=resolved,
        nodes=frozenset(nodes),
        analysis=analysis,
        label_map={k: int(v) for k, v in result["label_map"].items()},
    )
    try:
        extract_slice(claimed)
    except SliceError as error:
        try:
            extract_slice(reference)
        except SliceError:
            # The extractor refuses even the Ball-Horwitz slice of this
            # program (a fault of slicing/extract.py, see CHANGES.md),
            # so there is no extracted program to run.
            tally["oracle_extract_refused"] += 1
            return problems
        return problems + [f"extraction refused the slice: {error}"]
    rng = random.Random(salt)
    for _ in range(ORACLE_INPUTS):
        inputs = [rng.randint(-9, 9) for _ in range(rng.randint(0, 8))]
        try:
            with time_limit(ORIGINAL_SECONDS):
                criterion_trajectory(analysis, criterion, inputs,
                                     step_limit=STEPS)
        except (InterpreterError, OracleTimeout):
            tally["oracle_skipped"] += 1  # the original is past the limits
            continue
        tally["oracle_ran"] += 1
        try:
            with time_limit(SLICE_SECONDS):
                check_slice_correctness(claimed, [inputs], step_limit=STEPS)
        except Exception as error:  # a mismatch, or the slice alone fails
            problems.append(f"oracle: {type(error).__name__}: {error}"[:300])
    return problems


def check_all(outcomes, seed: int) -> List[str]:
    """Check every generated program's slice; print what was checked,
    and fail when too few oracle runs actually happened."""
    tally = dict.fromkeys(("bh_exact", "bh_exempt_dead_code",
                           "oracle_ran", "oracle_skipped",
                           "oracle_extract_refused"), 0)
    problems = []
    for index, (payload, hostile, outcome) in enumerate(outcomes):
        if hostile:
            continue
        if not (isinstance(outcome, dict) and outcome.get("ok")):
            print(f"cold-analyze: op {index} failed: {str(outcome)[:200]}",
                  file=sys.stderr)
            continue
        problems += check_slice(payload, outcome["result"], seed + index,
                                tally)
    print("cold-analyze checks: " + ", ".join(
        f"{name} {count}" for name, count in tally.items()), file=sys.stderr)
    attempts = tally["oracle_ran"] + tally["oracle_skipped"]
    if not attempts or tally["oracle_ran"] < MIN_ORACLE_SHARE * attempts:
        problems.append(f"only {tally['oracle_ran']} of {attempts} oracle "
                        f"inputs ran within the limits")
    return problems


def run(seed: int, seconds: float, trace: bool):
    setups = [] if trace else probe_setup("cold-analyze", seed,
                                          SETUP_AT_START)
    engine = make_engine()
    rng = random.Random(seed)
    spans = LayerSpans()
    engine_latencies: List[float] = []
    traced_latencies: List[float] = []
    outcomes = []  # (payload, hostile, outcome)
    attempted = failed = 0
    timed = 0.0
    generated = 0
    peak_rss = unit_records = None
    while timed < seconds or generated < RSS_AT:
        ops = make_round(rng)
        round_start = time.perf_counter()
        for payload, hostile in ops:
            traced = trace and not hostile and generated % 2 == 1
            start = time.perf_counter()
            try:
                if traced:
                    outcome = layered(payload, spans)
                else:
                    outcome = engine.handle_payload(payload)
            except Exception as error:  # escaped the never-raises API
                outcome = error
            elapsed = time.perf_counter() - start
            attempted += 1
            if hostile:
                failed += not hostile_ok(outcome)
            else:
                generated += 1
                failed += not (isinstance(outcome, dict)
                               and outcome.get("ok"))
                (traced_latencies if traced else engine_latencies).append(
                    elapsed
                )
                if generated == RSS_AT:
                    peak_rss = self_peak_rss_mb()
                    unit_records = len(engine.cache.unit_cache)
            outcomes.append((payload, hostile, outcome))
        timed += time.perf_counter() - round_start
    engine.close()

    problems = check_all(outcomes, seed)
    if not trace:
        setups += probe_setup("cold-analyze", seed,
                              SETUP_REPEATS - SETUP_AT_START)
        metrics = end_to_end(engine_latencies, attempted, timed,
                             p50(setups), peak_rss)
    else:
        layers = [name for name in spans.samples if name.endswith("_ms")]
        metrics = {name: metric(spans.median(name), "ms") for name in layers}
        metrics["engine.overhead_ms"] = metric(
            p50(engine_latencies) * 1e3
            - sum(spans.median(name) for name in layers), "ms")
        for name in ("cfg.nodes", "pdg.edges", "slicing.traversals"):
            values = spans.samples[name]
            metrics[name] = metric(sum(values) / len(values), "count")
        metrics["engine.unit_cache_records"] = metric(unit_records, "count")
        metrics["trace.overhead_pct"] = metric(
            100.0 * (p50(traced_latencies) / p50(engine_latencies) - 1), "%")
        sample = outcomes[1][0]
        probe = SlicingEngine(workers=1)
        envelope = probe.handle_payload(dict(sample, trace=True))
        probe.close()
        check_span_names(spans.names, envelope["trace"])
        edit_metrics, edit_problems = edit_layers(seed, EDIT_SECONDS)
        metrics.update(edit_metrics)
        problems += edit_problems
    for problem in problems[:10]:
        print(f"cold-analyze: {problem}", file=sys.stderr)
    return not problems, attempted, failed, metrics
