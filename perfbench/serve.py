"""``serve-keepalive``: warm requests over persistent HTTP connections.

The program runs as its own process (``python -m repro serve``), so the
load generator's own work never shares an interpreter with it.  Each
client thread holds one persistent HTTP/1.1 connection and sends the
hot set (paper corpus plus seeded generated programs, every algorithm
valid for each), warmed once before timing, so every timed op is a
slice-memo hit.  The traced run adds a short phase against
``serve --workers 2`` through the shipped ``ServiceClient``, for the
per-layer figures of ``service.cluster`` and ``service.client``.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from bench_common import (
    MIN_OPS,
    NPROC,
    SETUP_AT_START,
    SETUP_REPEATS,
    LayerSpans,
    ServerProcess,
    check_span_names,
    end_to_end,
    metric,
    p50,
    pid_peak_rss_mb,
)
from programs import hot_set

from repro.corpus import PAPER_PROGRAMS
from repro.pdg.builder import analyze_program
from repro.service.client import ServiceClient
from repro.service.engine import SlicingEngine
from repro.service.protocol import (
    dump_json,
    request_from_dict,
    slice_result_payload,
)
from repro.service.resilience import RetryPolicy
from repro.slicing.criterion import SlicingCriterion
from repro.slicing.registry import get_algorithm


#: Length of the traced run's cluster phase.
CLUSTER_SECONDS = 3.0


class KeepAliveClient:
    """One persistent connection; reconnects (and counts it) if the
    server closes it."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn: Optional[http.client.HTTPConnection] = None
        self.opened = 0

    def post(self, body: bytes) -> bytes:
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                   timeout=30)
            self.opened += 1
        self.conn.request("POST", "/slice", body=body,
                          headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        data = response.read()
        if response.getheader("Connection", "").lower() == "close":
            self.close()
        return data

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def get_json(port: int, path: str) -> Dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def start_and_warm(workers: int, bodies: List[bytes]) -> ServerProcess:
    """Start the server and send every hot-set request once, which fills
    its analysis cache and slice memo."""
    server = ServerProcess(workers)
    try:
        for body in bodies:
            # A fresh connection per request: a reused one would put the
            # keep-alive stall the timed phase measures into set-up too.
            client = KeepAliveClient(server.port)
            try:
                envelope = json.loads(client.post(body))
            finally:
                client.close()
            if not envelope.get("ok"):
                raise RuntimeError(f"warm-up request failed: {envelope}")
    except BaseException:
        server.stop(worker_pids(get_json(server.port, "/stats")))
        raise
    return server


def timed_setup(bodies: List[bytes]) -> Tuple[ServerProcess, float]:
    """A warmed single server, and the seconds its start and warm-up
    took (``setup_s`` samples)."""
    start = time.perf_counter()
    server = start_and_warm(1, bodies)
    return server, time.perf_counter() - start


def worker_pids(stats: Dict) -> List[int]:
    cluster = stats.get("cluster")
    if not cluster:
        return []
    return [w["pid"] for w in cluster["worker_stats"] if w["pid"]]


def _handled(stats: Dict) -> Tuple[int, float]:
    latency = stats.get("latency", {})
    return (sum(h["count"] for h in latency.values()),
            sum(h["sum_seconds"] for h in latency.values()))


class Replay:
    """In-process replay of what the server does with one request
    (decode, engine, encode), timed by layer spans; runs outside the
    measured op, in the traced run only.

    Only the engine call takes a program span name, ``slice``: the root
    span the engine opens for the request.  The program has no phase
    that covers decoding or ``dump_json``, so those are timed under no
    name.
    """

    def __init__(self, payloads: List[Dict]) -> None:
        self.engine = SlicingEngine(workers=NPROC)
        for payload in payloads:
            self.engine.handle_payload(payload)

    def __call__(self, body: bytes, spans: LayerSpans) -> None:
        with spans.layer("protocol.decode_us", None):
            request = request_from_dict(json.loads(body))
        with spans.layer("engine.handle_us", "slice"):
            envelope = self.engine.handle(request)
        with spans.layer("protocol.encode_us", None):
            dump_json(envelope).encode("utf-8")


def run(seed: int, seconds: float, trace: bool):
    requests = hot_set(seed)
    payloads = [payload for payload, _ in requests]
    bodies = [dump_json(payload).encode("utf-8") for payload in payloads]

    setups = []
    server = None
    for _ in range(1 if trace else SETUP_AT_START):
        if server is not None:
            server.stop()
        server, took = timed_setup(bodies)
        setups.append(took)
    replay = None
    try:
        replay = Replay(payloads) if trace else None
        before = get_json(server.port, "/stats")
        rows, timed, opened, spans = closed_loop(
            NPROC, seconds, bodies, server.port, replay)
        rss = pid_peak_rss_mb(server.proc.pid)
        after = get_json(server.port, "/stats")
        if trace:
            sample = KeepAliveClient(server.port)
            try:
                envelope = json.loads(sample.post(dump_json(
                    dict(payloads[0], trace=True)).encode("utf-8")))
            finally:
                sample.close()
    finally:
        server.stop()
        if replay is not None:
            replay.engine.close()

    latencies = [row[2] for row in rows if not row[4]]
    traced = [row[2] for row in rows if row[4]]
    ops = len(rows)
    failed, problems = check_responses(requests, rows)
    if not trace:
        for _ in range(SETUP_REPEATS - SETUP_AT_START):
            server, took = timed_setup(bodies)
            server.stop()
            setups.append(took)
        metrics = end_to_end(latencies, ops, timed, p50(setups), rss)
    else:
        server_ms = server_side_ms(before, after)
        metrics = {
            "server.handle_ms": metric(server_ms, "ms"),
            "transport.overhead_ms": metric(
                p50(latencies) * 1e3 - server_ms, "ms"),
            "transport.connections_opened": metric(opened / ops, "count"),
            "trace.overhead_pct": metric(
                100.0 * (p50(traced) / p50(latencies) - 1), "%"),
        }
        for name in ("protocol.decode_us", "engine.handle_us",
                     "protocol.encode_us"):
            metrics[name] = metric(spans.median(name) * 1e3, "us")
        check_span_names(spans.names, envelope["trace"])
        cluster_metrics, cluster_problems = cluster_layers(seed, requests,
                                                           bodies)
        metrics.update(cluster_metrics)
        problems += cluster_problems
    for problem in problems[:10]:
        print(f"serve-keepalive: {problem}", file=sys.stderr)
    return not problems, ops, failed, metrics


def server_side_ms(before: Dict, after: Dict) -> float:
    """Mean server-side handling time over the timed phase, from the
    latency histograms of ``/stats`` (they keep no percentiles)."""
    count0, sum0 = _handled(before)
    count1, sum1 = _handled(after)
    return (sum1 - sum0) / (count1 - count0) * 1e3


def closed_loop(clients, seconds, bodies, port, replay, send=None):
    """*clients* threads, each sending its next request only when the
    last one has been answered.  Thread *k* walks the hot set from
    request *k* in steps of *clients*.

    Returns ``(rows, timed, opened, spans)``: rows of ``(request
    index, start, seconds, response, traced)`` for every op in start
    order, the wall time of the timed phase, the connections opened and
    the merged layer spans.  With a *replay* (traced run) every other op
    is traced: an in-process replay of its request follows it.
    """
    stop = threading.Event()
    results = [[] for _ in range(clients)]
    spans = [LayerSpans() for _ in range(clients)]
    opened = [0] * clients

    def loop(slot: int) -> None:
        client = None if send is not None else KeepAliveClient(port)
        post = send if send is not None else client.post
        index = slot
        count = 0
        try:
            while not stop.is_set():
                i = index % len(bodies)
                start = time.perf_counter()
                response = post(bodies[i])
                elapsed = time.perf_counter() - start
                traced = replay is not None and count % 2 == 1
                results[slot].append((i, start, elapsed, response, traced))
                if traced:
                    replay(bodies[i], spans[slot])
                index += clients
                count += 1
        finally:
            if client is not None:
                opened[slot] = client.opened
                client.close()

    threads = [threading.Thread(target=loop, args=(slot,))
               for slot in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(seconds)
    while replay is None and sum(len(r) for r in results) < MIN_OPS:
        time.sleep(0.1)
    stop.set()
    for thread in threads:
        thread.join()
    timed = time.perf_counter() - start
    merged = LayerSpans()
    for each in spans:
        for name, values in each.samples.items():
            merged.samples.setdefault(name, []).extend(values)
        merged.names |= each.names
    rows = sorted((row for rows in results for row in rows),
                  key=lambda row: row[1])
    return rows, timed, sum(opened), merged


def cluster_layers(seed, requests, bodies):
    """Per-layer figures of ``service.cluster`` and ``service.client``.

    ``serve --workers 2`` driven through the shipped ``ServiceClient``
    (a fresh connection per request, and one more per proxied hop) was
    too unsteady to be an end-to-end workload on a 2-vCPU box, so it is
    measured here, in the traced run only, where no bound applies.
    """
    server = start_and_warm(2, bodies)
    try:
        client = ServiceClient(f"http://127.0.0.1:{server.port}",
                               retry=RetryPolicy(max_retries=2, seed=seed))
        before = get_json(server.port, "/stats")
        rows, _, _, _ = closed_loop(
            1, CLUSTER_SECONDS, bodies, server.port, None,
            send=lambda body: client.post(json.loads(body)))
        after = get_json(server.port, "/stats")
    finally:
        server.stop(worker_pids(get_json(server.port, "/stats")))
    failed, problems = check_responses(requests, rows)
    ops = len(rows)
    server_ms = server_side_ms(before, after)
    latencies = [row[2] for row in rows]
    shares = [w1["requests"] - w0["requests"]
              for w0, w1 in zip(before["cluster"]["worker_stats"],
                                after["cluster"]["worker_stats"])]
    retries = client.stats()["retries"]
    metrics = {
        "cluster.proxy_overhead_ms": metric(
            p50(latencies) * 1e3 - server_ms, "ms"),
        "cluster.proxy_errors": metric(
            after["cluster"]["proxy_errors"]
            - before["cluster"]["proxy_errors"], "count"),
        "cluster.worker_share_min": metric(min(shares) / sum(shares),
                                           "ratio"),
        "client.retries": metric(retries, "count"),
        # One client connection per attempt plus one per proxied hop.
        "cluster.connections_opened": metric(
            (ops + retries + sum(shares)) / ops, "count"),
    }
    if failed:
        problems.append(f"{failed} cluster responses were errors")
    return metrics, problems


def check_responses(requests, rows) -> Tuple[int, List[str]]:
    """Corpus responses must match the paper's expected slices; the
    generated programs' must match a cache-less in-process slice."""
    failed = 0
    problems = []
    distinct: Dict[int, Dict[str, int]] = {}
    for index, _, _, response, _ in rows:
        raw = (dump_json(response) if isinstance(response, dict)
               else response.decode("utf-8"))
        counts = distinct.setdefault(index, {})
        counts[raw] = counts.get(raw, 0) + 1
    for index, raws in sorted(distinct.items()):
        payload, corpus = requests[index]
        if corpus is None:
            analysis = analyze_program(payload["source"])
            slicer = get_algorithm(payload["algorithm"])
            expected = slice_result_payload(slicer(
                analysis, SlicingCriterion(payload["line"], payload["var"])))
        for raw, count in raws.items():
            envelope = json.loads(raw)
            if not envelope.get("ok"):
                failed += count
                problems.append(f"request {index}: {raw[:200]}")
                continue
            result = envelope["result"]
            if corpus is not None:
                want = PAPER_PROGRAMS[corpus].expectations[
                    payload["algorithm"]]
                if set(result["nodes"]) != set(want):
                    problems.append(
                        f"{corpus}/{payload['algorithm']}: "
                        f"{result['nodes']} != paper {sorted(want)}")
            elif result != expected:
                problems.append(f"request {index}: differs from an "
                                "in-process cache-less slice")
    return failed, problems
