"""Plumbing shared by the workloads: statistics, layer spans, set-up
probes, program processes, peak RSS and the result line."""

from __future__ import annotations

import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence

from repro.obs.tracer import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: Closed-loop width: one load generator with at most this many threads
#: or connections, and the program's own pools capped at the same.
NPROC = os.cpu_count() or 1

#: A run keeps going past ``--seconds`` until it has this many measured
#: ops, so that ``p90_ms`` always has ten samples beyond it.
MIN_OPS = 100

#: How many fresh set-ups ``setup_s`` takes the median of, and how
#: many of them come at the start of a run; the rest come at its end,
#: after the checks.  The host's speed shifts between regimes that last
#: tens of seconds, so set-ups taken back to back would all see one.
SETUP_REPEATS = 9
SETUP_AT_START = 5


def program_env() -> Dict[str, str]:
    """Environment for a child that imports the program from source."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
    return env


def p50(values: Sequence[float]) -> float:
    return statistics.median(values)


def p90(values: Sequence[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(latencies_s: Sequence[float], ops: int, timed_s: float,
               setup_s: float, peak_rss_mb: float) -> Dict[str, object]:
    """The end-to-end metrics every workload reports with ``--trace 0``.

    *latencies_s* must be in the order the ops started.

    ``ops_per_s`` divides by the wall time of the timed phase only,
    which holds nothing but calls into the program.
    """
    if len(latencies_s) < MIN_OPS:
        raise RuntimeError(
            f"only {len(latencies_s)} measured ops; p90 needs {MIN_OPS}"
        )
    # Drift within the run (heap growth, caches filling) shows as the
    # second half's p50 against the first half's; steady.py collects it.
    half = len(latencies_s) // 2
    print(f"drift p50 {p50(latencies_s[half:]) / p50(latencies_s[:half])}",
          file=sys.stderr)
    return {
        "setup_s": metric(setup_s, "s"),
        "p50_ms": metric(p50(latencies_s) * 1e3, "ms"),
        "p90_ms": metric(p90(latencies_s) * 1e3, "ms"),
        "ops_per_s": metric(ops / timed_s, "1/s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, object]) -> None:
    """Print the result object as the last line of standard output."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }), flush=True)


# ----------------------------------------------------------------------
# layer spans


class LayerSpans:
    """Times calls into the program's layers from the benchmark's side.

    Spans are recorded on a :class:`repro.obs.tracer.Tracer` that is
    never installed as the current tracer, so the program's own
    ``trace_span`` calls stay no-ops.  A span takes the name of a
    program tracer phase only when that phase covers the same call; the
    metric it feeds rides along as the ``layer`` attribute, because one
    phase can feed two metrics (the program's ``parse`` span covers
    both lexing and parsing).  A call that no program phase covers
    exactly is timed with *span_name* ``None``, under no borrowed name.
    """

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.samples: Dict[str, List[float]] = {}
        self.names = set()

    @contextmanager
    def layer(self, metric_name: str, span_name: Optional[str]):
        if span_name is None:
            start = time.perf_counter_ns()
            yield None
            elapsed_ns = time.perf_counter_ns() - start
        else:
            self.names.add(span_name)
            with self.tracer.span(span_name, layer=metric_name) as span:
                yield span
            elapsed_ns = span.dur_ns
        self.samples.setdefault(metric_name, []).append(elapsed_ns / 1e6)

    def median(self, metric_name: str) -> float:
        return p50(self.samples[metric_name])


def span_names(tree) -> set:
    """Every span name in a ``"trace": true`` envelope's span tree."""
    names = set()
    stack = list(tree if isinstance(tree, list) else [tree])
    while stack:
        node = stack.pop()
        names.add(node["name"])
        stack.extend(node.get("children", ()))
    return names


def check_span_names(used: Iterable[str], program_tree) -> None:
    """Fail when a span name the benchmark uses is missing from the
    program's own span tree, so the two taxonomies cannot drift."""
    missing = sorted(set(used) - span_names(program_tree))
    if missing:
        raise RuntimeError(
            f"benchmark span names missing from the program's trace: "
            f"{missing}"
        )


# ----------------------------------------------------------------------
# set-up probes and processes


def probe_setup(workload: str, seed: int, count: int) -> List[float]:
    """*count* samples, each from a fresh process, of the time from
    process start until the workload could begin its timed phase.

    Each probe is ``run.py --setup-probe``: it imports the program,
    makes its own inputs (reported as ``input_s`` and subtracted, since
    input generation is not set-up), builds the engine and warms it,
    prints one line and exits.
    """
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"),
             "--workload", workload, "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.PIPE, env=program_env(), text=True,
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
        finally:
            proc.stdout.close()
            if proc.wait(timeout=60) != 0:
                raise RuntimeError(f"set-up probe of {workload} failed")
        samples.append(ready - start - json.loads(line)["input_s"])
    return samples


def self_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class ServerProcess:
    """``python -m repro serve ...`` as a child process of its own."""

    #: The line that names the bound port: the single server's banner,
    #: or the supervisor's own log line (its banner echoes ``--port``).
    _PORT = re.compile(
        r"(?:listening on http://|supervising \d+ worker\(s\) on )"
        r"[\d.]+:(\d+)"
    )

    def __init__(self, workers: int) -> None:
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--threads", str(NPROC)]
        if workers > 1:
            cmd += ["--workers", str(workers)]
        self.proc = subprocess.Popen(
            cmd, stderr=subprocess.PIPE, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, env=program_env(), text=True,
        )
        watchdog = threading.Timer(60.0, self.proc.kill)
        watchdog.start()
        try:
            self.port = self._read_port()
        finally:
            watchdog.cancel()
        # Keep draining stderr so a chatty server never blocks on it.
        self._drain = threading.Thread(
            target=lambda: self.proc.stderr.read(), daemon=True
        )
        self._drain.start()

    def _read_port(self) -> int:
        for line in self.proc.stderr:
            match = self._PORT.search(line)
            if match:
                return int(match.group(1))
        self.proc.wait()
        raise RuntimeError(
            f"server exited with {self.proc.returncode} before listening"
        )

    def stop(self, extra_pids: Sequence[int] = ()) -> None:
        """SIGTERM (graceful drain), then make sure the process and any
        *extra_pids* (cluster workers) have ended."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._drain.join(timeout=5)
        for pid in extra_pids:
            _reap_foreign(pid)


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")


def _reap_foreign(pid: int) -> None:
    """Wait for a process that is not our child (a cluster worker)."""
    deadline = time.monotonic() + 10
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    if _running(pid):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        while _running(pid):
            time.sleep(0.05)
