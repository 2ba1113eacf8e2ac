"""End-to-end benchmark of the slicing toolkit, one workload per run.

    python3 perfbench/run.py --workload cold-analyze --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` (no install step).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")

WORKLOADS = ("cold-analyze", "serve-keepalive")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.workload == "cold-analyze":
        import cold_analyze as workload
    else:
        import serve as workload

    if args.setup_probe:
        print(json.dumps(workload.setup_probe(args.seed)), flush=True)
        return 0
    correct, attempted, failed, metrics = workload.run(
        args.seed, args.seconds, bool(args.trace))
    if args.trace:
        metrics = every_layer(metrics)
    from bench_common import emit

    emit(correct, attempted, failed, metrics)
    return 0


def every_layer(measured):
    """All per-layer metrics of ``BENCHMARK.json``, in its order.

    A traced run prints every one of them.  A layer this workload's ops
    never enter did no work, so it reads 0 (see README, "Per-layer
    metrics").
    """
    with open(os.path.join(BENCH_DIR, os.pardir, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer"]
    out = {}
    for entry in declared:
        value = measured.pop(entry["name"], None)
        if value is None:
            value = {"value": 0.0, "unit": entry["unit"]}
        elif value["unit"] != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: unit {value['unit']} "
                               f"is declared as {entry['unit']}")
        out[entry["name"]] = value
    if measured:
        raise RuntimeError(f"undeclared per-layer metrics: {sorted(measured)}")
    return out


if __name__ == "__main__":
    sys.exit(main())
