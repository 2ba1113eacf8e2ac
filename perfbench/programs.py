"""Seeded inputs for every workload.

Everything here is a pure function of the seed, so two runs with the
same ``--seed`` send the program byte-identical requests.  Nothing in
this module is timed: workloads call it before (or between) their timed
segments.
"""

from __future__ import annotations

import random
import re
from typing import Dict, List, Optional, Tuple

from repro.cfg.builder import build_cfg
from repro.corpus import PAPER_PROGRAMS
from repro.gen.generator import (
    GeneratorConfig,
    generate_interprocedural,
    generate_structured,
    generate_unstructured,
    random_criterion,
    realize,
)
from repro.lang.ast_nodes import Assign, Program, walk_statements
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty
from repro.lang.errors import SlangError
from repro.pdg.builder import analyze_program
from repro.service.engine import check_algorithm_capability
from repro.slicing.criterion import SlicingCriterion
from repro.slicing.registry import algorithm_names, get_algorithm

#: The one CFG-node band of ``cold-analyze``.  Cold cost grows faster
#: than linearly with size (~70 ms at 208 nodes, ~0.5 s at 608), so a
#: mix of sizes would give a median that jumps between modes.
COLD_BAND = (110, 140)

#: Depth of the two hostile ``cold-analyze`` inputs.  Both make the
#: recursive-descent parser exceed the interpreter's recursion limit.
HOSTILE_DEPTH = 200


def slice_payload(source: str, line: int, var: str, algorithm: str,
                  proc: Optional[str] = None) -> Dict[str, object]:
    payload: Dict[str, object] = {
        "version": 2,
        "op": "slice",
        "source": source,
        "line": line,
        "var": var,
        "algorithm": algorithm,
    }
    if proc is not None:
        payload["proc"] = proc
    return payload


def node_count(program: Program) -> int:
    return len(build_cfg(program).nodes)


def _structured_in_band(rng: random.Random, lo: int, hi: int) -> Program:
    """Concatenate small generated structured programs until the CFG
    lands in ``[lo, hi]``; one generated program alone has a heavy-
    tailed size, so rejection sampling would waste most draws.  Parts
    have no ``return``: one would make every later part dead code."""
    config = GeneratorConfig(max_depth=3, max_stmts=5, allow_return=False)
    while True:
        body: List = []
        size = 2  # ENTRY and EXIT
        while size < lo:
            part = generate_structured(rng, config)
            part_size = node_count(part) - 2
            if size + part_size <= hi:
                body += part.body
                size += part_size
        program = realize(Program(body=body))
        if lo <= node_count(program) <= hi:
            return program


def _unstructured_in_band(rng: random.Random, lo: int, hi: int) -> Program:
    # A flat goto program of length L has L + 6 CFG nodes (ENTRY, EXIT
    # and the trailing writes); retry the rare draw that misses.
    while True:
        config = GeneratorConfig(flat_length=rng.randint(lo - 6, hi - 6))
        program = realize(generate_unstructured(rng, config))
        if lo <= node_count(program) <= hi:
            return program


def live_criterion(rng: random.Random, program: Program):
    """A criterion from :func:`random_criterion`, or ``None`` when every
    ``write`` is dead code (it then falls back to a dead one, which the
    resolver rightly rejects)."""
    line, var = random_criterion(rng, program)
    dead = {node.line for node in build_cfg(program).unreachable_statements()}
    return None if line in dead else (line, var)


def cold_program(rng: random.Random, structured: bool) -> Tuple[str, int, str]:
    """One never-seen program in :data:`COLD_BAND` and a criterion the
    resolver accepts: ``(source, line, var)``."""
    lo, hi = COLD_BAND
    while True:
        program = (
            _structured_in_band(rng, lo, hi)
            if structured
            else _unstructured_in_band(rng, lo, hi)
        )
        criterion = live_criterion(rng, program)
        if criterion is not None:
            return (pretty(program), *criterion)


def hostile_payloads() -> List[Dict[str, object]]:
    """Two fixed inputs that do not depend on the seed: 200 nested
    parentheses and 200 nested ``if`` statements."""
    d = HOSTILE_DEPTH
    parens = "x = " + "(" * d + "1" + ")" * d + ";\nwrite(x);\n"
    ifs = (
        "read(x);\n"
        + "if (x > 0) {\n" * d
        + "x = x + 1;\n"
        + "}\n" * d
        + "write(x);\n"
    )
    return [
        slice_payload(parens, 2, "x", "agrawal"),
        slice_payload(ifs, 2 * d + 3, "x", "agrawal"),
    ]


# ----------------------------------------------------------------------
# the edit phase of the cold-analyze traced run


#: The ~50-procedure, ~1,700-node program of ``bench_incremental.py``:
#: sparse coupling, so an edit leaves most slices' procedures untouched.
EDIT_CONFIG = GeneratorConfig(
    num_procs=50,
    max_depth=5,
    max_stmts=17,
    params_per_proc=4,
    num_vars=6,
    call_probability=0.05,
)
#: The program is the same in every run (the one of
#: ``bench_incremental.py``), because generated programs of this shape
#: range from ~40 to ~120 ms per op; the run's seed picks the edits and
#: the criterion set.
EDIT_PROGRAM_SEED = 42
_SIMPLE_ASSIGN = re.compile(r"^(\s*)(\w+) = ([^;{}]*);$")


class EditTrace:
    """The edit program and a seeded, cumulative stream of
    procedure-body edits.

    Each edit wraps one assignment's right-hand side in ``(...) + k``
    on its own line, so only the edited procedure's fingerprint changes
    and every criterion line stays where it was.  Edits are textual,
    so producing the next source costs a string join, not a parse.
    """

    def __init__(self, seed: int) -> None:
        self.base = pretty(
            generate_interprocedural(random.Random(EDIT_PROGRAM_SEED),
                                     EDIT_CONFIG)
        )
        self._lines = self.base.splitlines()
        program = parse_program(self.base)
        self._targets = [
            stmt.line
            for proc in program.procs
            for top in proc.body
            for stmt in walk_statements(top)
            if isinstance(stmt, Assign)
            and _SIMPLE_ASSIGN.match(self._lines[stmt.line - 1])
        ]
        self._rng = random.Random(seed)

    def next_source(self) -> str:
        line = self._rng.choice(self._targets)
        match = _SIMPLE_ASSIGN.match(self._lines[line - 1])
        indent, target, value = match.groups()
        self._lines[line - 1] = (
            f"{indent}{target} = ({value}) + {self._rng.randint(1, 9)};"
        )
        return "\n".join(self._lines) + "\n"


# ----------------------------------------------------------------------
# serve workloads


def hot_set(seed: int) -> List[Tuple[Dict[str, object], Optional[str]]]:
    """The warm request set of ``serve-keepalive`` (and of its traced
    run's cluster phase).

    Returns ``(payload, corpus_name)`` pairs: every paper-corpus program
    with each algorithm the paper gives an expected slice for, plus six
    seeded generated programs (half structured, half unstructured) with
    every registry algorithm that accepts them.
    """
    requests: List[Tuple[Dict[str, object], Optional[str]]] = []
    for name in sorted(PAPER_PROGRAMS):
        entry = PAPER_PROGRAMS[name]
        line, var = entry.criterion
        for algorithm in sorted(entry.expectations):
            requests.append(
                (slice_payload(entry.source, line, var, algorithm), name)
            )
    rng = random.Random(seed)
    for index in range(6):
        structured = index % 2 == 0
        criterion = None
        while criterion is None:
            program = (
                _structured_in_band(rng, 30, 60)
                if structured
                else _unstructured_in_band(rng, 30, 60)
            )
            criterion = live_criterion(rng, program)
        line, var = criterion
        source = pretty(program)
        analysis = analyze_program(source)
        for algorithm in algorithm_names():
            # Valid means the slicer accepts this program: structured-
            # only ones refuse gotos, Fig. 13 also refuses dead code.
            try:
                check_algorithm_capability(analysis, algorithm)
                get_algorithm(algorithm)(
                    analysis, SlicingCriterion(line, var)
                )
            except SlangError:
                continue
            requests.append(
                (slice_payload(source, line, var, algorithm), None)
            )
    return requests
