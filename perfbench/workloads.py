"""The benchmark's workloads: seeded rounds of qlat CLI commands and the
output check for each command.

A workload is an endless sequence of rounds. Round k is a fixed function of
(seed, k): the same seed always gives the same commands. Every command passes
each CLI argument that shapes its output explicitly, so a change of a CLI
default cannot change the work silently (``separate 4 8`` would otherwise run
1000 trials, because ``main`` fills in ``--trials`` before ``cmd_separate``
applies its own default of 200).

A check gets the qlat package, the exit code and the captured stdout, and
returns None when the output is right or a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

ENTRY_BOUND = 3


@dataclass(frozen=True)
class Task:
    argv: tuple
    kind: str
    trials: int
    check: Callable


def _rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


def _json_report(out: str):
    try:
        return json.loads(out), None
    except ValueError as exc:
        return None, f"stdout is not JSON: {exc}"


# ---------------------------------------------------------------------------
# check-law: falsification search for the modular law, which holds in every
# finite dimension, so every requested trial runs. One task per dimension and
# round puts a third of the tasks at the median (dimension 8) and a third in
# the tail (dimension 16).

CHECK_DIMS = (4, 8, 16)
CHECK_TRIALS = 4


def check_law_round(seed: int, k: int) -> list[Task]:
    rng = _rng("check-law", seed, k)
    dims = list(CHECK_DIMS)
    rng.shuffle(dims)
    tasks = []
    for dim in dims:
        s = rng.randrange(1_000_000)
        argv = ("check-law", "modularity", "--dim", str(dim), "--trials", str(CHECK_TRIALS),
                "--seed", str(s), "--entry-bound", str(ENTRY_BOUND), "--json")
        tasks.append(Task(argv, f"dim{dim}", CHECK_TRIALS,
                          lambda qlat, rc, out, dim=dim, s=s: _check_law(rc, out, dim, s)))
    return tasks


def _check_law(rc: int, out: str, dim: int, seed: int) -> Optional[str]:
    if rc != 0:
        return f"exit code {rc}, expected 0"
    report, err = _json_report(out)
    if err:
        return err
    if report.get("status") != "no_counterexample":
        return f"status {report.get('status')!r}, expected 'no_counterexample'"
    if report.get("trials") != CHECK_TRIALS:
        return f"trials {report.get('trials')!r}, expected {CHECK_TRIALS}"
    if report.get("ambient") != dim or report.get("seed") != seed:
        return "ambient or seed does not echo the request"
    return None


# ---------------------------------------------------------------------------
# separate: one qubit-route certificate and two Huhn-route certificates per
# round. Two Huhn tasks to one qubit task keep the median of the mixed task
# times inside one route's cluster instead of on the gap between routes.

QUBIT_M, QUBIT_N, QUBIT_TRIALS = 4, 8, 16
HUHN_M, HUHN_N = 2, 3
# The Huhn route ignores --trials and always samples 500 "holds" trials; the
# benchmark passes the same number so the work stays put if the CLI starts
# honouring it.
HUHN_TRIALS = 500


def separate_round(seed: int, k: int) -> list[Task]:
    rng = _rng("separate", seed, k)
    specs = [("qubit", QUBIT_M, QUBIT_N, QUBIT_TRIALS),
             ("huhn", HUHN_M, HUHN_N, HUHN_TRIALS),
             ("huhn", HUHN_M, HUHN_N, HUHN_TRIALS)]
    rng.shuffle(specs)
    tasks = []
    for route, m, n, trials in specs:
        s = rng.randrange(1_000_000)
        argv = ("separate", str(m), str(n), "--trials", str(trials), "--seed", str(s),
                "--entry-bound", str(ENTRY_BOUND), "--json")
        tasks.append(Task(argv, route, trials,
                          lambda qlat, rc, out, route=route, m=m, n=n, trials=trials:
                          _check_separate(qlat, rc, out, route, m, n, trials)))
    return tasks


@lru_cache(maxsize=None)
def _expected_separator(qlat, route: str, m: int):
    """(source text, equation) of the separator the route must print. The
    equation keeps the generator's shared subformulas, so replaying it costs
    one evaluation per distinct node; the parsed copy is a tree that repeats
    every shared node and takes seconds to evaluate at the qubit route's
    depth."""
    if route == "huhn":
        eq = qlat.m_distributive(m)
    else:
        eq = qlat.Equation(qlat.formula.alpha_levels(m.bit_length())[-1], qlat.ZERO, "=")
    return qlat.to_source(eq), eq


def _check_separate(qlat, rc, out, route, m, n, trials) -> Optional[str]:
    if rc != 0:
        return f"exit code {rc}, expected 0"
    cert, err = _json_report(out)
    if err:
        return err
    if (cert.get("low_dim"), cert.get("high_dim")) != (m, n):
        return "low_dim/high_dim do not echo the request"
    expected, equation = _expected_separator(qlat, route, m)
    if cert.get("separator") != expected:
        return f"separator is not the expected {route}-route formula"
    holds = cert["holds_evidence"]
    if holds.get("status") != "no_counterexample" or holds.get("trials") != trials:
        return "holds evidence is not a full no-counterexample run"
    witness = qlat.verdict_from_json(cert["fails_witness"])
    if witness.equation != equation or witness.ambient_dim != n:
        return "witness equation or ambient does not match the certificate"
    holds_at_witness, lv, rv = qlat.evaluate_equation(equation, witness.witness)
    if holds_at_witness:
        return "witness replays as satisfying the separator"
    if (lv, rv) != witness.witness_gap:
        return "replayed gap differs from the recorded gap"
    return None


# ---------------------------------------------------------------------------
# tl-jw: the Jones-Wenzl projector, rebuilt cold in every task.

TL_N = 5
TL_RS = (7, 8, 9)


def tl_jw_round(seed: int, k: int) -> list[Task]:
    rng = _rng("tl-jw", seed, k)
    rs = list(TL_RS)
    rng.shuffle(rs)
    tasks = []
    for r in rs:
        s = rng.randrange(1_000_000)
        argv = ("tl", "jw", "--n", str(TL_N), "--r", str(r), "--seed", str(s), "--json")
        tasks.append(Task(argv, f"r{r}", 0,
                          lambda qlat, rc, out, r=r: _check_tl_jw(rc, out, r)))
    return tasks


def _check_tl_jw(rc: int, out: str, r: int) -> Optional[str]:
    if rc != 0:
        return f"exit code {rc}, expected 0"
    report, err = _json_report(out)
    if err:
        return err
    if report.get("trace_matches_chebyshev") is not True:
        return "trace_matches_chebyshev is not true"
    if report.get("n") != TL_N or report.get("r") != r:
        return "n or r does not echo the request"
    catalan = math.comb(2 * TL_N, TL_N) // (TL_N + 1)
    if len(report["projector"]["terms"]) != catalan:
        return f"projector has {len(report['projector']['terms'])} terms, expected {catalan}"
    if not math.isfinite(report.get("numeric_trace", math.nan)):
        return "numeric trace is not finite"
    return None


# name -> (round generator, rounds in the fixed list a traced run replays)
WORKLOADS = {
    "check-law": (check_law_round, 10),
    "separate": (separate_round, 2),
    "tl-jw": (tl_jw_round, 4),
}
