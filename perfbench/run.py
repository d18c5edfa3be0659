"""Closed-loop benchmark of the qlat command line.

Run from the repository root:

    python3 perfbench/run.py --workload check-law --seed 1 --seconds 30 --trace 0

One process, one client, one task at a time: each task calls
``qlat.cli.main(argv)`` in-process with stdout captured, and the next task
starts when the previous one has returned. The program is imported from
``src/`` of the current directory and nowhere else.

``--trace 0`` runs whole rounds of the workload until ``--seconds`` of task
time have been measured and prints the end-to-end metrics. ``--trace 1``
replays a fixed number of rounds twice, untraced and then with every layer's
entry points wrapped by ``spans.Tracer``, and prints the per-layer metrics;
its counts depend only on the seed.

Every task's output is checked outside the timed region. The sha256 of each
task's stdout is stored per command under ``.perfbench_out/``, keyed by a
hash of the qlat sources, and a later run of the same command must print the
same bytes; the traced and untraced passes of ``--trace 1`` must match too.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time

import spans
from hostclock import HostClock
from workloads import WORKLOADS

SETUP_REPS = 5
TAIL_BEYOND = 10
OUT_DIR = ".perfbench_out"


class SetupError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Set-up: import the program under test and find its caches.


def _import_qlat(src: str):
    for name in spans.qlat_modules():
        del sys.modules[name]
    qlat = importlib.import_module("qlat")
    importlib.import_module("qlat.cli")
    if not os.path.abspath(qlat.__file__).startswith(src + os.sep):
        raise SetupError(f"qlat was imported from {qlat.__file__}, not from {src}")
    return qlat


def _caches() -> list:
    """Every functools cache a qlat module holds. Clearing them before each
    task makes it start cold, as a fresh ``qlat`` process would."""
    found = {}
    for mod in spans.qlat_modules().values():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


def set_up(workload: str, seed: int):
    """Import qlat afresh SETUP_REPS times and build the first round; the
    median of the repetitions is ``setup_s``."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "qlat", "cli.py")):
        raise SetupError("src/qlat/cli.py not found; run from the repository root")
    if src not in sys.path:
        sys.path.insert(0, src)
    make_round = WORKLOADS[workload][0]
    clock = HostClock()
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        qlat = _import_qlat(src)
        caches = _caches()
        make_round(seed, 0)
        times.append(time.perf_counter() - t0)
        clock.mark()
    return qlat, caches, statistics.median(clock.scale(times))


# ---------------------------------------------------------------------------
# Running tasks.


def run_task(qlat, caches, task):
    """Run one command; returns (seconds, exit code, stdout). Only the call
    into ``qlat.cli.main`` is timed."""
    for cache in caches:
        cache.cache_clear()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            rc = qlat.cli.main(list(task.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed task, not a crashed benchmark
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
    return elapsed, rc, buf.getvalue()


class Outcomes:
    """Per-task results, output checks and stdout digests."""

    def __init__(self, qlat, store):
        self.qlat = qlat
        self.store = store
        self.raw: list[float] = []
        self.kinds: list[str] = []
        self.trials = 0
        self.stdout_bytes = 0
        self.digests: list[str] = []
        self.failures: dict[int, str] = {}  # task index -> first problem seen

    def record(self, task, elapsed, rc, out) -> None:
        self.raw.append(elapsed)
        self.kinds.append(task.kind)
        self.trials += task.trials
        data = out.encode()
        self.stdout_bytes += len(data)
        digest = hashlib.sha256(data).hexdigest()
        self.digests.append(digest)
        if isinstance(rc, str):
            problem = f"raised {rc}"
        else:
            problem = task.check(self.qlat, rc, out)
        if problem is None:
            problem = self.store.match(task.argv, digest)
        if problem is not None:
            self.fail(len(self.raw) - 1, task, problem)

    def fail(self, index: int, task, problem: str) -> None:
        self.failures.setdefault(index, f"{' '.join(task.argv)}: {problem}")

    @property
    def attempted(self) -> int:
        return len(self.raw)


class DigestStore:
    """sha256 of stdout per command, kept across runs of the same sources."""

    def __init__(self, workload: str, src: str):
        h = hashlib.sha256()
        qlat_dir = os.path.join(src, "qlat")
        for name in sorted(os.listdir(qlat_dir)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(qlat_dir, name), "rb") as fh:
                    h.update(fh.read())
        self.path = os.path.join(OUT_DIR, f"digests-{workload}-{h.hexdigest()[:16]}.json")
        try:
            with open(self.path) as fh:
                self.known = json.load(fh)
        except (OSError, ValueError):
            self.known = {}

    def match(self, argv, digest: str):
        key = " ".join(argv)
        seen = self.known.setdefault(key, digest)
        if seen != digest:
            return "stdout differs from an earlier run of the same command"
        return None

    def save(self) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.known, fh, sort_keys=True)
        os.replace(tmp, self.path)


# ---------------------------------------------------------------------------
# Metrics.


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND tasks above it:
    (value, percentile). With too few tasks for that percentile to lie above
    the median it is the maximum."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 2 * (TAIL_BEYOND + 1):
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(workload: str, seed: int, seconds: float, qlat, caches, store):
    """Run whole rounds until ``seconds`` of raw task time are measured, or
    three times that in wall time when tasks fail fast and checks dominate.
    Returns the outcomes, the task times scaled to full host speed, and the
    scaled time of each round."""
    make_round = WORKLOADS[workload][0]
    res = Outcomes(qlat, store)
    clock = HostClock()
    round_sizes = []
    k = 0
    deadline = time.monotonic() + 3 * seconds
    while sum(res.raw) < seconds and time.monotonic() < deadline:
        tasks = make_round(seed, k)
        for task in tasks:
            res.record(task, *run_task(qlat, caches, task))
            clock.mark()
        round_sizes.append(len(tasks))
        k += 1
    times = clock.scale(res.raw)
    round_times, start = [], 0
    for size in round_sizes:
        round_times.append(sum(times[start:start + size]))
        start += size
    return res, times, round_times


def end_to_end(res: Outcomes, times: list[float], round_times, setup_s: float):
    total = sum(times)
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(round_times), "s"),
        "task_p50_s": (statistics.median(times), "s"),
        "task_tail_s": (tail_s, "s"),
        "tasks_per_s": (res.attempted / total, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    by_kind: dict = {}
    for kind, t in zip(res.kinds, times):
        by_kind.setdefault(kind, []).append(t)
    extra = {
        "task_tail_percentile": (tail_pct, f"% of {res.attempted} tasks"),
        "failed_ratio": (len(res.failures) / res.attempted, "ratio"),
        "rounds": (len(round_times), "count"),
        "raw.task_p50_s": (statistics.median(res.raw), "s"),
        "raw.task_tail_s": (tail(res.raw)[0], "s"),
        "raw.tasks_per_s": (res.attempted / sum(res.raw), "1/s"),
    }
    if res.trials:
        extra["trials_per_s"] = (res.trials / total, "1/s")
    if set(by_kind) >= {"qubit", "huhn"}:
        extra["cert_s.qubit"] = (statistics.median(by_kind["qubit"]), "s")
        extra["cert_s.huhn"] = (statistics.median(by_kind["huhn"]), "s")
    return metrics, extra


def per_layer(tracer: spans.Tracer, traced: Outcomes, untraced: Outcomes):
    calls, self_s = tracer.self_times()
    counts = tracer.counts

    def total(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    def ratio(a, b):
        return a / b if b else 0.0

    rref_s = self_s["linalg.rref"] + self_s["linalg.eliminate"]
    meet_calls = calls["subspace.meet"]
    attempts = tracer.children_per_parent("subspace.span", "subspace.draw")
    traced_wall = sum(traced.raw)
    m = {
        "linalg.rref.calls": (calls["linalg.rref"], "count"),
        "linalg.rref.self_s": (rref_s, "s"),
        "linalg.eliminate.self_s": (self_s["linalg.eliminate"], "s"),
        "linalg.rref.cells": (counts["rref.cells"], "count"),
        "linalg.rref.max_bits": (counts["rref.max_bits"], "bits"),
        "linalg.kernel.calls": (calls["linalg.kernel"], "count"),
        "linalg.other.self_s": (total("linalg.") - rref_s, "s"),
        "subspace.meet.calls": (meet_calls, "count"),
        "subspace.meet.self_s": (self_s["subspace.meet"], "s"),
        "subspace.join.calls": (calls["subspace.join"], "count"),
        "subspace.join.self_s": (self_s["subspace.join"], "s"),
        "subspace.ortho.calls": (calls["subspace.ortho"], "count"),
        "subspace.ortho.hit_ratio": (ratio(counts["ortho.hits"], calls["subspace.ortho"]),
                                     "ratio"),
        "subspace.leq.calls": (calls["subspace.leq"], "count"),
        "subspace.rref_per_meet": (ratio(tracer.count_under("linalg.rref", "subspace.meet"),
                                         meet_calls), "ratio"),
        "subspace.draw.calls": (calls["subspace.draw"], "count"),
        "subspace.draw.self_s": (self_s["subspace.draw"], "s"),
        "subspace.draw.redraw_ratio": (ratio(sum(attempts) - len(attempts), sum(attempts)),
                                       "ratio"),
        "formula.evaluate.calls": (calls["formula.evaluate_with_cache"], "count"),
        "formula.evaluate.self_s": (self_s["formula.evaluate_with_cache"]
                                    + self_s["formula.evaluate"]
                                    + self_s["formula.evaluate_equation"], "s"),
        "formula.nodes": (counts["formula.nodes"], "count"),
        "formula.nodes_per_trial": (ratio(counts["formula.nodes"], counts["search.trials"]),
                                    "count"),
        "search.trials": (counts["search.trials"], "count"),
        "search.falsify.calls": (calls["search.falsify"], "count"),
        "search.audit.self_s": (self_s["search.audit"], "s"),
        "search.audit.total_s": (tracer.total_s("search.audit"), "s"),
        "search.hit_ratio": (ratio(counts["hunt.hits"], counts["hunt.stages"]), "ratio"),
        "search.trials_to_witness": (ratio(counts["hunt.trials"], counts["hunt.hits"]),
                                     "count"),
        "ratfunc.arith.calls": (calls["ratfunc.arith"], "count"),
        "ratfunc.arith.self_s": (self_s["ratfunc.arith"], "s"),
        "ratfunc.gcd.calls": (calls["ratfunc.gcd"], "count"),
        "ratfunc.gcd.self_s": (self_s["ratfunc.gcd"], "s"),
        "ratfunc.max_degree": (counts["ratfunc.max_degree"], "count"),
        "templieb.compose.calls": (calls["templieb.compose"], "count"),
        "templieb.compose.self_s": (self_s["templieb.compose"], "s"),
        "templieb.mul.calls": (calls["templieb.mul"], "count"),
        "templieb.mul.self_s": (self_s["templieb.mul"], "s"),
        "templieb.verify.self_s": (self_s["templieb.verify"], "s"),
        "templieb.verify.total_s": (tracer.total_s("templieb.verify"), "s"),
        "templieb.jw_terms": (counts["templieb.jw_terms"], "count"),
        "cli.emit.self_s": (self_s["cli.emit"], "s"),
        "cli.stdout_bytes": (traced.stdout_bytes, "bytes"),
    }
    for layer in spans.LAYERS:
        m[f"{layer}.self_s"] = (total(layer + "."), "s")
    m["trace.coverage"] = (ratio(sum(self_s.values()), traced_wall), "ratio")
    m["trace.overhead_s"] = (traced_wall - sum(untraced.raw), "s")
    return m


def write_spans(tracer: spans.Tracer, workload: str, seed: int) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.tsv.gz")
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("id\tname\tstart_ns\tend_ns\tparent\ttask\n")
        for i, (name, start, end, parent, task) in enumerate(tracer.spans):
            fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{task}\n")
    return path


# ---------------------------------------------------------------------------
# Entry point.


def traced_run(workload: str, seed: int, qlat, caches, store):
    """Run each task of the fixed list untraced and then traced, back to
    back, so machine drift between the two runs of a task stays small."""
    make_round, rounds = WORKLOADS[workload]
    tasks = [t for k in range(rounds) for t in make_round(seed, k)]
    tracer = spans.Tracer()
    untraced, traced = [], []
    for i, task in enumerate(tasks):
        untraced.append(run_task(qlat, caches, task))
        tracer.task = i
        tracer.install()
        try:
            traced.append(run_task(qlat, caches, task))
        finally:
            tracer.uninstall()
    results = []
    for outputs in (untraced, traced):
        res = Outcomes(qlat, store)
        for task, output in zip(tasks, outputs):
            res.record(task, *output)
        results.append(res)
    untraced, traced = results
    for i, (task, a, b) in enumerate(zip(tasks, untraced.digests, traced.digests)):
        if a != b:
            traced.fail(i, task, "traced stdout differs from untraced")
    return tracer, untraced, traced


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        qlat, caches, setup_s = set_up(args.workload, args.seed)
    except (SetupError, ImportError) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2
    store = DigestStore(args.workload, os.path.abspath("src"))
    head = f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
    if args.trace:
        tracer, untraced, traced = traced_run(args.workload, args.seed, qlat, caches, store)
        metrics = per_layer(tracer, traced, untraced)
        path = write_spans(tracer, args.workload, args.seed)
        failures = list(untraced.failures.values()) + list(traced.failures.values())
        attempted = untraced.attempted + traced.attempted
        print_metrics(head, metrics)
        print(f"  spans: {len(tracer.spans)} written to {path}")
    else:
        res, times, round_times = measure(args.workload, args.seed, args.seconds,
                                          qlat, caches, store)
        metrics, extra = end_to_end(res, times, round_times, setup_s)
        failures, attempted = list(res.failures.values()), res.attempted
        print_metrics(head, {**metrics, **extra})
        run_digest = hashlib.sha256("".join(res.digests).encode()).hexdigest()
        print(f"  stdout digest of the run: {run_digest}")
    store.save()
    for line in failures[:20]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
