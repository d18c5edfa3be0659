"""Span tracer that wraps qlat's layer entry points from outside.

Every wrapped call records one span: name, start, end, parent span and the
id of the benchmark task it ran in. Spans stay in memory until the run ends.
A wrapper replaces the original object wherever a qlat module or class holds
it, including names one module imports from another (``qlat.search.evaluate``
is the same function as ``qlat.formula.evaluate``), so no call escapes by
going through an imported alias. ``uninstall`` puts every original back.

Counts that need the arguments or the result of a call (matrix cells, node
evaluations, trials) are taken by small hooks at the same boundaries.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute or "Class.method", span name). Each name starts with
# the layer it belongs to. The linalg elimination kernel gets its own span so
# that rref self time splits into boxing (rref) and integer elimination.
TARGETS = [
    ("qlat.linalg", "rref", "linalg.rref"),
    ("qlat.linalg", "_ff_gauss_jordan", "linalg.eliminate"),
    ("qlat.linalg", "row_space", "linalg.row_space"),
    ("qlat.linalg", "rank", "linalg.rank"),
    ("qlat.linalg", "kernel", "linalg.kernel"),
    ("qlat.linalg", "conj_entries", "linalg.conj_entries"),
    ("qlat.linalg", "conj_transpose", "linalg.conj_transpose"),
    ("qlat.linalg", "matmul", "linalg.matmul"),
    ("qlat.linalg", "kron", "linalg.kron"),
    ("qlat.linalg", "vstack", "linalg.vstack"),
    ("qlat.linalg", "entry_to_json", "linalg.entry_to_json"),
    ("qlat.linalg", "entry_from_json", "linalg.entry_from_json"),
    ("qlat.subspace", "Subspace.meet", "subspace.meet"),
    ("qlat.subspace", "Subspace.join", "subspace.join"),
    ("qlat.subspace", "Subspace.ortho", "subspace.ortho"),
    ("qlat.subspace", "Subspace.leq", "subspace.leq"),
    ("qlat.subspace", "Subspace.tensor_embed", "subspace.tensor_embed"),
    ("qlat.subspace", "span", "subspace.span"),
    ("qlat.subspace", "random_subspace_rng", "subspace.draw"),
    ("qlat.subspace", "random_subspace", "subspace.random_subspace"),
    ("qlat.subspace", "subspace_to_json", "subspace.to_json"),
    ("qlat.subspace", "subspace_from_json", "subspace.from_json"),
    ("qlat.formula", "evaluate_with_cache", "formula.evaluate_with_cache"),
    ("qlat.formula", "evaluate", "formula.evaluate"),
    ("qlat.formula", "evaluate_equation", "formula.evaluate_equation"),
    ("qlat.formula", "parse", "formula.parse"),
    ("qlat.formula", "to_source", "formula.to_source"),
    ("qlat.formula", "free_vars", "formula.free_vars"),
    ("qlat.formula", "to_nnf", "formula.to_nnf"),
    ("qlat.formula", "restrict", "formula.restrict"),
    ("qlat.formula", "alpha_levels", "formula.alpha_levels"),
    ("qlat.formula", "m_distributive", "formula.m_distributive"),
    ("qlat.formula", "law", "formula.law"),
    ("qlat.formula", "assignment_to_json", "formula.assignment_to_json"),
    ("qlat.formula", "assignment_from_json", "formula.assignment_from_json"),
    ("qlat.search", "falsify", "search.falsify"),
    ("qlat.search", "_draw_assignment", "search.draw_assignment"),
    ("qlat.search", "qubit_alpha_separator", "search.qubit_alpha_separator"),
    ("qlat.search", "separate_dims", "search.separate_dims"),
    ("qlat.search", "structured_alpha_witness", "search.structured_alpha_witness"),
    ("qlat.search", "_half_split_triple", "search.half_split_triple"),
    ("qlat.search", "audit_invariants", "search.audit_invariants"),
    ("qlat.search", "verdict_to_json", "search.verdict_to_json"),
    ("qlat.search", "verdict_from_json", "search.verdict_from_json"),
    ("qlat.search", "certificate_to_json", "search.certificate_to_json"),
    ("qlat.ratfunc", "RationalFunction.__add__", "ratfunc.arith"),
    ("qlat.ratfunc", "RationalFunction.__sub__", "ratfunc.arith"),
    ("qlat.ratfunc", "RationalFunction.__rsub__", "ratfunc.arith"),
    ("qlat.ratfunc", "RationalFunction.__mul__", "ratfunc.arith"),
    ("qlat.ratfunc", "RationalFunction.__truediv__", "ratfunc.arith"),
    ("qlat.ratfunc", "RationalFunction.__rtruediv__", "ratfunc.arith"),
    ("qlat.ratfunc", "RationalFunction.__pow__", "ratfunc.arith"),
    ("qlat.ratfunc", "RationalFunction.__neg__", "ratfunc.arith"),
    ("qlat.ratfunc", "ip_gcd", "ratfunc.gcd"),
    ("qlat.ratfunc", "coeffs_to_json", "ratfunc.coeffs_to_json"),
    ("qlat.templieb", "compose", "templieb.compose"),
    ("qlat.templieb", "TLElement.__mul__", "templieb.mul"),
    ("qlat.templieb", "TLElement.__add__", "templieb.add"),
    ("qlat.templieb", "TLElement.__sub__", "templieb.add"),
    ("qlat.templieb", "_verify_jones_wenzl", "templieb.verify"),
    ("qlat.templieb", "jones_wenzl", "templieb.jones_wenzl"),
    ("qlat.templieb", "include", "templieb.include"),
    ("qlat.templieb", "chebyshev", "templieb.chebyshev"),
    ("qlat.templieb", "generator_e", "templieb.generator_e"),
    ("qlat.templieb", "diagram_generator", "templieb.diagram_generator"),
    ("qlat.templieb", "markov_trace", "templieb.markov_trace"),
    ("qlat.templieb", "eval_at_root", "templieb.eval_at_root"),
    ("qlat.templieb", "jw_at_root", "templieb.jw_at_root"),
    ("qlat.templieb", "tl_to_json", "templieb.tl_to_json"),
    ("qlat.cli", "main", "cli.main"),
    ("qlat.cli", "emit", "cli.emit"),
    ("qlat.cli", "cmd_check", "cli.cmd_check"),
    ("qlat.cli", "cmd_separate", "cli.cmd_separate"),
    ("qlat.cli", "cmd_tl", "cli.cmd_tl"),
    ("qlat.cli", "_tl_jw", "cli.tl_jw"),
]

LAYERS = ("linalg", "subspace", "formula", "search", "ratfunc", "templieb", "cli")


def qlat_modules() -> dict:
    """The loaded ``qlat`` package and its submodules, by name."""
    return {name: mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "qlat" or name.startswith("qlat."))}


class Tracer:
    """Collects spans and boundary counts while installed."""

    def __init__(self):
        # One tuple per span: (name, start_ns, end_ns, parent index, task id).
        self.spans: list = []
        self.task = 0
        self.counts: dict = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = list(qlat_modules().values())
        hooks = self._hooks()
        wrappers: dict[int, tuple] = {}
        owners = []
        for mod_name, path, span_name in TARGETS:
            owner = sys.modules[mod_name]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
                orig = owner.__dict__[attr]
            else:
                attr = path
                orig = getattr(owner, attr)
            if id(orig) not in wrappers:
                wrappers[id(orig)] = (orig, self._wrap(span_name, orig, *hooks.get(span_name, ())))
            if owner not in owners:
                owners.append(owner)
        # Replace every reference a qlat module or a wrapped class holds, so
        # aliases (``__radd__ = __add__``, ``from .linalg import kernel``) are
        # traced as well.
        for owner in modules + [o for o in owners if isinstance(o, type)]:
            for key, value in list(vars(owner).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, key, hit[1])
                    self._patches.append((owner, key, value))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def _wrap(self, name, fn, observe=None, adapt=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if adapt is not None:
                args, kwargs = adapt(args, kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.task)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # -- boundary counts --------------------------------------------------

    def _hooks(self) -> dict:
        counts = self.counts

        def rref_cells(args, kwargs, result):
            m = args[0]
            counts["rref.cells"] += m.rows * m.cols

        def pivot_bits(args, kwargs, result):
            _, (p_re, p_im) = result
            bits = max(abs(p_re).bit_length(), abs(p_im).bit_length())
            if bits > counts["rref.max_bits"]:
                counts["rref.max_bits"] = bits

        def ortho_adapt(args, kwargs):
            if args[0]._ortho is not None:
                counts["ortho.hits"] += 1
            return args, kwargs

        def nodes(args, kwargs, result):
            counts["formula.nodes"] += len(result[1])

        def falsify_adapt(args, kwargs):
            audit = kwargs.get("audit")
            if audit is not None:
                kwargs = dict(kwargs, audit=self._wrap("search.audit", audit))
            return args, kwargs

        def falsify_done(args, kwargs, result):
            counts["search.trials"] += result.trials_run
            schedule = args[4] if len(args) > 4 else kwargs.get("dim_schedule")
            if schedule is not None:
                counts["hunt.stages"] += 1
                counts["hunt.trials"] += result.trials_run
                if result.witness is not None:
                    counts["hunt.hits"] += 1

        def degree(args, kwargs, result):
            if hasattr(result, "inum"):
                deg = max(len(result.inum), len(result.iden)) - 1
                if deg > counts["ratfunc.max_degree"]:
                    counts["ratfunc.max_degree"] = deg

        def jw_terms(args, kwargs, result):
            if len(result.terms) > counts["templieb.jw_terms"]:
                counts["templieb.jw_terms"] = len(result.terms)

        return {
            "linalg.rref": (rref_cells,),
            "linalg.eliminate": (pivot_bits,),
            "subspace.ortho": (None, ortho_adapt),
            "formula.evaluate_with_cache": (nodes,),
            "search.falsify": (falsify_done, falsify_adapt),
            "ratfunc.arith": (degree,),
            "templieb.jones_wenzl": (jw_terms,),
        }

    # -- reduction --------------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """Per span name: (call count, self seconds). Self time is a span's
        duration minus the durations of its direct children."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start - child_ns[i]) / 1e9
        return calls, self_s

    def total_s(self, name: str) -> float:
        """Summed duration of ``name`` spans, children included."""
        return sum(end - start for n, start, end, _, _ in self.spans if n == name) / 1e9

    def count_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        spans = self.spans
        hits = 0
        for span in spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0:
                if spans[parent][0] == ancestor:
                    hits += 1
                    break
                parent = spans[parent][3]
        return hits

    def children_per_parent(self, name: str, parent_name: str) -> list[int]:
        """For each ``parent_name`` span with at least one direct ``name``
        child, the number of such children."""
        spans = self.spans
        per: dict = defaultdict(int)
        for span in spans:
            if span[0] == name and span[3] >= 0 and spans[span[3]][0] == parent_name:
                per[span[3]] += 1
        return list(per.values())
