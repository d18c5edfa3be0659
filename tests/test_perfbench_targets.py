"""The benchmark's tracer wraps qlat functions by name.

``perfbench/spans.py`` is read as text and executed in a private namespace,
so nothing in the benchmark's directory is imported, cached or changed. A
rename in ``src/`` that would break ``perfbench/run.py --trace 1`` fails
here instead.
"""

import importlib
import inspect
from pathlib import Path

from qlat import formula
from qlat.formula import Assignment, Var, alpha_levels, evaluate_with_cache, free_vars
from qlat.ratfunc import RF_D, RF_ONE
from qlat.search import certificate_to_json, falsify, separate_dims, verdict_from_json
from qlat.subspace import Subspace, random_subspace
from qlat.templieb import jones_wenzl

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans() -> dict:
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace


def _targets() -> list:
    return _spans()["TARGETS"]


def test_every_target_resolves():
    targets = _targets()
    missing = []
    for mod_name, path, span_name in targets:
        owner = importlib.import_module(mod_name)
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(owner, cls_name, None)
            found = isinstance(owner, type) and callable(vars(owner).get(attr))
        else:
            found = callable(getattr(owner, path, None))
        if not found:
            missing.append(f"{mod_name}:{path} ({span_name})")
    assert targets and not missing


def test_falsify_options_are_keyword_only():
    # the tracer reads a fifth positional argument of falsify as a schedule
    positional = [p.name for p in inspect.signature(falsify).parameters.values()
                  if p.kind is not p.KEYWORD_ONLY]
    assert positional == ["eq", "ambient_dim", "trials", "seed"]


def test_ortho_adapter_reads_live_attributes():
    # the subspace.ortho adapter reads the receiver's cached ortho (``_ortho``)
    # to count hits; it runs on a fresh value, on its ortho and on the shared
    # full space
    tracer = _spans()["Tracer"]()
    _, adapt = tracer._hooks()["subspace.ortho"]
    s = random_subspace(6, 2, seed=1)
    for x in (s, s.ortho(), Subspace.full(6)):
        adapt((x,), {})
    assert tracer.counts["ortho.hits"] == 2


def test_tl_hooks_read_live_attributes():
    # templieb.jw_terms reads a projector's ``terms``; ratfunc.max_degree reads
    # an arithmetic result's ``inum`` and ``iden``
    tracer = _spans()["Tracer"]()
    hooks = tracer._hooks()
    (jw_terms,) = hooks["templieb.jones_wenzl"]
    (degree,) = hooks["ratfunc.arith"]
    jw_terms((3,), {}, jones_wenzl(3))
    degree((RF_ONE,), {}, RF_ONE / (RF_D ** 2 - 2))
    assert tracer.counts["templieb.jw_terms"] == 5
    assert tracer.counts["ratfunc.max_degree"] == 2


def test_node_count_reads_one_entry_per_distinct_node():
    # the formula.nodes hook counts len(evaluate_with_cache(...)[1])
    f = alpha_levels(3)[-1]
    a = Assignment({name: random_subspace(4, 2, seed=i)
                    for i, name in enumerate(sorted(free_vars(f)))})
    value, cache = evaluate_with_cache(f, a)
    assert isinstance(value, Subspace) and type(cache) is dict
    assert len(cache) == 63 and cache[id(f)] is value


def test_restrict_makes_one_to_nnf_span():
    # the normal form recursion is private, so a traced restrict records one
    # formula.to_nnf span, not one per node
    f = alpha_levels(2)[-1]
    for mod_name, _, _ in _targets():
        importlib.import_module(mod_name)
    tracer = _spans()["Tracer"]()
    tracer.install()
    try:
        formula.restrict(f, Var("b"))
    finally:
        tracer.uninstall()
    calls, _ = tracer.self_times()
    assert calls["formula.restrict"] == 1 and calls["formula.to_nnf"] == 1


def test_wire_codec_goes_through_wrapped_names():
    # subspace JSON is read and written through the module-level entry codec
    # and subspace codec names, so the linalg.entry_* and subspace.*_json
    # spans see every certificate
    cert = separate_dims(2, 3, holds_trials=5)
    for mod_name, _, _ in _targets():
        importlib.import_module(mod_name)
    tracer = _spans()["Tracer"]()
    tracer.install()
    try:
        blob = certificate_to_json(cert)
        verdict_from_json(blob["fails_witness"])
    finally:
        tracer.uninstall()
    calls, _ = tracer.self_times()
    for name in ("linalg.entry_to_json", "linalg.entry_from_json", "subspace.to_json",
                 "subspace.from_json"):
        assert calls[name] > 0, name
