"""The benchmark's tracer wraps qlat functions by name.

``perfbench/spans.py`` is read as text and executed in a private namespace,
so nothing in the benchmark's directory is imported, cached or changed. A
rename in ``src/`` that would break ``perfbench/run.py --trace 1`` fails
here instead.
"""

import importlib
import inspect
from pathlib import Path

from qlat.search import falsify
from qlat.subspace import Subspace, random_subspace

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
