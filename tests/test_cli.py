"""CLI behavior: exit codes, JSON determinism, witness replay."""

import ast
import collections
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlat
from helpers import json_oracle
from qlat.cli import _encode, build_parser, main
from qlat.formula import evaluate_equation, m_distributive, parse, to_source
from qlat.search import verdict_from_json
from qlat.subspace import span, subspace_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def module_command(*argv):
    """``python -m qlat.cli`` and an environment that imports the same package
    as this process."""
    src = str(Path(qlat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return [sys.executable, "-m", "qlat.cli", *argv], dict(os.environ, PYTHONPATH=path)


def run_module(*argv):
    cmd, env = module_command(*argv)
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


@pytest.fixture
def triple_file(tmp_path):
    blob = {
        "p": subspace_to_json(span([[1, 0]], 2)),
        "q": subspace_to_json(span([[0, 1]], 2)),
        "r": subspace_to_json(span([[1, 1]], 2)),
    }
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(blob))
    return str(path)


class TestEval:
    def test_tautology(self, capsys, triple_file):
        code, out, _ = run(capsys, "eval", "p | ~p", triple_file, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["dim"] == 2
        assert report["audit"]["all_pass"] is True
        assert report["version"]

    def test_alpha_at_triple(self, capsys, triple_file):
        code, out, _ = run(capsys, "eval",
                           "((p|q)&(p|r)) & ~(p|(q&r))", triple_file, "--json")
        assert code == 0
        assert json.loads(out)["dim"] == 1

    def test_missing_variable_exit_2(self, capsys, triple_file):
        code, _, err = run(capsys, "eval", "p & zz", triple_file)
        assert code == 2
        assert "zz" in err

    def test_parse_error_exit_2(self, capsys, triple_file):
        code, _, err = run(capsys, "eval", "p &", triple_file)
        assert code == 2
        assert "position" in err

    def test_bad_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "eval", "p", "/nonexistent.json")
        assert code == 2

    def test_zero_denominator_exit_2(self, capsys, tmp_path):
        path = tmp_path / "zero_den.json"
        path.write_text(json.dumps(
            {"p": {"ambient": 1, "basis": [[["1", "0", "0", "1"]]]}}))
        code, out, err = run(capsys, "eval", "p", str(path))
        assert code == 2
        assert out == "" and err.count("\n") == 1 and "denominator" in err

    @pytest.mark.parametrize("subspace", [
        {"ambient": 2, "basis": [[[0.5, 1, 0, 1], ["0", "1", "0", "1"]]]},
        {"ambient": 2, "basis": [[[True, 1, 0, 1], ["0", "1", "0", "1"]]]},
        {"ambient": 2.9, "basis": []},
    ], ids=["float-part", "boolean-part", "float-ambient"])
    def test_non_integer_wire_value_exit_2(self, tmp_path, subspace):
        # int() would truncate these to a wrong subspace and exit 0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"p": subspace}))
        proc = run_module("eval", "p", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert "must be an integer or a decimal string" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_deeply_nested_file_exit_2(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        proc = run_module("eval", "p", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("error: cannot read assignment file: ")
        assert "Traceback" not in proc.stderr

    def test_ambient_over_size_cap_exit_2(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"p": {"ambient": 5, "basis": []}}))
        monkeypatch.setenv("QLAT_SIZE_CAP", "4")
        code, out, err = run(capsys, "eval", "~p", str(path))
        assert code == 2
        assert out == "" and "size cap" in err
        monkeypatch.setenv("QLAT_SIZE_CAP", "5")
        assert run(capsys, "eval", "~p", str(path))[0] == 0

    def test_over_size_cap_refused_before_any_elimination(self, capsys, tmp_path, monkeypatch):
        import qlat.subspace

        # a random 40x40 basis, which the decoder would eliminate
        rng = random.Random(4)
        rows = [[[str(rng.randint(-3, 3)), "1", str(rng.randint(-3, 3)), "1"]
                 for _ in range(40)] for _ in range(40)]
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"p": {"ambient": 40, "basis": rows}}))
        monkeypatch.delenv("QLAT_SIZE_CAP", raising=False)
        calls = []
        exact = qlat.subspace._canonical
        monkeypatch.setattr(qlat.subspace, "_canonical",
                            lambda rows, n: calls.append(n) or exact(rows, n))
        code, out, err = run(capsys, "eval", "p", str(path))
        assert code == 2 and out == "" and calls == []
        assert err == "error: dimension 40 exceeds the size cap 16\n"
        code, out, err = run(capsys, "eval", "p", str(path), "--dim", "17")
        assert code == 2 and calls == []
        assert err == "error: dimension 17 exceeds the size cap 16\n"

    @pytest.mark.parametrize("basis", [5, [5], {"a": 1}, "ab"],
                             ids=["int", "list-of-int", "object", "string"])
    def test_malformed_basis_exit_2(self, capsys, tmp_path, basis):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"p": {"ambient": 2, "basis": basis}}))
        code, out, err = run(capsys, "eval", "p", str(path))
        assert code == 2 and out == ""
        assert err == "error: subspace basis must be a list of rows, each a list of entries\n"


class TestCheckLaw:
    def test_distributivity_fails_in_c2(self, capsys):
        code, out, _ = run(capsys, "check-law", "distributivity",
                           "--dim", "2", "--json", "--seed", "4")
        assert code == 1
        report = json.loads(out)
        assert report["status"] == "counterexample_found"
        assert report["seed"] == 4
        # replay the witness
        verdict = verdict_from_json(report)
        holds, lv, rv = evaluate_equation(verdict.equation, verdict.witness)
        assert not holds
        assert (lv, rv) == verdict.witness_gap

    def test_modularity_holds(self, capsys):
        code, out, _ = run(capsys, "check-law", "modularity",
                           "--dim", "4", "--trials", "100", "--json")
        assert code == 0
        assert json.loads(out)["status"] == "no_counterexample"

    def test_unknown_law_exit_2(self, capsys):
        code, _, err = run(capsys, "check-law", "nosuchlaw", "--dim", "2")
        assert code == 2
        assert "unknown law" in err

    def test_formula_text_accepted(self, capsys):
        code, out, _ = run(capsys, "falsify", "x & (y | z) = (x & y) | (x & z)",
                           "--dim", "2", "--trials", "500", "--json")
        assert code == 1

    def test_dim_required(self, capsys):
        code, _, err = run(capsys, "check-law", "modularity")
        assert code == 2

    def test_byte_identical_outputs(self, capsys):
        _, out1, _ = run(capsys, "check-law", "distributivity",
                         "--dim", "2", "--json", "--seed", "11")
        _, out2, _ = run(capsys, "check-law", "distributivity",
                         "--dim", "2", "--json", "--seed", "11")
        assert out1 == out2

    @pytest.mark.parametrize("cmd,target,bound", [
        ("check-law", "0=0", "0"), ("falsify", "0=0", "-5"),
        ("check-law", "x=x", "0"), ("falsify", "x=x", "-5")])
    def test_entry_bound_below_one_exit_2(self, capsys, cmd, target, bound):
        code, out, err = run(capsys, cmd, target, "--dim", "2", "--entry-bound", bound)
        assert code == 2 and out == ""
        assert err == "error: entry bound must be at least 1\n"

    def test_parallel_flag_removed(self):
        with pytest.raises(SystemExit) as exc:
            main(["check-law", "modularity", "--dim", "2", "--parallel"])
        assert exc.value.code == 2

    def test_size_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QLAT_SIZE_CAP", "4")
        code, _, err = run(capsys, "check-law", "modularity", "--dim", "8")
        assert code == 2
        monkeypatch.setenv("QLAT_SIZE_CAP", "bogus")
        code, _, err = run(capsys, "check-law", "modularity", "--dim", "2")
        assert code == 2

    @pytest.mark.parametrize("cap", ["0", "33", "500"])
    def test_size_cap_env_out_of_range(self, capsys, monkeypatch, cap):
        monkeypatch.setenv("QLAT_SIZE_CAP", cap)
        code, out, err = run(capsys, "mdist", "2")
        assert code == 2 and out == ""
        assert err == f"error: QLAT_SIZE_CAP must be in 1..32, got {cap}\n"


# each capped command at QLAT_SIZE_CAP=4 and one past it; the qubit route's
# next dimension past 4 is 8
@pytest.mark.parametrize("at_cap,over,dim", [
    ("eval ~p AMBIENT4", "eval ~p AMBIENT5", 5),
    ("check-law modularity --dim 4 --trials 2", "check-law modularity --dim 5 --trials 2", 5),
    ("falsify x|~x --dim 4 --trials 2", "falsify x|~x --dim 5 --trials 2", 5),
    ("separate 3 4 --trials 2", "separate 3 5 --trials 2", 5),
    ("separate 2 4 --trials 2", "separate 4 8 --trials 2", 8),
    ("mdist 4", "mdist 5", 5),
], ids=["eval", "check-law", "falsify", "separate-huhn", "separate-qubit", "mdist"])
def test_every_capped_command(capsys, monkeypatch, tmp_path, at_cap, over, dim):
    files = {}
    for n in (4, 5):
        path = tmp_path / f"ambient{n}.json"
        path.write_text(json.dumps({"p": {"ambient": n, "basis": []}}))
        files[f"AMBIENT{n}"] = str(path)
    monkeypatch.setenv("QLAT_SIZE_CAP", "4")
    assert run(capsys, *(files.get(w, w) for w in at_cap.split()))[0] == 0
    code, out, err = run(capsys, *(files.get(w, w) for w in over.split()))
    assert code == 2 and out == ""
    assert err == f"error: dimension {dim} exceeds the size cap 4\n"


# the input bounds past the parser, each met from below and above where it has two
@pytest.mark.parametrize("argv", [
    "tl relations --n 1", "tl relations --n 9", "tl jw --n 0", "tl jw --n 9",
    "tl trace --n 1", "tl trace --n 9", "eval p=q TRIPLE", "check-law modularity",
])
def test_bound_refused_in_one_line(capsys, triple_file, argv):
    code, out, err = run(capsys, *(triple_file if w == "TRIPLE" else w
                                   for w in argv.split()))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.endswith("\n")


# sha256 of stdout; any change to the canonical form or to the search order
# changes them. The `separate 2 3` digest covers the built Huhn witness; its
# sampled half is also pinned on its own by test_golden_holds_evidence.
GOLDEN_STDOUT = [
    ("check-law modularity --dim 8 --trials 4 --seed 12 --entry-bound 3 --json",
     "3c2e6b5e9a86cc6758a6a87205edeac13dace4330d413351bae03e282ae28271"),
    ("separate 2 3 --trials 500 --seed 9 --entry-bound 3 --json",
     "46be37d391b452752d9f61ff1136e8c175530b68ed152403e48ba3860cfdf3d3"),
    ("separate 4 8 --trials 16 --seed 5 --entry-bound 3 --json",
     "7ee39d5724f531307ee819ddb50a0aeb24cb533c5ced6ddd8bfa540541866f95"),
    # recorded with the per-term rational-function diagram algebra
    ("tl jw --n 5 --r 7 --seed 1 --json",
     "76678c83a4ff1fbb64b8e56c34a3dae46e1d99e99acf0e3e5f76b843905fdfae"),
    ("tl jw --n 6 --json",
     "584ab4930f47bc199bf642d33c071d8d900d2ccc58ab0f4a698921e562845b1a"),
    ("tl trace --n 5 --r 7 --json",
     "25fe1fd062ec757afc88b42ea15341d05e405ba97374dee53a0055ca3bea3f46"),
    ("tl relations --n 5 --json",
     "bb705c8ff265149a8d403518ca7a0da18ae21f857d8cc45dba41b9a3f3a5a922"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_STDOUT)
def test_golden_stdout(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_golden_holds_evidence(capsys):
    # the sampled "holds in C^2" half, as recorded before the witness was built
    code, out, _ = run(capsys, "separate", "2", "3", "--trials", "500", "--seed", "9",
                       "--entry-bound", "3", "--json")
    assert code == 0
    report = json.loads(out)
    holds = json.dumps(report["holds_evidence"], indent=2, sort_keys=True)
    assert hashlib.sha256(holds.encode()).hexdigest() == (
        "ba0b003ddc93ce12555d86b3eb5f422014973a9ba4d26bce48f2ff7838ed5b95")
    assert report["fails_witness"]["seed"] == 9
    assert report["fails_witness"]["trials"] == 1


class TestSeparate:
    def test_alpha_route(self, capsys):
        code, out, _ = run(capsys, "separate", "2", "4", "--json",
                           "--trials", "50")
        assert code == 0
        report = json.loads(out)
        assert report["low_dim"] == 2 and report["high_dim"] == 4
        assert "p2" in report["fails_witness"]["witness"]

    def test_huhn_route(self, capsys):
        code, out, _ = run(capsys, "separate", "2", "3", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["separator"].startswith("x & (y0 | y1 | y2)")

    def test_both_routes_honour_trials(self, capsys):
        for m, n in (("2", "3"), ("2", "4")):
            code, out, _ = run(capsys, "separate", m, n, "--json", "--trials", "7")
            assert code == 0
            assert json.loads(out)["holds_evidence"]["trials"] == 7

    def test_order_exit_2(self, capsys):
        code, _, _ = run(capsys, "separate", "3", "2")
        assert code == 2

    def test_entry_bound_reaches_both_routes(self, capsys):
        for m, n in (("2", "3"), ("2", "4")):
            code, out, err = run(capsys, "separate", m, n, "--trials", "5",
                                 "--entry-bound", "0")
            assert code == 2 and out == ""
            assert err == "error: entry bound must be at least 1\n"

    def test_size_cap_on_both_routes(self, capsys, monkeypatch):
        monkeypatch.delenv("QLAT_SIZE_CAP", raising=False)
        for m, n in (("3", "17"), ("16", "32")):
            code, out, err = run(capsys, "separate", m, n)
            assert code == 2 and out == ""
            assert err == f"error: dimension {n} exceeds the size cap 16\n"

    def test_deepest_generated_separator_round_trips(self, capsys):
        # level 4 of the iterated test formula, 884878 characters of text
        code, out, _ = run(capsys, "separate", "8", "16", "--trials", "1", "--json")
        assert code == 0
        report = json.loads(out)
        verdict = verdict_from_json(report["fails_witness"])
        assert verdict.ambient_dim == 16
        assert to_source(verdict.equation) == report["separator"]


class TestPrinters:
    def test_alpha_source(self, capsys):
        code, out, _ = run(capsys, "alpha", "1")
        assert code == 0
        assert parse(out.strip()) is not None
        assert "p1" in out

    def test_alpha_cap(self, capsys):
        code, _, err = run(capsys, "alpha", "9")
        assert code == 2

    def test_mdist_source(self, capsys):
        code, out, _ = run(capsys, "mdist", "2")
        assert code == 0
        assert out.strip().startswith("x & (y0 | y1 | y2) =")

    def test_mdist_at_size_cap_prints(self, capsys):
        code, out, _ = run(capsys, "mdist", "16")
        assert code == 0
        assert out.strip().startswith("x & (y0 | y1 |")

    def test_mdist_at_largest_size_cap_parses_back(self, capsys, monkeypatch):
        monkeypatch.setenv("QLAT_SIZE_CAP", "32")
        code, out, _ = run(capsys, "mdist", "32")
        assert code == 0
        assert parse(out.strip()) == m_distributive(32)
        assert to_source(parse(out.strip())) == out.strip()

    def test_mdist_over_size_cap_exit_2(self):
        proc = run_module("mdist", "500")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "size cap 16" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestTl:
    def test_relations(self, capsys):
        code, out, _ = run(capsys, "tl", "relations", "--n", "4", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["all_pass"] is True

    def test_jw_with_root(self, capsys):
        code, out, _ = run(capsys, "tl", "jw", "--n", "3", "--r", "5", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["trace_matches_chebyshev"] is True
        assert report["r"] == 5

    def test_jw_bound_violation_exit_1(self, capsys):
        code, out, _ = run(capsys, "tl", "jw", "--n", "4", "--r", "4", "--json")
        assert code == 1
        assert "n = 1..3" in json.loads(out)["error"]

    def test_trace_computes_each_trace_once(self, capsys, monkeypatch):
        import qlat.cli

        calls = []
        plain = qlat.cli.markov_trace
        monkeypatch.setattr(qlat.cli, "markov_trace", lambda x: calls.append(x) or plain(x))
        code, out, _ = run(capsys, *"tl trace --n 5 --r 7 --json".split())
        assert code == 0 and len(calls) == 5
        assert hashlib.sha256(out.encode()).hexdigest() == dict(GOLDEN_STDOUT)[
            "tl trace --n 5 --r 7 --json"]

    @pytest.mark.parametrize("argv", ["tl jw --n 5 --r 7 --json",
                                      "tl trace --n 5 --r 7 --json",
                                      "tl relations --n 5 --json"])
    def test_no_fraction_built(self, capsys, monkeypatch, argv):
        # coefficients stay integer pairs from construction to output
        import qlat.templieb

        for cached in (qlat.templieb.jones_wenzl, qlat.templieb.chebyshev,
                       qlat.templieb._interned):
            cached.cache_clear()
        assert count_boxing(capsys, monkeypatch, argv.split()) == {}

    def test_relations_rejects_r(self, capsys):
        code, out, err = run(capsys, "tl", "relations", "--n", "3", "--r", "5")
        assert code == 2 and out == ""
        assert err == "error: --r applies only to tl jw and tl trace\n"

    def test_trace_rejects_small_r_before_any_trace(self, capsys, monkeypatch):
        import qlat.cli

        calls = []
        monkeypatch.setattr(qlat.cli, "markov_trace", lambda x: calls.append(x))
        code, out, err = run(capsys, "tl", "trace", "--n", "3", "--r", "2")
        assert code == 2 and out == "" and calls == []
        assert err == "error: r must be an integer >= 3\n"

    def test_jw_rejects_small_r(self, capsys):
        code, out, err = run(capsys, "tl", "jw", "--n", "3", "--r", "2", "--json")
        assert code == 2 and out == ""
        assert err == "error: r must be an integer >= 3\n"

    def test_trace(self, capsys):
        code, out, _ = run(capsys, "tl", "trace", "--n", "3", "--r", "4", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["numeric"]["tr(e_i)"] == pytest.approx(0.5, abs=1e-9)


def count_boxing(capsys, monkeypatch, argv) -> dict:
    """Run one command; count the Fraction and GaussianRational values built."""
    import fractions

    from qlat.linalg import GaussianRational

    built = collections.Counter()
    plain_new, plain_init = fractions.Fraction.__new__, GaussianRational.__init__

    def fraction(cls, *args, **kwargs):
        built["Fraction"] += 1
        return plain_new(cls, *args, **kwargs)

    def gaussian(self, *args, **kwargs):
        built["GaussianRational"] += 1
        plain_init(self, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(fraction))
    monkeypatch.setattr(GaussianRational, "__init__", gaussian)
    code, out, _ = run(capsys, *argv)
    monkeypatch.undo()
    assert code == 0 and json.loads(out)
    return dict(built)


@pytest.mark.parametrize("argv", ["separate 4 8 --trials 16 --seed 5 --entry-bound 3 --json",
                                  "separate 2 3 --trials 50 --seed 9 --entry-bound 3 --json",
                                  "check-law modularity --dim 8 --trials 4 --seed 12 --json",
                                  "eval p|(q&r) TRIPLE --json"])
def test_lattice_commands_box_nothing(capsys, monkeypatch, triple_file, argv):
    # subspaces enter and leave as integer rows; basis boxing is for printing
    argv = [triple_file if a == "TRIPLE" else a for a in argv.split()]
    assert count_boxing(capsys, monkeypatch, argv) == {}


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_module("check-law", "excluded_middle", "--dim", "2", "--trials", "20", "--json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["status"] == "no_counterexample"

    def test_malformed_input_no_traceback(self):
        proc = run_module("falsify", "((", "--dim", "2")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("text", [
        "~" * 3000 + "x = x",
        "(" * 3000 + "x" + ")" * 3000,
        " | ".join(["x"] * 3000) + " = x",
    ], ids=["negations", "parentheses", "left-deep-join"])
    def test_deep_formula_text_exit_2(self, text):
        proc = run_module("falsify", text, "--dim", "2")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "nested deeper than" in proc.stderr
        assert "Traceback" not in proc.stderr

    # each prints over 100 KB, more than a pipe holds, so the write after the
    # reader leaves always fails
    @pytest.mark.parametrize("argv", ["tl jw --n 6 --json", "tl jw --n 7"])
    def test_reader_closing_pipe_exit_141(self, argv):
        cmd, env = module_command(*argv.split())
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 141
        assert b"Traceback" not in err and b"Exception ignored" not in err


_TRICKY_TEXT = st.text(st.characters(codec="utf-8") | st.sampled_from(
    '"\\\x00\x1f\x7f\u2028\u00e9\U0001f600[]{},: \n\t'), max_size=12)
_SCALARS = st.one_of(
    st.none(), st.booleans(), _TRICKY_TEXT,
    st.integers(), st.integers(min_value=-2 ** 200, max_value=2 ** 200),
    st.floats(), st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e300, -1e300]),
)
# one-type lists take the encoder's single-join path
_ONE_TYPE_LISTS = st.one_of(*(st.lists(s, max_size=4) for s in (
    st.none(), st.booleans(), _TRICKY_TEXT, st.integers(), st.floats())))
_JSON_TREES = st.recursive(
    _SCALARS | _ONE_TYPE_LISTS,
    lambda kids: (st.lists(kids, max_size=4) | st.tuples(kids, kids)
                  | st.dictionaries(_TRICKY_TEXT, kids, max_size=4)),
    max_leaves=25)


class TestJsonEncoder:
    @settings(max_examples=300, deadline=None)
    @given(_JSON_TREES)
    def test_matches_stdlib(self, obj):
        assert _encode(obj) == json_oracle(obj)

    @pytest.mark.parametrize("obj", [{1: "x"}, {"a": 1, 2: "b"}, {None: 0}, [object()],
                                     {"a": [1, {"b": object()}]}, object(), b"bytes", {1, 2}])
    def test_other_types_raise(self, obj):
        with pytest.raises(TypeError):
            _encode(obj)

    def test_no_indented_stdlib_dump(self):
        # every indented document goes through emit's encoder, the one home
        # of the output rule
        calls = []
        for path in Path(qlat.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name in ("dump", "dumps") and any(k.arg == "indent" for k in node.keywords):
                    calls.append(f"{path.name}:{node.lineno}")
        assert calls == []


def test_only_main_writes_stdout():
    # commands return their reports; main stamps and writes them, through emit
    # and _render_human, or print for source text
    tree = ast.parse(Path(qlat.cli.__file__).read_text())
    writers = collections.defaultdict(set)
    for stmt in tree.body:
        owner = getattr(stmt, "name", "<module>")
        for node in ast.walk(stmt):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            name = node.func.id
            if name == "emit" or (name == "print"
                                  and not any(k.arg == "file" for k in node.keywords)):
                writers[name].add(owner)
    assert writers == {"emit": {"main"}, "print": {"main", "emit", "_render_human"}}


# Each subcommand takes exactly the flags it reads; any other flag is a usage
# error from the parser.
BASE_ARGV = {
    "eval": ["eval", "p", "a.json"],
    "check-law": ["check-law", "modularity"],
    "falsify": ["falsify", "x = x"],
    "separate": ["separate", "2", "3"],
    "alpha": ["alpha", "1"],
    "mdist": ["mdist", "2"],
    "tl": ["tl", "jw", "--n", "3"],
}
FLAG_VALUES = {"--seed": ("7", 7), "--json": (None, True), "--trials": ("7", 7),
               "--entry-bound": ("7", 7), "--dim": ("7", 7)}
KEPT_FLAGS = {
    "eval": {"--seed", "--json", "--dim"},
    "check-law": {"--seed", "--json", "--trials", "--entry-bound", "--dim"},
    "falsify": {"--seed", "--json", "--trials", "--entry-bound", "--dim"},
    "separate": {"--seed", "--json", "--trials", "--entry-bound"},
    "alpha": set(),
    "mdist": set(),
    "tl": {"--seed", "--json"},
}
FLAG_MATRIX = [(cmd, flag, flag in KEPT_FLAGS[cmd]) for cmd in BASE_ARGV for flag in FLAG_VALUES]


@pytest.mark.parametrize("cmd,flag,kept", FLAG_MATRIX,
                         ids=[f"{c}{f}" for c, f, _ in FLAG_MATRIX])
def test_flag_matrix(capsys, cmd, flag, kept):
    raw, value = FLAG_VALUES[flag]
    argv = BASE_ARGV[cmd] + [flag] + ([] if raw is None else [raw])
    if kept:
        args = build_parser().parse_args(argv)
        assert getattr(args, flag[2:].replace("-", "_")) == value
    else:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["check-law", "falsify", "separate"])
def test_trials_default_in_parser(cmd):
    assert build_parser().parse_args(BASE_ARGV[cmd]).trials == 1000
