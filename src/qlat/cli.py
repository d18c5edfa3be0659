"""Command line interface.

Every command is scriptable and deterministic: JSON output is byte-identical
for identical configuration (stable key order, seeds always recorded), and
the human-readable mode renders the same data. Each subcommand declares only
the flags it reads (``build_parser``), so any other flag is a usage error.
A command returns ``(report, exit_code)``: a dict, or the source text that
``alpha`` and ``mdist`` print. ``main`` alone writes: it stamps a dict with
``version`` and ``seed``, writes it through ``emit`` (text through ``print``),
flushes stdout and returns the code.
Every input bound lives here; ``check_size_cap`` is the one dimension check,
and the library routes the commands call are uncapped.
``--json`` output is exactly ``json.dumps(report, indent=2, sort_keys=True)``,
written by ``_encode`` in one pass (the stdlib's C encoder skips ``indent``).
Exit codes: 0 for success or no counterexample, 1 for a found counterexample
or a violated structural bound, 2 for usage and parse errors, 141 (128 +
SIGPIPE) when the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
from .formula import (
    ParseError,
    alpha_iter,
    assignment_from_json,
    evaluate,
    law,
    m_distributive,
    parse,
    parse_formula,
    to_source,
)
from .search import (
    COUNTEREXAMPLE,
    DEFAULT_TRIALS,
    audit_invariants,
    certificate_to_json,
    falsify,
    qubit_alpha_separator,
    separate_dims,
    verdict_to_json,
)
from .linalg import int_from_json
from .subspace import DEFAULT_ENTRY_BOUND, subspace_to_json
from .ratfunc import RF_D, RationalFunction
from .templieb import (
    chebyshev,
    eval_at_root,
    generator_e,
    jones_wenzl,
    jw_at_root,
    markov_trace,
    projector_level_error,
    root_params,
    tl_to_json,
)

EXIT_OK = 0
EXIT_FOUND = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: a shell's status for a closed-pipe kill

DEFAULT_SIZE_CAP = 16
# Above 32, certificates stop replaying from their JSON: the text of
# m_distributive(64) nests past formula.MAX_PARSE_DEPTH. At 32, `separate 16 32`
# already prints an ~18 MB separator, as large as `alpha 5`.
MAX_SIZE_CAP = 32
MAX_ALPHA_PRINT = MAX_SIZE_CAP.bit_length() - 1  # level m separates at C^(2^m)
MAX_TL_STRANDS = 8


class UsageError(Exception):
    pass


def size_cap() -> int:
    raw = os.environ.get("QLAT_SIZE_CAP", str(DEFAULT_SIZE_CAP))
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError(f"QLAT_SIZE_CAP must be an integer, got {raw!r}")
    if not 1 <= cap <= MAX_SIZE_CAP:
        raise UsageError(f"QLAT_SIZE_CAP must be in 1..{MAX_SIZE_CAP}, got {cap}")
    return cap


def check_size_cap(dim: int) -> None:
    """The one bound on the dimensions a command may reason about."""
    cap = size_cap()
    if dim > cap:
        raise UsageError(f"dimension {dim} exceeds the size cap {cap}")


def emit(report: dict, args) -> None:
    if args.json:
        print(_encode(report))
    else:
        _render_human(report)


def _float_json(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


_SCALAR_JSON = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_json,
    bool: lambda x: "true" if x else "false",
    type(None): lambda x: "null",
}


def _encode(obj, newline: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, for the types reports
    hold: dicts with str keys, lists, tuples, str, int, float, bool, None.
    ``newline`` is a line break plus the indent of ``obj``'s closing bracket."""
    t = type(obj)
    inner = newline + "  "
    if t is dict:
        if not obj:
            return "{}"
        # a non-str key fails to sort or to encode: TypeError either way
        parts = [encode_basestring_ascii(k) + ": " + _encode(obj[k], inner)
                 for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    if t is list or t is tuple:
        if not obj:
            return "[]"
        types = set(map(type, obj))
        scalar = _SCALAR_JSON.get(types.pop()) if len(types) == 1 else None
        parts = map(scalar, obj) if scalar else [_encode(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    scalar = _SCALAR_JSON.get(t)
    if scalar is None:
        raise TypeError(f"{t.__name__} is not JSON serializable")
    return scalar(obj)


def _render_human(report: dict, indent: str = "") -> None:
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _render_human(value, indent + "  ")
        elif isinstance(value, list):
            print(f"{indent}{key}: {json.dumps(value, sort_keys=True)}")
        else:
            print(f"{indent}{key}: {value}")


def _resolve_check_target(text: str):
    """A bare identifier must name a catalog law; anything else is parsed."""
    stripped = text.strip()
    if stripped.replace("_", "").isalnum() and stripped[:1].isalpha():
        try:
            return law(stripped)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    return parse(text)


def cmd_eval(args) -> tuple[dict, int]:
    formula = parse_formula(args.formula)
    try:
        with open(args.assignment) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise UsageError(f"cannot read assignment file: {exc}")
    # decoding eliminates every basis, so each declared ambient is capped first
    if args.dim is not None:
        check_size_cap(args.dim)
    for val in raw.values() if isinstance(raw, dict) else ():
        if isinstance(val, dict) and "ambient" in val:
            check_size_cap(int_from_json(val["ambient"], "ambient"))
    assignment = assignment_from_json(raw, args.dim)
    value = evaluate(formula, assignment)
    return {
        "formula": to_source(formula),
        "ambient": assignment.ambient,
        "dim": value.dim,
        "value": subspace_to_json(value),
        "audit": audit_invariants(assignment),
    }, EXIT_OK


def cmd_check(args, resolve) -> tuple[dict, int]:
    eq = resolve(args.target)
    dim = args.dim
    if dim is None:
        raise UsageError("--dim is required")
    check_size_cap(dim)
    verdict = falsify(eq, dim, args.trials, args.seed, entry_bound=args.entry_bound)
    code = EXIT_FOUND if verdict.status == COUNTEREXAMPLE else EXIT_OK
    return verdict_to_json(verdict), code


def cmd_separate(args) -> tuple[dict, int]:
    m, n = args.m, args.n
    if not 1 <= m < n:
        raise UsageError("need 1 <= m < n")
    check_size_cap(n)
    if n == 2 * m and m & (m - 1) == 0:
        cert = qubit_alpha_separator(m.bit_length() - 1, trials=args.trials,
                                     seed=args.seed, entry_bound=args.entry_bound)
    else:
        cert = separate_dims(m, n, seed=args.seed, holds_trials=args.trials,
                             entry_bound=args.entry_bound)
    return certificate_to_json(cert), EXIT_OK


def cmd_alpha(args) -> tuple[str, int]:
    if args.m > MAX_ALPHA_PRINT:
        raise UsageError(f"refusing to print level {args.m}: source grows "
                         f"exponentially (cap {MAX_ALPHA_PRINT})")
    return to_source(alpha_iter(args.m)), EXIT_OK


def cmd_mdist(args) -> tuple[str, int]:
    check_size_cap(args.m)
    return to_source(m_distributive(args.m)), EXIT_OK


def cmd_tl(args) -> tuple[dict, int]:
    command, n = args.tl_command, args.n
    if command == "relations" and args.r is not None:
        raise UsageError("--r applies only to tl jw and tl trace")
    low = 1 if command == "jw" else 2  # relations and traces need e_1
    if not low <= n <= MAX_TL_STRANDS:
        raise UsageError(f"--n must be in {low}..{MAX_TL_STRANDS} for tl {command}")
    return {"relations": _tl_relations, "jw": _tl_jw, "trace": _tl_trace}[command](args)


def _tl_relations(args) -> tuple[dict, int]:
    n = args.n
    checks = []
    es = {i: generator_e(n, i) for i in range(1, n)}
    for i in range(1, n):
        checks.append({"name": f"e{i}^2 = e{i}", "pass": es[i] * es[i] == es[i]})
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) == 1:
                checks.append({"name": f"e{i} e{j} e{i} = e{i}/d^2",
                               "pass": es[i] * es[j] * es[i] == es[i] * (RF_D ** -2)})
            elif i < j:
                checks.append({"name": f"e{i} e{j} = e{j} e{i}",
                               "pass": es[i] * es[j] == es[j] * es[i]})
    all_pass = all(c["pass"] for c in checks)
    report = {"n": n, "checks": checks, "all_pass": all_pass}
    return report, EXIT_OK if all_pass else EXIT_FOUND


def _tl_jw(args) -> tuple[dict, int]:
    n, r = args.n, args.r
    if r is not None:
        error = projector_level_error(n, r)
        if error:
            return {"error": error}, EXIT_FOUND
    p = jones_wenzl(n)
    trace = markov_trace(p)
    expected = RationalFunction(chebyshev(n).coeffs, (0,) * n + (1,))  # D_n(d) / d^n
    report = {
        "n": n,
        "projector": tl_to_json(p),
        "trace": repr(trace),
        "trace_matches_chebyshev": trace == expected,
    }
    if r is not None:
        numeric = jw_at_root(n, r)
        report["r"] = r
        report["d"] = root_params(r)
        report["numeric_trace"] = eval_at_root(trace, r)
        report["numeric_coefficients"] = [
            {"pairing": [[a, b] for a, b in diag.pairing], "value": numeric[diag]}
            for diag in sorted(numeric)
        ]
    return report, EXIT_OK


def _tl_trace(args) -> tuple[dict, int]:
    n, r = args.n, args.r
    d = None if r is None else root_params(r)
    tr_e = markov_trace(generator_e(n, 1))
    rows = [{"element": "e_i", "trace": repr(tr_e)}]
    for j in range(1, n):
        # the normalized trace is invariant under include, so p_j needs no padding
        rows.append({"element": f"p_{j}", "trace": repr(markov_trace(jones_wenzl(j)))})
    report = {"n": n, "traces": rows}
    if r is not None:
        report["r"] = r
        report["d"] = d
        report["numeric"] = {
            "tr(e_i)": eval_at_root(tr_e, r),
            "quarter_sec_squared": 0.25 / math.cos(math.pi / r) ** 2,
        }
    return report, EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # Two flag groups; each subcommand takes the groups and flags it reads.
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--seed", type=int, default=0, help="RNG seed (recorded in output)")
    report.add_argument("--json", action="store_true", help="machine-readable output")
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                          help="number of sampled evaluations")
    sampling.add_argument("--entry-bound", type=int, default=DEFAULT_ENTRY_BOUND,
                          help="max |re|, |im| of random Gaussian-integer entries")

    parser = argparse.ArgumentParser(
        prog="qlat",
        description="Exact subspace-lattice logic of qubit registers.")
    parser.add_argument("--version", action="version", version=f"qlat {__version__}")
    # prog given, so argparse need not format a usage line to derive it
    sub = parser.add_subparsers(dest="command", required=True, prog="qlat")

    p = sub.add_parser("eval", parents=[report],
                       help="evaluate a formula at an assignment file")
    p.add_argument("formula")
    p.add_argument("assignment", help="JSON file mapping variable -> subspace")
    p.add_argument("--dim", type=int, help="ambient dimension (default: the file's)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check-law", parents=[report, sampling],
                       help="falsification search for a catalog law or a formula")
    p.add_argument("target", help="law name, formula, or equation")
    p.add_argument("--dim", type=int, help="ambient dimension (required)")
    p.set_defaults(func=lambda a: cmd_check(a, _resolve_check_target))

    p = sub.add_parser("falsify", parents=[report, sampling],
                       help="falsification search for an equation or formula")
    p.add_argument("target", help="equation or formula source text")
    p.add_argument("--dim", type=int, help="ambient dimension (required)")
    p.set_defaults(func=lambda a: cmd_check(a, parse))

    p = sub.add_parser("separate", parents=[report, sampling],
                       help="separation certificate for two ambient dimensions")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("alpha", help="print the m-fold iterated distribution test formula")
    p.add_argument("m", type=int)
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("mdist", help="print the m-distributive law")
    p.add_argument("m", type=int)
    p.set_defaults(func=cmd_mdist)

    p = sub.add_parser("tl", parents=[report], help="Temperley-Lieb algebra reports")
    p.add_argument("tl_command", choices=["relations", "jw", "trace"])
    p.add_argument("--n", type=int, required=True, help="strand count / projector level")
    p.add_argument("--r", type=int, help="root-of-unity level (jw and trace only)")
    p.set_defaults(func=cmd_tl)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.func(args)
        if isinstance(report, str):
            print(report)
        else:
            report["version"] = __version__
            report["seed"] = args.seed
            emit(report, args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe; send the rest, and the flush at exit, to
        # devnull (the Python docs' SIGPIPE recipe)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UsageError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
