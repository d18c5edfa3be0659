"""Command line interface.

Every command is scriptable and deterministic: JSON output is byte-identical
for identical configuration (stable key order, seeds always recorded), and
the human-readable mode renders the same data. Each subcommand declares only
the flags it reads (``build_parser``), so any other flag is a usage error.
Every input bound lives here; ``check_size_cap`` is the one dimension check,
and the library routes the commands call are uncapped.
Exit codes: 0 for success or no counterexample, 1 for a found counterexample
or a violated structural bound, 2 for usage and parse errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .formula import (
    Equation,
    ParseError,
    alpha_iter,
    assignment_from_json,
    evaluate,
    law,
    m_distributive,
    parse,
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
from .ratfunc import RF_D
from .templieb import (
    PoleError,
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
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _render_human(report)


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


def _stamp(report: dict, args) -> dict:
    report["version"] = __version__
    report["seed"] = args.seed
    return report


def _resolve_check_target(text: str):
    """A bare identifier must name a catalog law; anything else is parsed."""
    stripped = text.strip()
    if stripped.replace("_", "").isalnum() and stripped[:1].isalpha():
        try:
            return law(stripped)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    return parse(text)


def cmd_eval(args) -> int:
    formula = parse(args.formula)
    if isinstance(formula, Equation):
        raise UsageError("eval expects a formula; use check-law or falsify for equations")
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
    report = _stamp({
        "formula": to_source(formula),
        "ambient": assignment.ambient,
        "dim": value.dim,
        "value": subspace_to_json(value),
        "audit": audit_invariants(assignment),
    }, args)
    emit(report, args)
    return EXIT_OK


def cmd_check(args, resolve) -> int:
    eq = resolve(args.target)
    dim = args.dim
    if dim is None:
        raise UsageError("--dim is required")
    check_size_cap(dim)
    verdict = falsify(eq, dim, args.trials, args.seed, entry_bound=args.entry_bound)
    report = _stamp(verdict_to_json(verdict), args)
    emit(report, args)
    return EXIT_FOUND if verdict.status == COUNTEREXAMPLE else EXIT_OK


def cmd_separate(args) -> int:
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
    report = _stamp(certificate_to_json(cert), args)
    emit(report, args)
    return EXIT_OK


def cmd_alpha(args) -> int:
    if args.m > MAX_ALPHA_PRINT:
        raise UsageError(f"refusing to print level {args.m}: source grows "
                         f"exponentially (cap {MAX_ALPHA_PRINT})")
    print(to_source(alpha_iter(args.m)))
    return EXIT_OK


def cmd_mdist(args) -> int:
    check_size_cap(args.m)
    print(to_source(m_distributive(args.m)))
    return EXIT_OK


def cmd_tl(args) -> int:
    if args.tl_command == "relations":
        return _tl_relations(args)
    if args.tl_command == "jw":
        return _tl_jw(args)
    return _tl_trace(args)


def _tl_relations(args) -> int:
    n = args.n
    if args.r is not None:
        raise UsageError("--r applies only to tl jw and tl trace")
    if not 2 <= n <= MAX_TL_STRANDS:
        raise UsageError(f"--n must be in 2..{MAX_TL_STRANDS} for relation checks")
    checks = []
    ok_all = True
    es = {i: generator_e(n, i) for i in range(1, n)}
    for i in range(1, n):
        ok = es[i] * es[i] == es[i]
        checks.append({"name": f"e{i}^2 = e{i}", "pass": ok})
        ok_all &= ok
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) == 1:
                lhs = es[i] * es[j] * es[i]
                ok = lhs == es[i] * (RF_D ** -2)
                checks.append({"name": f"e{i} e{j} e{i} = e{i}/d^2", "pass": ok})
                ok_all &= ok
            elif i < j:
                ok = es[i] * es[j] == es[j] * es[i]
                checks.append({"name": f"e{i} e{j} = e{j} e{i}", "pass": ok})
                ok_all &= ok
    report = _stamp({"n": n, "checks": checks, "all_pass": ok_all}, args)
    emit(report, args)
    return EXIT_OK if ok_all else EXIT_FOUND


def _tl_jw(args) -> int:
    n, r = args.n, args.r
    if n < 1:
        raise UsageError("--n must be at least 1")
    if n > MAX_TL_STRANDS:
        raise UsageError(f"--n above {MAX_TL_STRANDS} is too large for the exact projector")
    if r is not None:
        error = projector_level_error(n, r)
        if error:
            emit(_stamp({"error": error}, args), args)
            return EXIT_FOUND
    p = jones_wenzl(n)
    trace = markov_trace(p)
    expected = chebyshev(n).as_rational_function() / (
        chebyshev(1).as_rational_function() ** n)
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
    emit(_stamp(report, args), args)
    return EXIT_OK


def _tl_trace(args) -> int:
    n, r = args.n, args.r
    if not 2 <= n <= MAX_TL_STRANDS:
        raise UsageError(f"--n must be in 2..{MAX_TL_STRANDS}")
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
    emit(_stamp(report, args), args)
    return EXIT_OK


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
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PoleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FOUND
    except (UsageError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
