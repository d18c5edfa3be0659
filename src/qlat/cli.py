"""Command line interface.

Every command is scriptable and deterministic: JSON output is byte-identical
for identical configuration (stable key order, seeds always recorded), and
the human-readable mode renders the same data. Exit codes: 0 for success or
no counterexample, 1 for a found counterexample or a violated structural
bound, 2 for usage and parse errors.
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
    UnboundVariableError,
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
    DEFAULT_SIZE_CAP,
    audit_invariants,
    certificate_to_json,
    falsify,
    qubit_alpha_separator,
    separate_dims,
    verdict_to_json,
)
from .subspace import subspace_to_json
from .ratfunc import RF_D
from .templieb import (
    PoleError,
    chebyshev,
    eval_at_root,
    generator_e,
    include_upto,
    jones_wenzl,
    jw_at_root,
    markov_trace,
    root_params,
    tl_to_json,
)

EXIT_OK = 0
EXIT_FOUND = 1
EXIT_USAGE = 2

MAX_ALPHA_PRINT = 5  # printed source grows ~21x per level (m=5 is ~18 MB)


class UsageError(Exception):
    pass


def size_cap() -> int:
    raw = os.environ.get("QLAT_SIZE_CAP", str(DEFAULT_SIZE_CAP))
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError(f"QLAT_SIZE_CAP must be an integer, got {raw!r}")
    if cap < 1:
        raise UsageError("QLAT_SIZE_CAP must be positive")
    return cap


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
    report["seed"] = getattr(args, "seed", 0)
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
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read assignment file: {exc}")
    assignment = assignment_from_json(raw, args.dim)
    if assignment.ambient > size_cap():
        raise UsageError(f"ambient dimension {assignment.ambient} exceeds the "
                         f"size cap {size_cap()}")
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
    if dim < 1 or dim > size_cap():
        raise UsageError(f"--dim must be in 1..{size_cap()}")
    verdict = falsify(eq, dim, args.trials, args.seed, entry_bound=args.entry_bound)
    report = _stamp(verdict_to_json(verdict), args)
    emit(report, args)
    return EXIT_FOUND if verdict.status == COUNTEREXAMPLE else EXIT_OK


def cmd_separate(args) -> int:
    m, n = args.m, args.n
    cap = size_cap()
    if not 1 <= m < n:
        raise UsageError("need 1 <= m < n")
    if n == 2 * m and m & (m - 1) == 0:
        cert = qubit_alpha_separator(m.bit_length() - 1, trials=args.trials,
                                     seed=args.seed, entry_bound=args.entry_bound,
                                     size_cap=cap)
    else:
        cert = separate_dims(m, n, seed=args.seed, holds_trials=args.trials,
                             entry_bound=args.entry_bound, size_cap=cap)
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
    if not 2 <= n <= 8:
        raise UsageError("--n must be in 2..8 for relation checks")
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
    n = args.n
    if n < 1:
        raise UsageError("--n must be at least 1")
    if n > 8:
        raise UsageError("--n above 8 is too large for the exact projector")
    if args.r is not None:
        if args.r < 3:
            raise UsageError("--r must be an integer >= 3")
        if n > args.r - 1:
            report = _stamp({
                "error": f"projector level {n} unavailable at r={args.r}: "
                         f"defined only for n = 1..{args.r - 1}",
            }, args)
            emit(report, args)
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
    if args.r is not None:
        numeric = jw_at_root(n, args.r)
        report["r"] = args.r
        report["d"] = root_params(args.r)
        report["numeric_trace"] = eval_at_root(trace, args.r)
        report["numeric_coefficients"] = [
            {"pairing": [[a, b] for a, b in diag.pairing], "value": numeric.terms[diag]}
            for diag in sorted(numeric.terms)
        ]
    emit(_stamp(report, args), args)
    return EXIT_OK


def _tl_trace(args) -> int:
    n = args.n
    if not 2 <= n <= 8:
        raise UsageError("--n must be in 2..8")
    tr_e = markov_trace(generator_e(n, 1))
    rows = [{"element": "e_i", "trace": repr(tr_e)}]
    for j in range(1, n):
        rows.append({"element": f"p_{j}", "trace": repr(markov_trace(include_upto(j, n)))})
    report = {"n": n, "traces": rows}
    if args.r is not None:
        if args.r < 3:
            raise UsageError("--r must be an integer >= 3")
        d = root_params(args.r)
        report["r"] = args.r
        report["d"] = d
        report["numeric"] = {
            "tr(e_i)": eval_at_root(tr_e, args.r),
            "quarter_sec_squared": 0.25 / math.cos(math.pi / args.r) ** 2,
        }
    emit(_stamp(report, args), args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="RNG seed (recorded in output)")
    common.add_argument("--trials", type=int, default=None, help="number of sampled evaluations")
    common.add_argument("--dim", type=int, default=None, help="ambient dimension")
    common.add_argument("--entry-bound", type=int, default=3,
                        help="max |re|, |im| of random Gaussian-integer entries")
    common.add_argument("--json", action="store_true", help="machine-readable output")

    parser = argparse.ArgumentParser(
        prog="qlat",
        description="Exact subspace-lattice logic of qubit registers.")
    parser.add_argument("--version", action="version", version=f"qlat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a formula at an assignment file")
    p.add_argument("formula")
    p.add_argument("assignment", help="JSON file mapping variable -> subspace")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check-law", parents=[common],
                       help="falsification search for a catalog law or a formula")
    p.add_argument("target", help="law name, formula, or equation")
    p.set_defaults(func=lambda a: cmd_check(a, _resolve_check_target))

    p = sub.add_parser("falsify", parents=[common],
                       help="falsification search for an equation or formula")
    p.add_argument("target", help="equation or formula source text")
    p.set_defaults(func=lambda a: cmd_check(a, parse))

    p = sub.add_parser("separate", parents=[common],
                       help="separation certificate for two ambient dimensions")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("alpha", parents=[common],
                       help="print the m-fold iterated distribution test formula")
    p.add_argument("m", type=int)
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("mdist", parents=[common], help="print the m-distributive law")
    p.add_argument("m", type=int)
    p.set_defaults(func=cmd_mdist)

    p = sub.add_parser("tl", parents=[common], help="Temperley-Lieb algebra reports")
    p.add_argument("tl_command", choices=["relations", "jw", "trace"])
    p.add_argument("--n", type=int, required=True, help="strand count / projector level")
    p.add_argument("--r", type=int, default=None, help="root-of-unity level (>= 3)")
    p.set_defaults(func=cmd_tl)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.trials is None:
        args.trials = 1000
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnboundVariableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PoleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FOUND
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
