"""Randomized falsification and dimension-separation certificates.

The search half of the toolkit: seeded sampling of subspace assignments to
hunt for counterexamples to lattice equations, structured witnesses for the
distribution test formula and the m-distributive law, certificates separating
the logics of different ambient dimensions, counterexample lifting along tensor embeddings, and a
per-assignment invariant audit.

Everything is deterministic from explicit seeds. A verdict never claims
validity: "no_counterexample" means exactly that the sampled evaluations all
held. Counterexamples, in contrast, are exact and replayable.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .formula import (
    Assignment,
    Equation,
    Formula,
    ONE,
    ZERO,
    _coerce_assignment,
    alpha,
    alpha_levels,
    assignment_from_json,
    assignment_to_json,
    evaluate,
    evaluate_equation,
    evaluate_with_cache,
    free_vars,
    m_distributive,
    parse,
    to_source,
)
from .linalg import int_from_json
from .subspace import (DEFAULT_ENTRY_BOUND, Subspace, random_subspace_rng, span,
                       subspace_from_json, subspace_to_json)

COUNTEREXAMPLE = "counterexample_found"
NO_COUNTEREXAMPLE = "no_counterexample"

DEFAULT_TRIALS = 1000


class InconclusiveSearchError(RuntimeError):
    """Kept for import compatibility only: nothing raises it.

    ``separate_dims`` builds its counterexample directly, so no search can
    run out of budget.
    """


@dataclass(frozen=True)
class Verdict:
    """Outcome of one batch of evaluations of an equation."""

    status: str
    equation: Equation
    ambient_dim: int
    trials_run: int
    seed: int
    witness: Optional[Assignment] = None
    witness_gap: Optional[tuple[Subspace, Subspace]] = None

    def __post_init__(self):
        if self.status not in (COUNTEREXAMPLE, NO_COUNTEREXAMPLE):
            raise ValueError(f"unknown verdict status {self.status!r}")
        if (self.status == COUNTEREXAMPLE) != (self.witness is not None):
            raise ValueError("witness must be present iff a counterexample was found")
        if (self.witness is None) != (self.witness_gap is None):
            raise ValueError("witness and witness_gap must be present together")


@dataclass(frozen=True)
class SeparationCertificate:
    """An equation that holds at the low dimension and fails at the high one."""

    low_dim: int
    high_dim: int
    separator: Equation
    holds_evidence: Verdict
    fails_witness: Verdict

    def __post_init__(self):
        if not self.low_dim < self.high_dim:
            raise ValueError("low_dim must be strictly below high_dim")
        if self.fails_witness.status != COUNTEREXAMPLE:
            raise ValueError("fails_witness must carry a counterexample")
        if self.holds_evidence.status != NO_COUNTEREXAMPLE:
            raise ValueError("holds_evidence must report no counterexample")


def _coerce_equation(eq) -> Equation:
    # A bare formula is read as the tautology claim "formula = 1".
    if isinstance(eq, Formula):
        return Equation(eq, ONE, "=")
    if isinstance(eq, Equation):
        return eq
    raise TypeError(f"expected an Equation or Formula, got {type(eq).__name__}")


def _trial_rng(seed: int, trial: int) -> random.Random:
    return random.Random(seed * 2147483647 + trial)


def _draw_assignment(eq_vars: Sequence[str], ambient: int, seed: int, trial: int,
                     entry_bound: int) -> Assignment:
    rng = _trial_rng(seed, trial)
    subs = {}
    for name in eq_vars:
        d = rng.randint(0, ambient)
        subs[name] = random_subspace_rng(rng, ambient, d, entry_bound)
    return Assignment(subs, ambient)


def falsify(eq, ambient_dim: int, trials: int = DEFAULT_TRIALS, seed: int = 0, *,
            entry_bound: int = DEFAULT_ENTRY_BOUND,
            audit: Optional[Callable[..., None]] = None) -> Verdict:
    """Hunt for a counterexample over seeded random assignments.

    Trials run in order and stop at the first failure. Subspace dimensions
    are drawn uniformly over 0..ambient and entries are Gaussian integers
    with real and imaginary parts in -entry_bound..entry_bound.
    Deterministic given (equation, ambient, trials, seed, entry_bound):
    trial k always sees the same assignment.

    ``audit(assignment, lhs, rhs)`` runs after every trial; a hook that takes
    a ``nodes`` keyword also gets ``{id(node): value}`` for both sides, so it
    need not evaluate again.
    """
    eq = _coerce_equation(eq)
    if trials < 1:
        raise ValueError("at least one trial is required")
    if ambient_dim < 1:
        raise ValueError("ambient dimension must be at least 1")
    if entry_bound < 1:
        raise ValueError("entry bound must be at least 1")
    eq_vars = tuple(sorted(free_vars(eq)))
    with_nodes = audit is not None and "nodes" in inspect.signature(audit).parameters
    for t in range(trials):
        a = _draw_assignment(eq_vars, ambient_dim, seed, t, entry_bound)
        if with_nodes:
            nodes = {}
            holds, lv, rv = evaluate_equation(eq, a, nodes)
            audit(a, lv, rv, nodes=nodes)
        else:
            holds, lv, rv = evaluate_equation(eq, a)
            if audit is not None:
                audit(a, lv, rv)
        if not holds:
            return Verdict(COUNTEREXAMPLE, eq, ambient_dim, t + 1, seed, a, (lv, rv))
    return Verdict(NO_COUNTEREXAMPLE, eq, ambient_dim, trials, seed)


# ---------------------------------------------------------------------------
# Structured witnesses


def _half_split_triple(rows: list, ambient: int) -> tuple[Subspace, Subspace, Subspace]:
    """From an even list of independent vectors build the standard triple.

    p spans the first half, q the second half, r the diagonal sums; the three
    are pairwise trivially intersecting subspaces of half the spanned
    dimension.
    """
    cnt = len(rows)
    if cnt % 2 != 0 or cnt == 0:
        raise ValueError("an even, nonempty set of vectors is required")
    h = cnt // 2
    p = span(rows[:h], ambient)
    q = span(rows[h:], ambient)
    r = span([[a + b for a, b in zip(rows[i], rows[h + i])] for i in range(h)], ambient)
    return p, q, r


def structured_alpha_witness(ambient_dim: int) -> Assignment:
    """The standard half-dimension triple on which the distribution test
    formula evaluates to a subspace of dimension exactly ambient/2.

    p and q span complementary halves of the standard basis and r the
    diagonal; all pairwise meets are trivial. Requires an even dimension.
    """
    if ambient_dim < 2 or ambient_dim % 2 != 0:
        raise ValueError("ambient dimension must be even and at least 2")
    basis = [[int(j == i) for j in range(ambient_dim)] for i in range(ambient_dim)]
    p, q, r = _half_split_triple(basis, ambient_dim)
    a = Assignment({"p": p, "q": q, "r": r}, ambient_dim)
    h = ambient_dim // 2
    if p.meet(q).dim or p.meet(r).dim or q.meet(r).dim:
        raise RuntimeError("structured triple has a nontrivial pairwise meet")
    if evaluate(alpha(), a).dim != h:
        raise RuntimeError("structured triple failed the half-dimension check")
    return a


def qubit_alpha_separator(n: int, trials: int = DEFAULT_TRIALS, seed: int = 0,
                          entry_bound: int = DEFAULT_ENTRY_BOUND) -> SeparationCertificate:
    """Separate the logics of C^(2^n) and C^(2^(n+1)) by the iterated test
    formula: level n+1 vanishes identically at the low dimension and a
    closed-form witness gives it dimension exactly 1 at the high one.

    Each of the ``trials`` sampled evaluations (default ``DEFAULT_TRIALS``) is
    audited against the per-level bound dim(level k) <= low / 2^k. Triple k
    halves the last high/2^(k-1) coordinates into p_k, q_k and their diagonal
    r_k; within their span q_k & r_k = 0 and p_k | r_k is everything, so
    level k is q_k. One evaluation of level n+1 yields, and checks, every level.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    low, high = 2 ** n, 2 ** (n + 1)
    levels = alpha_levels(n + 1)
    separator = Equation(levels[-1], ZERO, "=")

    def _audit(assignment: Assignment, lv: Subspace, rv: Subspace, nodes: dict):
        for k, lvl in enumerate(levels, start=1):
            val = nodes[id(lvl)]
            if val.dim * (2 ** k) > assignment.ambient:
                raise RuntimeError(
                    f"level-{k} dimension bound violated: dim {val.dim} in "
                    f"C^{assignment.ambient}")

    holds = falsify(separator, low, trials, seed, entry_bound=entry_bound, audit=_audit)
    if holds.status != NO_COUNTEREXAMPLE:
        raise RuntimeError(
            f"iterated test formula unexpectedly failed in C^{low}; this is a bug")

    units = [[int(j == i) for j in range(high)] for i in range(high)]
    subs: dict[str, Subspace] = {}
    for k in range(1, n + 2):
        block = units[high - high // 2 ** (k - 1):]
        subs[f"p{k}"], subs[f"q{k}"], subs[f"r{k}"] = _half_split_triple(block, high)
    assignment = Assignment(subs, high)
    value, nodes = evaluate_with_cache(levels[-1], assignment)
    for k, lvl in enumerate(levels, start=1):
        if nodes[id(lvl)] != subs[f"q{k}"]:
            raise RuntimeError(f"witness level {k} is not q{k}, the span of the "
                               f"last {high // 2 ** k} coordinates")
    fails = Verdict(COUNTEREXAMPLE, separator, high, 1, seed, assignment,
                    (value, Subspace.zero(high)))
    return SeparationCertificate(low, high, separator, holds, fails)


def huhn_witness(m: int, n: int) -> Assignment:
    """The assignment in C^n (n > m) on which the m-distributive law fails.

    y_i = span(e_i) for i = 0..m and x = span(e_0 + ... + e_m). The left side
    x & (y0 | ... | ym) is x itself, while every right-hand term
    x & (join of all y_i but one) is 0: x has a nonzero coordinate at the
    missing index.
    """
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    subs = {f"y{i}": span([[int(j == i) for j in range(n)]], n) for i in range(m + 1)}
    subs["x"] = span([[int(j <= m) for j in range(n)]], n)
    return Assignment(subs, n)


def separate_dims(m: int, n: int, seed: int = 0, holds_trials: int = DEFAULT_TRIALS,
                  budgets: Optional[Sequence[int]] = None,
                  entry_bound: int = DEFAULT_ENTRY_BOUND) -> SeparationCertificate:
    """Separate C^m from C^n (m < n) with the m-distributive law.

    Evidence at dimension m comes from ``holds_trials`` seeded samples (default
    ``DEFAULT_TRIALS``); the counterexample at dimension n, ``huhn_witness(m, n)``,
    is evaluated once. ``budgets`` is kept for compatibility and ignored.
    """
    witness = huhn_witness(m, n)
    separator = m_distributive(m)
    holds = falsify(separator, m, holds_trials, seed, entry_bound=entry_bound)
    if holds.status != NO_COUNTEREXAMPLE:
        raise RuntimeError(
            f"the {m}-distributive law unexpectedly failed in C^{m}; this is a bug")
    _, lv, rv = evaluate_equation(separator, witness)
    if (lv.dim, rv.dim) != (1, 0):
        raise RuntimeError(f"Huhn witness in C^{n} has sides of dims {lv.dim} and "
                           f"{rv.dim}, expected 1 and 0")
    fails = Verdict(COUNTEREXAMPLE, separator, n, 1, seed, witness, (lv, rv))
    return SeparationCertificate(m, n, separator, holds, fails)


def embed_assignment(a: Assignment, factor_dim: int, side: str = "right") -> Assignment:
    return Assignment({name: s.tensor_embed(factor_dim, side) for name, s in a.items()},
                      a.ambient * factor_dim)


def lift_counterexample(v: Verdict, factor_dim: int) -> Verdict:
    """Tensor-embed a counterexample into a larger dimension.

    Embedding is a lattice homomorphism, so the re-evaluated gap is exactly
    the embedded gap and the lift always stays a counterexample.
    """
    if v.status != COUNTEREXAMPLE:
        raise ValueError("only counterexample verdicts can be lifted")
    lifted = embed_assignment(v.witness, factor_dim)
    holds, lv, rv = evaluate_equation(v.equation, lifted)
    if holds:
        raise RuntimeError("lifted witness no longer violates the equation; this is a bug")
    return Verdict(COUNTEREXAMPLE, v.equation, v.ambient_dim * factor_dim,
                   v.trials_run, v.seed, lifted, (lv, rv))


# ---------------------------------------------------------------------------
# Invariant audit


def audit_invariants(assignment, ambient_dim: int | None = None) -> dict:
    """Run the full invariant battery at one assignment.

    Checks the ortholattice laws per variable, De Morgan / valuation /
    equality-lemma per pair, and, when p, q, r are all bound, the containment
    and dimension bounds of the distribution test formula. Returns a JSON-able
    report with one entry per check and exact values in the details.
    """
    a = _coerce_assignment(assignment, ambient_dim)
    amb = a.ambient
    top = Subspace.full(amb)
    bot = Subspace.zero(amb)
    checks: list[dict] = []

    def record(name: str, ok: bool, detail: str = ""):
        checks.append({"name": name, "pass": bool(ok), "detail": detail})

    names = sorted(a.subspaces)
    for v in names:
        p = a[v]
        record(f"double_ortho[{v}]", p.ortho().ortho() == p)
        record(f"excluded_middle[{v}]", p.join(p.ortho()) == top)
        record(f"non_contradiction[{v}]", p.meet(p.ortho()) == bot)
    for i, v in enumerate(names):
        for w in names[i + 1:]:
            p, q = a[v], a[w]
            mt, jn = p.meet(q), p.join(q)
            record(f"de_morgan_and[{v},{w}]", mt.ortho() == p.ortho().join(q.ortho()))
            record(f"de_morgan_or[{v},{w}]", jn.ortho() == p.ortho().meet(q.ortho()))
            record(f"valuation[{v},{w}]",
                   p.dim + q.dim == jn.dim + mt.dim,
                   f"dim {p.dim}+{q.dim} vs {jn.dim}+{mt.dim}")
            gap = jn.meet(p.ortho().join(q.ortho()))
            record(f"equality_lemma[{v},{w}]", (p == q) == (gap == bot),
                   f"gap dim {gap.dim}")
            record(f"order_inverting[{v},{w}]",
                   not p.leq(q) or q.ortho().leq(p.ortho()))
    if all(k in a for k in ("p", "q", "r")):
        aval = evaluate(alpha(), a)
        p = a["p"]
        record("alpha_in_ortho_p", aval.leq(p.ortho()), f"alpha dim {aval.dim}")
        record("alpha_dim_le_dim_p", aval.dim <= p.dim,
               f"{aval.dim} <= {p.dim}")
        record("alpha_dim_le_codim_p", aval.dim <= amb - p.dim,
               f"{aval.dim} <= {amb - p.dim}")
    return {
        "ambient": amb,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }


# ---------------------------------------------------------------------------
# JSON reports


def verdict_to_json(v: Verdict) -> dict:
    out = {
        "status": v.status,
        "equation": to_source(v.equation),
        "ambient": v.ambient_dim,
        "trials": v.trials_run,
        "seed": v.seed,
        "witness": None,
        "gap": None,
    }
    if v.witness is not None:
        out["witness"] = assignment_to_json(v.witness)
        lv, rv = v.witness_gap
        out["gap"] = {"lhs": subspace_to_json(lv), "rhs": subspace_to_json(rv)}
    return out


def verdict_from_json(obj: dict) -> Verdict:
    try:
        text = obj["equation"]
        if not isinstance(text, str):
            raise ValueError(f"verdict equation must be a string, got {text!r}")
        ambient, trials, seed = (int_from_json(obj[k], k) for k in ("ambient", "trials", "seed"))
        witness = gap = None
        if obj.get("witness") is not None:
            witness = assignment_from_json(obj["witness"], ambient)
            gap = (subspace_from_json(obj["gap"]["lhs"]), subspace_from_json(obj["gap"]["rhs"]))
        return Verdict(obj["status"], _coerce_equation(parse(text)), ambient, trials, seed,
                       witness, gap)
    except KeyError as exc:
        raise ValueError(f"verdict JSON is missing the key {exc}") from None


def certificate_to_json(c: SeparationCertificate) -> dict:
    return {
        "low_dim": c.low_dim,
        "high_dim": c.high_dim,
        "separator": to_source(c.separator),
        "holds_evidence": verdict_to_json(c.holds_evidence),
        "fails_witness": verdict_to_json(c.fails_witness),
    }
