"""Shared test code: seeded random formulas, shared formula DAGs and
assignments, the former recursive evaluator and printer that the plan walks
are checked against, the per-term ``TLElement`` builder, the two-sided
Wenzl recursion that the Jones-Wenzl expansion is checked against, the former
pairing-based ``compose`` that the involution walk is checked against, the
Fraction-based writers that the integer JSON writers are checked against,
the former draw path that eliminates every draw, which the draw path is
checked against, and the stdlib JSON call that ``cli``'s encoder is checked
against."""

from __future__ import annotations

import json
import random
from fractions import Fraction

from qlat.formula import (And, Assignment, Equation, Formula, Not, ONE, One, Or,
                          UnboundVariableError, Var, ZERO, Zero)
from qlat.linalg import _ff_gauss_jordan, _lowest_terms
from qlat.ratfunc import P_ONE, ip_divexact, ip_gcd, ip_mul
from qlat.search import _trial_rng
from qlat.subspace import REDRAW_CAP, Subspace, random_subspace_rng
from qlat.templieb import PlanarDiagram, TLElement, chebyshev, diagram_generator, include


def random_formula(rng: random.Random, names=("p", "q", "r"), depth: int = 5) -> Formula:
    if depth <= 0:
        roll = rng.random()
        if roll < 0.8:
            return Var(rng.choice(names))
        return ZERO if roll < 0.9 else ONE
    roll = rng.random()
    if roll < 0.3:
        return And(random_formula(rng, names, depth - 1),
                   random_formula(rng, names, depth - 1))
    if roll < 0.6:
        return Or(random_formula(rng, names, depth - 1),
                  random_formula(rng, names, depth - 1))
    if roll < 0.8:
        return Not(random_formula(rng, names, depth - 1))
    if roll < 0.95:
        return Var(rng.choice(names))
    return ZERO if roll < 0.975 else ONE


def random_dag(rng: random.Random, names, size: int) -> list:
    """A pool of formula nodes: a few ``random_formula`` trees, then ``size``
    connectives whose children are drawn from the pool, so nodes are shared."""
    pool = [random_formula(rng, names, depth=rng.randint(0, 3)) for _ in range(3)]
    for _ in range(size):
        roll = rng.random()
        if roll < 0.25:
            pool.append(Not(rng.choice(pool)))
        else:
            pool.append((And if roll < 0.6 else Or)(rng.choice(pool), rng.choice(pool)))
    return pool


def random_assignment(rng: random.Random, names, ambient: int,
                      entry_bound: int = 3) -> Assignment:
    subs = {}
    for name in names:
        dim = rng.randint(0, ambient)
        subs[name] = random_subspace_rng(rng, ambient, dim, entry_bound)
    return Assignment(subs, ambient)


def oracle_evaluate(n: Formula, a: Assignment, cache: dict) -> Subspace:
    """The former ``formula._evaluate``: a recursion per tree level that
    memoizes each node's value in ``cache`` by node id."""
    v = cache.get(id(n))
    if v is not None:
        return v
    t = type(n)
    if t is Var:
        try:
            v = a[n.name]
        except KeyError:
            raise UnboundVariableError(n.name) from None
    elif t is And:
        v = oracle_evaluate(n.left, a, cache).meet(oracle_evaluate(n.right, a, cache))
    elif t is Or:
        v = oracle_evaluate(n.left, a, cache).join(oracle_evaluate(n.right, a, cache))
    elif t is Not:
        v = oracle_evaluate(n.child, a, cache).ortho()
    elif t is Zero:
        v = Subspace.zero(a.ambient)
    elif t is One:
        v = Subspace.full(a.ambient)
    else:
        raise TypeError(f"not a formula node: {type(n).__name__}")
    cache[id(n)] = v
    return v


_SOURCE_PREC = {Or: 1, And: 2, Not: 3}


def oracle_source(node) -> str:
    """The former ``formula.to_source``: a recursion per tree level that
    memoizes each node's text by node id, one memo for both sides of an
    equation."""
    memo: dict[int, str] = {}
    if isinstance(node, Equation):
        return f"{_source(node.lhs, memo)} {node.relation} {_source(node.rhs, memo)}"
    return _source(node, memo)


def _source(n: Formula, memo: dict[int, str]) -> str:
    text = memo.get(id(n))
    if text is not None:
        return text
    t = type(n)
    if t is Var:
        text = n.name
    elif t is Zero:
        text = "0"
    elif t is One:
        text = "1"
    elif t is Not:
        inner = _source(n.child, memo)
        text = f"~({inner})" if _SOURCE_PREC.get(type(n.child), 4) < 3 else f"~{inner}"
    else:
        op, p = ("&", 2) if t is And else ("|", 1)
        left, right = _source(n.left, memo), _source(n.right, memo)
        if _SOURCE_PREC.get(type(n.left), 4) < p:
            left = f"({left})"
        if _SOURCE_PREC.get(type(n.right), 4) <= p:
            right = f"({right})"
        text = f"{left} {op} {right}"
    memo[id(n)] = text
    return text


def tl_from_terms(n: int, terms: dict) -> TLElement:
    """The former ``TLElement`` constructor: ``{diagram: RationalFunction}``
    terms brought, one at a time, over the lcm of their denominators."""
    den = P_ONE
    for c in terms.values():
        den = ip_mul(den, ip_divexact(c.iden, ip_gcd(den, c.iden)))
    return TLElement(n, {d: ip_mul(c.inum, ip_divexact(den, c.iden)) for d, c in terms.items()},
                     den)


def oracle_jones_wenzl(n: int) -> TLElement:
    """The former ``templieb.jones_wenzl`` build, unverified: the Wenzl
    recursion p_n = p' - (D_{n-2}/D_{n-1}) p' U_{n-1} p' with p' the included
    level n - 1, through full ``TLElement`` products."""
    p = TLElement.identity(1)
    for k in range(2, n + 1):
        prev = include(p)
        ratio = chebyshev(k - 2).as_rational_function() / chebyshev(k - 1).as_rational_function()
        p = prev - (prev * diagram_generator(k, k - 1) * prev) * ratio
    return p


def oracle_compose(top: PlanarDiagram, bottom: PlanarDiagram) -> tuple[PlanarDiagram, int]:
    """The former ``templieb.compose``: partner arrays rebuilt from the sorted
    pairings, one walk per half, the result's pairs listed by their smaller
    point and checked by the ``PlanarDiagram`` constructor."""
    n = top.n
    tp, bp = ([0] * (2 * n) for _ in range(2))
    for partner, diag in ((tp, top), (bp, bottom)):
        for a, b in diag.pairing:
            partner[a], partner[b] = b, a
    visited = [False] * n
    seen = [False] * (2 * n)
    pairs = []
    for start in range(2 * n):
        if seen[start]:
            continue
        # diag 0 walks the bottom diagram, diag 1 the top diagram
        diag, pt = (0, start) if start < n else (1, start)
        while True:
            if diag == 0:
                nxt = bp[pt]
                if nxt < n:
                    end = nxt
                    break
                j = nxt - n
                visited[j] = True
                diag, pt = 1, j
            else:
                nxt = tp[pt]
                if nxt >= n:
                    end = nxt
                    break
                visited[nxt] = True
                diag, pt = 0, n + nxt
        seen[start] = seen[end] = True
        pairs.append((start, end))
    loops = 0
    for j in range(n):
        if visited[j]:
            continue
        loops += 1
        cur = j
        while not visited[cur]:
            visited[cur] = True
            j2 = tp[cur]
            visited[j2] = True
            cur = bp[n + j2] - n
    return PlanarDiagram(n, pairs), loops


def json_oracle(obj) -> str:
    """The stdlib text ``--json`` output must equal byte for byte."""
    return json.dumps(obj, indent=2, sort_keys=True)


def fraction_coeffs_to_json(cs) -> list:
    """The former ``coeffs_to_json``: each coefficient boxed as a Fraction."""
    return [[str(Fraction(c).numerator), str(Fraction(c).denominator)] for c in cs]


def fraction_tl_to_json(x) -> dict:
    """The former ``tl_to_json``: each reduced coefficient through its monic
    view, numerator and denominator divided by the leading denominator
    coefficient as Fractions."""
    terms = []
    for diag in sorted(x.terms):
        c = x.terms[diag]
        lead = c.iden[-1]
        num = [Fraction(a, lead) for a in c.inum]
        den = [Fraction(a, lead) for a in c.iden]
        terms.append({
            "pairing": [[a, b] for a, b in diag.pairing],
            "coeff": {"num": fraction_coeffs_to_json(num), "den": fraction_coeffs_to_json(den)},
        })
    return {"n": x.n, "terms": terms}


def fraction_entry_to_json(z) -> list:
    """The former ``entry_to_json``: a GaussianRational's Fraction parts."""
    return [str(z.re.numerator), str(z.re.denominator), str(z.im.numerator), str(z.im.denominator)]


def gauss_jordan_canonical(rows, ncols: int):
    """The former ``_canonical``: every input, one row included, through
    ``_ff_gauss_jordan``, then times the conjugate of the final pivot."""
    piv, (p_re, p_im) = _ff_gauss_jordan(rows, ncols)
    num = [[(a * p_re + b * p_im, b * p_re - a * p_im) for a, b in row]
           for row in rows[:len(piv)]]
    return (*_lowest_terms(num, p_re * p_re + p_im * p_im), tuple(piv))


def oracle_random_subspace_rng(rng: random.Random, ambient: int, dim: int,
                               entry_bound: int = 3) -> Subspace:
    """The former ``random_subspace_rng``: entries through ``randint`` and
    every draw, of dimension 0 and ambient too, eliminated."""
    b = entry_bound
    for _ in range(REDRAW_CAP):
        rows = [[(rng.randint(-b, b), rng.randint(-b, b)) for _ in range(ambient)]
                for _ in range(dim)]
        s = Subspace(ambient, *gauss_jordan_canonical(rows, ambient))
        if s.dim == dim:
            return s
    raise RuntimeError("redraw cap reached")


def oracle_draw_assignment(eq_vars, ambient: int, seed: int, trial: int,
                           entry_bound: int) -> Assignment:
    """The former ``search._draw_assignment``: dimensions through ``randint``."""
    rng = _trial_rng(seed, trial)
    subs = {}
    for name in eq_vars:
        d = rng.randint(0, ambient)
        subs[name] = oracle_random_subspace_rng(rng, ambient, d, entry_bound)
    return Assignment(subs, ambient)
