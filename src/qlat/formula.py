"""Propositional formulas over the subspace lattice.

Connectives are meet (&), join (|) and orthocomplement (~), plus the bounds
0 and 1. Formulas are immutable DAGs: generated families (the distribution
test formula, its iterates, the m-distributive law) share subformulas. Every
walk memoizes on node identity, so it visits each distinct node once and maps
a shared input node to one shared output node.

Concrete syntax (whitespace insignificant; unicode aliases on input only):

    equation := formula (("=" | "<=") formula)?
    formula  := conj { "|" conj }
    conj     := atom { "&" atom }
    atom     := "~" atom | "0" | "1" | ident | "(" formula ")"
    ident    := letter { letter | digit | "_" }

Parsed text may nest at most ``MAX_PARSE_DEPTH`` levels: each connective and
each parenthesized group is one level. Deeper text is a ``ParseError``, so
no recursive walk over a parsed formula can exhaust the stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Union

from .subspace import Subspace, subspace_from_json, subspace_to_json


class Formula:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Var(Formula):
    name: str


@dataclass(frozen=True, slots=True)
class Zero(Formula):
    pass


@dataclass(frozen=True, slots=True)
class One(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


ZERO = Zero()
ONE = One()


@dataclass(frozen=True, slots=True)
class Equation:
    """lhs = rhs, or lhs <= rhs (sugar: s <= t is checked as s & t = s)."""
    lhs: Formula
    rhs: Formula
    relation: str = "="

    def __post_init__(self):
        if self.relation not in ("=", "<="):
            raise ValueError(f"relation must be '=' or '<=', got {self.relation!r}")


class ParseError(ValueError):
    """Syntax error with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnboundVariableError(ValueError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable: {name}")
        self.name = name


# ---------------------------------------------------------------------------
# Parsing


_ALIASES = str.maketrans({"∧": "&", "∨": "|", "¬": "~"})

MAX_PARSE_DEPTH = 128  # the deepest separator at size cap 16 (`separate 8 16`) has 44


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    text = text.translate(_ALIASES)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "&|~()01":
            yield (c, c, i)
            i += 1
        elif c == "=":
            yield ("=", "=", i)
            i += 1
        elif c == "<":
            if i + 1 < n and text[i + 1] == "=":
                yield ("<=", "<=", i)
                i += 2
            else:
                raise ParseError("expected '<='", i)
        elif c.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield ("ident", text[i:j], i)
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    yield ("end", "", n)


class _Parser:
    def __init__(self, text: str):
        if not text.strip():
            raise ParseError("empty input", 0)
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.open = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    # Each rule returns (node, depth). ``self.open`` counts the groups and
    # negations still open, a lower bound on the final depth, so text nested
    # too deeply is refused before it can overflow the parser's own stack.

    def too_deep(self, at: int) -> ParseError:
        return ParseError(f"formula nested deeper than {MAX_PARSE_DEPTH} levels", at)

    def formula(self) -> tuple[Formula, int]:
        node, depth = self.conj()
        while self.peek()[0] == "|":
            at = self.take()[2]
            right, rdepth = self.conj()
            node, depth = Or(node, right), 1 + (depth if depth > rdepth else rdepth)
            if depth > MAX_PARSE_DEPTH:
                raise self.too_deep(at)
        return node, depth

    def conj(self) -> tuple[Formula, int]:
        node, depth = self.atom()
        while self.peek()[0] == "&":
            at = self.take()[2]
            right, rdepth = self.atom()
            node, depth = And(node, right), 1 + (depth if depth > rdepth else rdepth)
            if depth > MAX_PARSE_DEPTH:
                raise self.too_deep(at)
        return node, depth

    def atom(self) -> tuple[Formula, int]:
        kind, value, at = self.take()
        if kind == "ident":
            return Var(value), 0
        if kind in ("~", "("):
            self.open += 1
            if self.open > MAX_PARSE_DEPTH:
                raise self.too_deep(at)
            if kind == "~":
                node, depth = self.atom()
                node = Not(node)
            else:
                node, depth = self.formula()
                kind2, _, at2 = self.take()
                if kind2 != ")":
                    raise ParseError("unbalanced parentheses: expected ')'", at2)
            self.open -= 1
            if depth >= MAX_PARSE_DEPTH:
                raise self.too_deep(at)
            return node, depth + 1
        if kind == "0":
            return ZERO, 0
        if kind == "1":
            return ONE, 0
        if kind == ")":
            raise ParseError("unbalanced parentheses: unexpected ')'", at)
        raise ParseError(f"unexpected token {value!r}", at)


def parse(text: str) -> Union[Formula, Equation]:
    """Parse a formula, or an equation when '=' / '<=' is present."""
    p = _Parser(text)
    lhs, _ = p.formula()
    kind, _, at = p.peek()
    if kind in ("=", "<="):
        p.take()
        rhs, _ = p.formula()
        kind2, value2, at2 = p.peek()
        if kind2 != "end":
            raise ParseError(f"unexpected token {value2!r} after equation", at2)
        return Equation(lhs, rhs, kind)
    if kind != "end":
        raise ParseError(f"unexpected token after formula", at)
    return lhs


def parse_formula(text: str) -> Formula:
    node = parse(text)
    if isinstance(node, Equation):
        raise ParseError("expected a formula, found an equation", 0)
    return node


def parse_equation(text: str) -> Equation:
    node = parse(text)
    if not isinstance(node, Equation):
        raise ParseError("expected an equation ('=' or '<=')", 0)
    return node


# ---------------------------------------------------------------------------
# Printing

_PREC = {Or: 1, And: 2, Not: 3}


def _prec(node: Formula) -> int:
    return _PREC.get(type(node), 4)


def to_source(node: Union[Formula, Equation]) -> str:
    """Minimal-parenthesization source text; parse(to_source(f)) == f."""
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
        text = f"~({inner})" if _prec(n.child) < 3 else f"~{inner}"
    else:
        op, p = ("&", 2) if t is And else ("|", 1)
        left, right = _source(n.left, memo), _source(n.right, memo)
        if _prec(n.left) < p:
            left = f"({left})"
        if _prec(n.right) <= p:
            right = f"({right})"
        text = f"{left} {op} {right}"
    memo[id(n)] = text
    return text


def free_vars(node: Union[Formula, Equation]) -> set[str]:
    names: set[str] = set()
    seen: set[int] = set()
    for side in (node.lhs, node.rhs) if isinstance(node, Equation) else (node,):
        _collect_vars(side, names, seen)
    return names


def _collect_vars(n: Formula, names: set[str], seen: set[int]) -> None:
    if id(n) in seen:
        return
    seen.add(id(n))
    t = type(n)
    if t is Var:
        names.add(n.name)
    elif t is Not:
        _collect_vars(n.child, names, seen)
    elif t is And or t is Or:
        _collect_vars(n.left, names, seen)
        _collect_vars(n.right, names, seen)


# ---------------------------------------------------------------------------
# Normal form and restriction


def to_nnf(f: Formula) -> Formula:
    """Push all negations onto variables; ~~x and negated constants simplify.

    The result is semantically equal under every evaluation (the lattice
    satisfies De Morgan and double negation).
    """
    return _nnf(f, False, {})


def _nnf(n: Formula, negated: bool, memo: dict[tuple[int, bool], Formula]) -> Formula:
    """The NNF of ``~n`` if ``negated``, else of ``n``."""
    key = (id(n), negated)
    out = memo.get(key)
    if out is not None:
        return out
    t = type(n)
    if t is Not:
        out = _nnf(n.child, not negated, memo)
    elif t is And or t is Or:
        if negated:
            t = Or if t is And else And
        out = t(_nnf(n.left, negated, memo), _nnf(n.right, negated, memo))
    elif not negated:
        out = n
    elif t is Var:
        out = Not(n)
    else:
        out = ONE if t is Zero else ZERO
    memo[key] = out
    return out


def restrict(f: Formula, beta: Formula) -> Formula:
    """Relativize ``f`` to live inside ``beta``.

    After normalizing ``f``, each variable u becomes u & beta and each negated
    variable ~u becomes ~(u & beta) & beta, the complement within beta. The
    constant 1 restricts to beta and 0 to 0, which keeps the evaluation of the
    result contained in the evaluation of beta unconditionally. The same
    ``beta`` node is shared at every substitution site, and so is the one
    u & beta node of each variable object.
    """
    return _restrict(to_nnf(f), beta, {})


def _restrict(n: Formula, beta: Formula, memo: dict[int, Formula]) -> Formula:
    out = memo.get(id(n))
    if out is not None:
        return out
    t = type(n)
    if t is Var:
        out = And(n, beta)
    elif t is Not:
        out = And(Not(_restrict(n.child, beta, memo)), beta)
    elif t is One:
        out = beta
    elif t is Zero:
        out = n
    else:
        out = t(_restrict(n.left, beta, memo), _restrict(n.right, beta, memo))
    memo[id(n)] = out
    return out


# ---------------------------------------------------------------------------
# Evaluation


class Assignment:
    """A binding of variable names to subspaces of a common ambient space."""

    __slots__ = ("subspaces", "ambient")

    def __init__(self, subspaces: Mapping[str, Subspace], ambient: int | None = None):
        subs = dict(subspaces)
        if ambient is None:
            if not subs:
                raise ValueError("ambient dimension required for an empty assignment")
            ambient = next(iter(subs.values())).ambient
        for name, s in subs.items():
            if s.ambient != ambient:
                raise ValueError(
                    f"subspace for {name!r} lives in C^{s.ambient}, expected C^{ambient}")
        self.subspaces = subs
        self.ambient = ambient

    def __getitem__(self, name: str) -> Subspace:
        return self.subspaces[name]

    def __contains__(self, name: str) -> bool:
        return name in self.subspaces

    def __iter__(self):
        return iter(sorted(self.subspaces))

    def __len__(self):
        return len(self.subspaces)

    def items(self):
        return [(k, self.subspaces[k]) for k in sorted(self.subspaces)]

    def __eq__(self, other):
        if not isinstance(other, Assignment):
            return NotImplemented
        return self.ambient == other.ambient and self.subspaces == other.subspaces

    def __repr__(self):
        names = ", ".join(f"{k}:dim{v.dim}" for k, v in self.items())
        return f"Assignment(C^{self.ambient}; {names})"


def _coerce_assignment(assignment, ambient=None) -> Assignment:
    if isinstance(assignment, Assignment):
        return assignment
    return Assignment(assignment, ambient)


def evaluate_with_cache(f: Formula, assignment) -> tuple[Subspace, dict[int, Subspace]]:
    """Evaluate and return the per-node value cache (keyed by node id).

    Structural recursion: & is meet, | is join, ~ is orthocomplement, 0 and 1
    are the bottom and top subspaces. Shared nodes are evaluated once.
    """
    cache: dict[int, Subspace] = {}
    return _evaluate(f, _coerce_assignment(assignment), cache), cache


def _evaluate(n: Formula, a: Assignment, cache: dict[int, Subspace]) -> Subspace:
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
        v = _evaluate(n.left, a, cache).meet(_evaluate(n.right, a, cache))
    elif t is Or:
        v = _evaluate(n.left, a, cache).join(_evaluate(n.right, a, cache))
    elif t is Not:
        v = _evaluate(n.child, a, cache).ortho()
    elif t is Zero:
        v = Subspace.zero(a.ambient)
    elif t is One:
        v = Subspace.full(a.ambient)
    else:
        raise TypeError(f"not a formula node: {type(n).__name__}")
    cache[id(n)] = v
    return v


def evaluate(f: Formula, assignment) -> Subspace:
    return evaluate_with_cache(f, assignment)[0]


def evaluate_equation(eq: Equation, assignment,
                      nodes: dict | None = None) -> tuple[bool, Subspace, Subspace]:
    """Check an equation at an assignment; returns (holds, lhs_value, rhs_value).

    s <= t is decided exactly by containment, ``s.leq(t)``. A ``nodes`` dict
    receives the value of every node of both sides, keyed by node id.
    """
    a = _coerce_assignment(assignment)
    lv, lcache = evaluate_with_cache(eq.lhs, a)
    rv, rcache = evaluate_with_cache(eq.rhs, a)
    if nodes is not None:
        nodes.update(lcache)
        nodes.update(rcache)
    if eq.relation == "=":
        return lv == rv, lv, rv
    return lv.leq(rv), lv, rv


# ---------------------------------------------------------------------------
# Generated formulas


def or_all(parts: list[Formula]) -> Formula:
    node = parts[0]
    for p in parts[1:]:
        node = Or(node, p)
    return node


def alpha_of(f1: Formula, f2: Formula, f3: Formula) -> Formula:
    """The distribution test template applied to arbitrary formulas.

    With a = f1 | (f2 & f3) and b = (f1 | f2) & (f1 | f3), builds
    (a | b) & (~a | ~b); it vanishes at an evaluation iff a = b there.
    """
    a = Or(f1, And(f2, f3))
    b = And(Or(f1, f2), Or(f1, f3))
    return And(Or(a, b), Or(Not(a), Not(b)))


def alpha(names: tuple[str, str, str] = ("p", "q", "r")) -> Formula:
    """The distribution test formula over three variables."""
    p, q, r = (Var(n) for n in names)
    return alpha_of(p, q, r)


def alpha_levels(m: int) -> list[Formula]:
    """Level-by-level iterated restrictions of the distribution test formula.

    Level 1 is alpha over (p1, q1, r1); level k relativizes a fresh copy over
    (pk, qk, rk) to the full level k-1 formula. Returned formulas share
    structure, so evaluating the last level also evaluates every earlier one.
    """
    if m < 1:
        raise ValueError("iteration depth must be at least 1")
    levels = [alpha(("p1", "q1", "r1"))]
    for k in range(2, m + 1):
        levels.append(restrict(alpha((f"p{k}", f"q{k}", f"r{k}")), levels[-1]))
    return levels


def alpha_iter(m: int) -> Formula:
    """The m-fold iterated distribution test formula (3m variables)."""
    return alpha_levels(m)[-1]


def m_distributive(m: int) -> Equation:
    """Huhn's m-distributive law over x, y0..ym.

    x & (y0 | ... | ym)  =  OR_i ( x & (OR_{j != i} yj) ).
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    x = Var("x")
    ys = [Var(f"y{i}") for i in range(m + 1)]
    lhs = And(x, or_all(ys))
    terms = [And(x, or_all([ys[j] for j in range(m + 1) if j != i])) for i in range(m + 1)]
    return Equation(lhs, or_all(terms), "=")


_LAW_SOURCES = {
    "distributivity": "x & (y | z) <= (x & y) | (x & z)",
    "modularity": "x & (y | (x & z)) <= (x & y) | z",
    "orthomodularity": "x & (~x | (x & y)) <= y",
    "de_morgan_and": "~(x & y) = ~x | ~y",
    "de_morgan_or": "~(x | y) = ~x & ~y",
    "double_negation": "~~x = x",
    "excluded_middle": "x | ~x = 1",
    "non_contradiction": "x & ~x = 0",
}


def law_names() -> list[str]:
    return sorted(_LAW_SOURCES)


def law(name: str) -> Equation:
    """A named lattice law from the published catalog."""
    try:
        src = _LAW_SOURCES[name]
    except KeyError:
        known = ", ".join(law_names())
        raise ValueError(f"unknown law {name!r}; known laws: {known}") from None
    return parse_equation(src)


def distinctness_formula(names) -> Formula:
    """Nested distribution tests that vanish whenever two lines coincide.

    For names (p, q, r) this is the plain test formula; each further name s
    is folded in through three nested applications pairing the running
    formula with one of the first three names and s:
    g -> alpha(alpha(alpha(g, p, s), q, s), r, s). A nonzero value forces all
    the named lines to be distinct.
    """
    names = list(names)
    if len(names) < 3:
        raise ValueError("at least three variable names are required")
    first = names[:3]
    g = alpha_of(Var(first[0]), Var(first[1]), Var(first[2]))
    for new in names[3:]:
        for w in first:
            g = alpha_of(g, Var(w), Var(new))
    return g


# ---------------------------------------------------------------------------
# Assignment JSON (variable name -> subspace, reusing the subspace schema)


def assignment_to_json(a: Assignment) -> dict:
    return {name: subspace_to_json(s) for name, s in a.items()}


def assignment_from_json(obj, ambient: int | None = None) -> Assignment:
    if not isinstance(obj, dict):
        raise ValueError("assignment JSON must be an object of name -> subspace")
    return Assignment({name: subspace_from_json(val) for name, val in obj.items()}, ambient)
