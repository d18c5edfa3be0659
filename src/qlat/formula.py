"""Propositional formulas over the subspace lattice.

Connectives are meet (&), join (|) and orthocomplement (~), plus the bounds
0 and 1. Formulas are immutable DAGs with one node per distinct formula
(hash-consing), so ``==`` is identity, and generated families (the iterated
distribution test formula, the m-distributive law) and parsed text alike
share subformulas: ``parse(to_source(f)) is f``.

Every walk is one pass over a ``Plan``: the distinct nodes of one or more
formulas in topological order, built by an explicit-stack walk, so no formula
depth reaches the recursion limit. Evaluation, printing, ``free_vars``,
``to_nnf`` and ``restrict`` each fill one list per plan position, so they
visit each distinct node once and map a shared input node to one shared
output node. An equation's walks run one plan over both sides; a search
builds it once and runs it at every trial (``run_equation``).

Concrete syntax (whitespace insignificant; unicode aliases on input only):

    equation := formula (("=" | "<=") formula)?
    formula  := conj { "|" conj }
    conj     := atom { "&" atom }
    atom     := "~" atom | "0" | "1" | ident | "(" formula ")"
    ident    := letter { letter | digit | "_" }

``_BINARY`` states the binary connectives once: ``formula`` and ``conj`` are
one parser rule over its rows; ``to_source`` and ``Plan`` read it too.

Parsed text may nest at most ``MAX_PARSE_DEPTH`` levels: each connective and
each parenthesized group is one level. Deeper text is a ``ParseError``, so
the recursive-descent parser cannot exhaust the stack.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterator, Mapping, Union

from .subspace import Subspace, subspace_from_json, subspace_to_json


class Formula:
    """A formula node, hash-consed: constructing a node returns the one live
    node of its class with the same parts (a name, or the same child
    objects), so equal formulas are one object and ``==`` and ``hash`` are
    identity. ``copy``, ``deepcopy`` and pickle rebuild through the
    constructor. Like the rest of qlat, construction is single-threaded."""

    __slots__ = ("__weakref__",)

    def __new__(cls, *parts, **named):
        if named:
            parts += tuple(named[k] for k in cls.__match_args__[len(parts):] if k in named)
        return _NODES.setdefault((cls, *parts), super().__new__(cls))

    def __reduce__(self):
        return type(self), tuple(getattr(self, k) for k in self.__match_args__)

    def __repr__(self):
        """The dataclass text, ``And(left=Var(name='x'), right=...)``, written
        by one explicit-stack walk, so a formula of any depth prints."""
        out, stack = [], [self]
        while stack:
            item = stack.pop()
            if type(item) is str:
                out.append(item)
                continue
            todo = [f"{type(item).__name__}("]
            for i, k in enumerate(item.__match_args__):
                part, sep = getattr(item, k), ", " if i else ""
                todo += [f"{sep}{k}=", part if isinstance(part, Formula) else repr(part)]
            stack += reversed(todo + [")"])
        return "".join(out)


# The live nodes by class and parts. A key holds only its node's own
# children, and an entry goes with its node, so the table keeps no node alive.
_NODES = weakref.WeakValueDictionary()


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Var(Formula):
    name: str


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Zero(Formula):
    pass


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class One(Formula):
    pass


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Not(Formula):
    child: Formula


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Or(Formula):
    left: Formula
    right: Formula


ZERO = Zero()
ONE = One()

_VAR, _ZERO, _ONE, _NOT, _AND, _OR = range(6)

# The binary connectives, loosest first: token, node class, plan opcode. A
# row's index is its binding strength; ~ and the atoms bind tighter than all.
_BINARY = (("|", Or, _OR), ("&", And, _AND))
_OPCODE = {cls: op for _, cls, op in _BINARY}
_STRENGTH = {op: row for row, (_, _, op) in enumerate(_BINARY)}


@dataclass(frozen=True, slots=True)
class Equation:
    """lhs = rhs, or lhs <= rhs (decided by containment, ``lv.leq(rv)``)."""
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
_ONE_CHAR = "".join(token for token, _, _ in _BINARY) + "~()01="

MAX_PARSE_DEPTH = 128  # the deepest separator at size cap 16 (`separate 8 16`) has 44


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    text = text.translate(_ALIASES)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _ONE_CHAR:
            yield (c, c, i)
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

    def formula(self, row: int = 0) -> tuple[Formula, int]:
        """A left-associative chain of ``_BINARY[row]`` over the rows that
        bind tighter; past the last row, an atom."""
        if row == len(_BINARY):
            return self.atom()
        token, cls, _ = _BINARY[row]
        node, depth = self.formula(row + 1)
        while self.peek()[0] == token:
            at = self.take()[2]
            right, rdepth = self.formula(row + 1)
            node, depth = cls(node, right), 1 + (depth if depth > rdepth else rdepth)
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
        if kind == "end":
            raise ParseError("unexpected end of input", at)
        raise ParseError(f"unexpected token {value!r}", at)


def parse(text: str) -> Union[Formula, Equation]:
    """Parse a formula, or an equation when '=' / '<=' is present."""
    p = _Parser(text)
    lhs, _ = p.formula()
    kind, value, at = p.peek()
    if kind in ("=", "<="):
        p.take()
        rhs, _ = p.formula()
        kind2, value2, at2 = p.peek()
        if kind2 != "end":
            raise ParseError(f"unexpected token {value2!r} after equation", at2)
        return Equation(lhs, rhs, kind)
    if kind != "end":
        raise ParseError(f"unexpected token {value!r} after formula", at)
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


class Plan:
    """The walk of one or more formulas: ``nodes``, their distinct nodes in
    topological order, children first; ``steps``, per node its opcode and a
    variable's name or its children's positions; ``roots``, the positions of
    the given formulas; and ``variables``, their sorted variable names.

    An explicit-stack walk, left child before right, builds it, so its order
    is that of a memoized recursive walk and no formula depth reaches the
    recursion limit. It holds nodes, names and integers only, so it makes no
    reference cycle. Build it once and ``run`` it at each assignment; the
    printer and the rewrites loop over its ``steps`` the same way.
    """

    __slots__ = ("nodes", "steps", "roots", "variables")

    def __init__(self, *roots: Formula):
        pos: dict[int, int] = {}
        nodes: list[Formula] = []
        steps: list[tuple] = []
        for root in roots:
            stack = [root]
            while stack:
                n = stack[-1]
                if id(n) in pos:
                    stack.pop()
                    continue
                t = type(n)
                kids = (n.left, n.right) if t in _OPCODE else (n.child,) if t is Not else ()
                todo = [k for k in kids if id(k) not in pos]
                if todo:
                    stack.extend(reversed(todo))
                    continue
                stack.pop()
                if t is Var:
                    step = (_VAR, n.name, None)
                elif t is Zero or t is One:
                    step = (_ZERO if t is Zero else _ONE, None, None)
                elif t is Not:
                    step = (_NOT, pos[id(n.child)], None)
                elif t in _OPCODE:
                    step = (_OPCODE[t], pos[id(n.left)], pos[id(n.right)])
                else:
                    raise TypeError(f"not a formula node: {t.__name__}")
                pos[id(n)] = len(nodes)
                nodes.append(n)
                steps.append(step)
        self.nodes, self.steps = nodes, steps
        self.roots = tuple(pos[id(r)] for r in roots)
        self.variables = tuple(sorted({n.name for n in nodes if type(n) is Var}))

    def run(self, assignment) -> list[Subspace]:
        """The value of every node, in plan order: & is meet, | is join, ~ is
        orthocomplement, 0 and 1 are the bottom and top subspaces."""
        a = _coerce_assignment(assignment)
        subs, n = a.subspaces, a.ambient
        vals: list[Subspace] = []
        put = vals.append
        for op, x, y in self.steps:
            if op == _AND:
                put(vals[x].meet(vals[y]))
            elif op == _OR:
                put(vals[x].join(vals[y]))
            elif op == _NOT:
                put(vals[x].ortho())
            elif op == _VAR:
                try:
                    put(subs[x])
                except KeyError:
                    raise UnboundVariableError(x) from None
            else:
                put(Subspace.zero(n) if op == _ZERO else Subspace.full(n))
        return vals


def evaluate_with_cache(f: Formula, assignment) -> tuple[Subspace, dict[int, Subspace]]:
    """Evaluate by one ``Plan`` and return the per-node value cache (keyed by
    node id). Shared nodes are evaluated once."""
    plan = Plan(f)
    vals = plan.run(assignment)
    return vals[-1], dict(zip(map(id, plan.nodes), vals))


def evaluate(f: Formula, assignment) -> Subspace:
    return Plan(f).run(assignment)[-1]


def evaluate_equation(eq: Equation, assignment,
                      nodes: dict | None = None) -> tuple[bool, Subspace, Subspace]:
    """Check an equation at an assignment; returns (holds, lhs_value, rhs_value).

    s <= t is decided exactly by containment, ``s.leq(t)``. A ``nodes`` dict
    receives the value of every node of both sides, keyed by node id.
    """
    return run_equation(eq, Plan(eq.lhs, eq.rhs), assignment, nodes)


def run_equation(eq: Equation, plan: Plan, assignment,
                 nodes: dict | None = None) -> tuple[bool, Subspace, Subspace]:
    """``evaluate_equation`` by ``plan = Plan(eq.lhs, eq.rhs)``, built once,
    so a search over many assignments walks the formula once."""
    vals = plan.run(assignment)
    if nodes is not None:
        nodes.update(zip(map(id, plan.nodes), vals))
    lv, rv = vals[plan.roots[0]], vals[plan.roots[1]]
    return (lv == rv if eq.relation == "=" else lv.leq(rv)), lv, rv


# ---------------------------------------------------------------------------
# Printing and variables


def _plan_of(node: Union[Formula, Equation]) -> Plan:
    return Plan(node.lhs, node.rhs) if isinstance(node, Equation) else Plan(node)


def to_source(node: Union[Formula, Equation]) -> str:
    """Minimal-parenthesization source text; parse(to_source(f)) is f."""
    plan = _plan_of(node)
    steps = plan.steps
    texts: list[str] = []
    for op, x, y in steps:
        if op == _VAR:
            text = x
        elif op == _ZERO or op == _ONE:
            text = "0" if op == _ZERO else "1"
        elif op == _NOT:
            text = f"~({texts[x]})" if steps[x][0] in _STRENGTH else f"~{texts[x]}"
        else:
            p = _STRENGTH[op]
            left, right = texts[x], texts[y]
            if _STRENGTH.get(steps[x][0], p + 1) < p:
                left = f"({left})"
            if _STRENGTH.get(steps[y][0], p + 1) <= p:
                right = f"({right})"
            text = f"{left} {_BINARY[p][0]} {right}"
        texts.append(text)
    if isinstance(node, Equation):
        return f"{texts[plan.roots[0]]} {node.relation} {texts[plan.roots[1]]}"
    return texts[-1]


def free_vars(node: Union[Formula, Equation]) -> set[str]:
    return set(_plan_of(node).variables)


# ---------------------------------------------------------------------------
# Normal form and restriction


def to_nnf(f: Formula) -> Formula:
    """Push all negations onto variables; ~~x and negated constants simplify.

    The result is semantically equal under every evaluation (the lattice
    satisfies De Morgan and double negation). Each node of ``f`` has one
    output node per polarity: the NNF of the node and that of its negation.
    """
    plan = Plan(f)
    pos: list[Formula] = []
    neg: list[Formula] = []
    for n, (op, x, y) in zip(plan.nodes, plan.steps):
        if op == _NOT:
            p, m = neg[x], pos[x]
        elif op == _AND:
            p, m = And(pos[x], pos[y]), Or(neg[x], neg[y])
        elif op == _OR:
            p, m = Or(pos[x], pos[y]), And(neg[x], neg[y])
        elif op == _VAR:
            p, m = n, Not(n)
        else:
            p, m = n, ONE if op == _ZERO else ZERO
        pos.append(p)
        neg.append(m)
    return pos[-1]


def restrict(f: Formula, beta: Formula) -> Formula:
    """Relativize ``f`` to live inside ``beta``.

    After normalizing ``f``, each variable u becomes u & beta and each negated
    variable ~u becomes ~(u & beta) & beta, the complement within beta. The
    constant 1 restricts to beta and 0 to 0, which keeps the evaluation of the
    result contained in the evaluation of beta unconditionally.
    """
    plan = Plan(to_nnf(f))
    outs: list[Formula] = []
    for n, (op, x, y) in zip(plan.nodes, plan.steps):
        if op == _VAR:
            out = And(n, beta)
        elif op == _NOT:
            out = And(Not(outs[x]), beta)
        elif op == _ONE:
            out = beta
        elif op == _ZERO:
            out = n
        else:
            out = type(n)(outs[x], outs[y])
        outs.append(out)
    return outs[-1]


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
