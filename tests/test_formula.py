"""Formula language: parser, printer, NNF, evaluation, restriction, generators."""

import ast
import copy
import gc
import pickle
import random
import sys
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlat.formula
from helpers import (oracle_evaluate, oracle_source, random_assignment, random_dag,
                     random_formula)
from qlat.formula import (
    MAX_PARSE_DEPTH,
    And,
    Assignment,
    Equation,
    Not,
    ONE,
    Or,
    ParseError,
    Plan,
    UnboundVariableError,
    Var,
    ZERO,
    alpha,
    alpha_iter,
    alpha_levels,
    alpha_of,
    assignment_from_json,
    assignment_to_json,
    distinctness_formula,
    evaluate,
    evaluate_equation,
    evaluate_with_cache,
    free_vars,
    law,
    law_names,
    m_distributive,
    parse,
    parse_equation,
    parse_formula,
    restrict,
    run_equation,
    to_nnf,
    to_source,
)
from qlat.search import falsify, qubit_alpha_separator
from qlat.subspace import Subspace, random_subspace, span

P = span([[1, 0]], 2)
Q = span([[0, 1]], 2)
R = span([[1, 1]], 2)
TRIPLE = Assignment({"p": P, "q": Q, "r": R})


def rename(f, mapping):
    t = type(f)
    if t is Var:
        return Var(mapping.get(f.name, f.name))
    if t in (type(ZERO), type(ONE)):
        return f
    if t is Not:
        return Not(rename(f.child, mapping))
    return t(rename(f.left, mapping), rename(f.right, mapping))


class TestParse:
    def test_precedence(self):
        assert parse("p & (q | r)") == And(Var("p"), Or(Var("q"), Var("r")))
        assert parse("~~p") == Not(Not(Var("p")))
        assert parse("p & q | r") == Or(And(Var("p"), Var("q")), Var("r"))

    def test_associativity(self):
        assert parse("p | q | r") == Or(Or(Var("p"), Var("q")), Var("r"))
        assert parse("p & q & r") == And(And(Var("p"), Var("q")), Var("r"))

    def test_constants_and_idents(self):
        assert parse("0") == ZERO
        assert parse("1") == ONE
        assert parse("x_1") == Var("x_1")

    def test_equations(self):
        eq = parse("p = q")
        assert eq == Equation(Var("p"), Var("q"), "=")
        leq = parse("p <= q")
        assert leq.relation == "<="

    def test_one_leaf_per_name(self):
        eq = parse("p & q = p | ~q")
        assert eq.lhs.left is eq.rhs.left and eq.lhs.right is eq.rhs.right.child
        assert eq.lhs.left is not eq.lhs.right

    def test_unicode_aliases(self):
        assert parse("p ∧ q") == parse("p & q")
        assert parse("p ∨ q") == parse("p | q")
        assert parse("¬p") == parse("~p")

    def test_errors_with_position(self):
        with pytest.raises(ParseError):
            parse("")
        with pytest.raises(ParseError) as e:
            parse("p & ")
        assert e.value.position == 4
        with pytest.raises(ParseError):
            parse("(p & q")
        with pytest.raises(ParseError):
            parse("p )")
        with pytest.raises(ParseError):
            parse("p $ q")
        with pytest.raises(ParseError):
            parse("p = q = r")
        with pytest.raises(ParseError):
            parse_formula("p = q")
        with pytest.raises(ParseError):
            parse_equation("p & q")

    @pytest.mark.parametrize("build, message", [
        (lambda: parse("p < q"), r"expected '<=' \(at position 2\)"),
        (lambda: parse("p & )"), r"unexpected '\)' \(at position 4\)"),
        (lambda: Equation(Var("x"), Var("y"), "<"), "relation must be '=' or '<=', got '<'"),
        (lambda: parse("x &"), r"^unexpected end of input \(at position 3\)$"),
        (lambda: parse("x = "), r"^unexpected end of input \(at position 4\)$"),
        (lambda: parse("~"), r"^unexpected end of input \(at position 1\)$"),
        (lambda: parse("x y"), r"^unexpected token 'y' after formula \(at position 2\)$"),
        (lambda: parse("x = y z"), r"^unexpected token 'z' after equation \(at position 6\)$"),
    ], ids=["lone-less-than", "stray-close", "bad-relation", "truncated-and",
            "truncated-equation", "lone-not", "after-formula", "after-equation"])
    def test_input_guards(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestParseDepth:
    # each connective and each parenthesized group is one level
    M = MAX_PARSE_DEPTH

    @pytest.mark.parametrize("build", [
        lambda k: "~" * k + "x",
        lambda k: "(" * k + "x" + ")" * k,
        lambda k: " | ".join(["x"] * (k + 1)),
        lambda k: " & ".join(["x"] * (k + 1)),
        lambda k: "(" * (k - 2) + "~~x" + ")" * (k - 2),
        lambda k: "(" + " | ".join(["x"] * k) + ")",
    ], ids=["negations", "parentheses", "left-deep-join", "left-deep-meet", "mixed",
            "grouped-join"])
    def test_limit_is_exact(self, build):
        parse(build(self.M))
        with pytest.raises(ParseError, match=f"deeper than {self.M} levels"):
            parse(build(self.M + 1))

    def test_equation_sides_limited(self):
        deep = " | ".join(["x"] * (self.M + 2))
        with pytest.raises(ParseError):
            parse(f"x = {deep}")
        with pytest.raises(ParseError):
            parse(f"{deep} <= x")

    def test_generated_separators_parse(self):
        for eq in (m_distributive(15), Equation(alpha_levels(3)[-1], ZERO, "=")):
            assert parse(to_source(eq)) == eq


class TestPrint:
    def test_examples(self):
        assert to_source(Var("p")) == "p"
        assert to_source(And(Or(Var("p"), Var("q")), Var("r"))) == "(p | q) & r"
        assert to_source(parse("p | (q | r)")) == "p | (q | r)"
        assert to_source(parse("~(p & q)")) == "~(p & q)"

    def test_round_trip_random(self):
        rng = random.Random(17)
        for _ in range(1000):
            f = random_formula(rng, ("p", "q", "r", "s"), depth=rng.randint(0, 8))
            assert parse(to_source(f)) == f

    def test_equation_round_trip(self):
        for name in law_names():
            eq = law(name)
            assert parse(to_source(eq)) == eq


class TestNnf:
    def test_de_morgan(self):
        assert to_nnf(parse("~(p & q)")) == parse("~p | ~q")
        assert to_nnf(parse("~~p")) == Var("p")
        assert to_nnf(parse("~(p | (q & r))")) == parse("~p & (~q | ~r)")

    def test_only_literal_negations(self):
        rng = random.Random(18)

        def check(f):
            t = type(f)
            if t is Not:
                assert type(f.child) is Var
            elif t in (And, Or):
                check(f.left)
                check(f.right)

        for _ in range(200):
            check(to_nnf(random_formula(rng, depth=6)))

    def test_semantics_preserved(self):
        rng = random.Random(19)
        for _ in range(60):
            n = rng.randint(1, 4)
            f = random_formula(rng, depth=5)
            a = random_assignment(rng, ("p", "q", "r"), n)
            assert evaluate(to_nnf(f), a) == evaluate(f, a)


class TestEvaluate:
    def test_excluded_middle(self):
        for p in (P, Q, R):
            assert evaluate(parse("p | ~p"), Assignment({"p": p})).is_full()
            assert evaluate(parse("p & ~p"), Assignment({"p": p})).is_zero()

    def test_distributivity_gap(self):
        lhs = evaluate(parse("p | (q & r)"), TRIPLE)
        rhs = evaluate(parse("(p | q) & (p | r)"), TRIPLE)
        assert lhs == P
        assert rhs.is_full()

    def test_unbound_variable_named(self):
        with pytest.raises(UnboundVariableError) as e:
            evaluate(parse("p & missing"), TRIPLE)
        assert "missing" in str(e.value)

    def test_equation_relations(self):
        holds, _, _ = evaluate_equation(parse_equation("p <= p | q"), TRIPLE)
        assert holds
        holds, lv, rv = evaluate_equation(parse_equation("p = q"), TRIPLE)
        assert not holds and lv == P and rv == Q


def _form(v: Subspace):
    return v.ambient, v.rev, v.den, v.rows, v.piv


class TestEvaluationPlan:
    """The evaluation plan against the former recursive evaluator: the same
    values, in the same orientation, and the same ``{id: value}`` dict."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 25), st.integers(0, 2 ** 32 - 1))
    def test_matches_recursive_oracle(self, n, size, seed):
        rng = random.Random(seed)
        names = ("p", "q", "r")
        pool = random_dag(rng, names, size)
        a = random_assignment(rng, names, n)
        for f in (pool[-1], rng.choice(pool)):
            cache = {}
            expected = oracle_evaluate(f, a, cache)
            value, nodes = evaluate_with_cache(f, a)
            assert _form(value) == _form(expected)
            assert list(nodes) == list(cache)
            assert all(_form(nodes[k]) == _form(v) for k, v in cache.items())
        eq = Equation(pool[-1], rng.choice(pool), rng.choice(["=", "<="]))
        lcache, rcache = {}, {}
        lv, rv = oracle_evaluate(eq.lhs, a, lcache), oracle_evaluate(eq.rhs, a, rcache)
        holds = lv == rv if eq.relation == "=" else lv.leq(rv)
        nodes = {}
        got = evaluate_equation(eq, a, nodes)
        assert (got[0], _form(got[1]), _form(got[2])) == (holds, _form(lv), _form(rv))
        assert nodes.keys() == {**lcache, **rcache}.keys()
        got = run_equation(eq, Plan(eq.lhs, eq.rhs), a)
        assert (got[0], _form(got[1]), _form(got[2])) == (holds, _form(lv), _form(rv))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 25), st.integers(0, 2 ** 32 - 1))
    def test_variables_are_the_sorted_free_vars(self, size, seed):
        # against free_vars and against a walk of the nodes that owes the
        # plan nothing
        rng = random.Random(seed)
        pool = random_dag(rng, ("p", "q", "r", "s"), size)
        f, g = pool[-1], rng.choice(pool)
        for plan, node, roots in ((Plan(f), f, [f]),
                                  (Plan(f, g), Equation(f, g), [f, g])):
            names = {n.name for n in walk_nodes(roots) if type(n) is Var}
            assert plan.variables == tuple(sorted(free_vars(node))) == tuple(sorted(names))

    def test_plan_lists_distinct_nodes_children_first(self):
        f = alpha_levels(2)[-1]
        plan = Plan(f, ZERO)
        assert len(plan.nodes) == distinct_nodes(f) + 1
        assert plan.roots == (len(plan.nodes) - 2, len(plan.nodes) - 1)
        pos = {id(n): i for i, n in enumerate(plan.nodes)}
        for i, n in enumerate(plan.nodes):
            for slot in ("child", "left", "right"):
                if hasattr(n, slot):
                    assert pos[id(getattr(n, slot))] < i

    def test_deep_chain_evaluates_without_recursion(self):
        # built in code, not parsed: a chain far deeper than the recursion
        # limit, evaluated against the same steps applied one by one
        depth = 3 * sys.getrecursionlimit()
        x, y = span([[1, 0]], 2), span([[1, 1]], 2)
        a = Assignment({"x": x, "y": y})
        yv = Var("y")
        f, expected, text = Var("x"), x, "x"
        for i in range(depth):
            if i % 2:
                f, expected, text = Not(f), expected.ortho(), f"~({text})"
            else:
                f, expected, text = Or(f, yv), expected.join(y), f"{text} | y"
        value, nodes = evaluate_with_cache(f, a)
        assert value == expected and len(nodes) == depth + 2
        holds, lv, _ = evaluate_equation(Equation(f, ZERO), a)
        assert lv == expected and holds == expected.is_zero()
        # every other walk over the same chain: printing, variables, the
        # normal form, restriction and a search
        assert free_vars(f) == {"x", "y"}
        assert to_source(f) == text
        assert evaluate(to_nnf(f), a) == expected
        assert evaluate(restrict(f, Var("x")), a).leq(x)
        v = falsify(Equation(f, ZERO), 2, 2)
        if v.witness is not None:
            assert evaluate(f, v.witness) == v.witness_gap[0] != Subspace.zero(2)


class TestNodeEquality:
    """Nodes are hash-consed: structurally equal formulas are one object, so
    == and hash are identity and no comparison walks a formula."""

    def test_deep_chains_compare_and_hash(self):
        # built in code, not parsed: 10^5 levels, far past the recursion limit
        def chain(bottom):
            f, y = Var(bottom), Var("y")
            for _ in range(10 ** 5):
                f = And(f, y)
            return f

        a, b, c = chain("x"), chain("x"), chain("z")
        assert a is b and a == b and hash(a) == hash(b)
        assert a != c and not (a == c)
        assert {a: 1}[b] == 1
        assert Equation(a, ZERO) == Equation(b, ZERO)
        assert hash(Equation(a, ZERO)) == hash(Equation(b, ZERO))

    def test_structure_decides(self):
        x, y = Var("x"), Var("y")
        assert And(x, y) == And(Var("x"), Var("y")) and Not(ZERO) == Not(ZERO)
        assert And(x, y) != Or(x, y) and And(x, y) != And(y, x) and ZERO != ONE
        assert Var("x") != "x" and Not(x) != Not(y)
        assert repr(And(x, Not(ONE))) == "And(left=Var(name='x'), right=Not(child=One()))"

    def test_deep_chain_repr(self):
        # repr walks an explicit stack, so any depth prints
        f, y = Var("x"), Var("y")
        for _ in range(10 ** 5):
            f = And(f, y)
        assert repr(f) == ("And(left=" * 10 ** 5 + "Var(name='x')"
                           + ", right=Var(name='y'))" * 10 ** 5)

    def test_deep_chain_copies_and_pickles(self, monkeypatch):
        # copy and deepcopy return the node without a walk, and pickle stores
        # the flat plan steps, so none recurses once per level
        f, y = Var("x"), Var("y")
        for _ in range(10 ** 5):
            f = And(f, y)
        with monkeypatch.context() as m:
            m.setattr(qlat.formula, "Plan", None)
            assert copy.copy(f) is f and copy.deepcopy(f) is f
        for protocol in (2, pickle.HIGHEST_PROTOCOL):
            assert pickle.loads(pickle.dumps(f, protocol)) is f

    def test_pickle_rebuilds_without_the_original(self):
        # with no live node to return, loading rebuilds the DAG, each distinct
        # node once, through the interning constructor
        f = alpha_levels(4)[-1]
        blob, gone = pickle.dumps(f), weakref.ref(f)
        del f
        assert gone() is None
        g = pickle.loads(blob)
        assert len(Plan(g).nodes) == 88 and g is alpha_levels(4)[-1]
        assert pickle.loads(pickle.dumps(m_distributive(3))) == m_distributive(3)

    def test_generated_formulas_are_one_object(self):
        assert alpha_levels(5)[-1] is alpha_levels(5)[-1]
        f = alpha_levels(4)[-1]
        g = parse(to_source(f))
        assert g is f and len(Plan(g).nodes) == 88

    @pytest.mark.parametrize("rebuild", [
        copy.copy, copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f)),
        lambda f: And(left=f.left, right=f.right), lambda f: And(f.left, right=f.right),
    ], ids=["copy", "deepcopy", "pickle", "keywords", "mixed"])
    def test_rebuilt_node_is_the_interned_one(self, rebuild):
        x, y = Var("x"), Var("y")
        f = And(x, Not(y))
        assert rebuild(f) is f
        assert (f.left, f.right.child, x.name, y.name) == (x, y, "x", "y")
        # every live node sits under the key of its own class and parts
        for key, node in list(qlat.formula._NODES.items()):
            assert key == (type(node), *[getattr(node, k) for k in node.__match_args__])


def test_lattice_values_leave_no_cyclic_garbage():
    # Evaluation caches, assignments and lattice values die by refcount, and
    # so do the per-position lists of every formula walk (a loop over a Plan,
    # not a closure): with the collector off, nothing is left for a collection
    # to free.
    eqs = [(eq, sorted(free_vars(eq))) for eq in (law("modularity"), law("orthomodularity"))]
    f = alpha_levels(3)[-1]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for seed in range(3):
            rng = random.Random(seed)
            for eq, names in eqs:
                evaluate_equation(eq, random_assignment(rng, names, 8))
            a, b = random_subspace(8, 5, seed=seed), random_subspace(8, 4, seed=seed + 10)
            assert (~a).dim == 3 and (~~a) == a
            assert (~a & ~b).dim == 0 and ((a & b) | ~(a | ~b)).dim >= 1
        free_vars(law("modularity"))
        alpha_levels(3)
        qubit_alpha_separator(2, trials=3)
        to_source(f)
        to_nnf(f)
        restrict(f, Var("b"))
        del a, b
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


class TestRestrict:
    def test_definition_cases(self):
        b = Var("b")
        assert restrict(parse("u"), b) == parse("u & b")
        assert restrict(parse("~u"), b) == parse("~(u & b) & b")
        assert restrict(parse("u | ~v"), b) == parse("(u & b) | (~(v & b) & b)")

    def test_constants(self):
        b = Var("b")
        assert restrict(ONE, b) == b
        assert restrict(ZERO, b) == ZERO

    def test_value_contained_in_beta(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 4)
            f = random_formula(rng, ("u", "v"), depth=4)
            beta = random_formula(rng, ("w",), depth=3)
            a = random_assignment(rng, ("u", "v", "w"), n)
            val = evaluate(restrict(f, beta), a)
            assert val.leq(evaluate(beta, a))


class TestAlpha:
    def test_standard_triple(self):
        val = evaluate(alpha(), TRIPLE)
        assert val == Q and val.dim == 1

    def test_equal_arguments_vanish(self):
        a = Assignment({"p": R, "q": R, "r": R})
        assert evaluate(alpha(), a).is_zero()

    def test_contained_in_ortho_p(self):
        rng = random.Random(29)
        for _ in range(60):
            n = rng.randint(1, 5)
            a = random_assignment(rng, ("p", "q", "r"), n)
            val = evaluate(alpha(), a)
            assert val.leq(a["p"].ortho())
            assert val.dim <= a["p"].dim
            assert 2 * val.dim <= n

    def test_semantic_identity_b_and_not_a(self):
        # (a | b) & (~a | ~b) always evaluates like b & ~a here since a <= b
        rng = random.Random(30)
        b_and_not_a = parse("((p | q) & (p | r)) & ~(p | (q & r))")
        for _ in range(60):
            n = rng.randint(1, 5)
            a = random_assignment(rng, ("p", "q", "r"), n)
            assert evaluate(alpha(), a) == evaluate(b_and_not_a, a)


class TestAlphaIter:
    def test_base_case(self):
        assert alpha_iter(1) == rename(alpha(), {"p": "p1", "q": "q1", "r": "r1"})

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            alpha_iter(0)

    def test_variable_count(self):
        for m in (1, 2, 3):
            assert len(free_vars(alpha_iter(m))) == 3 * m

    def test_dim_bound(self):
        rng = random.Random(31)
        for _ in range(25):
            m = rng.randint(1, 2)
            n = rng.randint(1, 4)
            names = [f"{v}{k}" for k in range(1, m + 1) for v in "pqr"]
            a = random_assignment(rng, names, n)
            val = evaluate(alpha_iter(m), a)
            assert val.dim <= n // (2 ** m)

    def test_levels_share_structure(self):
        levels = alpha_levels(3)
        assert levels[0] is not levels[1]
        assert to_source(levels[0]) in to_source(levels[1])


class TestMDistributive:
    def test_shape_m1(self):
        eq = m_distributive(1)
        assert to_source(eq) == "x & (y0 | y1) = x & y1 | x & y0"

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            m_distributive(0)

    def test_holds_in_dimension_one(self):
        zero, one = Subspace.zero(1), Subspace.full(1)
        for m in (1, 2):
            eq = m_distributive(m)
            names = sorted(free_vars(eq))
            for mask in range(2 ** len(names)):
                a = Assignment(
                    {nm: (one if mask >> i & 1 else zero) for i, nm in enumerate(names)}, 1)
                holds, _, _ = evaluate_equation(eq, a)
                assert holds


class TestLaws:
    def test_catalog(self):
        assert "distributivity" in law_names()
        with pytest.raises(ValueError):
            law("nosuchlaw")

    def test_double_negation_everywhere(self):
        rng = random.Random(37)
        eq = law("double_negation")
        for _ in range(40):
            n = rng.randint(1, 5)
            a = random_assignment(rng, ("x",), n)
            holds, _, _ = evaluate_equation(eq, a)
            assert holds

    def test_distributivity_fails_at_triple(self):
        eq = law("distributivity")
        a = Assignment({"x": P, "y": Q, "z": R})
        holds, _, _ = evaluate_equation(eq, a)
        assert not holds

    def test_modularity_never_fails(self):
        rng = random.Random(38)
        eq = law("modularity")
        for _ in range(80):
            n = rng.randint(1, 6)
            a = random_assignment(rng, ("x", "y", "z"), n)
            holds, _, _ = evaluate_equation(eq, a)
            assert holds


class TestDistinctness:
    def test_base_is_alpha(self):
        assert distinctness_formula(["p", "q", "r"]) == alpha()

    def test_quoted_nesting_for_four(self):
        p, q, r, s = (Var(v) for v in "pqrs")
        expected = alpha_of(alpha_of(alpha_of(alpha_of(p, q, r), p, s), q, s), r, s)
        assert distinctness_formula(["p", "q", "r", "s"]) == expected

    def test_too_few_names(self):
        with pytest.raises(ValueError):
            distinctness_formula(["p", "q"])

    def test_coincidence_vanishes(self):
        g = distinctness_formula(["p", "q", "r", "s"])
        lines = [P, Q, R]
        # a few coincidence patterns over fixed lines
        for combo in [(P, P, Q, R), (P, Q, P, R), (P, Q, R, R), (Q, Q, Q, Q)]:
            a = Assignment(dict(zip("pqrs", combo)), 2)
            assert evaluate(g, a).is_zero()


class TestAssignmentJson:
    def test_round_trip(self):
        blob = assignment_to_json(TRIPLE)
        back = assignment_from_json(blob)
        assert back == TRIPLE

    def test_empty_needs_ambient(self):
        with pytest.raises(ValueError):
            Assignment({})
        a = Assignment({}, ambient=3)
        assert a.ambient == 3

    def test_mixed_ambients_rejected(self):
        with pytest.raises(ValueError):
            Assignment({"p": P, "q": span([[1, 0, 0]], 3)})


@settings(max_examples=200, deadline=None)
@given(st.recursive(
    st.sampled_from([Var("p"), Var("q"), ZERO, ONE]),
    lambda child: st.one_of(
        st.builds(Not, child),
        st.builds(And, child, child),
        st.builds(Or, child, child),
    ),
    max_leaves=25,
))
def test_parse_print_identity_hypothesis(f):
    assert parse(to_source(f)) == f


TREE_PREC = {Or: 1, And: 2}


def tree_source(node) -> str:
    """The plain recursive printer that ``to_source`` memoizes; the oracle."""
    if isinstance(node, Equation):
        return f"{tree_source(node.lhs)} {node.relation} {tree_source(node.rhs)}"
    t = type(node)
    if t is Var:
        return node.name
    if t is type(ZERO):
        return "0"
    if t is type(ONE):
        return "1"
    if t is Not:
        inner = tree_source(node.child)
        return f"~({inner})" if type(node.child) in TREE_PREC else f"~{inner}"
    op, prec = ("&", 2) if t is And else ("|", 1)
    left, right = tree_source(node.left), tree_source(node.right)
    if TREE_PREC.get(type(node.left), 3) < prec:
        left = f"({left})"
    if TREE_PREC.get(type(node.right), 3) <= prec:
        right = f"({right})"
    return f"{left} {op} {right}"


formulas = st.recursive(
    st.sampled_from([Var("p"), Var("q"), Var("r"), ZERO, ONE]),
    lambda child: st.one_of(
        st.builds(Not, child),
        st.builds(And, child, child),
        st.builds(Or, child, child),
    ),
    max_leaves=20,
)


class TestMemoizedPrinter:
    """``to_source`` against the tree printer, on trees and on shared DAGs."""

    @settings(max_examples=200, deadline=None)
    @given(formulas, formulas, formulas)
    def test_matches_tree_printer(self, f, g, h):
        parsed = parse(tree_source(f))
        assert to_source(parsed) == tree_source(parsed)
        # alpha_of reuses each argument several times, so memo hits abound
        shared = alpha_of(f, g, h)
        assert to_source(shared) == tree_source(shared)
        eq = Equation(shared, Or(shared, Not(f)), "<=")
        assert to_source(eq) == tree_source(eq)

    def test_iterated_alpha(self):
        f = alpha_levels(3)[-1]
        assert to_source(f) == tree_source(f)
        assert to_source(Equation(f, ZERO)) == tree_source(Equation(f, ZERO))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 25), st.integers(0, 2 ** 32 - 1))
    def test_matches_recursive_printer(self, size, seed):
        # the plan printer against the former memoized recursion, on shared
        # DAGs and on equations whose sides share nodes
        rng = random.Random(seed)
        pool = random_dag(rng, ("p", "q", "r"), size)
        for f in (pool[-1], rng.choice(pool)):
            assert to_source(f) == oracle_source(f)
        eq = Equation(pool[-1], rng.choice(pool), rng.choice(["=", "<="]))
        assert to_source(eq) == oracle_source(eq)


def _called_names(fn) -> set:
    """The names ``fn`` calls, as plain names or attributes; ``super()``
    calls name the parent's method, not ``fn``'s own."""
    names = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            names.add(func.id)
        elif isinstance(func, ast.Attribute) and not (
                isinstance(func.value, ast.Call) and getattr(func.value.func, "id", "") == "super"):
            names.add(func.attr)
    return names


def test_no_formula_walk_recurses():
    # every walk over a formula is a loop over a Plan, so no formula depth
    # reaches the recursion limit; only the parser's methods, which
    # MAX_PARSE_DEPTH bounds, may reach themselves again
    tree = ast.parse(Path(qlat.formula.__file__).read_text())
    parser = next(c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "_Parser")
    calls: dict[str, set] = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn not in parser.body:
            calls.setdefault(fn.name, set()).update(_called_names(fn))
    recursive = []
    for name in calls:
        seen, todo = set(), [name]
        while todo:
            for callee in calls.get(todo.pop(), ()):
                if callee not in seen:
                    seen.add(callee)
                    todo.append(callee)
        if name in seen:
            recursive.append(name)
    assert recursive == []


def tree_nnf(f):
    """The tree-rebuilding NNF that ``to_nnf`` memoizes; the oracle."""
    t = type(f)
    if t in (Var, type(ZERO), type(ONE)):
        return f
    if t is And:
        return And(tree_nnf(f.left), tree_nnf(f.right))
    if t is Or:
        return Or(tree_nnf(f.left), tree_nnf(f.right))
    g = f.child
    tg = type(g)
    if tg is Var:
        return f
    if tg is type(ZERO):
        return ONE
    if tg is type(ONE):
        return ZERO
    if tg is Not:
        return tree_nnf(g.child)
    if tg is And:
        return Or(tree_nnf(Not(g.left)), tree_nnf(Not(g.right)))
    return And(tree_nnf(Not(g.left)), tree_nnf(Not(g.right)))


def tree_restrict(f, beta):
    """The tree-rebuilding restriction that ``restrict`` memoizes; the oracle."""
    def go(n):
        t = type(n)
        if t is Var:
            return And(n, beta)
        if t is Not:
            return And(Not(And(n.child, beta)), beta)
        if t is type(ONE):
            return beta
        if t is type(ZERO):
            return n
        return t(go(n.left), go(n.right))

    return go(tree_nnf(f))


def walk_nodes(roots) -> list:
    """The distinct nodes reachable from ``roots``, by node id."""
    seen, stack = {}, list(roots)
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen[id(n)] = n
            stack.extend(getattr(n, slot) for slot in ("child", "left", "right")
                         if hasattr(n, slot))
    return list(seen.values())


def distinct_nodes(f) -> int:
    return len(walk_nodes([f]))


class TestSharedWalks:
    """``to_nnf`` and ``restrict`` against the tree oracles, and their sharing."""

    def test_random_formulas_match_oracles(self):
        rng = random.Random(41)
        for _ in range(300):
            f = random_formula(rng, ("u", "v", "w"), depth=rng.randint(0, 7))
            beta = random_formula(rng, ("b",), depth=2)
            assert to_nnf(f) == tree_nnf(f)
            assert restrict(f, beta) == tree_restrict(f, beta)

    @pytest.mark.parametrize("f", [alpha_levels(2)[-1], distinctness_formula("pqrs")],
                             ids=["alpha_levels(2)", "distinctness(pqrs)"])
    def test_shared_formulas_match_oracles(self, f):
        beta = alpha(("x", "y", "z"))
        assert to_nnf(f) == tree_nnf(f)
        assert restrict(f, beta) == tree_restrict(f, beta)

    def test_level_node_counts(self):
        assert [distinct_nodes(alpha_levels(m)[-1]) for m in range(1, 6)] == [
            13 + 25 * (m - 1) for m in range(1, 6)]

    def test_linear_in_distinct_nodes(self):
        # unfolded, this formula has about 3.4e8 nodes; the walks see 121
        f = distinctness_formula("pqrstu")
        bound = 2 * distinct_nodes(f)
        start = time.perf_counter()
        nnf, restricted = to_nnf(f), restrict(f, Var("b"))
        assert time.perf_counter() - start < 1.0
        assert distinct_nodes(nnf) <= bound and distinct_nodes(restricted) <= bound
