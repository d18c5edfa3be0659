"""Formula language: parser, printer, NNF, evaluation, restriction, generators."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_assignment, random_formula
from qlat.formula import (
    And,
    Assignment,
    Equation,
    Not,
    ONE,
    Or,
    ParseError,
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
    free_vars,
    law,
    law_names,
    m_distributive,
    parse,
    parse_equation,
    parse_formula,
    restrict,
    to_nnf,
    to_source,
)
from qlat.subspace import Subspace, span

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
