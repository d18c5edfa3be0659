"""Diagram algebra: planar matchings, generator relations, projectors, traces."""

import ast
import collections
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fraction_tl_to_json, oracle_compose, oracle_jones_wenzl, tl_from_terms
from qlat.ratfunc import RF_D, RF_ONE, RationalFunction, ip_reduce
import qlat.ratfunc
import qlat.templieb
from qlat.templieb import (
    ChebyshevPoly,
    JonesWenzlError,
    PlanarDiagram,
    PoleError,
    TLElement,
    catalan,
    chebyshev,
    closure_loops,
    compose,
    diagram_generator,
    enumerate_diagrams,
    eval_at_root,
    generator_e,
    include,
    jones_wenzl,
    jw_at_root,
    markov_trace,
    _times_diagram,
    _verify_jones_wenzl,
    root_params,
    tl_to_json,
)


class TestPlanarDiagram:
    def test_identity(self):
        d = PlanarDiagram.identity(3)
        assert d.pairing == ((0, 3), (1, 4), (2, 5))

    def test_cup_cap(self):
        u = PlanarDiagram.cup_cap(3, 1)
        assert (0, 1) in u.pairing and (3, 4) in u.pairing and (2, 5) in u.pairing

    def test_rejects_crossing(self):
        # bottom 0 to top 4 and bottom 1 to top 3 cross
        with pytest.raises(ValueError):
            PlanarDiagram(2, [(0, 3), (1, 2)])

    def test_rejects_non_matching(self):
        with pytest.raises(ValueError):
            PlanarDiagram(2, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            PlanarDiagram(2, [(0, 1)])

    def test_generator_index_range(self):
        with pytest.raises(ValueError):
            PlanarDiagram.cup_cap(3, 0)
        with pytest.raises(ValueError):
            PlanarDiagram.cup_cap(3, 3)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_catalan_count(self, n):
        diagrams = enumerate_diagrams(n)
        assert len(diagrams) == catalan(n)
        assert len(set(diagrams)) == len(diagrams)

    def test_interned_twin_equal_and_hash_equal(self):
        for d in enumerate_diagrams(4):
            twin = qlat.templieb._interned(d.partner)
            built = PlanarDiagram(d.n, reversed([p[::-1] for p in d.pairing]))
            assert built is not twin
            assert built == twin and hash(built) == hash(twin)
            assert {twin: d}[built] is d
        assert PlanarDiagram.identity(2) != PlanarDiagram.cup_cap(2, 1)

    @pytest.mark.parametrize("call, message", [
        (lambda: PlanarDiagram(-1, []), "strand count must be nonnegative"),
        (lambda: compose(PlanarDiagram.identity(2), PlanarDiagram.identity(3)),
         "strand count mismatch: 2 vs 3"),
        (lambda: chebyshev(-1), "index must be nonnegative"),
    ], ids=["negative-strands", "compose-mismatch", "chebyshev-negative"])
    def test_input_guards(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_closure_loops(self):
        assert closure_loops(PlanarDiagram.identity(2)) == 2
        assert closure_loops(PlanarDiagram.cup_cap(2, 1)) == 1

    @pytest.mark.parametrize("value, text", [
        (lambda: PlanarDiagram.cup_cap(3, 1), "PlanarDiagram(3, [(0, 1), (2, 5), (3, 4)])"),
        (lambda: TLElement.zero(2), "TLElement(2, 0)"),
        # also pins term order: the cup-cap diagram sorts before the identity
        (lambda: jones_wenzl(2), "((-1)/(d))*PlanarDiagram(2, [(0, 1), (2, 3)])"
                                 " + (1)*PlanarDiagram(2, [(0, 2), (1, 3)])"),
    ], ids=["diagram", "zero-element", "projector"])
    def test_repr(self, value, text):
        assert repr(value()) == text


class TestComposition:
    def test_identity_is_unit(self):
        for n in (1, 2, 4):
            ident = PlanarDiagram.identity(n)
            for d in enumerate_diagrams(n):
                left, loops_l = compose(ident, d)
                right, loops_r = compose(d, ident)
                assert left == d and right == d
                assert loops_l == loops_r == 0

    def test_raw_u_squared(self):
        u = PlanarDiagram.cup_cap(2, 1)
        d, loops = compose(u, u)
        assert d == u and loops == 1

    def test_element_u_squared_is_d_u(self):
        u = diagram_generator(2, 1)
        assert u * u == u * RF_D

    def test_associativity_exhaustive_small(self):
        for n in (2, 3):
            basis = [TLElement.from_diagram(d) for d in enumerate_diagrams(n)]
            for x in basis:
                for y in basis:
                    for z in basis:
                        assert (x * y) * z == x * (y * z)

    def test_associativity_random_n5(self):
        rng = random.Random(8)
        basis = enumerate_diagrams(5)
        for _ in range(60):
            x, y, z = (TLElement.from_diagram(rng.choice(basis)) for _ in range(3))
            assert (x * y) * z == x * (y * z)

    def test_strand_mismatch(self):
        with pytest.raises(ValueError):
            generator_e(3, 1) * generator_e(4, 1)

    def test_matches_pairing_oracle(self):
        pairs = [(x, y) for n in range(5) for x in enumerate_diagrams(n)
                 for y in enumerate_diagrams(n)]
        rng = random.Random(6)
        basis = enumerate_diagrams(6)
        pairs += [(rng.choice(basis), rng.choice(basis)) for _ in range(200)]
        for x, y in pairs:
            diag, loops = compose(x, y)
            want, want_loops = oracle_compose(x, y)
            assert diag == want and diag.pairing == want.pairing and loops == want_loops

    @pytest.mark.parametrize("n", range(7))
    def test_involution_order_is_pairing_order(self, n):
        diagrams = enumerate_diagrams(n)
        assert diagrams == sorted(diagrams) == sorted(diagrams, key=lambda d: d.pairing)

    def test_rejects_nonplanar_result(self):
        # a crossing diagram slipped past PlanarDiagram's own check
        n = 3
        bad = object.__new__(PlanarDiagram)
        # pairs (0, 4), (1, 3), (2, 5): bottom 0 to top 4 crosses bottom 1 to top 3
        bad.n, bad.partner = n, (4, 3, 5, 1, 0, 2)
        with pytest.raises(ValueError, match="planar"):
            compose(bad, PlanarDiagram.identity(n))


# The per-term product and sums on {diagram: RationalFunction} dicts that
# TLElement used before its common-denominator form; the fuzz oracle.

def ref_mul(x: dict, y: dict) -> dict:
    out = {}
    for dx, cx in x.items():
        for dy, cy in y.items():
            diag, loops = compose(dx, dy)
            assert diag == PlanarDiagram(diag.n, diag.pairing)
            c = cx * cy
            if loops:
                c = c * RF_D ** loops
            out[diag] = out[diag] + c if diag in out else c
    return {d: c for d, c in out.items() if c}


def ref_add(x: dict, y: dict, sign: int = 1) -> dict:
    out = dict(x)
    for diag, c in y.items():
        out[diag] = out.get(diag, 0) + sign * c
    return {d: c for d, c in out.items() if c}


def ref_scale(x: dict, k) -> dict:
    return {d: c * k for d, c in x.items() if c * k}


small_poly = st.lists(st.integers(-3, 3), min_size=1, max_size=3)
ratfuncs = st.builds(
    RationalFunction, small_poly,
    small_poly.filter(any) | st.sampled_from([(0, 1), (-1, 0, 1), (1, 1), (2,)]))


@st.composite
def elements(draw, n):
    basis = enumerate_diagrams(n)
    terms = draw(st.dictionaries(st.sampled_from(basis), ratfuncs, max_size=4))
    return tl_from_terms(n, terms)


class TestCommonDenominatorOracle:
    """The integer common-denominator kernel against the per-term oracle."""

    @staticmethod
    def assert_same(elem, ref: dict):
        assert elem.terms == ref
        other = tl_from_terms(elem.n, ref)
        assert elem == other
        assert elem.nums == other.nums and elem.den == other.den
        nums = list(elem.nums.values())
        assert ip_reduce(nums, elem.den) == (nums, elem.den)
        assert tl_to_json(elem) == fraction_tl_to_json(elem)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 4), ratfuncs.filter(bool))
    def test_matches_oracle(self, data, n, k):
        x, y, z = (data.draw(elements(n)) for _ in range(3))
        self.assert_same(x * y, ref_mul(x.terms, y.terms))
        self.assert_same(x + y, ref_add(x.terms, y.terms))
        self.assert_same(x - y, ref_add(x.terms, y.terms, -1))
        self.assert_same(x * k, ref_scale(x.terms, k))
        self.assert_same(k * x, ref_scale(x.terms, k))
        self.assert_same(-x, ref_scale(x.terms, -1))
        # equal elements built by different routes are identical
        for a, b in [(x + y, y + x), ((x * y) * z, x * (y * z)),
                     (x * (y + z), x * y + x * z), ((x * k) * (RF_ONE / k), x),
                     (x - x, TLElement.zero(n))]:
            assert a == b
            assert a.nums == b.nums and a.den == b.den

    def test_plain_coefficients(self):
        u, one = PlanarDiagram.cup_cap(3, 1), PlanarDiagram.identity(3)
        x = TLElement(3, {u: (2,), one: (24,)}, (6,))
        assert x.den == (3,)
        assert x.nums == {u: (1,), one: (12,)}
        assert x.terms == {u: RationalFunction((1,), (3,)), one: 4}
        assert x == tl_from_terms(3, x.terms)


class TestConstructor:
    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(1, 4))
    def test_rebuilds_from_integer_form(self, data, n):
        x = data.draw(elements(n))
        y = TLElement(x.n, x.nums, x.den)
        assert y == x
        assert y.nums == x.nums and y.den == x.den

    def test_reduces_untrimmed_and_zero_numerators(self):
        u, one = PlanarDiagram.cup_cap(2, 1), PlanarDiagram.identity(2)
        x = TLElement(2, {one: [0, 2, 0], u: (0,)}, [0, 0, 4, 0])
        assert x.nums == {one: (1,)} and x.den == (0, 2)
        assert x == TLElement.identity(2) * (RF_ONE / (RF_D * 2))

    def test_rejects_strand_mismatch(self):
        with pytest.raises(ValueError, match="strand count"):
            TLElement(3, {PlanarDiagram.identity(2): (1,)})


class TestRelations:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_idempotent(self, n):
        for i in range(1, n):
            e = generator_e(n, i)
            assert e * e == e

    @pytest.mark.parametrize("n", range(3, 7))
    def test_adjacent(self, n):
        for i in range(1, n):
            for j in (i - 1, i + 1):
                if 1 <= j <= n - 1:
                    ei, ej = generator_e(n, i), generator_e(n, j)
                    assert ei * ej * ei == ei * (RF_D ** -2)

    @pytest.mark.parametrize("n", range(4, 7))
    def test_far_commute(self, n):
        for i in range(1, n):
            for j in range(i + 2, n):
                ei, ej = generator_e(n, i), generator_e(n, j)
                assert ei * ej == ej * ei


class TestChebyshev:
    def test_base_cases(self):
        assert chebyshev(0).coeffs == (1,)
        assert chebyshev(1).coeffs == (0, 1)

    def test_recursion_unfolds(self):
        assert chebyshev(2).coeffs == (-1, 0, 1)
        assert chebyshev(3).coeffs == (0, -2, 0, 1)
        assert chebyshev(4).coeffs == (1, 0, -3, 0, 1)

    def test_recursion_identity(self):
        for n in range(1, 8):
            lhs = chebyshev(n + 1).as_rational_function()
            rhs = RF_D * chebyshev(n).as_rational_function() - \
                chebyshev(n - 1).as_rational_function()
            assert lhs == rhs

    def test_degree_invariant(self):
        for n in range(8):
            assert len(chebyshev(n).coeffs) == n + 1
        with pytest.raises(ValueError):
            ChebyshevPoly(2, (1, 1))

    def test_vanishing_at_root(self):
        for r in (3, 4, 5, 6):
            assert abs(chebyshev(r - 1).evaluate(root_params(r))) < 1e-9


class TestJonesWenzl:
    def test_level_one_is_identity(self):
        assert jones_wenzl(1) == TLElement.identity(1)

    def test_level_two(self):
        assert jones_wenzl(2) == TLElement.identity(2) - generator_e(2, 1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_characterization(self, n):
        p = jones_wenzl(n)
        assert not p.is_zero()
        assert p.identity_coefficient() == RF_ONE
        assert p * p == p
        for i in range(1, n):
            e = generator_e(n, i)
            assert (e * p).is_zero()
            assert (p * e).is_zero()

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            jones_wenzl(0)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_wenzl_recursion(self, n):
        p, oracle = jones_wenzl(n), oracle_jones_wenzl(n)
        assert p == oracle
        assert p.nums == oracle.nums and p.den == oracle.den

    def test_included_projector_absorbed(self):
        # p_{n} * inc(p_{n-1}) = p_n, a standard consequence of the recursion
        for n in (2, 3, 4):
            pn = jones_wenzl(n)
            prev = include(jones_wenzl(n - 1))
            assert pn * prev == pn
            assert prev * pn == pn


class TestTimesDiagram:
    """The one-diagram product, the kernel of every element product, against
    the per-term oracle."""

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 5))
    def test_matches_product(self, data, n):
        x = data.draw(elements(n))
        cups = [PlanarDiagram.cup_cap(n, i) for i in range(1, n)]
        basis = data.draw(st.sampled_from(enumerate_diagrams(n)))
        for u in cups + [basis]:
            TestCommonDenominatorOracle.assert_same(
                TLElement(n, _times_diagram(x.nums, u), x.den), ref_mul(x.terms, {u: RF_ONE}))

    def test_only_kernel_composes(self):
        # element products, the projector build and its verifier all compose
        # diagrams through _times_diagram
        tree = ast.parse(Path(qlat.templieb.__file__).read_text())
        callers = {f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                   for node in ast.walk(f)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id == "compose"}
        assert callers == {"_times_diagram"}


class TestAdjoint:
    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(1, 4))
    def test_involution_and_anti_automorphism(self, data, n):
        x, y = data.draw(elements(n)), data.draw(elements(n))
        assert x.adjoint().adjoint() == x
        assert (x * y).adjoint() == y.adjoint() * x.adjoint()
        assert (x + y).adjoint() == x.adjoint() + y.adjoint()
        assert x.adjoint().terms == {d.reflect(): c for d, c in x.terms.items()}

    def test_reflect(self):
        d = PlanarDiagram(3, [(0, 1), (2, 3), (4, 5)])
        assert d.reflect() == PlanarDiagram(3, [(3, 4), (5, 0), (1, 2)])
        for n in range(5):
            for diag in enumerate_diagrams(n):
                assert diag.reflect().reflect() == diag
        assert PlanarDiagram.cup_cap(4, 2).reflect() == PlanarDiagram.cup_cap(4, 2)


def verify_by_products(p: TLElement, n: int):
    """The four-check verifier that multiplied p by itself; the test oracle."""
    if p.is_zero():
        raise JonesWenzlError(f"projector at n={n} is zero")
    if p.identity_coefficient() != RF_ONE:
        raise JonesWenzlError(f"projector at n={n} has identity coefficient != 1")
    if p * p != p:
        raise JonesWenzlError(f"projector at n={n} is not idempotent")
    for i in range(1, n):
        e = generator_e(n, i)
        if not (e * p).is_zero() or not (p * e).is_zero():
            raise JonesWenzlError(f"projector at n={n} is not annihilated by e_{i}")


def corrupted(n: int) -> dict:
    """Elements that fail ``_verify_jones_wenzl(x, n)``, keyed by its message."""
    p = jones_wenzl(n)
    lopsided = next(d for d in enumerate_diagrams(n) if d.reflect() != d)
    dx = TLElement.from_diagram(lopsided)
    c = RationalFunction((1, 2), (3, 0, 1))
    return {
        "zero": TLElement.zero(n),
        "identity coefficient": p * 2,
        "self-adjoint": p + dx * c,
        "annihilated": p + (dx + dx.adjoint()) * c,
        # idempotent and killed by U_1..U_{n-2}, but not by U_{n-1}
        f"annihilated by U_{n - 1}": include(jones_wenzl(n - 1)),
    }


class TestVerifier:
    @pytest.mark.parametrize("n", range(3, 7))
    def test_rejects_each_corruption(self, n):
        for check, x in corrupted(n).items():
            assert x.adjoint() == x or check == "self-adjoint"
            with pytest.raises(JonesWenzlError, match=check):
                _verify_jones_wenzl(x, n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_agrees_with_product_oracle(self, n):
        p = jones_wenzl(n)
        _verify_jones_wenzl(p, n)
        verify_by_products(p, n)
        if n >= 3:
            for x in corrupted(n).values():
                with pytest.raises(JonesWenzlError):
                    verify_by_products(x, n)

    def test_composition_budget(self, monkeypatch):
        # cold jones_wenzl(5) by the single-clasp expansion: 298 compositions,
        # no element product, and one reduction per level, as neither the
        # included previous level nor the verifier's checks are rebuilt as
        # elements; the two-sided recursion took 470 compositions, and
        # verifying with p * p 2682
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(qlat.templieb, "compose", counted("compose", compose))
        monkeypatch.setattr(qlat.templieb, "include", counted("include", include))
        for owner in (qlat.templieb, qlat.ratfunc):
            monkeypatch.setattr(owner, "ip_reduce", counted("ip_reduce", ip_reduce))
        for name in ("__mul__", "adjoint"):
            monkeypatch.setattr(TLElement, name, counted(name, getattr(TLElement, name)))
        jones_wenzl.cache_clear()
        try:
            jones_wenzl(5)
        finally:
            jones_wenzl.cache_clear()
        assert 0 < calls["compose"] <= 310
        assert calls["ip_reduce"] == 5
        assert calls["__mul__"] == calls["adjoint"] == calls["include"] == 0


class TestMarkovTrace:
    def test_identity_normalization(self):
        for n in (1, 2, 3, 4):
            assert markov_trace(TLElement.identity(n)) == RF_ONE

    @pytest.mark.parametrize("n", range(2, 7))
    def test_trace_of_generators(self, n):
        for i in range(1, n):
            assert markov_trace(generator_e(n, i)) == RF_ONE / RF_D ** 2

    @pytest.mark.parametrize("j", range(1, 6))
    def test_trace_of_projectors(self, j):
        expected = chebyshev(j).as_rational_function() / RF_D ** j
        assert markov_trace(jones_wenzl(j)) == expected

    def test_trace_property(self):
        rng = random.Random(44)
        basis = enumerate_diagrams(5)
        for _ in range(40):
            x = TLElement.from_diagram(rng.choice(basis))
            y = TLElement.from_diagram(rng.choice(basis))
            assert markov_trace(x * y) == markov_trace(y * x)

    def test_inclusion_compatible(self):
        rng = random.Random(45)
        for n in (2, 3, 4):
            basis = enumerate_diagrams(n)
            for _ in range(10):
                x = TLElement.from_diagram(rng.choice(basis))
                assert markov_trace(include(x)) == markov_trace(x)

    def test_projector_trace_invariant_under_inclusion(self):
        # why `tl trace` can trace p_j on j strands instead of padding it to n
        for j in range(1, 6):
            p = jones_wenzl(j)
            tr = markov_trace(p)
            for _ in range(j + 1, 7):
                p = include(p)
                assert markov_trace(p) == tr, (j, p.n)


class TestRoots:
    def test_values(self):
        assert root_params(3) == pytest.approx(1.0)
        assert root_params(4) == pytest.approx(math.sqrt(2))

    def test_monotone_to_two(self):
        values = [root_params(r) for r in range(3, 40)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] < 2.0

    def test_r_validation(self):
        with pytest.raises(ValueError):
            root_params(2)
        with pytest.raises(ValueError):
            root_params(3.0)

    def test_eval_examples(self):
        tr = markov_trace(generator_e(2, 1))
        assert eval_at_root(tr, 4) == pytest.approx(0.5, abs=1e-9)
        assert eval_at_root(
            chebyshev(2).as_rational_function(), 3) == pytest.approx(0.0, abs=1e-9)
        assert eval_at_root(RF_ONE, 7) == 1.0

    def test_pole_detected(self):
        # d^2 - 2 vanishes at d = 2cos(pi/4) = sqrt(2)
        f = RF_ONE / (RF_D ** 2 - 2)
        with pytest.raises(PoleError):
            eval_at_root(f, 4)
        assert eval_at_root(f, 3) == pytest.approx(-1.0, abs=1e-9)

    def test_jw_at_root_values(self):
        num = jw_at_root(2, 4)
        assert type(num) is dict and {d.n for d in num} == {2}
        coeffs = sorted(num.values())
        assert coeffs[0] == pytest.approx(-1 / math.sqrt(2))
        assert coeffs[1] == pytest.approx(1.0)

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_boundary_levels(self, r):
        assert {d.n for d in jw_at_root(r - 1, r)} == {r - 1}
        with pytest.raises(ValueError):
            jw_at_root(r, r)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_no_pole_within_the_level_rule(self, n):
        # why no tl command can raise PoleError: see projector_level_error
        for r in [*range(max(3, n + 1), 41), 10 ** 6]:
            jw_at_root(n, r)
            eval_at_root(markov_trace(jones_wenzl(n)), r)
            if n >= 2:
                eval_at_root(markov_trace(generator_e(n, 1)), r)

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_numeric_traces_match(self, r):
        d = root_params(r)
        for j in range(1, r):
            tr = eval_at_root(markov_trace(jones_wenzl(j)), r)
            assert tr == pytest.approx(chebyshev(j).evaluate(d) / d ** j, abs=1e-9)


class TestJson:
    def test_shape(self):
        blob = tl_to_json(jones_wenzl(2))
        assert blob["n"] == 2
        assert len(blob["terms"]) == 2
        term = blob["terms"][0]
        assert set(term) == {"pairing", "coeff"}
        assert set(term["coeff"]) == {"num", "den"}

    @pytest.mark.parametrize("n", range(1, 8))
    def test_projector_matches_fraction_writer(self, n):
        new, old = tl_to_json(jones_wenzl(n)), fraction_tl_to_json(jones_wenzl(n))
        assert new == old
        assert json.dumps(new, sort_keys=True) == json.dumps(old, sort_keys=True)

    def test_deterministic_order(self):
        a = tl_to_json(jones_wenzl(3))
        b = tl_to_json(jones_wenzl(3))
        assert a == b
