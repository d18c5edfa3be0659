"""Rational function field arithmetic and canonical form."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlat.ratfunc import (
    RF_D,
    RF_ONE,
    RF_ZERO,
    RationalFunction,
    coeffs_from_json,
    coeffs_to_json,
)


def rf(num, den=(1,)):
    return RationalFunction(num, den)


small_rf = st.builds(
    RationalFunction,
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    st.lists(st.integers(-4, 4), min_size=1, max_size=4).filter(lambda c: any(c)),
)


class TestCanonicalForm:
    def test_reduction(self):
        # (d^2 - 1)/(d - 1) reduces to d + 1
        f = rf((-1, 0, 1), (-1, 1))
        assert f == rf((1, 1))

    def test_monic_denominator_view(self):
        f = rf((1,), (0, 2))  # 1/(2d)
        assert f.den[-1] == 1
        assert f.num == (Fraction(1, 2),)
        assert f.evaluate(Fraction(3)) == Fraction(1, 6)

    def test_gcd_of_num_den_trivial(self):
        f = rf((0, 2, 2), (0, 0, 4))  # (2d + 2d^2) / 4d^2 = (1 + d)/(2d)
        assert f.num == (Fraction(1, 2), Fraction(1, 2))
        assert f.den == (Fraction(0), Fraction(1))

    def test_zero_handling(self):
        assert not RF_ZERO
        assert rf((0,)) == RF_ZERO
        with pytest.raises(ZeroDivisionError):
            rf((1,), (0,))

    def test_fraction_inputs(self):
        f = RationalFunction([Fraction(1, 2), Fraction(1, 3)])
        assert f == rf((3, 2), (6,))

    def test_hash_agrees_with_equality(self):
        assert RationalFunction.constant(3) == 3
        assert RationalFunction.constant(3) in {3}
        assert RationalFunction.constant(Fraction(1, 2)) in {Fraction(1, 2)}
        assert rf((-2,), (4,)) in {Fraction(-1, 2)}
        assert 0 in {RF_ZERO} and 1 in {RF_ONE}
        assert hash(RF_D) == hash(rf((0, 2), (2,)))


class TestArithmetic:
    def test_trace_value_shape(self):
        # 1 - 1/d^2 = (d^2 - 1)/d^2
        f = RF_ONE - RF_ONE / (RF_D * RF_D)
        assert f == rf((-1, 0, 1), (0, 0, 1))

    def test_monomial(self):
        assert RationalFunction.monomial(3) == RF_D ** 3
        assert RationalFunction.monomial(-2) == RF_ONE / RF_D ** 2
        assert RationalFunction.monomial(0) == RF_ONE

    def test_pow_negative(self):
        assert RF_D ** -1 * RF_D == RF_ONE

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            RF_ONE / RF_ZERO

    def test_int_coercion(self):
        assert RF_D * 2 - RF_D == RF_D
        assert 1 + RF_D - 1 == RF_D
        assert (2 / (RF_D * 2)) == RF_ONE / RF_D

    @settings(max_examples=150, deadline=None)
    @given(small_rf, small_rf, small_rf)
    def test_field_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == RF_ZERO
        if b:
            assert (a / b) * b == a

    @settings(max_examples=100, deadline=None)
    @given(small_rf)
    def test_canonical_invariants(self, a):
        # denominator monic in the public view; internal pair coprime
        assert a.den[-1] == 1
        from qlat.ratfunc import ip_gcd
        if a:
            assert ip_gcd(a.inum, a.iden) == (1,)

    def test_evaluate_pole(self):
        f = RF_ONE / (RF_D - 1)
        with pytest.raises(ZeroDivisionError):
            f.evaluate(Fraction(1))
        assert f.evaluate(Fraction(3)) == Fraction(1, 2)


class TestJson:
    def test_format(self):
        f = RF_ONE - RF_ONE / (RF_D * RF_D)
        assert coeffs_to_json(f.num) == [["-1", "1"], ["0", "1"], ["1", "1"]]
        assert coeffs_to_json(f.den) == [["0", "1"], ["0", "1"], ["1", "1"]]

    def test_round_trip(self):
        cs = (Fraction(1, 2), Fraction(0), Fraction(-3))
        assert coeffs_from_json(coeffs_to_json(cs)) == cs
