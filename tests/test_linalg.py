"""Exact linear algebra: RREF, kernel, adjoint, products.

The row reducer in the package runs fraction-free on integer rows; the oracle
here is an independent plain Gauss-Jordan over Fraction scalars.
"""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlat.linalg import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    MOD_I,
    MOD_P,
    GaussianRational,
    RationalMatrix,
    _canonical,
    _int_row,
    conj_transpose,
    entry_from_json,
    entry_to_json,
    kernel,
    kron,
    matmul,
    rank,
    rank_mod_p,
    rref,
    vstack,
)

import qlat
from helpers import fraction_entry_to_json, gauss_jordan_canonical


def reference_rref(m: RationalMatrix):
    """Textbook Gauss-Jordan with rational scalars; the independent oracle."""
    rows = [list(r) for r in m.entries]
    nrows, ncols = m.rows, m.cols
    piv_cols = []
    pr = 0
    for pc in range(ncols):
        pivot = next((r for r in range(pr, nrows) if rows[r][pc]), None)
        if pivot is None:
            continue
        rows[pr], rows[pivot] = rows[pivot], rows[pr]
        inv = rows[pr][pc].inverse()
        rows[pr] = [x * inv for x in rows[pr]]
        for r in range(nrows):
            if r != pr and rows[r][pc]:
                f = rows[r][pc]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pr])]
        piv_cols.append(pc)
        pr += 1
        if pr == nrows:
            break
    return RationalMatrix(nrows, ncols, rows), pr, piv_cols


def random_matrix(rng, nrows, ncols, bound=4, denominators=False):
    def entry():
        if denominators:
            re = Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
            im = Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
            return GaussianRational(re, im)
        return GaussianRational(rng.randint(-bound, bound), rng.randint(-bound, bound))
    return RationalMatrix(nrows, ncols, [[entry() for _ in range(ncols)] for _ in range(nrows)])


class TestGaussianRational:
    def test_field_ops(self):
        a = GaussianRational(Fraction(1, 2), 1)
        b = GaussianRational(2, -3)
        assert a + b == GaussianRational(Fraction(5, 2), -2)
        assert a * b - b * a == GR_ZERO
        assert (a / b) * b == a
        assert a - a == GR_ZERO

    def test_conjugation(self):
        z = GaussianRational(2, 5)
        assert z.conjugate() == GaussianRational(2, -5)
        assert (z * z.conjugate()).im == 0

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GR_ONE / GR_ZERO

    def test_json_round_trip(self):
        # (-15 + 14i) / 35 = -3/7 + 2/5 i
        assert entry_to_json(-15, 14, 35) == ["-3", "7", "2", "5"]
        assert entry_from_json(entry_to_json(-15, 14, 35)) == (-3, 7, 2, 5)
        assert entry_to_json(0, -4, 6) == ["0", "1", "-2", "3"]

    @pytest.mark.parametrize("item", [[0.5, 1, 0, 1], [True, 1, 0, 1], [1, 1, 0, 1.0],
                                      ["1.5", "1", "0", "1"], [" 1", "1", "0", "1"],
                                      [None, 1, 0, 1]])
    def test_only_integers_and_decimal_strings(self, item):
        with pytest.raises(ValueError, match="matrix entry part"):
            entry_from_json(item)

    def test_json_integers_and_signed_strings_accepted(self):
        assert entry_from_json([-3, "7", "+2", 5]) == (-3, 7, 2, 5)

    def test_unreduced_and_negative_denominators_keep_their_value(self):
        # 2/-4 + 3/6 i = (-1 + i) / 2, scaled by lcm(4, 6) = 12
        assert _int_row([entry_from_json(["2", "-4", "3", "6"]), (1, 1, 0, 1)], 2) == [
            (-6, 6), (12, 0)]

    @given(st.integers(-60, 60), st.integers(-60, 60), st.integers(1, 60))
    def test_entry_to_json_matches_fraction_writer(self, a, b, den):
        z = GaussianRational(Fraction(a, den), Fraction(b, den))
        assert entry_to_json(a, b, den) == fraction_entry_to_json(z)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            entry_from_json(["1", "0", "0", "1"])
        with pytest.raises(ValueError):
            entry_from_json(["1", "1", "0", "0"])

    def test_hash_agrees_with_equality(self):
        assert GaussianRational(3) == 3 and GaussianRational(3) in {3}
        assert GaussianRational(Fraction(1, 2)) in {Fraction(1, 2)}
        assert 3 in {GaussianRational(3)}

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50),
           st.integers(-50, 50))
    def test_mul_commutes(self, a, b, c, d):
        x = GaussianRational(a, b)
        y = GaussianRational(c, d)
        assert x * y == y * x
        assert x + y == y + x


class TestRref:
    def test_identity(self):
        m = RationalMatrix.identity(3)
        r, rank, piv = rref(m)
        assert (r, rank, piv) == (m, 3, [0, 1, 2])

    def test_zero(self):
        r, rank, piv = rref(RationalMatrix.zeros(1, 1))
        assert rank == 0 and piv == []

    def test_dependent_complex_rows(self):
        # second row is i times the first
        m = RationalMatrix.from_rows([[GR_ONE, GR_I], [GR_I, -GR_ONE]])
        r, rank, piv = rref(m)
        assert rank == 1
        expected, erank, epiv = reference_rref(m)
        assert (r, rank, piv) == (expected, erank, epiv)

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            r, _, _ = rref(m)
            r2, _, _ = rref(r)
            assert r2 == r

    def test_matches_reference_oracle(self):
        rng = random.Random(99)
        for trial in range(300):
            nrows = rng.randint(1, 6)
            ncols = rng.randint(1, 6)
            m = random_matrix(rng, nrows, ncols, bound=3,
                              denominators=(trial % 3 == 0))
            if trial % 4 == 0:
                # force rank deficiency by duplicating a row
                rows = [list(r) for r in m.entries]
                rows.append(list(rows[0]))
                m = RationalMatrix(nrows + 1, ncols, rows)
            assert rref(m) == reference_rref(m)

    def test_rank_equals_adjoint_rank(self):
        rng = random.Random(3)
        for _ in range(60):
            m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            assert rref(m)[1] == rref(conj_transpose(m))[1]


_PART = st.one_of(st.integers(-3, 3), st.integers(-2 ** 80, 2 ** 80))
_ENTRY = st.one_of(st.just((0, 0)), st.tuples(_PART, _PART))


class TestOneRowCanonical:
    """One row's form is built directly, with no elimination, and equals the
    Gauss-Jordan path."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 5), st.lists(_ENTRY, min_size=0, max_size=8))
    @example(0, [(0, 0)])
    @example(3, [])
    @example(1, [(-2 ** 80, 2 ** 80), (6, -4)])
    def test_matches_gauss_jordan(self, lead, tail):
        row = [(0, 0)] * lead + tail or [(0, 0)]
        want = gauss_jordan_canonical([list(row)], len(row))
        eliminations = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qlat.linalg, "_ff_gauss_jordan", lambda *a: eliminations.append(a))
            assert _canonical([list(row)], len(row)) == want
        assert eliminations == []

    def test_zero_row(self):
        assert _canonical([[(0, 0)] * 4], 4) == ((), 1, ())


class TestRankModP:
    # Gaussian integers that map to 0 in F_p.
    VANISHING = [(MOD_P, 0), (MOD_I, -1), (MOD_P - MOD_I, 1), (2 * MOD_P, MOD_P)]

    @staticmethod
    def exact_rank(rows, ncols):
        return rank(RationalMatrix(len(rows), ncols,
                                   [[GaussianRational(*z) for z in r] for r in rows]))

    def test_constants(self):
        assert MOD_P % 4 == 1 and MOD_I * MOD_I % MOD_P == MOD_P - 1

    def test_vanishing_entry_drops_rank(self):
        rows = [[(1, 0), (0, 0)], [(1, 0), (MOD_P - MOD_I, 1)]]
        assert rank_mod_p(rows, 2) == 1
        assert self.exact_rank(rows, 2) == 2

    def test_generic_rank_agrees(self):
        rows = [[(1, 2), (0, 1), (3, 0)], [(0, 0), (2, -1), (1, 1)]]
        assert rank_mod_p(rows, 3) == self.exact_rank(rows, 3) == 2
        assert rank_mod_p([], 3) == 0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    def test_lower_bound_on_exact_rank(self, nrows, ncols, seed):
        rng = random.Random(seed)

        def entry():
            if rng.random() < 0.3:
                return rng.choice(self.VANISHING)
            return rng.randint(-3, 3), rng.randint(-3, 3)

        rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.5:
            # Equal to the first row mod p, usually independent of it over Q(i).
            rows.append([(re + MOD_P * rng.randint(-1, 1), im + MOD_P * rng.randint(-1, 1))
                         for re, im in rows[0]])
        assert rank_mod_p(rows, ncols) <= self.exact_rank(rows, ncols)


class TestKernel:
    def test_identity_kernel_empty(self):
        for n in (1, 2, 4):
            k = kernel(RationalMatrix.identity(n))
            assert k.rows == 0 and k.cols == n

    def test_zero_matrix_full_kernel(self):
        k = kernel(RationalMatrix.zeros(1, 4))
        assert k == RationalMatrix.identity(4)

    def test_complex_line(self):
        # kernel of [1, -i] is the line through (i, 1)
        m = RationalMatrix.from_rows([[GR_ONE, -GR_I]])
        k = kernel(m)
        assert k.rows == 1
        v = RationalMatrix(2, 1, [[k[0, 0]], [k[0, 1]]])
        assert matmul(m, v).is_zero()
        # same line as (i, 1)
        joined, rank, _ = rref(vstack(k, RationalMatrix.from_rows([[GR_I, GR_ONE]])))
        assert rank == 1

    def test_kernel_vectors_annihilate_and_rank_nullity(self):
        rng = random.Random(41)
        for _ in range(60):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
            k = kernel(m)
            _, rank, _ = rref(m)
            assert rank + k.rows == m.cols
            for row in k.entries:
                v = RationalMatrix(m.cols, 1, [[x] for x in row])
                assert matmul(m, v).is_zero()


class TestAdjointAndProducts:
    def test_conj_transpose_examples(self):
        assert conj_transpose(RationalMatrix.from_rows([[GR_I]])) == \
            RationalMatrix.from_rows([[-GR_I]])
        m = RationalMatrix.from_rows([[1, 2], [3, 4]])
        assert conj_transpose(m) == RationalMatrix.from_rows([[1, 3], [2, 4]])

    def test_involution(self):
        rng = random.Random(5)
        for _ in range(30):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            assert conj_transpose(conj_transpose(m)) == m

    def test_matmul_identity(self):
        rng = random.Random(6)
        m = random_matrix(rng, 3, 3)
        assert matmul(m, RationalMatrix.identity(3)) == m
        assert matmul(RationalMatrix.identity(3), m) == m

    def test_matmul_shape_errors(self):
        a = RationalMatrix.zeros(2, 3)
        with pytest.raises(ValueError):
            matmul(a, RationalMatrix.zeros(2, 3))

    def test_kron_identities(self):
        assert kron(RationalMatrix.identity(2), RationalMatrix.identity(2)) == \
            RationalMatrix.identity(4)
        a = RationalMatrix.from_rows([[1, 2], [3, 4]])
        b = RationalMatrix.from_rows([[0, 1], [1, 0]])
        k = kron(a, b)
        assert (k.rows, k.cols) == (4, 4)
        assert k[0, 1] == GaussianRational(1)
        assert k[2, 1] == GaussianRational(3)
        assert k[2, 3] == GaussianRational(4)

    @settings(max_examples=30)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
    def test_kron_dims(self, a, b, c, d):
        m = kron(RationalMatrix.zeros(a, b), RationalMatrix.zeros(c, d))
        assert (m.rows, m.cols) == (a * c, b * d)


def test_only_linalg_imports_fractions():
    # linalg's boxed GaussianRational/RationalMatrix half is the one place a
    # Fraction is built; every other module runs on integers
    importers = set()
    for path in Path(qlat.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "fractions" for m in modules):
                importers.add(path.name)
    assert importers == {"linalg.py"}
