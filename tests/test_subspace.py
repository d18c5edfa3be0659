"""Lattice operations on subspaces: meet, join, ortho, embedding, sampling."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qlat.subspace
from qlat.linalg import (
    GR_I,
    MOD_I,
    MOD_P,
    GaussianRational,
    RationalMatrix,
    _canonical,
    _lowest_terms,
    conj_entries,
    kernel,
    rank_mod_p,
    row_space,
    vstack,
)
from qlat.subspace import (
    Subspace,
    random_subspace,
    random_subspace_rng,
    span,
    subspace_from_json,
    subspace_to_json,
)

from helpers import fraction_entry_to_json, oracle_random_subspace_rng

X_AXIS = span([[1, 0]], 2)
Y_AXIS = span([[0, 1]], 2)
DIAG = span([[1, 1]], 2)


def random_sub(rng, ambient):
    return random_subspace_rng(rng, ambient, rng.randint(0, ambient))


class TestConstruction:
    def test_span_examples(self):
        assert span([[1, 0]], 2).dim == 1
        assert span([], 3).is_zero()
        assert span([], 10 ** 12).is_zero()  # no work per column of an empty span
        assert span([[1, 0], [2, 0]], 2).dim == 1

    def test_span_length_mismatch(self):
        with pytest.raises(ValueError):
            span([[1, 0, 0]], 2)

    def test_ambient_zero_rejected(self):
        with pytest.raises(ValueError):
            span([], 0)
        with pytest.raises(ValueError):
            Subspace.zero(0)


class TestMeetJoinOrtho:
    def test_meet_axes(self):
        assert X_AXIS.meet(Y_AXIS).is_zero()

    def test_meet_idempotent_absorbing(self):
        assert X_AXIS.meet(X_AXIS) == X_AXIS
        assert Subspace.full(2).meet(DIAG) == DIAG

    def test_join_axes(self):
        assert X_AXIS.join(Y_AXIS).is_full()
        assert X_AXIS.join(Subspace.zero(2)) == X_AXIS

    def test_ortho_bounds(self):
        assert Subspace.zero(3).ortho().is_full()
        assert Subspace.full(3).ortho().is_zero()

    def test_ortho_real_line(self):
        assert X_AXIS.ortho() == Y_AXIS

    def test_ortho_complex_line(self):
        # <(1, i), (i, 1)> = conj(1)*i + conj(i)*1 = i - i = 0
        p = span([[1, GR_I]], 2)
        assert p.ortho() == span([[GR_I, 1]], 2)

    def test_ambient_mismatch_raises(self):
        p3 = span([[1, 0, 0]], 3)
        with pytest.raises(ValueError):
            X_AXIS.meet(p3)
        with pytest.raises(ValueError):
            X_AXIS.join(p3)
        with pytest.raises(ValueError):
            X_AXIS.leq(p3)
        assert X_AXIS != p3

    def test_leq(self):
        assert Subspace.zero(2).leq(X_AXIS)
        assert X_AXIS.leq(Subspace.full(2))
        assert not X_AXIS.leq(Y_AXIS)
        assert X_AXIS.leq(X_AXIS)

    def test_equality_lemma_distinct_lines(self):
        # (p | q) & (~p | ~q) is nonzero exactly when p != q
        gap = X_AXIS.join(Y_AXIS).meet(X_AXIS.ortho().join(Y_AXIS.ortho()))
        assert not gap.is_zero()
        same = X_AXIS.join(X_AXIS).meet(X_AXIS.ortho().join(X_AXIS.ortho()))
        assert same.is_zero()


class TestLatticeLaws:
    """Ortholattice and modularity properties on seeded random subspaces."""

    def test_ortholattice_laws(self):
        rng = random.Random(2024)
        for _ in range(200):
            n = rng.randint(1, 6)
            p = random_sub(rng, n)
            q = random_sub(rng, n)
            assert p.ortho().ortho() == p
            assert p.meet(p.ortho()).is_zero()
            assert p.join(p.ortho()).is_full()
            if p.leq(q):
                assert q.ortho().leq(p.ortho())
            assert p.meet(q).ortho() == p.ortho().join(q.ortho())
            assert p.join(q).ortho() == p.ortho().meet(q.ortho())

    def test_modularity_unconditional(self):
        rng = random.Random(11)
        for _ in range(150):
            n = rng.randint(1, 6)
            x, y, z = (random_sub(rng, n) for _ in range(3))
            lhs = x.meet(y.join(x.meet(z)))
            rhs = x.meet(y).join(z)
            assert lhs.meet(rhs) == lhs  # lhs <= rhs

    def test_orthomodularity_sasaki(self):
        rng = random.Random(12)
        for _ in range(150):
            n = rng.randint(1, 6)
            x, y = (random_sub(rng, n) for _ in range(2))
            lhs = x.meet(x.ortho().join(x.meet(y)))
            assert lhs.meet(y) == lhs

    def test_valuation_and_monotone(self):
        rng = random.Random(13)
        for _ in range(150):
            n = rng.randint(1, 6)
            p, q = (random_sub(rng, n) for _ in range(2))
            assert p.dim + q.dim == p.join(q).dim + p.meet(q).dim
            if p.leq(q) and p != q:
                assert p.dim < q.dim

    def test_equality_lemma_random(self):
        rng = random.Random(14)
        for _ in range(150):
            n = rng.randint(1, 5)
            p, q = (random_sub(rng, n) for _ in range(2))
            gap = p.join(q).meet(p.ortho().join(q.ortho()))
            assert (p == q) == gap.is_zero()


class TestTensorEmbed:
    def test_full_embeds_to_full(self):
        assert Subspace.full(2).tensor_embed(2).is_full()

    def test_dim_scaling(self):
        e = X_AXIS.tensor_embed(2, "right")
        assert (e.ambient, e.dim) == (4, 2)
        assert Subspace.zero(2).tensor_embed(3).is_zero()

    def test_sides_differ(self):
        right = X_AXIS.tensor_embed(2, "right")
        left = X_AXIS.tensor_embed(2, "left")
        assert right.ambient == left.ambient == 4
        assert right.dim == left.dim == 2

    def test_bad_args(self):
        with pytest.raises(ValueError):
            X_AXIS.tensor_embed(0)
        with pytest.raises(ValueError):
            X_AXIS.tensor_embed(2, "middle")

    def test_lattice_homomorphism(self):
        rng = random.Random(21)
        for side in ("right", "left"):
            for _ in range(40):
                p = random_sub(rng, 2)
                q = random_sub(rng, 2)
                f = rng.randint(1, 3)
                ep, eq = p.tensor_embed(f, side), q.tensor_embed(f, side)
                assert p.meet(q).tensor_embed(f, side) == ep.meet(eq)
                assert p.join(q).tensor_embed(f, side) == ep.join(eq)
                assert p.ortho().tensor_embed(f, side) == ep.ortho()


class TestRandomSubspace:
    def test_exact_dims(self):
        for d in range(0, 5):
            s = random_subspace(4, d, seed=3)
            assert s.dim == d

    def test_deterministic(self):
        a = random_subspace(4, 2, seed=123)
        b = random_subspace(4, 2, seed=123)
        assert a == b
        c = random_subspace(4, 2, seed=124)
        # overwhelmingly a different subspace
        assert a != c

    def test_dim_zero(self):
        assert random_subspace(3, 0, seed=0).is_zero()

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            random_subspace(3, 4, seed=0)

    def test_bad_entry_bound(self):
        with pytest.raises(ValueError, match="entry bound must be at least 1"):
            random_subspace_rng(random.Random(0), 2, 1, 0)


def _fields(s):
    return s.ambient, s.rows, s.den, s.piv, s.rev


class TestKnownFormDraws:
    """Dimension-0 and certified dimension-n draws skip elimination; every
    draw still returns the former path's form and leaves the RNG in the same
    state."""

    @staticmethod
    def _check_stream(ambient, dim, bound, seed):
        rng, oracle = random.Random(seed), random.Random(seed)
        got = random_subspace_rng(rng, ambient, dim, bound)
        want = oracle_random_subspace_rng(oracle, ambient, dim, bound)
        assert _fields(got) == _fields(want)
        assert rng.getstate() == oracle.getstate()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
           st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
    def test_stream_matches_oracle(self, ambient_dim, bound, seed):
        self._check_stream(*ambient_dim, bound, seed)

    @pytest.mark.parametrize("bound", [1, 2, 3, 4])
    def test_stream_matches_oracle_at_16(self, bound):
        for dim in range(17):
            self._check_stream(16, dim, bound, seed=1000 * bound + dim)

    def test_singular_full_draw_redraws_as_oracle(self):
        # seed 5's first 2 x 2 draw at entry bound 1 is singular, so the
        # certificate fails and the draw is eliminated and redrawn
        rng = random.Random(5)
        first = [[(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(2)] for _ in range(2)]
        assert rank_mod_p(first, 2) < 2 and len(_canonical(first, 2)[2]) < 2
        self._check_stream(2, 2, 1, seed=5)
        assert random_subspace(2, 2, seed=5, entry_bound=1).is_full()

    def test_zero_and_full_draws_are_shared_and_eliminate_nothing(self, eliminations):
        for n in (1, 2, 5, 16):
            rng = random.Random(n)
            zero, full = Subspace.zero(n), Subspace.full(n)
            eliminations.clear()
            assert random_subspace_rng(rng, n, 0) is zero
            assert random_subspace_rng(rng, n, n) is full
            assert eliminations == []


class TestJson:
    def test_round_trip(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(1, 5)
            p = random_sub(rng, n)
            blob = subspace_to_json(p)
            assert subspace_from_json(blob) == p

    def test_format(self):
        p = span([[GaussianRational(Fraction(1, 2), Fraction(-1, 3))]], 1)
        blob = subspace_to_json(p)
        assert blob["ambient"] == 1
        # canonical basis normalizes the leading entry to 1
        assert blob["basis"] == [[["1", "1", "0", "1"]]]

    def test_malformed(self):
        with pytest.raises(ValueError):
            subspace_from_json({"ambient": 2})
        with pytest.raises(ValueError):
            subspace_from_json({"ambient": 2, "basis": [[["1", "1", "0"]]]})
        for basis in (5, [5], {"a": 1}, "ab", [(1, 0)]):
            with pytest.raises(ValueError, match="basis must be a list of rows"):
                subspace_from_json({"ambient": 2, "basis": basis})

    def test_format_with_denominators(self):
        x = span([[1, GaussianRational(Fraction(1, 2), Fraction(-1, 3))]], 2)
        assert x.den == 6
        assert subspace_to_json(x)["basis"] == [[["1", "1", "0", "1"], ["1", "2", "-1", "3"]]]
        assert subspace_to_json(~x) == _oracle_json(2, (~x).basis)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    def test_writer_matches_boxed_writer(self, n, seed):
        # inputs with denominators, so forms over den > 1, in both orientations
        rng = random.Random(seed)

        def entry():
            roll = rng.random()
            if roll < 0.3:
                return 0
            if roll < 0.5:
                return rng.randint(-3, 3)
            return GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                                    Fraction(rng.randint(-4, 4), rng.randint(1, 4)))

        x, y = (span([[entry() for _ in range(n)] for _ in range(rng.randint(0, n))], n)
                for _ in range(2))
        values = [x, ~x, ~~x, x & y, ~(x & y), x | ~y, Subspace.zero(n), Subspace.full(n)]
        for v in values:
            blob = subspace_to_json(v)
            assert blob == _oracle_json(n, v.basis)
            assert subspace_from_json(blob) == v
        assert (~x).rev == (0 < x.dim < n) and not (~~x).rev

    @pytest.mark.parametrize("entry", [["2", "-4", "3", "6"], ["-6", "-9", "0", "-5"],
                                       [4, 2, "-8", "-12"], ["0", "-7", "5", "5"]])
    def test_decoder_matches_boxed_decode(self, entry):
        # unreduced parts and negative denominators keep their value
        rows = [[entry, ["1", "1", "0", "1"], ["0", "1", "0", "1"]],
                [["0", "1", "0", "1"], entry, ["3", "-2", "1", "4"]]]
        boxed = span([[GaussianRational(Fraction(int(a), int(b)), Fraction(int(c), int(d)))
                       for a, b, c, d in row] for row in rows], 3)
        assert subspace_from_json({"ambient": 3, "basis": rows}) == boxed

    @pytest.mark.parametrize("ambient", [2.9, 2.0, True, "2.0", None])
    def test_ambient_must_be_an_integer(self, ambient):
        with pytest.raises(ValueError, match="ambient"):
            subspace_from_json({"ambient": ambient, "basis": []})

    def test_ambient_decimal_string_accepted(self):
        assert subspace_from_json({"ambient": "2", "basis": []}) == Subspace.zero(2)


@pytest.fixture
def eliminations(monkeypatch):
    calls = []
    exact = qlat.subspace._canonical

    def counted(rows, ncols):
        calls.append(ncols)
        return exact(rows, ncols)

    monkeypatch.setattr(qlat.subspace, "_canonical", counted)
    return calls


def _oracle_ortho(m):
    return kernel(conj_entries(m))


def _oracle_join(a, b):
    return row_space(vstack(a, b))


def _oracle_meet(a, b):
    return kernel(vstack(conj_entries(_oracle_ortho(a)), conj_entries(_oracle_ortho(b))))


def _oracle_eq(x, y):
    """The former ``==``: across orientations, both values brought forward by
    an elimination, then compared syntactically."""
    if x.rev != y.rev:
        if x.ambient != y.ambient or x.dim != y.dim:
            return False
        x, y = (Subspace(v.ambient, *_canonical([list(r) for r in v.rows], v.ambient))
                for v in (x, y))
    return (x.ambient, x.den, x.rows) == (y.ambient, y.den, y.rows)


def _oracle_tensor_embed(x, f, side):
    """The former ``tensor_embed``: every b kron e_j (or e_j kron b) stacked
    and eliminated, in reverse column order for a reverse operand."""
    n, m = x.ambient, x.ambient * f
    rows = []
    for row in x.rows:
        for j in range(f):
            v = [(0, 0)] * m
            v[slice(j, None, f) if side == "right" else slice(j * n, (j + 1) * n)] = row
            rows.append(v)
    if not x.rev:
        return Subspace(m, *_canonical(rows, m))
    num, den, piv = _canonical([r[::-1] for r in rows], m)
    return Subspace(m, tuple(r[::-1] for r in reversed(num)), den,
                    tuple(m - 1 - c for c in reversed(piv)), True)


def _oracle_json(ambient, m):
    return {"ambient": ambient,
            "basis": [[fraction_entry_to_json(z) for z in row] for row in m.entries]}


class TestIntegerKernelOracle:
    """The integer lattice kernel against the matrix algorithms of qlat.linalg
    on boxed rationals: meet as the kernel of stacked kernel representations,
    join as the row space of stacked bases, ortho as the kernel of the
    conjugated basis."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
    def test_matches_oracle(self, n, bound, seed):
        rng = random.Random(seed)

        def operand():
            zero_p = rng.random()
            vecs = [[0 if rng.random() < zero_p else
                     GaussianRational(rng.randint(-bound, bound), rng.randint(-bound, bound))
                     for _ in range(n)] for _ in range(rng.randint(0, n))]
            return span(vecs, n), row_space(RationalMatrix(len(vecs), n, vecs))

        (a, oa), (b, ob) = operand(), operand()
        ops = [(a, oa), (b, ob), (~a, _oracle_ortho(oa)),
               (a | ~b, _oracle_join(oa, _oracle_ortho(ob))),
               (~a & b, _oracle_meet(_oracle_ortho(oa), ob))]
        for x, ox in ops:
            assert subspace_to_json(x) == _oracle_json(n, ox)
        for (x, ox), (y, oy) in [(ops[0], ops[1]), (ops[3], ops[4]), (ops[4], ops[0]),
                                 (ops[1], ops[3])]:
            meet = x & y
            assert subspace_to_json(meet) == _oracle_json(n, _oracle_meet(ox, oy))
            assert subspace_to_json(x | y) == _oracle_json(n, _oracle_join(ox, oy))
            assert subspace_to_json(~x) == _oracle_json(n, _oracle_ortho(ox))
            assert x.leq(y) == (meet == x)
            assert y.leq(x) == (meet == y)


class TestModularCertificates:
    """Join and meet short-cut to the full space and to 0 when the stacked
    rows have full rank mod p; anything else takes the exact path."""

    @pytest.mark.parametrize("entry", [MOD_P, GaussianRational(MOD_P - MOD_I, 1)],
                             ids=["real", "gaussian"])
    def test_fallback_when_rank_drops_mod_p(self, entry):
        # (1, entry) is independent of e0 over Q(i), but entry = 0 mod p.
        a, b = span([[1, 0]], 2), span([[1, entry]], 2)
        assert rank_mod_p(a.rows + b.rows, 2) < 2
        assert (a | b).is_full()
        assert (a & b).is_zero()

    @pytest.mark.parametrize("entry", [MOD_P, GaussianRational(MOD_P - MOD_I, 1)],
                             ids=["real", "gaussian"])
    def test_fallback_when_rank_drops_mod_p_in_c4(self, entry, eliminations):
        # Planes of C^4 are neither atoms nor coatoms, so the certificates
        # run; b is a plus entry * (e2, e3), independent over Q(i) but equal
        # to a mod p, so both miss and the exact path decides.
        a = span([[1, 0, 0, 0], [0, 1, 0, 0]], 4)
        b = span([[1, 0, entry, 0], [0, 1, 0, entry]], 4)
        assert rank_mod_p(a.rows + b.rows, 4) == 2
        eliminations.clear()
        assert (a | b).is_full()
        assert eliminations == [4]
        assert (a & b).is_zero()
        assert eliminations == [4, 4]
        assert subspace_to_json(a | b) == _oracle_json(4, _oracle_join(a.basis, b.basis))
        assert subspace_to_json(a & b) == _oracle_json(4, _oracle_meet(a.basis, b.basis))

    def test_full_is_shared(self):
        assert Subspace.full(5) is Subspace.full(5)
        assert Subspace.full(5).ortho().is_zero()
        assert Subspace.full(5).ortho().ortho() is Subspace.full(5)

    def test_generic_full_join_eliminates_nothing(self, eliminations):
        a, b = random_subspace(16, 8, seed=1), random_subspace(16, 8, seed=2)
        eliminations.clear()
        assert (a | b) is Subspace.full(16)
        assert eliminations == []

    def test_zero_is_shared(self, eliminations):
        from qlat.formula import evaluate, parse

        assert Subspace.zero(16) is Subspace.zero(16)
        assert Subspace.zero(16).ortho() is Subspace.full(16)
        x = random_subspace(16, 5, seed=5)
        eliminations.clear()
        assert Subspace.zero(16).ortho().is_full()
        assert eliminations == []
        for _ in range(2):
            assert evaluate(parse("x | ~0"), {"x": x}).is_full()
        assert eliminations == []

    def test_cache_clear_resets_full_and_zero(self):
        full, zero = Subspace.full(7), Subspace.zero(7)
        qlat.subspace._full_space.cache_clear()
        assert Subspace.full(7) is not full and Subspace.zero(7) is not zero
        assert Subspace.zero(7).ortho() is Subspace.full(7)
        assert Subspace.full(7).ortho() is Subspace.zero(7)

    def test_generic_zero_meet_eliminates_nothing(self, eliminations):
        a, b = random_subspace(16, 5, seed=3), random_subspace(16, 6, seed=4)
        eliminations.clear()
        assert (a & b).is_zero()
        assert eliminations == []
        assert a._ortho is None and b._ortho is None

    @settings(max_examples=60, deadline=None)
    @given(st.integers(9, 16), st.sampled_from(["generic", "overlap", "trap"]),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_oracle_high_dim(self, n, mode, seed):
        # "generic" operands fire the join certificate when da + db >= n and
        # the meet certificate when da + db <= n. "overlap" shares rows, so
        # the stacked rows are dependent over Q(i); "trap" adds p to one free
        # entry of each row of a, which changes the span over Q(i) but not
        # mod p. Both make the certificates miss.
        rng = random.Random(seed)
        a = random_subspace_rng(rng, n, rng.randint(1, n - 1), 2)
        if mode == "generic":
            b = random_subspace_rng(rng, n, rng.randint(1, n - 1), 2)
        elif mode == "overlap":
            shared = [list(r) for r in a.rows[:rng.randint(1, a.dim)]]
            extra = random_subspace_rng(rng, n, rng.randint(0, n - len(shared)), 2)
            b = span([[GaussianRational(*z) for z in r] for r in shared + list(extra.rows)], n)
        else:
            f = next(c for c in range(n) if c not in a.piv)
            b = span([[GaussianRational(re + MOD_P * (c == f), im) for c, (re, im) in enumerate(r)]
                      for r in a.rows], n)
            assert rank_mod_p(a.rows + b.rows, n) == a.dim
        oa, ob = a.basis, b.basis
        assert subspace_to_json(a | b) == _oracle_json(n, _oracle_join(oa, ob))
        assert subspace_to_json(a & b) == _oracle_json(n, _oracle_meet(oa, ob))


def _flip(v):
    """v in the other orientation (0 and the whole space have only one)."""
    return v._forward() if v.rev else ~((~v)._forward())


def _check_against_oracle(pairs, n):
    for x, y in pairs:
        ox, oy = x.basis, y.basis
        assert subspace_to_json(x & y) == _oracle_json(n, _oracle_meet(ox, oy))
        assert subspace_to_json(x | y) == _oracle_json(n, _oracle_join(ox, oy))


class TestCoveringRule:
    """An atom p or a coatom h decides join and meet by one leq: p & x is p
    or 0, p | x is x when p <= x, x | h is h or the whole space, x & h is x
    when x <= h. The boxed oracles decide every result."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8), st.sampled_from(["atom", "coatom"]),
           st.sampled_from(["inside", "outside", "equal", "any"]),
           st.booleans(), st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_matches_oracle(self, n, kind, relation, flip_s, flip_x, seed):
        # "inside" is p <= x for an atom and x <= h for a coatom, "outside"
        # its negation; x <= h is built from random combinations of h's rows
        rng = random.Random(seed)
        s = random_subspace_rng(rng, n, 1 if kind == "atom" else n - 1, 2)
        rows = [list(r) for r in s.basis.entries]
        if relation == "equal":
            x = span(rows, n)
        elif relation == "inside" and kind == "atom":
            extra = random_subspace_rng(rng, n, rng.randint(0, n), 2).basis.entries
            x = span(rows + [list(r) for r in extra], n)
        elif relation == "inside":
            coeffs = [[rng.randint(-2, 2) for _ in rows] for _ in range(rng.randint(0, len(rows)))]
            x = span([[sum((r[j] * c for r, c in zip(rows, cs)), GaussianRational(0))
                       for j in range(n)] for cs in coeffs], n)
        else:
            x = random_subspace_rng(rng, n, rng.randint(0, n), 2)
        if relation in ("inside", "equal"):
            assert s.leq(x) if kind == "atom" else x.leq(s)
        elif relation == "outside":
            assume(not (s.leq(x) if kind == "atom" else x.leq(s)))
        s, x = _flip(s) if flip_s else s, _flip(x) if flip_x else x
        _check_against_oracle([(s, x), (x, s), (s, s)], n)

    def test_lines_of_c2(self):
        # every proper subspace of C^2 is a line, an atom and a coatom at once;
        # ~X_AXIS is Y_AXIS in reverse orientation
        lines = [X_AXIS, Y_AXIS, DIAG, ~X_AXIS, ~DIAG]
        _check_against_oracle([(a, b) for a in lines for b in lines], 2)
        assert (X_AXIS & DIAG).is_zero() and (X_AXIS | DIAG).is_full()
        y_rev = ~X_AXIS
        for r in (Y_AXIS & y_rev, Y_AXIS | y_rev, y_rev & Y_AXIS, y_rev | Y_AXIS):
            assert r is Y_AXIS or r is y_rev

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_decided_without_elimination_or_rank(self, n, eliminations, monkeypatch):
        ranks = []
        plain = qlat.subspace.rank_mod_p

        def counted(rows, ncols):
            ranks.append(ncols)
            return plain(rows, ncols)

        monkeypatch.setattr(qlat.subspace, "rank_mod_p", counted)
        rng = random.Random(n)
        x = random_subspace_rng(rng, n, 2)
        rows = [list(r) for r in x.basis.entries]
        p_in, p_out = span(rows[:1], n), random_subspace_rng(rng, n, 1)
        extra = [list(r) for r in random_subspace_rng(rng, n, n - 3).basis.entries]
        h_in, h_out = span(rows + extra, n), random_subspace_rng(rng, n, n - 1)
        assert h_in.dim == n - 1 and not p_out.leq(x) and not x.leq(h_out)
        assert not p_out.leq(h_out)
        eliminations.clear()
        ranks.clear()
        assert (p_in & x) is p_in and (x & p_in) is p_in
        assert (p_out & x).is_zero() and (x & p_out).is_zero()
        assert (p_in | x) is x and (x | p_in) is x
        assert (x | h_in) is h_in and (h_in | x) is h_in
        assert (x | h_out).is_full() and (p_out | h_out).is_full()
        assert (x & h_in) is x and (h_in & x) is x
        o = ~h_in
        assert o.rev and (o & ~x) is o and (~x | o) is ~x
        assert eliminations == [] and ranks == []


def _overlapping_pair(rng, n, bound):
    """Two subspaces of C^n that share a random number of a's rows, so their
    meet is often neither 0 nor either operand and no certificate fires."""
    a = random_subspace_rng(rng, n, rng.randint(0, n), bound)
    shared = [list(r) for r in a.rows[:rng.randint(0, a.dim)]]
    extra = random_subspace_rng(rng, n, rng.randint(0, n - len(shared)), bound)
    return a, span([[GaussianRational(*z) for z in r] for r in shared + list(extra.rows)], n)


class TestTwoOrientations:
    """ortho flips a value between the forward echelon form (the RREF) and the
    reverse one without an elimination; meet eliminates once, in reverse
    column order. The boxed oracles and forward ``_canonical`` decide every
    result."""

    def test_ortho_eliminates_nothing(self, eliminations):
        a = random_subspace(16, 7, seed=6)
        full = span([[int(i == j) for j in range(16)] for i in range(16)], 16)
        assert full is not Subspace.full(16)
        eliminations.clear()
        o = ~a
        oo = ~o
        assert o.rev and not oo.rev and o.dim == 9 and oo == a
        assert (~full).is_zero() and not (~full).rev
        assert (~~full).is_full()
        assert eliminations == []

    def test_ortho_is_the_other_orientation(self):
        # ~a is the RREF of ~a taken with the columns in reverse order, rows in
        # ascending pivot order; ~~a is a's own RREF, row for row.
        rng = random.Random(11)
        for n in range(1, 13):
            a = random_subspace_rng(rng, n, rng.randint(0, n), 2)
            o = ~a
            num, den, piv = qlat.subspace._canonical([list(r[::-1]) for r in o.rows], n)
            assert (o.rows, o.den, o.piv) == (tuple(r[::-1] for r in reversed(num)), den,
                                              tuple(n - 1 - c for c in reversed(piv)))
            assert o.rev == (0 < a.dim < n)
            oo = ~o
            assert (oo.rev, oo.rows, oo.den, oo.piv) == (False, a.rows, a.den, a.piv)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
    def test_ortho_is_in_lowest_terms(self, n, bound, seed):
        # ortho reduces nothing: its kernel rows over den are already in
        # lowest terms, with the gcd of the kept _lowest_terms as the oracle
        rng = random.Random(seed)
        a, b = _overlapping_pair(rng, n, bound)
        full = span([[int(i == j) for j in range(n)] for i in range(n)], n)
        assert full is not Subspace.full(n)
        for x in (a, ~a, a & b, ~(a | b), full, span([], n), Subspace.zero(n),
                  Subspace.full(n)):
            o = ~x
            assert o.rev == (0 < x.dim < n and not x.rev)
            assert _lowest_terms(o.rows, o.den) == (o.rows, o.den)

    def test_uncertified_meet_eliminates_once(self, eliminations):
        a = random_subspace(12, 7, seed=8)
        b = span([[GaussianRational(*z) for z in r]
                  for r in a.rows[:3] + random_subspace(12, 4, seed=9).rows], 12)
        eliminations.clear()
        m = a & b
        assert len(eliminations) == 1
        assert not m.rev and m.dim == 3

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 16), st.integers(1, 2), st.integers(0, 2 ** 32 - 1))
    def test_mixed_orientations_match_oracle(self, n, bound, seed):
        rng = random.Random(seed)
        a, b = _overlapping_pair(rng, n, bound)
        oa, ob = a.basis, b.basis
        na, nb = _oracle_ortho(oa), _oracle_ortho(ob)
        ops = [(~a, na), (~a & b, _oracle_meet(na, ob)), (~a | ~b, _oracle_join(na, nb)),
               (~~a, oa), (~(~a | ~b), _oracle_meet(oa, ob)), (b, ob)]
        want = [_oracle_json(n, ox) for _, ox in ops]
        perp = [_oracle_ortho(ox) for _, ox in ops]
        for (x, _), px in zip(ops, perp):
            assert subspace_to_json(~x) == _oracle_json(n, px)
        for i, ((x, ox), wx) in enumerate(zip(ops, want)):
            assert subspace_to_json(x) == wx
            for j in range(i, len(ops)):
                (y, oy), wy = ops[j], want[j]
                assert (x == y) == (y == x) == (wx == wy)
                if wx == wy:
                    assert hash(x) == hash(y)
                joined = _oracle_json(n, _oracle_join(ox, oy))
                assert x.leq(y) == (joined == wy) and y.leq(x) == (joined == wx)
                assert subspace_to_json(x | y) == joined
                # a & b = ~(~a | ~b), from the oracle orthocomplements already built
                meet = _oracle_ortho(_oracle_join(perp[i], perp[j]))
                assert subspace_to_json(x & y) == _oracle_json(n, meet)


class TestNoReElimination:
    """== across orientations is containment at equal dimension and
    tensor_embed places the operand's own rows: neither eliminates, and both
    agree with the former eliminating versions."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 3), st.sampled_from(["right", "left"]),
           st.integers(0, 2 ** 32 - 1))
    def test_tensor_embed_matches_oracle(self, n, f, side, seed):
        rng = random.Random(seed)
        a, b = _overlapping_pair(rng, n, 2)
        for x in (a, ~a, a & b, ~(a | b), Subspace.zero(n), Subspace.full(n)):
            e, want = x.tensor_embed(f, side), _oracle_tensor_embed(x, f, side)
            assert (e.ambient, e.rows, e.den, e.piv, e.rev) == (
                want.ambient, want.rows, want.den, want.piv, want.rev)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 2), st.integers(0, 2 ** 32 - 1))
    def test_equality_matches_oracle(self, n, bound, seed):
        rng = random.Random(seed)
        a, b = _overlapping_pair(rng, n, bound)
        values = [a, b, ~a, ~b, ~~a, a & b, ~(a | b), a | ~b, span((~a).basis.entries, n),
                  Subspace.zero(n), Subspace.full(n)]
        for x in values:
            for y in values:
                assert (x == y) == _oracle_eq(x, y)

    def test_eliminate_nothing(self, eliminations):
        a = random_subspace(12, 5, seed=10)
        o = ~a
        b = span(o.basis.entries, 12)
        d = random_subspace(12, 7, seed=11)
        assert o.rev and not b.rev and not d.rev
        eliminations.clear()
        assert o == b and b == o
        assert o != d and d != o
        for x in (a, o, b):
            for side in ("right", "left"):
                x.tensor_embed(3, side)
        assert o.tensor_embed(2) == b.tensor_embed(2)
        assert eliminations == []


def _referrers(name):
    """The functions and methods of qlat whose bodies mention ``name``."""
    found = set()
    for path in Path(qlat.subspace.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Attribute) and node.attr == name
                    or isinstance(node, ast.Name) and node.id == name
                    for node in ast.walk(fn)):
                found.add(fn.name)
    return found


def test_forward_form_is_an_output_format():
    # only output paths bring a reverse value forward; == and tensor_embed
    # never eliminate
    assert _referrers("_forward") == {"basis", "__hash__", "subspace_to_json"}
    assert not {"__eq__", "tensor_embed"} & _referrers("_canonical")
