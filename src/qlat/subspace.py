"""The lattice of subspaces of C^n.

A subspace is held as a canonical reduced echelon form: Gaussian-integer
numerator rows over the smallest positive common denominator, plus pivot
columns. The form has one of two orientations. A forward form is the RREF, with
each row's pivot at its first nonzero column; a reverse form is the RREF taken
with the columns in reverse order, with each row's pivot at its last nonzero
column. Either way rows are in ascending pivot order, so each orientation is
unique per subspace and equality within one orientation is syntactic.

The kernel rows that ``linalg._null_rows`` reads off one orientation are, with
no gcd, the orthocomplement's form in the other orientation (matroid duality,
see the README design notes), so ortho makes no elimination. Join reduces the
rows of the smaller operand against the echelon form of the larger one A (the
left operand on a tie), as leq does, and eliminates only the residual rows,
at most the smaller dimension, in A's orientation; the result is in A's
orientation, and is A itself when nothing is left. Meet is the De Morgan dual
~(~a | ~b): it still stacks the rows of the two free orthocomplements and
eliminates them once, in reverse column order, and the ortho of that reverse
form is the forward meet. leq reduces rows against either orientation; ==
across orientations is leq at equal dimension; tensor_embed places the
operand's rows: none eliminates. hash, basis and JSON read the forward form,
which a reverse value derives with one elimination.

An atom (a line) or a coatom (a hyperplane) decides a join or meet by one
leq, the covering law of the atomistic lattice: for an atom p, p & x is p if
p <= x and 0 otherwise; for a coatom h, x | h is h if x <= h and the whole
space otherwise, and x & h is x if x <= h. Each result is an operand or the
shared zero or full space, already canonical in its own orientation, so none
eliminates. In C^2 every proper subspace is both. An atom p <= x needs no
join case of its own: the join's reduction of p against x leaves nothing and
returns x itself, with no elimination.

Otherwise, before eliminating, join and meet try a certificate: the rank of
the stacked rows modulo one prime (``linalg.rank_mod_p``), a lower bound on
their exact rank. Mod-p rank n proves a join is the full space; mod-p rank
dim a + dim b proves the rows independent, so
dim(a & b) = dim a + dim b - dim(a | b) = 0.
Any other outcome falls through to the exact path, so a certificate is never
wrong, only sometimes unused. The full space and the zero are one shared pair
of values per ambient, each the other's ortho; any other value caches its ortho
without a link back, so values hold no reference cycle. A random draw whose
form is known skips elimination: dimension 0 is the shared zero, and
dimension n with mod-p rank n is the shared full space.
All operations are exact and pure; values are immutable and freely shareable.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .linalg import (
    RationalMatrix,
    _canonical,
    _canonical_boxed,
    _int_row,
    _lowest_terms,
    _null_rows,
    _rational_matrix,
    entry_from_json,
    entry_to_json,
    int_from_json,
    rank_mod_p,
)

REDRAW_CAP = 1000
DEFAULT_ENTRY_BOUND = 3


class Subspace:
    """A subspace of C^n held as its canonical echelon form ``rows / den``,
    rows of ``(re, im)`` integer pairs, with pivot columns ``piv``: forward
    (the RREF) or, if ``rev``, reverse. Each row has ``den`` on its own pivot
    and 0 on every other pivot."""

    __slots__ = ("ambient", "rows", "den", "piv", "rev", "_ortho")

    def __init__(self, ambient: int, rows=(), den: int = 1, piv=(), rev: bool = False):
        # Internal: (rows, den, piv) must be canonical in the orientation rev,
        # as from _canonical for forward. 0 and the whole space read the same
        # in both orientations, so they are always marked forward.
        if ambient < 1:
            raise ValueError("ambient dimension must be at least 1")
        self.ambient, self.rows, self.den, self.piv = ambient, rows, den, piv
        self.rev = rev and 0 < len(rows) < ambient
        self._ortho = None

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        """The zero of C^ambient; one shared value per ambient, the ortho of
        the shared full space."""
        return _full_space(ambient)._ortho

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        """The whole of C^ambient; one shared value per ambient."""
        return _full_space(ambient)

    @property
    def basis(self) -> RationalMatrix:
        """The canonical RREF basis as exact rationals, built on demand."""
        f = self._forward()
        return _rational_matrix(f.rows, f.den, self.ambient)

    def _forward(self) -> "Subspace":
        """This subspace in forward orientation: itself, or for a reverse
        value one elimination, not cached."""
        if not self.rev:
            return self
        return Subspace(self.ambient, *_canonical([list(r) for r in self.rows], self.ambient))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient

    def _check_ambient(self, other: "Subspace"):
        if not isinstance(other, Subspace):
            raise TypeError(f"expected a Subspace, got {type(other).__name__}")
        if self.ambient != other.ambient:
            raise ValueError(
                f"ambient dimension mismatch: {self.ambient} vs {other.ambient}")

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.rev != other.rev:
            return self.ambient == other.ambient and self.dim == other.dim and self.leq(other)
        return (self.ambient, self.den, self.rows) == (other.ambient, other.den, other.rows)

    def __hash__(self):
        f = self._forward()
        return hash((f.ambient, f.den, f.rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of C^{self.ambient}, basis {self.basis!r})"

    def leq(self, other: "Subspace") -> bool:
        """Containment self <= other: each row of self reduces to zero against
        other's echelon form, in either orientation. Within one orientation,
        pivots are the leading (or trailing) columns, so self's are among
        other's."""
        self._check_ambient(other)
        opiv = set(other.piv)
        if self.rev == other.rev and not opiv.issuperset(self.piv):
            return False
        free = [c for c in range(self.ambient) if c not in opiv]
        for row in self.rows:
            for c in free:
                re = im = 0
                for pc, orow in zip(other.piv, other.rows):
                    (a, b), (x, y) = row[pc], orow[c]
                    re += a * x - b * y
                    im += a * y + b * x
                if re != other.den * row[c][0] or im != other.den * row[c][1]:
                    return False
        return True

    def meet(self, other: "Subspace") -> "Subspace":
        """Set intersection, as the De Morgan dual ~(~self | ~other), unless
        an atom or a coatom decides it by one leq (module docstring) or the
        stacked rows are independent mod p, which makes the meet 0. The
        rows of ~self and ~other are eliminated once, in reverse column order,
        so the ortho of that join is forward and free. The join's full-rank
        certificate is not tried: ~self | ~other is full exactly when the
        meet is 0, and can be only when k <= n, where the test above ran."""
        self._check_ambient(other)
        n, ds, do = self.ambient, len(self.rows), len(other.rows)
        if ds == 0 or do == n:
            return self
        if do == 0 or ds == n:
            return other
        if ds == 1 or do == 1:
            p, x = (self, other) if ds == 1 else (other, self)
            return p if p.leq(x) else Subspace.zero(n)
        if do == n - 1 and self.leq(other):
            return self
        if ds == n - 1 and other.leq(self):
            return other
        k = ds + do
        if k <= n and rank_mod_p(self.rows + other.rows, n) == k:
            return Subspace.zero(n)
        rows = self.ortho().rows + other.ortho().rows
        num, den, piv = _canonical([list(r[::-1]) for r in rows], n)
        return Subspace(n, tuple(r[::-1] for r in reversed(num)), den,
                        tuple(n - 1 - c for c in reversed(piv)), True).ortho()

    def join(self, other: "Subspace") -> "Subspace":
        """Span of the union: decided by one leq when an operand is a coatom
        (module docstring), the full space when the stacked rows have rank n
        mod p, else by reducing the rows of the operand of smaller dimension
        against the echelon form of the larger one, A (self on a tie), and
        eliminating only the nonzero residuals (``_join_by_reduction``). The
        result is in A's orientation, and is A itself, with no elimination,
        when the other operand (an atom, say) is contained in it. No operand
        is brought forward."""
        self._check_ambient(other)
        n, ds, do = self.ambient, len(self.rows), len(other.rows)
        if do == 0 or ds == n:
            return self
        if ds == 0 or do == n:
            return other
        if ds == n - 1 or do == n - 1:
            h, x = (self, other) if ds == n - 1 else (other, self)
            return h if x.leq(h) else Subspace.full(n)
        rows = self.rows + other.rows
        if len(rows) >= n and rank_mod_p(rows, n) == n:
            return Subspace.full(n)
        return _join_by_reduction(other, self) if do > ds else _join_by_reduction(self, other)

    def ortho(self) -> "Subspace":
        """Orthogonal complement: all v with <b, v> = sum conj(b_i) v_i = 0,
        the kernel of the conjugated echelon form; cached on self only. Its
        kernel rows over ``den`` are the complement's form in the other
        orientation, with no elimination and no gcd: their parts are ``den``
        and this form's free-column parts, whose gcd is 1, as this form is in
        lowest terms with only ``den`` or 0 on its pivots (full space: den 1)."""
        if self._ortho is None:
            n, piv = self.ambient, self.piv
            conj = [[(a, -b) for a, b in row] for row in self.rows]
            self._ortho = Subspace(n, _null_rows(conj, self.den, piv, n), self.den,
                                   tuple(c for c in range(n) if c not in piv), not self.rev)
        return self._ortho

    __and__ = meet
    __or__ = join
    __invert__ = ortho

    def tensor_embed(self, factor_dim: int, side: str = "right") -> "Subspace":
        """Image under the lattice embedding into C^(ambient * factor_dim).

        side="right" sends a basis row b to {b kron e_j}; side="left" to
        {e_j kron b}. Both multiply dim by factor_dim and commute with meet,
        join and ortho. The placed rows over ``den``, in this orientation, are
        the image's canonical form: each keeps ``den`` on its own pivot and 0
        on every other; its nonzero parts are this form's, so it stays in
        lowest terms; for fixed j, c -> c*f + j (right) or j*n + c (left)
        increases, so first (last) nonzero columns stay first (last)."""
        if factor_dim < 1:
            raise ValueError("factor dimension must be at least 1")
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        n, f = self.ambient, factor_dim
        placed = sorted((c * f + j if side == "right" else j * n + c, j, row)
                        for row, c in zip(self.rows, self.piv) for j in range(f))
        rows = []
        for _, j, row in placed:
            v = [(0, 0)] * (n * f)
            v[slice(j, None, f) if side == "right" else slice(j * n, (j + 1) * n)] = row
            rows.append(tuple(v))
        return Subspace(n * f, tuple(rows), self.den, tuple(c for c, _, _ in placed), self.rev)


def _join_by_reduction(a: Subspace, b: Subspace) -> Subspace:
    """The join of two canonical forms, dim a >= dim b, in a's orientation.

    Each row v of b becomes ``den_a·v - Σ_k v[pc_k]·a_k``, which is 0 on a's
    pivots (leq's reduction; any spanning rows of b will do). If every
    residual is 0, b <= a and the join is a. Otherwise only the nonzero
    residuals, at most dim b rows, are eliminated, in a's orientation, to R
    over ``den_R`` with pivots pr_j. Then each ``den_R·a_k - Σ_j a_k[pr_j]·R_j``
    and each ``den_a·R_j``, over ``den_a·den_R``, has that value on its own
    pivot and 0 on every other, and is 0 before (reverse: after) its pivot,
    as a_k and R_j are: merged in pivot order, they are the join's echelon
    form, and one gcd makes it canonical."""
    n, den, cols = a.ambient, a.den, range(a.ambient)
    free = [c for c in cols if c not in a.piv]
    res = []
    for row in b.rows:
        v = _reduced(row, den, [(row[pc], arow) for pc, arow in zip(a.piv, a.rows)], free, n)
        if v.count((0, 0)) < n:
            res.append(v[::-1] if a.rev else v)
    if not res:
        return a
    rnum, rden, rpiv = _canonical(res, n)
    if a.rev:
        rnum = [r[::-1] for r in reversed(rnum)]
        rpiv = [n - 1 - c for c in reversed(rpiv)]
    merged = [(pr, _reduced(r, den, (), cols, n)) for pr, r in zip(rpiv, rnum)]
    for pc, arow in zip(a.piv, a.rows):
        terms = [(arow[pr], r) for pr, r in zip(rpiv, rnum) if arow[pr] != (0, 0)]
        merged.append((pc, _reduced(arow, rden, terms, cols, n)))
    merged.sort()  # pivots are distinct, so only they are compared
    num, den = _lowest_terms([r for _, r in merged], den * rden)
    return Subspace(n, num, den, tuple(pc for pc, _ in merged), a.rev)


def _reduced(row, scale, terms, cols, n: int) -> list:
    """``scale·row - Σ x·r`` over the ``(x, r)`` of ``terms``, on the columns
    ``cols`` of C^n and 0 elsewhere, for rows of ``(re, im)`` integer pairs."""
    v = [(0, 0)] * n
    for c in cols:
        re, im = row[c]
        re, im = scale * re, scale * im
        for (x, y), r in terms:
            p, q = r[c]
            re -= x * p - y * q
            im -= x * q + y * p
        v[c] = (re, im)
    return v


@lru_cache(maxsize=None)
def _full_space(ambient: int) -> Subspace:
    """The shared full space of C^ambient, linked both ways to the shared zero
    as its ortho: the one pair of values that link back, kept alive by this
    cache anyway."""
    rows = tuple(tuple((int(i == j), 0) for j in range(ambient)) for i in range(ambient))
    full = Subspace(ambient, rows, 1, tuple(range(ambient)))
    full._ortho = Subspace(ambient)
    full._ortho._ortho = full
    return full


def span(vectors, ambient: int) -> Subspace:
    """Subspace spanned by vectors of C^ambient (empty -> zero); entries are
    int, Fraction or GaussianRational."""
    return Subspace(ambient, *_canonical_boxed(vectors, ambient))


def random_subspace_rng(rng: random.Random, ambient: int, dim: int,
                        entry_bound: int = DEFAULT_ENTRY_BOUND) -> Subspace:
    """Draw a subspace of exact dimension ``dim`` using the caller's RNG.

    Entries are Gaussian integers with |re|, |im| <= entry_bound;
    dimension-deficient draws are rejected and redrawn (capped). A
    dimension-0 draw is the shared zero, with no RNG call; a dimension-n draw
    whose rows have mod-p rank n is the shared full space. Neither eliminates,
    and any other draw takes the exact path, so the RNG stream and every
    returned value are those of eliminating every draw.
    """
    if not 0 <= dim <= ambient:
        raise ValueError(f"requested dimension {dim} not in [0, {ambient}]")
    if entry_bound < 1:
        raise ValueError("entry bound must be at least 1")
    if dim == 0:
        return Subspace.zero(ambient)
    # Each part is randint(-b, b): randrange(w) - b with w = 2b + 1, and
    # randrange(w) is getrandbits(k), k = w.bit_length(), redrawn while it is
    # >= w. Running that loop here calls getrandbits with the same k the same
    # number of times, so the bits and values are randint's, without its call
    # layers; the loop is written out for each part, as a call per part costs
    # what it saves.
    b, w = entry_bound, 2 * entry_bound + 1
    k, bits = w.bit_length(), rng.getrandbits
    for _ in range(REDRAW_CAP):
        rows = []
        for _ in range(dim):
            row = []
            for _ in range(ambient):
                re = bits(k)
                while re >= w:
                    re = bits(k)
                im = bits(k)
                while im >= w:
                    im = bits(k)
                row.append((re - b, im - b))
            rows.append(row)
        if dim == ambient and rank_mod_p(rows, ambient) == ambient:
            return Subspace.full(ambient)
        s = Subspace(ambient, *_canonical(rows, ambient))
        if s.dim == dim:
            return s
    raise RuntimeError(
        f"failed to draw a dimension-{dim} subspace of C^{ambient} in {REDRAW_CAP} attempts")


def random_subspace(ambient: int, dim: int, seed: int,
                    entry_bound: int = DEFAULT_ENTRY_BOUND) -> Subspace:
    """Deterministic seeded wrapper around :func:`random_subspace_rng`."""
    return random_subspace_rng(random.Random(seed), ambient, dim, entry_bound)


def subspace_to_json(p: Subspace) -> dict:
    """{"ambient": n, "basis": [[4-int-string entry, ...], ...]}, forward rows."""
    f = p._forward()
    return {"ambient": p.ambient,
            "basis": [[entry_to_json(a, b, f.den) for a, b in row] for row in f.rows]}


def subspace_from_json(obj) -> Subspace:
    if not isinstance(obj, dict) or "ambient" not in obj or "basis" not in obj:
        raise ValueError("subspace JSON must have 'ambient' and 'basis' keys")
    ambient = int_from_json(obj["ambient"], "ambient")
    basis = obj["basis"]
    if not isinstance(basis, list) or not all(isinstance(row, list) for row in basis):
        raise ValueError("subspace basis must be a list of rows, each a list of entries")
    rows = [_int_row([entry_from_json(e) for e in row], ambient) for row in basis]
    return Subspace(ambient, *_canonical(rows, ambient))
