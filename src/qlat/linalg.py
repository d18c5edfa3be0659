"""Exact linear algebra over the Gaussian rationals.

Every operation is exact; nothing here touches floating point. Row reduction
runs fraction-free on Gaussian-integer rows (Montante/Bareiss full
elimination), which keeps intermediate entries bounded by minors of the input
and stays fast even when coefficients grow large. The reduced row echelon form
is unique, so it doubles as a canonical form. ``_int_row`` is the one reader
of such rows, from entry quadruples ``(re_num, re_den, im_num, im_den)``. The
boxed half, ``GaussianRational`` (``fractions.Fraction`` parts) and
``RationalMatrix``, is the ``Subspace.basis`` view and the test oracle.

``rank_mod_p`` is the one modular routine: a rank over F_p, through a ring
homomorphism Z[i] -> F_p, that bounds the exact rank from below. It certifies
full-rank outcomes without an exact elimination and never decides anything
else.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class GaussianRational:
    """Exact complex scalar ``re + im*i`` with rational parts.

    Instances are immutable by convention; all arithmetic returns new values.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    @staticmethod
    def _coerce(x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def inverse(self) -> "GaussianRational":
        return GR_ONE / self

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # Equal to an int or Fraction when real, so it must hash like one.
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __repr__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return _imag_str(self.im)
        sign = "-" if self.im < 0 else "+"
        return f"{self.re}{sign}{_imag_str(abs(self.im))}"


def _imag_str(im: Fraction) -> str:
    if im == 1:
        return "i"
    if im == -1:
        return "-i"
    return f"{im}i"


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


def entry_to_json(a: int, b: int, den: int) -> list:
    """``(a + b*i) / den``, ``den > 0``, as wire strings, each part in lowest terms."""
    g, h = gcd(a, den), gcd(b, den)
    return [str(a // g), str(den // g), str(b // h), str(den // h)]


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def int_from_json(x, what: str) -> int:
    """A wire-format integer: a JSON integer or a decimal string. Anything
    else, a float or a boolean among them, is an error, not truncated."""
    if type(x) is int or (isinstance(x, str) and _DECIMAL.fullmatch(x)):
        return int(x)
    raise ValueError(f"{what} must be an integer or a decimal string, got {x!r}")


def entry_from_json(item) -> tuple[int, int, int, int]:
    """A wire entry as ``(re_num, re_den, im_num, im_den)``, not reduced."""
    if not isinstance(item, (list, tuple)) or len(item) != 4:
        raise ValueError(f"matrix entry must be a 4-element list, got {item!r}")
    rn, rd, imn, imd = (int_from_json(s, "matrix entry part") for s in item)
    if not rd or not imd:
        raise ValueError(f"matrix entry has a zero denominator: {item!r}")
    return rn, rd, imn, imd


def _entry_parts(x) -> tuple[int, int, int, int]:
    """An int, Fraction or GaussianRational as ``entry_from_json``'s quadruple."""
    if isinstance(x, GaussianRational):
        return x.re.numerator, x.re.denominator, x.im.numerator, x.im.denominator
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator, 0, 1
    raise TypeError(f"cannot use {type(x).__name__} as a matrix entry")


def _int_row(parts, ncols: int) -> list[tuple[int, int]]:
    """``ncols`` entry quadruples as Gaussian integers, scaled by the lcm of the
    |denominators|; unreduced parts and negative denominators keep their value."""
    if len(parts) != ncols:
        raise ValueError(f"vector length {len(parts)} does not match ambient {ncols}")
    den = lcm(*(d for _, rd, _, imd in parts for d in (rd, imd)))
    return [(rn * (den // rd), imn * (den // imd)) for rn, rd, imn, imd in parts]


class RationalMatrix:
    """Immutable row-major matrix over the Gaussian rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        grid = tuple(tuple(_coerce_entry(x) for x in row) for row in entries)
        if len(grid) != rows or any(len(r) != cols for r in grid):
            raise ValueError(f"entries do not form a {rows}x{cols} grid")
        self.rows = rows
        self.cols = cols
        self.entries = grid

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> "RationalMatrix":
        rows = [list(r) for r in rows]
        if cols is None:
            if not rows:
                raise ValueError("cols is required for a matrix with no rows")
            cols = len(rows[0])
        return cls(len(rows), cols, rows)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols, [[GR_ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, [[GR_ONE if i == j else GR_ZERO for j in range(n)] for i in range(n)])

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        if self.rows == 0:
            return f"RationalMatrix(0x{self.cols})"
        body = "; ".join(", ".join(repr(z) for z in row) for row in self.entries)
        return f"[{body}]"

    def is_zero(self) -> bool:
        return all(not z for row in self.entries for z in row)


def _coerce_entry(x) -> GaussianRational:
    z = GaussianRational._coerce(x)
    if z is None:
        raise TypeError(f"cannot use {type(x).__name__} as a matrix entry")
    return z


def conj_entries(m: RationalMatrix) -> RationalMatrix:
    """Entrywise complex conjugation (no transpose)."""
    return RationalMatrix(m.rows, m.cols, [[z.conjugate() for z in row] for row in m.entries])


def conj_transpose(m: RationalMatrix) -> RationalMatrix:
    """The Hermitian adjoint: (M†)_ij = conj(M_ji)."""
    return RationalMatrix(
        m.cols, m.rows,
        [[m.entries[i][j].conjugate() for i in range(m.rows)] for j in range(m.cols)],
    )


def matmul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    out = []
    for i in range(a.rows):
        arow = a.entries[i]
        row = []
        for j in range(b.cols):
            acc = GR_ZERO
            for k in range(a.cols):
                acc = acc + arow[k] * b.entries[k][j]
            row.append(acc)
        out.append(row)
    return RationalMatrix(a.rows, b.cols, out)


def kron(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Kronecker product; (a kron b) has block a_ij * b."""
    out = []
    for i in range(a.rows):
        for k in range(b.rows):
            row = []
            for j in range(a.cols):
                aij = a.entries[i][j]
                row.extend(aij * b.entries[k][l] for l in range(b.cols))
            out.append(row)
    return RationalMatrix(a.rows * b.rows, a.cols * b.cols, out)


def vstack(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    if a.cols != b.cols:
        raise ValueError("column count mismatch in vstack")
    return RationalMatrix(a.rows + b.rows, a.cols, a.entries + b.entries)


def _ff_gauss_jordan(rows: list[list[tuple[int, int]]], ncols: int):
    """Fraction-free Gauss-Jordan (Montante) over the Gaussian integers.

    Mutates ``rows`` into an integer multiple of the RREF: on return every
    pivot entry equals the final pivot value, so dividing by it yields the
    rational RREF. Returns (pivot_cols, final_pivot). Divisions are exact by
    the Bareiss minor identity; exactness is asserted at runtime. Columns that
    hold a pivot are skipped, and their pivot entries are set once at the end.
    """
    nrows = len(rows)
    piv_cols: list[int] = []
    rest = list(range(ncols)) if nrows else []
    prev_re, prev_im = 1, 0
    pr = 0
    for pc in range(ncols):
        if pr == nrows:
            break
        pivot = next((r for r in range(pr, nrows) if rows[r][pc] != (0, 0)), None)
        if pivot is None:
            continue
        rows[pr], rows[pivot] = rows[pivot], rows[pr]
        rest.remove(pc)
        prow = rows[pr]
        p_re, p_im = prow[pc]
        trivial_prev = prev_re == 1 and prev_im == 0
        pn = prev_re * prev_re + prev_im * prev_im
        for r in range(nrows):
            if r == pr:
                continue
            row = rows[r]
            f_re, f_im = row[pc]
            for c in rest:
                a_re, a_im = row[c]
                b_re, b_im = prow[c]
                n_re = p_re * a_re - p_im * a_im - f_re * b_re + f_im * b_im
                n_im = p_re * a_im + p_im * a_re - f_re * b_im - f_im * b_re
                if trivial_prev:
                    row[c] = (n_re, n_im)
                else:
                    t_re = n_re * prev_re + n_im * prev_im
                    t_im = n_im * prev_re - n_re * prev_im
                    q_re, rem_re = divmod(t_re, pn)
                    q_im, rem_im = divmod(t_im, pn)
                    if rem_re or rem_im:
                        raise ArithmeticError("fraction-free elimination step not exact")
                    row[c] = (q_re, q_im)
            row[pc] = (0, 0)
        prev_re, prev_im = p_re, p_im
        piv_cols.append(pc)
        pr += 1
    for r, pc in enumerate(piv_cols):
        rows[r][pc] = (prev_re, prev_im)
    return piv_cols, (prev_re, prev_im)


def _canonical(rows: list[list[tuple[int, int]]], ncols: int):
    """Consume Gaussian-integer rows; return their RREF as ``(num, den, pivots)``.

    RREF = num / den with den the smallest positive integer making it integral,
    so the triple is unique per row space. Multiplying by the conjugate of the
    final pivot p turns the divisor into |p|^2, which one gcd then reduces."""
    piv, (p_re, p_im) = _ff_gauss_jordan(rows, ncols)
    num = [[(a * p_re + b * p_im, b * p_re - a * p_im) for a, b in row]
           for row in rows[:len(piv)]]
    return (*_lowest_terms(num, p_re * p_re + p_im * p_im), tuple(piv))


def _lowest_terms(num, den: int):
    """``(num, den)`` as tuples over the smallest positive common denominator."""
    g = gcd(den, *(x for row in num for z in row for x in z))
    return tuple(tuple((a // g, b // g) for a, b in row) for row in num), den // g


MOD_P = 2147483629  # prime, and 1 (mod 4), so -1 is a square mod MOD_P
MOD_I = 629208553   # MOD_I ** 2 == -1 (mod MOD_P)


def rank_mod_p(rows, ncols: int) -> int:
    """Rank over F_p, p = MOD_P, of Gaussian-integer rows of ``(re, im)``
    pairs; a lower bound on their rank over Q(i).

    Proof: with s = MOD_I, a + bi -> (a + b*s) mod p is a ring homomorphism
    Z[i] -> F_p, since s^2 = -1 in F_p. A minor is a polynomial in the
    entries, so every minor of the rows maps to the same minor of their image.
    A nonzero r x r minor mod p is therefore nonzero over Z[i], and
    rank mod p <= rank over Q(i). A mod-p rank equal to ``ncols`` proves the
    rows span the whole space; one equal to the row count proves the rows
    independent. A smaller value proves nothing.

    Elimination is fraction-free, row <- pivot*row - f*prow (mod p): scaling
    a row by a nonzero pivot keeps the rank, and no modular inverse is taken.
    """
    p, s = MOD_P, MOD_I
    m = [[(a + b * s) % p for a, b in row] for row in rows]
    nrows = len(m)
    rank = 0
    for c in range(ncols):
        if rank == nrows:
            break
        pivot = next((r for r in range(rank, nrows) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        prow = m[rank][c:]
        pv = prow[0]
        for r in range(rank + 1, nrows):
            row = m[r]
            f = row[c]
            if f:
                row[c:] = [(pv * x - f * y) % p for x, y in zip(row[c:], prow)]
        rank += 1
    return rank


def _rational_matrix(num, den: int, ncols: int) -> RationalMatrix:
    """Box canonical numerator rows over ``den`` into exact rationals."""
    return RationalMatrix(len(num), ncols, [
        [GaussianRational(Fraction(a, den), Fraction(b, den)) for a, b in row] for row in num])


def _null_rows(num, den: int, piv, ncols: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Integer rows spanning the null space of the RREF ``num / den``: free
    column f gives v[f] = den and v[pc] = -num[k][f] for the k-th pivot pc."""
    rows = []
    for f in range(ncols):
        if f not in piv:
            v = [(0, 0)] * ncols
            v[f] = (den, 0)
            for row, pc in zip(num, piv):
                v[pc] = (-row[f][0], -row[f][1])
            rows.append(tuple(v))
    return tuple(rows)


def _canonical_boxed(rows, ncols: int):
    """``_canonical`` of rows of int, Fraction or GaussianRational entries."""
    return _canonical([_int_row([_entry_parts(x) for x in r], ncols) for r in rows], ncols)


def rref(m: RationalMatrix) -> tuple[RationalMatrix, int, list[int]]:
    """Reduced row echelon form over Q(i).

    Returns ``(R, rank, pivot_cols)``. R has leading entries normalized to 1,
    zeros above and below every pivot, and zero rows trailing; it is the
    unique RREF of the row space of ``m``.
    """
    num, den, piv = _canonical_boxed(m.entries, m.cols)
    out = _rational_matrix(num, den, m.cols).entries + ((GR_ZERO,) * m.cols,) * (m.rows - len(piv))
    return RationalMatrix(m.rows, m.cols, out), len(piv), list(piv)


def row_space(m: RationalMatrix) -> RationalMatrix:
    """Canonical basis of the row space: the nonzero rows of the RREF."""
    return _rational_matrix(*_canonical_boxed(m.entries, m.cols)[:2], m.cols)


def rank(m: RationalMatrix) -> int:
    return rref(m)[1]


def kernel(m: RationalMatrix) -> RationalMatrix:
    """Canonical (RREF) basis of the right null space {v : M v = 0}.

    The result has cols(m) - rank(m) rows; kernel of a 0-row matrix is all
    of the ambient space.
    """
    null = _null_rows(*_canonical_boxed(m.entries, m.cols), m.cols)
    return _rational_matrix(*_canonical([list(r) for r in null], m.cols)[:2], m.cols)
