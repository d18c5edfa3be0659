"""The lattice of subspaces of C^n.

A subspace is held as its canonical RREF: Gaussian-integer numerator rows over
the smallest positive common denominator, plus pivot columns, so equality is
syntactic. Join eliminates the stacked integer rows once, ortho reads the
kernel off the RREF, meet is the De Morgan dual ~(~a | ~b) over orthocomplements
cached in both directions, and leq reduces rows without any elimination.

Before eliminating, join and meet try a certificate: the rank of the stacked
rows modulo one prime (``linalg.rank_mod_p``), a lower bound on their exact
rank. Mod-p rank n proves a join is the full space; mod-p rank dim a + dim b
proves the rows independent, so dim(a & b) = dim a + dim b - dim(a | b) = 0.
Any other outcome falls through to the exact path, so a certificate is never
wrong, only sometimes unused. The full space and the zero are one shared pair
of values per ambient, each the other's ortho.
All operations are exact and pure; values are immutable and freely shareable.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from .linalg import (
    RationalMatrix,
    _canonical,
    _int_rows,
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
    """A subspace of C^n held as its canonical RREF ``rows / den``, rows of
    ``(re, im)`` integer pairs, with pivot columns ``piv``."""

    __slots__ = ("ambient", "rows", "den", "piv", "_ortho")

    def __init__(self, ambient: int, rows=(), den: int = 1, piv=()):
        # Internal: (rows, den, piv) must be canonical, as from _canonical.
        if ambient < 1:
            raise ValueError("ambient dimension must be at least 1")
        self.ambient, self.rows, self.den, self.piv = ambient, rows, den, piv
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
        return _rational_matrix(self.rows, self.den, self.ambient)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def normalized_dim(self) -> Fraction:
        """dim / ambient, an exact rational in [0, 1]."""
        return Fraction(self.dim, self.ambient)

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
        return (self.ambient, self.den, self.rows) == (other.ambient, other.den, other.rows)

    def __hash__(self):
        return hash((self.ambient, self.den, self.rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of C^{self.ambient}, basis {self.basis!r})"

    def equals(self, other: "Subspace") -> bool:
        """Canonical-basis comparison; raises on ambient mismatch."""
        self._check_ambient(other)
        return self == other

    def leq(self, other: "Subspace") -> bool:
        """Containment self <= other: each row of self reduces to zero against
        other's RREF. Pivots are the leading columns, so self's are among other's."""
        self._check_ambient(other)
        opiv = set(other.piv)
        if not opiv.issuperset(self.piv):
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
        the stacked rows are independent mod p, which makes the meet 0."""
        self._check_ambient(other)
        if self.is_zero() or other.is_full():
            return self
        if other.is_zero() or self.is_full():
            return other
        k = self.dim + other.dim
        if k <= self.ambient and rank_mod_p(self.rows + other.rows, self.ambient) == k:
            return Subspace.zero(self.ambient)
        return self.ortho().join(other.ortho()).ortho()

    def join(self, other: "Subspace") -> "Subspace":
        """Span of the union (closure of the span; closed automatically here)."""
        self._check_ambient(other)
        if self.is_zero() or other.is_full():
            return other
        if other.is_zero() or self.is_full():
            return self
        n = self.ambient
        rows = self.rows + other.rows
        if len(rows) >= n and rank_mod_p(rows, n) == n:
            return Subspace.full(n)
        return Subspace(n, *_canonical([list(r) for r in rows], n))

    def ortho(self) -> "Subspace":
        """Orthogonal complement: all v with <b, v> = sum conj(b_i) v_i = 0,
        the kernel of the entrywise conjugated RREF."""
        if self._ortho is None:
            n = self.ambient
            conj = [[(a, -b) for a, b in row] for row in self.rows]
            o = Subspace(n, *_canonical(_null_rows(conj, self.den, self.piv, n), n))
            o._ortho = self
            self._ortho = o
        return self._ortho

    __and__ = meet
    __or__ = join
    __invert__ = ortho

    def tensor_embed(self, factor_dim: int, side: str = "right") -> "Subspace":
        """Image under the lattice embedding into C^(ambient * factor_dim).

        side="right" sends a basis row b to {b kron e_j}; side="left" to
        {e_j kron b}. Both multiply dim by factor_dim and commute with meet,
        join and ortho.
        """
        if factor_dim < 1:
            raise ValueError("factor dimension must be at least 1")
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        n, f = self.ambient, factor_dim
        rows = []
        for row in self.rows:
            for j in range(f):
                v = [(0, 0)] * (n * f)
                v[slice(j, None, f) if side == "right" else slice(j * n, (j + 1) * n)] = row
                rows.append(v)
        return Subspace(n * f, *_canonical(rows, n * f))


@lru_cache(maxsize=None)
def _full_space(ambient: int) -> Subspace:
    """The shared full space of C^ambient, linked both ways to the shared zero
    as its ortho, so neither orthocomplement is ever eliminated."""
    rows = tuple(tuple((int(i == j), 0) for j in range(ambient)) for i in range(ambient))
    full = Subspace(ambient, rows, 1, tuple(range(ambient)))
    full._ortho = Subspace(ambient)
    full._ortho._ortho = full
    return full


def span(vectors, ambient: int) -> Subspace:
    """Subspace spanned by the given vectors of C^ambient (empty -> zero)."""
    rows = [list(v) for v in vectors]
    for v in rows:
        if len(v) != ambient:
            raise ValueError(f"vector length {len(v)} does not match ambient {ambient}")
    return Subspace(ambient, *_canonical(_int_rows(RationalMatrix.from_rows(rows, ambient)),
                                         ambient))


def random_subspace_rng(rng: random.Random, ambient: int, dim: int,
                        entry_bound: int = DEFAULT_ENTRY_BOUND) -> Subspace:
    """Draw a subspace of exact dimension ``dim`` using the caller's RNG.

    Entries are Gaussian integers with |re|, |im| <= entry_bound;
    dimension-deficient draws are rejected and redrawn (capped).
    """
    if not 0 <= dim <= ambient:
        raise ValueError(f"requested dimension {dim} not in [0, {ambient}]")
    if entry_bound < 1:
        raise ValueError("entry bound must be at least 1")
    b = entry_bound
    for _ in range(REDRAW_CAP):
        rows = [[(rng.randint(-b, b), rng.randint(-b, b)) for _ in range(ambient)]
                for _ in range(dim)]
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
    """{"ambient": n, "basis": [[4-int-string entry, ...], ...]}"""
    return {"ambient": p.ambient,
            "basis": [[entry_to_json(z) for z in row] for row in p.basis.entries]}


def subspace_from_json(obj) -> Subspace:
    if not isinstance(obj, dict) or "ambient" not in obj or "basis" not in obj:
        raise ValueError("subspace JSON must have 'ambient' and 'basis' keys")
    ambient = int_from_json(obj["ambient"], "ambient")
    rows = [[entry_from_json(e) for e in row] for row in obj["basis"]]
    return span(rows, ambient)
