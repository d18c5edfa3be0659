"""The Temperley-Lieb algebra on noncrossing diagrams.

A diagram on n strands is a noncrossing perfect matching of 2n boundary
points of a rectangle: 0..n-1 along the bottom (left to right) and n..2n-1
along the top (left to right). Algebra elements are linear combinations of
diagrams with coefficients in the field of rational functions in the loop
parameter d; multiplication stacks diagrams (x * y puts x above y) and each
closed loop contributes a factor d. An element is held as integer-polynomial
numerators over one common denominator, reduced once per operation, and each
distinct composed diagram is built, and checked for planarity, once.

The generators e_i carry coefficient 1/d on the cup-cap diagram U_i, so that
e_i^2 = e_i, e_i e_{i+-1} e_i = e_i / d^2, and far-apart generators commute.
Jones-Wenzl projectors are built by the standard recursion and verified with
n - 1 products before being returned: identity coefficient 1, equal to their
top-bottom reflection, and p U_i = 0, which imply U_i p = 0 and p p = p. The
Markov trace of a basis diagram is d^(loops of its circular closure minus n),
normalized so the identity traces to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .ratfunc import (
    P_ONE,
    P_ZERO,
    RF_D,
    RF_ONE,
    RF_ZERO,
    RationalFunction,
    coeffs_to_json,
    ip_add,
    ip_divexact,
    ip_eval,
    ip_gcd,
    ip_mul,
    ip_reduce,
    ip_sub,
)


class PoleError(ValueError):
    """A coefficient denominator vanishes at the requested evaluation point."""


class JonesWenzlError(RuntimeError):
    """Post-construction verification of a projector failed."""


class PlanarDiagram:
    """A noncrossing perfect matching of the 2n boundary points."""

    __slots__ = ("n", "pairing", "_partner")

    def __init__(self, n: int, pairs):
        if n < 0:
            raise ValueError("strand count must be nonnegative")
        norm = tuple(sorted(tuple(sorted(p)) for p in pairs))
        points = [x for p in norm for x in p]
        if sorted(points) != list(range(2 * n)):
            raise ValueError(f"pairs do not form a perfect matching of {2 * n} points")
        if _has_crossing(norm, n):
            raise ValueError("matching is not planar in the rectangle embedding")
        self.n = n
        self.pairing = norm
        self._partner = None

    def partners(self) -> list[int]:
        if self._partner is None:
            arr = [0] * (2 * self.n)
            for a, b in self.pairing:
                arr[a] = b
                arr[b] = a
            self._partner = arr
        return self._partner

    @classmethod
    def identity(cls, n: int) -> "PlanarDiagram":
        return cls(n, [(j, n + j) for j in range(n)])

    @classmethod
    def cup_cap(cls, n: int, i: int) -> "PlanarDiagram":
        """The diagram U_i: cup joining bottom i-1, i and cap joining the tops."""
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index {i} out of range 1..{n - 1}")
        pairs = [(i - 1, i), (n + i - 1, n + i)]
        pairs += [(j, n + j) for j in range(n) if j not in (i - 1, i)]
        return cls(n, pairs)

    def __eq__(self, other):
        if not isinstance(other, PlanarDiagram):
            return NotImplemented
        return self.n == other.n and self.pairing == other.pairing

    def __hash__(self):
        return hash((self.n, self.pairing))

    def __lt__(self, other):
        return (self.n, self.pairing) < (other.n, other.pairing)

    def __repr__(self):
        return f"PlanarDiagram({self.n}, {list(self.pairing)})"

    def reflect(self) -> "PlanarDiagram":
        """Turned upside down: point j < n swaps with point n + j."""
        n, m = self.n, 2 * self.n
        return _interned(n, tuple(sorted(tuple(sorted(((a + n) % m, (b + n) % m)))
                                         for a, b in self.pairing)))


def _rect_pos(point: int, n: int) -> int:
    # Walk the rectangle boundary: bottom left to right, then top right to left
    # (an involution). Crossings in this circular order are the non-planar ones.
    return point if point < n else 3 * n - 1 - point


def _has_crossing(pairs, n: int) -> bool:
    spans = []
    for a, b in pairs:
        pa, pb = _rect_pos(a, n), _rect_pos(b, n)
        spans.append((min(pa, pb), max(pa, pb)))
    for i in range(len(spans)):
        a1, b1 = spans[i]
        for j in range(i + 1, len(spans)):
            a2, b2 = spans[j]
            if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
                return True
    return False


def enumerate_diagrams(n: int) -> list[PlanarDiagram]:
    """All noncrossing diagrams on n strands; there are Catalan(n) of them."""
    def matchings(points: tuple[int, ...]):
        if not points:
            yield []
            return
        first = points[0]
        for k in range(1, len(points), 2):
            inner = points[1:k]
            outer = points[k + 1:]
            for mi in matchings(inner):
                for mo in matchings(outer):
                    yield [(first, points[k])] + mi + mo

    out = []
    for m in matchings(tuple(range(2 * n))):
        out.append(PlanarDiagram(n, [(_rect_pos(a, n), _rect_pos(b, n)) for a, b in m]))
    return sorted(out)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


@lru_cache(maxsize=None)
def _interned(n: int, pairing: tuple) -> PlanarDiagram:
    """One shared diagram per pairing, checked by PlanarDiagram on first use."""
    return PlanarDiagram(n, pairing)


def compose(top: PlanarDiagram, bottom: PlanarDiagram) -> tuple[PlanarDiagram, int]:
    """Stack ``top`` above ``bottom``; returns (diagram, closed loop count).
    Pairs are found sorted, by their smaller point, so equal results share
    one ``_interned`` key."""
    if top.n != bottom.n:
        raise ValueError(f"strand count mismatch: {top.n} vs {bottom.n}")
    n = top.n
    tp = top.partners()
    bp = bottom.partners()
    visited = [False] * n
    seen = [False] * (2 * n)
    pairs = []
    for start in range(2 * n):
        if seen[start]:
            continue
        # diag 0 walks the bottom diagram, diag 1 the top diagram
        diag, pt = (0, start) if start < n else (1, start)
        while True:
            if diag == 0:
                nxt = bp[pt]
                if nxt < n:
                    end = nxt
                    break
                j = nxt - n
                visited[j] = True
                diag, pt = 1, j
            else:
                nxt = tp[pt]
                if nxt >= n:
                    end = nxt
                    break
                visited[nxt] = True
                diag, pt = 0, n + nxt
        seen[start] = seen[end] = True
        pairs.append((start, end))
    loops = 0
    for j in range(n):
        if visited[j]:
            continue
        loops += 1
        cur = j
        while not visited[cur]:
            visited[cur] = True
            j2 = tp[cur]
            visited[j2] = True
            cur = bp[n + j2] - n
    return _interned(n, tuple(pairs)), loops


def closure_loops(diagram: PlanarDiagram) -> int:
    """Loop count of the circular closure (bottom j joined to top n+j)."""
    n = diagram.n
    partner = diagram.partners()
    visited = [False] * (2 * n)
    loops = 0
    for s in range(2 * n):
        if visited[s]:
            continue
        loops += 1
        cur = s
        while not visited[cur]:
            visited[cur] = True
            nxt = partner[cur]
            visited[nxt] = True
            cur = nxt - n if nxt >= n else nxt + n
    return loops


class TLElement:
    """A linear combination of diagrams with rational-function coefficients:
    nonzero numerators ``nums`` by diagram over ``den``, canonical by
    ``ip_reduce``, so equality is a plain comparison; ``terms`` is the lazy
    ``{diagram: RationalFunction}`` view."""

    __slots__ = ("n", "nums", "den", "_terms")

    def __init__(self, n: int, terms: dict):
        coeffs = {}
        for diag, coeff in terms.items():
            if diag.n != n:
                raise ValueError("all diagrams must share the strand count")
            c = coeff if isinstance(coeff, RationalFunction) else RationalFunction.constant(coeff)
            if c:
                coeffs[diag] = c
        den = P_ONE
        for c in coeffs.values():
            den = ip_mul(den, ip_divexact(c.iden, ip_gcd(den, c.iden)))
        self._set(n, {d: ip_mul(c.inum, ip_divexact(den, c.iden)) for d, c in coeffs.items()},
                  den)

    def _set(self, n: int, nums: dict, den) -> "TLElement":
        nums = {d: a for d, a in nums.items() if a}
        vals, self.den = ip_reduce(list(nums.values()), den)
        self.n = n
        self.nums = dict(zip(nums, vals))
        self._terms = None
        return self

    @classmethod
    def _make(cls, n: int, nums: dict, den) -> "TLElement":
        return object.__new__(cls)._set(n, nums, den)

    @classmethod
    def zero(cls, n: int) -> "TLElement":
        return cls(n, {})

    @classmethod
    def identity(cls, n: int) -> "TLElement":
        return cls(n, {PlanarDiagram.identity(n): RF_ONE})

    @classmethod
    def from_diagram(cls, diag: PlanarDiagram, coeff=1) -> "TLElement":
        return cls(diag.n, {diag: coeff})

    @property
    def terms(self) -> dict:
        if self._terms is None:
            self._terms = {d: RationalFunction._raw(a, self.den) for d, a in self.nums.items()}
        return self._terms

    def is_zero(self) -> bool:
        return not self.nums

    def coefficient(self, diag: PlanarDiagram) -> RationalFunction:
        a = self.nums.get(diag)
        return RationalFunction._raw(a, self.den) if a else RF_ZERO

    def identity_coefficient(self) -> RationalFunction:
        return self.coefficient(PlanarDiagram.identity(self.n))

    def __eq__(self, other):
        if not isinstance(other, TLElement):
            return NotImplemented
        return self.n == other.n and self.den == other.den and self.nums == other.nums

    def _combine(self, other, sign: int):
        if not isinstance(other, TLElement):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("strand count mismatch")
        fy = ip_mul(self.den, (sign,))
        out = {d: ip_mul(a, other.den) for d, a in self.nums.items()}
        for d, a in other.nums.items():
            out[d] = ip_add(out.get(d, P_ZERO), ip_mul(a, fy))
        return TLElement._make(self.n, out, ip_mul(self.den, other.den))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        k = RationalFunction._coerce(other)
        if k is not None:
            return TLElement._make(self.n, {d: ip_mul(a, k.inum) for d, a in self.nums.items()},
                                   ip_mul(self.den, k.iden))
        if not isinstance(other, TLElement):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("strand count mismatch")
        # Diagram products contribute d^loops * Nx * Ny over den_x * den_y.
        # For each dx the shifted Ny are summed per result diagram first, so
        # there is one polynomial product per (dx, result), and one reduction.
        out: dict = {}
        ys = list(other.nums.items())
        for dx, nx in self.nums.items():
            row: dict = {}
            for dy, ny in ys:
                diag, loops = compose(dx, dy)
                acc = row.get(diag)
                if acc is None:
                    acc = row[diag] = []
                short = loops + len(ny) - len(acc)
                if short > 0:
                    acc.extend([0] * short)
                for j, b in enumerate(ny, loops):
                    acc[j] += b
            for diag, acc in row.items():
                out[diag] = ip_add(out.get(diag, P_ZERO), ip_mul(nx, acc))
        return TLElement._make(self.n, out, ip_mul(self.den, other.den))

    def adjoint(self) -> "TLElement":
        """Each diagram reflected, coefficients kept: (x y)* = y* x*, x** = x."""
        return TLElement._make(self.n, {d.reflect(): a for d, a in self.nums.items()}, self.den)

    def __rmul__(self, other):
        # reached only for a non-element left operand; scalars commute
        return self * other

    def __repr__(self):
        if not self.nums:
            return f"TLElement({self.n}, 0)"
        bits = [f"({coeff!r})*{diag!r}" for diag, coeff in sorted(self.terms.items())]
        return " + ".join(bits)


def diagram_generator(n: int, i: int) -> TLElement:
    """The raw cup-cap diagram U_i with coefficient 1 (so U_i^2 = d U_i)."""
    return TLElement.from_diagram(PlanarDiagram.cup_cap(n, i))


def generator_e(n: int, i: int) -> TLElement:
    """The idempotent generator e_i = U_i / d."""
    return TLElement(n, {PlanarDiagram.cup_cap(n, i): RF_ONE / RF_D})


def include(x: TLElement) -> TLElement:
    """The inclusion into one more strand: append a through-strand on the right."""
    n = x.n
    out = {}
    for diag, a in x.nums.items():
        pairs = [tuple(p if p < n else p + 1 for p in pair) for pair in diag.pairing]
        out[_interned(n + 1, tuple(sorted(pairs + [(n, 2 * n + 1)])))] = a
    return TLElement._make(n + 1, out, x.den)


@dataclass(frozen=True)
class ChebyshevPoly:
    """The degree-n member of the recursion D0 = 1, D1 = x, D_{n+1} = x D_n - D_{n-1}."""

    index: int
    coeffs: tuple[int, ...]  # lowest degree first

    def __post_init__(self):
        if len(self.coeffs) != self.index + 1 or self.coeffs[-1] == 0:
            raise ValueError("coefficients do not match the stated degree")

    def evaluate(self, x):
        return ip_eval(self.coeffs, x)

    def as_rational_function(self) -> RationalFunction:
        return RationalFunction._raw(self.coeffs, P_ONE)


@lru_cache(maxsize=None)
def chebyshev(n: int) -> ChebyshevPoly:
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return ChebyshevPoly(0, (1,))
    if n == 1:
        return ChebyshevPoly(1, (0, 1))
    return ChebyshevPoly(n, ip_sub((0,) + chebyshev(n - 1).coeffs, chebyshev(n - 2).coeffs))


def _verify_jones_wenzl(p: TLElement, n: int):
    """Prove the characterization with n - 1 products and no p p: (i) p != 0,
    identity coefficient 1; (ii) p = p*; (iii) p U_i = 0 for i = 1..n-1. Then
    U_i p = (p U_i)* = 0, as U_i* = U_i. A non-identity diagram D has an adjacent
    top cap, so D = U_i D' and p D = 0; with p = 1 + sum c_D D, that is p p = p."""
    if p.is_zero():
        raise JonesWenzlError(f"projector at n={n} is zero")
    if p.identity_coefficient() != RF_ONE:
        raise JonesWenzlError(f"projector at n={n} has identity coefficient != 1")
    if p.adjoint() != p:
        raise JonesWenzlError(f"projector at n={n} is not self-adjoint")
    for i in range(1, n):
        if not (p * diagram_generator(n, i)).is_zero():
            raise JonesWenzlError(f"projector at n={n} is not annihilated by U_{i}")


@lru_cache(maxsize=None)
def jones_wenzl(n: int) -> TLElement:
    """The unique nonzero idempotent killed by every generator, built by the
    recursion p_{k+1} = p_k - (D_{k-1}/D_k) p_k U_k p_k on the raw diagrams and
    returned only once ``_verify_jones_wenzl`` has proved it."""
    if n < 1:
        raise ValueError("strand count must be at least 1")
    if n == 1:
        p = TLElement.identity(1)
    else:
        prev = include(jones_wenzl(n - 1))
        u = diagram_generator(n, n - 1)
        ratio = chebyshev(n - 2).as_rational_function() / chebyshev(n - 1).as_rational_function()
        p = prev - (prev * u * prev) * ratio
    _verify_jones_wenzl(p, n)
    return p


def markov_trace(x: TLElement) -> RationalFunction:
    """Normalized trace via circular closure: a diagram contributes
    d^(closure loops - n), so the identity traces to 1 and tr(e_i) = 1/d^2.
    Reduced once, as sum N_D d^(closure loops of D) over den * d^n."""
    acc = P_ZERO
    for diag, a in x.nums.items():
        acc = ip_add(acc, (0,) * closure_loops(diag) + a)
    return RationalFunction._raw(acc, (0,) * x.n + x.den)


def root_params(r: int) -> float:
    """The loop parameter at the level-r root of unity: d = 2 cos(pi/r).

    All four sign choices of the underlying unit A give this same d; the
    canonical choice is A = i * exp(i pi / (2r)).
    """
    if not isinstance(r, int) or r < 3:
        raise ValueError("r must be an integer >= 3")
    return 2.0 * math.cos(math.pi / r)


POLE_TOLERANCE = 1e-12


def eval_at_root(f: RationalFunction, r: int) -> float:
    """Evaluate a symbolic coefficient at d = 2 cos(pi/r) in double precision."""
    d = root_params(r)
    den = ip_eval(f.iden, d)
    if abs(den) < POLE_TOLERANCE:
        raise PoleError(f"denominator vanishes at d = 2cos(pi/{r}) = {d!r}")
    return ip_eval(f.inum, d) / den


def projector_level_error(n: int, r: int) -> str | None:
    """Why the level-n projector has no value at the level-r root of unity, or
    None when it has one. The rule: at a level-r root the projectors exist
    consecutively only up to n = r-1. An r that ``root_params`` rejects raises
    its ValueError."""
    root_params(r)
    if 1 <= n <= r - 1:
        return None
    return f"projector level {n} unavailable at r={r}: defined only for n = 1..{r - 1}"


def jw_at_root(n: int, r: int) -> dict:
    """The projector specialized at d = 2 cos(pi/r), as {diagram: float} over
    its nonzero diagrams.

    A level that ``projector_level_error`` rules out raises ValueError.
    Coefficient denominators are checked against poles.
    """
    error = projector_level_error(n, r)
    if error:
        raise ValueError(error)
    return {diag: eval_at_root(c, r) for diag, c in jones_wenzl(n).terms.items()}


def tl_to_json(x: TLElement) -> dict:
    """{"n": strands, "terms": [{"pairing": ..., "coeff": {"num":, "den":}}]}
    in diagram order. Each coefficient is its reduced integer pair divided by
    the denominator's leading coefficient: lowest terms over a monic denominator."""
    terms = []
    for diag in sorted(x.terms):
        c = x.terms[diag]
        lead = c.iden[-1]
        terms.append({
            "pairing": [[a, b] for a, b in diag.pairing],
            "coeff": {"num": coeffs_to_json(c.inum, lead), "den": coeffs_to_json(c.iden, lead)},
        })
    return {"n": x.n, "terms": terms}
