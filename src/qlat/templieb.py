"""The Temperley-Lieb algebra on noncrossing diagrams.

A diagram on n strands is a noncrossing perfect matching of 2n boundary
points of a rectangle: 0..n-1 along the bottom (left to right) and n..2n-1
along the top (left to right). Algebra elements are linear combinations of
diagrams with coefficients in the field of rational functions in the loop
parameter d; multiplication stacks diagrams (x * y puts x above y) and each
closed loop contributes a factor d. An element is held as integer-polynomial
numerators over one common denominator, and ``TLElement(n, nums, den)``, the
one constructor, takes that form and reduces it, once per operation. A
product x y sums the one-diagram products x D, scaled by D's numerator, over
y's diagrams D; each distinct composed diagram is built, and checked for
planarity, once.

The generators e_i carry coefficient 1/d on the cup-cap diagram U_i, so that
e_i^2 = e_i, e_i e_{i+-1} e_i = e_i / d^2, and far-apart generators commute.
Jones-Wenzl projectors are built by the single-clasp expansion, whose every
product is with one cup-cap diagram, and verified on their numerators before
being returned: the identity's equals the denominator, reflection keeps them,
and n - 1 one-diagram products give p U_i = 0; so U_i p = 0 and p p = p. The
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
    RF_ZERO,
    RationalFunction,
    coeffs_to_json,
    ip_add,
    ip_eval,
    ip_mul,
    ip_reduce,
    ip_sub,
    ip_trim,
)


class PoleError(ValueError):
    """A coefficient denominator vanishes at the requested evaluation point."""


class JonesWenzlError(RuntimeError):
    """Post-construction verification of a projector failed."""


class PlanarDiagram:
    """A noncrossing perfect matching of the 2n boundary points, held as its
    involution: ``partner[j]`` is the point joined to j. Equality, hashing
    and order read ``partner``; ``pairing`` is derived for output."""

    __slots__ = ("n", "partner", "_hash")

    def __init__(self, n: int, pairs):
        if n < 0:
            raise ValueError("strand count must be nonnegative")
        pairs = list(pairs)
        if sorted(x for p in pairs for x in p) != list(range(2 * n)):
            raise ValueError(f"pairs do not form a perfect matching of {2 * n} points")
        partner = [0] * (2 * n)
        for a, b in pairs:
            partner[a], partner[b] = b, a
        # Along the boundary every pair must close the innermost open one.
        open_ = []
        for j in _boundary(n):
            if open_ and open_[-1] == partner[j]:
                open_.pop()
            else:
                open_.append(j)
        if open_:
            raise ValueError("matching is not planar in the rectangle embedding")
        self.n = n
        self.partner = tuple(partner)
        self._hash = hash(self.partner)

    @property
    def pairing(self) -> tuple:
        """The pairs (j, partner[j]) with j < partner[j], sorted."""
        return _pairs(self.partner)

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
        return self.partner == other.partner

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        # At the first point where two involutions differ both open a pair,
        # so this is the order of the sorted pairings.
        return (self.n, self.partner) < (other.n, other.partner)

    def __repr__(self):
        return f"PlanarDiagram({self.n}, {list(self.pairing)})"

    def reflect(self) -> "PlanarDiagram":
        """Turned upside down: point j < n swaps with point n + j."""
        n, m, p = self.n, 2 * self.n, self.partner
        return _interned(tuple((q + n) % m for q in p[n:] + p[:n]))


def _boundary(n: int) -> list[int]:
    """The points around the rectangle: bottom left to right, then top right
    to left. A matching is planar when its pairs nest in this order."""
    return [*range(n), *range(2 * n - 1, n - 1, -1)]


def _pairs(partner: tuple) -> tuple:
    return tuple((j, q) for j, q in enumerate(partner) if j < q)


def enumerate_diagrams(n: int) -> list[PlanarDiagram]:
    """All noncrossing diagrams on n strands; there are Catalan(n) of them."""
    def matchings(points: list[int]):
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

    return sorted(PlanarDiagram(n, m) for m in matchings(_boundary(n)))


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


@lru_cache(maxsize=None)
def _interned(partner: tuple) -> PlanarDiagram:
    """One shared diagram per involution, checked by PlanarDiagram on first use."""
    return PlanarDiagram(len(partner) // 2, _pairs(partner))


def compose(top: PlanarDiagram, bottom: PlanarDiagram) -> tuple[PlanarDiagram, int]:
    """Stack ``top`` above ``bottom``; returns (diagram, closed loop count).

    A strand starts at a bottom point on ``bottom`` or a top point on ``top``.
    Each step follows the current half's involution to q: q on that half's
    outer side ends the strand; otherwise q is middle point q mod n, and the
    walk goes on in the other half from q's mirror (q + n) mod 2n."""
    if top.n != bottom.n:
        raise ValueError(f"strand count mismatch: {top.n} vs {bottom.n}")
    n, m = top.n, 2 * top.n
    halves = (bottom.partner, top.partner)
    out = [-1] * m
    crossed = [False] * n
    for start in range(m):
        if out[start] >= 0:
            continue
        h, q = start >= n, start
        while True:
            q = halves[h][q]
            if (q >= n) == h:
                break
            crossed[q % n] = True
            h, q = not h, (q + n) % m
        out[start], out[q] = q, start
    # the middle points no strand crossed lie on closed loops, walked the same way
    loops = 0
    for j in range(n):
        if crossed[j]:
            continue
        loops += 1
        h, q = True, j
        while not crossed[q % n]:
            crossed[q % n] = True
            h, q = not h, (halves[h][q] + n) % m
    return _interned(tuple(out)), loops


def closure_loops(diagram: PlanarDiagram) -> int:
    """Loop count of the circular closure (bottom j joined to top n+j)."""
    n = diagram.n
    partner = diagram.partner
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
    integer-polynomial numerators ``nums`` by diagram over one common
    denominator ``den``, canonical by ``ip_reduce``, so equality is a plain
    comparison; ``terms`` is the lazy ``{diagram: RationalFunction}`` view."""

    __slots__ = ("n", "nums", "den", "_terms")

    def __init__(self, n: int, nums: dict, den=P_ONE):
        if any(d.n != n for d in nums):
            raise ValueError("all diagrams must share the strand count")
        nums = {d: t for d, a in nums.items() if (t := ip_trim(a))}
        vals, self.den = ip_reduce(list(nums.values()), den)
        self.n = n
        self.nums = dict(zip(nums, vals))
        self._terms = None

    @classmethod
    def zero(cls, n: int) -> "TLElement":
        return cls(n, {})

    @classmethod
    def identity(cls, n: int) -> "TLElement":
        return cls(n, {PlanarDiagram.identity(n): P_ONE})

    @classmethod
    def from_diagram(cls, diag: PlanarDiagram) -> "TLElement":
        return cls(diag.n, {diag: P_ONE})

    @property
    def terms(self) -> dict:
        if self._terms is None:
            self._terms = {d: RationalFunction(a, self.den) for d, a in self.nums.items()}
        return self._terms

    def is_zero(self) -> bool:
        return not self.nums

    def coefficient(self, diag: PlanarDiagram) -> RationalFunction:
        a = self.nums.get(diag)
        return RationalFunction(a, self.den) if a else RF_ZERO

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
        return TLElement(self.n, out, ip_mul(self.den, other.den))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        k = RationalFunction._coerce(other)
        if k is not None:
            return TLElement(self.n, {d: ip_mul(a, k.inum) for d, a in self.nums.items()},
                             ip_mul(self.den, k.iden))
        if not isinstance(other, TLElement):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("strand count mismatch")
        # x y is the sum over y's diagrams D of the one-diagram product x D
        # times D's numerator: one polynomial product per (D, result), all
        # over den_x * den_y, and one reduction.
        out: dict = {}
        for dy, ny in other.nums.items():
            for diag, a in _times_diagram(self.nums, dy).items():
                out[diag] = ip_add(out.get(diag, P_ZERO), ip_mul(a, ny))
        return TLElement(self.n, out, ip_mul(self.den, other.den))

    def adjoint(self) -> "TLElement":
        """Each diagram reflected, coefficients kept: (x y)* = y* x*, x** = x."""
        return TLElement(self.n, {d.reflect(): a for d, a in self.nums.items()}, self.den)

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
    return TLElement(n, {PlanarDiagram.cup_cap(n, i): P_ONE}, (0, 1))


def include(x: TLElement) -> TLElement:
    """The inclusion into one more strand: append a through-strand on the right."""
    return TLElement(x.n + 1, _included(x), x.den)


def _included(x: TLElement) -> dict:
    """include(x)'s numerators over x.den, canonical when x's are."""
    n = x.n
    out = {}
    for diag, a in x.nums.items():
        p = [q if q < n else q + 1 for q in diag.partner]
        out[_interned((*p[:n], 2 * n + 1, *p[n:], n))] = a
    return out


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
        return RationalFunction(self.coeffs)


@lru_cache(maxsize=None)
def chebyshev(n: int) -> ChebyshevPoly:
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return ChebyshevPoly(0, (1,))
    if n == 1:
        return ChebyshevPoly(1, (0, 1))
    return ChebyshevPoly(n, ip_sub((0,) + chebyshev(n - 1).coeffs, chebyshev(n - 2).coeffs))


def _times_diagram(nums: dict, diag: PlanarDiagram) -> dict:
    """The numerators of x * diag for an element x with numerators ``nums``,
    over x's denominator: one composition per term, shifted by its loop
    count, summed per result diagram, zero sums dropped and nothing reduced."""
    out: dict = {}
    for dx, a in nums.items():
        d, loops = compose(dx, diag)
        out[d] = ip_add(out.get(d, P_ZERO), (0,) * loops + a)
    return {d: a for d, a in out.items() if a}


def _verify_jones_wenzl(p: TLElement, n: int):
    """Prove the characterization with n - 1 products and no p p: (i) p != 0,
    identity coefficient 1; (ii) p = p*; (iii) p U_i = 0 for i = 1..n-1. Then
    U_i p = (p U_i)* = 0, as U_i* = U_i. A non-identity diagram D has an adjacent
    top cap, so D = U_i D' and p D = 0; with p = 1 + sum c_D D, that is p p = p.
    (i) and (ii) read numerators: the identity's is p.den, and each diagram's is
    its reflection's, which is p = p* as reflection is a bijection keeping den."""
    if p.is_zero():
        raise JonesWenzlError(f"projector at n={n} is zero")
    if p.nums.get(PlanarDiagram.identity(n)) != p.den:
        raise JonesWenzlError(f"projector at n={n} has identity coefficient != 1")
    if not all(p.nums.get(d.reflect()) == a for d, a in p.nums.items()):
        raise JonesWenzlError(f"projector at n={n} is not self-adjoint")
    # p.den is nonzero, so p U_i = 0 exactly when every numerator vanishes
    for i in range(1, n):
        if _times_diagram(p.nums, PlanarDiagram.cup_cap(n, i)):
            raise JonesWenzlError(f"projector at n={n} is not annihilated by U_{i}")


@lru_cache(maxsize=None)
def jones_wenzl(n: int) -> TLElement:
    """The unique nonzero idempotent killed by every generator, built by the
    single-clasp expansion on the raw diagrams

        p_n = p' + sum_{i=1}^{n-1} (-1)^(n-i) ([i]/[n]) p' U_{n-1} U_{n-2} ... U_i,

    with p' the included p_{n-1}, read off its numerators without a reduction,
    and the quantum integer [k] = D_{k-1}(d) for loop value d. Each summand is
    the one before it times one cup-cap diagram, so the level is summed over
    p_{n-1}.den D_{n-1} and reduced once. It is returned only once
    ``_verify_jones_wenzl`` has proved it."""
    if n < 1:
        raise ValueError("strand count must be at least 1")
    if n == 1:
        p = TLElement.identity(1)
    else:
        prev = jones_wenzl(n - 1)
        top = chebyshev(n - 1).coeffs
        term = _included(prev)
        out = {d: ip_mul(a, top) for d, a in term.items()}
        for i in range(n - 1, 0, -1):
            term = _times_diagram(term, PlanarDiagram.cup_cap(n, i))
            c = ip_mul(chebyshev(i - 1).coeffs, ((-1) ** (n - i),))
            for d, a in term.items():
                out[d] = ip_add(out.get(d, P_ZERO), ip_mul(a, c))
        p = TLElement(n, out, ip_mul(prev.den, top))
    _verify_jones_wenzl(p, n)
    return p


def markov_trace(x: TLElement) -> RationalFunction:
    """Normalized trace via circular closure: a diagram contributes
    d^(closure loops - n), so the identity traces to 1 and tr(e_i) = 1/d^2.
    Reduced once, as sum N_D d^(closure loops of D) over den * d^n."""
    acc = P_ZERO
    for diag, a in x.nums.items():
        acc = ip_add(acc, (0,) * closure_loops(diag) + a)
    return RationalFunction(acc, (0,) * x.n + x.den)


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
    its ValueError.

    Within the rule no coefficient of the projector, nor its trace, has a pole
    at the root. Their denominators are products of Chebyshev D_k (d = D_1),
    so every denominator root is 2cos(j pi/(k+1)), 1 <= j <= k, with
    k + 1 <= n <= r - 1; 2cos(pi/r) is none of them."""
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
