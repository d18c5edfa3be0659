"""The field of rational functions in one variable over the rationals.

A RationalFunction is held internally as a pair of integer-coefficient
polynomials (lowest degree first, no trailing zeros) with coprime primitive
parts, coprime contents and a positive leading denominator coefficient. That
form is canonical, so equality is a tuple comparison, and all arithmetic runs
on machine/big integers with a primitive-PRS gcd, which keeps the symbolic
identity checks of the diagram algebra fast.

That integer pair is the only form, in and out. ``RationalFunction(num,
den)`` is the one constructor: it takes integer coefficient sequences, lowest
degree first, and reduces them; ``RF_D ** k`` is the power d^k, and an int
operand coerces to a constant, which equals and hashes like that int. Output
reads ``inum`` and ``iden`` directly, and ``coeffs_to_json`` writes them over
the leading denominator coefficient with one integer gcd per entry.
"""

from __future__ import annotations

from math import gcd

IntCoeffs = tuple[int, ...]

P_ZERO: IntCoeffs = ()
P_ONE: IntCoeffs = (1,)


def ip_trim(cs) -> IntCoeffs:
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])


def ip_add(a: IntCoeffs, b: IntCoeffs) -> IntCoeffs:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return ip_trim(out)


def ip_neg(a: IntCoeffs) -> IntCoeffs:
    return tuple(-c for c in a)


def ip_sub(a: IntCoeffs, b: IntCoeffs) -> IntCoeffs:
    return ip_add(a, ip_neg(b))


def ip_mul(a: IntCoeffs, b: IntCoeffs) -> IntCoeffs:
    if not a or not b:
        return P_ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return ip_trim(out)


def ip_content(a: IntCoeffs) -> int:
    g = 0
    for c in a:
        g = gcd(g, c)
    return g


def ip_primitive(a: IntCoeffs) -> IntCoeffs:
    g = ip_content(a)
    if g in (0, 1):
        return a
    return tuple(c // g for c in a)


def ip_pseudo_rem(a: IntCoeffs, b: IntCoeffs) -> IntCoeffs:
    """Remainder of lc(b)^k * a by b (up to a scalar; used inside the PRS)."""
    r = list(a)
    lb = b[-1]
    while len(r) >= len(b):
        lead = r[-1]
        if lead:
            r = [lb * c for c in r]
            shift = len(r) - len(b)
            for i, cb in enumerate(b):
                r[shift + i] -= lead * cb
        r.pop()
        while r and not r[-1]:
            r.pop()
    return tuple(r)


def ip_gcd(a: IntCoeffs, b: IntCoeffs) -> IntCoeffs:
    """Primitive gcd in Z[x] via the primitive polynomial remainder sequence."""
    a, b = ip_primitive(a), ip_primitive(b)
    while b:
        a, b = b, ip_primitive(ip_pseudo_rem(a, b))
    if a and a[-1] < 0:
        a = ip_neg(a)
    return a


def ip_divexact(a: IntCoeffs, b: IntCoeffs) -> IntCoeffs:
    """Exact division in Z[x]; raises if b does not divide a."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return P_ZERO
    r = list(a)
    lb = b[-1]
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        lead = r[k + len(b) - 1]
        c, rem = divmod(lead, lb)
        if rem:
            raise ArithmeticError("polynomial division not exact")
        q[k] = c
        if c:
            for i, cb in enumerate(b):
                r[k + i] -= c * cb
    if any(r):
        raise ArithmeticError("polynomial division not exact")
    return ip_trim(q)


def ip_eval(cs: IntCoeffs, x):
    acc = 0 * x if cs else 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def p_to_str(cs) -> str:
    if not cs:
        return "0"
    parts = []
    for k in range(len(cs) - 1, -1, -1):
        c = cs[k]
        if not c:
            continue
        if k == 0:
            term = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            term = f"{mag}d" if k == 1 else f"{mag}d^{k}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


class RationalFunction:
    """A quotient of integer polynomials, canonically reduced."""

    __slots__ = ("inum", "iden")

    def __init__(self, num=P_ZERO, den=P_ONE):
        num = ip_trim(num)
        nums, self.iden = ip_reduce([num] if num else [], den)
        self.inum = nums[0] if nums else P_ZERO

    @staticmethod
    def _coerce(x):
        if isinstance(x, RationalFunction):
            return x
        if isinstance(x, int):
            return RationalFunction((x,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(
            ip_add(ip_mul(self.inum, o.iden), ip_mul(o.inum, self.iden)),
            ip_mul(self.iden, o.iden))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(
            ip_sub(ip_mul(self.inum, o.iden), ip_mul(o.inum, self.iden)),
            ip_mul(self.iden, o.iden))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(ip_mul(self.inum, o.inum), ip_mul(self.iden, o.iden))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.inum:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(ip_mul(self.inum, o.iden), ip_mul(self.iden, o.inum))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if k < 0:
            return RF_ONE / self ** (-k)
        out = RF_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __neg__(self):
        return RationalFunction(ip_neg(self.inum), self.iden)

    def __bool__(self):
        return bool(self.inum)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.inum == o.inum and self.iden == o.iden

    def __hash__(self):
        # An integer constant equals its int, so it must hash like one.
        if self.iden == P_ONE and len(self.inum) <= 1:
            return hash(self.inum[0] if self.inum else 0)
        return hash((self.inum, self.iden))

    def evaluate(self, x):
        """Substitute a numeric value; raises ZeroDivisionError at a pole."""
        den = ip_eval(self.iden, x)
        if not den:
            raise ZeroDivisionError("evaluation at a pole")
        return ip_eval(self.inum, x) / den

    def __repr__(self):
        num = p_to_str(self.inum)
        if self.iden == P_ONE:
            return num
        return f"({num})/({p_to_str(self.iden)})"


def ip_reduce(nums: list, den: IntCoeffs) -> tuple[list, IntCoeffs]:
    """Canonical form of nonzero numerators over one common denominator.

    Divides out the primitive gcd of ``den`` and every numerator, then their
    common integer content, and makes the leading coefficient of ``den``
    positive. The result is unique for the quotients ``nums[k] / den``
    together, so equal families compare equal as tuples.
    """
    den = ip_trim(den)
    if not den:
        raise ZeroDivisionError("rational function with zero denominator")
    if not nums:
        return [], P_ONE
    g = den
    for a in nums:
        if len(g) == 1:
            break
        g = ip_gcd(g, a)
    if len(g) > 1:
        den = ip_divexact(den, g)
        nums = [ip_divexact(a, g) for a in nums]
    c = ip_content(den)
    for a in nums:
        if c == 1:
            break
        c = gcd(c, ip_content(a))
    if den[-1] < 0:
        c = -c
    if c != 1:
        den = tuple(x // c for x in den)
        nums = [tuple(x // c for x in a) for a in nums]
    return nums, den


RF_ZERO = RationalFunction()
RF_ONE = RationalFunction((1,))
RF_D = RationalFunction((0, 1))


def coeffs_to_json(cs: IntCoeffs, lead: int) -> list:
    """The values ``c / lead`` for integer ``cs`` and ``lead > 0``, lowest degree
    first, each in lowest terms as [numerator, denominator] strings."""
    return [[str(c // (g := gcd(c, lead))), str(lead // g)] for c in cs]

