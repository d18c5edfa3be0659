"""Shared test code: seeded random formulas and assignments, and the
Fraction-based writers that the integer JSON writers are checked against."""

from __future__ import annotations

import random
from fractions import Fraction

from qlat.formula import And, Assignment, Formula, Not, ONE, Or, Var, ZERO
from qlat.subspace import random_subspace_rng


def random_formula(rng: random.Random, names=("p", "q", "r"), depth: int = 5) -> Formula:
    if depth <= 0:
        roll = rng.random()
        if roll < 0.8:
            return Var(rng.choice(names))
        return ZERO if roll < 0.9 else ONE
    roll = rng.random()
    if roll < 0.3:
        return And(random_formula(rng, names, depth - 1),
                   random_formula(rng, names, depth - 1))
    if roll < 0.6:
        return Or(random_formula(rng, names, depth - 1),
                  random_formula(rng, names, depth - 1))
    if roll < 0.8:
        return Not(random_formula(rng, names, depth - 1))
    if roll < 0.95:
        return Var(rng.choice(names))
    return ZERO if roll < 0.975 else ONE


def random_assignment(rng: random.Random, names, ambient: int,
                      entry_bound: int = 3) -> Assignment:
    subs = {}
    for name in names:
        dim = rng.randint(0, ambient)
        subs[name] = random_subspace_rng(rng, ambient, dim, entry_bound)
    return Assignment(subs, ambient)


def fraction_coeffs_to_json(cs) -> list:
    """The former ``coeffs_to_json``: each coefficient boxed as a Fraction."""
    return [[str(Fraction(c).numerator), str(Fraction(c).denominator)] for c in cs]


def fraction_tl_to_json(x) -> dict:
    """The former ``tl_to_json``: each reduced coefficient through its monic
    view, numerator and denominator divided by the leading denominator
    coefficient as Fractions."""
    terms = []
    for diag in sorted(x.terms):
        c = x.terms[diag]
        lead = c.iden[-1]
        num = [Fraction(a, lead) for a in c.inum]
        den = [Fraction(a, lead) for a in c.iden]
        terms.append({
            "pairing": [[a, b] for a, b in diag.pairing],
            "coeff": {"num": fraction_coeffs_to_json(num), "den": fraction_coeffs_to_json(den)},
        })
    return {"n": x.n, "terms": terms}


def fraction_entry_to_json(z) -> list:
    """The former ``entry_to_json``: a GaussianRational's Fraction parts."""
    return [str(z.re.numerator), str(z.re.denominator), str(z.im.numerator), str(z.im.denominator)]
