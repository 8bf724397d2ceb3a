"""Factoring of polynomials over the rationals, through sympy.

`ParamPoly` and `ParamRing` are other names of `poly.Poly` and `poly.Ring`
(the same classes, not subclasses), kept for code that imports them from
here.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly, Ring, _exact

ParamPoly = Poly
ParamRing = Ring


def irreducible_factors(p):
    """Non-constant irreducible factors of p over Q, each in normalized form.

    Uses sympy for the factorization; rational constant factors are dropped
    and multiplicities collapsed.
    """
    import sympy

    if not p or p.is_constant():
        return ()
    symbols = {n: sympy.Symbol(n) for n in p.ring.names}
    expr = sympy.Integer(0)
    for e, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for i, d in enumerate(e):
            if d:
                term *= symbols[p.ring.names[i]] ** d
        expr += term
    _, factors = sympy.factor_list(expr)
    out = []
    for fac, _mult in factors:
        poly = sympy.Poly(fac, *[symbols[n] for n in p.ring.names])
        terms = {}
        for monom, coeff in poly.terms():
            terms[tuple(int(m) for m in monom)] = _exact(Fraction(coeff.p, coeff.q))
        q = Poly(p.ring, terms).normalized()
        if not q.is_constant():
            out.append(q)
    return tuple(out)
