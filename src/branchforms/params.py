"""Factoring of polynomials over the rationals.

Polynomials that are one irreducible factor by a linear argument (see
`_single_factor`) are answered here; sympy is imported only for the
polynomials that rule cannot settle.

`ParamPoly` and `ParamRing` are other names of `poly.Poly` and `poly.Ring`
(the same classes, not subclasses), kept for code that imports them from
here: the `params.mul` span of `perfbench/spans.py` binds `ParamPoly`.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly, Ring, _exact

ParamPoly = Poly
ParamRing = Ring


def _single_factor(p):
    """(f,) when the non-constant p is provably a single irreducible factor
    f up to a constant, else None.

    Two shapes are recognised:

    (a) p = c*x^k: the factor is x.
    (b) No variable divides every term of p, and some variable x occurs in
        exactly one term, to degree 1.  Then p = A*x + B with A a rational
        times a monomial free of x and B != 0 free of x.  A common
        irreducible factor of A and B in Q[other variables] would be a
        variable dividing A and every term of B, that is every term of p.
        So p has degree 1 in x and is primitive over the UFD Q[other
        variables]; by Gauss's lemma it is irreducible, and the factor is
        p.normalized().

    Everything else (monomials in two or more variables, a monomial factor
    times a cofactor, an x-coefficient that is not a monomial) is None.
    """
    exps = list(p.terms)
    if len(exps) == 1:
        used = [i for i, d in enumerate(exps[0]) if d]
        return (p.ring.gen(p.ring.names[used[0]]),) if len(used) == 1 else None
    columns = list(zip(*exps))
    if any(all(col) for col in columns):
        return None
    for col in columns:
        hits = [d for d in col if d]
        if hits == [1]:
            return (p.normalized(),)
    return None


def irreducible_factors(p):
    """Non-constant irreducible factors of p over Q, each in normalized form.

    Rational constant factors are dropped and multiplicities collapsed.
    A result with several factors comes in sympy's order.
    """
    if not p or p.is_constant():
        return ()
    single = _single_factor(p)
    if single is not None:
        return single
    import sympy

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
