"""Factoring of polynomials over the rationals.

A polynomial p is its monomial content m = x_1^k_1...x_r^k_r times a
cofactor p/m that no variable divides.  When p/m is a constant, or one
irreducible factor by a linear argument (see `_factors_in_house`), the
factors are the variables of m and that cofactor, and they are answered
here in `sympy.factor_list`'s order; sympy is imported only for the
polynomials this cannot settle.

`ParamPoly` and `ParamRing` are other names of `poly.Poly` and `poly.Ring`
(the same classes, not subclasses), kept for code that imports them from
here: the `params.mul` span of `perfbench/spans.py` binds `ParamPoly`.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly, Ring, _exact

ParamPoly = Poly
ParamRing = Ring


def _factors_in_house(p):
    """The irreducible factors of the non-constant p, normalized and in
    sympy's order, when its monomial content settles them; else None.

    Let m be the monomial content of p and q = p/m.  The factors are the
    variables of m, plus q.normalized() when q is not constant and passes
    the linear rule: some variable x occurs in exactly one term of q, to
    degree 1.  Then q = A*x + B with A a rational times a monomial free of
    x and B != 0 free of x.  A common irreducible factor of A and B in
    Q[other variables] would be a variable dividing A and every term of B,
    that is every term of q, and none does.  So q has degree 1 in x and is
    primitive over the UFD Q[other variables]; by Gauss's lemma it is
    irreducible.

    The order is `sympy.factor_list`'s.  `together` splits m off q, its
    variables in name order, and the factors are then sorted, stably, by
    (length of the dense rep, number of gens, multiplicity, rep).  A
    variable has the rep [1, 0], and q in one variable, c1*x + c0 with
    c1 > 0 and c0 != 0, has [c1, c0]: both of length 2 in one gen.  A q
    in two or more variables sorts after all of them.  So the key
    (number of gens, multiplicity, rep) gives sympy's order here.
    """
    exps = p.terms
    content = [min(col) for col in zip(*exps)]
    found = [(p.ring.gen(n), (1, k, (1, 0)))
             for n, k in sorted((n, k) for n, k in zip(p.ring.names, content)
                                if k)]
    if len(exps) > 1:
        if not any([d - k for d in col if d != k] == [1]
                   for col, k in zip(zip(*exps), content)):
            return None
        # every exponent of p is at least its content: subtract packed keys
        m = p.ring._pack(content)
        q = Poly._new(p.ring, {key - m: c for key, c in p._t.items()})
        q = q.normalized()
        if len(q.variables()) > 1:
            found.append((q, (2,)))
        else:
            rep = tuple(c for _e, c in sorted(q.terms.items(), reverse=True))
            found.append((q, (1, 1, rep)))
    found.sort(key=lambda item: item[1])
    return tuple(f for f, _key in found)


def irreducible_factors(p):
    """Non-constant irreducible factors of p over Q, each in normalized form.

    Rational constant factors are dropped and multiplicities collapsed.
    A result with several factors comes in sympy's order.
    """
    if not p or p.is_constant():
        return ()
    found = _factors_in_house(p)
    if found is not None:
        return found
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
