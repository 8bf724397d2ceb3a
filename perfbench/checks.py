"""Answer checks computed apart from branchforms.

Nothing here imports the package.  Semigroups, value sets, parameter
polynomials and 1-form pullbacks are recomputed with plain integers and
Fractions from plain data (see `workloads.plain_*`), so a check never
trusts the code it checks.  Every check returns a list of problem strings;
an empty list means the answer passed.

Plain data used throughout:
  branch      (n, {exponent: Fraction})       x = t^n, y = sum c t^e
  value set   (elements, cofinal)             elements below cofinal, then all
  form        [terms_dx, terms_dy]            terms: {(ex, ey): Fraction}
  polynomial  ({exponent tuple: Fraction}, names)
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

# Lambda minus Gamma below the conductor 42 for the four branches
# (t^6, t^9 + t^10 + c11 t^11 + c17 t^17) of the running example.
RUNNING_EXAMPLE = [
    ({9: 1, 10: 1}, (16, 22, 26, 29, 32, 35, 41)),
    ({9: 1, 10: 1, 11: Fraction(29, 18)}, (16, 22, 26, 32, 35, 41)),
    ({9: 1, 10: 1, 11: Fraction(-1, 2)}, (16, 22, 29, 32, 35, 41)),
    ({9: 1, 10: 1, 11: Fraction(-1, 2), 17: Fraction(1, 38)},
     (16, 22, 29, 35, 41)),
]

# The sets L1..L4 of the running example and the verdict, stage and evidence
# fragments each must get.
L1 = ((6, 9, 12, 15, 16, 17, 18, 21, 22, 24, 25), 27)
L2 = ((6, 9, 12, 15, 16, 17, 18, 21, 22, 23, 24, 25), 27)
L3 = ((6, 9, 12, 15, 16, 18, 19, 21, 22, 23, 24, 25), 27)
L4 = ((6, 9, 12, 15, 16, 18, 19, 21, 22, 24, 25), 27)
RUNNING_DECISIONS = [
    ("L1", L1, "no", "not-covered", ("23",)),
    ("L2", L2, "no", "eta-or-bresinsky-failed", ("17", "18")),
    ("L3", L3, "no", "no-matching-stratum", ()),
    ("L4", L4, "yes", "matched", ()),
]


# -- semigroups ----------------------------------------------------------------


def characteristic_exponents(n, exponents):
    """beta_0 = n, then each exponent that lowers the running gcd."""
    beta = [n]
    e = n
    for exp in sorted(exponents):
        if e == 1:
            break
        if exp % e:
            beta.append(exp)
            e = gcd(e, exp)
    return beta


def semigroup_generators(n, exponents):
    """Minimal generators of the value semigroup of (t^n, sum c_e t^e) by
    Zariski's formula v_i = n_{i-1} v_{i-1} + beta_i - beta_{i-1}."""
    beta = characteristic_exponents(n, exponents)
    es = [beta[0]]
    for b in beta[1:]:
        es.append(gcd(es[-1], b))
    v = [beta[0]]
    for i in range(1, len(beta)):
        n_prev = es[i - 2] // es[i - 1] if i >= 2 else 1
        v.append(n_prev * v[i - 1] + beta[i] - beta[i - 1])
    return tuple(v)


def member_table(gens, bound):
    """member[z] for 0 <= z < bound, by dynamic programming."""
    member = [False] * max(bound, 1)
    member[0] = True
    for z in range(1, bound):
        member[z] = any(z >= g and member[z - g] for g in gens)
    return member


def conductor(gens):
    """Smallest c with [c, oo) inside the semigroup (table search)."""
    bound = gens[0] * gens[-1] + gens[0] + 1
    member = member_table(gens, bound)
    last_gap = max((z for z in range(bound) if not member[z]), default=-1)
    return last_gap + 1


def free_conductor(gens):
    """Conductor of a free generator system: sum (n_i - 1) v_i - v_0 + 1."""
    es = [gens[0]]
    for v in gens[1:]:
        es.append(gcd(es[-1], v))
    return sum((es[i - 1] // es[i] - 1) * gens[i]
               for i in range(1, len(gens))) - gens[0] + 1


# -- value sets ----------------------------------------------------------------


def members_below(vs, bound):
    """Members of the value set vs = (elements, cofinal) in [1, bound)."""
    elements, cofinal = vs
    out = {z for z in elements if 0 < z < min(cofinal, bound)}
    out.update(range(cofinal, bound))
    return out


def value_set(members, cofinal):
    """Canonical (elements, cofinal): cofinal lowered over a full tail."""
    elems = sorted(z for z in set(members) if z < cofinal)
    while elems and elems[-1] == cofinal - 1:
        elems.pop()
        cofinal -= 1
    return tuple(elems), cofinal


# -- 1-form pullbacks -------------------------------------------------------------


def _mul(a, b, prec):
    out = [0] * prec
    for i, x in enumerate(a):
        if x:
            for j in range(prec - i):
                if b[j]:
                    out[i + j] += x * b[j]
    return out


class Pullback:
    """Series of x = t^n and y on one branch, truncated below prec."""

    def __init__(self, n, y_terms, prec):
        self.n = n
        self.prec = prec
        y = [0] * prec
        dy = [0] * prec
        for e, c in y_terms.items():
            if c and e < prec:
                y[e] += c
            if c and 0 < e <= prec:
                dy[e - 1] += e * c
        self.dy = dy
        self._ypow = [[1] + [0] * (prec - 1), y]

    def ypow(self, j):
        while len(self._ypow) <= j:
            self._ypow.append(_mul(self._ypow[-1], self._ypow[1], self.prec))
        return self._ypow[j]

    def poly(self, terms):
        """A(x(t), y(t)) for A given as {(ex, ey): c}."""
        out = [0] * self.prec
        for (ex, ey), c in terms.items():
            shift = self.n * ex
            if not c or shift >= self.prec:
                continue
            yp = self.ypow(ey)
            for k in range(self.prec - shift):
                if yp[k]:
                    out[shift + k] += c * yp[k]
        return out

    def value(self, form):
        """ord_t(t * phi^*(A dx + B dy)), or None when the pullback vanishes
        below the precision."""
        a_terms, b_terms = form
        total = [0] * self.prec
        a = self.poly(a_terms)
        for k in range(self.prec - (self.n - 1)):
            if a[k]:
                total[k + self.n - 1] += self.n * a[k]
        if b_terms:
            for k, c in enumerate(_mul(self.poly(b_terms), self.dy, self.prec)):
                total[k] += c
        for k, c in enumerate(total):
            if c:
                return k + 1
        return None


def random_form(rng, mu):
    """A random 1-form by the recipe of acceptance criterion 8: each
    coefficient is a sum of 1 to 3 monomials x^ex y^ey with small integer
    coefficients."""
    form = []
    for _ in range(2):
        terms = {}
        for _k in range(rng.randint(1, 3)):
            ex = rng.randint(0, 6)
            ey = rng.randint(0, max(0, (mu - ex) // 2))
            if ex + ey > mu:
                continue
            terms[(ex, ey)] = terms.get((ex, ey), 0) + rng.randint(-5, 5)
        form.append({e: Fraction(c) for e, c in terms.items() if c})
    return form


# -- Lambda of one branch -----------------------------------------------------------


def structural_problems(gens, lam):
    """Gamma minus 0 inside Lambda, Gamma + Lambda inside Lambda and
    min(Lambda minus Gamma) > v0 + v1, for a claimed Lambda of <gens>."""
    mu = conductor(gens)
    member = member_table(gens, mu)
    claimed = members_below(lam, mu)
    problems = []
    if lam[1] > max(mu, 1):
        problems.append(f"cofinal {lam[1]} above the conductor {mu}")
    if not {z for z in range(1, mu) if member[z]} <= claimed:
        problems.append("Gamma minus 0 not inside Lambda")
    if any(z + g < mu and z + g not in claimed for z in claimed for g in gens):
        problems.append("Lambda not closed under adding Gamma")
    extra = [z for z in claimed if not member[z]]
    if extra and min(extra) <= gens[0] + gens[1]:
        problems.append(f"min(Lambda minus Gamma) = {min(extra)} <= v0 + v1")
    return problems


def check_lambda(branch, gamma, lam, entries, rng=None, random_forms=0):
    """Check a claimed Lambda of one plane branch.

    gamma: claimed generators; lam: claimed value set; entries: the
    (value, form) pairs of the claimed standard basis.  Each entry's form is
    pulled back at a raised precision and must have its claimed value; the
    values these certificates generate as a Gamma-module must be exactly
    lam; lam must contain Gamma minus 0, be closed under adding Gamma and
    have min(Lambda minus Gamma) > v0 + v1; and no random 1-form may take a
    value below the conductor outside lam.
    """
    n, y_terms = branch
    problems = []
    gens = semigroup_generators(n, [e for e, c in y_terms.items() if c])
    if tuple(gamma) != gens:
        problems.append(f"semigroup {tuple(gamma)} but the exponents give {gens}")
    mu = conductor(gens)
    prec = mu + 2 * gens[0] + 2
    member = member_table(gens, prec)
    claimed = members_below(lam, mu)

    pull = Pullback(n, y_terms, prec)
    generated = set()
    for value, form in entries:
        got = pull.value(form)
        if got != value:
            problems.append(f"entry form has value {got}, claimed {value}")
            continue
        generated.update(z for z in range(max(value, 1), mu) if member[z - value])
    if generated != claimed:
        problems.append(
            f"certified values generate {sorted(generated - claimed)} outside "
            f"Lambda and miss {sorted(claimed - generated)}")

    problems.extend(structural_problems(gens, lam))
    for _ in range(random_forms):
        form = random_form(rng, mu)
        if not any(form):
            continue
        value = pull.value(form)
        if value is not None and value < mu and value not in claimed:
            problems.append(f"a random 1-form has value {value} outside Lambda")
            break
    return problems


def lambda_minus_gamma(n, y_terms, lam):
    """Lambda minus Gamma below the conductor, from plain data."""
    gens = semigroup_generators(n, [e for e, c in y_terms.items() if c])
    mu = conductor(gens)
    member = member_table(gens, mu)
    return tuple(sorted(z for z in members_below(lam, mu) if not member[z]))


# -- stratifications ---------------------------------------------------------------


def eval_poly(poly, point):
    terms, names = poly
    total = Fraction(0)
    for exps, c in terms.items():
        val = Fraction(c)
        for name, d in zip(names, exps):
            if d:
                val *= Fraction(point[name]) ** d
        total += val
    return total


def in_stratum(stratum, point):
    return (all(eval_poly(f, point) == 0 for f in stratum["eq"])
            and all(eval_poly(f, point) != 0 for f in stratum["neq"]))


def family_member(family, point):
    """(t^v0, t^v1 + sum_i a_i t^i) at a full parameter point."""
    y = {family["v1"]: Fraction(1)}
    for e in family["exponents"]:
        y[e] = family["fixed"].get(e, point.get(f"a{e}"))
    return family["v0"], {e: Fraction(c) for e, c in y.items() if c}


def check_witness(family, stratum):
    """A resolved stratum's witness is a full point that lies in it."""
    w = stratum["witness"]
    if w is None:
        return ["resolved stratum without a witness"]
    missing = [n for n in family["names"] if n not in w]
    if missing:
        return [f"witness lacks {missing}"]
    if not in_stratum(stratum, w):
        return ["witness does not lie in its stratum"]
    return []


def home_strata(strata, point):
    return [i for i, s in enumerate(strata) if in_stratum(s, point)]


def random_point(rng, names):
    pool = [Fraction(n, d) for n in range(-5, 6) for d in (1, 2, 3)]
    return {name: rng.choice(pool) for name in names}


# -- decisions -----------------------------------------------------------------------


def check_decision(decision, verdict, stage=None, fragments=()):
    """decision: (verdict, stage, evidence)."""
    got_verdict, got_stage, evidence = decision
    problems = []
    if got_verdict != verdict:
        problems.append(f"verdict {got_verdict!r}, expected {verdict!r}")
    if stage is not None and got_stage != stage:
        problems.append(f"stage {got_stage!r}, expected {stage!r}")
    for frag in fragments:
        if frag not in evidence:
            problems.append(f"evidence {evidence!r} lacks {frag!r}")
    return problems


def perturb(lam, rng):
    """Remove one z with z - min(L) still in L.  Lambda + min(Lambda) lies in
    Lambda for every branch, so the result is no Lambda."""
    elements, cofinal = lam
    a0 = elements[0] if elements else cofinal
    members = members_below(lam, cofinal + a0)
    choices = sorted(z for z in members if z - a0 in members)
    z = rng.choice(choices)
    return value_set(members - {z}, cofinal + a0)


def new_rng(*parts):
    """A Random seeded from integers and strings, the same on every run."""
    return random.Random("/".join(str(p) for p in parts))
