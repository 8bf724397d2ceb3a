"""1-forms on a branch and the standard basis of their pullback module.

The value of a 1-form w = A dx + B dy is ord_t(t * phi^*(w)).  Starting
from the differentials of a standard basis of the local ring, the
completion loop repeatedly forms minimal S-processes of basis pairs and
reduces them; surviving elements carry the values that make up the set
Lambda beyond the semigroup.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import heapq
import itertools

from .branch import (_cancel, _pullback_degree, _reduce, _replay, semigroup_of,
                     standard_basis_of_ring)
from .errors import DomainError, ValidationError
from .series import AbovePrecision, TruncatedSeries, _ProductCache
from .valueset import ValueSet


@dataclass(frozen=True)
class OneForm:
    """w = sum_i A_i dx_i with polynomial coefficients, one per coordinate."""

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ValidationError("a 1-form needs at least one coefficient")

    @property
    def ncoords(self):
        return len(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def scale(self, c):
        """c * self, for c a rational or a polynomial."""
        return OneForm(tuple(c * a for a in self.coeffs))

    def __sub__(self, other):
        return OneForm(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __add__(self, other):
        return OneForm(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))


def differential(h):
    """d(h) as a OneForm."""
    return OneForm(tuple(h.partial(i) for i in range(len(h.ring.names))))


def pullback_form(form, coord_series):
    """phi^*(w) = sum phi^*(A_i) * x_i'(t); precision drops by one from the
    coordinate derivatives."""
    if not form:
        raise ValidationError("zero 1-form")
    if form.ncoords > len(coord_series):
        raise ValidationError("form has more coordinates than the parametrization")
    total = None
    args = coord_series[: len(form.coeffs[0].ring.names)]
    cache = _ProductCache(args)
    for a, coord in zip(form.coeffs, coord_series):
        if not a:
            continue
        piece = a.eval_series(args, cache) * coord.derivative()
        total = piece if total is None else total + piece
    return total


def eval_form_order(phi, form, precision=None):
    """nu(w) = 1 + ord(phi^*(w)), or AbovePrecision when the pullback
    vanishes to within precision.

    Without a precision the pullback is expanded in full, so
    AbovePrecision means the form vanishes identically on the branch."""
    if precision is None:
        precision = _exact_precision(phi, form)
    pull = pullback_form(form, phi.series(precision))
    o = pull.order()
    if isinstance(o, AbovePrecision):
        return o
    return o + 1


def _exact_precision(phi, form):
    """A precision at which the pullback of form is complete.

    Coordinates and form coefficients are polynomials, so phi^*(w) is a
    polynomial in t of degree at most max(deg A_i(phi) + deg x_i - 1); two
    more positions cover that degree and the one a derivative drops.  At
    this precision a pullback that vanishes is identically zero."""
    top = 0
    for a, coord in zip(form.coeffs, phi.coords):
        if a:
            deg = coord[-1][0] if coord else 0
            top = max(top, _pullback_degree(phi, a) + deg - 1)
    return top + 2


def eval_form_orders_multi(branches, form, precision=None):
    """Componentwise value tuple of one form on several branches; a
    pullback that vanishes (identically, without a precision) is a
    DomainError."""
    out = []
    for i, phi in enumerate(branches):
        value = eval_form_order(phi, form, precision)
        if isinstance(value, AbovePrecision):
            where = f" (to precision {value.precision})" if precision else ""
            raise DomainError(f"form pulls back to zero on branch {i}{where}")
        out.append(value)
    return tuple(out)


# -- minimal S-process solutions ---------------------------------------------


@lru_cache(maxsize=None)
def _vectors_by_value(gens, bound):
    """value -> exponent tuples alpha with sum(alpha_i * gens_i) == value <= bound."""
    out = {}

    def rec(i, prefix, total):
        if i == len(gens):
            out.setdefault(total, []).append(tuple(prefix))
            return
        k = 0
        while total + k * gens[i] <= bound:
            rec(i + 1, prefix + [k], total + k * gens[i])
            k += 1

    rec(0, [], 0)
    return out


@lru_cache(maxsize=None)
def minimal_s_processes(nu_p, nu_q, gens, cap):
    """Componentwise-minimal nonnegative solutions (alpha, gamma) of

        sum v_i alpha_i + nu_p == sum v_i gamma_i + nu_q == matched <= cap.

    Returns a tuple of (alpha, gamma, matched) sorted by matched value.

    The cap cuts no minimal solution short: if (alpha', gamma') <=
    (alpha, gamma) componentwise then matched' <= matched, so a solution
    below the cap can only be dominated by another one below it, and the
    minimal solutions up to the cap are exactly the minimal solutions of
    the uncapped system whose matched value is at most cap.
    """
    vecs = _vectors_by_value(gens, cap)
    # Dominated solutions reduce to products of smaller ones; keep the
    # componentwise-minimal concatenated vectors only.  Another solution
    # that dominates one has a smaller matched value, so it is met first.
    minimal = []
    for m in range(max(nu_p, nu_q), cap + 1):
        for alpha in vecs.get(m - nu_p, ()):
            for gamma_v in vecs.get(m - nu_q, ()):
                cat = alpha + gamma_v
                if not any(all(a <= b for a, b in zip(k[0] + k[1], cat))
                           for k in minimal):
                    minimal.append((alpha, gamma_v, m))
    minimal.sort(key=lambda s: (s[2], sum(s[0]) + sum(s[1])))
    return tuple(minimal)


# -- Algorithm 1 ----------------------------------------------------------------


@dataclass
class FormEntry:
    """One basis element: its 1-form (None in a parametric run, whose
    callers read values only), its pullback series and its value."""

    form: OneForm
    pull: TruncatedSeries
    value: int
    minimal: bool = False


@dataclass(frozen=True)
class FormValueBasis:
    entries: tuple
    lambda_set: ValueSet
    gamma: object

    @property
    def minimal_values(self):
        return tuple(e.value for e in self.entries if e.minimal)


class _Completion:
    """One run of the completion over the differentials of the ring
    standard basis sb; `run()` returns the FormEntry list making up a
    standard basis of the pulled-back 1-form module, in discovery order.

    State: `entries`, only appended; `heap`, the minimal S-processes (m,
    push counter, p, q, alpha, gamma) of each pair p < q, pushed once in
    `combinations` order, so ties on m pop in push order; `have`, Lambda
    below mu so far as a bitset (each entry sets v + Gamma); `stop`, the
    highest value below mu that `have` lacks; `want`, the target's bitset.

    A multiple (s, i) is the product of ring-basis powers named by the
    exponent vector s times entry i (s = 0: the entry itself).  A value's
    reducer, the first entry in discovery order whose value it exceeds by
    a member of Gamma, is built once and kept by value: entries are only
    appended, so it never changes.  A concrete run (representatives
    `sb.polys`) builds the 1-form of a multiple once too, and only for the
    elements it keeps; in a parametric run FormEntry.form is None.

    Prefix finality: S-processes pop in increasing matched value m, and
    once m is popped the part of Lambda in [1, m] is final: the S-process
    of value m cancels its order m - 1, so what it leaves has value at
    least m + 1, and every S-process pushed later pairs an entry of value
    above m.

    The stop at the conductor of Lambda: `stop` starts at mu - 1, which is
    not in Gamma and so in no v_i + Gamma, and only falls.  Every value
    above stop has a reducer, so a chain reaching position stop (stored:
    series have length >= mu - 1) would cancel up to the bound and be
    discarded; `reduce_form` drops it there, and the run ends at the first
    pop with m >= stop, whose S-process starts at position m.  Entries and
    steps stay those of a run to the bound.  With a target, the first pop
    whose `have` and `want` differ in [1, m] ends the run: it cannot end
    at the target, and the entries kept so far differ from it in [1, m].
    """

    def __init__(self, sb, target=None):
        gamma = self.gamma = sb.gamma
        bound = gamma.conductor - 1   # -1 for <1>, whose stop stays 0
        self.entries, self.heap, self.have, self.stop = [], [], 0, max(bound, 0)
        self.want = None if target is None else int(
            "".join("01"[z in target] for z in range(bound, 0, -1)) + "0", 2)
        self.pulls = _ProductCache(sb.pullbacks)
        self.polys = None if sb.polys is None else _ProductCache(sb.polys)
        self._by_value, self._forms, self._counter = {}, {}, itertools.count()

        # phi^*(dh) = d(phi^*(h))/dt dt, so the pullback of each differential
        # is the derivative of the basis pullback.  Basis pullbacks keep exact
        # (syntactic) zeros below their order, so the lead is read off directly.
        for k, (b, v) in enumerate(zip(sb.pullbacks, sb.values)):
            pull = b.derivative()
            lead = pull.leading()
            assert not isinstance(lead, AbovePrecision) and lead[0] + 1 == v, \
                f"nu(dh) = {lead} expected value {v}"
            self._keep(FormEntry(None if sb.polys is None else
                                 differential(sb.polys[k]), pull, v))
        self._push(itertools.combinations(range(len(self.entries)), 2))

    def _keep(self, entry):
        self.entries.append(entry)
        self.have |= self.gamma._bits << entry.value
        while self.have >> self.stop & 1:
            self.stop -= 1

    def _push(self, pairs):
        for p, q in pairs:
            for alpha, gamma_v, m in minimal_s_processes(
                    self.entries[p].value, self.entries[q].value,
                    self.gamma.generators, self.gamma.conductor - 2):
                heapq.heappush(self.heap,
                               (m, next(self._counter), p, q, alpha, gamma_v))

    def pull(self, s, i):
        prod, pull = self.pulls.product(s), self.entries[i].pull
        return pull if prod is None else prod * pull

    def of(self, value):
        """(pullback, s, i) of value's reducer, or None when no entry
        reduces value; Gamma's representation of the difference is computed
        for the reducer alone, to name its product of basis powers."""
        red = self._by_value.get(value)
        if red is None:
            i = next((i for i, e in enumerate(self.entries)
                      if value - e.value in self.gamma), None)
            if i is None:
                return None
            s = self.gamma.membership(value - self.entries[i].value)[1]
            red = self._by_value[value] = (self.pull(s, i), s, i)
        return red

    def form(self, s, i):
        if (s, i) not in self._forms:
            prod, form = self.polys.product(s), self.entries[i].form
            self._forms[s, i] = form if prod is None else form.scale(prod)
        return self._forms[s, i]

    def certify(self, steps):
        """The 1-form of a kept element, or None in a run without forms.

        steps holds (a, b, s, i) per step, for the rational scalar a/b
        (made a Fraction only here, so a step that is thrown away makes
        none) and the multiple (s, i).  The S-process lp * (alpha, p) -
        lc * (gamma, q) is the first two: `branch._replay` starts from lp
        * (alpha, p) and subtracts the rest in the order they were taken."""
        if steps is None:
            return None
        (a, b, alpha, p), *rest = steps
        return _replay(self.form(alpha, p).scale(Fraction(a, b)), rest, self.form)

    def run(self):
        """The pop loop; returns the entries."""
        heap, entries = self.heap, self.entries
        while heap and heap[0][0] < self.stop:
            m, _, p, q, alpha, gamma_v = heapq.heappop(heap)
            if self.want is not None and (self.have ^ self.want) & ((2 << m) - 1):
                break
            sp, sq = self.pull(alpha, p), self.pull(gamma_v, q)
            assert sp.order() == sq.order() == m - 1
            steps = None if self.polys is None else [
                (sq.coeffs[m - 1], sq.den, alpha, p),
                (sp.coeffs[m - 1], sp.den, gamma_v, q)]
            result = reduce_form(_cancel(sp, sq, m - 1, cross=True), steps, self)
            if result is not None:
                self._keep(result)
                self._push((p, len(entries) - 1) for p in range(len(entries) - 1))
        return entries


def reduce_form(pull, steps, run):
    """Final reduction of the pullback pull modulo the basis of the
    `_Completion` run by `branch._reduce`: a FormEntry with the first value
    that has no reducer, or None (discard) when nothing is left below stop.

    steps, in a concrete run, holds the S-process that made pull; each
    cancel step appends its scalar and its reducer, for `certify` to
    replay.  A parametric run passes None and keeps no steps.
    """
    pull, o = _reduce(pull, steps, lambda o: run.of(o + 1), run.stop)
    if o == run.stop:
        return None
    return FormEntry(run.certify(steps), pull, o + 1)


def algorithm1_core(sb, target=None):
    """The entries of one completion run over the ring standard basis sb,
    stopped early when its Lambda leaves the target (see `_Completion`)."""
    return _Completion(sb, target).run()


def assemble_lambda(entries, gamma):
    """Minimal basis flags plus the value set Lambda = union(nu_i + Gamma),
    as one bitset: in ascending order, an entry whose value is not in it
    yet is minimal and adds value + Gamma.  Gamma's bits run up to the
    largest value, which can exceed mu (3 > mu = 2 in <2,3>)."""
    mu = gamma.conductor
    by_value = sorted(entries, key=lambda e: e.value)
    gamma_bits = gamma._bits | ((1 << max(by_value[-1].value + 1, mu)) - (1 << mu))
    have = 0
    for e in by_value:
        e.minimal = not have >> e.value & 1
        if e.minimal:
            have |= gamma_bits << e.value
    cof = max(mu, 1)
    return ValueSet(tuple(z for z in range(1, cof) if have >> z & 1), cof)


def algorithm1_lambda(phi):
    """Standard basis of the pulled-back 1-form module and the set Lambda.

    A concrete run: every entry carries its 1-form, a certificate of its
    value."""
    if phi.ncoords != 2:
        raise DomainError("Lambda computation is for plane branches only")
    gamma = semigroup_of(phi)
    entries = algorithm1_core(standard_basis_of_ring(phi, gamma=gamma))
    return FormValueBasis(tuple(entries), assemble_lambda(entries, gamma), gamma)
