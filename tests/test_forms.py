import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from branchforms import (BranchParametrization, DomainError,
                         NumericalSemigroup, OneForm, Poly, ValueSet,
                         algorithm1_lambda, coordinate_ring, default_precision,
                         differential, eval_form_order,
                         eval_form_orders_multi, minimal_s_processes, nu,
                         normal_form_family, pullback_form, semigroup_of,
                         standard_basis_of_ring, stratify)
from branchforms import forms
from branchforms.forms import algorithm1_core, assemble_lambda
from branchforms.series import AbovePrecision, TruncatedSeries, _cut
from branchforms.strata import _apply_substitution, _run_once, _Task
from conftest import random_branch

X, Y = coordinate_ring(2).gens()


def test_minimal_s_processes_example():
    # values 6 and 9 over <6,9,19>: one process matched at 15, one at 18
    sols = minimal_s_processes(6, 9, (6, 9, 19), 41 + 19)
    matched = sorted(m for _a, _g, m in sols)
    assert 15 in matched
    by_value = {m: (a, g) for a, g, m in sols}
    assert by_value[15] == ((0, 1, 0), (1, 0, 0))
    assert by_value[18] == ((2, 0, 0), (0, 1, 0))


def test_minimal_s_processes_two_gen():
    sols = minimal_s_processes(2, 3, (2, 3), 8)
    matched = sorted(m for _a, _g, m in sols)
    assert matched == [5, 6]


def test_minimality_filter():
    # componentwise-dominated solutions are dropped
    sols = minimal_s_processes(4, 4, (2, 3), 12)
    cats = [a + g for a, g, _ in sols]
    for i, c1 in enumerate(cats):
        for j, c2 in enumerate(cats):
            if i != j:
                assert not all(x <= y for x, y in zip(c1, c2))


def _reference_s_processes(gens, cap):
    """Brute force: (p, q) -> the set of solutions (alpha, gamma, matched)
    with matched <= cap that no other solution dominates componentwise.

    (alpha, gamma) dominates another solution exactly when the two differ
    by some (d_alpha, d_gamma) >= 0, nonzero, with d_alpha.v == d_gamma.v:
    so a solution is minimal iff alpha and gamma have no positive sub-sum
    d.v (0 <= d <= alpha, resp. gamma) in common."""
    by_value, sub_sums = {}, {}
    for alpha in itertools.product(*(range(cap // g + 1) for g in gens)):
        value = sum(a * g for a, g in zip(alpha, gens))
        if value <= cap:
            by_value.setdefault(value, []).append(alpha)
            sums = {0}
            for k, g in zip(alpha, gens):
                sums = {s + i * g for s in sums for i in range(k + 1)}
            sub_sums[alpha] = sums - {0}

    def minimal(p, q):
        return {(alpha, gamma_v, m)
                for m in range(max(p, q), cap + 1)
                for alpha in by_value.get(m - p, ())
                for gamma_v in by_value.get(m - q, ())
                if sub_sums[alpha].isdisjoint(sub_sums[gamma_v])}
    return minimal


@pytest.mark.parametrize("gens", [(6, 9, 19), (7, 9), (6, 13), (8, 12, 26, 53)])
def test_s_processes_below_the_bound_need_no_wider_cap(gens):
    # The completion asks only for S-processes below the reduction bound
    # mu - 1.  Enumerating up to mu - 2 + v_g and filtering by dominance
    # there must give the same solutions below the bound.
    mu = NumericalSemigroup(gens).conductor
    reference = _reference_s_processes(gens, mu - 2 + gens[-1])
    for p, q in itertools.combinations_with_replacement(range(1, mu), 2):
        sols = minimal_s_processes(p, q, gens, mu - 2)
        assert [m for _a, _g, m in sols] == sorted(m for _a, _g, m in sols)
        assert set(sols) == {s for s in reference(p, q) if s[2] <= mu - 2}, (p, q)


def test_differential_value_equals_function_value():
    # nu(dh) = nu(h) for every h that is not a pure constant
    phi = BranchParametrization.plane(6, {9: 1, 10: 1})
    rng = random.Random(3)
    prec = 60
    coords = phi.series(prec)
    for _ in range(40):
        h = X.ring.zero()
        for _k in range(rng.randint(1, 4)):
            h = h + (X ** rng.randint(0, 4) * Y ** rng.randint(0, 3)
                     * Fraction(rng.randint(-3, 3)))
        if not h or all(sum(e) == 0 for e in h.terms):
            continue
        h = h - h.terms.get((0, 0), 0)
        if not h:
            continue
        order_h = nu(phi, h, precision=prec)
        pull = pullback_form(differential(h), coords)
        order_dh = pull.order()
        if isinstance(order_h, AbovePrecision):
            continue
        assert order_dh + 1 == order_h


def test_eval_form_order_ex6919_literal():
    # 2x dy - 3y dx on the generic <6,9,19> branch has value 16
    phi = BranchParametrization.plane(6, {9: 1, 10: 1})
    w = OneForm((Y.scale(Fraction(-3)), X.scale(Fraction(2))))
    assert eval_form_order(phi, w) == 16


def test_eval_form_order_exact_differential_dies():
    phi = BranchParametrization.plane(2, {3: 1})
    w = differential(Y * Y - X * X * X)
    assert isinstance(eval_form_order(phi, w), AbovePrecision)


def test_space_curve_values():
    # w = 3x dy - 7y dx on two space branches with equal Lambda
    R3 = coordinate_ring(3)
    w = OneForm((Poly(R3, {(0, 1, 0): Fraction(-7)}),
                 Poly(R3, {(1, 0, 0): Fraction(3)}),
                 R3.zero()))
    c1 = BranchParametrization([{6: Fraction(1)},
                                {14: Fraction(1), 17: Fraction(1)},
                                {39: Fraction(1)}])
    c2 = BranchParametrization([{6: Fraction(1)},
                                {14: Fraction(1), 33: Fraction(1)},
                                {23: Fraction(1)}])
    assert eval_form_order(c1, w, precision=60) == 23
    assert eval_form_order(c2, w, precision=60) == 39


def test_two_branch_tuples():
    f1 = Y * Y - (X * X * Y).scale(Fraction(2)) - X ** 3 + X ** 4
    f2 = Y * Y - X ** 3
    w1 = OneForm((Y.scale(Fraction(3)), X.scale(Fraction(-2))))
    w2 = OneForm((Y.scale(Fraction(3)) + X * X, X.scale(Fraction(-2))))
    p1 = BranchParametrization.plane(2, {3: 1, 4: 1})
    p2 = BranchParametrization.plane(2, {3: 1})
    assert eval_form_orders_multi([p1, p2], w1 + differential(f1)) == (6, 7)
    assert eval_form_orders_multi([p1, p2], w2 + differential(f2)) == (7, 6)
    assert eval_form_orders_multi([p1, p2],
                                  (w1 + differential(f1)).scale(X)) == (8, 9)


def test_two_branch_zero_pullback_is_an_error():
    p2 = BranchParametrization.plane(2, {3: 1})
    w1 = OneForm((Y.scale(Fraction(3)), X.scale(Fraction(-2))))
    with pytest.raises(DomainError):
        eval_form_orders_multi([p2], w1)


def test_lambda_of_table_rows():
    rows = [
        ({9: 1, 10: 1}, [16, 22, 26, 29, 32, 35, 41]),
        ({9: 1, 10: 1, 11: Fraction(29, 18)}, [16, 22, 26, 32, 35, 41]),
        ({9: 1, 10: 1, 11: Fraction(-1, 2)}, [16, 22, 29, 32, 35, 41]),
        ({9: 1, 10: 1, 11: Fraction(-1, 2), 17: Fraction(1, 38)},
         [16, 22, 29, 35, 41]),
    ]
    for terms, expect in rows:
        basis = algorithm1_lambda(BranchParametrization.plane(6, terms))
        got = [z for z in basis.lambda_set.up_to(42) if z not in basis.gamma]
        assert got == expect


def test_lambda_trivial_cases():
    assert algorithm1_lambda(BranchParametrization.plane(2, {3: 1})).lambda_set \
        == ValueSet((), 2)
    assert algorithm1_lambda(BranchParametrization.plane(1, {})).lambda_set \
        == ValueSet((), 1)


def test_lambda_contains_semigroup_and_monomodule(corpus):
    for gens, phi in corpus:
        basis = algorithm1_lambda(phi)
        gamma = basis.gamma
        lam = basis.lambda_set
        mu = gamma.conductor
        bound = mu + 2 * gamma.multiplicity
        members = set(lam.up_to(bound))
        # Gamma* subset of Lambda
        for z in gamma.members_up_to(bound):
            if z > 0:
                assert z in members
        # Gamma + Lambda subset of Lambda
        for z in list(members):
            for v in gamma.generators:
                if z + v < bound:
                    assert z + v in members
        # min(Lambda minus Gamma) > v0 + v1
        extra = [z for z in members if z not in gamma]
        if extra:
            assert min(extra) > gamma.generators[0] + gamma.generators[1]
        # v_i - k v_0 never lies in Lambda
        for vi in gamma.generators[1:]:
            k = 1
            while vi - k * gamma.generators[0] > 0:
                assert vi - k * gamma.generators[0] not in members
                k += 1
        # |Ap(Lambda)| = v_0
        from branchforms import apery_set
        assert len(apery_set(lam)) == gamma.multiplicity


def test_minimal_basis_values_irredundant(corpus):
    for _gens, phi in corpus:
        basis = algorithm1_lambda(phi)
        vals = sorted(basis.minimal_values)
        for i, v in enumerate(vals):
            for w in vals[:i]:
                assert (v - w) not in basis.gamma



@pytest.mark.parametrize("gens", [(6, 9, 19), (4, 6, 13), (5, 7)])
def test_certificate_width_follows_the_basis(gens):
    # A concrete basis stripped of its representatives carries no 1-forms,
    # even without an oracle, and gives the values of the full run.
    family = normal_form_family(NumericalSemigroup(gens))
    point = {n: Fraction(i + 2, 3) for i, n in enumerate(family.ring.names)}
    sb = standard_basis_of_ring(family.member(point))
    full = algorithm1_core(sb)
    assert all(e.form is not None for e in full)
    bare = algorithm1_core(dataclasses.replace(sb, polys=None))
    assert all(e.form is None for e in bare)
    assert [e.value for e in bare] == [e.value for e in full]


@pytest.mark.parametrize("gens", [(6, 9, 19), (7, 9), (6, 13), (8, 12, 26, 53)])
def test_certificates_have_their_values(gens):
    # each entry's 1-form, pulled back in full, has the entry's value
    rng = random.Random(f"certificates {gens}")
    for _ in range(3):
        phi = random_branch(gens, rng)
        for e in algorithm1_lambda(phi).entries:
            assert eval_form_order(phi, e.form) == e.value


def test_concrete_run_certifies_kept_elements_only(monkeypatch):
    # One concrete run of a <6,9,19> branch.  A 1-form is built only for an
    # element the run keeps, by replaying its steps: two scalings for its
    # S-process and one per cancel step, so an S-process that reduces to
    # nothing costs no 1-form arithmetic.  Each value's reducer is built
    # once, with the one call to Gamma's membership that names its product.
    phi = BranchParametrization.plane(
        6, {9: 1, 10: 1, 11: Fraction(-1, 2), 17: Fraction(1, 38)})
    sb = standard_basis_of_ring(phi)
    calls, scaled, represented = [], [], []
    reduce_form, scale = forms.reduce_form, OneForm.scale
    membership = NumericalSemigroup.membership

    def spy_reduce(pull, steps, *args):
        result = reduce_form(pull, steps, *args)
        calls.append((steps, result))
        return result

    def spy_scale(self, c):
        if isinstance(c, Fraction):  # a step's scalar, not a product of powers
            scaled.append(c)
        return scale(self, c)

    def spy_membership(self, z):
        represented.append(z)
        return membership(self, z)

    monkeypatch.setattr(forms, "reduce_form", spy_reduce)
    monkeypatch.setattr(OneForm, "scale", spy_scale)
    monkeypatch.setattr(NumericalSemigroup, "membership", spy_membership)
    entries = algorithm1_core(sb)
    kept = [steps for steps, result in calls if result is not None]
    dropped = [steps for steps, result in calls if result is None]
    assert len(entries) == len(sb.values) + len(kept)
    assert any(len(steps) > 2 for steps in dropped)
    assert len(scaled) == sum(len(steps) for steps in kept)
    cancels = [step for steps, _ in calls for step in steps[2:]]
    reducers = {(s, i) for _a, _b, s, i in cancels}
    assert len(represented) == len(reducers) < len(cancels)


def test_parametric_entries_carry_no_forms():
    rep = stratify(NumericalSemigroup((4, 6, 13)))
    generic = next(s for s in rep.strata if not s.equalities)
    sb = standard_basis_of_ring(rep.family.phi, gamma=rep.gamma)
    entries = algorithm1_core(sb)
    assert entries and all(e.form is None for e in entries)
    assert assemble_lambda(entries, rep.gamma) == generic.lambda_set


def test_concrete_series_hold_integer_numerators():
    # a concrete run does int arithmetic per coefficient: rational tails
    # live in the one denominator of each series
    phi = BranchParametrization.plane(
        6, {9: 1, 10: 1, 11: Fraction(-1, 2), 17: Fraction(1, 38)})
    sb = standard_basis_of_ring(phi)
    basis = algorithm1_lambda(phi)
    pulls = list(sb.pullbacks) + [e.pull for e in basis.entries]
    assert any(s.den > 1 for s in pulls)
    for s in pulls:
        assert type(s.den) is int and s.den > 0
        assert all(type(c) is int for c in s.coeffs)


def test_parametric_series_hold_integral_numerators(monkeypatch):
    # parametric numerators are ints or Polys with a non-constant term and
    # int coefficients over one positive int denominator, which does grow
    # above 1; a constant numerator is an int wherever the series is built
    rep = stratify(NumericalSemigroup((6, 9, 19)))
    built = []
    init = TruncatedSeries.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(TruncatedSeries, "__init__", recording_init)
    for s in rep.strata:
        # a task starts from its parent's family and base assumptions
        phi, base = rep.family.phi, list(rep.family.base_nonzero)
        for name, expr in s.substitutions[:-1]:
            phi, base = _apply_substitution(phi, base, name, expr)
        task = _Task(list(s.substitutions), list(s.equalities), list(s.nonzero),
                     phi, base)
        splits, (lam, _minimal, _nonzero) = _run_once(rep.family, task, {})
        assert splits == () and lam == s.lambda_set
    assert built
    for series in built:
        assert type(series.den) is int and series.den > 0
        for c in series.coeffs:
            assert type(c) is int or (isinstance(c, Poly) and not c.is_constant()
                                      and all(type(v) is int for v in c.terms.values()))
    assert any(series.den > 1 for series in built)


# The fixed <10,15,33> frontier branch: y(t) = sum c t^e over these terms.
FRONTIER_10_15_33 = BranchParametrization.plane(10, {e: Fraction(c) for e, c in (
    (15, "5"), (18, "3"), (19, "3"), (25, "-4/3"), (30, "-1/2"), (31, "-1/3"),
    (33, "2"), (34, "4/3"), (35, "-3"), (39, "3/2"), (40, "-2"), (41, "2/3"),
    (43, "1"), (48, "-1"), (51, "-3"), (55, "-1/2"), (66, "1/2"), (69, "-1/2"),
    (74, "-1/2"), (76, "-2"), (78, "-1/3"), (81, "-2"), (84, "1"), (86, "3"),
    (87, "-3/2"), (89, "4/3"), (90, "-2/3"), (93, "2"), (98, "-4"), (104, "2"),
    (106, "-1/3"), (108, "1/3"), (109, "2/3"), (111, "1"), (112, "1"),
    (115, "-1/3"), (116, "2"), (118, "1/2"), (120, "-2"), (121, "-4/3"),
    (123, "-1"), (125, "-1/3"), (129, "3/2"), (132, "1"), (133, "-3"),
    (137, "-3/2"), (138, "1"))})


def test_no_series_product_has_a_unit_factor(monkeypatch):
    # Powers start from the element and an empty product names the entry
    # itself, so no series product of a concrete or a parametric run only
    # copies its other factor.
    products = []
    mul = TruncatedSeries.__mul__

    def spy_mul(self, other):
        products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", spy_mul)
    algorithm1_lambda(FRONTIER_10_15_33)
    stratify(NumericalSemigroup((6, 9, 19)))
    assert products
    for factors in products:
        assert all(any(s.coeffs[1:]) for s in factors)


def _stop_branches():
    rng = random.Random("stop at the conductor of Lambda")
    for gens in [(6, 9, 19), (7, 9), (6, 13), (8, 12, 26, 53)]:
        for _ in range(2):
            yield random_branch(gens, rng)
    yield FRONTIER_10_15_33


@pytest.mark.parametrize("phi", list(_stop_branches()))
def test_a_run_stops_where_every_later_s_process_is_discarded(phi):
    # A finished run's stop is the highest value below mu that its Lambda
    # lacks.  Every value above it has a reducer, so each minimal S-process
    # of the final entries with m >= stop, reduced up to the full bound
    # mu - 1, ends discarded: a run that ends at stop loses no entry.  The
    # run's own series end at stop + 1, so the late reductions go over
    # each entry's pullback rebuilt at full length from its 1-form.
    sb = standard_basis_of_ring(phi)
    gens, mu = sb.gamma.generators, sb.gamma.conductor
    run = forms._Completion(sb)
    entries = run.run()
    stop = max(z for z in range(1, mu) if run.of(z) is None)
    assert run.stop == stop
    assert all(run.of(z) is not None for z in range(stop + 1, mu))
    coords = phi.series(default_precision(sb.gamma))
    full = [dataclasses.replace(e, pull=pullback_form(e.form, coords)) for e in entries]
    assert all(_cut(f.pull, e.pull.precision) == e.pull for e, f in zip(entries, full))
    run = forms._Completion(sb)
    run.entries[:], run.stop = full, mu - 1
    late = 0
    for p, q in itertools.combinations(range(len(entries)), 2):
        for alpha, gamma_v, m in minimal_s_processes(
                entries[p].value, entries[q].value, gens, mu - 2):
            if m >= stop:
                sp, sq = run.pull(alpha, p), run.pull(gamma_v, q)
                s = forms._cancel(sp, sq, m - 1, cross=True)
                assert forms.reduce_form(s, None, run) is None
                late += 1
    assert late


def test_a_run_builds_its_multiples_at_its_own_length(monkeypatch):
    # Every multiple a run builds has at most stop + 1 positions at that
    # moment, concrete or parametric, so it is cut below the length
    # default_precision(Gamma) - 1 of a differential's pullback as soon as
    # stop falls: the frontier run ends at 73 of 137.
    seen = []
    pull = forms._Completion.pull

    def spy_pull(self, s, i):
        out = pull(self, s, i)
        seen.append((out.precision, self.stop + 1,
                     default_precision(self.gamma) - 1, out.ring is not None))
        return out

    monkeypatch.setattr(forms._Completion, "pull", spy_pull)
    algorithm1_lambda(FRONTIER_10_15_33)
    assert seen[-1] == (73, 73, 137, False)
    stratify(NumericalSemigroup((6, 9, 19)))
    assert all(p <= n for p, n, _full, _parametric in seen)
    assert any(parametric and p < full for p, _n, full, parametric in seen)


def test_frontier_run_reduce_count(monkeypatch):
    # One concrete run of the fixed <10,15,33> branch reduces 14
    # S-processes and keeps 3.  Its Lambda is cofinal from 73, so the run
    # stops far below the bound mu - 1 = 137, to which it would make 62.
    calls = []
    reduce_form = forms.reduce_form

    def spy_reduce(*args):
        result = reduce_form(*args)
        calls.append(result is not None)
        return result

    monkeypatch.setattr(forms, "reduce_form", spy_reduce)
    basis = algorithm1_lambda(FRONTIER_10_15_33)
    assert (len(calls), sum(calls)) == (14, 3)
    assert basis.lambda_set.cofinal == 73
    assert [e.value for e in basis.entries] == [10, 15, 33, 28, 44, 49]
