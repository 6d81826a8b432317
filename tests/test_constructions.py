"""Tests for the specific module builders and parametric machinery."""

from __future__ import annotations

import math

import pytest

from nullcone_lab.constructions import (
    DEFAULT_GA2_SAMPLES,
    ParametricAction,
    binomial_mod_p,
    cyclic_group,
    ga2_example,
    gl2_test_module,
    gn_module,
    multiplicative_generator,
    sampled_fixed_space,
    subfield_sum_basis,
    torus_module,
    va_joint_group,
    va_module,
    va_translation_matrix,
    vandermonde_regular_check,
)
from nullcone_lab.errors import DimensionMismatch, SingularSpecialization, WeightCollision
from nullcone_lab.fields import FieldCtx, ff_make, frobenius
from nullcone_lab.groups import MatrixGroup
from nullcone_lab.invariants import check_generation, epsilon, invariant_space, weight_invariant_monomials
from nullcone_lab.poly import Polynomial, poly_parse


# -- translation groups ---------------------------------------------------------

def test_gn_module_orders():
    assert gn_module(2, 1)[0].order == 2
    g22, _ = gn_module(2, 2)
    assert g22.order == 4
    assert all(g22.mul(i, i) == g22.identity_index for i in range(1, 4))


def test_gn_translations_add():
    group, _ = gn_module(3, 1)
    # u_s * u_t = u_{s+t}: entry (0,1) of products adds
    for i in range(3):
        for j in range(3):
            s = group.elements[i][0, 1]
            t = group.elements[j][0, 1]
            assert group.elements[group.mul(i, j)][0, 1] == s + t


# -- regular representation certification --------------------------------------------

@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (2, 4),
                                 (3, 1), (3, 2), (5, 1), (5, 2)])
def test_vandermonde_regular_check_all_desk_sizes(p, n):
    report = vandermonde_regular_check(p, n)
    assert report.passed, report.to_dict()


def test_vandermonde_matrix_2_1():
    # A = [[1,1],[0,1]] over F_2 (columns (Y+tX)^1 at t = 0, 1): det = 1
    report = vandermonde_regular_check(2, 1)
    assert report.nonsingular and report.coefficient_pattern_ok


# -- binomial residues ---------------------------------------------------------------

def test_binomial_examples():
    assert binomial_mod_p(2, 1, 1) == 1
    assert binomial_mod_p(3, 2, 1) == 2
    assert binomial_mod_p(2, 7, 3) == math.comb(7, 3) % 2 == 1


def test_binomial_alternating_signs_exhaustive():
    for p in (2, 3, 5):
        n = 1
        while p**n <= 125:
            big = p**n - 1
            for k in range(big + 1):
                assert binomial_mod_p(p, big, k) == (-1) ** k % p
            n += 1


def test_binomial_bad_range():
    with pytest.raises(DimensionMismatch):
        binomial_mod_p(2, 3, 5)


# -- twisted translation modules --------------------------------------------------------

def test_va_module_order():
    assert va_module(2, 1, 2).group.order == 4


def test_va_action_matches_displayed_substitution():
    # t*f(x0,x1,x2) = f(x0, x1 + t x0, x2 + t^(p^n) x0)
    vm = va_module(2, 1, 3)
    ctx = vm.ctx
    f = poly_parse(ctx, 3, "x1*x2")
    for g in range(vm.group.order):
        t = -vm.group.elements[g][1, 0]
        x0 = Polynomial.variable(ctx, 3, 0)
        x1 = Polynomial.variable(ctx, 3, 1)
        x2 = Polynomial.variable(ctx, 3, 2)
        expected = (x1 + x0.scale(t)) * (x2 + x0.scale(t**2))
        assert vm.rep.act_on_poly(g, f) == expected


def test_va_translations_add():
    vm = va_module(3, 1, 1)
    for i in range(3):
        for j in range(3):
            s = vm.group.elements[i][1, 0]
            t = vm.group.elements[j][1, 0]
            assert vm.group.elements[vm.group.mul(i, j)][1, 0] == s + t


def test_va_candidates_invariant_under_every_element():
    vm = va_module(2, 1, 3)
    for f in vm.candidates:
        for g in range(vm.group.order):
            assert vm.rep.act_on_poly(g, f) == f


def test_va_parametric_invariance():
    for p, n in ((2, 1), (3, 1), (2, 2)):
        vm = va_module(p, n, 1)
        from nullcone_lab.constructions import va_candidates
        for f in va_candidates(p, n, ff_make(p)):
            assert vm.parametric.is_invariant(f)


def test_va_parametric_rejects_non_invariant():
    vm = va_module(2, 1, 1)
    x1 = Polynomial.variable(ff_make(2), 3, 1)
    assert not vm.parametric.is_invariant(x1)


def test_va_twist_is_read_mod_m_and_its_polynomials_wait_to_be_read():
    """Frobenius has order m on F_(p^m), so twist n and n + m give the same
    matrices, and a huge n costs nothing until the degree-p^n candidates or
    parametric action are read."""
    assert va_module(2, 1, 2).group.elements == va_module(2, 3, 2).group.elements
    assert va_module(3, 0, 1).group.elements == va_module(3, 10**8, 1).group.elements
    vm = va_module(2, 10**8, 1)
    assert "candidates" not in vars(vm) and "parametric" not in vars(vm)
    small = va_module(2, 1, 2)
    assert [str(f) for f in small.candidates] == ["x0", "x0*x2 + x1^2"]
    assert small.candidates is small.candidates


def _subfield_elements(ctx, degree):
    """Elements of the degree-`degree` subfield: fixed points of frobenius^degree."""
    return [a for a in ctx.enumerate() if frobenius(a, degree) == a]


def _additive_span(elements, ctx):
    """The F_p-span of `elements`: in characteristic p, their closure under +."""
    span = {ctx.zero}
    for a in elements:
        for _ in range(ctx.p - 1):
            span |= {s + a for s in span}
    return span


def _is_irredundant(gens):
    """No generator lies in the group the others generate."""
    for k, g in enumerate(gens):
        others = gens[:k] + gens[k + 1:]
        if g.is_identity() or (others and g.rows in MatrixGroup.closure(others).index):
            return False
    return True


SUITE_LEVELS = [(2, 1), (3, 1), (2, 2)]  # (p, n) of the va-ring suite cases


def test_subfield_oracle_sizes():
    f64 = ff_make(2, 6)
    assert [len(_subfield_elements(f64, l)) for l in (1, 2, 3, 6)] == [2, 4, 8, 64]


@pytest.mark.parametrize("p,n", SUITE_LEVELS)
def test_va_joint_group_has_one_generator_per_basis_vector(p, n):
    l1, l2 = n + 1, n + 2
    group, _ = va_joint_group(p, n, (l1, l2))
    assert len(group.generators) == l1 + l2 - math.gcd(l1, l2)


@pytest.mark.parametrize("p,levels", [(2, (2, 3)), (3, (2, 3)), (2, (3, 4)),
                                      (2, (1, 1)), (3, (1, 2))])
def test_va_joint_translations_are_the_span_of_both_subfields(p, levels):
    group, _ = va_joint_group(p, 1, levels)
    big = group.ctx
    ts = {-g[1, 0] for g in group.elements}
    both = [a for level in levels for a in _subfield_elements(big, level)]
    assert ts == _additive_span(both, big)
    basis = subfield_sum_basis(big, levels)
    assert _additive_span(basis, big) == ts and len(basis) == len(group.generators)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1)])
def test_va_joint_invariants_match_the_redundant_generator_list(p, n):
    """The group once built from every nonzero element of both subfields
    has the same invariant spaces as the one built from a basis."""
    group, rep = va_joint_group(p, n, (n + 1, n + 2))
    big = group.ctx
    ts = {a for level in (n + 1, n + 2) for a in _subfield_elements(big, level)
          if not a.is_zero()}
    old = MatrixGroup.closure([va_translation_matrix(big, t, p**n)
                               for t in sorted(ts, key=lambda a: a.val)])
    assert len(old.generators) > len(group.generators)
    assert {m.rows for m in old.elements} == {m.rows for m in group.elements}
    old_rep = old.natural_rep()
    for d in range(1, p**n + 3):
        assert ([str(f) for f in invariant_space(old_rep, d).basis]
                == [str(f) for f in invariant_space(rep, d).basis])


def test_va_joint_group_large_field_builds_without_enumeration():
    group, _ = va_joint_group(2, 3, (4, 5))
    assert group.order == 256 and len(group.generators) == 8


@pytest.mark.parametrize("build", [
    lambda: gn_module(2, 1)[0], lambda: gn_module(2, 3)[0], lambda: gn_module(3, 2)[0],
    lambda: va_module(2, 1, 3).group, lambda: va_module(3, 2, 2).group,
    lambda: torus_module(7, 1, 2).group, lambda: torus_module(31, 2, 3).group,
    lambda: cyclic_group(ff_make(2), 4), lambda: cyclic_group(ff_make(3), 3),
] + [lambda p=p, n=n: va_joint_group(p, n, (n + 1, n + 2))[0]
      for p, n in SUITE_LEVELS],
    ids=["gn-2-1", "gn-2-3", "gn-3-2", "va-2-1-3", "va-3-2-2", "torus-7-1-2",
         "torus-31-2-3", "cyclic-2-4", "cyclic-3-3"]
    + [f"joint-{p}-{n}" for p, n in SUITE_LEVELS])
def test_builders_pass_irredundant_generators(build):
    """Every builder that the CLI and the suites use passes a generator
    list with no redundant member.  (The trivial group of `cyclic:k=1`
    keeps its lone identity generator, as closure needs one.)"""
    assert _is_irredundant(build().generators)


def test_va_joint_group_order():
    group, _ = va_joint_group(2, 1, (2, 3))
    assert group.order == 2 ** (2 + 3 - 1) == 16


def test_va_joint_group_generation_certificate():
    """Joint level (n+1, n+2) pins the parametric invariants degreewise,
    while the single level n+1 admits Frobenius-wrap extras."""
    p, n = 2, 1
    group, rep = va_joint_group(p, n, (n + 1, n + 2))
    from nullcone_lab.constructions import va_candidates
    cands = va_candidates(p, n, group.ctx)
    cert = check_generation(cands, rep, p**n + 2, parametric_witness=None)
    assert cert.all_equal
    assert [v.candidate_dim for v in cert.verdicts] == [1, 2, 2, 3]
    # contrast: level n+1 alone is strictly larger at degree 2
    single = va_module(p, n, n + 1)
    cert_single = check_generation(va_candidates(p, n, single.ctx),
                                   single.rep, 2)
    assert not cert_single.verdicts[1].equal


# -- endomorphism module -------------------------------------------------------------------

def test_gl2_module_dimensions():
    m = gl2_test_module(2, 1)
    assert m.dim == 4
    assert m.rep.matrices[0].is_identity()
    m31 = gl2_test_module(3, 1)
    assert m31.dim == 9


def test_gl2_identity_is_fixed():
    m = gl2_test_module(2, 1)
    for g in range(m.group.order):
        assert m.rep.matrices[g].apply(m.identity_point) == m.identity_point


def test_gl2_epsilon_small():
    m = gl2_test_module(2, 1)
    assert epsilon(m.rep, m.identity_point, 3).value == 2


# -- torus modules ----------------------------------------------------------------------------

def test_multiplicative_generator():
    f7 = ff_make(7)
    g = multiplicative_generator(f7)
    assert g.val == 3  # 3 is the least primitive root mod 7
    powers = {(g**k).val for k in range(6)}
    assert len(powers) == 6


def test_prime_power_matches_a_full_factorisation():
    from nullcone_lab.constructions import _prime_power
    from nullcone_lab.errors import NotPrime
    for q in range(2, 1000):
        factors = {d for d in range(2, q + 1) if q % d == 0 and
                   all(d % f for f in range(2, math.isqrt(d) + 1))}
        if len(factors) == 1:
            p = factors.pop()
            assert _prime_power(q) == (p, round(math.log(q, p)))
        else:
            with pytest.raises(NotPrime):
                _prime_power(q)
    assert _prime_power(2**61 - 1) == (2**61 - 1, 1)


def test_torus_epsilon_is_m_plus_one():
    tm = torus_module(7, 1, 2)
    report = epsilon(tm.rep, tm.point, tm.m + 1)
    assert report.value == tm.m + 1 == 3
    assert tm.witness.evaluate(tm.point) == tm.ctx.one
    assert tm.witness.degree() == tm.m + 1


def test_torus_witness_weight_zero():
    tm = torus_module(31, 2, 3)
    w = sum(wi * ei for wi, ei in zip(tm.weights, (tm.m, 1)))
    assert w == 0


def test_torus_weight_emptiness_below_m_plus_one():
    for (q, r, m) in ((7, 1, 2), (31, 1, 3), (31, 2, 3), (31, 1, 5)):
        tm = torus_module(q, r, m)
        for d in range(1, m + 1):
            assert weight_invariant_monomials(tm.weights, d) == []
            assert weight_invariant_monomials(tm.weights, d, tm.modulus) == []


def test_torus_weight_collision_guard():
    with pytest.raises(WeightCollision):
        torus_module(7, 1, 3)  # 1*9 >= 6
    with pytest.raises(WeightCollision):
        torus_module(7, 0, 2)


def test_torus_modular_matches_exact_under_strong_bound():
    # when |r|*m*(m+1) < q-1 the coincidence extends through degree m+1
    for (q, r, m) in ((31, 1, 3), (31, 2, 3)):
        tm = torus_module(q, r, m)
        for d in range(1, m + 2):
            exact = weight_invariant_monomials(tm.weights, d)
            modular = weight_invariant_monomials(tm.weights, d, tm.modulus)
            assert exact == modular
    # at (7,1,2) the weight of Z^3 is 6 = q-1: the modular set gains it
    tm = torus_module(7, 1, 2)
    exact = weight_invariant_monomials(tm.weights, 3)
    modular = weight_invariant_monomials(tm.weights, 3, tm.modulus)
    assert [str(x) for x in exact] == ["x0^2*x1"]
    assert [str(x) for x in modular] == ["x0^2*x1", "x1^3"]


def test_torus_invariant_space_matches_weight_monomials():
    tm = torus_module(7, 1, 2)
    for d in (1, 2, 3):
        space = invariant_space(tm.rep, d)
        weighted = weight_invariant_monomials(tm.weights, d, tm.modulus)
        assert space.dim == len(weighted)


# -- the rational two-parameter example ----------------------------------------------------------

def test_ga2_specialization_at_origin_is_identity():
    ex = ga2_example()
    qq = ex.ctx
    assert ex.action.specialize([qq.zero, qq.zero]).is_identity()


def test_ga2_candidates_parametric():
    ex = ga2_example()
    assert ex.action.is_invariant(ex.candidates[0])  # x0
    assert ex.action.is_invariant(ex.candidates[1])  # the cubic
    assert not ex.action.is_invariant(poly_parse(ex.ctx, 4, "x1"))


def test_ga2_constant_is_invariant():
    ex = ga2_example()
    assert ex.action.is_invariant(Polynomial.one(ex.ctx, 4))


def test_ga2_h_invariants():
    ex = ga2_example()
    for f in ex.h_invariants:
        assert ex.h_action.is_invariant(f)
    assert not ex.h_action.is_invariant(poly_parse(ex.ctx, 4, "x2"))


def test_ga2_witness_value():
    ex = ga2_example()
    assert ex.candidates[1].evaluate(ex.point) == ex.ctx.one


def test_ga2_group_law():
    # the parametric matrices compose additively in the parameters
    ex = ga2_example()
    qq = ex.ctx
    a = ex.action.specialize([qq.scalar(1), qq.scalar(2)])
    b = ex.action.specialize([qq.scalar(3), qq.scalar(-1)])
    assert a * b == ex.action.specialize([qq.scalar(4), qq.scalar(1)])


# -- sampled fixed spaces ----------------------------------------------------------------------

def test_sampled_fixed_space_degree_one():
    ex = ga2_example()
    basis = sampled_fixed_space(ex.action, DEFAULT_GA2_SAMPLES, 1)
    assert [str(f) for f in basis] == ["x0"]


def test_sampled_fixed_space_contains_parametric_invariants():
    ex = ga2_example()
    for d in (1, 2, 3):
        basis = sampled_fixed_space(ex.action, DEFAULT_GA2_SAMPLES, d)
        span_texts = {str(f) for f in basis}
        for cand in ex.candidates:
            if cand.degree() == d:
                assert str(cand) in span_texts or _in_span(cand, basis)


def _in_span(f, basis):
    from nullcone_lab.linalg import rank
    d = f.degree()
    vecs = [g.coeff_vector(d) for g in basis]
    n = len(f.coeff_vector(d))
    return rank(vecs + [f.coeff_vector(d)], n, f.ctx) == rank(vecs, n, f.ctx)


def test_sampled_fixed_space_monotone_in_samples():
    ex = ga2_example()
    small = sampled_fixed_space(ex.action, DEFAULT_GA2_SAMPLES[:2], 2)
    full = sampled_fixed_space(ex.action, DEFAULT_GA2_SAMPLES, 2)
    assert len(full) <= len(small)
    for f in full:
        assert _in_span(f, small)


def test_sampled_fixed_space_empty_samples_gives_everything():
    ex = ga2_example()
    basis = sampled_fixed_space(ex.action, [], 1)
    assert len(basis) == 4


def test_sampled_fixed_space_vanishes_at_witness_point():
    ex = ga2_example()
    for d in (1, 2):
        for f in sampled_fixed_space(ex.action, DEFAULT_GA2_SAMPLES, d):
            assert f.evaluate(ex.point).is_zero()


def test_parametric_action_rejects_wrong_inverse():
    qq = FieldCtx.rationals()
    one = Polynomial.one(qq, 1)
    zero = Polynomial.zero(qq, 1)
    t = Polynomial.variable(qq, 1, 0)
    with pytest.raises(SingularSpecialization):
        ParametricAction(qq, 2, 1, [[one, t], [zero, one]],
                         [[one, t], [zero, one]])
