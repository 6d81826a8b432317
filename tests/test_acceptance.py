"""Acceptance gate: every exit criterion runs at its stated (exact)
tolerance and prints one pass/fail line with its wall-clock time.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each test also enforces its time budget.
"""

from __future__ import annotations

import time

import pytest

from nullcone_lab.constructions import (
    DEFAULT_GA2_SAMPLES,
    binomial_mod_p,
    ga2_example,
    gl2_test_module,
    sampled_fixed_space,
    torus_module,
    va_candidates,
    va_joint_group,
    va_module,
    vandermonde_regular_check,
)
from nullcone_lab.errors import CharDividesDegree
from nullcone_lab.fields import ff_make
from nullcone_lab.groups import MatrixGroup, regular_rep
from nullcone_lab.invariants import (
    check_generation,
    degree_reduce,
    delta_bounded,
    epsilon,
    invariant_space,
    sigma_bounded,
    weight_invariant_monomials,
)
from nullcone_lab.linalg import Matrix
from nullcone_lab.poly import poly_parse
from nullcone_lab.suites import run_suite

from . import test_properties as props


class _Criterion:
    def __init__(self, number: int, label: str, budget_s: float):
        self.number = number
        self.label = label
        self.budget_s = budget_s
        self.start = time.monotonic()

    def finish(self):
        elapsed = time.monotonic() - self.start
        print(f"criterion {self.number:2d} PASS  [{elapsed:7.2f}s / "
              f"{self.budget_s:.0f}s]  {self.label}")
        assert elapsed < self.budget_s, (
            f"criterion {self.number} exceeded its {self.budget_s}s budget")


def test_criterion_01_binomial_lemma():
    c = _Criterion(1, "alternating binomial residues, p^n <= 125", 1.0)
    for p in (2, 3, 5):
        n = 1
        while p**n <= 125:
            big = p**n - 1
            for k in range(big + 1):
                assert binomial_mod_p(p, big, k) == (-1) ** k % p
            n += 1
    c.finish()


def test_criterion_02_regular_representation():
    c = _Criterion(2, "Vandermonde orbit basis certifies the regular module, "
                      "p^n <= 25", 10.0)
    for p in (2, 3, 5):
        n = 1
        while p**n <= 25:
            report = vandermonde_regular_check(p, n)
            assert report.passed, (p, n, report.to_dict())
            assert report.nonsingular and report.free and report.transitive
            n += 1
    c.finish()


def test_criterion_03_epsilon_free():
    c = _Criterion(3, "epsilon = |G| at every nonzero fixed point of the "
                      "regular module", 30.0)
    report = run_suite("epsilon-free")
    assert report.passed, report.format_table()
    # exhaustiveness: each claim covered all p-1 nonzero fixed points
    for claim in report.claims:
        assert claim.computed == claim.expected
    c.finish()


@pytest.mark.parametrize("p,n,budget", [(2, 1, 30.0), (3, 1, 30.0),
                                        (2, 2, 600.0)])
def test_criterion_04_gl2_lower_bound(p, n, budget):
    c = _Criterion(4, f"epsilon(U_{n}, id) = {p**n} on the endomorphism "
                      f"module, (p,n)=({p},{n})", budget)
    q = p**n
    module = gl2_test_module(p, n)
    report = epsilon(module.rep, module.identity_point, q)
    assert report.value == q
    for d in range(1, q):
        assert all(f.evaluate(module.identity_point).is_zero()
                   for f in invariant_space(module.rep, d).basis)
    c.finish()


def test_criterion_05_va_invariant_ring():
    c = _Criterion(5, "twisted module: parametric generators, sandwich "
                      "certification, delta = sigma = p^n", 300.0)
    for p, n in ((2, 1), (3, 1), (2, 2)):
        q = p**n
        prime = ff_make(p)
        parametric = va_module(p, n, 1).parametric
        cands = va_candidates(p, n, prime)
        assert all(parametric.is_invariant(f) for f in cands)
        _, joint_rep = va_joint_group(p, n, (n + 1, n + 2))
        cert = check_generation(cands, joint_rep, q + 2)
        assert cert.all_equal
        stage = va_module(p, n, n + 1)
        delta = delta_bounded(stage.rep, q, stage.ctx,
                              declared_generators=stage.candidates)
        sigma = sigma_bounded(stage.rep, q, stage.ctx,
                              declared_generators=stage.candidates)
        assert delta.value == q and delta.certified_complete is True
        assert sigma.value == q and sigma.certified_complete is True
    c.finish()


def test_criterion_06_torus_sigma_construction():
    c = _Criterion(6, "epsilon(T, v0 + y0^m) = m+1 with weight emptiness "
                      "below m+1", 10.0)
    for (q, r, m) in ((7, 1, 2), (31, 1, 3), (31, 2, 3), (31, 1, 5)):
        tm = torus_module(q, r, m)
        assert epsilon(tm.rep, tm.point, m + 1).value == m + 1
        for d in range(1, m + 1):
            assert weight_invariant_monomials(tm.weights, d) == []
            assert weight_invariant_monomials(tm.weights, d, tm.modulus) == []
    c.finish()


def test_criterion_07_degree_reduction():
    c = _Criterion(7, "constructive degree reduction to a verified linear "
                      "invariant; divisibility failure detected", 1.0)
    report = run_suite("nagata-miyata")
    assert report.passed, report.format_table()
    # the suite carries 5 instances (3 over Q, 2 over F_p with p not dividing d)
    assert sum(1 for cl in report.claims if cl.claim_id.startswith("nagata-")
               and "char" not in cl.claim_id) >= 5
    f2 = ff_make(2)
    trivial = MatrixGroup.closure([Matrix.identity(f2, 2)]).natural_rep()
    with pytest.raises(CharDividesDegree):
        degree_reduce(trivial, poly_parse(f2, 2, "x0^2"), [f2.one, f2.zero])
    c.finish()


def test_criterion_08_two_parameter_example():
    c = _Criterion(8, "two-parameter rational action: sigma value 3 at "
                      "(0,1,0,0)", 10.0)
    ex = ga2_example()
    for f in ex.candidates:
        assert ex.action.is_invariant(f)
    for f in ex.h_invariants:
        assert ex.h_action.is_invariant(f)
    for d in (1, 2):
        for f in sampled_fixed_space(ex.action, DEFAULT_GA2_SAMPLES, d):
            assert f.evaluate(ex.point).is_zero()
    witness = ex.candidates[1]
    assert witness.degree() == 3
    assert witness.evaluate(ex.point) == ex.ctx.one
    c.finish()


def test_criterion_09_normal_subgroup_inequality():
    c = _Criterion(9, "delta(Z4) = 4 and delta(Z2 restriction) = 2, so "
                      "4 <= 2 * 2 with both sides computed", 30.0)
    f2 = ff_make(2)
    rows = [[f2.one if i == (j + 1) % 4 else f2.zero for j in range(4)]
            for i in range(4)]
    z4 = MatrixGroup.closure([Matrix(f2, rows)])
    reg = regular_rep(z4)
    delta_g = delta_bounded(reg, 4, f2).value
    z2 = z4.subgroup([z4.elements[z4.mul(1, 1)]])
    delta_n = delta_bounded(reg.restrict(z2), 4, f2).value
    assert delta_g == 4
    assert delta_n == 2
    assert delta_g <= delta_n * 2
    c.finish()


def test_criterion_10_property_suites():
    c = _Criterion(10, "action laws, orbit-sum spanning, fast/slow epsilon "
                       "agreement, subgroup monotonicity, determinism", 120.0)
    props.test_epsilon_fast_slow_agreement_on_free_modules()
    props.test_epsilon_subgroup_monotonicity_va()
    props.test_epsilon_subgroup_monotonicity_z2_in_z4()
    props.test_fixed_point_evaluation_law()
    props.test_delta_report_byte_determinism()
    props.test_invariant_space_basis_canonical_across_generator_order()
    props.test_normal_subgroup_inequality_instance()
    props.test_orbit_sums_span_invariants(
        lambda: props.cyclic_group(ff_make(2), 4), 2)
    props.test_orbit_sums_span_invariants(
        lambda: props.klein_group(ff_make(2)), 2)
    c.finish()
