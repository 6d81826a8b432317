"""Tests for the invariant-space and separation engines."""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from nullcone_lab.errors import (
    CharDividesDegree,
    CharDividesOrder,
    NotFixedPoint,
    NotInvariantCandidate,
    NotInvariantGenerator,
    NotPermutationAction,
    TooManyColumns,
    TooManyPoints,
    VanishesAtPoint,
)
from nullcone_lab.constructions import gl2_test_module
from nullcone_lab.fields import FieldCtx, ff_enumerate, ff_make
from nullcone_lab.groups import MatrixGroup, Representation, regular_rep
from nullcone_lab.invariants import (
    _fast_path_epsilon,
    _orbit_product_invariant,
    check_generation,
    degree_reduce,
    delta_bounded,
    epsilon,
    fixed_point_space,
    invariant_space,
    nullcone_status,
    orbit_sum,
    orbit_sums_vanish,
    reynolds,
    sigma_bounded,
    weight_invariant_monomials,
)
from nullcone_lab.linalg import Matrix
from nullcone_lab.poly import Monomial, Polynomial, mono_basis, poly_parse

SRC = Path(__file__).resolve().parent.parent / "src"


def P(ctx, nvars, text):
    return poly_parse(ctx, nvars, text)


def swap_group(ctx):
    return MatrixGroup.closure([Matrix.from_ints(ctx, [[0, 1], [1, 0]])])


def cyclic_group(ctx, k):
    rows = [[ctx.one if i == (j + 1) % k else ctx.zero for j in range(k)]
            for i in range(k)]
    return MatrixGroup.closure([Matrix(ctx, rows)])


def trivial_group(ctx, dim):
    return MatrixGroup.closure([Matrix.identity(ctx, dim)])


def va_translation(ctx, t, twist):
    """u_t on the 3-dim module: x1 gains t*x0 and x2 gains t^twist*x0."""
    z, o = ctx.zero, ctx.one
    return Matrix(ctx, [[o, z, z], [-t, o, z], [-(t**twist), z, o]])


def u1_va_rep(pointfield=None):
    f2 = ff_make(2)
    rep = MatrixGroup.closure([va_translation(f2, f2.one, 2)]).natural_rep()
    return rep.lift(pointfield) if pointfield else rep


def u2_va_rep():
    f4 = ff_make(2, 2)
    gens = [va_translation(f4, f4.one, 2), va_translation(f4, f4.generator(), 2)]
    return MatrixGroup.closure(gens).natural_rep()


# -- invariant spaces -----------------------------------------------------------

def test_invariant_space_trivial_group():
    f2 = ff_make(2)
    space = invariant_space(trivial_group(f2, 2).natural_rep(), 1)
    assert space.dim == 2


def test_cached_spaces_and_permutation_basis_form_no_reference_cycle():
    # a cycle would keep every representation and its cached spaces alive
    # until a full collection, which sets the run's peak memory
    f2 = ff_make(2)
    rep = regular_rep(cyclic_group(f2, 4))
    invariant_space(rep, 2)
    assert rep.permutation_basis() is not None
    ref = weakref.ref(rep)
    gc.disable()
    try:
        del rep
        assert ref() is None
        # a generation check leaves no cyclic garbage behind either
        rep = regular_rep(cyclic_group(f2, 4))
        gc.collect()
        cert = check_generation([P(f2, 4, "x0 + x1 + x2 + x3"),
                                 P(f2, 4, "x0*x2 + x1*x3")], rep, 3)
        assert [v.candidate_dim for v in cert.verdicts] == [1, 2, 2]
        del rep, cert
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_invariant_space_swap_degree_two():
    f2 = ff_make(2)
    space = invariant_space(swap_group(f2).natural_rep(), 2)
    assert [str(f) for f in space.basis] == ["x0^2 + x1^2", "x0*x1"]


def test_invariant_space_unipotent_degree_one():
    # u_t = [[1,t],[0,1]] fixes X = e0; the invariant coordinate is x1
    f2 = ff_make(2)
    g = MatrixGroup.closure([Matrix.from_ints(f2, [[1, 1], [0, 1]])])
    space = invariant_space(g.natural_rep(), 1)
    assert [str(f) for f in space.basis] == ["x1"]


def test_invariant_space_shear_degree_two():
    # order-2 shear over F_2: derived kernel is {x0^2 + x0*x1, x1^2}
    f2 = ff_make(2)
    g = MatrixGroup.closure([Matrix.from_ints(f2, [[1, 1], [0, 1]])])
    space = invariant_space(g.natural_rep(), 2)
    assert [str(f) for f in space.basis] == ["x0^2 + x0*x1", "x1^2"]


def test_invariant_space_basis_is_invariant():
    f4 = ff_make(2, 2)
    rep = u2_va_rep()
    for d in (1, 2, 3):
        for f in invariant_space(rep, d).basis:
            for g in range(rep.group.order):
                assert rep.act_on_poly(g, f) == f


def test_u2_degree_two_space_shows_frobenius_wrap():
    # over F_4 the twist t^4 = t produces the extra invariant x0*x1 + x2^2,
    # beyond the parametric invariants span{x0^2, x0*x2 + x1^2}
    space = invariant_space(u2_va_rep(), 2)
    assert space.dim == 3
    texts = [str(f) for f in space.basis]
    assert "x0*x1 + x2^2" in texts


# -- orbit sums and reynolds -------------------------------------------------------

def test_orbit_sum_swap():
    f2 = ff_make(2)
    rep = swap_group(f2).natural_rep()
    total, size = orbit_sum(rep, Monomial((1, 0)))
    assert str(total) == "x0 + x1" and size == 2
    total, size = orbit_sum(rep, Monomial((1, 1)))
    assert str(total) == "x0*x1" and size == 1


def test_orbit_sum_three_cycle():
    f2 = ff_make(2)
    rep = cyclic_group(f2, 3).natural_rep()
    total, size = orbit_sum(rep, Monomial((2, 1, 0)))
    assert size == 3
    assert total == P(f2, 3, "x0^2*x1 + x1^2*x2 + x2^2*x0")


def test_orbit_sum_rejects_non_permutation():
    f2 = ff_make(2)
    g = MatrixGroup.closure([Matrix.from_ints(f2, [[1, 1], [0, 1]])])
    with pytest.raises(NotPermutationAction):
        orbit_sum(g.natural_rep(), Monomial((1, 0)))


def test_reynolds_projection():
    qq = FieldCtx.rationals()
    rep = swap_group(qq).natural_rep()
    f = P(qq, 2, "x0")
    avg = reynolds(rep, f)
    assert avg == P(qq, 2, "1/2*x0 + 1/2*x1")
    assert reynolds(rep, avg) == avg  # idempotent on invariants


def test_reynolds_char_divides_order():
    f2 = ff_make(2)
    with pytest.raises(CharDividesOrder):
        reynolds(swap_group(f2).natural_rep(), P(f2, 2, "x0"))


# -- epsilon ---------------------------------------------------------------------

def test_epsilon_z2_regular_fixed_point():
    f2 = ff_make(2)
    rep = regular_rep(cyclic_group(f2, 2))
    report = epsilon(rep, [f2.one, f2.one], 4)
    assert report.value == 2
    assert not report.witness.evaluate([f2.one, f2.one]).is_zero()


def test_epsilon_z2_regular_moving_point():
    f2 = ff_make(2)
    rep = regular_rep(cyclic_group(f2, 2))
    report = epsilon(rep, [f2.one, f2.zero], 4)
    assert report.value == 1
    assert str(report.witness) == "x0 + x1"


def test_epsilon_fast_and_slow_agree_small():
    f3 = ff_make(3)
    rep = regular_rep(cyclic_group(f3, 3))
    v = [f3.one, f3.one, f3.one]
    fast = epsilon(rep, v, 4, use_fast_path=True)
    slow = epsilon(rep, v, 4, use_fast_path=False)
    assert fast.value == slow.value == 3


def test_epsilon_undetermined_in_nullcone():
    # all invariants of the unipotent group vanish on (x0 = x1 = 0) points
    f4 = ff_make(2, 2)
    rep = u2_va_rep()
    report = epsilon(rep, [f4.zero, f4.zero, f4.zero], 3)
    assert report.value is None
    assert report.to_dict()["value"] == {"undetermined_above": 3}


def test_orbit_product_certificate_on_gl2():
    """The fast path's factor rows pass; a factor from another orbit or a
    factor scaled by z does not, though each tampered set still has size 4."""
    module = gl2_test_module(2, 2)
    rep = module.rep
    degree, witness, forms = _fast_path_epsilon(rep, module.identity_point)
    assert degree == len(forms) == 4
    assert _orbit_product_invariant(rep, forms)
    pb = rep.permutation_basis()
    chosen = pb.basis_inverse.rows.index(forms[0])
    other = next(s for s in pb.orbit_slices if chosen not in s)
    assert not _orbit_product_invariant(
        rep, forms[:-1] + [pb.basis_inverse.rows[other[0]]])
    z = rep.ctx.generator()
    assert not _orbit_product_invariant(
        rep, [[z * s for s in forms[0]]] + forms[1:])


def test_invariant_space_refuses_columns_above_the_cap(monkeypatch):
    from nullcone_lab import invariants

    def no_rows(*args, **kwargs):
        raise AssertionError("constraint rows built before the refusal")
    rep = trivial_group(ff_make(2), 3).natural_rep()
    monkeypatch.setattr(invariants, "COLUMN_CAP", 14)
    monkeypatch.setattr(invariants, "substitution_constraint_rows", no_rows)
    with pytest.raises(TooManyColumns, match="degree 4 in 3 variables has 15"):
        invariant_space(rep, 4)


def test_fast_path_refuses_degree_below_the_value_before_building(monkeypatch):
    """epsilon = 4 on gl2:p=2,n=2 needs degrees 1-3; degree 3 has 816
    columns, so a cap of 815 refuses before degree 1 is built, and the
    orbit-sum check refuses before it enumerates a monomial."""
    from nullcone_lab import invariants
    module = gl2_test_module(2, 2)
    rep, v = module.rep, module.identity_point

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the refusal")
    monkeypatch.setattr(invariants, "COLUMN_CAP", 815)
    monkeypatch.setattr(invariants, "substitution_constraint_rows", refuse)
    monkeypatch.setattr(invariants, "_exponent_basis", refuse)
    with pytest.raises(TooManyColumns, match="degree 3 in 16 variables has 816"):
        epsilon(rep, v, 4)
    with pytest.raises(TooManyColumns, match="degree 3 in 16 variables has 816"):
        orbit_sums_vanish(rep, v, 4)
    monkeypatch.undo()
    monkeypatch.setattr(invariants, "COLUMN_CAP", 816)
    assert epsilon(rep, v, 4).value == 4
    assert orbit_sums_vanish(rep, v, 4)


def test_fast_path_certifies_undetermined_points_on_pi():
    """Below the fast path's value, and at a fixed point in the nullcone,
    epsilon is undetermined; pi's spaces certify it and the module's own
    spaces are never built.  The kernel engine on x agrees."""
    module = gl2_test_module(2, 1)
    rep = module.rep
    zero = [rep.ctx.zero] * rep.dim
    for v, dmax in ((module.identity_point, 1), (zero, 3)):
        fast = epsilon(rep, v, dmax)
        assert fast.value is None and fast.witness is None
        assert rep._inv_space_cache == {}
        assert epsilon(rep, v, dmax, use_fast_path=False).to_dict() == fast.to_dict()
        rep._inv_space_cache.clear()
    assert epsilon(rep, module.identity_point, 2).value == 2


def test_fast_path_witness_never_substituted(monkeypatch):
    """The fast path certifies its witness without acting on the polynomial."""
    f4 = ff_make(2, 2)
    rep = regular_rep(cyclic_group(f4, 4))

    def refuse(*args, **kwargs):
        raise AssertionError("polynomial substitution on the fast path")

    monkeypatch.setattr(Representation, "act_on_poly", refuse)
    monkeypatch.setattr(Polynomial, "substitute_linear", refuse)
    report = epsilon(rep, [f4.one] * 4, 4)
    assert report.value == 4
    assert str(report.witness) == "x0*x1*x2*x3"


TAMPERED_FACTOR = """
import sys
from nullcone_lab import invariants
from nullcone_lab.fields import ff_make
from nullcone_lab.groups import MatrixGroup, regular_rep
from nullcone_lab.linalg import Matrix

if __debug__:
    sys.exit("run with python -O")
real = invariants._fast_path_epsilon

def tampered(rep, v):
    degree, witness, forms = real(rep, v)
    z = rep.ctx.generator()
    return degree, witness, [[z * s for s in forms[0]]] + forms[1:]

invariants._fast_path_epsilon = tampered
f4 = ff_make(2, 2)
cycle = Matrix(f4, [[f4.one if i == (j + 1) % 4 else f4.zero for j in range(4)]
                    for i in range(4)])
invariants.epsilon(regular_rep(MatrixGroup.closure([cycle])), [f4.one] * 4, 4)
"""


def test_tampered_fast_path_factor_rejected_under_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-O", "-c", TAMPERED_FACTOR],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "AssertionError: fast-path witness failed its orbit-product certificate" \
        in proc.stderr


# -- delta and sigma ------------------------------------------------------------------

def test_delta_regular_rep_equals_group_order():
    for p in (2, 3):
        fp = ff_make(p)
        rep = regular_rep(cyclic_group(fp, p))
        report = delta_bounded(rep, p, fp)
        assert report.value == p
        assert report.certified_complete is None  # no generators declared


def test_delta_trivial_group():
    f2 = ff_make(2)
    rep = trivial_group(f2, 1).natural_rep()
    assert delta_bounded(rep, 2, f2).value == 1


def test_delta_va_u1_over_f4():
    f2 = ff_make(2)
    f4 = ff_make(2, 2)
    rep = u1_va_rep()
    gens = [P(f2, 3, "x0"), P(f2, 3, "x0*x2 + x1^2")]
    report = delta_bounded(rep, 4, f4, declared_generators=gens)
    assert report.value == 2
    assert report.certified_complete is True
    # delta ranges only over fixed points of the lifted action
    lifted = rep.lift(f4)
    for v in report.points:
        for g in lifted.group.generator_indices:
            assert lifted.matrices[g].apply(v) == v


def test_delta_rejects_any_moving_point(monkeypatch):
    from nullcone_lab import invariants
    f2 = ff_make(2)
    rep = swap_group(f2).natural_rep()
    # a faulty enumeration whose first point is fixed but whose second moves
    monkeypatch.setattr(invariants, "_span_points",
                        lambda basis, ctx, cap: [[f2.one, f2.one], [f2.one, f2.zero]])
    with pytest.raises(AssertionError, match="moving point"):
        delta_bounded(rep, 2, f2)


def test_sigma_trivial_group_1dim():
    f3 = ff_make(3)
    rep = trivial_group(f3, 1).natural_rep()
    assert sigma_bounded(rep, 2, f3).value == 1


def test_sigma_swap_over_f2_by_exhaustion():
    """Oracle: 4-point exhaustion by hand.  (1,0) and (0,1) are separated by
    x0 + x1 at degree 1; (1,1) kills x0 + x1 in characteristic 2 and needs
    x0*x1 at degree 2.  The sup is therefore 2."""
    f2 = ff_make(2)
    rep = swap_group(f2).natural_rep()
    per_point = {}
    for a in ff_enumerate(f2):
        for b in ff_enumerate(f2):
            if a.is_zero() and b.is_zero():
                continue
            e = epsilon(rep, [a, b], 2, use_fast_path=False)
            per_point[(a.val, b.val)] = e.value
    assert per_point == {(1, 0): 1, (0, 1): 1, (1, 1): 2}
    report = sigma_bounded(rep, 2, f2)
    assert report.value == 2
    assert [[s.val for s in p] for p in report.points] == [[1, 1]]


def test_sigma_point_cap():
    f5 = ff_make(5)
    rep = trivial_group(f5, 3).natural_rep()
    with pytest.raises(TooManyPoints):
        sigma_bounded(rep, 1, f5, cap=10)


@pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (2, 2)])
def test_sigma_points_equal_the_span_of_the_standard_basis(p, n):
    from nullcone_lab import invariants
    ctx = ff_make(p, n)
    standard = [[ctx.one if i == j else ctx.zero for i in range(3)] for j in range(3)]
    report = sigma_bounded(trivial_group(ctx, 3).natural_rep(), 1, ctx)
    points = [v for v, _ in report.point_values]
    assert points == invariants._span_points(standard, ctx, 10**6)
    assert len(points) == ctx.cardinality**3 - 1


def test_delta_report_determinism():
    f2 = ff_make(2)
    rep = regular_rep(cyclic_group(f2, 4))
    import json
    a = json.dumps(delta_bounded(rep, 4, f2).to_dict(), sort_keys=True)
    b = json.dumps(delta_bounded(rep, 4, f2).to_dict(), sort_keys=True)
    assert a == b


# -- nullcone -----------------------------------------------------------------------

def test_nullcone_out_with_certificate():
    f4 = ff_make(2, 2)
    rep = u2_va_rep()
    status = nullcone_status(rep, [f4.zero, f4.one, f4.zero], dmax=2)
    assert status.verdict == "out"
    assert str(status.certificate) == "x0*x2 + x1^2"
    assert status.certificate.degree() == 2


def test_nullcone_in_by_generators():
    f4 = ff_make(2, 2)
    rep = u2_va_rep()
    gens = [P(f4, 3, "x0"), P(f4, 3, "x0*x2 + x1^2")]
    status = nullcone_status(rep, [f4.zero, f4.zero, f4.one],
                             declared_generators=gens)
    assert status.verdict == "in"


def test_nullcone_origin_always_in():
    f2 = ff_make(2)
    rep = swap_group(f2).natural_rep()
    status = nullcone_status(rep, [f2.zero, f2.zero],
                             declared_generators=[P(f2, 2, "x0 + x1")])
    assert status.verdict == "in"


def test_nullcone_unknown_without_generators():
    f2 = ff_make(2)
    rep = swap_group(f2).natural_rep()
    assert nullcone_status(rep, [f2.zero, f2.zero]).verdict == "unknown"


def test_nullcone_rejects_non_invariant_generator():
    f2 = ff_make(2)
    rep = swap_group(f2).natural_rep()
    with pytest.raises(NotInvariantGenerator):
        nullcone_status(rep, [f2.zero, f2.zero],
                        declared_generators=[P(f2, 2, "x0")])


# -- degree reduction ----------------------------------------------------------------

def test_degree_reduce_spec_instance():
    qq = FieldCtx.rationals()
    rep = trivial_group(qq, 2).natural_rep()
    f = P(qq, 2, "x0^2 + x0*x1")
    v = [qq.one, qq.zero]
    reduced = degree_reduce(rep, f, v)
    assert str(reduced) == "x0 + 1/2*x1"
    assert reduced.evaluate(v) == qq.one


def test_degree_reduce_degree_one_normalised():
    qq = FieldCtx.rationals()
    rep = trivial_group(qq, 2).natural_rep()
    f = P(qq, 2, "2*x0")
    reduced = degree_reduce(rep, f, [qq.one, qq.zero])
    assert reduced.evaluate([qq.one, qq.zero]) == qq.one


def test_degree_reduce_char_divides_degree():
    f2 = ff_make(2)
    rep = trivial_group(f2, 2).natural_rep()
    with pytest.raises(CharDividesDegree):
        degree_reduce(rep, P(f2, 2, "x0^2"), [f2.one, f2.zero])


def test_degree_reduce_not_fixed_point():
    qq = FieldCtx.rationals()
    rep = swap_group(qq).natural_rep()
    with pytest.raises(NotFixedPoint):
        degree_reduce(rep, P(qq, 2, "x0*x1"), [qq.one, qq.scalar(2)])


def test_degree_reduce_vanishing():
    qq = FieldCtx.rationals()
    rep = trivial_group(qq, 2).natural_rep()
    with pytest.raises(VanishesAtPoint):
        degree_reduce(rep, P(qq, 2, "x1^2"), [qq.one, qq.zero])


def test_degree_reduce_invariant_group_instance():
    # swap over Q, f = x0*x1 at the fixed point (1,1): output must be a
    # verified degree-1 invariant with value 1
    qq = FieldCtx.rationals()
    rep = swap_group(qq).natural_rep()
    reduced = degree_reduce(rep, P(qq, 2, "x0*x1"), [qq.one, qq.one])
    assert reduced.degree() == 1
    assert reduced.evaluate([qq.one, qq.one]) == qq.one
    for g in range(2):
        assert rep.act_on_poly(g, reduced) == reduced


# -- generation certificates ------------------------------------------------------------

def test_check_generation_strict_for_partial_candidates():
    f4 = ff_make(2, 2)
    rep = u2_va_rep()
    cert = check_generation([P(f4, 3, "x0")], rep, 2)
    assert cert.verdicts[0].equal  # degree 1: span{x0} is everything
    assert not cert.verdicts[1].equal  # degree 2: x0^2 alone is a strict subspace


def test_check_generation_empty_candidates():
    f2 = ff_make(2)
    rep = trivial_group(f2, 2).natural_rep()
    cert = check_generation([], rep, 1)
    assert cert.verdicts[0].candidate_dim == 0
    assert cert.verdicts[0].invariant_dim == 2
    assert not cert.all_equal


def test_check_generation_rejects_non_invariant():
    f2 = ff_make(2)
    rep = swap_group(f2).natural_rep()
    with pytest.raises(NotInvariantCandidate):
        check_generation([P(f2, 2, "x0")], rep, 2)


# -- weight analysis ---------------------------------------------------------------------

def test_weight_monomials_exact():
    # weights (-1, 2): y0^2 * Z is the only degree-3 solution
    hits = weight_invariant_monomials([-1, 2], 3)
    assert [str(m) for m in hits] == ["x0^2*x1"]
    assert weight_invariant_monomials([-1, 2], 1) == []
    assert weight_invariant_monomials([-1, 2], 2) == []


def test_weight_monomials_zero_weights():
    assert len(weight_invariant_monomials([0, 0, 0], 2)) == len(mono_basis(3, 2))


def test_weight_monomials_modular():
    # weight 6 wraps to 0 mod 6: Z^3 joins y0^2*Z at degree 3
    hits = weight_invariant_monomials([-1, 2], 3, modulus=6)
    assert [str(m) for m in hits] == ["x0^2*x1", "x1^3"]


# -- fixed point spaces ------------------------------------------------------------------

def test_fixed_point_space_regular_rep():
    f2 = ff_make(2)
    rep = regular_rep(cyclic_group(f2, 4))
    basis = fixed_point_space(rep)
    assert len(basis) == 1
    assert [s.val for s in basis[0]] == [1, 1, 1, 1]
