"""Tests for the invariant-space and separation engines."""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import itertools
import json
import os
import re
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from nullcone_lab.errors import (
    CharDividesDegree,
    CharDividesOrder,
    GroupMismatch,
    NotFixedPoint,
    NotInvariantCandidate,
    NotInvariantGenerator,
    NotPermutationAction,
    TooManyColumns,
    TooManyPoints,
    VanishesAtPoint,
)
from nullcone_lab.constructions import gl2_test_module, va_joint_group
from nullcone_lab.fields import FieldCtx, Scalar, ff_make, frobenius
from nullcone_lab.groups import MatrixGroup, Representation, regular_rep
from nullcone_lab.invariants import (
    SeparationReport,
    _epsilon_by_spaces,
    _lift_poly,
    _fast_path_epsilon,
    _orbit_product_invariant,
    _verify_invariant,
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
    substitution_constraint_rows,
    weight_invariant_monomials,
)
from nullcone_lab.linalg import Matrix, _GenericEliminator, _PackedChar2Eliminator
from nullcone_lab.poly import Monomial, Polynomial, mono_basis, poly_parse

from . import test_properties as props

SRC = Path(__file__).resolve().parent.parent / "src"


def P(ctx, nvars, text):
    return poly_parse(ctx, nvars, text)


def swap_group(ctx):
    return MatrixGroup.closure([Matrix.from_ints(ctx, [[0, 1], [1, 0]])])


def cyclic_group(ctx, k):
    rows = [[ctx.one if i == (j + 1) % k else ctx.zero for j in range(k)]
            for i in range(k)]
    return MatrixGroup.closure([Matrix(ctx, rows)])


def klein_group(ctx):
    a = Matrix.from_ints(ctx, [[0, 1, 0, 0], [1, 0, 0, 0],
                               [0, 0, 0, 1], [0, 0, 1, 0]])
    b = Matrix.from_ints(ctx, [[0, 0, 1, 0], [0, 0, 0, 1],
                               [1, 0, 0, 0], [0, 1, 0, 0]])
    return MatrixGroup.closure([a, b])


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


# -- the all-elements re-check ------------------------------------------------------

F2, F3, F4, QQ = ff_make(2), ff_make(3), ff_make(2, 2), FieldCtx.rationals()
# the field, the t of z4_group, and the engine that eliminates the rows with
# its field: the 4-cycles lie in the prime field, so over F_4 they take the
# packed engine over F_2; conjugated by diag(1, z, 1, 1) they hold z and z^2
# and take the generic engine over F_4, whose dot-product re-check this case
# keeps under test
RECHECK_CASES = [pytest.param(F2, "1", (_PackedChar2Eliminator, F2), id="F2"),
                 pytest.param(F4, "1", (_PackedChar2Eliminator, F2), id="F4"),
                 pytest.param(F4, "z", (_GenericEliminator, F4), id="F4-z"),
                 pytest.param(F3, "1", (_GenericEliminator, F3), id="F3"),
                 pytest.param(QQ, "1", (_GenericEliminator, QQ), id="QQ")]


def z4_group(ctx, t):
    """Z/4 on the 4-cycle P conjugated by D = diag(1, t, 1, 1): its
    generator D P D^-1 holds t and t^-1 where P holds ones."""
    diag = Matrix(ctx, [[ctx.parse(t) if i == j == 1 else ctx.one if i == j else ctx.zero
                         for j in range(4)] for i in range(4)])
    return MatrixGroup.closure([diag * cyclic_group(ctx, 4).generators[0] * diag.inverse()])


def record_add_row(mp):
    """Count the add_row calls from now on by (eliminator class, its field)."""
    ran = Counter()
    for cls in (_PackedChar2Eliminator, _GenericEliminator):
        def add_row(self, row, _fn=cls.add_row, _cls=cls):
            ran[_cls, self.ctx] += 1
            return _fn(self, row)
        mp.setattr(cls, "add_row", add_row)
    return ran


def _swap_powers(group, mats, a, b):
    """Exchange rho(g^a) and rho(g^b) in mats, for the generator g of Z/4."""
    g = group.generator_indices[0]
    powers = [group.identity_index]
    for _ in range(3):
        powers.append(group.mul(powers[-1], g))
    i, j = powers[a], powers[b]
    mats[i], mats[j] = mats[j], mats[i]


def z4_with_swapped_powers(ctx, a, b, t="1"):
    """z4_group(ctx, t) with rho(g^a) and rho(g^b) exchanged, through the
    checked constructor: it raises GroupMismatch unless the swap composes
    rho with an automorphism of Z/4."""
    group = z4_group(ctx, t)
    mats = list(group.elements)
    _swap_powers(group, mats, a, b)
    return Representation(group, mats)


def z4_tampered_after_construction(ctx, a, b, t="1"):
    """The same swap made in rep.matrices after a checked construction: the
    only way to hold a representation that is not a homomorphism."""
    rep = z4_group(ctx, t).natural_rep()
    _swap_powers(rep.group, rep.matrices, a, b)
    return rep


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("ctx,t,engine", RECHECK_CASES)
def test_recheck_refuses_an_inconsistent_representation(ctx, t, engine, d, monkeypatch):
    """The generator rows use rho(g^-1) = rho(g^3), which now holds the
    square of the generator and fixes more than the group does; the rows of
    g^2 (now its cube) catch it, in the engine's field."""
    ran = record_add_row(monkeypatch)
    rep = z4_tampered_after_construction(ctx, 2, 3, t)
    with pytest.raises(AssertionError, match="not fixed by the whole group"):
        invariant_space(rep, d)
    assert set(ran) == {engine}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3], ids=["F4", "F9"])
def test_recheck_in_the_prime_field_refuses_a_value_outside_it(p, d, monkeypatch):
    """Z/4's generator lies over F_p, so its rows are eliminated and the
    other elements' rows re-checked in F_p.  rho(g^2), tampered after
    construction to hold z + 1 where it held a one, gives rows with values
    outside F_p.  The raw int of z + 1 is p + 1, which F_2's XOR would read
    as one and F_p's arithmetic would reduce to one, so that the tampered
    matrix would pass as the true rho(g^2); the re-check must fail it."""
    ctx = ff_make(p, 2)
    rep = cyclic_group(ctx, 4).natural_rep()
    g = rep.group.generator_indices[0]
    square = rep.group.mul(g, g)
    z_plus_one = (ctx.parse("z") + ctx.one).val
    assert z_plus_one == p + 1
    rows = [list(row) for row in rep.matrices[square].rows]
    rows[0] = [z_plus_one if v else 0 for v in rows[0]]
    rep.matrices[square] = Matrix._raw(ctx, tuple(map(tuple, rows)))
    ran = record_add_row(monkeypatch)
    with pytest.raises(AssertionError, match="not fixed by the whole group"):
        invariant_space(rep, d)
    assert set(ran) == {(_PackedChar2Eliminator if p == 2 else _GenericEliminator,
                         ff_make(p))}


@pytest.mark.parametrize("make_rep, degrees", [
    (lambda: regular_rep(cyclic_group(ff_make(2), 8)), (1, 2, 3, 4)),
    (lambda: va_joint_group(2, 1, (2, 3))[1], (1, 2, 3, 4)),
], ids=["cyclic-p2-k8", "va-joint-p2-n1"])
def test_one_build_reads_the_rows_of_every_element_once(make_rep, degrees, monkeypatch):
    """A build makes the constraint rows of each non-identity element once,
    the generators' for the kernel and every other element's for the
    re-check, and reads each stream to its end."""
    from nullcone_lab import invariants
    rep = make_rep()
    group = rep.group
    real_rows = invariants.substitution_constraint_rows
    calls = []

    def counted_rows(matrix, d):
        rows = list(real_rows(matrix, d))
        call = [matrix.rows, len(rows), 0]  # matrix, rows built, rows read
        calls.append(call)
        for row in rows:
            call[2] += 1
            yield row
    monkeypatch.setattr(invariants, "substitution_constraint_rows", counted_rows)
    wanted = Counter(rep.inverse_matrix(g).rows for g in range(group.order)
                     if g != group.identity_index)
    assert len(wanted) == group.order - 1 > len(group.generator_indices)
    for d in degrees:
        calls.clear()
        invariant_space(rep, d)
        assert Counter(rows for rows, _, _ in calls) == wanted
        assert all(read == built for _, built, read in calls)


@pytest.mark.parametrize("ctx,t,engine", RECHECK_CASES)
def test_recheck_passes_a_swap_the_generator_rows_absorb(ctx, t, engine):
    """With rho(g) and rho(g^2) exchanged, the generator rows alone give the
    true space and the re-check sees nothing wrong; the checked constructor
    refuses that representation before any invariant space is asked of it."""
    with pytest.raises(GroupMismatch, match="not a homomorphism"):
        z4_with_swapped_powers(ctx, 1, 2, t)


@pytest.mark.parametrize("ctx", [ff_make(3), FieldCtx.rationals()], ids=["F3", "QQ"])
def test_a_representation_that_is_not_a_homomorphism_answers_nothing(ctx):
    """Z/2 with rho(g) = [[1,1],[0,0]]: rho(g)^2 = rho(g) != rho(1), and the
    constructor refuses it, so neither invariant_space nor epsilon is reached
    (they would give the degree-1 invariant x0 + x1, and 1 at (1, 0))."""
    group = swap_group(ctx)
    assert group.natural_rep().verify_homomorphism()
    with pytest.raises(GroupMismatch, match="not a homomorphism"):
        Representation(group, [group.elements[0], Matrix.from_ints(ctx, [[1, 1], [0, 0]])])


@pytest.mark.parametrize("ctx", [ff_make(2), ff_make(3), FieldCtx.rationals()],
                         ids=["F2", "F3", "QQ"])
def test_verify_invariant_reads_every_generator(ctx):
    """On the Klein group's regular module, x0 + x1 is fixed by the first
    generator (swapping 0,1 and 2,3) but not by the second (swapping 0,2
    and 1,3); x0 + x1 + x2 + x3 is fixed by both."""
    rep = klein_group(ctx).natural_rep()
    first, second = rep.group.generator_indices
    half = P(ctx, 4, "x0 + x1")
    assert rep.act_on_poly(first, half) == half
    assert rep.act_on_poly(second, half) != half
    assert not _verify_invariant(rep, half)
    assert _verify_invariant(rep, P(ctx, 4, "x0 + x1 + x2 + x3"))


@pytest.mark.parametrize("make_rep", [
    lambda: regular_rep(klein_group(ff_make(2))),
    lambda: regular_rep(cyclic_group(ff_make(3), 3)),
    lambda: cyclic_group(FieldCtx.rationals(), 4).natural_rep(),
], ids=["klein-F2", "Z3-F3", "Z4-QQ"])
def test_invariant_space_eliminates_only_generator_rows(make_rep, monkeypatch):
    """Every element's rows are built, but only the generators' reach
    add_row; the rest are checked against the kernel, read once."""
    from nullcone_lab import invariants
    rep = make_rep()
    calls = {"add_row": 0, "kernel_basis": 0, "rows": 0}
    for cls in (_PackedChar2Eliminator, _GenericEliminator):
        for name in ("add_row", "kernel_basis"):
            def counted(self, *args, _fn=getattr(cls, name), _name=name):
                calls[_name] += 1
                return _fn(self, *args)
            monkeypatch.setattr(cls, name, counted)
    real_rows = invariants.substitution_constraint_rows

    def counted_rows(matrix, d):
        rows = list(real_rows(matrix, d))
        calls["rows"] += sum(1 for row in rows if row)
        return iter(rows)
    monkeypatch.setattr(invariants, "substitution_constraint_rows", counted_rows)
    for d in (1, 2, 3):
        calls.update(add_row=0, kernel_basis=0, rows=0)
        invariant_space(rep, d)
        generator_rows = sum(1 for g in rep.group.generator_indices
                             for row in real_rows(rep.inverse_matrix(g), d) if row)
        assert calls["add_row"] == generator_rows
        assert calls["kernel_basis"] == 1
        assert calls["rows"] > generator_rows  # the re-check rows were built


@st.composite
def prime_field_reps(draw):
    """The natural module of a group generated by one or two matrices over
    F_p, p in {2, 3}: permutation, signed permutation or random invertible
    matrices (GL_n(F_2) up to n = 3, GL_n(F_3) up to n = 2)."""
    p = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["perm", "signed", "gl"]))
    ctx = ff_make(p)
    n = draw(st.integers(1, {"perm": 4, "signed": 3, "gl": 5 - p}[kind]))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        if kind == "gl":
            square = st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
                              min_size=n, max_size=n)
            rows = draw(square.filter(
                lambda r: not Matrix.from_ints(ctx, r).det().is_zero()))
        else:
            perm = draw(st.permutations(range(n)))
            signs = [draw(st.sampled_from([1, -1])) if kind == "signed" else 1
                     for _ in range(n)]
            rows = [[signs[j] if perm[j] == i else 0 for j in range(n)] for i in range(n)]
        gens.append(Matrix.from_ints(ctx, rows))
    return MatrixGroup.closure(gens).natural_rep()


@settings(max_examples=60, deadline=None)
@given(rep=prime_field_reps(), d=st.integers(1, 3), n=st.sampled_from([2, 3]))
def test_a_lifted_prime_field_module_is_eliminated_in_the_prime_field(rep, d, n):
    """rep lifted to F_{p^n} (F_4, F_8, F_9 or F_27) has the basis strings
    of rep's own space, with coefficients of F_{p^n}; every generator row
    goes to the engine of F_p, the F_2 engine in characteristic 2, and none
    to an engine over F_{p^n}."""
    want = [str(f) for f in invariant_space(rep, d).basis]
    big = ff_make(rep.ctx.p, n)
    lifted = rep.lift(big)
    rows = sum(1 for g in lifted.group.generator_indices
               for row in substitution_constraint_rows(lifted.inverse_matrix(g), d) if row)
    with pytest.MonkeyPatch.context() as mp:
        ran = record_add_row(mp)
        space = invariant_space(lifted, d)
    assert [str(f) for f in space.basis] == want
    assert all(c.ctx is big for f in space.basis for c in f.terms.values())
    engine = _PackedChar2Eliminator if big.p == 2 else _GenericEliminator
    assert ran == ({(engine, rep.ctx): rows} if rows else {})


def test_gl2_epsilon_eliminates_pi_on_the_packed_engine_only(monkeypatch, capsys):
    """`compute epsilon --module gl2:p=2,n=2 --dmax 4 --json` certifies the
    degrees below 4 on the spaces of pi_S over F_4, pi restricted to the
    support S of w = B^-1 v.  pi_S's matrices are permutation matrices, so
    all of its generator rows reach the F_2 engine and none reaches the
    generic one."""
    from nullcone_lab import invariants
    from nullcone_lab.cli import main, parse_module_spec
    module = parse_module_spec("gl2:p=2,n=2")
    pb = module.rep.permutation_basis()
    support = invariants._support(pb, pb.coordinates(module.default_point))
    pi = invariants._support_rep(module.rep, support)
    assert pi.ctx is F4 and pi.dim == len(support) == 8
    rows = sum(1 for d in (1, 2, 3) for g in pi.group.generator_indices
               for row in substitution_constraint_rows(pi.inverse_matrix(g), d) if row)
    ran = record_add_row(monkeypatch)
    assert main(["compute", "epsilon", "--module", "gl2:p=2,n=2", "--dmax", "4",
                 "--json"]) == 0
    assert '"value": 4' in capsys.readouterr().out
    assert ran == {(_PackedChar2Eliminator, F2): rows}


def test_constraint_rows_negate_one_once(monkeypatch):
    from nullcone_lab import invariants
    f3 = ff_make(3)
    perm = Matrix.from_ints(f3, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    negations = []
    real_neg = Scalar.__neg__
    monkeypatch.setattr(Scalar, "__neg__", lambda s: negations.append(s) or real_neg(s))
    rows = list(invariants.substitution_constraint_rows(perm, 3))
    monkeypatch.undo()
    assert len(negations) == 1
    # of the ten cubic monomials the 3-cycle fixes only x0*x1*x2
    assert sum(1 for row in rows if row) == 9


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


def test_orbit_sum_reads_the_variable_permutations(monkeypatch):
    def no_action(*args):
        raise AssertionError("orbit_sum acted on a polynomial")
    monkeypatch.setattr(Representation, "act_on_poly", no_action)
    f3 = ff_make(3)
    total, size = orbit_sum(regular_rep(cyclic_group(f3, 3)), Monomial((2, 0, 1)))
    assert size == 3
    assert total == P(f3, 3, "x0^2*x2 + x1^2*x0 + x2^2*x1")


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
    fast = epsilon(rep, v, 4)
    slow = _epsilon_by_spaces(rep, v, 4)
    assert fast.value == slow.value == 3


def test_epsilon_refuses_an_undetermined_nonzero_point_past_the_norm_bound(monkeypatch):
    """sigma(G, V) <= |G|: with every invariant space emptied, a nonzero
    moving point is undetermined, which epsilon reports below |G| and
    refuses from |G| on.  The origin stays undetermined, and the fast path,
    which needs no space at its value, still answers at a fixed point."""
    from nullcone_lab import invariants
    f3 = ff_make(3)
    rep = regular_rep(cyclic_group(f3, 3))
    monkeypatch.setattr(invariants, "invariant_space",
                        lambda rep, d: invariants.InvariantSpace(d, []))
    v = [f3.one, f3.zero, f3.zero]
    assert epsilon(rep, v, 2).value is None
    with pytest.raises(AssertionError, match=r"degree 3 >= \|G\| = 3"):
        epsilon(rep, v, 3)
    assert epsilon(rep, [f3.zero] * 3, 5).value is None
    assert epsilon(rep, [f3.one] * 3, 3).value == 3


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
    pb = rep.permutation_basis()
    w = pb.coordinates(module.identity_point)
    slc = min((s for s in pb.orbit_slices if all(not w[k].is_zero() for k in s)),
              key=len)
    witness, forms = _fast_path_epsilon(pb, slc, rep.dim)
    assert len(forms) == 4
    assert witness == epsilon(rep, module.identity_point, 4).witness
    assert _orbit_product_invariant(rep, forms)
    chosen = pb.basis_inverse.rows.index(forms[0])
    other = next(s for s in pb.orbit_slices if chosen not in s)
    assert not _orbit_product_invariant(
        rep, forms[:-1] + [pb.basis_inverse.rows[other[0]]])
    z = rep.ctx.generator()
    assert not _orbit_product_invariant(
        rep, [tuple((z * Scalar(rep.ctx, v)).val for v in forms[0])] + forms[1:])


def test_fast_path_computes_the_coordinates_once(monkeypatch):
    """A separated fast-path point computes w = B^-1 v, and its B w check,
    once."""
    module = gl2_test_module(2, 2)
    pb = module.rep.permutation_basis()
    calls = []
    real = type(pb).coordinates

    def counting(self, v):
        calls.append(v)
        return real(self, v)
    monkeypatch.setattr(type(pb), "coordinates", counting)
    assert epsilon(module.rep, module.identity_point, 4).value == 4
    assert calls == [module.identity_point]


def test_invariant_space_refuses_columns_above_the_cap(monkeypatch):
    from nullcone_lab import invariants

    def no_rows(*args, **kwargs):
        raise AssertionError("constraint rows built before the refusal")
    rep = trivial_group(ff_make(2), 3).natural_rep()
    monkeypatch.setattr(invariants, "COLUMN_CAP", 14)
    monkeypatch.setattr(invariants, "substitution_constraint_rows", no_rows)
    with pytest.raises(TooManyColumns, match="degree 4 in 3 variables has 15"):
        invariant_space(rep, 4)


@pytest.mark.parametrize("nvars, d, shown", [
    (64, 7, "1198774720"),
    (9765625, 3124, "at least 2^40770"),             # 12,274 digits
    (3814697265625, 1953124, "at least 2^1953124"),  # never formed
])
def test_column_count_refusal_names_a_count_it_can_write(nvars, d, shown):
    from nullcone_lab.invariants import check_column_count
    with pytest.raises(TooManyColumns, match=rf"^degree {d} in {nvars} variables "
                                             rf"has {re.escape(shown)} monomial"):
        check_column_count(nvars, d)


def test_fast_path_refuses_degree_below_the_value_before_building(monkeypatch):
    """epsilon = 4 on gl2:p=2,n=2 needs degrees 1-3 on the 8 slots where
    w = B^-1 v is not zero; degree 3 has 120 columns there, so a cap of 119
    refuses before degree 1 is built, and the orbit-sum check refuses
    before it enumerates a monomial."""
    from nullcone_lab import invariants
    module = gl2_test_module(2, 2)
    rep, v = module.rep, module.identity_point

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the refusal")
    monkeypatch.setattr(invariants, "COLUMN_CAP", 119)
    monkeypatch.setattr(invariants, "substitution_constraint_rows", refuse)
    monkeypatch.setattr(invariants, "_exponent_basis", refuse)
    with pytest.raises(TooManyColumns, match="degree 3 in 8 variables has 120"):
        epsilon(rep, v, 4)
    with pytest.raises(TooManyColumns, match="degree 3 in 8 variables has 120"):
        orbit_sums_vanish(rep, v, 4)
    monkeypatch.undo()
    monkeypatch.setattr(invariants, "COLUMN_CAP", 120)
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
        assert _epsilon_by_spaces(rep, v, dmax).to_dict() == fast.to_dict()
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
from nullcone_lab.fields import Scalar, ff_make
from nullcone_lab.groups import MatrixGroup, regular_rep
from nullcone_lab.linalg import Matrix

if __debug__:
    sys.exit("run with python -O")
real = invariants._fast_path_epsilon

def tampered(pb, slc, nvars):
    witness, forms = real(pb, slc, nvars)
    z = pb.ctx.generator()
    return witness, [tuple((z * Scalar(pb.ctx, v)).val for v in forms[0])] + forms[1:]

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
    # a faulty fixed space whose first line, (1, 1), is fixed but whose
    # second, (1, 0), moves
    monkeypatch.setattr(invariants, "fixed_point_space",
                        lambda rep: [[f2.one, f2.zero], [f2.one, f2.one]])
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
    for a in f2.enumerate():
        for b in f2.enumerate():
            if a.is_zero() and b.is_zero():
                continue
            e = _epsilon_by_spaces(rep, [a, b], 2)
            per_point[(a.val, b.val)] = e.value
    assert per_point == {(1, 0): 1, (0, 1): 1, (1, 1): 2}
    report = sigma_bounded(rep, 2, f2)
    assert report.value == 2
    assert [[s.val for s in p] for p in report.points] == [[1, 1]]


@pytest.mark.parametrize("runner", [sigma_bounded, delta_bounded])
def test_sigma_point_cap(runner):
    f5 = ff_make(5)
    rep = trivial_group(f5, 3).natural_rep()
    with pytest.raises(TooManyPoints, match=r"^5\^3 points exceeds the cap 10$"):
        runner(rep, 1, f5, cap=10)


@pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (2, 2)])
def test_sigma_points_equal_the_span_of_the_standard_basis(p, n):
    ctx = ff_make(p, n)
    standard = [[ctx.one if i == j else ctx.zero for i in range(3)] for j in range(3)]
    report = sigma_bounded(trivial_group(ctx, 3).natural_rep(), 1, ctx)
    points = [v for v, _ in report.point_values]
    assert points == props.span_points(standard, ctx)
    assert len(points) == ctx.cardinality**3 - 1


# -- one epsilon per F*-line against a per-point reference ----------------------------

def _per_point_report(kind, rep, points, dmax, gens):
    """sigma/delta assembled from one epsilon call per point."""
    reports = [epsilon(rep, v, dmax) for v in points]
    value, achieving, witness, undetermined = None, [], None, []
    for v, rpt in zip(points, reports):
        if not rpt.determined:
            undetermined.append(v)
        elif value is None or rpt.value > value:
            value, achieving, witness = rpt.value, [v], rpt.witness
        elif rpt.value == value:
            achieving.append(v)
    certified = None
    if gens is not None:
        certified = all(g.evaluate(v).is_zero() for g in gens for v in undetermined)
    return SeparationReport(kind, value, witness, achieving, dmax, rep.ctx,
                            undetermined_points=undetermined,
                            certified_complete=certified,
                            point_values=[(v, r.value) for v, r in zip(points, reports)])


def _counting_epsilon(monkeypatch):
    """Patch invariants.epsilon to record its points; returns the record."""
    from nullcone_lab import invariants
    counted = []

    def counting_epsilon(rep, point, dmax):
        counted.append(point)
        return epsilon(rep, point, dmax)
    monkeypatch.setattr(invariants, "epsilon", counting_epsilon)
    return counted


def _frobenius_classes(ctx, k):
    """The orbits of x -> x^p on the F*-lines of ctx^k, walked on Scalars
    through `fields.frobenius`, apart from the engine's raw tuples."""
    seen, classes = set(), 0
    for coeffs in itertools.product(ctx.enumerate(), repeat=k):
        if any(not c.is_zero() for c in coeffs):
            lead = next(c for c in coeffs if not c.is_zero())
            line = tuple(c / lead for c in coeffs)
            if line not in seen:
                classes += 1
                while line not in seen:
                    seen.add(line)
                    line = tuple(frobenius(c) for c in line)
    return classes


LINE_CASES = [  # kind, module spec, pointfield (p, n) or None, dmax, declared generators
    ("sigma", "va:p=3,n=1,m=2", None, 3, True),
    ("sigma", "torus:q=7,r=1,m=2", None, 4, False),
    ("sigma", "gn:p=3,n=1", None, 3, False),
    ("delta", "cyclic:p=2,k=4", (2, 2), 4, False),
    # phi-stable modules over extension fields: their lines merge into classes
    ("sigma", "va:p=2,n=1,m=2", None, 3, True),
    ("delta", "va:p=2,n=1,m=2", None, 3, True),
    ("delta", "va:p=3,n=1,m=2", None, 3, True),
    ("sigma", "torus:q=7,r=1,m=2", (7, 2), 4, True),
    ("delta", "torus:q=7,r=1,m=2", (7, 2), 4, True),
    ("sigma", "cyclic:p=2,k=4", (2, 3), 4, False),
    ("delta", "cyclic:p=2,k=4", (2, 3), 4, False),
]


@pytest.mark.parametrize("kind, module, pointfield, dmax, declared", LINE_CASES)
def test_line_reports_equal_the_per_point_reference(monkeypatch, kind, module, pointfield,
                                                    dmax, declared):
    """One epsilon per Frobenius class of lines gives the per-point
    reference's value, witness, point lists, certificate and point_values."""
    from nullcone_lab.cli import parse_module_spec
    spec = parse_module_spec(module)
    pf = ff_make(*pointfield) if pointfield else spec.rep.ctx
    rep = spec.rep.lift(pf)
    gens = spec.candidates if declared else None
    counted = _counting_epsilon(monkeypatch)
    if kind == "sigma":
        report = sigma_bounded(spec.rep, dmax, pf, declared_generators=gens)
        points = [list(c) for c in itertools.product(pf.enumerate(), repeat=rep.dim)][1:]
        k = rep.dim
    else:
        report = delta_bounded(spec.rep, dmax, pf, declared_generators=gens)
        basis = fixed_point_space(rep)
        k, points = len(basis), props.span_points(basis, pf)
    lifted = [_lift_poly(g, pf) for g in gens] if declared else None
    expected = _per_point_report(kind, rep, points, dmax, lifted)
    assert report.to_dict() == expected.to_dict()
    assert report.point_values == expected.point_values
    if declared:
        assert report.certified_complete is not None
    assert len(counted) == _frobenius_classes(pf, k)


def _csv_rows(report):
    """The rows `compute delta/sigma --csv` prints for a report."""
    return [["point", "epsilon"]] + [
        [",".join(str(s) for s in v),
         str(value) if value is not None else f"undetermined above {report.degree_bound}"]
        for v, value in report.point_values]


def _field_text(ctx):
    return str(ctx.p) if ctx.n == 1 else f"{ctx.p},{ctx.n}"


@st.composite
def line_cases(draw):
    """A small module over F_3, F_4, F_5 or F_9, sigma or delta, a point field
    that is the module's or (from a prime field) an extension of degree 2
    or 3, at most 1,000 points, and declared generators half the time."""
    rep = draw(props.small_modules())
    kind = draw(st.sampled_from(["sigma", "delta"]))
    ctx = rep.ctx
    pf = ctx if ctx.n > 1 else draw(st.sampled_from([ctx, ff_make(ctx.p, 2),
                                                     ff_make(ctx.p, 3)]))
    k = rep.dim if kind == "sigma" else len(fixed_point_space(rep))
    assume(pf.cardinality**k <= 1000)
    gens = None
    if draw(st.booleans()):
        gens = invariant_space(rep, 1).basis + invariant_space(rep, 2).basis
    return kind, rep, pf, draw(st.integers(1, 3)), gens


@settings(max_examples=40, deadline=None)
@given(case=line_cases())
def test_line_engine_equals_the_per_point_reference(case):
    """One epsilon per line, and the expansion of the reported lines, give
    the per-point reference's report, point_values and --csv rows."""
    kind, rep, pf, dmax, gens = case
    runner = sigma_bounded if kind == "sigma" else delta_bounded
    report = runner(rep, dmax, pf, declared_generators=gens)
    lifted = rep.lift(pf)
    if kind == "sigma":
        points = [list(c) for c in itertools.product(pf.enumerate(), repeat=rep.dim)][1:]
    else:
        points = props.span_points(fixed_point_space(lifted), pf)
    expected = _per_point_report(kind, lifted, points, dmax,
                                 gens and [_lift_poly(g, pf) for g in gens])
    assert report.to_dict() == expected.to_dict()
    assert report.point_values == expected.point_values
    assert len(report.point_values) == len(points)

    matrices = [rep.matrices[g] for g in rep.group.generator_indices]
    argv = ["compute", kind, "--gens=" + "|".join(
                ";".join(",".join(str(m[i, j]) for j in range(rep.dim))
                         for i in range(rep.dim)) for m in matrices),
            "--field", _field_text(rep.ctx), "--pointfield", _field_text(pf),
            "--dmax", str(dmax), "--csv"]
    from nullcone_lab.cli import main
    if gens == []:  # an empty --generators text is refused, not read as no generators
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv + ["--generators="]) == 2
        assert out.getvalue() == ""
    elif gens is not None:
        argv.append("--generators=" + ";".join(str(g) for g in gens))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) in (0, 1)
    assert list(csv.reader(io.StringIO(out.getvalue()))) == _csv_rows(expected)


def test_json_report_expands_no_point_values(monkeypatch, capsys):
    """sigma's and delta's reports, and their --json runs, never build
    point_values."""
    from nullcone_lab import invariants
    from nullcone_lab.cli import main, parse_module_spec

    def refuse(self):
        raise AssertionError("point_values was expanded")
    monkeypatch.setattr(invariants._PointValues, "_pairs", property(refuse))
    for runner, module, pointfield, dmax in ((sigma_bounded, "va:p=3,n=1,m=2", None, 3),
                                             (delta_bounded, "va:p=2,n=1,m=1", "2,6", 2)):
        spec = parse_module_spec(module)
        pf = ff_make(*map(int, pointfield.split(","))) if pointfield else spec.rep.ctx
        report = runner(spec.rep, dmax, pf, declared_generators=spec.candidates)
        assert report.to_dict()["certified_complete"] is True
        with pytest.raises(AssertionError, match="expanded"):
            len(report.point_values)
        kind = report.kind
        argv = ["compute", kind, "--module", module, "--dmax", str(dmax), "--json"]
        assert main(argv + (["--pointfield", pointfield] if pointfield else [])) == 0
        assert f'"kind": "{kind}"' in capsys.readouterr().out


@pytest.mark.parametrize("fmt, digest", [
    ("--json", "d0ee0db0bca526fec069a1187541adaf62871e8061dbf84b8a23572093f0c5cd"),
    ("--csv", "e72937f65dd78e16e0ef9be427b64c9ecc06e046ff254b33f2ea323949f0eb24"),
])
def test_delta_output_is_pinned(capsys, fmt, digest):
    """delta over the 4,095 fixed points of va:p=2,n=1,m=1 in F_64: the
    stdout sha256 that the per-point enumeration printed."""
    import hashlib
    from nullcone_lab.cli import main
    assert main(["compute", "delta", "--module", "va:p=2,n=1,m=1", "--pointfield", "2,6",
                 "--dmax", "2", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    pytest.param("sigma --module va:p=3,n=1,m=3 --dmax 3 --csv",
                 "fe61b8813d0b7d8b2caf3c18687172e7eadeaef4717f250f028efce9c1cb8e15",
                 id="sigma-va:p=3,n=1,m=3-csv"),
    pytest.param("delta --module va:p=2,n=1,m=1 --pointfield 2,9 --dmax 2 --json",
                 "04bcf14f72a9ad780cff60ac43aba8c89045adf51d76405e581a1fc63ba2ae71",
                 id="delta-va:p=2,n=1,m=1-F512-json"),
])
def test_frobenius_class_output_is_pinned(capsys, argv, digest):
    """Runs whose lines merge into Frobenius classes, over F_27 and F_512:
    the stdout sha256 that one epsilon per line printed."""
    import hashlib
    from nullcone_lab.cli import main
    assert main(["compute", *argv.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("module, calls, npoints", [
    # rho(G) is stable under x -> x^3, so the 91 F_9*-lines fall into 13
    # classes of one line (entries in F_3) and 39 of two
    pytest.param("va:p=3,n=1,m=2", 13 + (91 - 13) // 2, 9**3 - 1,
                 id="sigma-va:p=3,n=1,m=2-F9"),
    # over F_2 a line is a point, and a class is a line
    pytest.param("cyclic:p=2,k=3", 7, 7, id="sigma-cyclic:p=2,k=3-F2"),
    # a (module, point field) pair runs delta: V^G is 2-dimensional here, and
    # its 65 F_64*-lines are (0, 1) and (1, t), one class per orbit of t under
    # x -> x^2: 2 in F_2, 1 in F_4 - F_2, 2 in F_8 - F_2 and 9 of 6 elements
    pytest.param(("va:p=2,n=1,m=1", (2, 6)), 1 + 2 + 1 + 2 + 9, 64**2 - 1,
                 id="delta-va:p=2,n=1,m=1-F64"),
])
def test_sigma_calls_epsilon_once_per_class(monkeypatch, module, calls, npoints):
    from nullcone_lab.cli import parse_module_spec
    module, pointfield = module if isinstance(module, tuple) else (module, None)
    spec = parse_module_spec(module)
    counted = _counting_epsilon(monkeypatch)
    if pointfield:
        report = delta_bounded(spec.rep, 3, ff_make(*pointfield))
    else:
        report = sigma_bounded(spec.rep, 3, spec.rep.ctx)
    assert len(counted) == calls
    assert len(report.point_values) == npoints


# rho(G) = {I, M} over F_4, and x -> x^2 swaps M's entries z + 1 and z, so
# the image of M is not in rho(G)
UNSTABLE_SIGMA = ["compute", "sigma", "--gens", "1,0,0;z+1,1,0;z,0,1", "--field", "2,2",
                  "--dmax", "3", "--json"]


def test_a_module_not_stable_under_frobenius_is_walked_per_line(monkeypatch, capsys):
    from nullcone_lab.cli import main
    counted = _counting_epsilon(monkeypatch)
    assert main(UNSTABLE_SIGMA) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 2
    assert len(counted) == (4**3 - 1) // 3


def test_the_frobenius_stability_check_is_load_bearing(monkeypatch, capsys):
    """Merging the classes of the module above anyway reports a wrong sigma:
    the line of (0, 1, z + 1) needs degree 2, and it shares a class with the
    earlier (0, 1, z), which a degree-1 invariant separates."""
    from nullcone_lab import invariants
    from nullcone_lab.cli import main
    monkeypatch.setattr(invariants, "_frobenius_stable", lambda rep, frob: True)
    counted = _counting_epsilon(monkeypatch)
    assert main(UNSTABLE_SIGMA) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 1
    assert len(counted) == _frobenius_classes(ff_make(2, 2), 3)


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
