"""Matrix group and representation tests."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from nullcone_lab.errors import CapExceeded, GroupMismatch, NotInvertible, NotPermutationAction
from nullcone_lab.fields import FieldCtx, ff_make
from nullcone_lab.groups import (
    MatrixGroup,
    Representation,
    dual_rep,
    find_permutation_basis,
    hom_rep,
    regular_rep,
    sym_power_rep,
    vectorized_identity,
    _minkowski_bound,
    _verify_permutation_basis,
)
from nullcone_lab.linalg import Matrix
from nullcone_lab.poly import Polynomial, poly_parse


def unipotent(ctx, t):
    return Matrix(ctx, [[ctx.one, t], [ctx.zero, ctx.one]])


def cyclic_group(ctx, k):
    """Z_k as the k-cycle permutation matrix group (its own regular rep)."""
    rows = [[ctx.one if i == (j + 1) % k else ctx.zero for j in range(k)]
            for i in range(k)]
    return MatrixGroup.closure([Matrix(ctx, rows)])


def klein_group(ctx):
    a = Matrix.from_ints(ctx, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    b = Matrix.from_ints(ctx, [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    return MatrixGroup.closure([a, b])


# -- closure ---------------------------------------------------------------

def test_closure_order_two():
    f2 = ff_make(2)
    g = MatrixGroup.closure([unipotent(f2, f2.one)])
    assert g.order == 2
    assert g.elements[0].is_identity()


def test_closure_f4_translations():
    f4 = ff_make(2, 2)
    g = MatrixGroup.closure([unipotent(f4, f4.one), unipotent(f4, f4.generator())])
    assert g.order == 4
    # isomorphic to (F_4, +): every nonidentity element has order 2
    assert all(g.element_order(i) == 2 for i in range(1, 4))
    assert g.is_abelian()


def test_closure_cap_exceeded_over_q():
    qq = FieldCtx.rationals()
    with pytest.raises(CapExceeded):
        MatrixGroup.closure([unipotent(qq, qq.one)], cap=100)


def test_unipotent_closure_over_q_stops_at_minkowski_bound():
    qq = FieldCtx.rationals()
    assert [_minkowski_bound(n) for n in (1, 2, 3, 4)] == [2, 24, 48, 5760]
    with pytest.raises(CapExceeded, match="infinite"):
        MatrixGroup.closure([unipotent(qq, qq.one)])
    # the signed permutations of three coordinates attain the bound and close
    cycle = Matrix.from_ints(qq, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    swap = Matrix.from_ints(qq, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    sign = Matrix.from_ints(qq, [[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert MatrixGroup.closure([cycle, swap, sign]).order == 48


def test_closure_rejects_singular():
    f2 = ff_make(2)
    with pytest.raises(NotInvertible):
        MatrixGroup.closure([Matrix.from_ints(f2, [[1, 1], [1, 1]])])


def test_closure_is_group():
    """Exhaustive product/inverse closure for every pool group (order <= 64)."""
    pools = [cyclic_group(ff_make(2), 4), klein_group(ff_make(2)),
             cyclic_group(ff_make(3), 3)]
    f4 = ff_make(2, 2)
    pools.append(MatrixGroup.closure([unipotent(f4, f4.one),
                                      unipotent(f4, f4.generator())]))
    for g in pools:
        keys = set(g.index)
        for i in range(g.order):
            assert g.elements[g.inv(i)].key() in keys
            for j in range(g.order):
                assert (g.elements[i] * g.elements[j]).key() in keys
        for gen in g.generators:
            assert gen.key() in keys


def test_mul_table_matches_matrix_products():
    g = cyclic_group(ff_make(3), 3)
    for i in range(3):
        for j in range(3):
            assert g.elements[g.mul(i, j)] == g.elements[i] * g.elements[j]


def random_group(draw):
    """1-3 random monomial generators: permutations over F_2, monomial
    matrices over F_3 and F_4, signed permutations over QQ."""
    name = draw(st.sampled_from(["F2", "F3", "F4", "QQ"]))
    ctx, ext = {"F2": (ff_make(2), ff_make(2, 2)), "F3": (ff_make(3), ff_make(3, 2)),
                "F4": (ff_make(2, 2), None), "QQ": (FieldCtx.rationals(), None)}[name]
    units = [ctx.one, -ctx.one] if name == "QQ" else ctx.enumerate()[1:]
    dim = draw(st.integers(1, 2 if name == "F4" else 3))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        pi = draw(st.permutations(range(dim)))
        rows = [[ctx.zero] * dim for _ in range(dim)]
        for j in range(dim):
            rows[pi[j]][j] = draw(st.sampled_from(units))
        gens.append(Matrix(ctx, rows))
    return MatrixGroup.closure(gens), ext


def assert_tables_match_products(group):
    els, n = group.elements, group.order
    for i in range(n):
        left = group.left_translation(i)
        assert group.inv(i) == group.index[els[i].inverse().key()]
        for j in range(n):
            prod = group.index[(els[i] * els[j]).key()]
            assert left[j] == prod and group.mul(i, j) == prod
    assert group.is_abelian() == all(group.mul(i, j) == group.mul(j, i)
                                     for i in range(n) for j in range(n))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cayley_graph_agrees_with_dense_products(data):
    group, ext = random_group(data.draw)
    assert_tables_match_products(group)
    reg = regular_rep(group)
    for g in range(group.order):
        assert reg.matrices[g].permutation() == [
            group.index[(group.elements[g] * x).key()] for x in group.elements]
    if ext is not None:
        lifted = group.lift(ext)
        assert lifted.ctx == ext and lifted.order == group.order
        assert_tables_match_products(lifted)


def test_closure_alone_multiplies_matrices(monkeypatch):
    """The closure forms elements[i] * generators[k] once per pair; the
    regular representation and a lift read its Cayley graph instead."""
    f3 = ff_make(3)
    cycle = Matrix.from_ints(f3, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    swap = Matrix.from_ints(f3, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    sign = Matrix.from_ints(f3, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    products = []
    real_mul = Matrix.__mul__

    def counting_mul(a, b):
        products.append((a, b))
        return real_mul(a, b)

    monkeypatch.setattr(Matrix, "__mul__", counting_mul)
    group = MatrixGroup.closure([cycle, swap, sign])
    assert group.order == 48
    assert len(products) == group.order * 3
    products.clear()
    regular_rep(group)
    group.lift(ff_make(3, 2))
    assert products == []


def test_lift_inverts_no_matrix(monkeypatch):
    """A field embedding keeps which element is the inverse of which."""
    f3 = ff_make(3)
    group = MatrixGroup.closure([Matrix.from_ints(f3, [[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
                                 Matrix.from_ints(f3, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])])
    inversions = []
    real_inverse = Matrix.inverse

    def counting_inverse(m):
        inversions.append(m)
        return real_inverse(m)

    monkeypatch.setattr(Matrix, "inverse", counting_inverse)
    lifted = group.lift(ff_make(3, 2))
    assert inversions == []
    assert lifted.inverse_table == group.inverse_table


# -- polynomial action ---------------------------------------------------------

def test_act_identity():
    f2 = ff_make(2)
    g = MatrixGroup.closure([unipotent(f2, f2.one)])
    rep = g.natural_rep()
    f = poly_parse(f2, 2, "x0*x1 + x1^2")
    assert rep.act_on_poly(0, f) == f


def test_act_shear():
    # lower-triangular shear over F_2: its own inverse, x1 gains x0
    f2 = ff_make(2)
    shear = Matrix.from_ints(f2, [[1, 0], [1, 1]])
    rep = MatrixGroup.closure([shear]).natural_rep()
    assert rep.act_on_poly(1, poly_parse(f2, 2, "x1")) == poly_parse(f2, 2, "x0 + x1")
    # for the upper-triangular translation the second coordinate is fixed:
    # u_t moves X-coordinates only, matching t*f = f(..., x1 + t*x0, ...)
    rep_u = MatrixGroup.closure([unipotent(f2, f2.one)]).natural_rep()
    assert rep_u.act_on_poly(1, poly_parse(f2, 2, "x1")) == poly_parse(f2, 2, "x1")
    assert rep_u.act_on_poly(1, poly_parse(f2, 2, "x0")) == poly_parse(f2, 2, "x0 + x1")


def test_act_dilation():
    # g = diag(2) over F_5: g^-1 = diag(3), x0^2 -> (3x0)^2 = 4x0^2
    f5 = ff_make(5)
    g = MatrixGroup.closure([Matrix.from_ints(f5, [[2]])])
    rep = g.natural_rep()
    idx = g.index[Matrix.from_ints(f5, [[2]]).key()]
    assert rep.act_on_poly(idx, poly_parse(f5, 1, "x0^2")) == poly_parse(f5, 1, "4*x0^2")


def test_action_is_left_action():
    """g.(h.f) = (gh).f, exhaustive over groups of order <= 16, random cubics."""
    f2 = ff_make(2)
    rng = random.Random(31)
    for group in (cyclic_group(f2, 4), klein_group(f2)):
        rep = group.natural_rep()
        n = rep.dim
        for _ in range(4):
            f = Polynomial(f2, n, {tuple(rng.randint(0, 1) for _ in range(n)): f2.one
                                   for _ in range(3)})
            for i in range(group.order):
                for j in range(group.order):
                    lhs = rep.act_on_poly(i, rep.act_on_poly(j, f))
                    rhs = rep.act_on_poly(group.mul(i, j), f)
                    assert lhs == rhs


def test_action_preserves_degree():
    f3 = ff_make(3)
    g = cyclic_group(f3, 3)
    rep = g.natural_rep()
    f = poly_parse(f3, 3, "x0^2*x1 + x2^3")
    assert rep.act_on_poly(1, f).degree() == 3


# -- induced representations ------------------------------------------------------

def test_dual_rep():
    f5 = ff_make(5)
    g = MatrixGroup.closure([Matrix.from_ints(f5, [[2]])])
    nat = g.natural_rep()
    dual = dual_rep(nat)
    idx = g.index[Matrix.from_ints(f5, [[2]]).key()]
    assert dual.matrices[idx] == Matrix.from_ints(f5, [[3]])  # inverse of 1x1
    # dual of dual = original
    assert all(dual_rep(dual).matrices[i] == nat.matrices[i] for i in range(g.order))


def test_dual_of_trivial_is_trivial():
    f2 = ff_make(2)
    g = MatrixGroup.closure([Matrix.identity(f2, 2)])
    dual = dual_rep(g.natural_rep())
    assert all(m.is_identity() for m in dual.matrices)


def test_sym_power_one_is_original():
    f3 = ff_make(3)
    rep = MatrixGroup.closure([unipotent(f3, f3.one)]).natural_rep()
    s1 = sym_power_rep(rep, 1)
    assert all(s1.matrices[i] == rep.matrices[i] for i in range(rep.group.order))


def test_sym_power_binomial_column():
    # p=3, m=2: u_1 sends Y^2 to Y^2 + 2XY + X^2
    f3 = ff_make(3)
    group = MatrixGroup.closure([unipotent(f3, f3.one)])
    s2 = sym_power_rep(group.natural_rep(), 2)
    u1 = s2.matrices[group.index[unipotent(f3, f3.one).key()]]
    # basis order (X^2, XY, Y^2); column of Y^2 is (1, 2, 1)
    col = [u1[i, 2] for i in range(3)]
    assert [s.val for s in col] == [1, 2, 1]
    assert s2.dim == 3  # m+1 for a 2-dim module


def test_sym_and_hom_are_homomorphisms():
    f4 = ff_make(2, 2)
    group = MatrixGroup.closure([unipotent(f4, f4.one), unipotent(f4, f4.generator())])
    nat = group.natural_rep()
    s = sym_power_rep(nat, 3)
    assert s.verify_homomorphism()
    h = hom_rep(s, s)
    assert h.verify_homomorphism()
    assert h.dim == s.dim * s.dim


def test_hom_rep_fixes_identity_map():
    f2 = ff_make(2)
    group = MatrixGroup.closure([unipotent(f2, f2.one)])
    nat = group.natural_rep()
    h = hom_rep(nat, nat)
    idvec = vectorized_identity(nat)
    for i in range(group.order):
        assert h.matrices[i].apply(idvec) == idvec


def test_hom_rep_rejects_mismatched_groups():
    f2 = ff_make(2)
    g1 = MatrixGroup.closure([unipotent(f2, f2.one)])
    g2 = MatrixGroup.closure([unipotent(f2, f2.one)])
    with pytest.raises(GroupMismatch):
        hom_rep(g1.natural_rep(), g2.natural_rep())


def test_verify_homomorphism_rejects_swapped_matrices():
    f2 = ff_make(2)
    z4 = cyclic_group(f2, 4)
    assert z4.natural_rep().verify_homomorphism()
    mats = list(z4.elements)
    assert mats[1] == z4.generators[0]  # closure order: 1, g, g^2, g^3
    mats[1], mats[2] = mats[2], mats[1]
    assert not Representation(z4, mats).verify_homomorphism()


def test_regular_rep_of_z2():
    f2 = ff_make(2)
    g = cyclic_group(f2, 2)
    reg = regular_rep(g)
    assert reg.matrices[1] == Matrix.from_ints(f2, [[0, 1], [1, 0]])


def test_regular_rep_trivial_group():
    f3 = ff_make(3)
    g = MatrixGroup.closure([Matrix.identity(f3, 1)])
    reg = regular_rep(g)
    assert reg.dim == 1 and reg.matrices[0].is_identity()


def test_regular_rep_columns_sum_to_one():
    f2 = ff_make(2)
    reg = regular_rep(klein_group(f2))
    for m in reg.matrices:
        assert m.is_permutation()


# -- permutation bases ---------------------------------------------------------------

def test_permutation_basis_of_permutation_rep_is_standard():
    f2 = ff_make(2)
    reg = regular_rep(cyclic_group(f2, 4))
    pb = reg.permutation_basis()
    assert pb is not None
    assert pb.basis_matrix.is_permutation()
    assert pb.is_free() and pb.is_transitive()


def test_permutation_basis_2dim_char2():
    # orbit of Y under u_1 is {Y, Y+X}: independent, action swaps them
    f2 = ff_make(2)
    group = MatrixGroup.closure([unipotent(f2, f2.one)])
    s1 = sym_power_rep(group.natural_rep(), 1)
    pb = s1.permutation_basis()
    assert pb is not None and pb.is_free()
    assert pb.perms[1] != pb.perms[0]


def test_permutation_basis_vandermonde_p3():
    # S^2 of the natural module at p=3: the orbit of Y^2 is a basis
    f3 = ff_make(3)
    group = MatrixGroup.closure([unipotent(f3, f3.one)])
    s2 = sym_power_rep(group.natural_rep(), 2)
    pb = s2.permutation_basis()
    assert pb is not None
    assert pb.is_free() and pb.is_transitive()
    assert pb.orbit_sizes == [3]


@pytest.mark.parametrize("p, degree", [(2, 1), (3, 2)])
def test_permutation_basis_check_rejects_a_tampered_permutation(p, degree):
    """Swapping two slots of one element's permutation breaks rho(g) B = B P_g."""
    ctx = ff_make(p)
    group = MatrixGroup.closure([unipotent(ctx, ctx.one)])
    rep = sym_power_rep(group.natural_rep(), degree)
    pb = rep.permutation_basis()
    _verify_permutation_basis(rep, pb)
    pi = list(pb.perms[1])
    pi[0], pi[1] = pi[1], pi[0]
    pb.perms[1] = tuple(pi)
    with pytest.raises(AssertionError):
        _verify_permutation_basis(rep, pb)


def test_permutation_basis_absent_for_scaling_action():
    f5 = ff_make(5)
    g = MatrixGroup.closure([Matrix.from_ints(f5, [[2, 0], [0, 3]])])
    assert g.natural_rep().permutation_basis() is None


def test_regular_restriction_is_free():
    """Restriction of a regular module along a subgroup stays free."""
    f2 = ff_make(2)
    z4 = cyclic_group(f2, 4)
    reg = regular_rep(z4)
    c2 = z4.elements[z4.mul(1, 1)]  # the square of the 4-cycle
    sub = z4.subgroup([c2])
    restricted = reg.restrict(sub)
    pb = restricted.permutation_basis()
    assert pb is not None and pb.is_free()
    assert pb.fixes_no_slot()
    klein = klein_group(f2)
    diag = klein.subgroup([klein.elements[klein.mul(1, 2)]])
    pb2 = regular_rep(klein).restrict(diag).permutation_basis()
    assert pb2 is not None and pb2.is_free() and pb2.fixes_no_slot()


def test_restrict_rejects_non_subgroup():
    f2 = ff_make(2)
    z4 = cyclic_group(f2, 4)
    other = cyclic_group(f2, 2)
    with pytest.raises(GroupMismatch):
        regular_rep(z4).restrict(other)


def test_variable_permutations():
    f2 = ff_make(2)
    reg = regular_rep(cyclic_group(f2, 3))
    perms = reg.variable_permutations()
    assert perms[0] == [0, 1, 2]
    with pytest.raises(NotPermutationAction):
        MatrixGroup.closure([unipotent(f2, f2.one)]).natural_rep().variable_permutations()


def test_lift_representation():
    f2, f4 = ff_make(2), ff_make(2, 2)
    rep = MatrixGroup.closure([unipotent(f2, f2.one)]).natural_rep()
    lifted = rep.lift(f4)
    assert lifted.ctx == f4 and lifted.group.order == 2
    assert lifted.verify_homomorphism()
