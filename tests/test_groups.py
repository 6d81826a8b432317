"""Matrix group and representation tests."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from nullcone_lab.constructions import gl2_test_module, gn_module
from nullcone_lab.errors import CapExceeded, GroupMismatch, NotInvertible, NotPermutationAction
from nullcone_lab.fields import FieldCtx, Scalar, ff_make, lift
from nullcone_lab.groups import (
    MatrixGroup,
    Representation,
    dual_rep,
    find_permutation_basis,
    hom_rep,
    permutation_rep,
    regular_rep,
    sym_power_rep,
    vectorized_identity,
    _minkowski_bound,
)
from nullcone_lab.invariants import _permutation_rep
from nullcone_lab.linalg import Matrix, _GenericEliminator, lift_matrix, rank
from nullcone_lab.poly import Polynomial, poly_parse

from .test_invariants import z4_with_swapped_powers
from .test_linalg import count_scalars


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


def symmetric_group_3(ctx):
    """S_3 on 3 coordinates: a transposition and a 3-cycle, non-abelian."""
    return MatrixGroup.closure([Matrix.from_ints(ctx, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
                                Matrix.from_ints(ctx, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])])


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
    assert all(g.mul(i, i) == g.identity_index for i in range(1, 4))
    assert all(g.mul(i, j) == g.mul(j, i) for i in range(4) for j in range(4))


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
            assert g.elements[g.inv(i)].rows in keys
            for j in range(g.order):
                assert (g.elements[i] * g.elements[j]).rows in keys
        for gen in g.generators:
            assert gen.rows in keys


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
        assert group.inv(i) == group.index[els[i].inverse().rows]
        for j in range(n):
            prod = group.index[(els[i] * els[j]).rows]
            assert left[j] == prod and group.mul(i, j) == prod


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cayley_graph_agrees_with_dense_products(data):
    group, ext = random_group(data.draw)
    assert_tables_match_products(group)
    reg = regular_rep(group)
    for g in range(group.order):
        assert reg.matrices[g].permutation() == [
            group.index[(group.elements[g] * x).rows] for x in group.elements]
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
    products, inversions = [], []
    real_mul, real_inverse = Matrix.__mul__, Matrix.inverse

    def counting_mul(a, b):
        products.append((a, b))
        return real_mul(a, b)

    def counting_inverse(m):
        inversions.append(m)
        return real_inverse(m)

    monkeypatch.setattr(Matrix, "__mul__", counting_mul)
    monkeypatch.setattr(Matrix, "inverse", counting_inverse)
    group = MatrixGroup.closure([cycle, swap, sign])
    assert group.order == 48
    assert len(products) == group.order * 3
    assert inversions == [cycle, swap, sign]  # only to reject a singular generator
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
    idx = g.index[Matrix.from_ints(f5, [[2]]).rows]
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
    idx = g.index[Matrix.from_ints(f5, [[2]]).rows]
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
    u1 = s2.matrices[group.index[unipotent(f3, f3.one).rows]]
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
    """The constructor runs verify_homomorphism, so swapped matrices are
    refused there; edited in after construction, the check still sees them."""
    f2 = ff_make(2)
    z4 = cyclic_group(f2, 4)
    rep = z4.natural_rep()
    assert rep.verify_homomorphism()
    mats = list(z4.elements)
    assert mats[1] == z4.generators[0]  # closure order: 1, g, g^2, g^3
    mats[1], mats[2] = mats[2], mats[1]
    with pytest.raises(GroupMismatch, match="not a homomorphism"):
        Representation(z4, mats)
    rep.matrices[:] = mats
    assert not rep.verify_homomorphism()


@pytest.mark.parametrize("ctx", [ff_make(3), FieldCtx.rationals()], ids=["F3", "QQ"])
def test_every_builder_yields_a_representation_the_checked_constructor_accepts(ctx):
    """The builders skip the homomorphism check; what each builds passes it."""
    s3 = symmetric_group_3(ctx)
    nat = s3.natural_rep()
    sub = s3.subgroup([s3.generators[1]])
    built = [nat, nat.restrict(sub), dual_rep(nat), sym_power_rep(nat, 2),
             hom_rep(nat, dual_rep(nat)), regular_rep(s3), regular_rep(sub)]
    if ctx.is_finite:
        f9 = ff_make(3, 2)
        vandermonde = sym_power_rep(gn_module(3, 1)[1], 2)
        assert not vandermonde.permutation_basis().basis_matrix.is_identity()
        built += [nat.lift(f9), sym_power_rep(nat, 2).lift(f9), _permutation_rep(vandermonde)]
    for rep in built:
        Representation(rep.group, rep.matrices)  # raises GroupMismatch if not


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
        assert m.permutation() is not None


def test_permutation_rep_refuses_perms_that_do_not_compose_as_the_group():
    """Z/4 over F_3 with the rotations by one and by two exchanged: pi_g
    squares to the identity, not to pi_{g^2}, so the builder refuses them
    with the constructor's error instead of answering for a non-homomorphism."""
    group = cyclic_group(ff_make(3), 4)
    assert group.generator_indices == [1]
    with pytest.raises(GroupMismatch, match="not a homomorphism"):
        permutation_rep(group, [(0, 1, 2, 3), (2, 3, 0, 1), (1, 2, 3, 0), (3, 0, 1, 2)])


@pytest.mark.parametrize("make_group", [
    lambda: cyclic_group(ff_make(3), 4),
    lambda: klein_group(ff_make(2)),
    lambda: symmetric_group_3(FieldCtx.rationals()),
], ids=["Z4-F3", "klein-F2", "S3-QQ"])
def test_checked_regular_rep_is_still_the_left_translations(make_group):
    group = make_group()
    rep = regular_rep(group)
    assert [m.permutation() for m in rep.matrices] == \
        [group.left_translation(g) for g in range(group.order)]
    assert rep.verify_homomorphism()


@pytest.mark.parametrize("make_rep", [
    lambda: gl2_test_module(2, 2).rep,
    lambda: sym_power_rep(gn_module(3, 1)[1], 2),
], ids=["gl2-2-2", "vandermonde-S2-p3"])
def test_checked_permutation_basis_action_is_still_its_perms(make_rep):
    rep = make_rep()
    pi = _permutation_rep(rep)
    assert pi is not rep
    assert [tuple(m.permutation()) for m in pi.matrices] == \
        [tuple(p) for p in rep.permutation_basis().perms]
    assert pi.verify_homomorphism()


# -- permutation bases ---------------------------------------------------------------

def test_permutation_basis_of_permutation_rep_is_standard():
    f2 = ff_make(2)
    reg = regular_rep(cyclic_group(f2, 4))
    pb = reg.permutation_basis()
    assert pb is not None
    assert pb.basis_matrix.permutation() is not None
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
    assert [len(s) for s in pb.orbit_slices] == [3]


TAMPER_FIELDS = pytest.mark.parametrize(
    "ctx", [ff_make(2), ff_make(3), FieldCtx.rationals()], ids=["F2", "F3", "QQ"])


@TAMPER_FIELDS
@pytest.mark.parametrize("a, b", [(1, 2), (2, 3)])
def test_permutation_basis_refuses_a_representation_that_is_not_a_homomorphism(ctx, a, b):
    """Z/4 with rho(g^a) and rho(g^b) exchanged: every rho(g) still permutes
    the basis, so no column lookup would fail; the constructor refuses the
    representation before any basis is searched."""
    with pytest.raises(GroupMismatch, match="not a homomorphism"):
        find_permutation_basis(z4_with_swapped_powers(ctx, a, b))


@TAMPER_FIELDS
def test_permutation_basis_accepts_a_swap_that_is_an_automorphism(ctx):
    """Exchanging rho(g) and rho(g^3) composes rho with inversion, an
    automorphism of Z/4, so the result is a homomorphism and keeps its basis."""
    pb = find_permutation_basis(z4_with_swapped_powers(ctx, 1, 3))
    assert pb is not None and pb.is_free() and pb.is_transitive()


@TAMPER_FIELDS
@pytest.mark.parametrize("image", [
    pytest.param([[1, 1], [0, 0]], id="repeated-column"),
    pytest.param([[0, 2], [1, 0]], id="missing-column"),
])
def test_permutation_basis_refuses_a_column_that_is_not_one_basis_vector(ctx, image):
    """Z/2 with rho(g) singular, or with rho(g)^2 = 2: rho(g) B would repeat
    e_0, or hold (2, 0), which is no basis vector.  Neither squares to the
    identity, so the constructor refuses both before any basis is searched."""
    group = cyclic_group(ctx, 2)
    with pytest.raises(GroupMismatch, match="not a homomorphism"):
        Representation(group, [group.elements[0], Matrix.from_ints(ctx, image)])


@pytest.mark.parametrize("make_rep", [
    lambda: gl2_test_module(2, 2).rep,
    lambda: sym_power_rep(gn_module(3, 1)[1], 2),
], ids=["gl2-2-2", "vandermonde-S2-p3"])
def test_permutation_basis_reads_seed_orbits_from_columns(monkeypatch, make_rep):
    """rho(g) e_j is column j of rho(g): the search applies no matrix."""
    rep = make_rep()

    def no_apply(*args):
        raise AssertionError("a matrix was applied to a seed")
    monkeypatch.setattr(Matrix, "apply", no_apply)
    pb = find_permutation_basis(rep)
    assert pb is not None and pb.is_free()


def _orbit_search_by_rank(rep):
    """find_permutation_basis' greedy order with no shortcut: the distinct
    columns j of the matrices, largest orbit first (ties in seed order), each
    accepted when it raises the rank of those before by its own size."""
    ctx, dim = rep.ctx, rep.dim
    orbits = sorted((list(dict.fromkeys(tuple(row[j] for row in m.rows)
                                        for m in rep.matrices)) for j in range(dim)),
                    key=lambda orbit: -len(orbit))
    accepted, slices = [], []
    for orbit in orbits:
        vectors = [[Scalar(ctx, v) for v in vec] for vec in accepted + orbit]
        if len(vectors) <= dim and rank(vectors, dim, ctx) == len(vectors):
            slices.append(range(len(accepted), len(vectors)))
            accepted += orbit
    return accepted, slices


REGULAR_REP_CASES = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (5, 2)]


@pytest.mark.parametrize("make_rep", [
    *(pytest.param(lambda p=p, n=n: sym_power_rep(gn_module(p, n)[1], p**n - 1),
                   id=f"regular-rep-p{p}-n{n}") for p, n in REGULAR_REP_CASES),
    pytest.param(lambda: gl2_test_module(2, 2).rep, id="gl2-2-2"),
])
def test_permutation_basis_is_the_search_without_the_support_rule(make_rep):
    """Orbits on fewer coordinates than vectors are skipped without elimination;
    they would fail the elimination, so the basis is the plain search's."""
    rep = make_rep()
    pb = find_permutation_basis(rep)
    accepted, slices = _orbit_search_by_rank(rep)
    assert pb.basis_matrix.rows == tuple(zip(*accepted))
    assert pb.orbit_slices == slices
    # rho(g) b_j = b_perms[g][j], one permutation per g as B is invertible
    index = {vec: k for k, vec in enumerate(accepted)}
    assert pb.perms == [tuple(index[col] for col in zip(*(m * pb.basis_matrix).rows))
                        for m in rep.matrices]


@pytest.mark.parametrize("make_rep", [
    pytest.param(lambda: regular_rep(klein_group(ff_make(2))), id="klein-regular"),
    pytest.param(lambda: symmetric_group_3(ff_make(3)).natural_rep(), id="S3-F3"),
    pytest.param(lambda: regular_rep(symmetric_group_3(FieldCtx.rationals())), id="S3-QQ-regular"),
    pytest.param(lambda: sym_power_rep(gn_module(3, 2)[1], 8), id="regular-rep-p3-n2"),
    pytest.param(lambda: gl2_test_module(2, 2).rep, id="gl2-2-2"),
])
def test_permutation_basis_extends_generator_perms_along_the_tree(monkeypatch, make_rep):
    """Only the |S| products rho(s) B are formed, and the perms extended
    along the closure tree equal a per-element lookup of rho(g) B's columns
    among the basis vectors."""
    rep = make_rep()
    mul = Matrix.__mul__
    products = []
    monkeypatch.setattr(Matrix, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    pb = find_permutation_basis(rep)
    assert len(products) == len(rep.group.generator_indices) < rep.group.order
    monkeypatch.undo()
    index = {vec: k for k, vec in enumerate(zip(*pb.basis_matrix.rows))}
    assert pb.perms == [tuple(index[col] for col in zip(*(m * pb.basis_matrix).rows))
                        for m in rep.matrices]


def test_permutation_basis_clones_only_for_orbits_that_can_be_independent(monkeypatch):
    """S^24 of the F_25 translation module: the orbit of X^(24-j)Y^j lies on
    j + 1 coordinates, so only the seed Y^24's orbit is tried on a clone
    (the plain search clones 24 times, 23 of them in vain)."""
    clone = _GenericEliminator.clone
    calls = []
    monkeypatch.setattr(_GenericEliminator, "clone",
                        lambda self: calls.append(1) or clone(self))
    pb = find_permutation_basis(sym_power_rep(gn_module(5, 2)[1], 24))
    assert pb is not None and pb.is_free() and pb.is_transitive()
    assert len(calls) == 1


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


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (5, 3)])
def test_lifts_re_tag_to_the_coefficient_embedding(p, n):
    """A lift equals the entrywise embedding a -> from_coeffs((a,)), for a
    scalar, a matrix and a representation, and shares the source rows."""
    small, big = ff_make(p), ff_make(p, n)
    for a in small.enumerate():
        assert lift(a, big) == big.from_coeffs((a.val,))
    rep = MatrixGroup.closure([Matrix.from_ints(small, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
                               Matrix.from_ints(small, [[1, 0, 2], [0, 1, 0], [0, 0, 1]])]
                              ).natural_rep()
    lifted = rep.lift(big)
    for m, image in zip(rep.matrices + rep.group.elements,
                        lifted.matrices + lifted.group.elements):
        oracle = Matrix(big, [[big.from_coeffs((m[i, j].val,)) for j in range(m.ncols)]
                              for i in range(m.nrows)])
        assert lift_matrix(m, big) == image == oracle
        assert image.rows is m.rows
    assert lifted.group.index == rep.group.index
    assert lifted.verify_homomorphism()


def test_closure_makes_no_scalar(monkeypatch):
    """Closure multiplies and indexes raw rows only."""
    gens = gn_module(2, 4)[0].generators
    made = count_scalars(monkeypatch)
    group = MatrixGroup.closure(gens)
    assert made[0] == 0
    assert group.order == 16
