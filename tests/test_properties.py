"""Cross-cutting property suites: action laws, orbit-sum spanning, fast/slow
epsilon agreement, subgroup monotonicity, Reynolds cross-checks, and report
determinism."""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from nullcone_lab.constructions import gl2_test_module, gn_module, va_translation_matrix
from nullcone_lab import invariants
from nullcone_lab.fields import FieldCtx, Scalar, ff_make
from nullcone_lab.groups import (MatrixGroup, Representation, find_permutation_basis,
                                 regular_rep, sym_power_rep)
from nullcone_lab.invariants import (
    _epsilon_by_spaces,
    _orbit_product_invariant,
    _permutation_rep,
    _verify_invariant,
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
)
from nullcone_lab.linalg import Matrix, _make_eliminator, kernel, rank
from nullcone_lab.poly import (Polynomial, _basis_index, _exponent_basis, mono_basis,
                               substitution_images)
from nullcone_lab.errors import CapExceeded, VanishesAtPoint


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


# -- orbit sums span the invariants of permutation modules -------------------------

@pytest.mark.parametrize("make_group,p", [
    (lambda: cyclic_group(ff_make(2), 2), 2),
    (lambda: cyclic_group(ff_make(2), 4), 2),
    (lambda: klein_group(ff_make(2)), 2),
    (lambda: cyclic_group(ff_make(3), 3), 3),
    (lambda: cyclic_group(ff_make(5), 5), 5),
])
def test_orbit_sums_span_invariants(make_group, p):
    group = make_group()
    rep = regular_rep(group)
    for d in range(1, 5):
        ncols = len(mono_basis(rep.dim, d))
        vectors = []
        seen = set()
        for m in mono_basis(rep.dim, d):
            total, _ = orbit_sum(rep, m)
            key = tuple(sorted((e, c.val) for e, c in total.terms.items()))
            if key not in seen:
                seen.add(key)
                vectors.append(total.coeff_vector(d))
        space = invariant_space(rep, d)
        assert rank(vectors, ncols, rep.ctx) == space.dim


def test_fixed_point_evaluation_law():
    """O(m)(v) = |orbit| * m(v) exactly, at fixed points of permutation reps."""
    f3 = ff_make(3)
    rep = regular_rep(cyclic_group(f3, 3))
    v = [f3.scalar(2)] * 3  # fixed
    for m in mono_basis(3, 3):
        total, size = orbit_sum(rep, m)
        mono = Polynomial(f3, m.nvars, {m.exps: f3.one})
        assert total.evaluate(v) == f3.scalar(size) * mono.evaluate(v)


# -- fast path vs slow path ------------------------------------------------------------

def _free_instances():
    out = []
    for p, k in ((2, 2), (2, 4), (3, 3), (5, 5)):
        ctx = ff_make(p)
        out.append((f"Z{k}-regular", regular_rep(cyclic_group(ctx, k)), p))
    out.append(("klein-regular", regular_rep(klein_group(ff_make(2))), 2))
    for p, n in ((2, 1), (3, 1)):
        m = gl2_test_module(p, n)
        out.append((f"gl2-{p}-{n}", m.rep, p))
    return out


def test_epsilon_fast_slow_agreement_on_free_modules():
    """On every free-module instance with p^n <= 9, the permutation-basis
    shortcut and the generic linear-algebra path return identical values."""
    for label, rep, p in _free_instances():
        assert rep.permutation_basis() is not None, label
        ctx = rep.ctx
        basis = fixed_point_space(rep)
        elems = ctx.enumerate()
        import itertools
        for coeffs in itertools.product(elems, repeat=len(basis)):
            if all(c.is_zero() for c in coeffs):
                continue
            v = [ctx.zero] * rep.dim
            for c, b in zip(coeffs, basis):
                v = [acc + c * x for acc, x in zip(v, b)]
            dmax = rep.group.order
            fast = epsilon(rep, v, dmax)
            slow = _epsilon_by_spaces(rep, v, dmax)
            assert fast.value == slow.value, (label, [str(s) for s in v])


# -- lower degrees in permutation coordinates -------------------------------------------

def _permutation_modules():
    f4 = ff_make(2, 2)
    return {
        "gl2-2-1": gl2_test_module(2, 1).rep,
        "gl2-3-1": gl2_test_module(3, 1).rep,
        "gn-2-1": gn_module(2, 1)[1],
        "Z4-regular-F4": regular_rep(cyclic_group(f4, 4)),
    }


PERMUTATION_MODULES = _permutation_modules()


@st.composite
def module_points(draw, fixed=None):
    """A permutation-basis module and a point of it: a random combination of
    the fixed space, or a random vector (rarely fixed)."""
    label = draw(st.sampled_from(sorted(PERMUTATION_MODULES)))
    rep = PERMUTATION_MODULES[label]
    elems = rep.ctx.enumerate()
    if fixed if fixed is not None else draw(st.booleans()):
        basis = fixed_point_space(rep)
        coeffs = draw(st.lists(st.sampled_from(elems), min_size=len(basis),
                               max_size=len(basis)))
        v = [rep.ctx.zero] * rep.dim
        for c, b in zip(coeffs, basis):
            v = [acc + c * x for acc, x in zip(v, b)]
    else:
        v = draw(st.lists(st.sampled_from(elems), min_size=rep.dim, max_size=rep.dim))
    return label, rep, v


@settings(max_examples=60, deadline=None)
@given(case=module_points(), value=st.integers(1, 4))
def test_lower_degree_routes_agree(case, value):
    """"Every invariant of degree < value vanishes at v" reads the same on the
    x-coordinate spaces at v, on pi's spaces at w = B^-1 v, and on orbit
    sums at w."""
    label, rep, v = case
    x_route = all(f.evaluate(v).is_zero() for d in range(1, value)
                  for f in invariant_space(rep, d).basis)
    w = rep.permutation_basis().coordinates(v)
    pi_route = not _epsilon_by_spaces(_permutation_rep(rep), w, value - 1).determined
    assert pi_route == x_route, label
    assert orbit_sums_vanish(rep, v, value) == x_route, label


@settings(max_examples=40, deadline=None)
@given(case=module_points(fixed=True), data=st.data())
def test_tampered_basis_inverse_trips_the_coordinate_check(case, data):
    """Adding row j of B^-1 to row i changes w_i whenever w_j != 0, so B w
    no longer gives v back; epsilon's fast path stops there."""
    label, rep, v = case
    pb = find_permutation_basis(rep)  # a fresh basis, not rep's cached one
    w = pb.coordinates(v)
    support = [k for k, s in enumerate(w) if not s.is_zero()]
    assume(support)
    j = data.draw(st.sampled_from(support))
    i = data.draw(st.sampled_from([k for k in range(rep.dim) if k != j]))
    rows = [[Scalar(rep.ctx, a) for a in r] for r in pb.basis_inverse.rows]
    rows[i] = [a + b for a, b in zip(rows[i], rows[j])]
    pb.basis_inverse = Matrix(rep.ctx, rows)
    with pytest.raises(AssertionError, match="do not map back"):
        pb.coordinates(v)
    fresh = Representation(rep.group, rep.matrices)
    fresh._perm_basis = pb
    with pytest.raises(AssertionError, match="do not map back"):
        epsilon(fresh, v, rep.group.order)


def test_permutation_rep_is_rep_for_the_standard_basis():
    for label, rep in PERMUTATION_MODULES.items():
        pb = rep.permutation_basis()
        pi = _permutation_rep(rep)
        assert (pi is rep) == pb.basis_matrix.is_identity(), label
        assert _permutation_rep(rep) is pi, label
        assert pi.group is rep.group
        assert [m.permutation() for m in pi.matrices] == [list(p) for p in pb.perms]
    assert _permutation_rep(PERMUTATION_MODULES["Z4-regular-F4"]) \
        is PERMUTATION_MODULES["Z4-regular-F4"]


# -- subgroup monotonicity ---------------------------------------------------------------

def test_epsilon_subgroup_monotonicity_va():
    """epsilon(H, v) <= epsilon(G, v) for H <= G: every G-invariant is an
    H-invariant.  Checked for U_1 <= U_2 on the twisted 3-dim module."""
    f4 = ff_make(2, 2)
    u = lambda t: va_translation_matrix(f4, t, 2)
    big = MatrixGroup.closure([u(f4.one), u(f4.generator())])
    small = big.subgroup([u(f4.one)])
    rep_g = big.natural_rep()
    rep_h = rep_g.restrict(small)
    rng = random.Random(424)
    elems = f4.enumerate()
    for _ in range(25):
        v = [rng.choice(elems) for _ in range(3)]
        if all(s.is_zero() for s in v):
            continue
        eg = epsilon(rep_g, v, 4)
        eh = epsilon(rep_h, v, 4)
        if eg.determined:
            assert eh.determined and eh.value <= eg.value


def test_epsilon_subgroup_monotonicity_z2_in_z4():
    f2 = ff_make(2)
    z4 = cyclic_group(f2, 4)
    reg = regular_rep(z4)
    z2 = z4.subgroup([z4.elements[z4.mul(1, 1)]])
    restricted = reg.restrict(z2)
    import itertools
    for bits in itertools.product((0, 1), repeat=4):
        if not any(bits):
            continue
        v = [f2.scalar(b) for b in bits]
        eg = epsilon(reg, v, 4)
        eh = epsilon(restricted, v, 4)
        if eg.determined:
            assert eh.determined and eh.value <= eg.value


# -- Reynolds cross-check -------------------------------------------------------------------

@pytest.mark.parametrize("ctx_maker,k", [
    (FieldCtx.rationals, 2),
    (FieldCtx.rationals, 3),
    (lambda: ff_make(2), 3),  # |Z3| = 3 is invertible in characteristic 2
    (lambda: ff_make(5), 3),
])
def test_reynolds_images_span_invariant_space(ctx_maker, k):
    ctx = ctx_maker()
    rep = regular_rep(cyclic_group(ctx, k))
    for d in (1, 2, 3):
        ncols = len(mono_basis(rep.dim, d))
        vectors = [reynolds(rep, Polynomial(ctx, m.nvars, {m.exps: ctx.one})).coeff_vector(d)
                   for m in mono_basis(rep.dim, d)]
        assert rank(vectors, ncols, ctx) == invariant_space(rep, d).dim


# -- the shared substitution routine against Polynomial products -------------------------

SUBST_FIELDS = [ff_make(2), ff_make(2, 2), ff_make(5), FieldCtx.rationals()]


def _nonzero_elements(ctx):
    if ctx.is_finite:
        return [s for s in ctx.enumerate() if not s.is_zero()]
    return [ctx.scalar(Fraction(a, b)) for a in (-3, -1, 1, 2) for b in (1, 3)]


@st.composite
def field_matrix_poly(draw):
    """A field, a square matrix whose rows have uneven densities (so the
    sparsest-form peel order differs from index order), and a random
    non-homogeneous polynomial."""
    ctx = draw(st.sampled_from(SUBST_FIELDS))
    n = draw(st.integers(1, 4))
    nonzero = _nonzero_elements(ctx)
    rows = []
    for _ in range(n):
        support = draw(st.sets(st.integers(0, n - 1), max_size=n))
        rows.append([draw(st.sampled_from(nonzero)) if j in support else ctx.zero
                     for j in range(n)])
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * n),
                                 st.sampled_from([ctx.zero] + nonzero), max_size=6))
    return ctx, Matrix(ctx, rows), Polynomial(ctx, n, terms)


def _linear_form(ctx, coeffs):
    """The form sum c_j x_j of a row of raw matrix values."""
    n = len(coeffs)
    return Polynomial(ctx, n, {tuple(int(k == j) for k in range(n)): Scalar(ctx, c)
                               for j, c in enumerate(coeffs)})


@settings(max_examples=80, deadline=None)
@given(case=field_matrix_poly())
def test_substitute_linear_matches_substitute(case):
    ctx, m, f = case
    n = m.nrows
    row_forms = [_linear_form(ctx, row) for row in m.rows]
    for g in (f, Polynomial.zero(ctx, n), Polynomial.constant(ctx, n, ctx.scalar(3))):
        assert g.substitute_linear(m) == g.substitute(row_forms)


@settings(max_examples=40, deadline=None)
@given(case=field_matrix_poly(), d=st.integers(0, 3))
def test_sym_power_columns_are_products_of_column_forms(case, d):
    ctx, m, _ = case
    n = m.nrows
    # conjugate a cyclic shift group by L*U, an invertible matrix with the
    # uneven rows of m, so the representing matrices are not permutations
    one, zero = ctx.one, ctx.zero
    lower = Matrix(ctx, [[m[i, j] if j < i else (one if j == i else zero)
                          for j in range(n)] for i in range(n)])
    upper = Matrix(ctx, [[m[i, j] if j > i or (j == i and not m[i, j].is_zero())
                          else (one if j == i else zero)
                          for j in range(n)] for i in range(n)])
    p = lower * upper
    group = cyclic_group(ctx, n)
    rep = Representation(group, [p * g * p.inverse() for g in group.elements])
    sym = sym_power_rep(rep, d)
    basis = mono_basis(n, d)
    for g in range(group.order):
        mat = rep.matrices[g]
        col_forms = [_linear_form(ctx, col) for col in zip(*mat.rows)]
        for k, mono in enumerate(basis):
            product = Polynomial.one(ctx, n)
            for j, e in enumerate(mono.exps):
                product = product * col_forms[j] ** e
            assert [sym.matrices[g][r, k] for r in range(len(basis))] == \
                product.coeff_vector(d)


# scaled rows carry z in F_4, -1 in F_3 and QQ, 2/3 in QQ (_nonzero_elements)
MONOMIAL_FIELDS = [ff_make(2), ff_make(2, 2), ff_make(3), FieldCtx.rationals()]


@st.composite
def monomial_matrix_poly(draw):
    """A field, a matrix with exactly one nonzero per row (a permutation
    matrix, a scaled one, or a singular one where two rows hit the same
    column), and a random non-homogeneous polynomial."""
    ctx = draw(st.sampled_from(MONOMIAL_FIELDS))
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["permutation", "scaled", "singular"]))
    targets = draw(st.permutations(range(n)))
    if kind == "singular" and n > 1:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        targets[i] = targets[j]
    scalars = [ctx.one] if kind == "permutation" else _nonzero_elements(ctx)
    rows = []
    for t in targets:
        c = draw(st.sampled_from(scalars))
        rows.append([c if j == t else ctx.zero for j in range(n)])
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * n),
                                 st.sampled_from([ctx.zero] + _nonzero_elements(ctx)),
                                 max_size=6))
    return ctx, Matrix(ctx, rows), Polynomial(ctx, n, terms)


@settings(max_examples=120, deadline=None)
@given(case=monomial_matrix_poly(), d=st.integers(0, 3))
def test_monomial_matrix_shortcut_matches_substitute(case, d):
    ctx, m, f = case
    n = m.nrows
    row_forms = [_linear_form(ctx, row) for row in m.rows]
    assert f.substitute_linear(m) == f.substitute(row_forms)
    # sym_power_rep substitutes the transpose of each matrix and reads no
    # group law, so a group of order two carries m^T to its one non-identity
    # element, and column k is basis monomial k under x_i -> sum_j m[i][j] x_j;
    # m^T need not square to the identity, so the law check is skipped
    group = MatrixGroup.closure([Matrix.from_ints(ctx, [[0, 1], [1, 0]])])
    rep = Representation(group, [Matrix.identity(ctx, n), m.transpose()], _trusted=True)
    sym = sym_power_rep(rep, d).matrices[1]
    basis = mono_basis(n, d)
    for k, mono in enumerate(basis):
        image = Polynomial(ctx, mono.nvars, {mono.exps: ctx.one}).substitute(row_forms)
        assert [sym[r, k] for r in range(len(basis))] == image.coeff_vector(d)


# -- the fast path's orbit-product certificate ----------------------------------------------

# generators of a Sylow p-subgroup of S_4 (p = 2, order 8) and of S_3 (p = 3),
# each as the images of 0..3
SYLOW_GENERATORS = {2: [(1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)], 3: [(1, 2, 0, 3)]}


@st.composite
def monomial_p_groups(draw):
    """D Q D^-1 for Q inside a conjugate of a Sylow p-subgroup of S_dim and
    a diagonal D over F_2, F_3 or F_4: a monomial p-group in its own
    characteristic whose entries need not be 0 and 1."""
    ctx = draw(st.sampled_from([ff_make(2), ff_make(3), ff_make(2, 2)]))
    dim = draw(st.integers(ctx.p, 4))
    pi = draw(st.permutations(range(dim)))
    d = [draw(st.sampled_from(ctx.enumerate()[1:])) for _ in range(dim)]
    sigmas = [s for s in SYLOW_GENERATORS[ctx.p]  # those moving only 0..dim-1
              if s[dim:] == tuple(range(dim, 4))]
    chosen = [s for s in sigmas if draw(st.booleans())] or sigmas[:1]
    gens = []
    for sigma in chosen:
        rows = [[ctx.zero] * dim for _ in range(dim)]
        for j in range(dim):  # pi sigma pi^-1 sends pi[j] to pi[sigma[j]]
            src, dst = pi[j], pi[sigma[j]]
            rows[dst][src] = d[dst] * d[src].inverse()
        gens.append(Matrix(ctx, rows))
    return MatrixGroup.closure(gens)


def _form_product(ctx, forms):
    product = Polynomial.one(ctx, len(forms[0]))
    for row in forms:
        product = product * _linear_form(ctx, row)
    return product


@settings(max_examples=60, deadline=None)
@given(group=monomial_p_groups(), data=st.data())
def test_orbit_product_certificate_is_sound(group, data):
    """The product of linear forms over a whole orbit passes the certificate,
    and whenever a (possibly tampered) factor list passes, its product is
    invariant by polynomial substitution."""
    ctx = group.ctx
    assert group.is_p_group(ctx.p)
    rep = group.natural_rep()
    pb = rep.permutation_basis()
    assert pb is not None
    rows = pb.basis_inverse.rows
    for slc in pb.orbit_slices:
        forms = [rows[k] for k in slc]
        assert _orbit_product_invariant(rep, forms)
        assert _verify_invariant(rep, _form_product(ctx, forms))
    # the orbit of an arbitrary nonzero form, as a set of row vectors
    elems = ctx.enumerate()
    vec = data.draw(st.lists(st.sampled_from(elems), min_size=rep.dim,
                             max_size=rep.dim).filter(
                                 lambda v: any(not s.is_zero() for s in v)))
    forms = list(dict.fromkeys((Matrix(ctx, [vec]) * m).rows[0] for m in rep.matrices))
    assert _orbit_product_invariant(rep, forms)
    assert _verify_invariant(rep, _form_product(ctx, forms))
    # tamper with one factor of a slot orbit
    slc = data.draw(st.sampled_from(pb.orbit_slices))
    forms = [rows[k] for k in slc]
    pos = data.draw(st.integers(0, len(forms) - 1))
    how = data.draw(st.sampled_from(["replace", "scale", "drop", "duplicate"]))
    if how == "replace":
        forms[pos] = rows[data.draw(st.integers(0, rep.dim - 1))]
    elif how == "scale":
        c = data.draw(st.sampled_from([c for c in elems[1:] if not c.is_one()]
                                      or [ctx.one]))
        forms[pos] = tuple((c * Scalar(ctx, v)).val for v in forms[pos])
    elif how == "drop":
        del forms[pos]
    else:
        forms.append(forms[pos])
    if forms and _orbit_product_invariant(rep, forms):
        assert _verify_invariant(rep, _form_product(ctx, forms))


# -- epsilon is constant on F*-lines ---------------------------------------------------------

@st.composite
def small_modules(draw):
    """The regular representation of a 2-group over F_4 (a permutation
    module), or the natural module of a small group over F_3, F_4, F_5 or
    F_9 generated by unitriangular, diagonal or monomial matrices."""
    if draw(st.booleans()):
        f4 = ff_make(2, 2)
        make = draw(st.sampled_from([lambda: cyclic_group(f4, 2),
                                     lambda: cyclic_group(f4, 4),
                                     lambda: klein_group(f4)]))
        return regular_rep(make())
    ctx = draw(st.sampled_from([ff_make(3), ff_make(2, 2), ff_make(5), ff_make(3, 2)]))
    dim = draw(st.integers(1, 3))
    elems = ctx.enumerate()
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["unitriangular", "diagonal", "monomial"]))
        perm = draw(st.permutations(range(dim))) if kind == "monomial" else range(dim)
        rows = [[ctx.zero] * dim for _ in range(dim)]
        for i, j in enumerate(perm):
            rows[i][j] = (ctx.one if kind == "unitriangular"
                          else draw(st.sampled_from(elems[1:])))
            if kind == "unitriangular":
                rows[i][i + 1:] = draw(st.lists(st.sampled_from(elems),
                                                min_size=dim - i - 1, max_size=dim - i - 1))
        gens.append(Matrix(ctx, rows))
    try:
        group = MatrixGroup.closure(gens, cap=64)
    except CapExceeded:
        assume(False)
    return group.natural_rep()


def _fixed_point(draw, rep, elems):
    """A combination of the fixed-space basis with coefficients from elems."""
    basis = fixed_point_space(rep)
    assume(basis)
    coeffs = draw(st.lists(st.sampled_from(elems), min_size=len(basis),
                           max_size=len(basis)))
    v = [rep.ctx.zero] * rep.dim
    for c, b in zip(coeffs, basis):
        v = [acc + c * x for acc, x in zip(v, b)]
    return v


def _fixed_or_any_point(data, rep):
    """A point of the module, from its fixed space half the time, so that
    the fast path runs on the permutation modules."""
    elems = rep.ctx.enumerate()
    if data.draw(st.booleans()):
        return _fixed_point(data.draw, rep, elems)
    return data.draw(st.lists(st.sampled_from(elems), min_size=rep.dim,
                              max_size=rep.dim))


@settings(max_examples=60, deadline=None)
@given(rep=small_modules(), data=st.data(), dmax=st.integers(1, 4))
def test_epsilon_is_constant_on_lines(rep, data, dmax):
    """epsilon(c v) = epsilon(v) with the same witness for every c in F*: the
    lemma behind one epsilon call per line in sigma and delta.  Points are
    drawn from the fixed space half the time, so the fast path runs on the
    permutation modules."""
    v = _fixed_or_any_point(data, rep)
    assume(any(not s.is_zero() for s in v))
    c = data.draw(st.sampled_from(rep.ctx.enumerate()[2:]))  # a unit other than 1
    base, scaled = epsilon(rep, v, dmax), epsilon(rep, [c * s for s in v], dmax)
    assert scaled.value == base.value
    assert str(scaled.witness) == str(base.witness)


# -- fixed-point spaces and their enumeration -------------------------------------------------

@st.composite
def fixed_space_groups(draw):
    """A group over F_2, F_3 or F_4 in dimension 1-4 generated by one or two
    matrices, each unitriangular or monomial after a random reordering of
    the coordinates, so the fixed space's free columns fall anywhere."""
    ctx = draw(st.sampled_from([ff_make(2), ff_make(3), ff_make(2, 2)]))
    dim = draw(st.integers(1, 4))
    elems = ctx.enumerate()
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        order = draw(st.permutations(range(dim)))
        rows = [[ctx.zero] * dim for _ in range(dim)]
        if draw(st.booleans()):
            for i in range(dim):
                rows[order[i]][order[i]] = ctx.one
                for j in range(i + 1, dim):
                    rows[order[i]][order[j]] = draw(st.sampled_from(elems))
        else:
            for i in range(dim):
                rows[order[i]][i] = draw(st.sampled_from(elems[1:]))
        gens.append(Matrix(ctx, rows))
    try:
        return MatrixGroup.closure(gens, cap=64)
    except CapExceeded:
        assume(False)


def span_points(basis, ctx):
    """Every nonzero point sum c_i b_i of the span over a finite field, the
    coefficient tuples c in itertools.product order: the per-point
    reference for delta's enumeration."""
    points = []
    for coeffs in itertools.product(ctx.enumerate(), repeat=len(basis)):
        if any(not c.is_zero() for c in coeffs):
            v = [ctx.zero] * len(basis[0])
            for c, b in zip(coeffs, basis):
                v = [acc + c * x for acc, x in zip(v, b)]
            points.append(v)
    return points


def _fixed_space_by_hand(rep):
    """Kernel of the generators' rho(s) - I, its rows built entry by entry."""
    ctx, dim = rep.ctx, rep.dim
    rows = []
    for g in rep.group.generator_indices:
        m = rep.matrices[g]
        for i in range(dim):
            row = {}
            for j in range(dim):
                entry = m[i, j] - (ctx.one if i == j else ctx.zero)
                if not entry.is_zero():
                    row[j] = entry
            if row:
                rows.append(row)
    return kernel(iter(rows), dim, ctx)


@settings(max_examples=60, deadline=None)
@given(group=fixed_space_groups())
def test_fixed_point_space_is_the_kernel_of_rho_minus_identity(group):
    rep = group.natural_rep()
    basis = fixed_point_space(rep)
    assert basis == _fixed_space_by_hand(rep)
    for b in basis:
        assert all(m.apply(b) == b for m in rep.matrices)


def _rows_by_walk(matrix, d):
    """substitution_constraint_rows built from substitution_images at any
    degree: column c holds the image of the c-th basis monomial, less one
    on the diagonal."""
    ctx, n = matrix.ctx, matrix.nrows
    index = _basis_index(n, d)
    rows = [{} for _ in index]
    for mono, image in substitution_images(matrix, _exponent_basis(n, d)):
        for exps, coeff in image.items():
            rows[index[exps]][index[mono]] = coeff
    for col, row in enumerate(rows):
        row[col] = row.get(col, ctx.zero) - ctx.one
        if row[col].is_zero():
            del row[col]
    return rows


def _assert_degree_one_rows_match_the_walk(matrices):
    for m in matrices:
        direct = list(substitution_constraint_rows(m, 1))
        # the same entries in the same order: the eliminators see one stream
        assert [list(r.items()) for r in direct] == \
            [list(r.items()) for r in _rows_by_walk(m, 1)]


@settings(max_examples=60, deadline=None)
@given(group=fixed_space_groups())
def test_degree_one_rows_read_off_the_matrix_equal_the_walks(group):
    rep = group.natural_rep()
    _assert_degree_one_rows_match_the_walk(
        [*rep.matrices, *map(rep.inverse_matrix, range(group.order))])


def test_degree_one_rows_of_a_64_variable_module_equal_the_walks():
    rep = gl2_test_module(2, 3).rep
    assert rep.dim == 64
    _assert_degree_one_rows_match_the_walk(
        [*rep.matrices, *(m.transpose() for m in rep.matrices)])


_BULK_FIELDS = {"F2": lambda: ff_make(2), "F4": lambda: ff_make(2, 2),
                "F3": lambda: ff_make(3), "F9": lambda: ff_make(3, 2),
                "QQ": FieldCtx.rationals}


def _monomial_matrix(ctx, perm, coeffs):
    """x_i -> coeffs[i] x_perm[i], raw coefficients."""
    return Matrix._raw(ctx, tuple(tuple(coeffs[i] if j == t else ctx._zero
                                        for j in range(len(perm)))
                                  for i, t in enumerate(perm)))


def _assert_rows_match_the_walk(m, d):
    bulk = list(substitution_constraint_rows(m, d))
    # the same entries in the same order: the eliminators see one stream
    assert [list(r.items()) for r in bulk] == [list(r.items()) for r in _rows_by_walk(m, d)]
    return bulk


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(sorted(_BULK_FIELDS)), nvars=st.integers(1, 5),
       d=st.integers(2, 4), units=st.booleans(), data=st.data())
def test_bulk_monomial_rows_equal_the_walks(field, nvars, d, units, data):
    """Rows of a monomial matrix at d >= 2 come from one list of targets;
    drawn with every c_i = 1 (a permutation) or with any nonzero c_i."""
    ctx = _BULK_FIELDS[field]()
    if ctx.is_finite:
        nonzero = st.sampled_from([s.val for s in ctx.enumerate() if s.val])
    else:
        nonzero = st.builds(Fraction, st.integers(1, 4) | st.integers(-4, -1),
                            st.integers(1, 3))
    perm = data.draw(st.permutations(range(nvars)))
    coeffs = [ctx._one if units else data.draw(nonzero) for _ in range(nvars)]
    _assert_rows_match_the_walk(_monomial_matrix(ctx, perm, coeffs), d)


@pytest.mark.parametrize("field,c,d", [
    ("F4", 2, 2), ("F4", 2, 4), ("F3", 2, 3), ("F9", 4, 2), ("F9", 4, 3), ("F9", 4, 4),
    ("QQ", Fraction(2), 2), ("QQ", Fraction(-1, 3), 3)])
def test_bulk_rows_keep_a_fixed_monomials_diagonal_c_minus_one(field, c, d):
    """x0 -> c x0 fixes x0^d with coefficient c^d != 1 (raw 2 in F_4 has
    order 3, in F_3 order 2, raw 4 = z + 1 in F_9 order 8), so its diagonal
    entry c^d - 1 is nonzero and stays in place; x1 and x2 are swapped."""
    ctx = _BULK_FIELDS[field]()
    m = _monomial_matrix(ctx, [0, 2, 1], [c, ctx._one, ctx._one])
    rows = _assert_rows_match_the_walk(m, d)
    cd = Scalar(ctx, c) ** d
    assert not cd.is_one()
    assert rows[0] == {0: cd - ctx.one}


def test_monomial_invariant_spaces_need_no_substitution_walk(monkeypatch):
    """cyclic:p=2,k=4 at degree 3: every constraint row, the generator's and
    the re-check's, comes from the bulk monomial decoder."""
    rep = regular_rep(cyclic_group(ff_make(2), 4))
    expected = invariant_space(regular_rep(cyclic_group(ff_make(2), 4)), 3).basis

    def refuse(*args):
        raise AssertionError("substitution_images walked a monomial matrix")
    monkeypatch.setattr(invariants, "substitution_images", refuse)
    assert invariant_space(rep, 3).basis == expected


@settings(max_examples=60, deadline=None)
@given(group=fixed_space_groups())
def test_fixed_space_points_are_enumerated_in_sorted_order(group):
    """The reduced echelon basis makes itertools.product order the sorted
    order, which delta's reports rely on."""
    rep = group.natural_rep()
    basis = fixed_point_space(rep)
    points = span_points(basis, rep.ctx)
    keys = [tuple(s.val for s in v) for v in points]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys) == rep.ctx.cardinality**len(basis) - 1


@settings(max_examples=60, deadline=None)
@given(group=fixed_space_groups())
def test_sigma_at_the_group_order_leaves_no_point_undetermined(group):
    """The norm bound sigma(G, V) <= |G| (Kohls-Kraft): at dmax = |G| every
    nonzero point is separated, here on groups of order <= 8 over F_2, F_3
    and F_4 with at most 255 points."""
    rep = group.natural_rep()
    assume(group.order <= 8 and rep.ctx.cardinality**rep.dim <= 256)
    report = sigma_bounded(rep, group.order, rep.ctx)
    assert report.undetermined_points == []
    assert 1 <= report.value <= group.order


# -- nullcone_status asks epsilon -----------------------------------------------------------

@st.composite
def nullcone_modules(draw):
    """The natural module of a fixed_space_groups group, or the regular
    representation of a small p-group over F_2, F_3 or F_4, whose fixed
    points take epsilon's fast path."""
    if draw(st.booleans()):
        return draw(fixed_space_groups()).natural_rep()
    ctx = draw(st.sampled_from([ff_make(2), ff_make(3), ff_make(2, 2)]))
    kind = draw(st.sampled_from(["cyclic-p", "cyclic-4", "klein"] if ctx.p == 2
                                else ["cyclic-p"]))
    group = {"cyclic-p": lambda: cyclic_group(ctx, ctx.p),
             "cyclic-4": lambda: cyclic_group(ctx, 4),
             "klein": lambda: klein_group(ctx)}[kind]()
    return regular_rep(group)


@settings(max_examples=80, deadline=None)
@given(rep=nullcone_modules(), data=st.data(), dmax=st.integers(0, 4))
def test_nullcone_status_is_out_exactly_when_epsilon_is_determined(rep, data, dmax):
    v = _fixed_or_any_point(data, rep)
    status, report = nullcone_status(rep, v, dmax), epsilon(rep, v, dmax)
    assert (status.verdict == "out") == report.determined
    if report.determined:
        assert status.certificate == report.witness
    else:
        assert status.verdict == "unknown" and status.certificate is None


# -- degree reduction is verified on randomised instances ------------------------------------

def _reduce_by_basis_completion(rep, f, v):
    """The reference construction: complete v to a basis B with standard
    vectors, normalise g(y) = f(By)/f(v), and return y0 + (1/d) times the
    coefficient form of y0^(d-1) in g, written back in x by y = B^-1 x."""
    ctx, n, d = rep.ctx, rep.dim, f.degree()
    value = f.evaluate(v)
    if d == 1:
        return f.scale(value.inverse())
    columns = [v]
    elim = _make_eliminator(ctx, n)
    elim.add_row({i: s for i, s in enumerate(v) if not s.is_zero()})
    for j in range(n):
        if elim.add_row({j: ctx.one}):
            columns.append([ctx.one if i == j else ctx.zero for i in range(n)])
        if len(columns) == n:
            break
    basis_matrix = Matrix(ctx, list(zip(*columns)))
    g = f.substitute_linear(basis_matrix).scale(value.inverse())
    c1 = Polynomial(ctx, n, {(0,) + e[1:]: c for e, c in g.terms.items() if e[0] == d - 1})
    reduced = Polynomial.variable(ctx, n, 0) + c1.scale(ctx.scalar(d).inverse())
    return reduced.substitute_linear(basis_matrix.inverse())


@st.composite
def degree_reduce_cases(draw):
    """(rep, f, v): a group over F_3, F_5, F_9 or Q generated by monomial
    matrices (entries +-1 over Q) or, over a finite field, unitriangular
    ones; a fixed point v; and an invariant f of a degree 1-3 prime to the
    characteristic with f(v) != 0."""
    ctx = draw(st.sampled_from([ff_make(3), ff_make(5), ff_make(3, 2),
                                FieldCtx.rationals()]))
    elems = ctx.enumerate() if ctx.is_finite else [ctx.scalar(c) for c in range(-2, 3)]
    units = [ctx.one, ctx.one] + (elems[1:] if ctx.is_finite else [-ctx.one])
    dim = draw(st.integers(1, 3))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        rows = [[ctx.zero] * dim for _ in range(dim)]
        if ctx.is_finite and draw(st.booleans()):
            for i in range(dim):
                rows[i][i:] = [ctx.one] + draw(st.lists(st.sampled_from(elems),
                                                        min_size=dim - i - 1,
                                                        max_size=dim - i - 1))
        else:
            for i, j in enumerate(draw(st.permutations(range(dim)))):
                rows[i][j] = draw(st.sampled_from(units))
        gens.append(Matrix(ctx, rows))
    try:
        rep = MatrixGroup.closure(gens, cap=64).natural_rep()
    except CapExceeded:
        assume(False)
    v = _fixed_point(draw, rep, elems)
    assume(any(not s.is_zero() for s in v))
    d = draw(st.sampled_from([d for d in (1, 2, 3) if not ctx.is_finite or d % ctx.p]))
    basis = invariant_space(rep, d).basis
    coeffs = draw(st.lists(st.sampled_from(elems), min_size=len(basis),
                           max_size=len(basis)))
    f = Polynomial.zero(ctx, rep.dim)
    for c, b in zip(coeffs, basis):
        f = f + b.scale(c)
    if f.evaluate(v).is_zero():
        # adding a basis vector nonzero at v makes f nonzero there
        f = f + next((b for b in basis if not b.evaluate(v).is_zero()), f)
    assume(not f.evaluate(v).is_zero())
    return rep, f, v


@settings(max_examples=120, deadline=None)
@given(case=degree_reduce_cases())
def test_degree_reduce_matches_the_basis_completion(case):
    rep, f, v = case
    assert degree_reduce(rep, f, v) == _reduce_by_basis_completion(rep, f, v)


@pytest.mark.parametrize("ctx_maker", [FieldCtx.rationals, lambda: ff_make(5)],
                         ids=["QQ", "F5"])
def test_degree_reduce_needs_no_eliminator_inverse_or_substitution(ctx_maker, monkeypatch):
    """The gradient is read off f's terms.  Group elements act through the
    general composition `substitute`, so the invariance checks call none of
    the patched routines either."""
    from nullcone_lab import invariants, linalg
    ctx = ctx_maker()
    rep = cyclic_group(ctx, 3).natural_rep()
    f = Polynomial(ctx, 3, {e: ctx.one for e in [(2, 0, 0), (0, 2, 0), (0, 0, 2)]}) + \
        Polynomial(ctx, 3, {e: ctx.scalar(3) for e in [(1, 1, 0), (0, 1, 1), (1, 0, 1)]})
    v = [ctx.scalar(2)] * 3
    expected = _reduce_by_basis_completion(rep, f, v)

    def act_by_composition(self, i, poly):
        forms = [_linear_form(ctx, row) for row in self.inverse_matrix(i).rows]
        return poly.substitute(forms)

    def forbidden(*args, **kwargs):
        raise AssertionError("degree_reduce used a routine it does not need")
    monkeypatch.setattr(Representation, "act_on_poly", act_by_composition)
    monkeypatch.setattr(invariants, "_make_eliminator", forbidden)
    monkeypatch.setattr(linalg, "_make_eliminator", forbidden)
    monkeypatch.setattr(Matrix, "inverse", forbidden)
    monkeypatch.setattr(Polynomial, "substitute_linear", forbidden)
    assert degree_reduce(rep, f, v) == expected


@settings(max_examples=40, deadline=None)
@given(coeffs=st.lists(st.integers(-4, 4), min_size=3, max_size=3),
       degree=st.sampled_from([2, 3]))
def test_degree_reduce_random_invariants(coeffs, degree):
    qq = FieldCtx.rationals()
    rep = regular_rep(cyclic_group(qq, 2))
    basis = mono_basis(2, degree)
    raw = Polynomial(qq, 2, {m.exps: qq.scalar(c)
                             for m, c in zip(basis, coeffs)})
    f = reynolds(rep, raw)
    v = [qq.one, qq.one]
    if f.is_zero() or f.evaluate(v).is_zero():
        return
    reduced = degree_reduce(rep, f, v)
    assert reduced.degree() == 1
    assert not reduced.evaluate(v).is_zero()
    for g in range(rep.group.order):
        assert rep.act_on_poly(g, reduced) == reduced


def test_degree_reduce_error_on_vanishing_invariant():
    qq = FieldCtx.rationals()
    rep = regular_rep(cyclic_group(qq, 2))
    # (x0 - x1)^2 is swap-invariant and vanishes on the fixed line
    f = Polynomial(qq, 2, {(2, 0): qq.one, (1, 1): qq.scalar(-2),
                           (0, 2): qq.one})
    with pytest.raises(VanishesAtPoint):
        degree_reduce(rep, f, [qq.one, qq.one])


# -- determinism ---------------------------------------------------------------------------------

def test_delta_report_byte_determinism():
    f2 = ff_make(2)
    rep = regular_rep(cyclic_group(f2, 4))
    payloads = set()
    for _ in range(3):
        fresh = regular_rep(cyclic_group(f2, 4))  # fresh caches each time
        payloads.add(json.dumps(delta_bounded(fresh, 4, f2).to_dict(),
                                sort_keys=True))
    assert len(payloads) == 1


def test_invariant_space_basis_canonical_across_generator_order():
    f4 = ff_make(2, 2)
    u = lambda t: va_translation_matrix(f4, t, 2)
    a = MatrixGroup.closure([u(f4.one), u(f4.generator())]).natural_rep()
    b = MatrixGroup.closure([u(f4.generator()), u(f4.one)]).natural_rep()
    for d in (1, 2, 3):
        assert [str(f) for f in invariant_space(a, d).basis] == \
            [str(f) for f in invariant_space(b, d).basis]


# -- normal subgroup inequality instance -----------------------------------------------------------

def test_normal_subgroup_inequality_instance():
    """delta(G) <= delta(N) * delta(G/N) with both deltas computed: 4 <= 2*2."""
    f2 = ff_make(2)
    z4 = cyclic_group(f2, 4)
    reg = regular_rep(z4)
    delta_g = delta_bounded(reg, 4, f2).value
    z2 = z4.subgroup([z4.elements[z4.mul(1, 1)]])
    delta_n = delta_bounded(reg.restrict(z2), 4, f2).value
    assert delta_g == 4 and delta_n == 2
    assert delta_g <= delta_n * 2  # delta of the order-2 quotient group is 2
