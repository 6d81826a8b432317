"""Cross-cutting property suites: action laws, orbit-sum spanning, fast/slow
epsilon agreement, subgroup monotonicity, Reynolds cross-checks, and report
determinism."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from nullcone_lab.constructions import gl2_test_module, gn_module, va_translation_matrix
from nullcone_lab.fields import FieldCtx, ff_enumerate, ff_make
from nullcone_lab.groups import (MatrixGroup, Representation, find_permutation_basis,
                                 regular_rep, sym_power_rep)
from nullcone_lab.invariants import (
    _lower_degrees_vanish,
    _orbit_product_invariant,
    _permutation_rep,
    _verify_invariant,
    degree_reduce,
    delta_bounded,
    epsilon,
    fixed_point_space,
    invariant_space,
    orbit_sum,
    orbit_sums_vanish,
    reynolds,
)
from nullcone_lab.linalg import Matrix, rank
from nullcone_lab.poly import Polynomial, mono_basis
from nullcone_lab.errors import VanishesAtPoint


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
        mono = Polynomial.from_monomial(f3, m)
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
        elems = ff_enumerate(ctx)
        import itertools
        for coeffs in itertools.product(elems, repeat=len(basis)):
            if all(c.is_zero() for c in coeffs):
                continue
            v = [ctx.zero] * rep.dim
            for c, b in zip(coeffs, basis):
                v = [acc + c * x for acc, x in zip(v, b)]
            dmax = rep.group.order
            fast = epsilon(rep, v, dmax, use_fast_path=True)
            slow = epsilon(rep, v, dmax, use_fast_path=False)
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
    x_route = all(s.is_zero() for d in range(1, value)
                  for s in invariant_space(rep, d).evaluate_all(v))
    assert _lower_degrees_vanish(rep, v, value) == x_route, label
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
    rows = [list(r) for r in pb.basis_inverse.rows]
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
    elems = ff_enumerate(f4)
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
        vectors = [reynolds(rep, Polynomial.from_monomial(ctx, m)).coeff_vector(d)
                   for m in mono_basis(rep.dim, d)]
        assert rank(vectors, ncols, ctx) == invariant_space(rep, d).dim


# -- the shared substitution routine against Polynomial products -------------------------

SUBST_FIELDS = [ff_make(2), ff_make(2, 2), ff_make(5), FieldCtx.rationals()]


def _nonzero_elements(ctx):
    if ctx.is_finite:
        return [s for s in ff_enumerate(ctx) if not s.is_zero()]
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
    n = len(coeffs)
    return Polynomial(ctx, n, {tuple(int(k == j) for k in range(n)): c
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
    n = len(forms[0])
    product = Polynomial.one(ctx, n)
    for row in forms:
        product = product * Polynomial(
            ctx, n, {tuple(int(i == j) for i in range(n)): c
                     for j, c in enumerate(row) if not c.is_zero()})
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
    orbit = {}
    for m in rep.matrices:
        image = (Matrix(ctx, [vec]) * m).rows[0]
        orbit.setdefault(tuple(s.val for s in image), image)
    forms = list(orbit.values())
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
        forms[pos] = tuple(c * s for s in forms[pos])
    elif how == "drop":
        del forms[pos]
    else:
        forms.append(forms[pos])
    if forms and _orbit_product_invariant(rep, forms):
        assert _verify_invariant(rep, _form_product(ctx, forms))


# -- degree reduction is verified on randomised instances ------------------------------------

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
