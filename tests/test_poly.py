"""Polynomial ring tests with hand-derived oracles."""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nullcone_lab.errors import ContextMismatch, DimensionMismatch, ParseError
from nullcone_lab.fields import FieldCtx, Scalar, ff_make
from nullcone_lab.linalg import Matrix
from nullcone_lab.poly import (Polynomial, _chain_plan, _exponent_basis, mono_basis,
                              poly_parse, substitution_images)


def P(ctx, nvars, text):
    return poly_parse(ctx, nvars, text)


# -- monomial bases ------------------------------------------------------------

def test_mono_basis_degree_two():
    basis = mono_basis(2, 2)
    assert [str(m) for m in basis] == ["x0^2", "x0*x1", "x1^2"]
    assert all(m.degree == 2 for m in basis)


def test_mono_basis_counts():
    # oracle: stars and bars
    assert len(mono_basis(16, 4)) == math.comb(19, 4) == 3876
    assert len(mono_basis(3, 5)) == math.comb(7, 5)


def test_mono_basis_degree_zero():
    assert [str(m) for m in mono_basis(3, 0)] == ["1"]


def test_mono_basis_is_graded_lex_sorted():
    basis = mono_basis(3, 3)
    assert len(set(m.exps for m in basis)) == len(basis)
    for a, b in zip(basis, basis[1:]):
        assert a.exps > b.exps  # same degree: descending lex


def _recursive_exponent_basis(nvars, d):
    """The graded-lex exponents by recursion on the first exponent."""
    if nvars == 1:
        return ((d,),)
    return tuple((first,) + rest for first in range(d, -1, -1)
                 for rest in _recursive_exponent_basis(nvars - 1, d - first))


def test_exponent_basis_equals_the_recursive_order():
    for nvars in range(1, 9):
        for d in range(7):
            assert _exponent_basis(nvars, d) == _recursive_exponent_basis(nvars, d)


def test_exponent_basis_of_many_variables():
    """Far past the recursion limit in the number of variables."""
    basis = _exponent_basis(2000, 1)
    assert len(basis) == 2000
    assert basis[0] == (1,) + (0,) * 1999 and basis[-1] == (0,) * 1999 + (1,)


# -- evaluation -------------------------------------------------------------------

def test_eval_va_generator_at_witness_point():
    # (x2*x0 - x1^2)(0,1,0) = -1 = 1 over F_2
    f2 = ff_make(2)
    f = P(f2, 3, "x0*x2 + x1^2")
    v = [f2.zero, f2.one, f2.zero]
    assert f.evaluate(v) == f2.one


def test_eval_constant():
    qq = FieldCtx.rationals()
    one = Polynomial.one(qq, 4)
    assert one.evaluate([qq.scalar(9)] * 4) == qq.one


def test_eval_ga2_witness():
    # (x1^3 - 3 x0 x1 x2 + 3 x0^2 x3)(0,1,0,0) = 1
    qq = FieldCtx.rationals()
    f = P(qq, 4, "x1^3 + -3*x0*x1*x2 + 3*x0^2*x3")
    v = [qq.zero, qq.one, qq.zero, qq.zero]
    assert f.evaluate(v) == qq.one


def test_eval_is_ring_homomorphism():
    f5 = ff_make(5)
    rng = random.Random(11)
    elems = f5.enumerate()
    for _ in range(10):
        f = Polynomial(f5, 2, {(rng.randint(0, 2), rng.randint(0, 2)): rng.choice(elems[1:])
                               for _ in range(3)})
        g = Polynomial(f5, 2, {(rng.randint(0, 2), rng.randint(0, 2)): rng.choice(elems[1:])
                               for _ in range(3)})
        v = [rng.choice(elems), rng.choice(elems)]
        assert (f + g).evaluate(v) == f.evaluate(v) + g.evaluate(v)
        assert (f * g).evaluate(v) == f.evaluate(v) * g.evaluate(v)


# -- substitution --------------------------------------------------------------------

def test_substitute_identity():
    f4 = ff_make(2, 2)
    f = P(f4, 2, "x0^2 + (z)*x0*x1")
    assert f.substitute_linear(Matrix.identity(f4, 2)) == f


def test_substitute_shear():
    # x1 under [[1,0],[1,1]] over F_2: x1 -> x0 + x1
    f2 = ff_make(2)
    m = Matrix.from_ints(f2, [[1, 0], [1, 1]])
    assert Polynomial.variable(f2, 2, 1).substitute_linear(m) == P(f2, 2, "x0 + x1")


def test_substitute_dilation():
    # x0^2 under diag(2) over F_5 becomes 4*x0^2
    f5 = ff_make(5)
    m = Matrix.from_ints(f5, [[2, 0], [0, 1]])
    assert P(f5, 2, "x0^2").substitute_linear(m) == P(f5, 2, "4*x0^2")


def test_monomial_matrix_images_are_single_terms():
    # x0 -> 2*x1, x1 -> x1, x2 -> 2*x0 over F_3: x0^2*x1*x2 -> 2^2*2 x0*x1^3 = 2*x0*x1^3
    f3 = ff_make(3)
    m = Matrix.from_ints(f3, [[0, 2, 0], [0, 1, 0], [2, 0, 0]])
    images = dict(substitution_images(m, [(2, 1, 1), (0, 3, 0), (1, 0, 0)]))
    assert images == {(2, 1, 1): {(1, 3, 0): f3.scalar(2)},
                      (0, 3, 0): {(0, 3, 0): f3.one},
                      (1, 0, 0): {(0, 1, 0): f3.scalar(2)}}
    # x0 -> x0, x1 -> x0: x0^a*x1^b -> x0^(a+b)
    m = Matrix.from_ints(f3, [[1, 0], [1, 0]])
    images = dict(substitution_images(m, _exponent_basis(2, 3)))
    assert images == {(a, 3 - a): {(3, 0): f3.one} for a in range(4)}


def test_permutation_matrix_images_make_no_scalar_products(monkeypatch):
    f4 = ff_make(2, 2)
    m = Matrix.from_ints(f4, [[0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0]])
    basis = [e.exps for e in mono_basis(4, 3)]

    def refuse(self, other):
        raise AssertionError("Scalar product on the permutation path")
    monkeypatch.setattr(Scalar, "__mul__", refuse)
    images = dict(substitution_images(m, basis))
    monkeypatch.undo()
    assert images.keys() == set(basis)
    for e, image in images.items():
        f = tuple(e[j] for j in (1, 3, 0, 2))  # x_i -> x_pi(i), pi = (2, 0, 3, 1)
        assert image == {f: f4.one}


_MONOMIAL_FIELDS = {"F2": lambda: ff_make(2), "F3": lambda: ff_make(3),
                    "F4": lambda: ff_make(2, 2), "F5": lambda: ff_make(5),
                    "QQ": FieldCtx.rationals}


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(sorted(_MONOMIAL_FIELDS)), nvars=st.integers(1, 5),
       d=st.integers(0, 4), data=st.data())
def test_bulk_monomial_images_match_the_chain_path(field, nvars, d, data):
    """Oracle: the same monomial block inside diag(M, [[1,1],[0,1]]), whose
    dense block sends the whole matrix down the prefix-chain path."""
    ctx = _MONOMIAL_FIELDS[field]()
    if ctx.is_finite:
        nonzero = st.sampled_from([s.val for s in ctx.enumerate() if s.val])
    else:
        nonzero = st.builds(Fraction, st.integers(1, 4) | st.integers(-4, -1),
                            st.integers(1, 3))
    perm = data.draw(st.permutations(range(nvars)))
    coeffs = [data.draw(nonzero) for _ in range(nvars)]
    n = nvars + 2
    rows = [[ctx._zero] * n for _ in range(n)]
    for i, (j, c) in enumerate(zip(perm, coeffs)):
        rows[i][j] = c
    rows[nvars][nvars] = rows[nvars][nvars + 1] = rows[nvars + 1][nvars + 1] = ctx._one
    monomial = Matrix._raw(ctx, tuple(tuple(row[:nvars]) for row in rows[:nvars]))
    block = Matrix._raw(ctx, tuple(map(tuple, rows)))
    basis = _exponent_basis(nvars, d)
    bulk = list(substitution_images(monomial, basis))
    assert [e for e, _ in bulk] == list(basis)  # input order
    chain = {e[:nvars]: {f[:nvars]: c for f, c in image.items()}
             for e, image in substitution_images(block, [e + (0, 0) for e in basis])}
    assert dict(bulk) == chain


def _linear_forms(m: Matrix) -> list[Polynomial]:
    """(Mx)_i = sum_j M[i][j] x_j as polynomials."""
    ctx, n = m.ctx, m.nrows
    return [Polynomial(ctx, n, {tuple(int(k == j) for k in range(n)): Scalar(ctx, c)
                                for j, c in enumerate(row) if c})
            for row in m.rows]


def _expanded(forms: list[Polynomial], e: tuple[int, ...]) -> dict:
    """The terms of prod_i (Mx)_i^e_i, by Polynomial * and **: the walk's oracle."""
    out = Polynomial.one(forms[0].ctx, forms[0].nvars)
    for form, k in zip(forms, e):
        out = out * form**k
    return out.terms


@st.composite
def _walk_matrices(draw, ctx, nvars):
    """A matrix that takes the prefix-chain path: any draw that is an
    invertible monomial matrix loses its first row."""
    if ctx.is_finite:
        entry = st.sampled_from([s.val for s in ctx.enumerate()])
    else:
        entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    rows = [[draw(entry) for _ in range(nvars)] for _ in range(nvars)]
    targets = [[j for j, c in enumerate(row) if c] for row in rows]
    if all(len(t) == 1 for t in targets) and len({t[0] for t in targets}) == nvars:
        rows[0] = [ctx._zero] * nvars
    return Matrix._raw(ctx, tuple(map(tuple, rows)))


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from(sorted(_MONOMIAL_FIELDS)), nvars=st.integers(1, 6),
       d=st.integers(0, 5), data=st.data())
def test_walk_images_equal_the_expanded_products(field, nvars, d, data):
    ctx = _MONOMIAL_FIELDS[field]()
    m = data.draw(_walk_matrices(ctx, nvars))
    basis = _exponent_basis(nvars, d)
    monomials = basis if len(basis) <= 20 else tuple(data.draw(
        st.lists(st.sampled_from(basis), min_size=1, max_size=20, unique=True)))
    images = list(substitution_images(m, monomials))
    assert sorted(e for e, _ in images) == sorted(monomials)
    forms = _linear_forms(m)
    for e, image in images:
        assert image == _expanded(forms, e)


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from(sorted(_MONOMIAL_FIELDS)), nvars=st.integers(1, 5),
       data=st.data())
def test_substitute_linear_on_mixed_degrees_equals_substitute(field, nvars, data):
    ctx = _MONOMIAL_FIELDS[field]()
    m = data.draw(_walk_matrices(ctx, nvars))
    exps = st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars).map(tuple)
    support = data.draw(st.lists(exps, min_size=1, max_size=8, unique=True))
    f = Polynomial(ctx, nvars, {e: ctx.scalar(k + 1) for k, e in enumerate(support)})
    assert f.substitute_linear(m) == f.substitute(_linear_forms(m))


def test_walk_slots_wider_than_a_byte():
    """Degree 255 fits one byte per exponent, degree 256 takes two."""
    f5 = ff_make(5)
    m = Matrix.from_ints(f5, [[1, 2], [3, 1]])
    forms = _linear_forms(m)
    for monomials, width in ((((255, 0), (128, 127), (3, 4)), 8),
                             (((300, 0), (200, 100), (0, 256), (1, 0)), 16)):
        assert _chain_plan(monomials, (1, 0))[0] == width
        images = dict(substitution_images(m, monomials))
        assert images == {e: _expanded(forms, e) for e in monomials}


def test_cached_plans_follow_the_build_order():
    """One basis under two matrices whose densest variables differ: each
    walk keeps its own chain order and images, however the calls interleave."""
    f3 = ff_make(3)
    basis = _exponent_basis(3, 3)
    a = Matrix.from_ints(f3, [[1, 1, 1], [0, 1, 0], [0, 2, 1]])
    b = Matrix.from_ints(f3, [[1, 0, 0], [1, 1, 0], [2, 1, 1]])
    orders = {}
    for name, m in (("a", a), ("b", b), ("a", a), ("b", b)):
        walk = list(substitution_images(m, basis))
        assert orders.setdefault(name, [e for e, _ in walk]) == [e for e, _ in walk]
        forms = _linear_forms(m)
        assert dict(walk) == {e: _expanded(forms, e) for e in basis}
    assert orders["a"] != orders["b"]


def test_evaluate_at_a_zero_one_point_makes_no_scalar_products(monkeypatch):
    f3 = ff_make(3)
    f = P(f3, 3, "2*x0^2*x1 + x0*x2^3 + 2*x1^4 + x2 + 2")

    def refuse(self, other):
        raise AssertionError("Scalar product on a unit factor")
    monkeypatch.setattr(Scalar, "__mul__", refuse)
    values = [f.evaluate([f3.scalar(a) for a in v]) for v in ((1, 1, 1), (1, 0, 1), (0, 1, 0))]
    monkeypatch.undo()
    assert values == [f3.scalar(2), f3.scalar(1), f3.scalar(1)]


def test_substitution_composes():
    f3 = ff_make(3)
    rng = random.Random(5)
    elems = f3.enumerate()
    for _ in range(6):
        a = Matrix(f3, [[rng.choice(elems) for _ in range(2)] for _ in range(2)])
        b = Matrix(f3, [[rng.choice(elems) for _ in range(2)] for _ in range(2)])
        f = Polynomial(f3, 2, {(2, 1): f3.one, (0, 1): f3.scalar(2)})
        assert f.substitute_linear(a).substitute_linear(b) == \
            f.substitute_linear(a * b)


def test_substitution_evaluation_compatibility():
    f5 = ff_make(5)
    rng = random.Random(17)
    elems = f5.enumerate()
    for _ in range(8):
        m = Matrix(f5, [[rng.choice(elems) for _ in range(3)] for _ in range(3)])
        f = Polynomial(f5, 3, {(1, 1, 0): f5.one, (0, 0, 2): f5.scalar(3)})
        v = [rng.choice(elems) for _ in range(3)]
        assert f.substitute_linear(m).evaluate(v) == f.evaluate(m.apply(v))


def test_degree_preserved_on_homogeneous():
    qq = FieldCtx.rationals()
    f = P(qq, 2, "x0^2 + x0*x1")
    m = Matrix.from_ints(qq, [[1, 2], [3, 4]])
    assert f.substitute_linear(m).degree() == 2


# -- arithmetic -----------------------------------------------------------------------

def test_freshmans_dream():
    f2 = ff_make(2)
    f = P(f2, 2, "x0 + x1")
    assert f**2 == P(f2, 2, "x0^2 + x1^2")
    for p in (2, 3):
        ctx = ff_make(p)
        elems = ctx.enumerate()
        rng = random.Random(23 + p)
        for _ in range(6):
            a = Polynomial(ctx, 2, {(rng.randint(0, 2), rng.randint(0, 2)):
                                    rng.choice(elems[1:]) for _ in range(3)})
            b = Polynomial(ctx, 2, {(rng.randint(0, 2), rng.randint(0, 2)):
                                    rng.choice(elems[1:]) for _ in range(3)})
            assert (a + b)**p == a**p + b**p


def test_mul_identity_and_difference_of_squares():
    qq = FieldCtx.rationals()
    f = P(qq, 2, "x0 + x1")
    assert f * Polynomial.one(qq, 2) == f
    assert f * P(qq, 2, "x0 + -1*x1") == P(qq, 2, "x0^2 + -1*x1^2")


_PRODUCT_FIELDS = {"F2": lambda: ff_make(2), "F4": lambda: ff_make(2, 2),
                   "F3": lambda: ff_make(3), "F9": lambda: ff_make(3, 2),
                   "QQ": FieldCtx.rationals}
# added to every exponent of a factor: two of them sum across the slot
# widths 255/256, 65535/65536 and 2^64 - 1/2^64
_OFFSETS = [0, 1, 127, 128, 32767, 32768, 2**63 - 1, 2**63]


def _naive_product(f: Polynomial, g: Polynomial) -> dict:
    """The tuple-keyed product loop, one Scalar product per term pair: the
    packed product's oracle, terms in the same order."""
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            c = c1 * c2
            acc = out.get(e)
            s = c if acc is None else acc + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
    return out


@st.composite
def _offset_polys(draw, ctx, nvars):
    """A polynomial whose exponents are small ones plus one drawn offset per
    variable, with nonzero coefficients."""
    if ctx.is_finite:
        coeff = st.sampled_from([s for s in ctx.enumerate() if not s.is_zero()])
    else:
        coeff = st.builds(lambda a, b: Scalar(ctx, Fraction(a, b)),
                          st.integers(1, 3) | st.integers(-3, -1), st.integers(1, 2))
    offset = [draw(st.sampled_from(_OFFSETS)) for _ in range(nvars)]
    exps = st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars)
    support = draw(st.lists(exps.map(lambda e: tuple(a + b for a, b in zip(e, offset))),
                            max_size=6, unique=True))
    return Polynomial(ctx, nvars, {e: draw(coeff) for e in support})


def _counted(run):
    """run() with its Scalar products and sums counted."""
    calls = {"mul": 0, "add": 0}
    mul, add = Scalar.__mul__, Scalar.__add__

    def counting(name, op):
        def wrapped(a, b):
            calls[name] += 1
            return op(a, b)
        return wrapped
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Scalar, "__mul__", counting("mul", mul))
        mp.setattr(Scalar, "__add__", counting("add", add))
        out = run()
    return out, calls


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(sorted(_PRODUCT_FIELDS)), nvars=st.integers(1, 3),
       data=st.data())
def test_packed_product_equals_the_tuple_keyed_product(field, nvars, data):
    """Same terms in the same order, and the same Scalar products and sums,
    for f*g and for (f+g)*(f-g), whose cross terms cancel."""
    ctx = _PRODUCT_FIELDS[field]()
    f = data.draw(_offset_polys(ctx, nvars))
    g = data.draw(_offset_polys(ctx, nvars))
    for a, b in ((f, g), (f + g, f - g)):
        packed, packed_calls = _counted(lambda: a * b)
        naive, naive_calls = _counted(lambda: _naive_product(a, b))
        assert list(packed.terms.items()) == list(naive.items())
        assert packed_calls == naive_calls


def test_packed_product_widens_its_slots_past_64_bits():
    """Products of degree 255, 256, 65536 and 2^64: the last needs slots of
    128 bits, which no struct format holds."""
    f2 = ff_make(2)
    for k in (255, 256, 65536, 2**64):
        x = Polynomial(f2, 2, {(k - k // 2, 0): f2.one, (0, 0): f2.one})
        y = Polynomial(f2, 2, {(k // 2, 0): f2.one, (0, 1): f2.one})
        product = x * y
        assert list(product.terms) == [(k, 0), (k - k // 2, 1), (k // 2, 0), (0, 1)]
    square = P(f2, 2, "x0 + x1")
    assert square * square == P(f2, 2, "x0^2 + x1^2")  # x0*x1 cancels


def test_no_zero_coefficients_stored():
    f3 = ff_make(3)
    f = P(f3, 2, "x0 + 2*x0")  # 3*x0 = 0
    assert f.is_zero() and f.terms == {}


def test_context_and_dimension_guards():
    with pytest.raises(ContextMismatch):
        Polynomial.one(ff_make(2), 2) + Polynomial.one(ff_make(3), 2)
    with pytest.raises(DimensionMismatch):
        Polynomial.one(ff_make(2), 2) + Polynomial.one(ff_make(2), 3)
    with pytest.raises(DimensionMismatch):
        P(ff_make(2), 2, "x0").evaluate([ff_make(2).one])


# -- coefficient vectors -----------------------------------------------------------------

def test_coeff_vector_round_trip():
    f4 = ff_make(2, 2)
    f = P(f4, 2, "x0^2 + (z)*x0*x1 + (z+1)*x1^2")
    vec = f.coeff_vector(2)
    assert [str(s) for s in vec] == ["1", "z", "z+1"]
    assert Polynomial.from_coeff_vector(f4, 2, 2, vec) == f


# -- text round trips ----------------------------------------------------------------------

def test_poly_text_round_trip():
    cases = [
        (ff_make(2), 3, "x0*x2 + x1^2"),
        (ff_make(5), 2, "2*x0^2 + 4*x0*x1 + 3"),
        (ff_make(2, 2), 2, "(z+1)*x0 + x1"),
        (FieldCtx.rationals(), 4, "x1^3 + -3*x0*x1*x2 + 3*x0^2*x3"),
        (FieldCtx.rationals(), 2, "-5/6*x0 + 1/2"),
    ]
    for ctx, nvars, text in cases:
        f = poly_parse(ctx, nvars, text)
        assert poly_parse(ctx, nvars, str(f)) == f


@pytest.mark.parametrize("ctx", [FieldCtx.rationals(), ff_make(2, 2)], ids=["QQ", "F4"])
@pytest.mark.parametrize("text", ["x0**2", "*x0", "x0 * * x1"])
def test_poly_parse_refuses_an_empty_factor(ctx, text):
    """'**' is no power operator: it leaves an empty factor, never the
    coefficient 2 (which over F_4 would make x0**2 the zero polynomial)."""
    with pytest.raises(ParseError, match="empty factor"):
        poly_parse(ctx, 2, text)


@pytest.mark.parametrize("ctx", [FieldCtx.rationals(), ff_make(2, 2)], ids=["QQ", "F4"])
def test_poly_parse_names_the_whole_polynomial(ctx):
    """A doubled sign leaves an empty term after its '-'; the message quotes
    the text the user gave, not the empty term."""
    with pytest.raises(ParseError, match=re.escape("empty factor in 'x0 - -x1'")):
        poly_parse(ctx, 2, "x0 - -x1")


def test_poly_parse_subtraction_convenience():
    qq = FieldCtx.rationals()
    assert P(qq, 2, "x0^2-x1") == P(qq, 2, "x0^2 + -1*x1")


def test_poly_str_deterministic_order():
    qq = FieldCtx.rationals()
    f = P(qq, 3, "x2 + x0 + x1^2")
    assert str(f) == "x1^2 + x0 + x2"  # degree first, then lex
