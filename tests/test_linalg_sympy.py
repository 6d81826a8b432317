"""Linear algebra against an independent oracle: sympy's DomainMatrix over
GF(p) and QQ.  Over F_4 and F_9, where sympy has no oracle, an inverse is
checked by its product and against det."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from nullcone_lab import linalg  # noqa: E402
from nullcone_lab.errors import NotInvertible  # noqa: E402
from nullcone_lab.fields import FieldCtx, ff_make  # noqa: E402
from nullcone_lab.linalg import Matrix  # noqa: E402

FIELDS = (2, 3, 5, 7, 0)  # 0 is QQ


def ctx_of(field):
    return FieldCtx.rationals() if field == 0 else ff_make(field)


def domain_of(field):
    return sympy.QQ if field == 0 else sympy.GF(field)


def to_raw(x, field):
    """A sympy domain element as our raw value: a residue in [0, p), or a Fraction."""
    value = domain_of(field).to_sympy(x)
    if field:
        return int(value) % field
    return Fraction(int(value.p), int(value.q))


def oracle(rows, ncols, field):
    K = domain_of(field)
    return DomainMatrix([[K.from_sympy(sympy.Rational(v.numerator, v.denominator))
                          for v in row] for row in rows], (len(rows), ncols), K)


@st.composite
def value_rows(draw, entry, nrows, ncols, zero=0):
    """Rows of raw values; often one row is made a combination of the others,
    so that the matrix is rank-deficient on purpose (a zero row when alone)."""
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if draw(st.booleans()):
        i = draw(st.integers(0, nrows - 1))
        coeffs = [draw(entry) for _ in range(nrows)]
        rows[i] = [sum((c * rows[k][j] for k, c in enumerate(coeffs) if k != i), zero)
                   for j in range(ncols)]
    return rows


def entries(field):
    if field:
        return st.integers(0, field - 1)
    return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def scalars(ctx, rows):
    return [[ctx.scalar(v) for v in row] for row in rows]


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(FIELDS), data=st.data())
def test_inverse_and_det_match_sympy(field, data):
    ctx = ctx_of(field)
    n = data.draw(st.integers(1, 6))
    rows = data.draw(value_rows(entries(field), n, n))
    a, dm = Matrix(ctx, scalars(ctx, rows)), oracle(rows, n, field)
    det = to_raw(dm.det(), field)
    assert a.det().val == det
    if det == 0:
        with pytest.raises(NotInvertible):
            a.inverse()
        return
    expected = [[to_raw(x, field) for x in row] for row in dm.inv().to_list()]
    assert [list(row) for row in a.inverse().rows] == expected


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(FIELDS), data=st.data())
def test_rank_and_kernel_match_sympy(field, data):
    ctx = ctx_of(field)
    nrows, ncols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    rows = data.draw(value_rows(entries(field), nrows, ncols))
    vectors = scalars(ctx, rows)
    r = oracle(rows, ncols, field).rank()
    assert linalg.rank(vectors, ncols, ctx) == r
    basis = linalg.kernel(({c: s for c, s in enumerate(v) if not s.is_zero()}
                           for v in vectors), ncols, ctx)
    assert len(basis) == ncols - r
    raw = [[s.val for s in vec] for vec in basis]
    for vec in raw:
        for row in rows:
            total = sum(a * b for a, b in zip(row, vec))
            assert (total % field if field else total) == 0
    if raw:  # independent, so with the right count they span the kernel
        assert oracle(raw, ncols, field).rank() == len(raw)


@pytest.mark.parametrize("p, e", [(2, 2), (3, 2)])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_extension_inverse_is_two_sided_exactly_when_det_is_nonzero(p, e, data):
    ctx = ff_make(p, e)
    elems = ctx.enumerate()
    n = data.draw(st.integers(1, 6))
    a = Matrix(ctx, data.draw(value_rows(st.sampled_from(elems), n, n, ctx.zero)))
    if a.det().is_zero():
        with pytest.raises(NotInvertible):
            a.inverse()
        return
    inv = a.inverse()
    assert (a * inv).is_identity() and (inv * a).is_identity()
