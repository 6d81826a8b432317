"""Linear algebra tests.  The generic engine is checked against hand kernels;
the packed characteristic-2 engine is checked against the generic one."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from nullcone_lab.errors import (ContextMismatch, DimensionMismatch, NotInvertible,
                                 ParseError)
from nullcone_lab.fields import FieldCtx, ff_enumerate, ff_make
from nullcone_lab.linalg import (
    Matrix,
    _GenericEliminator,
    _make_eliminator,
    _PackedChar2Eliminator,
    kernel,
    lift_matrix,
    rank,
    rref,
)


def sparse(ctx, dense):
    return {c: ctx.scalar(v) for c, v in enumerate(dense) if ctx.scalar(v) != ctx.zero}


def test_matrix_parse_round_trip():
    f2 = ff_make(2)
    m = Matrix.parse(f2, "1,1;0,1")
    assert m.format() == "1,1;0,1"
    assert m[0, 1] == f2.one
    with pytest.raises(ParseError):
        Matrix.parse(f2, ";")


def test_matrix_multiply_and_inverse():
    f5 = ff_make(5)
    m = Matrix.from_ints(f5, [[1, 2], [3, 4]])
    inv = m.inverse()
    assert (m * inv).is_identity()
    assert (inv * m).is_identity()
    singular = Matrix.from_ints(f5, [[1, 2], [2, 4]])
    with pytest.raises(NotInvertible):
        singular.inverse()
    assert singular.det().is_zero()
    # det oracle: 1*4 - 2*3 = -2 = 3 mod 5
    assert m.det() == f5.scalar(3)
    with pytest.raises(ContextMismatch):
        m * Matrix.from_ints(ff_make(3), [[1, 0], [0, 1]])


def test_permutation_detection():
    f3 = ff_make(3)
    swap = Matrix.from_ints(f3, [[0, 1], [1, 0]])
    assert swap.is_permutation() and swap.permutation() == [1, 0]
    assert not Matrix.from_ints(f3, [[2, 0], [0, 1]]).is_permutation()


def test_kernel_known_system_rationals():
    # x + y + z = 0 and y - z = 0 over Q: kernel spanned by (-2, 1, 1)
    qq = FieldCtx.rationals()
    rows = [sparse(qq, [1, 1, 1]), sparse(qq, [0, 1, -1])]
    basis = kernel(iter(rows), 3, qq)
    assert len(basis) == 1
    assert [str(s) for s in basis[0]] == ["1", "-1/2", "-1/2"]  # rref-normalised


def test_kernel_swap_constraint_f2():
    # constraint rows of (swap - id) acting on (x0^2, x0x1, x1^2) coefficients
    f2 = ff_make(2)
    rows = [sparse(f2, [1, 0, 1]), sparse(f2, [0, 0, 0]), sparse(f2, [1, 0, 1])]
    basis = kernel(iter(rows), 3, f2)
    assert [[s.val for s in v] for v in basis] == [[1, 0, 1], [0, 1, 0]]


def test_rank_and_rref():
    f3 = ff_make(3)
    vecs = [[f3.scalar(v) for v in row]
            for row in ([1, 2, 0], [2, 4, 0], [0, 0, 1])]
    assert rank(vecs, 3, f3) == 2
    reduced = rref(vecs, 3, f3)
    assert [[s.val for s in r] for r in reduced] == [[1, 2, 0], [0, 0, 1]]


@pytest.mark.parametrize("ctx_maker", [lambda: ff_make(2), lambda: ff_make(2, 2),
                                       lambda: ff_make(2, 3)])
def test_packed_engine_agrees_with_generic(ctx_maker):
    """Oracle: the generic engine, on random matrices over char-2 fields."""
    ctx = ctx_maker()
    elems = ff_enumerate(ctx)
    rng = random.Random(20240 + ctx.n)
    for trial in range(12):
        ncols = rng.randint(1, 7)
        nrows = rng.randint(1, 9)
        rows = [[rng.choice(elems) for _ in range(ncols)] for _ in range(nrows)]
        gen = _GenericEliminator(ctx, ncols)
        packed = _PackedChar2Eliminator(ctx, ncols)
        for r in rows:
            row = {c: s for c, s in enumerate(r) if not s.is_zero()}
            assert gen.add_row(dict(row)) == packed.add_row(dict(row))
        assert gen.rank == packed.rank
        assert [[(c, s.val) for c, s in v.items()] for v in gen.kernel_basis()] == \
               [[(c, s.val) for c, s in v.items()] for v in packed.kernel_basis()]


def test_kernel_canonical_regardless_of_row_order():
    f4 = ff_make(2, 2)
    elems = ff_enumerate(f4)
    rng = random.Random(7)
    rows = [[rng.choice(elems) for _ in range(6)] for _ in range(4)]
    as_sparse = [{c: s for c, s in enumerate(r) if not s.is_zero()} for r in rows]
    b1 = kernel(iter(as_sparse), 6, f4)
    b2 = kernel(iter(reversed(as_sparse)), 6, f4)
    assert [[s.val for s in v] for v in b1] == [[s.val for s in v] for v in b2]


def test_kernel_vectors_annihilate_rows():
    for ctx in (ff_make(3), ff_make(2, 2), FieldCtx.rationals()):
        rng = random.Random(99)
        if ctx.is_finite:
            elems = ff_enumerate(ctx)
            pick = lambda: rng.choice(elems)
        else:
            pick = lambda: ctx.scalar(rng.randint(-3, 3))
        rows = [[pick() for _ in range(5)] for _ in range(3)]
        sparse_rows = [{c: s for c, s in enumerate(r) if not s.is_zero()} for r in rows]
        for vec in kernel(iter(sparse_rows), 5, ctx):
            for r in rows:
                acc = ctx.zero
                for a, b in zip(r, vec):
                    acc = acc + a * b
                assert acc.is_zero()


def test_lift_matrix():
    f2, f4 = ff_make(2), ff_make(2, 2)
    m = Matrix.from_ints(f2, [[1, 1], [0, 1]])
    lifted = lift_matrix(m, f4)
    assert lifted.ctx == f4 and lifted[0, 1] == f4.one


def _lowest_pivot_rref(vectors, ncols, ctx):
    """Dense Gauss-Jordan pivoting on each row's lowest column: the reduced
    row-echelon rows, sorted by pivot, and their pivot columns."""
    rows = [list(v) for v in vectors]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pick = next((i for i in range(r, len(rows)) if not rows[i][col].is_zero()), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [s * inv for s in rows[r]]
        for i, row in enumerate(rows):
            if i != r and not row[col].is_zero():
                factor = row[col]
                rows[i] = [a - factor * b for a, b in zip(row, rows[r])]
        pivots.append(col)
    return rows[:len(pivots)], pivots


def _two_pass_kernel(vectors, ncols, ctx):
    """Kernel vectors read off lowest-column pivots, then re-reduced."""
    reduced, pivots = _lowest_pivot_rref(vectors, ncols, ctx)
    raw = []
    for j in range(ncols):
        if j in pivots:
            continue
        vec = [ctx.zero] * ncols
        vec[j] = ctx.one
        for row, c in zip(reduced, pivots):
            if not row[j].is_zero():
                vec[c] = -row[j]
        raw.append(vec)
    return _lowest_pivot_rref(raw, ncols, ctx)[0]


@pytest.mark.parametrize("ctx_maker", [lambda: ff_make(2), lambda: ff_make(2, 2),
                                       lambda: ff_make(2, 3), lambda: ff_make(3),
                                       FieldCtx.rationals])
def test_kernel_and_rref_match_two_pass_oracle(ctx_maker):
    """kernel() reads the canonical basis straight off the eliminator; it
    must equal a re-reduction of lowest-pivot kernel vectors."""
    ctx = ctx_maker()
    rng = random.Random(4000 + ctx.p * 10 + ctx.n)
    if ctx.is_finite:
        elems = ff_enumerate(ctx)
        pick = lambda: rng.choice(elems)
    else:
        pick = lambda: ctx.scalar(rng.randint(-3, 3)) * ctx.scalar(rng.randint(1, 3)).inverse()
    cases = []
    for _ in range(15):
        ncols = rng.randint(1, 8)
        rows = [[pick() for _ in range(ncols)] for _ in range(rng.randint(0, 9))]
        for _ in range(rng.randint(0, 2)):  # zero rows
            rows.insert(rng.randint(0, len(rows)), [ctx.zero] * ncols)
        cases.append((rows, ncols))
    for ncols in (1, 4, 7):
        identity = [[ctx.one if i == j else ctx.zero for j in range(ncols)]
                    for i in range(ncols)]
        # full rank: unit lower-triangular mixing of the identity rows
        mixed = [[ctx.one if i == j else (pick() if j < i else ctx.zero)
                  for j in range(ncols)] for i in range(ncols)]
        cases.append(([r for r in reversed(mixed)], ncols))
        cases.append((identity, ncols))
        cases.append(([[ctx.zero] * ncols] * 3, ncols))  # rank 0
        cases.append(([], ncols))
    ranks = set()
    for rows, ncols in cases:
        expected = _two_pass_kernel(rows, ncols, ctx)
        got = kernel((sparse(ctx, r) for r in rows), ncols, ctx)
        assert [[s.val for s in v] for v in got] == [[s.val for s in v] for v in expected]
        span, _ = _lowest_pivot_rref(rows, ncols, ctx)
        assert [[s.val for s in v] for v in rref(rows, ncols, ctx)] == \
               [[s.val for s in v] for v in span]
        ranks.add((len(span), ncols))
    assert any(r == 0 for r, _ in ranks) and any(r == n for r, n in ranks)
    assert any(0 < r < n for r, n in ranks)


@pytest.mark.parametrize("p", [2, 3])
def test_descending_chain_clears_without_recursion(p):
    """Rows {i, i+1} for descending i leave each pivot row pending on the
    next one down: kernel_basis() clears a 3,000-row chain iteratively."""
    ctx = ff_make(p)
    ncols = 3000
    elim = _make_eliminator(ctx, ncols)
    for i in reversed(range(ncols - 1)):
        assert elim.add_row({i: ctx.one, i + 1: ctx.one})
    basis = elim.kernel_basis()
    assert len(basis) == 1
    # x_{i+1} = -x_i, normalised to 1 at the free column 0
    assert [basis[0][c].val for c in range(ncols)] == [(-1) ** c % p for c in range(ncols)]


_FIELDS = {"F2": lambda: ff_make(2), "F4": lambda: ff_make(2, 2),
           "F3": lambda: ff_make(3), "QQ": FieldCtx.rationals}


def _dense(ctx, ncols, basis):
    return [[v.get(c, ctx.zero).val for c in range(ncols)] for v in basis]


def _sparse_scalars(row):
    return {c: s for c, s in enumerate(row) if not s.is_zero()}


def _check_against_oracle(ctx, ncols, elim, rows):
    expected = _two_pass_kernel(rows, ncols, ctx)
    assert _dense(ctx, ncols, elim.kernel_basis()) == [[s.val for s in v] for v in expected]
    assert elim.rank == ncols - len(expected)


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(sorted(_FIELDS)), ncols=st.integers(1, 7), data=st.data())
def test_lazy_clearing_survives_clones_and_midstream_reads(field, ncols, data):
    """add_row, clone() and kernel_basis() in any interleaving give the
    oracle's kernel, and a mutated clone leaves its original unchanged."""
    ctx = _FIELDS[field]()
    if ctx.is_finite:
        elems = ff_enumerate(ctx)
        entry = st.sampled_from(elems)
    else:
        entry = st.builds(lambda a, b: ctx.scalar(a) * ctx.scalar(b).inverse(),
                          st.integers(-3, 3), st.integers(1, 3))
    row_st = st.lists(entry, min_size=ncols, max_size=ncols)
    elim = _make_eliminator(ctx, ncols)
    rows = []
    for op in data.draw(st.lists(st.sampled_from(["add", "add", "clone", "read"]),
                                 max_size=14)):
        if op == "add":
            row = data.draw(row_st)
            elim.add_row(_sparse_scalars(row))
            rows.append(row)
        elif op == "read":
            _check_against_oracle(ctx, ncols, elim, rows)
        else:
            copy = elim.clone()
            extra = [data.draw(row_st) for _ in range(data.draw(st.integers(1, 3)))]
            for row in extra:
                copy.add_row(_sparse_scalars(row))
            _check_against_oracle(ctx, ncols, copy, rows + extra)
            _check_against_oracle(ctx, ncols, elim, rows)
            if data.draw(st.booleans()):
                elim, rows = copy, rows + extra
    _check_against_oracle(ctx, ncols, elim, rows)


# -- the sparse matrix kernel against a dense triple loop -------------------------------

def _dense_product(a, b):
    out = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = a.ctx.zero
            for k in range(a.ncols):
                acc = acc + a[i, k] * b[k, j]
            row.append(acc.val)
        out.append(tuple(row))
    return tuple(out)


@st.composite
def _matrices(draw, ctx, nrows, ncols):
    """Random, zero-lined, permutation (scaled or not) and identity matrices."""
    if ctx.is_finite:
        entry = st.sampled_from(ff_enumerate(ctx))
    else:
        entry = st.builds(lambda a, b: ctx.scalar(a) * ctx.scalar(b).inverse(),
                          st.integers(-3, 3), st.integers(1, 3))
    kinds = ["dense", "sparse", "zero lines"]
    if nrows == ncols:
        kinds += ["permutation", "monomial", "identity"]
    kind = draw(st.sampled_from(kinds))
    if kind == "identity":
        return Matrix.identity(ctx, nrows)
    if kind in ("permutation", "monomial"):
        pi = draw(st.permutations(range(nrows)))
        rows = [[ctx.zero] * nrows for _ in range(nrows)]
        for j in range(nrows):
            rows[pi[j]][j] = (ctx.one if kind == "permutation"
                              else draw(entry.filter(lambda s: not s.is_zero())))
        return Matrix(ctx, rows)
    sparse_entry = st.one_of(st.just(ctx.zero), st.just(ctx.one), entry)
    rows = [draw(st.lists(entry if kind == "dense" else sparse_entry,
                          min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if kind == "zero lines":
        for i in draw(st.sets(st.integers(0, nrows - 1))):
            rows[i] = [ctx.zero] * ncols
        for j in draw(st.sets(st.integers(0, ncols - 1))):
            for row in rows:
                row[j] = ctx.zero
    return Matrix(ctx, rows)


@settings(max_examples=100, deadline=None)
@given(field=st.sampled_from(sorted(_FIELDS)), data=st.data())
def test_sparse_product_and_apply_match_dense_oracle(field, data):
    ctx = _FIELDS[field]()
    n, k, m = (data.draw(st.integers(1, 4)) for _ in range(3))
    a = data.draw(_matrices(ctx, n, k))
    b = data.draw(_matrices(ctx, k, m))
    product = a * b
    assert (product.nrows, product.ncols) == (n, m)
    assert product.key() == _dense_product(a, b)
    assert all(s.ctx == ctx for row in product.rows for s in row)
    vec = list(data.draw(_matrices(ctx, k, 1)).transpose().rows[0])
    assert tuple(s.val for s in a.apply(vec)) == \
        tuple(row[0] for row in _dense_product(a, Matrix(ctx, [[s] for s in vec])))
    with pytest.raises(DimensionMismatch):
        a * data.draw(_matrices(ctx, k + 1, m))
    with pytest.raises(DimensionMismatch):
        a.apply(vec + [ctx.zero])


_INVERSE_FIELDS = {**_FIELDS, "F9": lambda: ff_make(3, 2), "F25": lambda: ff_make(5, 2)}


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(sorted(_INVERSE_FIELDS)), data=st.data())
def test_inverse_on_raw_values_is_the_two_sided_inverse(field, data):
    """The inverse is unique, so a two-sided check against the dense product
    oracle pins the sparse Gauss-Jordan result entry for entry."""
    ctx = _INVERSE_FIELDS[field]()
    n = data.draw(st.integers(1, 5))
    a = data.draw(_matrices(ctx, n, n))
    if a.det().is_zero():
        with pytest.raises(NotInvertible):
            a.inverse()
        return
    inv = a.inverse()
    identity = Matrix.identity(ctx, n).key()
    assert _dense_product(a, inv) == identity
    assert _dense_product(inv, a) == identity
    assert all(s.ctx is ctx for row in inv.rows for s in row)
