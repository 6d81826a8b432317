"""Linear algebra tests.  The generic engine is checked against hand kernels;
the packed characteristic-2 engine is checked against the generic one."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nullcone_lab.errors import (ContextMismatch, DimensionMismatch, NotInvertible,
                                 ParseError)
from nullcone_lab.fields import FieldCtx, Scalar, ff_make
from nullcone_lab.linalg import (
    Matrix,
    _GenericEliminator,
    _make_eliminator,
    _PackedChar2Eliminator,
    annihilation_check,
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
    assert swap.permutation() == [1, 0]
    assert Matrix.from_ints(f3, [[2, 0], [0, 1]]).permutation() is None


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


def _random_f2_streams(ctx):
    """Twelve random matrices over F_2, against the two-pass oracle."""
    elems = ctx.enumerate()
    rng = random.Random(20241)
    for _ in range(12):
        ncols = rng.randint(1, 7)
        nrows = rng.randint(1, 9)
        rows = [[rng.choice(elems) for _ in range(ncols)] for _ in range(nrows)]
        yield ncols, [_sparse_scalars(r) for r in rows], \
            [_sparse_scalars(v) for v in _two_pass_kernel(rows, ncols, ctx)]


def _cyclic_generator_streams(ctx):
    """The generator rows of cyclic:p=2,k=8 at degrees 1-8, as invariant_space
    streams them.  Each row is x_a + x_b for a monomial a and its image b, so
    the kernel is spanned by the indicators of the classes those rows join,
    one per class, at its lowest column."""
    from nullcone_lab.cli import parse_module_spec
    from nullcone_lab.invariants import substitution_constraint_rows
    rep = parse_module_spec("cyclic:p=2,k=8").rep
    for d in range(1, 9):
        ncols = math.comb(rep.dim + d - 1, d)
        rows = [row for g in rep.group.generator_indices
                for row in substitution_constraint_rows(rep.inverse_matrix(g), d) if row]
        parent = list(range(ncols))

        def find(c):
            while parent[c] != c:
                c = parent[c]
            return c
        for row in rows:
            assert len(row) == 2
            a, b = map(find, row)
            parent[max(a, b)] = min(a, b)
        classes: dict = {}
        for c in range(ncols):
            classes.setdefault(find(c), {})[c] = ctx.one
        expected = list(classes.values())
        if d == 7:
            assert len(expected) == 429
        yield ncols, rows, expected


def _chain_then_hub_streams(ctx):
    """A descending chain {i, i+1} leaves each pivot row nonzero at the next
    pivot down; the rows through the chain's top column after it walk the
    chain, as does the read."""
    ncols, top = 12, 8
    chain = [[i, i + 1] for i in reversed(range(top))]
    hub = [[top, 10], [top, 3, 11], [top, 0], [top, 9, 5], [top, 10, 11], [top, 1]]
    rows = [[ctx.one if c in cols else ctx.zero for c in range(ncols)]
            for cols in chain + hub]
    yield ncols, [_sparse_scalars(r) for r in rows], \
        [_sparse_scalars(v) for v in _two_pass_kernel(rows, ncols, ctx)]


@pytest.mark.parametrize("streams", [_random_f2_streams, _cyclic_generator_streams,
                                     _chain_then_hub_streams],
                         ids=["random", "cyclic-p2-k8", "chain-then-hub"])
def test_packed_engine_agrees_with_generic(streams):
    """Oracle: the generic engine row by row, and the kernel each stream
    knows; over F_2."""
    ctx = ff_make(2)
    for ncols, rows, expected in streams(ctx):
        gen = _GenericEliminator(ctx, ncols)
        packed = _PackedChar2Eliminator(ctx, ncols)
        for row in rows:
            assert gen.add_row(dict(row)) == packed.add_row(dict(row))
        assert gen.rank == packed.rank
        basis = packed.kernel_basis()
        assert [[(c, s.val) for c, s in v.items()] for v in gen.kernel_basis()] == \
               [[(c, s.val) for c, s in v.items()] for v in basis]
        assert basis == expected


def test_kernel_canonical_regardless_of_row_order():
    f4 = ff_make(2, 2)
    elems = f4.enumerate()
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
            elems = ctx.enumerate()
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


def count_scalars(monkeypatch):
    """A one-item list that counts the Scalars made from now on."""
    made = [0]
    real = Scalar.__init__

    def counted(self, ctx, val):
        made[0] += 1
        real(self, ctx, val)
    monkeypatch.setattr(Scalar, "__init__", counted)
    return made


def test_product_of_extension_matrices_makes_no_scalar(monkeypatch):
    f4 = ff_make(2, 2)
    z = f4.generator()
    a = Matrix(f4, [[f4.one, z], [z * z, f4.zero]])
    b = Matrix(f4, [[z, z], [f4.one, z * z]])
    made = count_scalars(monkeypatch)
    product = a * b
    assert made[0] == 0
    assert product.rows == _dense_product(a, b) == ((0, 3), (1, 1))


def test_matrix_entries_and_vectors_must_share_its_field():
    f2, f3 = ff_make(2), ff_make(3)
    with pytest.raises(ContextMismatch):
        Matrix(f2, [[f2.one, f3.one]])
    with pytest.raises(ContextMismatch):
        Matrix(f2, [[f2.one, 1]])
    for m in (Matrix.identity(f2, 2), Matrix.from_ints(f2, [[0, 0], [0, 0]])):
        with pytest.raises(ContextMismatch):
            m.apply([f2.one, f3.one])
        # a zero vector entry is checked too, though it multiplies nothing
        with pytest.raises(ContextMismatch):
            m.apply([f3.zero, f2.zero])


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
        elems = ctx.enumerate()
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


@st.composite
def _f2_row_stream(draw, ncols):
    """Rows of at most two nonzeros, dense rows, or a mix, over F_2.  A drawn
    prefix comes in descending pivot order, which leaves each old pivot row
    nonzero at the lower pivots that come after it: rows not yet cleared,
    which the rows after the prefix may hit."""
    values = st.integers(0, 1)  # raw values of F_2
    kind = draw(st.sampled_from(["sparse", "dense", "mixed"]))
    rows = []
    for _ in range(draw(st.integers(1, 2 * ncols))):
        if kind == "dense" or kind == "mixed" and draw(st.booleans()):
            row = {c: draw(values) for c in range(ncols)}
        else:
            cols = draw(st.sets(st.integers(0, ncols - 1), min_size=1, max_size=2))
            row = dict.fromkeys(cols, 1)
        row = {c: v for c, v in row.items() if v}
        if row:
            rows.append(row)
    k = draw(st.integers(0, len(rows)))
    rows[:k] = sorted(rows[:k], key=max, reverse=True)
    return rows


@settings(max_examples=300, deadline=None)
@given(ncols=st.integers(1, 12), data=st.data())
def test_packed_engine_matches_generic_on_sparse_dense_and_stale_streams(ncols, data):
    ctx = ff_make(2)
    rows = data.draw(_f2_row_stream(ncols))
    gen, packed = _GenericEliminator(ctx, ncols), _PackedChar2Eliminator(ctx, ncols)
    assert [gen.add_raw(dict(row)) for row in rows] == \
        [packed.add_raw(dict(row)) for row in rows]
    assert packed.raw_kernel_basis() == gen.raw_kernel_basis()


def test_a_truly_stale_pivot_row_is_cleaned_before_it_is_used():
    """{3, 5} is left nonzero at pivot 3 when {2, 3} arrives; the row {5}
    then reduces at its highest pivot hit, 5 and then 3: to {2}.  The read
    clears each pivot row of the lower pivots: the kernel is e_0, e_1, e_4."""
    f2 = ff_make(2)
    packed = _PackedChar2Eliminator(f2, 6)
    for row in ({3: 1, 5: 1}, {2: 1, 3: 1}, {5: 1}):
        assert packed.add_raw(row)
    assert sorted(packed.pivots) == [2, 3, 5]
    assert packed.raw_kernel_basis() == [{0: 1}, {1: 1}, {4: 1}]


def test_packed_read_matches_generic_on_wide_two_term_streams():
    """Random two-term rows over F_2 on 20,000 columns: the packed read,
    which walks each row's set bits from the top, gives the generic
    engine's kernel; so does a second read after more rows are added to
    the pivot rows that the first read back-substituted."""
    ctx, ncols = ff_make(2), 20_000
    rng = random.Random(33)
    gen, packed = _GenericEliminator(ctx, ncols), _PackedChar2Eliminator(ctx, ncols)
    for batch in (12_000, 6_000):
        for _ in range(batch):
            a, b = rng.sample(range(ncols), 2)
            assert gen.add_raw({a: 1, b: 1}) == packed.add_raw({a: 1, b: 1})
        assert packed.raw_kernel_basis() == gen.raw_kernel_basis()
    assert packed.rank == gen.rank > 12_000


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
        elems = ctx.enumerate()
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


@settings(max_examples=100, deadline=None)
@given(ncols=st.integers(1, 70), data=st.data())
def test_packed_add_row_agrees_with_add_raw(ncols, data):
    """add_row packs {column: Scalar} rows into one int itself; add_raw packs
    the rows' raw values.  Both give the generic engine's rank answer row by
    row and its kernel; zero entries are dropped."""
    ctx = ff_make(2)
    entry = st.sampled_from(ctx.enumerate())
    rows = data.draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), entry, max_size=5),
                              max_size=12))
    scalars, raw = _PackedChar2Eliminator(ctx, ncols), _PackedChar2Eliminator(ctx, ncols)
    generic = _GenericEliminator(ctx, ncols)
    for row in rows:
        grew = generic.add_row(dict(row))
        assert scalars.add_row(dict(row)) == grew
        assert raw.add_raw({c: s.val for c, s in row.items() if s.val}) == grew
    assert scalars.rank == raw.rank == generic.rank
    assert scalars.pivots == raw.pivots
    assert scalars.kernel_basis() == raw.kernel_basis() == generic.kernel_basis()


_ANNIHILATION_FIELDS = {**_FIELDS, "F8": lambda: ff_make(2, 3), "F16": lambda: ff_make(2, 4)}


@pytest.mark.parametrize("field", sorted(_ANNIHILATION_FIELDS))
def test_only_f2_takes_the_packed_engine(field):
    """One int per row serves F_2 alone: every F_{2^n} with n > 1 gets the
    generic engine, as odd characteristic and the rationals do.  Rows of
    F_{2^n} reach the packed engine only by being eliminated in F_2, when
    their entries lie there (see invariants._entry_field)."""
    ctx = _ANNIHILATION_FIELDS[field]()
    engine = _PackedChar2Eliminator if field == "F2" else _GenericEliminator
    assert type(_make_eliminator(ctx, 3)) is engine
    if field != "F2":
        with pytest.raises(AssertionError, match="needs the field F_2"):
            _PackedChar2Eliminator(ctx, 3)


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(sorted(_ANNIHILATION_FIELDS)),
       ncols=st.integers(1, 6) | st.integers(71, 80), data=st.data())
def test_annihilation_check_matches_rank_raising(field, ncols, data):
    """A row fails to annihilate the kernel of some rows exactly when adding
    it to them raises their rank; rows are drawn from their span and off it.
    Past 70 columns at most 6 rows leave more than 64 kernel vectors, so
    over F_2 each column mask spans several words;
    those rows are sparse, so some miss only the vectors past the first 64."""
    ctx = _ANNIHILATION_FIELDS[field]()
    if ctx.is_finite:
        entry = st.sampled_from(ctx.enumerate())
    else:
        entry = st.sampled_from([ctx.scalar(Fraction(a, b))
                                 for a in (-3, -1, 0, 1, 2) for b in (1, 3)])
    row_st = st.lists(entry, min_size=ncols, max_size=ncols)
    if ncols > 6:
        row_st = st.dictionaries(st.integers(0, ncols - 1), entry, max_size=4).map(
            lambda row: [row.get(c, ctx.zero) for c in range(ncols)])
    rows = [data.draw(row_st) for _ in range(data.draw(st.integers(0, min(ncols, 6))))]
    elim = _make_eliminator(ctx, ncols)
    for row in rows:
        elim.add_row(_sparse_scalars(row))
    annihilates = annihilation_check(elim.clone().kernel_basis(), ctx)
    drawn, passing = [], []
    for _ in range(4):
        row = data.draw(row_st)
        if rows and data.draw(st.booleans()):  # a combination of the rows
            row = [ctx.zero] * ncols
            for other in rows:
                c = data.draw(entry)
                row = [a + c * b for a, b in zip(row, other)]
        raises = elim.clone().add_row(_sparse_scalars(row))
        assert annihilates([_sparse_scalars(row)]) == (not raises)
        drawn.append(_sparse_scalars(row))
        passing.append(not raises)
    # a stream passes exactly when each of its rows does
    assert annihilates(iter(drawn)) == all(passing)


@pytest.mark.parametrize("p", [2, 3])
def test_annihilation_check_in_the_prime_field_refuses_extension_values(p):
    """Rows of F_{p^2} checked against a kernel over F_p, as invariants
    does when the generators lie over F_p.  The kernel of x0 - x1 holds
    e0 + e1, and the row (z + 1, -1) meets it in z, not zero.  The raw int
    of z + 1 is p + 1: read as one (F_2's XOR) or reduced mod p it would
    pass, so a value outside F_p must fail the row."""
    small, big = ff_make(p), ff_make(p, 2)
    elim = _make_eliminator(small, 3)
    elim.add_row({0: small.one, 1: -small.one})
    annihilates = annihilation_check(elim.kernel_basis(), small)
    one, z = big.one, big.parse("z")
    assert annihilates([{0: one, 1: -one}, {2: big.zero}])
    assert (z + one).val == p + 1
    assert not annihilates([{0: z + one, 1: -one}])
    assert not annihilates([{0: one, 1: -one}, {0: z + one, 1: -one}])


@pytest.mark.parametrize("field", ["F2", "F4", "F8", "F3"])
def test_annihilation_check_fails_a_stream_at_any_bad_row(field):
    """Rows in the span of some rows pass as one stream; one row off the
    span (adding it raises their rank), at any place in the stream, fails it."""
    ctx = _ANNIHILATION_FIELDS[field]()
    rng = random.Random(71 + ctx.p * ctx.n)
    elems = ctx.enumerate()
    ncols = 9
    rows = [[rng.choice(elems) for _ in range(ncols)] for _ in range(4)]
    elim = _make_eliminator(ctx, ncols)
    for row in rows:
        elim.add_row(_sparse_scalars(row))
    annihilates = annihilation_check(elim.clone().kernel_basis(), ctx)
    good = []
    for _ in range(6):
        combo = [ctx.zero] * ncols
        for other in rows:
            c = rng.choice(elems)
            combo = [a + c * b for a, b in zip(combo, other)]
        good.append(_sparse_scalars(combo))
    bad = next(row for row in ([rng.choice(elems) for _ in range(ncols)] for _ in range(100))
               if elim.clone().add_row(_sparse_scalars(row)))
    assert annihilates(iter(good)) and annihilates([])
    for k in range(len(good) + 1):
        assert not annihilates(iter(good[:k] + [_sparse_scalars(bad)] + good[k:]))


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
        entry = st.sampled_from(ctx.enumerate())
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
    assert product.rows == _dense_product(a, b)
    assert all(type(v) is type(ctx.zero.val) for row in product.rows for v in row)
    column = data.draw(_matrices(ctx, k, 1))
    vec = [column[i, 0] for i in range(k)]
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
    oracle pins the kernel-read result entry for entry."""
    ctx = _INVERSE_FIELDS[field]()
    n = data.draw(st.integers(1, 5))
    a = data.draw(_matrices(ctx, n, n))
    if a.det().is_zero():
        with pytest.raises(NotInvertible):
            a.inverse()
        return
    inv = a.inverse()
    identity = Matrix.identity(ctx, n).rows
    assert _dense_product(a, inv) == identity
    assert _dense_product(inv, a) == identity
    assert all(type(v) is type(ctx.zero.val) for row in inv.rows for v in row)


_RAW_FIELDS = {"F3": lambda: ff_make(3), "F9": lambda: ff_make(3, 2),
               "QQ": FieldCtx.rationals}


def _random_rows(ctx, nrows, ncols, seed):
    rng = random.Random(seed)
    if ctx.is_finite:
        elems = ctx.enumerate()
        pick = lambda: rng.choice(elems)
    else:
        pick = lambda: ctx.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return [_sparse_scalars([pick() for _ in range(ncols)]) for _ in range(nrows)]


@pytest.mark.parametrize("field", sorted(_RAW_FIELDS))
def test_generic_engine_holds_raw_values(field):
    ctx = _RAW_FIELDS[field]()
    elim = _GenericEliminator(ctx, 7)
    for row in _random_rows(ctx, 5, 7, 11):
        elim.add_row(row)
    assert elim.rank > 1
    values = [v for row in elim.pivots.values() for v in row.values()]
    assert values and not any(isinstance(v, Scalar) for v in values)
    assert all(isinstance(s, Scalar) for vec in elim.kernel_basis() for s in vec.values())


@pytest.mark.parametrize("field", sorted(_RAW_FIELDS))
def test_generic_add_row_makes_no_scalar_arithmetic(field, monkeypatch):
    ctx = _RAW_FIELDS[field]()
    rows = _random_rows(ctx, 9, 6, 12)

    def forbidden(self, other):
        raise AssertionError("Scalar arithmetic inside the eliminator")
    monkeypatch.setattr(Scalar, "__mul__", forbidden)
    monkeypatch.setattr(Scalar, "__sub__", forbidden)
    elim = _GenericEliminator(ctx, 6)
    for row in rows:
        elim.add_row(row)
    assert elim.rank == 6


def test_inverse_builds_one_eliminator_and_sees_a_last_column_deficiency(monkeypatch):
    from nullcone_lab import linalg
    calls = []

    def counted(ctx, ncols):
        calls.append(ncols)
        return _make_eliminator(ctx, ncols)
    monkeypatch.setattr(linalg, "_make_eliminator", counted)
    f5 = ff_make(5)
    a = Matrix.from_ints(f5, [[1, 0, 2], [0, 1, 3], [4, 2, 1]])
    assert (a * a.inverse()).is_identity()
    assert calls == [6]
    # the last column is the first plus the second: rank 2, seen only there
    singular = Matrix.from_ints(f5, [[1, 0, 1], [0, 1, 1], [2, 3, 0]])
    with pytest.raises(NotInvertible, match="singular matrix"):
        singular.inverse()
    assert calls == [6, 6]
    with pytest.raises(NotInvertible, match="not square"):
        Matrix.from_ints(f5, [[1, 0]]).inverse()
