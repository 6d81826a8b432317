"""Exact linear algebra over a FieldCtx: dense matrices of raw field values
with sparse products, and streamed elimination.

Two elimination engines sit behind one interface: a generic one holding rows
as sparse {column: raw value} dicts over any field, and one for F_2 alone
that packs each row into one Python int, so a row operation is one big-int
XOR.  The field of the rows' entries picks the engine, not the module's
(invariants._entry_field): F_{2^n} rows with entries 0 and 1 are packed,
other F_{2^n} rows take the generic engine, as odd characteristic and the
rationals do.  Constraint rows are streamed into the eliminator one at a
time; the full stacked matrix is never materialised.  Both engines pivot on
a row's highest column, which makes their kernel basis the canonical reduced
row-echelon one without a second elimination.  The F_2 engine keeps plain
echelon form and back-substitutes once when the kernel is read; the generic
engine clears a pivot row of later pivots lazily.  The kernel comes out as
one sparse {column: Scalar} dict per free column, and kernel() makes it
dense; Matrix.inverse uses add_raw and raw_kernel_basis.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import ContextMismatch, DimensionMismatch, NotInvertible, ParseError
from .fields import FieldCtx, Scalar, check_lift

# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """An immutable matrix over one context.

    `rows` holds raw field values (ints over F_q, Fractions over Q) and is
    itself the hashable key of a group element.  Only the constructor takes
    Scalars, and only m[i, j], apply() and format() hand them out.
    """

    __slots__ = ("ctx", "rows", "nrows", "ncols")

    def __init__(self, ctx: FieldCtx, rows: Sequence[Sequence[Scalar]]):
        """Rows of Scalars over ctx; every entry's context is checked."""
        raw = []
        for r in rows:
            if raw and len(r) != len(raw[0]):
                raise DimensionMismatch("ragged rows")
            for s in r:
                if not isinstance(s, Scalar) or s.ctx is not ctx:
                    raise ContextMismatch("matrix entry from a different context")
            raw.append(tuple(s.val for s in r))
        self.ctx, self.rows = ctx, tuple(raw)
        self.nrows, self.ncols = len(raw), len(raw[0]) if raw else 0

    @staticmethod
    def _raw(ctx: FieldCtx, rows: tuple) -> "Matrix":
        """A matrix on a tuple of equal-length tuples of raw values of ctx,
        taken as they are: no entry is checked."""
        m = Matrix.__new__(Matrix)
        m.ctx, m.rows = ctx, rows
        m.nrows, m.ncols = len(rows), len(rows[0]) if rows else 0
        return m

    @staticmethod
    def identity(ctx: FieldCtx, n: int) -> "Matrix":
        zero, one = ctx._zero, ctx._one
        return Matrix._raw(ctx, tuple(tuple(one if i == j else zero for j in range(n))
                                      for i in range(n)))

    @staticmethod
    def from_ints(ctx: FieldCtx, rows: Sequence[Sequence[int]]) -> "Matrix":
        return Matrix._raw(ctx, tuple(tuple(ctx.scalar(v).val for v in r) for r in rows))

    @staticmethod
    def parse(ctx: FieldCtx, text: str) -> "Matrix":
        """Rows separated by ';', entries by ',', Scalar text entries."""
        rows = []
        for row_text in text.strip().split(";"):
            entries = [e for e in row_text.split(",")]
            if not entries or all(not e.strip() for e in entries):
                raise ParseError(f"empty matrix row in {text!r}")
            rows.append([ctx.parse(e) for e in entries])
        return Matrix(ctx, rows)

    def format(self) -> str:
        ctx = self.ctx
        return ";".join(",".join(str(Scalar(ctx, v)) for v in row) for row in self.rows)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.ctx is self.ctx
                and other.rows == self.rows)

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Matrix({self.format()})"

    def __getitem__(self, ij):
        return Scalar(self.ctx, self.rows[ij[0]][ij[1]])

    def __mul__(self, other: "Matrix") -> "Matrix":
        """Row i of the product is the sum over the nonzero a_ik of
        a_ik * (row k of other), accumulated over that row's nonzeros only."""
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.ncols} columns vs {other.nrows} rows")
        ctx = self.ctx
        if other.ctx is not ctx:
            raise ContextMismatch(f"mixed contexts {ctx!r} and {other.ctx!r}")
        add, mul, zero = ctx._add, ctx._mul, ctx._zero
        supports = [[(j, b) for j, b in enumerate(row) if b] for row in other.rows]
        out = []
        for row in self.rows:
            acc: list = [None] * other.ncols
            for k, a in enumerate(row):
                if not a:
                    continue
                unit = a == 1
                for j, b in supports[k]:
                    c = b if unit else mul(a, b)
                    old = acc[j]
                    acc[j] = c if old is None else add(old, c)
            out.append(tuple(zero if v is None else v for v in acc))
        return Matrix._raw(ctx, tuple(out))

    def apply(self, vec: Sequence[Scalar]) -> list[Scalar]:
        if len(vec) != self.ncols:
            raise DimensionMismatch(f"vector length {len(vec)} vs {self.ncols} columns")
        ctx = self.ctx
        if any(s.ctx is not ctx for s in vec):
            raise ContextMismatch("vector entry from a different context")
        add, mul = ctx._add, ctx._mul
        support = [(k, s.val) for k, s in enumerate(vec) if s.val]
        out = []
        for row in self.rows:
            acc = ctx._zero
            for k, b in support:
                a = row[k]
                if a:
                    acc = add(acc, mul(a, b))
            out.append(Scalar(ctx, acc))
        return out

    def transpose(self) -> "Matrix":
        return Matrix._raw(self.ctx, tuple(zip(*self.rows)))

    def is_identity(self) -> bool:
        return self.nrows == self.ncols and all(v == (1 if i == j else 0)
                                                for i, row in enumerate(self.rows)
                                                for j, v in enumerate(row))

    def permutation(self) -> list[int] | None:
        """pi with M e_j = e_{pi[j]}, or None if not a permutation matrix."""
        if self.nrows != self.ncols:
            return None
        pi = []
        for col in zip(*self.rows):
            hits = [i for i, v in enumerate(col) if v]
            if len(hits) != 1 or col[hits[0]] != 1:
                return None
            pi.append(hits[0])
        return pi if len(set(pi)) == self.nrows else None

    def inverse(self) -> "Matrix":
        """Read off the canonical kernel of the rows {i: -1, n+j: a_ij}, which
        is {(y, x) : Ax = y}.  A is invertible exactly when its free columns
        are 0..n-1, and then the vector at free column j is (e_j, A^-1 e_j)."""
        if self.nrows != self.ncols:
            raise NotInvertible("not square")
        n, ctx = self.ncols, self.ctx
        minus_one = ctx._neg(ctx._one)
        elim = _make_eliminator(ctx, 2 * n)
        for i, row in enumerate(self.rows):
            elim.add_raw({i: minus_one, **{n + j: a for j, a in enumerate(row) if a}})
        basis = elim.raw_kernel_basis()
        if [min(vec) for vec in basis] != list(range(n)):
            raise NotInvertible("singular matrix")
        zero = ctx._zero
        return Matrix._raw(ctx, tuple(tuple(vec.get(n + i, zero) for vec in basis)
                                      for i in range(n)))

    def det(self) -> Scalar:
        if self.nrows != self.ncols:
            raise DimensionMismatch("determinant of a non-square matrix")
        n, ctx = self.ncols, self.ctx
        sub, mul = ctx._sub, ctx._mul
        work = [list(row) for row in self.rows]
        det = ctx._one
        for col in range(n):
            pivot = next((r for r in range(col, n) if work[r][col]), None)
            if pivot is None:
                return ctx.zero
            if pivot != col:
                work[col], work[pivot] = work[pivot], work[col]
                det = ctx._neg(det)
            det = mul(det, work[col][col])
            inv = ctx._inv(work[col][col])
            for r in range(col + 1, n):
                if work[r][col]:
                    factor = mul(work[r][col], inv)
                    work[r] = [sub(a, mul(factor, b)) for a, b in zip(work[r], work[col])]
        return Scalar(ctx, det)


# ---------------------------------------------------------------------------
# row reduction engines
#
# Rows enter as sparse {column: Scalar} or raw-value dicts; a row's pivot is
# its highest nonzero column.  A row's Scalars may belong to an extension of
# the engine's field when their raw values are the engine field's own: an
# element of F_p has the same raw int in every F_{p^n}, and the reduced
# echelon kernel of rows over F_p is the same over F_{p^n}.
#
# The F_2 engine holds a row as one int, bit j for column j, in plain
# echelon form: a new row XORs in the pivot row of the highest pivot column
# it hits until it hits none, and what is left becomes a pivot row.  Reading
# the kernel back-substitutes once, in ascending pivot order.  A XOR costs
# one big-int operation however dense the rows, so the extra steps of an
# uncleared pivot row cost little.
#
# The generic engine holds raw-value dicts and clears them lazily.  A new
# row is reduced against the pivot rows it hits, then joins them; they are
# not cleared of its pivot at once.  Each pivot row remembers how many
# pivots it is cleared of, and is cleared of the rest only when an incoming
# row uses it or when kernel_basis() is read.  A cleared pivot row vanishes
# at every other pivot column, so reducing against the rows a new row hits
# is one pass in any order, with no fill at lower pivots.  A dict
# subtraction costs one step per entry, so that fill matters: plain echelon
# on dict rows took two to five times as long on dense rows (1,546 against
# 312 ms of CPU for the degree-3 rows of gl2:p=2,n=2, 337 against 157 ms
# for the degree-4 rows of gl2:p=3,n=1, the best of two runs each).
#
# Once every pivot row is cleared, the kernel vector of a free column j is 1
# at j, zero at the other free columns and nonzero only at pivot columns
# above j: kernel_basis() is the unique reduced row-echelon basis of the
# kernel, in ascending column order, whatever order the rows came in, read
# off the pivot rows' entries at free columns as one sparse dict each.


def _subtract(row: dict, factor, pivot: dict, ctx: FieldCtx) -> None:
    """row -= factor * pivot on raw values, in place, keeping nonzeros only;
    a factor of one multiplies nothing."""
    sub, mul, neg = ctx._sub, ctx._mul, ctx._neg
    unit = factor == 1
    for c, b in pivot.items():
        if not unit:
            b = mul(factor, b)
        old = row.get(c)
        if old is None:
            row[c] = neg(b)
        else:
            new = sub(old, b)
            if new:
                row[c] = new
            else:
                del row[c]


class _GenericEliminator:
    """Rows as sparse {column: raw value} dicts over any field."""

    def __init__(self, ctx: FieldCtx, ncols: int):
        self.ctx = ctx
        self.ncols = ncols
        self.pivots: dict[int, dict] = {}
        # pivot column -> number of pivots, in the order they came, that its
        # row is cleared of (its own included)
        self._cleared: dict[int, int] = {}

    def clone(self) -> "_GenericEliminator":
        out = _GenericEliminator(self.ctx, self.ncols)
        out.pivots = {c: dict(row) for c, row in self.pivots.items()}
        out._cleared = dict(self._cleared)
        return out

    def _pending(self, c: int) -> list[int]:
        """Pivot columns other than its own where pivot row c is nonzero."""
        return [col for col in self.pivots[c] if col != c and col in self.pivots]

    def _clean(self, cols: Iterable[int]) -> None:
        """Clear the pivot rows at `cols` of the pivots that came since.

        A row's pending columns lie below its pivot column, so the rows they
        need are collected first and every row is cleared in ascending column
        order, against rows that are clear already: no recursion, however long
        the chain of pending rows.
        """
        rank = len(self.pivots)
        stale, todo, seen = [], list(cols), set(cols)
        while todo:
            c = todo.pop()
            if self._cleared[c] != rank:
                stale.append(c)
                for col in self._pending(c):
                    if col not in seen:
                        seen.add(col)
                        todo.append(col)
        for c in sorted(stale):
            row = self.pivots[c]
            for col in self._pending(c):
                _subtract(row, row[col], self.pivots[col], self.ctx)
            self._cleared[c] = rank

    def add_row(self, row: dict[int, Scalar]) -> bool:
        return self.add_raw({c: s.val for c, s in row.items() if s.val})

    def add_raw(self, row: dict) -> bool:
        """Add a fresh {column: nonzero raw value} dict, which is consumed."""
        ctx = self.ctx
        for c in [c for c in row if c in self.pivots]:
            # a cleared pivot row changes no other hit's coefficient
            if self._cleared[c] != len(self.pivots):
                self._clean((c,))
            _subtract(row, row[c], self.pivots[c], ctx)
        if not row:
            return False
        lead = max(row)
        if row[lead] != 1:
            inv, mul = ctx._inv(row[lead]), ctx._mul
            row = {c: mul(v, inv) for c, v in row.items()}
        self.pivots[lead] = row
        self._cleared[lead] = len(self.pivots)
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def kernel_basis(self) -> list[dict[int, Scalar]]:
        """raw_kernel_basis() with one Scalar per distinct value."""
        scalars: dict = {}
        return [{c: scalars.get(v) or scalars.setdefault(v, Scalar(self.ctx, v))
                 for c, v in vec.items()} for vec in self.raw_kernel_basis()]

    def raw_kernel_basis(self) -> list[dict]:
        self._clean(self.pivots)
        one, neg = self.ctx._one, self.ctx._neg
        basis = {j: {j: one} for j in range(self.ncols) if j not in self.pivots}
        for c in sorted(self.pivots):
            for j, v in self.pivots[c].items():
                if j != c:
                    basis[j][c] = neg(v)
        return list(basis.values())


class _PackedChar2Eliminator:
    """Rows over F_2 as one int each: column j lives at bit j.  Every
    nonzero entry is one, so clearing a row at a pivot is one XOR."""

    def __init__(self, ctx: FieldCtx, ncols: int):
        if ctx.cardinality != 2:
            raise AssertionError("the packed eliminator needs the field F_2")
        self.ctx = ctx
        self.ncols = ncols
        self.pivots: dict[int, int] = {}
        self._pivot_mask = 0

    def clone(self) -> "_PackedChar2Eliminator":
        out = _PackedChar2Eliminator(self.ctx, self.ncols)
        out.pivots = dict(self.pivots)
        out._pivot_mask = self._pivot_mask
        return out

    # the generic engine's kernel_basis over raw_kernel_basis, and its rank
    kernel_basis = _GenericEliminator.kernel_basis
    rank = _GenericEliminator.rank

    def add_row(self, row: dict[int, Scalar]) -> bool:
        """Pack a {column: Scalar} row straight into one int: a value over
        F_2 is its column's bit."""
        bits = 0
        for c, s in row.items():
            bits |= s.val << c
        return self._insert(bits)

    def add_raw(self, row: dict) -> bool:
        bits = 0
        for c, v in row.items():
            bits |= v << c
        return self._insert(bits)

    def _insert(self, row: int) -> bool:
        """XOR in the pivot row of the highest pivot hit until there is none:
        a pivot row's highest bit is its pivot, so each XOR clears that bit
        and changes only lower ones.  What is left is a new pivot row."""
        pivots, mask = self.pivots, self._pivot_mask
        hits = row & mask
        while hits:
            row ^= pivots[hits.bit_length() - 1]
            hits = row & mask
        if not row:
            return False
        lead = row.bit_length() - 1
        self._pivot_mask = mask | 1 << lead
        pivots[lead] = row
        return True

    def raw_kernel_basis(self) -> list[dict]:
        """Back-substitute once, in ascending pivot order: the lower pivot
        rows a row holds are clear already, so each XOR adds free bits only.
        The rows keep their span and pivots: rows may be added after a read.

        Both walks take a row's set bits from the top by bit_length(), one
        step per set bit on ints no wider than the row; no int as wide as
        every column is built per row, so wide, sparse streams read fast."""
        pivots, mask = self.pivots, self._pivot_mask
        # -1 = 1, the only nonzero value of F_2
        basis = {j: {j: 1} for j in range(self.ncols) if j not in pivots}
        for c in sorted(pivots):
            row = pivots[c]
            top = 1 << c
            lower = (row & mask) ^ top
            while lower:
                j = lower.bit_length() - 1
                lower ^= 1 << j
                row ^= pivots[j]
            pivots[c] = row
            # c is now the row's only pivot bit: the rest are free columns
            rest = row ^ top
            while rest:
                j = rest.bit_length() - 1
                rest ^= 1 << j
                basis[j][c] = 1
        return list(basis.values())


def _make_eliminator(ctx: FieldCtx, ncols: int):
    if ctx.cardinality == 2:
        return _PackedChar2Eliminator(ctx, ncols)
    return _GenericEliminator(ctx, ncols)


# ---------------------------------------------------------------------------
# public entry points


def _sparse_kernel(rows: Iterable[dict[int, Scalar]], ncols: int,
                   ctx: FieldCtx) -> list[dict[int, Scalar]]:
    elim = _make_eliminator(ctx, ncols)
    for row in rows:
        elim.add_row(row)
    return elim.kernel_basis()


def kernel(rows: Iterable[dict[int, Scalar]], ncols: int, ctx: FieldCtx) -> list[list[Scalar]]:
    """Canonical (reduced row-echelon) basis of the joint kernel of the rows.

    Rows are consumed one at a time; the basis is unique, so the result is
    byte-reproducible whatever the row order.
    """
    zero = ctx.zero
    return [[vec.get(c, zero) for c in range(ncols)]
            for vec in _sparse_kernel(rows, ncols, ctx)]


def _sparse(vec: Sequence[Scalar]) -> dict[int, Scalar]:
    return {c: s for c, s in enumerate(vec) if not s.is_zero()}


def rref(vectors: Iterable[Sequence[Scalar]], ncols: int, ctx: FieldCtx) -> list[list[Scalar]]:
    """Reduced row-echelon basis of the span, rows sorted by pivot column.

    The span of V is the kernel of the kernel of V, over any field.
    """
    return kernel(_sparse_kernel(map(_sparse, vectors), ncols, ctx), ncols, ctx)


def rank(vectors: Iterable[Sequence[Scalar]], ncols: int, ctx: FieldCtx) -> int:
    elim = _make_eliminator(ctx, ncols)
    return sum(elim.add_row(_sparse(vec)) for vec in vectors)


def annihilation_check(kernel_vectors: Sequence[dict[int, Scalar]], ctx: FieldCtx):
    """A test that row . k = 0 for every row of a stream and every one of the
    sparse vectors k; it stops at the first row that fails.

    When they are the kernel basis of some rows, a row passes exactly when
    adding it would not raise their rank: their row space is the annihilator
    of their kernel.  Over F_2 each column is one int of K bits for K
    vectors, bit k set where vector k is one there, and a row passes when
    the XOR of its nonzero entries' ints is zero.  Other fields sum raw-value
    products over the row's columns.

    The rows may hold Scalars of an extension of ctx (see
    invariants._entry_field).  A raw value that is not one of ctx's fails
    the row rather than be read as one or reduced mod p: at every column
    over F_2, and elsewhere at the kernel's columns, the ones that enter a
    product.
    """
    if ctx.cardinality == 2:
        masks: dict[int, int] = {}
        for k, vec in enumerate(kernel_vectors):
            for c, s in vec.items():
                masks[c] = masks.get(c, 0) | s.val << k
        masks_get = masks.get

        def annihilates(rows: Iterable[dict[int, Scalar]]) -> bool:
            for row in rows:
                acc = 0
                for c, s in row.items():
                    v = s.val
                    if v == 1:
                        acc ^= masks_get(c, 0)
                    elif v:
                        return False
                if acc:
                    return False
            return True
        return annihilates
    add, mul, q = ctx._add, ctx._mul, ctx.cardinality
    by_column: dict[int, list] = {}
    for k, vec in enumerate(kernel_vectors):
        for c, s in vec.items():
            by_column.setdefault(c, []).append((k, s.val))

    def annihilates(rows: Iterable[dict[int, Scalar]]) -> bool:
        for row in rows:
            acc: dict[int, object] = {}
            for c, s in row.items():
                hits = by_column.get(c)
                if hits is None:
                    continue
                a = s.val
                if q and a >= q:
                    return False
                unit = a == 1
                for k, b in hits:
                    prod = b if unit else mul(a, b)
                    old = acc.get(k)
                    acc[k] = prod if old is None else add(old, prod)
            if any(acc.values()):
                return False
        return True
    return annihilates


def lift_matrix(m: Matrix, target: FieldCtx) -> Matrix:
    """The canonical embedding of check_lift: a prime-field value is already
    its own encoding in every extension of that prime, so only the context
    changes and the rows are shared."""
    check_lift(m.ctx, target)
    return m if m.ctx is target else Matrix._raw(target, m.rows)
