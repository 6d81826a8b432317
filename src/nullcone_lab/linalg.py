"""Exact linear algebra over a FieldCtx: dense matrices with sparse
products, and streamed elimination.

Two elimination engines sit behind one interface, both on raw field values:
a generic one holding rows as sparse {column: value} dicts, and a
characteristic-2 engine that packs each of the n coefficient planes of a row
into one Python int, so row operations become big-int XORs.  Constraint rows
are streamed into the eliminator one at a time; the full stacked matrix is
never materialised.  Both engines pivot on a row's highest column, which
makes their kernel basis the canonical reduced row-echelon one without a
second elimination, and both clear a pivot row of later pivots lazily: only
when a new row uses it, and once for all rows when the kernel is read.  The
kernel comes out as one sparse {column: Scalar} dict per free column;
kernel() makes it dense, and Matrix.inverse reads the inverse off it.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

from .errors import ContextMismatch, DimensionMismatch, NotInvertible, ParseError
from .fields import FieldCtx, Scalar

# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """An immutable matrix of Scalars over one context."""

    __slots__ = ("ctx", "rows", "nrows", "ncols", "_key")

    def __init__(self, ctx: FieldCtx, rows: Sequence[Sequence[Scalar]]):
        self.ctx = ctx
        self.rows = tuple(tuple(r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise DimensionMismatch("ragged rows")
            for s in r:
                if s.ctx != ctx:
                    raise ContextMismatch("matrix entry from a different context")
        self._key = None

    @staticmethod
    def identity(ctx: FieldCtx, n: int) -> "Matrix":
        zero, one = ctx.zero, ctx.one
        return Matrix(ctx, [[one if i == j else zero for j in range(n)]
                            for i in range(n)])

    @staticmethod
    def from_ints(ctx: FieldCtx, rows: Sequence[Sequence[int]]) -> "Matrix":
        return Matrix(ctx, [[ctx.scalar(v) for v in r] for r in rows])

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
        return ";".join(",".join(str(s) for s in row) for row in self.rows)

    def key(self):
        """Hashable content key (used to index group elements)."""
        if self._key is None:
            self._key = tuple(tuple(s.val for s in row) for row in self.rows)
        return self._key

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.ctx == self.ctx
                and other.key() == self.key())

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Matrix({self.format()})"

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __mul__(self, other: "Matrix") -> "Matrix":
        """Row i of the product is the sum over the nonzero a_ik of
        a_ik * (row k of other), accumulated over that row's nonzeros only.
        The contexts are checked once; the sums run on raw field values."""
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.ncols} columns vs {other.nrows} rows")
        ctx = self.ctx
        if other.ctx != ctx:
            raise ContextMismatch(f"mixed contexts {ctx!r} and {other.ctx!r}")
        add, mul = ctx._add, ctx._mul
        zero_val, one_val = ctx.zero.val, ctx.one.val
        supports = [[(j, b.val) for j, b in enumerate(row) if b.val != zero_val]
                    for row in other.rows]
        out = []
        for row in self.rows:
            acc: list = [None] * other.ncols
            for k, s in enumerate(row):
                a = s.val
                if a == zero_val:
                    continue
                unit = a == one_val
                for j, b in supports[k]:
                    c = b if unit else mul(a, b)
                    old = acc[j]
                    acc[j] = c if old is None else add(old, c)
            out.append([Scalar(ctx, zero_val if v is None else v) for v in acc])
        return Matrix(ctx, out)

    def apply(self, vec: Sequence[Scalar]) -> list[Scalar]:
        if len(vec) != self.ncols:
            raise DimensionMismatch(f"vector length {len(vec)} vs {self.ncols} columns")
        zero = self.ctx.zero
        zero_val = zero.val
        support = [(k, b) for k, b in enumerate(vec) if not b.is_zero()]
        out = []
        for row in self.rows:
            acc = None
            for k, b in support:
                a = row[k]
                if a.val != zero_val:
                    acc = a * b if acc is None else acc + a * b
            out.append(zero if acc is None else acc)
        return out

    def transpose(self) -> "Matrix":
        return Matrix(self.ctx, list(zip(*self.rows)))

    def is_identity(self) -> bool:
        if self.nrows != self.ncols:
            return False
        for i, row in enumerate(self.rows):
            for j, s in enumerate(row):
                if (i == j) != (not s.is_zero()) or (i == j and not s.is_one()):
                    return False
        return True

    def permutation(self) -> list[int] | None:
        """pi with M e_j = e_{pi[j]}, or None if not a permutation matrix."""
        if self.nrows != self.ncols:
            return None
        pi = []
        for col in zip(*self.rows):
            hits = [i for i, s in enumerate(col) if not s.is_zero()]
            if len(hits) != 1 or not col[hits[0]].is_one():
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
        minus_one = -ctx.one
        rows = ({i: minus_one, **{n + j: a for j, a in enumerate(row) if not a.is_zero()}}
                for i, row in enumerate(self.rows))
        basis = _sparse_kernel(rows, 2 * n, ctx)
        if [min(vec) for vec in basis] != list(range(n)):
            raise NotInvertible("singular matrix")
        zero = ctx.zero
        return Matrix(ctx, [[vec.get(n + i, zero) for vec in basis] for i in range(n)])

    def det(self) -> Scalar:
        if self.nrows != self.ncols:
            raise DimensionMismatch("determinant of a non-square matrix")
        n = self.ncols
        work = [list(row) for row in self.rows]
        det = self.ctx.one
        for col in range(n):
            pivot = next((r for r in range(col, n) if not work[r][col].is_zero()), None)
            if pivot is None:
                return self.ctx.zero
            if pivot != col:
                work[col], work[pivot] = work[pivot], work[col]
                det = -det
            det = det * work[col][col]
            inv = work[col][col].inverse()
            for r in range(col + 1, n):
                if not work[r][col].is_zero():
                    factor = work[r][col] * inv
                    work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
        return det


# ---------------------------------------------------------------------------
# row reduction engines
#
# Rows enter as sparse {column: Scalar} dicts and are held as raw values.  A
# row's pivot is its highest nonzero column.  A new row is reduced against the
# pivot rows it hits, then joins them; they are not cleared of its pivot at once.
# Instead each pivot row remembers which pivot columns it is already cleared
# of, and is cleared of the rest only when an incoming row uses it or when
# kernel_basis() is read.  A cleared pivot row vanishes at every other pivot
# column, so reducing against the rows a new row hits is one pass, in any
# order, and no step scans all the pivot rows when a pivot is added.
#
# Once every pivot row is cleared, the kernel vector of a free column j is 1
# at j, zero at the other free columns and nonzero only at pivot columns
# above j: kernel_basis() is the unique reduced row-echelon basis of the
# kernel, in ascending column order, whatever order the rows came in.  It is
# read off each pivot row's entries at free columns, one sparse
# {column: Scalar} dict per free column.


def _subtract(row: dict, factor, pivot: dict, ctx: FieldCtx) -> None:
    """row -= factor * pivot on raw values, in place, keeping nonzeros only."""
    sub, mul, neg = ctx._sub, ctx._mul, ctx._neg
    for c, b in pivot.items():
        old = row.get(c)
        if old is None:
            row[c] = neg(mul(factor, b))
        else:
            new = sub(old, mul(factor, b))
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
        ctx = self.ctx
        row = {c: s.val for c, s in row.items() if s.val}
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
        self._clean(self.pivots)
        ctx = self.ctx
        one, neg = ctx.one, ctx._neg
        basis = {j: {j: one} for j in range(self.ncols) if j not in self.pivots}
        for c in sorted(self.pivots):
            for j, v in self.pivots[c].items():
                if j != c:
                    basis[j][c] = Scalar(ctx, neg(v))
        return list(basis.values())


# A packed coefficient is an int whose bit i is the plane-i bit.  A field
# value in characteristic 2, whether in F_2 or in F_{2^n}, already is that int.


@functools.lru_cache(maxsize=4096)  # at least |F_4096^*|
def _mul_plan(ctx: FieldCtx, coeff: int) -> tuple[tuple[int, ...], ...]:
    """plan[i] = input planes XORed into output plane i under mul by coeff."""
    products = [ctx._mul(coeff, 1 << j) for j in range(ctx.n)]
    return tuple(tuple(j for j, prod in enumerate(products) if (prod >> i) & 1)
                 for i in range(ctx.n))


class _PackedChar2Eliminator:
    """Rows over F_{2^n} as n bit-plane ints; column j lives at bit j."""

    def __init__(self, ctx: FieldCtx, ncols: int):
        assert ctx.p == 2 and ctx.is_finite
        self.ctx = ctx
        self.nplanes = ctx.n
        self.ncols = ncols
        self.pivots: dict[int, list[int]] = {}
        self._pivot_mask = 0
        # pivot column -> mask of the pivot columns (its own included) that
        # its row is cleared of
        self._cleared: dict[int, int] = {}

    def clone(self) -> "_PackedChar2Eliminator":
        out = _PackedChar2Eliminator(self.ctx, self.ncols)
        # plane lists are replaced, never changed in place, so they are shared
        out.pivots = dict(self.pivots)
        out._pivot_mask = self._pivot_mask
        out._cleared = dict(self._cleared)
        return out

    def _scaled(self, planes: list[int], coeff: int) -> list[int]:
        if coeff == 1:
            return planes
        return [self._xor_all(planes, srcs) for srcs in _mul_plan(self.ctx, coeff)]

    @staticmethod
    def _xor_all(planes: list[int], srcs: tuple[int, ...]) -> int:
        acc = 0
        for j in srcs:
            acc ^= planes[j]
        return acc

    @staticmethod
    def _support(planes: list[int]) -> int:
        acc = 0
        for pl in planes:
            acc |= pl
        return acc

    def _coeff_at(self, planes: list[int], col: int) -> int:
        if self.nplanes == 1:
            return (planes[0] >> col) & 1
        bits = 0
        for i, pl in enumerate(planes):
            bits |= ((pl >> col) & 1) << i
        return bits

    def pack(self, row: dict[int, Scalar]) -> list[int]:
        masks: dict = {}  # raw value -> columns holding it
        for c, s in row.items():
            masks[s.val] = masks.get(s.val, 0) | (1 << c)
        planes = [0] * self.nplanes
        for bits, mask in masks.items():
            for i in range(self.nplanes):
                if (bits >> i) & 1:
                    planes[i] |= mask
        return planes

    def _reduce(self, planes: list[int], hits: int) -> list[int]:
        """Clear `planes` at the pivot columns in `hits`, where it is nonzero.

        Each pivot row used is cleared first, so it changes no other hit's
        coefficient and one pass in any order suffices.
        """
        mask = self._pivot_mask
        while hits:
            c = (hits & -hits).bit_length() - 1
            hits &= hits - 1
            if self._cleared[c] != mask:
                self._clean(1 << c)
            scaled = self._scaled(self.pivots[c], self._coeff_at(planes, c))
            planes = [a ^ b for a, b in zip(planes, scaled)]
        return planes

    def _clean(self, cols: int) -> None:
        """Clear the pivot rows at `cols` of the pivots added since.

        A row's pending columns lie below its pivot column, so the rows they
        need are collected first and every row is cleared in ascending column
        order, against rows that are clear already: no recursion, however long
        the chain of pending rows.
        """
        mask = self._pivot_mask
        stale, todo, seen = 0, cols, cols
        while todo:
            c = todo.bit_length() - 1
            todo ^= 1 << c
            cleared = self._cleared[c]
            if cleared != mask:
                stale |= 1 << c
                pending = self._support(self.pivots[c]) & mask & ~cleared & ~seen
                seen |= pending
                todo |= pending
        while stale:
            c = (stale & -stale).bit_length() - 1
            stale &= stale - 1
            planes = self.pivots[c]
            hits = self._support(planes) & mask & ~self._cleared[c]
            self.pivots[c] = self._reduce(planes, hits)
            self._cleared[c] = mask

    def add_row(self, row: dict[int, Scalar]) -> bool:
        planes = self.pack(row)
        planes = self._reduce(planes, self._support(planes) & self._pivot_mask)
        support = self._support(planes)
        if not support:
            return False
        lead = support.bit_length() - 1
        # normalise so the leading coefficient is 1
        coeff = self._coeff_at(planes, lead)
        if coeff != 1:
            planes = self._scaled(planes, self.ctx._inv(coeff))
        self._pivot_mask |= 1 << lead
        self.pivots[lead] = planes
        self._cleared[lead] = self._pivot_mask
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def kernel_basis(self) -> list[dict[int, Scalar]]:
        self._clean(self._pivot_mask)
        ctx = self.ctx
        one = ctx.one
        scalars = {1: one}  # -x = x in characteristic 2
        basis = {j: {j: one} for j in range(self.ncols) if j not in self.pivots}
        free = ~self._pivot_mask
        for c in sorted(self.pivots):
            planes = self.pivots[c]
            rest = self._support(planes) & free
            while rest:
                j = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                coeff = self._coeff_at(planes, j)
                s = scalars.get(coeff)
                if s is None:
                    s = scalars[coeff] = Scalar(ctx, coeff)
                basis[j][c] = s
        return list(basis.values())


def _make_eliminator(ctx: FieldCtx, ncols: int):
    if ctx.is_finite and ctx.p == 2:
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
    """A test of row . k = 0 for every one of the sparse vectors k.

    When they are the kernel basis of some rows, a row passes exactly when
    adding it would not raise their rank: their row space is the annihilator
    of their kernel.  The sums run on raw values over the row's columns,
    through a column -> [(vector, raw value)] index.
    """
    add, mul = ctx._add, ctx._mul
    by_column: dict[int, list] = {}
    for k, vec in enumerate(kernel_vectors):
        for c, s in vec.items():
            by_column.setdefault(c, []).append((k, s.val))

    def annihilates(row: dict[int, Scalar]) -> bool:
        acc: dict[int, object] = {}
        for c, s in row.items():
            hits = by_column.get(c)
            if hits is None:
                continue
            a = s.val
            unit = a == 1
            for k, b in hits:
                prod = b if unit else mul(a, b)
                old = acc.get(k)
                acc[k] = prod if old is None else add(old, prod)
        return not any(acc.values())
    return annihilates


def lift_matrix(m: Matrix, target: FieldCtx) -> Matrix:
    from .fields import lift as lift_scalar
    if m.ctx == target:
        return m
    return Matrix(target, [[lift_scalar(s, target) for s in row] for row in m.rows])
