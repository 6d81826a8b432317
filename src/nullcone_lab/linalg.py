"""Exact linear algebra over a FieldCtx: dense matrices of raw field values
with sparse products, and streamed elimination.

Two elimination engines sit behind one interface, both on raw field values:
a generic one holding rows as sparse {column: value} dicts, and a
characteristic-2 engine that packs each of the n coefficient planes of a row
into one Python int, so row operations become big-int XORs.  Constraint rows
are streamed into the eliminator one at a time; the full stacked matrix is
never materialised.  Both engines pivot on a row's highest column, which
makes their kernel basis the canonical reduced row-echelon one without a
second elimination, and both clear a pivot row of later pivots lazily: only
when a new row uses it, and once for all rows when the kernel is read.  The
kernel comes out as one sparse {column: Scalar} dict per free column, and
kernel() makes it dense; Matrix.inverse uses add_raw and raw_kernel_basis.
"""

from __future__ import annotations

import functools
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
# Rows enter as sparse {column: Scalar} or raw-value dicts and are held as
# raw values.  A row's pivot is its highest nonzero column.  A new row is
# reduced against the pivot rows it hits, then joins them; they are not
# cleared of its pivot at once.  Instead each pivot row remembers which pivot
# columns it is already cleared of, and is cleared of the rest only when an
# incoming row uses it (the packed engine: only if it is nonzero at one of
# them) or when kernel_basis() is read.  A cleared pivot row vanishes at
# every other pivot column, so reducing against the rows a new row hits is
# one pass in any order, and adding a pivot scans no other pivot row.
#
# Once every pivot row is cleared, the kernel vector of a free column j is 1
# at j, zero at the other free columns and nonzero only at pivot columns
# above j: kernel_basis() is the unique reduced row-echelon basis of the
# kernel, in ascending column order, whatever order the rows came in.  It is
# read off each pivot row's entries at free columns, one sparse
# {column: value} dict per free column.


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
        if not (ctx.p == 2 and ctx.is_finite):
            raise AssertionError("the packed eliminator needs a field of characteristic 2")
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

    @staticmethod
    def _coeff_at(planes: list[int], col: int) -> int:
        """The raw value at col, one bit from each plane."""
        bits = 0
        for i, pl in enumerate(planes):
            bits |= ((pl >> col) & 1) << i
        return bits

    def pack(self, entries: Iterable[tuple[int, int]]) -> list[int]:
        """Bit planes of (column, raw value) pairs, grouped by value first."""
        masks: dict = {}  # raw value -> columns holding it
        for c, v in entries:
            masks[v] = masks.get(v, 0) | (1 << c)
        planes = [0] * self.nplanes
        for bits, mask in masks.items():
            for i in range(self.nplanes):
                if (bits >> i) & 1:
                    planes[i] |= mask
        return planes

    def _reduce(self, planes: list[int], hits: int) -> list[int]:
        """Clear `planes` at the pivot columns in `hits`, where it is nonzero.

        Each pivot row used is cleared first, so it changes no other hit's
        coefficient and one pass in any order suffices.  A hit whose
        coefficient is one, as every hit over F_2 is, costs one XOR per plane.
        """
        mask = self._pivot_mask
        single = self.nplanes == 1
        while hits:
            c = (hits & -hits).bit_length() - 1
            hits &= hits - 1
            if self._cleared[c] != mask:  # stale only if nonzero at a pivot since
                if self._support(self.pivots[c]) & (mask ^ self._cleared[c]):
                    self._clean(1 << c)
                self._cleared[c] = mask
            if single:
                planes = [planes[0] ^ self.pivots[c][0]]
            else:
                scaled = self._scaled(self.pivots[c], self._coeff_at(planes, c))
                planes = [a ^ b for a, b in zip(planes, scaled)]
        return planes

    def _clean(self, cols: int) -> None:
        """Clear the pivot rows at `cols` that are nonzero at pivots added since.

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
            pending = self._support(self.pivots[c]) & (mask ^ self._cleared[c])
            if pending:
                stale |= 1 << c
                todo |= pending & ~seen
                seen |= pending
        while stale:
            c = (stale & -stale).bit_length() - 1
            stale &= stale - 1
            planes = self.pivots[c]
            hits = self._support(planes) & (mask ^ self._cleared[c])
            self.pivots[c] = self._reduce(planes, hits)
            self._cleared[c] = mask

    # the generic engine's kernel_basis over raw_kernel_basis, and its rank
    kernel_basis = _GenericEliminator.kernel_basis
    rank = _GenericEliminator.rank

    def add_row(self, row: dict[int, Scalar]) -> bool:
        """Pack a {column: Scalar} row straight into planes, with no copy
        of raw values; over F_2 each value is its column's bit."""
        if self.nplanes == 1:
            bits = 0
            for c, s in row.items():
                bits |= s.val << c
            return self._insert([bits])
        return self._insert(self.pack((c, s.val) for c, s in row.items()))

    def add_raw(self, row: dict) -> bool:
        return self._insert(self.pack(row.items()))

    def _insert(self, planes: list[int]) -> bool:
        """Reduce a packed row at the pivots it hits, if any, and keep what
        is left as the pivot row of its highest column, led by one."""
        support = self._support(planes)
        hits = support & self._pivot_mask
        if hits:
            planes = self._reduce(planes, hits)
            support = self._support(planes)
        if not support:
            return False
        lead = support.bit_length() - 1
        # normalise so the leading coefficient is 1, as every one over F_2 is
        if self.nplanes != 1:
            coeff = self._coeff_at(planes, lead)
            if coeff != 1:
                planes = self._scaled(planes, self.ctx._inv(coeff))
        self._pivot_mask |= 1 << lead
        self.pivots[lead] = planes
        self._cleared[lead] = self._pivot_mask
        return True

    def raw_kernel_basis(self) -> list[dict]:
        self._clean(self._pivot_mask)
        # -x = x in characteristic 2
        basis = {j: {j: 1} for j in range(self.ncols) if j not in self.pivots}
        free = ~self._pivot_mask
        single = self.nplanes == 1  # every nonzero entry over F_2 is one
        for c in sorted(self.pivots):
            planes = self.pivots[c]
            rest = self._support(planes) & free
            while rest:
                j = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                basis[j][c] = 1 if single else self._coeff_at(planes, j)
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
    """A test that row . k = 0 for every row of a stream and every one of the
    sparse vectors k; it stops at the first row that fails.

    When they are the kernel basis of some rows, a row passes exactly when
    adding it would not raise their rank: their row space is the annihilator
    of their kernel.  In characteristic 2 each column is one int of n
    bit-planes, K bits each for K vectors: bit i*K + k is bit i of vector k's
    value there.  A row passes when the XOR of its entries' planes is zero.
    Over F_2 every nonzero entry is one.  Over F_{2^n} the masks of a row's
    entries that share a value are XORed first, and each value other than
    one scales its sum once through _mul_plan, as multiplication is linear.
    Other fields sum raw-value products over the row's columns.
    """
    if ctx.is_finite and ctx.p == 2:
        width = len(kernel_vectors)
        shifts, full = [i * width for i in range(ctx.n)], (1 << width) - 1
        # a raw value with its bit i moved to bit i * width
        spread = functools.cache(lambda v: sum(((v >> i) & 1) << shift
                                               for i, shift in enumerate(shifts)))
        masks: dict[int, int] = {}
        for k, vec in enumerate(kernel_vectors):
            for c, s in vec.items():
                masks[c] = masks.get(c, 0) | spread(s.val) << k
        masks_get = masks.get

        if ctx.n == 1:
            def annihilates(rows: Iterable[dict[int, Scalar]]) -> bool:
                for row in rows:
                    acc = 0
                    for c, s in row.items():
                        if s.val:
                            acc ^= masks_get(c, 0)
                    if acc:
                        return False
                return True
            return annihilates

        def scaled(mask: int, a: int) -> int:
            planes = [(mask >> shift) & full for shift in shifts]
            out = 0
            for shift, srcs in zip(shifts, _mul_plan(ctx, a)):
                for j in srcs:
                    out ^= planes[j] << shift
            return out

        def annihilates(rows: Iterable[dict[int, Scalar]]) -> bool:
            for row in rows:
                by_value: dict[int, int] = {}
                for c, s in row.items():
                    mask = masks_get(c)
                    if mask:
                        by_value[s.val] = by_value.get(s.val, 0) ^ mask
                acc = 0
                for a, mask in by_value.items():
                    acc ^= mask if a == 1 else scaled(mask, a)
                if acc:
                    return False
            return True
        return annihilates
    add, mul = ctx._add, ctx._mul
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
