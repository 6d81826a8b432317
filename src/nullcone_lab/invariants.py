"""Invariant spaces by fixed-point linear algebra, and the separation engines.

Degree-d invariants are the kernel of the stacked constraints
coeffs(g.m - m) over the generators; constraint rows are streamed into the
eliminator generator by generator.  Then the rows of every remaining group
element are generated and must annihilate that kernel, which is the same as
leaving the generator rank unchanged (this is the all-elements
verification).  Bases are reduced row-echelon with graded-lex columns, so
witnesses and certificates are byte-reproducible; each basis polynomial is
built straight from the eliminator's sparse kernel vector.

The rows are eliminated and re-checked in the field of the generators'
entries, not of the module: in F_p when they all lie there, as for
permutation matrices or a module lifted from F_p, so over F_2 by the
one-int engine and the XOR re-check in any F_{2^n}.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter, abc
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    CharDividesDegree,
    CharDividesOrder,
    ContextMismatch,
    DimensionMismatch,
    NotFixedPoint,
    NotInvariantCandidate,
    NotInvariantGenerator,
    NotPermutationAction,
    RationalContext,
    TooManyColumns,
    TooManyPoints,
    VanishesAtPoint,
)
from .fields import FieldCtx, Scalar, ff_make, lift
from .groups import (PermutationBasis, Representation, capped_power, permutation_rep,
                     power_text)
from .linalg import Matrix, _make_eliminator, annihilation_check, rank
from .poly import (Monomial, Polynomial, mono_basis, monomial_images,
                   substitution_images, _basis_index, _exponent_basis)

DEFAULT_POINT_CAP = 10**6
# monomial columns of one invariant space; the largest that the tests, the
# suites and the benchmark workloads build has 3432 (degree 7 in 8 variables)
COLUMN_CAP = 10**5


# ---------------------------------------------------------------------------
# invariant spaces


def substitution_constraint_rows(matrix: Matrix, d: int) -> Iterator[dict[int, Scalar]]:
    """Rows of (B - I) where B is the degree-d action of the substitution
    x -> Mx on coefficient vectors: the kernel is the fixed space.  At
    degree 1, B is M^T, so row r is column r of M; above it, column c of B
    holds the image of the c-th basis monomial, one term if M is monomial."""
    ctx, nvars = matrix.ctx, matrix.nrows
    if d == 1:
        rows = [{} for _ in range(nvars)]
        for c, form in enumerate(matrix.rows):
            for r in itertools.compress(range(nvars), form):  # zeros skipped in C
                rows[r][c] = Scalar(ctx, form[r])
    else:
        basis, index = _exponent_basis(nvars, d), _basis_index(nvars, d)
        decoded = monomial_images(matrix, basis)
        if decoded is not None:
            # B permutes the basis up to scalars: column col sends its monomial
            # to row r with coefficient c, so row r is {col: c, r: -1}, or
            # {r: c - 1} at a fixed monomial (empty when that is zero), each
            # row written once with the entries in the general path's order
            targets, coeffs = decoded
            one = ctx.one
            minus_one = -one
            rows = [None] * len(basis)
            for col, (r, c) in enumerate(zip(map(index.__getitem__, targets), coeffs)):
                if r != col:
                    rows[r] = {col: c, r: minus_one}
                else:
                    val = c - one
                    rows[r] = {r: val} if val.val else {}
            return iter(rows)
        rows = [{} for _ in basis]
        for mono, image in substitution_images(matrix, basis):
            col = index[mono]
            for exps, coeff in image.items():
                rows[index[exps]][col] = coeff
    one = ctx.one
    minus_one = -one
    for col, row in enumerate(rows):
        entry = row.get(col)
        if entry is None:
            row[col] = minus_one
        else:
            val = entry - one
            if val.is_zero():
                del row[col]
            else:
                row[col] = val
    return iter(rows)


def check_column_count(nvars: int, d: int) -> None:
    """Refuse a degree-d space in nvars variables, C(nvars+d-1, d) columns,
    above COLUMN_CAP before any work starts.  That is C(n, k) >= 2^k for
    k = min(d, nvars-1): past k = 4000 it is not formed, nor written out
    past 13,000 bits."""
    k = min(d, nvars - 1)
    count = math.comb(nvars + d - 1, k) if k <= 4000 else None
    if count is None or count > COLUMN_CAP:
        shown = (count if count is not None and count.bit_length() <= 13000 else
                 f"at least 2^{k if count is None else count.bit_length() - 1}")
        raise TooManyColumns(f"degree {d} in {nvars} variables has {shown} "
                             f"monomial columns, above the cap {COLUMN_CAP}")


def _entry_field(ctx: FieldCtx, matrices: Sequence[Matrix]) -> FieldCtx:
    """F_p when ctx is F_{p^n} and every entry of the matrices is a raw value
    below p, else ctx.  Their constraint rows then lie in F_p, whose
    elements keep their raw ints in F_{p^n}, and the rows' reduced echelon
    kernel is the same over both fields."""
    if ctx.is_finite and ctx.n > 1:
        p = ctx.p
        if all(max(map(max, m.rows), default=0) < p for m in matrices):
            return ff_make(p)
    return ctx


def _fixed_space(ctx: FieldCtx, nvars: int, matrices: Iterable[Matrix],
                 d: int) -> list[dict[int, Scalar]]:
    """Canonical sparse basis of the degree-d polynomials f with f(Mx) = f
    for every M of the matrices: the kernel of their constraint rows.  With
    no matrices it is the whole degree-d space.  The rows are eliminated in
    the field that `_entry_field` picks, and the kernel's values come back
    as Scalars of ctx, one per distinct value."""
    matrices = list(matrices)
    field = _entry_field(ctx, matrices)
    elim = _make_eliminator(field, math.comb(nvars + d - 1, d))
    for matrix in matrices:
        for row in substitution_constraint_rows(matrix, d):
            if row:
                elim.add_row(row)
    basis = elim.kernel_basis()
    if field is not ctx:
        scalars: dict = {}
        basis = [{c: scalars.get(s.val) or scalars.setdefault(s.val, lift(s, ctx))
                  for c, s in vec.items()} for vec in basis]
    return basis


class InvariantSpace:
    """Canonical basis of the degree-d invariants of a representation.

    It keeps no reference to the representation, which caches it: a cycle
    would hold both until a full garbage collection.
    """

    def __init__(self, degree: int, basis: list[Polynomial]):
        self.degree = degree
        self.basis = basis

    @property
    def dim(self) -> int:
        return len(self.basis)


def invariant_space(rep: Representation, d: int) -> InvariantSpace:
    """Degree-d invariants: generator kernel K, verified against all elements.

    Only the generators' rows are eliminated; every other element's rows
    must annihilate K, which is the same as leaving their rank unchanged.
    """
    cached = rep._inv_space_cache.get(d)
    if cached is not None:
        return cached
    ctx, nvars = rep.ctx, rep.dim
    check_column_count(nvars, d)
    group = rep.group
    # g.f = f means f(rho(g)^-1 x) = f
    gens = [rep.inverse_matrix(g) for g in group.generator_indices]
    kernel_vectors = _fixed_space(ctx, nvars, gens, d)
    # the other elements' rows are checked in the generators' entry field: a
    # value outside it fails
    annihilates = annihilation_check(kernel_vectors, _entry_field(ctx, gens))
    gen_set = set(group.generator_indices)
    for g in range(group.order):
        if g == group.identity_index or g in gen_set:
            continue
        if not annihilates(substitution_constraint_rows(rep.inverse_matrix(g), d)):
            raise AssertionError(
                "generator-fixed space not fixed by the whole group; "
                "the closure or the representation is inconsistent")
    exponents = _exponent_basis(nvars, d)
    basis = [Polynomial(ctx, nvars, {exponents[c]: s for c, s in vec.items()},
                        _trusted=True)
             for vec in kernel_vectors]
    space = InvariantSpace(d, basis)
    rep._inv_space_cache[d] = space
    return space


# ---------------------------------------------------------------------------
# orbit sums and Reynolds averaging


def _orbit_sum(perms: Sequence[Sequence[int]], ctx: FieldCtx,
               e: tuple[int, ...]) -> Polynomial:
    """Sum of the monomials in the orbit of x^e under a group of index
    permutations."""
    return Polynomial(ctx, len(e), {tuple(e[k] for k in pi): ctx.one for pi in perms},
                      _trusted=True)


def orbit_sum(rep: Representation, m: Monomial) -> tuple[Polynomial, int]:
    """Sum of the distinct images of a monomial under a permutation action.

    Returns the orbit sum and the orbit size (G : Stab(m)).
    """
    total = _orbit_sum(rep.variable_permutations(), rep.ctx, m.exps)
    return total, len(total.terms)


def reynolds(rep: Representation, f: Polynomial) -> Polynomial:
    """Group average (1/|G|) sum g.f; needs |G| invertible in the field."""
    ctx = rep.ctx
    n = rep.group.order
    if ctx.is_finite and n % ctx.p == 0:
        raise CharDividesOrder(f"|G| = {n} vanishes in characteristic {ctx.p}")
    total = Polynomial.zero(ctx, rep.dim)
    for g in range(n):
        total = total + rep.act_on_poly(g, f)
    return total.scale(ctx.scalar(n).inverse())


# ---------------------------------------------------------------------------
# separation reports


class SeparationReport:
    """Result of an epsilon/delta/sigma computation with verified witness.

    point_values holds every enumerated point with its epsilon (None =
    unseparated), built on first read; it is kept for table exports, not
    serialised into the JSON report.  Both lists default to fresh empty ones.
    """

    def __init__(self, kind: str, value: int | None, witness: Polynomial | None,
                 points: list[list[Scalar]], degree_bound: int, field: FieldCtx,
                 undetermined_points: list[list[Scalar]] | None = None,
                 certified_complete: bool | None = None,
                 point_values: Sequence[tuple[list[Scalar], int | None]] | None = None):
        self.kind = kind
        self.value = value
        self.witness = witness
        self.points = points
        self.degree_bound = degree_bound
        self.field = field
        self.undetermined_points = [] if undetermined_points is None else undetermined_points
        self.certified_complete = certified_complete
        self.point_values = [] if point_values is None else point_values

    @property
    def determined(self) -> bool:
        return self.value is not None

    def to_dict(self) -> dict:
        text = point_text()
        out = {
            "kind": self.kind,
            "value": self.value if self.determined
            else {"undetermined_above": self.degree_bound},
            "witness": str(self.witness) if self.witness is not None else None,
            "points": [text(p) for p in self.points],
            "degree_bound": self.degree_bound,
            "field": self.field.describe(),
        }
        if self.kind in ("delta", "sigma"):
            out["undetermined_points"] = [text(p) for p in self.undetermined_points]
            if self.certified_complete is not None:
                out["certified_complete"] = self.certified_complete
        return out


def point_text() -> Callable[[Sequence[Scalar]], list[str]]:
    """The coordinate texts of points of one field, each distinct value
    formatted once for as long as the returned function is held."""
    texts: dict = {}

    def text(point):
        return [texts.get(s.val) or texts.setdefault(s.val, str(s)) for s in point]
    return text


def _is_fixed_point(rep: Representation, v: Sequence[Scalar]) -> bool:
    return all(rep.matrices[g].apply(v) == list(v)
               for g in rep.group.generator_indices)


def _check_point(rep: Representation, v: Sequence[Scalar]) -> list[Scalar]:
    if len(v) != rep.dim:
        raise DimensionMismatch(f"point has {len(v)} coordinates, "
                                f"module has {rep.dim}")
    for s in v:
        if s.ctx != rep.ctx:
            raise ContextMismatch("point coordinate from a different context")
    return list(v)


def _verify_invariant(rep: Representation, f: Polynomial) -> bool:
    """f is fixed by every generator, so by the whole group, as rho is a homomorphism."""
    return all(rep.act_on_poly(g, f) == f for g in rep.group.generator_indices)


def _orbit_product_invariant(rep: Representation, forms: Sequence[tuple]) -> bool:
    """True when every generator's matrix permutes the linear forms.

    The forms are raw row vectors l_k, and g.l = l rho(g)^-1.  If the rows
    l_k rho(s) are the multiset of the l_k for each generator s, so are the
    l_k rho(g) for every g, a product of generators; rho(g)^-1 = rho(g^-1)
    is one of them, so each g permutes the factors of their product, which
    is therefore invariant.  Reads only the generators' matrices and the forms.
    """
    factors = Matrix._raw(rep.ctx, tuple(forms))
    wanted = Counter(factors.rows)
    return all(Counter((factors * rep.matrices[s]).rows) == wanted
               for s in rep.group.generator_indices)


def _fast_path_epsilon(pb: PermutationBasis, slc: range, nvars: int):
    """The fast path's witness for an orbit of slots with no zero coordinate.

    Valid for p-groups in their own characteristic at fixed points: orbit
    sums span the invariants and O(m)(v) = |orbit| * m(v), so only fully
    stabilised monomials survive, and those are products over whole
    variable orbits.  Returns (witness, forms), where the witness is the
    product of the linear forms, the rows of the inverse basis matrix, one
    per slot of the orbit, as raw rows.
    """
    ctx = pb.ctx
    forms = [pb.basis_inverse.rows[k] for k in slc]
    witness = Polynomial.one(ctx, nvars)
    for row in forms:
        witness = witness * Polynomial.from_coeff_vector(
            ctx, nvars, 1, [Scalar(ctx, v) for v in row])
    return witness, forms


def _permutation_rep(rep: Representation) -> Representation:
    """pi: g -> P_g, the action in the coordinates of rep's permutation basis.

    Built once from the verified `perms` and cached on the basis; it holds
    the group but not rep, so no reference cycle forms.  When the basis is
    the standard one, pi is rep itself and shares its space cache.  It is
    also pi_S of `_support_rep` when S is every slot.
    """
    pb = rep.permutation_basis()
    if pb.basis_matrix.is_identity():
        return rep
    if pb.perm_rep is None:
        pb.perm_rep = permutation_rep(rep.group, pb.perms)
    return pb.perm_rep


def _support(pb: PermutationBasis, w: Sequence[Scalar]) -> tuple[int, ...]:
    """The slots of the orbits on which w is not all zero, ascending: the
    support of w when pi fixes w, as w is then constant on each orbit."""
    return tuple(k for s in pb.orbit_slices if any(not w[k].is_zero() for k in s)
                 for k in s)


def _support_rep(rep: Representation, support: tuple[int, ...]) -> Representation:
    """pi_S: pi restricted to the slots S of `support`, a union of slot
    orbits, renumbered in order; cached per support on the basis, and pi
    itself on every slot.  Setting x_k = 0 off S maps pi's invariants of
    each degree onto pi_S's (orbit sums span both), and f(w) = f|_S(w_S)
    when w vanishes off S.  A support that a generator's perm leaves is
    refused by an explicit check, which survives python -O."""
    if len(support) == rep.dim:
        return _permutation_rep(rep)
    pb = rep.permutation_basis()
    cached = pb.support_reps.get(support)
    if cached is None:
        slot = {k: i for i, k in enumerate(support)}
        if any(pb.perms[g][k] not in slot
               for g in rep.group.generator_indices for k in support):
            raise AssertionError("a generator moves a slot out of the support")
        cached = pb.support_reps[support] = permutation_rep(
            rep.group, [[slot[pi[k]] for k in support] for pi in pb.perms])
    return cached


def orbit_sums_vanish(rep: Representation, v: Sequence[Scalar], value: int) -> bool:
    """Every invariant of degree < value vanishes at v, by orbit sums.

    A second method beside the kernel engine, with no elimination: the
    orbit sums of the monomials under the slot permutations span the
    invariants of the permutation module in every characteristic
    (Derksen-Kemper; Goebel, J. Symbolic Comput. 19, 1995), and f -> f(Bx)
    carries them to rho's, so each must vanish at w = B^-1 v.  The orbits
    of slots where w is not all zero make a set S that the slot
    permutations keep, so an orbit sum of a monomial off S is zero at w:
    only the monomials on S are enumerated, under pi_S's permutations, and
    the column count is that of |S| variables.
    """
    pb = rep.permutation_basis()
    if pb is None:
        raise NotPermutationAction("no permutation basis was found")
    w = pb.coordinates(v)
    support = _support(pb, w)
    if not support:
        return True
    check_column_count(len(support), value - 1)
    perms = _support_rep(rep, support).variable_permutations()
    ws = [w[k] for k in support]
    for d in range(1, value):
        seen: set[tuple[int, ...]] = set()
        for e in _exponent_basis(len(support), d):
            if e not in seen:
                total = _orbit_sum(perms, rep.ctx, e)
                seen |= total.terms.keys()
                if not total.evaluate(ws).is_zero():
                    return False
    return True


def _epsilon_by_spaces(rep: Representation, v: list[Scalar],
                       dmax: int) -> SeparationReport:
    """The first basis vector of the invariant spaces of degree 1 to dmax
    that does not vanish at v: the one scan behind epsilon's general path
    and the fast path's lower degrees (nullcone_status asks epsilon)."""
    for d in range(1, dmax + 1):
        for f in invariant_space(rep, d).basis:
            if not f.evaluate(v).is_zero():
                return SeparationReport("epsilon", d, f, [v], dmax, rep.ctx)
    # the norm bound sigma(G, V) <= |G| (Kohls-Kraft, Math. Res. Lett. 17,
    # 2010): a product of |G| linear forms, one nonzero at each gv, is an
    # invariant nonzero at v.  At fast-path points v is nonzero iff w is.
    if dmax >= rep.group.order and any(not s.is_zero() for s in v):
        raise AssertionError(f"a nonzero point is undetermined at degree {dmax} "
                             f">= |G| = {rep.group.order}")
    return SeparationReport("epsilon", None, None, [v], dmax, rep.ctx)


def epsilon(rep: Representation, point: Sequence[Scalar], dmax: int) -> SeparationReport:
    """Least positive degree d <= dmax of an invariant nonvanishing at the point.

    Every emitted value is machine-checked: the witness is nonzero at the
    point, the full invariant space of each lower degree vanishes there, and
    the witness is invariant.  A fast-path witness is a product of linear
    forms, certified by checking that every generator's matrix permutes
    them.  On the fast path the lower degrees (every degree up to dmax when
    none separates) are checked in permutation coordinates, on pi_S of
    `_support_rep` at the support S of w = B^-1 v, with columns counted in
    |S| variables; the zero point builds no space.  Any other witness is a
    basis vector of an invariant space.
    """
    v = _check_point(rep, point)
    ctx = rep.ctx
    if (ctx.is_finite and rep.group.is_p_group(ctx.p)
            and rep.permutation_basis() is not None and _is_fixed_point(rep, v)):
        pb = rep.permutation_basis()
        w = pb.coordinates(v)
        # the first shortest orbit of slots on which w has no zero coordinate;
        # with none short enough, no invariant of degree <= dmax separates
        slc = min((s for s in pb.orbit_slices if all(not w[k].is_zero() for k in s)),
                  key=len, default=None)
        below = len(slc) if slc is not None and len(slc) <= dmax else dmax + 1
        # every invariant of degree < below vanishes at v: with rho(g) B = B P_g,
        # f -> f(Bx) maps the rho-invariants of each degree onto pi's, and
        # f(Bw) = f(v), so pi's spaces at w decide it; pi fixes w, so its
        # support is a union of slot orbits, and pi_S's spaces at w_S decide
        # it in turn.  Their constraint rows have at most two nonzeros each
        support = _support(pb, w)
        if support:
            # refuse before the witness or any lower degree is built
            check_column_count(len(support), below - 1)
            if _epsilon_by_spaces(_support_rep(rep, support), [w[k] for k in support],
                                  below - 1).determined:
                raise AssertionError("fast path disagreed with the invariant spaces")
        if below > dmax:
            return SeparationReport("epsilon", None, None, [v], dmax, ctx)
        witness, forms = _fast_path_epsilon(pb, slc, rep.dim)
        if not _orbit_product_invariant(rep, forms):
            raise AssertionError("fast-path witness failed its orbit-product certificate")
        if witness.evaluate(v).is_zero():
            raise AssertionError("fast-path witness vanishes at the point")
        return SeparationReport("epsilon", below, witness, [v], dmax, ctx)
    return _epsilon_by_spaces(rep, v, dmax)


def fixed_point_space(rep: Representation) -> list[list[Scalar]]:
    """Basis of the common fixed space of the representing matrices: the
    kernel of the generators' rho(s) - I, the degree-1 constraint rows of
    x -> rho(s)^T x, eliminated in the field of their entries."""
    transposes = (rep.matrices[g].transpose() for g in rep.group.generator_indices)
    zero = rep.ctx.zero
    return [[vec.get(c, zero) for c in range(rep.dim)]
            for vec in _fixed_space(rep.ctx, rep.dim, transposes, 1)]


def _checked_generators(rep: Representation,
                        declared: Sequence[Polynomial]) -> list[Polynomial]:
    out = []
    for f in declared:
        g = f if f.ctx == rep.ctx else _lift_poly(f, rep.ctx)
        if not _verify_invariant(rep, g):
            raise NotInvariantGenerator(f"declared generator {f} is not invariant")
        out.append(g)
    return out


def _lift_poly(f: Polynomial, target: FieldCtx) -> Polynomial:
    return Polynomial(target, f.nvars,
                      {e: lift(c, target) for e, c in f.terms.items()},
                      _trusted=True)


def _line_reps(q: int, k: int) -> Iterator[tuple[int, ...]]:
    """One raw tuple per F*-line of F_q^k, ascending: the lead-1 tuples.
    1 is the least nonzero raw value, so each is its line's first point in
    enumeration order."""
    for lead in reversed(range(k)):
        head = (0,) * lead + (1,)
        for tail in itertools.product(range(q), repeat=k - 1 - lead):
            yield head + tail


def _expand(ctx: FieldCtx, lines: Sequence[tuple[tuple[int, ...], int | None]],
            to_point) -> list[tuple[list[Scalar], int | None]]:
    """(point, value) for each point c*r, c in F*, of the lines (r, value),
    sorted by coefficient tuple."""
    mul, units = ctx._mul, range(1, ctx.cardinality)
    pairs = sorted((tuple(mul(c, x) for x in r), value)
                   for r, value in lines for c in units)
    return [(to_point(t), value) for t, value in pairs]


class _PointValues(abc.Sequence):
    """Every enumerated point with its epsilon, expanded from the lines on
    first read, so a JSON report never builds it."""

    def __init__(self, ctx: FieldCtx, lines, to_point):
        self._lines = (ctx, lines, to_point)

    @functools.cached_property
    def _pairs(self) -> list[tuple[list[Scalar], int | None]]:
        return _expand(*self._lines)

    def __len__(self):
        return len(self._pairs)

    def __getitem__(self, i):
        return self._pairs[i]

    def __eq__(self, other):
        return self._pairs == list(other)


def _frobenius_stable(rep: Representation, frob) -> bool:
    """Whether frob maps each generator's raw rows to one of rho(G)'s.  It is
    an injective ring map on matrices, so then frob(rho(G)) = rho(G)."""
    images = {tuple(map(frob, rep.matrices[s].rows)) for s in rep.group.generator_indices}
    return images <= {m.rows for m in rep.matrices}


def _line_frobenius(rep: Representation, basis: Sequence[Sequence[int]] | None = None):
    """phi: x -> x^p on raw tuples when epsilon is constant on the orbits of
    the lines under it, else None.  If phi(rho(G)) = rho(G), f -> f^phi maps
    each space of invariants onto itself and f^phi(phi v) = phi(f(v)).  phi
    fixes 0 and 1, so it permutes the lead-1 tuples; a delta point
    sum c_i b_i goes to sum phi(c_i) b_i when phi fixes every b_i."""
    if rep.ctx.n == 1:
        return None
    power, p = rep.ctx._pow, rep.ctx.p

    def frob(t):
        return tuple(power(x, p) for x in t)
    if basis is not None and any(frob(b) != tuple(b) for b in basis):
        return None
    return frob if _frobenius_stable(rep, frob) else None


def _sup_report(kind: str, rep: Representation, k: int, to_point, dmax: int,
                declared: Sequence[Polynomial] | None, frob) -> SeparationReport:
    """Sup of epsilon over the nonzero points of F_q^k, which to_point maps
    from coefficient tuples in their order, with one epsilon call per class
    of F*-lines under frob, phi of `_line_frobenius`, or per line without it.

    Every invariant space is spanned by homogeneous polynomials, and
    f(cv) = c^d f(v), so the basis vectors vanishing at v, the fixed-point
    test and the zero pattern of the permutation coordinates are the same
    at every point of the line F*v.  Each class is evaluated at the first
    point of its first line, and its other lines take that report.  The
    first line of the highest value is the first of its class, so values,
    witnesses, the point lists and the first error are those of evaluating
    every point; only reported lines become points.  Declared generators
    need not be homogeneous, so they are still evaluated at every
    undetermined point.
    """
    gens = _checked_generators(rep, declared) if declared is not None else None
    ctx = rep.ctx
    reports, shared = {}, {}
    for r in _line_reps(ctx.cardinality, k):
        rpt = shared.pop(r, None)
        if rpt is None:
            rpt = epsilon(rep, to_point(r), dmax)
            if frob is not None:
                image = frob(r)
                while image != r:
                    shared[image] = rpt
                    image = frob(image)
        reports[r] = rpt
    lines = [(r, rpt.value) for r, rpt in reports.items()]
    # max keeps the first line of the highest value, so its witness
    best = max((rpt for rpt in reports.values() if rpt.determined),
               key=lambda rpt: rpt.value, default=None)
    value, witness = (best.value, best.witness) if best else (None, None)

    def points(value):
        return [v for v, _ in _expand(ctx, [ln for ln in lines if ln[1] == value],
                                      to_point)]
    undetermined = points(None)
    certified = None
    if gens is not None:
        certified = all(all(g.evaluate(v).is_zero() for g in gens)
                        for v in undetermined)
    return SeparationReport(kind, value, witness,
                            points(value) if best else [], dmax, ctx,
                            undetermined_points=undetermined,
                            certified_complete=certified,
                            point_values=_PointValues(ctx, lines, to_point))


def delta_bounded(rep: Representation, dmax: int, pointfield: FieldCtx,
                  declared_generators: Sequence[Polynomial] | None = None,
                  cap: int = DEFAULT_POINT_CAP) -> SeparationReport:
    """Sup of epsilon over the nonzero fixed points with coordinates in
    `pointfield`.  The value is exact when every unseparated point is
    certified inside the nullcone by the declared generators; otherwise it
    is a lower bound and the unseparated points are listed.

    The fixed points are the span of the reduced echelon basis b_i of the
    fixed space, and the point of coefficients c is sum c_i b_i, so the
    coefficient order is the point order.  The span is a union of F*-lines
    and epsilon runs once per Frobenius class of lines when rho(G) and the
    b_i are phi-stable, else per line (see `_sup_report`), so only each
    class's first point and the points a report lists are built.  Each
    point built is checked fixed, which covers the rest: rho(g)(cv) = c rho(g)v.
    """
    if not pointfield.is_finite:
        raise RationalContext("delta enumerates the points of a finite field")
    rep = rep.lift(pointfield)
    basis = [[s.val for s in b] for b in fixed_point_space(rep)]
    check_point_count(pointfield, len(basis), cap)
    add, mul = pointfield._add, pointfield._mul

    def to_point(coeffs):
        v = [0] * rep.dim
        for c, b in zip(coeffs, basis):
            if c:
                v = [add(x, mul(c, y)) for x, y in zip(v, b)]
        point = [Scalar(pointfield, x) for x in v]
        if not _is_fixed_point(rep, point):
            raise AssertionError("fixed-space enumeration produced a moving point")
        return point
    return _sup_report("delta", rep, len(basis), to_point, dmax, declared_generators,
                       _line_frobenius(rep, basis))


def check_point_count(pointfield: FieldCtx | tuple[int, int],
                      dim: int | tuple[int, int], cap: int = DEFAULT_POINT_CAP) -> None:
    """Refuse the enumeration of pointfield^dim before any work starts.

    A module spec fixes the field order and the dimension before its field
    or module is built, so either may come as a pair (base, exponent).
    """
    if isinstance(pointfield, FieldCtx):
        if not pointfield.is_finite:
            raise RationalContext("sigma enumerates the points of a finite field")
        pointfield = (pointfield.p, pointfield.n)
    q, dim = pointfield, dim if isinstance(dim, tuple) else (dim, 1)
    if capped_power(capped_power(*q, cap), capped_power(*dim, cap), cap) > cap:
        raise TooManyPoints(f"{power_text(*q)}^{power_text(*dim)} points "
                            f"exceeds the cap {cap}")


def sigma_bounded(rep: Representation, dmax: int, pointfield: FieldCtx,
                  declared_generators: Sequence[Polynomial] | None = None,
                  cap: int = DEFAULT_POINT_CAP) -> SeparationReport:
    """Sup of epsilon over all nonzero points of the module over `pointfield`.

    Epsilon runs once per Frobenius class of F*-lines when rho(G) is
    phi-stable, else per line (see `_sup_report`); the point cap and the
    reports still count and list every point.  A point's coefficient tuple
    is its raw values.
    """
    check_point_count(pointfield, rep.dim, cap)
    rep = rep.lift(pointfield)
    return _sup_report("sigma", rep, rep.dim,
                       lambda c: [Scalar(pointfield, x) for x in c],
                       dmax, declared_generators, _line_frobenius(rep))


# ---------------------------------------------------------------------------
# nullcone membership


class NullconeStatus:
    """Verdict for one point: separated (out), certified in, or unknown."""

    def __init__(self, point: list[Scalar], verdict: str, certificate: Polynomial | None,
                 degree_bound: int, generators: list[Polynomial] | None = None):
        self.point = point
        self.verdict = verdict  # "out" | "in" | "unknown"
        self.certificate = certificate
        self.degree_bound = degree_bound
        self.generators = generators

    def to_dict(self) -> dict:
        return {
            "point": [str(s) for s in self.point],
            "verdict": self.verdict,
            "certificate": str(self.certificate) if self.certificate else None,
            "degree_bound": self.degree_bound,
            "generators": [str(g) for g in self.generators]
            if self.generators is not None else None,
        }


def nullcone_status(rep: Representation, point: Sequence[Scalar], dmax: int = 0,
                    declared_generators: Sequence[Polynomial] | None = None) -> NullconeStatus:
    """Out when `epsilon` finds an invariant of degree <= dmax that does not
    vanish at the point, with its witness as the certificate; In only when a
    declared-exhaustive generator list vanishes there entirely."""
    v = _check_point(rep, point)
    gens = (_checked_generators(rep, declared_generators)
            if declared_generators is not None else None)
    separated = epsilon(rep, v, dmax)
    if separated.determined:
        return NullconeStatus(v, "out", separated.witness, dmax, gens)
    if gens is not None and all(g.evaluate(v).is_zero() for g in gens):
        return NullconeStatus(v, "in", None, dmax, gens)
    return NullconeStatus(v, "unknown", None, dmax, gens)


# ---------------------------------------------------------------------------
# constructive degree reduction


def degree_reduce(rep: Representation, f: Polynomial,
                  point: Sequence[Scalar]) -> Polynomial:
    """From an invariant f with f(v) != 0 at a fixed point v, and with the
    characteristic not dividing d = deg f, produce a degree-1 invariant that
    is nonzero at v: the gradient of f at v, scaled by 1/(d f(v)).

    Differentiating f(rho(g) x) = f(x) at the fixed point v gives
    grad f(v) rho(g) = grad f(v), so the form x -> grad f(v) . x is
    invariant, and by Euler's identity its value at v is d f(v).
    """
    ctx = rep.ctx
    v = _check_point(rep, point)
    if not f.is_homogeneous() or f.degree() < 1:
        raise NotInvariantCandidate("need a homogeneous invariant of positive degree")
    if not _verify_invariant(rep, f):
        raise NotInvariantCandidate(f"{f} is not invariant")
    if not _is_fixed_point(rep, v):
        raise NotFixedPoint("the point must be fixed by the group")
    value = f.evaluate(v)
    if value.is_zero():
        raise VanishesAtPoint("f vanishes at the point")
    d = f.degree()
    if ctx.is_finite and d % ctx.p == 0:
        raise CharDividesDegree(f"characteristic {ctx.p} divides degree {d}")

    partials: list[dict] = [{} for _ in range(rep.dim)]
    for exps, coeff in f.terms.items():
        for i, e in enumerate(exps):
            if e:
                partials[i][exps[:i] + (e - 1,) + exps[i + 1:]] = coeff * ctx.scalar(e)
    gradient = [Polynomial(ctx, rep.dim, terms).evaluate(v) for terms in partials]
    scale = (ctx.scalar(d) * value).inverse()
    result = Polynomial.from_coeff_vector(ctx, rep.dim, 1, [g * scale for g in gradient])

    if result.degree() != 1:
        raise AssertionError("degree reduction did not reach degree 1")
    if not _verify_invariant(rep, result):
        raise AssertionError("degree reduction produced a non-invariant")
    if result.evaluate(v).is_zero():
        raise AssertionError("degree reduction produced a form vanishing at the point")
    return result


# ---------------------------------------------------------------------------
# bounded-degree generation certificates


class DegreeVerdict:
    def __init__(self, degree: int, candidate_dim: int, invariant_dim: int):
        self.degree = degree
        self.candidate_dim = candidate_dim
        self.invariant_dim = invariant_dim

    @property
    def equal(self) -> bool:
        return self.candidate_dim == self.invariant_dim


class GenerationCertificate:
    """Degreewise comparison of a candidate subalgebra with the invariants.

    When the candidates are also invariant for every parameter value of a
    parametric action (`ParametricAction.is_invariant`, checked apart from
    this), a degree with equal dimensions pins the parametric invariants
    there: the sandwich argument's two inclusions.
    """

    def __init__(self, candidates: list[Polynomial], degree_bound: int,
                 verdicts: list[DegreeVerdict]):
        self.candidates = candidates
        self.degree_bound = degree_bound
        self.verdicts = verdicts

    @property
    def all_equal(self) -> bool:
        return all(v.equal for v in self.verdicts)

    def to_dict(self) -> dict:
        return {
            "candidates": [str(c) for c in self.candidates],
            "degree_bound": self.degree_bound,
            "per_degree": [{"degree": v.degree, "candidate_dim": v.candidate_dim,
                            "invariant_dim": v.invariant_dim,
                            "verdict": "equal" if v.equal else "strict"}
                           for v in self.verdicts],
        }


def _candidate_degree_dim(candidates: list[Polynomial], degrees: list[int],
                          d: int, ctx: FieldCtx, nvars: int) -> int:
    """Dimension of the span of degree-d products of the candidates."""
    # exponent vectors e with sum(e_i * degrees[i]) == d, one candidate at a
    # time, each partial vector paired with the degree it still has to reach
    partials: list[tuple[tuple[int, ...], int]] = [((), d)]
    for deg in degrees:
        partials = [(exps + (e,), remaining - e * deg) for exps, remaining in partials
                    for e in range(remaining // deg + 1)]
    solutions = [exps for exps, remaining in partials if remaining == 0]
    if not solutions or not any(any(s) for s in solutions):
        return 0
    power_cache: dict[tuple[int, int], Polynomial] = {}

    def power(i: int, e: int) -> Polynomial:
        key = (i, e)
        p = power_cache.get(key)
        if p is None:
            p = candidates[i] ** e
            power_cache[key] = p
        return p

    vectors = []
    for exps in solutions:
        if not any(exps):
            continue
        prod = Polynomial.one(ctx, nvars)
        for i, e in enumerate(exps):
            if e:
                prod = prod * power(i, e)
        vectors.append(prod.coeff_vector(d))
    return rank(vectors, len(_exponent_basis(nvars, d)), ctx)


def check_generation(candidates: Sequence[Polynomial], rep: Representation,
                     degree_bound: int) -> GenerationCertificate:
    """Compare the candidate subalgebra with the invariant ring degreewise."""
    ctx, nvars = rep.ctx, rep.dim
    cands = []
    for f in candidates:
        g = f if f.ctx == ctx else _lift_poly(f, ctx)
        if g.is_zero() or not g.is_homogeneous():
            raise NotInvariantCandidate("candidates must be homogeneous and nonzero")
        if not _verify_invariant(rep, g):
            raise NotInvariantCandidate(f"candidate {f} is not invariant")
        cands.append(g)
    degrees = [f.degree() for f in cands]
    verdicts = []
    for d in range(1, degree_bound + 1):
        cand_dim = _candidate_degree_dim(cands, degrees, d, ctx, nvars)
        inv_dim = invariant_space(rep, d).dim
        if cand_dim > inv_dim:
            raise AssertionError("candidate span escaped the invariant space")
        verdicts.append(DegreeVerdict(d, cand_dim, inv_dim))
    return GenerationCertificate(list(cands), degree_bound, verdicts)


# ---------------------------------------------------------------------------
# weight analysis for diagonal actions


def weight_invariant_monomials(weights: Sequence[int], d: int,
                               modulus: int | None = None) -> list[Monomial]:
    """Degree-d monomials whose weight inner product vanishes (exactly, or
    mod `modulus` for a finite torus F_q* with modulus q-1)."""
    if modulus is not None and modulus < 2:
        raise DimensionMismatch(f"modulus must be >= 2, got {modulus}")
    out = []
    for m in mono_basis(len(weights), d):
        w = sum(wi * ei for wi, ei in zip(weights, m.exps))
        if (w % modulus == 0) if modulus is not None else (w == 0):
            out.append(m)
    return out
