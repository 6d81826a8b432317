"""Invariant spaces by fixed-point linear algebra, and the separation engines.

Degree-d invariants are the kernel of the stacked constraints
coeffs(g.m - m) over the generators; constraint rows are streamed into the
eliminator generator by generator, then the remaining group elements are
streamed as well and must not change the rank (this is the all-elements
verification).  Bases are reduced row-echelon with graded-lex columns, so
witnesses and certificates are byte-reproducible; each basis polynomial is
built straight from the eliminator's sparse kernel vector.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from typing import Iterator, Sequence

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
from .fields import FieldCtx, Scalar, lift
from .groups import PermutationBasis, Representation, permutation_rep
from .linalg import Matrix, _make_eliminator, kernel, rank
from .poly import (Monomial, Polynomial, mono_basis, substitution_images,
                   _basis_index, _exponent_basis)

DEFAULT_POINT_CAP = 10**6
# monomial columns of one invariant space; the largest that the tests, the
# suites and the benchmark workloads build has 3432 (degree 7 in 8 variables)
COLUMN_CAP = 10**5


# ---------------------------------------------------------------------------
# invariant spaces


def substitution_constraint_rows(matrix: Matrix, d: int) -> Iterator[dict[int, Scalar]]:
    """Rows of (B - I) where B is the degree-d action of the substitution
    x -> Mx on coefficient vectors: the kernel is the fixed space."""
    nvars = matrix.nrows
    index = _basis_index(nvars, d)
    ncols = len(index)
    rows: list[dict[int, Scalar]] = [dict() for _ in range(ncols)]
    for mono, image in substitution_images(matrix, _exponent_basis(nvars, d)):
        col = index[mono]
        for exps, coeff in image.items():
            rows[index[exps]][col] = coeff
    one = matrix.ctx.one
    for col in range(ncols):
        entry = rows[col].get(col)
        if entry is None:
            rows[col][col] = -one
        else:
            val = entry - one
            if val.is_zero():
                del rows[col][col]
            else:
                rows[col][col] = val
    return iter(rows)


def check_column_count(nvars: int, d: int) -> None:
    """Refuse a degree-d space in nvars variables, C(nvars+d-1, d) columns,
    above COLUMN_CAP before any work starts."""
    count = math.comb(nvars + d - 1, d)
    if count > COLUMN_CAP:
        raise TooManyColumns(f"degree {d} in {nvars} variables has {count} "
                             f"monomial columns, above the cap {COLUMN_CAP}")


def _constraint_rows(rep: Representation, g: int, d: int) -> Iterator[dict[int, Scalar]]:
    """Constraint rows for g.f = f, i.e. f(rho(g)^-1 x) = f."""
    return substitution_constraint_rows(rep.inverse_matrix(g), d)


@dataclass
class InvariantSpace:
    """Canonical basis of the degree-d invariants of a representation.

    It keeps no reference to the representation, which caches it: a cycle
    would hold both until a full garbage collection.
    """

    degree: int
    basis: list[Polynomial]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def evaluate_all(self, point: Sequence[Scalar]) -> list[Scalar]:
        return [f.evaluate(point) for f in self.basis]


def invariant_space(rep: Representation, d: int) -> InvariantSpace:
    """Degree-d invariants: generator kernel, verified against all elements."""
    cached = rep._inv_space_cache.get(d)
    if cached is not None:
        return cached
    ctx, nvars = rep.ctx, rep.dim
    check_column_count(nvars, d)
    exponents = _exponent_basis(nvars, d)
    elim = _make_eliminator(ctx, len(exponents))
    group = rep.group
    gen_set = set(group.generator_indices)
    for g in group.generator_indices:
        for row in _constraint_rows(rep, g, d):
            if row:
                elim.add_row(row)
    generator_rank = elim.rank
    for g in range(group.order):
        if g == group.identity_index or g in gen_set:
            continue
        for row in _constraint_rows(rep, g, d):
            if row and elim.add_row(row):
                raise AssertionError(
                    "generator-fixed space not fixed by the whole group; "
                    "the closure or the representation is inconsistent")
    if elim.rank != generator_rank:
        raise AssertionError("the all-elements re-check changed the rank")
    basis = [Polynomial(ctx, nvars, {exponents[c]: s for c, s in vec.items()},
                        _trusted=True)
             for vec in elim.kernel_basis()]
    space = InvariantSpace(d, basis)
    rep._inv_space_cache[d] = space
    return space


# ---------------------------------------------------------------------------
# orbit sums and Reynolds averaging


def orbit_sum(rep: Representation, m: Monomial) -> tuple[Polynomial, int]:
    """Sum of the distinct images of a monomial under a permutation action.

    Returns the orbit sum and the orbit size (G : Stab(m)).
    """
    rep.variable_permutations()  # raises NotPermutationAction if unsuitable
    ctx = rep.ctx
    mono = Polynomial.from_monomial(ctx, m)
    seen: dict = {}
    for g in range(rep.group.order):
        image = rep.act_on_poly(g, mono)
        key = next(iter(image.terms))
        seen[key] = image
    total = Polynomial.zero(ctx, rep.dim)
    for image in seen.values():
        total = total + image
    return total, len(seen)


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


@dataclass
class SeparationReport:
    """Result of an epsilon/delta/sigma computation with verified witness."""

    kind: str
    value: int | None
    witness: Polynomial | None
    points: list[list[Scalar]]
    degree_bound: int
    field: FieldCtx
    undetermined_points: list[list[Scalar]] = dataclass_field(default_factory=list)
    certified_complete: bool | None = None
    # every enumerated point with its epsilon (None = unseparated); kept for
    # table exports, deliberately not serialised into the JSON report
    point_values: list[tuple[list[Scalar], int | None]] = \
        dataclass_field(default_factory=list)

    @property
    def determined(self) -> bool:
        return self.value is not None

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "value": self.value if self.determined
            else {"undetermined_above": self.degree_bound},
            "witness": str(self.witness) if self.witness is not None else None,
            "points": [[str(s) for s in p] for p in self.points],
            "degree_bound": self.degree_bound,
            "field": self.field.describe(),
        }
        if self.kind in ("delta", "sigma"):
            out["undetermined_points"] = [[str(s) for s in p]
                                          for p in self.undetermined_points]
            if self.certified_complete is not None:
                out["certified_complete"] = self.certified_complete
        return out


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
    return all(rep.act_on_poly(g, f) == f for g in range(rep.group.order))


def _orbit_product_invariant(rep: Representation,
                             forms: Sequence[Sequence[Scalar]]) -> bool:
    """True when every representing matrix permutes the linear forms.

    The forms are row vectors l_k, and g.l = l rho(g)^-1.  The inverses
    rho(g)^-1 run over all of rep.matrices, so if every l_k rho lies in the
    multiset of the l_k, each g permutes the factors of their product, which
    is therefore invariant.  Reads only the matrices and the forms.
    """
    factors = Matrix(rep.ctx, forms)
    wanted = Counter(factors.key())
    return all(Counter((factors * m).key()) == wanted for m in rep.matrices)


def _nonvanishing_orbit(pb: PermutationBasis, w: Sequence[Scalar]) -> range | None:
    """The first shortest orbit of slots on which w has no zero coordinate."""
    hits = [slc for slc in pb.orbit_slices if all(not w[k].is_zero() for k in slc)]
    return min(hits, key=len, default=None)


def _fast_path_epsilon(rep: Representation, v: list[Scalar]):
    """Minimal degree of an invariant monomial in permutation coordinates.

    Valid for p-groups in their own characteristic at fixed points: orbit
    sums span the invariants and O(m)(v) = |orbit| * m(v), so only fully
    stabilised monomials survive, and those are products over whole
    variable orbits.  Returns (degree, witness, forms), where the witness is
    the product of the linear forms (rows of the inverse basis matrix, one
    per slot of the orbit), or None when no orbit has all coordinates
    nonzero (the point lies in the nullcone).
    """
    pb = rep.permutation_basis()
    slc = _nonvanishing_orbit(pb, pb.coordinates(v))
    if slc is None:
        return None
    witness = Polynomial.one(rep.ctx, rep.dim)
    for k in slc:
        witness = witness * pb.slot_coordinate_form(k, rep.dim)
    return len(slc), witness, [pb.basis_inverse.rows[k] for k in slc]


def _permutation_rep(rep: Representation) -> Representation:
    """pi: g -> P_g, the action in the coordinates of rep's permutation basis.

    Built once from the verified `perms` and cached on the basis; it holds
    the group but not rep, so no reference cycle forms.  When the basis is
    the standard one, pi is rep itself and shares its space cache.
    """
    pb = rep.permutation_basis()
    if pb.basis_matrix.is_identity():
        return rep
    if pb.perm_rep is None:
        pb.perm_rep = permutation_rep(rep.group, pb.perms)
    return pb.perm_rep


def _lower_degrees_vanish(rep: Representation, v: Sequence[Scalar], value: int) -> bool:
    """Every invariant of degree < value vanishes at v, checked on pi.

    With rho(g) B = B P_g, f -> f(Bx) maps the rho-invariants of each degree
    onto the pi-invariants, and f(Bw) = f(v) at w = B^-1 v; so pi's spaces
    at w decide the claim, and pi's constraint rows have at most two
    nonzeros each.
    """
    w = rep.permutation_basis().coordinates(v)
    pi = _permutation_rep(rep)
    return all(s.is_zero() for d in range(1, value)
               for s in invariant_space(pi, d).evaluate_all(w))


def orbit_sums_vanish(rep: Representation, v: Sequence[Scalar], value: int) -> bool:
    """Every invariant of degree < value vanishes at v, by orbit sums.

    A second method beside the kernel engine, with no elimination: the
    orbit sums of the monomials under the slot permutations span the
    invariants of the permutation module in every characteristic
    (Derksen-Kemper; Goebel, J. Symbolic Comput. 19, 1995), and f -> f(Bx)
    carries them to rho's, so each must vanish at w = B^-1 v.
    """
    pb = rep.permutation_basis()
    if pb is None:
        raise NotPermutationAction("no permutation basis was found")
    check_column_count(rep.dim, value - 1)
    w = pb.coordinates(v)
    one = rep.ctx.one
    for d in range(1, value):
        seen: set[tuple[int, ...]] = set()
        for e in _exponent_basis(rep.dim, d):
            if e in seen:
                continue
            orbit = {tuple(e[k] for k in pi) for pi in pb.perms}
            seen |= orbit
            total = rep.ctx.zero
            for m in orbit:
                term = one
                for k, x in enumerate(m):
                    if x:
                        term = term * w[k] ** x
                total = total + term
            if not total.is_zero():
                return False
    return True


def epsilon(rep: Representation, point: Sequence[Scalar], dmax: int,
            use_fast_path: bool = True) -> SeparationReport:
    """Least positive degree d <= dmax of an invariant nonvanishing at the point.

    Every emitted value is machine-checked: the witness is nonzero at the
    point, the full invariant space of each lower degree vanishes there, and
    the witness is invariant.  A fast-path witness is a product of linear
    forms, certified by checking that every representing matrix permutes
    them.  On the fast path the lower degrees (every degree up to dmax when
    none separates) are checked in permutation coordinates.  Any other
    witness is a basis vector of an invariant space.
    """
    v = _check_point(rep, point)
    ctx = rep.ctx
    if (use_fast_path and ctx.is_finite and rep.group.is_p_group(ctx.p)
            and rep.permutation_basis() is not None and _is_fixed_point(rep, v)):
        pb = rep.permutation_basis()
        slc = _nonvanishing_orbit(pb, pb.coordinates(v))
        if slc is None or len(slc) > dmax:
            # no invariant of degree <= dmax separates the point
            check_column_count(rep.dim, dmax)
            if not _lower_degrees_vanish(rep, v, dmax + 1):
                raise AssertionError("fast path disagreed with the invariant spaces")
            return SeparationReport("epsilon", None, None, [v], dmax, ctx)
        # refuse before the witness or any lower degree is built
        check_column_count(rep.dim, len(slc) - 1)
        value, witness, forms = _fast_path_epsilon(rep, v)
        if not _lower_degrees_vanish(rep, v, value):
            raise AssertionError("fast path disagreed with the invariant spaces")
        if not _orbit_product_invariant(rep, forms):
            raise AssertionError("fast-path witness failed its orbit-product certificate")
        if witness.evaluate(v).is_zero():
            raise AssertionError("fast-path witness vanishes at the point")
        return SeparationReport("epsilon", value, witness, [v], dmax, ctx)

    for d in range(1, dmax + 1):
        space = invariant_space(rep, d)
        for f in space.basis:
            if not f.evaluate(v).is_zero():
                return SeparationReport("epsilon", d, f, [v], dmax, ctx)
    return SeparationReport("epsilon", None, None, [v], dmax, ctx)


def fixed_point_space(rep: Representation) -> list[list[Scalar]]:
    """Basis of the common fixed space of the representing matrices."""
    ctx, dim = rep.ctx, rep.dim
    rows: list[dict[int, Scalar]] = []
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


def _span_points(basis: list[list[Scalar]], ctx: FieldCtx,
                 cap: int) -> list[list[Scalar]]:
    """All nonzero points of the span over a finite field, sorted."""
    k = len(basis)
    if k == 0:
        return []
    count = ctx.cardinality**k
    if count > cap:
        raise TooManyPoints(f"{count} points exceeds the cap {cap}")
    elems = ctx.enumerate()
    points = []
    for coeffs in itertools.product(elems, repeat=k):
        if all(c.is_zero() for c in coeffs):
            continue
        v = [ctx.zero] * len(basis[0])
        for c, b in zip(coeffs, basis):
            if not c.is_zero():
                v = [acc + c * x for acc, x in zip(v, b)]
        points.append(v)
    points.sort(key=lambda p: tuple(s.sort_key() for s in p))
    return points


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


def _sup_report(kind: str, rep: Representation, points: list[list[Scalar]],
                dmax: int, declared: Sequence[Polynomial] | None) -> SeparationReport:
    gens = _checked_generators(rep, declared) if declared is not None else None
    reports = [epsilon(rep, v, dmax) for v in points]

    value = None
    achieving: list[list[Scalar]] = []
    witness = None
    undetermined: list[list[Scalar]] = []
    for v, rpt in zip(points, reports):
        if not rpt.determined:
            undetermined.append(v)
            continue
        if value is None or rpt.value > value:
            value, achieving, witness = rpt.value, [v], rpt.witness
        elif rpt.value == value:
            achieving.append(v)
    certified = None
    if gens is not None:
        certified = all(all(g.evaluate(v).is_zero() for g in gens)
                        for v in undetermined)
    return SeparationReport(kind, value, witness, achieving, dmax, rep.ctx,
                            undetermined_points=undetermined,
                            certified_complete=certified,
                            point_values=[(v, rpt.value)
                                          for v, rpt in zip(points, reports)])


def delta_bounded(rep: Representation, dmax: int, pointfield: FieldCtx,
                  declared_generators: Sequence[Polynomial] | None = None,
                  cap: int = DEFAULT_POINT_CAP) -> SeparationReport:
    """Sup of epsilon over the nonzero fixed points with coordinates in
    `pointfield`.  The value is exact when every unseparated point is
    certified inside the nullcone by the declared generators; otherwise it
    is a lower bound and the unseparated points are listed.
    """
    if not pointfield.is_finite:
        raise RationalContext("delta enumerates the points of a finite field")
    rep = rep.lift(pointfield)
    basis = fixed_point_space(rep)
    points = _span_points(basis, pointfield, cap)
    for v in points:
        if not _is_fixed_point(rep, v):
            raise AssertionError("fixed-space enumeration produced a moving point")
    return _sup_report("delta", rep, points, dmax, declared_generators)


def check_point_count(pointfield: FieldCtx, dim: int,
                      cap: int = DEFAULT_POINT_CAP) -> None:
    """Refuse sigma's enumeration of pointfield^dim before any work starts."""
    if not pointfield.is_finite:
        raise RationalContext("sigma enumerates the points of a finite field")
    if pointfield.cardinality**dim > cap:
        raise TooManyPoints(f"{pointfield.cardinality}^{dim} points "
                            f"exceeds the cap {cap}")


def sigma_bounded(rep: Representation, dmax: int, pointfield: FieldCtx,
                  declared_generators: Sequence[Polynomial] | None = None,
                  cap: int = DEFAULT_POINT_CAP) -> SeparationReport:
    """Sup of epsilon over all nonzero points of the module over `pointfield`."""
    check_point_count(pointfield, rep.dim, cap)
    rep = rep.lift(pointfield)
    # enumerate() is ascending with zero first, so these are already sorted
    points = [list(c) for c in itertools.product(pointfield.enumerate(),
                                                 repeat=rep.dim)][1:]
    return _sup_report("sigma", rep, points, dmax, declared_generators)


# ---------------------------------------------------------------------------
# nullcone membership


@dataclass
class NullconeStatus:
    """Verdict for one point: separated (out), certified in, or unknown."""

    point: list[Scalar]
    verdict: str  # "out" | "in" | "unknown"
    certificate: Polynomial | None
    degree_bound: int
    generators: list[Polynomial] | None = None

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
    """Out if an invariant of degree <= dmax separates the point; In only
    when a declared-exhaustive generator list vanishes there entirely."""
    v = _check_point(rep, point)
    gens = (_checked_generators(rep, declared_generators)
            if declared_generators is not None else None)
    for d in range(1, dmax + 1):
        for f in invariant_space(rep, d).basis:
            if not f.evaluate(v).is_zero():
                return NullconeStatus(v, "out", f, dmax, gens)
    if gens is not None and all(g.evaluate(v).is_zero() for g in gens):
        return NullconeStatus(v, "in", None, dmax, gens)
    return NullconeStatus(v, "unknown", None, dmax, gens)


# ---------------------------------------------------------------------------
# constructive degree reduction


def degree_reduce(rep: Representation, f: Polynomial,
                  point: Sequence[Scalar]) -> Polynomial:
    """From an invariant f with f(v) != 0 at a fixed point v, and with the
    characteristic not dividing deg f, produce a degree-1 invariant that is
    nonzero at v: complete v to a basis, normalise the pure power of the
    first coordinate, and return x0 + deg^-1 * (coefficient of x0^(deg-1)).
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

    if d == 1:
        result = f.scale(value.inverse())
    else:
        n = rep.dim
        # complete v to a basis with standard vectors, deterministically
        columns = [v]
        elim = _make_eliminator(ctx, n)
        elim.add_row({i: s for i, s in enumerate(v) if not s.is_zero()})
        for j in range(n):
            e_j = [ctx.one if i == j else ctx.zero for i in range(n)]
            if elim.add_row({j: ctx.one}):
                columns.append(e_j)
            if len(columns) == n:
                break
        basis_matrix = Matrix(ctx, list(zip(*columns)))
        f_new = f.substitute_linear(basis_matrix).scale(value.inverse())
        # c1 = coefficient polynomial of y0^(d-1)
        c1_terms = {}
        for exps, coeff in f_new.terms.items():
            if exps[0] == d - 1:
                rest = (0,) + exps[1:]
                if sum(rest) == 1:
                    c1_terms[rest] = coeff
        c1 = Polynomial(ctx, n, c1_terms, _trusted=True)
        d_inv = ctx.scalar(d).inverse()
        reduced_new = Polynomial.variable(ctx, n, 0) + c1.scale(d_inv)
        result = reduced_new.substitute_linear(basis_matrix.inverse())

    if result.degree() != 1:
        raise AssertionError("degree reduction did not reach degree 1")
    if not _verify_invariant(rep, result):
        raise AssertionError("degree reduction produced a non-invariant")
    if result.evaluate(v).is_zero():
        raise AssertionError("degree reduction produced a form vanishing at the point")
    return result


# ---------------------------------------------------------------------------
# bounded-degree generation certificates


@dataclass
class DegreeVerdict:
    degree: int
    candidate_dim: int
    invariant_dim: int

    @property
    def equal(self) -> bool:
        return self.candidate_dim == self.invariant_dim


@dataclass
class GenerationCertificate:
    """Degreewise comparison of a candidate subalgebra with the invariants.

    With parametric invariance flags set, candidate products sit inside the
    invariants of every specialisation of the parametric action, so a
    degree with equal dimensions pins the full invariant space there (the
    sandwich argument's two inclusions).
    """

    candidates: list[Polynomial]
    degree_bound: int
    verdicts: list[DegreeVerdict]
    parametric_flags: list[bool] | None = None

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
            "parametric_invariance": self.parametric_flags,
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
                     degree_bound: int,
                     parametric_witness=None) -> GenerationCertificate:
    """Compare the candidate subalgebra with the invariant ring degreewise.

    `parametric_witness`, when given, must expose is_invariant(f); each
    candidate is then also checked invariant for every parameter value,
    which upgrades "equal" verdicts into exact statements about the
    parametric group's invariants.
    """
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
    flags = None
    if parametric_witness is not None:
        flags = [parametric_witness.is_invariant(f) for f in candidates]
    return GenerationCertificate(list(cands), degree_bound, verdicts, flags)


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
