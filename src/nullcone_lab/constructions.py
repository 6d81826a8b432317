"""Builders for the specific modules the workbench analyses.

Covers the 2-dimensional translation modules and their symmetric powers,
the endomorphism module used for the delta lower bound, the 3-dimensional
twisted translation modules with their parametric form, the finite-torus
module driving the sigma construction, the rational 4-dimensional
two-parameter example, and generic-parameter invariance checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    DimensionMismatch,
    NotPrime,
    SingularSpecialization,
    WeightCollision,
)
from .fields import FieldCtx, Scalar, ff_make, frobenius
from .groups import (
    MatrixGroup,
    Representation,
    hom_rep,
    sym_power_rep,
    vectorized_identity,
)
from .invariants import substitution_constraint_rows
from .linalg import Matrix, kernel
from .poly import Polynomial, mono_basis


# ---------------------------------------------------------------------------
# parametric actions


class ParametricAction:
    """A matrix of parameter polynomials with a verified parametric inverse.

    Entries live in the polynomial ring over `ctx` in `nparams` parameter
    variables; the product with the supplied inverse must be the identity
    identically in the parameters, which the constructor checks.
    """

    def __init__(self, ctx: FieldCtx, nvars: int, nparams: int,
                 entries: Sequence[Sequence[Polynomial]],
                 inverse_entries: Sequence[Sequence[Polynomial]]):
        self.ctx = ctx
        self.nvars = nvars
        self.nparams = nparams
        self.entries = [list(row) for row in entries]
        self.inverse_entries = [list(row) for row in inverse_entries]
        for rows in (self.entries, self.inverse_entries):
            if len(rows) != nvars or any(len(r) != nvars for r in rows):
                raise DimensionMismatch("parametric matrix must be nvars x nvars")
        self._verify_inverse_identity()

    def _verify_inverse_identity(self):
        one = Polynomial.one(self.ctx, self.nparams)
        zero = Polynomial.zero(self.ctx, self.nparams)
        for i in range(self.nvars):
            for j in range(self.nvars):
                acc = zero
                for k in range(self.nvars):
                    acc = acc + self.entries[i][k] * self.inverse_entries[k][j]
                if acc != (one if i == j else zero):
                    raise SingularSpecialization(
                        "inverse entries do not invert the matrix identically")

    def specialize(self, params: Sequence[Scalar]) -> Matrix:
        if len(params) != self.nparams:
            raise DimensionMismatch(f"need {self.nparams} parameters")
        point = [self.ctx.scalar(p) if not isinstance(p, Scalar) else p
                 for p in params]
        m = Matrix(self.ctx, [[e.evaluate(point) for e in row]
                              for row in self.entries])
        minv = Matrix(self.ctx, [[e.evaluate(point) for e in row]
                                 for row in self.inverse_entries])
        if not (m * minv).is_identity():
            raise SingularSpecialization(f"specialisation at {params} is singular")
        return m

    # -- generic invariance ---------------------------------------------------

    def _combined(self, p: Polynomial, is_param_poly: bool) -> Polynomial:
        """Lift into the ring with parameters first, then the x variables."""
        total = self.nparams + self.nvars
        if is_param_poly:
            terms = {e + (0,) * self.nvars: c for e, c in p.terms.items()}
        else:
            terms = {(0,) * self.nparams + e: c for e, c in p.terms.items()}
        return Polynomial(self.ctx, total, terms, _trusted=True)

    def generic_image(self, f: Polynomial) -> Polynomial:
        """f composed with the generic inverse matrix, in the combined ring."""
        if f.nvars != self.nvars or f.ctx != self.ctx:
            raise DimensionMismatch("polynomial does not match this action")
        total = self.nparams + self.nvars
        param_vars = [Polynomial.variable(self.ctx, total, i)
                      for i in range(self.nparams)]
        forms = []
        for i in range(self.nvars):
            acc = Polynomial.zero(self.ctx, total)
            for j in range(self.nvars):
                entry = self.inverse_entries[i][j]
                if not entry.is_zero():
                    acc = acc + self._combined(entry, True) * \
                        Polynomial.variable(self.ctx, total, self.nparams + j)
            forms.append(acc)
        return self._combined(f, False).substitute(param_vars + forms)

    def is_invariant(self, f: Polynomial) -> bool:
        """True iff f is fixed under every specialisation of the parameters:
        the substituted polynomial equals f identically in the parameters."""
        return self.generic_image(f) == self._combined(f, False)


# ---------------------------------------------------------------------------
# translation modules in dimension 2


def translation_matrix(ctx: FieldCtx, t: Scalar) -> Matrix:
    return Matrix(ctx, [[ctx.one, t], [ctx.zero, ctx.one]])


def gn_module(p: int, n: int) -> tuple[MatrixGroup, Representation]:
    """The order-p^n group of translations u_t = [[1,t],[0,1]], t in F_{p^n},
    on its natural 2-dimensional module (X fixed, Y moved to Y + tX)."""
    ctx = ff_make(p, n)
    if ctx.kind == "extension":
        gens = [translation_matrix(ctx, ctx.from_coeffs(tuple(
            1 if i == k else 0 for i in range(n)))) for k in range(n)]
    else:
        gens = [translation_matrix(ctx, ctx.one)]
    group = MatrixGroup.closure(gens)
    assert group.order == p**n
    return group, group.natural_rep()


@dataclass
class VandermondeReport:
    """Outcome of checking S^(q-1) of the translation module against the
    regular representation: the orbit of the pure power of the moved basis
    vector must be a nonsingular (Vandermonde) system carrying a free,
    transitive permutation action."""

    p: int
    n: int
    basis_found: bool
    coefficient_pattern_ok: bool
    nonsingular: bool
    free: bool
    transitive: bool
    fixes_no_slot: bool

    @property
    def passed(self) -> bool:
        return (self.basis_found and self.coefficient_pattern_ok
                and self.nonsingular and self.free and self.transitive
                and self.fixes_no_slot)

    def to_dict(self) -> dict:
        return {
            "p": self.p, "n": self.n, "basis_found": self.basis_found,
            "coefficient_pattern_ok": self.coefficient_pattern_ok,
            "nonsingular": self.nonsingular, "free": self.free,
            "transitive": self.transitive, "fixes_no_slot": self.fixes_no_slot,
            "passed": self.passed,
        }


def vandermonde_regular_check(p: int, n: int) -> VandermondeReport:
    """Certify that S^(p^n - 1) of the translation module is the regular
    representation, through the explicit orbit basis of Y^(p^n - 1)."""
    q = p**n
    if q > 25:
        raise DimensionMismatch("check intended for p^n <= 25")
    group, nat = gn_module(p, n)
    m = q - 1
    sym = sym_power_rep(nat, m)
    pb = sym.permutation_basis()
    if pb is None:
        return VandermondeReport(p, n, False, False, False, False, False, False)

    # basis slot j carries X^(m-j) Y^j, so the image of the seed Y^m under
    # u_t must have coordinate (-t)^(m-j) at slot j: the alternating
    # binomial expansion whose t-columns form a Vandermonde system
    ctx = group.ctx
    seed = [ctx.one if idx == sym.dim - 1 else ctx.zero for idx in range(sym.dim)]
    pattern_ok = True
    for gi in range(group.order):
        t = group.elements[gi][0, 1]
        expected = [(-t) ** (m - j) for j in range(q)]
        if sym.matrices[gi].apply(seed) != expected:
            pattern_ok = False
    return VandermondeReport(p, n, True, pattern_ok,
                             not pb.basis_matrix.det().is_zero(),
                             pb.is_free(), pb.is_transitive(), pb.fixes_no_slot())


def binomial_mod_p(p: int, big_n: int, k: int) -> int:
    """C(big_n, k) mod p by the base-p digit (Lucas) decomposition,
    cross-checked against the big-integer binomial for big_n <= 64."""
    if not 0 <= k <= big_n:
        raise DimensionMismatch(f"need 0 <= k <= N, got k={k}, N={big_n}")
    result = 1
    nn, kk = big_n, k
    while kk:
        nd, kd = nn % p, kk % p
        if kd > nd:
            result = 0
            break
        result = result * (math.comb(nd, kd) % p) % p
        nn //= p
        kk //= p
    if big_n <= 64:
        assert result == math.comb(big_n, k) % p
    return result


# ---------------------------------------------------------------------------
# twisted 3-dimensional translation modules


def va_translation_matrix(ctx: FieldCtx, t: Scalar, twist: int) -> Matrix:
    """u_t = [[1,0,0],[-t,1,0],[-t^twist,0,1]] with twist a power of char."""
    z, o = ctx.zero, ctx.one
    return Matrix(ctx, [[o, z, z], [-t, o, z], [-(t**twist), z, o]])


@dataclass
class VaModule:
    """Level-m finite stage of the twisted translation action on k^3."""

    p: int
    n: int
    m: int
    group: MatrixGroup
    rep: Representation
    parametric: ParametricAction
    candidates: list[Polynomial]

    @property
    def ctx(self) -> FieldCtx:
        return self.group.ctx


def va_candidates(p: int, n: int, ctx: FieldCtx) -> list[Polynomial]:
    """The claimed generators x0 and x2*x0^(p^n - 1) - x1^(p^n)."""
    q = p**n
    x0 = Polynomial.variable(ctx, 3, 0)
    f = Polynomial(ctx, 3, {(q - 1, 0, 1): ctx.one, (0, q, 0): -ctx.one})
    return [x0, f]


def va_parametric(p: int, n: int) -> ParametricAction:
    ctx = ff_make(p)
    q = p**n
    zero = Polynomial.zero(ctx, 1)
    one = Polynomial.one(ctx, 1)
    minus_t = Polynomial(ctx, 1, {(1,): -ctx.one})
    minus_tq = Polynomial(ctx, 1, {(q,): -ctx.one})
    entries = [[one, zero, zero], [minus_t, one, zero], [minus_tq, zero, one]]
    inverse = [[one, zero, zero], [-minus_t, one, zero], [-minus_tq, zero, one]]
    return ParametricAction(ctx, 3, 1, entries, inverse)


def va_module(p: int, n: int, m: int) -> VaModule:
    """Finite subgroup level m: translations u_t for t in F_{p^m}, acting by
    t*f(x0, x1, x2) = f(x0, x1 + t x0, x2 + t^(p^n) x0)."""
    if m < 1:
        raise DimensionMismatch("subgroup level m must be >= 1")
    ctx = ff_make(p, m)
    q = p**n
    if ctx.kind == "extension":
        ts = [ctx.from_coeffs(tuple(1 if i == k else 0 for i in range(m)))
              for k in range(m)]
    else:
        ts = [ctx.one]
    group = MatrixGroup.closure([va_translation_matrix(ctx, t, q) for t in ts])
    assert group.order == p**m
    return VaModule(p, n, m, group, group.natural_rep(), va_parametric(p, n),
                    va_candidates(p, n, ctx))


def subfield_elements(ctx: FieldCtx, degree: int) -> list[Scalar]:
    """Elements of the degree-`degree` subfield: fixed points of frobenius^degree."""
    return [a for a in ctx.enumerate() if frobenius(a, degree) == a]


def va_joint_group(p: int, n: int, levels: tuple[int, int]) -> tuple[MatrixGroup, Representation]:
    """The group generated by the level-l translations for both levels,
    inside F_p^lcm(levels).

    A degree-d polynomial is invariant here iff the defining identity holds
    for more parameter values than its t-degree d*p^n, which forces the
    parametric identity outright; a single level p^(n+1) is too small
    (Frobenius wrap-around t^(p^m) = t admits extra invariants).
    """
    l1, l2 = levels
    big = ff_make(p, math.lcm(l1, l2))
    ts = {a.val: a for a in subfield_elements(big, l1) if not a.is_zero()}
    ts.update({a.val: a for a in subfield_elements(big, l2) if not a.is_zero()})
    gens = [va_translation_matrix(big, t, p**n) for t in ts.values()]
    group = MatrixGroup.closure(gens)
    expected = p**(l1 + l2 - math.gcd(l1, l2))
    assert group.order == expected
    return group, group.natural_rep()


# ---------------------------------------------------------------------------
# the endomorphism module for the delta lower bound


@dataclass
class Gl2Module:
    """Hom(S^(p^n-1) V, S^(p^n-1) V) for the translation group U_n."""

    p: int
    n: int
    group: MatrixGroup
    sym: Representation
    rep: Representation
    identity_point: list[Scalar]

    @property
    def dim(self) -> int:
        return self.rep.dim


def gl2_test_module(p: int, n: int) -> Gl2Module:
    group, nat = gn_module(p, n)
    sym = sym_power_rep(nat, p**n - 1)
    rep = hom_rep(sym, sym)
    idvec = vectorized_identity(sym)
    for g in range(group.order):
        assert rep.matrices[g].apply(idvec) == idvec
    return Gl2Module(p, n, group, sym, rep, idvec)


# ---------------------------------------------------------------------------
# the finite-torus module for the sigma construction


@dataclass
class TorusModule:
    """V + S^m(V*) for a one-dimensional weight-r module of the torus F_q*.

    The two coordinates are y0 (weight -r, dual to the weight-r line) and Z
    (weight m*r, dual to y0^m); the distinguished point is v0 + y0^m = (1, 1).
    """

    q: int
    r: int
    m: int
    group: MatrixGroup
    rep: Representation
    weights: tuple[int, int]
    modulus: int
    point: list[Scalar]
    witness: Polynomial

    @property
    def ctx(self) -> FieldCtx:
        return self.group.ctx


def _prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            if q != 1:
                raise NotPrime(f"{q * p**e} is not a prime power")
            return p, e
    raise NotPrime(f"{q} is not a prime power")


def multiplicative_generator(ctx: FieldCtx) -> Scalar:
    """First element in enumeration order generating the unit group."""
    q = ctx.cardinality
    for a in ctx.enumerate():
        if a.is_zero():
            continue
        order, x = 1, a
        while not x.is_one():
            x = x * a
            order += 1
        if order == q - 1:
            return a
    raise AssertionError("no multiplicative generator found")


def torus_module(q: int, r: int, m: int) -> TorusModule:
    """Finite stage of the torus construction, with the collision guard
    |r|*m^2 < q-1 making weight arithmetic mod q-1 collision-free at all
    degrees <= m (where the emptiness argument runs)."""
    if q < 3:
        raise DimensionMismatch("need q >= 3")
    if r == 0:
        raise WeightCollision("the weight r must be nonzero")
    if abs(r) * m * m >= q - 1:
        raise WeightCollision(
            f"|r|*m^2 = {abs(r) * m * m} >= q-1 = {q - 1}: weights of degree"
            " <= m monomials would wrap around the finite torus")
    p, e = _prime_power(q)
    ctx = ff_make(p, e)
    g = multiplicative_generator(ctx)
    matrix = Matrix(ctx, [[g**r, ctx.zero], [ctx.zero, g**(-r * m)]])
    group = MatrixGroup.closure([matrix])
    point = [ctx.one, ctx.one]
    witness = Polynomial(ctx, 2, {(m, 1): ctx.one}, _trusted=True)
    return TorusModule(q, r, m, group, group.natural_rep(),
                       (-r, r * m), q - 1, point, witness)


# ---------------------------------------------------------------------------
# the rational 4-dimensional two-parameter example


@dataclass
class Ga2Example:
    """Two commuting one-parameter flows on k^4 over the rationals."""

    action: ParametricAction
    h_action: ParametricAction
    candidates: list[Polynomial]
    h_invariants: list[Polynomial]
    point: list[Scalar]

    @property
    def ctx(self) -> FieldCtx:
        return self.action.ctx


DEFAULT_GA2_SAMPLES: tuple[tuple[Fraction, Fraction], ...] = (
    (Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(1)),
    (Fraction(1), Fraction(1)),
    (Fraction(2), Fraction(3)),
    (Fraction(-1), Fraction(2)),
)


def ga2_example() -> Ga2Example:
    """The 4x4 lower-triangular two-parameter action over the rationals,
    its parametric inverse (parameters negated), the candidate generators
    {x0, x1^3 - 3 x0 x1 x2 + 3 x0^2 x3}, and the one-parameter subaction
    fixing x0, x1 whose invariants are {x0, x1, x0 x3 - x2 x1}.

    Divisions by 2 and 6 make this a characteristic-zero construction only.
    """
    from .poly import poly_parse

    qq = FieldCtx.rationals()
    half = qq.scalar(Fraction(1, 2))
    sixth = qq.scalar(Fraction(1, 6))

    def rows(sign: int) -> list[list[Polynomial]]:
        # parameter ring Q[s, t] with s = x0, t = x1
        sgn = qq.scalar(sign)
        s = Polynomial.variable(qq, 2, 0).scale(sgn)
        t = Polynomial.variable(qq, 2, 1).scale(sgn)
        one = Polynomial.one(qq, 2)
        zero = Polynomial.zero(qq, 2)
        shear2 = s * s * Polynomial.constant(qq, 2, half) - t
        corner = -(s * s * s) * Polynomial.constant(qq, 2, sixth) + s * t
        return [
            [one, zero, zero, zero],
            [-s, one, zero, zero],
            [shear2, -s, one, zero],
            [corner, shear2, -s, one],
        ]

    action = ParametricAction(qq, 4, 2, rows(1), rows(-1))

    def h_rows(sign: int) -> list[list[Polynomial]]:
        t = Polynomial.variable(qq, 1, 0).scale(qq.scalar(sign))
        one = Polynomial.one(qq, 1)
        zero = Polynomial.zero(qq, 1)
        return [
            [one, zero, zero, zero],
            [zero, one, zero, zero],
            [-t, zero, one, zero],
            [zero, -t, zero, one],
        ]

    h_action = ParametricAction(qq, 4, 1, h_rows(1), h_rows(-1))

    x0 = poly_parse(qq, 4, "x0")
    f = poly_parse(qq, 4, "x1^3 - 3*x0*x1*x2 + 3*x0^2*x3")
    h_invs = [x0, poly_parse(qq, 4, "x1"), poly_parse(qq, 4, "x0*x3 - x2*x1")]
    point = [qq.zero, qq.one, qq.zero, qq.zero]
    return Ga2Example(action, h_action, [x0, f], h_invs, point)


# ---------------------------------------------------------------------------
# sampled fixed spaces (one-sided bound for parametric invariants)


def sampled_fixed_space(action: ParametricAction,
                        samples: Sequence[Sequence],
                        d: int) -> list[Polynomial]:
    """Common degree-d fixed space of the specialisations at the samples.

    The true parametric invariants always sit inside this space (superset
    contract), so a sampled space vanishing at a point bounds epsilon from
    below there.  An empty sample list returns the full degree-d space.
    """
    ctx, nvars = action.ctx, action.nvars
    matrices = [action.specialize(list(s)) for s in samples]

    def rows():
        for mat in matrices:
            for row in substitution_constraint_rows(mat, d):
                if row:
                    yield row

    ncols = len(mono_basis(nvars, d))
    vectors = kernel(rows(), ncols, ctx)
    return [Polynomial.from_coeff_vector(ctx, nvars, d, v) for v in vectors]
