"""Builders for the specific modules the workbench analyses.

Covers the 2-dimensional translation modules and their symmetric powers,
the endomorphism module used for the delta lower bound, the 3-dimensional
twisted translation modules with their parametric form, the finite-torus
module driving the sigma construction, the rational 4-dimensional
two-parameter example, and generic-parameter invariance checking.
"""

from __future__ import annotations

import functools
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
from .fields import (FieldCtx, Scalar, _is_probable_prime, ff_make, field_order, frobenius,
                     least_primitive)
from .groups import (
    MatrixGroup,
    Representation,
    hom_rep,
    sym_power_rep,
    vectorized_identity,
)
from .invariants import _fixed_space
from .linalg import Matrix
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
# cyclic shifts


def cyclic_field_order(p: int, k: int) -> tuple[int, int]:
    """The parameter checks of the regular module of Z_k over F_p; returns (p, 1)."""
    order = field_order(p)
    if k < 1:
        raise DimensionMismatch(f"cyclic module needs k >= 1, got {k}")
    return order


def cyclic_group(ctx: FieldCtx, k: int) -> MatrixGroup:
    """The order-k group generated by the shift e_j -> e_(j+1 mod k)."""
    return MatrixGroup.closure([Matrix.from_ints(
        ctx, [[int(i == (j + 1) % k) for j in range(k)] for i in range(k)])])


# ---------------------------------------------------------------------------
# translation modules in dimension 2


def translation_matrix(ctx: FieldCtx, t: Scalar) -> Matrix:
    return Matrix(ctx, [[ctx.one, t], [ctx.zero, ctx.one]])


def gn_module(p: int, n: int) -> tuple[MatrixGroup, Representation]:
    """The order-p^n group of translations u_t = [[1,t],[0,1]], t in F_{p^n},
    on its natural 2-dimensional module (X fixed, Y moved to Y + tX)."""
    ctx = ff_make(p, n)
    # t runs over the power basis z^k, whose raw value is p^k
    group = MatrixGroup.closure([translation_matrix(ctx, Scalar(ctx, p**k))
                                 for k in range(n)])
    if group.order != p**n:
        raise AssertionError(f"translation group of order {group.order}, not {p}^{n}")
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
                             (pb.basis_matrix * pb.basis_inverse).is_identity(),
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
    if big_n <= 64 and result != math.comb(big_n, k) % p:
        raise AssertionError(f"Lucas digits disagree with C({big_n}, {k}) mod {p}")
    return result


# ---------------------------------------------------------------------------
# twisted 3-dimensional translation modules


def va_translation_matrix(ctx: FieldCtx, t: Scalar, twist: int) -> Matrix:
    """u_t = [[1,0,0],[-t,1,0],[-t^twist,0,1]] with twist a power of char."""
    z, o = ctx.zero, ctx.one
    return Matrix(ctx, [[o, z, z], [-t, o, z], [-(t**twist), z, o]])


@dataclass
class VaModule:
    """Level-m finite stage of the twisted translation action on k^3; its
    degree-p^n parametric action and candidates are built on first read."""

    p: int
    n: int
    m: int
    group: MatrixGroup
    rep: Representation

    @property
    def ctx(self) -> FieldCtx:
        return self.group.ctx

    @functools.cached_property
    def parametric(self) -> ParametricAction:
        return va_parametric(self.p, self.n)

    @functools.cached_property
    def candidates(self) -> list[Polynomial]:
        return va_candidates(self.p, self.n, self.ctx)


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


def va_field_order(p: int, n: int, m: int) -> tuple[int, int]:
    """The parameter checks of `va_module`; returns p^m as (p, m)."""
    if m < 1:
        raise DimensionMismatch("subgroup level m must be >= 1")
    if n < 0:
        raise DimensionMismatch(f"twist exponent n must be >= 0, got {n}")
    return field_order(p, m)


def va_module(p: int, n: int, m: int) -> VaModule:
    """Finite subgroup level m: translations u_t for t in F_{p^m}, acting by
    t*f(x0, x1, x2) = f(x0, x1 + t x0, x2 + t^(p^n) x0)."""
    ctx = ff_make(*va_field_order(p, n, m))
    # frobenius has order m on F_(p^m), so t^(p^n) = t^(p^(n mod m)) there
    twist = p**(n % m)
    # t runs over the power basis z^k, whose raw value is p^k
    group = MatrixGroup.closure([va_translation_matrix(ctx, Scalar(ctx, p**k), twist)
                                 for k in range(m)])
    if group.order != p**m:
        raise AssertionError(f"translation group of order {group.order}, not {p}^{m}")
    return VaModule(p, n, m, group, group.natural_rep())


def subfield_sum_basis(ctx: FieldCtx, degrees: Sequence[int]) -> list[Scalar]:
    """An F_p-basis of the sum of the subfields F_(p^l), l in `degrees`, of
    ctx = F_(p^L), found without enumerating ctx.

    The trace Tr_(L/l)(x) = sum of x^(p^(l*k)) for k < L/l is F_p-linear and
    onto F_(p^l), so the traces of the power basis z^i, i < L, span that
    subfield.  Each trace is kept while it raises the F_p-span, which is
    held as a set of raw values no larger than the sum.
    """
    big = ctx.n
    power_basis = [Scalar(ctx, ctx.p**i) for i in range(big)]  # z^i is p^i
    add = ctx._add
    basis, span = [], {ctx._zero}
    for level in degrees:
        for x in power_basis:
            trace = sum((frobenius(x, level * k) for k in range(big // level)),
                        ctx.zero)
            if trace.val not in span:
                basis.append(trace)
                for _ in range(ctx.p - 1):
                    span |= {add(s, trace.val) for s in span}
    return basis


def va_joint_group(p: int, n: int, levels: tuple[int, int]) -> tuple[MatrixGroup, Representation]:
    """The group generated by the level-l translations for both levels,
    inside F_p^lcm(levels).

    t -> u_t is additive (u_s u_t = u_(s+t), as (s+t)^(p^n) = s^(p^n) +
    t^(p^n)), so the u_t of an F_p-basis of F_(p^l1) + F_(p^l2) generate it
    without redundancy.

    A degree-d polynomial is invariant here iff the defining identity holds
    for more parameter values than its t-degree d*p^n, which forces the
    parametric identity outright; a single level p^(n+1) is too small
    (Frobenius wrap-around t^(p^m) = t admits extra invariants).
    """
    l1, l2 = levels
    big = ff_make(p, math.lcm(l1, l2))
    gens = [va_translation_matrix(big, t, p**n)
            for t in subfield_sum_basis(big, levels)]
    group = MatrixGroup.closure(gens)
    expected = p**(l1 + l2 - math.gcd(l1, l2))
    if group.order != expected:
        raise AssertionError(f"joint group of order {group.order}, not {expected}")
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
    if any(rep.matrices[s].apply(idvec) != idvec for s in group.generator_indices):
        raise AssertionError("the identity map is not a fixed vector")
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


def _integer_root(q: int, e: int) -> int:
    """floor(q^(1/e)) for q >= 1, by Newton's method from above.  It starts
    just above the float estimate 2^(log2(q)/e), so it takes a few steps."""
    whole, frac = divmod(math.log2(q) / e + 1e-9, 1.0)
    r = ((int(2.0 ** (frac + 52)) + 1 << int(whole)) >> 52) + 1
    while True:
        s = ((e - 1) * r + q // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def _prime_power(q: int) -> tuple[int, int]:
    """q >= 2 as (p, e) with q = p^e: the one e <= log2 q whose integer
    e-th root of q is exact and prime, so no factor is searched for."""
    for e in range(1, q.bit_length()):
        p = _integer_root(q, e)
        if p**e == q and _is_probable_prime(p):
            return p, e
    raise NotPrime(f"{q} is not a prime power")


def multiplicative_generator(ctx: FieldCtx) -> Scalar:
    """First element in enumeration order generating the unit group."""
    return Scalar(ctx, least_primitive(ctx.cardinality, ctx._mul))


def torus_field_order(q: int, r: int, m: int) -> tuple[int, int]:
    """The parameter checks of `torus_module`; returns q as (p, e) with
    q = p^e."""
    if q < 3:
        raise DimensionMismatch("need q >= 3")
    if m < 0:
        raise DimensionMismatch(f"symmetric power m must be >= 0, got {m}")
    if r == 0:
        raise WeightCollision("the weight r must be nonzero")
    weight = abs(r) * m * m
    if weight >= q - 1:
        # past the 4,300 digits that Python converts to text, write the product
        shown = weight if weight.bit_length() < 14000 else f"{abs(r)}*{m}^2"
        raise WeightCollision(
            f"|r|*m^2 = {shown} >= q-1 = {q - 1}: weights of degree"
            " <= m monomials would wrap around the finite torus")
    return _prime_power(q)


def torus_module(q: int, r: int, m: int) -> TorusModule:
    """Finite stage of the torus construction, with the collision guard
    |r|*m^2 < q-1 making weight arithmetic mod q-1 collision-free at all
    degrees <= m (where the emptiness argument runs)."""
    ctx = ff_make(*torus_field_order(q, r, m))
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
    monos = mono_basis(nvars, d)  # refuses d < 0 first
    return [Polynomial(ctx, nvars, {monos[c].exps: s for c, s in vec.items()}, _trusted=True)
            for vec in _fixed_space(ctx, nvars, matrices, d)]
