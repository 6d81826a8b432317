"""Finite matrix groups by closure of generators, and induced representations.

Elements live in a deterministic closure order (breadth-first from the
identity, generators in the given order), so every index-based artefact
— permutation bases, reports — is reproducible.  Closure records the Cayley
graph `right[k][i]` = elements[i] * generators[k] and the tree
`parent[j] = (i, k)` (i < j) that first reached elements[j]; products and
inverses of elements are read off these by index.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import (
    CapExceeded,
    DimensionMismatch,
    GroupMismatch,
    NotInvertible,
    NotPermutationAction,
)
from .fields import FieldCtx, Scalar, _is_probable_prime
from .linalg import Matrix, lift_matrix, _make_eliminator
from .poly import Polynomial, _basis_index, _exponent_basis, substitution_images

DEFAULT_CLOSURE_CAP = 10**6


def power_text(base: int, exp: int) -> str:
    """base^exp in decimal, or as the power itself where the decimal would
    pass the 4,300 digits that Python converts an int to text."""
    return str(base**exp) if exp == 1 or exp * math.log10(base) < 4299 else f"({base}^{exp})"


def capped_power(base: int, exp: int, cap: int) -> int:
    """min(base^exp, cap + 1) for a base >= 1.  No exponent passes
    cap.bit_length(), by which a base >= 2 passes the cap, so base^exp is
    never formed."""
    return min(base ** min(exp, cap.bit_length()), cap + 1)


def check_group_order(base: int, exp: int, prefix: str = "") -> None:
    """Refuse a group of order base^exp past the closure cap before any closure."""
    if capped_power(base, exp, DEFAULT_CLOSURE_CAP) > DEFAULT_CLOSURE_CAP:
        raise CapExceeded(f"{prefix}group order {power_text(base, exp)} exceeds "
                          f"the closure cap {DEFAULT_CLOSURE_CAP}")


def _minkowski_bound(n: int) -> int:
    """Minkowski's bound on the order of a finite subgroup of GL_n(Q):
    the product over primes p of p^(sum_k floor(n / (p^k (p-1))))."""
    bound = 1
    for p in range(2, n + 2):
        if _is_probable_prime(p):
            m = p - 1
            while m <= n:
                bound *= p ** (n // m)
                m *= p
    return bound


class MatrixGroup:
    """A finite group of invertible matrices over one context."""

    def __init__(self, ctx: FieldCtx, dim: int, generators: list[Matrix],
                 elements: list[Matrix], right: list[list[int]], parent: list,
                 *, _from_closure: bool = False):
        if not _from_closure:
            raise TypeError("use MatrixGroup.closure() to build groups")
        self.ctx = ctx
        self.dim = dim
        self.generators = generators
        self.elements = elements
        self.right, self.parent = right, parent
        self.index = {m.rows: i for i, m in enumerate(elements)}
        self.generator_indices = [self.index[g.rows] for g in generators]
        # elements[j] = elements[i] s_k gives inv[j] = s_k^-1 inv[i], a left
        # translation by s_k^-1 = elements[right[k].index(0)]
        back = [self.left_translation(r.index(0)) for r in right]
        self.inverse_table = [0] * len(elements)
        for j, (i, k) in enumerate(parent[1:], 1):
            self.inverse_table[j] = back[k][self.inverse_table[i]]

    @staticmethod
    def closure(generators: Sequence[Matrix],
                cap: int = DEFAULT_CLOSURE_CAP) -> "MatrixGroup":
        """Close the generators under multiplication.

        Raises CapExceeded once more than `cap` elements appear.  Over the
        rationals it raises once the closure passes Minkowski's bound on
        finite subgroups of GL_n(Q), which proves the group infinite.
        """
        if not generators:
            raise NotInvertible("at least one generator required")
        ctx = generators[0].ctx
        dim = generators[0].nrows
        gens = []
        for g in generators:
            if g.ctx != ctx:
                raise GroupMismatch("generators over different contexts")
            if g.nrows != dim or g.ncols != dim:
                raise DimensionMismatch("generators of unequal sizes")
            g.inverse()  # raises NotInvertible on singular input
            if g not in gens:
                gens.append(g)
        limit = cap if ctx.is_finite else min(cap, _minkowski_bound(dim))
        identity = Matrix.identity(ctx, dim)
        elements, parent = [identity], [None]
        index = {identity.rows: 0}
        right = [[] for _ in gens]
        for i, e in enumerate(elements):  # elements grows as a breadth-first queue
            for k, g in enumerate(gens):
                m = e * g
                j = index.setdefault(m.rows, len(elements))
                if j == len(elements):
                    elements.append(m)
                    parent.append((i, k))
                    if len(elements) > limit:
                        raise CapExceeded(
                            f"closure exceeded {limit} elements, Minkowski's bound "
                            f"for GL_{dim}(Q); the group is infinite" if limit < cap
                            else f"closure exceeded cap {cap}; the group is "
                            "infinite or larger than configured")
                right[k].append(j)
        return MatrixGroup(ctx, dim, gens, elements, right, parent, _from_closure=True)

    # -- queries -----------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity_index(self) -> int:
        return 0

    def mul(self, i: int, j: int) -> int:
        word = []  # generators along the tree path from the identity to j
        while j:
            j, k = self.parent[j]
            word.append(k)
        for k in reversed(word):
            i = self.right[k][i]
        return i

    def left_translation(self, g: int) -> list[int]:
        """Index of elements[g] * elements[x] for every x, along tree edges."""
        out = [g]
        for i, k in self.parent[1:]:
            out.append(self.right[k][out[i]])
        return out

    def inv(self, i: int) -> int:
        return self.inverse_table[i]

    def is_p_group(self, p: int) -> bool:
        n = self.order
        while n % p == 0:
            n //= p
        return n == 1

    def subgroup(self, generators: Sequence[Matrix],
                 cap: int = DEFAULT_CLOSURE_CAP) -> "MatrixGroup":
        sub = MatrixGroup.closure(generators, cap)
        for m in sub.elements:
            if m.rows not in self.index:
                raise GroupMismatch("generators do not lie in this group")
        return sub

    def natural_rep(self) -> "Representation":
        return Representation(self, self.elements, _trusted=True)

    def lift(self, target: FieldCtx) -> "MatrixGroup":
        """The same group with entries embedded into an extension field.

        An embedding is an injective ring map, so the element order, the
        Cayley graph and the inverses carry over unchanged; lift_matrix
        re-tags each matrix and converts no entry."""
        if target == self.ctx:
            return self
        return MatrixGroup(target, self.dim,
                           [lift_matrix(g, target) for g in self.generators],
                           [lift_matrix(m, target) for m in self.elements],
                           self.right, self.parent, _from_closure=True)


class Representation:
    """A matrix for every group element, indexed by closure order.

    g -> rho(g) is checked to be a homomorphism at construction, so later
    checks read the generators only.  Builders that yield one by construction
    pass `_trusted` and skip the |S|*|G| products."""

    def __init__(self, group: MatrixGroup, matrices: Sequence[Matrix],
                 *, _trusted: bool = False):
        if len(matrices) != group.order:
            raise GroupMismatch("one matrix per group element required")
        self.group = group
        self.ctx = matrices[0].ctx
        self.dim = matrices[0].nrows
        self.matrices = list(matrices)
        for m in self.matrices:
            if m.nrows != self.dim or m.ncols != self.dim or m.ctx != self.ctx:
                raise DimensionMismatch("representation matrices of unequal shape")
        if not self.matrices[group.identity_index].is_identity():
            raise GroupMismatch("identity element must act as the identity matrix")
        if not _trusted and not self.verify_homomorphism():
            raise GroupMismatch("the matrices are not a homomorphism of the group")
        self._perm_basis: "PermutationBasis | None | bool" = False  # unsearched
        self._inv_space_cache: dict[int, object] = {}

    def inverse_matrix(self, i: int) -> Matrix:
        # rho(g)^-1 = rho(g^-1) since rho is a homomorphism
        return self.matrices[self.group.inv(i)]

    def verify_homomorphism(self) -> bool:
        """rho(h) rho(s) = rho(hs) for all h and generators s; induction does the rest."""
        g = self.group
        return all(self.matrices[h] * self.matrices[s] == self.matrices[hs]
                   for k, s in enumerate(g.generator_indices)
                   for h, hs in enumerate(g.right[k]))

    def act_on_poly(self, i: int, f: Polynomial) -> Polynomial:
        """(g.f)(v) = f(g^-1 v): substitute the inverse matrix (a permutation
        or other monomial matrix moves each term on its own)."""
        if f.nvars != self.dim:
            raise DimensionMismatch(f"{f.nvars} variables vs dimension {self.dim}")
        return f.substitute_linear(self.inverse_matrix(i))

    def variable_permutations(self) -> list[list[int]]:
        """pi per element with rho(g) e_j = e_{pi[j]}."""
        perms = []
        for m in self.matrices:
            pi = m.permutation()
            if pi is None:
                raise NotPermutationAction("matrices do not permute coordinates")
            perms.append(pi)
        return perms

    def restrict(self, subgroup: MatrixGroup) -> "Representation":
        """Restriction along a subgroup built from this group's matrices."""
        mats = []
        for m in subgroup.elements:
            idx = self.group.index.get(m.rows)
            if idx is None:
                raise GroupMismatch("not a subgroup of this representation's group")
            mats.append(self.matrices[idx])
        return Representation(subgroup, mats, _trusted=True)

    def lift(self, target: FieldCtx) -> "Representation":
        if target == self.ctx:
            return self
        return Representation(self.group.lift(target),
                              [lift_matrix(m, target) for m in self.matrices], _trusted=True)

    def permutation_basis(self) -> "PermutationBasis | None":
        if self._perm_basis is False:
            self._perm_basis = find_permutation_basis(self)
        return self._perm_basis


# ---------------------------------------------------------------------------
# induced representations


def dual_rep(r: Representation) -> Representation:
    """Per-element inverse transpose."""
    return Representation(r.group,
                          [r.inverse_matrix(i).transpose()
                           for i in range(r.group.order)], _trusted=True)


def sym_power_rep(r: Representation, m: int) -> Representation:
    """Action on the degree-m monomials in the module's basis vectors.

    The column for a basis monomial is the expansion of the corresponding
    product of images of basis vectors, in graded-lex order, so the
    dimension is C(dim+m-1, m).
    """
    if m < 0:
        raise DimensionMismatch("negative symmetric power")
    ctx, dim = r.ctx, r.dim
    basis = _exponent_basis(dim, m)
    index = _basis_index(dim, m)
    zero = ctx._zero
    out = []
    for g in range(r.group.order):
        # image of basis vector j is column j
        rows = [[zero] * len(basis) for _ in range(len(basis))]
        for mono, image in substitution_images(r.matrices[g].transpose(), basis):
            col = index[mono]
            for exps, coeff in image.items():
                rows[index[exps]][col] = coeff.val
        out.append(Matrix._raw(ctx, tuple(map(tuple, rows))))
    return Representation(r.group, out, _trusted=True)


def hom_rep(r: Representation, s: Representation) -> Representation:
    """Hom(R, S) = R* tensor S on row-major matrix coordinates.

    A homomorphism phi: V_R -> V_S is a dim(S) x dim(R) matrix M acted on by
    g.M = S_g M R_g^-1; coordinate (k, l) sits at index k*dim(R) + l.  When
    R = S the row-major vectorised identity map is a fixed vector.
    """
    if r.group is not s.group:
        raise GroupMismatch("representations of different groups")
    ctx = r.ctx
    dr, ds = r.dim, s.dim
    out = []
    zero, mul = ctx._zero, ctx._mul
    for g in range(r.group.order):
        sg = s.matrices[g].rows
        rginv = r.inverse_matrix(g).rows
        n = ds * dr
        rows = [[zero] * n for _ in range(n)]
        for k in range(ds):
            for a in range(ds):
                ska = sg[k][a]
                if not ska:
                    continue
                for l in range(dr):
                    for b in range(dr):
                        coeff = mul(ska, rginv[b][l])
                        if coeff:
                            rows[k * dr + l][a * dr + b] = coeff
        out.append(Matrix._raw(ctx, tuple(map(tuple, rows))))
    return Representation(r.group, out, _trusted=True)


def vectorized_identity(r: Representation) -> list[Scalar]:
    """Row-major coordinates of the identity map in Hom(R, R)."""
    out = []
    for k in range(r.dim):
        for l in range(r.dim):
            out.append(r.ctx.one if k == l else r.ctx.zero)
    return out


def permutation_rep(group: MatrixGroup,
                    perms: Iterable[Sequence[int]]) -> Representation:
    """The matrices P_g with P_g e_k = e_{pi[k]}, one per pi in element order.
    The pi must compose as the group does, pi_hs = pi_h o pi_s for every h and
    generator s, which is checked on the tuples: |S|*|G|*dim steps, no product."""
    ctx = group.ctx
    zero, one = ctx._zero, ctx._one
    perms = list(map(tuple, perms))
    mats = []
    for pi in perms:
        rows = [[zero] * len(pi) for _ in pi]
        for k, t in enumerate(pi):
            rows[t][k] = one
        mats.append(Matrix._raw(ctx, tuple(map(tuple, rows))))
    if len(perms) == group.order and not all(
            perms[hs] == tuple(map(perms[h].__getitem__, perms[s]))
            for k, s in enumerate(group.generator_indices)
            for h, hs in enumerate(group.right[k])):
        raise GroupMismatch("the matrices are not a homomorphism of the group")
    return Representation(group, mats, _trusted=True)


def regular_rep(group: MatrixGroup) -> Representation:
    """Permutation matrices of left multiplication on the element list."""
    return permutation_rep(group, map(group.left_translation, range(group.order)))


# ---------------------------------------------------------------------------
# permutation bases


class PermutationBasis:
    """A change of basis making every representing matrix a permutation.

    Slots are grouped orbit by orbit; `perms[g]` maps slot k to the slot of
    rho(g) applied to basis vector k.  `perm_rep` caches g -> P_g built from
    `perms` (see invariants._permutation_rep).
    """

    def __init__(self, rep: Representation, basis_matrix: Matrix,
                 perms: list[tuple[int, ...]], orbit_slices: list[range]):
        # no reference to rep is kept: rep caches this object, and a cycle
        # would hold both until a full garbage collection
        self.ctx = rep.ctx
        self.group_order = rep.group.order
        self.basis_matrix = basis_matrix
        self.basis_inverse = basis_matrix.inverse()
        self.perms = perms
        self.orbit_slices = orbit_slices
        self.perm_rep: Representation | None = None

    def is_free(self) -> bool:
        return all(len(s) == self.group_order for s in self.orbit_slices)

    def is_transitive(self) -> bool:
        return len(self.orbit_slices) == 1

    def fixes_no_slot(self) -> bool:
        """True when no nonidentity element fixes a basis vector."""
        return all(pi[k] != k
                   for g, pi in enumerate(self.perms) if g != 0
                   for k in range(len(pi)))

    def coordinates(self, v: Sequence[Scalar]) -> list[Scalar]:
        """w = B^-1 v, checked by B w = v (an explicit check: it must survive
        python -O)."""
        w = self.basis_inverse.apply(v)
        if self.basis_matrix.apply(w) != list(v):
            raise AssertionError("permutation coordinates do not map back to the point")
        return w


def find_permutation_basis(rep: Representation) -> PermutationBasis | None:
    """Greedy orbit search over the standard basis vectors as seeds.

    For symmetric powers the designated seed, the pure power of the last
    variable, is the final standard vector.  A seed is accepted
    when its distinct orbit vectors are linearly independent jointly with
    all previously accepted orbits; the search succeeds when the accepted
    orbits span.  Failure is a value, not an error: it does not certify
    that no permutation basis exists.

    P_s is read off rho(s) B for each generator s, whose column k must be
    the basis vector b_perms[s][k]: that lookup is the check rho(s) B = B P_s.
    rho is a homomorphism, so P_g extends along the closure tree: for
    parent[j] = (i, k), P_j = P_i P_(s_k), on integer tuples.
    """
    ctx, dim, group = rep.ctx, rep.dim, rep.group
    # Seed j's orbit is the distinct columns j of the rho(g), in element order.
    # Larger orbits first: a stabilised seed (such as a fixed vector) must not
    # swallow coordinates that a free orbit needs.  Ties keep seed order.
    orbits = sorted((list(dict.fromkeys(tuple(row[j] for row in m.rows)
                                        for m in rep.matrices)) for j in range(dim)),
                    key=len, reverse=True)

    elim = _make_eliminator(ctx, dim)
    accepted_vectors: list[tuple] = []
    orbit_slices: list[range] = []

    for distinct in orbits:
        if len(accepted_vectors) + len(distinct) > dim:
            continue
        rows = [{c: v for c, v in enumerate(vec) if v} for vec in distinct]
        if len(set().union(*rows)) < len(rows):
            continue  # fewer coordinates than vectors: they are dependent
        # joint independence: try on a scratch copy of the eliminator state
        scratch = elim.clone()
        if all(map(scratch.add_raw, rows)):
            elim = scratch
            base = len(accepted_vectors)
            orbit_slices.append(range(base, base + len(distinct)))
            accepted_vectors.extend(distinct)

    if len(accepted_vectors) != dim:
        return None

    basis_matrix = Matrix._raw(ctx, tuple(zip(*accepted_vectors)))  # columns = vectors
    slot = {vec: k for k, vec in enumerate(accepted_vectors)}
    gen_perms = []
    for s in group.generator_indices:
        pi = tuple(slot.get(col, -1) for col in zip(*(rep.matrices[s] * basis_matrix).rows))
        if -1 in pi or len(set(pi)) < dim:
            raise AssertionError("permutation basis failed conjugation check")
        gen_perms.append(pi)
    perms = [tuple(range(dim))]
    for i, k in group.parent[1:]:
        perms.append(tuple(perms[i][t] for t in gen_perms[k]))
    return PermutationBasis(rep, basis_matrix, perms, orbit_slices)
