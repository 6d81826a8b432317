"""Finite matrix groups by closure of generators, and induced representations.

Elements live in a deterministic closure order (breadth-first from the
identity, generators in the given order), so every index-based artefact
— permutation bases, reports — is reproducible.  Closure records the Cayley
graph `right[k][i]` = elements[i] * generators[k] and the tree
`parent[j] = (i, k)` (i < j) that first reached elements[j]; products of
elements are read off these by index.
"""

from __future__ import annotations

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
                 inverse_table: list[int] | None = None, *, _from_closure: bool = False):
        if not _from_closure:
            raise TypeError("use MatrixGroup.closure() to build groups")
        self.ctx = ctx
        self.dim = dim
        self.generators = generators
        self.elements = elements
        self.right, self.parent = right, parent
        self.index = {m.key(): i for i, m in enumerate(elements)}
        self.generator_indices = [self.index[g.key()] for g in generators]
        self.inverse_table = (inverse_table if inverse_table is not None else
                              [self.index[m.inverse().key()] for m in elements])

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
        index = {identity.key(): 0}
        right = [[] for _ in gens]
        for i, e in enumerate(elements):  # elements grows as a breadth-first queue
            for k, g in enumerate(gens):
                m = e * g
                j = index.setdefault(m.key(), len(elements))
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

    def element_order(self, i: int) -> int:
        n, j = 1, i
        while j != 0:
            j = self.mul(j, i)
            n += 1
        return n

    def is_p_group(self, p: int) -> bool:
        n = self.order
        while n % p == 0:
            n //= p
        return n == 1

    def is_abelian(self) -> bool:
        gens = self.generator_indices  # commuting generators suffice
        return all(self.mul(a, b) == self.mul(b, a) for a in gens for b in gens)

    def subgroup(self, generators: Sequence[Matrix],
                 cap: int = DEFAULT_CLOSURE_CAP) -> "MatrixGroup":
        sub = MatrixGroup.closure(generators, cap)
        for m in sub.elements:
            if m.key() not in self.index:
                raise GroupMismatch("generators do not lie in this group")
        return sub

    def natural_rep(self) -> "Representation":
        return Representation(self, self.elements)

    def lift(self, target: FieldCtx) -> "MatrixGroup":
        """The same group with entries embedded into an extension field.

        An embedding is an injective ring map, so the element order, the
        Cayley graph and the inverses carry over unchanged."""
        if target == self.ctx:
            return self
        return MatrixGroup(target, self.dim,
                           [lift_matrix(g, target) for g in self.generators],
                           [lift_matrix(m, target) for m in self.elements],
                           self.right, self.parent, self.inverse_table,
                           _from_closure=True)


class Representation:
    """A matrix for every group element, indexed by closure order."""

    def __init__(self, group: MatrixGroup, matrices: Sequence[Matrix]):
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
        self._perm_basis: "PermutationBasis | None | bool" = False  # unsearched
        self._inv_space_cache: dict[int, object] = {}

    def matrix(self, i: int) -> Matrix:
        return self.matrices[i]

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
        """(g.f)(v) = f(g^-1 v): substitute the inverse matrix."""
        if f.nvars != self.dim:
            raise DimensionMismatch(f"{f.nvars} variables vs dimension {self.dim}")
        inv = self.inverse_matrix(i)
        pi = inv.permutation()
        if pi is not None:
            # permutation shortcut: x_i -> x_{pi^-1(i)}, i.e. e'_j = e_{pi(j)}
            terms = {tuple(e[pi[j]] for j in range(len(e))): c
                     for e, c in f.terms.items()}
            return Polynomial(f.ctx, f.nvars, terms, _trusted=True)
        return f.substitute_linear(inv)

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
            idx = self.group.index.get(m.key())
            if idx is None:
                raise GroupMismatch("not a subgroup of this representation's group")
            mats.append(self.matrices[idx])
        return Representation(subgroup, mats)

    def lift(self, target: FieldCtx) -> "Representation":
        if target == self.ctx:
            return self
        return Representation(self.group.lift(target),
                              [lift_matrix(m, target) for m in self.matrices])

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
                           for i in range(r.group.order)])


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
    zero = ctx.zero
    out = []
    for g in range(r.group.order):
        # image of basis vector j is column j
        rows = [[zero] * len(basis) for _ in range(len(basis))]
        for mono, image in substitution_images(r.matrices[g].transpose(), basis):
            col = index[mono]
            for exps, coeff in image.items():
                rows[index[exps]][col] = coeff
        out.append(Matrix(ctx, rows))
    return Representation(r.group, out)


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
    zero = ctx.zero
    for g in range(r.group.order):
        sg = s.matrices[g]
        rginv = r.inverse_matrix(g)
        n = ds * dr
        rows = [[zero] * n for _ in range(n)]
        for k in range(ds):
            for a in range(ds):
                ska = sg[k, a]
                if ska.is_zero():
                    continue
                for l in range(dr):
                    for b in range(dr):
                        coeff = ska * rginv[b, l]
                        if not coeff.is_zero():
                            rows[k * dr + l][a * dr + b] = coeff
        out.append(Matrix(ctx, rows))
    return Representation(r.group, out)


def vectorized_identity(r: Representation) -> list[Scalar]:
    """Row-major coordinates of the identity map in Hom(R, R)."""
    out = []
    for k in range(r.dim):
        for l in range(r.dim):
            out.append(r.ctx.one if k == l else r.ctx.zero)
    return out


def permutation_rep(group: MatrixGroup,
                    perms: Iterable[Sequence[int]]) -> Representation:
    """The matrices P_g with P_g e_k = e_{pi[k]}, one per pi in element order."""
    ctx = group.ctx
    zero, one = ctx.zero, ctx.one
    mats = []
    for pi in perms:
        rows = [[zero] * len(pi) for _ in pi]
        for k, t in enumerate(pi):
            rows[t][k] = one
        mats.append(Matrix(ctx, rows))
    return Representation(group, mats)


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

    @property
    def orbit_sizes(self) -> list[int]:
        return [len(s) for s in self.orbit_slices]

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

    def slot_coordinate_form(self, k: int, nvars: int) -> Polynomial:
        """The k-th permutation coordinate as a polynomial in the originals."""
        row = self.basis_inverse.rows[k]
        return Polynomial(self.ctx, nvars,
                          {tuple(1 if j == i else 0 for j in range(nvars)): c
                           for i, c in enumerate(row) if not c.is_zero()},
                          _trusted=True)


def find_permutation_basis(rep: Representation,
                           extra_seeds: Sequence[Sequence[Scalar]] = ()) -> PermutationBasis | None:
    """Greedy orbit search over a deterministic seed pool.

    Seeds are the standard basis vectors followed by any extra seeds (for
    symmetric powers the designated seed, the pure power of the last
    variable, is already the final standard vector).  A seed is accepted
    when its distinct orbit vectors are linearly independent jointly with
    all previously accepted orbits; the search succeeds when the accepted
    orbits span.  Failure is a value, not an error: it does not certify
    that no permutation basis exists.
    """
    ctx, dim, group = rep.ctx, rep.dim, rep.group
    zero, one = ctx.zero, ctx.one
    seeds: list[list[Scalar]] = [
        [one if i == j else zero for i in range(dim)] for j in range(dim)
    ]
    seeds.extend([list(s) for s in extra_seeds])

    orbits = []
    for pool_pos, seed in enumerate(seeds):
        images = [rep.matrices[g].apply(seed) for g in range(group.order)]
        distinct: list[list[Scalar]] = []
        reps_for_slot: list[int] = []
        keyed: dict[tuple, int] = {}
        element_to_slot: dict[int, int] = {}
        for g, vec in enumerate(images):
            key = tuple(s.val for s in vec)
            slot = keyed.get(key)
            if slot is None:
                slot = len(distinct)
                keyed[key] = slot
                distinct.append(vec)
                reps_for_slot.append(g)
            element_to_slot[g] = slot
        orbits.append((distinct, reps_for_slot, element_to_slot, pool_pos))
    # Larger orbits first: a stabilised seed (such as a fixed vector) must not
    # swallow coordinates that a free orbit needs.  Ties keep pool order.
    orbits.sort(key=lambda item: (-len(item[0]), item[3]))

    elim = _make_eliminator(ctx, dim)
    accepted_vectors: list[list[Scalar]] = []
    orbit_slices: list[range] = []
    orbit_elements: list[list[int]] = []  # representative group element per slot
    slot_of_element: list[dict[int, int]] = []  # per orbit: element index -> slot

    for distinct, reps_for_slot, element_to_slot, _ in orbits:
        if len(accepted_vectors) == dim:
            break
        if len(accepted_vectors) + len(distinct) > dim:
            continue
        # joint independence: try on a scratch copy of the eliminator state
        scratch = elim.clone()
        if all(scratch.add_row({c: s for c, s in enumerate(vec) if not s.is_zero()})
               for vec in distinct):
            elim = scratch
            base = len(accepted_vectors)
            orbit_slices.append(range(base, base + len(distinct)))
            orbit_elements.append(reps_for_slot)
            slot_of_element.append(element_to_slot)
            accepted_vectors.extend(distinct)

    if len(accepted_vectors) != dim:
        return None

    basis_matrix = Matrix(ctx, list(zip(*accepted_vectors)))  # columns = vectors
    perms = []
    for left in map(group.left_translation, range(group.order)):
        pi = [0] * dim
        for o, slc in enumerate(orbit_slices):
            for local, k in enumerate(slc):
                g = orbit_elements[o][local]
                target_local = slot_of_element[o][left[g]]
                pi[k] = slc[0] + target_local
        perms.append(tuple(pi))
    pb = PermutationBasis(rep, basis_matrix, perms, orbit_slices)
    _verify_permutation_basis(rep, pb)
    return pb


def _verify_permutation_basis(rep: Representation, pb: PermutationBasis) -> None:
    """rho(g) B = B P_g for every g, where B P_g is B with column j replaced
    by column perms[g][j].  B is invertible, so this is B^-1 rho(g) B = P_g."""
    b = pb.basis_matrix.key()
    for g, pi in enumerate(pb.perms):
        permuted = tuple(tuple(row[k] for k in pi) for row in b)
        if (rep.matrices[g] * pb.basis_matrix).key() != permuted:
            raise AssertionError("permutation basis failed conjugation check")
