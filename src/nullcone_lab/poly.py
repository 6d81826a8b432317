"""Sparse multivariate polynomials over a FieldCtx.

Exponent vectors are plain int tuples; the graded-lex order (higher total
degree first, then descending lexicographic on exponents) fixes every basis
listing, coefficient vector, and printed form, so reports are reproducible
byte for byte.  Products and substitution walks key their terms by packed
ints (`_exponent_codec`) and decode each resulting term once.
"""

from __future__ import annotations

import re
import struct
from functools import lru_cache
from itertools import compress, count, repeat
from operator import itemgetter
from typing import Callable, Collection, Iterator, Mapping, Sequence

from .errors import ContextMismatch, DimensionMismatch, ParseError
from .fields import FieldCtx, Scalar
from .linalg import Matrix


class Monomial:
    """An exponent vector with its cached total degree; immutable, and equal
    and hashed by its exponents.  `degree` is always sum(exps): the argument
    is accepted and ignored."""

    __slots__ = ("exps", "degree")

    def __init__(self, exps: tuple[int, ...], degree: int = -1):
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "degree", sum(exps))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self.exps == other.exps if other.__class__ is Monomial else NotImplemented

    def __hash__(self):
        return hash(self.exps)

    @property
    def nvars(self) -> int:
        return len(self.exps)

    def __str__(self):
        if self.degree == 0:
            return "1"
        parts = []
        for i, e in enumerate(self.exps):
            if e == 1:
                parts.append(f"x{i}")
            elif e > 1:
                parts.append(f"x{i}^{e}")
        return "*".join(parts)


def grlex_key(exps: tuple[int, ...]):
    """Sort key putting graded-lex largest first."""
    return (-sum(exps), tuple(-e for e in exps))


@lru_cache(maxsize=256)
def _exponent_basis(nvars: int, d: int) -> tuple[tuple[int, ...], ...]:
    """The exponents of degree d in nvars >= 1 variables, graded-lex, built
    without recursion: each follows from the one before as the rightmost
    nonzero exponent short of the last moves one unit right, and the last
    variable's exponent moves with it."""
    e = [d] + [0] * (nvars - 1)
    out = [tuple(e)]
    last = nvars - 1
    while e[last] != d:
        i = last - 1
        while not e[i]:
            i -= 1
        e[i] -= 1
        e[last], e[i + 1] = 0, e[last] + 1  # in this order: i + 1 may be last
        out.append(tuple(e))
    return tuple(out)


def mono_basis(nvars: int, d: int) -> list[Monomial]:
    """All C(nvars+d-1, d) monomials of total degree d, graded-lex order."""
    if nvars < 1 or d < 0:
        raise DimensionMismatch(f"bad basis shape nvars={nvars}, d={d}")
    return [Monomial(e) for e in _exponent_basis(nvars, d)]


@lru_cache(maxsize=256)
def _basis_index(nvars: int, d: int) -> dict[tuple[int, ...], int]:
    return {e: i for i, e in enumerate(_exponent_basis(nvars, d))}


def substitution_images(matrix: Matrix, monomials: Collection[tuple[int, ...]]
                        ) -> Iterator[tuple[tuple[int, ...], dict]]:
    """Yield (m, term dict of m(Mx)) for each exponent tuple m, where
    x_i -> sum_j M[i][j] x_j, in an order of the routine's choosing.

    An invertible monomial matrix sends each m to the single term that
    `monomial_images` decodes, in input order.  Any other matrix builds each
    image on a shared prefix, image(e) = image(e - e_i) * form_i, so one call
    serves a whole degree-d basis or the sparse support of one polynomial
    alike.  The peeled variable i is the sparsest form present (ties by
    index), which keeps the products small.  Monomials are visited in the
    order of their prefix chains, which `_chain_plan` fixes once per
    (monomials, build order), so every shared prefix is built once and only
    the current chain is held.
    While walking, a term's exponents are one integer with exponent j in
    slot j of a width that the largest degree cannot overflow, so a product
    with x_j is one addition; each yielded key is decoded once per call.
    """
    decoded = monomial_images(matrix, monomials)
    if decoded is not None:
        for exps, target, coeff in zip(monomials, *decoded):
            yield exps, {target: coeff}
        return
    ctx, nvars = matrix.ctx, matrix.nrows
    forms = [[(j, c) for j, c in enumerate(row) if c] for row in matrix.rows]
    one = ctx.one
    one_val = one.val
    # the chain of e adds the densest variables first, the sparsest last
    build_order = tuple(sorted(range(nvars), key=lambda i: (len(forms[i]), i))[::-1])
    width, plan = _chain_plan(tuple(monomials), build_order)
    forms = [[(1 << (width * j), Scalar(ctx, c), c == one_val) for j, c in form]
             for form in forms]

    def times_form(image: dict, form: list) -> dict:
        prod: dict[int, Scalar] = {}
        for k1, c1 in image.items():
            unit1 = c1.val == one_val
            for step, c2, unit2 in form:
                key = k1 + step
                c = c2 if unit1 else (c1 if unit2 else c1 * c2)
                acc = prod.get(key)
                if acc is None:
                    prod[key] = c
                else:
                    s = acc + c
                    if s.is_zero():
                        del prod[key]
                    else:
                        prod[key] = s
        return prod

    unpack = _exponent_codec(nvars, width)[1]
    exps_of: dict[int, tuple[int, ...]] = {}
    images = [{0: one}]  # images[t] is the image of the current chain's first t steps
    for exps, shared, new in plan:
        del images[shared + 1:]
        for i in new:
            images.append(times_form(images[-1], forms[i]))
        image = {}
        for key, c in images[-1].items():
            e = exps_of.get(key)
            if e is None:
                e = exps_of[key] = unpack(key)
            image[e] = c
        yield exps, image


@lru_cache(maxsize=16)
def _chain_plan(monomials: tuple[tuple[int, ...], ...], build_order: tuple[int, ...]
                ) -> tuple[int, tuple]:
    """The walk of substitution_images: a slot width that fits the largest
    degree, and each monomial in prefix-chain order with the length of the
    chain it shares with the one before and the variables its own adds."""
    chains = sorted((tuple(i for i in build_order for _ in range(e[i])), e)
                    for e in monomials)
    plan = []
    chain: tuple[int, ...] = ()
    for new_chain, exps in chains:
        shared = 0
        while (shared < len(chain) and shared < len(new_chain)
               and chain[shared] == new_chain[shared]):
            shared += 1
        plan.append((exps, shared, new_chain[shared:]))
        chain = new_chain
    return _slot_width(max((len(c) for c, _ in chains), default=0)), tuple(plan)


def _slot_width(degree: int) -> int:
    """The least of 8, 16, 32, 64, 128, ... bits that holds degree."""
    width = 8
    while degree >> width:
        width *= 2
    return width


@lru_cache(maxsize=64)
def _exponent_codec(nvars: int, width: int
                    ) -> tuple[Callable[[Sequence[int]], int], Callable[[int], tuple[int, ...]]]:
    """(pack, unpack) between exponent tuples and ints with exponent j in
    bits [width*j, width*(j+1)): while no exponent reaches 2^width, the sum
    of two packed ints is the packed sum of their exponents.  Slots of up
    to 64 bits go through one struct, wider ones through shifts."""
    if width <= 64:
        layout = struct.Struct(f"<{nvars}" + {8: "B", 16: "H", 32: "I", 64: "Q"}[width])
        size, to_bytes, unpack = layout.size, layout.pack, layout.unpack
        return (lambda exps: int.from_bytes(to_bytes(*exps), "little"),
                lambda key: unpack(key.to_bytes(size, "little")))
    mask, shifts = (1 << width) - 1, range(0, nvars * width, width)
    return (lambda exps: sum(e << s for e, s in zip(exps, shifts)),
            lambda key: tuple(key >> s & mask for s in shifts))


def monomial_images(matrix: Matrix, monomials: Collection[tuple[int, ...]]
                    ) -> tuple[Iterator[tuple[int, ...]], Iterator[Scalar]] | None:
    """For an invertible monomial matrix, x_i -> c_i x_{s(i)} with s a
    permutation, the image (prod c_i^e_i) x^f of each x^e, f[s(i)] = e[i]:
    an iterator of the f and one of the coefficients, both in input order.
    The f are one itemgetter call per monomial; a coefficient is multiplied
    on raw values only where some c_i is not one.  None for any other matrix."""
    ctx, entries = matrix.ctx, []
    for row in matrix.rows:
        if len(row) - row.count(0) != 1:
            return None
        j = next(compress(count(), row))
        entries.append((j, row[j]))
    if len({j for j, _ in entries}) != len(entries):
        return None
    source = sorted(range(len(entries)), key=lambda i: entries[i][0])  # s^-1
    permute = itemgetter(*source) if len(source) > 1 else tuple  # itemgetter(0) gives an int
    one = ctx.one
    one_val = one.val
    mul, power = ctx._mul, ctx._pow
    scaled = [(i, c) for i, (_, c) in enumerate(entries) if c != one_val]

    def coeff(exps: tuple[int, ...]) -> Scalar:
        val = one_val
        for i, c in scaled:
            if exps[i]:
                val = mul(val, power(c, exps[i]))
        return one if val == one_val else Scalar(ctx, val)
    return map(permute, monomials), map(coeff, monomials) if scaled else repeat(one)


class Polynomial:
    """Immutable sparse polynomial; no zero coefficients are ever stored."""

    __slots__ = ("ctx", "nvars", "terms")

    def __init__(self, ctx: FieldCtx, nvars: int,
                 terms: Mapping[tuple[int, ...], Scalar] | None = None,
                 _trusted: bool = False):
        self.ctx = ctx
        self.nvars = nvars
        if terms is None:
            self.terms: dict[tuple[int, ...], Scalar] = {}
        elif _trusted:
            self.terms = dict(terms)
        else:
            clean = {}
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise DimensionMismatch(f"{exps} has {len(exps)} vars, not {nvars}")
                if coeff.ctx != ctx:
                    raise ContextMismatch("coefficient from a different context")
                if not coeff.is_zero():
                    clean[tuple(exps)] = coeff
            self.terms = clean

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(ctx: FieldCtx, nvars: int) -> "Polynomial":
        return Polynomial(ctx, nvars)

    @staticmethod
    def constant(ctx: FieldCtx, nvars: int, value: Scalar) -> "Polynomial":
        if value.is_zero():
            return Polynomial(ctx, nvars)
        return Polynomial(ctx, nvars, {(0,) * nvars: value}, _trusted=True)

    @staticmethod
    def one(ctx: FieldCtx, nvars: int) -> "Polynomial":
        return Polynomial.constant(ctx, nvars, ctx.one)

    @staticmethod
    def variable(ctx: FieldCtx, nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise DimensionMismatch(f"x{index} out of range for {nvars} variables")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return Polynomial(ctx, nvars, {exps: ctx.one}, _trusted=True)

    # -- structure -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def _check(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            raise ContextMismatch(f"expected Polynomial, got {type(other).__name__}")
        if other.ctx != self.ctx:
            raise ContextMismatch("mixed coefficient contexts")
        if other.nvars != self.nvars:
            raise DimensionMismatch(f"{self.nvars} vs {other.nvars} variables")
        return other

    # -- ring operations ----------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        other = self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e)
            s = c if acc is None else acc + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        return Polynomial(self.ctx, self.nvars, out, _trusted=True)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ctx, self.nvars,
                          {e: -c for e, c in self.terms.items()}, _trusted=True)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Scalar):
            return self.scale(other)
        other = self._check(other)
        # no exponent of the product exceeds the sum of the two degrees
        pack, unpack = _exponent_codec(
            self.nvars, _slot_width(max(self.degree(), 0) + max(other.degree(), 0)))
        right = [(pack(e), c) for e, c in other.terms.items()]
        out: dict[int, Scalar] = {}
        for e1, c1 in self.terms.items():
            k1 = pack(e1)
            for k2, c2 in right:
                e = k1 + k2
                c = c1 * c2
                acc = out.get(e)
                s = c if acc is None else acc + c
                if s.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = s
        return Polynomial(self.ctx, self.nvars, {unpack(e): c for e, c in out.items()},
                          _trusted=True)

    def scale(self, s: Scalar) -> "Polynomial":
        if s.ctx != self.ctx:
            raise ContextMismatch("scalar from a different context")
        if s.is_zero():
            return Polynomial(self.ctx, self.nvars)
        return Polynomial(self.ctx, self.nvars,
                          {e: c * s for e, c in self.terms.items()}, _trusted=True)

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise DimensionMismatch("negative polynomial power")
        result = Polynomial.one(self.ctx, self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and other.ctx == self.ctx
                and other.nvars == self.nvars and other.terms == self.terms)

    def __hash__(self):
        return hash((self.ctx, self.nvars,
                     tuple(sorted((e, c.val) for e, c in self.terms.items()))))

    # -- evaluation and substitution --------------------------------------------------

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        if len(point) != self.nvars:
            raise DimensionMismatch(f"point has {len(point)} coordinates, "
                                    f"need {self.nvars}")
        for s in point:
            if s.ctx != self.ctx:
                raise ContextMismatch("point coordinate from a different context")
        # each term walks its support only; zero and one are their own
        # powers, a zero drops the term before it is added, and a unit power
        # makes no product
        total = self.ctx.zero
        power_cache: dict[tuple[int, int], Scalar] = {}
        for exps, coeff in self.terms.items():
            val = coeff
            for key in compress(enumerate(exps), exps):
                p = power_cache.get(key)
                if p is None:
                    x = point[key[0]]
                    p = power_cache[key] = x ** key[1] if x.val and x.val != 1 else x
                if p.val != 1:
                    if not p.val:
                        break
                    val = p if val.val == 1 else val * p
            else:
                total = total + val
        return total

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Compose: x_i is replaced by images[i] (all over the same ring)."""
        if len(images) != self.nvars:
            raise DimensionMismatch("one image per variable required")
        if not images:
            raise DimensionMismatch("no variables")
        target_nvars = images[0].nvars
        out = Polynomial.zero(self.ctx, target_nvars)
        power_cache: dict[tuple[int, int], Polynomial] = {}
        for exps, coeff in self.terms.items():
            term = Polynomial.constant(self.ctx, target_nvars, coeff)
            for i, e in enumerate(exps):
                if e:
                    key = (i, e)
                    p = power_cache.get(key)
                    if p is None:
                        p = images[i] ** e
                        power_cache[key] = p
                    term = term * p
            out = out + term
        return out

    def substitute_linear(self, m: Matrix) -> "Polynomial":
        """x_i -> sum_j m[i][j] x_j; satisfies (f o M)(v) = f(M v)."""
        if m.nrows != self.nvars or m.ncols != self.nvars:
            raise DimensionMismatch(f"matrix is {m.nrows}x{m.ncols}, "
                                    f"need {self.nvars}x{self.nvars}")
        if m.ctx != self.ctx:
            raise ContextMismatch("matrix over a different context")
        out: dict[tuple[int, ...], Scalar] = {}
        for exps, image in substitution_images(m, self.terms):
            coeff = self.terms[exps]
            unit = coeff.is_one()
            for e, c in image.items():
                if not unit:
                    c = c * coeff
                acc = out.get(e)
                s = c if acc is None else acc + c
                if s.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = s
        return Polynomial(self.ctx, self.nvars, out, _trusted=True)

    # -- coefficient vectors ------------------------------------------------------------

    def coeff_vector(self, d: int) -> list[Scalar]:
        """Coefficients of the degree-d part along mono_basis(nvars, d)."""
        zero = self.ctx.zero
        out = [zero] * len(_exponent_basis(self.nvars, d))
        index = _basis_index(self.nvars, d)
        for e, c in self.terms.items():
            if sum(e) == d:
                out[index[e]] = c
        return out

    @staticmethod
    def from_coeff_vector(ctx: FieldCtx, nvars: int, d: int,
                          coeffs: Sequence[Scalar]) -> "Polynomial":
        basis = _exponent_basis(nvars, d)
        if len(coeffs) != len(basis):
            raise DimensionMismatch("coefficient vector has the wrong length")
        return Polynomial(ctx, nvars,
                          {e: c for e, c in zip(basis, coeffs) if not c.is_zero()},
                          _trusted=True)

    # -- text form ------------------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=grlex_key):
            coeff = self.terms[exps]
            mono = Monomial(exps)
            ctext = str(coeff)
            needs_parens = ("+" in ctext or "-" in ctext[1:])
            if needs_parens:
                ctext = f"({ctext})"
            if mono.degree == 0:
                parts.append(ctext)
            elif coeff.is_one():
                parts.append(str(mono))
            else:
                parts.append(f"{ctext}*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial({self} over {self.ctx!r}, nvars={self.nvars})"


_VARPOW = re.compile(r"x(\d+)(?:\^(\d+))?$")


def poly_parse(ctx: FieldCtx, nvars: int, text: str) -> Polynomial:
    """Parse the report grammar: terms joined by '+', factors by '*'.

    A factor is either a variable power `x<i>[^e]` or a coefficient in the
    Scalar text format (parenthesised when it contains '+' or '-', as the
    printer emits for extension fields).
    """
    def split_top_level(s: str, seps: str) -> list[str]:
        parts, depth, current = [], 0, []
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            # a sign after another separator is unary; a '*' always splits,
            # so '**' and a leading '*' leave an empty factor
            if depth == 0 and ch in seps and (ch == "*" or "".join(current).strip()):
                parts.append("".join(current))
                current = [ch] if ch == "-" else []
            else:
                current.append(ch)
        parts.append("".join(current))
        return parts

    text = text.strip()
    if not text:
        raise ParseError("empty polynomial")
    if text == "0":
        return Polynomial.zero(ctx, nvars)

    total = Polynomial.zero(ctx, nvars)
    for term_text in split_top_level(text, "+-"):
        term_text = term_text.strip()
        if not term_text:
            raise ParseError(f"empty term in {text!r}")
        negate = False
        if term_text.startswith("-"):
            negate, term_text = True, term_text[1:].strip()
        exps = [0] * nvars
        coeff = ctx.one
        for factor in split_top_level(term_text, "*"):
            factor = factor.strip()
            if not factor:
                raise ParseError(f"empty factor in {text!r}")
            m = _VARPOW.match(factor)
            if m:
                i, e = int(m.group(1)), int(m.group(2) or 1)
                if i >= nvars:
                    raise DimensionMismatch(f"x{i} out of range for {nvars} variables")
                exps[i] += e
            else:
                coeff = coeff * ctx.parse(factor)
        if negate:
            coeff = -coeff
        total = total + Polynomial(ctx, nvars, {tuple(exps): coeff})
    return total
