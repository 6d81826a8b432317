"""Sparse multivariate polynomials over a FieldCtx.

Exponent vectors are plain int tuples; the graded-lex order (higher total
degree first, then descending lexicographic on exponents) fixes every basis
listing, coefficient vector, and printed form, so reports are reproducible
byte for byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ContextMismatch, DimensionMismatch, ParseError
from .fields import FieldCtx, Scalar
from .linalg import Matrix


@dataclass(frozen=True)
class Monomial:
    """An exponent vector with its cached total degree."""

    exps: tuple[int, ...]
    degree: int = -1

    def __post_init__(self):
        object.__setattr__(self, "degree", sum(self.exps))

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


# One basis (nvars, d) recurses through (k, e) for every k < nvars and e <= d,
# so the bound keeps a whole recursion cached for any basis small enough to
# enumerate.
@lru_cache(maxsize=1024)
def _exponent_basis(nvars: int, d: int) -> tuple[tuple[int, ...], ...]:
    if nvars == 1:
        return ((d,),)
    out = []
    for first in range(d, -1, -1):
        for rest in _exponent_basis(nvars - 1, d - first):
            out.append((first,) + rest)
    return tuple(out)


def mono_basis(nvars: int, d: int) -> list[Monomial]:
    """All C(nvars+d-1, d) monomials of total degree d, graded-lex order."""
    if nvars < 1 or d < 0:
        raise DimensionMismatch(f"bad basis shape nvars={nvars}, d={d}")
    return [Monomial(e) for e in _exponent_basis(nvars, d)]


@lru_cache(maxsize=256)
def _basis_index(nvars: int, d: int) -> dict[tuple[int, ...], int]:
    return {e: i for i, e in enumerate(_exponent_basis(nvars, d))}


def substitution_images(matrix: Matrix, monomials: Iterable[tuple[int, ...]]
                        ) -> Iterator[tuple[tuple[int, ...], dict]]:
    """Yield (m, term dict of m(Mx)) for each exponent tuple m, where
    x_i -> sum_j M[i][j] x_j, in an order of the routine's choosing.

    Each image extends a shared prefix, image(e) = image(e - e_i) * form_i,
    so one call serves a whole degree-d basis or the sparse support of one
    polynomial alike.  The peeled variable i is the sparsest form present
    (ties by index; plain index order for permutation matrices), which
    keeps the products small.  Monomials are visited in the order of their
    prefix chains, so every shared prefix is built once and only the
    current chain is held: memory stays at one image per degree.  The
    yielded dicts are shared with later images and must not be mutated.
    """
    ctx, nvars = matrix.ctx, matrix.nrows
    one = ctx.one
    one_val = one.val
    forms = [[(j, c, c.val == one_val) for j, c in enumerate(row) if not c.is_zero()]
             for row in matrix.rows]
    # the chain of e adds the densest variables first, the sparsest last
    build_order = sorted(range(nvars), key=lambda i: (len(forms[i]), i))[::-1]

    def times_form(image: dict, form: list) -> dict:
        prod: dict[tuple[int, ...], Scalar] = {}
        for e1, c1 in image.items():
            unit1 = c1.val == one_val
            for j, c2, unit2 in form:
                key = e1[:j] + (e1[j] + 1,) + e1[j + 1:]
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

    constant = (0,) * nvars
    chains = sorted((tuple(i for i in build_order for _ in range(e[i])), e)
                    for e in monomials)
    chain: tuple[int, ...] = ()
    images = [{constant: one}]  # images[t] is the image of chain[:t]
    for new_chain, exps in chains:
        shared = 0
        while (shared < len(chain) and shared < len(new_chain)
               and chain[shared] == new_chain[shared]):
            shared += 1
        del images[shared + 1:]
        for i in new_chain[shared:]:
            images.append(times_form(images[-1], forms[i]))
        chain = new_chain
        yield exps, images[-1]


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

    @staticmethod
    def from_monomial(ctx: FieldCtx, m: Monomial) -> "Polynomial":
        return Polynomial(ctx, m.nvars, {m.exps: ctx.one}, _trusted=True)

    # -- structure -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def homogeneous_component(self, d: int) -> "Polynomial":
        picked = {e: c for e, c in self.terms.items() if sum(e) == d}
        return Polynomial(self.ctx, self.nvars, picked, _trusted=True)

    def coefficient(self, m: Monomial | tuple[int, ...]) -> Scalar:
        exps = m.exps if isinstance(m, Monomial) else tuple(m)
        return self.terms.get(exps, self.ctx.zero)

    def monomials(self) -> list[Monomial]:
        return [Monomial(e) for e in sorted(self.terms, key=grlex_key)]

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
        out: dict[tuple[int, ...], Scalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                acc = out.get(e)
                s = c if acc is None else acc + c
                if s.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = s
        return Polynomial(self.ctx, self.nvars, out, _trusted=True)

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
        total = self.ctx.zero
        power_cache: dict[tuple[int, int], Scalar] = {}
        for exps, coeff in self.terms.items():
            val = coeff
            for i, e in enumerate(exps):
                if e:
                    key = (i, e)
                    p = power_cache.get(key)
                    if p is None:
                        p = point[i] ** e
                        power_cache[key] = p
                    val = val * p
                    if val.is_zero():
                        break
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
            if depth == 0 and ch in seps and "".join(current).strip():
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
            factor = factor.strip().lstrip("*").strip()
            if not factor:
                raise ParseError(f"empty factor in {term_text!r}")
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
