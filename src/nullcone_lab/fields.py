"""Exact coefficient domains: prime fields, extension fields F_{p^n}, rationals.

Scalars are immutable values tied to a context.  Extension elements are
coefficient vectors over F_p reduced mod an irreducible modulus; rationals
are arbitrary-precision fractions.  No floating point anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import (
    ContextMismatch,
    DegreeMismatch,
    DivisionByZero,
    NotPrime,
    ParseError,
    RationalContext,
    ReducibleModulus,
)

# ---------------------------------------------------------------------------
# F_p[z] helpers on little-endian coefficient tuples (index i = coeff of z^i).
# Tuples carry no trailing zeros except the zero polynomial, which is ().


def _poly_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_add(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = (out[i] + x) % p
    return _poly_trim(out)

def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _poly_divmod(a: Sequence[int], b: Sequence[int], p: int):
    """Quotient and remainder in F_p[z]; b must be nonzero."""
    rem = list(a)
    db, lb = len(b) - 1, b[-1]
    inv_lb = pow(lb, p - 2, p)
    quo = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        if rem[i]:
            q = rem[i] * inv_lb % p
            quo[i - db] = q
            for j in range(db + 1):
                rem[i - db + j] = (rem[i - db + j] - q * b[j]) % p
    return _poly_trim(quo), _poly_trim(rem)


def _poly_ext_gcd(a: Sequence[int], b: Sequence[int], p: int):
    """Extended gcd in F_p[z]: returns (g, u, v) with u*a + v*b = g."""
    r0, r1 = tuple(a), tuple(b)
    u0, u1 = (1,), ()
    v0, v1 = (), (1,)
    while r1:
        q, r = _poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        u0, u1 = u1, _poly_add(u0, _poly_mul(tuple((-c) % p for c in q), u1, p), p)
        v0, v1 = v1, _poly_add(v0, _poly_mul(tuple((-c) % p for c in q), v1, p), p)
    return r0, u0, v0


def _is_probable_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _monic_polys(p: int, degree: int) -> Iterator[tuple[int, ...]]:
    """All monic degree-`degree` polynomials, ascending integer encoding."""
    for k in range(p**degree):
        digits = []
        v = k
        for _ in range(degree):
            digits.append(v % p)
            v //= p
        yield tuple(digits) + (1,)


def _is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2."""
    deg = len(modulus) - 1
    for d in range(1, deg // 2 + 1):
        for divisor in _monic_polys(p, d):
            _, rem = _poly_divmod(modulus, divisor, p)
            if not rem:
                return False
    return True


def _least_irreducible(p: int, n: int) -> tuple[int, ...]:
    for candidate in _monic_polys(p, n):
        if _is_irreducible(candidate, p):
            return candidate
    raise AssertionError(f"no irreducible of degree {n} over F_{p}")


# ---------------------------------------------------------------------------


class FieldCtx:
    """A coefficient domain: prime field, extension field, or the rationals.

    Contexts compare by value (kind, characteristic, degree, modulus), so
    scalars built from two equal contexts interoperate.
    """

    __slots__ = ("kind", "p", "n", "modulus", "_reduction", "_mul_cache", "_hash")

    def __init__(self, kind: str, p: int, n: int,
                 modulus: tuple[int, ...] | None):
        self.kind = kind
        self.p = p
        self.n = n
        self.modulus = modulus
        # z^(n+j) mod modulus for j = 0..n-2, used to reduce products fast
        self._reduction: list[tuple[int, ...]] | None = None
        self._mul_cache: dict = {}
        self._hash = hash((kind, p, n, modulus))
        if kind == "extension":
            red = []
            power = _poly_divmod((0,) * n + (1,), modulus, p)[1]
            red.append(power)
            for _ in range(n - 2):
                power = _poly_divmod(_poly_mul(power, (0, 1), p), modulus, p)[1]
                red.append(power)
            self._reduction = red

    # -- construction -------------------------------------------------------

    @staticmethod
    def rationals() -> "FieldCtx":
        return _QQ

    @staticmethod
    def prime(p: int) -> "FieldCtx":
        return ff_make(p, 1)

    def __eq__(self, other):
        return (isinstance(other, FieldCtx)
                and self.kind == other.kind and self.p == other.p
                and self.n == other.n and self.modulus == other.modulus)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.kind == "rational":
            return "QQ"
        if self.kind == "prime":
            return f"GF({self.p})"
        return f"GF({self.p}^{self.n}, modulus={self.modulus_text()})"

    # -- basic queries --------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.kind != "rational"

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def cardinality(self) -> int | None:
        return self.p**self.n if self.is_finite else None

    def modulus_text(self) -> str | None:
        if self.kind != "extension":
            return None
        terms = []
        for k in range(self.n, -1, -1):
            c = self.modulus[k] if k < len(self.modulus) else 0
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append("z" if c == 1 else f"{c}*z")
            else:
                terms.append(f"z^{k}" if c == 1 else f"{c}*z^{k}")
        return "+".join(terms)

    def describe(self) -> dict:
        """JSON-ready description: {'p': 0, ...} means the rationals."""
        if self.kind == "rational":
            return {"p": 0, "n": 1, "modulus": None}
        return {"p": self.p, "n": self.n,
                "modulus": list(self.modulus) if self.modulus else None}

    # -- element constructors --------------------------------------------------

    @property
    def zero(self) -> "Scalar":
        return Scalar(self, Fraction(0) if self.kind == "rational"
                      else (0 if self.kind == "prime" else (0,) * self.n))

    @property
    def one(self) -> "Scalar":
        if self.kind == "rational":
            return Scalar(self, Fraction(1))
        if self.kind == "prime":
            return Scalar(self, 1 % self.p)
        return Scalar(self, (1,) + (0,) * (self.n - 1))

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction, or Scalar into this context."""
        if isinstance(value, Scalar):
            if value.ctx == self:
                return value
            raise ContextMismatch(f"scalar from {value.ctx!r} used in {self!r}")
        if self.kind == "rational":
            return Scalar(self, Fraction(value))
        if not isinstance(value, int):
            raise ContextMismatch(f"cannot coerce {value!r} into {self!r}")
        if self.kind == "prime":
            return Scalar(self, value % self.p)
        return Scalar(self, (value % self.p,) + (0,) * (self.n - 1))

    def from_coeffs(self, coeffs: Sequence[int]) -> "Scalar":
        """Extension element from a little-endian F_p coefficient vector."""
        if self.kind != "extension":
            raise RationalContext(f"{self!r} has no coefficient vectors")
        if len(coeffs) > self.n:
            raise DegreeMismatch(f"{len(coeffs)} coefficients for degree {self.n}")
        vec = tuple(c % self.p for c in coeffs) + (0,) * (self.n - len(coeffs))
        return Scalar(self, vec)

    def generator(self) -> "Scalar":
        """The class of z in an extension field."""
        if self.kind != "extension":
            raise RationalContext(f"{self!r} has no generator z")
        return self.from_coeffs((0, 1))

    # -- arithmetic on raw values ----------------------------------------------

    def _add(self, a, b):
        if self.kind == "prime":
            return (a + b) % self.p
        if self.kind == "rational":
            return a + b
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def _neg(self, a):
        if self.kind == "prime":
            return (-a) % self.p
        if self.kind == "rational":
            return -a
        return tuple((-x) % self.p for x in a)

    def _mul(self, a, b):
        if self.kind == "prime":
            return a * b % self.p
        if self.kind == "rational":
            return a * b
        cached = self._mul_cache.get((a, b))
        if cached is not None:
            return cached
        n, p = self.n, self.p
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % p
        out = prod[:n]
        for j in range(n - 1):
            c = prod[n + j]
            if c:
                for i, r in enumerate(self._reduction[j]):
                    out[i] = (out[i] + c * r) % p
        result = tuple(out)
        if self.cardinality <= 4096:
            self._mul_cache[(a, b)] = result
        return result

    def _inv(self, a):
        if self.kind == "prime":
            if a == 0:
                raise DivisionByZero("inverse of zero")
            return pow(a, self.p - 2, self.p)
        if self.kind == "rational":
            if a == 0:
                raise DivisionByZero("inverse of zero")
            return 1 / a
        vec = _poly_trim(list(a))
        if not vec:
            raise DivisionByZero("inverse of zero")
        g, u, _ = _poly_ext_gcd(vec, self.modulus, self.p)
        # g is a nonzero constant since the modulus is irreducible
        scale = pow(g[0], self.p - 2, self.p)
        u = tuple(c * scale % self.p for c in u)
        return u + (0,) * (self.n - len(u))

    # -- enumeration and parsing -------------------------------------------------

    def enumerate(self) -> list["Scalar"]:
        """All p^n elements: 0 first, then ascending coefficient encoding."""
        if not self.is_finite:
            raise RationalContext("cannot enumerate the rationals")
        if self.kind == "prime":
            return [Scalar(self, r) for r in range(self.p)]
        out = []
        for k in range(self.cardinality):
            digits, v = [], k
            for _ in range(self.n):
                digits.append(v % self.p)
                v //= self.p
            out.append(Scalar(self, tuple(digits)))
        return out

    def parse(self, text: str) -> "Scalar":
        """Inverse of Scalar text formatting."""
        text = text.strip()
        if text.startswith("(") and text.endswith(")"):
            text = text[1:-1].strip()
        if not text:
            raise ParseError("empty scalar")
        if self.kind == "rational":
            try:
                return Scalar(self, Fraction(text))
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad rational {text!r}") from exc
        if self.kind == "prime":
            try:
                return Scalar(self, int(text) % self.p)
            except ValueError as exc:
                raise ParseError(f"bad residue {text!r}") from exc
        coeffs = [0] * self.n
        for term in text.replace("-", "+-").split("+"):
            term = term.strip()
            if not term:
                continue
            m = re.fullmatch(r"(-?\d+)?\s*\*?\s*(z(?:\^(\d+))?)?", term)
            if not m or (m.group(1) is None and m.group(2) is None):
                raise ParseError(f"bad extension term {term!r}")
            c = int(m.group(1)) if m.group(1) is not None else 1
            k = 0 if m.group(2) is None else (int(m.group(3)) if m.group(3) else 1)
            if k >= self.n:
                raise ParseError(f"z^{k} is not reduced in {self!r}")
            coeffs[k] = (coeffs[k] + c) % self.p
        return Scalar(self, tuple(coeffs))


class Scalar:
    """An immutable field element bound to its context."""

    __slots__ = ("ctx", "val")

    def __init__(self, ctx: FieldCtx, val):
        self.ctx = ctx
        self.val = val

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        if self.ctx.kind == "extension":
            return not any(self.val)
        return self.val == 0

    def is_one(self) -> bool:
        return self == self.ctx.one

    def _check(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            raise ContextMismatch(f"expected Scalar, got {type(other).__name__}")
        if other.ctx != self.ctx:
            raise ContextMismatch(f"mixed contexts {self.ctx!r} and {other.ctx!r}")
        return other

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = self._check(other)
        return Scalar(self.ctx, self.ctx._add(self.val, other.val))

    def __neg__(self):
        return Scalar(self.ctx, self.ctx._neg(self.val))

    def __sub__(self, other):
        other = self._check(other)
        return Scalar(self.ctx, self.ctx._add(self.val, self.ctx._neg(other.val)))

    def __mul__(self, other):
        other = self._check(other)
        return Scalar(self.ctx, self.ctx._mul(self.val, other.val))

    def __truediv__(self, other):
        other = self._check(other)
        return Scalar(self.ctx, self.ctx._mul(self.val, self.ctx._inv(other.val)))

    def inverse(self) -> "Scalar":
        return Scalar(self.ctx, self.ctx._inv(self.val))

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = self.ctx.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- comparisons -----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Scalar) and other.ctx == self.ctx
                and other.val == self.val)

    def __hash__(self):
        return hash((self.ctx, self.val))

    def sort_key(self):
        """Deterministic total order within one context."""
        if self.ctx.kind == "extension":
            return sum(c * self.ctx.p**i for i, c in enumerate(self.val))
        return self.val

    # -- formatting ---------------------------------------------------------------

    def __str__(self):
        if self.ctx.kind == "rational":
            return str(self.val)
        if self.ctx.kind == "prime":
            return str(self.val)
        terms = []
        for k in range(self.ctx.n - 1, -1, -1):
            c = self.val[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append("z" if c == 1 else f"{c}*z")
            else:
                terms.append(f"z^{k}" if c == 1 else f"{c}*z^{k}")
        return "+".join(terms) if terms else "0"

    def __repr__(self):
        return f"Scalar({self}, {self.ctx!r})"


_QQ = FieldCtx("rational", 0, 1, None)


# ---------------------------------------------------------------------------
# module-level operations


def ff_make(p: int, n: int = 1, modulus: Sequence[int] | None = None) -> FieldCtx:
    """Finite field F_{p^n}.

    Without an explicit modulus the lexicographically least monic
    irreducible of degree n is chosen (ascending integer encoding of the
    non-leading coefficients).  An explicit modulus is the full ascending
    coefficient list of length n+1 and must be monic and irreducible.
    """
    if not isinstance(p, int) or not _is_probable_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n < 1:
        raise DegreeMismatch(f"extension degree must be >= 1, got {n}")
    if n == 1:
        if modulus is not None:
            raise DegreeMismatch("prime fields take no modulus")
        return FieldCtx("prime", p, 1, None)
    if modulus is None:
        mod = _least_irreducible(p, n)
    else:
        mod = tuple(c % p for c in modulus)
        if len(mod) != n + 1 or mod[-1] != 1:
            raise DegreeMismatch(f"modulus must be monic of degree {n}")
        if not _is_irreducible(mod, p):
            raise ReducibleModulus(f"{mod} is reducible over F_{p}")
    return FieldCtx("extension", p, n, mod)


def frobenius(a: Scalar, iterations: int = 1) -> Scalar:
    """a^(p^iterations); additive on finite fields."""
    if not a.ctx.is_finite:
        raise RationalContext("frobenius needs a finite field")
    out = a
    for _ in range(iterations):
        out = out**a.ctx.p
    return out


def ff_enumerate(ctx: FieldCtx) -> list[Scalar]:
    return ctx.enumerate()


def lift(a: Scalar, target: FieldCtx) -> Scalar:
    """Canonical embedding: identity, or prime field into an extension."""
    if a.ctx == target:
        return a
    if a.ctx.kind == "prime" and target.kind == "extension" and a.ctx.p == target.p:
        return target.from_coeffs((a.val,))
    raise ContextMismatch(f"no canonical map {a.ctx!r} -> {target!r}")
