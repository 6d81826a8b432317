"""Exact coefficient domains: prime fields, extension fields F_{p^n}, rationals.

Scalars are immutable values tied to a context.  A finite-field element is a
plain int: a residue in F_p, and in F_{p^n} the sum of c_i * p^i over its
little-endian coefficient vector (c_0, ..., c_{n-1}) modulo an irreducible
modulus, so that int order is the order of enumeration and sorting.  In
characteristic 2 the int is the coefficient bit vector and addition is XOR.

Extension fields with at most 2^16 elements multiply, invert and take powers
through exp/log tables of their least primitive element g; in odd
characteristic they add through a Zech-logarithm table, log(1 + g^k) for
each k (Huber, "Some comments on Zech's logarithms", IEEE Trans. IT 36(4),
1990).  Larger fields use the same encoding and multiply by shift-and-reduce,
the routine that also builds the tables.  Rationals are arbitrary-precision
fractions.  No floating point anywhere.

Contexts are interned: ff_make returns one FieldCtx per (p, n, modulus), so
two scalars are over the same field exactly when their contexts are the same
object.
"""

from __future__ import annotations

import operator
import re
import weakref
from fractions import Fraction
from typing import Callable, Iterator, Sequence

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


def _digits(v: int, p: int, n: int) -> list[int]:
    """The n little-endian base-p digits of v."""
    out = []
    for _ in range(n):
        v, c = divmod(v, p)
        out.append(c)
    return out


def _encode(coeffs: Sequence[int], p: int) -> int:
    """Inverse of _digits: the sum of coeffs[i] * p^i."""
    v = 0
    for c in reversed(coeffs):
        v = v * p + c
    return v


def _monic_polys(p: int, degree: int) -> Iterator[tuple[int, ...]]:
    """All monic degree-`degree` polynomials, ascending integer encoding."""
    for k in range(p**degree):
        yield tuple(_digits(k, p, degree)) + (1,)


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
# arithmetic on raw values: each context holds the six operations of its kind
# (add, sub, neg, mul, inv, and pow for exponents >= 0)

# extension fields up to this size get exp/log (and Zech) tables
_TABLE_LIMIT = 2**16


def _inverse_of_zero():
    raise DivisionByZero("inverse of zero")


def _rational_ops():
    def inv(a):
        return 1 / a if a else _inverse_of_zero()
    return operator.add, operator.sub, operator.neg, operator.mul, inv, operator.pow


def _prime_ops(p: int):
    def add(a, b):
        return (a + b) % p

    def sub(a, b):
        return (a - b) % p

    def neg(a):
        return -a % p

    def mul(a, b):
        return a * b % p

    def inv(a):
        return pow(a, p - 2, p) if a else _inverse_of_zero()

    def power(a, k):
        return pow(a, k, p)
    return add, sub, neg, mul, inv, power


def _times_z(p: int, n: int, modulus: tuple[int, ...]) -> Callable[[int], int]:
    """x -> x*z on encoded values: shift x up one digit, and fold the digit
    that leaves the top back in as that digit times -(modulus below z^n)."""
    if p == 2:
        full = _encode(modulus, 2)  # its z^n bit clears the bit shifted out

        def times_z(x):
            x <<= 1
            return x ^ full if x >> n else x
        return times_z

    unit = p ** (n - 1)
    fold = [(p**j, -c % p) for j, c in enumerate(modulus[:n]) if c]

    def times_z(x):
        top, x = divmod(x, unit)
        x *= p
        if top:
            for pj, c in fold:
                digit = x // pj % p
                x += ((digit + top * c) % p - digit) * pj
        return x
    return times_z


def _shift_multiplier(p: int, n: int, times_z) -> Callable[[int, int], int]:
    """a*b on encoded values, by Horner's rule over b's digits from the top:
    r <- r*z + b_i*a.  In characteristic 2 the sum is XOR."""
    if p == 2:
        def mul(a, b):
            r = 0
            for i in range(b.bit_length() - 1, -1, -1):
                r = times_z(r)
                if b >> i & 1:
                    r ^= a
            return r
        return mul

    def mul(a, b):
        da = _digits(a, p, n)
        r = 0
        for d in reversed(_digits(b, p, n)):
            r = times_z(r)
            if d:
                r = _encode([(x + d * y) % p for x, y in zip(_digits(r, p, n), da)], p)
        return r
    return mul


def _power(a: int, k: int, mul) -> int:
    """a^k for k >= 0 by square-and-multiply."""
    r = 1
    while k:
        if k & 1:
            r = mul(r, a)
        a = mul(a, a)
        k >>= 1
    return r


def _prime_factors(m: int) -> list[int]:
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def _log_tables(q: int, times_z, mul) -> tuple[list[int], list[int]]:
    """exp and log tables of the least primitive element g.

    Multiplying by z is the cheap step, so the units are filled one coset of
    <z> at a time: with d the order of z and e = (q-1)/d, they are g^j * z^i
    for j < e and i < d, and log(g^j * z^i) = j + i * log(z).  exp holds two
    periods, so a sum of two logs indexes it directly; log[0] is a
    placeholder that callers never read.
    """
    m = q - 1
    factors = _prime_factors(m)
    g = next(a for a in range(2, q)
             if all(_power(a, m // r, mul) != 1 for r in factors))
    powers_of_z = [1]
    x = times_z(1)
    while x != 1:
        powers_of_z.append(x)
        x = times_z(x)
    d = len(powers_of_z)
    e = m // d
    # g^e generates <z>, the subgroup of order d: with g^e = z^v,
    # log(z) = e / v = e * (v^-1 mod d) modulo m
    log_z = e * pow(powers_of_z.index(_power(g, e, mul)), -1, d)
    log = [0] * q
    start = 1
    for j in range(e):
        x, k = start, j
        for _ in range(d):
            log[x] = k % m
            x = times_z(x)
            k += log_z
        start = mul(start, g)
    exp = [0] * m
    for x in range(1, q):
        exp[log[x]] = x
    return exp + exp, log


def _extension_ops(p: int, n: int, modulus: tuple[int, ...]):
    q = p**n
    times_z = _times_z(p, n, modulus)
    shift_mul = _shift_multiplier(p, n, times_z)
    if p == 2:
        add = sub = operator.xor
        neg = operator.pos  # -a = a
    else:
        def add(a, b):
            return _encode([(x + y) % p for x, y in zip(_digits(a, p, n), _digits(b, p, n))], p)

        def sub(a, b):
            return _encode([(x - y) % p for x, y in zip(_digits(a, p, n), _digits(b, p, n))], p)

        def neg(a):
            return _encode([-x % p for x in _digits(a, p, n)], p)
    if q > _TABLE_LIMIT:
        def inv(a):
            return _power(a, q - 2, shift_mul) if a else _inverse_of_zero()

        def power(a, k):
            return _power(a, k, shift_mul)
        return add, sub, neg, shift_mul, inv, power

    m = q - 1
    exp, log = _log_tables(q, times_z, shift_mul)

    def mul(a, b):
        return exp[log[a] + log[b]] if a and b else 0

    def inv(a):
        return exp[m - log[a]] if a else _inverse_of_zero()

    def power(a, k):
        if a:
            return exp[log[a] * k % m]
        return 0 if k else 1
    if p == 2:
        return add, sub, neg, mul, inv, power

    # The Zech table replaces the digitwise sums: a + b = a * (1 + b/a), and
    # zech[k] = log(1 + g^k), None where that is 0, i.e. where g^k = -1, at
    # k = m/2.  Two periods, so that any difference of logs, with m/2 added
    # for a negation, indexes it directly.
    half = m // 2
    zech = [None] * m
    for k in range(m):
        x = exp[k]
        one_plus = x + 1 if x % p != p - 1 else x + 1 - p
        if one_plus:
            zech[k] = log[one_plus]
    zech += zech

    def add(a, b):
        if not a:
            return b
        if not b:
            return a
        la = log[a]
        z = zech[log[b] - la]
        return 0 if z is None else exp[la + z]

    def sub(a, b):
        if not b:
            return a
        lb = log[b] + half
        if not a:
            return exp[lb]
        la = log[a]
        z = zech[lb - la]
        return 0 if z is None else exp[la + z]

    def neg(a):
        return exp[log[a] + half] if a else 0
    return add, sub, neg, mul, inv, power


# ---------------------------------------------------------------------------


class FieldCtx:
    """A coefficient domain: prime field, extension field, or the rationals.

    Build finite fields with ff_make, which interns them: equal fields are
    one object, and contexts compare by identity.  The hash is by value, so
    hashes of scalars and polynomials never depend on object addresses.
    """

    __slots__ = ("kind", "p", "n", "modulus", "_zero", "_one", "_hash",
                 "_add", "_sub", "_neg", "_mul", "_inv", "_pow", "__weakref__")

    def __init__(self, kind: str, p: int, n: int,
                 modulus: tuple[int, ...] | None):
        self.kind = kind
        self.p = p
        self.n = n
        self.modulus = modulus
        self._hash = hash((kind, p, n, modulus))
        if kind == "rational":
            ops, zero, one = _rational_ops(), Fraction(0), Fraction(1)
        elif kind == "prime":
            ops, zero, one = _prime_ops(p), 0, 1
        else:
            ops, zero, one = _extension_ops(p, n, modulus), 0, 1
        self._add, self._sub, self._neg, self._mul, self._inv, self._pow = ops
        self._zero, self._one = zero, one

    # -- construction -------------------------------------------------------

    @staticmethod
    def rationals() -> "FieldCtx":
        return _QQ

    @staticmethod
    def prime(p: int) -> "FieldCtx":
        return ff_make(p, 1)

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
        return _coeff_text(self.modulus)

    def describe(self) -> dict:
        """JSON-ready description: {'p': 0, ...} means the rationals."""
        if self.kind == "rational":
            return {"p": 0, "n": 1, "modulus": None}
        return {"p": self.p, "n": self.n,
                "modulus": list(self.modulus) if self.modulus else None}

    # -- element constructors --------------------------------------------------

    @property
    def zero(self) -> "Scalar":
        return Scalar(self, self._zero)

    @property
    def one(self) -> "Scalar":
        return Scalar(self, self._one)

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction, or Scalar into this context."""
        if isinstance(value, Scalar):
            if value.ctx is self:
                return value
            raise ContextMismatch(f"scalar from {value.ctx!r} used in {self!r}")
        if self.kind == "rational":
            return Scalar(self, Fraction(value))
        if not isinstance(value, int):
            raise ContextMismatch(f"cannot coerce {value!r} into {self!r}")
        return Scalar(self, value % self.p)

    def from_coeffs(self, coeffs: Sequence[int]) -> "Scalar":
        """Extension element from a little-endian F_p coefficient vector."""
        if self.kind != "extension":
            raise RationalContext(f"{self!r} has no coefficient vectors")
        if len(coeffs) > self.n:
            raise DegreeMismatch(f"{len(coeffs)} coefficients for degree {self.n}")
        return Scalar(self, _encode([c % self.p for c in coeffs], self.p))

    def generator(self) -> "Scalar":
        """The class of z in an extension field."""
        if self.kind != "extension":
            raise RationalContext(f"{self!r} has no generator z")
        return self.from_coeffs((0, 1))

    # -- enumeration and parsing -------------------------------------------------

    def enumerate(self) -> list["Scalar"]:
        """All p^n elements: 0 first, then ascending coefficient encoding."""
        if not self.is_finite:
            raise RationalContext("cannot enumerate the rationals")
        return [Scalar(self, v) for v in range(self.cardinality)]

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
        return Scalar(self, _encode(coeffs, self.p))


def _coeff_text(coeffs: Sequence[int]) -> str:
    """Little-endian coefficients as a polynomial in z, highest term first."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        elif k == 1:
            terms.append("z" if c == 1 else f"{c}*z")
        else:
            terms.append(f"z^{k}" if c == 1 else f"{c}*z^{k}")
    return "+".join(terms) if terms else "0"


class Scalar:
    """An immutable field element bound to its context."""

    __slots__ = ("ctx", "val")

    def __init__(self, ctx: FieldCtx, val):
        self.ctx = ctx
        self.val = val

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.val

    def is_one(self) -> bool:
        return self.val == 1

    def _check(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            raise ContextMismatch(f"expected Scalar, got {type(other).__name__}")
        if other.ctx is not self.ctx:
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
        return Scalar(self.ctx, self.ctx._sub(self.val, other.val))

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
        return Scalar(self.ctx, self.ctx._pow(self.val, k))

    # -- comparisons -----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Scalar) and other.ctx is self.ctx
                and other.val == self.val)

    def __hash__(self):
        return hash((self.ctx, self.val))

    def sort_key(self):
        """Deterministic total order within one context."""
        return self.val

    def coeffs(self) -> tuple[int, ...]:
        """The n little-endian F_p coefficients of a finite-field element."""
        ctx = self.ctx
        if not ctx.is_finite:
            raise RationalContext("a rational has no coefficient vector")
        return tuple(_digits(self.val, ctx.p, ctx.n))

    # -- formatting ---------------------------------------------------------------

    def __str__(self):
        if self.ctx.kind != "extension":
            return str(self.val)
        return _coeff_text(self.coeffs())

    def __repr__(self):
        return f"Scalar({self}, {self.ctx!r})"


_QQ = FieldCtx("rational", 0, 1, None)


# ---------------------------------------------------------------------------
# module-level operations

# (p, n, modulus) -> its one live context; (p, n, None) is the default
# modulus.  Weak, so a field nobody holds any more is dropped with its tables.
_INTERNED: "weakref.WeakValueDictionary[tuple, FieldCtx]" = weakref.WeakValueDictionary()


def _interned(kind: str, p: int, n: int, modulus: tuple[int, ...] | None) -> FieldCtx:
    ctx = _INTERNED.get((p, n, modulus))
    if ctx is None:
        ctx = _INTERNED[(p, n, modulus)] = FieldCtx(kind, p, n, modulus)
    return ctx


def ff_make(p: int, n: int = 1, modulus: Sequence[int] | None = None) -> FieldCtx:
    """Finite field F_{p^n}, one context per field.

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
        return _interned("prime", p, 1, None)
    if modulus is None:
        ctx = _INTERNED.get((p, n, None))
        if ctx is None:
            ctx = _INTERNED[(p, n, None)] = _interned("extension", p, n,
                                                      _least_irreducible(p, n))
        return ctx
    mod = tuple(c % p for c in modulus)
    if len(mod) != n + 1 or mod[-1] != 1:
        raise DegreeMismatch(f"modulus must be monic of degree {n}")
    if (p, n, mod) not in _INTERNED and not _is_irreducible(mod, p):
        raise ReducibleModulus(f"{mod} is reducible over F_{p}")
    return _interned("extension", p, n, mod)


def frobenius(a: Scalar, iterations: int = 1) -> Scalar:
    """a^(p^iterations); additive on finite fields."""
    if not a.ctx.is_finite:
        raise RationalContext("frobenius needs a finite field")
    return a ** (a.ctx.p ** iterations)


def ff_enumerate(ctx: FieldCtx) -> list[Scalar]:
    return ctx.enumerate()


def lift(a: Scalar, target: FieldCtx) -> Scalar:
    """Canonical embedding: identity, or prime field into an extension."""
    if a.ctx is target:
        return a
    if a.ctx.kind == "prime" and target.kind == "extension" and a.ctx.p == target.p:
        return target.from_coeffs((a.val,))
    raise ContextMismatch(f"no canonical map {a.ctx!r} -> {target!r}")
