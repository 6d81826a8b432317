"""Coefficient-domain tests.  Derived expectations come from brute oracles
written here (exhaustive search / direct polynomial division), never from the
implementation under test."""

from __future__ import annotations

import gc
import itertools
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nullcone_lab.errors import (
    ContextMismatch,
    DegreeMismatch,
    DivisionByZero,
    NotPrime,
    RationalContext,
    ReducibleModulus,
)
from nullcone_lab.fields import (FieldCtx, _is_irreducible, _prime_factors, check_lift,
                                 ff_make, frobenius, least_primitive, lift, lifts)


# -- oracles -----------------------------------------------------------------

def poly_mod_oracle(a, modulus, p):
    """Remainder of a modulo `modulus` in F_p[z], by schoolbook division."""
    rem = list(a)
    while len(rem) >= len(modulus):
        lead = rem[-1] % p
        if lead:
            shift = len(rem) - len(modulus)
            for i, c in enumerate(modulus):
                rem[shift + i] = (rem[shift + i] - lead * c) % p
        rem.pop()
    return tuple(c % p for c in rem)


def irreducible_quadratics_oracle(p):
    """Monic quadratics over F_p without roots, by direct evaluation."""
    out = []
    for c0 in range(p):
        for c1 in range(p):
            if all((x * x + c1 * x + c0) % p for x in range(p)):
                out.append((c0, c1, 1))
    return out


def monic_polys_oracle(p, degree):
    """All monic polynomials of the degree, little-endian, least encoding first."""
    return sorted((tuple(c) + (1,) for c in itertools.product(range(p), repeat=degree)),
                  key=lambda f: sum(c * p**i for i, c in enumerate(f)))


def is_irreducible_oracle(f, p):
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(f) - 1
    return not any(not any(poly_mod_oracle(f, d, p))
                   for k in range(1, deg // 2 + 1) for d in monic_polys_oracle(p, k))


# -- construction -------------------------------------------------------------

def test_prime_field_cardinality():
    f2 = ff_make(2, 1)
    assert f2.cardinality == 2
    assert [s.val for s in f2.enumerate()] == [0, 1]


def test_f4_modulus_is_least_irreducible():
    # oracle: enumerate the 4 monic quadratics over F_2, exclude those with roots
    irreducibles = irreducible_quadratics_oracle(2)
    assert irreducibles == [(1, 1, 1)]  # z^2 + z + 1 is the only one
    f4 = ff_make(2, 2)
    assert f4.modulus == (1, 1, 1)
    assert f4.modulus_text() == "z^2+z+1"


def test_f9_modulus_is_least_irreducible():
    irreducibles = irreducible_quadratics_oracle(3)
    # ascending integer encoding c0 + 3*c1 picks the least
    least = min(irreducibles, key=lambda m: m[0] + 3 * m[1])
    assert ff_make(3, 2).modulus == least == (1, 0, 1)  # z^2 + 1


@pytest.mark.parametrize("p, dmax", [(2, 6), (3, 6), (5, 4)])
def test_irreducibility_test_agrees_with_trial_division(p, dmax):
    for deg in range(1, dmax + 1):
        for f in monic_polys_oracle(p, deg):
            assert _is_irreducible(f, p) == is_irreducible_oracle(f, p), f


@pytest.mark.parametrize("p, nmax", [(2, 8), (3, 5), (5, 3), (7, 2)])
def test_default_modulus_is_the_least_irreducible(p, nmax):
    for n in range(2, nmax + 1):
        least = next(f for f in monic_polys_oracle(p, n) if is_irreducible_oracle(f, p))
        assert ff_make(p, n).modulus == least


def test_large_default_moduli_are_found():
    """Trial division over all candidates took seconds for F_2^30 and did not
    finish for F_3^40."""
    assert ff_make(2, 30).modulus_text() == "z^30+z+1"
    assert ff_make(3, 40).modulus_text() == "z^40+z+2"
    with pytest.raises(ReducibleModulus):
        ff_make(3, 40, modulus=(2,) + (0,) * 39 + (1,))  # z^40 + 2 vanishes at 1


def test_not_prime_rejected():
    with pytest.raises(NotPrime):
        ff_make(4, 1)
    with pytest.raises(NotPrime):
        ff_make(1, 1)


def test_reducible_modulus_rejected():
    with pytest.raises(ReducibleModulus):
        ff_make(2, 2, modulus=(0, 0, 1))  # z^2 = z*z
    with pytest.raises(DegreeMismatch):
        ff_make(2, 2, modulus=(1, 1))  # wrong length
    with pytest.raises(DegreeMismatch):
        ff_make(2, 1, modulus=(1, 1))  # prime field takes none


# -- arithmetic ----------------------------------------------------------------

def test_f5_inverse_matches_exhaustive_search():
    f5 = ff_make(5)
    two = f5.scalar(2)
    # oracle: exhaustive search for 2*x = 1
    matches = [x for x in range(5) if (2 * x) % 5 == 1]
    assert matches == [3]
    assert two.inverse() == f5.scalar(3)
    assert (f5.one / two).val == 3


def test_f4_z_squared():
    f4 = ff_make(2, 2)
    z = f4.generator()
    # oracle: z*z = z^2, reduced mod z^2+z+1
    assert poly_mod_oracle((0, 0, 1), (1, 1, 1), 2) == (1, 1)
    assert (z * z).coeffs() == (1, 1)
    assert str(z * z) == "z+1"


def test_rational_arithmetic():
    qq = FieldCtx.rationals()
    half, third = qq.scalar(Fraction(1, 2)), qq.scalar(Fraction(1, 3))
    assert (half + third).val == Fraction(5, 6)
    assert str(half + third) == "5/6"


def test_division_by_zero():
    f5 = ff_make(5)
    with pytest.raises(DivisionByZero):
        f5.one / f5.zero
    with pytest.raises(DivisionByZero):
        ff_make(2, 2).zero.inverse()


def test_context_mismatch():
    with pytest.raises(ContextMismatch):
        ff_make(2).one + ff_make(3).one


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (2, 2), (7, 1),
                                 (2, 3), (3, 2), (2, 4), (5, 2)])
def test_field_axioms_exhaustive(p, n):
    """Associativity, distributivity, inverses for every field with p^n <= 25."""
    ctx = ff_make(p, n)
    elems = ctx.enumerate()
    assert len(set(s.val for s in elems)) == p**n
    one = ctx.one
    for a in elems:
        assert a**ctx.cardinality == a  # x^(p^n) = x
        if not a.is_zero():
            assert a * a.inverse() == one
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


# -- frobenius -------------------------------------------------------------------

def test_frobenius_f4():
    f4 = ff_make(2, 2)
    z = f4.generator()
    assert frobenius(z) == z * z == f4.from_coeffs((1, 1))


def test_frobenius_identity_on_prime_field():
    f7 = ff_make(7)
    for a in f7.enumerate():
        assert frobenius(a) == a


def test_frobenius_is_additive_on_f4():
    f4 = ff_make(2, 2)
    for a in f4.enumerate():
        for b in f4.enumerate():
            assert frobenius(a + b) == frobenius(a) + frobenius(b)
            assert frobenius(a * b) == frobenius(a) * frobenius(b)


def test_frobenius_rejects_rationals():
    with pytest.raises(RationalContext):
        frobenius(FieldCtx.rationals().one)


# -- enumeration -------------------------------------------------------------------

def test_enumeration_order_f4():
    f4 = ff_make(2, 2)
    assert [str(s) for s in f4.enumerate()] == ["0", "1", "z", "z+1"]


def test_enumeration_count_f9():
    assert len(ff_make(3, 2).enumerate()) == 9


def test_enumeration_rejects_rationals():
    with pytest.raises(RationalContext):
        FieldCtx.rationals().enumerate()


# -- text round trips -----------------------------------------------------------------

def test_scalar_text_round_trip_finite():
    for ctx in (ff_make(5), ff_make(2, 2), ff_make(3, 2), ff_make(2, 3)):
        for s in ctx.enumerate():
            assert ctx.parse(str(s)) == s


@given(num=st.integers(-2**63, 2**63), den=st.integers(1, 2**63))
def test_rational_round_trip(num, den):
    qq = FieldCtx.rationals()
    a = qq.scalar(Fraction(num, den))
    assert qq.parse(str(a)) == a
    b = qq.scalar(den)
    assert (a / b) * b == a


@given(num=st.integers(-10**6, 10**6), den=st.integers(1, 10**6))
def test_rational_lowest_terms(num, den):
    a = FieldCtx.rationals().scalar(Fraction(num, den))
    assert a.val.denominator > 0
    import math
    assert math.gcd(a.val.numerator, a.val.denominator) == 1


# -- lifting ------------------------------------------------------------------------

def test_lift_prime_into_extension():
    f2, f4 = ff_make(2), ff_make(2, 2)
    assert lift(f2.one, f4) == f4.one
    with pytest.raises(ContextMismatch):
        lift(ff_make(3).one, f4)


def test_the_lift_rule_on_orders_is_the_rule_on_fields():
    """lifts() answers on orders (p, n), before any field is built, as
    check_lift answers on the fields of those orders; a second modulus of
    one order passes on orders and is refused on the fields."""
    fields = [FieldCtx.rationals(), ff_make(2), ff_make(3), ff_make(2, 2),
              ff_make(2, 3), ff_make(2, 4), ff_make(3, 2)]
    for source in fields:
        for target in fields:
            try:
                check_lift(source, target)
                lifted = True
            except ContextMismatch:
                lifted = False
            assert lifts((source.p, source.n), (target.p, target.n)) == lifted
    other = ff_make(2, 3, modulus=(1, 0, 1, 1))
    assert lifts((2, 3), (2, 3))
    with pytest.raises(ContextMismatch):
        check_lift(other, ff_make(2, 3))


# -- the raw-value core against the schoolbook oracle ---------------------------------

# F_4, F_8, F_9, F_25, F_27, F_729, F_4096 run on exp/log tables; F_{2^17}
# is past the table bound and multiplies by shift-and-reduce.
_ORACLE_FIELDS = [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (3, 6), (2, 12), (2, 17)]


def _oracle_mul(a, b, modulus, p):
    prod = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _padded(poly_mod_oracle(prod, modulus, p), len(modulus) - 1)


def _oracle_pow(a, k, modulus, p):
    result, base = _padded((1,), len(a)), a
    while k:
        if k & 1:
            result = _oracle_mul(result, base, modulus, p)
        base = _oracle_mul(base, base, modulus, p)
        k >>= 1
    return result


def _padded(coeffs, n):
    return tuple(coeffs) + (0,) * (n - len(coeffs))


@st.composite
def _field_and_elements(draw):
    p, n = draw(st.sampled_from(_ORACLE_FIELDS))
    ctx = ff_make(p, n)
    coeffs = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    return ctx, ctx.from_coeffs(draw(coeffs)), ctx.from_coeffs(draw(coeffs))


@settings(max_examples=300, deadline=None)
@given(case=_field_and_elements(), k=st.integers(0, 40), iterations=st.integers(0, 3))
def test_arithmetic_matches_schoolbook_oracle(case, k, iterations):
    ctx, a, b = case
    p, n, mod = ctx.p, ctx.n, ctx.modulus
    ca, cb = a.coeffs(), b.coeffs()
    assert len(ca) == n and ctx.from_coeffs(ca) == a
    assert (a + b).coeffs() == tuple((x + y) % p for x, y in zip(ca, cb))
    assert (a - b).coeffs() == tuple((x - y) % p for x, y in zip(ca, cb))
    assert (-a).coeffs() == tuple(-x % p for x in ca)
    assert (a * b).coeffs() == _oracle_mul(ca, cb, mod, p)
    assert (a ** k).coeffs() == _oracle_pow(ca, k, mod, p)
    assert frobenius(a, iterations).coeffs() == _oracle_pow(ca, p**iterations, mod, p)
    if b.is_zero():
        with pytest.raises(DivisionByZero):
            a / b
    else:
        assert _oracle_mul((a / b).coeffs(), cb, mod, p) == ca
        assert (b ** -1).coeffs() == (b.inverse()).coeffs()


def test_fields_are_interned():
    assert ff_make(2, 2) is ff_make(2, 2)
    assert ff_make(2, 2, modulus=(1, 1, 1)) is ff_make(2, 2)
    assert ff_make(5) is FieldCtx.prime(5)


def test_a_field_nobody_holds_is_freed_with_its_tables():
    # interning must not keep every field ever made alive, nor may a field
    # wait for the cycle collector
    field = ff_make(3, 7)
    ref = weakref.ref(field)
    gc.disable()
    try:
        del field
        assert ref() is None
    finally:
        gc.enable()


def test_different_fields_do_not_mix():
    # F_2 is not F_4, though F_2 embeds in it
    with pytest.raises(ContextMismatch):
        ff_make(2).one + ff_make(2, 2).one
    with pytest.raises(ContextMismatch):
        ff_make(2, 2).one * ff_make(2).one
    # F_4 has one irreducible modulus, z^2+z+1; F_8 has two, so its fields
    # under z^3+z+1 and z^3+z^2+1 are the same size but different contexts
    f8a, f8b = ff_make(2, 3, modulus=(1, 1, 0, 1)), ff_make(2, 3, modulus=(1, 0, 1, 1))
    assert f8a is not f8b and f8a.cardinality == f8b.cardinality
    with pytest.raises(ContextMismatch):
        f8a.generator() - f8b.generator()
    assert f8a.generator() != f8b.generator()


def test_epsilon_over_a_field_past_the_table_bound(capsys):
    from nullcone_lab import cli
    code = cli.main(["compute", "epsilon", "--gens", "1,1;0,1", "--field", "2,20",
                     "--point", "1,0", "--dmax", "2"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "epsilon(gens:1,1;0,1) = 2"


def test_prime_factors_stop_at_a_prime_cofactor():
    """Oracle: the primes below 3,000 that divide m, found one by one; and
    2p for a prime p near 10^22 is factored without trial division to sqrt(p)."""
    primes = [d for d in range(2, 3000) if all(d % e for e in range(2, d))]
    for m in range(1, 3000):
        assert _prime_factors(m) == [d for d in primes if m % d == 0]
    p = 10000000000000000000403
    assert _prime_factors(2 * p) == [2, p]
    assert _prime_factors(2**5 * 3 * p) == [2, 3, p]


@pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (31, 1),
                                  (101, 1), (2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (7, 2),
                                  (3, 4), (2, 8)])
def test_least_primitive_is_the_least_element_of_order_q_minus_1(p, n):
    """Oracle: the order of each raw value, counted one multiplication at a time."""
    ctx = ff_make(p, n)
    q = ctx.cardinality

    def order(a):
        k, x = 1, a
        while x != 1:
            x, k = ctx._mul(x, a), k + 1
        return k
    assert least_primitive(q, ctx._mul) == next(a for a in range(1, q) if order(a) == q - 1)
