"""Exact cyclotomic arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgclass import Cyclotomic
from pgclass.cyclotomic import root_sum


def zeta(e, k=1):
    return Cyclotomic.root(e, k)


def test_minimal_polynomial_identity():
    assert (zeta(3) + zeta(3, 2)).equals_rational(-1)
    assert (zeta(3) + zeta(3, 2) + 1).is_zero()


def test_mul_by_zero():
    x = 3 * zeta(7, 2) + Fraction(1, 2)
    assert (x * Cyclotomic.zero()).is_zero()


def test_unit_circle_products():
    assert (zeta(5) * zeta(5, 4)).equals_rational(1)
    assert zeta(9, 4).abs_squared().equals_rational(1)
    assert not zeta(5).equals_rational(1)


def test_conjugation():
    assert Cyclotomic.rational(Fraction(5, 3)).conjugate().equals_rational(Fraction(5, 3))
    assert zeta(7).conjugate() == zeta(7, 6)
    assert (1 + zeta(3)).conjugate() == 1 + zeta(3, 2)
    x = 2 + 3 * zeta(9, 2)
    assert x.conjugate().conjugate() == x


def test_abs_squared_gaussian():
    # (1 + i)(1 - i) = 2
    x = 1 + zeta(4)
    assert x.abs_squared().equals_rational(2)


def test_abs_squared_zero():
    assert Cyclotomic.zero().abs_squared().is_zero()


def test_cross_order_arithmetic_embeds_in_lcm():
    # orders of one prime embed in the larger one; two primes do not mix
    x = zeta(3) + zeta(9)
    assert x.order == 9
    y = x - zeta(9)
    assert y == zeta(3) and y.order == 3
    with pytest.raises(ValueError, match="order 12 is not a prime power"):
        zeta(3) + zeta(4)


def test_rational_support_is_zero_exponent():
    x = zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)
    assert x.equals_rational(-1)
    assert x.order == 1 and set(x.coeffs) <= {0}
    # equal to -1, so of its hash
    assert hash(x) == hash(-1) and -1 in {x}
    assert Fraction(1, 2) in {Cyclotomic.rational(Fraction(1, 2))}


def test_descent_to_smaller_prime_power_field():
    # zeta_9^3 is a primitive cube root, stored in Q(zeta_3)
    x = zeta(9, 3)
    assert x == zeta(3)
    assert x.order == 3


def test_display_format():
    x = 2 * zeta(7, 5) + 3 * zeta(7, 2) + 1
    assert str(x) == "1+3*E(7)^2+2*E(7)^5"
    assert str(Cyclotomic.zero()) == "0"
    assert str(zeta(7)) == "E(7)"
    assert str(-zeta(7)) == "-E(7)"


def test_root_sum_matches_manual():
    assert root_sum(3, [1, 1, 1]).is_zero()
    assert root_sum(3, [2, 1, 1]).equals_rational(1)
    assert root_sum(5, [0, 3, 0, 0, 0]) == 3 * zeta(5)


small = st.integers(-4, 4)


def cyclos(order):
    return st.builds(
        lambda cs: Cyclotomic(order, {k: Fraction(c) for k, c in enumerate(cs)}),
        st.lists(small, min_size=0, max_size=order),
    )


@settings(max_examples=50, deadline=None)
@given(cyclos(9), cyclos(9), cyclos(9))
def test_ring_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x
    assert x * y == y * x


@settings(max_examples=50, deadline=None)
@given(cyclos(8), cyclos(8))
def test_abs_squared_multiplicative(x, y):
    assert (x * y).abs_squared() == x.abs_squared() * y.abs_squared()
    assert x.abs_squared() == x.conjugate().abs_squared()


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([(3, 2), (3, 3), (5, 2), (2, 3), (7, 2)]),
       st.lists(small, min_size=1, max_size=49))
def test_equal_values_across_a_tower_hash_equal(pa, cs):
    """A value written at order p^a on multiples of p only is the same
    value at order p^(a-1): equal, of one hash, one element of a set."""
    p, a = pa
    lo = Cyclotomic(p ** (a - 1), {k: Fraction(c) for k, c in enumerate(cs)})
    hi = Cyclotomic(p ** a, {p * k: Fraction(c) for k, c in enumerate(cs)})
    assert hi == lo and hash(hi) == hash(lo)
    assert len({hi, lo}) == 1


@settings(max_examples=40, deadline=None)
@given(cyclos(25))
def test_normalize_idempotent(x):
    again = Cyclotomic(x.order, dict(x.coeffs))
    assert again == x and again.order == x.order


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 26))
def test_roots_have_unit_modulus(k):
    assert zeta(27, k).abs_squared().equals_rational(1)


def test_cyclotomic_guards_survive_optimize(run_optimized):
    """Under python -O an order that is not a prime power, a rational read
    of an irrational value and a write to a value still raise."""
    code = r"""
import pgclass as pg

def write():
    pg.Cyclotomic.root(5).e = 7

checks = {
    "composite_order": (lambda: pg.Cyclotomic.root(12), ValueError),
    "rational_value": (lambda: pg.Cyclotomic.root(5).rational_value(), ValueError),
    "immutable": (write, AttributeError),
}
for name, (check, error) in checks.items():
    try:
        check()
    except error:
        print(name)
"""
    assert run_optimized(code).split() == ["composite_order", "rational_value", "immutable"]
