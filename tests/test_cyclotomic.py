"""Exact cyclotomic arithmetic."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from pgclass import Cyclotomic, abs_squared, arith, conjugate, equals_rational, is_zero
from pgclass.cyclotomic import root_sum


def zeta(e, k=1):
    return Cyclotomic.root(e, k)


def test_minimal_polynomial_identity():
    assert (zeta(3) + zeta(3, 2)).equals_rational(-1)
    assert is_zero(zeta(3) + zeta(3, 2) + 1)


def test_mul_by_zero():
    x = 3 * zeta(7, 2) + Fraction(1, 2)
    assert (x * Cyclotomic.zero()).is_zero()


def test_unit_circle_products():
    assert (zeta(5) * zeta(5, 4)).equals_rational(1)
    assert abs_squared(zeta(9, 4)).equals_rational(1)
    assert not equals_rational(zeta(5), 1)


def test_conjugation():
    assert conjugate(Cyclotomic.rational(Fraction(5, 3))).equals_rational(Fraction(5, 3))
    assert conjugate(zeta(7)) == zeta(7, 6)
    assert conjugate(1 + zeta(3)) == 1 + zeta(3, 2)
    x = 2 + 3 * zeta(9, 2)
    assert conjugate(conjugate(x)) == x


def test_abs_squared_gaussian():
    # (1 + i)(1 - i) = 2
    x = 1 + zeta(4)
    assert x.abs_squared().equals_rational(2)


def test_abs_squared_zero():
    assert Cyclotomic.zero().abs_squared().is_zero()


def test_cross_order_arithmetic_embeds_in_lcm():
    x = zeta(3) + zeta(4)
    assert x.order == 12
    y = x - zeta(4)
    assert y == zeta(3)


def test_rational_support_is_zero_exponent():
    x = zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)
    assert x.equals_rational(-1)
    assert x.order == 1 and set(x.coeffs) <= {0}


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
@given(cyclos(12), cyclos(12))
def test_abs_squared_multiplicative(x, y):
    assert abs_squared(x * y) == abs_squared(x) * abs_squared(y)
    assert abs_squared(x) == abs_squared(conjugate(x))


@settings(max_examples=40, deadline=None)
@given(cyclos(25))
def test_normalize_idempotent(x):
    again = Cyclotomic(x.order, dict(x.coeffs))
    assert again == x and again.order == x.order


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 26))
def test_roots_have_unit_modulus(k):
    assert abs_squared(zeta(27, k)).equals_rational(1)


def test_arith_dispatch():
    x, y = zeta(3), zeta(3, 2)
    assert arith(x, y, "add").equals_rational(-1)
    assert arith(x, y, "mul").equals_rational(1)
    assert arith(x, x, "sub").is_zero()


def test_cyclotomic_guards_survive_optimize(run_optimized):
    """Under python -O an inexact polynomial division, a rational read of an
    irrational value and a write to a value still raise."""
    code = r"""
from fractions import Fraction
import pgclass as pg
from pgclass.cyclotomic import _polydiv_exact

def write():
    pg.Cyclotomic.root(5).e = 7

checks = {
    "polydiv": (lambda: _polydiv_exact([Fraction(1), Fraction(0), Fraction(1)],
                                       [Fraction(1), Fraction(1)]),
                pg.InternalInconsistencyError),
    "rational_value": (lambda: pg.Cyclotomic.root(5).rational_value(), ValueError),
    "immutable": (write, AttributeError),
}
for name, (check, error) in checks.items():
    try:
        check()
    except error:
        print(name)
"""
    assert run_optimized(code).split() == ["polydiv", "rational_value", "immutable"]
