"""Exact arithmetic in cyclotomic fields Q(zeta_e), for e = 1 or a prime power.

Values are sparse maps exponent -> Fraction over the canonical basis
1, zeta, ..., zeta^(phi(e)-1), i.e. remainders modulo the e-th cyclotomic
polynomial.  The order of a p-group is a power of p, so every character
value lies in Q(zeta_e) for a power e of p, and the reduction is a
sparse substitution.  An order that is not 1 or a prime power raises
ValueError.  No floating point anywhere: equality, zero tests and |x|^2
are exact decisions.

Values of different orders of one prime combine by embedding into the
larger order, and a normalized value is re-expressed in the smallest
prime-power subfield containing it, so equal values have one stored form
and compare (and hash) equal.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt


@lru_cache(maxsize=None)
def _prime_power_split(e: int) -> tuple[int, int]:
    """(r, a) with e = r^a and r prime, for a prime power e > 1."""
    if e > 1:
        r = next((f for f in range(2, isqrt(e) + 1) if e % f == 0), e)
        m, a = e, 0
        while m % r == 0:
            m //= r
            a += 1
        if m == 1:
            return r, a
    raise ValueError(f"order {e} is not a prime power")


def phi(e: int) -> int:
    """Euler totient of a prime power e = r^a: e - e/r."""
    r, _ = _prime_power_split(e)
    return e - e // r


def _reduce(e: int, coeffs: dict[int, Fraction]) -> dict[int, Fraction]:
    """Canonical form: exponents in [0, phi(e)), zero coefficients dropped."""
    work: dict[int, Fraction] = {}
    for k, c in coeffs.items():
        if c:
            k %= e
            work[k] = work.get(k, Fraction(0)) + c
    if e == 1:
        out = {0: sum(work.values(), start=Fraction(0))}
        return out if out[0] else {}
    # zeta^phi(e)+t = -(zeta^t + zeta^(m+t) + ... + zeta^((r-2)m+t)), m = e/r
    r, _ = _prime_power_split(e)
    m = e // r
    deg = e - m
    changed = True
    while changed:
        changed = False
        for k in [k for k in work if k >= deg]:
            c = work.pop(k)
            if not c:
                continue
            t = k - deg
            for s in range(r - 1):
                kk = s * m + t
                work[kk] = work.get(kk, Fraction(0)) - c
            changed = True
    return {k: c for k, c in work.items() if c}


class Cyclotomic:
    """An exact element of Q(zeta_order), immutable."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: dict[int, Fraction] | None = None, *,
                 _canonical: bool = False):
        if order < 1:
            raise ValueError("order must be positive")
        raw = coeffs or {}
        if not _canonical:
            raw = _reduce(order, {int(k): Fraction(c) for k, c in raw.items()})
            order, raw = _descend(order, raw)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", raw)

    def __setattr__(self, *a):
        raise AttributeError("Cyclotomic values are immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "Cyclotomic":
        return Cyclotomic(1, {}, _canonical=True)

    @staticmethod
    def rational(q) -> "Cyclotomic":
        q = Fraction(q)
        return Cyclotomic(1, {0: q} if q else {}, _canonical=True)

    @staticmethod
    def root(order: int, k: int = 1) -> "Cyclotomic":
        """zeta_order^k."""
        return Cyclotomic(order, {k % order: Fraction(1)})

    # -- ring operations ----------------------------------------------------

    def _promote(self, other: "Cyclotomic") -> tuple[int, dict, dict]:
        e = self.order * other.order // gcd(self.order, other.order)
        a = {k * (e // self.order): c for k, c in self.coeffs.items()}
        b = {k * (e // other.order): c for k, c in other.coeffs.items()}
        return e, a, b

    def __add__(self, other) -> "Cyclotomic":
        other = _coerce(other)
        e, a, b = self._promote(other)
        for k, c in b.items():
            a[k] = a.get(k, Fraction(0)) + c
        return Cyclotomic(e, a)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.order, {k: -c for k, c in self.coeffs.items()},
                          _canonical=True)

    def __sub__(self, other) -> "Cyclotomic":
        return self.__add__(-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __mul__(self, other) -> "Cyclotomic":
        other = _coerce(other)
        e, a, b = self._promote(other)
        out: dict[int, Fraction] = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = (k1 + k2) % e
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return Cyclotomic(e, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def conjugate(self) -> "Cyclotomic":
        """Image under zeta -> zeta^-1 (complex conjugation)."""
        e = self.order
        return Cyclotomic(e, {(-k) % e: c for k, c in self.coeffs.items()})

    def abs_squared(self) -> "Cyclotomic":
        """x * conj(x); fixed by conjugation, rational for character tests."""
        return self * self.conjugate()

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        return not self.coeffs or set(self.coeffs) == {0}

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs.get(0, Fraction(0))

    def equals_rational(self, q) -> bool:
        return self.is_rational() and self.rational_value() == Fraction(q)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.equals_rational(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        # _descend leaves every value at the least order of its prime's
        # tower that holds it, so equal values share (order, coeffs)
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        # equal values share (order, coeffs), as __eq__ says, and a rational
        # value hashes as the number it equals.  Table code keys values by
        # their strings instead (see classify.check_lift_equivalence):
        # __str__ is injective on the canonical form, and strings cost no
        # object per table entry
        if self.is_rational():
            return hash(self.rational_value())
        return hash((self.order, frozenset(self.coeffs.items())))

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            if k == 0:
                parts.append(str(c))
            else:
                mono = f"E({self.order})" if k == 1 else f"E({self.order})^{k}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        out = parts[0]
        for term in parts[1:]:
            out += term if term.startswith("-") else "+" + term
        return out

    def __repr__(self):
        return f"Cyclotomic({self})"


def _coerce(x) -> Cyclotomic:
    if isinstance(x, Cyclotomic):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclotomic.rational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Cyclotomic")


def _descend(e: int, coeffs: dict[int, Fraction]) -> tuple[int, dict[int, Fraction]]:
    """Rewrite in the smallest subfield Q(zeta_(e/r^j)) that holds the value."""
    if not coeffs:
        return 1, {}
    if set(coeffs) == {0}:
        return 1, dict(coeffs)
    r, _ = _prime_power_split(e)
    # canonical basis exponents of Q(zeta_{e/r}) inside Q(zeta_e) are
    # exactly the multiples of r, so containment is a support test
    while all(k % r == 0 for k in coeffs):
        e //= r
        coeffs = _reduce(e, {k // r: c for k, c in coeffs.items()})
        if not coeffs or set(coeffs) == {0}:
            return 1, coeffs
    return e, coeffs


def root_sum(order: int, multiplicities) -> Cyclotomic:
    """Sum m_u * zeta_order^u for a multiplicity vector indexed by u."""
    return Cyclotomic(order, {u: Fraction(int(m)) for u, m in enumerate(multiplicities) if m})
