"""Exact arithmetic in Q(zeta_m), reduced modulo the m-th cyclotomic polynomial.

Numbers are stored in canonical form: integer numerators, one per power
zeta_m^t with t < deg Phi_m, over one positive denominator, in lowest terms
(gcd(den, *nums) = 1), so equality is componentwise and every operation
runs on Python ints.  Phi_m is obtained by exact division of x^m - 1 by
Phi_d over the proper divisors d of m, which keeps everything integral and
tolerance-free; it is monic, so reducing an integer polynomial by it stays
integral.
"""
from __future__ import annotations

import sys
from functools import lru_cache
from math import gcd, lcm

from .errors import OrderMismatch


def _poly_divmod_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Long division of integer polynomials with monic divisor (constant-first)."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * max(len(num) - dd, 1)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        quot[i - dd] = c
        for j, dj in enumerate(den):
            num[i - dd + j] -= c * dj
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, constant term first."""
    if m == 1:
        return (-1, 1)
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            quot, rem = _poly_divmod_int(poly, list(cyclotomic_poly(d)))
            assert rem == [0], f"Phi_{d} does not divide x^{m}-1 exactly"
            poly = quot
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_basis(m: int) -> tuple[tuple[int, ...], ...]:
    """The integer numerators of zeta_m^j for 0 <= j < m."""
    phi = cyclotomic_poly(m)
    deg = len(phi) - 1
    rows = []
    cur = [1] + [0] * (deg - 1)
    for _ in range(m):
        rows.append(tuple(cur))
        lead = cur[-1]
        cur = [0] + cur[:-1]
        if lead:
            for t in range(deg):
                cur[t] -= lead * phi[t]
    return tuple(rows)


def ratio(a: int, b: int) -> tuple[int, int]:
    """(numerator, denominator) of a / b in lowest terms with a positive
    denominator, as Fraction(a, b) has them (ZeroDivisionError for b = 0)."""
    if b == 0:
        raise ZeroDivisionError(f"ratio {a}/0")
    g = gcd(a, b) if b > 0 else -gcd(a, b)
    return a // g, b // g


def ratio_text(a: int, b: int) -> str:
    """str(Fraction(a, b)): "n" or "n/d" in lowest terms."""
    n, d = ratio(a, b)
    return str(n) if d == 1 else f"{n}/{d}"


def _rational_operand(x):
    """(numerator, denominator) of an int or Fraction operand, else None.  A
    Fraction can exist only once fractions is loaded, so it is not imported."""
    if isinstance(x, int):
        return x, 1
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(x, fractions.Fraction):
        return x.numerator, x.denominator
    return None


def _lowest(order: int, nums, den: int) -> "CycloNumber":
    """sum of nums[t] zeta^t / den in lowest terms with den > 0
    (ZeroDivisionError for den = 0, as Fraction)."""
    if den <= 0:
        if den == 0:
            raise ZeroDivisionError(f"CycloNumber({order}) with denominator 0")
        nums, den = [-a for a in nums], -den
    g = gcd(den, *nums)
    out = object.__new__(CycloNumber)
    out.order, out.den = order, den // g
    out.nums = tuple(nums) if g == 1 else tuple(a // g for a in nums)
    return out


class CycloNumber:
    """An element of Q(zeta_m) in canonical (fully reduced) form: the value
    is sum of nums[t] zeta_m^t / den."""

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coeffs):
        from fractions import Fraction
        deg = len(cyclotomic_poly(order)) - 1
        cs = [Fraction(c) for c in coeffs]
        if len(cs) != deg:
            raise OrderMismatch(f"expected {deg} coefficients for order {order}, got {len(cs)}")
        den = lcm(*(c.denominator for c in cs))
        made = _lowest(order, [c.numerator * (den // c.denominator) for c in cs], den)
        self.order, self.nums, self.den = made.order, made.nums, made.den

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions."""
        from fractions import Fraction
        return tuple(Fraction(a, self.den) for a in self.nums)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(m: int) -> "CycloNumber":
        return _lowest(m, (0,) * (len(cyclotomic_poly(m)) - 1), 1)

    @staticmethod
    def rational(m: int, value) -> "CycloNumber":
        if not isinstance(value, int):
            from fractions import Fraction
            value = Fraction(value)
        deg = len(cyclotomic_poly(m)) - 1
        return _lowest(m, (value.numerator,) + (0,) * (deg - 1), value.denominator)

    @staticmethod
    def root(m: int, j: int) -> "CycloNumber":
        """zeta_m^j."""
        return _lowest(m, _power_basis(m)[j % m], 1)

    @staticmethod
    def from_int_poly(m: int, poly, den: int) -> "CycloNumber":
        """(poly mod Phi_m) / den, for integer coefficients poly (constant first)."""
        _, rem = _poly_divmod_int(poly, cyclotomic_poly(m))
        return _lowest(m, rem + [0] * (len(cyclotomic_poly(m)) - 1 - len(rem)), den)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "CycloNumber"):
        if self.order != other.order:
            raise OrderMismatch(f"orders differ: {self.order} vs {other.order}")

    def __add__(self, other):
        if (r := _rational_operand(other)) is not None:
            nums = [a * r[1] for a in self.nums]
            nums[0] += r[0] * self.den
            return _lowest(self.order, nums, self.den * r[1])
        self._check(other)
        a, b = self.den, other.den
        return _lowest(self.order, [x * b + y * a for x, y in zip(self.nums, other.nums)], a * b)

    __radd__ = __add__

    def __neg__(self):
        return _lowest(self.order, [-a for a in self.nums], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if (r := _rational_operand(other)) is not None:
            return _lowest(self.order, [a * r[0] for a in self.nums], self.den * r[1])
        self._check(other)
        prod = [0] * (2 * len(self.nums) - 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, b in enumerate(other.nums):
                    if b:
                        prod[i + j] += a * b
        return CycloNumber.from_int_poly(self.order, prod, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if (r := _rational_operand(other)) is not None:
            return _lowest(self.order, [a * r[1] for a in self.nums], self.den * r[0])
        raise TypeError("division only by rationals")

    def conj(self) -> "CycloNumber":
        """Complex conjugation, zeta |-> zeta^{m-1}."""
        basis = _power_basis(self.order)
        out = [0] * len(self.nums)
        for i, a in enumerate(self.nums):
            if a:
                for t, b in enumerate(basis[-i % self.order]):
                    if b:
                        out[t] += a * b
        return _lowest(self.order, out, self.den)

    # -- predicates --------------------------------------------------------

    def __eq__(self, other):
        if (r := _rational_operand(other)) is not None:
            return self.is_rational() and (self.nums[0], self.den) == r
        if not isinstance(other, CycloNumber):
            return NotImplemented
        return self.order == other.order and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        if not self.is_rational():
            return hash((self.order, self.nums, self.den))
        # as hash(Fraction(n, d)), so that equal ints and Fractions hash alike
        n, d = self.nums[0], self.den
        modulus = sys.hash_info.modulus
        h = hash(hash(abs(n)) * pow(d, -1, modulus)) if d % modulus else sys.hash_info.inf
        h = h if n >= 0 else -h
        return -2 if h == -1 else h

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self):
        """The value as a Fraction (ValueError unless rational)."""
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        from fractions import Fraction
        return Fraction(self.nums[0], self.den)

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Text form "a_0 + a_1*z + ..." with zero terms suppressed; each
        coefficient in lowest terms, as "a" or "a/b"."""
        parts = []
        for i, a in enumerate(self.nums):
            if a == 0:
                continue
            num = ratio_text(a, self.den)
            if i == 0:
                parts.append(num)
            elif i == 1:
                parts.append(f"{num}*z")
            else:
                parts.append(f"{num}*z^{i}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"CycloNumber({self.order}, {self.render()!r})"
