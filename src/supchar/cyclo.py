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

from fractions import Fraction
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
        deg = len(cyclotomic_poly(order)) - 1
        cs = [Fraction(c) for c in coeffs]
        if len(cs) != deg:
            raise OrderMismatch(f"expected {deg} coefficients for order {order}, got {len(cs)}")
        den = lcm(*(c.denominator for c in cs))
        made = _lowest(order, [c.numerator * (den // c.denominator) for c in cs], den)
        self.order, self.nums, self.den = made.order, made.nums, made.den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.nums)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(m: int) -> "CycloNumber":
        return _lowest(m, (0,) * (len(cyclotomic_poly(m)) - 1), 1)

    @staticmethod
    def rational(m: int, value) -> "CycloNumber":
        if not isinstance(value, int):
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
        if isinstance(other, (int, Fraction)):
            other = CycloNumber.rational(self.order, other)
        self._check(other)
        a, b = self.den, other.den
        return _lowest(self.order, [x * b + y * a for x, y in zip(self.nums, other.nums)], a * b)

    __radd__ = __add__

    def __neg__(self):
        return _lowest(self.order, [-a for a in self.nums], self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNumber.rational(self.order, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _lowest(self.order, [a * other.numerator for a in self.nums],
                           self.den * other.denominator)
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
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
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
        if isinstance(other, (int, Fraction)):
            other = CycloNumber.rational(self.order, other)
        if not isinstance(other, CycloNumber):
            return NotImplemented
        return self.order == other.order and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.order, self.nums, self.den))

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Text form "a_0 + a_1*z + ..." with zero terms suppressed; each
        coefficient in lowest terms, as "a" or "a/b"."""
        parts = []
        for i, a in enumerate(self.nums):
            if a == 0:
                continue
            g = gcd(a, self.den)
            num = str(a // g) if g == self.den else f"{a // g}/{self.den // g}"
            if i == 0:
                parts.append(num)
            elif i == 1:
                parts.append(f"{num}*z")
            else:
                parts.append(f"{num}*z^{i}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"CycloNumber({self.order}, {self.render()!r})"
