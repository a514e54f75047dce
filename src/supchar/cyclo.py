"""Exact arithmetic in Q(zeta_m), reduced modulo the m-th cyclotomic polynomial.

Numbers are stored in canonical form: a tuple of Fractions of length
deg Phi_m, so equality is coefficientwise.  Phi_m is obtained by exact
division of x^m - 1 by Phi_d over the proper divisors d of m, which keeps
everything integral and tolerance-free.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

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
def _power_basis(m: int) -> tuple[tuple[Fraction, ...], ...]:
    """zeta_m^j in canonical form for 0 <= j < m."""
    phi = cyclotomic_poly(m)
    deg = len(phi) - 1
    rows = []
    cur = [Fraction(1)] + [Fraction(0)] * (deg - 1)
    for _ in range(m):
        rows.append(tuple(cur))
        nxt = [Fraction(0)] + cur[:-1]
        lead = cur[-1]
        if lead:
            for t in range(deg):
                nxt[t] -= lead * phi[t]
        cur = nxt
    return tuple(rows)


class CycloNumber:
    """An element of Q(zeta_m) in canonical (fully reduced) form."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        deg = len(cyclotomic_poly(order)) - 1
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) != deg:
            raise OrderMismatch(f"expected {deg} coefficients for order {order}, got {len(cs)}")
        self.order = order
        self.coeffs = cs

    @classmethod
    def _make(cls, order: int, coeffs: tuple) -> "CycloNumber":
        """Wrap a tuple that is already all Fractions, as arithmetic results
        are, without converting each coefficient again."""
        deg = len(cyclotomic_poly(order)) - 1
        if len(coeffs) != deg:
            raise OrderMismatch(f"expected {deg} coefficients for order {order}, got {len(coeffs)}")
        out = object.__new__(cls)
        out.order = order
        out.coeffs = coeffs
        return out

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(m: int) -> "CycloNumber":
        deg = len(cyclotomic_poly(m)) - 1
        return CycloNumber._make(m, (Fraction(0),) * deg)

    @staticmethod
    def rational(m: int, value) -> "CycloNumber":
        deg = len(cyclotomic_poly(m)) - 1
        return CycloNumber._make(m, (Fraction(value),) + (Fraction(0),) * (deg - 1))

    @staticmethod
    def root(m: int, j: int) -> "CycloNumber":
        """zeta_m^j."""
        return CycloNumber._make(m, _power_basis(m)[j % m])

    @staticmethod
    def from_int_poly(m: int, poly, den: int) -> "CycloNumber":
        """(poly mod Phi_m) / den, for integer coefficients poly (constant first)."""
        _, rem = _poly_divmod_int(poly, cyclotomic_poly(m))
        rem += [0] * (len(cyclotomic_poly(m)) - 1 - len(rem))
        return CycloNumber._make(m, tuple(Fraction(c, den) for c in rem))

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "CycloNumber"):
        if self.order != other.order:
            raise OrderMismatch(f"orders differ: {self.order} vs {other.order}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNumber.rational(self.order, other)
        self._check(other)
        return CycloNumber._make(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycloNumber._make(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNumber.rational(self.order, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloNumber._make(self.order, tuple(a * other for a in self.coeffs))
        self._check(other)
        deg = len(self.coeffs)
        prod = [Fraction(0)] * (2 * deg - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    prod[i + j] += a * b
        phi = cyclotomic_poly(self.order)
        for d in range(len(prod) - 1, deg - 1, -1):
            c = prod[d]
            if not c:
                continue
            prod[d] = Fraction(0)
            for t in range(deg + 1):
                prod[d - deg + t] -= c * phi[t]
        return CycloNumber._make(self.order, tuple(prod[:deg]))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        raise TypeError("division only by rationals")

    def conj(self) -> "CycloNumber":
        """Complex conjugation, zeta |-> zeta^{m-1}."""
        basis = _power_basis(self.order)
        deg = len(self.coeffs)
        out = [Fraction(0)] * deg
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            row = basis[(-i) % self.order]
            for t in range(deg):
                out[t] += a * row[t]
        return CycloNumber._make(self.order, tuple(out))

    # -- predicates --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNumber.rational(self.order, other)
        if not isinstance(other, CycloNumber):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Text form "a_0 + a_1*z + ..." with zero terms suppressed."""
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            num = str(c) if c.denominator != 1 else str(c.numerator)
            if i == 0:
                parts.append(num)
            elif i == 1:
                parts.append(f"{num}*z")
            else:
                parts.append(f"{num}*z^{i}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"CycloNumber({self.order}, {self.render()!r})"
