"""Exact arithmetic in GF(p^k) via discrete-exponential tables.

A field element is an integer in [0, q) whose base-p digits are the
coefficients of its polynomial representative: digit i is the coefficient
of x^i modulo the field modulus.  For k = 1 this is the ordinary residue.
"""
from __future__ import annotations

import operator
from collections import namedtuple
from itertools import starmap

from .errors import BadOrder, DegreeTooLarge, DivisionByZero, LogOfZero, NotPrime

DEFAULT_SIZE_BOUND = 2 ** 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FieldSpec(namedtuple("FieldSpec", [
        "p", "k", "q",
        "modulus",      # k+1 coefficients, constant first, leading 1
        "generator",
        "exp_table",    # exp_table[j] = generator**j, length q-1
        "log_table",    # log_table[a] = j, -1 for a == 0
        "frob"],        # frob[a] = a**p
        defaults=((),))):
    __slots__ = ()

    # -- element encoding ----------------------------------------------

    def encode(self, digits) -> int:
        a = 0
        for d in reversed(list(digits)):
            a = a * self.p + d % self.p
        return a

    def elements(self):
        return range(self.q)

    def units(self):
        return self.exp_table

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        mult = 1
        while a or b:
            out += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        p = self.p
        out = 0
        mult = 1
        while a:
            out += ((-a) % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        n = self.q - 1
        return self.exp_table[(self.log_table[a] + self.log_table[b]) % n]

    def dot(self, pairs) -> int:
        """The sum of a b over the pairs (a, b): integer products and one
        reduction mod p on a prime field, field operations otherwise."""
        if self.k == 1:
            return sum(starmap(operator.mul, pairs)) % self.p
        out = 0
        for a, b in pairs:
            out = self.add(out, self.mul(a, b))
        return out

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        n = self.q - 1
        return self.exp_table[(-self.log_table[a]) % n]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1 if self.q > 1 else 0
            if e < 0:
                raise DivisionByZero("negative power of zero")
            return 0
        n = self.q - 1
        return self.exp_table[(self.log_table[a] * e) % n]

    def dlog(self, a: int) -> int:
        if a == 0:
            raise LogOfZero("discrete log of zero")
        return self.log_table[a]

    def frobenius(self, a: int) -> int:
        return self.frob[a]

    def trace(self, a: int) -> int:
        """Absolute trace GF(q) -> GF(p), returned as a residue mod p."""
        if self.k == 1:
            return a % self.p
        # sum of the Frobenius orbit; lands in the prime subfield (encoding < p)
        t = 0
        b = a
        for _ in range(self.k):
            t = self.add(t, b)
            b = self.frobenius(b)
        assert t < self.p
        return t


def _poly_mul_mod(p: int, modulus: tuple[int, ...], u: tuple[int, ...], v: tuple[int, ...]):
    """Product of two coefficient vectors reduced modulo a monic modulus over GF(p)."""
    k = len(modulus) - 1
    prod = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        if ui == 0:
            continue
        for j, vj in enumerate(v):
            prod[i + j] = (prod[i + j] + ui * vj) % p
    for d in range(len(prod) - 1, k - 1, -1):
        c = prod[d]
        if c == 0:
            continue
        prod[d] = 0
        for t in range(k + 1):
            prod[d - k + t] = (prod[d - k + t] - c * modulus[t]) % p
    return tuple(prod[:k]) + (0,) * (k - len(prod[:k]))


def _build_tables(p: int, k: int, modulus: tuple[int, ...], gen_digits: tuple[int, ...]):
    """Power up a candidate generator; None unless its order is exactly q-1.

    If the generator runs through q-1 distinct nonzero residues and returns
    to 1, the unit group of GF(p)[x]/(modulus) has q-1 elements, which also
    certifies that the modulus is irreducible.
    """
    q = p ** k

    def enc(digits):
        a = 0
        for d in reversed(digits):
            a = a * p + d
        return a

    one = (1,) + (0,) * (k - 1)
    exp = []
    log = [-1] * q
    cur = one
    for j in range(q - 1):
        a = enc(cur)
        if a == 0 or log[a] != -1:
            return None
        exp.append(a)
        log[a] = j
        cur = _poly_mul_mod(p, modulus, cur, gen_digits)
    if cur != one:
        return None
    return tuple(exp), tuple(log)


def _finish(p, k, modulus, generator, exp, log):
    q = p ** k
    spec = FieldSpec(p, k, q, modulus, generator, exp, log)
    return spec._replace(frob=tuple(spec.pow(a, p) if a else 0 for a in range(q)))


def field_make(p: int, k: int = 1, names=("p", "k")) -> FieldSpec:
    """GF(p^k), smallest primitive modulus, its root the generator; errors name p, k by names."""
    if not _is_prime(p):
        raise NotPrime(f"{names[0]}: {p} is not prime")
    if k < 1:
        raise DegreeTooLarge(f"{names[1]}: extension degree must be >= 1, got {k}")
    q = p ** k
    if q > DEFAULT_SIZE_BOUND:
        raise DegreeTooLarge(f"{names[k > 1]}: field size {q} exceeds bound {DEFAULT_SIZE_BOUND}")

    if k == 1:
        for g in range(1, p):
            tables = _build_tables(p, 1, ((-g) % p, 1), (g,))
            if tables is not None:
                return _finish(p, 1, ((-g) % p, 1), g, *tables)
        raise NotPrime(f"no primitive root mod {p}")  # unreachable for prime p

    x_digits = tuple(1 if i == 1 else 0 for i in range(k))
    for code in range(p ** k):
        low = []
        c = code
        for _ in range(k):
            low.append(c % p)
            c //= p
        modulus = tuple(low) + (1,)
        tables = _build_tables(p, k, modulus, x_digits)
        if tables is not None:
            return _finish(p, k, modulus, p, *tables)  # generator encodes x
    raise DegreeTooLarge(f"no primitive polynomial found for GF({p}^{k})")


def field_make_custom(p: int, k: int, modulus: tuple[int, ...], generator: int) -> FieldSpec:
    """Build GF(p^k) from an explicit modulus and multiplicative generator.

    Exists so tests can assert that character tables do not depend on the
    modulus/generator convention of field_make.
    """
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    modulus = tuple(c % p for c in modulus)
    if len(modulus) != k + 1 or modulus[-1] != 1:
        raise DegreeTooLarge("modulus must be monic of degree k")
    gen_digits = []
    g = generator
    for _ in range(k):
        gen_digits.append(g % p)
        g //= p
    tables = _build_tables(p, k, modulus, tuple(gen_digits))
    if tables is None:
        raise DegreeTooLarge("generator does not have order q-1 for this modulus")
    return _finish(p, k, modulus, generator, *tables)


def additive_char_exponent(spec: FieldSpec, c: int, m: int) -> int:
    """Exponent j with chi(c) = zeta_m^j for the fixed nontrivial additive
    character chi(c) = zeta_p^{Tr(c)}."""
    if m % spec.p != 0:
        raise BadOrder(f"cyclotomic order {m} not divisible by p={spec.p}")
    return (spec.trace(c) * (m // spec.p)) % m
