import os
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from supchar import linalg
from supchar.cyclo import cyclotomic_poly
from supchar.algebra import h_elements, make_triple
from supchar.fields import field_make
from supchar import triangular as tri
from supchar.superclasses import superclass_partition

# (n, p, k) for every configuration the oracle-equivalence gate covers
ACCEPTANCE_CONFIGS = [
    (2, 2, 1),
    (2, 3, 1),
    (2, 2, 2),
    (3, 2, 1),
    (3, 3, 1),
    (4, 2, 1),
]

_fields = {}
_specs = {}
_partitions = {}


def get_field(p, k=1):
    key = (p, k)
    if key not in _fields:
        _fields[key] = field_make(p, k)
    return _fields[key]


def get_spec(n, p, k=1):
    key = (n, p, k)
    if key not in _specs:
        _specs[key] = tri.make_triangular(n, get_field(p, k))
    return _specs[key]


def get_partition(n, p, k=1):
    key = (n, p, k)
    if key not in _partitions:
        _partitions[key] = superclass_partition(get_spec(n, p, k))
    return _partitions[key]


def dual_vectors(spec):
    """All of J* in radical coordinates."""
    return [spec.j_coords(x) for x in spec.j_vectors()]


def g_elements(spec):
    """All of G = H + J (every h + x with h in H is invertible)."""
    return [spec.add(h, x) for h in h_elements(spec) for x in spec.j_vectors()]


def closure(start, maps) -> set:
    """BFS closure of start under the maps (callables on tuples), applied
    without inverses."""
    members = {start}
    frontier = [start]
    while frontier:
        new = []
        for v in frontier:
            for f in maps:
                w = f(v)
                if w not in members:
                    members.add(w)
                    new.append(w)
        frontier = new
    return members


def tuple_orbit_partition(points, maps) -> list[frozenset]:
    """The oracle for algebra.orbit_partition: the tuple BFS closures of the
    points under the maps (callables), in order of their least member."""
    seen = set()
    orbits = []
    for v in points:
        if v not in seen:
            members = frozenset(closure(v, maps))
            seen |= members
            orbits.append(members)
    assert len(seen) == len(points), "orbits do not partition the points"
    return sorted(orbits, key=min)


def literal_transporter_count(spec, x, y) -> int:
    """The oracle for superclasses.transporter_count: for every t in H, one
    rref of the affine system u x - y_t v = y_t - x in (u, v) in J x J, with
    y_t = t^-1 y t and every product taken by mul, summed literally over H."""
    F = spec.field
    nu = len(spec.radical_basis)
    basis = [spec.basis_vec(r) for r in spec.radical_basis]
    left = [spec.j_coords(spec.mul(b, x)) for b in basis]
    total = 0
    for t in h_elements(spec):
        yt = spec.mul_many(spec.invert(t), y, t)
        rhs = spec.sub(yt, x)
        if not spec.in_radical(rhs):
            continue
        cols = left + [tuple(F.neg(c) for c in spec.j_coords(spec.mul(yt, b))) for b in basis]
        aug = [list(row) + [c] for row, c in zip(zip(*cols), spec.j_coords(rhs))]
        _, pivots = linalg.rref(F, aug)
        if not pivots or pivots[-1] < 2 * nu:
            total += F.q ** (2 * nu - len(pivots))
    return total


def random_triple(spec, rng):
    """A uniformly random triple (t, a, b) of G~ drawn from rng."""
    t = spec.zero()
    for units in spec.block_units:
        t = spec.add(t, rng.choice(units))
    q = spec.field.q
    a = spec.add(spec.unit, spec.j_embed(tuple(rng.randrange(q) for _ in spec.radical_basis)))
    b = spec.add(spec.unit, spec.j_embed(tuple(rng.randrange(q) for _ in spec.radical_basis)))
    return make_triple(spec, t, a, b)


@pytest.fixture(scope="session")
def acceptance_configs():
    return list(ACCEPTANCE_CONFIGS)


class FractionCyclo:
    """The oracle for cyclo.CycloNumber: an element of Q(zeta_m) kept as one
    Fraction per power zeta_m^t, t < deg Phi_m, reduced mod Phi_m by Fraction
    arithmetic throughout."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        self.order = order
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        assert len(self.coeffs) == len(cyclotomic_poly(order)) - 1

    @staticmethod
    def from_int_poly(m: int, poly, den: int) -> "FractionCyclo":
        """(poly mod Phi_m) / den, each x^d with d >= deg Phi_m replaced by
        x^d - x^(d - deg) Phi_m from the top down."""
        deg = len(cyclotomic_poly(m)) - 1
        coeffs = [Fraction(c, den) for c in poly] + [Fraction(0)] * deg
        for d in range(len(coeffs) - 1, deg - 1, -1):
            c, coeffs[d] = coeffs[d], Fraction(0)
            for t, phi_t in enumerate(cyclotomic_poly(m)):
                coeffs[d - deg + t] -= c * phi_t
        return FractionCyclo(m, coeffs[:deg])

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionCyclo(self.order, [other] + [0] * (len(self.coeffs) - 1))
        return FractionCyclo(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return FractionCyclo(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionCyclo(self.order, [a * other for a in self.coeffs])
        prod = [Fraction(0)] * (2 * len(self.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                prod[i + j] += a * b
        return FractionCyclo.from_int_poly(self.order, prod, 1)

    def __truediv__(self, other):
        return self * (1 / Fraction(other))

    def conj(self) -> "FractionCyclo":
        """zeta -> zeta^(m-1), coefficient by coefficient through zeta^(-i)."""
        m = self.order
        out = FractionCyclo(m, [0] * len(self.coeffs))
        for i, a in enumerate(self.coeffs):
            out = out + FractionCyclo.from_int_poly(m, [0] * (-i % m) + [1], 1) * a
        return out

    def render(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            num = str(c) if c.denominator != 1 else str(c.numerator)
            parts.append(num if i == 0 else f"{num}*z" if i == 1 else f"{num}*z^{i}")
        return " + ".join(parts) if parts else "0"
