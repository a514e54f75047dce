import os
import sys
from collections import Counter
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from supchar import linalg
from supchar.cyclo import cyclotomic_poly
from supchar.algebra import (AlgebraSpec, box, h_elements, load_algebra, load_algebra_file,
                             validate_algebra)
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

# the acceptance configurations, T(2, 5), and every spec file: the oracles of
# enumerate_labels and predicted_count run on each
LABEL_SPECS = ACCEPTANCE_CONFIGS + [(2, 5, 1), "dual_numbers_q3.json", "triangular_2_3.json",
                                    "semisimple_q3.json", "zigzag_poset_q3.json"]
DATA = os.path.join(os.path.dirname(__file__), "..", "src", "supchar", "data")

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


def group_algebra_spec(p, elements, op) -> dict:
    """The spec JSON of the group algebra F_p[P] of the p-group P with the
    given elements, identity first, and product op.  The basis is b_0 = 1 and
    b_i = g_i - 1 for i > 0: S = F_p is one block, and J, the augmentation
    ideal, is spanned by the b_i (nilpotent as P is a p-group), with
    b_i b_j = (g_i g_j - 1) - b_i - b_j."""
    index, dim = {g: i for i, g in enumerate(elements)}, len(elements)
    unit = [1] + [0] * (dim - 1)
    mul = [[0, j, [[j, 1]]] for j in range(dim)] + [[i, 0, [[i, 1]]] for i in range(1, dim)]
    for i in range(1, dim):
        for j in range(1, dim):
            terms = Counter({index[op(elements[i], elements[j])]: 1})
            terms.subtract({i: 1})
            terms.subtract({j: 1})
            mul.append([i, j, [[l, c % p] for l, c in sorted(terms.items()) if l and c % p]])
    return {"p": p, "dim": dim, "unit": unit, "mul": mul, "radical_basis": list(range(1, dim)),
            "blocks": [{"idempotent": unit, "degree": 1, "basis": [0]}]}


def _dihedral(n):
    """D_2n as pairs (a, s) for r^a s^s, identity first."""
    return ([(a, s) for s in (0, 1) for a in range(n)],
            lambda x, y: ((x[0] + (-1) ** x[1] * y[0]) % n, (x[1] + y[1]) % 2))


def _quaternion(x, y):
    """The Hamilton product of quaternions given as (a, b, c, d) = a + bi + cj + dk."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2, a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2, a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def _abelian(*orders):
    """The product of the cyclic groups of the given orders, identity first."""
    elements = [()]
    for n in orders:
        elements = [g + (a,) for g in elements for a in range(n)]
    return elements, lambda x, y: tuple((a + b) % n for a, b, n in zip(x, y, orders))


# name -> (p, elements of P with the identity first, product of P)
GROUP_ALGEBRAS = {
    "F2[C2xC2]": (2, *_abelian(2, 2)),
    "F2[C4]": (2, *_abelian(4)),
    "F2[D8]": (2, *_dihedral(4)),
    "F2[Q8]": (2, [tuple(sign * int(i == v) for i in range(4)) for sign in (1, -1)
                   for v in range(4)], _quaternion),
    "F3[C3xC3]": (3, *_abelian(3, 3)),
    # |G| = 2^15: left out of tier-1 for its time (about 2 s of verify --checks all)
    "F2[D16]": (2, *_dihedral(8)),
}


def group_algebra(name):
    return load_algebra(group_algebra_spec(*GROUP_ALGEBRAS[name]))


def get_partition(n, p, k=1):
    key = (n, p, k)
    if key not in _partitions:
        _partitions[key] = superclass_partition(get_spec(n, p, k))
    return _partitions[key]


def spec_named(name):
    """T(n, q) for a triple (n, p, k), else a spec file of tests/ or of the
    bundled data."""
    if isinstance(name, tuple):
        return get_spec(*name)
    here = os.path.join(os.path.dirname(__file__), name)
    return load_algebra_file(here if os.path.exists(here) else os.path.join(DATA, name))


def field_span(F, basis, dim):
    """The oracle for algebra._Lanes.span: every vector sum of c_j b_j with
    dim entries, from FieldSpec.mul and FieldSpec.add, in the same order (the
    last coefficient varying fastest)."""
    vecs = [(0,) * dim]
    for b in basis:
        scaled = [tuple(F.mul(c, x) for x in b) for c in range(F.q)]
        vecs = [tuple(F.add(a, x) for a, x in zip(v, s)) for v in vecs for s in scaled]
    return vecs


def reversed_radical(n, p):
    """T(n, p) with the same structure constants and its radical basis listed
    backwards, so radical order and coordinate order differ."""
    s = tri.make_triangular(n, get_field(p))
    entries = [(i, j, list(cell)) for i, row in enumerate(s._sparse) for j, cell in enumerate(row)]
    return validate_algebra(AlgebraSpec(s.field, s.dim, entries, s.unit, s.blocks,
                                        s.radical_basis[::-1]))


def j_vectors(spec):
    """All of J as full vectors, lexicographic in the radical coordinates,
    spanned from the radical basis independently of the package's Box."""
    basis = [spec.basis_vec(i) for i in spec.radical_basis]
    return field_span(spec.field, basis, spec.dim)


def dual_vectors(spec):
    """All of J* in radical coordinates."""
    return [spec.j_coords(x) for x in j_vectors(spec)]


def g_elements(spec):
    """All of G = H + J (every h + x with h in H is invertible)."""
    return [spec.add(h, x) for h in h_elements(spec) for x in j_vectors(spec)]


def points_of(spec, rec, tag=None) -> frozenset:
    """The members of a record, or an array of point numbers, as the set of
    their points, decoded by box(spec, tag): tag defaults to the record's
    space_tag, else "G" (superclasses and conjugacy classes)."""
    tag = tag or getattr(rec, "space_tag", "G")
    return frozenset(map(box(spec, tag).point, getattr(rec, "members", rec)))


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
    return t, a, b


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
