"""The packed-integer orbit kernel (algebra.orbit_partition) against the tuple
BFS it replaced (conftest.tuple_orbit_partition), and the cached support
functionals against the literal definitions.

Every partition the package computes is compared with the oracle, set for set
and in order: J under rho, J* under rho*, N and G under R_tau and under the
conjugations.  The cases cover prime fields, GF(4), the bundled specs, a
four-block poset, J = 0, and a radical basis listed out of order.
"""
import os

import pytest

from supchar import algebra
from supchar import triangular as tri
from supchar.algebra import (
    AlgebraSpec,
    LinearMap,
    certified_generators,
    element_support,
    form_support,
    h_elements,
    load_algebra_file,
    orbit_census,
    orbit_partition,
    rho_dual_map,
    rho_map,
    sandwich_map,
    validate_algebra,
)
from supchar.errors import PointOutsideSet
from supchar.superclasses import r_map, superclass_partition
from supchar.supercharacters import InductionContext, nn_orbits

from conftest import dual_vectors, g_elements, get_field, get_spec, tuple_orbit_partition

HERE = os.path.dirname(__file__)
DATA = os.path.join(HERE, "..", "src", "supchar", "data")
FILES = {
    "dual_numbers_q3": os.path.join(DATA, "dual_numbers_q3.json"),
    "triangular_2_3": os.path.join(DATA, "triangular_2_3.json"),
    "zigzag_poset_q3": os.path.join(HERE, "zigzag_poset_q3.json"),
    "semisimple_q3": os.path.join(HERE, "semisimple_q3.json"),
}
TRIANGULAR = {"T2-3": (2, 3, 1), "T3-2": (3, 2, 1), "T3-3": (3, 3, 1),
              "T2-GF4": (2, 2, 2), "T3-GF4": (3, 2, 2)}
CASES = [*TRIANGULAR, *FILES, "T3-3-reversed-radical"]


def _reversed_radical(n, p):
    """T(n, p) with the same structure constants and its radical basis listed
    backwards, so radical order and coordinate order differ."""
    s = tri.make_triangular(n, get_field(p))
    entries = [(i, j, [(l, c) for l, c in enumerate(cell) if c])
               for i, row in enumerate(s.mul_table) for j, cell in enumerate(row)]
    return validate_algebra(AlgebraSpec(s.field, s.dim, entries, s.unit, s.blocks,
                                        s.radical_basis[::-1]))


def spec_for(case):
    if case in TRIANGULAR:
        return get_spec(*TRIANGULAR[case])
    if case in FILES:
        return load_algebra_file(FILES[case])
    return _reversed_radical(3, 3)


def _oracle(points, maps):
    return tuple_orbit_partition(points, [m.apply for m in maps])


@pytest.mark.parametrize("case", CASES)
def test_kernel_partitions_equal_the_tuple_bfs(case):
    s = spec_for(case)
    F, rad, unit = s.field, s.radical_basis, s.unit
    gens = certified_generators(s)
    n_gens = [g for g in gens if g.t == unit]
    xs = s.j_vectors()
    lams = dual_vectors(s)
    n_points = [s.add(unit, x) for x in xs]
    g_points = g_elements(s)

    # J under rho and J* under rho*, as the censuses and nn_orbits see them
    for space, points, compile_map in (("J", xs, rho_map), ("J*", lams, rho_dual_map)):
        want = _oracle(points, [compile_map(s, g) for g in gens])
        assert [o.members for o in orbit_census(s, space).orbits] == want, space
    want = _oracle(lams, [rho_dual_map(s, g) for g in n_gens])
    assert [o.members for o in nn_orbits(s)] == want

    # N and G under R_tau: the N-superclasses of n_characters and the superclasses
    maps = [r_map(s, g) for g in n_gens]
    assert orbit_partition(F, [unit], rad, maps) == _oracle(n_points, maps)
    want = _oracle(g_points, [r_map(s, g) for g in gens])
    assert [rec.members for rec in superclass_partition(s)] == want

    # G under the conjugations by the a-parts and t-parts: the conjugacy classes
    parts = {g.a for g in gens} | {g.t for g in gens}
    maps = [sandwich_map(s, s.invert(x), x) for x in sorted(parts - {unit})]
    assert InductionContext(s, 2 ** 17).classes == _oracle(g_points, maps)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)])
def test_lane_sums_are_field_addition(p, k):
    F = get_field(p, k)
    lanes = algebra._Lanes(F, [0, 1])

    def code(a, b):
        return lanes.pack([(0, a), (1, b)])
    for a in F.elements():
        for b in F.elements():
            assert lanes.sums([code(a, b)], [code(b, a)]) == [code(F.add(a, b), F.add(b, a))]
    # codes order like the tuples they code
    pairs = [(a, b) for a in F.elements() for b in F.elements()]
    assert sorted(pairs, key=lambda t: code(*t)) == sorted(pairs)


def test_map_leaving_the_point_set_is_refused():
    # on J of T(2, 3), whose coordinates 0 and 1 are E11 and E22: the shift
    # x -> x + E11 moves the image of 0 off J, and x -> E11 x_12 the image of
    # E12; on G the zero map sends diag(1, 1) to 0, which is not in H
    s = get_spec(2, 3)
    F, rad = s.field, s.radical_basis
    identity = [((i, 1),) for i in range(s.dim)]
    onto_e11 = [() if i not in rad else ((0, 1),) for i in range(s.dim)]
    cases = [([s.zero()], LinearMap(F, identity, s.basis_vec(0)), r"\(0, 0, 0\)"),
             ([s.zero()], LinearMap(F, onto_e11, s.zero()), r"\(0, 0, 1\)"),
             (h_elements(s), LinearMap(F, [()] * s.dim, s.zero()), r"\(1, 1, 0\)")]
    for translates, m, point in cases:
        with pytest.raises(PointOutsideSet, match=f"sends {point} outside"):
            orbit_partition(F, translates, rad, [m])


def _literal_element_support(s, x):
    return frozenset(i for i, blk in enumerate(s.blocks)
                     if s.mul(blk.idempotent, x) != s.zero() or
                     s.mul(x, blk.idempotent) != s.zero())


def _literal_form_support(s, lam):
    out = set()
    for i, blk in enumerate(s.blocks):
        for r in s.radical_basis:
            b = s.basis_vec(r)
            if s.form_eval(lam, s.mul(blk.idempotent, b)) or \
               s.form_eval(lam, s.mul(b, blk.idempotent)):
                out.add(i)
    return frozenset(out)


@pytest.mark.parametrize("case", CASES)
def test_cached_supports_equal_the_definition(case):
    s = spec_for(case)
    assert all(element_support(s, x) == _literal_element_support(s, x) for x in s.j_vectors())
    assert all(form_support(s, lam) == _literal_form_support(s, lam) for lam in dual_vectors(s))


def test_kernel_without_maps_lists_every_point_alone():
    # no maps: each point of G = H + J is an orbit of its own, in sorted order
    s = get_spec(2, 3)
    parts = orbit_partition(s.field, h_elements(s), s.radical_basis, [])
    assert all(len(o) == 1 for o in parts)
    assert [min(o) for o in parts] == sorted(g_elements(s))
