"""The packed-integer orbit kernel (algebra.orbit_partition) against the tuple
BFS it replaced (conftest.tuple_orbit_partition), and the cached support
functionals against the literal definitions.

Every partition the package computes is compared with the oracle, set for set
and in order: J under rho, J* under rho*, N and G under R_tau and under the
conjugations.  The cases cover prime fields, GF(4), the bundled specs, a
four-block poset, J = 0, and a radical basis listed out of order.
"""
import os
from array import array
from itertools import product
from math import prod

import pytest

from supchar import algebra
from supchar import triangular as tri
from supchar.algebra import (
    AlgebraSpec,
    Block,
    LinearMap,
    box,
    certified_generators,
    form_support,
    h_elements,
    load_algebra_file,
    orbit_census,
    orbit_partition,
    orbit_support,
    rho_dual_map,
    sandwich_map,
    sandwich_pairs,
    space_orbits,
    support_table,
    validate_algebra,
)
from supchar.errors import PointOutsideSet
from supchar.superclasses import r_map, superclass_partition
from supchar.supercharacters import InductionContext, nn_orbits

from conftest import (LABEL_SPECS, dual_vectors, g_elements, get_field, get_spec, j_vectors,
                      points_of, reversed_radical, spec_named, tuple_orbit_partition)

HERE = os.path.dirname(__file__)
DATA = os.path.join(HERE, "..", "src", "supchar", "data")
FILES = {
    "dual_numbers_q3": os.path.join(DATA, "dual_numbers_q3.json"),
    "triangular_2_3": os.path.join(DATA, "triangular_2_3.json"),
    "zigzag_poset_q3": os.path.join(HERE, "zigzag_poset_q3.json"),
    "semisimple_q3": os.path.join(HERE, "semisimple_q3.json"),
}
TRIANGULAR = {"T2-3": (2, 3, 1), "T3-2": (3, 2, 1), "T3-3": (3, 3, 1),
              "T2-GF4": (2, 2, 2), "T3-GF4": (3, 2, 2), "T2-GF9": (2, 3, 2), "T2-GF8": (2, 2, 3)}
CASES = [*TRIANGULAR, *FILES, "T3-3-reversed-radical", "T3-3-radical-first"]


def _radical_first(n, p):
    """T(n, p) with its basis relabelled so that the radical coordinates come
    before the diagonal ones: point numbers (translate first) then no longer
    order like the points (radical coordinates most significant) on G."""
    s = tri.make_triangular(n, get_field(p))
    new = {i: k for k, i in enumerate([*s.radical_basis, *s.s_basis])}
    entries = [(new[i], new[j], [(new[l], c) for l, c in cell])
               for i, row in enumerate(s._sparse) for j, cell in enumerate(row)]

    def moved(x):
        return tuple(x[i] for i in sorted(new, key=new.get))
    blocks = [Block(moved(b.idempotent), b.degree, tuple(new[i] for i in b.basis))
              for b in s.blocks]
    return validate_algebra(AlgebraSpec(s.field, s.dim, entries, moved(s.unit), blocks,
                                        tuple(new[i] for i in s.radical_basis)))


def spec_for(case):
    if case in TRIANGULAR:
        return get_spec(*TRIANGULAR[case])
    if case in FILES:
        return load_algebra_file(FILES[case])
    return reversed_radical(3, 3) if case == "T3-3-reversed-radical" else _radical_first(3, 3)


def _oracle(points, maps):
    return tuple_orbit_partition(points, [m.apply for m in maps])


def _sets(s, tag, orbits):
    """Kernel orbits (records or arrays of point numbers of box tag) as sets
    of points, each checked to be an array('I') with its least point first."""
    out = []
    for o in orbits:
        members = getattr(o, "members", o)
        assert isinstance(members, array) and members.typecode == "I"
        out.append(points_of(s, members, tag))
        assert box(s, tag).point(members[0]) == min(out[-1])
    return out


@pytest.mark.parametrize("case", CASES)
def test_kernel_partitions_equal_the_tuple_bfs(case):
    s = spec_for(case)
    F, rad, unit = s.field, s.radical_basis, s.unit
    pairs, n_pairs = sandwich_pairs(s), sandwich_pairs(s, torus=False)
    xs = j_vectors(s)
    lams = dual_vectors(s)
    n_points = [s.add(unit, x) for x in xs]
    g_points = g_elements(s)

    # J under rho and J* under rho*, as the censuses and nn_orbits see them
    for space, points, maps in (
            ("J", xs, [sandwich_map(s, u, w, rad) for u, w in pairs]),
            ("J*", lams, [rho_dual_map(s, u, w) for u, w in pairs])):
        want = _oracle(points, maps)
        assert _sets(s, space, orbit_census(s, space).orbits) == want, space
    want = _oracle(lams, [rho_dual_map(s, u, w) for u, w in n_pairs])
    assert _sets(s, "J*", nn_orbits(s)) == want

    # N and G under R_tau: the N-superclasses of n_characters and the superclasses
    maps = [r_map(s, u, w) for u, w in n_pairs]
    assert _sets(s, "N", orbit_partition(box(s, "N"), maps)) == _oracle(n_points, maps)
    want = _oracle(g_points, [r_map(s, u, w) for u, w in pairs])
    assert _sets(s, "G", superclass_partition(s)) == want

    # G under the conjugations by the torus generators and the parts: the
    # conjugacy classes
    torus, parts = certified_generators(s)
    maps = [sandwich_map(s, s.invert(x), x) for x in sorted(torus + parts)]
    ctx = InductionContext(s, superclass_partition(s), 2 ** 17)
    assert _sets(s, "G", ctx.classes) == _oracle(g_points, maps)


@pytest.mark.parametrize("case", ["T3-3", "T2-GF4", "zigzag_poset_q3", "T3-3-radical-first"])
def test_partitions_of_g_build_no_array_longer_than_j(case, monkeypatch):
    """superclass_partition and InductionContext partition G one translate
    h + J at a time: no array the orbit kernel builds, image table or orbit,
    holds more than |J| = q^dim J entries."""
    s = spec_for(case)
    sizes, real = [], algebra.array
    monkeypatch.setattr(algebra, "array", lambda *args: sizes.append(len(a := real(*args))) or a)
    InductionContext(s, superclass_partition(s), 2 ** 17)
    assert len(box(s, "G").translates) > 1     # so |G| > |J|
    assert sizes and max(sizes) <= s.field.q ** len(s.radical_basis)


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
    # E12; on G the zero map sends diag(1, 1) to 0, which is not in H, and
    # right multiplication by a torus generator t moves diag(1, 1) to t, off
    # its translate diag(1, 1) + J
    s = get_spec(2, 3)
    F, rad = s.field, s.radical_basis
    identity = [((i, 1),) for i in range(s.dim)]
    onto_e11 = [() if i not in rad else ((0, 1),) for i in range(s.dim)]
    t = sorted(certified_generators(s)[0])[0]
    cases = [([s.zero()], LinearMap(F, identity, s.basis_vec(0)), r"\(0, 0, 0\)"),
             ([s.zero()], LinearMap(F, onto_e11, s.zero()), r"\(0, 0, 1\)"),
             (h_elements(s), LinearMap(F, [()] * s.dim, s.zero()), r"\(1, 1, 0\)")]
    for translates, m, point in cases:
        with pytest.raises(PointOutsideSet, match=f"sends {point} outside"):
            orbit_partition(algebra.Box(F, translates, rad), [m])
    with pytest.raises(PointOutsideSet, match=r"sends \(1, 1, 0\) outside"):
        orbit_partition(box(s, "G"), [sandwich_map(s, s.unit, t)])


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
    for space, supp, points in (("J", _literal_element_support, j_vectors(s)),
                                ("J*", _literal_form_support, dual_vectors(s))):
        table, number = support_table(s, space), box(s, space).number
        assert len(table) == len(points), space
        assert all(table[number(v)] == supp(s, v) for v in points), space
        assert len(set(map(id, table))) == len(set(table)), space   # equal ones are one object
    assert all(form_support(s, lam) == _literal_form_support(s, lam) for lam in dual_vectors(s))
    # each census orbit's canonical representative is its least member of
    # least support, in whatever order the kernel lists the other members
    for space, supp in (("J", _literal_element_support), ("J*", _literal_form_support)):
        census = orbit_census(s, space)
        for orb, T, rep in zip(census.orbits, census.supports, census.corner_reps):
            assert rep == min(v for v in points_of(s, orb) if supp(s, v) == T), (space, rep)


@pytest.mark.parametrize("name", [(3, 3, 1), (3, 2, 2), "zigzag_poset_q3.json"], ids=str)
def test_orbit_support_decodes_only_its_representative(name, monkeypatch):
    """orbit_support reads support_table by point number: one Box.point call
    per orbit, for the representative it returns, and no LinearMap.apply."""
    if isinstance(name, tuple):     # fresh: no orbit support proved yet
        s = tri.make_triangular(name[0], get_field(*name[1:]))
    else:
        s = spec_named(name)
    for space in ("J", "J*"):
        orbits = space_orbits(s, space)
        calls = []
        for cls, fn in ((algebra.Box, "point"), (LinearMap, "apply")):
            real = getattr(cls, fn)
            monkeypatch.setattr(cls, fn, lambda *a, _f=real, _n=fn: calls.append(_n) or _f(*a))
        for o in orbits:
            orbit_support(s, o)
        monkeypatch.undo()
        assert calls == ["point"] * len(orbits), space


def test_kernel_without_maps_lists_every_point_alone():
    # no maps: each point of G = H + J is an orbit of its own, in sorted order
    s = get_spec(2, 3)
    parts = orbit_partition(box(s, "G"), [])
    assert all(len(o) == 1 for o in parts)
    assert [box(s, "G").point(o[0]) for o in parts] == sorted(g_elements(s))


@pytest.mark.parametrize("name", [*LABEL_SPECS, "T3-3-reversed-radical", "T3-3-radical-first"],
                         ids=str)
def test_box_numbers_points_translate_by_translate(name):
    """point and number are inverse on every box, and number the points
    translate by translate, lexicographically in the free coordinates."""
    s = spec_named(name) if name in LABEL_SPECS else spec_for(name)
    for tag in ("G", "N", "J", "J*"):
        b = box(s, tag)
        values = range(s.field.q)
        want = [v for h in b.translates for v in product(
            *[values if i in b.coords else (x,) for i, x in enumerate(h)])]
        assert [b.point(n) for n in range(b.size)] == want, tag
        assert [b.number(v) for v in want] == list(range(b.size)), tag
    for tag, outside in (("G", s.zero()), ("N", s.zero()),
                         ("J", s.unit), ("J*", (0,) * (len(s.radical_basis) + 1))):
        with pytest.raises(PointOutsideSet, match="not a point"):
            box(s, tag).number(outside)


@pytest.mark.parametrize("name", LABEL_SPECS, ids=str)
def test_certificate_and_torus_conjugations_close_on_the_kernel(name, monkeypatch):
    """The parts close in the kernel's box 1 + J, and the only tuple
    closure that runs is H's, on block discrete logs from the zero vector:
    no AlgebraSpec.mul or LinearMap.apply runs while H is proved."""
    starts = []
    real_closure = algebra.closure
    monkeypatch.setattr(algebra, "closure",
                        lambda start, maps: starts.append(start) or real_closure(start, maps))
    if isinstance(name, tuple):     # fresh: nothing certified yet
        s = tri.make_triangular(name[0], get_field(*name[1:]))
    else:
        s = spec_named(name)
    torus, parts = algebra.tilde_generators(s)
    algebra.certify_generators(s, torus, parts)
    assert len(algebra.torus_conjugations(s)) == sum(o > 1 for o in s.block_orders)
    assert starts and set(starts) == {(0,) * len(s.blocks)}

    def refuse(*args):
        raise AssertionError("an algebra product ran while H was proved")
    monkeypatch.setattr(algebra.AlgebraSpec, "mul", refuse)
    monkeypatch.setattr(LinearMap, "apply", refuse)
    assert algebra._h_order(s, torus) == prod(s.block_orders)
