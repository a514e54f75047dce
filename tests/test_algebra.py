import copy
from array import array
import json
import os
import random

import pytest

from supchar import algebra
from supchar.algebra import (
    AlgebraSpec,
    Block,
    block_component,
    box,
    certified_generators,
    certify_generators,
    form_support,
    group_order,
    h_elements,
    is_singular,
    load_algebra,
    load_algebra_file,
    orbit,
    orbit_census,
    orbit_support,
    rho,
    rho_dual,
    sandwich_pairs,
    space_orbits,
    support_table,
    tilde_generators,
    validate_algebra,
)
from supchar.errors import (
    AlgebraValidationError,
    BadIdempotents,
    BadUnit,
    NotAssociative,
    NotDirectSum,
    NotGenerating,
    NotInH,
    NotInRadical,
    NotInvertible,
    RadicalNotNilpotent,
    SNotCommutative,
    SpaceTooLarge,
)
from supchar import triangular as tri
from supchar.superclasses import classify, superclass_partition, transporter_count
from supchar.supercharacters import InductionContext, n_characters, nn_orbits, stabilizer_data

from conftest import (dual_vectors, g_elements, get_field, get_spec, group_algebra, j_vectors,
                      points_of, random_triple)

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "supchar", "data")


def element_support(s, x):
    """The support of x in J, read off the package's table."""
    return support_table(s, "J")[box(s, "J").number(x)]


def root_index(n, i, j):
    roots = tri.positive_roots(n)
    return n + roots.index((i, j))


def basis_vec(spec, i):
    return spec.basis_vec(i)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_triangular_dimensions():
    s2 = get_spec(2, 2)
    assert s2.dim == 3 and s2.nilpotency_class == 2
    s4 = get_spec(4, 2)
    assert s4.dim == 10 and s4.nilpotency_class == 4


def test_matrix_unit_products():
    s = get_spec(3, 2)
    e12 = basis_vec(s, root_index(3, 1, 2))
    e23 = basis_vec(s, root_index(3, 2, 3))
    e13 = basis_vec(s, root_index(3, 1, 3))
    assert s.mul(e12, e23) == e13
    assert s.mul(e12, e12) == s.zero()
    assert s.mul(s.unit, e12) == e12


def dual_numbers_raw(q=3):
    F = get_field(q)
    entries = [(0, 0, [(0, 1)]), (0, 1, [(1, 1)]), (1, 0, [(1, 1)])]
    return AlgebraSpec(F, 2, entries, [1, 0],
                       [Block((1, 0), 1, (0,))], (1,))


def test_validate_dual_numbers():
    spec = validate_algebra(dual_numbers_raw())
    assert spec.nilpotency_class == 2
    assert group_order(spec) == 6


def test_not_associative():
    F = get_field(2)
    # u*u = 1 breaks associativity against the unit row? make a genuinely
    # non-associative product: u*u = u with u*1 = u forces (uu)u=u=u(uu), so
    # instead set b1*b1 = 1 and b1 in radical: (b1 b1) b1 = b1, fine too.
    # Use a 3-dim algebra where (b2 b2) b2 != b2 (b2 b2).
    entries = [(0, 0, [(0, 1)]), (0, 1, [(1, 1)]), (1, 0, [(1, 1)]),
               (0, 2, [(2, 1)]), (2, 0, [(2, 1)]),
               (1, 1, [(2, 1)]), (1, 2, []), (2, 1, [(1, 1)]), (2, 2, [])]
    raw = AlgebraSpec(F, 3, entries, [1, 0, 0], [Block((1, 0, 0), 1, (0,))], (1, 2))
    with pytest.raises(NotAssociative):
        validate_algebra(raw)


def test_bad_unit():
    F = get_field(3)
    entries = [(0, 0, [(0, 1)]), (0, 1, [(1, 1)]), (1, 0, [(1, 1)])]
    raw = AlgebraSpec(F, 2, entries, [1, 1], [Block((1, 0), 1, (0,))], (1,))
    with pytest.raises(BadUnit):
        validate_algebra(raw)


def test_radical_not_nilpotent():
    F = get_field(3)
    # u * u = u: an idempotent hiding in the radical
    entries = [(0, 0, [(0, 1)]), (0, 1, [(1, 1)]), (1, 0, [(1, 1)]),
               (1, 1, [(1, 1)])]
    raw = AlgebraSpec(F, 2, entries, [1, 0], [Block((1, 0), 1, (0,))], (1,))
    with pytest.raises(RadicalNotNilpotent):
        validate_algebra(raw)


def test_s_not_commutative():
    F = get_field(2)
    # full 2x2 matrix algebra passed off as a single "block"
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    entries = []
    for (a, b), i in idx.items():
        for (c, d), j in idx.items():
            entries.append((i, j, [(idx[(a, d)], 1)] if b == c else []))
    raw = AlgebraSpec(F, 4, entries, [1, 0, 0, 1],
                      [Block((1, 0, 0, 1), 2, (0, 1, 2, 3))], ())
    with pytest.raises(SNotCommutative):
        validate_algebra(raw)


def test_not_direct_sum():
    F = get_field(2)
    entries = [(0, 0, [(0, 1)]), (0, 1, [(1, 1)]), (1, 0, [(1, 1)])]
    raw = AlgebraSpec(F, 2, entries, [1, 0], [Block((1, 0), 1, (0,))], (0, 1))
    with pytest.raises(NotDirectSum):
        validate_algebra(raw)


def test_block_span_must_be_a_field():
    F = get_field(3)
    # GF(3) x GF(3) declared as a single block: (1,0) has no inverse
    entries = [(0, 0, [(0, 1)]), (1, 1, [(1, 1)])]
    raw = AlgebraSpec(F, 2, entries, [1, 1], [Block((1, 1), 2, (0, 1))], ())
    with pytest.raises(BadIdempotents, match="not a field"):
        validate_algebra(raw)


def test_block_span_with_a_nilpotent_must_be_refused():
    # F_2[x]/(x^2) declared as one degree-2 block: the powers 1, x, 0 of x
    # number the three nonzero elements' count but never return to 1
    F = get_field(2)
    entries = [(0, 0, [(0, 1)]), (0, 1, [(1, 1)]), (1, 0, [(1, 1)])]
    raw = AlgebraSpec(F, 2, entries, [1, 0], [Block((1, 0), 2, (0, 1))], ())
    with pytest.raises(BadIdempotents, match=r"blocks\[0\]: span is not a field"):
        algebra._build_block_data(raw)
    with pytest.raises(BadIdempotents, match=r"blocks\[0\]: span is not a field"):
        validate_algebra(raw)


def test_gf4_block_torus():
    """A block that is a genuine quadratic extension: A = GF(4) (+) 0."""
    F = get_field(2, 2)
    spec = get_spec(2, 2, 2)
    assert spec.block_orders == (3, 3)
    assert group_order(spec) == 36
    assert spec.cyclo_order == 6


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def test_invert_examples():
    s = get_spec(2, 3)
    e12 = basis_vec(s, 2)
    one_plus = s.add(s.unit, e12)
    assert s.invert(one_plus) == s.sub(s.unit, e12)
    diag21 = (2, 1, 0)
    assert s.invert(diag21) == diag21
    assert s.invert(s.unit) == s.unit
    with pytest.raises(NotInvertible):
        s.invert(s.zero())
    with pytest.raises(NotInvertible):
        s.invert(e12)


def test_invert_whole_group():
    s = get_spec(2, 3)
    for g in g_elements(s):
        ginv = s.invert(g)
        assert s.mul(g, ginv) == s.unit
        assert s.mul(ginv, g) == s.unit


# ---------------------------------------------------------------------------
# the actions rho and rho_dual
# ---------------------------------------------------------------------------

def test_rho_identity_triple():
    s = get_spec(3, 2)
    tau = (s.unit, s.unit, s.unit)
    for x in j_vectors(s):
        assert rho(s, tau, x) == x
    for lam in dual_vectors(s):
        assert rho_dual(s, tau, lam) == lam


def test_rho_torus_scaling():
    s = get_spec(2, 3)
    t = (2, 1, 0)
    tau = (t, s.unit, s.unit)
    e12 = basis_vec(s, 2)
    # t1 * t2^{-1} = 2 * 1 = 2
    assert rho(s, tau, e12) == s.smul(2, e12)


def test_rho_unipotent():
    s = get_spec(3, 2)
    e12 = basis_vec(s, root_index(3, 1, 2))
    e23 = basis_vec(s, root_index(3, 2, 3))
    e13 = basis_vec(s, root_index(3, 1, 3))
    tau = (s.unit, s.add(s.unit, e12), s.unit)
    assert rho(s, tau, e23) == s.add(e23, e13)


def test_rho_rejects_s_component():
    s = get_spec(2, 2)
    tau = (s.unit, s.unit, s.unit)
    with pytest.raises(NotInRadical):
        rho(s, tau, s.unit)


def _triple_product(s, t1, t2):
    # (t1 t2, t2^{-1} a1 t2 a2, t2^{-1} b1 b2 ... ) per the group law
    (u1, a1, b1), (u2, a2, b2) = t1, t2
    u2_inv = s.invert(u2)
    return (s.mul(u1, u2), s.mul_many(u2_inv, a1, u2, a2), s.mul_many(u2_inv, b1, u2, b2))


@pytest.mark.parametrize("n,p,k", [(2, 3, 1), (3, 2, 1), (2, 2, 2)])
def test_rho_is_a_group_action(n, p, k):
    s = get_spec(n, p, k)
    rng = random.Random(5)
    xs = j_vectors(s)
    lams = dual_vectors(s)
    for _ in range(1000):
        t1 = random_triple(s, rng)
        t2 = random_triple(s, rng)
        prod = _triple_product(s, t1, t2)
        x = rng.choice(xs)
        assert rho(s, prod, x) == rho(s, t1, rho(s, t2, x))
        lam = rng.choice(lams)
        assert rho_dual(s, prod, lam) == rho_dual(s, t1, rho_dual(s, t2, lam))


def test_rho_dual_pairing():
    """<rho*(tau) lam, rho(tau) x> = <lam, x> for all tau sampled."""
    s = get_spec(3, 2)
    rng = random.Random(9)
    for _ in range(200):
        tau = random_triple(s, rng)
        for x in j_vectors(s):
            lam = tuple(rng.randrange(2) for _ in s.radical_basis)
            lhs = s.form_eval(rho_dual(s, tau, lam), s.j_embed(s.j_coords(rho(s, tau, x))))
            assert lhs == s.form_eval(lam, x)


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

def test_orbit_of_zero():
    s = get_spec(2, 2)
    assert points_of(s, orbit(s, s.zero(), "J")) == {s.zero()}


def test_orbit_examples():
    s22 = get_spec(2, 2)
    e12 = basis_vec(s22, 2)
    assert points_of(s22, orbit(s22, e12, "J")) == {e12}
    s23 = get_spec(2, 3)
    e12 = basis_vec(s23, 2)
    got = points_of(s23, orbit(s23, e12, "J"))
    assert got == {e12, s23.smul(2, e12)}


def test_orbit_representative_is_minimal():
    s = get_spec(3, 3)
    census = orbit_census(s, "J")
    for orb in census.orbits:
        assert orb.representative == min(points_of(s, orb))


def test_orbits_come_in_representative_order_for_any_radical_basis_order():
    # listing the radical basis backwards makes J enumerate out of vector
    # order, so the orbits and superclasses must still be sorted afterwards
    s = get_spec(3, 3)
    entries = [(i, j, list(cell)) for i, row in enumerate(s._sparse) for j, cell in enumerate(row)]
    rev = validate_algebra(AlgebraSpec(s.field, s.dim, entries, s.unit, s.blocks,
                                       tuple(reversed(s.radical_basis))))
    for space in ("J", "J*"):
        reps = [o.representative for o in orbit_census(rev, space).orbits]
        assert reps == sorted(reps) and len(reps) == orbit_census(s, space).n
    reps = [r.representative for r in superclass_partition(rev)]
    assert reps == sorted(reps)


# ---------------------------------------------------------------------------
# the generation certificate
# ---------------------------------------------------------------------------

E12, E13 = 3, 4     # basis indices of E12 and E13 in T(3, q)


def _direction(s, x):
    """r if x = 1 + c b_r with c != 0, else None."""
    support = [i for i, v in enumerate(s.sub(x, s.unit)) if v]
    return support[0] if len(support) == 1 else None


def _without_direction(s, gens, r):
    """(torus, parts) with the parts in the direction r dropped."""
    torus, parts = gens
    return torus, [a for a in parts if _direction(s, a) != r]


@pytest.mark.parametrize("n,p,k", [(2, 3, 1), (3, 2, 1), (2, 2, 2), (3, 3, 1)])
def test_certificate_accepts_tilde_generators(n, p, k):
    s = get_spec(n, p, k)
    certify_generators(s, *tilde_generators(s))


def test_certificate_accepts_generators_without_a_commutator_direction():
    # 1 + E13 is the commutator of 1 + E12 and 1 + E23, so the rest still generate
    s = get_spec(3, 2)
    certify_generators(s, *_without_direction(s, tilde_generators(s), E13))


def _closure_order(s, parts):
    """The order of the subgroup of N the parts generate, by a literal
    closure of the unit under right multiplication."""
    return len(algebra.closure(s.unit, [lambda x, a=a: s.mul(x, a) for a in parts]))


def test_certificate_rejects_a_missing_radical_direction():
    # E12 is no commutator, so the rest generate a proper subgroup of N
    s = get_spec(3, 2)
    torus, rest = _without_direction(s, tilde_generators(s), E12)
    order = _closure_order(s, rest)
    assert order < 2 ** 3
    with pytest.raises(NotGenerating, match=f"a-parts generate a subgroup of order {order} of N"):
        certify_generators(s, torus, rest)


def test_group_algebra_generators_are_topped_up_by_a_monomial():
    # F_2[C2 x C2], b_i = g_i - 1: b_1 and b_2 span J/J^2, and their lifts
    # g_1, g_2 generate only P (order 4 of |N| = 8); 1 + b_3 = g_1 g_2 lies in
    # P, b_1^2 = 0, and 1 + b_1 b_2 is the first candidate outside P
    s = group_algebra("F2[C2xC2]")
    torus, parts = tilde_generators(s)
    b1, b2 = s.basis_vec(1), s.basis_vec(2)
    assert parts == [s.add(s.unit, b1), s.add(s.unit, b2), s.add(s.unit, s.mul(b1, b2))]
    assert _closure_order(s, parts[:2]) == 4     # g_1 and g_2
    certify_generators(s, torus, parts)


@pytest.mark.parametrize("name", ["T(3,3)", "F2[D8]"])
def test_certificate_reuses_the_builders_closure_of_n(name, monkeypatch):
    """certified_generators compiles each part's map on N once: the top-ups
    extend one closure of the unit, and the certificate reads the closure
    they ended on."""
    def fresh():    # nothing built or certified yet
        return tri.make_triangular(3, get_field(3)) if name == "T(3,3)" else group_algebra(name)
    real, compiled = algebra._image_tables, []
    monkeypatch.setattr(algebra, "_image_tables",
                        lambda points, maps: compiled.extend(maps) or real(points, maps))
    parts = tilde_generators(fresh())[1]
    assert len(compiled) == len(parts)
    compiled.clear()
    algebra.certified_generators(fresh())
    assert len(compiled) == len(parts)


def test_certificate_rejects_a_missing_torus_generator():
    s = get_spec(2, 3)
    torus, parts = tilde_generators(s)
    assert len(torus) == 2
    with pytest.raises(NotGenerating, match="t-parts generate a subgroup of order 2 "):
        certify_generators(s, torus[1:], parts)


@pytest.mark.parametrize("n,p,k", [(3, 2, 1), (3, 3, 1), (2, 2, 2)])
def test_generators_and_orbits_invert_no_part_of_n(n, p, k, monkeypatch):
    """The certificate, the G~-orbits on J and J* and the N x N-orbits on J*
    invert torus elements only: the pair (1, a) stands for (1, 1, a^-1), and
    lam -> lam(u x w) on J* is compiled from the sandwich itself."""
    s = tri.make_triangular(n, get_field(p, k))     # fresh: nothing certified yet
    args, real = [], AlgebraSpec.invert
    monkeypatch.setattr(AlgebraSpec, "invert", lambda self, g: args.append(g) or real(self, g))
    certified_generators(s)
    space_orbits(s, "J")
    space_orbits(s, "J*")
    nn_orbits(s)
    assert set(args) <= set(box(s, "G").translates)


def _drop_last_part(monkeypatch):
    # with q = 2 the last part 1 + E23 of T(3, 2) is the only one in the
    # direction E23
    full = algebra.tilde_generators

    def dropped(spec):
        torus, parts = full(spec)
        return torus, parts[:-1]
    monkeypatch.setattr(algebra, "tilde_generators", dropped)


def test_censuses_and_partition_run_the_certificate(monkeypatch):
    partition = superclass_partition(tri.make_triangular(3, get_field(2)))
    _drop_last_part(monkeypatch)
    runs = (lambda s: orbit_census(s, "J"), lambda s: orbit_census(s, "J*"),
            lambda s: orbit(s, s.zero(), "J"), superclass_partition, nn_orbits,
            lambda s: InductionContext(s, partition, 2 ** 17),
            lambda s: n_characters(s, 2 ** 17))
    for run in runs:
        s = tri.make_triangular(3, get_field(2))    # fresh: nothing certified yet
        with pytest.raises(NotGenerating):
            run(s)


def _corners(s):
    nb = len(s.blocks)
    return [frozenset(i for i in range(nb) if mask >> i & 1) for mask in range(2 ** nb)]


@pytest.mark.parametrize("n,p,k", [(3, 2, 1), (2, 2, 2), (3, 3, 1)])
def test_certificate_accepts_every_corner(n, p, k, monkeypatch):
    """One certificate of G~ serves every corner: orbits started in each corner
    e J e and e J* e, on J and on J*, run after exactly one certify_generators
    call, and each cut to its corner keeps the start."""
    s = tri.make_triangular(n, get_field(p, k))     # fresh: nothing certified yet
    real = algebra.certify_generators
    calls = []
    monkeypatch.setattr(algebra, "certify_generators",
                        lambda spec, *gens: calls.append(1) or real(spec, *gens))
    xs = j_vectors(s)
    lams = dual_vectors(s)
    for T in _corners(s):
        for space, supp, points in (("J", element_support, xs),
                                    ("J*", form_support, lams)):
            y = max(v for v in points if supp(s, v) <= T)
            members = points_of(s, orbit(s, y, space))
            assert y in {v for v in members if supp(s, v) <= T}
    assert len(calls) == 1


def test_corner_certificate_rejects_a_missing_corner_direction(monkeypatch):
    # the corner of blocks 1, 2, 3 of T(4, 2) is T(3, 2): J_e = <E12, E13, E23>.
    # E12 is no commutator, so without its generators the a-parts span only
    # {x : x_12 = 0}, and an orbit in that corner is refused
    e12 = root_index(4, 1, 2)
    full = algebra.tilde_generators
    monkeypatch.setattr(algebra, "tilde_generators",
                        lambda spec: _without_direction(spec, full(spec), e12))
    s = tri.make_triangular(4, get_field(2))        # fresh: nothing certified yet
    T = frozenset({0, 1, 2})
    assert sum(element_support(s, s.basis_vec(r)) <= T for r in s.radical_basis) == 3
    order = _closure_order(s, algebra.tilde_generators(s)[1])
    assert order < 64
    with pytest.raises(NotGenerating, match=f"a-parts generate a subgroup of order {order} "
                                            "of N, which has order 64"):
        orbit(s, s.basis_vec(e12), "J")


def test_corner_certificate_rejects_parts_off_the_corner():
    # the corner here is the whole algebra, e = 1: a t-part off H and an
    # a-part off N, each added to a generating set, are rejected by the
    # membership tests before any closure is counted
    s = get_spec(3, 2)
    one_plus_e12 = s.add(s.unit, s.basis_vec(E12))
    torus, parts = tilde_generators(s)
    with pytest.raises(NotGenerating, match="t-part .* lies outside H"):
        certify_generators(s, torus + [one_plus_e12], parts)
    s = get_spec(2, 3)
    torus, parts = tilde_generators(s)
    with pytest.raises(NotGenerating, match="a-part .* lies outside N"):
        certify_generators(s, torus, parts + [torus[0]])


def test_corner_orbits_run_the_corner_certificate(monkeypatch):
    # the corner of blocks 1, 2 of T(3, 2) is J_e = <E12>; its orbits are cut
    # from G~-orbits, so they are refused when the dropped part 1 + E23 lies
    # outside the corner
    _drop_last_part(monkeypatch)
    corner = frozenset({0, 1})
    e12_dual = (1, 0, 0)
    runs = (lambda s: orbit(s, s.basis_vec(E12), "J"),
            lambda s: orbit(s, e12_dual, "J*"),
            lambda s: classify(s, array("I", [box(s, "G").number(s.unit)])),
            lambda s: stabilizer_data(s, e12_dual, corner))
    for run in runs:
        s = tri.make_triangular(3, get_field(2))    # fresh: nothing certified yet
        with pytest.raises(NotGenerating):
            run(s)


def test_censuses_compile_each_generator_once(monkeypatch):
    s = tri.make_triangular(3, get_field(3))
    n_gens = len(sandwich_pairs(s))     # certify before counting
    counts = {"sandwich_map": 0, "rho_dual_map": 0}
    for name in counts:
        def counted(*args, real=getattr(algebra, name), name=name):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(algebra, name, counted)
    for _ in range(2):
        orbit_census(s, "J")
        orbit_census(s, "J*")
    # one sandwich_map per pair on J, and one inside each rho_dual_map on J*
    assert counts == {"sandwich_map": 2 * n_gens, "rho_dual_map": n_gens}


@pytest.mark.parametrize("n,p,k", [(2, 3, 1), (3, 2, 1), (3, 3, 1), (2, 2, 2)])
def test_census_orbits_satisfy_orbit_stabilizer(n, p, k):
    """|orbit| |Stab| = |H| |N|^2 for every J-orbit, with |Stab| counted by
    linear algebra (transporter_count), independently of the BFS and of the
    generators."""
    s = get_spec(n, p, k)
    tilde_order = group_order(s) * s.field.q ** len(s.radical_basis)
    for orb in orbit_census(s, "J").orbits:
        x = orb.representative
        assert len(orb.members) * transporter_count(s, x, x) == tilde_order, x


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_census_partitions_and_matches_dual(n, p):
    s = get_spec(n, p)
    cj = orbit_census(s, "J")
    cd = orbit_census(s, "J*")
    q = p
    assert sum(len(o.members) for o in cj.orbits) == q ** len(s.radical_basis)
    assert sum(len(o.members) for o in cd.orbits) == q ** len(s.radical_basis)
    assert cj.n_e == cd.n_e
    assert cj.residual == 0 and cd.residual == 0


def test_census_anchors():
    c = orbit_census(get_spec(2, 2), "J")
    assert c.n == 2 and c.n_e == 1
    c = orbit_census(get_spec(2, 3), "J")
    assert c.n == 2 and c.n_e == 1


def test_census_bound():
    with pytest.raises(SpaceTooLarge):
        orbit_census(get_spec(4, 3), "J", bound=100)


@pytest.mark.parametrize("n,p", [(2, 3), (3, 2), (3, 3)])
def test_singularity_constant_on_orbits(n, p):
    s = get_spec(n, p)
    for space, form in (("J", False), ("J*", True)):
        for orb in orbit_census(s, space).orbits:
            vals = {is_singular(s, v, form) for v in points_of(s, orb)}
            assert len(vals) == 1


def test_singularity_examples():
    s = get_spec(3, 2)
    assert is_singular(s, s.zero())
    e13 = basis_vec(s, root_index(3, 1, 3))
    assert is_singular(s, e13)
    e12_plus_e23 = s.add(basis_vec(s, root_index(3, 1, 2)),
                         basis_vec(s, root_index(3, 2, 3)))
    assert not is_singular(s, e12_plus_e23)


def test_is_singular_reads_the_structure_constants_with_no_mul(monkeypatch):
    """No AlgebraSpec.mul for an element or a form: the products b_j v and
    v b_j, and the table of the form's products, are read off the structure
    constants."""
    s = get_spec(3, 3)
    x = s.add(basis_vec(s, root_index(3, 1, 2)), basis_vec(s, root_index(3, 2, 3)))
    calls = []
    mul = AlgebraSpec.mul
    monkeypatch.setattr(AlgebraSpec, "mul", lambda self, a, b: calls.append(1) or mul(self, a, b))
    assert not is_singular(s, x)
    assert not is_singular(s, s.j_coords(x), True)
    assert calls == []


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_annihilator_agrees_with_combinatorial_regularity(n, p):
    s = get_spec(n, p)
    for d in tri.basic_subsets(n):
        want_regular = tri.is_regular_D(d, n)
        x = tri.x_D(s, n, d)
        lam = tri.lambda_D(n, d)
        assert is_singular(s, x) == (not want_regular)
        assert is_singular(s, lam, True) == (not want_regular)


def test_support_set_closed_under_meet():
    """The idempotents whose corner meets an orbit form a meet-closed family
    with a unique minimum."""
    s = get_spec(3, 3)
    census = orbit_census(s, "J")
    nb = len(s.blocks)
    for orb in census.orbits:
        hit = set()
        for mask in range(2 ** nb):
            T = frozenset(i for i in range(nb) if mask >> i & 1)
            if any(element_support(s, v) <= T for v in points_of(s, orb)):
                hit.add(T)
        for a in hit:
            for b in hit:
                assert (a & b) in hit
        assert min(hit, key=len) == orbit_support(s, orb)[0]


@pytest.mark.parametrize("n,p", [(3, 2), (3, 3)])
def test_corner_restriction_is_regular(n, p):
    """Each census orbit of support T, cut to its corner, is regular: every
    member of the cut has support exactly T, and the census representative is
    its least member."""
    s = get_spec(n, p)
    for space, supp in (("J", element_support), ("J*", form_support)):
        census = orbit_census(s, space)
        for orb, T, rep in zip(census.orbits, census.supports, census.corner_reps):
            cut = {v for v in points_of(s, orb) if supp(s, v) <= T}
            assert rep == min(cut)
            assert all(supp(s, v) == T for v in cut)
            assert orbit(s, rep, space).members == orb.members


LEMMA_CASES = [(2, 3, 1), (3, 2, 1), (2, 2, 2), "dual_numbers_q3.json", "triangular_2_3.json"]


@pytest.mark.parametrize("case", [(2, 3, 1), (3, 2, 2), "dual_numbers_q3.json",
                                  "triangular_2_3.json"], ids=str)
def test_block_component_is_the_two_sided_product(case):
    """block_component(s, x, i), read off the coordinates, equals e_i x e_i
    computed with mul for every x = h and x = h - 1, h in H; an element with
    a nonzero radical part raises NotInH."""
    s = load_algebra_file(os.path.join(DATA, case)) if isinstance(case, str) else get_spec(*case)
    for h in h_elements(s):
        for x in (h, s.sub(h, s.unit)):
            for i, blk in enumerate(s.blocks):
                e = blk.idempotent
                assert block_component(s, x, i) == s.mul_many(e, x, e), (case, x, i)
    if s.radical_basis:
        with pytest.raises(NotInH, match="radical"):
            block_component(s, s.add(s.unit, s.basis_vec(s.radical_basis[0])), 0)


@pytest.mark.parametrize("case", LEMMA_CASES, ids=str)
def test_corner_orbits_are_tilde_orbits_cut_to_the_corner(case):
    """For every corner e = e_T and every y in J_e (or J_e*), the orbit of y
    under G~_e = H_e x| (N_e x N_e), enumerated literally, is the set of
    members of the G~-orbit of y with support inside T."""
    s = load_algebra_file(os.path.join(DATA, case)) if isinstance(case, str) else get_spec(*case)
    nb = len(s.blocks)
    xs = j_vectors(s)
    lams = dual_vectors(s)
    for mask in range(2 ** nb):
        T = frozenset(i for i in range(nb) if mask >> i & 1)
        h_e = [h for h in h_elements(s) if all(
            block_component(s, h, i) == s.blocks[i].idempotent for i in range(nb) if i not in T)]
        n_e = [s.add(s.unit, x) for x in xs if element_support(s, x) <= T]
        group = [(t, a, b) for t in h_e for a in n_e for b in n_e]
        for space, act, supp, points in (("J", rho, element_support, xs),
                                         ("J*", rho_dual, form_support, lams)):
            for y in (v for v in points if supp(s, v) <= T):
                literal = {act(s, tau, y) for tau in group}
                cut = {v for v in points_of(s, orbit(s, y, space)) if supp(s, v) <= T}
                assert literal == cut, (sorted(T), space, y)


# ---------------------------------------------------------------------------
# JSON input
# ---------------------------------------------------------------------------

def test_load_bundled_specs():
    dual = load_algebra_file(os.path.join(DATA, "dual_numbers_q3.json"))
    assert group_order(dual) == 6
    t23 = load_algebra_file(os.path.join(DATA, "triangular_2_3.json"))
    assert group_order(t23) == 12


def test_load_error_cites_path():
    with open(os.path.join(DATA, "dual_numbers_q3.json")) as fh:
        data = json.load(fh)
    bad = copy.deepcopy(data)
    bad["mul"][0][2] = [[0, "x"]]
    with pytest.raises(AlgebraValidationError, match="mul"):
        load_algebra(bad)


@pytest.mark.parametrize("mutate,field", [
    (lambda d: d.pop("radical_basis"), "radical_basis: missing"),
    (lambda d: d.__setitem__("unit", [1]), "unit: expected 2 entries"),
    (lambda d: d.__setitem__("dim", "2"), "dim: expected an integer"),
    (lambda d: d["mul"].__setitem__(1, [0, 1]), "mul[1]: expected 3 entries"),
    (lambda d: d["mul"][1].__setitem__(2, [[-1, 1]]), "mul[1][2][0][0]"),
    (lambda d: d["blocks"][0].__setitem__("degree", 0), "blocks[0].degree"),
    (lambda d: d["blocks"][0].__setitem__("basis", [2]), "blocks[0].basis[0]"),
    (lambda d: d["radical_basis"].append(7), "radical_basis[1]"),
    (lambda d: d["mul"].append([1, 1, [[1, 1]]]), "mul[4]: repeats b1*b1, given by mul[3]"),
    (lambda d: d["mul"][1][2].append([1, 1]), "mul[1][2][1]: repeats the b1 term of mul[1][2][0]"),
    (lambda d: d["blocks"][0].__setitem__("degree", 2), "blocks[0].degree is 2, not len"),
], ids=["missing-radical-basis", "short-unit", "dim-not-int", "short-mul-entry",
        "negative-term-index", "zero-degree", "block-index-out-of-range",
        "radical-index-out-of-range", "repeated-product", "repeated-term", "degree-not-basis"])
def test_load_schema_error_names_field(mutate, field):
    with open(os.path.join(DATA, "dual_numbers_q3.json")) as fh:
        data = json.load(fh)
    mutate(data)
    with pytest.raises(AlgebraValidationError) as exc:
        load_algebra(data)
    assert field in str(exc.value)


def test_generator_closure_sanity():
    s = get_spec(3, 3)
    torus, parts = tilde_generators(s)
    # a torus generator for each block of order > 1; the sandwiches (t, t^-1)
    # for each, then (a, 1) and (1, a) for each part a
    assert len(torus) == sum(order > 1 for order in s.block_orders)
    assert sandwich_pairs(s) == [(t, s.invert(t)) for t in torus] + \
        [pair for a in parts for pair in ((a, s.unit), (s.unit, a))]


@pytest.mark.parametrize("n,p,k", [(3, 3, 1), (4, 2, 1), (4, 3, 1), (3, 2, 2)])
def test_tilde_generators_are_the_simple_roots_scaled_by_an_fp_basis(n, p, k):
    """On T(n, q), q = p^k, J/J^2 is spanned by the simple roots, which
    scaled by the F_p-basis 1, x, ..., x^(k-1) of F_q generate N: one torus
    generator per block of order > 1 and k (n - 1) parts."""
    s = get_spec(n, p, k)
    torus, parts = tilde_generators(s)
    assert len(torus) == sum(order > 1 for order in s.block_orders)
    want = {s.add(s.unit, s.smul(p ** j, s.basis_vec(root_index(n, i, i + 1))))
            for i in range(1, n) for j in range(k)}
    assert len(parts) == k * (n - 1) and set(parts) == want
    certify_generators(s, torus, parts)
