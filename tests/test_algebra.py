import copy
import json
import os
import random

import pytest

from supchar import algebra
from supchar.algebra import (
    AlgebraSpec,
    Block,
    block_component,
    certify_generators,
    element_support,
    form_support,
    group_order,
    h_elements,
    is_singular,
    load_algebra,
    load_algebra_file,
    make_triple,
    orbit,
    orbit_census,
    orbit_support,
    rho,
    rho_dual,
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

from conftest import dual_vectors, g_elements, get_field, get_spec, random_triple

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "supchar", "data")


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
    raw = AlgebraSpec(F, 2, entries, [1, 1], [Block((1, 1), 1, (0, 1))], ())
    with pytest.raises(BadIdempotents):
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
    tau = make_triple(s, s.unit, s.unit, s.unit)
    for x in s.j_vectors():
        assert rho(s, tau, x) == x
    for lam in dual_vectors(s):
        assert rho_dual(s, tau, lam) == lam


def test_rho_torus_scaling():
    s = get_spec(2, 3)
    t = (2, 1, 0)
    tau = make_triple(s, t, s.unit, s.unit)
    e12 = basis_vec(s, 2)
    # t1 * t2^{-1} = 2 * 1 = 2
    assert rho(s, tau, e12) == s.smul(2, e12)


def test_rho_unipotent():
    s = get_spec(3, 2)
    e12 = basis_vec(s, root_index(3, 1, 2))
    e23 = basis_vec(s, root_index(3, 2, 3))
    e13 = basis_vec(s, root_index(3, 1, 3))
    tau = make_triple(s, s.unit, s.add(s.unit, e12), s.unit)
    assert rho(s, tau, e23) == s.add(e23, e13)


def test_rho_rejects_s_component():
    s = get_spec(2, 2)
    tau = make_triple(s, s.unit, s.unit, s.unit)
    with pytest.raises(NotInRadical):
        rho(s, tau, s.unit)


def _triple_product(s, t1, t2):
    # (t1 t2, t2^{-1} a1 t2 a2, t2^{-1} b1 b2 ... ) per the group law
    t = s.mul(t1.t, t2.t)
    a = s.mul_many(t2.t_inv, t1.a, t2.t, t2.a)
    b = s.mul_many(t2.t_inv, t1.b, t2.t, t2.b)
    return make_triple(s, t, a, b)


@pytest.mark.parametrize("n,p,k", [(2, 3, 1), (3, 2, 1), (2, 2, 2)])
def test_rho_is_a_group_action(n, p, k):
    s = get_spec(n, p, k)
    rng = random.Random(5)
    xs = s.j_vectors()
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
        for x in s.j_vectors():
            lam = tuple(rng.randrange(2) for _ in s.radical_basis)
            lhs = s.form_eval(rho_dual(s, tau, lam), s.j_embed(s.j_coords(rho(s, tau, x))))
            assert lhs == s.form_eval(lam, x)


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

def test_orbit_of_zero():
    s = get_spec(2, 2)
    assert orbit(s, s.zero(), "rho").members == {s.zero()}


def test_orbit_examples():
    s22 = get_spec(2, 2)
    e12 = basis_vec(s22, 2)
    assert orbit(s22, e12, "rho").members == {e12}
    s23 = get_spec(2, 3)
    e12 = basis_vec(s23, 2)
    got = orbit(s23, e12, "rho").members
    assert got == {e12, s23.smul(2, e12)}


def test_orbit_representative_is_minimal():
    s = get_spec(3, 3)
    census = orbit_census(s, "J")
    for orb in census.orbits:
        assert orb.representative == min(orb.members)


def test_orbits_come_in_representative_order_for_any_radical_basis_order():
    # listing the radical basis backwards makes J enumerate out of vector
    # order, so the orbits and superclasses must still be sorted afterwards
    s = get_spec(3, 3)
    entries = [(i, j, [(l, c) for l, c in enumerate(cell) if c])
               for i, row in enumerate(s.mul_table) for j, cell in enumerate(row)]
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


def _without_direction(s, gens, r, sides=("a", "b")):
    return [g for g in gens if all(_direction(s, getattr(g, side)) != r for side in sides)]


@pytest.mark.parametrize("n,p,k", [(2, 3, 1), (3, 2, 1), (2, 2, 2), (3, 3, 1)])
def test_certificate_accepts_tilde_generators(n, p, k):
    s = get_spec(n, p, k)
    certify_generators(s, tilde_generators(s))


def test_certificate_accepts_generators_without_a_commutator_direction():
    # 1 + E13 is the commutator of 1 + E12 and 1 + E23, so the rest still generate
    s = get_spec(3, 2)
    certify_generators(s, _without_direction(s, tilde_generators(s), E13))


def test_certificate_rejects_a_missing_radical_direction():
    s = get_spec(3, 2)
    gens = tilde_generators(s)
    with pytest.raises(NotGenerating, match="a-parts generate a subgroup of order 4 "):
        certify_generators(s, _without_direction(s, gens, E12))
    with pytest.raises(NotGenerating, match="b-parts generate a subgroup of order 4 "):
        certify_generators(s, _without_direction(s, gens, E12, sides=("b",)))


def test_certificate_rejects_a_missing_torus_generator():
    s = get_spec(2, 3)
    gens = tilde_generators(s)
    torus = [g for g in gens if g.t != s.unit]
    assert len(torus) == 2
    with pytest.raises(NotGenerating, match="t-parts generate a subgroup of order 2 "):
        certify_generators(s, [g for g in gens if g is not torus[0]])


def test_certificate_rejects_two_sided_triples():
    # (1, a, a) for every a: the a-parts and b-parts generate N, but the triples
    # generate only the diagonal of N x N
    s = get_spec(2, 3)
    full = tilde_generators(s)
    gens = [g for g in full if g.t != s.unit]
    gens += [make_triple(s, s.unit, g.a, g.a) for g in full if g.a != s.unit]
    with pytest.raises(NotGenerating, match="more than one part"):
        certify_generators(s, gens)


def _drop_last_generator(monkeypatch):
    # with q = 2 the last generator (1, 1, 1 + E23) of T(3, 2) is the only
    # b-part in the direction E23
    full = algebra.tilde_generators
    monkeypatch.setattr(algebra, "tilde_generators", lambda spec: full(spec)[:-1])


def test_censuses_and_partition_run_the_certificate(monkeypatch):
    _drop_last_generator(monkeypatch)
    runs = (lambda s: orbit_census(s, "J"), lambda s: orbit_census(s, "J*"),
            lambda s: orbit(s, s.zero(), "rho"), superclass_partition, nn_orbits,
            lambda s: InductionContext(s, 2 ** 17), lambda s: InductionContext(s, 2 ** 17, "N"),
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
                        lambda spec, gens: calls.append(1) or real(spec, gens))
    xs = s.j_vectors()
    lams = dual_vectors(s)
    for T in _corners(s):
        for action, supp, points in (("rho", element_support, xs),
                                     ("rho_dual", form_support, lams)):
            y = max(v for v in points if supp(s, v) <= T)
            members = orbit(s, y, action).members
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
    with pytest.raises(NotGenerating,
                       match="a-parts generate a subgroup of order 32 of N, which has order 64"):
        orbit(s, s.basis_vec(e12), "rho")


def test_corner_certificate_rejects_parts_off_the_corner():
    # the corner here is the whole algebra, e = 1: a t-part off H and an
    # a-part off N, each added to a generating set, are rejected by the
    # membership tests before any closure is counted
    s = get_spec(3, 2)
    one_plus_e12 = s.add(s.unit, s.basis_vec(E12))
    with pytest.raises(NotGenerating, match="t-part .* lies outside H"):
        certify_generators(s, tilde_generators(s) + [make_triple(s, one_plus_e12, s.unit, s.unit)])
    s = get_spec(2, 3)
    gens = tilde_generators(s)
    torus = next(g.t for g in gens if g.t != s.unit)
    with pytest.raises(NotGenerating, match="a-part .* lies outside N"):
        certify_generators(s, gens + [make_triple(s, s.unit, torus, s.unit)])


def test_corner_orbits_run_the_corner_certificate(monkeypatch):
    # the corner of blocks 1, 2 of T(3, 2) is J_e = <E12>; its orbits are cut
    # from G~-orbits, so they are refused when the dropped generator
    # (1, 1, 1 + E23) lies outside the corner
    _drop_last_generator(monkeypatch)
    corner = frozenset({0, 1})
    e12_dual = (1, 0, 0)
    runs = (lambda s: orbit(s, s.basis_vec(E12), "rho"),
            lambda s: orbit(s, e12_dual, "rho_dual"),
            lambda s: classify(s, frozenset({s.unit})),
            lambda s: stabilizer_data(s, e12_dual, corner))
    for run in runs:
        s = tri.make_triangular(3, get_field(2))    # fresh: nothing certified yet
        with pytest.raises(NotGenerating):
            run(s)


def test_censuses_compile_each_generator_once(monkeypatch):
    counts = {"rho_map": 0, "rho_dual_map": 0}
    for name in counts:
        def counted(spec, tau, real=getattr(algebra, name), name=name):
            counts[name] += 1
            return real(spec, tau)
        monkeypatch.setattr(algebra, name, counted)
    s = tri.make_triangular(3, get_field(3))
    for _ in range(2):
        orbit_census(s, "J")
        orbit_census(s, "J*")
    n_gens = len(tilde_generators(s))
    assert counts == {"rho_map": n_gens, "rho_dual_map": n_gens}


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
            vals = {is_singular(s, v, form) for v in orb.members}
            assert len(vals) == 1


def test_singularity_examples():
    s = get_spec(3, 2)
    assert is_singular(s, s.zero())
    e13 = basis_vec(s, root_index(3, 1, 3))
    assert is_singular(s, e13)
    e12_plus_e23 = s.add(basis_vec(s, root_index(3, 1, 2)),
                         basis_vec(s, root_index(3, 2, 3)))
    assert not is_singular(s, e12_plus_e23)


def test_is_singular_takes_one_product_per_side_and_basis_vector(monkeypatch):
    """2 dim products c_j v and v c_j for an element; none for a form, whose
    rows are read off the structure constants."""
    s = get_spec(3, 3)
    x = s.add(basis_vec(s, root_index(3, 1, 2)), basis_vec(s, root_index(3, 2, 3)))
    calls = []
    mul = AlgebraSpec.mul
    monkeypatch.setattr(AlgebraSpec, "mul", lambda self, a, b: calls.append(1) or mul(self, a, b))
    assert not is_singular(s, x)
    assert len(calls) == 2 * s.dim
    assert not is_singular(s, s.j_coords(x), True)
    assert len(calls) == 2 * s.dim


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
            if any(element_support(s, v) <= T for v in orb.members):
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
    for space, action, supp in (("J", "rho", element_support),
                                ("J*", "rho_dual", form_support)):
        census = orbit_census(s, space)
        for orb, T, rep in zip(census.orbits, census.supports, census.corner_reps):
            cut = {v for v in orb.members if supp(s, v) <= T}
            assert rep == min(cut)
            assert all(supp(s, v) == T for v in cut)
            assert orbit(s, rep, action).members == orb.members


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
    xs = s.j_vectors()
    lams = dual_vectors(s)
    for mask in range(2 ** nb):
        T = frozenset(i for i in range(nb) if mask >> i & 1)
        h_e = [h for h in h_elements(s) if all(
            block_component(s, h, i) == s.blocks[i].idempotent for i in range(nb) if i not in T)]
        n_e = [s.add(s.unit, x) for x in xs if element_support(s, x) <= T]
        group = [make_triple(s, t, a, b) for t in h_e for a in n_e for b in n_e]
        for action, act, supp, points in (("rho", rho, element_support, xs),
                                          ("rho_dual", rho_dual, form_support, lams)):
            for y in (v for v in points if supp(s, v) <= T):
                literal = {act(s, tau, y) for tau in group}
                cut = {v for v in orbit(s, y, action).members if supp(s, v) <= T}
                assert literal == cut, (sorted(T), action, y)


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
], ids=["missing-radical-basis", "short-unit", "dim-not-int", "short-mul-entry",
        "negative-term-index", "zero-degree", "block-index-out-of-range",
        "radical-index-out-of-range"])
def test_load_schema_error_names_field(mutate, field):
    with open(os.path.join(DATA, "dual_numbers_q3.json")) as fh:
        data = json.load(fh)
    mutate(data)
    with pytest.raises(AlgebraValidationError) as exc:
        load_algebra(data)
    assert field in str(exc.value)


def test_generator_closure_sanity():
    s = get_spec(3, 3)
    gens = tilde_generators(s)
    # torus generators for each block plus two one-parameter families per
    # radical basis vector and nonzero scalar
    assert len(gens) == 3 + 2 * 3 * 2
