import os
import re
from array import array
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from supchar import algebra, superclasses
from supchar import supercharacters as sc
from supchar import triangular as tri
from supchar.algebra import (
    box,
    certified_generators,
    group_order,
    h_elements,
    load_algebra_file,
    orbit,
    orbit_census,
    space_orbits,
)
from supchar.cyclo import CycloNumber
from supchar.errors import (
    GroupTooLarge,
    NotConstantOnSuperclass,
    NotInStabilizer,
    NotRegular,
    PartitionMismatch,
)
from supchar.fields import FieldSpec, additive_char_exponent
from supchar.superclasses import SuperclassRecord, superclass_partition
from supchar.supercharacters import (
    CharacterTable,
    CheckResult,
    InductionContext,
    SupercharLabel,
    axioms_report,
    build_table,
    enumerate_labels,
    induce,
    inner_products,
    n_characters,
    restriction_report,
    stabilizer_data,
    xi,
)

from conftest import (
    DATA,
    LABEL_SPECS,
    field_span,
    g_elements,
    get_field,
    get_partition,
    get_spec,
    group_algebra,
    j_vectors,
    points_of,
    reversed_radical,
    spec_named,
)


def principal_label(spec):
    nb = len(spec.blocks)
    lam = tuple(0 for _ in spec.radical_basis)
    return SupercharLabel(frozenset(), frozenset(), (0,) * nb, lam)


def e12_label(spec, nb=2):
    lam = tuple(1 if i == 0 else 0 for i in range(len(spec.radical_basis)))
    return SupercharLabel(frozenset(range(nb)), frozenset(), (0,) * nb, lam)


# ---------------------------------------------------------------------------
# stabilizers
# ---------------------------------------------------------------------------

def test_stabilizer_of_zero_form():
    s = get_spec(2, 3)
    stab = stabilizer_data(s, (0,), frozenset())
    assert stab.size == group_order(s) == 12


def test_stabilizer_e12():
    for p in (2, 3):
        s = get_spec(2, p)
        stab = stabilizer_data(s, (1,), frozenset({0, 1}))
        assert stab.basis == ((1,),)       # J_right = J since J^2 = 0
        assert stab.h_part == (s.unit,)    # H_{e'} = {1}
        assert stab.size == p


def test_stabilizer_eq6_crosscheck_t33():
    s = get_spec(3, 3)
    lam = (1, 0, 1)  # E12* + E23*
    stab = stabilizer_data(s, lam, frozenset({0, 1, 2}))
    # J_{lam,right} = J here, H_{e'} trivial
    assert stab.size == 27


def test_stabilizer_rejects_irregular():
    s = get_spec(3, 2)
    with pytest.raises(NotRegular):
        stabilizer_data(s, (0, 1, 0), frozenset({0, 1, 2}))  # E13* has support {1,3}
    with pytest.raises(NotRegular):
        stabilizer_data(s, (1, 0, 0), frozenset({0, 1, 2}))  # E12* misses block 3


def _literal_right_stabilizer(s, lam, hs):
    """{h (1 + u) : h in hs, u in J with lam(u v) = 0 for every v in J}, by
    enumeration and spec.mul."""
    radical = j_vectors(s)
    right = [u for u in radical if all(s.form_eval(lam, s.mul(u, v)) == 0 for v in radical)]
    return {s.mul(h, s.add(s.unit, u)) for h in hs for u in right}


def _elements(s, stab):
    """The elements h + x of G_lambda, h in H_{e'} and x in J_{lambda,right}."""
    rad = [s.j_embed(b) for b in stab.basis]
    return {s.add(h, x) for h in stab.h_part for x in field_span(s.field, rad, s.dim)}


def _assert_counts_are_xi(s, stab, ctx):
    """class_counts, shifted by theta's exponent at each h, counts the
    elements of G_lambda per class and exponent of xi, for every theta."""
    m = s.cyclo_order
    counts = sc.class_counts(s, stab, ctx)
    assert sorted(counts) == sorted(sc._theta_weights(s, h) for h in stab.h_part)
    for lbl in enumerate_labels(s, orbit_census(s, "J*")):
        if lbl.lambda_rep != stab.lam:
            continue
        got = Counter()
        for w, cells in counts.items():
            th = sum(a * b for a, b in zip(lbl.theta, w))
            got.update({(ci, (th + t) % m): n for ci, t, n in cells})
        want = Counter()
        for y in _literal_right_stabilizer(s, stab.lam, stab.h_part):
            j = (sc.theta_exponent(s, lbl.theta, s.s_part(y)) +
                 additive_char_exponent(s.field, s.form_eval(stab.lam, y), m)) % m
            assert xi(s, lbl, y, stab) == CycloNumber.root(m, j)
            want[ctx.class_of[box(s, "G").number(y)], j] += 1
        assert got == want, lbl.render()


def test_g_lambda_and_n_right_equal_the_literal_products():
    # G_lambda only: N_{mu,right} is built by the literal oracle of
    # test_n_characters_match_literal_average_over_n alone.  With the radical
    # basis listed backwards, box J's coordinate order (sorted basis indices)
    # is not radical order, and class_counts must number x in the former
    for name, s, _ in [*_literal_specs(), ("T(3,3) reversed", reversed_radical(3, 3), None)]:
        ctx = InductionContext(s, superclass_partition(s), 2 ** 17)
        for lbl in enumerate_labels(s, orbit_census(s, "J*")):
            stab = stabilizer_data(s, lbl.lambda_rep, lbl.e)
            want = _literal_right_stabilizer(s, lbl.lambda_rep, stab.h_part)
            assert _elements(s, stab) == want and stab.size == len(want), (name, lbl.render())
            if lbl.theta == (0,) * len(s.blocks):
                _assert_counts_are_xi(s, stab, ctx)


def test_stabilizer_data_builds_no_element_of_g_lambda(monkeypatch):
    """One product h b per h in H_{e'} and basis vector b of J_{lambda,right},
    and no LinearMap.apply: once the census has run, lambda's support is read
    off the support table."""
    for name, s, _ in _literal_specs():
        for lbl in enumerate_labels(s, orbit_census(s, "J*")):
            stab = stabilizer_data(s, lbl.lambda_rep, lbl.e)    # orbits cached
            calls = Counter()
            for cls, fn in ((algebra.AlgebraSpec, "mul"), (algebra.LinearMap, "apply")):
                real = getattr(cls, fn)
                monkeypatch.setattr(cls, fn, lambda *a, _f=real, _n=fn:
                                    calls.update([_n]) or _f(*a))
            algebra.form_support(s, lbl.lambda_rep)
            support_applies, calls["apply"] = calls["apply"], 0
            stabilizer_data(s, lbl.lambda_rep, lbl.e)
            monkeypatch.undo()
            assert calls["apply"] == support_applies == 0, (name, lbl.render())
            assert calls["mul"] <= len(stab.h_part) * len(stab.basis), (name, lbl.render())


def test_class_counts_decode_no_point_and_apply_no_map(monkeypatch):
    """class_counts reads each x of J_{lambda,right} off one span of codes:
    no Box.point and no LinearMap.apply call, and field arithmetic per basis
    vector of J_{lambda,right} (lambda(b) and the q multiples of each row)
    and per field element (eps), none per element of G_lambda."""
    for name, s, _ in [*_literal_specs(), ("T(3,GF(4))", get_spec(3, 2, 2), None)]:
        ctx = InductionContext(s, superclass_partition(s), 2 ** 17)
        F, nu = s.field, len(s.radical_basis)
        for lbl in enumerate_labels(s, orbit_census(s, "J*")):
            stab = stabilizer_data(s, lbl.lambda_rep, lbl.e)
            calls = Counter()
            for cls, fn in ((algebra.Box, "point"), (algebra.LinearMap, "apply"),
                            (FieldSpec, "add"), (FieldSpec, "mul")):
                real = getattr(cls, fn)
                monkeypatch.setattr(cls, fn, lambda *a, _f=real, _n=fn:
                                    calls.update([_n]) or _f(*a))
            sc.class_counts(s, stab, ctx)
            monkeypatch.undo()
            field_calls = calls.pop("add", 0) + calls.pop("mul", 0)
            assert calls == Counter(), (name, lbl.render())
            bound = F.q * F.k + len(stab.basis) * (2 * nu + F.q * (nu + 1))
            assert field_calls <= bound, (name, lbl.render(), field_calls)


def test_form_products_are_lam_of_the_basis_products():
    for name, s, _ in _literal_specs():
        for orb in orbit_census(s, "J*").orbits:
            for lam in (orb.representative, max(points_of(s, orb))):
                want = [[s.form_eval(lam, s.mul(s.basis_vec(i), s.basis_vec(j)))
                         for j in range(s.dim)] for i in range(s.dim)]
                assert s.form_products(lam) == want, (name, lam)


def test_stabilizer_data_rejects_an_h_wrongly_added_to_h_e(monkeypatch):
    """With a block_component that matches every h, H_{e'} would be all of H;
    but only h = 1 fixes lam = E12* of T(2,3) on both sides, which the
    cross-check reads off the lam(b_i b_j) table."""
    s = get_spec(2, 3)
    monkeypatch.setattr(sc, "block_component", lambda spec, h, i: spec.blocks[i].idempotent)
    with pytest.raises(NotInStabilizer, match="H_right"):
        stabilizer_data(s, (1,), frozenset({0, 1}))


def test_right_stabilizer_rejects_h_moving_j_right(monkeypatch):
    # lam = E13* on T(3,3) in the corner of blocks 1, 3: J_right = <E13, E23>
    # and H_{e'} holds diag(1, 2, 1).  A left multiplication by h != 1 computed
    # wrongly, every radical vector to E12, moves J_right off itself.
    s = tri.make_triangular(3, get_field(3))
    lam, corner = (0, 1, 0), frozenset({0, 2})
    stabilizer_data(s, lam, corner)     # orbits and supports cached
    e12, real = s.basis_vec(s.radical_basis[0]), s.mul

    def broken(x, y):
        return e12 if x != s.unit and not s.in_radical(x) and s.in_radical(y) else real(x, y)
    monkeypatch.setattr(s, "mul", broken)
    with pytest.raises(NotInStabilizer, match="does not lie in G_lambda"):
        stabilizer_data(s, lam, corner)


def _literal_labels(s, dual_census):
    """For each regular corner orbit with support e, each f _|_ e and each
    theta nontrivial exactly on the blocks of f, sorted."""
    nb = len(s.blocks)
    labels = []
    for supp, lam_rep in zip(dual_census.supports, dual_census.corner_reps):
        rest = sorted(set(range(nb)) - supp)
        for fmask in range(2 ** len(rest)):
            fset = frozenset(rest[i] for i in range(len(rest)) if fmask >> i & 1)
            opts = [range(1, s.block_orders[i]) if i in fset else [0] for i in range(nb)]
            labels.extend(SupercharLabel(supp, fset, t, lam_rep) for t in product(*opts))
    return sorted(labels, key=SupercharLabel.sort_key)


@pytest.mark.parametrize("name", LABEL_SPECS, ids=str)
def test_enumerate_labels_is_the_sum_over_f(name):
    s = spec_named(name)
    census = orbit_census(s, "J*")
    assert enumerate_labels(s, census) == _literal_labels(s, census)


# ---------------------------------------------------------------------------
# the linear character xi
# ---------------------------------------------------------------------------

def test_xi_at_identity():
    s = get_spec(2, 3)
    lbl = e12_label(s)
    assert xi(s, lbl, s.unit) == CycloNumber.rational(s.cyclo_order, 1)


def test_xi_additive_value():
    s = get_spec(2, 3)
    lbl = e12_label(s)
    g = s.add(s.unit, s.basis_vec(2))
    # eps^1 = zeta_3 = zeta_6^2 at the table order m = 6
    assert xi(s, lbl, g) == CycloNumber.root(6, 2)


def test_xi_outside_stabilizer():
    s = get_spec(2, 3)
    lbl = e12_label(s)
    with pytest.raises(NotInStabilizer):
        xi(s, lbl, (2, 1, 0))


def test_xi_multiplicative_exhaustive():
    s = get_spec(2, 3)
    lbl = e12_label(s)
    stab = stabilizer_data(s, lbl.lambda_rep, lbl.e)
    for g1 in sorted(_elements(s, stab)):
        for g2 in sorted(_elements(s, stab)):
            assert xi(s, lbl, s.mul(g1, g2), stab) == \
                xi(s, lbl, g1, stab) * xi(s, lbl, g2, stab)


# ---------------------------------------------------------------------------
# induction
# ---------------------------------------------------------------------------

def test_induce_principal_character():
    s = get_spec(2, 3)
    ctx = InductionContext(s, get_partition(2, 3), 2 ** 17)
    cf = induce(s, principal_label(s), ctx)
    one = CycloNumber.rational(s.cyclo_order, 1)
    assert all(v == one for v in cf)


def test_induce_t22_big_character():
    s = get_spec(2, 2)
    ctx = InductionContext(s, get_partition(2, 2), 2 ** 17)
    cf = induce(s, e12_label(s), ctx)
    idx = ctx.identity
    m = s.cyclo_order
    assert cf[idx] == CycloNumber.rational(m, 1)
    other = 1 - idx
    assert cf[other] == CycloNumber.rational(m, -1)


def test_induce_t23_big_character():
    s = get_spec(2, 3)
    partition = get_partition(2, 3)
    ctx = InductionContext(s, partition, 2 ** 17)
    cf = induce(s, e12_label(s), ctx)
    m = s.cyclo_order
    assert cf[ctx.identity] == CycloNumber.rational(m, 4)
    for rec, v in zip(partition, cf):
        h = s.s_part(rec.representative)
        if h != s.unit:
            assert v.is_zero()
        elif rec.size == 2:
            assert v == CycloNumber.rational(m, -2)


def test_induce_degree_is_index():
    s = get_spec(3, 2)
    ctx = InductionContext(s, get_partition(3, 2), 2 ** 17)
    for lbl in enumerate_labels(s, orbit_census(s, "J*")):
        stab = stabilizer_data(s, lbl.lambda_rep, lbl.e)
        cf = induce(s, lbl, ctx, stab=stab)
        assert cf[ctx.identity].rational_value() == Fraction(group_order(s), stab.size)


def test_induce_independent_of_orbit_representative():
    s = get_spec(2, 3)
    ctx = InductionContext(s, get_partition(2, 3), 2 ** 17)
    orb = orbit(s, (1,), "J*")
    assert len(orb.members) >= 2
    results = []
    for lam in sorted(points_of(s, orb)):
        lbl = SupercharLabel(frozenset({0, 1}), frozenset(), (0, 0), lam)
        results.append(induce(s, lbl, ctx))
    assert all(vals == results[0] for vals in results[1:])
    # and three orbit pairs on a bigger group
    s33 = get_spec(3, 3)
    ctx33 = InductionContext(s33, get_partition(3, 3), 2 ** 17)
    tested = 0
    for lbl in enumerate_labels(s33, orbit_census(s33, "J*")):
        orb = orbit(s33, lbl.lambda_rep, "J*")
        if len(orb.members) < 2:
            continue
        reps = sorted(points_of(s33, orb))[:2]
        vals = []
        for lam in reps:
            alt = SupercharLabel(lbl.e, lbl.f, lbl.theta, lam)
            vals.append(induce(s33, alt, ctx33))
        assert vals[0] == vals[1]
        tested += 1
        if tested == 3:
            break
    assert tested == 3


def _reference_specs():
    yield "T(2,3)", get_spec(2, 3), get_partition(2, 3)
    yield "T(3,2)", get_spec(3, 2), get_partition(3, 2)
    yield "T(2,GF(4))", get_spec(2, 2, 2), get_partition(2, 2, 2)
    for name in ("dual_numbers_q3.json", "triangular_2_3.json"):
        spec = load_algebra_file(os.path.join(DATA, name))
        yield name, spec, superclass_partition(spec)


def test_induce_matches_literal_average_over_g():
    """induce equals (1/|G_lambda|) sum over s in G of xi°(s^-1 g s) at every g."""
    for name, s, partition in _reference_specs():
        ctx = InductionContext(s, partition, 2 ** 17)
        group = g_elements(s)
        inverses = {u: s.invert(u) for u in group}
        m = s.cyclo_order
        for lbl in enumerate_labels(s, orbit_census(s, "J*")):
            stab = stabilizer_data(s, lbl.lambda_rep, lbl.e)
            elements = _elements(s, stab)
            cf = induce(s, lbl, ctx, stab=stab)
            for rec, value in zip(partition, cf):
                for g in points_of(s, rec):
                    total = CycloNumber.zero(m)
                    for u in group:
                        y = s.mul_many(inverses[u], g, u)
                        if y in elements:
                            total = total + xi(s, lbl, y, stab)
                    assert value == total / stab.size, (name, lbl.render(), g)


@pytest.mark.parametrize("name", ["F2[C2xC2]", "F2[C4]", "F2[D8]", "F2[Q8]"])
def test_induce_matches_literal_average_on_group_algebras(name):
    """induce equals (1/|G_lambda|) sum over u in G of xi°(u^-1 g u) at every
    g on the group algebras F_p[P] with |G| <= 2^10, whose generators need
    radical monomials beyond J/J^2; the conjugates of each g are listed once
    and shared by every label."""
    s = group_algebra(name)
    assert group_order(s) <= 2 ** 10
    partition, group = superclass_partition(s), g_elements(s)
    ctx = InductionContext(s, partition, 2 ** 17)
    inverses = {u: s.invert(u) for u in group}
    conjugates = {g: Counter(s.mul_many(inverses[u], g, u) for u in group) for g in group}
    m = s.cyclo_order
    for lbl in enumerate_labels(s, orbit_census(s, "J*")):
        stab = stabilizer_data(s, lbl.lambda_rep, lbl.e)
        xis = {y: xi(s, lbl, y, stab) for y in _elements(s, stab)}
        cf = induce(s, lbl, ctx, stab=stab)
        for rec, value in zip(partition, cf):
            for g in points_of(s, rec):
                total = CycloNumber.zero(m)
                for y, n in conjugates[g].items():
                    if y in xis:
                        total = total + xis[y] * n
                assert value == total / stab.size, (name, lbl.render(), g)


def test_build_table_shares_one_stabilizer_per_orbit(monkeypatch):
    """build_table builds one G_lambda per orbit (lambda, e), and each of its
    rows equals induce with a fresh stabilizer of that row's own label."""
    specs = [("T(3,3)", get_spec(3, 3), get_partition(3, 3)),
             ("T(2,GF(4))", get_spec(2, 2, 2), get_partition(2, 2, 2))]
    for name in ("dual_numbers_q3.json", "triangular_2_3.json"):
        spec = load_algebra_file(os.path.join(DATA, name))
        specs.append((name, spec, superclass_partition(spec)))
    real = sc.stabilizer_data
    for name, s, partition in specs:
        calls = []

        def counted(spec, lam, e):
            calls.append((lam, e))
            return real(spec, lam, e)
        monkeypatch.setattr(sc, "stabilizer_data", counted)
        labels = enumerate_labels(s, orbit_census(s, "J*"))
        ctx = InductionContext(s, partition, 2 ** 17)
        table = build_table(s, labels, ctx)
        monkeypatch.setattr(sc, "stabilizer_data", real)
        assert sorted(calls) == sorted({(l.lambda_rep, l.e) for l in labels}), name
        for lbl, row in zip(labels, table.values):
            fresh = real(s, lbl.lambda_rep, lbl.e)
            assert list(induce(s, lbl, ctx, stab=fresh)) == row, \
                (name, lbl.render())
        if name == "T(3,3)":
            assert (len(labels), len(calls)) == (15, 5)


def test_induce_rejects_value_varying_on_a_superclass():
    s = get_spec(2, 3)
    partition = get_partition(2, 3)
    ctx = InductionContext(s, partition, 2 ** 17)
    lbl = e12_label(s)
    values = induce(s, lbl, ctx)
    idx = ctx.identity
    i, j = next((i, j) for i in range(len(partition)) for j in range(i + 1, len(partition))
                if idx not in (i, j) and values[i] != values[j])
    a, b = partition[i], partition[j]
    merged = SuperclassRecord(a.label, a.members + b.members, min(a.representative,
                                                                  b.representative))
    bad = [r for k, r in enumerate(partition) if k not in (i, j)] + [merged]
    with pytest.raises(NotConstantOnSuperclass):
        induce(s, lbl, InductionContext(s, bad, 2 ** 17))


def test_induction_context_bound():
    s = get_spec(3, 3)
    with pytest.raises(GroupTooLarge):
        InductionContext(s, get_partition(3, 3), 100)


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------

def test_inner_products_t22():
    s = get_spec(2, 2)
    partition = get_partition(2, 2)
    ctx = InductionContext(s, partition, 2 ** 17)
    one = induce(s, principal_label(s), ctx)
    big = induce(s, e12_label(s), ctx)
    m = s.cyclo_order
    gram = inner_products(partition, [one, big], [one, big], 2)
    assert gram[0][0] == gram[1][1] == CycloNumber.rational(m, 1)
    assert gram[0][1].is_zero() and gram[1][0].is_zero()


def test_inner_product_partition_mismatch():
    s = get_spec(2, 2)
    partition = get_partition(2, 2)
    cf = (CycloNumber.rational(2, 1),)
    with pytest.raises(PartitionMismatch):
        inner_products(partition, [cf], [cf], 2)
    ok = induce(s, principal_label(s), InductionContext(s, partition, 2 ** 17))
    for phis, psis in (([ok], [ok, cf]), ([cf, ok], [ok])):
        with pytest.raises(PartitionMismatch):
            inner_products(partition, phis, psis, 2)


def _literal_inner(partition, phi, psi, order):
    """(1/order) sum over K of |K| phi(K) conj(psi(K)) in CycloNumber arithmetic."""
    total = CycloNumber.zero(phi[0].order)
    for rec, a, b in zip(partition, phi, psi):
        total = total + a * b.conj() * len(rec.members)
    return total / order


def _literal_disjoint_detail(partition, funcs, order):
    """The detail of the first nonzero off-diagonal <i,j>, i < j, or None."""
    for i in range(len(funcs)):
        for j in range(i + 1, len(funcs)):
            ip = _literal_inner(partition, funcs[i], funcs[j], order)
            if not ip.is_zero():
                return f"<{i},{j}> = {ip.render()}"
    return None


def _table_specs():
    yield "T(3,3)", get_spec(3, 3), get_partition(3, 3)
    yield "T(4,2)", get_spec(4, 2), get_partition(4, 2)
    yield from _reference_specs()


def test_inner_products_equal_the_literal_sum():
    for name, s, partition in _table_specs():
        labels = enumerate_labels(s, orbit_census(s, "J*"))
        table = build_table(s, labels, InductionContext(s, partition, 2 ** 17))
        # the rows, and one class function with non-integral values
        funcs = [*table.values, [a / 2 + b / 3 for a, b in zip(*table.values[-2:])]]
        gram = inner_products(partition, funcs, funcs, table.group_order)
        assert len(gram) == len(funcs) and all(len(row) == len(funcs) for row in gram)
        for i, phi in enumerate(funcs):
            for j, psi in enumerate(funcs):
                assert gram[i][j] == _literal_inner(partition, phi, psi, table.group_order), \
                    (name, i, j)
    # the N-side: every pair of psi_mu of T(3,3), and their norms
    n_part, chars = n_characters(get_spec(3, 3), 2 ** 17)
    psis = [psi for _, psi, _ in chars]
    gram = inner_products(n_part, psis, psis, 27)
    for i, (_, phi, norm) in enumerate(chars):
        assert norm == gram[i][i]
        for j, psi in enumerate(psis):
            assert gram[i][j] == _literal_inner(n_part, phi, psi, 27), (i, j)
    assert inner_products(n_part, psis[:1], psis, 27) == gram[:1]


def _gram_tables():
    for name in [(3, 3, 1), (2, 2, 2), "zigzag_poset_q3.json", "dual_numbers_q3.json",
                 "triangular_2_3.json"]:
        s = spec_named(name)
        partition = superclass_partition(s)
        yield name, partition, build_table(s, enumerate_labels(s, orbit_census(s, "J*")),
                                           InductionContext(s, partition, 2 ** 17))


def test_hermitian_gram_equals_the_full_double_loop(monkeypatch):
    """inner_products(fs, fs) sums only i <= j, conjugates each distinct
    table value once and hashes no value; every entry, the j > i ones filled
    by conjugation included, equals the literal sum.  A row twisted by zeta
    gives entries that are not real, so the filled half is not all zeros."""
    for name, partition, table in _gram_tables():
        fs = list(table.values)
        calls = Counter()
        real = CycloNumber.conj
        monkeypatch.setattr(CycloNumber, "conj", lambda self: calls.update([self]) or real(self))
        inner_products(partition, fs, fs, table.group_order)
        monkeypatch.undo()
        assert set(calls) == {v for row in table.values for v in row}, name
        assert set(calls.values()) == {1}, name
        zeta = CycloNumber.root(table.cyclo_order, 1)
        fs.append([a * zeta + b for a, b in zip(*table.values[-2:])])
        hashes, real_hash = [], CycloNumber.__hash__
        monkeypatch.setattr(CycloNumber, "__hash__", lambda self: hashes.append(1) or real_hash(self))
        gram = inner_products(partition, fs, fs, table.group_order)
        monkeypatch.undo()
        assert not hashes, name
        full = [[_literal_inner(partition, phi, psi, table.group_order) for psi in fs]
                for phi in fs]
        assert gram == full, name
        assert any(not v.is_rational() for v in gram[-1]), name


def _perturbed(table):
    return CharacterTable(table.row_labels, table.col_labels, table.sizes,
                          [list(row) for row in table.values],
                          table.group_order, table.cyclo_order)


def test_disjoint_fails_on_a_perturbed_value_with_the_literal_detail():
    s, partition, table, ctx = full_table(3, 3)
    idx = ctx.identity
    k, l = [k for k in range(len(partition)) if k != idx][:2]
    one = table.values.index([CycloNumber.rational(table.cyclo_order, 1)] * len(partition))
    # chi_r(K) + 1 alone, and chi_r(K) + |L| with chi_r(L) - |K|, which keeps
    # <1, chi_r> = 0 so that the first failing pair does not involve 1
    for bumps in ({k: 1}, {k: partition[l].size, l: -partition[k].size}):
        bad = _perturbed(table)
        for c, b in bumps.items():
            bad.values[-1][c] = bad.values[-1][c] + b
        want = _literal_disjoint_detail(partition, bad.values, bad.group_order)
        report = {r.name: r for r in axioms_report(s, bad, ctx)}
        assert want is not None and not report["disjoint"].passed
        assert report["disjoint"].details == want
    assert not want.startswith(f"<{one},")


def test_disjoint_fails_on_a_perturbed_class_size():
    s, partition, table, _ = full_table(3, 3)
    k = next(k for k, rec in enumerate(partition) if s.unit not in points_of(s, rec))
    rec = partition[k]      # one member listed twice: the size grows by one
    grown = SuperclassRecord(rec.label, rec.members + rec.members[:1], rec.representative)
    bad = partition[:k] + [grown] + partition[k + 1:]
    want = _literal_disjoint_detail(bad, table.values, table.group_order)
    report = {r.name: r for r in axioms_report(s, table, InductionContext(s, bad, 2 ** 17))}
    assert want is not None and not report["disjoint"].passed
    assert report["disjoint"].details == want


def test_regular_character_fails_on_a_value_turned_by_a_root_of_unity():
    # chi(K) -> zeta^-1 chi(K) keeps every norm and degree; for rational chi(K)
    # the reconstruction is off by a multiple of z alone
    s, partition, table, ctx = full_table(3, 3)
    m = table.cyclo_order
    idx = ctx.identity
    r, k = next((r, k) for r, row in enumerate(table.values) for k, v in enumerate(row)
                if k != idx and v.is_rational() and not v.is_zero())
    bad = _perturbed(table)
    bad.values[r][k] = bad.values[r][k] * CycloNumber.root(m, -1)
    assert not (bad.values[r][k] - table.values[r][k]).coeffs[0]
    report = {r.name: r for r in axioms_report(s, bad, ctx)}
    assert not report["regular-character"].passed
    assert report["regular-character"].details == f"reconstruction off at class {k}"


def test_regular_character_holds_for_a_row_scaled_by_a_third():
    # a = chi(1) / <chi, chi> scales inversely, so a chi and the check are unchanged
    s, partition, table, ctx = full_table(3, 3)
    scaled = _perturbed(table)
    scaled.values[-1] = [v / 3 for v in scaled.values[-1]]
    report = {r.name: r.passed for r in axioms_report(s, scaled, ctx)}
    assert report["regular-character"] and report["disjoint"]


def test_inner_products_make_no_cyclo_multiplication(monkeypatch):
    """The kernel multiplies Python ints only; axioms_report makes fewer
    CycloNumber products than one per table entry."""
    s, partition, table, ctx = full_table(3, 3)
    real = CycloNumber.__mul__
    calls = []

    def counted(self, other):
        calls.append(1)
        return real(self, other)
    monkeypatch.setattr(CycloNumber, "__mul__", counted)
    monkeypatch.setattr(CycloNumber, "__rmul__", counted)
    inner_products(partition, table.values, table.values, table.group_order)
    assert not calls
    assert all(r.passed for r in axioms_report(s, table, ctx))
    assert len(calls) < len(table.values) * len(partition)


# ---------------------------------------------------------------------------
# label enumeration and the table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_label_count_matches_partition(n, p):
    s = get_spec(n, p)
    labels = enumerate_labels(s, orbit_census(s, "J*"))
    assert len(labels) == len(get_partition(n, p))
    assert len(set(labels)) == len(labels)
    for lbl in labels:
        assert not (lbl.e & lbl.f)
        for i, exp in enumerate(lbl.theta):
            if i in lbl.f:
                assert exp % s.block_orders[i] != 0
            else:
                assert exp == 0


def test_table_exports():
    s = get_spec(2, 2)
    labels = enumerate_labels(s, orbit_census(s, "J*"))
    table = build_table(s, labels, InductionContext(s, get_partition(2, 2), 2 ** 17))
    csv_text = table.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("class,")
    assert lines[1].startswith("size,")
    assert len(lines) == 2 + len(labels)
    data = table.to_json()
    assert data["group_order"] == 2
    assert len(data["rows"]) == 2 and len(data["columns"]) == 2


def test_equal_induced_values_are_one_object():
    """induce interns every value on its InductionContext, so equal entries
    of a table (and the constancy check's comparisons) are identities."""
    _, _, table, _ = full_table(3, 3)
    first = {}
    for row in table.values:
        for v in row:
            assert first.setdefault(v, v) is v
    assert len(first) < sum(map(len, table.values))


def test_table_deterministic_across_runs():
    s = get_spec(2, 3)
    partition = get_partition(2, 3)
    labels = enumerate_labels(s, orbit_census(s, "J*"))
    t1 = build_table(s, labels, InductionContext(s, partition, 2 ** 17))
    t2 = build_table(s, labels, InductionContext(s, partition, 2 ** 17))
    assert t1.to_csv() == t2.to_csv()


# ---------------------------------------------------------------------------
# axiom report
# ---------------------------------------------------------------------------

def full_table(n, p):
    """The spec, partition, induced table and run context of T(n, p)."""
    s = get_spec(n, p)
    partition = get_partition(n, p)
    labels = enumerate_labels(s, orbit_census(s, "J*"))
    ctx = InductionContext(s, partition, 2 ** 17)
    return s, partition, build_table(s, labels, ctx), ctx


def test_axioms_pass_t22():
    s, partition, table, ctx = full_table(2, 2)
    report = axioms_report(s, table, ctx)
    assert all(r.passed for r in report)
    names = [r.name for r in report]
    assert names == ["S1", "S2", "S3", "disjoint", "conjugacy-refinement",
                     "regular-character"]


def test_axioms_negative_control():
    s, partition, table, ctx = full_table(2, 2)
    bad = CharacterTable(table.row_labels, table.col_labels, table.sizes,
                         [list(row) for row in table.values],
                         table.group_order, table.cyclo_order)
    bad.values[1][1] = bad.values[1][1] + 1
    report = {r.name: r.passed for r in axioms_report(s, bad, ctx)}
    assert not (report["disjoint"] and report["regular-character"])


def test_conjugacy_refinement_fails_on_a_superclass_split_inside_a_class():
    """A superclass cut in two through a conjugacy class, its table column
    repeated: the class meets two superclasses, so the superclasses meet one
    class too many in all; of the other checks only S1 (one column more than
    rows) fails."""
    s, partition, table, ctx = full_table(3, 2)
    k, rec = next((k, rec) for k, rec in enumerate(partition)
                  if len(ctx.classes[ctx.class_of[rec.members[0]]]) > 1)
    split = partition[:k] + [rec._replace(members=rec.members[:1]),
                             rec._replace(members=rec.members[1:])] + partition[k + 1:]

    def twice(row):     # column k repeated
        return row[:k + 1] + row[k:]
    bad = table._replace(col_labels=twice(table.col_labels), sizes=[r.size for r in split],
                         values=[twice(row) for row in table.values])
    report = {r.name: r for r in axioms_report(s, bad, InductionContext(s, split, 2 ** 17))}
    assert [n for n, r in report.items() if not r.passed] == ["S1", "conjugacy-refinement"]
    assert report["conjugacy-refinement"].details == f"{len(ctx.classes)} conjugacy classes"


# ---------------------------------------------------------------------------
# characters of N and the restriction decomposition
# ---------------------------------------------------------------------------

def n_values(spec, mu):
    """The N-supercharacter of the N x N-orbit of mu, as {g: value} over N;
    an N-superclass record holds the x of its elements 1 + x."""
    n_part, chars = n_characters(spec, 2 ** 17)
    psi = next(psi for orb, psi, _ in chars if mu in points_of(spec, orb))
    return {spec.add(spec.unit, x): v
            for rec, v in zip(n_part, psi) for x in points_of(spec, rec)}


def test_n_supercharacter_trivial():
    s = get_spec(2, 3)
    vals = n_values(s, (0,))
    one = CycloNumber.rational(s.cyclo_order, 1)
    assert len(vals) == 3 and all(v == one for v in vals.values())


def test_n_supercharacter_abelian_line():
    s = get_spec(2, 3)
    vals = n_values(s, (1,))
    m = s.cyclo_order
    e12 = s.basis_vec(2)
    assert vals[s.unit] == CycloNumber.rational(m, 1)
    assert vals[s.add(s.unit, e12)] == CycloNumber.root(m, m // 3)
    assert vals[s.add(s.unit, s.smul(2, e12))] == CycloNumber.root(m, 2 * m // 3)


def test_n_supercharacter_heisenberg():
    s = get_spec(3, 2)
    mu = (0, 1, 0)  # E13*
    vals = n_values(s, mu)
    m = s.cyclo_order
    e13 = s.basis_vec(4)
    e12 = s.basis_vec(3)
    assert vals[s.unit] == CycloNumber.rational(m, 2)
    assert vals[s.add(s.unit, e13)] == CycloNumber.rational(m, -2)
    assert vals[s.add(s.unit, e12)].is_zero()


def _literal_specs():
    yield "T(3,3)", get_spec(3, 3), get_partition(3, 3)
    yield from _reference_specs()


def _literal_classes(s, group):
    """{u^-1 g u : u in group} for every g of group."""
    inverses = {u: s.invert(u) for u in group}
    classes, seen = set(), set()
    for g in group:
        if g not in seen:
            cls = frozenset(s.mul_many(inverses[u], g, u) for u in group)
            seen |= cls
            classes.add(cls)
    return classes


def test_classes_of_g_and_n_equal_literal_conjugation():
    # the classes of G only: no step computes the conjugacy classes of N
    for name, s, _ in _literal_specs():
        elements = g_elements(s)
        ctx = InductionContext(s, superclass_partition(s), 2 ** 17)
        assert {points_of(s, c) for c in ctx.classes} == _literal_classes(s, elements), name
        assert ctx.order == len(elements) and len(ctx.class_of) == len(elements)


def test_n_characters_match_literal_average_over_n():
    """psi_mu(g) = (1/|N_{mu,right}|) sum over u in N of xi°(u^-1 g u) at every g in N,
    with J_{mu,right} = {u in J : mu(u v) = 0 for every v in J} found by enumeration,
    and <psi, psi>_N summed over the elements of N; also on T(3,2), T(2,GF(4))
    and T(4,2) (|N| <= 64)."""
    small = [(f"T{key}", get_spec(*key), None) for key in ((3, 2, 1), (2, 2, 2), (4, 2, 1))]
    for name, s, _ in [*_literal_specs(), *small]:
        F, m = s.field, s.cyclo_order
        radical = j_vectors(s)
        group = [s.add(s.unit, x) for x in radical]
        inverses = {u: s.invert(u) for u in group}
        # every u^-1 g u - 1 and every u v, computed once for all mu
        conjugates = {g: [s.sub(s.mul_many(inverses[u], g, u), s.unit) for u in group]
                      for g in group}
        products = [[s.mul(u, v) for v in radical] for u in radical]
        n_part, chars = n_characters(s, 2 ** 17)
        elements = [[s.add(s.unit, x) for x in points_of(s, rec)] for rec in n_part]
        assert sorted(g for gs in elements for g in gs) == sorted(group)
        for orb, psi, norm in chars:
            mu = orb.representative
            right = {s.j_coords(u) for u, row in zip(radical, products)
                     if all(s.form_eval(mu, uv) == 0 for uv in row)}
            square = CycloNumber.zero(m)
            for gs, value in zip(elements, psi):
                for g in gs:
                    exps = Counter(additive_char_exponent(F, s.form_eval(mu, y), m)
                                   for y in conjugates[g] if s.j_coords(y) in right)
                    total = CycloNumber.zero(m)
                    for exp, count in exps.items():
                        total = total + CycloNumber.root(m, exp) * count
                    assert value == total / len(right), (name, mu, g)
                    square = square + value * value.conj()
            assert psi[0] == len(group) // len(right), (name, mu)
            assert norm == square / len(group), (name, mu)


def test_n_characters_neither_induce_nor_take_inner_products(monkeypatch):
    """The orbit sums need no conjugacy classes of N, no stabilizer, no
    induction and no Gram call."""
    s = get_spec(3, 3)
    calls = Counter()
    for name in ("InductionContext", "stabilizer_data", "induce", "inner_products"):
        real = getattr(sc, name)
        monkeypatch.setattr(sc, name, lambda *a, _n=name, _f=real, **k:
                            calls.update([_n]) or _f(*a, **k))
    n_characters(s, 2 ** 17)
    assert calls == Counter()


def test_a_second_n_characters_call_partitions_nothing(monkeypatch):
    """n_characters reads the orbits of 1 x (N x N) on J and J* from
    space_orbits, which partitions each space once per spec."""
    s = tri.make_triangular(3, get_field(3))    # fresh: nothing partitioned yet
    first = n_characters(s, 2 ** 17)
    calls, real = [], algebra.orbit_partition
    for mod in (algebra, sc):
        monkeypatch.setattr(mod, "orbit_partition", lambda *a: calls.append(1) or real(*a))
    assert n_characters(s, 2 ** 17) == first
    assert calls == []


def test_n_characters_respect_the_bound():
    s = get_spec(3, 3)
    with pytest.raises(GroupTooLarge, match="27 exceeds bound 26"):
        n_characters(s, 26)
    n_part, chars = n_characters(s, 27)
    assert sum(len(rec.members) for rec in n_part) == 27


def test_classes_and_n_characters_compile_no_map_per_element(monkeypatch):
    """One conjugation per torus generator and part of the certified
    generators for G (not one per element, |G| = 216), the torus ones compiled
    once by torus_conjugations, and for n_characters one sandwich on J and
    one rho*_tau per sandwich pair (a, 1) or (1, a) and no conjugation."""
    s = tri.make_triangular(3, get_field(3))
    torus, parts = certified_generators(s)      # certify before counting
    partition = superclass_partition(s)
    real = algebra.sandwich_map
    calls = []
    for mod in (algebra, superclasses, sc):
        monkeypatch.setattr(mod, "sandwich_map", lambda *a, **k: calls.append(1) or real(*a, **k))
    InductionContext(s, partition, 2 ** 17)
    assert len(calls) == len(set(torus) | set(parts)) < group_order(s)
    calls.clear()
    InductionContext(s, partition, 2 ** 17)     # the torus maps are built already
    assert len(calls) == len(parts)
    calls.clear()
    n_characters(s, 2 ** 17)
    n_pairs = 2 * len(parts)
    assert len(calls) == 2 * n_pairs < group_order(s)


def test_nn_orbit_count_t32():
    s = get_spec(3, 2)
    orbits = space_orbits(s, "J*", torus=False)
    total = sum(len(o.members) for o in orbits)
    assert total == 2 ** 3


def _restriction_setup(n, p):
    s = get_spec(n, p)
    ctx = InductionContext(s, get_partition(n, p), 2 ** 17)
    labels = enumerate_labels(s, orbit_census(s, "J*"))
    return s, ctx, labels, build_table(s, labels, ctx)


def _restrict(s, labels, table, ctx, rows=None):
    """restriction_report on labels with the given table rows (default the
    table's own)."""
    table = table._replace(values=table.values if rows is None else rows)
    return restriction_report(s, labels, table, ctx, 2 ** 17)


def _failed_at(lbl):
    return CheckResult("restriction", False, f"decomposition failed for {lbl.render()}")


@pytest.mark.parametrize("n,p", [(2, 3), (3, 2)])
def test_restriction_decomposition(n, p):
    s, ctx, labels, table = _restriction_setup(n, p)
    assert _restrict(s, labels, table, ctx) == \
        CheckResult("restriction", True, f"{len(labels)} characters restricted to 1+J")
    for lbl, row in zip(labels, table.values):
        assert _restrict(s, [lbl], table, ctx, [row]).passed, lbl.render()


@pytest.mark.parametrize("n,p", [(2, 3), (3, 2)])
def test_restriction_rejects_a_perturbed_value(n, p):
    s, ctx, labels, table = _restriction_setup(n, p)
    # a superclass other than {1} that meets N, so that Res_N sees the change
    ci = next(i for i, rec in enumerate(ctx.partition)
              if i != ctx.identity and s.s_part(rec.representative) == s.unit)
    for r, lbl in enumerate(labels):
        rows = [list(row) for row in table.values]
        rows[r][ci] = rows[r][ci] + 1
        # every other row passes, so the report stops at this one
        assert _restrict(s, labels, table, ctx, rows) == _failed_at(lbl)


def test_restriction_rejects_a_lambda_outside_its_torus_conjugates():
    s, ctx, labels, table = _restriction_setup(2, 3)
    one = table.values[labels.index(principal_label(s))]
    big = table.values[labels.index(e12_label(s))]
    assert _restrict(s, [principal_label(s), e12_label(s)], table, ctx, [one, big]).passed
    # the two rows swapped: each decomposes, but on the other lambda's orbits
    assert _restrict(s, [e12_label(s)], table, ctx, [one]) == _failed_at(e12_label(s))
    assert _restrict(s, [principal_label(s)], table, ctx, [big]) == \
        _failed_at(principal_label(s))


@pytest.mark.parametrize("n,p", [(2, 3), (3, 2)])
def test_restriction_rejects_a_negated_row(n, p):
    s, ctx, labels, table = _restriction_setup(n, p)
    for r, lbl in enumerate(labels):
        rows = list(table.values)
        rows[r] = [v * -1 for v in rows[r]]
        assert _restrict(s, labels, table, ctx, rows) == _failed_at(lbl)


@pytest.mark.parametrize("n,p", [(2, 3), (3, 2)])
def test_restriction_rebuild_rejects_a_perturbed_value_and_a_negated_row(n, p, monkeypatch):
    """With the coefficients pinned to those of the true rows, every
    coefficient test passes, so only the integer-row rebuild of
    sum c_mu psi_mu can see a perturbed value or a negated row."""
    s, ctx, labels, table = _restriction_setup(n, p)
    real, gram = sc.inner_products, []

    def pinned(*args):
        if not gram:
            gram.append(real(*args))
        return gram[0]
    monkeypatch.setattr(sc, "inner_products", pinned)
    assert _restrict(s, labels, table, ctx).passed
    ci = next(i for i, rec in enumerate(ctx.partition)
              if i != ctx.identity and s.s_part(rec.representative) == s.unit)
    for r, lbl in enumerate(labels):
        perturbed = [list(row) for row in table.values]
        perturbed[r][ci] = perturbed[r][ci] + 1
        negated = list(table.values)
        negated[r] = [-v for v in negated[r]]
        for rows in (perturbed, negated):
            assert _restrict(s, labels, table, ctx, rows) == _failed_at(lbl)


def test_restriction_rejects_a_missing_n_supercharacter(monkeypatch):
    # Res_N of the principal character is psi_0 alone, which is orthogonal to
    # every other psi: without psi_0 all coefficients are 0 and only the
    # reconstruction sees the gap
    s, ctx, labels, table = _restriction_setup(3, 2)
    n_part, chars = n_characters(s, 2 ** 17)
    rest = [c for c in chars if c[0].representative != (0, 0, 0)]
    assert len(rest) == len(chars) - 1
    one = [CycloNumber.rational(s.cyclo_order, 1)] * len(n_part)
    nums = inner_products(n_part, [psi for _, psi, _ in rest], [one], 2 ** 3)
    assert not any(num.rational_value() for (num,) in nums)
    monkeypatch.setattr(sc, "n_characters", lambda spec, bound: (n_part, rest))
    row = table.values[labels.index(principal_label(s))]
    assert _restrict(s, [principal_label(s)], table, ctx, [row]) == \
        _failed_at(principal_label(s))


def test_restriction_rejects_an_n_superclass_straddling_two_superclasses():
    s, ctx, labels, table = _restriction_setup(3, 2)
    n_part, _ = n_characters(s, 2 ** 17)
    orb = next(rec for rec in n_part if len(rec.members) > 1)
    one_plus = s.add(s.unit, orb.representative)    # the record holds x of 1 + x
    partition = ctx.partition
    k, rec = next((k, rec) for k, rec in enumerate(partition) if one_plus in points_of(s, rec))
    g = s.add(s.unit, max(points_of(s, orb)))
    rest = points_of(s, rec) - {g}
    split = [SuperclassRecord(rec.label, array("I", [box(s, "G").number(g)]), g),
             SuperclassRecord(rec.label, array("I", sorted(map(box(s, "G").number, rest))),
                              min(rest))]
    bad = partition[:k] + split + partition[k + 1:]
    rows = [row[:k + 1] + row[k:] for row in table.values]
    with pytest.raises(PartitionMismatch, match=re.escape(str(one_plus))):
        _restrict(s, labels, table, InductionContext(s, bad, 2 ** 17), rows)
    # without the superclass, the N-superclass lies in none
    rows = [row[:k] + row[k + 1:] for row in table.values]
    missing = InductionContext(s, partition[:k] + partition[k + 1:], 2 ** 17)
    with pytest.raises(PartitionMismatch, match=re.escape(str(one_plus))):
        _restrict(s, labels, table, missing, rows)


def _torus_conjugate_orbits(spec, lam, chars) -> set:
    """Indices of the N x N-orbits that hold a torus conjugate lambda o c_t,
    c_t(y) = t^-1 y t: the literal loop over every t in H."""
    out = set()
    for t in h_elements(spec):
        t_inv = spec.invert(t)
        conj = tuple(spec.form_eval(lam, spec.mul_many(t_inv, spec.basis_vec(r), t))
                     for r in spec.radical_basis)
        out |= {oi for oi, (orb, _, _) in enumerate(chars) if conj in points_of(spec, orb)}
    return out


@pytest.mark.parametrize("name", [(2, 3, 1), (3, 2, 1), (3, 3, 1), (2, 2, 2),
                                  "dual_numbers_q3.json", "triangular_2_3.json",
                                  "zigzag_poset_q3.json"], ids=str)
def test_restriction_support_is_the_tilde_orbit_of_lambda(name):
    """The N x N-orbits inside G~ lambda are exactly those of the torus
    conjugates of lambda, for every label."""
    s = spec_named(name)
    _, chars = n_characters(s, 2 ** 17)
    for lbl in enumerate_labels(s, orbit_census(s, "J*")):
        members = points_of(s, orbit(s, lbl.lambda_rep, "J*"))
        support = {oi for oi, (orb, _, _) in enumerate(chars) if orb.representative in members}
        assert support == _torus_conjugate_orbits(s, lbl.lambda_rep, chars), lbl.render()


def test_restriction_pass_enumerates_no_h_and_makes_one_gram_call(monkeypatch):
    s, ctx, labels, table = _restriction_setup(3, 3)
    calls = Counter()

    def counted(name, fn):
        return lambda *a, **k: calls.update([name]) or fn(*a, **k)

    real_n_characters = sc.n_characters

    def then_count(*args):
        out = real_n_characters(*args)
        monkeypatch.setattr(sc, "inner_products", counted("inner_products", sc.inner_products))
        monkeypatch.setattr(algebra, "h_elements", counted("h_elements", algebra.h_elements))
        monkeypatch.setattr(algebra.AlgebraSpec, "invert",
                            counted("invert", algebra.AlgebraSpec.invert))
        return out
    monkeypatch.setattr(sc, "n_characters", then_count)
    assert restriction_report(s, labels, table, ctx, 2 ** 17).passed
    assert calls == Counter(inner_products=1)


@pytest.mark.parametrize("name", [(3, 3, 1), "zigzag_poset_q3.json"], ids=str)
def test_induce_reduces_each_distinct_class_value_once(name, monkeypatch):
    """One from_int_poly call per distinct (|cl|, counts of xi's values on
    cl /\\ G_lambda) pair, with the counts read off xi itself."""
    s = spec_named(name)
    ctx = InductionContext(s, superclass_partition(s), 2 ** 17)
    real = CycloNumber.from_int_poly
    calls = []
    monkeypatch.setattr(CycloNumber, "from_int_poly",
                        staticmethod(lambda *a: calls.append(a) or real(*a)))
    fewer = 0
    for label in enumerate_labels(s, orbit_census(s, "J*")):
        stab = stabilizer_data(s, label.lambda_rep, label.e)
        members = _elements(s, stab)
        keys = {(len(cls), frozenset(Counter(xi(s, label, y, stab)
                                             for y in points_of(s, cls) if y in members).items()))
                for cls in ctx.classes}
        calls.clear()
        induce(s, label, ctx, stab)
        assert len(calls) == len(keys), label.render()
        fewer += len(keys) < len(ctx.classes)
    assert fewer     # some classes share a key, so a call per class is too many


def test_induce_rejects_a_wrong_degree():
    """With G_lambda = 1 + J moved to the coset diag(2, 1) + J, which misses
    the identity, the induced degree is 0, not |G| / |G_lambda|."""
    s = get_spec(2, 3)
    label = SupercharLabel(frozenset({0, 1}), frozenset(), (0, 0), (1,))
    stab = stabilizer_data(s, label.lambda_rep, label.e)
    assert stab.h_part == (s.unit,)
    stab = stab._replace(h_part=(s.add(s.unit, s.basis_vec(0)),))
    with pytest.raises(NotInStabilizer, match="degree"):
        induce(s, label, InductionContext(s, get_partition(2, 3), 2 ** 17), stab)


def test_stabilizer_data_rejects_a_wrong_h_part(monkeypatch):
    """H_{e'} built from a block_component that never matches is empty, while
    the identity fixes lambda on both sides."""
    s = get_spec(2, 3)
    monkeypatch.setattr(sc, "block_component", lambda spec, h, i: None)
    with pytest.raises(NotInStabilizer, match="H_right"):
        stabilizer_data(s, (1,), frozenset({0, 1}))
