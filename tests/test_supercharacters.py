import os
import re
from fractions import Fraction

import pytest

from supchar import algebra, superclasses
from supchar import supercharacters as sc
from supchar import triangular as tri
from supchar.algebra import (
    certified_generators,
    group_order,
    load_algebra_file,
    orbit,
    orbit_census,
)
from supchar.cyclo import CycloNumber
from supchar.errors import (
    GroupTooLarge,
    NotConstantOnSuperclass,
    NotInStabilizer,
    NotRegular,
    PartitionMismatch,
)
from supchar.fields import additive_char_exponent
from supchar.superclasses import (
    SuperclassRecord,
    identity_index,
    superclass_index,
    superclass_partition,
)
from supchar.supercharacters import (
    CharacterTable,
    ClassFunction,
    InductionContext,
    SupercharLabel,
    axioms_report,
    build_table,
    enumerate_labels,
    induce,
    inner_product,
    inner_products,
    n_characters,
    nn_orbits,
    restriction_check,
    stabilizer_data,
    xi,
)

from conftest import g_elements, get_field, get_partition, get_spec

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "supchar", "data")


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
        assert len(stab.j_right) == p      # J_right = J since J^2 = 0
        assert len(stab.g_lambda) == 1     # H_{e'} = {1}
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
    radical = s.j_vectors()
    right = [u for u in radical if all(s.form_eval(lam, s.mul(u, v)) == 0 for v in radical)]
    return {s.mul(h, s.add(s.unit, u)) for h in hs for u in right}


def _elements(stab):
    """The elements of G_lambda (or N_{mu,right}), over every h."""
    return {g for part in stab.g_lambda.values() for g in part}


def _assert_recorded_exponents(s, stab):
    """Each h (1 + u) carries the exponent of eps^{lam(h u)}, under its own h."""
    m = s.cyclo_order
    for h, part in stab.g_lambda.items():
        for g, t in part.items():
            assert s.s_part(g) == h
            assert t == additive_char_exponent(s.field, s.form_eval(stab.lam, g), m)


def test_g_lambda_and_n_right_equal_the_literal_products():
    for name, s, _ in _literal_specs():
        for lbl in enumerate_labels(s, orbit_census(s, "J*")):
            stab = stabilizer_data(s, lbl.lambda_rep, lbl.e)
            want = _literal_right_stabilizer(s, lbl.lambda_rep, list(stab.g_lambda))
            assert _elements(stab) == want and stab.size == len(want), (name, lbl.render())
            _assert_recorded_exponents(s, stab)
        for orb in nn_orbits(s):
            mu = orb.representative
            stab = sc.right_stabilizer(s, mu, [s.unit])
            assert _elements(stab) == _literal_right_stabilizer(s, mu, [s.unit]), (name, mu)
            _assert_recorded_exponents(s, stab)


def test_right_stabilizer_rejects_h_moving_j_right(monkeypatch):
    # lam = E13* on T(3,3) in the corner of blocks 1, 3: J_right = <E13, E23>
    # and H_{e'} holds diag(1, 2, 1).  A left multiplication compiled wrongly,
    # every basis vector to E12, moves J_right off itself.
    s = get_spec(3, 3)
    e12 = s.radical_basis[0]

    def broken(spec, u, w, indices=None):
        return algebra.LinearMap(spec.field, [((e12, 1),)] * spec.dim, spec.zero())
    monkeypatch.setattr(sc, "sandwich_map", broken)
    with pytest.raises(NotInStabilizer):
        stabilizer_data(s, (0, 1, 0), frozenset({0, 2}))


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
    for g1 in sorted(_elements(stab)):
        for g2 in sorted(_elements(stab)):
            assert xi(s, lbl, s.mul(g1, g2), stab) == \
                xi(s, lbl, g1, stab) * xi(s, lbl, g2, stab)


# ---------------------------------------------------------------------------
# induction
# ---------------------------------------------------------------------------

def test_induce_principal_character():
    s = get_spec(2, 3)
    partition = get_partition(2, 3)
    ctx = InductionContext(s, 2 ** 17)
    cf = induce(s, principal_label(s), partition, ctx)
    one = CycloNumber.rational(s.cyclo_order, 1)
    assert all(v == one for v in cf.values)


def test_induce_t22_big_character():
    s = get_spec(2, 2)
    partition = get_partition(2, 2)
    ctx = InductionContext(s, 2 ** 17)
    cf = induce(s, e12_label(s), partition, ctx)
    idx = identity_index(s, partition)
    m = s.cyclo_order
    assert cf.values[idx] == CycloNumber.rational(m, 1)
    other = 1 - idx
    assert cf.values[other] == CycloNumber.rational(m, -1)


def test_induce_t23_big_character():
    s = get_spec(2, 3)
    partition = get_partition(2, 3)
    ctx = InductionContext(s, 2 ** 17)
    cf = induce(s, e12_label(s), partition, ctx)
    m = s.cyclo_order
    assert cf.degree == CycloNumber.rational(m, 4)
    for rec, v in zip(partition, cf.values):
        h = s.s_part(rec.representative)
        if h != s.unit:
            assert v.is_zero()
        elif rec.size == 2:
            assert v == CycloNumber.rational(m, -2)


def test_induce_degree_is_index():
    s = get_spec(3, 2)
    partition = get_partition(3, 2)
    ctx = InductionContext(s, 2 ** 17)
    for lbl in enumerate_labels(s, orbit_census(s, "J*")):
        stab = stabilizer_data(s, lbl.lambda_rep, lbl.e)
        cf = induce(s, lbl, partition, ctx, stab=stab)
        assert cf.degree.rational_value() == Fraction(group_order(s), stab.size)


def test_induce_independent_of_orbit_representative():
    s = get_spec(2, 3)
    partition = get_partition(2, 3)
    ctx = InductionContext(s, 2 ** 17)
    orb = orbit(s, (1,), "rho_dual")
    assert len(orb.members) >= 2
    results = []
    for lam in sorted(orb.members):
        lbl = SupercharLabel(frozenset({0, 1}), frozenset(), (0, 0), lam)
        results.append(induce(s, lbl, partition, ctx).values)
    assert all(vals == results[0] for vals in results[1:])
    # and three orbit pairs on a bigger group
    s33 = get_spec(3, 3)
    partition33 = get_partition(3, 3)
    ctx33 = InductionContext(s33, 2 ** 17)
    tested = 0
    for lbl in enumerate_labels(s33, orbit_census(s33, "J*")):
        orb = orbit(s33, lbl.lambda_rep, "rho_dual")
        if len(orb.members) < 2:
            continue
        reps = sorted(orb.members)[:2]
        vals = []
        for lam in reps:
            alt = SupercharLabel(lbl.e, lbl.f, lbl.theta, lam)
            vals.append(induce(s33, alt, partition33, ctx33).values)
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
        ctx = InductionContext(s, 2 ** 17)
        group = g_elements(s)
        inverses = {u: s.invert(u) for u in group}
        m = s.cyclo_order
        for lbl in enumerate_labels(s, orbit_census(s, "J*")):
            stab = stabilizer_data(s, lbl.lambda_rep, lbl.e)
            elements = _elements(stab)
            cf = induce(s, lbl, partition, ctx, stab=stab)
            for rec, value in zip(partition, cf.values):
                for g in rec.members:
                    total = CycloNumber.zero(m)
                    for u in group:
                        y = s.mul_many(inverses[u], g, u)
                        if y in elements:
                            total = total + xi(s, lbl, y, stab)
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
        ctx = InductionContext(s, 2 ** 17)
        table = build_table(s, partition, labels, 2 ** 17, ctx=ctx)
        monkeypatch.setattr(sc, "stabilizer_data", real)
        assert sorted(calls) == sorted({(l.lambda_rep, l.e) for l in labels}), name
        for lbl, row in zip(labels, table.values):
            fresh = real(s, lbl.lambda_rep, lbl.e)
            assert list(induce(s, lbl, partition, ctx, stab=fresh).values) == row, \
                (name, lbl.render())
        if name == "T(3,3)":
            assert (len(labels), len(calls)) == (15, 5)


def test_induce_rejects_value_varying_on_a_superclass():
    s = get_spec(2, 3)
    partition = get_partition(2, 3)
    ctx = InductionContext(s, 2 ** 17)
    lbl = e12_label(s)
    values = induce(s, lbl, partition, ctx).values
    idx = identity_index(s, partition)
    i, j = next((i, j) for i in range(len(partition)) for j in range(i + 1, len(partition))
                if idx not in (i, j) and values[i] != values[j])
    a, b = partition[i], partition[j]
    merged = SuperclassRecord(a.label, a.members | b.members, min(a.representative,
                                                                  b.representative))
    bad = [r for k, r in enumerate(partition) if k not in (i, j)] + [merged]
    with pytest.raises(NotConstantOnSuperclass):
        induce(s, lbl, bad, ctx)


def test_induction_context_bound():
    s = get_spec(3, 3)
    with pytest.raises(GroupTooLarge):
        InductionContext(s, 100)


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------

def test_inner_products_t22():
    s = get_spec(2, 2)
    partition = get_partition(2, 2)
    ctx = InductionContext(s, 2 ** 17)
    one = induce(s, principal_label(s), partition, ctx)
    big = induce(s, e12_label(s), partition, ctx)
    m = s.cyclo_order
    assert inner_product(partition, one, one, 2) == CycloNumber.rational(m, 1)
    assert inner_product(partition, big, big, 2) == CycloNumber.rational(m, 1)
    assert inner_product(partition, one, big, 2).is_zero()


def test_inner_product_partition_mismatch():
    s = get_spec(2, 2)
    partition = get_partition(2, 2)
    cf = ClassFunction((CycloNumber.rational(2, 1),), CycloNumber.rational(2, 1))
    with pytest.raises(PartitionMismatch):
        inner_product(partition, cf, cf, 2)
    ok = induce(s, principal_label(s), partition, InductionContext(s, 2 ** 17))
    for phis, psis in (([ok], [ok, cf]), ([cf, ok], [ok])):
        with pytest.raises(PartitionMismatch):
            inner_products(partition, phis, psis, 2)


def _literal_inner(partition, phi, psi, order):
    """(1/order) sum over K of |K| phi(K) conj(psi(K)) in CycloNumber arithmetic."""
    total = CycloNumber.zero(phi.values[0].order)
    for rec, a, b in zip(partition, phi.values, psi.values):
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
        table = build_table(s, partition, labels, 2 ** 17)
        funcs = [ClassFunction(tuple(row), None) for row in table.values]
        # and one class function with non-integral values
        funcs.append(ClassFunction(tuple(a / 2 + b / 3 for a, b in zip(*table.values[-2:])),
                                   None))
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


def _perturbed(table):
    return CharacterTable(table.row_labels, table.col_labels, table.sizes,
                          [list(row) for row in table.values],
                          table.group_order, table.cyclo_order)


def test_disjoint_fails_on_a_perturbed_value_with_the_literal_detail():
    s, partition, table, classes = full_table(3, 3)
    idx = identity_index(s, partition)
    k, l = [k for k in range(len(partition)) if k != idx][:2]
    one = table.values.index([CycloNumber.rational(table.cyclo_order, 1)] * len(partition))
    # chi_r(K) + 1 alone, and chi_r(K) + |L| with chi_r(L) - |K|, which keeps
    # <1, chi_r> = 0 so that the first failing pair does not involve 1
    for bumps in ({k: 1}, {k: partition[l].size, l: -partition[k].size}):
        bad = _perturbed(table)
        for c, b in bumps.items():
            bad.values[-1][c] = bad.values[-1][c] + b
        funcs = [ClassFunction(tuple(row), None) for row in bad.values]
        want = _literal_disjoint_detail(partition, funcs, bad.group_order)
        report = {r.name: r for r in axioms_report(s, bad, partition, classes)}
        assert want is not None and not report["disjoint"].passed
        assert report["disjoint"].details == want
    assert not want.startswith(f"<{one},")


def test_disjoint_fails_on_a_perturbed_class_size():
    s, partition, table, classes = full_table(3, 3)
    k = next(k for k, rec in enumerate(partition) if s.unit not in rec.members)
    rec = partition[k]
    grown = SuperclassRecord(rec.label, rec.members | {("not in G",)}, rec.representative)
    bad = partition[:k] + [grown] + partition[k + 1:]
    funcs = [ClassFunction(tuple(row), None) for row in table.values]
    want = _literal_disjoint_detail(bad, funcs, table.group_order)
    report = {r.name: r for r in axioms_report(s, table, bad, classes)}
    assert want is not None and not report["disjoint"].passed
    assert report["disjoint"].details == want


def test_regular_character_fails_on_a_value_turned_by_a_root_of_unity():
    # chi(K) -> zeta^-1 chi(K) keeps every norm and degree; for rational chi(K)
    # the reconstruction is off by a multiple of z alone
    s, partition, table, classes = full_table(3, 3)
    m = table.cyclo_order
    idx = identity_index(s, partition)
    r, k = next((r, k) for r, row in enumerate(table.values) for k, v in enumerate(row)
                if k != idx and v.is_rational() and not v.is_zero())
    bad = _perturbed(table)
    bad.values[r][k] = bad.values[r][k] * CycloNumber.root(m, -1)
    assert not (bad.values[r][k] - table.values[r][k]).coeffs[0]
    report = {r.name: r for r in axioms_report(s, bad, partition, classes)}
    assert not report["regular-character"].passed
    assert report["regular-character"].details == f"reconstruction off at class {k}"


def test_regular_character_holds_for_a_row_scaled_by_a_third():
    # a = chi(1) / <chi, chi> scales inversely, so a chi and the check are unchanged
    s, partition, table, classes = full_table(3, 3)
    scaled = _perturbed(table)
    scaled.values[-1] = [v / 3 for v in scaled.values[-1]]
    report = {r.name: r.passed for r in axioms_report(s, scaled, partition, classes)}
    assert report["regular-character"] and report["disjoint"]


def test_inner_products_make_no_cyclo_multiplication(monkeypatch):
    """The kernel multiplies Python ints only; axioms_report makes fewer
    CycloNumber products than one per table entry."""
    s, partition, table, classes = full_table(3, 3)
    funcs = [ClassFunction(tuple(row), None) for row in table.values]
    real = CycloNumber.__mul__
    calls = []

    def counted(self, other):
        calls.append(1)
        return real(self, other)
    monkeypatch.setattr(CycloNumber, "__mul__", counted)
    monkeypatch.setattr(CycloNumber, "__rmul__", counted)
    inner_products(partition, funcs, funcs, table.group_order)
    assert not calls
    assert all(r.passed for r in axioms_report(s, table, partition, classes))
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
    partition = get_partition(2, 2)
    labels = enumerate_labels(s, orbit_census(s, "J*"))
    table = build_table(s, partition, labels, 2 ** 17)
    csv_text = table.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("class,")
    assert lines[1].startswith("size,")
    assert len(lines) == 2 + len(labels)
    data = table.to_json()
    assert data["group_order"] == 2
    assert len(data["rows"]) == 2 and len(data["columns"]) == 2


def test_table_deterministic_across_runs():
    s = get_spec(2, 3)
    partition = get_partition(2, 3)
    labels = enumerate_labels(s, orbit_census(s, "J*"))
    t1 = build_table(s, partition, labels, 2 ** 17)
    t2 = build_table(s, partition, labels, 2 ** 17)
    assert t1.to_csv() == t2.to_csv()


# ---------------------------------------------------------------------------
# axiom report
# ---------------------------------------------------------------------------

def full_table(n, p):
    """The spec, partition, induced table and conjugacy classes of T(n, p)."""
    s = get_spec(n, p)
    partition = get_partition(n, p)
    labels = enumerate_labels(s, orbit_census(s, "J*"))
    ctx = InductionContext(s, 2 ** 17)
    return s, partition, build_table(s, partition, labels, 2 ** 17, ctx=ctx), ctx.classes


def test_axioms_pass_t22():
    s, partition, table, classes = full_table(2, 2)
    report = axioms_report(s, table, partition, classes)
    assert all(r.passed for r in report)
    names = [r.name for r in report]
    assert names == ["S1", "S2", "S3", "disjoint", "conjugacy-refinement",
                     "regular-character"]


def test_axioms_negative_control():
    s, partition, table, classes = full_table(2, 2)
    bad = CharacterTable(table.row_labels, table.col_labels, table.sizes,
                         [list(row) for row in table.values],
                         table.group_order, table.cyclo_order)
    bad.values[1][1] = bad.values[1][1] + 1
    report = {r.name: r.passed for r in axioms_report(s, bad, partition, classes)}
    assert not (report["disjoint"] and report["regular-character"])


# ---------------------------------------------------------------------------
# characters of N and the restriction decomposition
# ---------------------------------------------------------------------------

def n_values(spec, mu):
    """The N-supercharacter of the N x N-orbit of mu, as {g: value} over N."""
    n_part, chars = n_characters(spec, 2 ** 17)
    psi = next(psi for orb, psi, _ in chars if mu in orb.members)
    return {g: v for rec, v in zip(n_part, psi.values) for g in rec.members}


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
    for name, s, _ in _literal_specs():
        n_group = [s.add(s.unit, x) for x in s.j_vectors()]
        for group, elements in (("G", g_elements(s)), ("N", n_group)):
            ctx = InductionContext(s, 2 ** 17, group)
            assert set(ctx.classes) == _literal_classes(s, elements), (name, group)
            assert ctx.order == len(elements) and len(ctx.class_of) == len(elements)


def test_n_characters_match_literal_average_over_n():
    """psi_mu(g) = (1/|N_{mu,right}|) sum over u in N of xi°(u^-1 g u) at every g in N,
    with J_{mu,right} = {u in J : mu(u v) = 0 for every v in J} found by enumeration,
    and <psi, psi>_N summed over the elements of N."""
    for name, s, _ in _literal_specs():
        F, m = s.field, s.cyclo_order
        radical = s.j_vectors()
        group = [s.add(s.unit, x) for x in radical]
        inverses = {u: s.invert(u) for u in group}
        n_part, chars = n_characters(s, 2 ** 17)
        assert sorted(g for rec in n_part for g in rec.members) == sorted(group)
        for orb, psi, norm in chars:
            mu = orb.representative
            right = {s.j_coords(u) for u in radical
                     if all(s.form_eval(mu, s.mul(u, v)) == 0 for v in radical)}
            square = CycloNumber.zero(m)
            for rec, value in zip(n_part, psi.values):
                for g in rec.members:
                    total = CycloNumber.zero(m)
                    for u in group:
                        y = s.j_coords(s.sub(s.mul_many(inverses[u], g, u), s.unit))
                        if y in right:
                            exp = additive_char_exponent(F, s.form_eval(mu, s.j_embed(y)), m)
                            total = total + CycloNumber.root(m, exp)
                    assert value == total / len(right), (name, mu, g)
                    square = square + value * value.conj()
            assert norm == square / len(group), (name, mu)


def test_n_characters_respect_the_bound():
    s = get_spec(3, 3)
    with pytest.raises(GroupTooLarge, match="27 exceeds bound 26"):
        n_characters(s, 26)
    n_part, chars = n_characters(s, 27)
    assert sum(len(rec.members) for rec in n_part) == 27


def test_classes_and_n_characters_compile_no_map_per_element(monkeypatch):
    """One conjugation per distinct non-unit t-part and a-part of the certified
    generators for G (not one per element, |G| = 216), and for n_characters one
    conjugation per a-part plus one R_tau and one rho*_tau per triple with t = 1."""
    s = tri.make_triangular(3, get_field(3))
    gens = certified_generators(s)      # certify before counting
    real = algebra.sandwich_map
    calls = []
    for mod in (algebra, superclasses, sc):
        monkeypatch.setattr(mod, "sandwich_map", lambda *a, **k: calls.append(1) or real(*a, **k))
    t_parts = {g.t for g in gens} - {s.unit}
    a_parts = {g.a for g in gens} - {s.unit}
    InductionContext(s, 2 ** 17)
    assert len(calls) == len(t_parts | a_parts) == 9
    calls.clear()
    n_characters(s, 2 ** 17)
    n_triples = sum(1 for g in gens if g.t == s.unit)
    assert len(calls) == len(a_parts) + 2 * n_triples == 30


def test_nn_orbit_count_t32():
    s = get_spec(3, 2)
    orbits = nn_orbits(s)
    total = sum(len(o.members) for o in orbits)
    assert total == 2 ** 3


def _restriction_setup(n, p):
    s = get_spec(n, p)
    partition = get_partition(n, p)
    labels = enumerate_labels(s, orbit_census(s, "J*"))
    table = build_table(s, partition, labels, 2 ** 17)
    funcs = [ClassFunction(tuple(row), row[identity_index(s, partition)]) for row in table.values]
    return s, partition, labels, funcs, n_characters(s, 2 ** 17)


@pytest.mark.parametrize("n,p", [(2, 3), (3, 2)])
def test_restriction_decomposition(n, p):
    s, partition, labels, funcs, n_chars = _restriction_setup(n, p)
    for lbl, cf in zip(labels, funcs):
        ok, coeffs = restriction_check(s, lbl, cf, superclass_index(partition), n_chars)
        assert ok, f"restriction failed for {lbl.render()}: {coeffs}"
        assert all(c >= 0 for c in coeffs.values())
        assert any(c > 0 for c in coeffs.values())


@pytest.mark.parametrize("n,p", [(2, 3), (3, 2)])
def test_restriction_rejects_a_perturbed_value(n, p):
    s, partition, labels, funcs, n_chars = _restriction_setup(n, p)
    idx = identity_index(s, partition)
    # a superclass other than {1} that meets N, so that Res_N sees the change
    ci = next(i for i, rec in enumerate(partition)
              if i != idx and s.s_part(rec.representative) == s.unit)
    for lbl, cf in zip(labels, funcs):
        values = list(cf.values)
        values[ci] = values[ci] + 1
        ok, _ = restriction_check(s, lbl, ClassFunction(tuple(values), cf.degree),
                                  superclass_index(partition), n_chars)
        assert not ok, lbl.render()


def test_restriction_rejects_a_lambda_outside_its_torus_conjugates():
    s, partition, labels, funcs, n_chars = _restriction_setup(2, 3)
    index = superclass_index(partition)
    one = funcs[labels.index(principal_label(s))]
    big = funcs[labels.index(e12_label(s))]
    assert restriction_check(s, principal_label(s), one, index, n_chars)[0]
    assert restriction_check(s, e12_label(s), big, index, n_chars)[0]
    assert not restriction_check(s, e12_label(s), one, index, n_chars)[0]
    assert not restriction_check(s, principal_label(s), big, index, n_chars)[0]


@pytest.mark.parametrize("n,p", [(2, 3), (3, 2)])
def test_restriction_rejects_a_negated_row(n, p):
    s, partition, labels, funcs, n_chars = _restriction_setup(n, p)
    index = superclass_index(partition)
    for lbl, cf in zip(labels, funcs):
        neg = ClassFunction(tuple(v * -1 for v in cf.values), cf.degree * -1)
        assert not restriction_check(s, lbl, neg, index, n_chars)[0], lbl.render()


def test_restriction_rejects_a_missing_n_supercharacter():
    # Res_N of the principal character is psi_0 alone, which is orthogonal to
    # every other psi: without psi_0 all coefficients are 0 and only the
    # reconstruction sees the gap
    s, partition, labels, funcs, (n_part, chars) = _restriction_setup(3, 2)
    rest = [c for c in chars if c[0].representative != (0, 0, 0)]
    assert len(rest) == len(chars) - 1
    one = funcs[labels.index(principal_label(s))]
    ok, coeffs = restriction_check(s, principal_label(s), one, superclass_index(partition),
                                   (n_part, rest))
    assert not ok and not any(coeffs.values())


def test_restriction_rejects_an_n_superclass_straddling_two_superclasses():
    s, partition, labels, funcs, n_chars = _restriction_setup(3, 2)
    n_part, _ = n_chars
    orb = next(rec for rec in n_part if len(rec.members) > 1)
    k, rec = next((k, rec) for k, rec in enumerate(partition) if orb.representative in rec.members)
    g = max(orb.members)
    rest = rec.members - {g}
    split = [SuperclassRecord(rec.label, frozenset({g}), g),
             SuperclassRecord(rec.label, rest, min(rest))]
    bad = partition[:k] + split + partition[k + 1:]
    cf = ClassFunction(funcs[0].values[:k + 1] + funcs[0].values[k:], funcs[0].degree)
    with pytest.raises(PartitionMismatch, match=re.escape(str(orb.representative))):
        restriction_check(s, labels[0], cf, superclass_index(bad), n_chars)


def test_induce_rejects_a_wrong_degree():
    """With the identity dropped from G_lambda the induced degree is 0, not
    |G| / |G_lambda|."""
    s = get_spec(2, 3)
    partition = get_partition(2, 3)
    label = SupercharLabel(frozenset({0, 1}), frozenset(), (0, 0), (1,))
    stab = stabilizer_data(s, label.lambda_rep, label.e)
    del stab.g_lambda[s.unit][s.unit]
    with pytest.raises(NotInStabilizer, match="degree"):
        induce(s, label, partition, InductionContext(s, 2 ** 17), stab)


def test_stabilizer_data_rejects_a_wrong_h_part(monkeypatch):
    """H_{e'} built from a block_component that never matches is empty, while
    the identity fixes lambda on both sides."""
    s = get_spec(2, 3)
    monkeypatch.setattr(sc, "block_component", lambda spec, h, i: None)
    with pytest.raises(NotInStabilizer, match="H_right"):
        stabilizer_data(s, (1,), frozenset({0, 1}))
