import os
import random

import pytest

from supchar.algebra import (
    group_order,
    load_algebra_file,
    make_triple,
    orbit_census,
    torus_conjugations,
)
from supchar import superclasses
from supchar.errors import GroupTooLarge, NotGenerating, NotInH, PartitionMismatch
from supchar.superclasses import (
    associated_idempotent,
    classify,
    identity_index,
    m_factor,
    predicted_count,
    r_act,
    superclass_partition,
    transporter_count,
)
from supchar.supercharacters import InductionContext
from supchar import triangular as tri

from conftest import (
    g_elements,
    get_field,
    get_partition,
    get_spec,
    literal_transporter_count,
    random_triple,
)

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "supchar", "data")
ZIGZAG = os.path.join(os.path.dirname(__file__), "zigzag_poset_q3.json")


def test_r_act_identity_triple():
    s = get_spec(2, 3)
    tau = make_triple(s, s.unit, s.unit, s.unit)
    for g in g_elements(s):
        assert r_act(s, tau, g) == g


def test_r_act_reduces_to_rho_on_n():
    s = get_spec(3, 2)
    e12 = s.basis_vec(3)
    e23 = s.basis_vec(5)
    e13 = s.basis_vec(4)
    tau = make_triple(s, s.unit, s.add(s.unit, e12), s.unit)
    g = s.add(s.unit, e23)
    assert r_act(s, tau, g) == s.add(s.unit, s.add(e23, e13))


def test_r_act_preserves_s_part():
    s = get_spec(2, 3)
    rng = random.Random(2)
    g = s.add((2, 1, 0), s.basis_vec(2))
    for _ in range(100):
        tau = random_triple(s, rng)
        assert s.s_part(r_act(s, tau, g)) == (2, 1, 0)


def test_associated_idempotent():
    s = get_spec(2, 3)
    assert associated_idempotent(s, s.unit) == frozenset()
    assert associated_idempotent(s, (1, 2, 0)) == frozenset({1})
    s33 = get_spec(3, 3)
    assert associated_idempotent(s33, (2, 1, 2, 0, 0, 0)) == frozenset({0, 2})
    with pytest.raises(NotInH):
        associated_idempotent(s, s.add(s.unit, s.basis_vec(2)))
    with pytest.raises(NotInH):
        associated_idempotent(s, (1, 0, 0))


@pytest.mark.parametrize("n,p,count", [(2, 2, 2), (2, 3, 5), (3, 2, 5), (3, 3, 15)])
def test_partition_counts(n, p, count):
    assert len(get_partition(n, p)) == count


def test_partition_covers_group():
    s = get_spec(2, 3)
    partition = get_partition(2, 3)
    members = set()
    for rec in partition:
        assert not (members & rec.members)
        members |= rec.members
    assert len(members) == group_order(s) == 12


def test_identity_singleton():
    for n, p in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        s = get_spec(n, p)
        partition = get_partition(n, p)
        idx = identity_index(s, partition)
        assert partition[idx].members == {s.unit}


def test_group_too_large():
    s = get_spec(3, 3)
    with pytest.raises(GroupTooLarge):
        superclass_partition(s, bound=100)


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_predicted_count_matches_partition(n, p):
    s = get_spec(n, p)
    census = orbit_census(s, "J")
    assert predicted_count(s, census) == len(get_partition(n, p))


def test_m_factor():
    s = get_spec(3, 3)
    # per block of f: the number of unit-group elements different from 1
    assert m_factor(s, frozenset()) == 1
    assert m_factor(s, frozenset({0})) == 1
    assert m_factor(s, frozenset({0, 1, 2})) == 1
    s5 = tri.make_triangular(2, get_field(5))
    assert m_factor(s5, frozenset({0})) == 3
    s4 = get_spec(2, 2, 2)
    assert m_factor(s4, frozenset({0, 1})) == 4


@pytest.mark.parametrize("n,p", [(2, 3), (3, 2), (3, 3)])
def test_refines_conjugacy(n, p):
    s = get_spec(n, p)
    partition = get_partition(n, p)
    member_to_class = {}
    for ci, rec in enumerate(partition):
        for g in rec.members:
            member_to_class[g] = ci
    for cls in InductionContext(s, 2 ** 17).classes:
        assert len({member_to_class[g] for g in cls}) == 1


def test_classify_identity():
    s = get_spec(2, 3)
    partition = get_partition(2, 3)
    rec = partition[identity_index(s, partition)]
    lbl = rec.label
    assert lbl.e == frozenset() and lbl.f == frozenset()
    assert lbl.h == s.unit
    assert lbl.omega_rep == s.zero()


def test_classify_pure_h():
    s = get_spec(2, 3)
    for rec in get_partition(2, 3):
        h = s.s_part(rec.representative)
        assert rec.label.h == h
        if all(v == 0 for v in s.j_part(rec.representative)) and rec.size == 1:
            assert rec.label.e == frozenset()
            assert rec.label.f == associated_idempotent(s, h)


def test_classify_unipotent_regular():
    s = get_spec(2, 3)
    g = s.add(s.unit, s.basis_vec(2))
    for rec in get_partition(2, 3):
        if g in rec.members:
            assert rec.label.e == frozenset({0, 1})
            assert rec.label.f == frozenset()
            assert rec.label.omega_rep == s.basis_vec(2)
            return
    raise AssertionError("unipotent element not found in partition")


@pytest.mark.parametrize("n,p", [(3, 2), (3, 3)])
def test_classify_constant_on_superclass(n, p):
    s = get_spec(n, p)
    rng = random.Random(0)
    for rec in get_partition(n, p):
        members = sorted(rec.members)
        picks = members if len(members) <= 3 else rng.sample(members, 3)
        for g in picks:
            assert classify(s, {g} | rec.members) == rec.label


@pytest.mark.parametrize("n,p", [(2, 3), (3, 3)])
def test_labels_distinct_and_mapping_consistent(n, p):
    s = get_spec(n, p)
    F = get_field(p)
    partition = get_partition(n, p)
    labels = [rec.label for rec in partition]
    assert len(set(labels)) == len(labels)
    # g_{h,D'} lands in the class labeled by e = row u col(D') and an
    # omega_rep inside the orbit of x_{D'}
    for lbl_cls in tri.labels(n, F)[0]:
        g = s.add(tri.diag_embed(s, n, lbl_cls.h), tri.x_D(s, n, lbl_cls.dprime))
        rec = next(r for r in partition if g in r.members)
        want_e = frozenset(i - 1 for i in lbl_cls.dprime.rowcol())
        assert rec.label.e == want_e


@pytest.mark.parametrize("n,p,k", [(2, 3, 1), (2, 2, 2)])
def test_transporter_count_detects_superclass_membership(n, p, k):
    """For every pair g, g' of G: the triples taking g to g' number
    |G~| / |class of g| (a coset of the stabilizer) when g' lies in the
    superclass of g, and none otherwise."""
    s = get_spec(n, p, k)
    tilde = group_order(s) * s.field.q ** len(s.radical_basis)
    partition = get_partition(n, p, k)
    class_of = {g: ci for ci, rec in enumerate(partition) for g in rec.members}
    gl = g_elements(s)
    for g in gl:
        x = s.sub(g, s.unit)
        want = tilde // partition[class_of[g]].size
        for h in gl:
            count = transporter_count(s, x, s.sub(h, s.unit))
            assert count == (want if class_of[h] == class_of[g] else 0), (g, h)


@pytest.mark.parametrize("case", [(2, 3, 1), (3, 3, 1), (2, 2, 2),
                                  os.path.join(DATA, "dual_numbers_q3.json"),
                                  os.path.join(DATA, "triangular_2_3.json"), ZIGZAG],
                         ids=["T(2,3)", "T(3,3)", "T(2,GF(4))", "dual_numbers_q3",
                              "triangular_2_3", "zigzag"])
def test_transporter_count_equals_the_sum_over_every_t(case):
    """The torus-orbit count equals the literal sum over every t in H, for x
    and y from every pair of superclass representatives, and for y from up to
    three further members of x's own superclass."""
    s = load_algebra_file(case) if isinstance(case, str) else get_spec(*case)
    partition = superclass_partition(s)
    reps = [rec.representative for rec in partition]
    for rec in partition:
        x = s.sub(rec.representative, s.unit)
        for g in reps + sorted(rec.members)[1:4]:
            y = s.sub(g, s.unit)
            assert transporter_count(s, x, y) == literal_transporter_count(s, x, y), (x, y)


def test_torus_conjugations_reject_a_torus_generator_of_order_2():
    s = tri.make_triangular(2, get_field(5))    # not the shared spec: it is edited
    x = s.sub(s.add(s.unit, s.basis_vec(2)), s.unit)
    s.block_gen[0] = s.smul(4, s.blocks[0].idempotent)
    with pytest.raises(NotGenerating, match="order 8 of H, which has order 16"):
        torus_conjugations(s)
    with pytest.raises(NotGenerating):
        transporter_count(s, x, x)


@pytest.mark.parametrize("n,p", [(2, 3), (3, 2), (3, 3)])
def test_sizes_divide_tilde_group_order(n, p):
    s = get_spec(n, p)
    h_order = 1
    for o in s.block_orders:
        h_order *= o
    n_order = p ** len(s.radical_basis)
    tilde = h_order * n_order * n_order
    for rec in get_partition(n, p):
        assert tilde % rec.size == 0


def test_superclass_partition_rejects_a_shared_label(monkeypatch):
    s = get_spec(2, 3)
    monkeypatch.setattr(superclasses, "classify", lambda spec, members: "one label")
    with pytest.raises(PartitionMismatch, match="distinct superclasses share a label"):
        superclass_partition(s)


def test_identity_index_rejects_a_partition_without_the_identity():
    s = get_spec(2, 3)
    partition = get_partition(2, 3)
    idx = identity_index(s, partition)
    with pytest.raises(PartitionMismatch, match="no superclass contains the identity"):
        identity_index(s, partition[:idx] + partition[idx + 1:])
