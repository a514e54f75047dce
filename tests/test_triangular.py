import csv
import io
import re

import pytest

from supchar import cli, linalg
from supchar import supercharacters as sc
from supchar.algebra import form_support, orbit, orbit_census
from supchar.cli import main
from supchar.cyclo import CycloNumber
from supchar.errors import BadSize, PartitionMismatch
from supchar import triangular as tri

from conftest import get_field, get_partition, get_spec


def D(*pairs):
    return tri.BasicSubset(tuple(tri.Root(r, c) for r, c in pairs))


def test_positive_roots():
    assert tri.positive_roots(2) == [(1, 2)]
    assert tri.positive_roots(3) == [(1, 2), (1, 3), (2, 3)]
    assert len(tri.positive_roots(5)) == 10


def test_make_triangular_rejects_small_n():
    with pytest.raises(BadSize):
        tri.make_triangular(1, get_field(2))


def test_root_validation():
    with pytest.raises(BadSize):
        tri.Root(2, 2)
    with pytest.raises(BadSize):
        tri.Root(3, 1)
    with pytest.raises(BadSize):
        tri.Root(0, 1)


def test_basic_subset_validation():
    with pytest.raises(BadSize):
        D((1, 2), (1, 3))  # repeated row
    with pytest.raises(BadSize):
        D((1, 3), (2, 3))  # repeated column


def test_records_keep_their_checks_order_and_defaults():
    """The records are immutable named tuples: Root and BasicSubset still
    validate (BadSize) and BasicSubset still sorts its roots; roots order by
    (row, col); CheckResult's details default to ""; and a dict keyed by
    labels finds every label and lists them back in sort_key order."""
    with pytest.raises(BadSize):
        tri.Root(2, 1)
    with pytest.raises(BadSize):
        tri.BasicSubset((tri.Root(1, 2), tri.Root(1, 3)))
    assert D((2, 3), (1, 2)).roots == (tri.Root(1, 2), tri.Root(2, 3))
    roots = [tri.Root(2, 4), tri.Root(1, 3), tri.Root(3, 4), tri.Root(1, 2)]
    assert sorted(roots) == sorted(roots, key=lambda r: (r.row, r.col))
    with pytest.raises(AttributeError):
        roots[0].row = 1
    assert sc.CheckResult("S1", True) == ("S1", True, "")
    s = get_spec(3, 3)
    class_labels, char_labels = tri.labels(3, s.field)
    for lbls in (class_labels, char_labels, sc.enumerate_labels(s, orbit_census(s, "J*"))):
        index = {lbl: i for i, lbl in enumerate(lbls)}
        assert [index[lbl] for lbl in lbls] == list(range(len(lbls)))
        assert sorted(index, key=lambda lbl: lbl.sort_key()) == lbls


@pytest.mark.parametrize("n,count", [(2, 2), (3, 5), (4, 15), (5, 52)])
def test_basic_subset_counts(n, count):
    subsets = tri.basic_subsets(n)
    assert len(subsets) == count
    assert len(set(subsets)) == count
    # ordered by size first
    sizes = [len(d.roots) for d in subsets]
    assert sizes == sorted(sizes)
    assert subsets[0] == D()


def test_is_regular_D():
    assert not tri.is_regular_D(D(), 3)
    assert not tri.is_regular_D(D((1, 2)), 3)
    assert tri.is_regular_D(D((1, 2), (2, 3)), 3)
    assert not tri.is_regular_D(D((1, 3)), 3)
    assert tri.is_regular_D(D((1, 3)), 3) is False
    assert tri.is_regular_D(D((1, 3), (2, 4)), 4)
    assert tri.is_regular_D(D((1, 2)), 2)


@pytest.mark.parametrize("n,p,count", [(2, 2, 2), (2, 3, 5), (3, 2, 5),
                                       (3, 3, 15), (4, 2, 15)])
def test_label_counts(n, p, count):
    F = get_field(p)
    class_labels, char_labels = tri.labels(n, F)
    assert len(class_labels) == len(char_labels) == count
    q = F.q
    want = sum((q - 1) ** (n - len(d.rowcol())) for d in tri.basic_subsets(n))
    assert count == want


def test_label_render():
    F = get_field(3)
    class_labels, char_labels = tri.labels(2, F)
    assert class_labels[0].render() == "h=[1, 1];D'={}"
    assert any(c.render() == "h=[1, 1];D'={(1,2)}" for c in class_labels)
    assert char_labels[0].render() == "c=[0, 0];D={}"
    assert any(c.render() == "c=[1, 0];D={}" for c in char_labels)


def test_delta_factors():
    h1 = (1, 1, 1, 1)
    assert tri.delta_factors(D((1, 4)), h1, D()) == (1, 1, 1)
    # D' hits a column strictly inside the window of (1,4)
    assert tri.delta_factors(D((1, 4)), h1, D((1, 2)))[0] == 0
    assert tri.delta_factors(D((1, 4)), h1, D((2, 4)))[1] == 0
    # torus entry not 1 on an index of D kills the value
    assert tri.delta_factors(D((1, 2)), (2, 1, 1, 1), D())[2] == 0
    assert tri.delta_factors(D((1, 2)), (1, 1, 2, 2), D()) == (1, 1, 1)


def test_m_and_s_examples():
    F3 = get_field(3)
    assert tri.m_and_s(D(), (1, 1), D(), F3) == (0, 0)
    assert tri.m_and_s(D((1, 2)), (1, 1), D((1, 2)), F3) == (0, 1)
    assert tri.m_and_s(D((1, 2)), (1, 1), D(), F3) == (0, 2)
    h1 = (1, 1, 1, 1)
    assert tri.m_and_s(D((1, 4)), h1, D(), F3) == (2, 2)
    # an interior torus entry different from 1 cancels one window corank
    assert tri.m_and_s(D((1, 4)), (1, 2, 1, 1), D(), F3) == (1, 2)
    # a D' root inside the window knocks out one of the two zero rows
    assert tri.m_and_s(D((1, 4)), h1, D((2, 3)), F3) == (1, 2)


def test_value_examples():
    F3 = get_field(3)
    m = tri.cyclo_order_for(F3)  # 6
    assert m == 6
    one = tri.value(tri.TriSupercharLabel((0, 0), D()),
                    tri.TriSuperclassLabel((2, 1), D()), F3)
    assert one == CycloNumber.rational(m, 1)
    # linear character c=(1,0) at h=(2,1): theta(2) = zeta_{q-1}^{dlog 2}
    lin = tri.value(tri.TriSupercharLabel((1, 0), D()),
                    tri.TriSuperclassLabel((2, 1), D()), F3)
    assert lin == CycloNumber.root(6, 3)  # zeta_2 = -1
    # big character of t(2,3) on the unipotent class: (-1)^1 * (q-1)^1 = -2
    big = tri.value(tri.TriSupercharLabel((0, 0), D((1, 2))),
                    tri.TriSuperclassLabel((1, 1), D((1, 2))), F3)
    assert big == CycloNumber.rational(m, -2)
    deg = tri.value(tri.TriSupercharLabel((0, 0), D((1, 2))),
                    tri.TriSuperclassLabel((1, 1), D()), F3)
    assert deg == CycloNumber.rational(m, 4)  # (q-1)^2
    # long-root character in n=4 at the identity: q^2 (q-1)^2
    F2 = get_field(2)
    m2 = tri.cyclo_order_for(F2)
    deg4 = tri.value(tri.TriSupercharLabel((0, 0, 0, 0), D((1, 4))),
                     tri.TriSuperclassLabel((1, 1, 1, 1), D()), F2)
    assert deg4 == CycloNumber.rational(m2, 4)


@pytest.mark.parametrize("n,p,k", [(4, 3, 1), (3, 5, 1), (2, 2, 2), (3, 2, 2), (5, 2, 1)])
def test_closed_table_equals_value_on_every_entry(n, p, k):
    F = get_field(p, k)
    table = tri.table(n, F)
    class_labels, char_labels = tri.labels(n, F)
    for ch, row in zip(char_labels, table.values):
        assert row == [tri.value(ch, cl, F) for cl in class_labels], ch.render()


def test_class_shape_rejects_h_off_one_on_rowcol(monkeypatch):
    """g - 1 of h = (2, 1, 1), D' = {(1,2)} has two nonzero entries in row 1."""
    F = get_field(3)
    class_labels, char_labels = tri.labels(3, F)
    bad = tri.TriSuperclassLabel((2, 1, 1), D((1, 2)))
    with pytest.raises(BadSize, match=r"h=\[2, 1, 1\];D'=\{\(1,2\)\}"):
        tri.class_shape(bad)
    assert tri.class_shape(tri.TriSuperclassLabel((1, 1, 2), D((1, 2)))) == ((3, 3), (1, 2))
    monkeypatch.setattr(tri, "labels", lambda n, field: (class_labels + [bad], char_labels))
    with pytest.raises(BadSize, match="two nonzero entries in one row or column"):
        tri.table(3, F)


def _rank_profile(spec, n, g):
    """(rank of rows i..n x columns 1..j of g - 1, for i <= j), by rref."""
    x = spec.sub(g, spec.unit)
    mat = [[x[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for k, (i, j) in enumerate(tri.positive_roots(n)):
        mat[i - 1][j - 1] = x[n + k]
    return tuple(linalg.rank(spec.field, [row[:j] for row in mat[i - 1:]])
                 for i in range(1, n + 1) for j in range(i, n + 1))


@pytest.mark.parametrize("n,p,k", [(3, 3, 1), (4, 2, 1), (2, 2, 2)])
def test_rank_profile_is_a_superclass_invariant(n, p, k):
    """The rank profile is constant on every superclass, and rank_profile
    counts it right on every label's representative."""
    s = get_spec(n, p, k)
    for rec in get_partition(n, p, k):
        assert len({_rank_profile(s, n, g) for g in rec.members}) == 1, rec.label.render()
    for lbl in tri.labels(n, s.field)[0]:
        assert tri.rank_profile(n, tri.class_shape(lbl)) == \
            _rank_profile(s, n, tri.class_rep(s, n, lbl)), lbl.render()


def test_group_order():
    assert tri.group_order_tri(2, get_field(3)) == 12
    assert tri.group_order_tri(3, get_field(2)) == 8
    assert tri.group_order_tri(3, get_field(3)) == 216
    assert tri.group_order_tri(2, get_field(2, 2)) == 36


def test_lambda_D_and_x_D():
    F = get_field(2)
    s = get_spec(3, 2)
    d = D((1, 3))
    x = tri.x_D(s, 3, d)
    assert x == (0, 0, 0, 0, 1, 0)
    lam = tri.lambda_D(3, d)
    assert lam == (0, 1, 0)
    assert tri.lambda_D(3, D()) == (0, 0, 0)


def test_class_record_map_is_bijection():
    s = get_spec(3, 3)
    F = get_field(3)
    class_labels, _ = tri.labels(3, F)
    partition = get_partition(3, 3)
    mapping = tri.class_record_map(s, 3, class_labels, partition)
    assert sorted(mapping) == list(range(len(partition)))


def test_class_record_map_rejects_a_non_bijection():
    s = get_spec(3, 3)
    class_labels, _ = tri.labels(3, s.field)
    partition = get_partition(3, 3)
    with pytest.raises(PartitionMismatch, match="do not biject"):
        tri.class_record_map(s, 3, class_labels, partition[1:])
    with pytest.raises(PartitionMismatch, match="do not biject"):
        tri.class_record_map(s, 3, class_labels + class_labels[:1], partition)


@pytest.mark.parametrize("n,p,k", [(2, 3, 1), (3, 2, 1), (3, 3, 1), (2, 2, 2),
                                   (4, 2, 1), (5, 2, 1)])
def test_closed_sizes_equal_partition_sizes(n, p, k):
    s = get_spec(n, p, k)
    class_labels, _ = tri.labels(n, s.field)
    partition = get_partition(n, p, k)
    mapping = tri.class_record_map(s, n, class_labels, partition)
    closed = tri.table(n, s.field, "closed", spec=s)
    assert closed.sizes == [partition[i].size for i in mapping]


def test_closed_sizes_reject_a_duplicated_label(monkeypatch):
    s = get_spec(3, 3)
    class_labels, char_labels = tri.labels(3, s.field)
    sizes = tri.table(3, s.field, spec=s).sizes
    assert sum(sizes) == 216

    def closed_with(cls):
        monkeypatch.setattr(tri, "labels", lambda n, field: (cls, char_labels))
        return tri.table(3, s.field, "closed", spec=s)

    # label i twice, label j dropped
    i, j = next((i, j) for i in range(len(sizes)) for j in range(len(sizes))
                if i != j and sizes[i] == sizes[j])
    with pytest.raises(PartitionMismatch, match="label one superclass"):
        closed_with([class_labels[i]] + [l for c, l in enumerate(class_labels) if c != j])
    i, j = next((i, j) for i in range(len(sizes)) for j in range(len(sizes))
                if sizes[i] != sizes[j])
    with pytest.raises(PartitionMismatch, match="sum to"):
        closed_with([class_labels[i]] + [l for c, l in enumerate(class_labels) if c != j])


def test_closed_t53_sizes_need_no_enumeration(capsys):
    """|G| = 1,889,568 lies beyond every enumeration of G; with the bound raised
    the closed table still gets its size row, and it sums to |G|."""
    assert main(["table", "--n", "5", "--p", "3", "--bound", "2000000", "--mode", "closed"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert sum(int(v) for v in rows[1][1:]) == 1_889_568
    # the bound still guards the size row
    assert main(["table", "--n", "3", "--p", "3", "--bound", "100", "--mode", "closed"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[1][1:] == [""] * 15


def test_to_general_label():
    s = get_spec(2, 3)
    lbl = tri.TriSupercharLabel((0, 1), D())
    gen = tri.to_general_label(s, 2, lbl)
    assert gen.e == frozenset()
    assert gen.f == frozenset({1})
    assert gen.theta == (0, 1)
    lbl2 = tri.TriSupercharLabel((0, 0), D((1, 2)))
    gen2 = tri.to_general_label(s, 2, lbl2)
    assert gen2.e == frozenset({0, 1})
    assert gen2.lambda_rep == (1,)


@pytest.mark.parametrize("n,p,k", [(2, 2, 1), (2, 3, 1), (2, 2, 2), (3, 2, 1)])
def test_closed_matches_brute_small(n, p, k):
    F = get_field(p, k)
    closed = tri.table(n, F, mode="closed")
    brute = tri.table(n, F, mode="brute")
    assert tri.compare_tables(closed, brute) == []


def test_brute_table_rejects_a_non_canonical_census_label(monkeypatch, capsys):
    """A census label whose lambda is another member of its orbit induces the
    same row, but no closed-form label maps onto it."""
    s = get_spec(3, 3)
    census = sc.enumerate_labels(s, orbit_census(s, "J*"))
    i, lbl = next((i, l) for i, l in enumerate(census) if any(l.lambda_rep))
    other = next(v for v in orbit(s, lbl.lambda_rep, "rho_dual").members
                 if v != lbl.lambda_rep and form_support(s, v) == lbl.e)
    swapped = census[:i] + [lbl._replace(lambda_rep=other)] + census[i + 1:]
    want = next(ch for ch in tri.labels(3, s.field)[1] if tri.to_general_label(s, 3, ch) == lbl)
    monkeypatch.setattr(tri, "enumerate_labels", lambda spec, dual_census: swapped)
    with pytest.raises(PartitionMismatch, match=re.escape(f"label {want.render()} matches no")):
        tri.table(3, s.field, "brute", spec=s)
    monkeypatch.setattr(cli, "enumerate_labels", lambda spec, dual_census: swapped)
    assert main(["verify", "--n", "3", "--p", "3", "--checks", "oracle"]) == 1
    assert want.render() in capsys.readouterr().err


def test_brute_table_carries_a_perturbed_entry_to_its_labels():
    s = get_spec(3, 3)
    partition = get_partition(3, 3)
    base = sc.build_table(s, partition, sc.enumerate_labels(s, orbit_census(s, "J*")), 2 ** 17)
    r, c = 7, 4
    base.values[r][c] = base.values[r][c] + 1
    class_labels, char_labels = tri.labels(3, s.field)
    ch = next(ch for ch in char_labels if tri.to_general_label(s, 3, ch) == base.row_labels[r])
    cl = class_labels[tri.class_record_map(s, 3, class_labels, partition).index(c)]
    diffs = tri.compare_tables(tri.table(3, s.field, spec=s), tri.brute_table(s, 3, partition, base))
    assert len(diffs) == 1
    assert diffs[0].startswith(f"[{ch.render()} @ {cl.render()}] ")


def test_table_row_column_order_stable():
    F = get_field(3)
    t1 = tri.table(2, F, mode="closed")
    t2 = tri.table(2, F, mode="closed")
    assert t1.to_csv() == t2.to_csv()
    assert t1.row_labels[0].render() == "c=[0, 0];D={}"


def test_compare_tables_reports_a_size_mismatch():
    F = get_field(3)
    closed = tri.table(2, F, mode="closed")
    brute = tri.table(2, F, mode="brute")
    assert tri.compare_tables(closed, brute) == []
    brute.sizes[1] += 1
    assert tri.compare_tables(closed, brute) == [
        f"[size @ {closed.col_labels[1].render()}] {closed.sizes[1]} != {closed.sizes[1] + 1}"]


def test_compare_tables_reports_differences():
    F = get_field(3)
    t1 = tri.table(2, F, mode="closed")
    t2 = tri.table(2, F, mode="closed")
    t2.values[0][0] = t2.values[0][0] + 1
    diffs = tri.compare_tables(t1, t2)
    assert len(diffs) == 1
    assert "c=[0, 0];D={}" in diffs[0]
