import itertools
import random

from supchar import linalg

from conftest import get_field


def brute_rank(F, rows):
    """Rank by exhaustive row-span counting (tiny matrices only)."""
    span = {tuple([0] * len(rows[0]))}
    for row in rows:
        new = set()
        for v in span:
            for c in range(F.q):
                new.add(tuple(F.add(a, F.mul(c, b)) for a, b in zip(v, row)))
        span = new
    size = len(span)
    r = 0
    while F.q ** r < size:
        r += 1
    return r


def test_rank_exhaustive_gf2():
    F = get_field(2)
    for bits in range(2 ** 6):
        rows = [[(bits >> (2 * r + c)) & 1 for c in range(2)] for r in range(3)]
        assert linalg.rank(F, rows) == brute_rank(F, rows)


def test_rank_random_gf3_gf4():
    rng = random.Random(7)
    for p, k in [(3, 1), (2, 2)]:
        F = get_field(p, k)
        for _ in range(50):
            rows = [[rng.randrange(F.q) for _ in range(4)] for _ in range(3)]
            assert linalg.rank(F, rows) == brute_rank(F, rows)


def test_kernel_is_kernel():
    rng = random.Random(3)
    for p, k in [(2, 1), (3, 1), (2, 2)]:
        F = get_field(p, k)
        for _ in range(30):
            rows = [[rng.randrange(F.q) for _ in range(4)] for _ in range(3)]
            basis = linalg.kernel_basis(F, rows)
            assert len(basis) == 4 - linalg.rank(F, rows)
            for v in basis:
                for row in rows:
                    acc = 0
                    for a, b in zip(row, v):
                        acc = F.add(acc, F.mul(a, b))
                    assert acc == 0


def test_solve_round_trip():
    rng = random.Random(11)
    F = get_field(3)
    for _ in range(40):
        rows = [[rng.randrange(3) for _ in range(3)] for _ in range(3)]
        x = [rng.randrange(3) for _ in range(3)]
        rhs = []
        for row in rows:
            acc = 0
            for a, b in zip(row, x):
                acc = F.add(acc, F.mul(a, b))
            rhs.append(acc)
        got = linalg.solve(F, rows, rhs)
        assert got is not None
        check = []
        for row in rows:
            acc = 0
            for a, b in zip(row, got):
                acc = F.add(acc, F.mul(a, b))
            check.append(acc)
        assert check == rhs


def test_solve_inconsistent():
    F = get_field(2)
    assert linalg.solve(F, [[1, 0], [1, 0]], [0, 1]) is None


def test_span_sizes():
    F = get_field(3)
    vecs = list(linalg.span(F, [(1, 0, 0), (0, 1, 0)], dim=3))
    assert len(vecs) == 9
    assert len(set(vecs)) == 9
    assert list(linalg.span(F, [], dim=2)) == [(0, 0)]


def test_span_of_unit_vectors_is_product_order():
    """The one F_q-space enumerator lists F_q^n lexicographically, as the
    orbit censuses and the superclass partition rely on."""
    for F in (get_field(3), get_field(2, 2)):
        for n in range(4):
            units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
            want = list(itertools.product(range(F.q), repeat=n))
            assert list(linalg.span(F, units, dim=n)) == want


def test_rref_idempotent():
    F = get_field(5)
    rng = random.Random(1)
    for _ in range(20):
        rows = [[rng.randrange(5) for _ in range(4)] for _ in range(3)]
        mat, piv = linalg.rref(F, rows)
        again, piv2 = linalg.rref(F, mat)
        assert again == mat and piv2 == piv
