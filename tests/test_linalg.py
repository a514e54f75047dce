import itertools
import random

import pytest

from supchar import linalg
from supchar.algebra import _Lanes

from conftest import field_span, get_field


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


# every field the span tests run over, as (p, k)
SPAN_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3)]


def _lane_span(F, basis, dim):
    """_Lanes.span over the coordinates range(dim), each code decoded to the
    tuple it codes."""
    lanes = _Lanes(F, range(dim))
    value = {d: c for c, d in enumerate(lanes.digits)}
    codes = lanes.span([[(l, c) for l, c in enumerate(b) if c] for b in basis])
    return [tuple(value[c >> lanes.shifts[l] & lanes.mask] for l in range(dim)) for c in codes]


def test_span_sizes():
    for F in (get_field(p, k) for p, k in SPAN_FIELDS):
        vecs = _lane_span(F, [(1, 0, 0), (0, 1, 0)], 3)
        assert len(vecs) == len(set(vecs)) == F.q ** 2
        assert vecs == field_span(F, [(1, 0, 0), (0, 1, 0)], 3)
        assert _Lanes(F, range(2)).span([]) == [0]


def test_span_of_unit_vectors_is_product_order():
    """The one F_q-space enumerator lists F_q^n lexicographically, as the
    kernel's boxes number their points."""
    for F in (get_field(p, k) for p, k in SPAN_FIELDS):
        for n in range(4):
            units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
            want = list(itertools.product(range(F.q), repeat=n))
            assert _lane_span(F, units, n) == field_span(F, units, n) == want


@pytest.mark.parametrize("p,k", SPAN_FIELDS)
def test_span_equals_the_field_path_in_order(p, k):
    """_Lanes.span lists the same vectors as the FieldSpec path, in the same
    order, over prime fields and GF(4), GF(8) and GF(9) alike."""
    F = get_field(p, k)
    rng = random.Random(p * 10 + k)
    cases = [[tuple(rng.randrange(F.q) for _ in range(4)) for _ in range(r)]
             for r in (1, 2, 3) for _ in range(4)]
    for basis in cases:
        assert _lane_span(F, basis, 4) == field_span(F, basis, 4)


def test_rref_idempotent():
    F = get_field(5)
    rng = random.Random(1)
    for _ in range(20):
        rows = [[rng.randrange(5) for _ in range(4)] for _ in range(3)]
        mat, piv = linalg.rref(F, rows)
        again, piv2 = linalg.rref(F, mat)
        assert again == mat and piv2 == piv
