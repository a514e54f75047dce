import pytest

from supchar.errors import (
    BadOrder,
    DegreeTooLarge,
    DivisionByZero,
    LogOfZero,
    NotPrime,
)
from supchar.fields import (
    additive_char_exponent,
    field_make,
    field_make_custom,
)

from conftest import get_field

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2)]


def test_gf2_elements():
    F = get_field(2)
    assert list(F.elements()) == [0, 1]
    assert F.add(1, 1) == 0
    assert F.mul(1, 1) == 1


def test_gf3_generator_is_two():
    F = get_field(3)
    assert F.generator == 2
    assert F.dlog(2) == 1
    assert F.dlog(1) == 0


def test_gf4_modulus_and_product():
    F = get_field(2, 2)
    # only irreducible quadratic over GF(2): x^2 + x + 1
    assert F.modulus == (1, 1, 1)
    x = F.encode([0, 1])
    x_plus_1 = F.encode([1, 1])
    # x*x = x+1 and x*(x+1) = 1
    assert F.mul(x, x) == x_plus_1
    assert F.mul(x, x_plus_1) == 1


def test_gf3_ops():
    F = get_field(3)
    assert F.add(2, 2) == 1
    assert F.inv(2) == 2
    assert F.neg(1) == 2
    assert F.sub(0, 2) == 1
    assert F.div(1, 2) == 2


def test_gf5_dlog():
    F = get_field(5)
    assert F.generator == 2
    assert F.dlog(4) == 2


def test_division_by_zero():
    F = get_field(3)
    with pytest.raises(DivisionByZero):
        F.inv(0)
    with pytest.raises(DivisionByZero):
        F.div(1, 0)


def test_log_of_zero():
    F = get_field(3)
    with pytest.raises(LogOfZero):
        F.dlog(0)


def test_not_prime():
    with pytest.raises(NotPrime):
        field_make(4, 1)
    with pytest.raises(NotPrime):
        field_make(1, 1)


def test_size_bound():
    with pytest.raises(DegreeTooLarge):
        field_make(2, 17)
    with pytest.raises(DegreeTooLarge):
        field_make(3, 0)


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_table_consistency(p, k):
    F = get_field(p, k)
    assert len(F.exp_table) == F.q - 1
    for j, a in enumerate(F.exp_table):
        assert F.log_table[a] == j
    assert F.log_table[0] == -1
    assert F.exp_table[0] == 1
    if F.q > 2:
        assert F.exp_table[1] != 1  # generator has order exactly q-1


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, k):
    F = get_field(p, k)
    els = list(F.elements())
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a != 0:
            assert F.mul(a, F.inv(a)) == 1
            assert F.pow(a, F.q - 1) == 1
    for a in els:
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in els:
                assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
                assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_gf9_arithmetic():
    F = get_field(3, 2)
    # x^2 + 1 is reducible? (x^2+1 has root? a^2 = -1 = 2: 1,4,4,... squares mod 3
    # are 0,1,1 -> no root, but x must also generate; the chosen modulus makes
    # x primitive, and x^2+1 gives x order 4, so modulus is x^2 + 2x + ...)
    assert F.modulus[-1] == 1 and len(F.modulus) == 3
    x = F.encode([0, 1])
    assert F.pow(x, 8) == 1
    orders = {F.pow(x, j) for j in range(8)}
    assert len(orders) == 8


def test_trace_gf4():
    F = get_field(2, 2)
    x = F.encode([0, 1])
    # Tr(x) = x + x^2 = x + (x+1) = 1
    assert F.trace(x) == 1
    assert F.trace(0) == 0
    assert F.trace(1) == 0  # 1 + 1 = 0


def test_frobenius_additive():
    F = get_field(3, 2)
    for a in F.elements():
        for b in F.elements():
            assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))


def test_additive_char_values():
    F3 = get_field(3)
    assert additive_char_exponent(F3, 0, 3) == 0
    assert additive_char_exponent(F3, 1, 3) == 1
    assert additive_char_exponent(F3, 2, 6) == 4
    F4 = get_field(2, 2)
    x = F4.encode([0, 1])
    # Tr(x) = x + x^2 = 1, so chi(x) = -1
    assert additive_char_exponent(F4, x, 2) == 1
    assert additive_char_exponent(F4, 1, 2) == 0


def test_additive_char_homomorphism():
    for p, k in SMALL_FIELDS:
        F = get_field(p, k)
        m = F.p if F.q == 2 else F.p * (F.q - 1)
        for a in F.elements():
            for b in F.elements():
                lhs = (additive_char_exponent(F, a, m) + additive_char_exponent(F, b, m)) % m
                assert lhs == additive_char_exponent(F, F.add(a, b), m)


def test_additive_char_bad_order():
    F = get_field(3)
    with pytest.raises(BadOrder):
        additive_char_exponent(F, 1, 4)


def test_gf9_alternative_modulus_same_arithmetic():
    """The field is unique up to isomorphism; tables from a different primitive
    modulus describe the same abstract field (check via an explicit isomorphism
    fixing the prime subfield and matching generator powers)."""
    F = get_field(3, 2)
    # another primitive polynomial over GF(3): x^2 + 2x + 2 (roots have order 8)
    G = field_make_custom(3, 2, (2, 2, 1), 3)
    assert G.modulus != F.modulus
    # isomorphism: send F's generator to a root of F's modulus inside G
    c0, c1, _ = F.modulus
    roots = [r for r in G.elements()
             if G.add(G.add(G.mul(r, r), G.mul(c1 % 3, r)), c0 % 3) == 0]
    assert roots
    r = roots[0]
    iso = {0: 0}
    for j in range(8):
        iso[F.exp_table[j]] = G.pow(r, j)
    for a in F.elements():
        for b in F.elements():
            assert iso[F.add(a, b)] == G.add(iso[a], iso[b])
            assert iso[F.mul(a, b)] == G.mul(iso[a], iso[b])


def test_gf4_alternative_generator():
    """GF(4) admits exactly one irreducible quadratic, so the convention test
    uses the other primitive element as generator instead."""
    F = get_field(2, 2)
    other = F.exp_table[2]  # the other element of order 3
    G = field_make_custom(2, 2, (1, 1, 1), other)
    assert G.generator != F.generator
    for a in F.elements():
        for b in F.elements():
            assert F.add(a, b) == G.add(a, b)
            assert F.mul(a, b) == G.mul(a, b)


def test_custom_field_rejects_non_generator():
    with pytest.raises(DegreeTooLarge):
        field_make_custom(3, 2, (1, 0, 1), 3)  # x has order 4 mod x^2+1
