from fractions import Fraction

import pytest
import sympy

from supchar.cyclo import CycloNumber, cyclotomic_poly
from supchar.errors import OrderMismatch


@pytest.mark.parametrize("m", range(1, 37))
def test_cyclotomic_poly_against_sympy(m):
    x = sympy.symbols("x")
    want = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
    assert list(cyclotomic_poly(m)) == [int(c) for c in want]


def test_root_sum_vanishes():
    for m in (2, 3, 5, 6, 12):
        total = CycloNumber.zero(m)
        for j in range(m):
            total = total + CycloNumber.root(m, j)
        assert total.is_zero()


def test_phi6_reduction():
    # zeta_6^2 = zeta_6 - 1 modulo x^2 - x + 1
    z2 = CycloNumber.root(6, 2)
    assert z2 == CycloNumber.root(6, 1) - CycloNumber.rational(6, 1)


def test_conjugation():
    z = CycloNumber.root(5, 1)
    assert z.conj() == CycloNumber.root(5, 4)
    for m in (3, 5, 8, 12):
        for j in range(m):
            w = CycloNumber.root(m, j)
            assert w.conj().conj() == w
            assert (w.conj() * w) == CycloNumber.rational(m, 1)
    a = CycloNumber.root(12, 1) + CycloNumber.root(12, 5) * 3
    b = CycloNumber.root(12, 7) - CycloNumber.rational(12, Fraction(2, 3))
    assert (a * b).conj() == a.conj() * b.conj()


def test_additive_inverse():
    a = CycloNumber.root(7, 3) * 2 + CycloNumber.rational(7, Fraction(1, 2))
    assert (a + (-a)).is_zero()
    assert a - a == CycloNumber.zero(7)


def test_rational_detection():
    assert CycloNumber.rational(12, Fraction(3, 4)).is_rational()
    assert CycloNumber.rational(12, Fraction(3, 4)).rational_value() == Fraction(3, 4)
    assert not CycloNumber.root(12, 1).is_rational()
    # zeta_4^2 = -1 is rational even though built from a root
    sq = CycloNumber.root(4, 1) * CycloNumber.root(4, 1)
    assert sq.is_rational() and sq.rational_value() == -1


def test_division_by_rational():
    a = CycloNumber.root(3, 1) * 6
    assert a / 3 == CycloNumber.root(3, 1) * 2
    assert a / Fraction(3, 2) == CycloNumber.root(3, 1) * 4


def test_order_mismatch():
    with pytest.raises(OrderMismatch):
        CycloNumber.root(3, 1) + CycloNumber.root(4, 1)
    with pytest.raises(OrderMismatch):
        CycloNumber.root(3, 1) * CycloNumber.root(6, 1)


def test_numeric_agreement_with_sympy():
    # exact arithmetic agrees with the complex embedding
    import cmath
    for m in (3, 5, 6, 8, 12):
        a = CycloNumber.root(m, 1) + CycloNumber.root(m, m - 1) * 2
        z = cmath.exp(2j * cmath.pi / m)
        want = z + 2 * z ** (m - 1)
        got = sum(complex(c) * z ** i for i, c in enumerate(a.coeffs))
        assert abs(got - want) < 1e-9


def test_render():
    assert CycloNumber.zero(5).render() == "0"
    assert CycloNumber.rational(5, 1).render() == "1"
    assert CycloNumber.root(5, 1).render() == "1*z"
    assert CycloNumber.rational(5, Fraction(1, 2)).render() == "1/2"
    two_z2 = CycloNumber.root(5, 2) * 2 + CycloNumber.rational(5, -1)
    assert "z^2" in two_z2.render() and two_z2.render().startswith("-1")


def test_hash_consistency():
    a = CycloNumber.root(6, 2)
    b = CycloNumber.root(6, 1) - CycloNumber.rational(6, 1)
    assert a == b and hash(a) == hash(b)
