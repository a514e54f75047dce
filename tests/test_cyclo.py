import sys
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supchar.cyclo import CycloNumber, cyclotomic_poly, ratio, ratio_text
from supchar.errors import OrderMismatch

from conftest import FractionCyclo


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


# ---------------------------------------------------------------------------
# the canonical form: integer numerators over one positive denominator
# ---------------------------------------------------------------------------

def test_canonical_form_is_lowest_terms():
    a = CycloNumber(6, [Fraction(2, 4), 0])
    b = CycloNumber.rational(6, Fraction(1, 2))
    assert a == b and hash(a) == hash(b)
    assert (a.nums, a.den) == ((1, 0), 2)
    c = CycloNumber(12, [Fraction(1, 6), Fraction(1, 4), 0, Fraction(-5, 12)])
    assert (c.nums, c.den) == ((2, 3, 0, -5), 12)
    assert CycloNumber.zero(5).den == 1 and (CycloNumber.root(5, 1) * 0).den == 1


def test_from_int_poly_negative_denominator():
    poly = [3, -6, 9, 0, 12, 5]
    for m in (3, 5, 8):
        neg = CycloNumber.from_int_poly(m, poly, -6)
        assert neg == CycloNumber.from_int_poly(m, [-c for c in poly], 6)
        assert neg.den > 0


def test_zero_denominator_raises_like_fraction():
    with pytest.raises(ZeroDivisionError):
        CycloNumber.from_int_poly(5, [1, 2], 0)
    with pytest.raises(ZeroDivisionError):
        CycloNumber.root(5, 1) / 0


ORDERS = (1, 2, 3, 4, 5, 6, 8, 9, 12)
_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def _two_numbers(draw):
    """(m, [x, y]): the coefficient lists of two numbers of Q(zeta_m)."""
    m = draw(st.sampled_from(ORDERS))
    deg = len(cyclotomic_poly(m)) - 1
    return m, [draw(st.lists(_fractions, min_size=deg, max_size=deg)) for _ in range(2)]


def _same(got, want):
    assert got.order == want.order and got.coeffs == want.coeffs
    assert got.render() == want.render()
    assert got.den > 0 and gcd(got.den, *got.nums) == 1


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_two_numbers(), _fractions.filter(bool), st.integers(-7, 7))
def test_arithmetic_matches_the_fraction_oracle(pair, r, k):
    m, (x, y) = pair
    a, b = CycloNumber(m, x), CycloNumber(m, y)
    fa, fb = FractionCyclo(m, x), FractionCyclo(m, y)
    _same(a, fa)
    _same(a + b, fa + fb)
    _same(a - b, fa - fb)
    _same(a * b, fa * fb)
    _same(a + k, fa + k)
    _same(a * r, fa * r)
    _same(a / r, fa / r)
    _same(a.conj(), fa.conj())
    assert (a == b) == (fa.coeffs == fb.coeffs)
    assert a.is_zero() == (not any(fa.coeffs))
    assert a.is_rational() == (not any(fa.coeffs[1:]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(ORDERS), st.lists(st.integers(-50, 50), max_size=30),
       st.integers(-40, 40).filter(bool))
def test_from_int_poly_matches_the_fraction_oracle(m, poly, den):
    _same(CycloNumber.from_int_poly(m, poly, den), FractionCyclo.from_int_poly(m, poly, den))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6).filter(bool))
@example(0, 7)
@example(0, -7)
@example(-6, 4)
@example(6, -4)
@example(-6, -4)
def test_ratio_and_its_text_match_fraction(a, b):
    """The int ratio behind the regular-character coefficients and the c_mu of
    the restriction check, and its text, against Fraction."""
    f = Fraction(a, b)
    assert ratio(a, b) == (f.numerator, f.denominator)
    assert ratio_text(a, b) == str(f)


def test_ratio_by_zero_raises_like_fraction():
    with pytest.raises(ZeroDivisionError):
        ratio(3, 0)


def _rational(m, r) -> FractionCyclo:
    return FractionCyclo(m, [r] + [0] * (len(cyclotomic_poly(m)) - 2))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_two_numbers(), st.one_of(st.integers(-7, 7), _fractions))
def test_rational_operands_match_the_fraction_oracle(pair, r):
    """int and Fraction operands, with no Fraction built for them: either side
    of + and *, the right of - and /, and == from both sides."""
    m, (x, _) = pair
    a, fa = CycloNumber(m, x), FractionCyclo(m, x)
    _same(a + r, fa + r)
    _same(r + a, fa + r)
    _same(a - r, fa - r)
    _same(a * r, fa * r)
    _same(r * a, fa * r)
    if r:
        _same(a / r, fa / r)
    else:
        with pytest.raises(ZeroDivisionError):
            a / r
    assert (a == r) == (r == a) == (fa.coeffs == _rational(m, r).coeffs)
    assert CycloNumber.rational(m, r) == r == CycloNumber.rational(m, r)
    assert (a + r) - r == a


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.sampled_from(ORDERS), st.one_of(st.integers(), _fractions, st.fractions()))
@example(3, 1)
@example(6, Fraction(1, 2))
@example(4, -1)
@example(5, Fraction(-3, sys.hash_info.modulus))
def test_rational_values_hash_as_their_int_or_fraction(m, r):
    """hash agrees with ==: a rational value hashes as the int or Fraction it
    equals, so either finds the other in a set or as a dict key."""
    for a in (CycloNumber.rational(m, r), CycloNumber.root(m, 1) * 0 + r):
        assert a == r and hash(a) == hash(r) == hash(Fraction(r))
        assert len({a, r}) == 1 and {a: "x"}.get(r) == "x" and {r: "y"}.get(a) == "y"


@pytest.mark.parametrize("op,exc", [
    (lambda a: a + 0.5, AttributeError),
    (lambda a: 0.5 + a, AttributeError),
    (lambda a: a - 0.5, AttributeError),
    (lambda a: 0.5 - a, TypeError),
    (lambda a: a * 0.5, AttributeError),
    (lambda a: 0.5 * a, AttributeError),
    (lambda a: a / 0.5, TypeError),
], ids=["add", "radd", "sub", "rsub", "mul", "rmul", "truediv"])
def test_float_operands_are_refused(op, exc):
    """A float is no exact operand: each operator raises the exception type it
    raised when int and Fraction operands were matched with isinstance."""
    with pytest.raises(exc):
        op(CycloNumber.root(3, 1))
    assert CycloNumber.rational(3, 1) != 1.0
