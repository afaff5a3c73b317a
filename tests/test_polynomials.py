from fractions import Fraction

from sumsetlab.polynomials import RationalPolynomial, interpolate_consecutive
from sumsetlab.reporting import render_int, render_rational

from oracles import monic_shifted_product


class TestRendering:
    def test_linear(self):
        poly = RationalPolynomial.from_coefficients([-5, 5])
        assert str(poly) == "5*X - 5"

    def test_monic_quadratic(self):
        poly = RationalPolynomial.from_coefficients([1, 2, 1])
        assert str(poly) == "X^2 + 2*X + 1"

    def test_fraction_coefficients(self):
        poly = RationalPolynomial.from_coefficients(
            [1, Fraction(3, 2), Fraction(1, 2)])
        assert str(poly) == "1/2*X^2 + 3/2*X + 1"

    def test_zero_and_constant(self):
        assert str(RationalPolynomial.from_coefficients([])) == "0"
        assert str(RationalPolynomial.from_coefficients([7])) == "7"
        assert str(RationalPolynomial.from_coefficients([0, -1])) == "-X"


class TestInterpolation:
    def test_reproduces_quadratic(self):
        target = RationalPolynomial.from_coefficients([1, 2, 1])
        fitted = interpolate_consecutive(4, [target(4 + i) for i in range(3)])
        assert fitted.coefficients == target.coefficients

    def test_exact_fractions(self):
        fitted = interpolate_consecutive(0, [0, Fraction(1, 2), 2])
        assert fitted(4) == 8  # (X^2)/2 at 4

    def test_shifted_product(self):
        # (X + 1)(X + 2) = X^2 + 3X + 2
        poly = monic_shifted_product(0, 2)
        assert poly.coefficients == (Fraction(2), Fraction(3), Fraction(1))


class TestValueRendering:
    def test_small_ints_stay_numbers(self):
        assert render_int(43) == 43
        assert render_int(-(2 ** 40)) == -(2 ** 40)

    def test_big_ints_become_decimal_records(self):
        rec = render_int(30 ** 15)
        assert rec == {"decimal": str(30 ** 15), "digits": 23}

    def test_rationals(self):
        assert render_rational(Fraction(5, 2)) == "5/2"
        assert render_rational(Fraction(6, 2)) == 3
