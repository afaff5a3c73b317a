"""Exact univariate polynomials with rational coefficients."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import InternalInvariantError


def _trim(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class RationalPolynomial:
    """Coefficients in ascending degree order, exact Fractions, trimmed."""

    coefficients: tuple[Fraction, ...]

    @classmethod
    def from_coefficients(cls, coeffs) -> "RationalPolynomial":
        return cls(_trim([Fraction(c) for c in coeffs]))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1 if self.coefficients else -1

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def scale(self, factor) -> "RationalPolynomial":
        f = Fraction(factor)
        return RationalPolynomial(_trim([c * f for c in self.coefficients]))

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coefficients, other.coefficients
        n = max(len(a), len(b))
        out = [Fraction(0)] * n
        for i, c in enumerate(a):
            out[i] += c
        for i, c in enumerate(b):
            out[i] += c
        return RationalPolynomial(_trim(out))

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for k in range(len(self.coefficients) - 1, -1, -1):
            c = self.coefficients[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "X" if k == 1 else f"X^{k}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"


def interpolate_consecutive(start: int, values) -> RationalPolynomial:
    """The unique degree < len(values) polynomial through (start + i, values[i]).

    Exact Newton forward differences; no least squares anywhere.
    """
    vals = [Fraction(v) for v in values]
    if not vals:
        raise InternalInvariantError("cannot interpolate an empty value list")
    diffs = [vals]
    while len(diffs[-1]) > 1:
        prev = diffs[-1]
        diffs.append([b - a for a, b in zip(prev, prev[1:])])
    poly = RationalPolynomial.from_coefficients([0])
    basis = RationalPolynomial.from_coefficients([1])
    for k, column in enumerate(diffs):
        coeff = column[0] / factorial(k)
        poly = poly + basis.scale(coeff)
        root = start + k
        basis = _mul_linear(basis, -root)
    return poly


def _mul_linear(poly: RationalPolynomial, constant) -> RationalPolynomial:
    """poly * (X + constant)."""
    coeffs = list(poly.coefficients)
    out = [Fraction(0)] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i + 1] += c
        out[i] += c * Fraction(constant)
    return RationalPolynomial(_trim(out))
