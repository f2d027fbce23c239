"""The exact core against sympy's exact matrices over QQ (skipped without sympy)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from _samplers import matrices, sparse_rationals, wide_rationals
from sympla.exactla import Matrix, Subspace, charpoly, rational_roots

sympy = pytest.importorskip("sympy")


def to_sympy(m: Matrix):
    return sympy.Matrix(m.nrows, m.cols,
                        [sympy.Rational(x.numerator, x.denominator) for r in m.rows for x in r])


def from_sympy(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


def rows_of(sm) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(from_sympy(sm[i, j]) for j in range(sm.cols)) for i in range(sm.rows))


@settings(max_examples=60, deadline=None)
@given(matrices(nrows=st.integers(1, 6), ncols=st.integers(1, 6)))
def test_rref_and_nullspace_match_sympy(m):
    red, pivots = m.rref()
    sred, spivots = to_sympy(m).rref()
    assert red.rows == rows_of(sred)
    assert pivots == tuple(spivots)
    null = [[from_sympy(x) for x in v] for v in to_sympy(m).nullspace()]
    assert m.null_space() == Subspace.span(m.cols, null)


square = st.shared(st.integers(1, 5), key="side")


@settings(max_examples=60, deadline=None)
@given(matrices(nrows=square, ncols=square))
def test_det_and_charpoly_match_sympy(m):
    m = Matrix(m.rows[: m.cols], m.cols)  # drop the extra rows that make it tall
    sm = to_sympy(m)
    assert m.det() == from_sympy(sm.det())
    coeffs = sm.charpoly().all_coeffs()
    assert charpoly(m) == tuple(from_sympy(c) for c in reversed(coeffs))


@st.composite
def polynomials_with_roots(draw):
    """Coefficients (c_0 first) of a product of rational linear factors and a
    random cofactor, so that rational roots, repeated ones and irrational or
    complex ones all occur."""
    coeffs = draw(st.lists(sparse_rationals, min_size=0, max_size=4))
    for root in draw(st.lists(wide_rationals, max_size=4)):
        coeffs = [b - root * a for a, b in zip(coeffs + [Fraction(0)], [Fraction(0)] + coeffs)]
    return coeffs


@settings(max_examples=80, deadline=None)
@given(polynomials_with_roots())
def test_rational_roots_match_sympy(coeffs):
    x = sympy.Symbol("x")
    expected = []
    if any(coeffs):
        poly = sympy.Poly(list(reversed([sympy.Rational(c.numerator, c.denominator)
                                         for c in coeffs])), x, domain="QQ")
        expected = sorted(from_sympy(r) for r in sympy.roots(poly, filter="Q"))
    assert rational_roots(coeffs) == expected
