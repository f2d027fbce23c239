"""The exact core against sympy's exact matrices over QQ (skipped without sympy)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from _samplers import matrices
from sympla.exactla import Matrix, charpoly

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
    null = tuple(tuple(from_sympy(x) for x in v) for v in to_sympy(m).nullspace())
    assert m.kernel_basis() == null


square = st.shared(st.integers(1, 5), key="side")


@settings(max_examples=60, deadline=None)
@given(matrices(nrows=square, ncols=square))
def test_det_and_charpoly_match_sympy(m):
    m = Matrix(m.rows[: m.cols], m.cols)  # drop the extra rows that make it tall
    sm = to_sympy(m)
    assert m.det() == from_sympy(sm.det())
    coeffs = sm.charpoly().all_coeffs()
    assert charpoly(m) == tuple(from_sympy(c) for c in reversed(coeffs))
