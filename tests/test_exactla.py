import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sympla.exactla import (
    Matrix,
    Q,
    Subspace,
    orthogonal_complement,
    rational_roots,
    rational_sqrt,
    solve_linear,
    subspace_relate,
    vunit,
    charpoly,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def minor_rank(a: Matrix) -> int:
    """Rank via nonzero minors; exponential, an oracle independent of RREF."""
    n = min(a.nrows, a.cols)
    for k in range(n, 0, -1):
        for rows in itertools.combinations(range(a.nrows), k):
            for cols in itertools.combinations(range(a.cols), k):
                sub = Matrix.from_rows(
                    [[a.rows[i][j] for j in cols] for i in rows], k
                )
                if sub.det() != 0:
                    return k
    return 0


def rows_strategy(nrows, ncols):
    return st.lists(
        st.lists(rationals, min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows)


def test_rref_identity_case():
    sub = Subspace.span(2, [(1, 0), (0, 1)])
    assert sub.dim == 2
    assert sub.rows == (vunit(2, 0), vunit(2, 1))


def test_rref_dependent_rows():
    sub = Subspace.span(2, [(2, 4), (1, 2)])
    assert sub.dim == 1
    assert sub.rows == ((Q(1), Q(2)),)


def test_rref_rank_against_minor_oracle():
    rng = random.Random(7)
    for _ in range(12):
        rows = [[Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(5)]
                for _ in range(7)]
        m = Matrix.from_rows(rows, 5)
        assert Subspace.span(5, rows).dim == minor_rank(m)


def test_rref_idempotent_and_order_independent():
    rng = random.Random(11)
    rows = [[Q(rng.randint(-3, 3)) for _ in range(4)] for _ in range(5)]
    a = Subspace.span(4, rows)
    b = Subspace.span(4, list(reversed(rows)))
    assert a == b
    assert Subspace.span(4, a.rows) == a


def test_relate_equal_subspaces():
    a = Subspace.span(3, [(1, 2, 0), (0, 0, 1)])
    rel = subspace_relate(a, a)
    assert rel.intersection == a == rel.sum
    assert rel.a_contains_b and rel.b_contains_a


def test_relate_complementary_lines():
    a = Subspace.span(2, [(1, 0)])
    b = Subspace.span(2, [(0, 1)])
    rel = subspace_relate(a, b)
    assert rel.intersection.is_zero()
    assert rel.sum == Subspace.full(2)
    assert not rel.a_contains_b and not rel.b_contains_a


@settings(max_examples=40, deadline=None)
@given(rows_strategy(2, 6), rows_strategy(3, 6))
def test_dimension_formula(rows_a, rows_b):
    a = Subspace.span(6, rows_a)
    b = Subspace.span(6, rows_b)
    rel = subspace_relate(a, b)
    assert rel.sum.dim + rel.intersection.dim == a.dim + b.dim


def test_solve_identity():
    res = solve_linear(Matrix.identity(3), (1, 2, 3))
    assert res.particular == (Q(1), Q(2), Q(3))
    assert res.kernel.is_zero()


def test_solve_inconsistent():
    res = solve_linear(Matrix.zeros(2, 2), (1, 0))
    assert res.particular is None


def test_solve_residual_random():
    rng = random.Random(3)
    for _ in range(10):
        a = Matrix.from_rows(
            [[Q(rng.randint(-2, 2)) for _ in range(8)] for _ in range(5)], 8)
        x = tuple(Q(rng.randint(-2, 2)) for _ in range(8))
        b = a.matvec(x)
        res = solve_linear(a, b)
        assert res.particular is not None
        assert a.matvec(res.particular) == b
        for k in res.kernel.rows:
            assert all(v == 0 for v in a.matvec(k))


def test_orthogonal_complement_zero_subspace():
    form = Matrix.identity(4)
    assert orthogonal_complement(form, Subspace.zero(4)) == Subspace.full(4)


def test_orthogonal_complement_symplectic_line():
    # omega = e1^e3 + e2^e4; the orthogonal of <e1> is cut out by the e3 coord
    rows = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
    form = Matrix.from_rows(rows, 4)
    perp = orthogonal_complement(form, Subspace.span(4, [(1, 0, 0, 0)]))
    expected = Subspace.span(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)])
    assert perp == expected


@settings(max_examples=25, deadline=None)
@given(rows_strategy(2, 4))
def test_double_complement_nondegenerate(rows):
    rows_form = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
    form = Matrix.from_rows(rows_form, 4)
    w = Subspace.span(4, rows)
    assert orthogonal_complement(form, orthogonal_complement(form, w)) == w


def test_charpoly_and_rational_roots():
    m = Matrix.from_rows([[2, 0], [0, 3]], 2)
    assert charpoly(m) == (Q(6), Q(-5), Q(1))
    assert rational_roots(charpoly(m)) == [Q(2), Q(3)]
    rot = Matrix.from_rows([[0, 1], [-1, 0]], 2)
    assert rational_roots(charpoly(rot)) == []


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None
    assert rational_sqrt(Fraction(0)) == 0


def test_rational_sqrt_beyond_float_range():
    assert rational_sqrt(Fraction(10**400)) == 10**200
    assert rational_sqrt(Fraction((10**200 + 1) ** 2)) == 10**200 + 1
    assert rational_sqrt(Fraction((10**200 + 1) ** 2, 4)) == Fraction(10**200 + 1, 2)
    assert rational_sqrt(Fraction(10**401)) is None
    assert rational_sqrt(Fraction((10**200 + 1) ** 2 + 1)) is None
