import itertools
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import intersect_oracle, kernel_oracle
from _samplers import matrices, sparse_rationals, wide_rationals
from sympla import exactla
from sympla.exactla import (
    Matrix,
    Q,
    Subspace,
    combine,
    coordinates,
    orthogonal_complement,
    poly_divmod,
    rational_roots,
    rational_sqrt,
    solve_linear,
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


def test_intersect_sum_and_contains_of_equal_subspaces():
    a = Subspace.span(3, [(1, 2, 0), (0, 0, 1)])
    assert a.intersect(a) == a == a.sum(a)
    assert a.contains(a)


def test_intersect_sum_and_contains_of_complementary_lines():
    a = Subspace.span(2, [(1, 0)])
    b = Subspace.span(2, [(0, 1)])
    assert a.intersect(b).is_zero()
    assert a.sum(b) == Subspace.full(2)
    assert not a.contains(b) and not b.contains(a)


@settings(max_examples=40, deadline=None)
@given(rows_strategy(2, 6), rows_strategy(3, 6))
def test_dimension_formula(rows_a, rows_b):
    a = Subspace.span(6, rows_a)
    b = Subspace.span(6, rows_b)
    assert a.sum(b).dim + a.intersect(b).dim == a.dim + b.dim


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


def test_rational_roots_examples():
    assert rational_roots([]) == rational_roots([Q(0)]) == rational_roots([Q(5)]) == []
    assert rational_roots([Q(0), Q(0), Q(3)]) == [Q(0)]
    assert rational_roots([Q(1), Q(-2), Q(1)]) == [Q(1)]  # a double root
    assert rational_roots([Q(-1, 2), Q(0), Q(2)]) == [Q(-1, 2), Q(1, 2)]
    # x(6x^3 - 7x^2 + 1) = x(x - 1)(2x - 1)(3x + 1)
    assert rational_roots([Q(0), Q(1), Q(0), Q(-7), Q(6)]) == [Q(-1, 3), Q(0), Q(1, 2), Q(1)]
    # x^2 + 1/4 has no real root; x^2 - 1/4 has two
    assert rational_roots([Q(1, 4), Q(0), Q(1)]) == []
    assert rational_roots([Q(-1, 4), Q(0), Q(1)]) == [Q(-1, 2), Q(1, 2)]


def test_rational_roots_does_not_factor_the_constant_term():
    """x^2 - 7 * 1000003 * 1000033 * 1000037 has no rational root; trial
    division of the constant term would take hours."""
    start = time.perf_counter()
    assert rational_roots([Q(-7 * 1000003 * 1000033 * 1000037), Q(0), Q(1)]) == []
    big = 1000003 * 1000033
    assert rational_roots([Q(-big * 1000037), Q(big + 1000037), Q(-1)]) \
        == [Q(1000037), Q(big)]
    assert time.perf_counter() - start < 1.0


@given(st.lists(rationals, max_size=6),
       st.lists(rationals, max_size=4).map(lambda c: c + [Q(1, 2)]))
def test_poly_divmod_reconstructs_the_dividend(a, b):
    """a = q*b + r with deg r < deg b and no trailing zeros in r."""
    quot, rem = poly_divmod(a, b)
    product = [Q(0)] * max(len(a), len(quot) + len(b) - 1, len(rem))
    for i, x in enumerate(quot):
        for j, y in enumerate(b):
            product[i + j] += x * y
    for i, x in enumerate(rem):
        product[i] += x
    padded = list(a) + [Q(0)] * (len(product) - len(a))
    assert product == padded
    assert len(rem) < len(b) and (not rem or rem[-1] != 0)


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


# ---------------------------------------------------------------------------
# the fraction-free kernel against Fraction Gauss-Jordan


def rref_oracle(rows: list[list[Fraction]], cols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan on Fraction entries with leftmost pivots; a test-only oracle."""
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def det_oracle(m: Matrix) -> Fraction:
    """Determinant by Fraction Gaussian elimination; a test-only oracle."""
    n = m.nrows
    work = [list(r) for r in m.rows]
    det = Q(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i][c] != 0), None)
        if pivot is None:
            return Q(0)
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            det = -det
        det *= work[c][c]
        inv = 1 / work[c][c]
        for i in range(c + 1, n):
            if work[i][c] != 0:
                f = work[i][c] * inv
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return det


def with_oracle(fn, *args):
    """fn(*args) with every elimination done by rref_oracle."""
    with mock.patch.object(exactla, "_rref", rref_oracle):
        return fn(*args)


def all_fractions(rows) -> bool:
    return all(type(x) is Fraction for r in rows for x in r)


def null_space_oracle(m: Matrix) -> Subspace:
    return Subspace.span(m.cols, kernel_oracle(m))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_span_and_kernel_match_the_oracle(m):
    red, pivots = m.rref()
    assert (red, pivots) == with_oracle(m.rref)
    assert all_fractions(red.rows)
    span = Subspace.span(m.cols, m.rows)
    assert span == with_oracle(Subspace.span, m.cols, m.rows)
    assert all_fractions(span.rows)
    kernel = m.null_space()
    assert kernel == with_oracle(null_space_oracle, m)
    assert all_fractions(kernel.rows)
    assert Subspace.span(m.cols, m.rows).annihilator() == kernel


@settings(max_examples=150, deadline=None)
@given(st.shared(st.integers(0, 7), key="cols").flatmap(
    lambda n: st.tuples(*[matrices(ncols=st.just(n))] * 3)))
def test_intersect_matches_the_oracle(ms):
    """Subspaces sharing the span of a third matrix, so that intersections
    of every dimension occur, zero subspaces and 0 columns included."""
    a, b, c = ms
    n = a.cols
    sa, sb = Subspace.span(n, a.rows + c.rows), Subspace.span(n, b.rows + c.rows)
    for x, y in ((sa, sb), (sa, Subspace.span(n, a.rows)), (sa, Subspace.zero(n)),
                 (Subspace.full(n), sb)):
        inter = x.intersect(y)
        assert inter == with_oracle(intersect_oracle, x, y) == y.intersect(x)
        assert all_fractions(inter.rows)
        assert x.contains(inter) and y.contains(inter)


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_solve_linear_matches_the_oracle(m, data):
    x = data.draw(st.lists(sparse_rationals, min_size=m.cols, max_size=m.cols))
    consistent = m.matvec(tuple(x))
    arbitrary = data.draw(st.lists(wide_rationals, min_size=m.nrows, max_size=m.nrows))
    for rhs in (consistent, arbitrary):
        res = solve_linear(m, rhs)
        assert res == with_oracle(solve_linear, m, rhs)
        assert res.kernel == with_oracle(null_space_oracle, m)
        if res.particular is not None:
            assert all_fractions([res.particular]) and m.matvec(res.particular) == tuple(rhs)
    # a zero row with a nonzero right-hand side is never solvable
    padded = Matrix(m.rows + ((Q(0),) * m.cols,), m.cols)
    rhs = tuple(consistent) + (Q(1),)
    assert solve_linear(padded, rhs) == with_oracle(solve_linear, padded, rhs)
    assert not solve_linear(padded, rhs).consistent


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_coordinates_match_the_oracle(m, data):
    basis = Subspace.span(m.cols, m.rows).rows
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    shuffled = [tuple(Q(rng.randint(1, 3)) * x for x in r) for r in basis]
    rng.shuffle(shuffled)
    coeffs = data.draw(st.lists(wide_rationals, min_size=len(basis), max_size=len(basis)))
    inside = combine(coeffs, shuffled, m.cols)
    outside = data.draw(st.lists(wide_rationals, min_size=m.cols, max_size=m.cols))
    for v in (inside, outside):
        c = coordinates(shuffled, v)
        assert c == with_oracle(coordinates, shuffled, v)
        if c is not None:
            assert all_fractions([c]) and combine(c, shuffled, m.cols) == tuple(v)
    assert coordinates(shuffled, inside) == tuple(coeffs)


@settings(max_examples=150, deadline=None)
@given(matrices(nrows=st.shared(st.integers(0, 6), key="n"),
                ncols=st.shared(st.integers(0, 6), key="n")))
def test_det_matches_the_oracle(m):
    m = Matrix(m.rows[: m.cols], m.cols)  # drop the extra rows that make it tall
    d = m.det()
    assert d == det_oracle(m)
    assert type(d) is Fraction


def test_det_edge_cases():
    assert Matrix((), 0).det() == 1
    assert Matrix.from_rows([[Q(1, 3), Q(1, 2)], [Q(2, 5), Q(-1, 7)]]).det() == Q(-26, 105)
    assert Matrix.from_rows([[0, 1], [1, 0]]).det() == -1
    with pytest.raises(exactla.DimensionMismatch):
        Matrix.zeros(2, 3).det()


def test_full_is_the_span_of_the_unit_vectors():
    for n in range(6):
        full = Subspace.full(n)
        assert full == with_oracle(Subspace.span, n, [vunit(n, i) for i in range(n)])
        assert all_fractions(full.rows)


def test_rref_of_degenerate_shapes():
    assert Matrix((), 4).rref() == (Matrix((), 4), ())
    empty_rows = Matrix(((), (), ()), 0)
    assert empty_rows.rref() == (empty_rows, ())
    assert empty_rows.null_space() == Subspace.zero(0)
    assert Matrix((), 3).null_space() == Subspace.full(3)
