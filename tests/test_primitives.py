"""The shared coordinate, combination and quotient-connection primitives,
checked against solve_linear as an independent oracle."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from sympla.endoalg import SymplecticVectorSpace, invariant_isotropic_extension
from sympla.exactla import (
    DimensionMismatch,
    Matrix,
    Q,
    Subspace,
    combine,
    coordinates,
    extend_basis,
    is_invariant,
    solve_linear,
    vunit,
)
from sympla.liealg import LieAlgebra
from sympla.symplectic import (
    SymplecticError,
    SymplecticLieAlgebra,
    dual_rows,
    induced_connection,
    isotropy_report,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def independent_rows(draw, min_rows=0):
    n = draw(st.integers(min_value=max(1, min_rows), max_value=5))
    k = draw(st.integers(min_value=min_rows, max_value=n))
    rows = draw(st.lists(st.lists(rationals, min_size=n, max_size=n),
                         min_size=k, max_size=k))
    rows = tuple(tuple(r) for r in rows)
    assume(Subspace.span(n, rows).dim == k)
    return n, rows


def oracle(rows, n, v):
    return solve_linear(Matrix(rows, n).transpose(), v).particular


@settings(max_examples=60, deadline=None)
@given(independent_rows(), st.data())
def test_coordinates_inverts_combine(nr, data):
    n, rows = nr
    coeffs = tuple(data.draw(st.lists(rationals, min_size=len(rows), max_size=len(rows))))
    v = combine(coeffs, rows, n)
    assert coordinates(rows, v) == coeffs == oracle(rows, n, v)


@settings(max_examples=60, deadline=None)
@given(independent_rows(), st.data())
def test_coordinates_agree_with_solve_linear(nr, data):
    n, rows = nr
    v = tuple(data.draw(st.lists(rationals, min_size=n, max_size=n)))
    assert coordinates(rows, v) == oracle(rows, n, v)


def test_vector_outside_the_span_gives_none():
    rows = ((Q(1), Q(2), Q(0)), (Q(0), Q(1), Q(1)))
    assert coordinates(rows, (1, 3, 1)) == (Q(1), Q(1))
    assert coordinates(rows, vunit(3, 2)) is None
    assert coordinates((), (0, 0)) == ()
    assert coordinates((), (0, 1)) is None


@settings(max_examples=40, deadline=None)
@given(independent_rows(min_rows=1), st.data())
def test_dependent_rows_raise(nr, data):
    n, rows = nr
    coeffs = data.draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
    dependent = rows + (combine(coeffs, rows, n),)
    with pytest.raises(DimensionMismatch):
        coordinates(dependent, rows[0])


def test_row_length_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        coordinates(((Q(1), Q(0)),), (1, 0, 0))


def test_is_invariant_checks_every_operator_on_every_row():
    shift = Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0]], 3)  # e1 -> e2 -> e3 -> 0
    fold = Matrix.from_rows([[1, 0, 1], [0, 1, 0], [0, 0, 0]], 3)  # e3 -> e1, e1 and e2 fixed
    tail = Subspace.span(3, [vunit(3, 1), vunit(3, 2)])
    assert is_invariant(tail, [Matrix.identity(3), shift])
    assert not is_invariant(tail, [Matrix.identity(3), fold])  # only the last row leaves
    assert not is_invariant(Subspace.span(3, [vunit(3, 0)]), [Matrix.identity(3), shift])
    assert is_invariant(Subspace.zero(3), [shift]) and is_invariant(Subspace.full(3), [shift])


def test_extend_basis_takes_the_first_independent_candidates():
    sub = Subspace.span(4, [(1, 1, 0, 0)])
    picked = extend_basis(sub, [vunit(4, i) for i in range(4)])
    assert picked == [vunit(4, 0), vunit(4, 2), vunit(4, 3)]
    assert sub.sum(Subspace.span(4, picked)).dim == 4


def test_dual_rows_and_induced_connection(cat):
    s = cat("g8").symplectic
    g = s.algebra
    j = cat("g8").marked["j3"]
    n_rows = dual_rows(s, j.rows)
    for i, x in enumerate(n_rows):
        assert [s.pair(x, a) for a in j.rows] == list(vunit(j.dim, i))
    omega_h, conn = induced_connection(s, LieAlgebra.abelian(j.dim), n_rows, j.rows)
    assert omega_h == Matrix.identity(j.dim)
    # omega_h(nabla_u v, a) = -omega(v, [u, a]) on the n_rows classes
    for u, mat in zip(n_rows, conn.mats):
        for b, v in enumerate(n_rows):
            col = mat.col(b)
            for t, a in enumerate(j.rows):
                assert sum((omega_h.rows[r][t] * col[r] for r in range(j.dim)), Q(0)) \
                    == -s.pair(v, g.bracket(u, a))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_dual_rows_agrees_with_one_solve_per_unit_vector(n, data):
    """One elimination of [omega a | I] gives each canonical solve_linear solution,
    and fails exactly when some unit right-hand side is inconsistent."""
    upper = data.draw(st.lists(rationals, min_size=n * n, max_size=n * n))
    omega = Matrix(tuple(tuple(Q(0) if r == c else upper[r * n + c] if r < c
                               else -upper[c * n + r] for c in range(n))
                         for r in range(n)), n)
    k = data.draw(st.integers(min_value=0, max_value=n))
    a_rows = tuple(tuple(r) for r in data.draw(
        st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=k, max_size=k)))
    s = SymplecticLieAlgebra(LieAlgebra.abelian(n), omega)
    pairing = Matrix(tuple(omega.matvec(a) for a in a_rows), n)
    expected = [solve_linear(pairing, vunit(k, i)).particular for i in range(k)]
    if any(x is None for x in expected):
        with pytest.raises(SymplecticError):
            dual_rows(s, a_rows)
    else:
        assert dual_rows(s, a_rows) == tuple(expected)


def test_extension_without_operators_grows_the_seed_to_a_lagrangian(cat):
    s = cat("g8").symplectic
    space = SymplecticVectorSpace(s.dim, s.omega)
    seed = Subspace.span(s.dim, [vunit(s.dim, 7)])
    full = invariant_isotropic_extension(space, [], seed)
    assert full.dim == s.dim // 2 and full.contains(seed)
    assert isotropy_report(s, full).lagrangian
