import random

import pytest

from _samplers import (
    abelian_oxidation_data,
    heisenberg_oxidation_data,
    heisenberg_pair_base,
)
from sympla.exactla import Matrix, Q, Subspace, vunit
from sympla.liealg import (
    Cochain,
    LieAlgebra,
    ValidationError,
    center,
    matrix_as_two_form,
    nilpotency_class,
    two_form_derive,
    validate_jacobi,
)
from sympla.oxidation import (
    OxidationData,
    central_oxidation,
    coboundary_condition_holds,
    oxidation_obstruction,
    recover_oxidation_data,
    symplectic_oxidation,
)


def test_central_oxidation_abelian_trivial():
    base = LieAlgebra.abelian(4)
    data = OxidationData(base, Matrix.zeros(4, 4), Cochain.zero(2, 4, 1),
                         Cochain.zero(1, 4, 1))
    ox = central_oxidation(data)
    assert validate_jacobi(ox).ok
    assert nilpotency_class(ox) == 1


def test_central_oxidation_g8_class_four():
    from sympla.catalog import g8_oxidation_data

    ox = central_oxidation(g8_oxidation_data())
    assert nilpotency_class(ox) == 4
    assert center(ox).contains_vector(vunit(8, 7))


def test_central_oxidation_rejects_violating_data():
    base, omega = heisenberg_pair_base()
    rows = [[Q(0)] * 6 for _ in range(6)]
    rows[0][1] = Q(1)
    rows[3][4] = Q(1)
    phi = Matrix.from_rows(rows, 6)
    alpha = two_form_derive(base, matrix_as_two_form(omega), phi)
    # lam(Z) = 1 breaks alpha_phi = lam([., .]) on the pair (X, Y)
    lam = Cochain.from_values(1, 6, 1, {(2,): (1,)})
    data = OxidationData(base, phi, alpha, lam, omega)
    assert not coboundary_condition_holds(data)
    with pytest.raises(ValidationError) as err:
        central_oxidation(data)
    assert "witness" in str(err.value)


def test_symplectic_oxidation_reproduces_g8(cat):
    e = cat("g8")
    g = e.algebra
    # brackets match the explicit table: [X,Y]=Z, [X',Y']=Z', [Y,Z]=H,
    # [Y',Z']=H, [xi,Y]=X, [xi,Y']=X'
    expected = {
        (1, 2): {3: Q(1)}, (4, 5): {6: Q(1)}, (2, 3): {7: Q(1)},
        (5, 6): {7: Q(1)}, (0, 2): {1: Q(1)}, (0, 5): {4: Q(1)},
    }
    for i in range(8):
        for j in range(i + 1, 8):
            entry = {k: c for k, c in enumerate(g.bracket_basis(i, j)) if c != 0}
            assert entry == expected.get((i, j), {})
    om = e.symplectic.omega
    pairs = {(i, j): om.rows[i][j] for i in range(8) for j in range(i + 1, 8)
             if om.rows[i][j] != 0}
    assert pairs == {(0, 7): Q(1), (1, 3): Q(1), (4, 6): Q(1), (2, 5): Q(1)}


def test_symplectic_oxidation_requires_derived_alpha():
    base, omega = heisenberg_pair_base()
    rows = [[Q(0)] * 6 for _ in range(6)]
    rows[0][1] = Q(1)
    rows[3][4] = Q(1)
    phi = Matrix.from_rows(rows, 6)
    wrong_alpha = Cochain.zero(2, 6, 1)
    data = OxidationData(base, phi, wrong_alpha, Cochain.zero(1, 6, 1), omega)
    with pytest.raises(ValidationError):
        symplectic_oxidation(data)


def test_symplectic_oxidation_phi_zero_semidirect():
    rng = random.Random(0)
    base = LieAlgebra.abelian(4)
    from _samplers import random_nondegenerate_skew

    omega = random_nondegenerate_skew(rng, 4)
    data = OxidationData(base, Matrix.zeros(4, 4), Cochain.zero(2, 4, 1),
                         Cochain.zero(1, 4, 1), omega)
    s = symplectic_oxidation(data)
    assert s.dim == 6
    assert nilpotency_class(s.algebra) == 1


def test_obstruction_g8_data():
    from sympla.catalog import g8_oxidation_data

    data = g8_oxidation_data()
    report = oxidation_obstruction(data.base, data.omega_bar, data.phi)
    assert report.beta.is_zero()
    assert report.vanishes_in_h2
    assert report.primitive is not None and report.primitive.is_zero()


def test_obstruction_on_bases_of_dimension_zero_and_one():
    """No bracket rows: the class vanishes and the primitive is the zero covector."""
    for n in (0, 1):
        g = LieAlgebra.abelian(n)
        report = oxidation_obstruction(g, Matrix.zeros(n, n), Matrix.identity(n))
        assert report.beta == Cochain.zero(2, n, 1)
        assert report.vanishes_in_h2
        assert report.primitive == Cochain.zero(1, n, 1)


def test_obstruction_abelian_iff_beta_zero():
    rng = random.Random(4)
    base = LieAlgebra.abelian(4)
    from _samplers import random_nondegenerate_skew

    omega = random_nondegenerate_skew(rng, 4)
    phi = Matrix.from_rows([[0, 1, 0, 0], [0, 0, 0, 0],
                            [0, 0, 0, 0], [0, 0, 0, 0]], 4)
    report = oxidation_obstruction(base, omega, phi)
    # on an abelian base there are no coboundaries, so the class vanishes
    # exactly when the second derived form is zero
    assert report.vanishes_in_h2 == report.beta.is_zero()


def test_obstruction_heisenberg_vs_direct_solve():
    """Membership of the second derived form in the coboundaries, checked by
    an independent enumeration of the coboundary space."""
    rng = random.Random(8)
    g = LieAlgebra.from_brackets(("X", "Y", "Z"), {(0, 1): {2: 1}})
    from sympla.liealg import derivation_algebra, matrix_from_flat, combos

    der = derivation_algebra(g)
    for flat in der.rows[:6]:
        phi = matrix_from_flat(flat, 3)
        omega = Matrix.from_rows([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], 3)
        report = oxidation_obstruction(g, omega, phi)
        # oracle: the coboundary space of one-forms is spanned by the images
        # d(e^i), i.e. maps (u, v) -> -e^i([u, v])
        span_rows = []
        for i in range(3):
            row = []
            for a, b in combos(3, 2):
                row.append(-g.bracket_basis(a, b)[i])
            span_rows.append(row)
        target = [report.beta.value_on_combo(c)[0] for c in combos(3, 2)]
        from sympla.exactla import solve_linear

        res = solve_linear(Matrix.from_rows(span_rows, 3).transpose(),
                           tuple(-t for t in target))
        assert report.vanishes_in_h2 == (res.particular is not None)


def test_recover_round_trip_g8(cat):
    e = cat("g8")
    s = e.symplectic
    data, w_rows = recover_oxidation_data(s, vunit(8, 7), vunit(8, 0))
    rebuilt = symplectic_oxidation(data)
    assert rebuilt.algebra.table == s.algebra.table
    assert rebuilt.omega.rows == s.omega.rows
    assert all(m == 0 for m in data.lam.coords)


def test_recover_round_trip_semidirect():
    rng = random.Random(1)
    base = LieAlgebra.abelian(2)
    from _samplers import random_nondegenerate_skew

    omega = random_nondegenerate_skew(rng, 2)
    data = OxidationData(base, Matrix.zeros(2, 2), Cochain.zero(2, 2, 1),
                         Cochain.zero(1, 2, 1), omega)
    s = symplectic_oxidation(data)
    rec, _ = recover_oxidation_data(s, vunit(4, 3), vunit(4, 0))
    assert rec.phi.is_zero()
    assert rec.lam.is_zero()
    assert rec.alpha.is_zero()


def test_recover_round_trip_random():
    rng = random.Random(20)
    for i in range(12):
        data = abelian_oxidation_data(rng, rng.choice((1, 2, 3))) if i % 2 == 0 \
            else heisenberg_oxidation_data(rng)
        s = symplectic_oxidation(data)
        n = s.dim
        rec, _ = recover_oxidation_data(s, vunit(n, n - 1), vunit(n, 0))
        assert rec.base.table == data.base.table
        assert rec.phi.rows == data.phi.rows
        assert rec.alpha.coords == data.alpha.coords
        assert rec.lam.coords == data.lam.coords
        assert rec.omega_bar.rows == data.omega_bar.rows
        rebuilt = symplectic_oxidation(rec)
        assert rebuilt.algebra.table == s.algebra.table
        assert rebuilt.omega.rows == s.omega.rows


def test_jacobi_iff_coboundary_condition():
    """The oxidized bracket satisfies Jacobi exactly when the coboundary
    condition holds, tested in both directions with perturbations."""
    rng = random.Random(33)
    for _ in range(8):
        data = heisenberg_oxidation_data(rng)
        assert coboundary_condition_holds(data)
        central_oxidation(data)  # succeeds
        # perturb lam on the commutator direction Z: breaks the condition
        bad_lam = data.lam.add(Cochain.from_values(1, 6, 1, {(2,): (1,)}))
        bad = OxidationData(data.base, data.phi, data.alpha, bad_lam,
                            data.omega_bar)
        assert not coboundary_condition_holds(bad)
        with pytest.raises(ValidationError):
            central_oxidation(bad)


def test_recover_requires_central_marker(cat):
    e = cat("g8")
    with pytest.raises(ValidationError):
        recover_oxidation_data(e.symplectic, vunit(8, 3), vunit(8, 0))  # Z not central
    with pytest.raises(ValidationError):
        recover_oxidation_data(e.symplectic, vunit(8, 7), vunit(8, 1))  # omega(X, H) = 0


def test_recover_scales_xi(cat):
    e = cat("g8")
    s = e.symplectic
    data, _ = recover_oxidation_data(s, vunit(8, 7), tuple(3 * x for x in vunit(8, 0)))
    rebuilt = symplectic_oxidation(data)
    assert rebuilt.algebra.table == s.algebra.table


def test_oxidation_nilpotent_preserved():
    rng = random.Random(5)
    for _ in range(5):
        data = abelian_oxidation_data(rng, 2)
        ox = central_oxidation(data)
        assert nilpotency_class(ox) is not None
        assert center(ox).contains_vector(vunit(ox.dim, ox.dim - 1))
