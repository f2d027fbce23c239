import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import evaluate_oracle
from _samplers import SMALL_ALGEBRAS, change_of_basis, random_invertible, random_representation
from sympla.catalog import names as catalog_names
from sympla.exactla import DimensionMismatch, Matrix, Q, Subspace, vscale, vsub, vunit
from sympla.liealg import (
    Cochain,
    LieAlgebra,
    Representation,
    ValidationError,
    adjoint_rep,
    ascending_central_series,
    bracket_span,
    brackets_within,
    center,
    coboundary_apply,
    coboundary_matrix,
    cohomology_space,
    combos,
    derivation_algebra,
    derived_series,
    descending_central_series,
    is_derivation,
    is_ideal,
    killing_radical,
    matrix_as_two_form,
    matrix_from_flat,
    nilpotency_class,
    semidirect,
    solvability_degree,
    trivial_rep,
    two_form_derive,
    validate_jacobi,
)


def heisenberg():
    return SMALL_ALGEBRAS["heisenberg"]


def test_jacobi_abelian_and_heisenberg():
    assert validate_jacobi(LieAlgebra.abelian(4)).ok
    assert validate_jacobi(heisenberg()).ok


def test_jacobi_violation_reported(cat):
    g10 = cat("g10").algebra
    # perturb one structure constant by 1: add y to [u1, v1]
    table = [[list(v) for v in row] for row in g10.table]
    table[2][4][1] += 1
    table[4][2][1] -= 1
    bad = LieAlgebra(g10.labels, tuple(tuple(tuple(r) for r in row) for row in table))
    report = validate_jacobi(bad)
    assert not report.ok
    triples = {v[:3] for v in report.violations}
    assert (2, 3, 4) in triples  # (u1, u2, v1) sees [y, u2] = w2


def test_bracket_span_examples(cat):
    h3 = heisenberg()
    full3 = Subspace.full(3)
    assert bracket_span(h3, full3, Subspace.zero(3)).is_zero()
    derived = bracket_span(h3, full3, full3)
    assert derived.rows == ((Q(0), Q(0), Q(1)),)
    g10 = cat("g10").algebra
    c1 = bracket_span(g10, Subspace.full(10), Subspace.full(10))
    assert c1.dim == 6  # v, w and z directions


def test_series_g8_g10_abelian(cat):
    g8 = cat("g8").algebra
    assert descending_central_series(g8).dims == (8, 5, 3, 1, 0)
    assert nilpotency_class(g8) == 4
    g10 = cat("g10").algebra
    assert descending_central_series(g10).dims == (10, 6, 2, 0)
    assert nilpotency_class(g10) == 3
    ab = LieAlgebra.abelian(3)
    assert nilpotency_class(ab) == 1
    assert solvability_degree(ab) == 1
    assert nilpotency_class(cat("fdim_metab").algebra) is None


def test_series_relations_on_catalog(cat):
    """[C^i, C^j] in C^(i+j+1), [C^i, C_l] in C_(l-i-1), C^(k-i) in C_i."""
    for name in ("g8", "g10", "filiform4"):
        g = cat(name).algebra
        desc = descending_central_series(g).terms
        asc = ascending_central_series(g).terms

        def cdesc(i):
            return desc[i] if i < len(desc) else desc[-1]

        def casc(i):
            if i <= 0:
                return Subspace.zero(g.dim)
            return asc[i] if i < len(asc) else asc[-1]

        k = nilpotency_class(g)
        for i in range(k + 1):
            for j in range(k + 1):
                assert cdesc(min(i + j + 1, len(desc) - 1)).contains(
                    bracket_span(g, cdesc(i), cdesc(j)))
            for ell in range(k + 1):
                assert casc(ell - i - 1).contains(
                    bracket_span(g, cdesc(i), casc(ell)))
            assert casc(k - i).contains(cdesc(i)) or cdesc(i).dim == 0 \
                or casc(k - i).contains(cdesc(i))
        for i in range(k + 1):
            assert casc(i).contains(cdesc(k - i))


def test_subspace_flags(cat):
    fm = cat("fdim_metab")
    g = fm.algebra
    xy = fm.marked["XY"]
    assert is_ideal(g, xy) and brackets_within(g, xy, xy, Subspace.zero(4))
    hz = Subspace.span(4, [vunit(4, 3), vunit(4, 2)])
    assert brackets_within(g, hz, hz, hz) and not is_ideal(g, hz)
    z = center(g)
    assert is_ideal(g, z)
    g10 = cat("g10")
    am = g10.marked["am"]
    assert is_ideal(g10.algebra, am) and brackets_within(g10.algebra, am, am, Subspace.zero(10))


def test_brackets_within_rejects_a_subspace_of_another_dimension():
    g, full3, full4 = heisenberg(), Subspace.full(3), Subspace.full(4)
    for a, b, t in ((full4, full3, full3), (full3, full4, full3), (full3, full3, full4)):
        with pytest.raises(DimensionMismatch):
            brackets_within(g, a, b, t)


@pytest.mark.parametrize("k", [-1, 2])
def test_from_brackets_rejects_an_output_index_outside_the_basis(k):
    with pytest.raises(ValidationError):
        LieAlgebra.from_brackets(2, {(0, 1): {k: 1}})


def test_center_examples(cat):
    assert center(heisenberg()).rows == ((Q(0), Q(0), Q(1)),)
    assert center(cat("g8").algebra).dim == 1
    assert center(cat("g10").algebra).dim == 2


def test_coboundary_squares_to_zero():
    rng = random.Random(5)
    for g in SMALL_ALGEBRAS.values():
        for rep in (trivial_rep(g), adjoint_rep(g)):
            for degree in (0, 1):
                size = len(combos(g.dim, degree)) * rep.module_dim
                coords = tuple(Q(rng.randint(-3, 3)) for _ in range(size))
                c = Cochain(degree, g.dim, rep.module_dim, coords)
                dd = coboundary_apply(rep, coboundary_apply(rep, c))
                assert dd.is_zero()


def coboundary_oracle(rep: Representation, degree: int) -> Matrix:
    """The definitional differential, one basis cochain at a time, evaluating
    cochains on brackets through determinants of minors (evaluate_oracle);
    slow, and independent of the structure-constant scatter it checks."""
    g = rep.algebra
    n, m = g.dim, rep.module_dim
    size_in = len(combos(n, degree)) * m
    cols = []
    for col in range(size_in):
        c = Cochain(degree, n, m, vunit(size_in, col))
        values = {}
        if degree == 0:
            for (i,) in combos(n, 1):
                values[(i,)] = rep.mats[i].matvec(c.value_on_combo(()))
        elif degree == 1:
            for i, j in combos(n, 2):
                values[(i, j)] = vsub(vsub(rep.mats[i].matvec(c.value_on_combo((j,))),
                                           rep.mats[j].matvec(c.value_on_combo((i,)))),
                                      evaluate_oracle(c, g.bracket_basis(i, j)))
        else:
            for i, j, k in combos(n, 3):
                ei, ej, ek = (g.basis_vector(t) for t in (i, j, k))
                terms = (rep.mats[i].matvec(c.value_on_combo((j, k))),
                         vscale(Q(-1), rep.mats[j].matvec(c.value_on_combo((i, k)))),
                         rep.mats[k].matvec(c.value_on_combo((i, j))),
                         evaluate_oracle(c, ei, g.bracket_basis(j, k)),
                         evaluate_oracle(c, ek, g.bracket_basis(i, j)),
                         evaluate_oracle(c, ej, g.bracket_basis(k, i)))
                values[(i, j, k)] = tuple(sum(t, Q(0)) for t in zip(*terms))
        cols.append(Cochain.from_values(degree + 1, n, m, values).coords)
    size_out = len(combos(n, degree + 1)) * m
    return Matrix(tuple(cols), size_out).transpose() if cols else Matrix((), 0)


CATALOG_MODULES = [(name, module) for name in catalog_names()
                   for module in ("trivial", "adjoint")]


@pytest.mark.parametrize("name,module", CATALOG_MODULES)
def test_coboundary_matrix_matches_oracle_on_catalog(cat, name, module):
    g = cat(name).algebra
    rep = trivial_rep(g) if module == "trivial" else adjoint_rep(g)
    degrees = (0, 1, 2) if module == "trivial" or g.dim <= 6 else (0, 1)
    d = {k: coboundary_matrix(rep, k) for k in degrees}
    for k in degrees:
        assert d[k] == coboundary_oracle(rep, k)
        if k and d[k - 1].nrows:
            assert d[k].mul(d[k - 1]).is_zero()


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(SMALL_ALGEBRAS)), st.booleans(),
       st.integers(min_value=0, max_value=2**32))
def test_coboundary_matrix_matches_oracle_on_random_modules(name, dense, seed):
    rng = random.Random(seed)
    g = SMALL_ALGEBRAS[name]
    if dense:
        g = change_of_basis(g, *random_invertible(rng, g.dim))
    rep = random_representation(rng, g)
    d = [coboundary_matrix(rep, k) for k in range(3)]
    for k in range(3):
        assert d[k] == coboundary_oracle(rep, k)
        if k and d[k - 1].nrows:
            assert d[k].mul(d[k - 1]).is_zero()


def test_coboundary_trivial_rep_degree_one():
    """With trivial coefficients the degree-1 differential is -lambda([u, v])."""
    g = heisenberg()
    rep = trivial_rep(g)
    lam = Cochain.from_values(1, 3, 1, {(0,): (1,), (1,): (2,), (2,): (5,)})
    image = coboundary_apply(rep, lam)
    for i, j in combos(3, 2):
        assert image.value_on_combo((i, j))[0] == -evaluate_oracle(lam, g.bracket_basis(i, j))[0]


def test_trivial_rep_of_the_zero_algebra_keeps_its_module_dim():
    rep = trivial_rep(LieAlgebra.abelian(0), 2)
    assert rep.module_dim == 2
    d0 = coboundary_matrix(rep, 0)
    assert (d0.nrows, d0.cols) == (0, 2)


def test_cohomology_dims(cat):
    g8 = cat("g8").algebra
    coh = cohomology_space(trivial_rep(g8), 2)
    assert coh.z_dim == 11
    assert len(combos(8, 2)) == 28
    assert len(combos(8, 2)) - coh.z_dim == 17  # rank of the degree-2 differential
    irr = cat("irr6").algebra
    coh = cohomology_space(trivial_rep(irr), 2)
    assert (coh.b_dim, coh.z_dim) == (4, 7)
    ab = LieAlgebra.abelian(3)
    coh = cohomology_space(trivial_rep(ab), 2)
    assert coh.b_dim == 0 and coh.z_dim == len(combos(3, 2))


def test_degree_three_coboundary_rejected():
    g = LieAlgebra.abelian(4)
    c = Cochain.zero(3, 4, 1)
    with pytest.raises(ValidationError):
        coboundary_apply(trivial_rep(g), c)


def test_ad_is_derivation(cat):
    for name in ("g8", "g10", "fdim_metab"):
        g = cat(name).algebra
        for i in range(g.dim):
            assert is_derivation(g, g.ad(g.basis_vector(i)))


def test_g8_phi_is_derivation():
    from sympla.catalog import g8_oxidation_data

    data = g8_oxidation_data()
    assert is_derivation(data.base, data.phi)


def test_derivation_algebra_heisenberg_oracle():
    """dim Der(h3) from an independently assembled constraint system."""
    g = heisenberg()
    der = derivation_algebra(g)
    # oracle: brute-force the 9 unknowns with a hand-rolled elimination
    rows = []
    for i, j in combos(3, 2):
        cij = g.bracket_basis(i, j)
        for k in range(3):
            row = [Q(0)] * 9
            for l in range(3):
                row[k * 3 + l] += cij[l]
                row[l * 3 + i] -= g.bracket_basis(l, j)[k]
                row[l * 3 + j] -= g.bracket_basis(i, l)[k]
            rows.append(row)
    # independent elimination over lists of Fractions
    work = [r[:] for r in rows]
    rank = 0
    for col in range(9):
        piv = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [x * inv for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[rank])]
        rank += 1
    assert der.dim == 9 - rank == 6
    for flat in der.rows:
        assert is_derivation(g, matrix_from_flat(flat, 3))


def test_two_form_derive_g8_data():
    from sympla.catalog import g8_oxidation_data

    data = g8_oxidation_data()
    base = data.base
    # derived two-form is Y*^Z* + Y'*^Z'* in the (X, Y, Z, X', Y', Z') order
    expected = Cochain.from_values(2, 6, 1, {(1, 2): (1,), (4, 5): (1,)})
    alpha = two_form_derive(base, matrix_as_two_form(data.omega_bar), data.phi)
    assert alpha.coords == expected.coords
    second = two_form_derive(base, alpha, data.phi)
    assert second.is_zero()
    zero = two_form_derive(base, alpha, Matrix.zeros(6, 6))
    assert zero.is_zero()


def test_two_form_derive_stays_closed():
    rng = random.Random(9)
    g = SMALL_ALGEBRAS["filiform4"]
    rep = trivial_rep(g)
    dmat_kernel = None
    for _ in range(6):
        coords = tuple(Q(rng.randint(-2, 2)) for _ in range(len(combos(4, 2))))
        alpha = Cochain(2, 4, 1, coords)
        if not coboundary_apply(rep, alpha).is_zero():
            continue
        for i in range(4):
            phi = g.ad(g.basis_vector(i))
            derived = two_form_derive(g, alpha, phi)
            assert coboundary_apply(rep, derived).is_zero()


def test_two_form_derive_requires_derivation():
    g = heisenberg()
    alpha = Cochain.zero(2, 3, 1)
    bad = Matrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]], 3)
    assert not is_derivation(g, bad)
    with pytest.raises(ValidationError):
        two_form_derive(g, alpha, bad)


def test_semidirect_trivial_and_cs6(cat):
    h = LieAlgebra.abelian(2, ("d1", "d2"))
    rep = Representation(h, (Matrix.zeros(3, 3), Matrix.zeros(3, 3)))
    g = semidirect(h, rep)
    assert validate_jacobi(g).ok
    assert bracket_span(g, Subspace.full(5), Subspace.full(5)).is_zero()
    # the completely solvable example arises from two diagonal derivations
    d1 = Matrix.from_rows([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], 4)
    d2 = Matrix.from_rows([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]], 4)
    rep = Representation(h, (d1, d2))
    g = semidirect(h, rep)
    assert validate_jacobi(g).ok
    assert solvability_degree(g) == 2
    assert g.table == cat("cs6").algebra.table


def test_semidirect_irreducible_example(cat):
    h = LieAlgebra.abelian(2, ("e5", "e6"))
    j = [[0, 1], [-1, 0]]
    r5 = Matrix.from_rows([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], 4)
    r6 = Matrix.from_rows([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], 4)
    g = semidirect(h, Representation(h, (r5, r6)))
    assert validate_jacobi(g).ok
    c1 = bracket_span(g, Subspace.full(6), Subspace.full(6))
    assert c1.dim == 4  # the commutator is the module part
    assert descending_central_series(cat("irr6").algebra).dims \
        == descending_central_series(g).dims


def test_semidirect_rejects_nonclosed_cocycle():
    h = SMALL_ALGEBRAS["filiform4"]
    rep = trivial_rep(h)
    bad = Cochain.from_values(2, 4, 1, {(1, 3): (1,)})  # e2^e4 is not closed
    assert not coboundary_apply(rep, bad).is_zero()
    with pytest.raises(ValidationError):
        semidirect(h, rep, bad)


def test_representation_validation_is_eager():
    g = heisenberg()
    bad = (Matrix.identity(2), Matrix.identity(2), Matrix.identity(2))
    with pytest.raises(ValidationError):
        Representation(g, bad)


def test_killing_radical_aff(cat):
    aff2 = cat("aff", n=2)
    kr = killing_radical(aff2.algebra)
    assert kr == aff2.marked["translations"]


def test_cohomology_degree_one(cat):
    g = heisenberg()
    coh = cohomology_space(trivial_rep(g), 1)
    # one-cocycles kill the commutator, one-coboundaries vanish
    assert coh.b_dim == 0
    assert coh.z_dim == 2


def test_degree_zero_coboundary_trivial_rep():
    g = heisenberg()
    rep = trivial_rep(g)
    t = Cochain.from_values(0, 3, 1, {(): (7,)})
    assert coboundary_apply(rep, t).is_zero()
