"""``exactla.derive_form`` and ``exactla.gram`` against the pair loops they replaced.

The derived two-form D_phi F = phi^T F + F phi is the one way the package
computes omega_phi, the quadratic forms of an endomorphism and the four-term
relation of a symplectic family; ``gram`` is the one way it restricts a form
to rows.  The oracles in ``_oracles.py`` are the package's previous formulas.
"""

import itertools
import random

from hypothesis import given, settings, strategies as st

from _oracles import (
    coboundary_condition_oracle,
    obstruction_primitive_oracle,
    quadratic_forms_oracle,
    symplectic_endo_oracle,
    two_form_derive_oracle,
)
from _samplers import (
    change_of_basis,
    quadratic_nilpotent_pair,
    random_invertible,
    random_skew,
)
from sympla.catalog import build, names as catalog_names
from sympla.endoalg import (
    SymplecticVectorSpace,
    is_symplectic_endo_subalgebra,
    q6_space,
    quadratic_forms,
)
from sympla.exactla import Matrix, Q, Subspace, bilinear, derive_form, gram, vunit
from sympla.liealg import (
    Cochain,
    LieAlgebra,
    derivation_algebra,
    matrix_as_two_form,
    matrix_from_flat,
    two_form_derive,
)
from sympla.oxidation import (
    OxidationData,
    coboundary_condition_holds,
    oxidation_obstruction,
    symplectic_oxidation,
)
from sympla.reduction import normal_reduction_data


def random_rational(rng: random.Random) -> Q:
    return Q(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.6 else Q(0)


def random_operator(rng: random.Random, n: int) -> Matrix:
    return Matrix(tuple(tuple(random_rational(rng) for _ in range(n)) for _ in range(n)), n)


def random_form(rng: random.Random, n: int, kind: str) -> Matrix:
    """A random skew form; 'degenerate' pulls it back along a singular map."""
    if kind == "zero":
        return Matrix.zeros(n, n)
    form = random_skew(rng, n)
    if kind == "degenerate" and n:
        p = random_operator(rng, n)
        dead = rng.randrange(n)
        p = Matrix(tuple(r[:dead] + (Q(0),) + r[dead + 1:] for r in p.rows), n)
        form = p.transpose().mul(form).mul(p)
    return form


def commuting_family(rng: random.Random, phi: Matrix) -> list[Matrix]:
    """phi with some polynomials in phi, so the generators commute."""
    n = phi.nrows
    square = phi.mul(phi)
    shifted = phi.scale(random_rational(rng)).add(Matrix.identity(n).scale(rng.randint(-1, 1)))
    return [phi] + rng.sample([square, shifted, Matrix.zeros(n, n)], rng.randint(0, 2))


def assert_derived_forms_match(g: LieAlgebra, omega: Matrix, phi: Matrix, gens: list[Matrix]):
    """two_form_derive (once and twice), quadratic_forms and the symplectic
    family test equal their pair-loop oracles, witness included."""
    alpha = matrix_as_two_form(omega)
    first = two_form_derive(g, alpha, phi)
    assert first.coords == two_form_derive_oracle(g, alpha, phi).coords
    assert two_form_derive(g, first, phi).coords == two_form_derive_oracle(g, first, phi).coords
    space = SymplecticVectorSpace(g.dim, omega)
    data, oracle = quadratic_forms(space, phi), quadratic_forms_oracle(space, phi)
    assert (data.alpha.coords, data.beta.coords) == (oracle.alpha.coords, oracle.beta.coords)
    assert is_symplectic_endo_subalgebra(space, gens) == symplectic_endo_oracle(space, gens)


def test_gram_shapes_and_entries():
    rng = random.Random(1)
    form = random_skew(rng, 4)
    assert gram(form, [], []) == Matrix((), 0)
    rows = [vunit(4, 0), (Q(1), Q(-2), Q(0), Q(1, 3))]
    assert gram(form, rows, []) == Matrix(((), ()), 0)
    assert gram(form, [], rows) == Matrix((), 2)
    assert gram(form, rows, rows[::-1]).rows == tuple(
        tuple(bilinear(form, r, c) for c in rows[::-1]) for r in rows)
    basis = [vunit(4, i) for i in range(4)]
    assert gram(form, basis, basis) == form


def test_derive_form_examples():
    omega = Matrix.skew(2, {(0, 1): 1})
    nilpotent = Matrix.from_rows([[0, 1], [0, 0]], 2)
    # omega(phi e1, e2) + omega(e1, phi e2) = omega(0, e2) + omega(e1, e1) = 0
    assert derive_form(omega, nilpotent).is_zero()
    assert derive_form(omega, Matrix.identity(2)) == omega.scale(2)
    assert derive_form(Matrix((), 0), Matrix((), 0)) == Matrix((), 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.sampled_from(("skew", "degenerate", "zero")),
       st.integers(0, 2**32))
def test_derived_forms_match_the_pair_loops_on_random_forms(n, kind, seed):
    """Random operators (every map is a derivation of the abelian algebra) on
    random skew forms, degenerate and zero ones included."""
    rng = random.Random(seed)
    omega = random_form(rng, n, kind)
    phi = random_operator(rng, n)
    assert_derived_forms_match(LieAlgebra.abelian(n), omega, phi, commuting_family(rng, phi))
    rows = [tuple(random_rational(rng) for _ in range(n)) for _ in range(rng.randint(0, 3))]
    assert gram(omega, rows, rows).rows == tuple(
        tuple(bilinear(omega, r, c) for c in rows) for r in rows)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.booleans(), st.integers(0, 2**32))
def test_symplectic_family_witness_matches_on_quadratic_solutions(m, perturb, seed):
    """Quadratic nilpotent solutions pass the relation; one perturbed entry
    makes it fail deep in the form, where the first nonzero entry is the witness."""
    rng = random.Random(seed)
    omega, phi = quadratic_nilpotent_pair(rng, m)
    n = 2 * m
    if perturb:
        rows = [list(r) for r in phi.rows]
        rows[rng.randrange(n)][rng.randrange(n)] += rng.choice((1, -1))
        phi = Matrix.from_rows(rows, n)
    assert_derived_forms_match(LieAlgebra.abelian(n), omega, phi, commuting_family(rng, phi))
    s_matrix = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)], 2)
    if s_matrix.det() != 0:
        inst = q6_space(s_matrix)
        gens = [inst.x, inst.y]
        assert is_symplectic_endo_subalgebra(inst.space, gens) \
            == symplectic_endo_oracle(inst.space, gens)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(catalog_names()), st.booleans(), st.integers(0, 2**32))
def test_derived_forms_match_the_pair_loops_on_the_catalog(cat, name, dense, seed):
    """Catalog forms, as built and after a change of basis; phi an inner
    derivation plus, up to dimension 6, a random derivation."""
    rng = random.Random(seed)
    entry = cat(name)
    g, omega = entry.algebra, entry.symplectic.omega
    n = g.dim
    if dense and n:
        p, p_inv = random_invertible(rng, n)
        g = change_of_basis(g, p, p_inv)
        omega = p.transpose().mul(omega).mul(p)
    phi = g.ad(tuple(random_rational(rng) for _ in range(n)))
    if 0 < n <= 6:
        der = derivation_algebra(g)
        phi = phi.add(matrix_from_flat(der.rows[rng.randrange(der.dim)], n))
    assert_derived_forms_match(g, omega, phi, [phi, phi.mul(phi)])
    report = oxidation_obstruction(g, omega, phi)
    primitive = obstruction_primitive_oracle(g, report.beta)
    assert report.vanishes_in_h2 == (primitive is not None)
    if primitive is not None:
        assert report.primitive.coords == primitive
    alpha = two_form_derive(g, matrix_as_two_form(omega), phi)
    for lam in (report.primitive, Cochain(1, n, 1, tuple(random_rational(rng) for _ in range(n)))):
        if lam is not None:
            data = OxidationData(g, phi, alpha, lam, omega)
            assert coboundary_condition_holds(data) == coboundary_condition_oracle(data)


def test_central_conditions_keep_the_order_of_non_commuting_derivations():
    """Oxidizing g8 along the inner derivation ad(Y) gives a ten-dimensional
    algebra whose central ideal span{H, H'} reduces back to the Heisenberg
    pair with derivations phi_1, phi_2 that do not commute.  The central
    check compares omega_h(n_a, lam_b([u, v])) with D_b(D_a omega_bar)."""
    s = build("g8").symplectic
    g = s.algebra
    phi = g.ad(vunit(8, 2))
    report = oxidation_obstruction(g, s.omega, phi)
    alpha = two_form_derive(g, matrix_as_two_form(s.omega), phi)
    ox = symplectic_oxidation(OxidationData(g, phi, alpha, report.primitive, s.omega))
    data = normal_reduction_data(ox, Subspace.span(10, [vunit(10, 8), vunit(10, 9)]))
    assert data.step.kind == "central"
    omega_bar = data.step.reduced.omega
    m = omega_bar.nrows
    pa, pb = data.phi
    assert pa.mul(pb) != pb.mul(pa)
    space = SymplecticVectorSpace(m, omega_bar)
    for a, b in itertools.product(range(2), repeat=2):
        fa, fb = data.phi[a], data.phi[b]
        quad = tuple(
            tuple(space.pair(fa.matvec(fb.matvec(vunit(m, u))), vunit(m, v))
                  + space.pair(fb.matvec(vunit(m, u)), fa.matvec(vunit(m, v)))
                  + space.pair(fa.matvec(vunit(m, u)), fb.matvec(vunit(m, v)))
                  + space.pair(vunit(m, u), fa.matvec(fb.matvec(vunit(m, v))))
                  for v in range(m))
            for u in range(m))
        assert derive_form(derive_form(omega_bar, fa), fb).rows == quad
    assert derive_form(derive_form(omega_bar, pa), pb) \
        != derive_form(derive_form(omega_bar, pb), pa)
