import random

import pytest

from _samplers import abelian_oxidation_data, heisenberg_oxidation_data, heisenberg_pair_base
from sympla.endoalg import SymplecticVectorSpace, invariant_lagrangian_nilpotent
from sympla.exactla import Matrix, Q, Subspace, vunit
from sympla.liealg import (
    LieAlgebra,
    ValidationError,
    bracket_span,
    brackets_within,
    center,
    is_ideal,
    matrix_as_two_form,
    nilpotency_class,
    two_form_derive,
)
from sympla.oxidation import symplectic_oxidation
from sympla.reduction import (
    classify_ideal,
    induced_sequence,
    lifted_ideal_is_ideal,
    normal_reduction_data,
    quotient_flat_structure,
    reduce,
    run_reduction_sequence,
    transfer_isotropic,
)
from sympla.search import isotropic_ideals_enumerate, lagrangian_subalgebra, symplectic_rank_bounds
from sympla.symplectic import canonical_connection, isotropy_report, omega_orthogonal


def test_reduce_by_zero_is_identity(cat):
    s = cat("g8").symplectic
    step = reduce(s, Subspace.zero(8))
    assert step.reduced.algebra.table == s.algebra.table
    assert step.reduced.omega.rows == s.omega.rows


def test_reduce_fdim_metab(cat):
    e = cat("fdim_metab")
    step = reduce(e.symplectic, e.marked["Zline"])
    assert step.reduced.dim == 2
    assert nilpotency_class(step.reduced.algebra) == 1
    assert step.kind == "codim1normal"


def test_reduce_g8_recovers_heisenberg_pair(cat):
    e = cat("g8")
    step = reduce(e.symplectic, e.marked["Hline"])
    red = step.reduced
    assert red.dim == 6
    assert step.kind == "central"
    base, omega = heisenberg_pair_base()
    assert red.algebra.table == base.table
    assert red.omega.rows == omega.rows


def test_classification_kinds(cat):
    g8 = cat("g8")
    assert classify_ideal(g8.symplectic, g8.marked["Hline"]) == "central"
    t3 = cat("tn_cotangent", n=3)
    assert classify_ideal(t3.symplectic, t3.marked["dual_ideal"]) == "lagrangian"
    fm = cat("fdim_metab")
    assert classify_ideal(fm.symplectic, fm.marked["Zline"]) == "codim1normal"


def test_quotient_flat_structure_central_is_abelian(cat):
    e = cat("g8")
    fq = quotient_flat_structure(e.symplectic, e.marked["Hline"])
    assert all(all(c == 0 for c in fq.h.bracket_basis(i, j))
               for i in range(fq.h.dim) for j in range(fq.h.dim))
    assert all(m.is_zero() for m in fq.nabla_bar.mats)
    data = normal_reduction_data(e.symplectic, e.marked["Hline"])
    assert all(m.is_zero() for m in data.nabla_bar.mats)


def test_quotient_flat_whole_algebra_reproduces_connection(cat):
    """Taking the whole algebra as the normal ideal recovers the canonical
    flat connection (the orthogonal is zero, so h = g)."""
    e = cat("fdim_metab")
    s = e.symplectic
    fq = quotient_flat_structure(s, Subspace.full(4))
    conn = canonical_connection(s)
    # the quotient is expressed over the dual N basis; check the defining identity
    n_rows = fq.n_rows
    for a in range(4):
        for b in range(4):
            lhs = fq.nabla_bar.mats[a].col(b)
            # omega_h(nabla_a b, j_t) = -omega(n_b, [n_a, j_t])
            for t in range(4):
                acc = sum((fq.omega_h.rows[r][t] * lhs[r] for r in range(4)), Q(0))
                expected = -s.pair(n_rows[b],
                                   s.algebra.bracket(n_rows[a], s.algebra.basis_vector(t)))
                assert acc == expected
    # and the canonical connection satisfies the same identity on the standard basis
    g = s.algebra
    for i in range(4):
        for j in range(4):
            nij = conn.mats[i].matvec(g.basis_vector(j))
            for k in range(4):
                assert s.pair(nij, g.basis_vector(k)) == \
                    -s.pair(g.basis_vector(j), g.bracket_basis(i, k))


def test_quotient_flat_fdim_solve_oracle(cat):
    """The induced connection on the line quotient solves its defining system."""
    e = cat("fdim_metab")
    s = e.symplectic
    fq = quotient_flat_structure(s, e.marked["Zline"])
    assert fq.h.dim == 1
    n_row = fq.n_rows[0]
    j_row = e.marked["Zline"].rows[0]
    lhs = fq.nabla_bar.mats[0].rows[0][0] * fq.omega_h.rows[0][0]
    assert lhs == -s.pair(n_row, s.algebra.bracket(n_row, j_row))


def test_normal_reduction_data_g8(cat):
    e = cat("g8")
    data = normal_reduction_data(e.symplectic, e.marked["Hline"])
    # phi is the derivation Y -> X, Y' -> X' on the reduced basis
    phi = data.phi[0]
    nonzero = {(i, j): phi.rows[i][j] for i in range(6) for j in range(6)
               if phi.rows[i][j] != 0}
    assert nonzero == {(0, 1): Q(1), (3, 4): Q(1)}
    assert all(m.is_zero() for m in data.lam)
    # alpha agrees with the derived two-form of the reduced structure
    red = data.step.reduced
    derived = two_form_derive(red.algebra, matrix_as_two_form(red.omega), phi)
    for combo in [(i, j) for i in range(6) for j in range(i + 1, 6)]:
        aval = data.alpha.value_on_combo(combo)
        # omega_h is 1x1 with value 1 here, so alpha is scalar in the H slot
        assert aval[0] == derived.value_on_combo(combo)[0]


def test_normal_reduction_identities_random(cat):
    """The stored data always satisfies the compatibility identities; they are
    re-verified inside normal_reduction_data for every construction."""
    rng = random.Random(12)
    for _ in range(5):
        data = abelian_oxidation_data(rng, 2)
        s = symplectic_oxidation(data)
        h_line = Subspace.span(s.dim, [vunit(s.dim, s.dim - 1)])
        normal_reduction_data(s, h_line)
    for _ in range(3):
        data = heisenberg_oxidation_data(rng)
        s = symplectic_oxidation(data)
        h_line = Subspace.span(8, [vunit(8, 7)])
        normal_reduction_data(s, h_line)


def test_normal_reduction_rejects_non_normal(cat):
    e = cat("fdim_metab")
    # <X> is not an ideal; and j = <H> is not an ideal either; use a valid
    # isotropic ideal whose orthogonal is not an ideal: none in this algebra,
    # so check the error on a non-ideal input
    with pytest.raises(ValidationError):
        normal_reduction_data(e.symplectic, Subspace.span(4, [vunit(4, 3)]))


def test_transfer_lift_zero_gives_ideal(cat):
    e = cat("g8")
    step = reduce(e.symplectic, e.marked["Hline"])
    lifted = transfer_isotropic(step, Subspace.zero(6), "lift")
    assert lifted == e.marked["Hline"]


def test_transfer_lift_invariant_lagrangian(cat):
    """Invariant Lagrangian ideals of the reduction lift to Lagrangian ideals."""
    rng = random.Random(3)
    data = abelian_oxidation_data(rng, 2)
    s = symplectic_oxidation(data)
    h_line = Subspace.span(6, [vunit(6, 5)])
    step = reduce(s, h_line)
    space = SymplecticVectorSpace(4, step.reduced.omega)
    nd = normal_reduction_data(s, h_line, step)
    bar = invariant_lagrangian_nilpotent(space, nd.phi[0])
    assert is_ideal(step.reduced.algebra, bar)
    lifted = transfer_isotropic(step, bar, "lift")
    rep = isotropy_report(s, lifted)
    assert rep.lagrangian and is_ideal(s.algebra, lifted)
    assert lifted_ideal_is_ideal(step, bar)


def test_transfer_project_g8_lagrangian_subalgebra(cat):
    e = cat("g8")
    step = reduce(e.symplectic, e.marked["Hline"])
    projected = transfer_isotropic(step, e.marked["lag_subalg"], "project")
    rep = isotropy_report(step.reduced, projected)
    assert rep.lagrangian
    assert brackets_within(step.reduced.algebra, projected, projected, projected)


def test_run_reduction_sequence_empty(cat):
    seq = run_reduction_sequence(cat("g8").symplectic, [])
    assert seq.length == 0


def test_run_reduction_sequence_aff2(cat):
    e = cat("aff", n=2)
    s = e.symplectic
    t = e.marked["translations"]
    # second ideal: preimage of the reduced translation ideal
    step1 = reduce(s, t)
    inner = isotropic_ideals_enumerate(step1.reduced)
    assert inner, "the reduced affine algebra must expose an isotropic ideal"
    j2 = t
    for cand in inner:
        lifted = step1.lift_subspace(cand)
        if isotropy_report(s, lifted).isotropic:
            j2 = lifted
            break
    seq = run_reduction_sequence(s, [t, j2])
    assert seq.length == 2
    assert seq.base.dim == 0


def test_run_reduction_sequence_condition_violation(cat):
    e = cat("g8")
    s = e.symplectic
    with pytest.raises(ValidationError):
        # j2 does not contain j1
        run_reduction_sequence(s, [e.marked["Hline"],
                                   Subspace.span(8, [vunit(8, 3)])])


def test_induced_sequence_property(cat):
    """i + (j_k cap i^perp) is again a reduction sequence of isotropic subalgebras."""
    e = cat("g8")
    s = e.symplectic
    j1 = e.marked["Hline"]
    step1 = reduce(s, j1)
    # grow the chain with the center of the reduction
    z = center(step1.reduced.algebra)
    lifted = step1.lift_subspace(Subspace.span(6, [z.rows[0]]))
    chain = [j1, lifted]
    run_reduction_sequence(s, chain)  # sanity: the chain itself is valid
    for ideal_name in ("Hline", "j3"):
        i_sub = e.marked[ideal_name]
        induced = induced_sequence(s, chain, i_sub)
        seq = run_reduction_sequence(s, induced)
        assert seq.length == len(chain)


def test_corank_monotonicity_on_catalog_steps(cat):
    for name in ("fdim_metab", "cs6", "g8", "g10"):
        e = cat(name)
        s = e.symplectic
        bounds = symplectic_rank_bounds(s)
        assert bounds.exact
        corank_parent = s.dim // 2 - bounds.lower
        j = bounds.lower_witness
        step = reduce(s, j)
        red_bounds = symplectic_rank_bounds(step.reduced)
        if red_bounds.exact:
            corank_red = step.reduced.dim // 2 - red_bounds.lower
            assert corank_red <= corank_parent


def test_normal_reduction_data_zero_ideal(cat):
    s = cat("g8").symplectic
    data = normal_reduction_data(s, Subspace.zero(8))
    assert data.h.dim == 0
    assert data.phi == ()
    assert data.mu.is_zero()
