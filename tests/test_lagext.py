import random

import pytest

from sympla.exactla import Matrix, Q, Subspace, vunit
from sympla.lagext import (
    ConnectionReport,
    ExtensionTriple,
    FlatLieAlgebra,
    StronglyPolarized,
    connection_invariants,
    cyclic_condition_subspace,
    cyclic_coboundary_identity_holds,
    dual_rep,
    extension_triple,
    extensions_isomorphic,
    half_ad_connection,
    lagrangian_cohomology,
    lagrangian_extension,
    satisfies_cyclic_condition,
    symmetric_one_cochains,
)
from sympla.liealg import (
    Cochain,
    Connection,
    LieAlgebra,
    ValidationError,
    brackets_within,
    coboundary_matrix,
    combos,
    is_ideal,
    nilpotency_class,
    solvability_degree,
)
from sympla.symplectic import SymplecticError, isotropy_report
from sympla.reduction import quotient_flat_structure


def lag_cohom_flat():
    """Abelian plane with nabla_{e1} e1 = e1, nabla_{e1} e2 = nabla_{e2} e1 = e2."""
    g = LieAlgebra.abelian(2)
    m1 = Matrix.from_rows([[1, 0], [0, 1]], 2)
    m2 = Matrix.from_rows([[0, 0], [1, 0]], 2)
    return FlatLieAlgebra(g, Connection(g, (m1, m2)))


def test_connection_invariants_zero():
    g = LieAlgebra.abelian(3)
    rep = connection_invariants(Connection.zero(g))
    assert rep.is_flat and rep.is_torsion_free


def test_connection_invariants_matrix_product(cat):
    flat = cat("tn_cotangent", n=3).flat
    rep = connection_invariants(flat.connection)
    assert rep.is_flat and rep.is_torsion_free


def test_connection_invariants_half_ad():
    h = LieAlgebra.from_brackets(("X", "Y", "Z"), {(0, 1): {2: 1}})
    conn = half_ad_connection(h)
    rep = connection_invariants(conn)
    assert rep.is_flat and rep.is_torsion_free


def test_flat_algebra_rejects_curved():
    g = LieAlgebra.abelian(2)
    bad = Connection(g, (Matrix.from_rows([[0, 1], [0, 0]], 2),
                         Matrix.from_rows([[0, 0], [1, 0]], 2)))
    with pytest.raises(ValidationError):
        FlatLieAlgebra(g, bad)


def test_dual_rep_zero_connection():
    g = LieAlgebra.abelian(2)
    rho = dual_rep(FlatLieAlgebra(g, Connection.zero(g)))
    assert all(m.is_zero() for m in rho.mats)


def test_dual_rep_lag_cohom_example():
    flat = lag_cohom_flat()
    rho = dual_rep(flat)
    conn = flat.connection
    for i in range(2):
        for a in range(2):  # dual basis functional f_a
            img = rho.mats[i].col(a)  # coordinates of rho(e_i) f_a
            for v in range(2):
                # (rho(e_i) f_a)(e_v) = -f_a(nabla_{e_i} e_v)
                assert img[v] == -conn.mats[i].rows[a][v]


def test_dual_rep_matrix_connection_is_negative_transpose(cat):
    flat = cat("tn_cotangent", n=3).flat
    rho = dual_rep(flat)
    for i in range(3):
        assert rho.mats[i].rows == flat.connection.mats[i].transpose().neg().rows


def test_lagrangian_extension_zero_cocycle(cat):
    t3 = cat("tn_cotangent", n=3)
    p = StronglyPolarized(t3.symplectic, t3.marked["dual_ideal"],
                          t3.marked["base_subalg"])
    assert isotropy_report(t3.symplectic, p.ideal).lagrangian
    assert is_ideal(t3.algebra, p.ideal)
    assert brackets_within(t3.algebra, p.ideal, p.ideal, Subspace.zero(t3.algebra.dim))


def test_tn_extension_classes(cat):
    for n, expected_class in ((3, 2), (4, 3)):
        e = cat("tn_cotangent", n=n)
        assert nilpotency_class(e.algebra) == expected_class


def test_uppertriang_derived_lengths(cat):
    """s = m + 1 on the extensions of dimension 2^m + 1 for m = 1, 2."""
    assert solvability_degree(cat("tn_cotangent", n=3).algebra) == 2
    assert solvability_degree(cat("tn_cotangent", n=5).algebra) == 3


def test_extension_rejects_cyclic_violation(cat):
    flat = cat("tn_cotangent", n=3).flat
    rho = dual_rep(flat)
    # find a rho-cocycle violating the cyclic condition
    dmat = coboundary_matrix(rho, 2)
    z2 = dmat.null_space()
    cyc = cyclic_condition_subspace(flat.algebra)
    bad = None
    for row in z2.rows:
        if not cyc.contains_vector(row):
            bad = Cochain(2, 3, 3, row)
            break
    assert bad is not None, "a violating cocycle exists in dimension three"
    with pytest.raises(SymplecticError):
        lagrangian_extension(ExtensionTriple(flat, bad))


def test_extension_triple_round_trip(cat):
    t3 = cat("tn_cotangent", n=3)
    p = StronglyPolarized(t3.symplectic, t3.marked["dual_ideal"],
                          t3.marked["base_subalg"])
    triple = extension_triple(p)
    assert triple.alpha.is_zero()
    assert triple.flat.algebra.table == t3.flat.algebra.table
    assert tuple(m.rows for m in triple.flat.connection.mats) == \
        tuple(m.rows for m in t3.flat.connection.mats)


def test_extension_triple_round_trip_nonzero_alpha():
    flat = lag_cohom_flat()
    lc = lagrangian_cohomology(flat)
    assert lc.z2_lagrangian.dim >= 1
    alpha = Cochain(2, 2, 2, lc.z2_lagrangian.rows[0])
    p = lagrangian_extension(ExtensionTriple(flat, alpha))
    triple = extension_triple(p)
    assert triple.alpha.coords == alpha.coords


def test_change_of_polarization_differs_by_symmetric_coboundary():
    rng = random.Random(6)
    flat = lag_cohom_flat()
    p = lagrangian_extension(ExtensionTriple(flat, Cochain.zero(2, 2, 2)))
    s = p.s
    n = 2
    # alternative complement N' = graph of tau with the omega-symmetry
    sym = symmetric_one_cochains(n)
    tau_flat = sym.rows[0]
    rows = []
    for u in range(n):
        v = list(vunit(2 * n, u))
        for t in range(n):
            v[n + t] += tau_flat[u * n + t]
        rows.append(tuple(v))
    n_prime = Subspace.span(2 * n, rows)
    assert isotropy_report(s, n_prime).lagrangian
    p2 = StronglyPolarized(s, p.ideal, n_prime)
    t1 = extension_triple(p)
    t2 = extension_triple(p2)
    same, iso = extensions_isomorphic(flat, t1.alpha, t2.alpha)
    assert same and iso is not None


def test_lagrangian_cohomology_example_kappa():
    flat = lag_cohom_flat()
    lc = lagrangian_cohomology(flat)
    assert lc.kappa_dim == 1
    # the symmetric coboundaries are exactly the maps vanishing on (e1, e2, e1)
    assert lc.b2_lagrangian.dim == 1
    for row in lc.b2_lagrangian.rows:
        assert row[0] == 0  # coordinate alpha(e1, e2)(e1)


def test_lagrangian_cohomology_zero_connection():
    g = LieAlgebra.abelian(3)
    flat = FlatLieAlgebra(g, Connection.zero(g))
    lc = lagrangian_cohomology(flat)
    assert lc.b2_lagrangian.dim == 0
    assert lc.z2_lagrangian == cyclic_condition_subspace(g)


def test_lagrangian_cohomology_half_ad_injective():
    for brackets, labels in (
        ({(0, 1): {2: 1}}, ("X", "Y", "Z")),
    ):
        h = LieAlgebra.from_brackets(labels, brackets)
        flat = FlatLieAlgebra(h, half_ad_connection(h))
        lc = lagrangian_cohomology(flat)
        assert lc.kappa_dim == 0


def test_cyclic_coboundary_identity():
    rng = random.Random(3)
    flat = lag_cohom_flat()
    n = 2
    for _ in range(5):
        lam = [Q(0)] * (n * n)
        v = Q(rng.randint(-3, 3))
        lam[0 * n + 1] = v
        lam[1 * n + 0] = -v
        assert cyclic_coboundary_identity_holds(flat, tuple(lam))
    h = LieAlgebra.from_brackets(("X", "Y", "Z"), {(0, 1): {2: 1}})
    flat_h = FlatLieAlgebra(h, half_ad_connection(h))
    for _ in range(5):
        coords = [Q(0)] * 9
        for i in range(3):
            for j in range(i + 1, 3):
                v = Q(rng.randint(-3, 3))
                coords[i * 3 + j] = v
                coords[j * 3 + i] = -v
        assert cyclic_coboundary_identity_holds(flat_h, tuple(coords))


def test_extensions_isomorphic_trivial_and_shifted():
    rng = random.Random(9)
    flat = lag_cohom_flat()
    lc = lagrangian_cohomology(flat)
    alpha = Cochain(2, 2, 2, lc.z2_lagrangian.rows[0])
    same, iso = extensions_isomorphic(flat, alpha, alpha)
    assert same
    # shift by a symmetric coboundary
    rho = dual_rep(flat)
    d1 = coboundary_matrix(rho, 1)
    sym = symmetric_one_cochains(2)
    shift = d1.matvec(sym.rows[1])
    alpha2 = Cochain(2, 2, 2, tuple(a - b for a, b in zip(alpha.coords, shift)))
    same, iso = extensions_isomorphic(flat, alpha, alpha2)
    assert same and iso is not None


def test_kappa_representative_not_isomorphic_to_zero():
    """A class in the comparison kernel is an ordinary coboundary but not a
    Lagrangian one: the extensions are genuinely different."""
    flat = lag_cohom_flat()
    lc = lagrangian_cohomology(flat)
    rho = dual_rep(flat)
    d1 = coboundary_matrix(rho, 1)
    from sympla.exactla import solve_linear

    b2_rho_cap = None
    for row in lc.z2_lagrangian.rows:
        # a Lagrangian cocycle that is an ordinary coboundary but not a
        # symmetric one represents a nonzero element of the comparison kernel
        res = solve_linear(d1, row)
        if res.particular is not None and not lc.b2_lagrangian.contains_vector(row):
            b2_rho_cap = row
            break
    assert b2_rho_cap is not None, "kappa is nonzero so a representative exists"
    alpha = Cochain(2, 2, 2, b2_rho_cap)
    zero = Cochain.zero(2, 2, 2)
    same, _ = extensions_isomorphic(flat, alpha, zero)
    assert not same


def test_lagrangian_reduction_gives_back_flat(cat):
    t3 = cat("tn_cotangent", n=3)
    fq = quotient_flat_structure(t3.symplectic, t3.marked["dual_ideal"])
    assert fq.h.dim == 3
    # flat and torsion-free is checked internally; classes match t3 base
    assert nilpotency_class(fq.h) == nilpotency_class(t3.flat.algebra)
