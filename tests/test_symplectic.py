import random

import pytest

from _oracles import kernel_oracle
from _samplers import random_nondegenerate_skew
from sympla.exactla import Matrix, Q, Subspace, vunit
from sympla.liealg import LieAlgebra, Connection, brackets_within, is_ideal
from sympla.symplectic import (
    SymplecticError,
    canonical_connection,
    isotropic_decomposition,
    isotropy_report,
    omega_orthogonal,
    totally_geodesic_check,
    validate_symplectic,
)


def test_validate_abelian():
    rng = random.Random(1)
    g = LieAlgebra.abelian(4)
    s = validate_symplectic(g, random_nondegenerate_skew(rng, 4))
    assert s.dim == 4


def test_validate_catalog_forms(cat):
    assert cat("g10").symplectic is not None
    assert cat("fdim_metab").symplectic is not None


def test_validate_rejects_degenerate():
    g = LieAlgebra.abelian(2)
    with pytest.raises(SymplecticError):
        validate_symplectic(g, Matrix.zeros(2, 2))


def test_validate_rejects_nonclosed():
    g = LieAlgebra.from_brackets(4, {(0, 1): {2: 1}, (0, 2): {3: 1}})
    # pair e1 with e2 and e3 with e4: not closed for this filiform bracket
    rows = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    with pytest.raises(SymplecticError) as err:
        validate_symplectic(g, Matrix.from_rows(rows, 4))
    assert "witness" in str(err.value)


def test_orthogonal_g8_examples(cat):
    e = cat("g8")
    s = e.symplectic
    yy = Subspace.span(8, [vunit(8, 2), vunit(8, 5)])  # <Y, Y'>
    assert omega_orthogonal(s, yy) == e.marked["W6"]
    j3 = e.marked["j3"]
    perp = omega_orthogonal(s, j3)
    expected = Subspace.span(8, [vunit(8, 7), vunit(8, 3), vunit(8, 6),
                                 vunit(8, 2), vunit(8, 5)])
    assert perp == expected
    assert omega_orthogonal(s, Subspace.zero(8)) == Subspace.full(8)


def test_isotropy_reports(cat):
    e = cat("g8")
    s = e.symplectic
    rep = isotropy_report(s, Subspace.zero(8))
    assert rep.isotropic and rep.corank == 4
    rep = isotropy_report(s, e.marked["j3"])
    assert rep.isotropic and rep.corank == 1 and not rep.lagrangian
    fm = cat("fdim_metab")
    rep = isotropy_report(fm.symplectic, fm.marked["XY"])
    assert rep.nondegenerate and not rep.isotropic


def test_every_isotropic_ideal_is_abelian(cat):
    """Isotropic ideals are abelian and their orthogonal is a subalgebra."""
    for name in ("g8", "g10", "cs6", "fdim_metab"):
        e = cat(name)
        s = e.symplectic
        zero = Subspace.zero(e.algebra.dim)
        for sub in e.marked.values():
            rep = isotropy_report(s, sub)
            if is_ideal(e.algebra, sub) and rep.isotropic:
                assert brackets_within(e.algebra, sub, sub, zero)
                perp = omega_orthogonal(s, sub)
                assert brackets_within(e.algebra, perp, perp, perp)
                normal = brackets_within(e.algebra, perp, sub, zero)
                assert normal == is_ideal(e.algebra, perp)


def test_canonical_connection_abelian_zero():
    rng = random.Random(2)
    g = LieAlgebra.abelian(4)
    s = validate_symplectic(g, random_nondegenerate_skew(rng, 4))
    conn = canonical_connection(s)
    assert all(m.is_zero() for m in conn.mats)


def test_canonical_connection_flat_everywhere(cat):
    for name in ("fdim_metab", "g8"):
        s = cat(name).symplectic
        conn = canonical_connection(s)  # flatness is verified internally
        # defining identity: omega(nabla_u v, w) + omega(v, [u, w]) = 0
        g = s.algebra
        for i in range(g.dim):
            for j in range(g.dim):
                nij = conn.mats[i].matvec(g.basis_vector(j))
                for k in range(g.dim):
                    assert s.pair(nij, g.basis_vector(k)) \
                        == -s.pair(g.basis_vector(j), g.bracket_basis(i, k))


def test_isotropic_ideal_totally_geodesic_with_zero_connection(cat):
    e = cat("g8")
    s = e.symplectic
    conn = canonical_connection(s)
    j3 = e.marked["j3"]
    assert totally_geodesic_check(s, j3)
    for u in j3.rows:
        for v in j3.rows:
            assert all(c == 0 for c in conn.nabla(u, v))


def test_totally_geodesic_criteria(cat):
    e = cat("g8")
    s = e.symplectic
    g = e.algebra
    # Lagrangian subalgebras and orthogonals of ideals are totally geodesic
    assert totally_geodesic_check(s, e.marked["lag_subalg"])
    assert totally_geodesic_check(s, omega_orthogonal(s, e.marked["j3"]))
    # a subalgebra failing the bracket criterion also fails the direct check
    conn = canonical_connection(s)
    sub = Subspace.span(8, [vunit(8, 0), vunit(8, 1)])  # <xi, X>
    assert brackets_within(g, sub, sub, sub)
    flag = totally_geodesic_check(s, sub)
    direct = all(sub.contains_vector(conn.nabla(u, v))
                 for u in sub.rows for v in sub.rows)
    assert flag == direct


def test_isotropic_decomposition_zero_ideal(cat):
    s = cat("g8").symplectic
    dec = isotropic_decomposition(s, Subspace.zero(8))
    assert dec.w == Subspace.full(8)
    assert dec.n_rows == ()


def test_isotropic_decomposition_g8_H(cat):
    e = cat("g8")
    dec = isotropic_decomposition(e.symplectic, e.marked["Hline"])
    assert dec.n_rows == (vunit(8, 0),)  # xi pairs with H
    assert dec.w.dim == 6


def test_isotropic_decomposition_random(cat):
    for name in ("g8", "g10", "cs6"):
        e = cat(name)
        s = e.symplectic
        for sub in e.marked.values():
            rep = isotropy_report(s, sub)
            if not rep.isotropic or sub.dim == 0:
                continue
            dec = isotropic_decomposition(s, sub)
            n_sub = dec.n_subspace
            assert n_sub.dim == sub.dim
            assert isotropy_report(s, n_sub).isotropic
            total = n_sub.sum(dec.w).sum(sub)
            assert total.dim == s.dim
            assert omega_orthogonal(s, sub) == dec.w.sum(sub)


def test_corank_of_subspace_reduction(cat):
    """Images of isotropic subspaces in coisotropic reductions lose no corank."""
    rng = random.Random(4)
    e = cat("g8")
    s = e.symplectic
    for _ in range(6):
        w = Subspace.span(8, [[Q(rng.randint(-2, 2)) for _ in range(8)]
                              for _ in range(2)])
        if not isotropy_report(s, w).isotropic:
            continue
        u = omega_orthogonal(s, Subspace.span(8, [[Q(rng.randint(-2, 2))
                                                   for _ in range(8)]]))
        rep_u = isotropy_report(s, u)
        if not rep_u.coisotropic:
            continue
        uperp = omega_orthogonal(s, u)
        cap = w.intersect(u)
        # reduced space U / U^perp with the induced form
        basis = []
        span = uperp
        for r in u.rows:
            if not span.contains_vector(r):
                basis.append(r)
                span = span.sum(Subspace.span(8, [r]))
        m = len(basis)
        gram = Matrix.from_rows(
            [[s.pair(a, b) for b in basis] for a in basis], m)
        # image of W cap U
        from sympla.exactla import solve_linear

        lift = Matrix(tuple(uperp.rows) + tuple(basis), 8).transpose()
        img_rows = []
        for r in cap.rows:
            res = solve_linear(lift, r)
            assert res.particular is not None
            img_rows.append(res.particular[uperp.dim:])
        img = Subspace.span(m, img_rows)
        img_perp = Subspace.span(m, kernel_oracle(Matrix(tuple(gram.matvec(x) for x in img.rows), m)))
        assert img_perp.contains(img)
        corank_bar = (img_perp.dim - img.dim) // 2
        corank_w = isotropy_report(s, w).corank
        assert corank_bar <= corank_w
