"""Symplectic structures on Lie algebras.

Validation of closed non-degenerate two-forms, symplectic orthogonals,
isotropy classification, the canonical torsion-free flat connection and
isotropic decompositions g = N + W + j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactla import (
    DimensionMismatch,
    Matrix,
    Q,
    Subspace,
    Vec,
    bilinear,
    orthogonal_complement,
    solve_linear,
    vec,
)
from .liealg import (
    Connection,
    LieAlgebra,
    ValidationError,
    is_flat,
    is_torsion_free,
    require_valid,
    subspace_algebra_flags,
)


class SymplecticError(ValidationError):
    pass


@dataclass(frozen=True)
class SymplecticLieAlgebra:
    algebra: LieAlgebra
    omega: Matrix

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def pair(self, u, v) -> Fraction:
        return bilinear(self.omega, vec(u), vec(v))


def closedness_violations(g: LieAlgebra, omega: Matrix) -> list[tuple[int, int, int, Fraction]]:
    bad = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k in range(j + 1, g.dim):
                ei, ej, ek = (g.basis_vector(t) for t in (i, j, k))
                s = bilinear(omega, g.bracket_basis(i, j), ek)
                s += bilinear(omega, g.bracket(ek, ei), ej)
                s += bilinear(omega, g.bracket_basis(j, k), ei)
                if s != 0:
                    bad.append((i, j, k, s))
    return bad


def validate_symplectic(g: LieAlgebra, omega: Matrix, check_jacobi: bool = True) -> SymplecticLieAlgebra:
    if omega.nrows != g.dim or omega.cols != g.dim:
        raise DimensionMismatch("omega must be square of dim g")
    if check_jacobi:
        require_valid(g)
    if not omega.is_skew():
        raise SymplecticError("omega is not skew-symmetric")
    if g.dim and omega.det() == 0:
        raise SymplecticError("omega is degenerate")
    bad = closedness_violations(g, omega)
    if bad:
        raise SymplecticError(f"omega is not closed; witness triple {bad[0][:3]}", bad[0])
    return SymplecticLieAlgebra(g, omega)


def omega_orthogonal(s: SymplecticLieAlgebra, w: Subspace) -> Subspace:
    if w.ambient != s.dim:
        raise DimensionMismatch("subspace ambient dimension mismatch")
    return orthogonal_complement(s.omega, w)


@dataclass(frozen=True)
class IsotropyReport:
    subspace: Subspace
    isotropic: bool
    coisotropic: bool
    lagrangian: bool
    nondegenerate: bool
    corank: int | None  # only defined for isotropic subspaces


def isotropy_report(s: SymplecticLieAlgebra, w: Subspace) -> IsotropyReport:
    perp = omega_orthogonal(s, w)
    isotropic = perp.contains(w)
    coisotropic = w.contains(perp)
    nondeg = w.intersect(perp).is_zero()
    corank = None
    if isotropic:
        diff = perp.dim - w.dim
        assert diff % 2 == 0, "orthogonal defect of an isotropic subspace must be even"
        corank = diff // 2
    return IsotropyReport(w, isotropic, coisotropic, isotropic and corank == 0, nondeg, corank)


def canonical_connection(s: SymplecticLieAlgebra) -> Connection:
    """The flat torsion-free connection with omega(nabla_u v, w) = -omega(v, [u, w])."""
    g = s.algebra
    n = g.dim
    ft = s.omega.transpose()
    mats = []
    for i in range(n):
        cols = []
        for j in range(n):
            rhs = tuple(
                -s.pair(g.basis_vector(j), g.bracket_basis(i, k)) for k in range(n)
            )
            res = solve_linear(ft, rhs)
            assert res.particular is not None, "omega must be non-degenerate"
            cols.append(res.particular)
        mats.append(Matrix(tuple(cols), n).transpose())
    conn = Connection(g, tuple(mats))
    if not (is_flat(conn) and is_torsion_free(conn)):
        raise SymplecticError("canonical connection failed to be flat and torsion-free")
    return conn


def totally_geodesic_check(s: SymplecticLieAlgebra, l: Subspace) -> bool:
    """[l, l^perp] contained in l^perp, for a subalgebra l."""
    flags = subspace_algebra_flags(s.algebra, l)
    if not flags.is_subalgebra:
        raise ValidationError("totally geodesic test requires a subalgebra")
    perp = omega_orthogonal(s, l)
    from .liealg import bracket_span

    return perp.contains(bracket_span(s.algebra, l, perp))


@dataclass(frozen=True)
class IsotropicDecomposition:
    """g = N + W + j with N, j isotropic, W = N^perp ∩ j^perp, omega(n_i, a_j) = delta."""

    n_rows: tuple[Vec, ...]
    w: Subspace
    j_rows: tuple[Vec, ...]

    @property
    def n_subspace(self) -> Subspace:
        amb = self.w.ambient
        return Subspace.span(amb, self.n_rows)


def isotropic_decomposition(s: SymplecticLieAlgebra, j: Subspace) -> IsotropicDecomposition:
    rep = isotropy_report(s, j)
    if not rep.isotropic:
        raise SymplecticError("decomposition requires an isotropic subspace")
    g = s.algebra
    n = g.dim
    k = j.dim
    a_rows = j.rows
    # dual vectors: omega(x, a_l) = x . (F a_l) = delta_il, canonical solutions
    pairing_rows = Matrix(tuple(s.omega.matvec(a) for a in a_rows), n)
    raw = []
    for i in range(k):
        rhs = tuple(Q(1) if l == i else Q(0) for l in range(k))
        res = solve_linear(pairing_rows, rhs)
        assert res.particular is not None
        raw.append(res.particular)
    # triangular correction making N isotropic, preserving the dual pairing
    corrected = list(raw)
    for i in range(k):
        for jdx in range(i):
            c = s.pair(corrected[i], corrected[jdx])
            # replace n_i by n_i + c * a_j: omega(n_i + c a_j, n_j) = c - c = 0
            corrected[i] = tuple(
                x + c * y for x, y in zip(corrected[i], a_rows[jdx])
            )
    n_rows = tuple(corrected)
    n_sub = Subspace.span(n, n_rows)
    j_perp = omega_orthogonal(s, j)
    n_perp = omega_orthogonal(s, n_sub)
    w = j_perp.intersect(n_perp)
    assert n_sub.dim == k
    assert w.dim == n - 2 * k
    total = n_sub.sum(w).sum(j)
    assert total.dim == n, "decomposition does not span"
    for i in range(k):
        for jdx in range(k):
            assert s.pair(n_rows[i], a_rows[jdx]) == (Q(1) if i == jdx else Q(0))
            assert s.pair(n_rows[i], n_rows[jdx]) == 0
    assert j_perp == w.sum(j)
    return IsotropicDecomposition(n_rows, w, a_rows)
