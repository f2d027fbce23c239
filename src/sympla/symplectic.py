"""Symplectic structures on Lie algebras.

Validation of closed non-degenerate two-forms, symplectic orthogonals,
isotropy classification, the canonical torsion-free flat connection and
isotropic decompositions g = N + W + j.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exactla import (
    DimensionMismatch,
    Matrix,
    Q,
    Subspace,
    Vec,
    bilinear,
    coordinates,
    gram,
    integer_gram,
    integer_kernel,
    orthogonal_complement,
    vec,
    vunit,
)
from .liealg import (
    Connection,
    LieAlgebra,
    ValidationError,
    brackets_within,
    is_flat,
    is_torsion_free,
    require_valid,
)


class SymplecticError(ValidationError):
    pass


@dataclass(frozen=True)
class SymplecticLieAlgebra:
    """A Lie algebra with a two-form.  The hash is computed once per instance,
    since the search caches key on the pair; equality compares the fields."""

    algebra: LieAlgebra
    omega: Matrix

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.algebra, self.omega))

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def pair(self, u, v) -> Fraction:
        return bilinear(self.omega, vec(u), vec(v))


def closedness_violations(g: LieAlgebra, omega: Matrix) -> list[tuple[int, int, int, Fraction]]:
    """Basis triples i < j < k where d omega = omega([e_i, e_j], e_k) + cyclic is not 0.

    Summed over the integer constants d·c and e·omega (e the lcm of the
    denominators of omega), and divided by d·e when nonzero.
    """
    bad = []
    d, nz = g.integer_constants
    e = math.lcm(*(x.denominator for row in omega.rows for x in row))
    w = [[x.numerator * (e // x.denominator) for x in row] for row in omega.rows]
    for i, j, k in itertools.combinations(range(g.dim), 3):
        s = 0
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for l, x in nz[a][b]:
                s += x * w[l][c]
        if s:
            bad.append((i, j, k, Q(s, d * e)))
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
    """Every field from the rank r of the integer Gram matrix of w (k = dim w,
    n = dim g): dim W^perp = n - k as omega is non-degenerate, and
    dim(W ∩ W^perp) = k - r, so W is isotropic iff r = 0, non-degenerate iff
    r = k and coisotropic iff k - r = n - k."""
    n, k = s.dim, w.dim
    form = integer_gram(s.omega, w)
    isotropic = not any(map(any, form))
    rank = 0 if isotropic else k - len(integer_kernel(form, k))
    corank = None
    if isotropic:
        if 2 * k > n:
            raise SymplecticError(f"isotropic subspace of dimension {k} in dimension {n}: "
                                  "omega is degenerate")
        corank = (n - 2 * k) // 2
    return IsotropyReport(w, isotropic, k - rank == n - k, isotropic and corank == 0,
                          rank == k, corank)


def isotropic_part(s: SymplecticLieAlgebra, w: Subspace) -> Subspace:
    """W ∩ W^perp = {c^T R : G c = 0}, R the integer rows of w and G their
    integer Gram matrix: one k x k kernel."""
    rows = w.integer_rows
    kernel = integer_kernel(integer_gram(s.omega, w), w.dim)
    return Subspace.from_integer_rows(
        s.dim, [[sum(c * r[t] for c, r in zip(coeffs, rows) if c) for t in range(s.dim)]
                for coeffs in kernel])


def canonical_connection(s: SymplecticLieAlgebra) -> Connection:
    """The flat torsion-free connection with omega(nabla_u v, w) = -omega(v, [u, w])."""
    g = s.algebra
    basis = tuple(g.basis_vector(i) for i in range(g.dim))
    _, conn = induced_connection(s, g, basis, basis)
    if not (is_flat(conn) and is_torsion_free(conn)):
        raise SymplecticError("canonical connection failed to be flat and torsion-free")
    return conn


def dual_rows(s: SymplecticLieAlgebra, a_rows: tuple[Vec, ...]) -> tuple[Vec, ...]:
    """Canonical solutions x_i of omega(x_i, a_l) = delta_il (free coordinates zero).

    One elimination of [omega a | I_k]: every unit right-hand side is
    consistent exactly when the k pairing rows are independent.
    """
    n, k = s.dim, len(a_rows)
    augmented = Matrix(tuple(s.omega.matvec(a) + vunit(k, l) for l, a in enumerate(a_rows)),
                       n + k)
    red, pivots = augmented.rref()
    if sum(1 for p in pivots if p < n) < k:
        raise SymplecticError("omega must pair the rows with a transversal")
    out = []
    for i in range(k):
        x = [Q(0)] * n
        for r, p in enumerate(pivots):
            x[p] = red.rows[r][n + i]
        out.append(tuple(x))
    return tuple(out)


def induced_connection(
    s: SymplecticLieAlgebra, h: LieAlgebra, n_rows: tuple[Vec, ...], a_rows: tuple[Vec, ...]
) -> tuple[Matrix, Connection]:
    """Pairing omega_h = (omega(n_i, a_l)) and the connection on h = span of the
    n_rows classes solving omega_h(nabla_u v, a) = -omega(v, [u, a]).

    n_rows = a_rows = the standard basis gives the canonical connection.
    """
    g = s.algebra
    k = len(n_rows)
    omega_h = gram(s.omega, n_rows, a_rows)
    mats = []
    for u in n_rows:
        pairings = gram(s.omega, n_rows, [g.bracket(u, a) for a in a_rows]).rows
        cols = []
        for row in pairings:
            col = coordinates(omega_h.rows, tuple(-x for x in row))
            if col is None:
                raise SymplecticError("induced connection has no solution")
            cols.append(col)
        mats.append(Matrix(tuple(cols), k).transpose())
    return omega_h, Connection(h, tuple(mats))


def totally_geodesic_check(s: SymplecticLieAlgebra, l: Subspace) -> bool:
    """[l, l^perp] contained in l^perp, for a subalgebra l."""
    if not brackets_within(s.algebra, l, l, l):
        raise ValidationError("totally geodesic test requires a subalgebra")
    perp = omega_orthogonal(s, l)
    return brackets_within(s.algebra, l, perp, perp)


@dataclass(frozen=True)
class IsotropicDecomposition:
    """g = N + W + j with N, j isotropic, W = N^perp ∩ j^perp, omega(n_i, a_j) = delta;
    j_perp = W + j is the orthogonal of j."""

    n_rows: tuple[Vec, ...]
    w: Subspace
    j_rows: tuple[Vec, ...]
    j_perp: Subspace

    @property
    def n_subspace(self) -> Subspace:
        amb = self.w.ambient
        return Subspace.span(amb, self.n_rows)

    def split(self, v: Vec) -> tuple[Vec, Vec, Vec]:
        """Coefficients of v over the N, W and j bases."""
        c = coordinates(self.n_rows + self.w.rows + self.j_rows, v)
        if c is None:
            raise SymplecticError("decomposition does not span the algebra")
        k, m = len(self.n_rows), self.w.dim
        return c[:k], c[k: k + m], c[k + m:]


def isotropic_decomposition(s: SymplecticLieAlgebra, j: Subspace) -> IsotropicDecomposition:
    if not isotropy_report(s, j).isotropic:
        raise SymplecticError("decomposition requires an isotropic subspace")
    return _isotropic_decomposition(s, j)


def _isotropic_decomposition(s: SymplecticLieAlgebra, j: Subspace) -> IsotropicDecomposition:
    """The decomposition of an isotropic j, which the caller has checked."""
    n = s.dim
    k = j.dim
    a_rows = j.rows
    # triangular correction making N isotropic, preserving the dual pairing
    corrected = list(dual_rows(s, a_rows))
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
    w = omega_orthogonal(s, n_sub.sum(j))  # N^perp ∩ j^perp = (N + j)^perp
    if n_sub.dim != k or w.dim != n - 2 * k or n_sub.sum(w).sum(j).dim != n \
            or j_perp != w.sum(j):
        raise SymplecticError("isotropic decomposition does not split the algebra")
    for i in range(k):
        for jdx in range(k):
            if s.pair(n_rows[i], a_rows[jdx]) != (Q(1) if i == jdx else Q(0)) \
                    or s.pair(n_rows[i], n_rows[jdx]) != 0:
                raise SymplecticError("complement is not isotropic and dual to the ideal",
                                      (i, jdx))
    return IsotropicDecomposition(n_rows, w, a_rows, j_perp)
