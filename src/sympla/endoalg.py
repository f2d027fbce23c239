"""Endomorphism algebras on symplectic vector spaces.

Studies solutions of the quadratic condition

    omega(phi^2 u, v) + 2 omega(phi u, phi v) + omega(u, phi^2 v) = 0

and abelian symplectic endomorphism algebras.  One routine,
``invariant_isotropic_extension``, builds every invariant maximal isotropic
subspace; the six-dimensional two-generator family is decided by det S.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exactla import (
    Matrix,
    Q,
    Subspace,
    bilinear,
    derive_form,
    gram,
    is_invariant,
    isotropic_room,
    orthogonal_complement,
    rational_sqrt,
    vec,
    vunit,
)
from .liealg import Cochain, ValidationError, combos, matrix_as_two_form


@dataclass(frozen=True)
class SymplecticVectorSpace:
    """Alternating form on Q^dim; degenerate forms are allowed."""

    dim: int
    omega: Matrix

    def __post_init__(self):
        if self.omega.nrows != self.dim or self.omega.cols != self.dim:
            raise ValidationError("form must be square of the space dimension")
        if not self.omega.is_skew():
            raise ValidationError("form must be alternating")

    @property
    def nondegenerate(self) -> bool:
        return self.dim == 0 or self.omega.det() != 0

    def pair(self, u, v) -> Fraction:
        return bilinear(self.omega, vec(u), vec(v))

    def radical(self) -> Subspace:
        return self.omega.null_space()

    def max_isotropic_dim(self) -> int:
        r = self.radical().dim
        return r + (self.dim - r) // 2


@dataclass(frozen=True)
class EndoQuadraticData:
    phi: Matrix
    alpha: Cochain  # omega(phi u, v) + omega(u, phi v)
    beta: Cochain  # omega(phi^2 u, v) + 2 omega(phi u, phi v) + omega(u, phi^2 v)

    @property
    def beta_vanishes(self) -> bool:
        return self.beta.is_zero()


def quadratic_forms(space: SymplecticVectorSpace, phi: Matrix) -> EndoQuadraticData:
    n = space.dim
    if phi.nrows != n or phi.cols != n:
        raise ValidationError("phi must be square of the space dimension")
    alpha = derive_form(space.omega, phi)
    return EndoQuadraticData(
        phi, matrix_as_two_form(alpha), matrix_as_two_form(derive_form(alpha, phi)))


def is_symplectic_endo_subalgebra(
    space: SymplecticVectorSpace, gens: list[Matrix]
) -> tuple[bool, tuple | None]:
    """Abelian generators are symplectic iff the four-term relation vanishes.

    The relation for the generators (a, b) is the twice derived form
    D_b(D_a omega), with D the phi-derivative.  Returns (flag, witness); the
    witness is (gen index pair, basis pair) of its first nonzero entry above
    the diagonal when the relation fails.
    """
    for a, b in itertools.combinations(range(len(gens)), 2):
        if not gens[a].mul(gens[b]).sub(gens[b].mul(gens[a])).is_zero():
            raise ValidationError("generators must commute")
    for a in range(len(gens)):
        first = derive_form(space.omega, gens[a])
        for b in range(a, len(gens)):
            rows = derive_form(first, gens[b]).rows
            bad = next(((i, j) for i, j in combos(space.dim, 2) if rows[i][j] != 0), None)
            if bad is not None:
                return False, ((a, b), bad)
    return True, None


def images_orthogonality_holds(space: SymplecticVectorSpace, phi: Matrix) -> bool:
    """im(phi^j) is omega-orthogonal to im(phi^(k-j)) for nilpotent solutions."""
    n = space.dim
    k = nilpotency_index(phi)
    if k is None:
        raise ValidationError("phi must be nilpotent")
    powers = [Matrix.identity(n)]
    for _ in range(k):
        powers.append(phi.mul(powers[-1]))
    images = [p.transpose().rows for p in powers]
    return all(gram(space.omega, images[j], images[k - j]).is_zero() for j in range(k + 1))


def nilpotency_index(phi: Matrix) -> int | None:
    n = phi.nrows
    power = Matrix.identity(n)
    for k in range(n + 1):
        if power.is_zero():
            return k
        power = phi.mul(power)
    return None


def invariant_isotropic_extension(space: SymplecticVectorSpace, ops: list[Matrix],
                                  seed: Subspace) -> Subspace:
    """Grow an ops-invariant isotropic subspace U until room = U, where
    room = {x in U^perp : A x in U for every A} (``isotropic_room``).

    The next x is the first row outside U of room ∩ T_j, for the deepest term
    of the descent T_0 = U^perp, T_(j+1) = sum_A A(T_j) + U that meets room
    outside U (cut after dim steps, by which a nilpotent family reaches U).
    For a nilpotent quadratic solution phi, T_j / U is the image of the j-th
    power of the operator induced on U^perp / U: this is the induction of
    Part 3 of Baues–Cortés without a quotient basis, and it ends maximal.
    With ops = [] it is the greedy extension by first rows of U^perp.  The
    first row of room alone, the rule of ``search.socle_extension``, fell
    short of maximal on 77 of 300 ``beta_kernel_pair`` draws.
    """
    n = space.dim
    columns = [op.transpose().integer_support for op in ops]
    u = seed
    while True:
        room = isotropic_room(space.omega, columns, u)
        if not room.contains(u):
            raise ValidationError("seed is not an invariant isotropic subspace")
        if room.dim == u.dim:
            return u
        meet, term = room, orthogonal_complement(space.omega, u)
        for _ in range(n):
            term = Subspace.span(n, [op.matvec(r) for op in ops for r in term.rows] + list(u.rows))
            deeper = room.intersect(term)
            if deeper.dim == u.dim:
                break
            meet = deeper
        x = next(r for r in meet.rows if not u.contains_vector(r))
        u = Subspace.span(n, u.rows + (x,))


def invariant_lagrangian_nilpotent(space: SymplecticVectorSpace, phi: Matrix) -> Subspace:
    """phi-invariant maximal isotropic subspace for a nilpotent quadratic
    solution, grown from 0; the form may be degenerate."""
    if nilpotency_index(phi) is None:
        raise ValidationError("phi must be nilpotent")
    if not quadratic_forms(space, phi).beta_vanishes:
        raise ValidationError("phi does not satisfy the quadratic condition")
    result = invariant_isotropic_extension(space, [phi], Subspace.zero(space.dim))
    _check_invariant_maximal_isotropic(space, [phi], result)
    return result


def _check_invariant_maximal_isotropic(space: SymplecticVectorSpace, ops: list[Matrix],
                                       sub: Subspace) -> None:
    if sub.dim != space.max_isotropic_dim():
        raise ValidationError("result is not of maximal isotropic dimension")
    if not is_invariant(sub, ops):
        raise ValidationError("result is not invariant")
    if not gram(space.omega, sub.rows, sub.rows).is_zero():
        raise ValidationError("result is not isotropic")


def invariant_lagrangian_low_dim(space: SymplecticVectorSpace, gens: list[Matrix]) -> Subspace:
    """Invariant maximal isotropic subspace in dimension at most four.

    Accepts a single square-zero endomorphism, or an abelian quadratic family
    that is symplectic for the form; ``invariant_isotropic_extension`` from 0
    builds it.
    """
    n = space.dim
    if n > 4:
        raise ValidationError("constructive search only covers dimension at most four")
    for phi in gens:
        if not phi.mul(phi).is_zero():
            raise ValidationError("generators must square to zero")
    if len(gens) > 1:
        ok, witness = is_symplectic_endo_subalgebra(space, gens)
        if not ok:
            raise ValidationError("family is not symplectic for the form", witness)
    result = invariant_isotropic_extension(space, gens, Subspace.zero(n))
    _check_invariant_maximal_isotropic(space, gens, result)
    return result


# ---------------------------------------------------------------------------
# the six-dimensional two-generator family


@dataclass(frozen=True)
class Q6Instance:
    """Operators X u_i = v_i, Y u_i = w_i on V + U + W with S_ij = omega(v_i, w_j)."""

    s_matrix: Matrix
    space: SymplecticVectorSpace
    x: Matrix
    y: Matrix

    @property
    def labels(self) -> tuple[str, ...]:
        return ("u1", "u2", "v1", "v2", "w1", "w2")


def q6_space(s_matrix: Matrix) -> Q6Instance:
    """Basis order (u1, u2, v1, v2, w1, w2); V, W isotropic, U = (V + W)^perp."""
    if s_matrix.nrows != 2 or s_matrix.cols != 2:
        raise ValidationError("S must be a 2x2 matrix")
    if s_matrix.det() == 0:
        raise ValidationError("S must be nonsingular")
    rows = [[Q(0)] * 6 for _ in range(6)]
    rows[0][1], rows[1][0] = Q(1), Q(-1)  # omega(u1, u2) = 1
    for i in range(2):
        for j in range(2):
            rows[2 + i][4 + j] = s_matrix.rows[i][j]
            rows[4 + j][2 + i] = -s_matrix.rows[i][j]
    omega = Matrix.from_rows(rows, 6)
    space = SymplecticVectorSpace(6, omega)
    x_rows = [[Q(0)] * 6 for _ in range(6)]
    y_rows = [[Q(0)] * 6 for _ in range(6)]
    for i in range(2):
        x_rows[2 + i][i] = Q(1)
        y_rows[4 + i][i] = Q(1)
    return Q6Instance(s_matrix, space, Matrix.from_rows(x_rows, 6), Matrix.from_rows(y_rows, 6))


@dataclass(frozen=True)
class Q6Report:
    instance: Q6Instance
    symplectic: bool
    status: str  # "found" | "certified_none" | "real_witness_only"
    subspace: Subspace | None
    discriminant: Fraction
    certificate: str


def q6_analyze(s_matrix: Matrix) -> Q6Report:
    """Invariant Lagrangian subspaces exist iff det S < 0; rational witnesses
    additionally need a rational root of S11 a^2 + 2 S21 ab + S22 b^2."""
    if not s_matrix.is_symmetric():
        raise ValidationError("S must be symmetric")
    inst = q6_space(s_matrix)
    symplectic, _ = is_symplectic_endo_subalgebra(inst.space, [inst.x, inst.y])
    det = s_matrix.det()
    s11, s21, s22 = s_matrix.rows[0][0], s_matrix.rows[1][0], s_matrix.rows[1][1]
    disc = s21 * s21 - s11 * s22  # = -det S
    if det > 0:
        sign = "positive" if s11 > 0 else "negative"
        return Q6Report(inst, symplectic, "certified_none", None, disc,
                        f"S is {sign} definite: omega(Xu, Yu) != 0 for u != 0")
    root = _binary_quadratic_root(s11, s21, s22)
    if root is None:
        return Q6Report(inst, symplectic, "real_witness_only", None, disc,
                        "det S < 0 but the root discriminant is not a rational square")
    a, b = root
    u = tuple(a * x + b * y for x, y in zip(vunit(6, 0), vunit(6, 1)))
    sub = Subspace.span(6, [u, inst.x.matvec(u), inst.y.matvec(u)])
    _check_invariant_maximal_isotropic(inst.space, [inst.x, inst.y], sub)
    return Q6Report(inst, symplectic, "found", sub, disc, "rational isotropic direction")


def _binary_quadratic_root(s11: Fraction, s21: Fraction, s22: Fraction) -> tuple[Fraction, Fraction] | None:
    """Nonzero rational (a, b) with s11 a^2 + 2 s21 ab + s22 b^2 = 0, if any."""
    if s11 == 0:
        return (Q(1), Q(0))
    disc = rational_sqrt(s21 * s21 - s11 * s22)
    if disc is None:
        return None
    return ((-s21 + disc) / s11, Q(1))
