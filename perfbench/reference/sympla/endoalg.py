"""Endomorphism algebras on symplectic vector spaces.

Studies solutions of the quadratic condition

    omega(phi^2 u, v) + 2 omega(phi u, phi v) + omega(u, phi^2 v) = 0

and abelian symplectic endomorphism algebras, including the constructive
invariant-Lagrangian-subspace algorithms and the six-dimensional
two-generator family with the det S criterion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exactla import (
    Matrix,
    Q,
    Subspace,
    Vec,
    bilinear,
    orthogonal_complement,
    rational_sqrt,
    vec,
    vunit,
    vzero,
)
from .liealg import Cochain, ValidationError, combos


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
        return Subspace.span(self.dim, self.omega.kernel_basis())

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
    phi2 = phi.mul(phi)
    alpha_vals, beta_vals = {}, {}
    for i, j in combos(n, 2):
        ei, ej = vunit(n, i), vunit(n, j)
        pi, pj = phi.matvec(ei), phi.matvec(ej)
        alpha_vals[(i, j)] = (space.pair(pi, ej) + space.pair(ei, pj),)
        beta_vals[(i, j)] = (
            space.pair(phi2.matvec(ei), ej)
            + 2 * space.pair(pi, pj)
            + space.pair(ei, phi2.matvec(ej)),
        )
    return EndoQuadraticData(
        phi,
        Cochain.from_values(2, n, 1, alpha_vals),
        Cochain.from_values(2, n, 1, beta_vals),
    )


def is_symplectic_endo_subalgebra(
    space: SymplecticVectorSpace, gens: list[Matrix]
) -> tuple[bool, tuple | None]:
    """Abelian generators are symplectic iff the four-term relation vanishes.

    Returns (flag, witness); the witness is (gen index pair, basis pair) when
    the relation fails.
    """
    n = space.dim
    for a, b in itertools.combinations(range(len(gens)), 2):
        if not gens[a].mul(gens[b]).sub(gens[b].mul(gens[a])).is_zero():
            raise ValidationError("generators must commute")
    for a in range(len(gens)):
        for b in range(a, len(gens)):
            prod = gens[a].mul(gens[b])
            for i in range(n):
                for j in range(i + 1, n):
                    ei, ej = vunit(n, i), vunit(n, j)
                    s = space.pair(prod.matvec(ei), ej) \
                        + space.pair(gens[a].matvec(ei), gens[b].matvec(ej)) \
                        + space.pair(gens[b].matvec(ei), gens[a].matvec(ej)) \
                        + space.pair(ei, prod.matvec(ej))
                    if s != 0:
                        return False, ((a, b), (i, j))
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
    for j in range(k + 1):
        a, b = powers[j], powers[k - j]
        for s in range(n):
            for t in range(n):
                if space.pair(a.col(s), b.col(t)) != 0:
                    return False
    return True


def nilpotency_index(phi: Matrix) -> int | None:
    n = phi.nrows
    power = Matrix.identity(n)
    for k in range(n + 1):
        if power.is_zero():
            return k
        power = phi.mul(power)
    return 0 if n == 0 else (n if power.is_zero() else None)


def extend_to_maximal_isotropic(space: SymplecticVectorSpace, seed: Subspace) -> Subspace:
    """Deterministic greedy extension of an isotropic subspace to maximal size."""
    current = seed
    target = space.max_isotropic_dim()
    while current.dim < target:
        perp = orthogonal_complement(space.omega, current)
        grew = False
        for row in perp.rows:
            if not current.contains_vector(row):
                current = current.sum(Subspace.span(space.dim, [row]))
                grew = True
                break
        if not grew:
            break
    return current


def invariant_lagrangian_nilpotent(space: SymplecticVectorSpace, phi: Matrix) -> Subspace:
    """phi-invariant maximal isotropic subspace for a nilpotent quadratic solution.

    Induction: pick Z in the image of the last nonzero power of phi, pass to
    Z^perp / <Z> and lift the result.  The form may be degenerate.
    """
    k = nilpotency_index(phi)
    if k is None:
        raise ValidationError("phi must be nilpotent")
    data = quadratic_forms(space, phi)
    if not data.beta_vanishes:
        raise ValidationError("phi does not satisfy the quadratic condition")
    result = _invariant_lagrangian_rec(space, phi)
    _check_invariant_maximal_isotropic(space, phi, result)
    return result


def _invariant_lagrangian_rec(space: SymplecticVectorSpace, phi: Matrix) -> Subspace:
    n = space.dim
    if n == 0:
        return Subspace.zero(0)
    k = nilpotency_index(phi)
    if k <= 1:  # phi = 0: any maximal isotropic subspace is invariant
        return extend_to_maximal_isotropic(space, Subspace.zero(n))
    power = Matrix.identity(n)
    for _ in range(k - 1):
        power = phi.mul(power)
    image = Subspace.span(n, [power.col(j) for j in range(n)])
    z = image.rows[0]
    zperp = orthogonal_complement(space.omega, Subspace.span(n, [z]))
    # independent completion of <z> to a basis of zperp
    current = Subspace.span(n, [z])
    quotient_basis: list[Vec] = []
    for r in zperp.rows:
        if not current.contains_vector(r):
            quotient_basis.append(r)
            current = current.sum(Subspace.span(n, [r]))
    lift = Matrix(tuple([z] + quotient_basis), n).transpose()
    m = len(quotient_basis)
    from .exactla import solve_linear

    def project(v: Vec) -> Vec:
        res = solve_linear(lift, v)
        assert res.particular is not None, "vector escaped the orthogonal of Z"
        return res.particular[1:]

    omega_q = Matrix.from_rows(
        [[space.pair(quotient_basis[a], quotient_basis[b]) for b in range(m)]
         for a in range(m)], m
    ) if m else Matrix((), 0)
    phi_q = Matrix(tuple(project(phi.matvec(qb)) for qb in quotient_basis), m).transpose() \
        if m else Matrix((), 0)
    sub = _invariant_lagrangian_rec(SymplecticVectorSpace(m, omega_q), phi_q)
    lifted = [z]
    for r in sub.rows:
        v = list(vzero(n))
        for c, qb in zip(r, quotient_basis):
            if c != 0:
                for t, x in enumerate(qb):
                    v[t] += c * x
        lifted.append(tuple(v))
    return Subspace.span(n, lifted)


def _check_invariant_maximal_isotropic(space: SymplecticVectorSpace, phi: Matrix, sub: Subspace):
    if sub.dim != space.max_isotropic_dim():
        raise ValidationError("result is not of maximal isotropic dimension")
    for a in sub.rows:
        if not sub.contains_vector(phi.matvec(a)):
            raise ValidationError("result is not phi-invariant")
        for b in sub.rows:
            if space.pair(a, b) != 0:
                raise ValidationError("result is not isotropic")


def invariant_lagrangian_low_dim(
    space: SymplecticVectorSpace, gens: list[Matrix]
) -> Subspace:
    """Invariant maximal isotropic subspace in dimension at most four.

    Accepts a single square-zero endomorphism, or an abelian quadratic family
    that is symplectic for the form.  The isotropic-image case extends the
    joint image; the non-degenerate-image case (single generator only) uses
    the span of u and phi(u) for u in the image's orthogonal.
    """
    n = space.dim
    if n > 4:
        raise ValidationError("constructive search only covers dimension at most four")
    for phi in gens:
        if not phi.mul(phi).is_zero():
            raise ValidationError("generators must square to zero")
    image = Subspace.span(n, [phi.col(j) for phi in gens for j in range(n)])
    isotropic_image = all(
        space.pair(a, b) == 0 for a in image.rows for b in image.rows
    )
    if isotropic_image:
        result = extend_to_maximal_isotropic(space, image)
        _check_invariant_family(space, gens, result)
        return result
    if len(gens) > 1:
        ok, witness = is_symplectic_endo_subalgebra(space, gens)
        if ok:
            # a symplectic quadratic family has isotropic joint image in dim <= 4
            raise ValidationError("non-isotropic image contradicts the symplectic relation")
        raise ValidationError("family is not symplectic for the form", witness)
    phi = gens[0]
    u_space = orthogonal_complement(space.omega, image)
    u = next((r for r in u_space.rows if not phi.matvec(r) == vzero(n)), None)
    if u is None:
        raise ValidationError("no vector outside the kernel in the orthogonal")
    result = Subspace.span(n, [u, phi.matvec(u)])
    _check_invariant_family(space, gens, result)
    return result


def _check_invariant_family(space: SymplecticVectorSpace, gens: list[Matrix], sub: Subspace):
    if sub.dim != space.max_isotropic_dim():
        raise ValidationError("result is not of maximal isotropic dimension")
    for a in sub.rows:
        for b in sub.rows:
            if space.pair(a, b) != 0:
                raise ValidationError("result is not isotropic")
        for phi in gens:
            if not sub.contains_vector(phi.matvec(a)):
                raise ValidationError("result is not invariant")


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
    _check_invariant_family(inst.space, [inst.x, inst.y], sub)
    return Q6Report(inst, symplectic, "found", sub, disc, "rational isotropic direction")


def _binary_quadratic_root(s11: Fraction, s21: Fraction, s22: Fraction) -> tuple[Fraction, Fraction] | None:
    """Nonzero rational (a, b) with s11 a^2 + 2 s21 ab + s22 b^2 = 0, if any."""
    if s11 == 0:
        return (Q(1), Q(0))
    disc = rational_sqrt(s21 * s21 - s11 * s22)
    if disc is None:
        return None
    return ((-s21 + disc) / s11, Q(1))
