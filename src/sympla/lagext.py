"""Flat Lie algebras and their Lagrangian extensions.

A flat Lie algebra (h, nabla) induces the dual representation
rho(u) xi = -xi . nabla_u on h*.  A two-cochain alpha in Z^2_rho(h, h*)
satisfying the cyclic condition

    alpha(u, v)(w) + alpha(w, u)(v) + alpha(v, w)(u) = 0

yields a symplectic Lie algebra on h + h* whose dual part is a Lagrangian
ideal; conversely every strongly polarized symplectic Lie algebra produces
such a triple.  Isomorphism classes over (h, nabla) are measured by the
restricted cohomology computed in :func:`lagrangian_cohomology`.
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
    combine,
    coordinates,
    gram,
    null_space,
    solve_linear,
    vec,
    vunit,
)
from .liealg import (
    Cochain,
    Connection,
    LieAlgebra,
    Representation,
    ValidationError,
    coboundary_apply,
    coboundary_matrix,
    combos,
    combo_index,
    curvature,
    is_flat,
    is_ideal,
    is_torsion_free,
    semidirect,
    torsion,
    trivial_rep,
    two_form_as_matrix,
)
from .symplectic import (
    SymplecticError,
    SymplecticLieAlgebra,
    induced_connection,
    isotropy_report,
    validate_symplectic,
)


@dataclass(frozen=True)
class ConnectionReport:
    torsion: Cochain
    curvature_mats: tuple[Matrix, ...]  # over the lex pair basis
    is_flat: bool
    is_torsion_free: bool


def connection_invariants(conn: Connection) -> ConnectionReport:
    g = conn.algebra
    t = torsion(conn)
    curv = tuple(curvature(conn, i, j) for i, j in combos(g.dim, 2))
    return ConnectionReport(t, curv, all(m.is_zero() for m in curv), t.is_zero())


@dataclass(frozen=True)
class FlatLieAlgebra:
    algebra: LieAlgebra
    connection: Connection

    def __post_init__(self):
        if self.connection.algebra != self.algebra:
            raise ValidationError("connection must live on the same algebra")
        rep = connection_invariants(self.connection)
        if not (rep.is_flat and rep.is_torsion_free):
            raise ValidationError("connection must be flat and torsion-free")

    @property
    def dim(self) -> int:
        return self.algebra.dim


def dual_rep(flat: FlatLieAlgebra) -> Representation:
    """rho(u) xi = -xi . nabla_u, on dual coordinates."""
    mats = tuple(m.transpose().neg() for m in flat.connection.mats)
    return Representation(flat.algebra, mats)


def half_ad_connection(h: LieAlgebra) -> Connection:
    """nabla_u v = [u, v] / 2; flat and torsion-free on two-step nilpotent h."""
    mats = tuple(h.ad(h.basis_vector(i)).scale(Q(1, 2)) for i in range(h.dim))
    return Connection(h, mats)


# ---------------------------------------------------------------------------
# extension cochains: elements of C^2(h, h*) with the coordinate conventions
# of liealg.Cochain (module basis = dual basis of h)


def _cyclic_positions(n: int) -> tuple[tuple[int, int, int], ...]:
    """Per triple i < j < k, the coordinates (a, b, c) of alpha(i, j)[k],
    alpha(j, k)[i] and alpha(i, k)[j] in C^2(h, h*); the cyclic sum is
    coords[a] + coords[b] - coords[c]."""
    idx = combo_index(n, 2)
    return tuple((idx[(i, j)] * n + k, idx[(j, k)] * n + i, idx[(i, k)] * n + j)
                 for i, j, k in combos(n, 3))


def cyclic_sum_values(h: LieAlgebra, alpha: Cochain) -> dict[tuple[int, int, int], Fraction]:
    x = alpha.coords
    return {t: x[a] + x[b] - x[c]
            for t, (a, b, c) in zip(combos(h.dim, 3), _cyclic_positions(h.dim))}


def satisfies_cyclic_condition(h: LieAlgebra, alpha: Cochain) -> bool:
    return all(v == 0 for v in cyclic_sum_values(h, alpha).values())


@dataclass(frozen=True)
class ExtensionTriple:
    flat: FlatLieAlgebra
    alpha: Cochain  # degree 2 on h with values in h* coordinates

    def __post_init__(self):
        n = self.flat.dim
        if (self.alpha.degree, self.alpha.dim, self.alpha.module_dim) != (2, n, n):
            raise ValidationError("alpha must be a two-cochain on h with dual values")


@dataclass(frozen=True)
class StronglyPolarized:
    s: SymplecticLieAlgebra
    ideal: Subspace  # Lagrangian ideal
    complement: Subspace  # complementary Lagrangian subspace

    def __post_init__(self):
        rep_a = isotropy_report(self.s, self.ideal)
        rep_n = isotropy_report(self.s, self.complement)
        if not (rep_a.lagrangian and is_ideal(self.s.algebra, self.ideal)):
            raise ValidationError("polarization ideal must be a Lagrangian ideal")
        if not rep_n.lagrangian:
            raise ValidationError("polarization complement must be Lagrangian")
        if not self.ideal.sum(self.complement).dim == self.s.dim:
            raise ValidationError("polarization must split the algebra")


def lagrangian_extension(triple: ExtensionTriple) -> StronglyPolarized:
    """Symplectic algebra on h + h* with duality pairing and alpha-twisted bracket."""
    flat = triple.flat
    h = flat.algebra
    n = h.dim
    rho = dual_rep(flat)
    if not coboundary_apply(rho, triple.alpha).is_zero():
        raise ValidationError("alpha is not a cocycle for the dual representation")
    bad = [(t, v) for t, v in cyclic_sum_values(h, triple.alpha).items() if v != 0]
    if bad:
        raise SymplecticError(
            f"cyclic extension condition fails; witness triple {bad[0][0]}", bad[0]
        )
    g = semidirect(h, rho, triple.alpha).relabel(
        tuple(h.labels) + tuple(f"{name}*" for name in h.labels))
    rows = [[Q(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[n + i][i] = Q(1)  # omega(xi, u) = xi(u)
        rows[i][n + i] = Q(-1)
    omega = Matrix.from_rows(rows, 2 * n)
    s = validate_symplectic(g, omega, check_jacobi=False)  # semidirect checked it
    ideal = Subspace.span(2 * n, [vunit(2 * n, n + i) for i in range(n)])
    comp = Subspace.span(2 * n, [vunit(2 * n, i) for i in range(n)])
    polarized = StronglyPolarized(s, ideal, comp)
    _check_quotient_connection(polarized, flat)
    return polarized


def _check_quotient_connection(p: StronglyPolarized, flat: FlatLieAlgebra):
    """The Lagrangian reduction of the extension must give back (h, nabla).

    The quotient connection is solved on the complement classes from
    omega_h(nabla_u v, a) = -omega(v~, [u~, a]).
    """
    _, conn = induced_connection(p.s, flat.algebra, p.complement.rows, p.ideal.rows)
    if conn.mats != flat.connection.mats:
        raise ValidationError("quotient connection differs from the input")


def extension_triple(p: StronglyPolarized) -> ExtensionTriple:
    """Extract (h, nabla, alpha) from a strong polarization; round-trips exactly."""
    s = p.s
    g = s.algebra
    n = p.complement.dim
    n_rows, a_rows = p.complement.rows, p.ideal.rows
    # quotient algebra on complement classes; the ideal part of [u~, v~] gives
    # alpha = iota_omega of the a-valued cocycle: alpha(u,v)(w) = omega(a, w~)
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    values: dict[tuple[int, int], Vec] = {}
    for i, j in combos(n, 2):
        c = _push(p, g.bracket(n_rows[i], n_rows[j]))
        entry = {k: c[k] for k in range(n) if c[k] != 0}
        if entry:
            brackets[(i, j)] = entry
        values[(i, j)] = c[n:]
    h = LieAlgebra.from_brackets(tuple(f"h{i+1}" for i in range(n)), brackets)
    # nabla from omega_h(nabla_u v, a) = -omega(v~, [u~, a])
    flat = FlatLieAlgebra(h, induced_connection(s, h, n_rows, a_rows)[1])
    alpha = Cochain.from_values(2, n, n, values)
    triple = ExtensionTriple(flat, alpha)
    _check_polarization_isomorphism(p, triple)
    return triple


def _check_polarization_isomorphism(p: StronglyPolarized, triple: ExtensionTriple):
    """Verify pi_h + iota_omega maps p isomorphically onto the rebuilt extension."""
    rebuilt = lagrangian_extension(triple)
    s, g = p.s, p.s.algebra
    mixed = list(p.complement.rows) + list(p.ideal.rows)
    for x, y in itertools.combinations(mixed, 2):
        lhs = _push(p, g.bracket(x, y))
        rhs = rebuilt.s.algebra.bracket(_push(p, x), _push(p, y))
        if lhs != rhs:
            raise ValidationError("extension triple does not reproduce the bracket")
    pushed = [_push(p, x) for x in mixed]
    if gram(s.omega, mixed, mixed) != gram(rebuilt.s.omega, pushed, pushed):
        raise ValidationError("extension triple does not reproduce the form")


def _push(p: StronglyPolarized, v: Vec) -> Vec:
    """pi_h + iota_omega: complement coordinates of v, then omega(a, n_w) for
    the ideal part a of v, as coordinates on h + h*."""
    n_rows, a_rows = p.complement.rows, p.ideal.rows
    c = coordinates(n_rows + a_rows, v)
    if c is None:
        raise ValidationError("polarization does not span the algebra")
    n = len(n_rows)
    avec = combine(c[n:], a_rows, p.s.dim)
    return c[:n] + tuple(p.s.pair(avec, x) for x in n_rows)


# ---------------------------------------------------------------------------
# Lagrangian extension cohomology


@dataclass(frozen=True)
class LagCohomology:
    c1_sym: Subspace  # symmetric one-cochains inside C^1(h, h*)
    z2_lagrangian: Subspace
    b2_lagrangian: Subspace
    z2_rho_dim: int
    b2_rho_dim: int
    kappa_dim: int

    @property
    def h2_dim(self) -> int:
        return self.z2_lagrangian.dim - self.b2_lagrangian.dim


def symmetric_one_cochains(n: int) -> Subspace:
    """S^2 h* inside C^1(h, h*) with coordinates lambda[(i,), j] = lambda(e_i)(e_j)."""
    vecs = []
    for i in range(n):
        for j in range(i, n):
            v = [Q(0)] * (n * n)
            v[i * n + j] = Q(1)
            v[j * n + i] = Q(1)
            vecs.append(tuple(v))
    return Subspace.span(n * n, vecs)


def trivial_two_cocycles_as_one_cochains(h: LieAlgebra) -> Subspace:
    """Z^2(h) embedded in C^1(h, h*) as alternating bilinear forms."""
    z2 = coboundary_matrix(trivial_rep(h), 2).null_space()
    n = h.dim
    vecs = [tuple(itertools.chain.from_iterable(two_form_as_matrix(Cochain(2, n, 1, row)).rows))
            for row in z2.rows]
    return Subspace.span(n * n, vecs)


def cyclic_condition_subspace(h: LieAlgebra) -> Subspace:
    """Two-cochains satisfying the cyclic symplectic extension condition."""
    n = h.dim
    size = len(combos(n, 2)) * n
    rows = []
    for a, b, c in _cyclic_positions(n):
        row = [0] * size
        row[a] = row[b] = 1
        row[c] = -1
        rows.append(row)
    return null_space(rows, size)


def lagrangian_cohomology(flat: FlatLieAlgebra) -> LagCohomology:
    h = flat.algebra
    n = h.dim
    rho = dual_rep(flat)
    d1 = coboundary_matrix(rho, 1)  # C^1(h,h*) -> C^2(h,h*)
    d2 = coboundary_matrix(rho, 2)
    c2_size = d1.nrows
    z2_rho = d2.null_space()
    b2_rho = Subspace.span(c2_size, [d1.col(j) for j in range(d1.cols)])
    sym = symmetric_one_cochains(n)
    cyc = cyclic_condition_subspace(h)
    z2_l = z2_rho.intersect(cyc)
    b2_l = Subspace.span(c2_size, [d1.matvec(r) for r in sym.rows])
    if not z2_l.contains(b2_l):
        raise ValidationError("symmetric coboundaries escaped the Lagrangian cocycles")
    # kernel of the comparison map via the symmetric + trivial-cocycle image
    z2_triv = trivial_two_cocycles_as_one_cochains(h)
    enlarged = sym.sum(z2_triv)
    b2_rho_cap_z2l = Subspace.span(c2_size, [d1.matvec(r) for r in enlarged.rows])
    direct = b2_rho.intersect(z2_l)
    if b2_rho_cap_z2l != direct:
        raise ValidationError("comparison kernel characterization failed")
    kappa = b2_rho_cap_z2l.dim - b2_l.dim
    return LagCohomology(sym, z2_l, b2_l, z2_rho.dim, b2_rho.dim, kappa)


def cyclic_coboundary_identity_holds(flat: FlatLieAlgebra, lam_alt: Vec) -> bool:
    """For alternating lambda, the cyclic sum of its coboundary is twice d(lambda)."""
    h = flat.algebra
    n = h.dim
    rho = dual_rep(flat)
    lam = Cochain(1, n, n, tuple(lam_alt))
    image = coboundary_apply(rho, lam)
    lam_form = Cochain.from_values(
        2, n, 1,
        {(i, j): (lam_alt[i * n + j],) for i, j in combos(n, 2)},
    )
    d2_lam = coboundary_apply(trivial_rep(h), lam_form)
    return list(cyclic_sum_values(h, image).values()) == [2 * x for x in d2_lam.coords]


def extensions_isomorphic(
    flat: FlatLieAlgebra, alpha: Cochain, alpha2: Cochain
) -> tuple[bool, Matrix | None]:
    """Equivalence over (h, nabla): the difference must be a symmetric coboundary.

    When it is, the verified isomorphism (u, xi) -> (u, xi + sigma(u)) is
    returned as a matrix on h + h*.
    """
    h = flat.algebra
    n = h.dim
    rho = dual_rep(flat)
    d1 = coboundary_matrix(rho, 1)
    sym = symmetric_one_cochains(n)
    diff = vec(tuple(a - b for a, b in zip(alpha.coords, alpha2.coords)))
    cols = [d1.matvec(r) for r in sym.rows]
    if cols:
        system = Matrix(tuple(cols), d1.nrows).transpose()
        res = solve_linear(system, diff)
    else:
        res = None
    if res is None or res.particular is None:
        return False, None
    sigma_flat = combine(res.particular, sym.rows, n * n)
    # build the isomorphism F(h, nabla, alpha) -> F(h, nabla, alpha2)
    p1 = lagrangian_extension(ExtensionTriple(flat, alpha))
    p2 = lagrangian_extension(ExtensionTriple(flat, alpha2))
    rows = [[Q(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(2 * n):
        rows[i][i] = Q(1)
    for u in range(n):
        for t in range(n):
            rows[n + t][u] = sigma_flat[u * n + t]
    iso = Matrix.from_rows(rows, 2 * n)
    g1, g2 = p1.s.algebra, p2.s.algebra
    images = iso.transpose().rows
    form = gram(p2.s.omega, images, images).rows
    for i in range(2 * n):
        for j in range(i + 1, 2 * n):
            lhs = iso.matvec(g1.bracket_basis(i, j))
            rhs = g2.bracket(images[i], images[j])
            if lhs != rhs:
                raise ValidationError("isomorphism failed to preserve the bracket")
            if p1.s.omega.rows[i][j] != form[i][j]:
                raise ValidationError("isomorphism failed to preserve the form")
    return True, iso
