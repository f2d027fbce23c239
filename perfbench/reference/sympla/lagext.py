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
    solve_linear,
    vec,
    vzero,
)
from .liealg import (
    Cochain,
    Connection,
    LieAlgebra,
    Representation,
    ValidationError,
    bracket_span,
    coboundary_matrix,
    combos,
    combo_index,
    curvature,
    is_flat,
    is_torsion_free,
    subspace_algebra_flags,
    torsion,
    validate_jacobi,
)
from .symplectic import (
    SymplecticError,
    SymplecticLieAlgebra,
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


def cyclic_sum_values(h: LieAlgebra, alpha: Cochain) -> dict[tuple[int, int, int], Fraction]:
    out = {}
    for i, j, k in combos(h.dim, 3):
        s = alpha.value_on_combo((i, j))[k] \
            + alpha.value_on_combo((j, k))[i] \
            - alpha.value_on_combo((i, k))[j]
        out[(i, j, k)] = s
    return out


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
        flags = subspace_algebra_flags(self.s.algebra, self.ideal)
        if not (rep_a.lagrangian and flags.is_ideal):
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
    from .liealg import coboundary_apply

    if not coboundary_apply(rho, triple.alpha).is_zero():
        raise ValidationError("alpha is not a cocycle for the dual representation")
    bad = [(t, v) for t, v in cyclic_sum_values(h, triple.alpha).items() if v != 0]
    if bad:
        raise SymplecticError(
            f"cyclic extension condition fails; witness triple {bad[0][0]}", bad[0]
        )
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i, j in combos(n, 2):
        entry = {k: c for k, c in enumerate(h.bracket_basis(i, j)) if c != 0}
        for k, c in enumerate(triple.alpha.value_on_combo((i, j))):
            if c != 0:
                entry[n + k] = c
        if entry:
            brackets[(i, j)] = entry
    for i in range(n):
        for t in range(n):
            col = rho.mats[i].col(t)
            entry = {n + k: c for k, c in enumerate(col) if c != 0}
            if entry:
                brackets[(i, n + t)] = entry
    labels = tuple(h.labels) + tuple(f"{name}*" for name in h.labels)
    g = LieAlgebra.from_brackets(labels, brackets)
    rows = [[Q(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[n + i][i] = Q(1)  # omega(xi, u) = xi(u)
        rows[i][n + i] = Q(-1)
    omega = Matrix.from_rows(rows, 2 * n)
    s = validate_symplectic(g, omega)
    ideal = Subspace.span(2 * n, [_unit(2 * n, n + i) for i in range(n)])
    comp = Subspace.span(2 * n, [_unit(2 * n, i) for i in range(n)])
    polarized = StronglyPolarized(s, ideal, comp)
    _check_quotient_connection(polarized, flat)
    return polarized


def _check_quotient_connection(p: StronglyPolarized, flat: FlatLieAlgebra):
    """The Lagrangian reduction of the extension must give back (h, nabla).

    The quotient connection is solved on the complement classes from
    omega_h(nabla_u v, a) = -omega(v~, [u~, a]).
    """
    s, g = p.s, p.s.algebra
    n = flat.dim
    n_rows, a_rows = p.complement.rows, p.ideal.rows
    gram = Matrix.from_rows([[s.pair(nr, ar) for ar in a_rows] for nr in n_rows], n)
    gram_t = gram.transpose()
    for i in range(n):
        for j in range(n):
            rhs = tuple(-s.pair(n_rows[j], g.bracket(n_rows[i], a)) for a in a_rows)
            res = solve_linear(gram_t, rhs)
            assert res.particular is not None
            if res.particular != flat.connection.mats[i].col(j):
                raise ValidationError("quotient connection differs from the input")


def extension_triple(p: StronglyPolarized) -> ExtensionTriple:
    """Extract (h, nabla, alpha) from a strong polarization; round-trips exactly."""
    s = p.s
    g = s.algebra
    n = p.complement.dim
    n_rows = p.complement.rows
    a_rows = p.ideal.rows
    gram = Matrix.from_rows(
        [[s.pair(nr, ar) for ar in a_rows] for nr in n_rows], n
    )
    gram_t = gram.transpose()
    # quotient algebra on complement classes
    basis = Matrix(n_rows + a_rows, g.dim).transpose()

    def coords(v: Vec) -> Vec:
        res = solve_linear(basis, v)
        assert res.particular is not None
        return res.particular

    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    alpha_tilde: dict[tuple[int, int], Vec] = {}
    for i, j in combos(n, 2):
        c = coords(g.bracket(n_rows[i], n_rows[j]))
        entry = {k: c[k] for k in range(n) if c[k] != 0}
        if entry:
            brackets[(i, j)] = entry
        alpha_tilde[(i, j)] = c[n:]
    h = LieAlgebra.from_brackets(tuple(f"h{i+1}" for i in range(n)), brackets)
    # nabla from omega_h(nabla_u v, a) = -omega(v~, [u~, a])
    mats = []
    for i in range(n):
        cols = []
        for j in range(n):
            rhs = tuple(-s.pair(n_rows[j], g.bracket(n_rows[i], a)) for a in a_rows)
            res = solve_linear(gram_t, rhs)
            assert res.particular is not None
            cols.append(res.particular)
        mats.append(Matrix(tuple(cols), n).transpose())
    flat = FlatLieAlgebra(h, Connection(h, tuple(mats)))
    # alpha = iota_omega of the a-valued cocycle: alpha(u,v)(w) = omega(a, w~)
    values = {}
    for (i, j), acoords in alpha_tilde.items():
        avec = _combine(a_rows, acoords, g.dim)
        values[(i, j)] = tuple(s.pair(avec, n_rows[w]) for w in range(n))
    alpha = Cochain.from_values(2, n, n, values)
    triple = ExtensionTriple(flat, alpha)
    _check_polarization_isomorphism(p, triple)
    return triple


def _check_polarization_isomorphism(p: StronglyPolarized, triple: ExtensionTriple):
    """Verify pi_h + iota_omega maps p isomorphically onto the rebuilt extension."""
    rebuilt = lagrangian_extension(triple)
    s, g = p.s, p.s.algebra
    n = triple.flat.dim
    n_rows, a_rows = p.complement.rows, p.ideal.rows
    basis = Matrix(n_rows + a_rows, g.dim).transpose()

    def push(v: Vec) -> Vec:
        res = solve_linear(basis, v)
        assert res.particular is not None
        c = res.particular
        out = list(c[:n]) + list(vzero(n))
        for t in range(n):
            if c[n + t] != 0:
                avec = a_rows[t]
                for w in range(n):
                    out[n + w] += c[n + t] * s.pair(avec, n_rows[w])
        return tuple(out)

    mixed = list(n_rows) + list(a_rows)
    for x, y in itertools.combinations(mixed, 2):
        lhs = push(g.bracket(x, y))
        rhs = rebuilt.s.algebra.bracket(push(x), push(y))
        if lhs != rhs:
            raise ValidationError("extension triple does not reproduce the bracket")
    for x, y in itertools.combinations(mixed, 2):
        if s.pair(x, y) != rebuilt.s.pair(push(x), push(y)):
            raise ValidationError("extension triple does not reproduce the form")


def _combine(rows, coeffs, ambient: int) -> Vec:
    out = list(vzero(ambient))
    for c, r in zip(coeffs, rows, strict=True):
        if c != 0:
            for t, x in enumerate(r):
                out[t] += c * x
    return tuple(out)


def _unit(n: int, i: int) -> Vec:
    return tuple(Q(1) if t == i else Q(0) for t in range(n))


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


def alternating_one_cochains(n: int) -> Subspace:
    vecs = []
    for i in range(n):
        for j in range(i + 1, n):
            v = [Q(0)] * (n * n)
            v[i * n + j] = Q(1)
            v[j * n + i] = Q(-1)
            vecs.append(tuple(v))
    return Subspace.span(n * n, vecs)


def trivial_two_cocycles_as_one_cochains(h: LieAlgebra) -> Subspace:
    """Z^2(h) embedded in C^1(h, h*) as alternating bilinear forms."""
    from .liealg import trivial_rep

    dmat = coboundary_matrix(trivial_rep(h), 2)
    z2 = Subspace.span(dmat.cols, dmat.kernel_basis())
    n = h.dim
    idx = combo_index(n, 2)
    vecs = []
    for row in z2.rows:
        v = [Q(0)] * (n * n)
        for (i, j), pos in idx.items():
            v[i * n + j] = row[pos]
            v[j * n + i] = -row[pos]
        vecs.append(tuple(v))
    return Subspace.span(n * n, vecs)


def cyclic_condition_subspace(h: LieAlgebra) -> Subspace:
    """Two-cochains satisfying the cyclic symplectic extension condition."""
    n = h.dim
    pair_idx = combo_index(n, 2)
    size = len(pair_idx) * n
    rows = []
    for i, j, k in combos(n, 3):
        row = [Q(0)] * size
        row[pair_idx[(i, j)] * n + k] += Q(1)
        row[pair_idx[(j, k)] * n + i] += Q(1)
        row[pair_idx[(i, k)] * n + j] -= Q(1)
        rows.append(tuple(row))
    if not rows:
        return Subspace.full(size)
    return Subspace.span(size, Matrix(tuple(rows), size).kernel_basis())


def lagrangian_cohomology(flat: FlatLieAlgebra) -> LagCohomology:
    h = flat.algebra
    n = h.dim
    rho = dual_rep(flat)
    d1 = coboundary_matrix(rho, 1)  # C^1(h,h*) -> C^2(h,h*)
    d2 = coboundary_matrix(rho, 2)
    c2_size = d1.nrows
    z2_rho = Subspace.span(d2.cols, d2.kernel_basis())
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
    from .liealg import coboundary_apply, trivial_rep

    image = coboundary_apply(rho, lam)
    lam_form = Cochain.from_values(
        2, n, 1,
        {(i, j): (lam_alt[i * n + j],) for i, j in combos(n, 2)},
    )
    d2_lam = coboundary_apply(trivial_rep(h), lam_form)
    for i, j, k in combos(n, 3):
        cyc = image.value_on_combo((i, j))[k] \
            + image.value_on_combo((j, k))[i] \
            - image.value_on_combo((i, k))[j]
        if cyc != 2 * d2_lam.value_on_combo((i, j, k))[0]:
            return False
    return True


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
    sigma_flat = [Q(0)] * (n * n)
    for c, r in zip(res.particular, sym.rows):
        if c != 0:
            for t, x in enumerate(r):
                sigma_flat[t] += c * x
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
    for i in range(2 * n):
        for j in range(i + 1, 2 * n):
            lhs = iso.matvec(g1.bracket_basis(i, j))
            rhs = g2.bracket(iso.col(i), iso.col(j))
            if lhs != rhs:
                raise ValidationError("isomorphism failed to preserve the bracket")
            if p1.s.pair(_unit(2 * n, i), _unit(2 * n, j)) != \
                    p2.s.pair(iso.col(i), iso.col(j)):
                raise ValidationError("isomorphism failed to preserve the form")
    return True, iso
