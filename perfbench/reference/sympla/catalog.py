"""Exact constructors for the built-in example algebras.

Every entry re-validates its structure on construction and ships a frozen
record of expected invariants that the acceptance suite diffs against the
generic library operations.  Names are stable identifiers used by the CLI:
fdim_metab, cs6, irr6, g8, g10, aff, tn_cotangent, gklambda, filiform4,
trivial.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exactla import Matrix, Q, Subspace, q, vunit
from .lagext import ExtensionTriple, FlatLieAlgebra, lagrangian_extension
from .liealg import (
    Cochain,
    Connection,
    LieAlgebra,
    ValidationError,
    combos,
    matrix_as_two_form,
    require_valid,
    trivial_rep,
    coboundary_matrix,
)
from .oxidation import OxidationData, symplectic_oxidation
from .symplectic import SymplecticLieAlgebra, validate_symplectic


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    params: dict
    algebra: LieAlgebra
    symplectic: SymplecticLieAlgebra | None
    flat: FlatLieAlgebra | None
    marked: dict[str, Subspace]
    expected: dict


def names() -> tuple[str, ...]:
    return ("fdim_metab", "cs6", "irr6", "g8", "g10", "aff", "tn_cotangent",
            "gklambda", "filiform4", "trivial")


def build(name: str, **params) -> CatalogEntry:
    builders = {
        "fdim_metab": _build_fdim_metab,
        "cs6": _build_cs6,
        "irr6": _build_irr6,
        "g8": _build_g8,
        "g10": _build_g10,
        "aff": _build_aff,
        "tn_cotangent": _build_tn,
        "gklambda": _build_gklambda,
        "filiform4": _build_filiform4,
        "trivial": _build_trivial,
    }
    if name not in builders:
        raise KeyError(f"unknown catalog name {name!r}")
    return builders[name](**params)


def expected_invariants(name: str, **params) -> dict:
    return build(name, **params).expected


def _build_trivial() -> CatalogEntry:
    g = LieAlgebra.abelian(0)
    s = validate_symplectic(g, Matrix((), 0))
    return CatalogEntry("trivial", {}, g, s, None, {}, {
        "dim": 0, "class": 0, "rank": 0, "z2_dim": 0, "b2_dim": 0,
        "c_series": [0], "lagrangian_ideal": "found",
    })


def _build_fdim_metab() -> CatalogEntry:
    g = require_valid(LieAlgebra.from_brackets(
        ("X", "Y", "Z", "H"),
        {
            (0, 3): {1: 1},   # [X, H] = Y
            (1, 3): {0: -1},  # [Y, H] = -X
            (2, 3): {2: 1},   # [Z, H] = Z
        },
    ))
    omega = _two_form(4, {(0, 1): 1, (3, 2): 1})
    s = validate_symplectic(g, omega)
    marked = {
        "Zline": Subspace.span(4, [vunit(4, 2)]),
        "XY": Subspace.span(4, [vunit(4, 0), vunit(4, 1)]),
    }
    return CatalogEntry("fdim_metab", {}, g, s, None, marked, {
        "dim": 4, "rank": 1, "solvability_degree": 2, "nilpotent": False,
        "reduction_by_Z": {"dim": 2, "abelian": True},
        "lagrangian_ideal": "certified_none",
    })


def _build_cs6(mu1=1, mu2=1) -> CatalogEntry:
    mu1, mu2 = q(mu1), q(mu2)
    if mu1 * mu2 == 0:
        raise ValidationError("parameters must satisfy mu1 mu2 != 0")
    g = require_valid(LieAlgebra.from_brackets(
        ("d1", "d2", "e1", "e2", "e3", "e4"),
        {
            (0, 2): {2: mu1},
            (0, 3): {3: -mu1},
            (1, 4): {4: mu2},
            (1, 5): {5: -mu2},
        },
    ))
    omega = _two_form(6, {(2, 3): 1, (4, 5): 1, (0, 1): 1})
    s = validate_symplectic(g, omega)
    marked = {
        "V4": Subspace.span(6, [vunit(6, i) for i in (2, 3, 4, 5)]),
        "e13": Subspace.span(6, [vunit(6, 2), vunit(6, 4)]),
    }
    return CatalogEntry("cs6", {"mu1": mu1, "mu2": mu2}, g, s, None, marked, {
        "dim": 6, "rank": 2, "solvability_degree": 2, "nilpotent": False,
        "completely_solvable": True, "lagrangian_ideal": "certified_none",
    })


def _build_irr6(w12=1, w34=1, w56=1, w15=0, w25=0, w36=0, w46=0) -> CatalogEntry:
    entry = _build_gklambda(k=1, characters=((1, 0), (0, 1)),
                            omega_entries={(0, 1): q(w12), (2, 3): q(w34),
                                           (4, 5): q(w56), (0, 4): q(w15),
                                           (1, 4): q(w25), (2, 5): q(w36),
                                           (3, 5): q(w46)})
    g = entry.algebra.relabel(("e1", "e2", "e3", "e4", "e5", "e6"))
    s = validate_symplectic(g, entry.symplectic.omega)
    marked = {
        "a1": Subspace.span(6, [vunit(6, 0), vunit(6, 1)]),
        "a2": Subspace.span(6, [vunit(6, 2), vunit(6, 3)]),
    }
    return CatalogEntry(
        "irr6",
        {"w12": q(w12), "w34": q(w34), "w56": q(w56), "w15": q(w15),
         "w25": q(w25), "w36": q(w36), "w46": q(w46)},
        g, s, None, marked, {
            "dim": 6, "rank": 0, "b2_dim": 4, "z2_dim": 7,
            "solvability_degree": 2, "lagrangian_subalgebra": "found",
        })


def g8_oxidation_data() -> OxidationData:
    """Direct sum of two Heisenberg algebras with the square-zero derivation."""
    base = require_valid(LieAlgebra.from_brackets(
        ("X", "Y", "Z", "Xp", "Yp", "Zp"),
        {(0, 1): {2: 1}, (3, 4): {5: 1}},
    ))
    omega_bar = _two_form(6, {(0, 2): 1, (3, 5): 1, (1, 4): 1})
    phi_rows = [[Q(0)] * 6 for _ in range(6)]
    phi_rows[0][1] = Q(1)  # Y -> X
    phi_rows[3][4] = Q(1)  # Y' -> X'
    phi = Matrix.from_rows(phi_rows, 6)
    from .liealg import two_form_derive

    alpha = two_form_derive(base, matrix_as_two_form(omega_bar), phi)
    lam = Cochain.zero(1, 6, 1)
    return OxidationData(base, phi, alpha, lam, omega_bar)


def _build_g8() -> CatalogEntry:
    s = symplectic_oxidation(g8_oxidation_data())
    g = s.algebra.relabel(("xi", "X", "Y", "Z", "Xp", "Yp", "Zp", "H"))
    s = SymplecticLieAlgebra(g, s.omega)
    marked = {
        "Hline": Subspace.span(8, [vunit(8, 7)]),
        "j3": Subspace.span(8, [vunit(8, 7), vunit(8, 3), vunit(8, 6)]),
        "W6": Subspace.span(8, [vunit(8, i) for i in (0, 1, 3, 4, 6, 7)]),
        "lag_subalg": Subspace.span(8, [vunit(8, 7), vunit(8, 3), vunit(8, 6), vunit(8, 2)]),
    }
    return CatalogEntry("g8", {}, g, s, None, marked, {
        "dim": 8, "class": 4, "rank": 3, "z2_dim": 11, "d_lambda2_dim": 17,
        "lambda2_dim": 28, "c_series": [8, 5, 3, 1, 0],
        "lagrangian_ideal": "certified_none",
    })


def _build_g10() -> CatalogEntry:
    g = require_valid(LieAlgebra.from_brackets(
        ("x", "y", "u1", "u2", "v1", "v2", "w1", "w2", "z1", "z2"),
        {
            (0, 2): {4: 1}, (0, 3): {5: 1},   # [x, u_i] = v_i
            (1, 2): {6: 1}, (1, 3): {7: 1},   # [y, u_i] = w_i
            (2, 4): {9: -1}, (3, 5): {9: -1},  # [u_i, v_i] = -z2
            (2, 6): {8: 1}, (3, 7): {8: 1},    # [u_i, w_i] = z1
        },
    ))
    omega = _two_form(10, {(0, 8): 1, (1, 9): 1, (2, 3): 1, (4, 6): 1, (5, 7): 1})
    s = validate_symplectic(g, omega)
    marked = {
        "j4": Subspace.span(10, [vunit(10, 1), vunit(10, 6), vunit(10, 7), vunit(10, 8)]),
        "am": Subspace.span(10, [vunit(10, i) for i in (0, 1, 4, 5, 6, 7, 8, 9)]),
        "C2": Subspace.span(10, [vunit(10, 8), vunit(10, 9)]),
    }
    return CatalogEntry("g10", {}, g, s, None, marked, {
        "dim": 10, "class": 3, "rank": 4, "c_series": [10, 6, 2, 0],
        "max_abelian_ideal_dim": 8, "lagrangian_ideal": "certified_none",
    })


def _killing_gl(n: int, x: Matrix, y: Matrix) -> Fraction:
    xy = x.mul(y)
    tr_xy = sum((xy.rows[i][i] for i in range(n)), Q(0))
    tr_x = sum((x.rows[i][i] for i in range(n)), Q(0))
    tr_y = sum((y.rows[i][i] for i in range(n)), Q(0))
    return 2 * n * tr_xy - 2 * tr_x * tr_y


def _build_aff(n=2) -> CatalogEntry:
    n = int(n)
    if n < 1:
        raise ValidationError("aff(n) needs n >= 1")
    # basis: E_11, E_12, ..., E_nn (row-major), then t_1..t_n
    dim = n * n + n

    def eidx(i, j):
        return i * n + j

    def unit_mat(i, j):
        rows = [[Q(0)] * n for _ in range(n)]
        rows[i][j] = Q(1)
        return Matrix.from_rows(rows, n)

    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    mats = {(i, j): unit_mat(i, j) for i in range(n) for j in range(n)}
    for (i, j), (k, l) in itertools.combinations(
            itertools.product(range(n), range(n)), 2):
        a, b = mats[(i, j)], mats[(k, l)]
        comm = a.mul(b).sub(b.mul(a))
        entry = {}
        for r in range(n):
            for c in range(n):
                if comm.rows[r][c] != 0:
                    entry[eidx(r, c)] = comm.rows[r][c]
        if entry:
            brackets[(eidx(i, j), eidx(k, l))] = entry
    for (i, j) in itertools.product(range(n), range(n)):
        for t in range(n):
            # [E_ij, t_t] = E_ij e_t = delta_jt e_i
            if j == t:
                brackets[(eidx(i, j), n * n + t)] = {n * n + i: Q(1)}
    labels = tuple(f"E{i+1}{j+1}" for i in range(n) for j in range(n)) \
        + tuple(f"t{t+1}" for t in range(n))
    g = require_valid(LieAlgebra.from_brackets(labels, brackets))
    # omega((A,u),(B,v)) = lam(Av - Bu) + killing(M, AB - BA)
    m_mat = Matrix.from_rows(
        [[Q(i + 1) if i == j else Q(0) for j in range(n)] for i in range(n)], n)
    lam = [Q(1)] * n
    rows = [[Q(0)] * dim for _ in range(dim)]
    basis_gl = [(i, j) for i in range(n) for j in range(n)]
    for a_i, (i, j) in enumerate(basis_gl):
        for b_i, (k, l) in enumerate(basis_gl):
            comm = mats[(i, j)].mul(mats[(k, l)]).sub(mats[(k, l)].mul(mats[(i, j)]))
            rows[a_i][b_i] = _killing_gl(n, m_mat, comm)
    for a_i, (i, j) in enumerate(basis_gl):
        for t in range(n):
            val = lam[i] if j == t else Q(0)  # lam(E_ij e_t)
            rows[a_i][n * n + t] = val
            rows[n * n + t][a_i] = -val
    omega = Matrix.from_rows(rows, dim)
    s = validate_symplectic(g, omega)
    marked = {
        "translations": Subspace.span(dim, [vunit(dim, n * n + t) for t in range(n)]),
    }
    return CatalogEntry("aff", {"n": n}, g, s, None, marked, {
        "dim": dim, "base_steps": n, "nilpotent": False,
    })


def upper_triangular_flat(n: int) -> FlatLieAlgebra:
    """Strictly upper triangular matrices with the matrix-product connection."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    idx = {p: t for t, p in enumerate(pairs)}
    dim = len(pairs)
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            (i, j), (k, l) = pairs[a], pairs[b]
            entry: dict[int, Fraction] = {}
            if j == k:
                entry[idx[(i, l)]] = entry.get(idx[(i, l)], Q(0)) + 1
            if l == i:
                entry[idx[(k, j)]] = entry.get(idx[(k, j)], Q(0)) - 1
            entry = {k2: v for k2, v in entry.items() if v != 0}
            if entry:
                brackets[(a, b)] = entry
    labels = tuple(f"E{i+1}{j+1}" for (i, j) in pairs)
    g = require_valid(LieAlgebra.from_brackets(labels, brackets))
    mats = []
    for a in range(dim):
        rows = [[Q(0)] * dim for _ in range(dim)]
        (i, j) = pairs[a]
        for b in range(dim):
            (k, l) = pairs[b]
            if j == k:  # E_ij E_kl = delta_jk E_il
                rows[idx[(i, l)]][b] = Q(1)
        mats.append(Matrix.from_rows(rows, dim))
    return FlatLieAlgebra(g, Connection(g, tuple(mats)))


def _build_tn(n=3) -> CatalogEntry:
    n = int(n)
    if n < 2:
        raise ValidationError("tn_cotangent needs n >= 2")
    flat = upper_triangular_flat(n)
    m = flat.dim
    polarized = lagrangian_extension(
        ExtensionTriple(flat, Cochain.zero(2, m, m)))
    return CatalogEntry("tn_cotangent", {"n": n}, polarized.s.algebra,
                        polarized.s, flat,
                        {"dual_ideal": polarized.ideal, "base_subalg": polarized.complement},
                        {
                            "dim": 2 * m, "class": n - 1, "nilpotent": True,
                            "rank": m, "lagrangian_ideal": "found",
                        })


def _build_gklambda(k=1, characters=((1, 0), (0, 1)), omega_entries=None) -> CatalogEntry:
    """Abelian h of dimension 2k acting on two-dimensional rotation blocks.

    Basis: the blocks a_1, ..., a_m (pairs), then the h basis.  Characters are
    rational tuples of length 2k, required distinct, nonzero, non-opposite and
    spanning.
    """
    k = int(k)
    chars = [tuple(q(c) for c in lam) for lam in characters]
    m = len(chars)
    if any(len(lam) != 2 * k for lam in chars):
        raise ValidationError("characters must have length 2k")
    if any(all(c == 0 for c in lam) for lam in chars):
        raise ValidationError("characters must be nonzero")
    for i in range(m):
        for j in range(i + 1, m):
            if chars[i] == chars[j] or tuple(-c for c in chars[i]) == chars[j]:
                raise ValidationError("characters must be distinct up to sign")
    if Matrix.from_rows([list(c) for c in chars], 2 * k).rank() != 2 * k:
        raise ValidationError("characters must span the dual of h")
    dim = 2 * m + 2 * k
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for r in range(2 * k):
        h_index = 2 * m + r
        for i, lam in enumerate(chars):
            c = lam[r]
            if c == 0:
                continue
            # J(e1) = -e2, J(e2) = e1 on the block (matches the rotation action)
            brackets[(2 * i, h_index)] = {2 * i + 1: c}
            brackets[(2 * i + 1, h_index)] = {2 * i: -c}
    labels = tuple(f"a{i+1}{t+1}" for i in range(m) for t in range(2)) \
        + tuple(f"h{r+1}" for r in range(2 * k))
    g = require_valid(LieAlgebra.from_brackets(labels, brackets))
    if omega_entries is None:
        omega_entries = {}
        for i in range(m):
            omega_entries[(2 * i, 2 * i + 1)] = Q(1)
        for r in range(k):
            omega_entries[(2 * m + 2 * r, 2 * m + 2 * r + 1)] = Q(1)
    omega = _two_form(dim, omega_entries)
    s = validate_symplectic(g, omega)
    marked = {f"a{i+1}": Subspace.span(dim, [vunit(dim, 2 * i), vunit(dim, 2 * i + 1)])
              for i in range(m)}
    marked["h"] = Subspace.span(dim, [vunit(dim, 2 * m + r) for r in range(2 * k)])
    return CatalogEntry("gklambda", {"k": k, "characters": tuple(chars)},
                        g, s, None, marked, {
                            "dim": dim, "rank": 0, "solvability_degree": 2,
                        })


def _build_filiform4() -> CatalogEntry:
    g = require_valid(LieAlgebra.from_brackets(
        ("e1", "e2", "e3", "e4"),
        {(0, 1): {2: 1}, (0, 2): {3: 1}},
    ))
    omega = find_symplectic_form(g)
    s = validate_symplectic(g, omega)
    marked = {"C1": Subspace.span(4, [vunit(4, 2), vunit(4, 3)])}
    return CatalogEntry("filiform4", {}, g, s, None, marked, {
        "dim": 4, "class": 3, "rank": 2, "nilpotent": True,
        "lagrangian_ideal": "found", "lagrangian_unique": True,
    })


def find_symplectic_form(g: LieAlgebra) -> Matrix:
    """A non-degenerate closed two-form, found deterministically.

    Small signed subsets of the closed-form basis are scanned first; seeded
    random rational combinations cover the higher-dimensional cases.
    """
    dmat = coboundary_matrix(trivial_rep(g), 2)
    z2 = Subspace.span(dmat.cols, dmat.kernel_basis())
    n = g.dim
    pair_idx = {c: t for t, c in enumerate(combos(n, 2))}

    def as_matrix(coordv) -> Matrix:
        rows = [[Q(0)] * n for _ in range(n)]
        for (i, j), t in pair_idx.items():
            rows[i][j] = coordv[t]
            rows[j][i] = -coordv[t]
        return Matrix.from_rows(rows, n)

    for rsize in range(1, min(z2.dim, 4) + 1):
        for subset in itertools.combinations(range(z2.dim), rsize):
            for signs in itertools.product((1, -1), repeat=rsize):
                v = [Q(0)] * len(pair_idx)
                for s_i, b_i in zip(signs, subset):
                    for t, x in enumerate(z2.rows[b_i]):
                        v[t] += s_i * x
                cand = as_matrix(v)
                if cand.det() != 0:
                    return cand
    import random as _random

    rng = _random.Random(0)
    for _ in range(500):
        v = [Q(0)] * len(pair_idx)
        for row in z2.rows:
            c = Q(rng.randint(-3, 3))
            if c:
                for t, x in enumerate(row):
                    v[t] += c * x
        cand = as_matrix(v)
        if cand.det() != 0:
            return cand
    raise ValidationError("no symplectic form found on this algebra")


def _two_form(n: int, entries: dict[tuple[int, int], object]) -> Matrix:
    rows = [[Q(0)] * n for _ in range(n)]
    for (i, j), v in entries.items():
        rows[i][j] = q(v)
        rows[j][i] = -q(v)
    return Matrix.from_rows(rows, n)


def g10_automorphism(a: Matrix) -> tuple[Matrix, bool, bool]:
    """The GL(2) action on the ten-dimensional example.

    Returns (matrix, is_automorphism, is_symplectic_for_omega_o); the map is
    verified directly against the bracket table and the form.
    """
    if a.nrows != 2 or a.cols != 2:
        raise ValidationError("expected a 2x2 matrix")
    if a.det() == 0:
        raise ValidationError("matrix must be invertible")
    a11, a12 = a.rows[0]
    a21, a22 = a.rows[1]
    entry = build("g10")
    g, s = entry.algebra, entry.symplectic
    rows = [[Q(0)] * 10 for _ in range(10)]
    # x, y mix; u fixed; v, w mix like x, y; z transforms by the inverse transpose scaled
    rows[0][0], rows[1][0] = a11, a21
    rows[0][1], rows[1][1] = a12, a22
    rows[2][2] = rows[3][3] = Q(1)
    for i in range(2):
        rows[4 + i][4 + i], rows[6 + i][4 + i] = a11, a21
        rows[4 + i][6 + i], rows[6 + i][6 + i] = a12, a22
    rows[8][8], rows[9][8] = a22, -a12
    rows[8][9], rows[9][9] = -a21, a11
    mat = Matrix.from_rows(rows, 10)
    is_auto = all(
        mat.matvec(g.bracket_basis(i, j)) == g.bracket(mat.col(i), mat.col(j))
        for i in range(10) for j in range(i + 1, 10)
    )
    is_symp = all(
        s.pair(mat.col(i), mat.col(j)) == s.pair(g.basis_vector(i), g.basis_vector(j))
        for i in range(10) for j in range(i + 1, 10)
    )
    return mat, is_auto, is_symp
