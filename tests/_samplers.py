"""Seeded random generators shared by the test modules.

All sampling is deterministic (random.Random with explicit seeds, or
hypothesis strategies) and produces exact rational data.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

from _oracles import kernel_oracle
from sympla.exactla import Matrix, Q, Subspace, vunit
from sympla.liealg import (
    Cochain,
    LieAlgebra,
    Representation,
    adjoint_rep,
    coboundary_matrix,
    combos,
    matrix_as_two_form,
    nilpotency_class,
    trivial_rep,
    two_form_as_matrix,
    two_form_derive,
    validate_jacobi,
)
from sympla.oxidation import OxidationData
from sympla.symplectic import SymplecticLieAlgebra

Q0 = Q(0)

wide_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
sparse_rationals = st.one_of(st.just(Fraction(0)), wide_rationals)


@st.composite
def matrices(draw, nrows=st.integers(0, 6), ncols=st.integers(0, 7)):
    """Rational matrices with zero, duplicate and dependent rows mixed in."""
    n, cols = draw(nrows), draw(ncols)
    rows = [draw(st.lists(sparse_rationals, min_size=cols, max_size=cols)) for _ in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("zero", "duplicate", "dependent")))
        if kind == "zero" or not rows:
            extra = [Fraction(0)] * cols
        elif kind == "duplicate":
            extra = list(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(wide_rationals), draw(wide_rationals)
            extra = [s * x + t * y for x, y in zip(a, b)]
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return Matrix(tuple(tuple(r) for r in rows), cols)


def random_fraction(rng: random.Random, span: int = 3) -> Fraction:
    return Q(rng.randint(-span, span))


def random_matrix(rng: random.Random, n: int, span: int = 3) -> Matrix:
    return Matrix.from_rows(
        [[random_fraction(rng, span) for _ in range(n)] for _ in range(n)], n)


def random_skew(rng: random.Random, n: int, span: int = 3) -> Matrix:
    rows = [[Q0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = random_fraction(rng, span)
            rows[i][j] = v
            rows[j][i] = -v
    return Matrix.from_rows(rows, n)


def random_nondegenerate_skew(rng: random.Random, n: int, span: int = 3) -> Matrix:
    while True:
        m = random_skew(rng, n, span)
        if m.det() != 0:
            return m


def random_invertible(rng: random.Random, n: int, span: int = 2) -> tuple[Matrix, Matrix]:
    """(P, P^-1) for a random invertible P."""
    while True:
        p = random_matrix(rng, n, span)
        if p.det() != 0:
            return p, _inverse(p)


def random_unimodular(rng: random.Random, n: int) -> tuple[Matrix, Matrix]:
    """(P, P^-1) for P = Pi L U: unit triangular L and U with off-diagonal
    entries in {-1, 0, 1}, then a row permutation Pi, so det P = +-1."""
    low = [[Q(1) if i == j else Q(rng.choice((-1, 0, 1)) if j < i else 0) for j in range(n)]
           for i in range(n)]
    up = [[Q(1) if i == j else Q(rng.choice((-1, 0, 1)) if j > i else 0) for j in range(n)]
          for i in range(n)]
    lu = Matrix.from_rows(low, n).mul(Matrix.from_rows(up, n))
    perm = list(range(n))
    rng.shuffle(perm)
    p = Matrix(tuple(lu.rows[perm[i]] for i in range(n)), n)
    return p, _inverse(p)


def _inverse(p: Matrix) -> Matrix:
    """P^-1 read off rref [P | I]."""
    n = p.cols
    red, _ = Matrix(tuple(r + vunit(n, i) for i, r in enumerate(p.rows)), 2 * n).rref()
    return Matrix(tuple(r[n:] for r in red.rows), n)


def change_of_basis(g: LieAlgebra, p: Matrix, p_inv: Matrix) -> LieAlgebra:
    """g in the basis f_a = sum_i p[i][a] e_i (the columns of P); dense constants."""
    n = g.dim
    cols = [p.col(a) for a in range(n)]
    brackets = {}
    for a, b in combos(n, 2):
        coords = p_inv.matvec(g.bracket(cols[a], cols[b]))
        entry = {k: c for k, c in enumerate(coords) if c != 0}
        if entry:
            brackets[(a, b)] = entry
    return LieAlgebra.from_brackets(g.labels, brackets)


def unimodular_copy(s: SymplecticLieAlgebra, seed: int) -> tuple[SymplecticLieAlgebra, Matrix]:
    """(copy, P): s in the basis of the columns of ``random_unimodular`` of the
    seed, so that the vector r of the copy is P r in the basis of s."""
    p, p_inv = random_unimodular(random.Random(seed), s.dim)
    return SymplecticLieAlgebra(change_of_basis(s.algebra, p, p_inv),
                                p.transpose().mul(s.omega).mul(p)), p


def random_nilpotent_symplectic(rng: random.Random, n: int) -> SymplecticLieAlgebra | None:
    """A draw of a nilpotent symplectic algebra of dimension n, or None.

    Each pair i < j brackets, with probability 1/3, to ±1 or ±2 times one e_k
    with k > j, so every draw is nilpotent.  The draw is kept only if it
    satisfies Jacobi and has class 2 or 3; the form is a random integer
    combination of a basis of the closed two-forms Z², kept if non-degenerate.
    """
    brackets = {}
    for i, j in combos(n, 2):
        if j < n - 1 and rng.random() < 1 / 3:
            brackets[(i, j)] = {rng.randint(j + 1, n - 1): rng.choice((-2, -1, 1, 2))}
    g = LieAlgebra.from_brackets(n, brackets)
    if nilpotency_class(g) not in (2, 3) or not validate_jacobi(g).ok:
        return None
    z2 = kernel_oracle(coboundary_matrix(trivial_rep(g), 2))
    for _ in range(4):
        coords = [Q0] * len(z2[0])
        for z in z2:
            c = random_fraction(rng, 2)
            coords = [x + c * y for x, y in zip(coords, z)]
        omega = two_form_as_matrix(Cochain(2, n, 1, tuple(coords)))
        if omega.det() != 0:
            return SymplecticLieAlgebra(g, omega)
    return None


def random_representation(rng: random.Random, g: LieAlgebra) -> Representation:
    """A trivial, adjoint or coadjoint module of g, or for abelian g the
    multiples c_i A of one random matrix, conjugated by a random invertible P."""
    kinds = ["trivial", "adjoint", "coadjoint"]
    if all(v == 0 for row in g.table for w in row for v in w):
        kinds.append("commuting")
    kind = rng.choice(kinds)
    if kind == "trivial":
        rep = trivial_rep(g, rng.randint(1, 2))
    elif kind == "adjoint":
        rep = adjoint_rep(g)
    elif kind == "coadjoint":
        rep = Representation(g, tuple(m.transpose().neg() for m in adjoint_rep(g).mats))
    else:
        a = random_matrix(rng, rng.randint(1, 3))
        rep = Representation(g, tuple(a.scale(random_fraction(rng)) for _ in range(g.dim)))
    if rep.module_dim == 0:
        return rep
    p, p_inv = random_invertible(rng, rep.module_dim)
    return Representation(g, tuple(p.mul(m).mul(p_inv) for m in rep.mats))


def standard_symplectic(m: int) -> Matrix:
    """omega = sum e_i ^ e_{m+i} on dimension 2m."""
    n = 2 * m
    rows = [[Q0] * n for _ in range(n)]
    for i in range(m):
        rows[i][m + i] = Q(1)
        rows[m + i][i] = Q(-1)
    return Matrix.from_rows(rows, n)


def quadratic_nilpotent_pair(rng: random.Random, m: int) -> tuple[Matrix, Matrix]:
    """(omega, phi) on dimension 2m with phi^2 = 0 and the quadratic condition.

    phi maps the first m basis vectors into the isotropic span of the last m
    and kills it, so the images stay isotropic for the standard form.
    """
    n = 2 * m
    omega = standard_symplectic(m)
    rows = [[Q0] * n for _ in range(n)]
    for j in range(m):
        for i in range(m):
            rows[m + i][j] = random_fraction(rng, 2)
    phi = Matrix.from_rows(rows, n)
    return omega, phi


def abelian_oxidation_data(rng: random.Random, m: int) -> OxidationData:
    """Admissible oxidation data over an abelian base of dimension 2m."""
    base = LieAlgebra.abelian(2 * m)
    omega, phi = quadratic_nilpotent_pair(rng, m)
    alpha = two_form_derive(base, matrix_as_two_form(omega), phi)
    lam = Cochain.from_values(
        1, 2 * m, 1,
        {(i,): (random_fraction(rng, 2),) for i in range(2 * m)})
    return OxidationData(base, phi, alpha, lam, omega)


def heisenberg_pair_base() -> tuple[LieAlgebra, Matrix]:
    g = LieAlgebra.from_brackets(
        ("X", "Y", "Z", "Xp", "Yp", "Zp"), {(0, 1): {2: 1}, (3, 4): {5: 1}})
    rows = [[Q0] * 6 for _ in range(6)]
    for (i, j) in ((0, 2), (3, 5), (1, 4)):
        rows[i][j] = Q(1)
        rows[j][i] = Q(-1)
    return g, Matrix.from_rows(rows, 6)


def heisenberg_oxidation_data(rng: random.Random) -> OxidationData:
    """Scaled square-zero derivations of the doubled Heisenberg algebra."""
    g, omega = heisenberg_pair_base()
    c1, c2 = random_fraction(rng, 3), random_fraction(rng, 3)
    rows = [[Q0] * 6 for _ in range(6)]
    rows[0][1] = c1  # Y -> c1 X
    rows[3][4] = c2  # Y' -> c2 X'
    phi = Matrix.from_rows(rows, 6)
    alpha = two_form_derive(g, matrix_as_two_form(omega), phi)
    # covectors vanishing on the commutator keep the coboundary condition
    lam = Cochain.from_values(
        1, 6, 1,
        {(i,): (random_fraction(rng, 2),) for i in (0, 1, 3, 4)})
    return OxidationData(g, phi, alpha, lam, omega)


def beta_kernel_pair(rng: random.Random, n: int) -> tuple[Matrix, Matrix] | None:
    """Random nilpotent phi with a random (possibly degenerate) compatible form.

    The quadratic condition is linear in omega for fixed phi; a random element
    of its kernel of skew solutions is drawn.
    """
    rows = [[Q0] * n for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.4:
                rows[order[a]][order[b]] = random_fraction(rng, 2)
    phi = Matrix.from_rows(rows, n).transpose()  # strictly triangular in a permuted basis
    phi2 = phi.mul(phi)
    pairs = combos(n, 2)
    idx = {p: t for t, p in enumerate(pairs)}

    def skew_from(coords):
        m = [[Q0] * n for _ in range(n)]
        for (i, j), t in idx.items():
            m[i][j] = coords[t]
            m[j][i] = -coords[t]
        return Matrix.from_rows(m, n)

    conditions = []
    for i, j in pairs:
        row = [Q0] * len(pairs)
        ei, ej = vunit(n, i), vunit(n, j)
        vecs = [(phi2.matvec(ei), ej, Q(1)), (phi.matvec(ei), phi.matvec(ej), Q(2)),
                (ei, phi2.matvec(ej), Q(1))]
        for u, v, c in vecs:  # u^v pairs as u[a] v[b] - u[b] v[a] on (a, b), a < b
            for a, x in enumerate(u):
                for b, y in enumerate(v):
                    if x and y and a != b:
                        row[idx[(min(a, b), max(a, b))]] += c * x * y if a < b else -c * x * y
        conditions.append(tuple(row))
    kernel = kernel_oracle(Matrix(tuple(conditions), len(pairs)))
    if not kernel:
        return None
    coords = [Q0] * len(pairs)
    for k in kernel:
        c = random_fraction(rng, 2)
        coords = [x + c * y for x, y in zip(coords, k)]
    omega = skew_from(coords)
    if omega.is_zero():
        omega = skew_from(kernel[0])
    return omega, phi


SMALL_ALGEBRAS = {
    "abelian3": LieAlgebra.abelian(3),
    "heisenberg": LieAlgebra.from_brackets(("X", "Y", "Z"), {(0, 1): {2: 1}}),
    "filiform4": LieAlgebra.from_brackets(
        ("e1", "e2", "e3", "e4"), {(0, 1): {2: 1}, (0, 2): {3: 1}}),
}
