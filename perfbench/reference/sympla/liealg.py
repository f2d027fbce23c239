"""Lie algebras over the rationals given by structure constants.

Covers bracket arithmetic, the central and derived series, low-degree
Chevalley-Eilenberg cohomology, derivations, connections and semidirect sums.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .exactla import (
    DimensionMismatch,
    Matrix,
    Q,
    Subspace,
    Vec,
    is_zero_vec,
    q,
    solve_linear,
    vadd,
    vec,
    vscale,
    vsub,
    vunit,
    vzero,
)


class ValidationError(ValueError):
    """Raised when a structural invariant fails; carries a witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class LieAlgebra:
    """Structure constants c[i][j] = [e_i, e_j] as coordinate vectors.

    Antisymmetry is enforced by the constructors; the Jacobi identity is
    checked separately by :func:`validate_jacobi` so that defective tables can
    still be built and diagnosed.
    """

    labels: tuple[str, ...]
    table: tuple[tuple[Vec, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.labels)

    @staticmethod
    def from_brackets(
        labels: Sequence[str] | int,
        brackets: Mapping[tuple[int, int], Mapping[int, object]] | None = None,
    ) -> "LieAlgebra":
        """Build from sparse brackets {(i, j): {k: coeff}} with i < j, 0-based."""
        if isinstance(labels, int):
            labels = tuple(f"e{i+1}" for i in range(labels))
        else:
            labels = tuple(labels)
        n = len(labels)
        table = [[list(vzero(n)) for _ in range(n)] for _ in range(n)]
        for (i, j), entry in (brackets or {}).items():
            if not (0 <= i < j < n):
                raise ValidationError(f"bracket key ({i}, {j}) must satisfy 0 <= i < j < dim")
            for k, coeff in entry.items():
                table[i][j][k] = q(coeff)
                table[j][i][k] = -q(coeff)
        return LieAlgebra(labels, tuple(tuple(tuple(r) for r in row) for row in table))

    @staticmethod
    def abelian(n: int, labels: Sequence[str] | None = None) -> "LieAlgebra":
        return LieAlgebra.from_brackets(labels if labels is not None else n, {})

    def basis_vector(self, i: int) -> Vec:
        return vunit(self.dim, i)

    def bracket_basis(self, i: int, j: int) -> Vec:
        return self.table[i][j]

    def bracket(self, u: Iterable, v: Iterable) -> Vec:
        u, v = vec(u), vec(v)
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatch("bracket argument dimension mismatch")
        out = list(vzero(self.dim))
        for i, a in enumerate(u):
            if a == 0:
                continue
            for j, b in enumerate(v):
                if b == 0:
                    continue
                c = a * b
                for k, t in enumerate(self.table[i][j]):
                    if t != 0:
                        out[k] += c * t
        return tuple(out)

    def ad(self, v: Iterable) -> Matrix:
        """Matrix of ad(v): x -> [v, x]."""
        v = vec(v)
        cols = [self.bracket(v, self.basis_vector(j)) for j in range(self.dim)]
        return Matrix(tuple(cols), self.dim).transpose()

    def relabel(self, labels: Sequence[str]) -> "LieAlgebra":
        if len(labels) != self.dim:
            raise DimensionMismatch("label count mismatch")
        return LieAlgebra(tuple(labels), self.table)

    def label_index(self, name: str) -> int:
        try:
            return self.labels.index(name)
        except ValueError:
            raise KeyError(f"unknown basis label {name!r}") from None


@dataclass(frozen=True)
class JacobiReport:
    violations: tuple[tuple[int, int, int, Vec], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def jacobi_defect(g: LieAlgebra, i: int, j: int, k: int) -> Vec:
    a = g.bracket(g.bracket_basis(i, j), g.basis_vector(k))
    b = g.bracket(g.bracket_basis(j, k), g.basis_vector(i))
    c = g.bracket(g.bracket_basis(k, i), g.basis_vector(j))
    return vadd(vadd(a, b), c)


def validate_jacobi(g: LieAlgebra) -> JacobiReport:
    bad = []
    for i, j, k in itertools.combinations(range(g.dim), 3):
        d = jacobi_defect(g, i, j, k)
        if not is_zero_vec(d):
            bad.append((i, j, k, d))
    return JacobiReport(tuple(bad))


def require_valid(g: LieAlgebra) -> LieAlgebra:
    report = validate_jacobi(g)
    if not report.ok:
        i, j, k, d = report.violations[0]
        raise ValidationError(
            f"Jacobi identity fails on basis triple ({i}, {j}, {k})", (i, j, k, d)
        )
    return g


def bracket_span(g: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    if a.ambient != g.dim or b.ambient != g.dim:
        raise DimensionMismatch("subspace ambient dimension mismatch")
    vecs = [g.bracket(x, y) for x in a.rows for y in b.rows]
    return Subspace.span(g.dim, vecs)


@dataclass(frozen=True)
class SeriesChain:
    kind: str  # "descending-central" | "ascending-central" | "derived"
    terms: tuple[Subspace, ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(t.dim for t in self.terms)


def descending_central_series(g: LieAlgebra) -> SeriesChain:
    full = Subspace.full(g.dim)
    terms = [full]
    while True:
        nxt = bracket_span(g, full, terms[-1])
        if nxt == terms[-1]:
            break
        terms.append(nxt)
        if nxt.is_zero():
            break
    return SeriesChain("descending-central", tuple(terms))


def derived_series(g: LieAlgebra) -> SeriesChain:
    terms = [Subspace.full(g.dim)]
    while True:
        nxt = bracket_span(g, terms[-1], terms[-1])
        if nxt == terms[-1]:
            break
        terms.append(nxt)
        if nxt.is_zero():
            break
    return SeriesChain("derived", tuple(terms))


def ascending_central_series(g: LieAlgebra) -> SeriesChain:
    terms = [Subspace.zero(g.dim)]
    while True:
        cur = terms[-1]
        # v belongs to the next term iff f([e_i, v]) = 0 for every functional f
        # vanishing on cur; rows of the condition system are f^T ad(e_i).
        functionals = _quotient_functionals(g.dim, cur)
        rows = []
        for i in range(g.dim):
            adi = g.ad(g.basis_vector(i))
            for f in functionals:
                rows.append(adi.transpose().matvec(f))
        if not rows:
            nxt = Subspace.full(g.dim)
        else:
            nxt = Subspace.span(g.dim, Matrix(tuple(rows), g.dim).kernel_basis())
        if nxt == cur:
            break
        terms.append(nxt)
        if nxt.dim == g.dim:
            break
    return SeriesChain("ascending-central", tuple(terms))


def _quotient_functionals(n: int, sub: Subspace) -> list[Vec]:
    """Functionals whose joint kernel is exactly sub."""
    if sub.dim == n:
        return []
    if not sub.rows:
        return [vunit(n, i) for i in range(n)]
    return list(Matrix(sub.rows, n).kernel_basis())


def series(g: LieAlgebra, kind: str) -> SeriesChain:
    if kind in ("descending", "descending-central"):
        return descending_central_series(g)
    if kind in ("ascending", "ascending-central"):
        return ascending_central_series(g)
    if kind == "derived":
        return derived_series(g)
    raise ValueError(f"unknown series kind {kind!r}")


def nilpotency_class(g: LieAlgebra) -> int | None:
    chain = descending_central_series(g)
    if not chain.terms[-1].is_zero():
        return None
    return len(chain.terms) - 1


def solvability_degree(g: LieAlgebra) -> int | None:
    chain = derived_series(g)
    if not chain.terms[-1].is_zero():
        return None
    return len(chain.terms) - 1


def center(g: LieAlgebra) -> Subspace:
    """v is central iff ad(e_i) v = 0 for all i."""
    if g.dim == 0:
        return Subspace.zero(0)
    stacked = None
    for i in range(g.dim):
        m = g.ad(g.basis_vector(i))
        stacked = m if stacked is None else stacked.stack(m)
    return Subspace.span(g.dim, stacked.kernel_basis())


def killing_radical(g: LieAlgebra) -> Subspace:
    """Radical of the trace form tr(ad x ad y); always an ideal."""
    if g.dim == 0:
        return Subspace.zero(0)
    ads = [g.ad(g.basis_vector(i)) for i in range(g.dim)]
    n = g.dim

    def trace_product(a: Matrix, b: Matrix) -> Fraction:
        acc = Q(0)
        for s in range(n):
            arow = a.rows[s]
            for t in range(n):
                x = arow[t]
                if x:
                    y = b.rows[t][s]
                    if y:
                        acc += x * y
        return acc

    rows = [tuple(trace_product(ads[i], ads[j]) for j in range(n)) for i in range(n)]
    return Subspace.span(g.dim, Matrix(tuple(rows), g.dim).kernel_basis())


def centralizer(g: LieAlgebra, s: Subspace) -> Subspace:
    """All v with [v, x] = 0 for every x in s."""
    if s.dim == 0:
        return Subspace.full(g.dim)
    stacked = None
    for x in s.rows:
        m = g.ad(x).neg()  # [v, x] = -ad(x) v
        stacked = m if stacked is None else stacked.stack(m)
    return Subspace.span(g.dim, stacked.kernel_basis())


@dataclass(frozen=True)
class AlgebraFlags:
    is_subalgebra: bool
    is_ideal: bool
    is_abelian: bool


def subspace_algebra_flags(g: LieAlgebra, s: Subspace) -> AlgebraFlags:
    if s.ambient != g.dim:
        raise DimensionMismatch("subspace ambient dimension mismatch")
    ss = bracket_span(g, s, s)
    gs = bracket_span(g, Subspace.full(g.dim), s)
    return AlgebraFlags(s.contains(ss), s.contains(gs), ss.is_zero())


# ---------------------------------------------------------------------------
# representations and cochains


@dataclass(frozen=True)
class Representation:
    """rho(e_i) matrices acting on a module; validated at construction."""

    algebra: LieAlgebra
    mats: tuple[Matrix, ...]

    def __post_init__(self):
        g = self.algebra
        if len(self.mats) != g.dim:
            raise DimensionMismatch("one matrix per basis vector required")
        m = self.module_dim
        for mat in self.mats:
            if mat.nrows != m or mat.cols != m:
                raise DimensionMismatch("module matrices must be square of equal size")
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                lhs = self.act_vector(g.bracket_basis(i, j))
                rhs = self.mats[i].mul(self.mats[j]).sub(self.mats[j].mul(self.mats[i]))
                if lhs.rows != rhs.rows:
                    raise ValidationError(
                        f"not a representation on basis pair ({i}, {j})", (i, j)
                    )

    @property
    def module_dim(self) -> int:
        return self.mats[0].nrows if self.mats else 0

    def act_vector(self, v: Iterable) -> Matrix:
        v = vec(v)
        m = self.module_dim
        out = Matrix.zeros(m, m)
        for i, a in enumerate(v):
            if a != 0:
                out = out.add(self.mats[i].scale(a))
        return out

    def act(self, v: Iterable, w: Iterable) -> Vec:
        return self.act_vector(v).matvec(vec(w))


def trivial_rep(g: LieAlgebra, module_dim: int = 1) -> Representation:
    return Representation(g, tuple(Matrix.zeros(module_dim, module_dim) for _ in range(g.dim)))


def adjoint_rep(g: LieAlgebra) -> Representation:
    return Representation(g, tuple(g.ad(g.basis_vector(i)) for i in range(g.dim)))


def combos(n: int, k: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(n), k))


def combo_index(n: int, k: int) -> dict[tuple[int, ...], int]:
    return {c: i for i, c in enumerate(combos(n, k))}


@dataclass(frozen=True)
class Cochain:
    """Alternating map in Hom(Lambda^degree g, W), stored over the lex basis.

    coords is indexed by combo * module_dim + module coordinate.
    """

    degree: int
    dim: int
    module_dim: int
    coords: Vec

    def __post_init__(self):
        if not (0 <= self.degree <= 3):
            raise ValidationError("cochain degree must be between 0 and 3")
        expected = len(combos(self.dim, self.degree)) * self.module_dim
        if len(self.coords) != expected:
            raise DimensionMismatch("cochain coordinate length mismatch")

    @staticmethod
    def zero(degree: int, dim: int, module_dim: int) -> "Cochain":
        size = len(combos(dim, degree)) * module_dim
        return Cochain(degree, dim, module_dim, vzero(size))

    @staticmethod
    def from_values(
        degree: int, dim: int, module_dim: int,
        values: Mapping[tuple[int, ...], Iterable],
    ) -> "Cochain":
        idx = combo_index(dim, degree)
        coords = [Q(0)] * (len(idx) * module_dim)
        for combo, val in values.items():
            key = tuple(combo)
            if key not in idx:
                raise ValidationError(f"combo {combo} not strictly increasing")
            v = vec(val)
            if len(v) != module_dim:
                raise DimensionMismatch("module value length mismatch")
            base = idx[key] * module_dim
            for t, x in enumerate(v):
                coords[base + t] = x
        return Cochain(degree, dim, module_dim, tuple(coords))

    def value_on_combo(self, combo: tuple[int, ...]) -> Vec:
        idx = combo_index(self.dim, self.degree)[combo]
        base = idx * self.module_dim
        return self.coords[base: base + self.module_dim]

    def evaluate(self, *args: Iterable) -> Vec:
        if len(args) != self.degree:
            raise DimensionMismatch("wrong number of cochain arguments")
        vs = [vec(a) for a in args]
        out = list(vzero(self.module_dim))
        for combo in combos(self.dim, self.degree):
            sub = Matrix.from_rows([[v[c] for c in combo] for v in vs], len(combo)) \
                if combo else None
            coeff = sub.det() if sub is not None else Q(1)
            if coeff != 0:
                val = self.value_on_combo(combo)
                for t in range(self.module_dim):
                    out[t] += coeff * val[t]
        return tuple(out)

    def add(self, other: "Cochain") -> "Cochain":
        self._check_shape(other)
        return Cochain(self.degree, self.dim, self.module_dim,
                       vadd(self.coords, other.coords))

    def sub(self, other: "Cochain") -> "Cochain":
        self._check_shape(other)
        return Cochain(self.degree, self.dim, self.module_dim,
                       vsub(self.coords, other.coords))

    def scale(self, c) -> "Cochain":
        return Cochain(self.degree, self.dim, self.module_dim, vscale(q(c), self.coords))

    def is_zero(self) -> bool:
        return is_zero_vec(self.coords)

    def _check_shape(self, other: "Cochain"):
        if (self.degree, self.dim, self.module_dim) != (other.degree, other.dim, other.module_dim):
            raise DimensionMismatch("cochain shape mismatch")


def coboundary_apply(rep: Representation, c: Cochain) -> Cochain:
    """The Chevalley-Eilenberg differential in degrees 0, 1 and 2."""
    g = rep.algebra
    if c.dim != g.dim or c.module_dim != rep.module_dim:
        raise DimensionMismatch("cochain does not match the representation")
    if c.degree >= 3:
        raise ValidationError("coboundary only implemented for degrees 0..2")
    n, m = g.dim, rep.module_dim
    values: dict[tuple[int, ...], Vec] = {}
    if c.degree == 0:
        t = c.value_on_combo(())
        for (i,) in combos(n, 1):
            values[(i,)] = rep.mats[i].matvec(t)
    elif c.degree == 1:
        for i, j in combos(n, 2):
            term = vsub(
                rep.mats[i].matvec(c.value_on_combo((j,))),
                rep.mats[j].matvec(c.value_on_combo((i,))),
            )
            values[(i, j)] = vsub(term, c.evaluate(g.bracket_basis(i, j)))
    else:
        for i, j, k in combos(n, 3):
            ei, ej, ek = (g.basis_vector(t) for t in (i, j, k))
            acc = rep.mats[i].matvec(c.value_on_combo((j, k)))
            acc = vadd(acc, rep.mats[j].matvec(vscale(Q(-1), c.value_on_combo((i, k)))))
            acc = vadd(acc, rep.mats[k].matvec(c.value_on_combo((i, j))))
            acc = vadd(acc, c.evaluate(ei, g.bracket_basis(j, k)))
            acc = vadd(acc, c.evaluate(ek, g.bracket_basis(i, j)))
            acc = vadd(acc, c.evaluate(ej, g.bracket_basis(k, i)))
            values[(i, j, k)] = acc
    return Cochain.from_values(c.degree + 1, n, m, values)


def coboundary_matrix(rep: Representation, degree: int) -> Matrix:
    """Matrix of the differential C^degree -> C^(degree+1) over lex coordinates."""
    g = rep.algebra
    n, m = g.dim, rep.module_dim
    size_in = len(combos(n, degree)) * m
    cols = []
    for i in range(size_in):
        coords = [Q(0)] * size_in
        coords[i] = Q(1)
        image = coboundary_apply(rep, Cochain(degree, n, m, tuple(coords)))
        cols.append(image.coords)
    size_out = len(combos(n, degree + 1)) * m
    return Matrix(tuple(cols), size_out).transpose() if cols else Matrix((), 0)


@dataclass(frozen=True)
class CohomologySpace:
    z_basis: Subspace
    b_basis: Subspace

    @property
    def z_dim(self) -> int:
        return self.z_basis.dim

    @property
    def b_dim(self) -> int:
        return self.b_basis.dim

    @property
    def h_dim(self) -> int:
        return self.z_dim - self.b_dim


def cohomology_space(rep: Representation, degree: int) -> CohomologySpace:
    if degree not in (1, 2):
        raise ValidationError("cohomology implemented for degrees 1 and 2")
    d_up = coboundary_matrix(rep, degree)
    d_down = coboundary_matrix(rep, degree - 1)
    z = Subspace.span(d_up.cols, d_up.kernel_basis())
    b = Subspace.span(d_down.nrows, [d_down.col(j) for j in range(d_down.cols)]) \
        if d_down.cols else Subspace.zero(d_up.cols)
    if not z.contains(b):
        raise ValidationError("coboundaries escape cocycles; differential is broken")
    return CohomologySpace(z, b)


def is_derivation(g: LieAlgebra, phi: Matrix) -> bool:
    if phi.nrows != g.dim or phi.cols != g.dim:
        raise DimensionMismatch("derivation matrix must be square of dim g")
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = phi.matvec(g.bracket_basis(i, j))
            rhs = vadd(
                g.bracket(phi.matvec(g.basis_vector(i)), g.basis_vector(j)),
                g.bracket(g.basis_vector(i), phi.matvec(g.basis_vector(j))),
            )
            if lhs != rhs:
                return False
    return True


def derivation_algebra(g: LieAlgebra) -> Subspace:
    """Derivations as a subspace of End(g), row-major flattened coordinates."""
    n = g.dim
    rows = []
    for i, j in itertools.combinations(range(n), 2):
        cij = g.bracket_basis(i, j)
        for k in range(n):
            # coefficient of phi_{k,l} in (phi [e_i,e_j] - [phi e_i, e_j] - [e_i, phi e_j])_k
            row = [Q(0)] * (n * n)
            for l in range(n):
                row[k * n + l] += cij[l]
            for l in range(n):
                # phi e_i = sum_l phi_{l,i} e_l contributes -[e_l, e_j]_k * phi_{l,i}
                row[l * n + i] -= g.bracket_basis(l, j)[k]
                row[l * n + j] -= g.bracket_basis(i, l)[k]
            rows.append(tuple(row))
    if not rows:
        return Subspace.full(n * n)
    return Subspace.span(n * n, Matrix(tuple(rows), n * n).kernel_basis())


def matrix_from_flat(flat: Vec, n: int) -> Matrix:
    return Matrix.from_rows([flat[i * n: (i + 1) * n] for i in range(n)], n)


def two_form_derive(g: LieAlgebra, alpha: Cochain, phi: Matrix) -> Cochain:
    """alpha_phi(v, w) = alpha(phi v, w) + alpha(v, phi w), for a derivation phi."""
    if alpha.degree != 2 or alpha.module_dim != 1 or alpha.dim != g.dim:
        raise DimensionMismatch("expected a scalar two-form on g")
    if not is_derivation(g, phi):
        raise ValidationError("phi is not a derivation")
    values = {}
    for i, j in combos(g.dim, 2):
        ei, ej = g.basis_vector(i), g.basis_vector(j)
        a = alpha.evaluate(phi.matvec(ei), ej)
        b = alpha.evaluate(ei, phi.matvec(ej))
        values[(i, j)] = (a[0] + b[0],)
    return Cochain.from_values(2, g.dim, 1, values)


def two_form_as_matrix(alpha: Cochain) -> Matrix:
    n = alpha.dim
    rows = [[Q(0)] * n for _ in range(n)]
    for i, j in combos(n, 2):
        v = alpha.value_on_combo((i, j))[0]
        rows[i][j] = v
        rows[j][i] = -v
    return Matrix.from_rows(rows, n)


def matrix_as_two_form(m: Matrix) -> Cochain:
    if not m.is_skew():
        raise ValidationError("two-form matrix must be skew")
    n = m.nrows
    return Cochain.from_values(2, n, 1, {(i, j): (m.rows[i][j],) for i, j in combos(n, 2)})


def semidirect(h: LieAlgebra, module: Representation, cocycle: Cochain | None = None) -> LieAlgebra:
    """Semidirect sum of h with an abelian module, bracket twisted by a cocycle.

    Basis order is the h basis followed by the module basis.
    """
    if module.algebra is not h and module.algebra != h:
        raise ValidationError("module representation must live over h")
    m = module.module_dim
    n = h.dim + m
    if cocycle is None:
        cocycle = Cochain.zero(2, h.dim, m)
    if (cocycle.degree, cocycle.dim, cocycle.module_dim) != (2, h.dim, m):
        raise DimensionMismatch("cocycle must be a degree-2 cochain on h with module values")
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i, j in combos(h.dim, 2):
        entry: dict[int, Fraction] = {}
        hb = h.bracket_basis(i, j)
        for k, c in enumerate(hb):
            if c != 0:
                entry[k] = c
        cval = cocycle.value_on_combo((i, j))
        for t, c in enumerate(cval):
            if c != 0:
                entry[h.dim + t] = c
        if entry:
            brackets[(i, j)] = entry
    for i in range(h.dim):
        for t in range(m):
            col = module.mats[i].col(t)
            entry = {h.dim + s: c for s, c in enumerate(col) if c != 0}
            if entry:
                brackets[(i, h.dim + t)] = entry
    labels = tuple(h.labels) + tuple(f"w{t+1}" for t in range(m))
    g = LieAlgebra.from_brackets(labels, brackets)
    report = validate_jacobi(g)
    if not report.ok:
        i, j, k, d = report.violations[0]
        raise ValidationError(
            "cocycle is not closed: Jacobi fails on the semidirect sum",
            (i, j, k, d),
        )
    return g


# ---------------------------------------------------------------------------
# connections


@dataclass(frozen=True)
class Connection:
    """Bilinear map nabla on g, one matrix per basis vector: mats[i] x = nabla_{e_i} x."""

    algebra: LieAlgebra
    mats: tuple[Matrix, ...]

    def __post_init__(self):
        n = self.algebra.dim
        if len(self.mats) != n:
            raise DimensionMismatch("one matrix per basis vector required")
        for m in self.mats:
            if m.nrows != n or m.cols != n:
                raise DimensionMismatch("connection matrices must be square of dim g")

    def nabla_vector(self, u: Iterable) -> Matrix:
        u = vec(u)
        n = self.algebra.dim
        out = Matrix.zeros(n, n)
        for i, a in enumerate(u):
            if a != 0:
                out = out.add(self.mats[i].scale(a))
        return out

    def nabla(self, u: Iterable, v: Iterable) -> Vec:
        return self.nabla_vector(u).matvec(vec(v))

    @staticmethod
    def zero(g: LieAlgebra) -> "Connection":
        return Connection(g, tuple(Matrix.zeros(g.dim, g.dim) for _ in range(g.dim)))


def torsion(conn: Connection) -> Cochain:
    g = conn.algebra
    values = {}
    for i, j in combos(g.dim, 2):
        t = vsub(
            vsub(conn.mats[i].matvec(g.basis_vector(j)),
                 conn.mats[j].matvec(g.basis_vector(i))),
            g.bracket_basis(i, j),
        )
        values[(i, j)] = t
    return Cochain.from_values(2, g.dim, g.dim, values)


def curvature(conn: Connection, i: int, j: int) -> Matrix:
    g = conn.algebra
    nij = conn.nabla_vector(g.bracket_basis(i, j))
    return conn.mats[i].mul(conn.mats[j]).sub(conn.mats[j].mul(conn.mats[i])).sub(nij)


def is_flat(conn: Connection) -> bool:
    g = conn.algebra
    return all(
        curvature(conn, i, j).is_zero() for i, j in combos(g.dim, 2)
    )


def is_torsion_free(conn: Connection) -> bool:
    return torsion(conn).is_zero()
