"""Lie algebras over the rationals given by structure constants.

Covers bracket arithmetic, the central and derived series, low-degree
Chevalley-Eilenberg cohomology, derivations, connections and semidirect sums.
"""

from __future__ import annotations

import functools
import itertools
import math
import types
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .exactla import (
    DimensionMismatch,
    Matrix,
    Q,
    Subspace,
    Vec,
    derive_form,
    invariance_rows,
    is_zero_vec,
    null_space,
    q,
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
    still be built and diagnosed.  ``table`` is the stored (and compared)
    form.  Every loop over the constants reads ``nonzero``, or its integer
    form ``integer_constants``; ``bracket_basis`` hands out the whole vector
    [e_i, e_j] to code that maps or compares it.  The derived values (the
    series, center, Killing radical, derived algebra and Jacobi report) are
    kept in the instance by :func:`_per_algebra`.
    """

    labels: tuple[str, ...]
    table: tuple[tuple[Vec, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.labels)

    @functools.cached_property
    def nonzero(self) -> tuple[tuple[tuple[tuple[int, Fraction], ...], ...], ...]:
        """nonzero[i][j] = ((k, c_ij^k), ...) over the nonzero constants, k ascending."""
        return tuple(tuple(tuple((k, c) for k, c in enumerate(v) if c) for v in row)
                     for row in self.table)

    @functools.cached_property
    def integer_constants(self) -> tuple[int, tuple[tuple[tuple[tuple[int, int], ...], ...], ...]]:
        """(d, nonzero scaled by d): d is the lcm of the denominators of the constants."""
        d = math.lcm(*(c.denominator for row in self.nonzero for entries in row
                       for _, c in entries))
        return d, tuple(tuple(tuple((k, c.numerator * (d // c.denominator)) for k, c in entries)
                              for entries in row) for row in self.nonzero)

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
                if not 0 <= k < n:
                    raise ValidationError(f"bracket ({i}, {j}) has output index {k} "
                                          f"outside 0..{n - 1}")
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
        v_support = [(j, b) for j, b in enumerate(v) if b]
        for i, a in enumerate(u):
            if a == 0:
                continue
            row = self.nonzero[i]
            for j, b in v_support:
                if row[j]:
                    c = a * b
                    for k, t in row[j]:
                        out[k] += c * t
        return tuple(out)

    def ad(self, v: Iterable) -> Matrix:
        """Matrix of ad(v): x -> [v, x], entry (k, j) = sum_i v_i c_ij^k."""
        v = vec(v)
        if len(v) != self.dim:
            raise DimensionMismatch("bracket argument dimension mismatch")
        rows = [list(vzero(self.dim)) for _ in range(self.dim)]
        for i, a in enumerate(v):
            if a == 0:
                continue
            for j, entries in enumerate(self.nonzero[i]):
                for k, c in entries:
                    rows[k][j] += a * c
        return Matrix(tuple(map(tuple, rows)), self.dim)

    def relabel(self, labels: Sequence[str]) -> "LieAlgebra":
        if len(labels) != self.dim:
            raise DimensionMismatch("label count mismatch")
        return LieAlgebra(tuple(labels), self.table)


@dataclass(frozen=True)
class JacobiReport:
    violations: tuple[tuple[int, int, int, Vec], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _per_algebra(fn):
    """Compute fn(g) once per algebra: the value is kept in g's instance
    dict, as ``functools.cached_property`` does, and lives as long as g."""
    key = "_" + fn.__name__

    @functools.wraps(fn)
    def stored(g: LieAlgebra):
        value = g.__dict__.get(key)
        if value is None:
            value = g.__dict__[key] = fn(g)
        return value
    return stored


def jacobi_defect(g: LieAlgebra, i: int, j: int, k: int) -> Vec:
    """[[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j] = sum c_ab^l c_lc^m e_m.

    Summed over the integer constants d·c, and divided by d² when nonzero.
    """
    out = [0] * g.dim
    d, nz = g.integer_constants
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        for l, x in nz[a][b]:
            for m, y in nz[l][c]:
                out[m] += x * y
    if not any(out):
        return vzero(g.dim)
    return tuple(Q(x, d * d) for x in out)


@_per_algebra
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


def integer_support(row: Sequence[int]) -> list[tuple[int, int]]:
    """The pairs (i, x_i) with x_i != 0 of an integer vector."""
    return [(i, x) for i, x in enumerate(row) if x]


def integer_brackets(g: LieAlgebra, xs: Sequence[tuple[int, int]],
                     ys_list: Iterable[Sequence[tuple[int, int]]]) -> list[list[int]]:
    """d·[x, y] for each y of ys_list, for integer vectors given by their
    supports, over the integer constants (d, d·c) of ``g.integer_constants``."""
    nz = g.integer_constants[1]
    rows_x = [(nz[i], x) for i, x in xs]
    outs = []
    for ys in ys_list:
        out = [0] * g.dim
        for row_i, x in rows_x:
            for j, y in ys:
                entries = row_i[j]
                if entries:
                    c = x * y
                    for k, t in entries:
                        out[k] += c * t
        outs.append(out)
    return outs


def bracket_span(g: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    """The span of [x, y] over the rows of a and b, bracketed as primitive
    integer rows with the integer constants (positive multiples of the
    brackets, which span the same subspace)."""
    if a.ambient != g.dim or b.ambient != g.dim:
        raise DimensionMismatch("subspace ambient dimension mismatch")
    supports = [integer_support(row) for row in b.integer_rows]
    same = a == b  # [y, x] = -[x, y] and [x, x] = 0: one bracket per pair
    rows = []
    for p, row in enumerate(a.integer_rows):
        brackets = integer_brackets(g, integer_support(row), supports[p + 1:] if same else supports)
        rows += (out for out in brackets if any(out))
    return Subspace.from_integer_rows(g.dim, rows)


def brackets_within(g: LieAlgebra, a: Subspace, b: Subspace, target: Subspace) -> bool:
    """[a, b] is contained in target.

    Subalgebra: (s, s, s); abelian: (s, s, 0); normal ideal j: (j^perp, j, 0);
    totally geodesic subalgebra l: (l, l^perp, l^perp).
    """
    if target.ambient != g.dim:
        raise DimensionMismatch("subspace ambient dimension mismatch")
    return target.contains(bracket_span(g, a, b))


def is_ideal(g: LieAlgebra, s: Subspace) -> bool:
    """[g, s] is contained in s."""
    return brackets_within(g, Subspace.full(g.dim), s, s)


@dataclass(frozen=True)
class SeriesChain:
    kind: str  # "descending-central" | "ascending-central" | "derived"
    terms: tuple[Subspace, ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(t.dim for t in self.terms)


@_per_algebra
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


@_per_algebra
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


@_per_algebra
def ascending_central_series(g: LieAlgebra) -> SeriesChain:
    terms = [Subspace.zero(g.dim)]
    while True:
        cur = terms[-1]
        nxt = null_space(invariance_rows(g.integer_constants[1], cur), g.dim)
        if nxt == cur:
            break
        terms.append(nxt)
        if nxt.dim == g.dim:
            break
    return SeriesChain("ascending-central", tuple(terms))


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


@_per_algebra
def derived_algebra(g: LieAlgebra) -> Subspace:
    """The commutator ideal [g, g]."""
    return bracket_span(g, Subspace.full(g.dim), Subspace.full(g.dim))


@_per_algebra
def center(g: LieAlgebra) -> Subspace:
    """The centralizer of the whole algebra."""
    return centralizer(g, Subspace.full(g.dim))


@_per_algebra
def killing_radical(g: LieAlgebra) -> Subspace:
    """Radical of the trace form tr(ad x ad y); always an ideal."""
    n, nz = g.dim, g.integer_constants[1]
    # ad(e_i) has entry (s, t) = c_it^s, so tr(ad e_i ad e_j) = sum c_it^s c_js^t
    ads = [{(s, t): c for t in range(n) for s, c in nz[i][t]} for i in range(n)]
    rows = [[sum(c * ads[j].get((t, s), 0) for (s, t), c in ads[i].items()) for j in range(n)]
            for i in range(n)]
    return null_space(rows, n)


def centralizer(g: LieAlgebra, s: Subspace) -> Subspace:
    """All v with [v, x] = 0 for every x in s: the row (x, k) holds the
    coefficients sum_j x_j c_ij^k of the v_i in [v, x]_k, over integer x and d·c."""
    if s.dim == 0:
        return Subspace.full(g.dim)
    n, nz = g.dim, g.integer_constants[1]
    rows = []
    for row in s.integer_rows:
        block = [[0] * n for _ in range(n)]
        for j, x in enumerate(row):
            if x:
                for i in range(n):
                    for k, c in nz[i][j]:
                        block[k][i] += x * c
        rows += block
    return null_space(rows, n)


# ---------------------------------------------------------------------------
# representations and cochains


@dataclass(frozen=True)
class Representation:
    """rho(e_i) matrices acting on a module; validated at construction."""

    algebra: LieAlgebra
    mats: tuple[Matrix, ...]
    module_dim: int | None = None  # read from the matrices when omitted

    def __post_init__(self):
        g = self.algebra
        if len(self.mats) != g.dim:
            raise DimensionMismatch("one matrix per basis vector required")
        if self.module_dim is None:
            object.__setattr__(self, "module_dim", self.mats[0].nrows if self.mats else 0)
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

    def act_vector(self, v: Iterable) -> Matrix:
        v = vec(v)
        m = self.module_dim
        out = Matrix.zeros(m, m)
        for i, a in enumerate(v):
            if a != 0:
                out = out.add(self.mats[i].scale(a))
        return out


def trivial_rep(g: LieAlgebra, module_dim: int = 1) -> Representation:
    return Representation(g, tuple(Matrix.zeros(module_dim, module_dim) for _ in range(g.dim)),
                          module_dim)


def adjoint_rep(g: LieAlgebra) -> Representation:
    return Representation(g, tuple(g.ad(g.basis_vector(i)) for i in range(g.dim)))


@functools.lru_cache(maxsize=None)
def combos(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.combinations(range(n), k))


@functools.lru_cache(maxsize=None)
def combo_index(n: int, k: int) -> Mapping[tuple[int, ...], int]:
    """Position of each k-combo of range(n) in lex order (a shared read-only map)."""
    return types.MappingProxyType({c: i for i, c in enumerate(combos(n, k))})


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
    d = coboundary_matrix(rep, c.degree)
    return Cochain(c.degree + 1, g.dim, rep.module_dim, d.matvec(c.coords))


def coboundary_matrix(rep: Representation, degree: int) -> Matrix:
    """Matrix of the differential C^degree -> C^(degree+1) over lex coordinates.

    Row and column index = combo index * module_dim + module coordinate.  The
    entries are scattered straight from the nonzero structure constants and
    the nonzero entries of rho(e_i), by

      (dc)(x_0..x_p) = sum_r (-1)^r rho(x_r) c(..^x_r..)
                       + sum_{r<s} (-1)^(r+s) c([x_r, x_s], ..^x_r..^x_s..).
    """
    if not 0 <= degree <= 2:
        raise ValidationError("coboundary only implemented for degrees 0..2")
    g = rep.algebra
    n, m = g.dim, rep.module_dim
    col_index = combo_index(n, degree)
    out_combos = combos(n, degree + 1)
    size_in = len(col_index) * m
    rho = [[(a, b, v) for a, row in enumerate(mat.rows) for b, v in enumerate(row) if v]
           for mat in rep.mats]
    rows = [[Q(0)] * size_in for _ in range(len(out_combos) * m)]
    for out, combo in enumerate(out_combos):
        base = out * m
        for r, x in enumerate(combo):
            col = col_index[combo[:r] + combo[r + 1:]] * m
            for a, b, v in rho[x]:
                rows[base + a][col + b] += v if r % 2 == 0 else -v
        for r, s in itertools.combinations(range(len(combo)), 2):
            rest = combo[:r] + combo[r + 1:s] + combo[s + 1:]
            for l, v in g.nonzero[combo[r]][combo[s]]:
                if l in rest:
                    continue
                # moving l from the front to its sorted place costs (-1)^pos
                pos = sum(1 for y in rest if y < l)
                col = col_index[rest[:pos] + (l,) + rest[pos:]] * m
                if (r + s + pos) % 2:
                    v = -v
                for t in range(m):
                    rows[base + t][col + t] += v
    return Matrix(tuple(map(tuple, rows)), size_in)


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
    z = d_up.null_space()
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
    """Derivations as a subspace of End(g), row-major flattened coordinates;
    the conditions are linear in the constants, so they are taken over d·c."""
    n, nz = g.dim, g.integer_constants[1]
    rows = []
    for i, j in itertools.combinations(range(n), 2):
        # row k: coefficients of the phi_{a,b} in (phi [e_i,e_j] - [phi e_i, e_j] - [e_i, phi e_j])_k
        block = [[0] * (n * n) for _ in range(n)]
        for l, c in nz[i][j]:
            for k in range(n):
                block[k][k * n + l] += c
        for l in range(n):
            # phi e_i = sum_l phi_{l,i} e_l contributes -[e_l, e_j]_k * phi_{l,i}
            for k, c in nz[l][j]:
                block[k][l * n + i] -= c
            for k, c in nz[i][l]:
                block[k][l * n + j] -= c
        rows += block
    return null_space(rows, n * n)


def matrix_from_flat(flat: Vec, n: int) -> Matrix:
    return Matrix.from_rows([flat[i * n: (i + 1) * n] for i in range(n)], n)


def two_form_derive(g: LieAlgebra, alpha: Cochain, phi: Matrix) -> Cochain:
    """alpha_phi(v, w) = alpha(phi v, w) + alpha(v, phi w), for a derivation phi."""
    if alpha.degree != 2 or alpha.module_dim != 1 or alpha.dim != g.dim:
        raise DimensionMismatch("expected a scalar two-form on g")
    if not is_derivation(g, phi):
        raise ValidationError("phi is not a derivation")
    return matrix_as_two_form(derive_form(two_form_as_matrix(alpha), phi))


def two_form_as_matrix(alpha: Cochain) -> Matrix:
    return Matrix.skew(alpha.dim, {c: alpha.value_on_combo(c)[0] for c in combos(alpha.dim, 2)})


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
        entry: dict[int, Fraction] = dict(h.nonzero[i][j])
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
