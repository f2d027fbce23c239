"""Exact linear algebra over the rationals.

Everything in this package takes and returns ``fractions.Fraction``; there
are no floating-point numbers and no tolerances anywhere.  Eliminations run
fraction-free on integer rows: ``_rref`` clears each row's denominators and
keeps rows primitive by gcd, and ``Matrix.det`` is Bareiss elimination.  Only
the final reduced rows become Fractions again, and since the reduced form is
unique they are the canonical Fraction RREF.  Subspaces are kept in reduced
row-echelon form so that equal subspaces compare equal as tuples.

Every kernel is one null space: ``null_space(rows, cols)`` spans the
``integer_kernel`` of integer rows, and ``Matrix.null_space`` scales Fraction
rows to integers for it.  The annihilator, the orthogonal complement (the
rows d·F r, F the form on one integer scale) and ``isotropic_room`` (those
rows stacked with ``invariance_rows``) go through it; ``Subspace.intersect``
is one integer kernel of [A^T | -B^T] over the two subspaces' integer rows.
``integer_gram`` is the Gram matrix of a subspace's integer rows, so no
bilinear form multiplies a Fraction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Q = Fraction

Vec = tuple[Fraction, ...]


class DimensionMismatch(ValueError):
    pass


def q(x) -> Fraction:
    """Coerce ints, Fractions or 'p/q' strings to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def vec(entries: Iterable) -> Vec:
    return tuple(q(x) for x in entries)


def vzero(n: int) -> Vec:
    return (Q(0),) * n


@functools.lru_cache(maxsize=None)
def vunit(n: int, i: int) -> Vec:
    return tuple(Q(1) if j == i else Q(0) for j in range(n))


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vscale(c: Fraction, u: Vec) -> Vec:
    return tuple(c * a for a in u)


def vdot(u: Vec, v: Vec) -> Fraction:
    acc = Q(0)
    for a, b in zip(u, v, strict=True):
        if a and b:
            acc += a * b
    return acc


def is_zero_vec(u: Vec) -> bool:
    return all(a == 0 for a in u)


def _integer_row(row: Sequence[Fraction]) -> list[int]:
    """The row scaled by the lcm of its denominators, then by 1/gcd of its entries."""
    lcm = math.lcm(*(x.denominator for x in row))
    ints = [x.numerator * (lcm // x.denominator) for x in row]
    g = math.gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _rref(rows: list[Sequence[Fraction]], cols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row-echelon form with leftmost pivots; returns (rows, pivot cols).

    The rows are replaced in place: the reduced rows first, then zero rows.
    Each row is scaled to primitive integers and eliminated by
    :func:`_integer_rref`.
    """
    reduced, pivots = _integer_rref([_integer_row(row) for row in rows], cols)
    zero = Q(0)
    rows[:] = reduced + [[zero] * cols for _ in range(len(rows) - len(reduced))]
    return rows, pivots


def _integer_rref(work: list[list[int]], cols: int) -> tuple[list[list[Fraction]], list[int]]:
    """The nonzero reduced rows, as Fractions, and the pivot columns of the
    span of integer rows; ``work`` is consumed."""
    pivots = _integer_reduce(work, cols)
    zero = Q(0)
    return [[Q(x, work[i][p]) if x else zero for x in work[i]]
            for i, p in enumerate(pivots)], pivots


def _integer_reduce(work: list[list[int]], cols: int) -> list[int]:
    """Reduce integer rows in place and return the pivot columns.

    Fraction-free Gauss-Jordan: row_i becomes p·row_i − f·row_r (p the pivot,
    f = row_i[c], both divided by gcd(p, f)) divided by the gcd of its entries.
    Afterwards row r holds the r-th pivot, and is zero in every other pivot
    column; dividing the pivot rows by their pivots gives the reduced form,
    which is unique, so the rows equal those of Fraction elimination.
    """
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == len(work):
            break
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        prow = work[r]
        p = prow[c]
        for i, row in enumerate(work):
            f = row[c]
            if f and i != r:
                g = math.gcd(p, f)
                a, b = p // g, f // g
                row = [a * x - b * y for x, y in zip(row, prow)]
                g = math.gcd(*row)
                work[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    return pivots


def integer_kernel(rows: list[Sequence[int]], cols: int) -> list[list[int]]:
    """An integer basis of {c : row · c = 0 for every row}, one vector per
    free column (nonzero there and at the pivots only); ``rows`` is consumed."""
    pivots = _integer_reduce(rows, cols)
    scale = math.lcm(*(rows[r][p] for r, p in enumerate(pivots)))
    basis = []
    for f in sorted(set(range(cols)) - set(pivots)):
        v = [0] * cols
        v[f] = scale
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f] * (scale // rows[r][p])
        basis.append(v)
    return basis


def integer_det(work: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination; ``work``
    is consumed.

    Each step replaces a_ij by (p·a_ij − a_ik·a_kj)/prev, an exact division
    by the previous pivot, so every entry stays an integer minor.
    """
    n = len(work)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if work[i][k]), None)
        if pivot is None:  # a zero column below the diagonal: singular
            return 0
        if pivot != k:
            work[k], work[pivot] = work[pivot], work[k]
            sign = -sign
        prow = work[k]
        p = prow[k]
        for i in range(k + 1, n):
            f = work[i][k]
            work[i] = [(p * x - f * y) // prev for x, y in zip(work[i], prow)]
        prev = p
    return sign * prev


@dataclass(frozen=True)
class Matrix:
    rows: tuple[Vec, ...]
    cols: int

    def __post_init__(self):
        for row in self.rows:
            if len(row) != self.cols:
                raise DimensionMismatch("row length inconsistent with column count")

    @staticmethod
    def from_rows(rows: Sequence[Iterable], cols: int | None = None) -> "Matrix":
        tup = tuple(vec(r) for r in rows)
        if cols is None:
            if not tup:
                raise DimensionMismatch("cannot infer column count of empty matrix")
            cols = len(tup[0])
        return Matrix(tup, cols)

    @staticmethod
    def zeros(nrows: int, cols: int) -> "Matrix":
        return Matrix(tuple(vzero(cols) for _ in range(nrows)), cols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(tuple(vunit(n, i) for i in range(n)), n)

    @staticmethod
    def skew(n: int, entries: dict[tuple[int, int], object]) -> "Matrix":
        """The n x n skew matrix with F[i][j] = v and F[j][i] = -v per (i, j): v."""
        rows = [[Q(0)] * n for _ in range(n)]
        for (i, j), v in entries.items():
            rows[i][j] = q(v)
            rows[j][i] = -q(v)
        return Matrix(tuple(map(tuple, rows)), n)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "Matrix":
        return Matrix(tuple(self.col(j) for j in range(self.cols)), self.nrows)

    def matvec(self, v: Vec) -> Vec:
        if len(v) != self.cols:
            raise DimensionMismatch("matvec shape mismatch")
        return tuple(vdot(r, v) for r in self.rows)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.nrows:
            raise DimensionMismatch("matmul shape mismatch")
        ot = other.transpose()
        return Matrix(
            tuple(tuple(vdot(r, oc) for oc in ot.rows) for r in self.rows), other.cols
        )

    def add(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.cols) != (other.nrows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return Matrix(tuple(vadd(a, b) for a, b in zip(self.rows, other.rows)), self.cols)

    def sub(self, other: "Matrix") -> "Matrix":
        return self.add(other.scale(Q(-1)))

    def scale(self, c: Fraction) -> "Matrix":
        return Matrix(tuple(vscale(q(c), r) for r in self.rows), self.cols)

    def neg(self) -> "Matrix":
        return self.scale(Q(-1))

    def stack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise DimensionMismatch("stack column mismatch")
        return Matrix(self.rows + other.rows, self.cols)

    def is_zero(self) -> bool:
        return all(is_zero_vec(r) for r in self.rows)

    def is_square(self) -> bool:
        return self.nrows == self.cols

    def is_skew(self) -> bool:
        return self.is_square() and all(
            self.rows[i][j] == -self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i, self.cols)
        )

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i + 1, self.cols)
        )

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        rows, pivots = _rref(list(self.rows), self.cols)
        return Matrix(tuple(tuple(r) for r in rows), self.cols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def det(self) -> Fraction:
        """Bareiss elimination (:func:`integer_det`) on the integer matrix, with
        one common denominator cleared."""
        if not self.is_square():
            raise DimensionMismatch("determinant of a non-square matrix")
        den = math.lcm(*(x.denominator for row in self.rows for x in row))
        work = [[x.numerator * (den // x.denominator) for x in row] for row in self.rows]
        return Q(integer_det(work), den**self.nrows)

    @functools.cached_property
    def integer_support(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The pairs (j, d·a_ij) with a_ij != 0 of each row, d the lcm of all
        denominators (one scale for the whole matrix)."""
        den = math.lcm(*(x.denominator for row in self.rows for x in row))
        return tuple(tuple((j, x.numerator * (den // x.denominator))
                           for j, x in enumerate(row) if x) for row in self.rows)

    def null_space(self) -> "Subspace":
        """The right null space: :func:`null_space` of the rows scaled to integers."""
        return null_space([_integer_row(row) for row in self.rows], self.cols)

    def kernel_basis(self) -> tuple[Vec, ...]:
        """The reduced rows of :meth:`null_space`.  Nothing in the package calls
        it; ``perfbench/tracer.py`` patches this method by name."""
        return self.null_space().rows


@dataclass(frozen=True)
class Subspace:
    """Row span in canonical reduced-echelon form; equality is tuple equality."""

    ambient: int
    rows: tuple[Vec, ...]
    pivots: tuple[int, ...]

    @staticmethod
    def span(ambient: int, vectors: Iterable[Iterable]) -> "Subspace":
        vecs = [vec(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient:
                raise DimensionMismatch("vector does not match ambient dimension")
        if not vecs:
            return Subspace(ambient, (), ())
        rows, pivots = _rref(vecs, ambient)
        rows = rows[: len(pivots)]
        return Subspace(ambient, tuple(tuple(r) for r in rows), tuple(pivots))

    @staticmethod
    def from_integer_rows(ambient: int, rows: Iterable[Sequence[int]]) -> "Subspace":
        """The span of integer vectors, reduced by :func:`_integer_rref`."""
        work = []
        for row in rows:
            if len(row) != ambient:
                raise DimensionMismatch("vector does not match ambient dimension")
            g = math.gcd(*row)
            if g:
                work.append([x // g for x in row] if g > 1 else list(row))
        reduced, pivots = _integer_rref(work, ambient)
        return Subspace(ambient, tuple(map(tuple, reduced)), tuple(pivots))

    @staticmethod
    def zero(ambient: int) -> "Subspace":
        return Subspace(ambient, (), ())

    @staticmethod
    def full(ambient: int) -> "Subspace":
        return Subspace(ambient, tuple(vunit(ambient, i) for i in range(ambient)),
                        tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return self.dim == 0

    @functools.cached_property
    def integer_rows(self) -> tuple[tuple[int, ...], ...]:
        """Each row times the lcm of its denominators: primitive, as the pivot entry is 1."""
        out = []
        for row in self.rows:
            lcm = math.lcm(*(x.denominator for x in row))
            out.append(tuple(x.numerator * (lcm // x.denominator) for x in row))
        return tuple(out)

    def annihilator(self) -> "Subspace":
        """All v with r · v = 0 for every row r."""
        return null_space(list(self.integer_rows), self.ambient)

    def contains_vector(self, v: Iterable) -> bool:
        w = list(vec(v))
        if len(w) != self.ambient:
            raise DimensionMismatch("ambient dimension mismatch")
        for row, p in zip(self.rows, self.pivots):
            if w[p] != 0:
                f = w[p]
                w = [x - f * y for x, y in zip(w, row)]
        return all(x == 0 for x in w)

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(r) for r in other.rows)

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient dimension mismatch")
        return Subspace.span(self.ambient, self.rows + other.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        """x = u^T A = v^T B: one integer kernel of [A^T | -B^T] over the integer
        rows A of self and B of other, and x = u^T A formed on integers."""
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient dimension mismatch")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient)
        n, a, b = self.ambient, self.integer_rows, other.integer_rows
        kernel = integer_kernel([[r[t] for r in a] + [-r[t] for r in b] for t in range(n)],
                                len(a) + len(b))
        return Subspace.from_integer_rows(
            n, [[sum(c * r[t] for c, r in zip(u, a) if c) for t in range(n)] for u in kernel])


def null_space(rows: list[Sequence[int]], cols: int) -> Subspace:
    """{x : r · x = 0 for every integer row r}, one :func:`integer_kernel`;
    ``rows`` is consumed."""
    return Subspace.from_integer_rows(cols, integer_kernel(rows, cols))


def is_invariant(sub: Subspace, ops: Iterable[Matrix]) -> bool:
    """Every operator maps sub into itself."""
    return all(sub.contains_vector(op.matvec(r)) for op in ops for r in sub.rows)


@dataclass(frozen=True)
class SolveResult:
    particular: Vec | None
    kernel: Subspace

    @property
    def consistent(self) -> bool:
        return self.particular is not None


def solve_linear(a: Matrix, rhs: Iterable) -> SolveResult:
    """Solve a x = rhs; canonical particular solution has free variables zero."""
    b = vec(rhs)
    if len(b) != a.nrows:
        raise DimensionMismatch("right-hand side length mismatch")
    work = [list(r) + [b[i]] for i, r in enumerate(a.rows)]
    rows, pivots = _rref(work, a.cols + 1)
    kernel = a.null_space()
    if a.cols in pivots:
        return SolveResult(None, kernel)
    x = [Q(0)] * a.cols
    for r, p in enumerate(pivots):
        x[p] = rows[r][a.cols]
    return SolveResult(tuple(x), kernel)


def coordinates(rows: Sequence[Vec], v: Iterable) -> Vec | None:
    """Coefficients c with sum c_i rows_i = v, or None if v is outside the span.

    The rows must be linearly independent; one elimination of [rows^T | v].
    """
    w = vec(v)
    k = len(rows)
    if any(len(r) != len(w) for r in rows):
        raise DimensionMismatch("vector does not match the row length")
    work = [[r[t] for r in rows] + [w[t]] for t in range(len(w))]
    red, pivots = _rref(work, k + 1)
    if sum(1 for p in pivots if p < k) < k:
        raise DimensionMismatch("coordinate rows are linearly dependent")
    if k in pivots:
        return None
    return tuple(red[r][k] for r in range(k))


def combine(coeffs: Iterable[Fraction], rows: Sequence[Vec], ambient: int) -> Vec:
    """The linear combination sum c_i rows_i in Q^ambient."""
    out = list(vzero(ambient))
    for c, r in zip(coeffs, rows, strict=True):
        if c != 0:
            for t, x in enumerate(r):
                out[t] += c * x
    return tuple(out)


def extend_basis(sub: Subspace, candidates: Iterable[Vec]) -> list[Vec]:
    """The candidates, in order, that are independent of sub and of those taken."""
    out = []
    current = sub
    for v in candidates:
        if not current.contains_vector(v):
            out.append(v)
            current = current.sum(Subspace.span(sub.ambient, [v]))
    return out


def bilinear(form: Matrix, u: Vec, v: Vec) -> Fraction:
    return vdot(u, form.matvec(v))


def gram(form: Matrix, rows: Sequence[Vec], cols: Sequence[Vec]) -> Matrix:
    """The matrix (form(r, c)) for r in rows and c in cols; 0 x 0 when both are empty."""
    images = [form.matvec(c) for c in cols]
    return Matrix(tuple(tuple(vdot(r, x) for x in images) for r in rows), len(cols))


def derive_form(form: Matrix, phi: Matrix) -> Matrix:
    """The phi-derivative phi^T F + F phi, the matrix of F(phi u, v) + F(u, phi v)."""
    return phi.transpose().mul(form).add(form.mul(phi))


def _integer_images(form: Matrix, w: Subspace) -> list[list[int]]:
    """d·F r for each integer row r of w, d·F the form on one common scale."""
    if not form.is_square() or form.cols != w.ambient:
        raise DimensionMismatch("form does not match ambient dimension")
    support = form.integer_support
    return [[sum(x * r[j] for j, x in row) for row in support] for r in w.integer_rows]


def integer_gram(form: Matrix, w: Subspace) -> list[list[int]]:
    """The Gram matrix (form(r_a, r_b)) of the integer rows r of w, with the
    form on one common scale: a positive multiple of D G D, G the Gram matrix
    of w's reduced rows and D the diagonal of their scales, so it has the
    rank of G and its kernel is D^-1 times that of G."""
    images = _integer_images(form, w)
    return [[sum(x * y for x, y in zip(r, image) if x) for image in images]
            for r in w.integer_rows]


def orthogonal_complement(form: Matrix, w: Subspace) -> Subspace:
    """All v with form(v, x) = 0 for every x in w: the annihilator of the
    integer rows d·F r, one elimination of k integer rows."""
    return null_space(_integer_images(form, w), w.ambient)


def invariance_rows(op_columns: Iterable[Sequence[Sequence[tuple[int, int]]]],
                    sub: Subspace) -> list[list[int]]:
    """Integer rows whose common kernel is {v : A v ∈ sub for every A}.

    Each A is given by its integer columns: column j holds the pairs (k, a_kj)
    with a_kj != 0, on any positive scale, as ``LieAlgebra.integer_constants``
    does for the ad(e_i).  The rows are f^T A, scattered from the nonzero a_kj,
    for the integer rows f of sub's annihilator.
    """
    functionals = sub.annihilator().integer_rows
    rows = []
    for columns in op_columns:
        entries = [(j, k, a) for j, column in enumerate(columns) for k, a in column]
        for f in functionals:
            row = [0] * sub.ambient
            for j, k, a in entries:
                row[j] += f[k] * a
            rows.append(row)
    return rows


def isotropic_room(form: Matrix, op_columns: Iterable[Sequence[Sequence[tuple[int, int]]]],
                   u: Subspace) -> Subspace:
    """{x ∈ u^perp : A x ∈ u for every A}, one integer kernel of the
    ``invariance_rows`` of u stacked with d·F r for the rows r of u."""
    return null_space(invariance_rows(op_columns, u) + _integer_images(form, u), u.ambient)


def charpoly(a: Matrix) -> tuple[Fraction, ...]:
    """Coefficients (c_0, ..., c_n) of det(t I - A) with c_n = 1, Faddeev-LeVerrier."""
    if not a.is_square():
        raise DimensionMismatch("characteristic polynomial of a non-square matrix")
    n = a.nrows
    coeffs = [Q(0)] * (n + 1)
    coeffs[n] = Q(1)
    m = Matrix.zeros(n, n)
    for k in range(1, n + 1):
        m = a.mul(m).add(Matrix.identity(n).scale(coeffs[n - k + 1]))
        am = a.mul(m)
        trace = sum((am.rows[i][i] for i in range(n)), Q(0))
        coeffs[n - k] = -trace / k
    return tuple(coeffs)


def poly_eval_matrix(coeffs: Sequence[Fraction], a: Matrix) -> Matrix:
    """Evaluate a polynomial (little-endian coefficients) at a square matrix."""
    n = a.nrows
    result = Matrix.zeros(n, n)
    power = Matrix.identity(n)
    for c in coeffs:
        if c != 0:
            result = result.add(power.scale(c))
        power = power.mul(a)
    return result


def rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """All rational roots, ascending, of the polynomial with coefficients c_0, c_1, ...

    With denominators cleared and the root 0 split off, p(x) = sum a_i x^i of
    degree n becomes the monic integer polynomial m(y) = a_n^(n-1) p(y / a_n),
    whose rational roots are integers of absolute value at most Cauchy's bound
    1 + max |m_i|.  Those are found by :func:`_integer_roots`, so the cost
    grows with the bit length of the coefficients, not with their size.
    """
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return []
    lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * lcm) for c in coeffs]
    roots = [Q(0)] if ints[0] == 0 else []
    while ints[0] == 0:
        ints.pop(0)
    n, lead = len(ints) - 1, ints[-1]
    monic = [a * lead ** (n - 1 - i) for i, a in enumerate(ints[:-1])] + [1]
    return sorted(roots + [Q(y, lead) for y in _integer_roots(monic)])


def _integer_roots(monic: list[int]) -> list[int]:
    """Integer roots of a monic integer polynomial (c_0 first).

    The Sturm sequence of the square-free part counts the distinct real roots
    in an integer interval (lo, hi] as V(lo) - V(hi), V the sign variations.
    Bisecting every interval that holds a root down to width one leaves the
    single integer candidate hi, which is tested exactly.
    """
    if len(monic) == 1:
        return []
    p = [Q(c) for c in monic]
    square_free = poly_divmod(p, _poly_gcd(p, _poly_derivative(p)))[0]
    sturm = [square_free, _poly_derivative(square_free)]
    while True:
        r = poly_divmod(sturm[-2], sturm[-1])[1]
        if not r:
            break
        sturm.append([-c for c in r])
    # positive multiples with integer coefficients keep every sign
    sturm = [[int(c * math.lcm(*(x.denominator for x in s))) for c in s] for s in sturm]

    def variations(x: int) -> int:
        signs = [v > 0 for v in (_int_poly_eval(s, x) for s in sturm) if v]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    bound = 1 + max(abs(c) for c in monic[:-1])
    roots = []
    stack = [(-bound - 1, bound, variations(-bound - 1), variations(bound))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if hi - lo == 1:
            if _int_poly_eval(monic, hi) == 0:
                roots.append(hi)
            continue
        mid = (lo + hi) // 2
        v_mid = variations(mid)
        stack += [(lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi)]
    return sorted(roots)


def _int_poly_eval(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_derivative(p: list[Fraction]) -> list[Fraction]:
    return [i * c for i, c in enumerate(p)][1:]


def poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder over Q, coefficients lowest first; b has a
    nonzero leading coefficient and the remainder has no trailing zeros."""
    rem = list(a)
    quot = [Q(0)] * max(len(a) - len(b) + 1, 0)
    while rem:
        if rem[-1] == 0:
            rem.pop()
        elif len(rem) >= len(b):
            shift, c = len(rem) - len(b), rem[-1] / b[-1]
            quot[shift] = c
            for t, x in enumerate(b):
                rem[shift + t] -= c * x
        else:
            break
    return quot, rem


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return a


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root in the rationals, or None."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Q(rn, rd)
