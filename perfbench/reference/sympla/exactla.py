"""Exact linear algebra over the rationals.

Everything in this package runs on ``fractions.Fraction``; there are no
floating-point numbers and no tolerances anywhere.  Subspaces are kept in
reduced row-echelon form so that equal subspaces compare equal as tuples.
"""

from __future__ import annotations

import itertools
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


def _rref(rows: list[list[Fraction]], cols: int) -> tuple[list[list[Fraction]], list[int]]:
    """In-place Gauss-Jordan with leftmost pivots; returns (rows, pivot cols)."""
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


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

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def row(self, i: int) -> Vec:
        return self.rows[i]

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "Matrix":
        return Matrix(tuple(self.col(j) for j in range(self.cols)), self.nrows)

    @property
    def T(self) -> "Matrix":
        return self.transpose()

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

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return self.mul(other)

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
        work = [list(r) for r in self.rows]
        rows, pivots = _rref(work, self.cols)
        return Matrix(tuple(tuple(r) for r in rows), self.cols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def det(self) -> Fraction:
        if not self.is_square():
            raise DimensionMismatch("determinant of a non-square matrix")
        n = self.nrows
        work = [list(r) for r in self.rows]
        det = Q(1)
        for c in range(n):
            pivot = next((i for i in range(c, n) if work[i][c] != 0), None)
            if pivot is None:
                return Q(0)
            if pivot != c:
                work[c], work[pivot] = work[pivot], work[c]
                det = -det
            det *= work[c][c]
            inv = 1 / work[c][c]
            for i in range(c + 1, n):
                if work[i][c] != 0:
                    f = work[i][c] * inv
                    work[i] = [x - f * y for x, y in zip(work[i], work[c])]
        return det

    def kernel_basis(self) -> tuple[Vec, ...]:
        """Canonical basis of the right null space (free variables set to 1)."""
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.cols) if j not in pivot_set]
        basis = []
        for f in free:
            v = [Q(0)] * self.cols
            v[f] = Q(1)
            for r, p in enumerate(pivots):
                v[p] = -red.rows[r][f]
            basis.append(tuple(v))
        return tuple(basis)


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
        work = [list(v) for v in vecs]
        rows, pivots = _rref(work, ambient)
        rows = rows[: len(pivots)]
        return Subspace(ambient, tuple(tuple(r) for r in rows), tuple(pivots))

    @staticmethod
    def zero(ambient: int) -> "Subspace":
        return Subspace(ambient, (), ())

    @staticmethod
    def full(ambient: int) -> "Subspace":
        return Subspace.span(ambient, [vunit(ambient, i) for i in range(ambient)])

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return self.dim == 0

    def matrix(self) -> Matrix:
        return Matrix(self.rows, self.ambient)

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
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient dimension mismatch")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient)
        # x = u^T A = v^T B; solve for (u, v) in the kernel of [A^T | -B^T].
        a, b = self.matrix(), other.matrix()
        cols = a.nrows + b.nrows
        rows = []
        for i in range(self.ambient):
            rows.append(tuple(a.rows[r][i] for r in range(a.nrows))
                        + tuple(-b.rows[r][i] for r in range(b.nrows)))
        ker = Matrix(tuple(rows), cols).kernel_basis()
        vecs = []
        for k in ker:
            u = k[: a.nrows]
            vecs.append(tuple(vdot(u, a.col(j)) for j in range(self.ambient)))
        return Subspace.span(self.ambient, vecs)

    def coordinates_of(self, v: Iterable) -> Vec | None:
        """Coefficients of v in this basis, or None if v is outside the span."""
        w = list(vec(v))
        coeffs = [Q(0)] * self.dim
        for idx, (row, p) in enumerate(zip(self.rows, self.pivots)):
            if w[p] != 0:
                coeffs[idx] = w[p]
                f = w[p]
                w = [x - f * y for x, y in zip(w, row)]
        if any(x != 0 for x in w):
            return None
        return tuple(coeffs)

    def complement_coordinate_basis(self) -> tuple[Vec, ...]:
        """Standard basis vectors of the non-pivot coordinates."""
        pivot_set = set(self.pivots)
        return tuple(
            vunit(self.ambient, j) for j in range(self.ambient) if j not in pivot_set
        )


def rref_basis(vectors: Matrix | Sequence[Iterable], ambient: int | None = None) -> Subspace:
    """Canonical subspace spanned by the given row vectors."""
    if isinstance(vectors, Matrix):
        return Subspace.span(vectors.cols, vectors.rows)
    vecs = [vec(v) for v in vectors]
    if ambient is None:
        if not vecs:
            raise DimensionMismatch("ambient dimension required for empty input")
        ambient = len(vecs[0])
    return Subspace.span(ambient, vecs)


@dataclass(frozen=True)
class SubspaceRelation:
    intersection: Subspace
    sum: Subspace
    a_contains_b: bool
    b_contains_a: bool


def subspace_relate(a: Subspace, b: Subspace) -> SubspaceRelation:
    if a.ambient != b.ambient:
        raise DimensionMismatch("ambient dimension mismatch")
    inter = a.intersect(b)
    total = a.sum(b)
    return SubspaceRelation(inter, total, a.contains(b), b.contains(a))


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
    if a.cols in pivots:
        return SolveResult(None, Subspace.span(a.cols, a.kernel_basis()))
    x = [Q(0)] * a.cols
    for r, p in enumerate(pivots):
        x[p] = rows[r][a.cols]
    kernel = Subspace.span(a.cols, a.kernel_basis())
    return SolveResult(tuple(x), kernel)


def solve_matrix(a: Matrix, rhs: Matrix) -> Matrix | None:
    """Solve a X = rhs column by column; None if any column is inconsistent."""
    cols = []
    for j in range(rhs.cols):
        res = solve_linear(a, rhs.col(j))
        if res.particular is None:
            return None
        cols.append(res.particular)
    return Matrix(tuple(cols), a.cols).transpose()


def invert(a: Matrix) -> Matrix:
    if not a.is_square():
        raise DimensionMismatch("inverse of a non-square matrix")
    inv = solve_matrix(a, Matrix.identity(a.nrows))
    if inv is None or a.mul(inv).rows != Matrix.identity(a.nrows).rows:
        raise ValueError("matrix is singular")
    return inv


def bilinear(form: Matrix, u: Vec, v: Vec) -> Fraction:
    return vdot(u, form.matvec(v))


def orthogonal_complement(form: Matrix, w: Subspace) -> Subspace:
    """All v with form(v, x) = 0 for every x in w."""
    if not form.is_square() or form.cols != w.ambient:
        raise DimensionMismatch("form does not match ambient dimension")
    if w.dim == 0:
        return Subspace.full(w.ambient)
    rows = tuple(form.matvec(x) for x in w.rows)  # v . (F x) = 0
    ker = Matrix(rows, w.ambient).kernel_basis()
    return Subspace.span(w.ambient, ker)


def gram_matrix(form: Matrix, basis: Sequence[Vec]) -> Matrix:
    return Matrix.from_rows(
        [[bilinear(form, u, v) for v in basis] for u in basis], len(basis)
    ) if basis else Matrix((), 0)


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
    """All rational roots of the polynomial with the given coefficients."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return []
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // _gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]
    shift = 0
    while ints and ints[0] == 0:
        ints.pop(0)
        shift += 1
    roots = [Q(0)] if shift else []
    if not ints:
        return roots
    a0, an = abs(ints[0]), abs(ints[-1])
    for p in _divisors(a0):
        for qd in _divisors(an):
            for cand in (Q(p, qd), Q(-p, qd)):
                if cand not in roots and _poly_eval(coeffs, cand) == 0:
                    roots.append(cand)
    return sorted(roots)


def _poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Q(0)
    for c in reversed(list(coeffs)):
        acc = acc * x + c
    return acc


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    if n == 0:
        return [1]
    divs = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            divs.add(d)
            divs.add(n // d)
        d += 1
    return sorted(divs)


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root in the rationals, or None."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = _isqrt(num), _isqrt(den)
    if rn is None or rd is None:
        return None
    return Q(rn, rd)


def _isqrt(n: int) -> int | None:
    if n < 0:
        return None
    r = int(n**0.5)
    for cand in (r - 1, r, r + 1, r + 2):
        if cand >= 0 and cand * cand == n:
            return cand
    # fall back to exact integer search around floating estimate
    lo, hi = 0, max(1, n)
    while lo <= hi:
        mid = (lo + hi) // 2
        sq = mid * mid
        if sq == n:
            return mid
        if sq < n:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


def minor_rank(a: Matrix) -> int:
    """Rank via nonzero minors; exponential, used as an independent test oracle."""
    n = min(a.nrows, a.cols)
    for k in range(n, 0, -1):
        for rows in itertools.combinations(range(a.nrows), k):
            for cols in itertools.combinations(range(a.cols), k):
                sub = Matrix.from_rows(
                    [[a.rows[i][j] for j in cols] for i in rows], k
                )
                if sub.det() != 0:
                    return k
    return 0
