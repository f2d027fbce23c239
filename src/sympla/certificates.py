"""Exact certificates used by the isotropic-ideal search.

Three mechanisms, all exact:

* envelope certificates: semidefinite quadratic forms v -> [v, [p, v]]_k,
  as integer matrices, whose common radical lies inside a candidate abelian
  ideal m, which shows that every abelian ideal lies in m;
* invariant-subspace traps: a primary decomposition of m under commuting
  adjoint operators with pairwise coprime characteristic factors, whose
  component sums enumerate every ideal of the algebra inside m;
* irreducible-structure certificates for metabelian algebras split over a
  non-degenerate commutator ideal acting by rotation blocks with distinct
  characters, which force the symplectic rank to zero.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .exactla import (
    Matrix,
    Q,
    Subspace,
    Vec,
    charpoly,
    combine,
    coordinates,
    gram,
    poly_divmod,
    poly_eval_matrix,
    rational_roots,
    rational_sqrt,
)
from .liealg import (
    LieAlgebra,
    brackets_within,
    center,
    centralizer,
    derived_algebra,
    integer_brackets,
    integer_support,
    is_ideal,
    nilpotency_class,
)
from .symplectic import SymplecticLieAlgebra, isotropy_report, omega_orthogonal

# ---------------------------------------------------------------------------
# envelope certificates
#
# For a probe p and a coordinate k, q(v) = [v, [p, v]]_k is a quadratic form
# on g.  If v lies in an abelian ideal then so does [p, v], and q(v) = 0; when
# q is semidefinite, q(v) = 0 puts v in the radical of q.  So every abelian
# ideal lies in the common radical of any family of semidefinite forms, and
# the certificate holds when that radical lies in m: the row span of their
# matrices contains the annihilator of m.  Over the integer constants (D, D·c)
# and an integer probe L·p (L > 0), Q_ab = [e_a, [L·p, e_b]] is D²L times the
# true double bracket, so q(v) = v^T S v / (2D²L) with the symmetric integer
# matrix S_ab = Q_ab[k] + Q_ba[k]; the positive factor changes neither the
# sign nor the radical.


@dataclass(frozen=True)
class EnvelopeCertificate:
    m: Subspace
    pairs: tuple[tuple[Vec, int], ...]  # (probe, coordinate) of semidefinite forms
    nondegenerate: bool


def double_bracket_forms(g: LieAlgebra, probe: Vec) -> list[list[list[int]]]:
    """The matrix S of coordinate k of [v, [p, v]] over the unit basis, for
    every k."""
    scale = math.lcm(*(x.denominator for x in probe))
    p = integer_support([x.numerator * (scale // x.denominator) for x in probe])
    basis = [[(a, 1)] for a in range(g.dim)]
    inner = [integer_support(w) for w in integer_brackets(g, p, basis)]
    q = [integer_brackets(g, r, inner) for r in basis]
    n = g.dim
    return [[[q[a][b][k] + q[b][a][k] for b in range(n)] for a in range(n)] for k in range(n)]


def semidefinite(form: list[list[int]]) -> bool:
    """Whether the symmetric integer matrix is positive or negative
    semidefinite: a fraction-free symmetric elimination of sign·S (sign that
    of its first nonzero diagonal entry) pivots on nonzero diagonal entries,
    which must all be positive, and must end in the zero matrix.  Each update
    is divided exactly by the previous pivot, as in Bareiss's algorithm."""
    sign = next((1 if row[a] > 0 else -1 for a, row in enumerate(form) if row[a]), 1)
    work = [[sign * x for x in row] for row in form]
    live = list(range(len(work)))
    prev = 1
    while live:
        r = next((a for a in live if work[a][a]), None)
        if r is None:
            return not any(work[a][b] for a in live for b in live)
        pivot = work[r][r]
        if pivot < 0:
            return False
        live.remove(r)
        row_r = work[r]
        for a in live:
            row_a, x = work[a], work[a][r]
            for b in live:
                row_a[b] = (pivot * row_a[b] - x * row_r[b]) // prev
        prev = pivot
    return True


def _is_abelian_ideal(g: LieAlgebra, m: Subspace) -> bool:
    return is_ideal(g, m) and brackets_within(g, m, m, Subspace.zero(g.dim))


def build_envelope_certificate(
    s: SymplecticLieAlgebra,
    m: Subspace | None = None,
) -> EnvelopeCertificate | None:
    """Certify that every abelian ideal is contained in m.

    Walks the unit probes and, for each, the coordinates in order, keeping a
    form when it is semidefinite and grows the row span of the forms kept so
    far; stops as soon as that span contains the annihilator of m.
    """
    g = s.algebra
    if m is None:
        m = abelian_envelope_candidate(g)
        if m is None:
            return None
    if not _is_abelian_ideal(g, m):
        return None
    need = m.annihilator()
    span = Subspace.zero(g.dim)
    pairs: list[tuple[Vec, int]] = []
    forms = ((probe, k, form) for probe in map(g.basis_vector, range(g.dim))
             for k, form in enumerate(double_bracket_forms(g, probe)))
    while not span.contains(need):
        for probe, k, form in forms:
            # a form grows the span exactly when one of its rows lies outside it
            if not all(map(span.contains_vector, form)) and semidefinite(form):
                pairs.append((probe, k))
                span = Subspace.from_integer_rows(g.dim, span.integer_rows + tuple(form))
                break
        else:
            return None
    return EnvelopeCertificate(m, tuple(pairs), isotropy_report(s, m).nondegenerate)


def verify_no_abelian_escape(s: SymplecticLieAlgebra, cert: EnvelopeCertificate) -> bool:
    """Recompute every listed form, check that it is semidefinite and that
    their row span contains the annihilator of m."""
    g = s.algebra
    if not _is_abelian_ideal(g, cert.m) \
            or isotropy_report(s, cert.m).nondegenerate != cert.nondegenerate:
        return False
    rows: list[list[int]] = []
    for probe, coord in cert.pairs:
        if len(probe) != g.dim or not 0 <= coord < g.dim:
            return False
        form = double_bracket_forms(g, probe)[coord]
        if not semidefinite(form):
            return False
        rows.extend(form)
    return Subspace.from_integer_rows(g.dim, rows).contains(cert.m.annihilator())


def abelian_envelope_candidate(g: LieAlgebra) -> Subspace | None:
    """The centralizer of the commutator ideal, when it is an abelian ideal."""
    if g.dim == 0:
        return Subspace.zero(0)
    cand = centralizer(g, derived_algebra(g))
    if _is_abelian_ideal(g, cand):
        return cand
    return None


# ---------------------------------------------------------------------------
# invariant-subspace trap


@dataclass(frozen=True)
class InvariantTrap:
    m: Subspace
    components: tuple[Subspace, ...]  # in ambient coordinates
    ideals: tuple[Subspace, ...]  # every ideal of g inside m


def _restrict(op: Matrix, sub: Subspace) -> Matrix | None:
    """Matrix of op on sub in its RREF basis; None if sub is not op-invariant."""
    cols = []
    for r in sub.rows:
        c = coordinates(sub.rows, op.matvec(r))
        if c is None:
            return None
        cols.append(c)
    return Matrix(tuple(cols), sub.dim).transpose()


def _split_by_operator(sub: Subspace, op_on_sub: Matrix) -> list[Subspace] | None:
    """Primary split along rational eigenvalues; pieces in sub's own coordinates."""
    d = sub.dim
    char = list(charpoly(op_on_sub))
    roots = rational_roots(char)
    if not roots:
        return None
    pieces = []
    rest = char
    for r in roots:
        # multiplicity of the root
        mult = 0
        while True:
            quo, rem = poly_divmod(rest, [-r, Q(1)])
            if rem:
                break
            rest = quo
            mult += 1
        shifted = op_on_sub.sub(Matrix.identity(d).scale(r))
        power = Matrix.identity(d)
        for _ in range(mult):
            power = shifted.mul(power)
        pieces.append(power.null_space())
    if len(rest) > 1:
        rest_mat = poly_eval_matrix(tuple(rest), op_on_sub)
        pieces.append(rest_mat.null_space())
    if sum(p.dim for p in pieces) != d or len(pieces) < 2:
        return None
    return pieces


def _to_ambient(sub_coords: Subspace, parent: Subspace) -> Subspace:
    return Subspace.span(parent.ambient,
                         [combine(r, parent.rows, parent.ambient) for r in sub_coords.rows])


def _split_components(comps: list[Subspace], ops: list[Matrix]) -> list[Subspace] | None:
    """Refine comps by the primary split of each operator in turn; None when
    some component is not invariant under some operator."""
    for op in ops:
        new_comps: list[Subspace] = []
        for comp in comps:
            rop = _restrict(op, comp)
            if rop is None:
                return None
            split = _split_by_operator(comp, rop)
            if split is None:
                new_comps.append(comp)
            else:
                new_comps.extend(_to_ambient(p, comp) for p in split)
        comps = new_comps
    return comps


def _component_irreducible(comp_dim: int, restricted_ops: list[Matrix]) -> bool:
    if comp_dim == 1:
        return True
    if comp_dim in (2, 3):
        for rop in restricted_ops:
            if not rational_roots(list(charpoly(rop))):
                return True  # quadratic or cubic with no rational root is irreducible
    return False


def invariant_ideal_trap(s: SymplecticLieAlgebra, m: Subspace) -> InvariantTrap | None:
    """Enumerate every ideal of the algebra contained in m, when m splits into
    irreducible components under commuting adjoint operators with pairwise
    coprime characteristic factors.

    On a nilpotent algebra every ad x is nilpotent on m, so no operator
    splits m and no component of dimension above one is irreducible: the
    trap fails whenever m.dim > 1, and returns None at once."""
    g = s.algebra
    if not is_ideal(g, m) or (m.dim > 1 and nilpotency_class(g) is not None):
        return None
    # adjoint operators restricted to m, keeping a pairwise commuting family
    ops: list[Matrix] = []
    for i in range(g.dim):
        op = g.ad(g.basis_vector(i))
        rop = _restrict(op, m)
        if rop is None or rop.is_zero():
            continue
        if all(rop.mul(o).sub(o.mul(rop)).is_zero() for o in ops):
            ops.append(rop)
    ops = ops + [o.mul(o) for o in ops]
    comps = _split_components([Subspace.full(m.dim)], ops)
    if comps is None:
        return None
    ok_comps = []
    for comp in comps:
        rops = []
        for op in ops:
            rop = _restrict(op, comp)
            if rop is not None:
                rops.append(rop)
        if not _component_irreducible(comp.dim, rops):
            return None
        ok_comps.append(comp)
    if len(ok_comps) > 12:
        return None
    ambient_comps = [_to_ambient(c, m) for c in ok_comps]
    ideals = []
    for mask in range(1 << len(ambient_comps)):
        total = Subspace.zero(g.dim)
        for t, comp in enumerate(ambient_comps):
            if mask & (1 << t):
                total = total.sum(comp)
        if is_ideal(g, total):
            ideals.append(total)
    return InvariantTrap(m, tuple(ambient_comps), tuple(ideals))


# ---------------------------------------------------------------------------
# irreducible-structure certificates


@dataclass(frozen=True)
class IrreducibleStructureCertificate:
    commutator: Subspace
    h_part: Subspace
    blocks: tuple[Subspace, ...]
    characters: tuple[Vec, ...]  # values over the h-part basis


def irreducible_structure_certificate(
    s: SymplecticLieAlgebra,
) -> IrreducibleStructureCertificate | None:
    """Certify symplectic rank zero for split metabelian algebras whose
    commutator ideal decomposes into rotation blocks with distinct characters
    that are pairwise non-proportional and span the dual of the complement."""
    g = s.algebra
    if g.dim == 0:
        return None
    a = derived_algebra(g)
    zero = Subspace.zero(g.dim)
    if a.dim == 0 or not (is_ideal(g, a) and brackets_within(g, a, a, zero)):
        return None
    h = omega_orthogonal(s, a)
    if not brackets_within(g, h, h, zero):  # abelian, hence a subalgebra
        return None
    if a.sum(h).dim != g.dim or not a.intersect(h).is_zero():
        return None
    if not center(g).is_zero():
        return None
    # split a into 2-dimensional blocks under the commuting h action
    h_ops = [g.ad(hb) for hb in h.rows]
    rops = []
    for op in h_ops:
        rop = _restrict(op, a)
        if rop is None:
            return None
        rops.append(rop)
    if any(not x.mul(y).sub(y.mul(x)).is_zero() for x in rops for y in rops):
        return None
    # squares of the basis operators and of their pairwise sums: characters
    # differing only in per-coordinate sign patterns still get separated
    splitters = [o.mul(o) for o in rops]
    for x, y in itertools.combinations(rops, 2):
        total = x.add(y)
        splitters.append(total.mul(total))
    comps = _split_components([Subspace.full(a.dim)], splitters)
    if comps is None or any(c.dim != 2 for c in comps):
        return None
    # each block must carry a common complex structure scaled by characters
    characters = []
    for comp in comps:
        jmat = None
        lam = []
        for rop in rops:
            m2 = _restrict(rop, comp)
            if m2 is None:
                return None
            sq = m2.mul(m2)
            scalar = sq.rows[0][0] if m2.nrows else Q(0)
            if not sq.sub(Matrix.identity(2).scale(scalar)).is_zero():
                return None
            if scalar > 0:
                return None
            lam_val = rational_sqrt(-scalar)
            if lam_val is None:
                return None
            if lam_val == 0:
                if not m2.is_zero():
                    return None
                lam.append(Q(0))
                continue
            cand_j = m2.scale(1 / lam_val)
            if jmat is None:
                jmat = cand_j
                lam.append(lam_val)
            else:
                if cand_j.rows == jmat.rows:
                    lam.append(lam_val)
                elif cand_j.neg().rows == jmat.rows:
                    lam.append(-lam_val)
                else:
                    return None
        if jmat is None:
            return None
        characters.append(tuple(lam))
    # characters: nonzero, pairwise non-proportional (lambda_i != +- lambda_j), spanning
    for lam in characters:
        if all(x == 0 for x in lam):
            return None
    for i in range(len(characters)):
        for j in range(i + 1, len(characters)):
            li, lj = characters[i], characters[j]
            if li == lj or tuple(-x for x in li) == lj:
                return None
    if Matrix.from_rows(list(characters), h.dim).rank() != h.dim:
        return None
    # every nonempty block sum must be omega-non-degenerate
    ambient_blocks = [_to_ambient(c, a) for c in comps]
    for size in range(1, len(ambient_blocks) + 1):
        for subset in itertools.combinations(ambient_blocks, size):
            total = Subspace.zero(g.dim)
            for b in subset:
                total = total.sum(b)
            if gram(s.omega, total.rows, total.rows).det() == 0:
                return None
    return IrreducibleStructureCertificate(a, h, tuple(ambient_blocks), tuple(characters))
