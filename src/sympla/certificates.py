"""Exact certificates used by the isotropic-ideal search.

Three mechanisms, all exact:

* envelope certificates: symbolic double brackets, as integer quadratic
  forms, showing that every abelian ideal lies inside a candidate abelian
  ideal m, via coordinate polynomials that provably never vanish over the
  reals;
* invariant-subspace traps: a primary decomposition of m under commuting
  adjoint operators with pairwise coprime characteristic factors, whose
  component sums enumerate every ideal of the algebra inside m;
* irreducible-structure certificates for metabelian algebras split over a
  non-degenerate commutator ideal acting by rotation blocks with distinct
  characters, which force the symplectic rank to zero.
"""

from __future__ import annotations

import functools
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
    vunit,
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
)
from .symplectic import SymplecticLieAlgebra, isotropy_report, omega_orthogonal

# ---------------------------------------------------------------------------
# envelope certificates
#
# The escape vector of direction d is v = e_d + sum t_x e_x + sum s_j m_j, x
# over the other directions.  The unit vectors of the directions and the
# integer rows of m (m_j times lambda_j > 0) form a basis R of g, and
# v = sum u_a R_a with u_d = 1, u_x = t_x and u_j = s_j / lambda_j.  Over the
# integer constants (D, D·c) and an integer probe L·p (L > 0),
# Q_ab = [R_a, [L·p, R_b]] is D²L times the true double bracket, so
# coordinate k of [v, [p, v]] is u^T S u / (2D²L) with the symmetric integer
# matrix S_ab = Q_ab[k] + Q_ba[k].  Rescaling the variables by lambda_j > 0
# and the form by 2D²L > 0 keeps whether it has a real zero, whether its
# quadratic part is semidefinite and which affine forms vanish where it
# does; the one test that sees the factor is whether the form is ± the
# square of a rational affine form, which asks that 2L|S_rr| be a square.


@dataclass(frozen=True)
class DirectionWitness:
    direction: int  # coordinate index of the escape direction
    single: tuple[Vec, int] | None  # (probe, coordinate) never-zero polynomial
    squares: tuple[tuple[Vec, int], ...] | None  # jointly infeasible affine squares


@dataclass(frozen=True)
class EnvelopeCertificate:
    m: Subspace
    directions: tuple[int, ...]
    witnesses: tuple[DirectionWitness, ...]
    nondegenerate: bool


def escape_basis(g: LieAlgebra, m: Subspace) -> tuple[tuple[int, ...], list[list[tuple[int, int]]]]:
    """The escape directions (the coordinates that are not pivots of m) and
    the supports of the basis R: their unit vectors, then the integer rows of m."""
    pivots = set(m.pivots)
    directions = tuple(j for j in range(g.dim) if j not in pivots)
    return directions, [[(j, 1)] for j in directions] + [integer_support(r)
                                                          for r in m.integer_rows]


def double_bracket_forms(g: LieAlgebra, basis: list[list[tuple[int, int]]],
                         probe: Vec) -> tuple[int, list[list[list[int]] | None]]:
    """(L, forms): L > 0 clears the denominators of the probe, and forms[k] is
    the matrix S of coordinate k of [v, [p, v]] over the basis R (None when
    that coordinate is zero)."""
    scale = math.lcm(*(x.denominator for x in probe))
    p = integer_support([x.numerator * (scale // x.denominator) for x in probe])
    inner = [integer_support(w) for w in integer_brackets(g, p, basis)]
    q = [integer_brackets(g, r, inner) for r in basis]
    n = len(basis)
    forms = []
    for k in range(g.dim):
        form = [[q[a][b][k] + q[b][a][k] for b in range(n)] for a in range(n)]
        forms.append(form if any(map(any, form)) else None)
    return scale, forms


def form_never_zero(form: list[list[int]], t: int) -> bool:
    """u^T S u with u_t = 1 is c + (a quadratic form in the other u) with
    c != 0 and sign(c)·S positive semidefinite: all its principal minors on
    the support are nonnegative."""
    c = form[t][t]
    if c == 0 or any(x for b, x in enumerate(form[t]) if b != t):
        return False
    sign = 1 if c > 0 else -1
    support = [a for a, row in enumerate(form) if a != t and any(row)]
    return all(sign ** size * Matrix.from_rows([[form[a][b] for b in subset] for a in subset],
                                               size).det() >= 0
               for size in range(1, len(support) + 1)
               for subset in itertools.combinations(support, size))


def form_affine_square(form: list[list[int]], scale: int) -> list[int] | None:
    """A row S_r of S when the coordinate is ± the square of a rational affine
    form: S has rank one and 2L|S_rr| is a square.  The coordinate vanishes
    exactly where S_r · u does."""
    n = len(form)
    r = next((a for a in range(n) if form[a][a]), None)
    if r is None:
        return None
    row, pivot = form[r], form[r][r]
    if any(pivot * form[a][b] != row[a] * row[b] for a in range(n) for b in range(a, n)):
        return None
    factor = 2 * scale * abs(pivot)
    return row if math.isqrt(factor) ** 2 == factor else None


def _affine_system_infeasible(forms: list[list[int]], t: int, n: int) -> bool:
    """No u with u_t = 1 on which every form vanishes: e_t lies in their span."""
    return Subspace.from_integer_rows(n, forms).contains_vector(vunit(n, t))


def build_envelope_certificate(
    s: SymplecticLieAlgebra,
    m: Subspace | None = None,
) -> EnvelopeCertificate | None:
    """Certify that every abelian ideal is contained in m.

    For each escape direction the double bracket [v, [p, v]] of a symbolic
    vector with unit coefficient there must have a coordinate polynomial with
    no real zero, or a jointly infeasible family of affine squares; the
    probes p are the basis vectors, and each probe's forms are computed once.
    """
    g = s.algebra
    if m is None:
        m = abelian_envelope_candidate(g)
        if m is None:
            return None
    if not (is_ideal(g, m) and brackets_within(g, m, m, Subspace.zero(g.dim))):
        return None
    directions, basis = escape_basis(g, m)
    probes = [g.basis_vector(i) for i in range(g.dim)]
    tables = functools.cache(lambda i: double_bracket_forms(g, basis, probes[i]))
    witnesses = []
    for t, d in enumerate(directions):
        found: DirectionWitness | None = None
        square_pool: list[tuple[Vec, int]] = []
        square_forms: list[list[int]] = []
        for i, probe in enumerate(probes):
            scale, forms = tables(i)
            for coord, form in enumerate(forms):
                if form is None:
                    continue
                if form_never_zero(form, t):
                    found = DirectionWitness(d, (probe, coord), None)
                    break
                sq = form_affine_square(form, scale)
                if sq is not None:
                    square_pool.append((probe, coord))
                    square_forms.append(sq)
            if found:
                break
        if not found and square_forms \
                and _affine_system_infeasible(square_forms, t, g.dim):
            found = DirectionWitness(d, None, tuple(square_pool))
        if not found:
            return None
        witnesses.append(found)
    rep = isotropy_report(s, m)
    return EnvelopeCertificate(m, directions, tuple(witnesses), rep.nondegenerate)


def verify_no_abelian_escape(s: SymplecticLieAlgebra, cert: EnvelopeCertificate) -> bool:
    """Re-run the computation stored in the certificate: one witness per
    escape direction, in order."""
    g = s.algebra
    if not (is_ideal(g, cert.m) and brackets_within(g, cert.m, cert.m, Subspace.zero(g.dim))):
        return False
    directions, basis = escape_basis(g, cert.m)
    if cert.directions != directions \
            or tuple(w.direction for w in cert.witnesses) != directions:
        return False

    def form(probe: Vec, coord: int) -> tuple[int, list[list[int]] | None]:
        if len(probe) != g.dim or not 0 <= coord < g.dim:
            return 1, None
        scale, forms = double_bracket_forms(g, basis, probe)
        return scale, forms[coord]

    for t, witness in enumerate(cert.witnesses):
        if witness.single is not None:
            _, f = form(*witness.single)
            if f is None or not form_never_zero(f, t):
                return False
        elif witness.squares is not None:
            squares = []
            for probe, coord in witness.squares:
                scale, f = form(probe, coord)
                sq = None if f is None else form_affine_square(f, scale)
                if sq is None:
                    return False
                squares.append(sq)
            if not _affine_system_infeasible(squares, t, g.dim):
                return False
        else:
            return False
    return True


def abelian_envelope_candidate(g: LieAlgebra) -> Subspace | None:
    """The centralizer of the commutator ideal, when it is an abelian ideal."""
    if g.dim == 0:
        return Subspace.zero(0)
    cand = centralizer(g, derived_algebra(g))
    if is_ideal(g, cand) and brackets_within(g, cand, cand, Subspace.zero(g.dim)):
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
        pieces.append(Subspace.span(d, power.kernel_basis()))
    if len(rest) > 1:
        rest_mat = poly_eval_matrix(tuple(rest), op_on_sub)
        pieces.append(Subspace.span(d, rest_mat.kernel_basis()))
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
    coprime characteristic factors."""
    g = s.algebra
    if not is_ideal(g, m):
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
