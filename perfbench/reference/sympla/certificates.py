"""Exact certificates used by the isotropic-ideal search.

Three mechanisms, all in rational arithmetic:

* envelope certificates: symbolic double brackets showing that every abelian
  ideal lies inside a candidate abelian ideal m, via coordinate polynomials
  that provably never vanish over the reals;
* invariant-subspace traps: a primary decomposition of m under commuting
  adjoint operators with pairwise coprime characteristic factors, whose
  component sums enumerate every ideal of the algebra inside m;
* irreducible-structure certificates for metabelian algebras split over a
  non-degenerate commutator ideal acting by rotation blocks with distinct
  characters, which force the symplectic rank to zero.
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
    charpoly,
    poly_eval_matrix,
    rational_roots,
    rational_sqrt,
    solve_linear,
    vunit,
    vzero,
)
from .liealg import (
    LieAlgebra,
    ValidationError,
    bracket_span,
    center,
    subspace_algebra_flags,
)
from .symplectic import SymplecticLieAlgebra, isotropy_report

# ---------------------------------------------------------------------------
# quadratic polynomials in named parameters

Poly = dict[tuple[int, ...], Fraction]  # keys: () constant, (i,), (i, j) i <= j


def poly_const(c: Fraction) -> Poly:
    return {(): c} if c != 0 else {}


def poly_var(i: int) -> Poly:
    return {(i,): Q(1)}


def poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for k, v in b.items():
        nv = out.get(k, Q(0)) + v
        if nv == 0:
            out.pop(k, None)
        else:
            out[k] = nv
    return out


def poly_scale(c: Fraction, a: Poly) -> Poly:
    if c == 0:
        return {}
    return {k: c * v for k, v in a.items()}


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(sorted(ka + kb))
            if len(key) > 2:
                raise ValidationError("certificate polynomials must stay quadratic")
            nv = out.get(key, Q(0)) + va * vb
            if nv == 0:
                out.pop(key, None)
            else:
                out[key] = nv
    return out


def sym_bracket(g: LieAlgebra, u: list[Poly], v: list[Poly]) -> list[Poly]:
    out: list[Poly] = [{} for _ in range(g.dim)]
    for i in range(g.dim):
        if not u[i]:
            continue
        for j in range(g.dim):
            if not v[j]:
                continue
            cij = g.bracket_basis(i, j)
            if all(c == 0 for c in cij):
                continue
            prod = poly_mul(u[i], v[j])
            for k, c in enumerate(cij):
                if c != 0:
                    out[k] = poly_add(out[k], poly_scale(c, prod))
    return out


def _quadratic_parts(p: Poly, nvars: int):
    c0 = p.get((), Q(0))
    lin = [p.get((i,), Q(0)) for i in range(nvars)]
    quad = [[Q(0)] * nvars for _ in range(nvars)]
    for k, v in p.items():
        if len(k) == 2:
            i, j = k
            if i == j:
                quad[i][i] = v
            else:
                quad[i][j] = v / 2
                quad[j][i] = v / 2
    return c0, lin, quad


def _is_psd(quad: list[list[Fraction]], support: list[int]) -> bool:
    """All principal minors of the restriction to the support are nonnegative."""
    for size in range(1, len(support) + 1):
        for subset in itertools.combinations(support, size):
            sub = Matrix.from_rows(
                [[quad[i][j] for j in subset] for i in subset], size
            )
            if sub.det() < 0:
                return False
    return True


def poly_never_zero(p: Poly, nvars: int) -> bool:
    """True when p = c + Q(t) with c != 0 and sign(c) Q positive semidefinite."""
    c0, lin, quad = _quadratic_parts(p, nvars)
    if c0 == 0 or any(x != 0 for x in lin):
        return False
    sign = 1 if c0 > 0 else -1
    support = sorted({i for k in p for i in k})
    scaled = [[sign * x for x in row] for row in quad]
    return _is_psd(scaled, support)


def poly_as_affine_square(p: Poly, nvars: int) -> tuple[int, tuple[Fraction, ...]] | None:
    """Write p = sign * (c + sum l_i t_i)^2; returns (sign, (c, l_1..l_n)) or None."""
    if not p:
        return None
    c0, lin, quad = _quadratic_parts(p, nvars)
    if c0 != 0:
        sign = 1 if c0 > 0 else -1
        c = rational_sqrt(sign * c0)
        if c is None or c == 0:
            return None
        l = [sign * lin[i] / (2 * c) for i in range(nvars)]
    else:
        if any(x != 0 for x in lin):
            return None
        pivot = next((i for i in range(nvars) if quad[i][i] != 0), None)
        if pivot is None:
            return None
        sign = 1 if quad[pivot][pivot] > 0 else -1
        c = Q(0)
        lp = rational_sqrt(sign * quad[pivot][pivot])
        if lp is None:
            return None
        l = [sign * quad[pivot][i] / lp for i in range(nvars)]
        l[pivot] = lp
    # verify
    form = poly_const(c)
    for i, li in enumerate(l):
        form = poly_add(form, poly_scale(li, poly_var(i)))
    square = poly_scale(Q(sign), poly_mul(form, form))
    if square != p:
        return None
    return sign, (c, *l)


# ---------------------------------------------------------------------------
# envelope certificates


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


def _escape_vector(g: LieAlgebra, m: Subspace, directions: tuple[int, ...],
                   d: int) -> tuple[list[Poly], int]:
    """Symbolic v = e_d + sum t_i e_(other dirs) + sum s_j m_j; returns (v, nvars)."""
    others = [x for x in directions if x != d]
    nvars = len(others) + m.dim
    v: list[Poly] = [dict() for _ in range(g.dim)]
    v[d] = poly_const(Q(1))
    for t, coord in enumerate(others):
        v[coord] = poly_add(v[coord], poly_var(t))
    for jdx, row in enumerate(m.rows):
        var = poly_var(len(others) + jdx)
        for coord, c in enumerate(row):
            if c != 0:
                v[coord] = poly_add(v[coord], poly_scale(c, var))
    return v, nvars


def _double_bracket(g: LieAlgebra, probe: Vec, v: list[Poly]) -> list[Poly]:
    p_sym = [poly_const(c) for c in probe]
    inner = sym_bracket(g, p_sym, v)
    return sym_bracket(g, v, inner)


def build_envelope_certificate(
    s: SymplecticLieAlgebra,
    m: Subspace | None = None,
    probes: list[Vec] | None = None,
) -> EnvelopeCertificate | None:
    """Certify that every abelian ideal is contained in m.

    For each escape direction the double bracket [v, [p, v]] of a symbolic
    vector with unit coefficient there must have a coordinate polynomial with
    no real zero, or a jointly infeasible family of affine squares.
    """
    g = s.algebra
    if m is None:
        m = abelian_envelope_candidate(g)
        if m is None:
            return None
    flags = subspace_algebra_flags(g, m)
    if not (flags.is_ideal and flags.is_abelian):
        return None
    directions = tuple(
        j for j in range(g.dim) if j not in set(m.pivots)
    )
    if probes is None:
        probes = [g.basis_vector(i) for i in range(g.dim)]
    witnesses = []
    for d in directions:
        v, nvars = _escape_vector(g, m, directions, d)
        found: DirectionWitness | None = None
        square_pool: list[tuple[Vec, int]] = []
        square_forms: list[tuple[Fraction, ...]] = []
        for probe in probes:
            qvec = _double_bracket(g, probe, v)
            for coord in range(g.dim):
                p = qvec[coord]
                if not p:
                    continue
                if poly_never_zero(p, nvars):
                    found = DirectionWitness(d, (probe, coord), None)
                    break
                sq = poly_as_affine_square(p, nvars)
                if sq is not None:
                    square_pool.append((probe, coord))
                    square_forms.append(sq[1])
            if found:
                break
        if not found and square_forms and _affine_system_infeasible(square_forms, nvars):
            found = DirectionWitness(d, None, tuple(square_pool))
        if not found:
            return None
        witnesses.append(found)
    rep = isotropy_report(s, m)
    return EnvelopeCertificate(m, directions, tuple(witnesses), rep.nondegenerate)


def _affine_system_infeasible(forms: list[tuple[Fraction, ...]], nvars: int) -> bool:
    """No common real zero of the affine forms (c, l_1..l_n)."""
    rows = [form[1:] for form in forms]
    rhs = [-form[0] for form in forms]
    res = solve_linear(Matrix.from_rows(rows, nvars), tuple(rhs))
    return res.particular is None


def verify_no_abelian_escape(s: SymplecticLieAlgebra, cert: EnvelopeCertificate) -> bool:
    """Re-run the symbolic computation stored in the certificate."""
    g = s.algebra
    flags = subspace_algebra_flags(g, cert.m)
    if not (flags.is_ideal and flags.is_abelian):
        return False
    expected_dirs = tuple(j for j in range(g.dim) if j not in set(cert.m.pivots))
    if expected_dirs != cert.directions:
        return False
    for witness in cert.witnesses:
        v, nvars = _escape_vector(g, cert.m, cert.directions, witness.direction)
        if witness.single is not None:
            probe, coord = witness.single
            qvec = _double_bracket(g, probe, v)
            if not poly_never_zero(qvec[coord], nvars):
                return False
        elif witness.squares is not None:
            forms = []
            for probe, coord in witness.squares:
                qvec = _double_bracket(g, probe, v)
                sq = poly_as_affine_square(qvec[coord], nvars)
                if sq is None:
                    return False
                forms.append(sq[1])
            if not _affine_system_infeasible(forms, nvars):
                return False
        else:
            return False
    return True


def abelian_envelope_candidate(g: LieAlgebra) -> Subspace | None:
    """The centralizer of the commutator ideal, when it is an abelian ideal."""
    from .liealg import centralizer

    if g.dim == 0:
        return Subspace.zero(0)
    derived = bracket_span(g, Subspace.full(g.dim), Subspace.full(g.dim))
    cand = centralizer(g, derived)
    flags = subspace_algebra_flags(g, cand)
    if flags.is_ideal and flags.is_abelian:
        return cand
    if flags.is_abelian and not flags.is_ideal:
        return None
    # fall back to the centralizer of the whole algebra (the center) extended
    return None


# ---------------------------------------------------------------------------
# invariant-subspace trap


@dataclass(frozen=True)
class InvariantTrap:
    m: Subspace
    components: tuple[Subspace, ...]  # in ambient coordinates
    ideals: tuple[Subspace, ...]  # every ideal of g inside m


def _restrict(op: Matrix, sub: Subspace, ambient_rows: tuple[Vec, ...]) -> Matrix | None:
    """Matrix of op on sub in its RREF basis; None if sub is not op-invariant."""
    basis = Matrix(sub.rows, len(sub.rows[0])).transpose() if sub.rows else None
    cols = []
    for r in sub.rows:
        img = op.matvec(r)
        res = solve_linear(basis, img)
        if res.particular is None:
            return None
        cols.append(res.particular)
    return Matrix(tuple(cols), sub.dim).transpose() if sub.dim else Matrix((), 0)


def _poly_divide(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    num = list(num)
    out = [Q(0)] * (len(num) - len(den) + 1)
    while len(num) >= len(den) and any(x != 0 for x in num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) < len(den):
            break
        shift = len(num) - len(den)
        f = num[-1] / den[-1]
        out[shift] = f
        for i, d in enumerate(den):
            num[shift + i] -= f * d
    while num and num[-1] == 0:
        num.pop()
    return out, num


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
            quo, rem = _poly_divide(rest, [-r, Q(1)])
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
    vecs = []
    for r in sub_coords.rows:
        v = list(vzero(parent.ambient))
        for c, row in zip(r, parent.rows):
            if c != 0:
                for t, x in enumerate(row):
                    v[t] += c * x
        vecs.append(tuple(v))
    return Subspace.span(parent.ambient, vecs)


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
    flags = subspace_algebra_flags(g, m)
    if not flags.is_ideal:
        return None
    # adjoint operators restricted to m, keeping a pairwise commuting family
    ops: list[Matrix] = []
    for i in range(g.dim):
        op = g.ad(g.basis_vector(i))
        rop = _restrict(op, m, m.rows)
        if rop is None or rop.is_zero():
            continue
        if all(rop.mul(o).sub(o.mul(rop)).is_zero() for o in ops):
            ops.append(rop)
    ops = ops + [o.mul(o) for o in ops]
    comps = [Subspace.full(m.dim)]
    for op in ops:
        new_comps: list[Subspace] = []
        for comp in comps:
            rop = _restrict(op, comp, comp.rows) if comp.dim else None
            if comp.dim == 0:
                continue
            if rop is None:
                return None
            split = _split_by_operator(comp, rop)
            if split is None:
                new_comps.append(comp)
            else:
                new_comps.extend(_to_ambient(p, comp) for p in split)
        comps = new_comps
    ok_comps = []
    for comp in comps:
        rops = []
        for op in ops:
            rop = _restrict(op, comp, comp.rows)
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
        if subspace_algebra_flags(g, total).is_ideal:
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
    a = bracket_span(g, Subspace.full(g.dim), Subspace.full(g.dim))
    fa = subspace_algebra_flags(g, a)
    if a.dim == 0 or not (fa.is_ideal and fa.is_abelian):
        return None
    from .symplectic import omega_orthogonal

    h = omega_orthogonal(s, a)
    fh = subspace_algebra_flags(g, h)
    if not (fh.is_subalgebra and fh.is_abelian):
        return None
    if a.sum(h).dim != g.dim or not a.intersect(h).is_zero():
        return None
    if not center(g).is_zero():
        return None
    # split a into 2-dimensional blocks under the commuting h action
    h_ops = [g.ad(hb) for hb in h.rows]
    rops = []
    for op in h_ops:
        rop = _restrict(op, a, a.rows)
        if rop is None:
            return None
        rops.append(rop)
    if any(not x.mul(y).sub(y.mul(x)).is_zero() for x in rops for y in rops):
        return None
    comps = [Subspace.full(a.dim)]
    # squares of the basis operators and of their pairwise sums: characters
    # differing only in per-coordinate sign patterns still get separated
    splitters = [o.mul(o) for o in rops]
    for x, y in itertools.combinations(rops, 2):
        total = x.add(y)
        splitters.append(total.mul(total))
    for op in splitters:
        new_comps = []
        for comp in comps:
            rop = _restrict(op, comp, comp.rows)
            if rop is None:
                return None
            split = _split_by_operator(comp, rop)
            if split is None:
                new_comps.append(comp)
            else:
                new_comps.extend(_to_ambient(p, comp) for p in split)
        comps = new_comps
    if any(c.dim != 2 for c in comps):
        return None
    # each block must carry a common complex structure scaled by characters
    characters = []
    for comp in comps:
        jmat = None
        lam = []
        for rop in rops:
            m2 = _restrict(rop, comp, comp.rows)
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
            gram = Matrix.from_rows(
                [[s.pair(x, y) for y in total.rows] for x in total.rows], total.dim
            )
            if gram.det() == 0:
                return None
    return IrreducibleStructureCertificate(a, h, tuple(ambient_blocks), tuple(characters))
