"""Test-only oracles: the pair-by-pair formulas the package used to compute
derived two-forms, kept here to check ``exactla.derive_form``,
``exactla.gram`` and their callers against; and the Fraction forms of the
bracket span, the series, the center, the centralizer, the Killing radical,
the Jacobi defect and the closedness check, to check the integer constants
against; the envelope certificate on Fraction polynomial dicts
(``sym_bracket_oracle`` and ``double_bracket_oracle``), to check its integer
quadratic forms against, with the semidefinite test as principal minors and
the previous per-direction certificate (``envelope_witnesses_oracle``), which
the current one must dominate; and the invariant-subspace trap without its
exit on nilpotent algebras; and the Fraction ω-orthogonal (one ``matvec``
per row, then a Fraction kernel) and the isotropy report built from it by
containment and intersection, to check the integer Gram matrix against.
Every kernel and intersection here is the Fraction one: ``kernel_oracle``
(free variables set to 1, read off the reduced rows) and
``intersect_oracle`` (the kernel of [A^T | -B^T]), so no oracle runs the
integer null space it checks.

``evaluate_oracle`` evaluates a cochain on vectors through determinants of
minors; the derived-form oracles loop over basis pairs and evaluate the form
once per term; the oxidation oracles evaluate the covector on brackets and
solve over the bracket rows.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from fractions import Fraction

from sympla.certificates import (
    InvariantTrap,
    _component_irreducible,
    _restrict,
    _split_components,
    _to_ambient,
)
from sympla.endoalg import EndoQuadraticData, SymplecticVectorSpace

from sympla.exactla import (
    DimensionMismatch,
    Matrix,
    Q,
    Subspace,
    Vec,
    combine,
    rational_sqrt,
    solve_linear,
    vec,
    vunit,
    vzero,
)
from sympla.liealg import (
    Cochain,
    LieAlgebra,
    SeriesChain,
    ValidationError,
    combos,
    is_derivation,
    is_ideal,
)
from sympla.oxidation import OxidationData
from sympla.symplectic import SymplecticLieAlgebra


def evaluate_oracle(c: Cochain, *args: Iterable) -> Vec:
    """c(v_1, ..., v_p) = sum over combos I of det(v_r[I]) c(e_I)."""
    if len(args) != c.degree:
        raise DimensionMismatch("wrong number of cochain arguments")
    vs = [vec(a) for a in args]
    out = list(vzero(c.module_dim))
    for combo in combos(c.dim, c.degree):
        coeff = Matrix.from_rows([[v[t] for t in combo] for v in vs], len(combo)).det() \
            if combo else Q(1)
        if coeff != 0:
            val = c.value_on_combo(combo)
            for t in range(c.module_dim):
                out[t] += coeff * val[t]
    return tuple(out)


def two_form_derive_oracle(g: LieAlgebra, alpha: Cochain, phi: Matrix) -> Cochain:
    if alpha.degree != 2 or alpha.module_dim != 1 or alpha.dim != g.dim:
        raise DimensionMismatch("expected a scalar two-form on g")
    if not is_derivation(g, phi):
        raise ValidationError("phi is not a derivation")
    values = {}
    for i, j in combos(g.dim, 2):
        ei, ej = g.basis_vector(i), g.basis_vector(j)
        a = evaluate_oracle(alpha, phi.matvec(ei), ej)
        b = evaluate_oracle(alpha, ei, phi.matvec(ej))
        values[(i, j)] = (a[0] + b[0],)
    return Cochain.from_values(2, g.dim, 1, values)


def quadratic_forms_oracle(space: SymplecticVectorSpace, phi: Matrix) -> EndoQuadraticData:
    n = space.dim
    phi2 = phi.mul(phi)
    alpha_vals, beta_vals = {}, {}
    for i, j in combos(n, 2):
        ei, ej = vunit(n, i), vunit(n, j)
        pi, pj = phi.matvec(ei), phi.matvec(ej)
        alpha_vals[(i, j)] = (space.pair(pi, ej) + space.pair(ei, pj),)
        beta_vals[(i, j)] = (
            space.pair(phi2.matvec(ei), ej)
            + 2 * space.pair(pi, pj)
            + space.pair(ei, phi2.matvec(ej)),
        )
    return EndoQuadraticData(
        phi,
        Cochain.from_values(2, n, 1, alpha_vals),
        Cochain.from_values(2, n, 1, beta_vals),
    )


def symplectic_endo_oracle(
    space: SymplecticVectorSpace, gens: list[Matrix]
) -> tuple[bool, tuple | None]:
    n = space.dim
    for a, b in itertools.combinations(range(len(gens)), 2):
        if not gens[a].mul(gens[b]).sub(gens[b].mul(gens[a])).is_zero():
            raise ValidationError("generators must commute")
    for a in range(len(gens)):
        for b in range(a, len(gens)):
            prod = gens[a].mul(gens[b])
            for i in range(n):
                for j in range(i + 1, n):
                    ei, ej = vunit(n, i), vunit(n, j)
                    s = space.pair(prod.matvec(ei), ej) \
                        + space.pair(gens[a].matvec(ei), gens[b].matvec(ej)) \
                        + space.pair(gens[b].matvec(ei), gens[a].matvec(ej)) \
                        + space.pair(ei, prod.matvec(ej))
                    if s != 0:
                        return False, ((a, b), (i, j))
    return True, None


def coboundary_condition_oracle(data: OxidationData) -> bool:
    g = data.base
    if not is_derivation(g, data.phi):
        return False
    alpha_phi = two_form_derive_oracle(g, data.alpha, data.phi)
    return all(alpha_phi.value_on_combo((i, j))[0]
               == evaluate_oracle(data.lam, g.bracket_basis(i, j))[0]
               for i, j in combos(g.dim, 2))


def obstruction_primitive_oracle(g: LieAlgebra, beta: Cochain) -> Vec | None:
    """lam with lam([e_i, e_j]) = beta(e_i, e_j), solved over the bracket rows."""
    n = g.dim
    pairs = combos(n, 2)
    if not pairs:
        return vzero(n)
    rows = tuple(g.bracket_basis(i, j) for i, j in pairs)
    return solve_linear(Matrix(rows, n), [beta.value_on_combo(c)[0] for c in pairs]).particular


def bracket_span_oracle(g: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    if a.ambient != g.dim or b.ambient != g.dim:
        raise DimensionMismatch("subspace ambient dimension mismatch")
    vecs = [g.bracket(x, y) for x in a.rows for y in b.rows]
    return Subspace.span(g.dim, vecs)


def descending_central_series_oracle(g: LieAlgebra) -> SeriesChain:
    full = Subspace.full(g.dim)
    terms = [full]
    while True:
        nxt = bracket_span_oracle(g, full, terms[-1])
        if nxt == terms[-1]:
            break
        terms.append(nxt)
        if nxt.is_zero():
            break
    return SeriesChain("descending-central", tuple(terms))


def derived_series_oracle(g: LieAlgebra) -> SeriesChain:
    terms = [Subspace.full(g.dim)]
    while True:
        nxt = bracket_span_oracle(g, terms[-1], terms[-1])
        if nxt == terms[-1]:
            break
        terms.append(nxt)
        if nxt.is_zero():
            break
    return SeriesChain("derived", tuple(terms))


def kernel_oracle(m: Matrix) -> tuple[Vec, ...]:
    """The canonical basis of the right null space from the Fraction RREF:
    one vector per free column f, 1 at f and minus the reduced rows' entries
    in column f at the pivots."""
    red, pivots = m.rref()
    basis = []
    for f in range(m.cols):
        if f not in pivots:
            v = [Q(0)] * m.cols
            v[f] = Q(1)
            for r, p in enumerate(pivots):
                v[p] = -red.rows[r][f]
            basis.append(tuple(v))
    return tuple(basis)


def intersect_oracle(a: Subspace, b: Subspace) -> Subspace:
    """A ∩ B as the Fraction kernel of [A^T | -B^T]: x = u^T A = v^T B."""
    if a.ambient != b.ambient:
        raise DimensionMismatch("ambient dimension mismatch")
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient)
    rows = [tuple(r[t] for r in a.rows) + tuple(-r[t] for r in b.rows) for t in range(a.ambient)]
    kernel = kernel_oracle(Matrix(tuple(rows), a.dim + b.dim))
    return Subspace.span(a.ambient, [combine(u[: a.dim], a.rows, a.ambient) for u in kernel])


def _quotient_functionals(n: int, sub: Subspace) -> list[Vec]:
    return list(kernel_oracle(Matrix(sub.rows, n)))


def ascending_central_series_oracle(g: LieAlgebra) -> SeriesChain:
    terms = [Subspace.zero(g.dim)]
    while True:
        cur = terms[-1]
        functionals = _quotient_functionals(g.dim, cur)
        rows = []
        for i in range(g.dim):
            adi = g.ad(g.basis_vector(i))
            for f in functionals:
                rows.append(adi.transpose().matvec(f))
        if not rows:
            nxt = Subspace.full(g.dim)
        else:
            nxt = Subspace.span(g.dim, kernel_oracle(Matrix(tuple(rows), g.dim)))
        if nxt == cur:
            break
        terms.append(nxt)
        if nxt.dim == g.dim:
            break
    return SeriesChain("ascending-central", tuple(terms))


def centralizer_oracle(g: LieAlgebra, s: Subspace) -> Subspace:
    if s.dim == 0:
        return Subspace.full(g.dim)
    stacked = None
    for x in s.rows:
        m = g.ad(x).neg()  # [v, x] = -ad(x) v
        stacked = m if stacked is None else stacked.stack(m)
    return Subspace.span(g.dim, kernel_oracle(stacked))


def center_oracle(g: LieAlgebra) -> Subspace:
    return centralizer_oracle(g, Subspace.full(g.dim))


def killing_radical_oracle(g: LieAlgebra) -> Subspace:
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
    return Subspace.span(g.dim, kernel_oracle(Matrix(tuple(rows), g.dim)))


def jacobi_defect_oracle(g: LieAlgebra, i: int, j: int, k: int) -> Vec:
    out = list(vzero(g.dim))
    nz = g.nonzero
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        for l, x in nz[a][b]:
            for m, y in nz[l][c]:
                out[m] += x * y
    return tuple(out)


def closedness_violations_oracle(g: LieAlgebra, omega: Matrix) -> list[tuple[int, int, int, Fraction]]:
    bad = []
    nz, w = g.nonzero, omega.rows
    for i, j, k in itertools.combinations(range(g.dim), 3):
        s = Q(0)
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for l, x in nz[a][b]:
                s += x * w[l][c]
        if s != 0:
            bad.append((i, j, k, s))
    return bad


# envelope certificates: quadratic polynomials in named parameters

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


def sym_bracket_oracle(g: LieAlgebra, u: list[Poly], v: list[Poly]) -> list[Poly]:
    out: list[Poly] = [{} for _ in range(g.dim)]
    for i in range(g.dim):
        if not u[i]:
            continue
        for j, entries in enumerate(g.nonzero[i]):
            if not (entries and v[j]):
                continue
            prod = poly_mul(u[i], v[j])
            for k, c in entries:
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


def semidefinite_oracle(form) -> bool:
    """S or -S has every principal minor nonnegative."""
    n = len(form)
    return any(_is_psd([[Q(sign * x) for x in row] for row in form], list(range(n)))
               for sign in (1, -1))


def hessian_oracle(p: Poly, nvars: int) -> Matrix:
    """The symmetric matrix H of a quadratic form p = t^T H t."""
    _, _, quad = _quadratic_parts(p, nvars)
    return Matrix.from_rows(quad, nvars)


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


def escape_vector_oracle(g: LieAlgebra, m: Subspace, directions: tuple[int, ...],
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


def double_bracket_oracle(g: LieAlgebra, probe: Vec, v: list[Poly]) -> list[Poly]:
    p_sym = [poly_const(c) for c in probe]
    inner = sym_bracket_oracle(g, p_sym, v)
    return sym_bracket_oracle(g, v, inner)


def affine_system_infeasible_oracle(forms: list[tuple[Fraction, ...]], nvars: int) -> bool:
    """No common real zero of the affine forms (c, l_1..l_n)."""
    rows = [form[1:] for form in forms]
    rhs = [-form[0] for form in forms]
    res = solve_linear(Matrix.from_rows(rows, nvars), tuple(rhs))
    return res.particular is None


def envelope_witnesses_oracle(g: LieAlgebra, m: Subspace) -> tuple | None:
    """The (direction, single, squares) witnesses of the envelope certificate
    on m, probing with the basis vectors, or None where a direction fails."""
    directions = tuple(j for j in range(g.dim) if j not in set(m.pivots))
    probes = [g.basis_vector(i) for i in range(g.dim)]
    witnesses = []
    for d in directions:
        v, nvars = escape_vector_oracle(g, m, directions, d)
        found = None
        square_pool: list[tuple[Vec, int]] = []
        square_forms: list[tuple[Fraction, ...]] = []
        for probe in probes:
            qvec = double_bracket_oracle(g, probe, v)
            for coord in range(g.dim):
                p = qvec[coord]
                if not p:
                    continue
                if poly_never_zero(p, nvars):
                    found = (d, (probe, coord), None)
                    break
                sq = poly_as_affine_square(p, nvars)
                if sq is not None:
                    square_pool.append((probe, coord))
                    square_forms.append(sq[1])
            if found:
                break
        if not found and square_forms and affine_system_infeasible_oracle(square_forms, nvars):
            found = (d, None, tuple(square_pool))
        if not found:
            return None
        witnesses.append(found)
    return tuple(witnesses)


def invariant_ideal_trap_oracle(s: SymplecticLieAlgebra, m: Subspace) -> InvariantTrap | None:
    """``certificates.invariant_ideal_trap`` without its early exit on
    nilpotent algebras."""
    g = s.algebra
    if not is_ideal(g, m):
        return None
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
    for comp in comps:
        rops = [rop for rop in (_restrict(op, comp) for op in ops) if rop is not None]
        if not _component_irreducible(comp.dim, rops):
            return None
    if len(comps) > 12:
        return None
    ambient_comps = [_to_ambient(c, m) for c in comps]
    ideals = []
    for mask in range(1 << len(ambient_comps)):
        total = Subspace.zero(g.dim)
        for t, comp in enumerate(ambient_comps):
            if mask & (1 << t):
                total = total.sum(comp)
        if is_ideal(g, total):
            ideals.append(total)
    return InvariantTrap(m, tuple(ambient_comps), tuple(ideals))


def omega_orthogonal_oracle(s: SymplecticLieAlgebra, w: Subspace) -> Subspace:
    if w.dim == 0:
        return Subspace.full(w.ambient)
    rows = tuple(s.omega.matvec(x) for x in w.rows)
    return Subspace.span(w.ambient, kernel_oracle(Matrix(rows, w.ambient)))


def isotropy_report_oracle(s: SymplecticLieAlgebra, w: Subspace) -> tuple:
    """(isotropic, coisotropic, lagrangian, nondegenerate, corank) of w."""
    perp = omega_orthogonal_oracle(s, w)
    isotropic = perp.contains(w)
    corank = (perp.dim - w.dim) // 2 if isotropic else None
    return (isotropic, w.contains(perp), isotropic and corank == 0,
            intersect_oracle(w, perp).is_zero(), corank)
