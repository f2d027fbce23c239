"""Central and symplectic oxidation.

Builds an (n+2)-dimensional algebra span{xi} + g + span{H} from a derivation
phi, a closed two-form alpha and a covector lam, and recovers the data from a
one-dimensional central reduction.  H is always central; the bracket is

    [v, w]  = [v, w]_base + alpha(v, w) H
    [xi, v] = phi(v) + lam(v) H.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactla import Matrix, Q, Subspace, Vec, vec
from .liealg import (
    Cochain,
    LieAlgebra,
    ValidationError,
    center,
    combos,
    coboundary_apply,
    is_derivation,
    jacobi_defect,
    matrix_as_two_form,
    trivial_rep,
    two_form_as_matrix,
    two_form_derive,
    validate_jacobi,
)
from .symplectic import SymplecticLieAlgebra, validate_symplectic


@dataclass(frozen=True)
class OxidationData:
    base: LieAlgebra
    phi: Matrix
    alpha: Cochain  # scalar two-form on the base
    lam: Cochain  # scalar one-form on the base
    omega_bar: Matrix | None = None

    def __post_init__(self):
        n = self.base.dim
        if self.phi.nrows != n or self.phi.cols != n:
            raise ValidationError("phi must be square of the base dimension")
        if (self.alpha.degree, self.alpha.dim, self.alpha.module_dim) != (2, n, 1):
            raise ValidationError("alpha must be a scalar two-form on the base")
        if (self.lam.degree, self.lam.dim, self.lam.module_dim) != (1, n, 1):
            raise ValidationError("lam must be a covector on the base")


def coboundary_condition_holds(data: OxidationData) -> bool:
    """alpha_phi(v, w) = lam([v, w]) on all basis pairs."""
    g = data.base
    if not is_derivation(g, data.phi):
        return False
    alpha_phi = two_form_derive(g, data.alpha, data.phi)
    for i, j in combos(g.dim, 2):
        lhs = alpha_phi.value_on_combo((i, j))[0]
        rhs = data.lam.evaluate(g.bracket_basis(i, j))[0]
        if lhs != rhs:
            return False
    return True


def central_oxidation(data: OxidationData) -> LieAlgebra:
    g = data.base
    n = g.dim
    if not is_derivation(g, data.phi):
        raise ValidationError("phi is not a derivation of the base")
    d_alpha = coboundary_apply(trivial_rep(g), data.alpha)
    if not d_alpha.is_zero():
        raise ValidationError("alpha is not closed")
    labels = ("xi",) + tuple(g.labels) + ("H",)
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i, j in combos(n, 2):
        entry = {1 + k: c for k, c in enumerate(g.bracket_basis(i, j)) if c != 0}
        a = data.alpha.value_on_combo((i, j))[0]
        if a != 0:
            entry[n + 1] = a
        if entry:
            brackets[(1 + i, 1 + j)] = entry
    for j in range(n):
        col = data.phi.col(j)
        entry = {1 + k: c for k, c in enumerate(col) if c != 0}
        lv = data.lam.value_on_combo((j,))[0]
        if lv != 0:
            entry[n + 1] = lv
        if entry:
            brackets[(0, 1 + j)] = entry
    ox = LieAlgebra.from_brackets(labels, brackets)
    report = validate_jacobi(ox)
    if not report.ok:
        i, j, k, d = report.violations[0]
        raise ValidationError(
            f"coboundary condition fails: Jacobi witness triple ({i}, {j}, {k})",
            (i, j, k, d),
        )
    return ox


def symplectic_oxidation(data: OxidationData) -> SymplecticLieAlgebra:
    if data.omega_bar is None:
        raise ValidationError("symplectic oxidation needs the base symplectic form")
    g = data.base
    base_symp = validate_symplectic(g, data.omega_bar)
    derived = two_form_derive(g, matrix_as_two_form(data.omega_bar), data.phi)
    if derived.coords != data.alpha.coords:
        raise ValidationError("alpha must equal the phi-derivative of the base form")
    ox = central_oxidation(data)
    n = g.dim
    rows = [[Q(0)] * (n + 2) for _ in range(n + 2)]
    rows[0][n + 1] = Q(1)
    rows[n + 1][0] = Q(-1)
    for i in range(n):
        for j in range(n):
            rows[1 + i][1 + j] = data.omega_bar.rows[i][j]
    omega = Matrix.from_rows(rows, n + 2)
    result = validate_symplectic(ox, omega)
    _check_reduces_to_base(result, data)
    return result


def _check_reduces_to_base(s: SymplecticLieAlgebra, data: OxidationData) -> None:
    """Reducing by the attached central line must return the base exactly."""
    from .reduction import reduce as reduce_step
    from .exactla import Subspace, vunit

    n = s.dim
    step = reduce_step(s, Subspace.span(n, [vunit(n, n - 1)]))
    if step.reduced.algebra.table != data.base.table \
            or step.reduced.omega.rows != data.omega_bar.rows:
        raise ValidationError("oxidation does not reduce back to its base")


@dataclass(frozen=True)
class ObstructionReport:
    beta: Cochain  # the second derived two-form
    vanishes_in_h2: bool
    primitive: Cochain | None  # lam with d lam = -beta, when it exists


def oxidation_obstruction(g: LieAlgebra, omega_bar: Matrix, phi: Matrix) -> ObstructionReport:
    """Class of the second derived form; its vanishing permits symplectic oxidation."""
    if not is_derivation(g, phi):
        raise ValidationError("phi is not a derivation")
    alpha = two_form_derive(g, matrix_as_two_form(omega_bar), phi)
    beta = two_form_derive(g, alpha, phi)
    # solve d lam = -beta over covectors, i.e. lam([e_i, e_j]) = beta(e_i, e_j)
    n = g.dim
    rows = []
    rhs = []
    for i, j in combos(n, 2):
        rows.append(g.bracket_basis(i, j))
        rhs.append(beta.value_on_combo((i, j))[0])
    from .exactla import solve_linear

    if rows:
        res = solve_linear(Matrix(tuple(rows), n), tuple(rhs))
        sol = res.particular
    else:
        sol = tuple()
        res = None
    if sol is None:
        return ObstructionReport(beta, False, None)
    lam = Cochain.from_values(1, n, 1, {(i,): (sol[i],) for i in range(n)}) \
        if n else Cochain.zero(1, 0, 1)
    return ObstructionReport(beta, True, lam)


def recover_oxidation_data(
    s: SymplecticLieAlgebra, h_vec, xi_vec
) -> tuple[OxidationData, tuple[Vec, ...]]:
    """Oxidation data of a marked central line, plus the chosen base lift rows.

    h_vec spans a central isotropic line and xi_vec satisfies omega(xi, H) != 0;
    xi is rescaled so the pairing is one.  Returns the data over the canonical
    basis of W = {v : omega(v, xi) = omega(v, H) = 0}.
    """
    g = s.algebra
    h = vec(h_vec)
    xi = vec(xi_vec)
    if not center(g).contains_vector(h):
        raise ValidationError("marked vector is not central")
    pairing = s.pair(xi, h)
    if pairing == 0:
        raise ValidationError("xi must pair non-trivially with H")
    xi = tuple(x / pairing for x in xi)
    n = g.dim
    constraints = Matrix((s.omega.matvec(xi), s.omega.matvec(h)), n)
    w = Subspace.span(n, constraints.kernel_basis())
    assert w.dim == n - 2
    w_rows = w.rows
    basis = Matrix((xi,) + w_rows + (h,), n).transpose()

    def coords(v: Vec) -> Vec:
        from .exactla import solve_linear

        res = solve_linear(basis, v)
        assert res.particular is not None
        return res.particular

    m = n - 2
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    alpha_vals: dict[tuple[int, ...], Vec] = {}
    for i, j in combos(m, 2):
        c = coords(g.bracket(w_rows[i], w_rows[j]))
        if c[0] != 0:
            raise ValidationError("[W, W] escapes the orthogonal of H")
        entry = {k: c[1 + k] for k in range(m) if c[1 + k] != 0}
        if entry:
            brackets[(i, j)] = entry
        alpha_vals[(i, j)] = (c[m + 1],)
    base = LieAlgebra.from_brackets(tuple(f"b{i+1}" for i in range(m)), brackets)
    phi_cols = []
    lam_vals: dict[tuple[int, ...], Vec] = {}
    for j in range(m):
        c = coords(g.bracket(xi, w_rows[j]))
        if c[0] != 0:
            raise ValidationError("[xi, W] escapes the orthogonal of H")
        phi_cols.append(c[1: 1 + m])
        lam_vals[(j,)] = (c[m + 1],)
        # cross-check the pairing formula for lam
        assert c[m + 1] == s.pair(xi, g.bracket(xi, w_rows[j]))
    phi = Matrix(tuple(phi_cols), m).transpose()
    alpha = Cochain.from_values(2, m, 1, alpha_vals)
    lam = Cochain.from_values(1, m, 1, lam_vals)
    omega_bar = Matrix.from_rows(
        [[s.pair(w_rows[a], w_rows[b]) for b in range(m)] for a in range(m)], m
    ) if m else Matrix((), 0)
    data = OxidationData(base, phi, alpha, lam, omega_bar)
    return data, w_rows
