"""Symplectic reduction with respect to isotropic ideals.

Covers the single reduction step j^perp / j, extraction of normal-reduction
data (quotient flat algebra, representing derivations, extension cochains),
lifting and projection of isotropic subalgebras, reduction sequences and
the invariant fingerprint of an irreducible base.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .exactla import (
    DimensionMismatch,
    Matrix,
    Q,
    Subspace,
    Vec,
    combine,
    coordinates,
    derive_form,
    gram,
    is_invariant,
    vec,
    vunit,
)
from .liealg import (
    Cochain,
    Connection,
    LieAlgebra,
    ValidationError,
    brackets_within,
    center,
    combos,
    descending_central_series,
    derived_series,
    ascending_central_series,
    is_flat,
    is_ideal,
    is_torsion_free,
    trivial_rep,
    cohomology_space,
)
from .symplectic import (
    IsotropicDecomposition,
    SymplecticError,
    SymplecticLieAlgebra,
    _isotropic_decomposition,
    dual_rows,
    induced_connection,
    isotropy_report,
    omega_orthogonal,
    validate_symplectic,
)


@dataclass(frozen=True)
class ReductionStep:
    parent: SymplecticLieAlgebra
    ideal: Subspace
    kind: str  # plain | normal | central | lagrangian | codim1normal
    reduced: SymplecticLieAlgebra
    decomposition: IsotropicDecomposition

    @property
    def w_rows(self) -> tuple[Vec, ...]:
        return self.decomposition.w.rows

    def lift_vector(self, bar_v: Iterable) -> Vec:
        """Representative in the parent of a reduced-coordinates vector."""
        return combine(vec(bar_v), self.w_rows, self.parent.dim)

    def project_vector(self, v: Iterable) -> Vec:
        """Class of a vector of j^perp in the reduced coordinates (W basis)."""
        c = coordinates(self.w_rows + self.decomposition.j_rows, v)
        if c is None:
            raise ValidationError("vector is not in the orthogonal of the ideal")
        return c[: len(self.w_rows)]

    def lift_subspace(self, sub: Subspace, include_ideal: bool = True) -> Subspace:
        vecs = [self.lift_vector(r) for r in sub.rows]
        if include_ideal:
            vecs.extend(self.decomposition.j_rows)
        return Subspace.span(self.parent.dim, vecs)

    def project_subspace(self, sub: Subspace) -> Subspace:
        inter = sub.intersect(self.decomposition.j_perp)
        return Subspace.span(self.reduced.dim,
                             [self.project_vector(r) for r in inter.rows])


def classify_ideal(s: SymplecticLieAlgebra, j: Subspace, perp: Subspace | None = None) -> str:
    """The kind of an isotropic ideal j; perp, when given, is j^perp."""
    g = s.algebra
    if j.dim * 2 == g.dim:
        return "lagrangian"
    if center(g).contains(j):
        return "central"
    if perp is None:
        perp = omega_orthogonal(s, j)
    if brackets_within(g, perp, j, Subspace.zero(g.dim)):
        return "codim1normal" if j.dim == 1 else "normal"
    return "plain"


def reduce(s: SymplecticLieAlgebra, j: Subspace) -> ReductionStep:
    """Symplectic reduction (j^perp / j, induced omega) for an isotropic ideal j."""
    g = s.algebra
    if not is_ideal(g, j):
        raise ValidationError("reduction requires an ideal")
    if not isotropy_report(s, j).isotropic:
        raise SymplecticError("reduction requires an isotropic ideal")
    dec = _isotropic_decomposition(s, j)
    w_rows = dec.w.rows
    m = len(w_rows)
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for a in range(m):
        for b in range(a + 1, m):
            coords = coordinates(w_rows + dec.j_rows, g.bracket(w_rows[a], w_rows[b]))
            if coords is None:
                raise ValidationError("bracket escaped the orthogonal of the ideal")
            entry = {k: c for k, c in enumerate(coords[:m]) if c != 0}
            if entry:
                brackets[(a, b)] = entry
    labels = tuple(f"r{i+1}" for i in range(m))
    reduced_alg = LieAlgebra.from_brackets(labels, brackets)
    reduced = validate_symplectic(reduced_alg, gram(s.omega, w_rows, w_rows))
    return ReductionStep(s, j, classify_ideal(s, j, dec.j_perp), reduced, dec)


# ---------------------------------------------------------------------------
# normal reduction data


@dataclass(frozen=True)
class NormalReductionData:
    """Data of a reduction with respect to a normal isotropic ideal.

    h is the quotient by j^perp on the N basis classes; omega_h is the pairing
    matrix omega(n_i, a_j) (the identity for decompositions produced here);
    phi[r] is the induced derivation of the reduced algebra for the r-th N
    basis vector; alpha and mu are the extension cochains and lam[r] collects
    the Hom(h, j) valued one-cochain.
    """

    step: ReductionStep
    h: LieAlgebra
    nabla_bar: Connection
    omega_h: Matrix
    phi: tuple[Matrix, ...]
    alpha: Cochain  # degree 2 on reduced, values in j coordinates
    lam: tuple[Matrix, ...]  # lam[r]: reduced dim -> j coords, for n_r
    mu: Cochain  # degree 2 on h, values in reduced coordinates


@dataclass(frozen=True)
class FlatQuotient:
    """h = g / j^perp with its pairing against j and the induced connection."""

    h: LieAlgebra
    nabla_bar: Connection
    omega_h: Matrix
    n_rows: tuple[Vec, ...]  # transversal representatives dual to the j basis


def quotient_flat_structure(s: SymplecticLieAlgebra, j: Subspace) -> FlatQuotient:
    """Quotient flat Lie algebra of any normal ideal ([j^perp, j] = 0).

    The ideal need not be isotropic; taking j = g reproduces the canonical
    flat connection of the symplectic algebra.
    """
    g = s.algebra
    if not is_ideal(g, j):
        raise ValidationError("quotient flat structure requires an ideal")
    perp = omega_orthogonal(s, j)
    if not brackets_within(g, perp, j, Subspace.zero(g.dim)):
        raise ValidationError("normal ideal criterion [j^perp, j] = 0 fails")
    return _flat_quotient(s, dual_rows(s, j.rows), j.rows, perp.rows)


def _flat_quotient(s: SymplecticLieAlgebra, n_rows: tuple[Vec, ...],
                   a_rows: tuple[Vec, ...], perp_rows: tuple[Vec, ...]) -> FlatQuotient:
    """h on the classes of n_rows modulo span(perp_rows) = j^perp, paired with a_rows."""
    g = s.algebra
    k = len(n_rows)
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for a, b in combos(k, 2):
        c = coordinates(n_rows + perp_rows, g.bracket(n_rows[a], n_rows[b]))
        if c is None:
            raise ValidationError("transversal and orthogonal do not span the algebra")
        entry = {t: x for t, x in enumerate(c[:k]) if x != 0}
        if entry:
            brackets[(a, b)] = entry
    h = LieAlgebra.from_brackets(tuple(f"h{i+1}" for i in range(k)), brackets)
    omega_h, nabla_bar = induced_connection(s, h, n_rows, a_rows)
    if not (is_flat(nabla_bar) and is_torsion_free(nabla_bar)):
        raise ValidationError("induced quotient connection failed to be flat")
    _check_omega_h_cocycle(s, g, n_rows, a_rows, omega_h, h)
    return FlatQuotient(h, nabla_bar, omega_h, n_rows)


def normal_reduction_data(
    s: SymplecticLieAlgebra, j: Subspace, step: ReductionStep | None = None
) -> NormalReductionData:
    """Normal reduction data of j; step, when given, is the reduction of s by j."""
    g = s.algebra
    perp = omega_orthogonal(s, j)
    if not brackets_within(g, perp, j, Subspace.zero(g.dim)):
        raise ValidationError("normal reduction requires [j^perp, j] = 0")
    if step is None:
        step = reduce(s, j)
    elif step.parent != s or step.ideal != j:
        raise ValidationError("reduction step does not reduce this algebra by this ideal")
    dec = step.decomposition
    n_rows, w_rows, j_rows = dec.n_rows, dec.w.rows, dec.j_rows
    k, m = len(n_rows), len(w_rows)

    quotient = _flat_quotient(s, n_rows, j_rows, w_rows + j_rows)
    mu_values = {(a, b): dec.split(g.bracket(n_rows[a], n_rows[b]))[1]
                 for a, b in combos(k, 2)}
    mu = Cochain.from_values(2, k, m, mu_values)
    # representing derivations, lambda and alpha
    phi_mats = []
    lam_mats = []
    for r in range(k):
        cols_w, cols_j = [], []
        for b in range(m):
            n_part, w_part, j_part = dec.split(g.bracket(n_rows[r], w_rows[b]))
            if any(c != 0 for c in n_part):
                raise ValidationError("[N, W] escaped j^perp; ideal is not normal")
            cols_w.append(w_part)
            cols_j.append(j_part)
        phi_mats.append(Matrix(tuple(cols_w), m).transpose())
        lam_mats.append(Matrix(tuple(cols_j), k).transpose())
    alpha_values = {(a, b): dec.split(g.bracket(w_rows[a], w_rows[b]))[2]
                    for a, b in combos(m, 2)}
    alpha = Cochain.from_values(2, m, k, alpha_values)

    data = NormalReductionData(step, quotient.h, quotient.nabla_bar, quotient.omega_h,
                               tuple(phi_mats), alpha, tuple(lam_mats), mu)
    _check_cocycle_relations(s, data)
    if step.kind in ("central", "lagrangian") and center(g).contains(j):
        _check_central_conditions(s, data)
    return data


def _check_omega_h_cocycle(s, g, n_rows, j_rows, omega_h, h):
    """One-cocycle identity for the pairing, equivalent to closedness of omega."""
    k = len(n_rows)
    for a in range(k):
        for b in range(k):
            for t in range(k):
                lhs = -s.pair(n_rows[b], g.bracket(n_rows[a], j_rows[t])) \
                    + s.pair(n_rows[a], g.bracket(n_rows[b], j_rows[t])) \
                    - s.pair(g.bracket(n_rows[a], n_rows[b]), j_rows[t])
                if lhs != 0:
                    raise ValidationError("pairing one-cocycle identity failed")


def _check_cocycle_relations(s: SymplecticLieAlgebra, data: NormalReductionData):
    """Compatibility identities tying alpha, mu and lambda to the reduced form."""
    red = data.step.reduced
    k = data.h.dim
    m = red.dim
    derived = [derive_form(red.omega, phi).rows for phi in data.phi]
    for u in range(m):
        for v in range(u + 1, m):
            aval = data.alpha.value_on_combo((u, v))
            for r in range(k):
                lhs = sum((data.omega_h.rows[r][t] * aval[t] for t in range(k)), Q(0))
                if lhs != derived[r][u][v]:
                    raise ValidationError("alpha/phi compatibility identity failed")
    for a in range(k):
        for b in range(a + 1, k):
            muval = data.mu.value_on_combo((a, b))
            for u in range(m):
                lhs = red.pair(muval, vunit(m, u))
                lam_a = data.lam[a].matvec(vunit(m, u))
                lam_b = data.lam[b].matvec(vunit(m, u))
                rhs = _pair_h(data.omega_h, a, lam_b) - _pair_h(data.omega_h, b, lam_a)
                if lhs != rhs:
                    raise ValidationError("mu/lambda compatibility identity failed")


def _check_central_conditions(s: SymplecticLieAlgebra, data: NormalReductionData):
    """For central ideals: the quadratic compatibility of phi with the reduced form.

    omega_h(n_a, lam_b([u, v])) must equal D_b(D_a omega)(u, v), D_a the
    phi_a-derivative; the order matters when phi_a and phi_b do not commute.
    """
    red = data.step.reduced
    k, m = data.h.dim, red.dim
    for a in range(k):
        first = derive_form(red.omega, data.phi[a])
        for b in range(k):
            quad = derive_form(first, data.phi[b]).rows
            for u in range(m):
                for v in range(m):
                    lam_b = data.lam[b].matvec(red.algebra.bracket_basis(u, v))
                    if _pair_h(data.omega_h, a, lam_b) != quad[u][v]:
                        raise ValidationError("central quadratic compatibility failed")


def _pair_h(omega_h: Matrix, r: int, j_coords: Vec) -> Fraction:
    return sum((omega_h.rows[r][t] * j_coords[t] for t in range(len(j_coords))), Q(0))


# ---------------------------------------------------------------------------
# lifting and projection


def transfer_isotropic(step: ReductionStep, sub: Subspace, direction: str) -> Subspace:
    if direction == "lift":
        if sub.ambient != step.reduced.dim:
            raise DimensionMismatch("subspace must live in the reduced algebra")
        if not (brackets_within(step.reduced.algebra, sub, sub, sub)
                and isotropy_report(step.reduced, sub).isotropic):
            raise ValidationError("lift requires an isotropic subalgebra of the reduction")
        lifted = step.lift_subspace(sub)
        if not isotropy_report(step.parent, lifted).isotropic:
            raise ValidationError("lift of an isotropic subalgebra is not isotropic: "
                                  + _pairing_witness(step.parent, lifted))
        return lifted
    if direction == "project":
        if sub.ambient != step.parent.dim:
            raise DimensionMismatch("subspace must live in the parent algebra")
        rep = isotropy_report(step.parent, sub)
        if not (brackets_within(step.parent.algebra, sub, sub, sub) and rep.isotropic):
            raise ValidationError("projection requires an isotropic subalgebra")
        projected = step.project_subspace(sub)
        prep = isotropy_report(step.reduced, projected)
        if not prep.isotropic:
            raise ValidationError("projection of an isotropic subalgebra is not isotropic: "
                                  + _pairing_witness(step.reduced, projected))
        if prep.corank > rep.corank:
            raise ValidationError(f"projection raised the corank from {rep.corank} "
                                  f"to {prep.corank}")
        return projected
    raise ValueError("direction must be 'lift' or 'project'")


def _pairing_witness(s: SymplecticLieAlgebra, sub: Subspace) -> str:
    """omega on two basis rows of a non-isotropic subspace that it pairs nontrivially."""
    form = gram(s.omega, sub.rows, sub.rows).rows
    i, j = next((i, j) for i, j in combos(sub.dim, 2) if form[i][j] != 0)
    u, v = sub.rows[i], sub.rows[j]
    return f"omega({[str(x) for x in u]}, {[str(x) for x in v]}) = {form[i][j]}"


def lifted_ideal_is_ideal(step: ReductionStep, sub: Subspace) -> bool:
    """Invariance criterion for lifting ideals through a normal reduction."""
    try:
        data = normal_reduction_data(step.parent, step.ideal, step)
    except ValidationError:
        return is_ideal(step.parent.algebra, step.lift_subspace(sub))
    invariant = is_invariant(sub, data.phi)
    direct = is_ideal(step.parent.algebra, step.lift_subspace(sub))
    if invariant != direct:
        raise ValidationError(
            f"invariance criterion ({invariant}) disagrees with the direct ideal check "
            f"({direct}) for the subspace {[[str(x) for x in r] for r in sub.rows]}")
    return direct


# ---------------------------------------------------------------------------
# reduction sequences


@dataclass(frozen=True)
class ReductionSequence:
    steps: tuple[ReductionStep, ...]
    nested_ideals: tuple[Subspace, ...]

    @property
    def base(self) -> SymplecticLieAlgebra:
        return self.steps[-1].reduced if self.steps else None  # type: ignore

    @property
    def length(self) -> int:
        return len(self.steps)


def run_reduction_sequence(s: SymplecticLieAlgebra, ideals: Sequence[Subspace]) -> ReductionSequence:
    """Execute a nested chain of isotropic subalgebras of the original algebra.

    Each entry must contain the previous one and be an ideal of the previous
    orthogonal; the step-i reduction uses its projection to the current
    reduced algebra.
    """
    steps: list[ReductionStep] = []
    nested: list[Subspace] = []
    current = s
    prev = Subspace.zero(s.dim)
    prev_perp = Subspace.full(s.dim)
    for idx, j in enumerate(ideals):
        if not j.contains(prev) or not prev_perp.contains(j):
            raise ValidationError(f"chain condition fails at step {idx}")
        if not brackets_within(s.algebra, prev_perp, j, j):
            raise ValidationError(f"step {idx}: not an ideal in the previous orthogonal")
        nested.append(j)
        bar_j = j
        for done in steps:
            bar_j = done.project_subspace(bar_j)
        step = reduce(current, bar_j)
        steps.append(step)
        current = step.reduced
        prev = j
        prev_perp = omega_orthogonal(s, j)
    return ReductionSequence(tuple(steps), tuple(nested))


def induced_sequence(
    s: SymplecticLieAlgebra, nested: Sequence[Subspace], i: Subspace
) -> list[Subspace]:
    """The chain i + (j_k ∩ i^perp) induced on the reduction by i."""
    iperp = omega_orthogonal(s, i)
    return [i.sum(j.intersect(iperp)) for j in nested]


# ---------------------------------------------------------------------------
# invariant fingerprint


def fingerprint(s: SymplecticLieAlgebra, rank_bounds: tuple[int, int | None] | None = None) -> tuple:
    g = s.algebra
    desc = descending_central_series(g).dims
    der = derived_series(g).dims
    asc = ascending_central_series(g).dims
    if g.dim:
        coh = cohomology_space(trivial_rep(g), 2)
        z2, b2 = coh.z_dim, coh.b_dim
    else:
        z2 = b2 = 0
    return (g.dim, desc, der, asc, z2, b2, rank_bounds)
