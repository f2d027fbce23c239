"""Symplectic reduction with respect to isotropic ideals.

Covers the single reduction step j^perp / j, extraction of normal-reduction
data (quotient flat algebra, representing derivations, extension cochains),
lifting and projection of isotropic subalgebras, reduction sequences, the
irreducible base and symplectic length bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .exactla import (
    DimensionMismatch,
    Matrix,
    Q,
    Subspace,
    Vec,
    solve_linear,
    vec,
    vzero,
)
from .liealg import (
    Cochain,
    Connection,
    LieAlgebra,
    ValidationError,
    bracket_span,
    center,
    combos,
    descending_central_series,
    derived_series,
    ascending_central_series,
    is_flat,
    is_torsion_free,
    subspace_algebra_flags,
    trivial_rep,
    cohomology_space,
)
from .symplectic import (
    IsotropicDecomposition,
    SymplecticError,
    SymplecticLieAlgebra,
    isotropic_decomposition,
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
        bar_v = vec(bar_v)
        out = list(vzero(self.parent.dim))
        for c, w in zip(bar_v, self.w_rows, strict=True):
            if c != 0:
                for t, x in enumerate(w):
                    out[t] += c * x
        return tuple(out)

    def project_vector(self, v: Iterable) -> Vec:
        """Class of a vector of j^perp in the reduced coordinates (W basis)."""
        v = vec(v)
        basis = Matrix(self.w_rows + self.decomposition.j_rows, self.parent.dim)
        res = solve_linear(basis.transpose(), v)
        if res.particular is None:
            raise ValidationError("vector is not in the orthogonal of the ideal")
        return res.particular[: len(self.w_rows)]

    def lift_subspace(self, sub: Subspace, include_ideal: bool = True) -> Subspace:
        vecs = [self.lift_vector(r) for r in sub.rows]
        if include_ideal:
            vecs.extend(self.decomposition.j_rows)
        return Subspace.span(self.parent.dim, vecs)

    def project_subspace(self, sub: Subspace) -> Subspace:
        perp = omega_orthogonal(self.parent, self.ideal)
        inter = sub.intersect(perp)
        return Subspace.span(self.reduced.dim,
                             [self.project_vector(r) for r in inter.rows])


def classify_ideal(s: SymplecticLieAlgebra, j: Subspace) -> str:
    g = s.algebra
    perp = omega_orthogonal(s, j)
    if j.dim * 2 == g.dim:
        return "lagrangian"
    if center(g).contains(j):
        return "central"
    if bracket_span(g, perp, j).is_zero():
        return "codim1normal" if j.dim == 1 else "normal"
    return "plain"


def reduce(s: SymplecticLieAlgebra, j: Subspace) -> ReductionStep:
    """Symplectic reduction (j^perp / j, induced omega) for an isotropic ideal j."""
    g = s.algebra
    flags = subspace_algebra_flags(g, j)
    if not flags.is_ideal:
        raise ValidationError("reduction requires an ideal")
    rep = isotropy_report(s, j)
    if not rep.isotropic:
        raise SymplecticError("reduction requires an isotropic ideal")
    dec = isotropic_decomposition(s, j)
    w_rows = dec.w.rows
    m = len(w_rows)
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for a in range(m):
        for b in range(a + 1, m):
            img = g.bracket(w_rows[a], w_rows[b])
            coords = _decompose(img, w_rows, dec.j_rows, g.dim)
            entry = {k: c for k, c in enumerate(coords) if c != 0}
            if entry:
                brackets[(a, b)] = entry
    labels = tuple(f"r{i+1}" for i in range(m))
    reduced_alg = LieAlgebra.from_brackets(labels, brackets)
    omega_bar = Matrix.from_rows(
        [[s.pair(w_rows[a], w_rows[b]) for b in range(m)] for a in range(m)], m
    ) if m else Matrix((), 0)
    reduced = validate_symplectic(reduced_alg, omega_bar)
    return ReductionStep(s, j, classify_ideal(s, j), reduced, dec)


def _decompose(v: Vec, w_rows: Sequence[Vec], j_rows: Sequence[Vec], ambient: int) -> Vec:
    """Coefficients of v over the W basis, requiring v in span(W) + span(j)."""
    basis = Matrix(tuple(w_rows) + tuple(j_rows), ambient)
    res = solve_linear(basis.transpose(), v)
    if res.particular is None:
        raise ValidationError("bracket escaped the orthogonal of the ideal")
    return res.particular[: len(w_rows)]


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
    if not subspace_algebra_flags(g, j).is_ideal:
        raise ValidationError("quotient flat structure requires an ideal")
    perp = omega_orthogonal(s, j)
    if not bracket_span(g, perp, j).is_zero():
        raise ValidationError("normal ideal criterion [j^perp, j] = 0 fails")
    k = j.dim
    a_rows = j.rows
    pairing_rows = Matrix(tuple(s.omega.matvec(a) for a in a_rows), g.dim) \
        if k else Matrix((), g.dim)
    n_rows = []
    for i in range(k):
        rhs = tuple(Q(1) if l == i else Q(0) for l in range(k))
        res = solve_linear(pairing_rows, rhs)
        assert res.particular is not None, "omega must pair j with a transversal"
        n_rows.append(res.particular)
    n_rows = tuple(n_rows)
    basis = Matrix(n_rows + perp.rows, g.dim).transpose()
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for a in range(k):
        for b in range(a + 1, k):
            res = solve_linear(basis, g.bracket(n_rows[a], n_rows[b]))
            assert res.particular is not None
            entry = {t: c for t, c in enumerate(res.particular[:k]) if c != 0}
            if entry:
                brackets[(a, b)] = entry
    h = LieAlgebra.from_brackets(tuple(f"h{i+1}" for i in range(k)), brackets)
    omega_h = Matrix.from_rows(
        [[s.pair(n_rows[a], a_rows[b]) for b in range(k)] for a in range(k)], k
    ) if k else Matrix((), 0)
    omega_h_t = omega_h.transpose()
    mats = []
    for a in range(k):
        cols = []
        for b in range(k):
            rhs = tuple(-s.pair(n_rows[b], g.bracket(n_rows[a], a_rows[t]))
                        for t in range(k))
            res = solve_linear(omega_h_t, rhs)
            assert res.particular is not None
            cols.append(res.particular)
        mats.append(Matrix(tuple(cols), k).transpose())
    nabla_bar = Connection(h, tuple(mats))
    if not (is_flat(nabla_bar) and is_torsion_free(nabla_bar)):
        raise ValidationError("induced quotient connection failed to be flat")
    _check_omega_h_cocycle(s, g, n_rows, a_rows, omega_h, h)
    return FlatQuotient(h, nabla_bar, omega_h, n_rows)


def normal_reduction_data(
    s: SymplecticLieAlgebra, j: Subspace, dec: IsotropicDecomposition | None = None
) -> NormalReductionData:
    g = s.algebra
    perp = omega_orthogonal(s, j)
    if not bracket_span(g, perp, j).is_zero():
        raise ValidationError("normal reduction requires [j^perp, j] = 0")
    step = reduce(s, j)
    if dec is not None:
        step = ReductionStep(step.parent, step.ideal, step.kind, step.reduced, dec)
    dec = step.decomposition
    n_rows, w_rows, j_rows = dec.n_rows, dec.w.rows, dec.j_rows
    k, m = len(n_rows), len(w_rows)

    # quotient algebra h on the N classes
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    mu_values: dict[tuple[int, ...], Vec] = {}
    for a in range(k):
        for b in range(a + 1, k):
            img = g.bracket(n_rows[a], n_rows[b])
            coords = _full_decompose(img, n_rows, w_rows, j_rows, g.dim)
            n_part, w_part = coords[:k], coords[k: k + m]
            entry = {t: c for t, c in enumerate(n_part) if c != 0}
            if entry:
                brackets[(a, b)] = entry
            mu_values[(a, b)] = w_part
    h = LieAlgebra.from_brackets(tuple(f"h{i+1}" for i in range(k)), brackets)
    mu = Cochain.from_values(2, k, m, mu_values)

    omega_h = Matrix.from_rows(
        [[s.pair(n_rows[a], j_rows[b]) for b in range(k)] for a in range(k)], k
    ) if k else Matrix((), 0)

    # induced connection: omega_h(nabla_u v, a) = -omega(v, [u, a])
    omega_h_t = omega_h.transpose()
    mats = []
    for a in range(k):
        cols = []
        for b in range(k):
            rhs = tuple(-s.pair(n_rows[b], g.bracket(n_rows[a], j_rows[t])) for t in range(k))
            res = solve_linear(omega_h_t, rhs)
            assert res.particular is not None, "omega_h must be non-degenerate"
            cols.append(res.particular)
        mats.append(Matrix(tuple(cols), k).transpose())
    nabla_bar = Connection(h, tuple(mats))
    if not (is_flat(nabla_bar) and is_torsion_free(nabla_bar)):
        raise ValidationError("induced quotient connection failed to be flat")
    _check_omega_h_cocycle(s, g, n_rows, j_rows, omega_h, h)

    # representing derivations, lambda and alpha
    phi_mats = []
    lam_mats = []
    for r in range(k):
        cols_w, cols_j = [], []
        for b in range(m):
            img = g.bracket(n_rows[r], w_rows[b])
            coords = _full_decompose(img, n_rows, w_rows, j_rows, g.dim)
            if any(c != 0 for c in coords[:k]):
                raise ValidationError("[N, W] escaped j^perp; ideal is not normal")
            cols_w.append(coords[k: k + m])
            cols_j.append(coords[k + m:])
        phi_mats.append(Matrix(tuple(cols_w), m).transpose())
        lam_mats.append(Matrix(tuple(cols_j), k).transpose() if k else Matrix((), 0))
    alpha_values: dict[tuple[int, ...], Vec] = {}
    for a in range(m):
        for b in range(a + 1, m):
            img = g.bracket(w_rows[a], w_rows[b])
            coords = _full_decompose(img, n_rows, w_rows, j_rows, g.dim)
            alpha_values[(a, b)] = coords[k + m:]
    alpha = Cochain.from_values(2, m, k, alpha_values)

    data = NormalReductionData(step, h, nabla_bar, omega_h,
                               tuple(phi_mats), alpha, tuple(lam_mats), mu)
    _check_cocycle_relations(s, data)
    if classify_ideal(s, j) in ("central", "lagrangian") and center(g).contains(j):
        _check_central_conditions(s, data)
    return data


def _full_decompose(v: Vec, n_rows, w_rows, j_rows, ambient: int) -> Vec:
    basis = Matrix(tuple(n_rows) + tuple(w_rows) + tuple(j_rows), ambient)
    res = solve_linear(basis.transpose(), v)
    assert res.particular is not None, "decomposition basis must span"
    return res.particular


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
    for u in range(m):
        for v in range(u + 1, m):
            aval = data.alpha.value_on_combo((u, v))
            for r in range(k):
                lhs = sum((data.omega_h.rows[r][t] * aval[t] for t in range(k)), Q(0))
                rhs = red.pair(data.phi[r].matvec(_unit(m, u)), _unit(m, v)) \
                    + red.pair(_unit(m, u), data.phi[r].matvec(_unit(m, v)))
                if lhs != rhs:
                    raise ValidationError("alpha/phi compatibility identity failed")
    for a in range(k):
        for b in range(a + 1, k):
            muval = data.mu.value_on_combo((a, b))
            for u in range(m):
                lhs = red.pair(muval, _unit(m, u))
                lam_a = data.lam[a].matvec(_unit(m, u))
                lam_b = data.lam[b].matvec(_unit(m, u))
                rhs = _pair_h(data.omega_h, a, lam_b) - _pair_h(data.omega_h, b, lam_a)
                if lhs != rhs:
                    raise ValidationError("mu/lambda compatibility identity failed")


def _check_central_conditions(s: SymplecticLieAlgebra, data: NormalReductionData):
    """For central ideals: the quadratic compatibility of phi with the reduced form."""
    red = data.step.reduced
    k, m = data.h.dim, red.dim
    for a in range(k):
        for b in range(k):
            for u in range(m):
                for v in range(m):
                    eu, ev = _unit(m, u), _unit(m, v)
                    quad = red.pair(data.phi[a].matvec(data.phi[b].matvec(eu)), ev) \
                        + red.pair(data.phi[b].matvec(eu), data.phi[a].matvec(ev)) \
                        + red.pair(data.phi[a].matvec(eu), data.phi[b].matvec(ev)) \
                        + red.pair(eu, data.phi[a].matvec(data.phi[b].matvec(ev)))
                    bracket_uv = red.algebra.bracket(eu, ev)
                    lam_b = data.lam[b].matvec(bracket_uv)
                    lhs = _pair_h(data.omega_h, a, lam_b)
                    if lhs != quad:
                        raise ValidationError("central quadratic compatibility failed")


def _pair_h(omega_h: Matrix, r: int, j_coords: Vec) -> Fraction:
    return sum((omega_h.rows[r][t] * j_coords[t] for t in range(len(j_coords))), Q(0))


def _unit(n: int, i: int) -> Vec:
    return tuple(Q(1) if t == i else Q(0) for t in range(n))


# ---------------------------------------------------------------------------
# lifting and projection


def transfer_isotropic(step: ReductionStep, sub: Subspace, direction: str) -> Subspace:
    if direction == "lift":
        if sub.ambient != step.reduced.dim:
            raise DimensionMismatch("subspace must live in the reduced algebra")
        flags = subspace_algebra_flags(step.reduced.algebra, sub)
        rep = isotropy_report(step.reduced, sub)
        if not (flags.is_subalgebra and rep.isotropic):
            raise ValidationError("lift requires an isotropic subalgebra of the reduction")
        lifted = step.lift_subspace(sub)
        lrep = isotropy_report(step.parent, lifted)
        assert lrep.isotropic, "lift of an isotropic subalgebra must be isotropic"
        return lifted
    if direction == "project":
        if sub.ambient != step.parent.dim:
            raise DimensionMismatch("subspace must live in the parent algebra")
        flags = subspace_algebra_flags(step.parent.algebra, sub)
        rep = isotropy_report(step.parent, sub)
        if not (flags.is_subalgebra and rep.isotropic):
            raise ValidationError("projection requires an isotropic subalgebra")
        projected = step.project_subspace(sub)
        prep = isotropy_report(step.reduced, projected)
        assert prep.isotropic
        assert prep.corank <= rep.corank, "projection must not increase the corank"
        return projected
    raise ValueError("direction must be 'lift' or 'project'")


def lifted_ideal_is_ideal(step: ReductionStep, sub: Subspace) -> bool:
    """Invariance criterion for lifting ideals through a normal reduction."""
    try:
        data = normal_reduction_data(step.parent, step.ideal, step.decomposition)
    except ValidationError:
        lifted = step.lift_subspace(sub)
        return subspace_algebra_flags(step.parent.algebra, lifted).is_ideal
    invariant = all(
        sub.contains(Subspace.span(sub.ambient, [phi.matvec(r) for r in sub.rows]))
        for phi in data.phi
    )
    lifted = step.lift_subspace(sub)
    direct = subspace_algebra_flags(step.parent.algebra, lifted).is_ideal
    assert invariant == direct, "invariance criterion disagrees with the direct check"
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

    def project_to_base(self, sub: Subspace) -> Subspace:
        for step in self.steps:
            sub = step.project_subspace(sub)
        return sub


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
        flags_in_perp = _is_ideal_in(s.algebra, j, prev_perp)
        if not flags_in_perp:
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


def _is_ideal_in(g: LieAlgebra, j: Subspace, inside: Subspace) -> bool:
    return inside.contains(j) and j.contains(bracket_span(g, inside, j))


def induced_sequence(
    s: SymplecticLieAlgebra, nested: Sequence[Subspace], i: Subspace
) -> list[Subspace]:
    """The chain i + (j_k ∩ i^perp) induced on the reduction by i."""
    iperp = omega_orthogonal(s, i)
    return [i.sum(j.intersect(iperp)) for j in nested]


# ---------------------------------------------------------------------------
# irreducible base


CandidateFn = Callable[[SymplecticLieAlgebra], list[Subspace]]
CertifyFn = Callable[[SymplecticLieAlgebra], bool]


@dataclass(frozen=True)
class BaseResult:
    base: SymplecticLieAlgebra
    steps: tuple[ReductionStep, ...]
    fingerprint: tuple
    status: str  # "certified" | "unresolved"


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


def irreducible_base(
    s: SymplecticLieAlgebra,
    strategy: str,
    candidates_fn: CandidateFn,
    certify_irreducible_fn: CertifyFn,
    max_steps: int = 64,
) -> BaseResult:
    """Run reductions chosen by the strategy until no isotropic ideal is found.

    The base is reported as certified only when the irreducibility certificate
    succeeds (trivial algebras are certified vacuously).
    """
    if strategy not in ("central-first", "any-isotropic", "greedy-max"):
        raise ValueError(f"unknown strategy {strategy!r}")
    steps: list[ReductionStep] = []
    current = s
    for _ in range(max_steps):
        if current.dim == 0:
            return BaseResult(current, tuple(steps), fingerprint(current), "certified")
        candidates = [c for c in candidates_fn(current) if c.dim > 0]
        if not candidates:
            status = "certified" if certify_irreducible_fn(current) else "unresolved"
            return BaseResult(current, tuple(steps), fingerprint(current), status)
        choice = _choose(current, candidates, strategy)
        step = reduce(current, choice)
        steps.append(step)
        current = step.reduced
    raise ValidationError("reduction did not terminate")


def _choose(s: SymplecticLieAlgebra, candidates: list[Subspace], strategy: str) -> Subspace:
    ordered = sorted(candidates, key=lambda c: (-c.dim, c.rows))
    if strategy == "greedy-max":
        return ordered[0]
    if strategy == "any-isotropic":
        return sorted(candidates, key=lambda c: (c.dim, c.rows))[0]
    z = center(s.algebra)
    central = [c for c in candidates if z.contains(c)]
    if central:
        lines = [c for c in central if c.dim == 1]
        pool = lines if lines else central
        return sorted(pool, key=lambda c: (c.dim, c.rows))[0]
    return ordered[0]


def symplectic_length_upper(
    s: SymplecticLieAlgebra,
    candidates_fn: CandidateFn,
    certify_irreducible_fn: CertifyFn,
    depth_limit: int = 12,
) -> int | None:
    """Length of the shortest complete reduction sequence found, None if none."""
    if s.dim == 0 or certify_irreducible_fn(s):
        return 0
    best: int | None = None
    candidates = sorted((c for c in candidates_fn(s) if c.dim > 0),
                        key=lambda c: (-c.dim, c.rows))
    for j in candidates:
        if best is not None and best <= 1:
            break
        if depth_limit <= 0:
            continue
        step = reduce(s, j)
        sub = symplectic_length_upper(step.reduced, candidates_fn,
                                      certify_irreducible_fn, depth_limit - 1)
        if sub is not None:
            total = 1 + sub
            if best is None or total < best:
                best = total
    return best


def is_completely_reducible(
    s: SymplecticLieAlgebra,
    candidates_fn: CandidateFn,
    depth_limit: int = 24,
) -> bool:
    if s.dim == 0:
        return True
    if depth_limit <= 0:
        return False
    for j in sorted((c for c in candidates_fn(s) if c.dim > 0),
                    key=lambda c: (-c.dim, c.rows)):
        step = reduce(s, j)
        if is_completely_reducible(step.reduced, candidates_fn, depth_limit - 1):
            return True
    return False
