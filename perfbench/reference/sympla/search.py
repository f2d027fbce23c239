"""Certified search for isotropic ideals and Lagrangian structures.

Enumeration is budgeted and deterministic; every positive answer is
re-verified, and every negative answer carries a machine-checkable
certificate (envelope bound, invariant-subspace trap, or the irreducible
structure argument).  Nothing is ever reported nonexistent without one.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .certificates import (
    EnvelopeCertificate,
    InvariantTrap,
    IrreducibleStructureCertificate,
    abelian_envelope_candidate,
    build_envelope_certificate,
    invariant_ideal_trap,
    irreducible_structure_certificate,
    verify_no_abelian_escape,
)
from .endoalg import (
    SymplecticVectorSpace,
    invariant_lagrangian_nilpotent,
    nilpotency_index,
)
from .exactla import Matrix, Q, Subspace, Vec, vunit, vzero
from .liealg import (
    LieAlgebra,
    ValidationError,
    ascending_central_series,
    bracket_span,
    center,
    descending_central_series,
    derived_series,
    nilpotency_class,
    subspace_algebra_flags,
)
from .reduction import (
    BaseResult,
    ReductionStep,
    fingerprint as reduction_fingerprint,
    irreducible_base as _irreducible_base,
    is_completely_reducible as _is_completely_reducible,
    reduce,
    symplectic_length_upper as _symplectic_length_upper,
)
from .symplectic import (
    SymplecticLieAlgebra,
    isotropy_report,
    omega_orthogonal,
)

MODES = ("basis_aligned", "series_derived", "randomized")


def _is_isotropic_ideal(s: SymplecticLieAlgebra, sub: Subspace) -> bool:
    if sub.dim == 0:
        return False
    flags = subspace_algebra_flags(s.algebra, sub)
    return flags.is_ideal and isotropy_report(s, sub).isotropic


def ideal_closure(g: LieAlgebra, seed: Iterable[Vec]) -> Subspace:
    """Smallest ideal containing the seed vectors."""
    sub = Subspace.span(g.dim, list(seed))
    while True:
        grown = sub.sum(bracket_span(g, Subspace.full(g.dim), sub))
        if grown == sub:
            return sub
        sub = grown


def isotropic_ideals_enumerate(
    s: SymplecticLieAlgebra,
    modes: Sequence[str] = MODES,
    budget: int = 2000,
    seed: int = 0,
    max_dim: int | None = None,
) -> list[Subspace]:
    """Deterministic list of verified isotropic ideals, ordered by
    (dimension descending, canonical basis lexicographic)."""
    return list(_enumerate_cached(s, tuple(modes), budget, seed, max_dim))


@functools.lru_cache(maxsize=512)
def _enumerate_cached(
    s: SymplecticLieAlgebra,
    modes: tuple[str, ...],
    budget: int,
    seed: int,
    max_dim: int | None,
) -> tuple[Subspace, ...]:
    g = s.algebra
    n = g.dim
    if max_dim is None:
        max_dim = n // 2
    candidates: list[Subspace] = []
    examined = 0

    def consider(sub: Subspace) -> None:
        nonlocal examined
        examined += 1
        if 0 < sub.dim <= max_dim and sub not in candidates and _is_isotropic_ideal(s, sub):
            candidates.append(sub)

    if "series_derived" in modes:
        from .liealg import killing_radical

        chains = [descending_central_series(g), ascending_central_series(g),
                  derived_series(g)]
        pool = [t for chain in chains for t in chain.terms]
        z = center(g)
        pool.append(z)
        kr = killing_radical(g)
        pool.append(kr)
        pool.append(kr.intersect(bracket_span(g, Subspace.full(n), Subspace.full(n))))
        for term in list(pool):
            pool.append(term.intersect(omega_orthogonal(s, term)))
        for term in pool:
            consider(term)
            # lines inside central terms give the central reductions
            if z.contains(term):
                for row in term.rows:
                    consider(Subspace.span(n, [row]))
        for row in z.rows:
            consider(Subspace.span(n, [row]))
        # closures of single basis vectors
        for i in range(n):
            consider(ideal_closure(g, [g.basis_vector(i)]))

    if "basis_aligned" in modes:
        for d in range(1, max_dim + 1):
            if examined >= budget:
                break
            for combo in itertools.combinations(range(n), d):
                if examined >= budget:
                    break
                consider(Subspace.span(n, [vunit(n, i) for i in combo]))

    if "randomized" in modes:
        rng = random.Random(seed)
        for _ in range(min(64, max(0, budget - examined))):
            v = tuple(Q(rng.randint(-2, 2)) for _ in range(n))
            if all(x == 0 for x in v):
                continue
            consider(ideal_closure(g, [v]))

    return tuple(sorted(candidates, key=lambda c: (-c.dim, c.rows)))


# ---------------------------------------------------------------------------
# rank bounds


@dataclass(frozen=True)
class RankBounds:
    lower: int
    upper: int | None
    lower_witness: Subspace | None
    certificates: tuple[str, ...]
    envelope: EnvelopeCertificate | None = None
    trap: InvariantTrap | None = None
    structure: IrreducibleStructureCertificate | None = None

    @property
    def exact(self) -> bool:
        return self.upper is not None and self.lower == self.upper


@functools.lru_cache(maxsize=512)
def symplectic_rank_bounds(
    s: SymplecticLieAlgebra, budget: int = 2000, seed: int = 0
) -> RankBounds:
    g = s.algebra
    n = g.dim
    if n == 0:
        return RankBounds(0, 0, Subspace.zero(0), ("trivial",))
    found = isotropic_ideals_enumerate(s, budget=budget, seed=seed)
    lower = found[0].dim if found else 0
    witness = found[0] if found else None
    bounds: list[tuple[str, int]] = [("half-dimension", n // 2)]

    structure = irreducible_structure_certificate(s)
    if structure is not None:
        return RankBounds(0, 0, None, ("irreducible_structure",), None, None, structure)

    envelope = build_envelope_certificate(s)
    trap = None
    if envelope is not None and verify_no_abelian_escape(s, envelope):
        if envelope.nondegenerate:
            bounds.append(("envelope", envelope.m.dim // 2))
        trap = invariant_ideal_trap(s, envelope.m)
        if trap is not None:
            iso_dims = [0]
            for ideal in trap.ideals:
                if ideal.dim > 0 and isotropy_report(s, ideal).isotropic:
                    iso_dims.append(ideal.dim)
                    if ideal.dim > lower:
                        lower, witness = ideal.dim, ideal
            bounds.append(("invariant_trap", max(iso_dims)))
    else:
        envelope = None

    upper = min(b for _, b in bounds)
    certificates = tuple(name for name, b in bounds if b == upper)
    if witness is not None and not _is_isotropic_ideal(s, witness):
        raise ValidationError("rank witness failed re-verification")
    if lower > upper:
        raise ValidationError("rank bounds crossed; a certificate is unsound")
    return RankBounds(lower, upper, witness, certificates, envelope, trap, structure)


# ---------------------------------------------------------------------------
# Lagrangian ideal dispatcher


@dataclass(frozen=True)
class LagrangianIdealResult:
    status: str  # "found" | "certified_none" | "unresolved"
    subspace: Subspace | None
    certificate: str | None
    rank: RankBounds | None = None


def _verify_lagrangian_ideal(s: SymplecticLieAlgebra, sub: Subspace) -> Subspace:
    flags = subspace_algebra_flags(s.algebra, sub)
    rep = isotropy_report(s, sub)
    if not (flags.is_ideal and rep.lagrangian):
        raise ValidationError("constructed subspace is not a Lagrangian ideal")
    return sub


def _extend_isotropic_containing(s: SymplecticLieAlgebra, seed: Subspace) -> Subspace:
    """Greedy maximal isotropic extension inside the symplectic algebra."""
    current = seed
    while current.dim < s.dim // 2:
        perp = omega_orthogonal(s, current)
        grew = False
        for row in perp.rows:
            if not current.contains_vector(row):
                cand = current.sum(Subspace.span(s.dim, [row]))
                if isotropy_report(s, cand).isotropic:
                    current = cand
                    grew = True
                    break
        if not grew:
            break
    return current


def _filiform_lagrangian(s: SymplecticLieAlgebra) -> Subspace | None:
    g = s.algebra
    k = nilpotency_class(g)
    if k is None or g.dim % 2 or k != g.dim - 1 or g.dim < 2:
        return None
    ell = g.dim // 2
    chain = descending_central_series(g)
    return chain.terms[ell - 1] if len(chain.terms) > ell - 1 else None


def _two_step_lagrangian(s: SymplecticLieAlgebra) -> Subspace | None:
    g = s.algebra
    k = nilpotency_class(g)
    if k is None or k > 2:
        return None
    derived = bracket_span(g, Subspace.full(g.dim), Subspace.full(g.dim))
    if not isotropy_report(s, derived).isotropic:
        return None
    return _extend_isotropic_containing(s, derived)


def _central_lines(s: SymplecticLieAlgebra) -> list[Subspace]:
    z = center(s.algebra)
    lines = [Subspace.span(s.dim, [row]) for row in z.rows]
    # small integral combinations widen the search deterministically
    for a, b in itertools.combinations(range(z.dim), 2):
        for ca, cb in ((1, 1), (1, -1)):
            v = tuple(ca * x + cb * y for x, y in zip(z.rows[a], z.rows[b]))
            lines.append(Subspace.span(s.dim, [v]))
    return lines


def _abelian_reduction_lagrangian(s: SymplecticLieAlgebra) -> Subspace | None:
    """Central line with abelian reduction: pull back an invariant Lagrangian
    subspace of the reduced space through the quadratic-condition machinery."""
    g = s.algebra
    if nilpotency_class(g) is None:
        return None
    for line in _central_lines(s):
        step = reduce(s, line)
        if not bracket_span(step.reduced.algebra, Subspace.full(step.reduced.dim),
                            Subspace.full(step.reduced.dim)).is_zero():
            continue
        from .oxidation import recover_oxidation_data

        h = line.rows[0]
        # xi with omega(xi, H) = 1
        from .exactla import solve_linear

        res = solve_linear(Matrix((s.omega.matvec(h),), s.dim), (Q(-1),))
        if res.particular is None:
            continue
        xi = res.particular
        data, w_rows = recover_oxidation_data(s, h, xi)
        if nilpotency_index(data.phi) is None:
            continue
        space = SymplecticVectorSpace(data.base.dim, data.omega_bar)
        bar = invariant_lagrangian_nilpotent(space, data.phi)
        lifted = [h]
        for r in bar.rows:
            v = list(vzero(s.dim))
            for c, w in zip(r, w_rows):
                if c != 0:
                    for t, x in enumerate(w):
                        v[t] += c * x
            lifted.append(tuple(v))
        cand = Subspace.span(s.dim, lifted)
        try:
            return _verify_lagrangian_ideal(s, cand)
        except ValidationError:
            continue
    return None


def _three_step_lagrangian(s: SymplecticLieAlgebra) -> Subspace | None:
    """Recursive construction for three-step nilpotent algebras of dim <= 8."""
    g = s.algebra
    k = nilpotency_class(g)
    if k is None or k > 3 or g.dim > 8:
        return None
    if k <= 2:
        return _two_step_lagrangian(s)
    c2 = descending_central_series(g).terms[2]
    if not isotropy_report(s, c2).isotropic:
        return None
    step = reduce(s, c2)
    red = step.reduced
    phi_ops = _induced_complement_operators(s, step)
    bar = _invariant_lagrangian_ideal_in_reduction(red, phi_ops)
    if bar is None:
        return None
    cand = step.lift_subspace(bar)
    try:
        return _verify_lagrangian_ideal(s, cand)
    except ValidationError:
        return None


def _induced_complement_operators(s: SymplecticLieAlgebra, step: ReductionStep) -> list[Matrix]:
    """Operators induced on the reduction by the complement directions N."""
    ops = []
    for nrow in step.decomposition.n_rows:
        cols = []
        for w in step.w_rows:
            img = s.algebra.bracket(nrow, w)
            cols.append(step.project_vector(_project_to_perp(s, step, img)))
        ops.append(Matrix(tuple(cols), step.reduced.dim).transpose())
    return ops


def _project_to_perp(s: SymplecticLieAlgebra, step: ReductionStep, v: Vec) -> Vec:
    """Drop the N-component of v in the N + W + j splitting."""
    from .exactla import solve_linear

    dec = step.decomposition
    basis = Matrix(dec.n_rows + step.w_rows + dec.j_rows, s.dim).transpose()
    res = solve_linear(basis, v)
    assert res.particular is not None
    c = res.particular
    k = len(dec.n_rows)
    out = list(vzero(s.dim))
    for idx, row in enumerate(step.w_rows):
        if c[k + idx] != 0:
            for t, x in enumerate(row):
                out[t] += c[k + idx] * x
    for idx, row in enumerate(dec.j_rows):
        if c[k + len(step.w_rows) + idx] != 0:
            for t, x in enumerate(row):
                out[t] += c[k + len(step.w_rows) + idx] * x
    return tuple(out)


def _invariant_lagrangian_ideal_in_reduction(
    red: SymplecticLieAlgebra, phi_ops: list[Matrix]
) -> Subspace | None:
    """Lagrangian ideal of the reduced algebra invariant under the induced maps."""
    g = red.algebra
    k = nilpotency_class(g)
    if k is None:
        return None
    if k == 0:
        return Subspace.zero(0) if g.dim == 0 else None
    if bracket_span(g, Subspace.full(g.dim), Subspace.full(g.dim)).is_zero():
        # abelian reduction: joint invariant maximal isotropic subspace
        return _joint_invariant_lagrangian(red, phi_ops)
    if k == 2:
        c1 = descending_central_series(g).terms[1]
        if 2 * c1.dim == g.dim and isotropy_report(red, c1).isotropic:
            return c1  # characteristic, hence invariant
        # reduce by the commutator and pull back a joint invariant line
        if not isotropy_report(red, c1).isotropic:
            return None
        step = reduce(red, c1)
        inner_ops = [_push_operator(step, op) for op in phi_ops]
        inner_ops += [_push_operator(step, g.ad(g.basis_vector(i))) for i in range(g.dim)]
        inner_ops = [op for op in inner_ops if op is not None]
        bar = _joint_invariant_lagrangian(step.reduced, inner_ops)
        if bar is None:
            return None
        cand = step.lift_subspace(bar)
        flags = subspace_algebra_flags(g, cand)
        rep = isotropy_report(red, cand)
        if flags.is_ideal and rep.lagrangian and _all_invariant(cand, phi_ops):
            return cand
        return None
    if k == 3 and g.dim <= 6:
        c2 = descending_central_series(g).terms[2]
        if not isotropy_report(red, c2).isotropic:
            return None
        step = reduce(red, c2)
        inner_ops = [_push_operator(step, op) for op in phi_ops]
        inner_ops = [op for op in inner_ops if op is not None]
        bar = _invariant_lagrangian_ideal_in_reduction(step.reduced, inner_ops)
        if bar is None:
            return None
        cand = step.lift_subspace(bar)
        flags = subspace_algebra_flags(g, cand)
        if flags.is_ideal and isotropy_report(red, cand).lagrangian \
                and _all_invariant(cand, phi_ops):
            return cand
    return None


def _push_operator(step: ReductionStep, op: Matrix) -> Matrix | None:
    """Induced operator on the reduction, when the ideal and orthogonal are stable."""
    perp = omega_orthogonal(step.parent, step.ideal)
    for row in step.ideal.rows:
        if not step.ideal.contains_vector(op.matvec(row)):
            return None
    cols = []
    for w in step.w_rows:
        img = op.matvec(w)
        if not perp.contains_vector(img):
            return None
        cols.append(step.project_vector(img))
    return Matrix(tuple(cols), step.reduced.dim).transpose()


def _joint_invariant_lagrangian(
    red: SymplecticLieAlgebra, ops: list[Matrix]
) -> Subspace | None:
    """Common invariant maximal-isotropic subspace for nilpotent operator families.

    Single square-zero operator families use the quadratic-condition
    construction; otherwise the terminal term of the chain U -> sum op(U)
    is extended greedily while preserving joint invariance.
    """
    n = red.dim
    space = SymplecticVectorSpace(n, red.omega)
    ops = [op for op in ops if not op.is_zero()]
    if not ops:
        from .endoalg import extend_to_maximal_isotropic

        return extend_to_maximal_isotropic(space, Subspace.zero(n))
    if len(ops) == 1 and nilpotency_index(ops[0]) is not None:
        from .endoalg import quadratic_forms

        if quadratic_forms(space, ops[0]).beta_vanishes:
            return invariant_lagrangian_nilpotent(space, ops[0])
    # chain of images
    current = Subspace.full(n)
    while True:
        image = Subspace.zero(n)
        for op in ops:
            image = image.sum(Subspace.span(n, [op.matvec(r) for r in current.rows]))
        if image == current:
            return None  # operators are not jointly nilpotent
        if image.is_zero():
            break
        current = image
    # everything in `current` is annihilated; extend inside the joint kernel chain
    seed = current
    if not isotropy_report(red, seed).isotropic:
        return None
    result = seed
    while result.dim < n // 2:
        perp = omega_orthogonal(red, result)
        grew = False
        for row in perp.rows:
            if result.contains_vector(row):
                continue
            cand = result.sum(Subspace.span(n, [row]))
            if isotropy_report(red, cand).isotropic and _all_invariant(cand, ops):
                result = cand
                grew = True
                break
        if not grew:
            break
    if result.dim == n // 2 and _all_invariant(result, ops):
        return result
    return None


def _all_invariant(sub: Subspace, ops: list[Matrix]) -> bool:
    return all(sub.contains_vector(op.matvec(r)) for op in ops for r in sub.rows)


def lagrangian_ideal(
    s: SymplecticLieAlgebra, budget: int = 2000, seed: int = 0
) -> LagrangianIdealResult:
    g = s.algebra
    n = g.dim
    if n == 0:
        return LagrangianIdealResult("found", Subspace.zero(0), "trivial")
    rank = symplectic_rank_bounds(s, budget=budget, seed=seed)
    if rank.upper is not None and rank.upper < n // 2:
        cert = "+".join(rank.certificates)
        if _q6_reduction_blocks(s):
            cert += "+detS"
        return LagrangianIdealResult("certified_none", None, cert, rank)
    if rank.lower == n // 2 and rank.lower_witness is not None:
        return LagrangianIdealResult(
            "found", _verify_lagrangian_ideal(s, rank.lower_witness), "search", rank)
    for builder, name in (
        (_two_step_lagrangian, "two-step"),
        (_filiform_lagrangian, "filiform"),
        (_abelian_reduction_lagrangian, "abelian-reduction"),
        (_three_step_lagrangian, "three-step"),
        (_low_dim_lagrangian, "low-dimension"),
    ):
        cand = builder(s)
        if cand is not None:
            return LagrangianIdealResult(
                "found", _verify_lagrangian_ideal(s, cand), name, rank)
    return LagrangianIdealResult("unresolved", None, None, rank)


def _low_dim_lagrangian(s: SymplecticLieAlgebra) -> Subspace | None:
    """Nilpotent algebras of dimension at most six always admit one."""
    g = s.algebra
    k = nilpotency_class(g)
    if k is None or g.dim > 6:
        return None
    if k <= 2:
        return _two_step_lagrangian(s)
    if k == g.dim - 1:
        return _filiform_lagrangian(s)
    if k == 3:
        return _three_step_lagrangian(s)
    # class four in dimension six: reduce by a central line and lift
    for line in _central_lines(s):
        step = reduce(s, line)
        phi_ops = _induced_complement_operators(s, step)
        bar = _invariant_lagrangian_ideal_in_reduction(step.reduced, phi_ops)
        if bar is None:
            # the reduction may itself be filiform of class three
            bar = _characteristic_lagrangian(step.reduced)
        if bar is None:
            continue
        cand = step.lift_subspace(bar)
        try:
            return _verify_lagrangian_ideal(s, cand)
        except ValidationError:
            continue
    return None


def _characteristic_lagrangian(red: SymplecticLieAlgebra) -> Subspace | None:
    """Characteristic Lagrangian ideals of small reductions: the commutator of
    a filiform algebra or the center of a class-two algebra."""
    g = red.algebra
    k = nilpotency_class(g)
    if k is None:
        return None
    if k == g.dim - 1 and g.dim % 2 == 0 and g.dim >= 2:
        cand = descending_central_series(g).terms[g.dim // 2 - 1]
        if isotropy_report(red, cand).lagrangian:
            return cand
    if k == 2:
        z = center(g)
        if 2 * z.dim == g.dim and isotropy_report(red, z).lagrangian:
            return z
    return None


def _q6_reduction_blocks(s: SymplecticLieAlgebra) -> bool:
    """Detect the two-generator quadratic-family reduction with definite S.

    True when reducing by the second descending term yields an abelian
    six-dimensional reduction whose induced complement operators X, Y are
    square-zero with S = (omega(X u_i, Y u_j)) symmetric positive or negative
    definite on a basis of a complement of the joint kernel.
    """
    g = s.algebra
    k = nilpotency_class(g)
    if k != 3:
        return False
    c2 = descending_central_series(g).terms[2]
    if c2.dim != 2 or not isotropy_report(s, c2).isotropic:
        return False
    step = reduce(s, c2)
    red = step.reduced
    if red.dim != 6:
        return False
    if not bracket_span(red.algebra, Subspace.full(6), Subspace.full(6)).is_zero():
        return False
    ops = _induced_complement_operators(s, step)
    if len(ops) != 2:
        return False
    x, y = ops
    if not (x.mul(x).is_zero() and y.mul(y).is_zero()
            and x.mul(y).is_zero() and y.mul(x).is_zero()):
        return False
    kernel = Subspace.span(6, Matrix(x.rows, 6).kernel_basis()).intersect(
        Subspace.span(6, Matrix(y.rows, 6).kernel_basis()))
    u_basis = _complete_complement(kernel)
    if len(u_basis) != 2:
        return False
    u1, u2 = u_basis
    srows = [[red.pair(x.matvec(u1), y.matvec(u1)), red.pair(x.matvec(u1), y.matvec(u2))],
             [red.pair(x.matvec(u2), y.matvec(u1)), red.pair(x.matvec(u2), y.matvec(u2))]]
    smat = Matrix.from_rows(srows, 2)
    if not smat.is_symmetric() or smat.det() <= 0:
        return False
    return True


def _complete_complement(sub: Subspace) -> list[Vec]:
    n = sub.ambient
    out = []
    current = sub
    for i in range(n):
        e = vunit(n, i)
        if not current.contains_vector(e):
            out.append(e)
            current = current.sum(Subspace.span(n, [e]))
    return out


# ---------------------------------------------------------------------------
# Lagrangian subalgebras


@dataclass(frozen=True)
class LagrangianSubalgebraResult:
    status: str  # "found" | "unresolved"
    subspace: Subspace | None
    path: str | None
    impossibility: str | None = None  # structural argument for the 8-dim family


def _verify_lagrangian_subalgebra(s: SymplecticLieAlgebra, sub: Subspace) -> Subspace:
    flags = subspace_algebra_flags(s.algebra, sub)
    rep = isotropy_report(s, sub)
    if not (flags.is_subalgebra and rep.lagrangian):
        raise ValidationError("constructed subspace is not a Lagrangian subalgebra")
    return sub


def candidates_for_reduction(budget: int = 600, seed: int = 0):
    def fn(s: SymplecticLieAlgebra) -> list[Subspace]:
        return isotropic_ideals_enumerate(s, budget=budget, seed=seed)

    return fn


def certify_irreducible(s: SymplecticLieAlgebra) -> bool:
    if s.dim == 0:
        return True
    rank = symplectic_rank_bounds(s, budget=400)
    return rank.upper == 0


def irreducible_base(s: SymplecticLieAlgebra, strategy: str = "central-first",
                     budget: int = 600, seed: int = 0) -> BaseResult:
    return _irreducible_base(s, strategy, candidates_for_reduction(budget, seed),
                             certify_irreducible)


def symplectic_length_upper(s: SymplecticLieAlgebra, budget: int = 400) -> int | None:
    return _symplectic_length_upper(s, candidates_for_reduction(budget),
                                    certify_irreducible)


def is_completely_reducible(s: SymplecticLieAlgebra, budget: int = 400) -> bool:
    return _is_completely_reducible(s, candidates_for_reduction(budget))


def lagrangian_subalgebra(
    s: SymplecticLieAlgebra, budget: int = 600, seed: int = 0
) -> LagrangianSubalgebraResult:
    if s.dim == 0:
        return LagrangianSubalgebraResult("found", Subspace.zero(0), "trivial")
    base = irreducible_base(s, "central-first", budget=budget, seed=seed)
    if base.base.dim == 0:
        sub = Subspace.zero(0)
        for step in reversed(base.steps):
            sub = step.lift_subspace(sub)
        return LagrangianSubalgebraResult(
            "found", _verify_lagrangian_subalgebra(s, sub), "complete-reduction")
    cert = irreducible_structure_certificate(base.base)
    if cert is not None:
        inner = _irreducible_family_lagrangian(base.base, cert)
        if inner is not None:
            sub = inner
            for step in reversed(base.steps):
                sub = step.lift_subspace(sub)
            return LagrangianSubalgebraResult(
                "found", _verify_lagrangian_subalgebra(s, sub), "rotation-family")
        impossibility = _family_impossibility(base.base, cert)
        return LagrangianSubalgebraResult("unresolved", None, None, impossibility)
    return LagrangianSubalgebraResult("unresolved", None, None)


def _irreducible_family_lagrangian(
    s: SymplecticLieAlgebra, cert: IrreducibleStructureCertificate
) -> Subspace | None:
    """Explicit subalgebra span{H, X, Y} for two rotation blocks over a plane.

    Requires dim h = 2 and two blocks; X mixes the blocks with a weight mu
    solving omega-isotropy, which needs a rational square root.
    """
    from .exactla import rational_sqrt

    if cert.h_part.dim != 2 or len(cert.blocks) != 2:
        return None
    g = s.algebra
    h1, h2 = cert.h_part.rows
    b1, b2 = cert.blocks
    w1 = s.pair(b1.rows[0], b1.rows[1])
    w2 = s.pair(b2.rows[0], b2.rows[1])
    if w1 == 0 or w2 == 0:
        return None
    lam = cert.characters
    for sign in (Q(1), Q(-1)):
        musq = sign * w1 / w2
        mu = rational_sqrt(musq) if musq > 0 else None
        if mu is None or mu == 0:
            continue
        x = tuple(a + mu * b for a, b in zip(b1.rows[0], b2.rows[0]))
        # H acting as J on block 1 and -+ J on block 2 scaled: solve for H in h
        # with lam1(H) = 1, lam2(H) = -sign (so that [H, X] stays in the span)
        target = (Q(1), -sign)
        lam_matrix = Matrix.from_rows([[lam[0][0], lam[1][0]], [lam[0][1], lam[1][1]]], 2)
        from .exactla import solve_linear

        res = solve_linear(lam_matrix.transpose(), target)
        if res.particular is None:
            continue
        hvec = tuple(res.particular[0] * a + res.particular[1] * b
                     for a, b in zip(h1, h2))
        y = g.bracket(hvec, x)
        cand = Subspace.span(s.dim, [hvec, x, y])
        flags = subspace_algebra_flags(g, cand)
        rep = isotropy_report(s, cand)
        if flags.is_subalgebra and rep.lagrangian:
            return cand
    return None


def _family_impossibility(
    s: SymplecticLieAlgebra, cert: IrreducibleStructureCertificate
) -> str | None:
    """Replay the relation-based impossibility for dim h = 2 with three blocks:
    no member of the character plane is a permutation of (0, 1, -1) and no two
    characters agree up to sign."""
    if cert.h_part.dim != 2 or len(cert.blocks) != 3:
        return None
    lam = [tuple(c) for c in cert.characters]
    for i in range(3):
        for j in range(3):
            if i != j and (lam[i] == lam[j] or tuple(-x for x in lam[i]) == lam[j]):
                return None
    # character map h -> Q^3; check the image plane avoids permutations of (0,1,-1)
    rows = Matrix.from_rows([list(l) for l in lam], 2)  # 3 x 2
    from .exactla import solve_linear

    for perm in itertools.permutations((Q(0), Q(1), Q(-1))):
        res = solve_linear(rows, perm)
        if res.particular is not None:
            return None
    return "character-plane avoids permutations of (0, 1, -1); pairwise non-proportional"


@dataclass(frozen=True)
class LagrangianRelationReport:
    l_dim: int
    b_dim: int
    i_dim: int
    h_cap_l_dim: int
    relations_hold: bool
    split_confirmed: bool | None


def lagrangian_relations_check(
    s: SymplecticLieAlgebra,
    cert: IrreducibleStructureCertificate,
    l: Subspace,
) -> LagrangianRelationReport:
    """Dimension relations of a Lagrangian subalgebra of a certified
    rotation-family algebra; confirms the semidirect splitting when m = 2k."""
    _verify_lagrangian_subalgebra(s, l)
    a = cert.commutator
    h = cert.h_part
    m2, k2 = a.dim, h.dim
    m, k = m2 // 2, k2 // 2
    b = l.intersect(a)
    # image of l under projection to h along a
    proj_rows = []
    basis = Matrix(h.rows + a.rows, s.dim).transpose()
    from .exactla import solve_linear

    for r in l.rows:
        res = solve_linear(basis, r)
        assert res.particular is not None
        c = res.particular[: h.dim]
        v = list(vzero(s.dim))
        for coef, hr in zip(c, h.rows):
            if coef != 0:
                for t, x in enumerate(hr):
                    v[t] += coef * x
        proj_rows.append(tuple(v))
    i_sub = Subspace.span(s.dim, proj_rows)
    h_cap_l = h.intersect(l)
    rel = (
        l.dim == m + k
        and m >= b.dim >= 2 * k
        and 2 * m - b.dim >= 2 * i_sub.dim == 2 * (m + k - b.dim)
        and k >= h_cap_l.dim >= k + b.dim - m
        and 2 * k - h_cap_l.dim >= i_sub.dim
    )
    split = None
    if m == 2 * k:
        split = (b.dim == m and i_sub.dim == k and l.contains(i_sub)
                 and l == i_sub.sum(b))
    return LagrangianRelationReport(l.dim, b.dim, i_sub.dim, h_cap_l.dim, rel, split)
