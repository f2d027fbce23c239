"""Certified search for isotropic ideals and Lagrangian structures.

Enumeration is deterministic and lists every coordinate isotropic ideal;
every positive answer is re-verified, and every negative answer carries a
machine-checkable certificate (envelope bound, invariant-subspace trap, or
the irreducible structure argument).  Nothing is ever reported nonexistent
without one.  The reduction searches built on the enumeration (irreducible
base, symplectic length, complete reducibility) live here too.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator

from .certificates import (
    EnvelopeCertificate,
    InvariantTrap,
    IrreducibleStructureCertificate,
    build_envelope_certificate,
    invariant_ideal_trap,
    irreducible_structure_certificate,
    verify_no_abelian_escape,
)
from .exactla import (
    Matrix,
    Q,
    Subspace,
    Vec,
    combine,
    coordinates,
    extend_basis,
    gram,
    isotropic_room,
    rational_sqrt,
    vunit,
)
from .liealg import (
    ValidationError,
    ascending_central_series,
    brackets_within,
    center,
    derived_algebra,
    descending_central_series,
    derived_series,
    is_ideal,
    killing_radical,
    nilpotency_class,
)
from .reduction import ReductionStep, fingerprint, reduce
from .symplectic import (
    SymplecticLieAlgebra,
    isotropic_part,
    isotropy_report,
)


def _is_isotropic_ideal(s: SymplecticLieAlgebra, sub: Subspace) -> bool:
    return isotropy_report(s, sub).isotropic and is_ideal(s.algebra, sub)


def socle_extension(s: SymplecticLieAlgebra) -> tuple[Subspace, ...]:
    """The chain 0 < U_1 < U_2 < ... of isotropic ideals grown one central
    direction of g/U at a time.

    room = {x : [g, x] ⊆ U} ∩ U^perp is ``isotropic_room`` for the ad(e_i),
    whose integer columns are the structure constants.  It contains U, and
    U + Qx stays an isotropic ideal for every x in it; x is the first reduced
    row of room outside U.  The chain stops when room = U.  Greedy: the last
    term need not be a largest isotropic ideal.  The deepest-term rule of
    ``endoalg.invariant_isotropic_extension`` picked other terms of the same
    dimensions in 20 of 64 (entry, basis) cases, and took 29 times as long
    on ``tn_cotangent?n=5``.
    """
    n = s.dim
    u = Subspace.zero(n)
    chain = []
    while True:
        room = isotropic_room(s.omega, s.algebra.integer_constants[1], u)
        x = next((r for r in room.rows if not u.contains_vector(r)), None)
        if x is None:
            return tuple(chain)
        u = Subspace.span(n, u.rows + (x,))
        chain.append(u)


def isotropic_ideals_enumerate(s: SymplecticLieAlgebra) -> list[Subspace]:
    """Deterministic list of verified isotropic ideals of dimension at most
    dim/2, ordered by (dimension descending, canonical basis lexicographic).

    It holds every coordinate isotropic ideal (``_coordinate_ideals``) and
    the structural candidates that pass: terms of the central and derived
    series, the center, the Killing radical and its commutator part, their
    omega-isotropic parts, and every term of ``socle_extension``.
    """
    return list(_enumerate_cached(s))


@functools.lru_cache(maxsize=512)
def _enumerate_cached(s: SymplecticLieAlgebra) -> tuple[Subspace, ...]:
    g = s.algebra
    n = g.dim
    max_dim = n // 2
    found = set(_coordinate_ideals(s))

    def consider(sub: Subspace) -> None:
        if 0 < sub.dim <= max_dim and sub not in found and _is_isotropic_ideal(s, sub):
            found.add(sub)

    chains = [descending_central_series(g), ascending_central_series(g), derived_series(g)]
    kr = killing_radical(g)
    pool = [t for chain in chains for t in chain.terms]
    pool += [center(g), kr, kr.intersect(derived_algebra(g))]
    pool = list(dict.fromkeys(pool))  # the three series repeat g, [g, g] and 0
    pool = list(dict.fromkeys(pool + [isotropic_part(s, term) for term in pool]))
    for term in pool + list(socle_extension(s)):
        consider(term)
    return tuple(sorted(found, key=lambda c: (-c.dim, c.rows)))


def _coordinate_ideals(s: SymplecticLieAlgebra) -> Iterator[Subspace]:
    """Every isotropic ideal span{e_i : i in S} with 0 < |S| <= dim/2.

    S is a bitmask.  The span is an ideal iff S holds the support of [g, e_i]
    for each i in S, so S is a union of closures cl(i) under that relation;
    it is isotropic iff omega pairs no two indices of S.  Every superset of a
    failing S fails too, so the depth-first search over S | cl(i) prunes
    exactly; taking i as the least index added reaches each S once.
    """
    n = s.dim
    closure = [1 << i for i in range(n)]
    for row in s.algebra.nonzero:
        for i, entries in enumerate(row):
            for k, _ in entries:
                closure[i] |= 1 << k
    for k in range(n):  # Warshall: whatever reaches k reaches all k reaches
        for i in range(n):
            if closure[i] >> k & 1:
                closure[i] |= closure[k]
    paired = [_support(row) for row in s.omega.rows]
    stack = [(0, 0)]  # (S, first index that may be added)
    while stack:
        mask, start = stack.pop()
        for i in range(start, n):
            added = closure[i] & ~mask
            grown = mask | added
            if added & -added != 1 << i or grown.bit_count() > n // 2 \
                    or any(grown >> k & 1 and grown & paired[k] for k in range(n)):
                continue
            yield Subspace.span(n, [vunit(n, k) for k in range(n) if grown >> k & 1])
            stack.append((grown, i + 1))


def _support(v: Vec) -> int:
    return sum(1 << k for k, x in enumerate(v) if x != 0)


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
def symplectic_rank_bounds(s: SymplecticLieAlgebra) -> RankBounds:
    g = s.algebra
    n = g.dim
    if n == 0:
        return RankBounds(0, 0, Subspace.zero(0), ("trivial",))
    found = isotropic_ideals_enumerate(s)
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
    if not (is_ideal(s.algebra, sub) and isotropy_report(s, sub).lagrangian):
        raise ValidationError("constructed subspace is not a Lagrangian ideal")
    return sub


def lagrangian_ideal(s: SymplecticLieAlgebra) -> LagrangianIdealResult:
    """A Lagrangian ideal, or a certificate that there is none.

    ``found`` (certificate ``search``) when the rank witness, the largest
    isotropic ideal the enumeration lists (the last socle term among the
    candidates), has half the dimension; ``certified_none`` when a rank
    certificate puts the upper bound below half; ``unresolved`` otherwise.
    """
    g = s.algebra
    n = g.dim
    if n == 0:
        return LagrangianIdealResult("found", Subspace.zero(0), "trivial")
    rank = symplectic_rank_bounds(s)
    if rank.upper is not None and rank.upper < n // 2:
        cert = "+".join(rank.certificates)
        if _q6_reduction_blocks(s):
            cert += "+detS"
        return LagrangianIdealResult("certified_none", None, cert, rank)
    if rank.lower == n // 2 and rank.lower_witness is not None:
        return LagrangianIdealResult(
            "found", _verify_lagrangian_ideal(s, rank.lower_witness), "search", rank)
    return LagrangianIdealResult("unresolved", None, None, rank)


def _induced_complement_operators(s: SymplecticLieAlgebra, step: ReductionStep) -> list[Matrix]:
    """Operators induced on the reduction by the complement directions N."""
    dec = step.decomposition
    ops = []
    for nrow in dec.n_rows:
        cols = [dec.split(s.algebra.bracket(nrow, w))[1] for w in step.w_rows]
        ops.append(Matrix(tuple(cols), step.reduced.dim).transpose())
    return ops


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
    if not derived_algebra(red.algebra).is_zero():
        return False
    ops = _induced_complement_operators(s, step)
    if len(ops) != 2:
        return False
    x, y = ops
    if not (x.mul(x).is_zero() and y.mul(y).is_zero()
            and x.mul(y).is_zero() and y.mul(x).is_zero()):
        return False
    kernel = Matrix(x.rows + y.rows, 6).null_space()  # ker X ∩ ker Y
    u_basis = extend_basis(kernel, [vunit(6, i) for i in range(6)])
    if len(u_basis) != 2:
        return False
    smat = gram(red.omega, [x.matvec(u) for u in u_basis], [y.matvec(u) for u in u_basis])
    if not smat.is_symmetric() or smat.det() <= 0:
        return False
    return True


# ---------------------------------------------------------------------------
# Lagrangian subalgebras


@dataclass(frozen=True)
class LagrangianSubalgebraResult:
    status: str  # "found" | "unresolved"
    subspace: Subspace | None
    path: str | None
    impossibility: str | None = None  # structural argument for the 8-dim family


def _verify_lagrangian_subalgebra(s: SymplecticLieAlgebra, sub: Subspace) -> Subspace:
    if not (brackets_within(s.algebra, sub, sub, sub) and isotropy_report(s, sub).lagrangian):
        raise ValidationError("constructed subspace is not a Lagrangian subalgebra")
    return sub


def certify_irreducible(s: SymplecticLieAlgebra) -> bool:
    """Rank upper bound 0."""
    return symplectic_rank_bounds(s).upper == 0


# ---------------------------------------------------------------------------
# reduction searches


@dataclass(frozen=True)
class BaseResult:
    base: SymplecticLieAlgebra
    steps: tuple[ReductionStep, ...]
    fingerprint: tuple
    status: str  # "certified" | "unresolved"


MAX_REDUCTION_STEPS = 64


def irreducible_base(s: SymplecticLieAlgebra, strategy: str = "central-first") -> BaseResult:
    """Run reductions chosen by the strategy until no isotropic ideal is found.

    The base is reported as certified only when the irreducibility certificate
    succeeds (trivial algebras are certified vacuously).
    """
    if strategy not in ("central-first", "any-isotropic", "greedy-max"):
        raise ValueError(f"unknown strategy {strategy!r}")
    steps: list[ReductionStep] = []
    current = s
    for _ in range(MAX_REDUCTION_STEPS):
        if current.dim == 0:
            return BaseResult(current, tuple(steps), fingerprint(current), "certified")
        candidates = isotropic_ideals_enumerate(current)
        if not candidates:
            status = "certified" if certify_irreducible(current) else "unresolved"
            return BaseResult(current, tuple(steps), fingerprint(current), status)
        step = reduce(current, _choose(current, candidates, strategy))
        steps.append(step)
        current = step.reduced
    raise ValidationError("reduction did not terminate")


def _choose(s: SymplecticLieAlgebra, candidates: list[Subspace], strategy: str) -> Subspace:
    """Pick among candidates listed largest first, as the enumeration lists them."""
    if strategy == "greedy-max":
        return candidates[0]
    if strategy == "any-isotropic":
        return min(candidates, key=lambda c: (c.dim, c.rows))
    z = center(s.algebra)
    central = [c for c in candidates if z.contains(c)]
    if central:
        lines = [c for c in central if c.dim == 1]
        return min(lines or central, key=lambda c: (c.dim, c.rows))
    return candidates[0]


def symplectic_length_upper(s: SymplecticLieAlgebra, depth_limit: int = 12) -> int | None:
    """Length of the shortest complete reduction sequence found, None if none."""
    if certify_irreducible(s):
        return 0
    if depth_limit <= 0:
        return None
    best: int | None = None
    for j in isotropic_ideals_enumerate(s):
        sub = symplectic_length_upper(reduce(s, j).reduced, depth_limit - 1)
        if sub is not None and (best is None or 1 + sub < best):
            best = 1 + sub
        if best == 1:
            break
    return best


def is_completely_reducible(s: SymplecticLieAlgebra, depth_limit: int = 24) -> bool:
    if s.dim == 0:
        return True
    if depth_limit <= 0:
        return False
    return any(is_completely_reducible(reduce(s, j).reduced, depth_limit - 1)
               for j in isotropic_ideals_enumerate(s))


def lagrangian_subalgebra(s: SymplecticLieAlgebra) -> LagrangianSubalgebraResult:
    if s.dim == 0:
        return LagrangianSubalgebraResult("found", Subspace.zero(0), "trivial")
    base = irreducible_base(s, "central-first")
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
        coeffs = coordinates(Matrix.from_rows(lam, 2).transpose().rows, (Q(1), -sign))
        if coeffs is None:
            continue
        hvec = combine(coeffs, (h1, h2), s.dim)
        y = g.bracket(hvec, x)
        cand = Subspace.span(s.dim, [hvec, x, y])
        if brackets_within(g, cand, cand, cand) and isotropy_report(s, cand).lagrangian:
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
    columns = Matrix.from_rows([list(l) for l in lam], 2).transpose().rows
    for perm in itertools.permutations((Q(0), Q(1), Q(-1))):
        if coordinates(columns, perm) is not None:
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
    for r in l.rows:
        c = coordinates(h.rows + a.rows, r)
        if c is None:
            raise ValidationError("commutator and h-part do not span the algebra")
        proj_rows.append(combine(c[: h.dim], h.rows, s.dim))
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
