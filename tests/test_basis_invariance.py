"""The same answer in every basis.

The symplectic rank and the existence of a Lagrangian ideal are invariants of
the symplectic Lie algebra.  Each entry runs in its catalog basis and in seven
seeded unimodular bases.  No two bases may contradict each other: the largest
lower bound stays at most the smallest upper bound, and no basis finds a
Lagrangian ideal that another certifies absent.  Every rank witness and every
Lagrangian ideal found, mapped back to the catalog basis, is an isotropic
ideal there (a Lagrangian one for the Lagrangian ideals).  The envelope
certificate must hold in at least as many bases as the per-direction
certificate it replaced did (``PER_DIRECTION_BASES``); the semidefinite forms
reach g8 in 3, g10 in 3, cs6 in 1 and fdim_metab in 7 of these 8 bases.
The entries of ``SAME_ANSWER`` give the same (lower, upper, status) in all 8
bases, and those of ``LOWER_BOUND`` the same lower bound, which the socle
extension reaches without a coordinate witness.
"""

import pytest

from _samplers import unimodular_copy
from sympla.catalog import build
from sympla.certificates import build_envelope_certificate, verify_no_abelian_escape
from sympla.exactla import Matrix, Subspace
from sympla.liealg import is_ideal
from sympla.search import lagrangian_ideal, symplectic_rank_bounds
from sympla.symplectic import SymplecticLieAlgebra, isotropy_report

PER_DIRECTION_BASES = {"g8": 2, "g10": 1, "cs6": 1, "fdim_metab": 7}
ENTRIES = {"g8": {}, "g10": {}, "cs6": {}, "fdim_metab": {}, "filiform4": {}, "irr6": {},
           "gklambda": {}, "aff?n=2": {"n": 2}, "tn_cotangent?n=3": {"n": 3},
           "tn_cotangent?n=4": {"n": 4}}
SAME_ANSWER = ("filiform4", "irr6", "gklambda", "aff?n=2", "tn_cotangent?n=3",
               "tn_cotangent?n=4")
LOWER_BOUND = {"g8": 3, "g10": 4, "fdim_metab": 1}


def bases(s: SymplecticLieAlgebra) -> list[tuple[SymplecticLieAlgebra, Matrix]]:
    """(copy, P) for s itself (P = 1), then for its copies in the unimodular
    bases of seeds 1-7, whose vector r is P r in the basis of s."""
    return [(s, Matrix.identity(s.dim))] + [unimodular_copy(s, seed) for seed in range(1, 8)]


@pytest.mark.parametrize("spec", sorted(ENTRIES))
def test_answers_agree_across_bases(spec):
    name = spec.partition("?")[0]
    s = build(name, **ENTRIES[spec]).symplectic
    lowers, uppers, statuses, answers, envelopes = [], [], set(), set(), 0
    for copy, p in bases(s):
        bounds = symplectic_rank_bounds(copy)
        lowers.append(bounds.lower)
        uppers.append(bounds.upper)
        result = lagrangian_ideal(copy)
        statuses.add(result.status)
        answers.add((bounds.lower, bounds.upper, result.status))
        # result.subspace is set only when a Lagrangian ideal was found
        for sub, lagrangian in ((bounds.lower_witness, False), (result.subspace, True)):
            if sub is not None:
                back = Subspace.span(s.dim, [p.matvec(r) for r in sub.rows])
                report = isotropy_report(s, back)
                assert is_ideal(s.algebra, back) and report.isotropic
                assert report.lagrangian or not lagrangian
        if name in PER_DIRECTION_BASES:
            cert = build_envelope_certificate(copy)
            envelopes += cert is not None and verify_no_abelian_escape(copy, cert)
    assert max(lowers) <= min(uppers)
    assert not {"found", "certified_none"} <= statuses
    assert envelopes >= PER_DIRECTION_BASES.get(name, 0)
    if spec in SAME_ANSWER:
        assert len(answers) == 1
    if spec in LOWER_BOUND:
        assert set(lowers) == {LOWER_BOUND[spec]}
