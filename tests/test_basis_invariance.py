"""The same answer in every basis.

The symplectic rank and the existence of a Lagrangian ideal are invariants of
the symplectic Lie algebra.  Each entry runs in its catalog basis and in seven
seeded unimodular bases.  No two bases may contradict each other: the largest
lower bound stays at most the smallest upper bound, and no basis finds a
Lagrangian ideal that another certifies absent.  The envelope certificate
must hold in at least as many bases as the per-direction certificate it
replaced did (``PER_DIRECTION_BASES``); the semidefinite forms reach g8 in 3,
g10 in 3, cs6 in 1 and fdim_metab in 7 of these 8 bases.
"""

import random

import pytest

from _samplers import change_of_basis, random_unimodular
from sympla.catalog import build
from sympla.certificates import build_envelope_certificate, verify_no_abelian_escape
from sympla.search import lagrangian_ideal, symplectic_rank_bounds
from sympla.symplectic import SymplecticLieAlgebra

PER_DIRECTION_BASES = {"g8": 2, "g10": 1, "cs6": 1, "fdim_metab": 7}


def bases(name: str) -> list[SymplecticLieAlgebra]:
    """The catalog entry, then its copies in the unimodular bases of seeds 1-7."""
    s = build(name).symplectic
    copies = [s]
    for seed in range(1, 8):
        p, p_inv = random_unimodular(random.Random(seed), s.dim)
        copies.append(SymplecticLieAlgebra(change_of_basis(s.algebra, p, p_inv),
                                           p.transpose().mul(s.omega).mul(p)))
    return copies


@pytest.mark.parametrize("name", sorted(PER_DIRECTION_BASES))
def test_answers_agree_across_bases(name):
    lowers, uppers, statuses, envelopes = [], [], set(), 0
    for s in bases(name):
        bounds = symplectic_rank_bounds(s)
        lowers.append(bounds.lower)
        uppers.append(bounds.upper)
        statuses.add(lagrangian_ideal(s).status)
        cert = build_envelope_certificate(s)
        envelopes += cert is not None and verify_no_abelian_escape(s, cert)
    assert max(lowers) <= min(uppers)
    assert not {"found", "certified_none"} <= statuses
    assert envelopes >= PER_DIRECTION_BASES[name]
