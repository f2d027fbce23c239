"""Isotropy from the integer Gram matrix, against the Fraction oracles.

``isotropy_report`` reads every field off the rank of the Gram matrix of a
subspace's integer rows, ``isotropic_part`` takes W ∩ W^perp from its kernel,
and ``omega_orthogonal`` eliminates integer rows.  Each is compared with the
definition it replaced, on every catalog entry in its catalog basis and three
unimodular bases: the series terms, the center, the Killing radical and
random subspaces.
"""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import isotropy_report_oracle, omega_orthogonal_oracle
from _samplers import unimodular_copy
from sympla.catalog import build, names as catalog_names
from sympla.exactla import Matrix, Q, Subspace
from sympla.liealg import (
    ascending_central_series,
    center,
    derived_series,
    descending_central_series,
    killing_radical,
)
from sympla.symplectic import (
    SymplecticError,
    SymplecticLieAlgebra,
    isotropic_part,
    isotropy_report,
    omega_orthogonal,
)

ENTRIES = tuple(name for name in catalog_names() if build(name).algebra.dim <= 10)
SEEDS = (0, 1, 2, 3)  # 0 is the catalog basis


@functools.lru_cache(maxsize=None)
def algebra(name: str, seed: int) -> SymplecticLieAlgebra:
    s = build(name).symplectic
    return s if seed == 0 else unimodular_copy(s, seed)[0]


def structural_subspaces(s: SymplecticLieAlgebra) -> list[Subspace]:
    g = s.algebra
    chains = (descending_central_series(g), ascending_central_series(g), derived_series(g))
    return list(dict.fromkeys([t for chain in chains for t in chain.terms]
                              + [center(g), killing_radical(g)]))


def assert_matches_oracle(s: SymplecticLieAlgebra, w: Subspace) -> None:
    rep = isotropy_report(s, w)
    assert rep.subspace == w
    assert (rep.isotropic, rep.coisotropic, rep.lagrangian, rep.nondegenerate,
            rep.corank) == isotropy_report_oracle(s, w)
    perp = omega_orthogonal_oracle(s, w)
    assert omega_orthogonal(s, w) == perp
    assert isotropic_part(s, w) == w.intersect(perp)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ENTRIES)
def test_structural_subspaces_match_the_fraction_oracles(name, seed):
    s = algebra(name, seed)
    for w in structural_subspaces(s):
        assert_matches_oracle(s, w)
        # the isotropic part is isotropic, and the orthogonal of W^perp is W
        assert isotropy_report(s, isotropic_part(s, w)).isotropic
        assert omega_orthogonal(s, omega_orthogonal(s, w)) == w


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ENTRIES), st.sampled_from(SEEDS), st.integers(0, 2**32),
       st.integers(0, 6))
def test_random_subspaces_match_the_fraction_oracles(name, seed, draw_seed, k):
    """Random spans of small integer vectors, often dependent or isotropic
    (few nonzero entries), including the zero and the full space."""
    s = algebra(name, seed)
    rng = random.Random(draw_seed)
    n = s.dim
    vectors = [[Q(rng.choice((-2, -1, 0, 0, 0, 1, 3))) for _ in range(n)] for _ in range(k)]
    for w in (Subspace.span(n, vectors), Subspace.zero(n), Subspace.full(n)):
        assert_matches_oracle(s, w)


def test_isotropic_subspace_beyond_half_dimension_raises():
    """On a degenerate form (which ``validate_symplectic`` refuses) a subspace
    can be isotropic and larger than half the dimension: the report raises
    instead of returning a negative corank."""
    s = build("fdim_metab").symplectic
    zero_form = SymplecticLieAlgebra(s.algebra, Matrix.zeros(s.dim, s.dim))
    with pytest.raises(SymplecticError):
        isotropy_report(zero_form, Subspace.full(s.dim))
    assert isotropy_report(zero_form, Subspace.span(s.dim, [s.algebra.basis_vector(0)])).corank == 1
