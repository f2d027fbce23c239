"""The integer structure constants and the per-algebra derived values.

``bracket_span``, the three series, ``center``, ``centralizer``,
``killing_radical`` and ``jacobi_defect`` run on the constants scaled to
integers over one common denominator d.  The Fraction routines they replaced
are kept in ``_oracles`` and must agree with them, also where d > 1: the cs6
family with non-integral parameters, catalog algebras after a rational change
of basis and random rational tables, broken ones included.  The derived
values are computed once per algebra and kept in the instance.
"""

import itertools
import math
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import sympla.liealg as liealg
from _oracles import (
    ascending_central_series_oracle,
    bracket_span_oracle,
    center_oracle,
    centralizer_oracle,
    derived_series_oracle,
    descending_central_series_oracle,
    jacobi_defect_oracle,
    killing_radical_oracle,
)
from _samplers import change_of_basis, random_invertible, sparse_rationals
from sympla import catalog
from sympla.cli import parse
from sympla.exactla import Q, Subspace
from sympla.liealg import (
    LieAlgebra,
    ValidationError,
    ascending_central_series,
    bracket_span,
    center,
    centralizer,
    combos,
    derived_algebra,
    derived_series,
    descending_central_series,
    killing_radical,
    require_valid,
    validate_jacobi,
)
from sympla.reduction import reduce

ALGEBRAS = pathlib.Path(__file__).resolve().parent.parent / "algebras"
CS6_VALUES = (Q(1, 2), Q(-1, 3), Q(3, 2))
STORED = (descending_central_series, ascending_central_series, derived_series, center,
          killing_radical, derived_algebra, validate_jacobi)


def random_subspaces(rng: random.Random, n: int, count: int = 3) -> list[Subspace]:
    """Spans of one to three sparse random rational vectors."""
    out = []
    for _ in range(count):
        vecs = [tuple(Q(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.5 else Q(0)
                      for _ in range(n)) for _ in range(rng.randint(1, 3))]
        out.append(Subspace.span(n, vecs))
    return out


def assert_matches_oracles(g: LieAlgebra, rng: random.Random) -> None:
    desc, asc, der = (descending_central_series(g), ascending_central_series(g),
                      derived_series(g))
    assert desc == descending_central_series_oracle(g)
    assert asc == ascending_central_series_oracle(g)
    assert der == derived_series_oracle(g)
    assert center(g) == center_oracle(g)
    assert killing_radical(g) == killing_radical_oracle(g)
    full = Subspace.full(g.dim)
    assert derived_algebra(g) == bracket_span_oracle(g, full, full)
    subs = [full, Subspace.zero(g.dim), center(g), killing_radical(g)] \
        + list(desc.terms[1:2] + asc.terms[1:2] + der.terms[1:2]) + random_subspaces(rng, g.dim)
    for a in subs:
        assert centralizer(g, a) == centralizer_oracle(g, a)
        for b in subs:
            assert bracket_span(g, a, b) == bracket_span_oracle(g, a, b)
    for i, j, k in combos(g.dim, 3):
        assert liealg.jacobi_defect(g, i, j, k) == jacobi_defect_oracle(g, i, j, k)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(catalog.names()), st.booleans(), st.integers(0, 2**32))
def test_catalog_and_changes_of_basis_match_the_fraction_oracles(cat, name, dense, seed):
    rng = random.Random(seed)
    g = cat(name).algebra
    if dense and g.dim:
        g = change_of_basis(g, *random_invertible(rng, g.dim))
    assert_matches_oracles(g, rng)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(CS6_VALUES), st.sampled_from(CS6_VALUES), st.booleans(),
       st.integers(0, 2**32))
def test_cs6_with_non_integral_constants_matches_the_fraction_oracles(mu1, mu2, dense, seed):
    rng = random.Random(seed)
    g = catalog.build("cs6", mu1=mu1, mu2=mu2).algebra
    assert g.integer_constants[0] > 1
    if dense:
        g = change_of_basis(g, *random_invertible(rng, g.dim))
    assert_matches_oracles(g, rng)


@st.composite
def rational_tables(draw) -> LieAlgebra:
    """Antisymmetric tables with sparse rational constants; most break Jacobi."""
    n = draw(st.integers(2, 6))
    brackets = {}
    for i, j in combos(n, 2):
        values = draw(st.lists(sparse_rationals, min_size=n, max_size=n))
        brackets[(i, j)] = {k: c for k, c in enumerate(values) if c}
    return LieAlgebra.from_brackets(n, brackets)


@settings(max_examples=40, deadline=None)
@given(rational_tables(), st.integers(0, 2**32))
def test_random_rational_tables_match_the_fraction_oracles(g, seed):
    assert_matches_oracles(g, random.Random(seed))


@settings(max_examples=40, deadline=None)
@given(rational_tables())
def test_jacobi_witnesses_are_the_fraction_witnesses(g):
    """The report lists every triple with its defect, as the same Fractions,
    and ``require_valid`` names the first one."""
    d = g.integer_constants[0]
    assert d == math.lcm(*(c.denominator for row in g.table for v in row for c in v))
    expected = tuple((i, j, k, jacobi_defect_oracle(g, i, j, k))
                     for i, j, k in combos(g.dim, 3)
                     if any(jacobi_defect_oracle(g, i, j, k)))
    assert validate_jacobi(g).violations == expected
    if expected:
        with pytest.raises(ValidationError) as err:
            require_valid(g)
        assert err.value.witness == expected[0]
        assert str(err.value) == f"Jacobi identity fails on basis triple {expected[0][:3]}"


@pytest.mark.parametrize("name", ("g8", "cs6", "aff"))
def test_stored_values_agree_across_relabel_and_rebuild(name):
    """Relabelling or rebuilding the same table gives a fresh instance with
    equal values; a second call returns the identical stored object."""
    g = catalog.build(name).algebra
    brackets = {(i, j): dict(g.nonzero[i][j]) for i, j in combos(g.dim, 2) if g.nonzero[i][j]}
    copies = (g.relabel([f"x{i}" for i in range(g.dim)]),
              LieAlgebra.from_brackets(g.labels, brackets))
    for fn in STORED:
        value = fn(g)
        assert fn(g) is value
        for h in copies:
            assert h is not g and fn(h) == value


def _count_jacobi_triples(monkeypatch) -> list:
    calls = []
    original = liealg.jacobi_defect

    def counted(g, i, j, k):
        calls.append((i, j, k))
        return original(g, i, j, k)
    monkeypatch.setattr(liealg, "jacobi_defect", counted)
    return calls


@pytest.mark.parametrize("name", ("g8", "g10", "irr6"))
def test_parse_evaluates_each_jacobi_triple_once(monkeypatch, name):
    """Parsing validates the bracket and then the symplectic form; the second
    check reads the stored report."""
    calls = _count_jacobi_triples(monkeypatch)
    parsed = parse((ALGEBRAS / f"{name}.alg").read_text())
    n = parsed.algebra.dim
    assert parsed.symplectic is not None
    assert sorted(calls) == list(itertools.combinations(range(n), 3))


def test_catalog_and_reduce_validate_each_new_algebra_once(monkeypatch):
    calls = _count_jacobi_triples(monkeypatch)
    s = catalog.build("g10").symplectic
    assert sorted(calls) == list(itertools.combinations(range(10), 3))
    calls.clear()
    step = reduce(s, center(s.algebra))
    assert step.reduced.dim == 6
    assert sorted(calls) == list(itertools.combinations(range(6), 3))
