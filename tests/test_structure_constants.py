"""The sparse structure-constant kernel against the dense scans it replaced.

``bracket``, ``ad``, ``validate_jacobi``, ``closedness_violations`` and
``derivation_algebra`` read ``LieAlgebra.nonzero``.  The oracles below read every entry of
``LieAlgebra.table`` and go through one dense bracket at a time; they are the
package's routines as they were before the sparse view, kept only here.
"""

import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from _oracles import kernel_oracle
from _samplers import change_of_basis, random_invertible, random_skew, sparse_rationals
from sympla.catalog import names as catalog_names
from sympla.exactla import (
    Matrix, Q, Subspace, bilinear, is_zero_vec, vadd, vec, vunit, vzero,
)
from sympla.liealg import LieAlgebra, combos, derivation_algebra, validate_jacobi
from sympla.symplectic import closedness_violations


def bracket_oracle(g: LieAlgebra, u, v):
    u, v = vec(u), vec(v)
    out = list(vzero(g.dim))
    for i, a in enumerate(u):
        if a == 0:
            continue
        for j, b in enumerate(v):
            if b == 0:
                continue
            c = a * b
            for k, t in enumerate(g.table[i][j]):
                if t != 0:
                    out[k] += c * t
    return tuple(out)


def ad_oracle(g: LieAlgebra, v) -> Matrix:
    cols = [bracket_oracle(g, v, vunit(g.dim, j)) for j in range(g.dim)]
    return Matrix(tuple(cols), g.dim).transpose()


def jacobi_defect_oracle(g: LieAlgebra, i: int, j: int, k: int):
    a = bracket_oracle(g, g.table[i][j], vunit(g.dim, k))
    b = bracket_oracle(g, g.table[j][k], vunit(g.dim, i))
    c = bracket_oracle(g, g.table[k][i], vunit(g.dim, j))
    return vadd(vadd(a, b), c)


def jacobi_violations_oracle(g: LieAlgebra):
    bad = []
    for i, j, k in itertools.combinations(range(g.dim), 3):
        d = jacobi_defect_oracle(g, i, j, k)
        if not is_zero_vec(d):
            bad.append((i, j, k, d))
    return tuple(bad)


def closedness_oracle(g: LieAlgebra, omega: Matrix):
    bad = []
    for i, j, k in itertools.combinations(range(g.dim), 3):
        ei, ej, ek = (vunit(g.dim, t) for t in (i, j, k))
        s = bilinear(omega, g.table[i][j], ek)
        s += bilinear(omega, bracket_oracle(g, ek, ei), ej)
        s += bilinear(omega, g.table[j][k], ei)
        if s != 0:
            bad.append((i, j, k, s))
    return bad


def derivation_oracle(g: LieAlgebra) -> Subspace:
    n = g.dim
    rows = []
    for i, j in itertools.combinations(range(n), 2):
        cij = g.table[i][j]
        for k in range(n):
            row = [Q(0)] * (n * n)
            for l in range(n):
                row[k * n + l] += cij[l]
            for l in range(n):
                row[l * n + i] -= g.table[l][j][k]
                row[l * n + j] -= g.table[i][l][k]
            rows.append(tuple(row))
    if not rows:
        return Subspace.full(n * n)
    return Subspace.span(n * n, kernel_oracle(Matrix(tuple(rows), n * n)))


def random_vectors(rng: random.Random, n: int, count: int = 4):
    """A zero vector, a unit vector and sparse random rational vectors."""
    out = [vzero(n)] + ([vunit(n, rng.randrange(n))] if n else [])
    for _ in range(count):
        out.append(tuple(Q(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.5
                         else Q(0) for _ in range(n)))
    return out


def assert_kernel_matches_oracles(g: LieAlgebra, forms, rng: random.Random):
    vectors = random_vectors(rng, g.dim)
    for u in vectors:
        assert g.ad(u) == ad_oracle(g, u)
        for v in vectors:
            assert g.bracket(u, v) == bracket_oracle(g, u, v)
    assert validate_jacobi(g).violations == jacobi_violations_oracle(g)
    for omega in forms:
        assert closedness_violations(g, omega) == closedness_oracle(g, omega)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(catalog_names()), st.booleans(), st.integers(0, 2**32))
def test_sparse_kernel_matches_the_dense_oracles_on_the_catalog(cat, name, dense, seed):
    """Catalog algebras, as built and after a change of basis that fills in
    the constants; with the catalog form (closed) and a random skew form."""
    rng = random.Random(seed)
    entry = cat(name)
    g, omega = entry.algebra, entry.symplectic.omega
    if dense and g.dim:
        p, p_inv = random_invertible(rng, g.dim)
        g = change_of_basis(g, p, p_inv)
        omega = p.transpose().mul(omega).mul(p)
    assert not closedness_oracle(g, omega)
    assert_kernel_matches_oracles(g, (omega, random_skew(rng, g.dim)), rng)


@st.composite
def antisymmetric_tables(draw) -> LieAlgebra:
    n = draw(st.integers(3, 6))
    brackets = {}
    for i, j in combos(n, 2):
        values = draw(st.lists(sparse_rationals, min_size=n, max_size=n))
        brackets[(i, j)] = {k: c for k, c in enumerate(values) if c}
    return LieAlgebra.from_brackets(n, brackets)


@settings(max_examples=40, deadline=None)
@given(antisymmetric_tables(), st.integers(0, 2**32))
def test_sparse_kernel_matches_the_dense_oracles_on_broken_tables(g, seed):
    """Antisymmetric tables that break Jacobi, with skew forms that are not closed."""
    rng = random.Random(seed)
    omega = random_skew(rng, g.dim)
    assume(jacobi_violations_oracle(g) and closedness_oracle(g, omega))
    assert_kernel_matches_oracles(g, (omega,), rng)
    assert derivation_algebra(g) == derivation_oracle(g)


@pytest.mark.parametrize("name", catalog_names())
def test_derivation_algebra_matches_the_dense_oracle_on_the_catalog(cat, name):
    """Each catalog algebra as built and, up to dimension 8, after a change of
    basis that fills in the constants."""
    g = cat(name).algebra
    assert derivation_algebra(g) == derivation_oracle(g)
    if 0 < g.dim <= 8:
        p, p_inv = random_invertible(random.Random(name), g.dim)
        h = change_of_basis(g, p, p_inv)
        assert derivation_algebra(h) == derivation_oracle(h)

