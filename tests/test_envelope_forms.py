"""The envelope certificate on integer quadratic forms.

``certificates.double_bracket_forms`` gives, for one probe, a symmetric
integer matrix per coordinate of the double bracket [v, [p, v]] of the escape
vector, over the basis of ``certificates.escape_basis``.  Scaled back (by the
probe's scale, the denominator of the constants and the scales of the integer
rows of m), each must equal the Fraction polynomial of the previous code, kept
in ``_oracles``, coefficient by coefficient; the never-zero and affine-square
decisions and the certificates themselves must agree with it.  The verifier
must refuse a certificate that was tampered with.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    closedness_violations_oracle,
    double_bracket_oracle,
    envelope_witnesses_oracle,
    escape_vector_oracle,
    poly_as_affine_square,
    poly_never_zero,
)
from _samplers import change_of_basis, random_invertible, random_skew
from sympla.catalog import build, names as catalog_names
from sympla.certificates import (
    DirectionWitness,
    abelian_envelope_candidate,
    build_envelope_certificate,
    double_bracket_forms,
    escape_basis,
    form_affine_square,
    form_never_zero,
    verify_no_abelian_escape,
)
from sympla.exactla import Matrix, Q, Subspace, vunit, vzero
from sympla.liealg import center
from sympla.symplectic import SymplecticLieAlgebra, closedness_violations

CS6_VALUES = (Q(1, 2), Q(-1, 3), Q(3, 2))
SMALL = tuple(n for n in catalog_names() if build(n).algebra.dim <= 10)


def entry_copy(name: str, params: dict, dense: bool, rng: random.Random) -> SymplecticLieAlgebra:
    """The catalog entry, or its copy in a random rational basis."""
    s = build(name, **params).symplectic
    if not dense or s.dim == 0:
        return s
    p, p_inv = random_invertible(rng, s.dim)
    return SymplecticLieAlgebra(change_of_basis(s.algebra, p, p_inv),
                                p.transpose().mul(s.omega).mul(p))


def abelian_ideal(s: SymplecticLieAlgebra) -> Subspace:
    """The envelope candidate, or the center where there is none."""
    m = abelian_envelope_candidate(s.algebra)
    return center(s.algebra) if m is None else m


def scaled_back(s: SymplecticLieAlgebra, m: Subspace, t: int, scale: int, form) -> dict:
    """The polynomial u^T S u / (2 D² L) with u_t = 1 in the oracle's variables:
    the other directions, then s_j = lambda_j u_j over the rows of m."""
    g, n = s.algebra, s.dim
    if form is None:
        return {}
    den = 2 * g.integer_constants[0] ** 2 * scale
    lam = [1] * (n - m.dim) + [row[p] for row, p in zip(m.integer_rows, m.pivots)]
    var = [a for a in range(n) if a != t]
    terms = {(): Q(form[t][t], den)}
    for i, a in enumerate(var):
        terms[(i,)] = Q(2 * form[t][a], den * lam[a])
        for j in range(i, len(var)):
            b = var[j]
            terms[(i, j)] = Q(form[a][b] * (1 if a == b else 2), den * lam[a] * lam[b])
    return {k: c for k, c in terms.items() if c}


def assert_forms_match_the_oracle(s: SymplecticLieAlgebra, m: Subspace, probes) -> None:
    g = s.algebra
    directions, basis = escape_basis(g, m)
    for probe in probes:
        scale, forms = double_bracket_forms(g, basis, probe)
        for t, d in enumerate(directions):
            v, nvars = escape_vector_oracle(g, m, directions, d)
            polys = double_bracket_oracle(g, probe, v)
            for form, poly in zip(forms, polys, strict=True):
                assert scaled_back(s, m, t, scale, form) == poly
                if poly:
                    assert form_never_zero(form, t) == poly_never_zero(poly, nvars)
                    assert (form_affine_square(form, scale) is None) \
                        == (poly_as_affine_square(poly, nvars) is None)


def assert_certificate_matches_the_oracle(s: SymplecticLieAlgebra, m: Subspace) -> None:
    cert = build_envelope_certificate(s, m)
    expected = envelope_witnesses_oracle(s.algebra, m)
    if expected is None:
        assert cert is None
    else:
        assert tuple((w.direction, w.single, w.squares) for w in cert.witnesses) == expected
        assert verify_no_abelian_escape(s, cert)


def random_probe(rng: random.Random, n: int):
    return tuple(Q(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.6 else Q(0)
                 for _ in range(n))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SMALL), st.booleans(), st.integers(0, 2**32))
def test_forms_match_the_polynomial_oracle_on_the_catalog(name, dense, seed):
    """Catalog entries as built and in a random rational basis, probed with
    basis vectors and a random rational vector."""
    rng = random.Random(seed)
    s = entry_copy(name, {}, dense, rng)
    n = s.dim
    m = abelian_ideal(s)
    probes = [vunit(n, i) for i in rng.sample(range(n), min(n, 3))] + [random_probe(rng, n)]
    assert_forms_match_the_oracle(s, m, probes)
    assert_certificate_matches_the_oracle(s, m)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(CS6_VALUES), st.sampled_from(CS6_VALUES), st.booleans(),
       st.integers(0, 2**32))
def test_forms_match_the_polynomial_oracle_on_cs6(mu1, mu2, dense, seed):
    """cs6 with non-integral parameters (D > 1), and in a rational basis,
    where the rows of m have denominators."""
    rng = random.Random(seed)
    s = entry_copy("cs6", {"mu1": mu1, "mu2": mu2}, dense, rng)
    m = abelian_ideal(s)
    probes = [vunit(6, i) for i in range(6)] + [random_probe(rng, 6)]
    assert_forms_match_the_oracle(s, m, probes)
    assert_certificate_matches_the_oracle(s, m)


def test_scales_other_than_one_are_exercised():
    """The cases above reach D > 1, rows of m with lambda > 1 and probes with
    L > 1."""
    rng = random.Random(4)
    s = entry_copy("cs6", {"mu1": Q(1, 2), "mu2": Q(-1, 3)}, True, rng)
    m = abelian_ideal(s)
    assert s.algebra.integer_constants[0] > 1
    assert any(row[p] > 1 for row, p in zip(m.integer_rows, m.pivots))
    _, basis = escape_basis(s.algebra, m)
    assert double_bracket_forms(s.algebra, basis, (Q(1, 3),) + vzero(5))[0] == 3


# ---------------------------------------------------------------------------
# tampered certificates


def genuine(name: str):
    s = build(name).symplectic
    cert = build_envelope_certificate(s)
    assert cert is not None and verify_no_abelian_escape(s, cert)
    return s, cert


def with_witness(cert, t: int, witness: DirectionWitness):
    witnesses = list(cert.witnesses)
    witnesses[t] = witness
    return replace(cert, witnesses=tuple(witnesses))


@pytest.mark.parametrize("name", ("g10", "cs6"))
def test_verifier_rejects_a_changed_witness_coordinate(name):
    s, cert = genuine(name)
    w = cert.witnesses[0]
    probe, coord = w.single
    for other in range(s.dim + 1):  # s.dim is out of range
        if other != coord:
            changed = with_witness(cert, 0, replace(w, single=(probe, other)))
            assert not verify_no_abelian_escape(s, changed), other
    changed = with_witness(cert, 0, replace(w, single=(probe[:-1], coord)))
    assert not verify_no_abelian_escape(s, changed)


@pytest.mark.parametrize("name", ("g10", "cs6"))
def test_verifier_rejects_a_probe_whose_polynomial_vanishes(name):
    s, cert = genuine(name)
    w = cert.witnesses[-1]
    coord = w.single[1]
    for probe in (vzero(s.dim),) + center(s.algebra).rows:  # cs6 has no center
        changed = with_witness(cert, len(cert.witnesses) - 1, replace(w, single=(probe, coord)))
        assert not verify_no_abelian_escape(s, changed)


@pytest.mark.parametrize("name", ("g10", "cs6"))
def test_verifier_rejects_a_dropped_direction(name):
    s, cert = genuine(name)
    assert not verify_no_abelian_escape(s, replace(
        cert, directions=cert.directions[1:], witnesses=cert.witnesses[1:]))
    assert not verify_no_abelian_escape(s, replace(cert, witnesses=cert.witnesses[1:]))
    assert not verify_no_abelian_escape(s, replace(cert, witnesses=cert.witnesses[::-1]))


def test_verifier_rejects_a_square_pool_made_feasible():
    """In cs6 the four squares of direction d1 have no common zero, and
    replace its single witness; the two that vanish at t = s = 0 do not."""
    s, cert = genuine("cs6")
    pool = tuple((vunit(6, i), i) for i in range(2, 6))
    squares = with_witness(cert, 0, DirectionWitness(0, None, pool))
    assert verify_no_abelian_escape(s, squares)
    directions, _ = escape_basis(s.algebra, cert.m)
    v, _ = escape_vector_oracle(s.algebra, cert.m, directions, 0)
    feasible = tuple((p, k) for p, k in pool
                     if () not in double_bracket_oracle(s.algebra, p, v)[k])
    assert 0 < len(feasible) < len(pool)
    changed = with_witness(cert, 0, DirectionWitness(0, None, feasible))
    assert not verify_no_abelian_escape(s, changed)
    assert not verify_no_abelian_escape(s, with_witness(cert, 0, DirectionWitness(0, None, ())))


# ---------------------------------------------------------------------------
# closedness on integers


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(catalog_names()), st.booleans(), st.booleans(), st.integers(0, 2**32))
def test_closedness_violations_match_the_fraction_oracle(name, dense, perturb, seed):
    """Catalog forms (closed) in the catalog basis and in a rational basis,
    and the same forms with a random rational skew form added."""
    rng = random.Random(seed)
    s = entry_copy(name, {}, dense and build(name).algebra.dim <= 12, rng)
    omega = s.omega.add(random_skew(rng, s.dim).scale(Q(1, rng.randint(1, 6)))) if perturb \
        else s.omega
    assert closedness_violations(s.algebra, omega) == closedness_violations_oracle(s.algebra, omega)
    if not perturb:
        assert closedness_violations(s.algebra, omega) == []


def test_closedness_violations_on_cs6_with_rational_parameters():
    for mu1 in CS6_VALUES:
        s = build("cs6", mu1=mu1, mu2=Q(-1, 3)).symplectic
        omega = s.omega.add(Matrix.skew(6, {(0, 2): Q(1, 5), (2, 4): Q(-3, 7)}))
        bad = closedness_violations(s.algebra, omega)
        assert bad and bad == closedness_violations_oracle(s.algebra, omega)
