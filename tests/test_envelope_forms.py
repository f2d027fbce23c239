"""The envelope certificate: semidefinite double-bracket forms.

``certificates.double_bracket_forms`` gives, for one probe p, a symmetric
integer matrix per coordinate k of [v, [p, v]] over the unit basis.  Scaled
back (by the probe's scale and the denominator of the constants), each must
equal the Fraction polynomial of ``_oracles.double_bracket_oracle`` at
v = sum t_a e_a, coefficient by coefficient.  ``certificates.semidefinite``
must agree with the principal minors.  The certificate must hold wherever
the previous per-direction certificate (``_oracles.envelope_witnesses_oracle``)
held, its forms must be semidefinite with a common radical inside m in
Fraction arithmetic, and the verifier must refuse a certificate that was
tampered with.
"""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    closedness_violations_oracle,
    double_bracket_oracle,
    envelope_witnesses_oracle,
    hessian_oracle,
    kernel_oracle,
    poly_var,
    semidefinite_oracle,
)
from _samplers import change_of_basis, random_invertible, random_skew
from sympla.catalog import build, names as catalog_names
from sympla.certificates import (
    abelian_envelope_candidate,
    build_envelope_certificate,
    double_bracket_forms,
    semidefinite,
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


def scaled_back(s: SymplecticLieAlgebra, probe, form) -> dict:
    """The polynomial v^T S v / (2 D² L) in the coordinates t_a of v, with
    L the lcm of the probe's denominators."""
    den = 2 * s.algebra.integer_constants[0] ** 2 * math.lcm(*(x.denominator for x in probe))
    terms = {(a, b): Q(form[a][b] * (1 if a == b else 2), den)
             for a in range(s.dim) for b in range(a, s.dim)}
    return {k: c for k, c in terms.items() if c}


def oracle_forms(s: SymplecticLieAlgebra, probe) -> list[dict]:
    return double_bracket_oracle(s.algebra, probe, [poly_var(a) for a in range(s.dim)])


def assert_forms_match_the_oracle(s: SymplecticLieAlgebra, probes) -> None:
    for probe in probes:
        forms = double_bracket_forms(s.algebra, probe)
        for form, poly in zip(forms, oracle_forms(s, probe), strict=True):
            assert all(form[a][b] == form[b][a] for a in range(s.dim) for b in range(s.dim))
            assert scaled_back(s, probe, form) == poly


def oracle_verifies(s: SymplecticLieAlgebra, m: Subspace, pairs) -> bool:
    """The certificate in Fraction arithmetic: the Hessian of each listed
    polynomial is semidefinite by its principal minors, and the common kernel
    of the Hessians lies in m."""
    n = s.dim
    rows = []
    for probe, k in pairs:
        if len(probe) != n or not 0 <= k < n:
            return False
        hessian = hessian_oracle(oracle_forms(s, probe)[k], n)
        if not semidefinite_oracle(hessian.rows):
            return False
        rows.extend(hessian.rows)
    kernel = kernel_oracle(Matrix.from_rows(rows, n))
    return all(m.contains_vector(v) for v in kernel)


def assert_the_certificate_dominates_the_oracle(s: SymplecticLieAlgebra, m: Subspace) -> None:
    cert = build_envelope_certificate(s, m)
    if envelope_witnesses_oracle(s.algebra, m) is not None:
        assert cert is not None and cert.m == m
    if cert is not None:
        assert verify_no_abelian_escape(s, cert)
        assert oracle_verifies(s, m, cert.pairs)


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
    probes = [vunit(n, i) for i in rng.sample(range(n), min(n, 3))] + [random_probe(rng, n)]
    assert_forms_match_the_oracle(s, probes)
    assert_the_certificate_dominates_the_oracle(s, abelian_ideal(s))


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(CS6_VALUES), st.sampled_from(CS6_VALUES), st.booleans(),
       st.integers(0, 2**32))
def test_forms_match_the_polynomial_oracle_on_cs6(mu1, mu2, dense, seed):
    """cs6 with non-integral parameters (D > 1), and in a rational basis."""
    rng = random.Random(seed)
    s = entry_copy("cs6", {"mu1": mu1, "mu2": mu2}, dense, rng)
    probes = [vunit(6, i) for i in range(6)] + [random_probe(rng, 6)]
    assert_forms_match_the_oracle(s, probes)
    assert_the_certificate_dominates_the_oracle(s, abelian_ideal(s))


def test_scales_other_than_one_are_exercised():
    """The cases above reach D > 1 and probes with L > 1."""
    s = build("cs6", mu1=Q(1, 2), mu2=Q(-1, 3)).symplectic
    assert s.algebra.integer_constants[0] > 1
    probe = (Q(1, 3),) + vzero(5)
    assert_forms_match_the_oracle(s, [probe])
    assert any(map(any, double_bracket_forms(s.algebra, probe)[2]))


@st.composite
def symmetric_forms(draw):
    """+-B^T B for a random integer B, or a random symmetric integer matrix
    near one."""
    n = draw(st.integers(1, 6))
    b = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=n + 1))
    sign = draw(st.sampled_from((1, -1)))
    form = [[sign * sum(row[i] * row[j] for row in b) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        d = draw(st.integers(-2, 2))
        form[i][j] += d
        if i != j:
            form[j][i] += d
    return form


@settings(max_examples=300, deadline=None)
@given(symmetric_forms())
def test_semidefinite_matches_the_principal_minors(form):
    assert semidefinite(form) == semidefinite_oracle(form)


def test_semidefinite_examples():
    assert semidefinite([[0, 0], [0, 0]]) and semidefinite([])
    assert semidefinite([[1, 1], [1, 1]]) and semidefinite([[-2, 2], [2, -2]])
    assert not semidefinite([[0, 1], [1, 0]])        # a zero diagonal, a nonzero row
    assert not semidefinite([[1, 0], [0, -1]])       # two signs on the diagonal
    assert not semidefinite([[1, 2], [2, 1]])        # positive diagonal, negative pivot
    assert not semidefinite([[1, 1, 0], [1, 1, 1], [0, 1, 0]])  # the Schur complement


# ---------------------------------------------------------------------------
# tampered certificates


def genuine(name: str):
    s = build(name).symplectic
    cert = build_envelope_certificate(s)
    assert cert is not None and cert.pairs and verify_no_abelian_escape(s, cert)
    return s, cert


def with_pair(cert, t: int, pair):
    pairs = list(cert.pairs)
    pairs[t] = pair
    return replace(cert, pairs=tuple(pairs))


@pytest.mark.parametrize("name", ("g10", "cs6"))
def test_verifier_rejects_a_changed_witness_coordinate(name):
    """A changed coordinate is refused unless its form is as good, which the
    Fraction oracle decides; coordinates out of range are always refused."""
    s, cert = genuine(name)
    refused = 0
    for t, (probe, coord) in enumerate(cert.pairs):
        for other in range(-1, s.dim + 1):
            if other != coord:
                changed = with_pair(cert, t, (probe, other))
                ok = verify_no_abelian_escape(s, changed)
                assert ok == oracle_verifies(s, cert.m, changed.pairs), (t, other)
                refused += not ok
        assert not verify_no_abelian_escape(s, with_pair(cert, t, (probe[:-1], coord)))
    assert refused > 2 * len(cert.pairs)


@pytest.mark.parametrize("name", ("g10", "cs6"))
def test_verifier_rejects_an_indefinite_form(name):
    s, cert = genuine(name)
    indefinite = [(vunit(s.dim, i), k) for i in range(s.dim)
                  for k, form in enumerate(double_bracket_forms(s.algebra, vunit(s.dim, i)))
                  if not semidefinite_oracle(form)]
    assert indefinite
    for t in range(len(cert.pairs)):
        for pair in indefinite:
            assert not verify_no_abelian_escape(s, with_pair(cert, t, pair))
    assert not verify_no_abelian_escape(s, replace(cert, pairs=cert.pairs + tuple(indefinite[:1])))


@pytest.mark.parametrize("name", ("g10", "cs6"))
def test_verifier_rejects_a_probe_whose_polynomial_vanishes(name):
    """A zero form is semidefinite but adds nothing to the span: in place of
    the last pair it leaves the span short, as dropping that pair does."""
    s, cert = genuine(name)
    coord = cert.pairs[-1][1]
    for probe in (vzero(s.dim),) + center(s.algebra).rows:  # cs6 has no center
        assert not any(map(any, double_bracket_forms(s.algebra, probe)[coord]))
        changed = with_pair(cert, len(cert.pairs) - 1, (probe, coord))
        assert not verify_no_abelian_escape(s, changed)


@pytest.mark.parametrize("name", ("g10", "cs6"))
def test_verifier_rejects_a_dropped_pair(name):
    """Without its last pair the span is the one before the build kept that
    pair, which did not contain the annihilator of m."""
    s, cert = genuine(name)
    assert not verify_no_abelian_escape(s, replace(cert, pairs=cert.pairs[:-1]))
    assert not verify_no_abelian_escape(s, replace(cert, pairs=()))
    for t in range(len(cert.pairs)):
        dropped = cert.pairs[:t] + cert.pairs[t + 1:]
        assert verify_no_abelian_escape(s, replace(cert, pairs=dropped)) \
            == oracle_verifies(s, cert.m, dropped)


@pytest.mark.parametrize("name", ("g10", "cs6"))
def test_verifier_rejects_a_changed_m(name):
    """m must be an abelian ideal, with the non-degeneracy it claims, and the
    forms must confine every abelian ideal to it: the center, an abelian ideal
    inside m, is refused."""
    s, cert = genuine(name)
    for m in (Subspace.full(s.dim), center(s.algebra)):
        assert m != cert.m
        assert not verify_no_abelian_escape(s, replace(cert, m=m))
    not_an_ideal = next(Subspace.span(s.dim, [vunit(s.dim, i)]) for i in range(s.dim)
                        if not cert.m.contains_vector(vunit(s.dim, i)))
    assert not verify_no_abelian_escape(s, replace(cert, m=not_an_ideal))
    assert not verify_no_abelian_escape(s, replace(cert, nondegenerate=not cert.nondegenerate))


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
