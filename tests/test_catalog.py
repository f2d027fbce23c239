import itertools
import random

import pytest

from sympla.catalog import build, expected_invariants, g10_automorphism, names
from sympla.exactla import Matrix, Q, Subspace, vunit
from sympla.liealg import (
    LieAlgebra,
    ValidationError,
    bracket_span,
    brackets_within,
    descending_central_series,
    is_ideal,
    nilpotency_class,
    solvability_degree,
    validate_jacobi,
)
from sympla.symplectic import isotropy_report, validate_symplectic


def test_names_are_buildable():
    for name in names():
        entry = build(name)
        assert validate_jacobi(entry.algebra).ok
        if entry.symplectic is not None:
            # re-validate from scratch
            validate_symplectic(entry.algebra, entry.symplectic.omega)


def test_expected_series_and_classes(cat):
    for name in ("g8", "g10", "filiform4"):
        e = cat(name)
        exp = e.expected
        if "c_series" in exp:
            assert list(descending_central_series(e.algebra).dims) == exp["c_series"]
        if "class" in exp:
            assert nilpotency_class(e.algebra) == exp["class"]
        if "solvability_degree" in exp:
            assert solvability_degree(e.algebra) == exp["solvability_degree"]


def test_expected_invariants_record():
    rec = expected_invariants("g8")
    assert rec["class"] == 4 and rec["rank"] == 3 and rec["z2_dim"] == 11
    assert rec["d_lambda2_dim"] == 17
    assert rec["c_series"] == [8, 5, 3, 1, 0]
    rec = expected_invariants("irr6")
    assert rec["b2_dim"] == 4 and rec["z2_dim"] == 7 and rec["rank"] == 0
    rec = expected_invariants("trivial")
    assert rec["rank"] == 0 and rec["z2_dim"] == 0


def test_cs6_rejects_degenerate_parameters():
    with pytest.raises(ValidationError):
        build("cs6", mu1=0)


def test_gklambda_parameter_validation():
    with pytest.raises(ValidationError):
        build("gklambda", k=1, characters=((1, 0), (-1, 0)))  # opposite pair
    with pytest.raises(ValidationError):
        build("gklambda", k=1, characters=((1, 0), (2, 0)))  # no spanning
    with pytest.raises(ValidationError):
        build("gklambda", k=1, characters=((0, 0), (0, 1)))  # zero character


def test_irr6_random_forms_have_nondegenerate_blocks(cat):
    """For 50 random symplectic forms in the closed cone, both invariant
    planes stay non-degenerate."""
    rng = random.Random(99)
    built = 0
    while built < 50:
        coeffs = {k: Q(rng.randint(-4, 4)) for k in
                  ("w12", "w34", "w56", "w15", "w25", "w36", "w46")}
        try:
            e = build("irr6", **coeffs)
        except Exception:
            continue
        built += 1
        for block in ("a1", "a2"):
            assert isotropy_report(e.symplectic, e.marked[block]).nondegenerate


def test_filiform4_unique_lagrangian(cat):
    e = cat("filiform4")
    c1 = e.marked["C1"]
    rep = isotropy_report(e.symplectic, c1)
    assert rep.lagrangian and is_ideal(e.algebra, c1)
    # uniqueness: any Lagrangian ideal contains the second descending term and
    # has dimension two, hence equals C1
    from sympla.search import lagrangian_ideal

    res = lagrangian_ideal(e.symplectic)
    assert res.subspace == c1


def test_tn_marker_structures(cat):
    e = cat("tn_cotangent", n=3)
    assert isotropy_report(e.symplectic, e.marked["dual_ideal"]).lagrangian
    dual = e.marked["dual_ideal"]
    assert is_ideal(e.algebra, dual)
    assert brackets_within(e.algebra, dual, dual, Subspace.zero(e.algebra.dim))


def test_aff_entry(cat):
    e = cat("aff", n=2)
    assert e.algebra.dim == 6
    t = e.marked["translations"]
    rep = isotropy_report(e.symplectic, t)
    assert is_ideal(e.algebra, t) and brackets_within(e.algebra, t, t, Subspace.zero(6))
    assert rep.isotropic


def test_g10_max_abelian_ideal(cat):
    e = cat("g10")
    am = e.marked["am"]
    assert is_ideal(e.algebra, am) and brackets_within(e.algebra, am, am, Subspace.zero(10))
    assert am.dim == 8
    from sympla.certificates import build_envelope_certificate, verify_no_abelian_escape

    cert = build_envelope_certificate(e.symplectic)
    assert cert.m == am and verify_no_abelian_escape(e.symplectic, cert)


def test_g10_automorphisms():
    ident = Matrix.identity(2)
    mat, is_auto, is_symp = g10_automorphism(ident)
    assert is_auto and is_symp
    assert mat.rows == Matrix.identity(10).rows
    rot = Matrix.from_rows([[Q(3, 5), Q(-4, 5)], [Q(4, 5), Q(3, 5)]], 2)
    assert rot.det() == 1
    _, is_auto, is_symp = g10_automorphism(rot)
    assert is_auto and is_symp
    diag = Matrix.from_rows([[2, 0], [0, 1]], 2)
    _, is_auto, is_symp = g10_automorphism(diag)
    assert is_auto and not is_symp
    with pytest.raises(ValidationError):
        g10_automorphism(Matrix.from_rows([[1, 1], [1, 1]], 2))


def test_g8_bracket_span_c1(cat):
    e = cat("g8")
    c1 = bracket_span(e.algebra, Subspace.full(8), Subspace.full(8))
    assert c1.dim == 5
    expected = Subspace.span(8, [vunit(8, i) for i in (1, 3, 4, 6, 7)])
    assert c1 == expected
