import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import invariant_ideal_trap_oracle
from _samplers import (
    abelian_oxidation_data,
    change_of_basis,
    heisenberg_oxidation_data,
    heisenberg_pair_base,
    random_invertible,
    random_nilpotent_symplectic,
    random_nondegenerate_skew,
    unimodular_copy,
)
from sympla.catalog import build, find_symplectic_form, names as catalog_names
from sympla.certificates import (
    abelian_envelope_candidate,
    build_envelope_certificate,
    invariant_ideal_trap,
    irreducible_structure_certificate,
    verify_no_abelian_escape,
)
from sympla.exactla import Matrix, Q, Subspace, vunit
from sympla.liealg import (
    LieAlgebra,
    ascending_central_series,
    bracket_span,
    brackets_within,
    center,
    descending_central_series,
    is_ideal,
    nilpotency_class,
)
from sympla.oxidation import symplectic_oxidation
from sympla.search import (
    irreducible_base,
    is_completely_reducible,
    isotropic_ideals_enumerate,
    lagrangian_ideal,
    lagrangian_relations_check,
    lagrangian_subalgebra,
    socle_extension,
    symplectic_length_upper,
    symplectic_rank_bounds,
)
from sympla.symplectic import (
    SymplecticLieAlgebra,
    isotropy_report,
    omega_orthogonal,
    validate_symplectic,
)

NILPOTENT = tuple(n for n in catalog_names()
                  if build(n).algebra.dim and nilpotency_class(build(n).algebra) is not None)


def two_step_example():
    """h3 + line with a product-type symplectic form."""
    g = LieAlgebra.from_brackets(("X", "Y", "Z", "W"), {(0, 1): {2: 1}})
    rows = [[Q(0)] * 4 for _ in range(4)]
    rows[2][0] = Q(1)  # Z pairs X
    rows[0][2] = Q(-1)
    rows[1][3] = Q(1)  # Y pairs W
    rows[3][1] = Q(-1)
    return validate_symplectic(g, Matrix.from_rows(rows, 4))


def test_enumerate_abelian():
    rng = random.Random(0)
    g = LieAlgebra.abelian(4)
    s = validate_symplectic(g, random_nondegenerate_skew(rng, 4))
    found = isotropic_ideals_enumerate(s)
    assert found
    assert all(sub.dim <= 2 for sub in found)


def test_enumerate_g8_finds_known_ideals(cat):
    e = cat("g8")
    found = isotropic_ideals_enumerate(e.symplectic)
    assert e.marked["Hline"] in found
    assert e.marked["j3"] in found
    for sub in found:
        assert isotropy_report(e.symplectic, sub).isotropic
        assert is_ideal(e.algebra, sub)


def test_enumerate_g10_finds_rank_witness(cat):
    e = cat("g10")
    found = isotropic_ideals_enumerate(e.symplectic)
    assert e.marked["j4"] in found


def _shear(n, a, b, c):
    """The elementary matrix I + c E_ab, a != b."""
    rows = [list(vunit(n, i)) for i in range(n)]
    rows[a][b] = Q(c)
    return Matrix.from_rows(rows, n)


def _oracle_cases(cat):
    """Catalog forms, a permuted and a sheared copy of each, and oxidations."""
    rng = random.Random(5)
    for name in catalog_names():
        s = cat(name).symplectic
        n = s.dim
        yield name, s
        if n == 0:
            continue
        order = list(range(n))
        rng.shuffle(order)
        perm = Matrix.from_rows([vunit(n, k) for k in order], n)
        a, b = order[:2]
        for label, (p, p_inv) in (("permuted", (perm, perm.transpose())),
                                  ("sheared", (_shear(n, a, b, 1), _shear(n, a, b, -1)))):
            omega = p.transpose().mul(s.omega).mul(p)
            yield f"{name} {label}", validate_symplectic(
                change_of_basis(s.algebra, p, p_inv), omega)
    for m in (1, 2, 3):
        yield f"abelian oxidation m={m}", symplectic_oxidation(abelian_oxidation_data(rng, m))
    yield "heisenberg oxidation", symplectic_oxidation(heisenberg_oxidation_data(rng))


def test_enumerate_lists_exactly_the_coordinate_isotropic_ideals(cat):
    """Oracle: every span{e_i : i in S} with |S| <= dim/2 that passes the
    ideal and isotropy tests, and no other coordinate subspace."""
    for label, s in _oracle_cases(cat):
        n = s.dim
        expected = set()
        for d in range(1, n // 2 + 1):
            for combo in itertools.combinations(range(n), d):
                sub = Subspace.span(n, [vunit(n, i) for i in combo])
                if is_ideal(s.algebra, sub) \
                        and isotropy_report(s, sub).isotropic:
                    expected.add(sub)
        found = {sub for sub in isotropic_ideals_enumerate(s)
                 if all(sum(x != 0 for x in row) == 1 for row in sub.rows)}
        assert found == expected, label


def test_envelope_certificates(cat):
    e = cat("g8")
    cert = build_envelope_certificate(e.symplectic)
    assert cert is not None
    assert cert.m == e.marked["W6"]
    assert cert.nondegenerate
    assert verify_no_abelian_escape(e.symplectic, cert)
    g10 = cat("g10")
    cert = build_envelope_certificate(g10.symplectic)
    assert cert is not None and cert.m == g10.marked["am"]
    assert verify_no_abelian_escape(g10.symplectic, cert)


def test_envelope_vacuous_for_abelian():
    rng = random.Random(1)
    g = LieAlgebra.abelian(4)
    s = validate_symplectic(g, random_nondegenerate_skew(rng, 4))
    cert = build_envelope_certificate(s)
    assert cert is not None
    assert cert.pairs == ()
    assert verify_no_abelian_escape(s, cert)


def test_trap_fdim_metab(cat):
    e = cat("fdim_metab")
    cert = build_envelope_certificate(e.symplectic)
    assert cert is not None and cert.m.dim == 3
    trap = invariant_ideal_trap(e.symplectic, cert.m)
    assert trap is not None
    dims = sorted(i.dim for i in trap.ideals)
    assert dims == [0, 1, 2, 3]
    iso = [i for i in trap.ideals
           if i.dim and isotropy_report(e.symplectic, i).isotropic]
    assert max(i.dim for i in iso) == 1


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(NILPOTENT), st.booleans(), st.integers(0, 2**32))
def test_trap_exits_on_nilpotent_algebras(name, dense, seed):
    """On a nilpotent algebra the trap without its early exit fails on every
    ideal of dimension above one, as the exit does, in the catalog basis and
    in a random rational one; on lines the two agree."""
    s = build(name).symplectic
    if dense:
        p, p_inv = random_invertible(random.Random(seed), s.dim)
        s = SymplecticLieAlgebra(change_of_basis(s.algebra, p, p_inv),
                                 p.transpose().mul(s.omega).mul(p))
    g = s.algebra
    ideals = {center(g), *descending_central_series(g).terms,
              *ascending_central_series(g).terms}
    envelope = abelian_envelope_candidate(g)
    if envelope is not None:
        ideals.add(envelope)
    assert any(m.dim > 1 for m in ideals)
    for m in ideals:
        expected = invariant_ideal_trap_oracle(s, m)
        assert invariant_ideal_trap(s, m) == expected
        if m.dim > 1:
            assert expected is None


def test_rank_bounds_catalog_values(cat):
    expected = {"fdim_metab": 1, "cs6": 2, "irr6": 0, "g8": 3, "g10": 4}
    for name, rank in expected.items():
        bounds = symplectic_rank_bounds(cat(name).symplectic)
        assert bounds.exact, name
        assert bounds.lower == rank, name


def test_rank_witnesses(cat):
    fm = cat("fdim_metab")
    bounds = symplectic_rank_bounds(fm.symplectic)
    assert bounds.lower_witness == fm.marked["Zline"]
    g8 = cat("g8")
    bounds = symplectic_rank_bounds(g8.symplectic)
    assert bounds.lower_witness.dim == 3
    assert isotropy_report(g8.symplectic, bounds.lower_witness).isotropic


def test_rank_witness_of_the_cotangent_algebra_is_the_fibre(cat):
    """On T*H with H the strictly upper triangular 4x4 matrices, the search
    finds the cotangent fibre h* = span{E12*, ..., E34*} as the Lagrangian
    rank witness."""
    s = cat("tn_cotangent", n=4).symplectic
    bounds = symplectic_rank_bounds(s)
    assert bounds.lower == bounds.upper == 6
    assert bounds.lower_witness == Subspace.span(12, [vunit(12, i) for i in range(6, 12)])


def test_irreducible_structure_certificate(cat):
    e = cat("irr6")
    cert = irreducible_structure_certificate(e.symplectic)
    assert cert is not None
    assert len(cert.blocks) == 2
    assert {cert.blocks[0], cert.blocks[1]} == {e.marked["a1"], e.marked["a2"]}
    assert cat("g8") and irreducible_structure_certificate(cat("g8").symplectic) is None


def test_lagrangian_ideal_two_step():
    s = two_step_example()
    res = lagrangian_ideal(s)
    assert res.status == "found"
    derived = bracket_span(s.algebra, Subspace.full(4), Subspace.full(4))
    assert res.subspace.contains(derived)


def test_lagrangian_ideal_filiform_unique(cat):
    e = cat("filiform4")
    res = lagrangian_ideal(e.symplectic)
    assert res.status == "found"
    assert res.subspace == e.marked["C1"]  # the unique Lagrangian ideal


def test_lagrangian_ideal_certified_none(cat):
    for name in ("fdim_metab", "cs6", "g8", "g10", "irr6"):
        res = lagrangian_ideal(cat(name).symplectic)
        assert res.status == "certified_none", name
        assert res.certificate, name


def test_lagrangian_ideal_abelian_reduction_path():
    rng = random.Random(55)
    data = abelian_oxidation_data(rng, 3)
    s = symplectic_oxidation(data)
    res = lagrangian_ideal(s)
    assert res.status == "found"
    assert is_ideal(s.algebra, res.subspace)
    assert isotropy_report(s, res.subspace).lagrangian


def test_lagrangian_ideal_trivial():
    res = lagrangian_ideal(build("trivial").symplectic)
    assert res.status == "found"


def test_lagrangian_subalgebra_nilpotent(cat):
    for name in ("g8", "g10", "filiform4"):
        res = lagrangian_subalgebra(cat(name).symplectic)
        assert res.status == "found", name
        assert res.path == "complete-reduction"


def test_lagrangian_subalgebra_g8_known_witness(cat):
    e = cat("g8")
    sub = e.marked["lag_subalg"]  # <H, Z, Z', Y>
    rep = isotropy_report(e.symplectic, sub)
    # [Y, Z] = H stays inside the span, so this is a (non-abelian) subalgebra
    assert brackets_within(e.algebra, sub, sub, sub) and rep.lagrangian
    assert e.algebra.bracket(vunit(8, 2), vunit(8, 3)) == vunit(8, 7)


def test_lagrangian_subalgebra_irr6_sign_cases(cat):
    for w12 in (1, -1):
        for w34 in (1, -1):
            e = cat("irr6", w12=w12, w34=w34)
            res = lagrangian_subalgebra(e.symplectic)
            assert res.status == "found", (w12, w34)
            assert res.path == "rotation-family"


def test_lagrangian_relations_irr6(cat):
    e = cat("irr6")
    cert = irreducible_structure_certificate(e.symplectic)
    res = lagrangian_subalgebra(e.symplectic)
    report = lagrangian_relations_check(e.symplectic, cert, res.subspace)
    assert report.relations_hold
    assert report.l_dim == 3 and report.b_dim == 2 and report.i_dim == 1
    assert report.split_confirmed


def test_irr_noLag_pipeline(cat):
    """The eight-dimensional rotation family with character conditions has no
    Lagrangian subalgebra; the search stays unresolved and replays the
    relation-based impossibility certificate."""
    e = cat("gklambda", k=1, characters=((1, 2), (2, 1), (3, -1)))
    # check the conditions: plane avoids permutations of (0, 1, -1)
    res = lagrangian_subalgebra(e.symplectic)
    assert res.status == "unresolved"
    assert res.impossibility is not None


def test_two_step_invariant(cat):
    """The commutator of a two-step nilpotent symplectic algebra is isotropic."""
    pool = [two_step_example(), cat("tn_cotangent", n=3).symplectic]
    for s in pool:
        assert nilpotency_class(s.algebra) == 2
        derived = bracket_span(s.algebra, Subspace.full(s.dim), Subspace.full(s.dim))
        assert isotropy_report(s, derived).isotropic


def test_basic_orthogonality(cat):
    """C^i is omega-orthogonal to the i-th ascending term."""
    for name in ("g8", "g10", "fdim_metab", "cs6", "filiform4"):
        s = cat(name).symplectic
        g = s.algebra
        desc = descending_central_series(g).terms
        asc = ascending_central_series(g).terms
        for i in range(min(len(desc), len(asc))):
            perp = omega_orthogonal(s, asc[i])
            assert perp.contains(desc[i])


def test_isotropic_ideal_dims_from_class(cat):
    """Class 2l (or 2l - 1) forces an isotropic ideal of dimension >= l."""
    for name in ("g8", "g10", "filiform4"):
        s = cat(name).symplectic
        k = nilpotency_class(s.algebra)
        ell = (k + 1) // 2
        found = isotropic_ideals_enumerate(s)
        assert found and found[0].dim >= ell


def test_completely_reducible_and_length(cat):
    assert is_completely_reducible(cat("g8").symplectic)
    assert is_completely_reducible(cat("fdim_metab").symplectic)
    s = two_step_example()
    assert symplectic_length_upper(s) == 1
    assert symplectic_length_upper(build("trivial").symplectic) == 0
    assert symplectic_length_upper(cat("irr6").symplectic) == 0


def test_g8_length_exceeds_one(cat):
    """No Lagrangian ideal, so the length of any complete sequence is >= 2."""
    e = cat("g8")
    bound = symplectic_length_upper(e.symplectic)
    assert bound is not None and bound >= 2


def test_base_unresolved_never_wrong(cat):
    e = cat("aff", n=2)
    result = irreducible_base(e.symplectic, "greedy-max")
    assert result.status == "certified"
    assert result.base.dim == 0


CLASS_THREE_DIM_SIX = {(0, 1): {2: 1}, (0, 2): {3: 1}}
CLASS_FOUR_DIM_SIX = (
    {(0, 1): {2: 1}, (0, 2): {3: 1}, (0, 3): {4: 1}},
    {(0, 1): {2: 1}, (0, 2): {3: 1}, (0, 3): {4: 1}, (1, 2): {5: 1}},
)


def _with_found_form(dim, brackets):
    g = LieAlgebra.from_brackets(dim, brackets)
    return validate_symplectic(g, find_symplectic_form(g))


def _assert_lagrangian_ideal(s, sub):
    assert is_ideal(s.algebra, sub)
    assert isotropy_report(s, sub).lagrangian


def _assert_socle_lagrangian(s, dim):
    """Every socle term is an isotropic ideal and the last one is Lagrangian."""
    chain = socle_extension(s)
    for u in chain:
        assert is_ideal(s.algebra, u) and isotropy_report(s, u).isotropic
    assert chain[-1].dim == dim
    _assert_lagrangian_ideal(s, chain[-1])


def test_three_step_construction_dim_six():
    """Class-three algebra with one-dimensional second descending term."""
    s = _with_found_form(6, CLASS_THREE_DIM_SIX)
    assert nilpotency_class(s.algebra) == 3
    _assert_socle_lagrangian(s, 3)
    assert lagrangian_ideal(s).status == "found"


def test_three_step_construction_dim_eight():
    """Class-three algebra with two-dimensional second descending term."""
    s = _with_found_form(
        8, {(0, 1): {2: 1}, (0, 2): {3: 1}, (4, 5): {6: 1}, (4, 6): {7: 1}})
    assert nilpotency_class(s.algebra) == 3
    _assert_socle_lagrangian(s, 4)
    assert lagrangian_ideal(s).status == "found"


def test_socle_extension_reaches_a_lagrangian_ideal_of_random_nilpotent_algebras():
    """Random nilpotent algebras of dimension 6 and 8 and class 2-3 with
    random closed forms: in the drawn basis and two unimodular ones, the last
    socle term is a Lagrangian ideal."""
    rng = random.Random(30)
    classes = set()
    for n, count in ((6, 30), (8, 20)):
        drawn = 0
        while drawn < count:
            s = random_nilpotent_symplectic(rng, n)
            if s is None:
                continue
            drawn += 1
            classes.add(nilpotency_class(s.algebra))
            for copy in [s] + [unimodular_copy(s, seed)[0] for seed in (1, 2)]:
                _assert_socle_lagrangian(copy, n // 2)
    assert classes == {2, 3}


def test_class_four_dimension_six_construction():
    """Class four: search finds a Lagrangian ideal of both algebras in their
    own basis and seven others."""
    for brackets in CLASS_FOUR_DIM_SIX:
        s = _with_found_form(6, brackets)
        assert nilpotency_class(s.algebra) == 4
        for copy in [s] + [unimodular_copy(s, seed)[0] for seed in range(1, 8)]:
            res = lagrangian_ideal(copy)
            assert res.status == "found"
            _assert_lagrangian_ideal(copy, res.subspace)


def test_lagrangian_ideal_found_off_the_built_basis():
    """In some of these bases there is no coordinate Lagrangian ideal; the
    socle extension needs no basis and decides all of them."""
    hh, omega_hh = heisenberg_pair_base()
    rng = random.Random(808)  # the oxidations of acceptance criterion 8
    oxidations = [symplectic_oxidation(abelian_oxidation_data(rng, rng.choice((1, 2, 3))))
                  for _ in range(25)]
    pool = [validate_symplectic(hh, omega_hh), _with_found_form(6, CLASS_THREE_DIM_SIX),
            oxidations[15], oxidations[22]]
    for s in pool:
        for seed in range(1, 8):
            copy, _ = unimodular_copy(s, seed)
            res = lagrangian_ideal(copy)
            assert res.status == "found"
            _assert_lagrangian_ideal(copy, res.subspace)


def test_cotangent_lagrangian_ideal_in_dense_bases():
    """T*h has the Lagrangian ideal h*; off the catalog basis of
    tn_cotangent?n=4 the socle extension finds one, and it is the rank witness."""
    s = build("tn_cotangent", n=4).symplectic
    for seed in range(1, 4):
        copy, p = unimodular_copy(s, seed)
        res = lagrangian_ideal(copy)
        assert res.status == "found" and res.certificate == "search"
        assert (res.rank.lower, res.rank.upper) == (6, 6)
        _assert_lagrangian_ideal(s, Subspace.span(s.dim, [p.matvec(r) for r in res.subspace.rows]))


def test_transfer_precondition_errors(cat):
    from sympla.liealg import ValidationError
    from sympla.reduction import reduce as reduce_step, transfer_isotropic

    e = cat("g8")
    step = reduce_step(e.symplectic, e.marked["Hline"])
    with pytest.raises(ValidationError):
        # <r1, r2> in the reduction is not isotropic for the reduced form
        transfer_isotropic(step, Subspace.span(6, [vunit(6, 0), vunit(6, 2)]),
                           "lift")


def test_structure_certificate_sign_pattern_characters(cat):
    """Characters equal up to per-coordinate signs are separated by squares
    of operator sums."""
    e = cat("gklambda", k=1, characters=((1, 2), (1, -2)))
    cert = irreducible_structure_certificate(e.symplectic)
    assert cert is not None
    bounds = symplectic_rank_bounds(e.symplectic)
    assert bounds.upper == 0
