"""Acceptance suite: one test per criterion, strict equality throughout.

Each test prints a single PASS line on success (run with -s to see them);
tolerances are exact because all arithmetic is rational.
"""

import itertools
import random

import pytest

from _samplers import (
    abelian_oxidation_data,
    heisenberg_oxidation_data,
    beta_kernel_pair,
)
from sympla.catalog import build
from sympla.certificates import build_envelope_certificate, verify_no_abelian_escape
from sympla.endoalg import (
    SymplecticVectorSpace,
    images_orthogonality_holds,
    invariant_lagrangian_nilpotent,
    nilpotency_index,
    q6_analyze,
    quadratic_forms,
)
from sympla.exactla import Matrix, Q, Subspace, vunit
from sympla.lagext import (
    ExtensionTriple,
    FlatLieAlgebra,
    StronglyPolarized,
    cyclic_condition_subspace,
    dual_rep,
    extension_triple,
    extensions_isomorphic,
    half_ad_connection,
    lagrangian_cohomology,
    lagrangian_extension,
    symmetric_one_cochains,
)
from sympla.liealg import (
    Cochain,
    Connection,
    LieAlgebra,
    bracket_span,
    brackets_within,
    center,
    coboundary_apply,
    coboundary_matrix,
    cohomology_space,
    combos,
    descending_central_series,
    is_ideal,
    nilpotency_class,
    solvability_degree,
    trivial_rep,
)
from sympla.oxidation import (
    OxidationData,
    central_oxidation,
    coboundary_condition_holds,
    recover_oxidation_data,
    symplectic_oxidation,
)
from sympla.reduction import reduce as reduce_step
from sympla.search import (
    irreducible_base,
    isotropic_ideals_enumerate,
    lagrangian_ideal,
    lagrangian_subalgebra,
    symplectic_rank_bounds,
)
from sympla.symplectic import (
    SymplecticError,
    isotropy_report,
    validate_symplectic,
)


def _report(line: str) -> None:
    print(f"ACCEPTANCE PASS: {line}")


# the eleven closed independent two-forms on the eight-dimensional example,
# over the basis (xi, X, Y, Z, X', Y', Z', H), zero-indexed pairs
G8_Z2_BASIS = [
    {(0, 1): 1}, {(0, 2): 1}, {(0, 4): 1}, {(0, 5): 1}, {(1, 2): 1},
    {(2, 3): 1}, {(2, 5): 1}, {(4, 5): 1}, {(5, 6): 1},
    {(1, 5): 1, (2, 4): -1},
    {(1, 3): 1, (4, 6): 1, (0, 7): 1},
]


def _g8_form(entries):
    rows = [[Q(0)] * 8 for _ in range(8)]
    for (i, j), c in entries.items():
        rows[i][j] = Q(c)
        rows[j][i] = -Q(c)
    return Matrix.from_rows(rows, 8)


def test_criterion_1_g8_cohomology():
    e = build("g8")
    g = e.algebra
    assert len(combos(8, 2)) == 28
    rep = trivial_rep(g)
    coh = cohomology_space(rep, 2)
    assert coh.z_dim == 11
    d2 = coboundary_matrix(rep, 2)
    assert d2.rank() == 17
    # the eleven listed forms are closed and independent
    from sympla.liealg import matrix_as_two_form

    coords = []
    for entries in G8_Z2_BASIS:
        form = matrix_as_two_form(_g8_form(entries))
        assert coboundary_apply(rep, form).is_zero()
        coords.append(form.coords)
    assert Subspace.span(len(coords[0]), coords).dim == 11
    _report("criterion 1: dim L2 = 28, rank d2 = 17, dim Z2 = 11, basis verified")


def test_criterion_2_g8_structure_and_random_forms():
    e = build("g8")
    s = e.symplectic
    assert descending_central_series(e.algebra).dims == (8, 5, 3, 1, 0)
    assert nilpotency_class(e.algebra) == 4
    bounds = symplectic_rank_bounds(s)
    assert (bounds.lower, bounds.upper) == (3, 3)
    j3 = e.marked["j3"]
    assert isotropy_report(s, j3).isotropic
    assert is_ideal(e.algebra, j3)
    assert bounds.envelope is not None and bounds.envelope.m == e.marked["W6"]
    assert verify_no_abelian_escape(s, bounds.envelope)
    res = lagrangian_ideal(s)
    assert res.status == "certified_none"
    # twenty random symplectic forms drawn from the closed two-forms
    rng = random.Random(2024)
    count = 0
    while count < 20:
        coeffs = [Q(rng.randint(-3, 3)) for _ in range(len(G8_Z2_BASIS))]
        rows = [[Q(0)] * 8 for _ in range(8)]
        for c, entries in zip(coeffs, G8_Z2_BASIS):
            if c == 0:
                continue
            for (i, j), v in entries.items():
                rows[i][j] += c * Q(v)
                rows[j][i] -= c * Q(v)
        omega = Matrix.from_rows(rows, 8)
        if omega.det() == 0:
            continue
        s_rand = validate_symplectic(e.algebra, omega)
        res = lagrangian_ideal(s_rand)
        assert res.status == "certified_none"
        count += 1
    _report("criterion 2: series (8,5,3,1,0), rank exactly 3, certified none "
            "for the standard and 20 random symplectic forms")


def test_criterion_3_g10():
    e = build("g10")
    s = e.symplectic
    validate_symplectic(e.algebra, s.omega)
    assert descending_central_series(e.algebra).dims == (10, 6, 2, 0)
    bounds = symplectic_rank_bounds(s)
    assert (bounds.lower, bounds.upper) == (4, 4)
    assert bounds.lower_witness.dim == 4
    assert bounds.envelope is not None and bounds.envelope.m == e.marked["am"]
    res = lagrangian_ideal(s)
    assert res.status == "certified_none"
    assert "detS" in res.certificate
    # the induced quadratic family on the reduction matches the det S criterion
    identity_report = q6_analyze(Matrix.identity(2))
    assert identity_report.status == "certified_none"
    indefinite = q6_analyze(Matrix.from_rows([[1, 0], [0, -1]], 2))
    assert indefinite.status == "found"
    _report("criterion 3: g10 rank exactly 4, certified none via envelope and "
            "the definite reduction family; indefinite case has a witness")


def test_criterion_4_irreducible_family():
    e = build("irr6")
    coh = cohomology_space(trivial_rep(e.algebra), 2)
    assert (coh.b_dim, coh.z_dim) == (4, 7)
    bounds = symplectic_rank_bounds(e.symplectic)
    assert bounds.upper == 0 and "irreducible_structure" in bounds.certificates
    for w12 in (1, -1):
        for w34 in (1, -1):
            inst = build("irr6", w12=w12, w34=w34)
            res = lagrangian_subalgebra(inst.symplectic)
            assert res.status == "found", (w12, w34)
            sub = res.subspace
            assert brackets_within(inst.algebra, sub, sub, sub)
            assert isotropy_report(inst.symplectic, res.subspace).lagrangian
    _report("criterion 4: dim B2 = 4, dim Z2 = 7, rank 0 certified, Lagrangian "
            "subalgebra construction verified in all four sign cases")


def test_criterion_5_metabelian_and_cs6():
    e = build("fdim_metab")
    s = e.symplectic
    # the only two-dimensional coordinate ideal is <X, Y>, and it is
    # non-degenerate
    two_dim_ideals = []
    for combo in itertools.combinations(range(4), 2):
        sub = Subspace.span(4, [vunit(4, i) for i in combo])
        if is_ideal(e.algebra, sub):
            two_dim_ideals.append(sub)
    assert two_dim_ideals == [e.marked["XY"]]
    assert isotropy_report(s, e.marked["XY"]).nondegenerate
    bounds = symplectic_rank_bounds(s)
    assert (bounds.lower, bounds.upper) == (1, 1)
    assert bounds.lower_witness == e.marked["Zline"]
    step = reduce_step(s, e.marked["Zline"])
    assert step.reduced.dim == 2
    assert nilpotency_class(step.reduced.algebra) == 1
    cs = build("cs6")
    cb = symplectic_rank_bounds(cs.symplectic)
    assert (cb.lower, cb.upper) == (2, 2)
    assert lagrangian_ideal(cs.symplectic).status == "certified_none"
    _report("criterion 5: unique 2-dim coordinate ideal non-degenerate, rank "
            "exactly 1 with the marked witness; cs6 rank exactly 2, certified none")


def test_criterion_6_oxidation_round_trips():
    rng = random.Random(606)
    for i in range(100):
        if i % 2 == 0:
            data = abelian_oxidation_data(rng, rng.choice((1, 2, 3)))
        else:
            data = heisenberg_oxidation_data(rng)
        s = symplectic_oxidation(data)
        n = s.dim
        rec, _ = recover_oxidation_data(s, vunit(n, n - 1), vunit(n, 0))
        assert rec.base.table == data.base.table
        assert rec.phi.rows == data.phi.rows
        assert rec.alpha.coords == data.alpha.coords
        assert rec.lam.coords == data.lam.coords
        rebuilt = symplectic_oxidation(rec)
        assert rebuilt.algebra.table == s.algebra.table
        assert rebuilt.omega.rows == s.omega.rows
    # bidirectional equivalence of Jacobi and the coboundary condition
    for _ in range(10):
        data = heisenberg_oxidation_data(rng)
        assert coboundary_condition_holds(data)
        central_oxidation(data)
        bad_lam = data.lam.add(Cochain.from_values(1, 6, 1, {(2,): (1,)}))
        bad = OxidationData(data.base, data.phi, data.alpha, bad_lam,
                            data.omega_bar)
        assert not coboundary_condition_holds(bad)
        with pytest.raises(Exception):
            central_oxidation(bad)
    _report("criterion 6: 100 oxidation round trips are exact; Jacobi is "
            "equivalent to the coboundary condition under perturbations")


def test_criterion_7_lagrangian_extension_suite():
    rng = random.Random(707)
    t3 = build("tn_cotangent", n=3)
    flat = t3.flat
    h = flat.algebra
    rho = dual_rep(flat)
    d2 = coboundary_matrix(rho, 2)
    z2 = d2.null_space()
    cyc = cyclic_condition_subspace(h)
    compliant_space = z2.intersect(cyc)
    compliant = non_compliant = 0
    while compliant + non_compliant < 200:
        use_compliant = (compliant + non_compliant) % 2 == 0
        pool = compliant_space if use_compliant else z2
        coords = [Q(0)] * d2.cols
        for row in pool.rows:
            c = Q(rng.randint(-2, 2))
            coords = [x + c * y for x, y in zip(coords, row)]
        alpha = Cochain(2, 3, 3, tuple(coords))
        is_cyclic = cyc.contains_vector(alpha.coords)
        if is_cyclic:
            lagrangian_extension(ExtensionTriple(flat, alpha))
            compliant += 1
        else:
            with pytest.raises(SymplecticError):
                lagrangian_extension(ExtensionTriple(flat, alpha))
            non_compliant += 1
    assert compliant >= 80 and non_compliant >= 80
    # round trip through the extraction
    alpha = Cochain(2, 3, 3, compliant_space.rows[0])
    p = lagrangian_extension(ExtensionTriple(flat, alpha))
    tr = extension_triple(p)
    assert tr.alpha.coords == alpha.coords
    # change of polarization differs by a symmetric coboundary
    sym = symmetric_one_cochains(3)
    tau_flat = sym.rows[2]
    rows = []
    for u in range(3):
        v = list(vunit(6, u))
        for t in range(3):
            v[3 + t] += tau_flat[u * 3 + t]
        rows.append(tuple(v))
    n_prime = Subspace.span(6, rows)
    p2 = StronglyPolarized(p.s, p.ideal, n_prime)
    t2 = extension_triple(p2)
    same, _ = extensions_isomorphic(flat, tr.alpha, t2.alpha)
    assert same
    # kappa values of the worked example and the half-adjoint connection
    g2 = LieAlgebra.abelian(2)
    ex_flat = FlatLieAlgebra(g2, Connection(g2, (
        Matrix.from_rows([[1, 0], [0, 1]], 2),
        Matrix.from_rows([[0, 0], [1, 0]], 2))))
    assert lagrangian_cohomology(ex_flat).kappa_dim == 1
    h3 = LieAlgebra.from_brackets(("X", "Y", "Z"), {(0, 1): {2: 1}})
    assert lagrangian_cohomology(
        FlatLieAlgebra(h3, half_ad_connection(h3))).kappa_dim == 0
    _report("criterion 7: 200 cocycles split by the cyclic condition; "
            "extraction round trip, polarization change, kappa = 1 and kappa = 0")


def test_criterion_8_constructive_existence():
    # every two-step nilpotent test algebra
    two_step_pool = []
    g = LieAlgebra.from_brackets(("X", "Y", "Z", "W"), {(0, 1): {2: 1}})
    rows = [[Q(0)] * 4 for _ in range(4)]
    rows[2][0], rows[0][2] = Q(1), Q(-1)
    rows[1][3], rows[3][1] = Q(1), Q(-1)
    two_step_pool.append(validate_symplectic(g, Matrix.from_rows(rows, 4)))
    two_step_pool.append(build("tn_cotangent", n=3).symplectic)
    from _samplers import heisenberg_pair_base

    hh, omega_hh = heisenberg_pair_base()
    two_step_pool.append(validate_symplectic(hh, omega_hh))
    for s in two_step_pool:
        assert nilpotency_class(s.algebra) == 2
        res = lagrangian_ideal(s)
        assert res.status == "found"
        assert isotropy_report(s, res.subspace).lagrangian
        assert is_ideal(s.algebra, res.subspace)
    # filiform dimension four returns the unique commutator ideal
    f4 = build("filiform4")
    res = lagrangian_ideal(f4.symplectic)
    assert res.status == "found" and res.subspace == f4.marked["C1"]
    # 25 randomized abelian-reduction oxidations
    rng = random.Random(808)
    for _ in range(25):
        data = abelian_oxidation_data(rng, rng.choice((1, 2, 3)))
        s = symplectic_oxidation(data)
        res = lagrangian_ideal(s)
        assert res.status == "found"
        assert isotropy_report(s, res.subspace).lagrangian
        assert is_ideal(s.algebra, res.subspace)
    # all nilpotent catalog algebras of dimension at most six
    for name, params in (("filiform4", {}), ("tn_cotangent", {"n": 3}),
                         ("trivial", {})):
        e = build(name, **params)
        if nilpotency_class(e.algebra) is None:
            continue
        res = lagrangian_ideal(e.symplectic)
        assert res.status == "found", name
    _report("criterion 8: two-step, filiform, 25 abelian-reduction oxidations "
            "and all small nilpotent catalog algebras have verified Lagrangian ideals")


def test_criterion_9_reduction_sequences():
    # affine algebras reach the trivial base in exactly n steps
    for n in (2, 3):
        e = build("aff", n=n)
        for strategy in ("central-first", "any-isotropic", "greedy-max"):
            result = irreducible_base(e.symplectic, strategy)
            assert result.status == "certified"
            assert result.base.dim == 0
            assert len(result.steps) == n, (n, strategy)
    # nilpotent catalog algebras are completely reducible via central lines
    for name, params in (("g8", {}), ("g10", {}), ("filiform4", {}),
                         ("tn_cotangent", {"n": 3}), ("tn_cotangent", {"n": 4})):
        e = build(name, **params)
        result = irreducible_base(e.symplectic, "central-first")
        assert result.status == "certified" and result.base.dim == 0
        for step in result.steps:
            assert center(step.parent.algebra).contains(step.ideal)
    # fingerprints agree across the three strategies
    catalog_runs = (("fdim_metab", {}), ("cs6", {}), ("irr6", {}), ("g8", {}),
                    ("g10", {}), ("filiform4", {}), ("tn_cotangent", {"n": 3}),
                    ("tn_cotangent", {"n": 4}), ("aff", {"n": 2}), ("aff", {"n": 3}))
    for name, params in catalog_runs:
        e = build(name, **params)
        fingerprints = set()
        runs = {}
        for strategy in ("central-first", "any-isotropic", "greedy-max"):
            result = irreducible_base(e.symplectic, strategy)
            fingerprints.add(result.fingerprint)
            runs[strategy] = result
        assert len(fingerprints) == 1, name
        # corank monotonicity on every executed step with certified ranks
        for result in runs.values():
            for step in result.steps:
                pb = symplectic_rank_bounds(step.parent)
                rb = symplectic_rank_bounds(step.reduced)
                if pb.exact and rb.exact:
                    corank_parent = step.parent.dim // 2 - pb.lower
                    corank_red = step.reduced.dim // 2 - rb.lower
                    assert corank_red <= corank_parent, name
    _report("criterion 9: affine bases reached in n steps, nilpotent chains "
            "central, fingerprints agree, corank monotone on certified steps")


def test_criterion_10_upper_triangular_extensions():
    for n, expected in ((3, 2), (4, 3), (5, 4)):
        e = build("tn_cotangent", n=n)
        assert nilpotency_class(e.algebra) == expected, n
    e5 = build("tn_cotangent", n=5)
    assert e5.algebra.dim == 20
    assert solvability_degree(e5.algebra) == 3
    _report("criterion 10: extension classes 2, 3, 4 for n = 3, 4, 5 and "
            "derived length 3 in dimension 20")


def test_criterion_11_endomorphism_suite():
    rng = random.Random(1111)
    # orthogonality of power images for generated admissible nilpotent maps
    checked = 0
    while checked < 20:
        n = rng.choice((4, 6, 8))
        pair = beta_kernel_pair(rng, n)
        if pair is None:
            continue
        omega, phi = pair
        space = SymplecticVectorSpace(n, omega)
        if nilpotency_index(phi) is None:
            continue
        if not quadratic_forms(space, phi).beta_vanishes:
            continue
        assert images_orthogonality_holds(space, phi)
        checked += 1
    # invariant maximal isotropic subspaces on 100 random instances
    built = 0
    while built < 100:
        n = rng.choice((2, 4, 6, 8))
        pair = beta_kernel_pair(rng, n)
        if pair is None:
            continue
        omega, phi = pair
        space = SymplecticVectorSpace(n, omega)
        if nilpotency_index(phi) is None:
            continue
        if not quadratic_forms(space, phi).beta_vanishes:
            continue
        sub = invariant_lagrangian_nilpotent(space, phi)
        assert sub.dim == space.max_isotropic_dim()
        for r in sub.rows:
            assert sub.contains_vector(phi.matvec(r))
            for t in sub.rows:
                assert space.pair(r, t) == 0
        built += 1
    # det S criterion on 50 random symmetric nonsingular matrices
    real_only = 0
    for _ in range(50):
        while True:
            a, b, c = (Q(rng.randint(-9, 9)) for _ in range(3))
            smat = Matrix.from_rows([[a, b], [b, c]], 2)
            if smat.det() != 0:
                break
        rep = q6_analyze(smat)
        if smat.det() > 0:
            assert rep.status == "certified_none"
        else:
            assert rep.status in ("found", "real_witness_only")
            if rep.status == "real_witness_only":
                real_only += 1
    _report(f"criterion 11: image orthogonality (20 maps), 100 invariant "
            f"maximal isotropic outputs verified, 50 det S cases "
            f"({real_only} with real-only witnesses reported separately)")
