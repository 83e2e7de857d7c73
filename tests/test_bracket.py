import math

import numpy as np
import pytest

from poisson_kam import (
    FourierTaylorSeries,
    Problem,
    StructureMatrix,
    Truncation,
    WeightedNormParams,
    bracket_with_coordinate,
    discards,
    gamma_from_block_norms,
    gamma_rho_sigma,
    lie_coordinate_displacement,
    lie_transform,
    poisson_bracket,
    rescaled_benchmark_problem,
    run,
    weighted_norm,
)
from poisson_kam.errors import (
    LieDivergenceError,
    StepRefusedError,
    StructureMismatchError,
)

from conftest import (
    A_DEFAULT,
    TR_DEFAULT,
    cosx,
    eta,
    mk,
    non_poisson_b12,
    random_series,
    random_structure,
    rescaled_bracket_instance,
    sinx,
    yi,
    zeros,
)

CANON = StructureMatrix.canonical(1, A_DEFAULT, TR_DEFAULT)
PARAMS = WeightedNormParams(1.0, 1.0)


def jacobi_cyclic(F, G, H, S):
    return (
        poisson_bracket(poisson_bracket(F, G, S), H, S)
        + poisson_bracket(poisson_bracket(G, H, S), F, S)
        + poisson_bracket(poisson_bracket(H, F, S), G, S)
    )


# ---- structure matrix ------------------------------------------------------


def test_canonical_expansion_data():
    assert np.allclose(CANON.B0, [[1.0]])
    assert np.allclose(CANON.B1, 0.0)


def test_b22_skew_enforced():
    one = FourierTaylorSeries.constant(1.0, zeros())
    z = zeros()
    with pytest.raises(StructureMismatchError):
        StructureMatrix([[one]], [[one]])
    # n = 2 off-diagonal pairs: an exact skew pair, constant or y-dependent,
    # passes; a pair one ulp apart or with one extra term does not
    z2 = zeros(n=2, m=1)
    B12 = [[FourierTaylorSeries.constant(-1.0, z2), z2]]
    y_poly = lambda *cs: mk([((0, 0), (j,), 0, 0, c) for j, c in enumerate(cs) if c], n=2, m=1)
    pair = lambda upper, lower: [[z2, upper], [lower, z2]]
    for b in (y_poly(0.3), y_poly(0.3, 0.7)):
        StructureMatrix(B12, pair(b, -b))
    near = [
        (y_poly(0.3), y_poly(-math.nextafter(0.3, 1.0))),
        (y_poly(0.3, 0.7), y_poly(-0.3, -0.7, 0.1)),
    ]
    for upper, lower in near:
        with pytest.raises(StructureMismatchError, match="skew"):
            StructureMatrix(B12, pair(upper, lower))


def test_empty_row_or_ragged_b12_rejected():
    z = zeros(n=2, m=2)
    for B12 in ([[]], [[z, z], [z]]):
        with pytest.raises(StructureMismatchError, match="B12"):
            StructureMatrix(B12, [[z, z], [z, z]])


def test_y_dependent_expansion_data():
    S = rescaled_bracket_instance()
    # B12 = (1+y) (1, 1/2) so B0 = -B12^T(0), B1[l,0,0] = -d/dy B12[0,l]
    assert np.allclose(S.B0, [[-1.0], [-0.5]])
    assert np.allclose(S.B1[:, 0, 0], [-1.0, -0.5])


def test_structure_payload_roundtrip():
    # the problem file is the one serialization of B12 and B22
    prob = rescaled_benchmark_problem()
    S, S2 = prob.structure, Problem.from_payload(prob.to_payload()).structure
    assert (S2.m, S2.n) == (S.m, S.n)
    assert all(
        S.B12[i][l] == S2.B12[i][l] for i in range(S.m) for l in range(S.n)
    )
    assert all(
        S.B22[l][lp] == S2.B22[l][lp] for l in range(S.n) for lp in range(S.n)
    )


# ---- bracket identities -------------------------------------------------------


def test_canonical_pair_bracket():
    # {x, y} = 1 for B12 = -1: via {., y} on a pure-angle series is linear,
    # so probe with the coordinate helper on F whose x-gradient is 1.
    f = mk([((1,), (0,), 0, 0, -0.5j), ((-1,), (0,), 0, 0, 0.5j)])  # sin x
    out = bracket_with_coordinate(f, ("y", 0), CANON)
    assert out == cosx()  # L_{sin x} y = cos x for the canonical bracket


def test_lie_eta_is_chi_xi():
    chi = cosx(p=1)
    assert poisson_bracket(chi, eta(), CANON) == chi.partial_xi()
    got = bracket_with_coordinate(chi, "eta", CANON)
    assert got == chi.scale(-A_DEFAULT)  # -a e^{-a xi} cos x


def test_xi_evolves_under_eta():
    # {xi, H} = H_eta = 1 for H = eta + h(y)
    H = eta() + mk([((0,), (2,), 0, 0, 0.5)])
    xi_dot = H.partial_eta()  # = -bracket_with_coordinate(H, "xi", S)
    assert list(xi_dot.terms()) == [((0,), (0,), 0, 0, 1.0 + 0j)]
    assert bracket_with_coordinate(H, "xi", CANON) == -xi_dot


def test_lie_xi_vanishes():
    chi = random_series(np.random.default_rng(5), nterms=6, k_budget=3, l_budget=2)
    assert bracket_with_coordinate(chi, "xi", CANON).is_zero()


def test_lie_x_formula_random(rng):
    # L_chi x = chi_x B22 + T B12 for chi = S + T.y, against the raw bracket
    S = rescaled_bracket_instance()
    n, m = S.n, S.m
    Sg = random_series(rng, n=n, m=m, nterms=4, l_budget=0, k_budget=3, p_budget=2, dyadic=True)
    T0 = random_series(rng, n=n, m=m, nterms=4, l_budget=0, k_budget=3, p_budget=2, dyadic=True)
    chi = Sg + T0.mul_y(0)
    for l in range(n):
        direct = bracket_with_coordinate(chi, ("x", l), S)
        expected = zeros(n=n, m=m)
        for lp in range(n):
            expected = expected + chi.partial_x(lp) * S.B22[lp][l]
        expected = expected + T0 * S.B12[0][l]
        assert weighted_norm(direct - expected, PARAMS).K <= 1e-12


def test_antisymmetry_exact(rng):
    for S in (CANON, rescaled_bracket_instance(), random_structure(rng, n=2, m=2)):
        n, m = S.n, S.m
        F = random_series(rng, n=n, m=m, nterms=6, dyadic=True, k_budget=3, l_budget=2, p_budget=2)
        G = random_series(rng, n=n, m=m, nterms=6, dyadic=True, k_budget=3, l_budget=2, p_budget=2)
        assert poisson_bracket(F, G, S) == -poisson_bracket(G, F, S)


def test_leibniz_exact_no_discard(rng):
    S = random_structure(rng, n=1, m=1)
    F = random_series(rng, nterms=4, dyadic=True, k_budget=2, l_budget=1, p_budget=1)
    G = random_series(rng, nterms=4, dyadic=True, k_budget=2, l_budget=1, p_budget=1)
    H = random_series(rng, nterms=4, dyadic=True, k_budget=2, l_budget=1, p_budget=1)
    lhs = poisson_bracket(F * G, H, S)
    rhs = F * poisson_bracket(G, H, S) + G * poisson_bracket(F, H, S)
    assert lhs == rhs


def test_jacobi_constant_blocks(rng):
    S = random_structure(rng, n=2, m=2)
    F = random_series(rng, n=2, m=2, nterms=4, dyadic=True, k_budget=2, l_budget=1, p_budget=1)
    G = random_series(rng, n=2, m=2, nterms=4, dyadic=True, k_budget=2, l_budget=1, p_budget=1)
    H = random_series(rng, n=2, m=2, nterms=4, dyadic=True, k_budget=2, l_budget=1, p_budget=1)
    cyc = jacobi_cyclic(F, G, H, S)
    scale = max(
        weighted_norm(poisson_bracket(F, G, S), PARAMS).K,
        1.0,
    )
    assert weighted_norm(cyc, PARAMS).K <= 1e-12 * scale


def test_jacobi_y_dependent_instance(rng):
    S = rescaled_bracket_instance()
    F = random_series(rng, n=2, m=1, nterms=4, dyadic=True, k_budget=2, l_budget=1, p_budget=1)
    G = random_series(rng, n=2, m=1, nterms=4, dyadic=True, k_budget=2, l_budget=1, p_budget=1)
    H = random_series(rng, n=2, m=1, nterms=4, dyadic=True, k_budget=2, l_budget=1, p_budget=1)
    cyc = jacobi_cyclic(F, G, H, S)
    scale = max(weighted_norm(poisson_bracket(F, G, S), PARAMS).K, 1.0)
    assert weighted_norm(cyc, PARAMS).K <= 1e-12 * scale


def test_jacobi_defect_of_poisson_structures():
    assert rescaled_benchmark_problem().structure.jacobi_defect() == 0.0
    assert rescaled_bracket_instance().jacobi_defect() <= 1e-12
    assert CANON.jacobi_defect() == 0.0


def test_initialize_checks_the_jacobi_identity_once(monkeypatch):
    # the structure is checked when the problem is built; its copy shifted
    # to y* keeps the identity and is not checked again
    calls = []
    defect = StructureMatrix.jacobi_defect
    monkeypatch.setattr(StructureMatrix, "jacobi_defect", lambda S: calls.append(S) or defect(S))
    rescaled_benchmark_problem().initialize()
    assert len(calls) == 1


def test_non_poisson_structure_rejected():
    S = rescaled_benchmark_problem().structure
    with pytest.raises(StructureMismatchError, match="Jacobi"):
        StructureMatrix(non_poisson_b12(S.trunc), S.B22)


def test_frequency_identity(rng):
    # {x_l, H} at y = 0 equals omega_l = (B0 omega~)_l
    S = random_structure(rng, n=2, m=2)
    omega_tilde = np.array([0.9, -0.4])
    H = eta(n=2, m=2)
    for i in range(2):
        H = H + yi(i, n=2, m=2, value=omega_tilde[i])
    H = H + mk([((0, 0), (2, 0), 0, 0, 0.35)], n=2, m=2)
    omega = S.B0 @ omega_tilde
    for l in range(2):
        xdot = -bracket_with_coordinate(H, ("x", l), S)  # {x_l, H}
        val = xdot.evaluate(np.zeros(2), np.zeros(2), 0.0, 0.0)
        assert val == pytest.approx(omega[l], rel=1e-13, abs=1e-13)


# ---- gamma -----------------------------------------------------------------


def test_gamma_printed_formula_all_ones():
    got = gamma_from_block_norms(1.0, 1.0, 1.0, 1.0, 1.0)
    expect = (math.e ** 2 + 2 * math.e + 1) / math.e ** 2
    assert got == pytest.approx(1.8710941655794975)
    assert got == pytest.approx(expect)


def test_gamma_scaling_with_g12_only():
    g = gamma_from_block_norms(0.0, 2.0, 0.0, 0.5, 0.8)
    assert g == pytest.approx(2 * 2.0 / (math.e * 0.5 * 0.8))
    assert gamma_from_block_norms(0.0, 2.0, 0.0, 1.0, 0.8) == pytest.approx(g / 2)


def test_gamma_zero_matrix():
    z = StructureMatrix.from_constant_blocks([[0.0]], [[0.0]], A_DEFAULT, TR_DEFAULT)
    assert gamma_rho_sigma(z, PARAMS) == 0.0


def test_gamma_upper_bound_cross_check(rng):
    # Gamma <= 2 M_B / (rho sigma)^2 on desk-scale radii
    for _ in range(10):
        S = random_structure(rng, n=2, m=1)
        params = WeightedNormParams(0.25 + 0.5 * rng.random(), 0.25 + 0.75 * rng.random())
        gamma = gamma_rho_sigma(S, params)
        mb = S.full_norm(params)
        assert gamma <= 2.0 * mb / (params.rho * params.sigma) ** 2 + 1e-12


# ---- Lie transform -----------------------------------------------------------


def test_lie_transform_identity_for_zero_chi():
    F = cosx() + yi(0)
    out, diag = lie_transform(zeros(), F, CANON, PARAMS)
    assert out == F and diag.s_stop == 0


def test_lie_transform_divergence_guard():
    chi = sinx().scale(50.0)
    with pytest.raises(LieDivergenceError) as exc:
        lie_transform(chi, yi(0), CANON, PARAMS)
    assert isinstance(exc.value, StepRefusedError)
    with pytest.raises(LieDivergenceError):
        lie_coordinate_displacement(chi, ("y", 0), CANON, PARAMS)


def test_lie_transform_first_order_eta(rng):
    chi = random_series(rng, nterms=5, dyadic=True, k_budget=2, l_budget=1, p_budget=2).scale(1e-3)
    r = []
    for s in (1.0, 0.5):
        c = chi.scale(s)
        disp, _ = lie_coordinate_displacement(c, "eta", CANON, PARAMS)
        r.append(weighted_norm(disp - c.partial_xi(), PARAMS).K)
    assert r[0] / r[1] == pytest.approx(4.0, rel=0.2)


def test_lie_transform_is_bracket_morphism(rng):
    S = random_structure(rng, n=1, m=1)
    chi = random_series(rng, nterms=4, k_budget=2, l_budget=1, p_budget=1).scale(2e-3)
    F = random_series(rng, nterms=4, k_budget=2, l_budget=1, p_budget=1)
    G = random_series(rng, nterms=4, k_budget=2, l_budget=1, p_budget=1)
    tf, d1 = lie_transform(chi, F, S, PARAMS)
    tg, d2 = lie_transform(chi, G, S, PARAMS)
    tfg, d3 = lie_transform(chi, poisson_bracket(F, G, S), S, PARAMS)
    resid = poisson_bracket(tf, tg, S) - tfg
    scale = weighted_norm(poisson_bracket(F, G, S), PARAMS).K
    tails = d1.tail_bound + d2.tail_bound + d3.tail_bound
    bound = max(100.0 * (tails + 1e-15 * scale), 1e-9 * scale)
    assert weighted_norm(resid, PARAMS).K <= bound


def test_chipsi_inequality_smoke(rng):
    # one instance of the s-fold bound; the acceptance suite sweeps 50
    S = random_structure(rng, n=1, m=1)
    g11, g12, g22 = S.block_norms(PARAMS)
    gamma = gamma_from_block_norms(g11, g12, g22, 1.0, 1.0)
    chi = random_series(rng, nterms=5, k_budget=2, l_budget=1, p_budget=1).scale(1e-2)
    psi = random_series(rng, nterms=5, k_budget=2, l_budget=1, p_budget=1)
    dt = 0.3
    shrunk = WeightedNormParams(1.0 - dt, 1.0 - dt)
    nchi = weighted_norm(chi, PARAMS).K
    npsi = weighted_norm(psi, PARAMS).K
    term = psi
    for s in range(1, 5):
        term = poisson_bracket(chi, term, S)
        lhs = weighted_norm(term, shrunk).K
        rhs = (
            math.factorial(s)
            / math.e ** 2
            * (4 * math.e ** 2 * gamma / dt ** 2) ** s
            * nchi ** s
            * npsi
        )
        assert lhs <= rhs * (1 + 1e-12)


def test_coordinate_bracket_is_the_ring_bracket(rng):
    # y_i and eta are ring elements, so the unit-partial bracket must equal
    # the bracket with the series z_c exactly
    cases = [
        CANON,
        StructureMatrix.canonical(2, A_DEFAULT, TR_DEFAULT),
        rescaled_bracket_instance(),
        random_structure(rng, n=1, m=1),
        random_structure(rng, n=2, m=2),
    ]
    for S in cases:
        n, m = S.n, S.m
        F = random_series(rng, n=n, m=m, nterms=8, k_budget=3, l_budget=2, p_budget=2)
        F = F + cosx(n=n, m=m, p=1).mul_y(0) + eta(n=n, m=m)
        coords = [(("y", i), yi(i, n=n, m=m)) for i in range(m)] + [("eta", eta(n=n, m=m))]
        for c, z in coords:
            assert bracket_with_coordinate(F, c, S) == poisson_bracket(F, z, S)


def test_unknown_coordinate_rejected():
    for coord in (("y", 1), ("x", 1), ("x", -1), ("z", 0), "zeta"):
        with pytest.raises(ValueError, match="unknown coordinate"):
            bracket_with_coordinate(cosx(), coord, CANON)


def test_lie_discards_count_the_first_bracket():
    # |k| = 5 against |k| = 4 passes K_max = 8, so {chi, F} already truncates
    chi = mk([((5,), (1,), 0, 1, 1e-6), ((-5,), (1,), 0, 1, 1e-6)])
    F = mk([((4,), (1,), 0, 0, 0.5), ((-4,), (1,), 0, 0, 0.5), ((1,), (2,), 0, 0, 0.25)])
    with discards() as first:
        poisson_bracket(chi, F, CANON)
    assert first.total_mass > 0.0
    with discards() as outer:
        _, diag = lie_transform(chi, F, CANON, PARAMS)
    assert diag.s_stop >= 2
    assert diag.discarded_mass == outer.total_mass
    assert diag.discarded_mass > first.total_mass


def test_kept_structure_products_charge_their_discards():
    # B12 = (1 + y)(1, 1/2) at L_max = 1: chi_x has |alpha| = 1 terms, so
    # chi_x * b exceeds the |alpha| order and drops mass.  The expected
    # totals and event counts were recorded with every product formed afresh
    # in every bracket, before the operator kept them
    tr = Truncation(8, 1, 4)
    S = rescaled_bracket_instance(trunc=tr)
    chi = mk(
        [((1, 0), (1,), 0, 1, 2e-4), ((-1, 0), (1,), 0, 1, 2e-4),
         ((0, 1), (0,), 0, 1, 3e-4j), ((0, -1), (0,), 0, 1, -3e-4j)],
        n=2, m=1, trunc=tr,
    )
    F = mk(
        [((1, 1), (1,), 0, 0, 0.5), ((-1, -1), (1,), 0, 0, 0.5),
         ((2, 0), (0,), 0, 0, 0.25), ((-2, 0), (0,), 0, 0, 0.25)],
        n=2, m=1, trunc=tr,
    )
    with discards() as lost:
        chi.partial_x(0) * S.B12[0][0]
    assert lost.total_mass > 0.0
    with discards() as lost:
        _, diag = lie_transform(chi, F, S, PARAMS)
    assert (diag.discarded_mass, lost.events) == (0.0027007937028392004, 23)
    with discards() as lost:
        _, diag = lie_coordinate_displacement(chi, ("x", 0), S, PARAMS)
    assert (diag.discarded_mass, lost.events) == (0.001600160080434381, 17)


def test_lie_discards_do_not_depend_on_earlier_runs():
    # the discarded mass of a run is its own, not a difference of a
    # process-wide running total that earlier runs have grown
    def masses(prob):
        return [row["lie_discarded_mass"] for row in run(prob.initialize()).trace.rows]

    before = masses(rescaled_benchmark_problem())
    for _ in range(3):
        masses(rescaled_benchmark_problem(trunc=(6, 2, 4)))
    assert masses(rescaled_benchmark_problem()) == before
    assert before[0] == 9.545548661988989e-08


# ---- poisson_bracket against an exact symbolic bracket ---------------------------


def _symbolic(sp, f, y, x, eta_, xi):
    """f as an exact sympy expression, each coefficient the rational its float is."""
    a = sp.Rational(f.decay_rate)
    total = sp.Integer(0)
    for k, alpha, e, p, c in f.terms():
        term = (sp.Rational(c.real) + sp.I * sp.Rational(c.imag)) * eta_**e
        term *= sp.exp(sp.I * sum(kl * xl for kl, xl in zip(k, x)) - p * a * xi)
        for yi_, ai in zip(y, alpha):
            term *= yi_**ai
        total += term
    return total


def test_poisson_bracket_matches_the_exact_symbolic_bracket(rng):
    # on dyadic coefficients every float operation of the bracket is exact,
    # so it must equal grad(F)^T B grad(G) over (y, x, eta, xi) with B the
    # block structure matrix extended by {xi, eta} = 1, computed by sympy
    sp = pytest.importorskip("sympy")
    cases = [
        CANON,
        StructureMatrix.canonical(2, A_DEFAULT, TR_DEFAULT),
        rescaled_bracket_instance(),
        random_structure(rng, n=2, m=2),
    ]
    for S in cases:
        n, m = S.n, S.m
        y = sp.symbols("y0:%d" % m)
        x = sp.symbols("x0:%d" % n)
        eta_, xi = sp.symbols("eta xi")
        coords = list(y) + list(x) + [eta_, xi]
        sym = lambda f: _symbolic(sp, f, y, x, eta_, xi)
        B = sp.zeros(m + n + 2, m + n + 2)
        for i in range(m):
            for l in range(n):
                B[i, m + l] = sym(S.B12[i][l])
                B[m + l, i] = -B[i, m + l]
        for l in range(n):
            for lp in range(n):
                B[m + l, m + lp] = sym(S.B22[l][lp])
        B[m + n + 1, m + n] = 1
        B[m + n, m + n + 1] = -1
        # eta on one side at a time: a product of two eta terms is refused
        for eta_in_F in (True, False):
            budgets = dict(nterms=4, dyadic=True, k_budget=2, p_budget=1)
            F = random_series(rng, n=n, m=m, l_budget=1, with_eta=eta_in_F, **budgets)
            G = random_series(rng, n=n, m=m, l_budget=2, with_eta=not eta_in_F, **budgets)
            assert (F if eta_in_F else G).ecol.any()
            with discards() as lost:
                bracket = poisson_bracket(F, G, S)
            assert lost.total_mass == 0.0
            grad_F = sp.Matrix([sp.diff(sym(F), z) for z in coords])
            grad_G = sp.Matrix([sp.diff(sym(G), z) for z in coords])
            exact = (grad_F.T * B * grad_G)[0, 0]
            assert sp.expand(sym(bracket) - exact) == 0
            assert not bracket.is_zero()
