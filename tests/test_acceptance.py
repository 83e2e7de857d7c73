"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from poisson_kam import (
    ChiRecord,
    ExtendedPoint,
    StructureMatrix,
    Truncation,
    WeightedNormParams,
    benchmark_problem,
    compose_map,
    lie_vs_flow_check,
    poisson_bracket,
    run,
    schedule_audit,
    solve_scalar,
    taylor_split,
    torus_persistence_report,
    weighted_norm,
)
from poisson_kam.bracket import gamma_from_block_norms
from poisson_kam.cli import main
from poisson_kam.homological import FrequencyData

from conftest import random_series, random_structure, rescaled_bracket_instance, with_budget

GOLDEN = (1.0 + 5 ** 0.5) / 2.0


def _report(num, label, t0, budget):
    elapsed = time.time() - t0
    print("ACCEPTANCE %02d %s: PASS (%.1f s, budget %ds)" % (num, label, elapsed, budget))
    assert elapsed < budget


# ---------------------------------------------------------------- criterion 1


def test_acceptance_01_algebra_suite():
    t0 = time.time()
    rng = np.random.default_rng(101)
    params = WeightedNormParams(0.6, 0.8)
    shrunk = WeightedNormParams(0.4, 0.5)
    series_count = 0
    for trial in range(180):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        trunc = Truncation(8, 4, 4)
        kw = dict(n=n, m=m, trunc=trunc, k_budget=2, l_budget=1, p_budget=1)
        f = random_series(rng, nterms=4, dyadic=True, **kw)
        g = random_series(rng, nterms=4, dyadic=True, **kw)
        h = random_series(rng, nterms=4, dyadic=True, **kw)
        series_count += 3
        # ring axioms, exact on dyadic coefficients with no truncation discard
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        # derivation rule
        assert (f * g).partial_x(0) == f.partial_x(0) * g + f * g.partial_x(0)
        assert (f * g).partial_y(0) == f.partial_y(0) * g + f * g.partial_y(0)
        # norm submultiplicativity and decay additivity
        bf, bg, bfg = (
            weighted_norm(f, params),
            weighted_norm(g, params),
            weighted_norm(f * g, params),
        )
        assert bfg.K <= bf.K * bg.K * (1 + 1e-12)
        if not (f * g).is_zero():
            assert bfg.p >= bf.p + bg.p
        assert weighted_norm(f, shrunk).K <= bf.K * (1 + 1e-14)
        # evaluation homomorphism, float tolerance
        y = rng.normal(size=m) + 1j * rng.normal(size=m)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        xi = abs(rng.normal())
        lhs = (f * g).evaluate(y, x, 0, xi)
        rhs = f.evaluate(y, x, 0, xi) * g.evaluate(y, x, 0, xi)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        # reality preservation
        fr = random_series(rng, nterms=3, dyadic=True, real=True, **kw)
        gr = random_series(rng, nterms=3, dyadic=True, real=True, **kw)
        series_count += 2
        assert (fr * gr).is_real_symmetric()
        assert (fr + gr).is_real_symmetric()
        assert fr.partial_x(0).is_real_symmetric()
        A, B, C, R = taylor_split(fr)
        assert A.is_real_symmetric() and R.is_real_symmetric()
        from poisson_kam import reassemble_taylor

        assert reassemble_taylor(A, B, C, R) == fr
        series_count += 1
    assert series_count >= 1000
    _report(1, "algebra suite (%d series)" % series_count, t0, 60)


# ---------------------------------------------------------------- criterion 2


def test_acceptance_02_bracket_suite():
    t0 = time.time()
    rng = np.random.default_rng(202)
    params = WeightedNormParams(1.0, 1.0)

    def jacobi(F, G, H, S):
        return (
            poisson_bracket(poisson_bracket(F, G, S), H, S)
            + poisson_bracket(poisson_bracket(G, H, S), F, S)
            + poisson_bracket(poisson_bracket(H, F, S), G, S)
        )

    for trial in range(30):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        S = random_structure(rng, n=n, m=m)
        kw = dict(n=n, m=m, k_budget=2, l_budget=1, p_budget=1)
        F = random_series(rng, nterms=4, dyadic=True, **kw)
        G = random_series(rng, nterms=4, dyadic=True, **kw)
        H = random_series(rng, nterms=4, dyadic=True, **kw)
        assert poisson_bracket(F, G, S) == -poisson_bracket(G, F, S)
        lhs = poisson_bracket(F * G, H, S)
        rhs = F * poisson_bracket(G, H, S) + G * poisson_bracket(F, H, S)
        assert lhs == rhs
        cyc = jacobi(F, G, H, S)
        scale = max(weighted_norm(poisson_bracket(F, G, S), params).K, 1.0)
        assert weighted_norm(cyc, params).K <= 1e-12 * scale
    # published-shape y-dependent Poisson instance: action-rescaled bracket
    S = rescaled_bracket_instance()
    for trial in range(10):
        kw = dict(n=2, m=1, k_budget=2, l_budget=1, p_budget=1)
        F = random_series(rng, nterms=4, dyadic=True, **kw)
        G = random_series(rng, nterms=4, dyadic=True, **kw)
        H = random_series(rng, nterms=4, dyadic=True, **kw)
        cyc = jacobi(F, G, H, S)
        scale = max(weighted_norm(poisson_bracket(F, G, S), params).K, 1.0)
        assert weighted_norm(cyc, params).K <= 1e-12 * scale
    _report(2, "bracket suite", t0, 60)


# ---------------------------------------------------------------- criterion 3


def test_acceptance_03_homological_residuals():
    t0 = time.time()
    rng = np.random.default_rng(303)
    params = WeightedNormParams(1.0, 1.0)
    for trial in range(100):
        scale = 0.5 + 1.5 * rng.random()
        omega = scale * np.array([1.0, GOLDEN])
        freq = FrequencyData.build(omega, np.eye(2), tau=1.0, K_max=8)
        psi = random_series(
            rng, n=2, m=2, nterms=8, decaying_only=True, k_budget=8, l_budget=2,
            p_budget=3, trunc=Truncation(8, 4, 4),
        )
        sol = solve_scalar(psi, freq, params)
        bound = 1e-12 * weighted_norm(psi, params).K
        assert sol.residual_norm <= bound
    _report(3, "homological residuals (100 sources)", t0, 30)


# ---------------------------------------------------------------- criterion 4


def test_acceptance_04_lie_vs_flow():
    t0 = time.time()
    rng = np.random.default_rng(404)
    params = WeightedNormParams(1.0, 1.0)
    checks = 0
    for trial in range(20):
        kind = trial % 3
        if kind == 0:
            S = StructureMatrix.canonical(1, 0.5, Truncation(8, 4, 4))
            n, m = 1, 1
        elif kind == 1:
            S = random_structure(rng, n=2, m=2)
            n, m = 2, 2
        else:
            S = rescaled_bracket_instance()
            n, m = 2, 1
        chi = random_series(
            rng, n=n, m=m, nterms=5, real=True, k_budget=2, l_budget=1, p_budget=1
        )
        norm = weighted_norm(chi, params).K
        chi = chi.scale((0.2 + 0.8 * rng.random()) * 1e-3 / norm)
        pt = ExtendedPoint(
            0.2 * rng.normal(size=m), rng.uniform(0, 2 * math.pi, size=n),
            0.1 * rng.normal(), abs(rng.normal()),
        )
        record = ChiRecord(0, chi, params.rho, params.sigma, 1.0 / 6.0)
        dist = lie_vs_flow_check(record, S, pt, tol=1e-12)
        assert dist <= 1e-8
        checks += 1
    assert checks == 20
    _report(4, "Lie transform vs time-1 flow (20 generators)", t0, 120)


# ---------------------------------------------------------------- criterion 5


def test_acceptance_05_quadratic_convergence():
    t0 = time.time()
    eps1 = {}
    for eps in (1e-3, 5e-4):
        setup = benchmark_problem(epsilon=eps).initialize()
        res = run(with_budget(setup, 1, 0.0))
        eps1[eps] = res.trace.rows[0]["eps_out"]
    ratio = eps1[5e-4] / eps1[1e-3]
    assert 0.2 <= ratio <= 0.3
    res = run(with_budget(benchmark_problem(epsilon=1e-3).initialize(), 5, 0.0))
    eps_seq = res.trace.eps_sequence()
    assert len(eps_seq) == 6
    assert all(eps_seq[j + 1] < eps_seq[j] for j in range(5))
    # fit the exponent on pairs above the float cancellation floor
    # (cancelling an O(eps_j) term leaves ~1e-16 eps_j of rounding dust,
    # so steps with eps_{j+1}/eps_j < 1e-14 measure dust, not the scheme)
    pairs = [
        (math.log(eps_seq[j]), math.log(eps_seq[j + 1]))
        for j in range(5)
        if eps_seq[j + 1] / eps_seq[j] >= 1e-14
    ]
    assert len(pairs) >= 2
    xs = np.array([p[0] for p in pairs])
    ys = np.array([p[1] for p in pairs])
    slope = float(np.polyfit(xs, ys, 1)[0])
    assert slope >= 1.7
    _report(
        5,
        "quadratic signature (ratio %.3f, exponent %.2f)" % (ratio, slope),
        t0,
        120,
    )


# ---------------------------------------------------------------- criterion 6


def test_acceptance_06_norm_bound_inequality():
    t0 = time.time()
    rng = np.random.default_rng(606)
    params = WeightedNormParams(1.0, 1.0)
    d_tilde = 0.3
    shrunk = WeightedNormParams(1.0 - d_tilde, 1.0 - d_tilde)
    for trial in range(50):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        S = random_structure(rng, n=n, m=m)
        g11, g12, g22 = S.block_norms(params)
        gamma = gamma_from_block_norms(g11, g12, g22, params.rho, params.sigma)
        kw = dict(n=n, m=m, k_budget=2, l_budget=1, p_budget=1)
        chi = random_series(rng, nterms=4, **kw)
        chi = chi.scale(1e-2 / max(weighted_norm(chi, params).K, 1e-12))
        psi = random_series(rng, nterms=4, **kw)
        nchi = weighted_norm(chi, params).K
        npsi = weighted_norm(psi, params).K
        term = psi
        for s in range(1, 5):
            term = poisson_bracket(chi, term, S)
            lhs = weighted_norm(term, shrunk).K
            rhs = (
                math.factorial(s)
                / math.e ** 2
                * (4 * math.e ** 2 * gamma / d_tilde ** 2) ** s
                * nchi ** s
                * npsi
            )
            assert lhs <= rhs * (1 + 1e-12)
    _report(6, "iterated-bracket norm bound (50 pairs, s=1..4)", t0, 60)


# ---------------------------------------------------------------- criteria 7 + 8


def test_acceptance_07_08_torus_persistence_and_time_triviality():
    t0 = time.time()
    setup = benchmark_problem(epsilon=1e-3).initialize()
    res = run(with_budget(setup, 6, 1e-9))
    assert res.status == "converged"
    report = torus_persistence_report(
        setup.decomp.full,
        setup.structure,
        res.chi_records,
        t_end=100.0,
        tol=1e-10,
        n_angles=8,
        threshold=10.0,
    )
    assert report.min_improvement >= 10.0
    assert report.passed
    # criterion 8: the composed map never moves xi, exactly
    for angle in report.angles:
        assert angle.xi_shift == 0.0
    for xi in (0.0, 0.7, 3.0):
        pt = ExtendedPoint(np.zeros(1), np.array([1.1]), 0.0, xi)
        out = compose_map(res.chi_records, pt, setup.structure)
        assert out.xi == pt.xi
    _report(
        7,
        "torus persistence (min improvement %.1e)" % report.min_improvement,
        t0,
        300,
    )
    print("ACCEPTANCE 08 time triviality |xi_out - xi_in| = 0: PASS")


# ---------------------------------------------------------------- criterion 9


def test_acceptance_09_parameter_schedule_audit():
    t0 = time.time()
    for tau, ups0 in ((1.0, 0.5), (1.5, 0.8)):
        aud = schedule_audit(tau=tau, upsilon0=ups0, rho0=1.0, sigma0=1.0)
        row = aud.rows[200]
        assert abs(row["rho"] - 0.25) <= 0.01 * 0.25
        assert abs(row["sigma"] - 0.25) <= 0.01 * 0.25
        # upsilon: the printed update shrinks it by < 1e-4 in total; its
        # stated limit is the floor ups0/2, checked as a bound
        assert row["upsilon"] >= ups0 / 2.0
        assert abs(row["upsilon"] - aud.upsilon_limit) <= 1e-6 * aud.upsilon_limit
        assert aud.d_max_tail <= 1.0 / 6.0 + 1e-12
        ds = [r["d"] for r in aud.rows]
        rhos = [r["rho"] for r in aud.rows]
        zetas = [r["zeta"] for r in aud.rows]
        ups = [r["upsilon"] for r in aud.rows]
        assert all(ds[j + 1] < ds[j] for j in range(1, len(ds) - 1))
        assert all(rhos[j + 1] < rhos[j] for j in range(len(rhos) - 1))
        # upsilon's decrement underflows double precision once d_j^{4tau+3}
        # drops below 1 ulp; require strict decrease only while representable
        assert all(ups[j + 1] <= ups[j] for j in range(len(ups) - 1))
        assert all(ups[j + 1] < ups[j] for j in range(3))
        assert all(zetas[j + 1] < zetas[j] for j in range(1, len(zetas) - 1))
    _report(9, "parameter schedule audit (j = 200)", t0, 30)


# ---------------------------------------------------------------- criterion 10


def test_acceptance_10_cli_determinism(tmp_path):
    t0 = time.time()
    prob = tmp_path / "bench.json"
    benchmark_problem(epsilon=1e-3).save(prob)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["normalize", "--problem", str(prob), "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("trace.jsonl", "normal_form.json", "generators.json"):
        b1 = (outs[0] / fname).read_bytes()
        b2 = (outs[1] / fname).read_bytes()
        assert b1 == b2
    _report(10, "CLI determinism (byte-identical outputs)", t0, 60)
