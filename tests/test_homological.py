import itertools

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from poisson_kam import (
    FrequencyData,
    StructureMatrix,
    WeightedNormParams,
    build_E,
    diophantine_profile,
    solve_S,
    solve_T,
    solve_scalar,
    weighted_norm,
)
from poisson_kam.errors import ResonanceError, SecularTermError

from conftest import A_DEFAULT, TR_DEFAULT, cosx, decay, mk, random_series, zeros

GOLDEN = (1.0 + 5 ** 0.5) / 2.0
PARAMS = WeightedNormParams(1.0, 1.0)


def freq_1d(omega=1.0, tau=1.0, K_max=8):
    return FrequencyData.build([omega], np.eye(1), tau, K_max)


def freq_2d(omega, tau=1.2, K_max=8):
    return FrequencyData.build(list(omega), np.eye(2), tau, K_max)


# ---- diophantine profile -----------------------------------------------------


def test_profile_unit_frequency():
    assert diophantine_profile([1.0], 2.3, 10) == 1.0


def test_profile_golden_pair_brute_force():
    omega = np.array([1.0, GOLDEN])
    got = diophantine_profile(omega, 1.0, 10)
    best = min(
        abs(k1 + GOLDEN * k2) * (abs(k1) + abs(k2))
        for k1, k2 in itertools.product(range(-10, 11), repeat=2)
        if 0 < abs(k1) + abs(k2) <= 10
    )
    assert got == pytest.approx(best)
    assert got == pytest.approx(1.0)  # attained at k = (-1, 0) for tau = 1


def test_profile_resonant_pair():
    with pytest.raises(ResonanceError, match=r"^resonance k=\[-2, 1\]:"):
        diophantine_profile([1.0, 2.0], 1.0, 4)


# ---- solve_scalar ----------------------------------------------------------------


def test_solve_explicit_mode_division():
    # psi = e^{-a xi} e^{ix}, omega = 1, a = 1/2: coefficient 1/(i - 1/2)
    psi = mk([((1,), (0,), 0, 1, 1.0)])
    sol = solve_scalar(psi, freq_1d())
    c = sol.phi.coefficient((1,), (0,), 0, 1)
    assert c == pytest.approx(complex(-0.4, -0.8))
    assert sol.min_divisor == pytest.approx(abs(1j - 0.5))


def test_solve_backward_ode_oracle():
    # independent oracle: integrate the mode ODE phi' + i omega phi = psi
    # backward from large xi where the decaying solution is negligible
    a, omega = A_DEFAULT, 1.0
    psi = mk([((1,), (0,), 0, 1, 1.0)])
    sol = solve_scalar(psi, freq_1d(omega))

    def rhs(xi, u):
        val = np.exp(-a * xi)  # psi mode amplitude at time xi
        d = val - 1j * omega * (u[0] + 1j * u[1])
        return [d.real, d.imag]

    xi_max = 70.0
    back = solve_ivp(rhs, (xi_max, 0.0), [0.0, 0.0], rtol=1e-12, atol=1e-14)
    got = complex(back.y[0, -1], back.y[1, -1])
    expect = sol.phi.evaluate([0.0], [0.0], 0.0, 0.0)
    assert got == pytest.approx(expect, abs=1e-10)


def test_solve_pure_decay():
    # psi = e^{-a xi}: phi = -e^{-a xi}/a
    psi = decay(p=1)
    sol = solve_scalar(psi, freq_1d())
    assert sol.phi == psi.scale(-1.0 / A_DEFAULT)


def test_solve_secular_rejected():
    psi = mk([((0,), (0,), 0, 0, 1.0)])
    with pytest.raises(SecularTermError):
        solve_scalar(psi, freq_1d())


def test_solve_linearity(rng):
    f = freq_1d()
    p1 = random_series(rng, nterms=5, dyadic=True, decaying_only=True, k_budget=3, p_budget=2)
    p2 = random_series(rng, nterms=5, dyadic=True, decaying_only=True, k_budget=3, p_budget=2)
    lhs = solve_scalar(p1.scale(2.0) + p2.scale(-0.5), f).phi
    rhs = solve_scalar(p1, f).phi.scale(2.0) + solve_scalar(p2, f).phi.scale(-0.5)
    assert lhs == rhs


def test_solve_preserves_decay_support(rng):
    f = freq_1d()
    psi = random_series(rng, nterms=8, decaying_only=True, k_budget=3, p_budget=3)
    phi = solve_scalar(psi, f).phi
    assert sorted(set(psi.pcol.tolist())) == sorted(set(phi.pcol.tolist()))


def test_divisor_floor(rng):
    f = freq_2d((1.0, GOLDEN), tau=1.0, K_max=6)
    psi = random_series(rng, n=2, m=1, nterms=10, decaying_only=True, k_budget=6, p_budget=3)
    sol = solve_scalar(psi, f)
    floor = min(A_DEFAULT, f.gamma * 6.0 ** -f.tau)
    assert sol.min_divisor >= floor * (1 - 1e-12)


# ---- solve_S / build_E / solve_T ---------------------------------------------------


def test_solve_S_zero():
    sol = solve_S(zeros(), freq_1d())
    assert sol.phi.is_zero()


def test_solve_S_decaying_cos():
    A = cosx(p=1)
    sol = solve_S(A, freq_1d())
    cp = sol.phi.coefficient((1,), (0,), 0, 1)
    cm = sol.phi.coefficient((-1,), (0,), 0, 1)
    assert cp == pytest.approx(-0.5 / (1j - 0.5))
    assert cm == pytest.approx(-0.5 / (-1j - 0.5))
    assert sol.phi.is_real_symmetric(tol=1e-15)


def test_build_E_identity_case():
    S = StructureMatrix.canonical(1, A_DEFAULT, TR_DEFAULT)
    # canonical: B0 = I, B1 = 0 so E = C
    C = [[cosx(p=1)]]
    E = build_E(S, C, [1.0])
    assert E[0][0] == C[0][0]


def test_build_E_constant_part():
    from conftest import rescaled_bracket_instance

    S = rescaled_bracket_instance()
    C = [[zeros(n=2, m=1)]]
    omega_tilde = [0.7]
    E = build_E(S, C, omega_tilde)
    for l in range(2):
        expect = float(np.einsum("ij,i->j", S.B1[l], omega_tilde)[0])
        assert E[l][0].coefficient((0, 0), (0,), 0, 0) == pytest.approx(expect)


def test_build_E_random_index_oracle(rng):
    from conftest import random_structure

    S = random_structure(rng, n=2, m=2)
    C = [
        [random_series(rng, n=2, m=2, nterms=3, l_budget=0, k_budget=2, p_budget=1) for _ in range(2)]
        for _ in range(2)
    ]
    # symmetrize
    C[1][0] = C[0][1]
    omega_tilde = rng.normal(size=2)
    E = build_E(S, C, omega_tilde)
    for l in range(2):
        for j in range(2):
            expect = zeros(n=2, m=2)
            for i in range(2):
                expect = expect + C[i][j].scale(S.B0[l, i])
            const = float(np.dot(S.B1[l, :, j], omega_tilde))
            expect = expect + mk([((0, 0), (0, 0), 0, 0, const)], n=2, m=2)
            assert weighted_norm(E[l][j] - expect, PARAMS).K <= 1e-14


def test_solve_T_trivial_and_decoupled(rng):
    f = freq_1d()
    S = StructureMatrix.canonical(1, A_DEFAULT, TR_DEFAULT)
    E = [[zeros()]]
    sols = solve_T([zeros()], zeros(), E, f)
    assert sols[0].phi.is_zero()
    B = [random_series(rng, nterms=4, decaying_only=True, k_budget=3, p_budget=2)]
    sols = solve_T(B, zeros(), E, f)
    assert sols[0].phi == solve_scalar(-B[0], f).phi


def test_system_residuals_small_instance(rng):
    # both equations of the system satisfied to 1e-12 through series ops
    f = freq_1d()
    S = StructureMatrix.canonical(1, A_DEFAULT, TR_DEFAULT)
    A = random_series(rng, nterms=5, real=True, decaying_only=True, l_budget=0, k_budget=2, p_budget=2)
    B = [random_series(rng, nterms=5, real=True, decaying_only=True, l_budget=0, k_budget=2, p_budget=2)]
    C = [[mk([((0,), (0,), 0, 0, 1.0)])]]
    solS = solve_S(A, f)
    E = build_E(S, C, [1.0])
    solT = solve_T(B, solS.phi, E, f)
    omega = f.omega
    r1 = solS.phi.partial_xi() + solS.phi.directional_x(omega) + A
    assert weighted_norm(r1, PARAMS).K <= 1e-12 * max(weighted_norm(A, PARAMS).K, 1e-30)
    rhs = B[0] + solS.phi.partial_x(0) * E[0][0]
    r2 = solT[0].phi.partial_xi() + solT[0].phi.directional_x(omega) + rhs
    assert weighted_norm(r2, PARAMS).K <= 1e-12 * max(weighted_norm(rhs, PARAMS).K, 1e-30)


def test_near_resonance_guard():
    from poisson_kam.errors import NearResonanceError

    freq = FrequencyData.build([1e-14], np.eye(1), 1.0, 4)
    assert freq.gamma == 1e-14  # far from resonant relative to |omega|
    psi = mk([((1,), (0,), 0, 0, 1.0)])
    with pytest.raises(NearResonanceError):
        solve_scalar(psi, freq)
