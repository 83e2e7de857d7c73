"""Per-mode solution of the time-dependent homological equations.

Both equations of the generating-function system have the shape

    phi_xi + omega . phi_x = psi,

and in the exponential-decay coefficient ring they decouple mode by mode:
the term (k, alpha, p) of phi is psi_{k,alpha,p} / (i k.omega - p a).  The
divisor never vanishes when omega is nonresonant and every k = 0 term of psi
carries p >= 1; the decay shift -p a is what makes the aperiodic k = 0 modes
solvable at all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NearResonanceError, ParameterError, ResonanceError, SecularTermError
from .series import FourierTaylorSeries, WeightedNormParams, weighted_norm

# solves abort below this divisor magnitude (floating-point safety; the
# Diophantine condition plus a > 0 keeps honest problems far above it)
DIVISOR_FLOOR = 1e-13

RESIDUAL_REL_TOL = 1e-12


@dataclass
class FrequencyData:
    """Torus frequency data: omega = B0 omega_tilde, with Diophantine audit."""

    omega_tilde: np.ndarray
    omega: np.ndarray
    gamma: float
    tau: float
    K_max: int

    @classmethod
    def build(cls, omega_tilde, B0, tau, K_max):
        omega_tilde = np.asarray(omega_tilde, dtype=float)
        omega = np.asarray(B0, dtype=float) @ omega_tilde
        gamma = diophantine_profile(omega, tau, K_max)
        return cls(omega_tilde, omega, gamma, float(tau), int(K_max))


def lattice_divisors(omega, K_max):
    """Yield (k, |k|_1, |k.omega|) for 0 < |k|_1 <= K_max, in a fixed order.

    The dot product stays per row: a vectorized K @ omega rounds some
    divisors differently, which would move every quantity derived from them.
    """
    omega = np.asarray(omega, dtype=float)
    for k in itertools.product(range(-K_max, K_max + 1), repeat=len(omega)):
        norm1 = sum(abs(v) for v in k)
        if 0 < norm1 <= K_max:
            yield k, norm1, abs(float(np.dot(k, omega)))


def diophantine_profile(omega, tau, K_max) -> float:
    """Effective Diophantine constant min |k.omega| |k|^tau over 0 < |k| <= K_max.

    Raises ParameterError when K_max < 1 or |k|^tau overflows, and
    ResonanceError when some k.omega vanishes (to floating precision) inside
    the scanned range.
    """
    omega = np.asarray(omega, dtype=float)
    if K_max < 1:
        raise ParameterError("'K_max' must be >= 1, got %r" % (K_max,))
    if not np.any(omega):
        raise ResonanceError("zero frequency vector")
    scale = float(np.abs(omega).max())
    best = np.inf
    for k, norm1, dot in lattice_divisors(omega, K_max):
        if dot <= 1e-13 * scale * norm1:
            raise ResonanceError(
                "resonance k=%s: |k.omega| = %.3g" % (list(k), dot)
            )
        try:
            best = min(best, dot * norm1 ** tau)
        except OverflowError as exc:
            raise ParameterError("|k|^tau overflows at |k| = %d, tau = %r" % (norm1, tau)) from exc
    return float(best)


def divisor_shells(omega, tau, K_max):
    """Worst |k.omega| and worst |k.omega||k|^tau per shell |k| = 1..K_max."""
    shells = {s: (np.inf, None) for s in range(1, K_max + 1)}
    for k, norm1, dot in lattice_divisors(omega, K_max):
        if dot < shells[norm1][0]:
            shells[norm1] = (dot, k)
    rows = []
    for s in range(1, K_max + 1):
        dot, k = shells[s]
        rows.append(
            {
                "shell": s,
                "worst_divisor": float(dot),
                "gamma_at_shell": float(dot * s ** tau),
                "k": list(k) if k is not None else None,
            }
        )
    return rows


@dataclass
class HomologicalSolution:
    phi: FourierTaylorSeries
    min_divisor: float
    residual_norm: float


def _residual(phi, psi, omega, params):
    res = phi.partial_xi() + phi.directional_x(omega) - psi
    return weighted_norm(res, params).K


def solve_scalar(
    psi: FourierTaylorSeries,
    freq: FrequencyData,
    a: float,
    params: WeightedNormParams | None = None,
) -> HomologicalSolution:
    """Solve phi_xi + omega . phi_x = psi exactly per mode.

    Every psi term needs p >= 1 or k != 0; a k = 0, p = 0 term is secular and
    rejected.  The alpha index is a spectator (each action slice solves
    independently).  The residual is recomputed through the series operations
    and must sit at rounding level.
    """
    if psi.ecol.any():
        raise SecularTermError("homological right-hand side must be eta-free")
    if params is None:
        params = WeightedNormParams(1.0, 1.0)
    if psi.is_zero():
        return HomologicalSolution(psi, np.inf, 0.0)
    kdots = psi.kcols.astype(np.float64) @ freq.omega
    ps = psi.pcol.astype(np.float64)
    secular = (ps == 0) & ~psi.kcols.any(axis=1)
    if secular.any():
        raise SecularTermError(
            "unsolvable secular term(s) with k = 0, p = 0 in the source"
        )
    divisors = 1j * kdots - ps * a
    mags = np.abs(divisors)
    if (mags < DIVISOR_FLOOR).any():
        worst = float(mags.min())
        raise NearResonanceError(
            "divisor %.3g below safety floor %.1g" % (worst, DIVISOR_FLOOR)
        )
    phi = psi._like(psi.keys, psi.coeffs / divisors, canonical=True)
    res = _residual(phi, psi, freq.omega, params)
    bound = RESIDUAL_REL_TOL * weighted_norm(psi, params).K
    if res > bound:
        raise NearResonanceError(
            "homological residual %.3g exceeds %.3g" % (res, bound)
        )
    return HomologicalSolution(phi, float(mags.min()), res)


def solve_S(A: FourierTaylorSeries, freq: FrequencyData, a: float, params=None):
    """First generating-function equation: S_xi + S_omega + A = 0."""
    return solve_scalar(-A, freq, a, params)


def build_E(S_mat, C, omega_tilde):
    """E = B0 C + B1 . omega_tilde, an n x m matrix of series.

    (B1 . omega_tilde)_{l j} = sum_i B1[l, i, j] omega_tilde_i enters as the
    constant first-order contribution of the action-dependent B12 block.
    """
    n, m = S_mat.n, S_mat.m
    omega_tilde = np.asarray(omega_tilde, dtype=float).reshape(m)
    proto = C[0][0]
    zero = proto._like(None, None)
    b1w = np.einsum("lij,i->lj", S_mat.B1, omega_tilde)
    E = []
    for l in range(n):
        row = []
        for j in range(m):
            entry = zero
            for i in range(m):
                if S_mat.B0[l, i] != 0.0 and not C[i][j].is_zero():
                    entry = entry + C[i][j].scale(S_mat.B0[l, i])
            if b1w[l, j] != 0.0:
                entry = entry + FourierTaylorSeries.constant(b1w[l, j], proto)
            row.append(entry)
        E.append(row)
    return E


def solve_T(B_vec, S_series, E, freq: FrequencyData, a: float, params=None):
    """Second equation, componentwise: T_j = solve(-(S_x E + B)_j).

    Each component has exactly the same per-mode form as the first equation.
    """
    n = len(E)
    m = len(B_vec)
    Sx = [S_series.partial_x(l) for l in range(n)]
    out = []
    for j in range(m):
        rhs = B_vec[j]
        for l in range(n):
            if not (Sx[l].is_zero() or E[l][j].is_zero()):
                rhs = rhs + Sx[l] * E[l][j]
        out.append(solve_scalar(-rhs, freq, a, params))
    return out
