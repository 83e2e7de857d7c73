"""Per-mode solution of the time-dependent homological equations.

Both equations of the generating-function system have the shape

    phi_xi + omega . phi_x = psi,

and in the exponential-decay coefficient ring they decouple mode by mode:
the term (k, alpha, p) of phi is psi_{k,alpha,p} / (i k.omega - p a).  The
divisor never vanishes when omega is nonresonant and every k = 0 term of psi
carries p >= 1; the decay shift -p a is what makes the aperiodic k = 0 modes
solvable at all.  The solvers read a from the ring of psi (its decay_rate),
so no caller can pass a rate that disagrees with the series.

lattice_scan reads the wavevector lattice once per frequency vector, into
the smallest |k.omega| per shell |k|_1.  gamma_K, the resonance check,
Theta1, Theta2 and the check-diophantine rows come from that table, bit for
bit as per k: each is a min or max of a map of |k.omega| monotone in floats.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NearResonanceError, ParameterError, ResonanceError, SecularTermError
from .series import MAX_ORDER, FourierTaylorSeries, WeightedNormParams, _integer, weighted_norm

# solves abort below this divisor magnitude (floating-point safety; the
# Diophantine condition plus a > 0 keeps honest problems far above it)
DIVISOR_FLOOR = 1e-13

RESIDUAL_REL_TOL = 1e-12

# the most wavevectors one lattice scan visits: about 0.7-3.4 us each on a
# 2-core x86 host (3.4 when every point lies in 0 < |k|_1 <= K_max, as for
# n = 1), so at most about 3.5 s; the built-in problems scan 33, 289 and
# 441, the benchmark's 3-DOF stress problem at (8, 3, 8) 4913
SCAN_LIMIT = 10**6


@dataclass
class FrequencyData:
    """Torus frequency omega = B0 omega_tilde and its lattice table: for s = 1..K_max,
    shell_divisors[s - 1] is the smallest |k.omega| over |k|_1 = s and shell_k[s - 1]
    the first k, in lattice order, attaining it; omega_abs is max|omega| and gamma
    the Diophantine constant min_s shell_divisors[s - 1] s^tau."""

    omega_tilde: np.ndarray
    omega: np.ndarray
    tau: float
    omega_abs: float
    shell_divisors: tuple
    shell_k: tuple
    gamma: float

    @classmethod
    def build(cls, omega_tilde, B0, tau, K_max):
        omega_tilde = np.asarray(omega_tilde, dtype=float)
        omega = np.asarray(B0, dtype=float) @ omega_tilde
        return cls(omega_tilde, omega, float(tau), *lattice_scan(omega, tau, K_max))


def lattice_scan(omega, tau, K_max):
    """(omega_abs, shell_divisors, shell_k, gamma) of FrequencyData, from
    one scan of 0 < |k|_1 <= K_max.  The dot product stays per row: a
    vectorized K @ omega rounds some divisors differently.

    Raises ParameterError unless K_max is an integer in 1..MAX_ORDER whose
    box of (2 K_max + 1)^n wavevectors has at most SCAN_LIMIT points, when
    K_max max|omega| (a bound on every |k.omega|) is not finite or s^tau
    overflows, and ResonanceError naming the lowest-order k whose k.omega
    vanishes to floating precision.
    """
    omega = np.asarray(omega, dtype=float)
    K_max = _integer(K_max, "'K_max'", 1, MAX_ORDER, ParameterError)
    points = (2 * K_max + 1) ** len(omega)
    if points > SCAN_LIMIT:
        raise ParameterError(
            "'K_max' = %d scans (2 K_max + 1)^%d = %d wavevectors, over the limit of %d"
            % (K_max, len(omega), points, SCAN_LIMIT)
        )
    if not np.any(omega):
        raise ResonanceError("zero frequency vector")
    scale = float(np.abs(omega).max())
    if not math.isfinite(K_max * scale):
        raise ParameterError("K_max max|omega| is not finite: max|omega| = %r" % scale)
    divisors, ks = [math.inf] * K_max, [None] * K_max
    for k in itertools.product(range(-K_max, K_max + 1), repeat=len(omega)):
        s = sum(abs(v) for v in k)
        if 0 < s <= K_max:
            dot = abs(float(np.dot(k, omega)))
            if dot < divisors[s - 1]:
                divisors[s - 1], ks[s - 1] = dot, k
    gamma = math.inf
    for s, (dot, k) in enumerate(zip(divisors, ks), 1):
        if dot <= 1e-13 * scale * s:
            raise ResonanceError("resonance k=%s: |k.omega| = %.3g" % (list(k), dot))
        try:
            gamma = min(gamma, dot * s ** tau)
        except OverflowError as exc:
            raise ParameterError("|k|^tau overflows at |k| = %d, tau = %r" % (s, tau)) from exc
    return scale, tuple(divisors), tuple(ks), float(gamma)


def diophantine_profile(omega, tau, K_max) -> float:
    """gamma_K = min |k.omega| |k|^tau over 0 < |k|_1 <= K_max, by lattice_scan."""
    return lattice_scan(omega, tau, K_max)[3]


def divisor_shells(freq: FrequencyData):
    """Per shell |k|_1 = s of freq's table: the worst |k.omega|, it times s^tau, its k."""
    return [
        {"shell": s, "worst_divisor": d, "gamma_at_shell": float(d * s ** freq.tau), "k": list(k)}
        for s, (d, k) in enumerate(zip(freq.shell_divisors, freq.shell_k), 1)
    ]


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
    params: WeightedNormParams | None = None,
) -> HomologicalSolution:
    """Solve phi_xi + omega . phi_x = psi exactly per mode, with the decay
    rate a of psi's ring.

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
    divisors = 1j * kdots - ps * psi.decay_rate
    mags = np.abs(divisors)
    if (mags < DIVISOR_FLOOR).any():
        worst = float(mags.min())
        raise NearResonanceError(
            "divisor %.3g below safety floor %.1g" % (worst, DIVISOR_FLOOR)
        )
    phi = psi._like(psi.keys, psi.coeffs / divisors)
    res = _residual(phi, psi, freq.omega, params)
    bound = RESIDUAL_REL_TOL * weighted_norm(psi, params).K
    if res > bound:
        raise NearResonanceError(
            "homological residual %.3g exceeds %.3g" % (res, bound)
        )
    return HomologicalSolution(phi, float(mags.min()), res)


def solve_S(A: FourierTaylorSeries, freq: FrequencyData, params=None):
    """First generating-function equation: S_xi + S_omega + A = 0."""
    return solve_scalar(-A, freq, params)


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


def solve_T(B_vec, S_series, E, freq: FrequencyData, params=None):
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
        out.append(solve_scalar(-rhs, freq, params))
    return out
