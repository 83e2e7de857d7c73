"""Numerical verification: integrate the extended Poisson ODEs and measure
how well the normalized torus is tracked by the original system.

The field is zdot = B(z) H_z extended with etadot = -H_xi, xidot = H_eta; the
gradient comes from exact series differentiation, the time stepping from an
adaptive high-order explicit Runge-Kutta (DOP853).  One evaluator serves every
field: the gradient components and the structure entries form one SeriesStack,
so each right-hand side is one pass over their terms.  Runs are short and
audited by conservation checks, so no structure-preserving integrator is needed.
An integration is one Trajectory of arrays, one row per accepted solver step.

The stepper is scipy's ``solve_ivp``, imported on first use: the module
attribute ``solve_ivp`` loads ``scipy.integrate`` the first time it is read,
so importing the package, normalizing and the other scan-only commands never
load scipy.  ``_solve`` calls the solver through that attribute, so a
replacement set on the module (a counting wrapper, say) is what runs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .bracket import ExtendedPoint, StructureMatrix
from .errors import ParameterError, StiffnessError
from .jsonio import fmt_float, safe_number
from .kolmogorov import ChiRecord, apply_displacements, composed_displacements, linear_frequencies
from .series import FourierTaylorSeries, SeriesStack


def __getattr__(name):
    """``solve_ivp``, imported from scipy.integrate on first access and kept
    in the module globals; scipy costs most of the package's import time and
    only integration needs it."""
    if name != "solve_ivp":
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from scipy.integrate import solve_ivp

    globals()["solve_ivp"] = solve_ivp
    return solve_ivp


def thread_cap() -> int:
    """Always 1: verification runs serially.  Kept only because the
    benchmark's environment record (perfbench/environment.py) calls it; that
    is its only caller."""
    return 1


@dataclass
class Trajectory:
    """One integration, one row per accepted solver step: the times t, the
    states (y, x, eta, xi), torus_error |y| and the wrapped phase_drift."""

    t: np.ndarray
    states: np.ndarray
    torus_error: np.ndarray
    phase_drift: np.ndarray


def _wrap_angles(x):
    return (np.asarray(x) + math.pi) % (2.0 * math.pi) - math.pi


class _GradientCache:
    """The Hamiltonian vector field of H in the extended phase space.

    One SeriesStack holds H_y, H_x, H_xi and every entry of B12 and B22, so a
    right-hand side is one pass over all their terms.  H_eta is taken as a
    constant, read off once: 1 for a system Hamiltonian eta + h, 0 for an
    eta-free generating function.
    """

    def __init__(self, H: FourierTaylorSeries, S: StructureMatrix):
        self.m, self.n = S.m, S.n
        self.stack = SeriesStack(
            [H.partial_y(i) for i in range(S.m)]
            + [H.partial_x(l) for l in range(S.n)]
            + [H.partial_xi()]
            + [e for row in S.B12 + S.B22 for e in row]
        )
        self.xidot = H.partial_eta().coefficient((0,) * S.n, (0,) * S.m, 0, 0).real

    def field(self, t, v):
        m, n = self.m, self.n
        vals = self.stack.evaluate(v[:m], v[m : m + n], 0.0, v[m + n + 1])
        Hy, Hx = vals[:m].real, vals[m : m + n].real
        b = m + n + 1
        B12 = vals[b : b + m * n].reshape(m, n).real
        B22 = vals[b + m * n :].reshape(n, n).real
        ydot = B12 @ Hx
        xdot = -B12.T @ Hy + B22 @ Hx
        return np.concatenate([ydot, xdot, [-vals[m + n].real], [self.xidot]])


def _state_vector(point: ExtendedPoint, m: int, n: int) -> np.ndarray:
    """The real state (y, x, eta, xi); a mapped point's imaginary dust is dropped."""
    return np.concatenate(
        [
            np.real(point.y).astype(float).reshape(m),
            np.real(point.x).astype(float).reshape(n),
            [float(np.real(point.eta)), float(point.xi)],
        ]
    )


def _solve(fun, v0, t_end, tol, atol):
    """DOP853 from v0 over [0, t_end] at rtol = tol.  Raises ParameterError
    unless tol and t_end are finite and > 0, and StiffnessError when the
    solver fails."""
    for name, value in (("tol", tol), ("t_end", t_end)):
        if not (math.isfinite(value) and value > 0):
            raise ParameterError("%r must be finite and > 0, got %r" % (name, value))
    solver = sys.modules[__name__].solve_ivp
    sol = solver(fun, (0.0, float(t_end)), v0, method="DOP853", rtol=tol, atol=atol)
    if not sol.success:
        raise StiffnessError("integrator failed: %s" % sol.message)
    return sol


def integrate(
    H: FourierTaylorSeries,
    S: StructureMatrix,
    start: ExtendedPoint,
    t_end: float,
    tol: float,
    omega: Optional[np.ndarray] = None,
) -> Trajectory:
    """Integrate the extended system from ``start`` for t in [0, t_end].

    One row per accepted solver step.  torus_error is |y|, the Euclidean
    distance from the expansion torus y = 0; phase_drift is x(t) - x(0) -
    omega t wrapped to (-pi, pi].  When omega is not supplied it is recovered
    from the linear action part of H.
    """
    grad = _GradientCache(H, S)
    m, n = S.m, S.n
    if omega is None:
        omega = S.B0 @ linear_frequencies(H)
    v0 = _state_vector(start, m, n)
    sol = _solve(grad.field, v0, t_end, tol, tol * 1e-2)
    states = sol.y.T
    # one norm per row: a vectorized norm may round differently for m >= 2
    torus_error = np.array([np.linalg.norm(v[:m]) for v in states])
    drift = _wrap_angles(states[:, m : m + n] - v0[m : m + n] - sol.t[:, None] * omega)
    return Trajectory(sol.t, states, torus_error, drift)


def write_trajectory(traj: Trajectory, path):
    """Delimited text: t, y..., x..., eta, xi, torus_error, drift... per step."""
    table = np.column_stack([traj.t, traj.states, traj.torus_error, traj.phase_drift])
    lines = [",".join(fmt_float(float(v)) for v in row) for row in table]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class AngleReport:
    x0: List[float]
    naive_settled: float
    mapped_settled: float
    naive_sup: float
    mapped_sup: float
    naive_drift_sup: float
    mapped_drift_sup: float
    improvement: float
    xi_shift: float
    # the two trajectories behind the numbers; not part of the JSON report
    naive: Trajectory = field(repr=False)
    mapped: Trajectory = field(repr=False)

    def as_dict(self):
        return {
            "x0": self.x0,
            "naive_settled": self.naive_settled,
            "mapped_settled": self.mapped_settled,
            "naive_sup": self.naive_sup,
            "mapped_sup": self.mapped_sup,
            "naive_phase_drift_sup": self.naive_drift_sup,
            "mapped_phase_drift_sup": self.mapped_drift_sup,
            "improvement": safe_number(self.improvement),
            "xi_shift": self.xi_shift,
        }


@dataclass
class PersistenceReport:
    t_end: float
    tol: float
    settle_from: float
    angles: List[AngleReport]
    min_improvement: float
    threshold: float
    passed: bool

    def as_dict(self):
        return {
            "t_end": self.t_end,
            "tol": self.tol,
            "settle_from": self.settle_from,
            "threshold": safe_number(self.threshold),
            "min_improvement": safe_number(self.min_improvement),
            "passed": self.passed,
            "angles": [a.as_dict() for a in self.angles],
        }


def _settled(traj, t_from):
    tail = traj.torus_error[traj.t >= t_from]
    return float(tail.max() if tail.size else traj.torus_error[-1])


def torus_persistence_report(
    H: FourierTaylorSeries,
    S: StructureMatrix,
    chi_records,
    t_end: float = 100.0,
    tol: float = 1e-10,
    n_angles: int = 8,
    threshold: float = 10.0,
    angle_offset: float = 0.0,
    omega: Optional[np.ndarray] = None,
) -> PersistenceReport:
    """Compare torus tracking with and without the normalizing map.

    For each initial angle the torus point (y = 0, x0, eta = 0, xi = 0) is
    integrated raw, and again after mapping through the composed change of
    coordinates; both trajectories run in the original system.  The headline
    metric is the settled action error, the largest |y| over the trailing
    half of the window: by then the forcing has died out and any permanent
    action displacement is fully visible, whereas the early-window values of
    both runs are dominated by the O(eps) torus deformation itself and cannot
    discriminate.  improvement = naive_settled / mapped_settled.  The
    composed map is built once and evaluated at every start point; each
    AngleReport keeps both trajectories.
    """
    if n_angles < 1:
        raise ParameterError("n_angles must be at least 1, got %d" % n_angles)
    n = S.n
    settle_from = 0.5 * t_end
    floor = 100.0 * tol
    disp = composed_displacements(chi_records, S)

    def one_angle(idx):
        x0 = np.full(n, angle_offset + 2.0 * math.pi * idx / n_angles)
        naive_start = ExtendedPoint(np.zeros(S.m), x0.copy(), 0.0, 0.0)
        mapped_start = apply_displacements(disp, naive_start)
        xi_shift = abs(mapped_start.xi - naive_start.xi)
        naive = integrate(H, S, naive_start, t_end, tol, omega=omega)
        mapped = integrate(H, S, mapped_start, t_end, tol, omega=omega)
        ns, ms = _settled(naive, settle_from), _settled(mapped, settle_from)
        if ns <= floor and ms <= floor:
            improvement = math.inf
        else:
            improvement = ns / max(ms, floor * 1e-4, 1e-300)
        return AngleReport(
            x0=[float(v) for v in x0],
            naive_settled=ns,
            mapped_settled=ms,
            naive_sup=float(naive.torus_error.max()),
            mapped_sup=float(mapped.torus_error.max()),
            naive_drift_sup=float(np.abs(naive.phase_drift).max()),
            mapped_drift_sup=float(np.abs(mapped.phase_drift).max()),
            improvement=improvement,
            xi_shift=xi_shift,
            naive=naive,
            mapped=mapped,
        )

    angles = [one_angle(i) for i in range(n_angles)]
    min_improvement = min(a.improvement for a in angles)
    return PersistenceReport(
        t_end=t_end,
        tol=tol,
        settle_from=settle_from,
        angles=angles,
        min_improvement=min_improvement,
        threshold=threshold,
        passed=min_improvement >= threshold,
    )


def lie_vs_flow_check(
    record: ChiRecord,
    S: StructureMatrix,
    point: ExtendedPoint,
    tol: float = 1e-12,
) -> float:
    """Distance between exp(L_chi) of a stored generator, applied as a series
    (guarded and summed at the record's own rho, sigma), and the time-1 flow.

    The flow realizing the transform is zdot = {chi, z} = -B(z) chi_z, the
    Hamiltonian field of -chi; integrating it to t = 1 from the point must
    land where the series map sends the point.  Returns the max coordinate
    distance.
    """
    m, n = S.m, S.n
    flow = _GradientCache(-record.chi, S).field
    end = _solve(flow, _state_vector(point, m, n), 1.0, tol, tol).y[:, -1]
    mapped = apply_displacements(composed_displacements([record], S), point)
    series_end = list(mapped.y) + list(mapped.x) + [mapped.eta, mapped.xi]
    return float(max([0.0] + [abs(v - e) for v, e in zip(series_end, end)]))
