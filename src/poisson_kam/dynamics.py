"""Numerical verification: integrate the extended Poisson ODEs and measure
how well the normalized torus is tracked by the original system.

The field is zdot = B(z) H_z extended with etadot = -H_xi, xidot = H_eta; the
gradient comes from exact series differentiation, the time stepping from an
adaptive high-order explicit Runge-Kutta (DOP853).  One evaluator serves every
field: the gradient components and the structure entries form one SeriesStack,
so each right-hand side is one pass over their terms, at every point of a batch.
Runs are short and audited by conservation checks, so no structure-preserving
integrator is needed.  An integration is one Trajectory of arrays, one row per
accepted solver step.

The stepper is _dop853, written with numpy alone: it steps a batch of starts
in lockstep, each row with its own step size and accept/reject decision, and
takes for every row the steps scipy's solve_ivp(method="DOP853") takes for that
start alone, bit for bit.  So verify and lie-check never load scipy, and a
persistence report makes one field call per stage for all its trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .bracket import ExtendedPoint, StructureMatrix
from .errors import ParameterError, StiffnessError
from .jsonio import fmt_float, safe_number
from .kolmogorov import ChiRecord, apply_displacements, composed_displacements, linear_frequencies
from .series import MAX_ORDER, FourierTaylorSeries, SeriesStack, _integer, _real


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported when called.  Nothing in the
    package calls it: the benchmark's tracer (perfbench/tracing.py) binds
    this name, and it stays until the tracer stops doing so."""
    from scipy.integrate import solve_ivp

    return solve_ivp(*args, **kwargs)


def thread_cap() -> int:
    """Always 1: verification runs serially.  Nothing in the package calls
    it; the benchmark's environment record (perfbench/environment.py) does."""
    return 1


@dataclass
class Trajectory:
    """One integration, one row per accepted solver step: the times t, the
    states (y, x, eta, xi), torus_error |y| and the wrapped phase_drift; and
    the solver's work, nfev right-hand sides over accepted_steps steps."""

    t: np.ndarray
    states: np.ndarray
    torus_error: np.ndarray
    phase_drift: np.ndarray
    nfev: int
    accepted_steps: int


def _wrap_angles(x):
    return (np.asarray(x) + math.pi) % (2.0 * math.pi) - math.pi


# The DOP853 tableau of Hairer, Norsett & Wanner, Solving Ordinary
# Differential Equations I, ch. II, as scipy 1.17.1 stores it in
# scipy/integrate/_ivp/dop853_coefficients.py, written out as float64
# literals.  Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers;
# BSD 3-Clause license.  Row s of _A weights stages 0..s-1; the stage times
# C are not needed, as every field here is autonomous (time is the state xi).
_A = np.array([row + [0.0] * (12 - len(row)) for row in [
    [],
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0.0, 0.08876275643042054],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
    [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627],
    [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196],
    [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636],
]])
_B = np.array([
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259,
])
# the 5th- and 3rd-order error weights, over the 12 stages and f(t + h, y_new)
_E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294, 0.0,
])
_E3 = np.array([
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082, 0.0,
])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 8  # -1 / (error estimator order 7 + 1)
_RTOL_FLOOR = 100 * np.finfo(float).eps


def _rms(v):
    return np.linalg.norm(v) / v.size ** 0.5


# The step-size control overflows on extreme tolerances or horizons without
# a warning: _dop853 refuses a step or an error norm that is not finite.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _initial_steps(field, V0, F0, t_end, rtol, atol):
    """The first step of each row, by Hairer, Norsett & Wanner's rule
    (sec. II.4) as scipy's select_initial_step takes it; one field call."""
    scale = atol + np.abs(V0) * rtol
    d0 = [_rms(v) for v in V0 / scale]
    d1 = [_rms(f) for f in F0 / scale]
    h0 = np.array([1e-6 if a < 1e-5 or b < 1e-5 else 0.01 * a / b for a, b in zip(d0, d1)])
    h0 = np.minimum(h0, t_end)
    F1 = field(V0 + h0[:, None] * F0)
    steps = []
    for h, b, df in zip(h0, d1, (F1 - F0) / scale):
        c = _rms(df) / h
        if b <= 1e-15 and c <= 1e-15:
            h1 = max(1e-6, h * 1e-3)
        else:
            h1 = (0.01 / max(b, c)) ** (1 / 8)
        steps.append(min(100 * h, h1, t_end))
    return np.array(steps)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _error_norm(h, err5, err3):
    """scipy's DOP853 error norm of one row: the 5th-order estimate damped by
    the 3rd-order one, both already divided by the row's scale."""
    e5, e3 = np.linalg.norm(err5) ** 2, np.linalg.norm(err3) ** 2
    if e5 == 0 and e3 == 0:
        return 0.0
    return np.abs(h) * e5 / np.sqrt((e5 + 0.01 * e3) * len(err5))


def _dop853(field, V0, t_end, rtol, atol):
    """Integrate V' = field(V) from each row of V0 over [0, t_end].

    field maps a (P, d) batch of states to their (P, d) derivatives.  Every
    row keeps its own t, step size and accept/reject decision, as scipy
    1.17.1's DOP853 (RungeKutta._step_impl, no dense output) takes them: the
    step factor SAFETY * err^(-1/8) clamped to [0.2, 10] (at most 1 right
    after a rejection), min_step = 10 spacing(t), rtol raised to 100 eps.
    Rows leave the batch when they reach t_end.  Stage sums are per-row
    np.matmul and error norms per-row np.linalg.norm, so each row is bit for
    bit what the row alone gives.  Returns (t, states, nfev) per row.
    Raises ParameterError unless rtol, t_end and V0 are finite and rtol,
    t_end > 0, and StiffnessError when a row's first step or error norm is
    not finite (neither is then read) or its step falls below min_step.
    """
    rtol = _real(rtol, "'tol'", "finite and > 0")
    t_end = _real(t_end, "'t_end'", "finite and > 0")
    V0 = np.asarray(V0, dtype=float)
    if not np.isfinite(V0).all():
        raise ParameterError("start states must be finite")
    rtol = max(rtol, _RTOL_FLOOR)
    P, d = V0.shape
    F = field(V0)
    h_abs = _initial_steps(field, V0, F, t_end, rtol, atol)
    if not np.isfinite(h_abs).all():
        raise StiffnessError("integrator failed: the first step is not finite")
    ts, ys = [[0.0] for _ in range(P)], [[v] for v in V0]
    nfev = [2] * P
    live = np.arange(P)  # the V0 row of each row in the batch
    t, Y = np.zeros(P), V0
    rejected = np.zeros(P, dtype=bool)
    min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
    h_abs = np.maximum(h_abs, min_step)
    while live.size:
        stuck = np.flatnonzero(h_abs < min_step)
        if stuck.size:
            raise StiffnessError(
                "integrator failed: step below the float spacing at t = %r"
                % float(t[stuck[0]])
            )
        t_new = np.minimum(t + h_abs, t_end)
        h = t_new - t
        h_abs = np.abs(h)
        K = np.empty((live.size, 13, d))
        K[:, 0] = F
        for s in range(1, 12):
            dY = np.matmul(K[:, :s].transpose(0, 2, 1), _A[s, :s]) * h[:, None]
            K[:, s] = field(Y + dY)
        Y_new = Y + h[:, None] * np.matmul(K[:, :12].transpose(0, 2, 1), _B)
        K[:, 12] = F_new = field(Y_new)
        scale = atol + np.maximum(np.abs(Y), np.abs(Y_new)) * rtol
        KT = K.transpose(0, 2, 1)
        err5, err3 = np.matmul(KT, _E5) / scale, np.matmul(KT, _E3) / scale
        accept = np.zeros(live.size, dtype=bool)
        for i, row in enumerate(live):
            nfev[row] += 12
            err = _error_norm(h[i], err5[i], err3[i])
            if not math.isfinite(err):
                raise StiffnessError(
                    "integrator failed: error estimate not finite at t = %r" % float(t[i])
                )
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err**_ERROR_EXPONENT)
                if rejected[i]:
                    factor = min(1, factor)
                accept[i] = True
                ts[row].append(t_new[i])
                ys[row].append(Y_new[i])
            else:
                factor = max(_MIN_FACTOR, _SAFETY * err**_ERROR_EXPONENT)
            h_abs[i] *= factor
        # an accepted row starts its next step afresh; a rejected one retries
        t = np.where(accept, t_new, t)
        Y = np.where(accept[:, None], Y_new, Y)
        F = np.where(accept[:, None], F_new, F)
        rejected = ~accept
        spacing = 10 * np.abs(np.nextafter(t, np.inf) - t)
        min_step = np.where(accept, spacing, min_step)
        h_abs = np.where(accept & (h_abs < min_step), min_step, h_abs)
        keep = t < t_end
        live, t, Y, F, h_abs, rejected, min_step = (
            a[keep] for a in (live, t, Y, F, h_abs, rejected, min_step)
        )
    return [(np.array(ts[r]), np.array(ys[r]), nfev[r]) for r in range(P)]


class _GradientCache:
    """The Hamiltonian vector field of H in the extended phase space.

    One SeriesStack holds H_y, H_x, H_xi and every entry of B12 and B22, so a
    right-hand side is one pass over all their terms, for a whole batch of
    states.  H_eta is taken as a constant, read off once: 1 for a system
    Hamiltonian eta + h, 0 for an eta-free generating function.
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

    def field(self, V):
        """The derivatives of a (P, d) batch of states (y, x, eta, xi), (P, d)."""
        m, n = self.m, self.n
        P = len(V)
        vals = self.stack.evaluate(V[:, :m], V[:, m : m + n], np.zeros(P), V[:, m + n + 1])
        Hy, Hx = vals[:, :m, None].real, vals[:, m : m + n, None].real
        b = m + n + 1
        B12 = vals[:, b : b + m * n].reshape(P, m, n).real
        B22 = vals[:, b + m * n :].reshape(P, n, n).real
        # np.matmul takes one matrix-vector product per state, rounding as
        # B12 @ Hx does for a lone state
        ydot = np.matmul(B12, Hx)[..., 0]
        xdot = (np.matmul(-B12.transpose(0, 2, 1), Hy) + np.matmul(B22, Hx))[..., 0]
        etadot = -vals[:, m + n, None].real
        return np.concatenate([ydot, xdot, etadot, np.full((P, 1), self.xidot)], axis=1)


def _state_vector(point: ExtendedPoint, m: int, n: int) -> np.ndarray:
    """The real state (y, x, eta, xi); a mapped point's imaginary dust is dropped."""
    return np.concatenate(
        [
            np.real(point.y).astype(float).reshape(m),
            np.real(point.x).astype(float).reshape(n),
            [float(np.real(point.eta)), float(point.xi)],
        ]
    )


def integrate(
    H: FourierTaylorSeries,
    S: StructureMatrix,
    starts,
    t_end: float,
    tol: float,
    omega: Optional[np.ndarray] = None,
) -> List[Trajectory]:
    """Integrate the extended system from each of ``starts`` for t in
    [0, t_end], all in one batch from one field build; one Trajectory per
    start, each what that start alone gives.

    One row per accepted solver step.  torus_error is |y|, the Euclidean
    distance from the expansion torus y = 0; phase_drift is x(t) - x(0) -
    omega t wrapped to (-pi, pi].  When omega is not supplied it is recovered
    from the linear action part of H.  tol (tol * 1e-2 absolute) and t_end
    are read before any work: ParameterError unless finite and > 0.
    """
    tol = _real(tol, "'tol'", "finite and > 0")
    t_end = _real(t_end, "'t_end'", "finite and > 0")
    grad = _GradientCache(H, S)
    m, n = S.m, S.n
    if omega is None:
        omega = S.B0 @ linear_frequencies(H)
    V0 = np.array([_state_vector(p, m, n) for p in starts]).reshape(-1, m + n + 2)
    out = []
    for v0, (t, states, nfev) in zip(V0, _dop853(grad.field, V0, t_end, tol, tol * 1e-2)):
        # one norm per row: a vectorized norm may round differently for m >= 2
        torus_error = np.array([np.linalg.norm(v[:m]) for v in states])
        drift = _wrap_angles(states[:, m : m + n] - v0[m : m + n] - t[:, None] * omega)
        out.append(Trajectory(t, states, torus_error, drift, nfev, len(t) - 1))
    return out


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
    composed map is built once and evaluated at every start point, and all
    2 n_angles trajectories are integrated in one batch; each AngleReport
    keeps both of its trajectories.  n_angles, t_end, tol and threshold are
    read (by _integer and _real, raising ParameterError) before any work.
    """
    n_angles = _integer(n_angles, "n_angles", 1, MAX_ORDER, ParameterError)
    t_end = _real(t_end, "'t_end'", "finite and > 0")
    tol = _real(tol, "'tol'", "finite and > 0")
    threshold = _real(threshold, "'threshold'", "a number other than NaN")
    n = S.n
    settle_from = 0.5 * t_end
    floor = 100.0 * tol
    disp = composed_displacements(chi_records, S)
    x0s = [np.full(n, angle_offset + 2.0 * math.pi * idx / n_angles) for idx in range(n_angles)]
    naive_starts = [ExtendedPoint(np.zeros(S.m), x0.copy(), 0.0, 0.0) for x0 in x0s]
    mapped_starts = [apply_displacements(disp, p) for p in naive_starts]
    trajectories = integrate(H, S, naive_starts + mapped_starts, t_end, tol, omega=omega)

    def one_angle(idx):
        naive, mapped = trajectories[idx], trajectories[n_angles + idx]
        ns, ms = _settled(naive, settle_from), _settled(mapped, settle_from)
        if ns <= floor and ms <= floor:
            improvement = math.inf
        else:
            improvement = ns / max(ms, floor * 1e-4, 1e-300)
        return AngleReport(
            x0=[float(v) for v in x0s[idx]],
            naive_settled=ns,
            mapped_settled=ms,
            naive_sup=float(naive.torus_error.max()),
            mapped_sup=float(mapped.torus_error.max()),
            naive_drift_sup=float(np.abs(naive.phase_drift).max()),
            mapped_drift_sup=float(np.abs(mapped.phase_drift).max()),
            improvement=improvement,
            xi_shift=abs(mapped_starts[idx].xi - naive_starts[idx].xi),
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
    tol: float,
) -> float:
    """Distance between exp(L_chi) of a stored generator, applied as a series
    (guarded and summed at the record's own rho, sigma), and the time-1 flow.

    The flow realizing the transform is zdot = {chi, z} = -B(z) chi_z, the
    Hamiltonian field of -chi; integrating it to t = 1 from the point must
    land where the series map sends the point.  Returns the max coordinate
    distance.  The series map is built first, so a generator that fails the
    contraction guard is refused before its flow is integrated.
    """
    m, n = S.m, S.n
    mapped = apply_displacements(composed_displacements([record], S), point)
    flow = _GradientCache(-record.chi, S).field
    ((_, states, _),) = _dop853(flow, _state_vector(point, m, n)[None, :], 1.0, tol, tol)
    end = states[-1]
    series_end = list(mapped.y) + list(mapped.x) + [mapped.eta, mapped.xi]
    return float(max([0.0] + [abs(v - e) for v, e in zip(series_end, end)]))
