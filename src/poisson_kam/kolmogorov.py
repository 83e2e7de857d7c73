"""Iterative construction of the Kolmogorov normal form.

State at step j is H = eta + omega~.y + (1/2) C y.y + R + A + B.y with A, B
the unwanted decaying terms.  One step solves the two homological equations
for the linear generating function chi = S + T.y, applies exp(L_chi) with
convergence control, re-splits, and updates the parameter vector
u = (d, eps, zeta, upsilon, rho, sigma).  Control decisions use measured
majorant norms; the printed theoretical constants (M0..M8, D) are evaluated
alongside as a diagnostics ledger because they are far too pessimistic to
drive desk-scale runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .bracket import (
    LIE_MAX_TERMS,
    LIE_REL_TOL,
    ExtendedPoint,
    StructureMatrix,
    gamma_rho_sigma,
    lie_coordinate_displacement,
    lie_transform,
    poisson_bracket,
)
from .errors import ProblemFormatError, StepRefusedError
from .homological import FrequencyData, build_E, lattice_divisors, solve_S, solve_T
from .series import (
    FourierTaylorSeries,
    SeriesStack,
    WeightedNormParams,
    reassemble_taylor,
    shift_action_expansion,
    taylor_split,
    weighted_norm,
)

E_SQ = math.e ** 2


# ---------------------------------------------------------------- state types


@dataclass
class HamiltonianDecomposition:
    """H = eta + omega~.y + A + B.y + (1/2) C y.y + R, with the full series
    kept alongside so the split/reassemble identity can be audited exactly.
    from_full is the one split of a Hamiltonian; g = A + B.y and
    h = omega~.y + (1/2) C y.y + R are selections of the series it splits."""

    omega_tilde: np.ndarray
    A: FourierTaylorSeries
    B: list
    C: list
    R: FourierTaylorSeries
    full: FourierTaylorSeries

    @classmethod
    def from_full(cls, full, omega_tilde):
        omega_tilde = np.asarray(omega_tilde, dtype=float)
        eta_part = full.eta_part()
        if eta_part.num_terms != 1 or eta_part.coefficient(
            (0,) * full.n, (0,) * full.m, 1, 0
        ) != 1.0:
            raise ProblemFormatError("Hamiltonian must carry eta with coefficient 1")
        return cls(omega_tilde, *taylor_split(_rest(full, omega_tilde)), full)

    def h_part(self) -> FourierTaylorSeries:
        """omega~.y + (1/2) C y.y + R (the integrable block, eta excluded)."""
        return _by_degree(_rest(self.full, self.omega_tilde))[1] + _omega_y(
            self.full, self.omega_tilde
        )

    def g_part(self) -> FourierTaylorSeries:
        """A + B.y (the unwanted block)."""
        return _by_degree(_rest(self.full, self.omega_tilde))[0]

    def reassembled(self) -> FourierTaylorSeries:
        return (
            _eta_series(self.full)
            + _omega_y(self.full, self.omega_tilde)
            + reassemble_taylor(self.A, self.B, self.C, self.R)
        )

    def measured_eps(self, params: WeightedNormParams) -> float:
        return max(
            weighted_norm(self.A, params).K,
            sum(weighted_norm(b, params).K for b in self.B),
        )

    def min_decay_index(self):
        """Smallest decay index across the dominant supports of A and B
        (exact-cancellation dust sits ~1e-16 below scale and is excluded)."""
        ps = [s.dominant_min_decay_index() for s in [self.A] + list(self.B)]
        ps = [p for p in ps if p is not None]
        return min(ps) if ps else None

    def to_payload(self):
        return {
            "omega_tilde": [float(v) for v in self.omega_tilde],
            "A": self.A.to_payload(),
            "B": [b.to_payload() for b in self.B],
            "C": [[c.to_payload() for c in row] for row in self.C],
            "R": self.R.to_payload(),
            "full": self.full.to_payload(),
        }


def _eta_series(like):
    return FourierTaylorSeries.from_terms(
        like.n,
        like.m,
        like.decay_rate,
        like.trunc,
        [((0,) * like.n, (0,) * like.m, 1, 0, 1.0)],
    )


def _omega_y(like, omega_tilde):
    """omega~.y in the ring of like."""
    unit = np.eye(like.m, dtype=int)
    return FourierTaylorSeries.from_terms(
        like.n,
        like.m,
        like.decay_rate,
        like.trunc,
        [((0,) * like.n, unit[i], 0, 0, float(w)) for i, w in enumerate(omega_tilde)],
    )


def linear_frequencies(H):
    """omega~: the real parts of the y_i coefficients (k = 0, e = 0, p = 0) of H."""
    unit = np.eye(H.m, dtype=int)
    return np.array([H.coefficient((0,) * H.n, row, 0, 0).real for row in unit])


def _rest(full, omega_tilde):
    """The eta-free part of full less omega~.y: A + B.y + (1/2) C y.y + R."""
    return full.eta_free_part() - _omega_y(full, omega_tilde)


def _by_degree(f):
    """(terms with |alpha| <= 1, terms with |alpha| >= 2) of f."""
    degree = f.acols.sum(axis=1)
    return f.select(degree <= 1), f.select(degree >= 2)


@dataclass
class IterationParams:
    """Parameter vector u_j plus the decay/Diophantine data it travels with."""

    d: float
    eps: float
    zeta: float
    upsilon: float
    rho: float
    sigma: float
    a: float
    tau: float
    gamma: float

    def norm_params(self) -> WeightedNormParams:
        return WeightedNormParams(self.rho, self.sigma)

    def validate(self, omega_abs: float):
        if not (0 < self.d <= 1 / 6 + 1e-15):
            raise ValueError("d must lie in (0, 1/6]")
        if not (0 < self.upsilon < 1):
            raise ValueError("upsilon must lie in (0, 1)")
        if abs(4 * omega_abs * self.zeta - self.d * self.sigma) > 1e-12 * self.sigma:
            raise ValueError("zeta violates 4|omega| zeta = d sigma")

    def as_dict(self):
        return {
            "d": self.d,
            "eps": self.eps,
            "zeta": self.zeta,
            "upsilon": self.upsilon,
            "rho": self.rho,
            "sigma": self.sigma,
        }


@dataclass
class ConstantsLedger:
    """Every printed constant of the quantitative scheme, evaluated in floats.

    Diagnostics, not certificates: Theta1/Theta2 default to the measured
    per-mode amplification of the homological solve at the working truncation.
    """

    Theta1: float
    Theta2: float
    M0: float
    M1: float
    M2: float
    M3: float
    M4: float
    M5: float
    M6: float
    M7: float
    M8: float
    D: float
    Gamma: float
    M_B: float
    M_h: float
    rho_star: float
    sigma_star: float
    upsilon_star: float
    omega_abs: float
    eps_threshold: float

    def as_dict(self):
        return {k: float(getattr(self, k)) for k in self.__dataclass_fields__}


@dataclass
class RunOptions:
    max_steps: int = 12
    target_eps: float = 1e-9
    d_floor: float = 1e-3
    lie_tol: float = LIE_REL_TOL
    lie_cap: int = LIE_MAX_TERMS
    enforce_theoretical: bool = False
    theta1: Optional[float] = None
    theta2: Optional[float] = None
    # relative prune applied to the transformed Hamiltonian each step;
    # 0 keeps the pipeline exact (rounding dust retained), > 0 trades the
    # float-exact audit for lean supports on wide truncation lattices
    prune_rel: float = 0.0


@dataclass
class ChiRecord:
    """Generating function with the domain parameters it was built at."""

    step: int
    chi: FourierTaylorSeries
    rho: float
    sigma: float
    d: float

    def norm_params(self):
        return WeightedNormParams(self.rho, self.sigma)

    def to_payload(self):
        return {
            "step": self.step,
            "rho": self.rho,
            "sigma": self.sigma,
            "d": self.d,
            "chi": self.chi.to_payload(),
        }

    @classmethod
    def from_payload(cls, payload):
        return cls(
            int(payload["step"]),
            FourierTaylorSeries.from_payload(payload["chi"]),
            float(payload["rho"]),
            float(payload["sigma"]),
            float(payload["d"]),
        )


@dataclass
class NormalizationTrace:
    header: dict = field(default_factory=dict)
    rows: List[dict] = field(default_factory=list)

    def eps_sequence(self):
        seq = [self.header.get("eps0_measured", 0.0)]
        seq.extend(row["eps_out"] for row in self.rows)
        return seq


@dataclass
class RunSetup:
    decomp: HamiltonianDecomposition
    params: IterationParams
    freq: FrequencyData
    structure: StructureMatrix
    ledger: ConstantsLedger
    eps0_rating: float
    empirical_mode: bool
    options: RunOptions
    problem_echo: dict = field(default_factory=dict)


@dataclass
class RunResult:
    trace: NormalizationTrace
    normal_form: HamiltonianDecomposition
    chi_records: List[ChiRecord]
    status: str
    setup: RunSetup


# ---------------------------------------------------------------- constants


def measured_thetas(freq: FrequencyData, a: float):
    """Per-mode amplification of the solve at the working truncation:
    Theta1 ~ a * max 1/|div|, Theta2 ~ a * max (1+|k|)/|div|."""
    inv_best = 1.0 / a
    theta2_best = 1.0 / a
    for _, norm1, dot in lattice_divisors(freq.omega, freq.K_max):
        inv_best = max(inv_best, 1.0 / dot)
        theta2_best = max(theta2_best, (1.0 + norm1) / dot)
    theta1 = a * inv_best
    theta2 = max(a * theta2_best, 2.0 * theta1)
    return theta1, theta2


def c_operator_bound(C, params: WeightedNormParams) -> float:
    """Induced bound for w -> C w under the summed component majorant."""
    m = len(C)
    return max(
        sum(weighted_norm(C[i][j], params).K for i in range(m)) for j in range(m)
    ) if m else 0.0


def constants_ledger(
    S: StructureMatrix,
    u0: IterationParams,
    freq: FrequencyData,
    Theta1: Optional[float] = None,
    Theta2: Optional[float] = None,
    M_h: float = 1.0,
) -> ConstantsLedger:
    """Evaluate M0..M8 and D exactly as printed, at (rho*, sigma*) = u0/4."""
    a, tau = u0.a, u0.tau
    rho_star, sigma_star = u0.rho / 4.0, u0.sigma / 4.0
    upsilon_star = u0.upsilon / 2.0
    if Theta1 is None or Theta2 is None:
        t1, t2 = measured_thetas(freq, a)
        Theta1 = t1 if Theta1 is None else Theta1
        Theta2 = t2 if Theta2 is None else Theta2
    n, m = S.n, S.m
    params0 = u0.norm_params()
    M_B = S.full_norm(params0)
    omega_abs = float(np.abs(freq.omega).max())
    b0_norm = n * m * float(np.abs(S.B0).max(initial=0.0))
    b1w = np.einsum("lij,i->lj", S.B1, np.asarray(freq.omega_tilde, dtype=float))
    b1w_norm = n * m * float(np.abs(b1w).max(initial=0.0))
    M0 = Theta1 * (2.0 / sigma_star) ** (2 * tau)
    M1 = n * Theta2 * (2.0 / sigma_star) ** (2 * tau + 1)
    M2 = 1.0 + M1 * (b0_norm + b1w_norm)
    M3 = m * M2 * Theta1 * (2.0 / sigma_star) ** (2 * tau)
    M4 = m * n * M2 * Theta2 * (2.0 / sigma_star) ** (2 * tau + 1)
    M5 = M0 + M3
    M6 = M1 + M4
    M7 = (
        16.0
        * M_B
        * M5
        * (1.0 + 8.0 * E_SQ * M_B * M_h * M5 + E_SQ * M5)
        * (rho_star * sigma_star) ** -4
    )
    M8 = 32.0 * m * M_B * M_h * M5 * (rho_star ** 2 * sigma_star) ** -2
    D = 32.0 * E_SQ * omega_abs * M_B * (rho_star * sigma_star) ** -2 * max(M6, M7, M8)
    gamma = gamma_rho_sigma(S, params0)
    eps_threshold = a ** 4 / (D * 12.0 ** (8.0 * (tau + 1.0)))
    return ConstantsLedger(
        Theta1=Theta1,
        Theta2=Theta2,
        M0=M0,
        M1=M1,
        M2=M2,
        M3=M3,
        M4=M4,
        M5=M5,
        M6=M6,
        M7=M7,
        M8=M8,
        D=D,
        Gamma=gamma,
        M_B=M_B,
        M_h=M_h,
        rho_star=rho_star,
        sigma_star=sigma_star,
        upsilon_star=upsilon_star,
        omega_abs=omega_abs,
        eps_threshold=eps_threshold,
    )


# ---------------------------------------------------------------- initialization


def init_from_problem(h, f, S, y_star, eps_scalar, a, trunc, rho, sigma, tau, options=None):
    """Shift the expansion point to the torus, assemble H = eta + omega~.y +
    h(y* + .)|_{|alpha| >= 2} + eps f(y* + .), with omega~ the real parts of the
    linear coefficients of h(y* + .) and its constant dropped, split it, and set
    the step-0 parameter vector (rho0, sigma0) = (rho, sigma)/2, d0 = 1/6.

    Rejects series whose decay rate or truncation disagrees with (a, trunc),
    perturbations that violate the decay hypothesis (any p = 0 term) and
    resonant frequencies (via the Diophantine scan at the truncation).
    """
    options = options or RunOptions()
    if not (0.0 < a < 1.0):
        raise ProblemFormatError("decay rate a must lie in (0, 1)")
    if any((s.decay_rate, s.trunc) != (a, tuple(trunc)) for s in (h, f, S)):
        raise ProblemFormatError("decay rate or truncation disagrees with the series ring")
    if f.ecol.any():
        raise ProblemFormatError("perturbation must not depend on eta")
    if not f.is_zero() and int(f.pcol.min()) < 1:
        raise ProblemFormatError(
            "perturbation has a non-decaying term (p = 0); decay hypothesis violated"
        )
    if not h.is_action_only():
        raise ProblemFormatError("integrable part h must depend on y only")
    y_star = np.asarray(y_star, dtype=float).reshape(h.m)
    S_shifted = S.shifted(y_star)
    h_shift = shift_action_expansion(h, y_star)
    f_shift = shift_action_expansion(f, y_star)
    omega_tilde = linear_frequencies(h_shift)
    full = (
        _eta_series(h_shift)
        + _omega_y(h_shift, omega_tilde)
        + _by_degree(h_shift)[1]
        + f_shift.scale(eps_scalar)
    )
    decomp = HamiltonianDecomposition.from_full(full, omega_tilde)
    freq = FrequencyData.build(omega_tilde, S_shifted.B0, tau, trunc[0])
    omega_abs = float(np.abs(freq.omega).max())
    rho0, sigma0 = rho / 2.0, sigma / 2.0
    params0 = WeightedNormParams(rho0, sigma0)
    c_bound = c_operator_bound(decomp.C, params0)
    upsilon_hyp = min(0.9999, 1.0 / c_bound) if c_bound > 0 else 0.9999
    d0 = 1.0 / 6.0
    u0 = IterationParams(
        d=d0,
        eps=decomp.measured_eps(params0),
        zeta=d0 * sigma0 / (4.0 * omega_abs),
        upsilon=upsilon_hyp / 2.0,
        rho=rho0,
        sigma=sigma0,
        a=a,
        tau=tau,
        gamma=freq.gamma,
    )
    u0.validate(omega_abs)
    M_f = weighted_norm(f_shift, WeightedNormParams(rho, sigma / 2.0)).K
    eps0_rating = h.m * eps_scalar * M_f / rho0
    M_h_meas = weighted_norm(full.eta_free_part(), params0).K
    ledger = constants_ledger(
        S_shifted, u0, freq, options.theta1, options.theta2, M_h=M_h_meas
    )
    empirical = eps0_rating > ledger.eps_threshold
    return RunSetup(
        decomp=decomp,
        params=u0,
        freq=freq,
        structure=S_shifted,
        ledger=ledger,
        eps0_rating=eps0_rating,
        empirical_mode=empirical,
        options=options,
    )


# ---------------------------------------------------------------- the step


def _finite_or_zero(x):
    return float(x) if math.isfinite(x) else 0.0


def _schedule_d(j, ledger, eps0_rating, upsilon, a, tau, d_floor):
    """d_j = clamp of the printed schedule into [d_floor, 1/6]."""
    if eps0_rating <= 0:
        return 1.0 / 6.0
    base = (ledger.D * eps0_rating / (a ** 4 * upsilon ** 2)) ** (
        1.0 / (8.0 * (tau + 1.0))
    )
    profile = (j + 2) ** 2 / (j + 1) ** 4
    return min(1.0 / 6.0, max(base * profile, d_floor))


def normalization_step(decomp, S, u, freq, ledger, options=None, step_index=0, eps0_rating=None):
    """One Kolmogorov step: solve for chi = S + T.y, transform, re-split.

    Returns (new_decomposition, chi_record, u_next, trace_row).  Raises
    StepRefusedError in strict mode when any printed smallness condition
    fails, and lie_transform raises LieDivergenceError (a StepRefusedError)
    when the measured Lie contraction exceeds 1/2.
    """
    options = options or RunOptions()
    a, tau = u.a, u.tau
    params = u.norm_params()
    epsA = weighted_norm(decomp.A, params)
    epsB = sum(weighted_norm(b, params).K for b in decomp.B)
    eps = max(epsA.K, epsB)
    zeta = u.d * u.sigma / (4.0 * ledger.omega_abs)
    v_picc = (
        eps * ledger.D / (a ** 4 * u.upsilon ** 2 * u.d ** (8.0 * (tau + 1.0)))
        <= 0.5
    )
    v_smallone = (
        eps
        * 8.0
        * E_SQ
        * ledger.M_B
        * ledger.M5
        / (
            a ** 2
            * u.upsilon
            * u.d ** (4.0 * tau + 3.0)
            * (ledger.rho_star * ledger.sigma_star) ** 2
        )
        <= 0.5
    )
    v_smallv = (
        eps * ledger.M8 / (a ** 2 * u.upsilon ** 2 * u.d ** (4.0 * tau + 5.0) * zeta)
        <= 0.5
    )
    if options.enforce_theoretical and not (v_picc and v_smallone and v_smallv):
        raise StepRefusedError(
            "theoretical smallness conditions fail at eps=%.3g" % eps
        )

    solS = solve_S(decomp.A, freq, a, params)
    E = build_E(S, decomp.C, decomp.omega_tilde)
    solT = solve_T(decomp.B, solS.phi, E, freq, a, params)
    chi = solS.phi
    for j, sol in enumerate(solT):
        chi = chi + sol.phi.mul_y(j)

    Hhat, diag = lie_transform(
        chi, decomp.full, S, params, options.lie_tol, options.lie_cap
    )
    Hhat = Hhat.drop_pure_constant()
    if options.prune_rel > 0.0:
        Hhat = Hhat.canonical_pruned(options.prune_rel)
    new_decomp = HamiltonianDecomposition.from_full(Hhat, decomp.omega_tilde)

    # homological residual restricted to |alpha| <= 1 (should sit at rounding)
    resid = chi.partial_xi() + decomp.g_part() + poisson_bracket(
        chi, decomp.h_part(), S
    )
    resid_low = weighted_norm(_by_degree(resid)[0], params).K

    d_next = _schedule_d(
        step_index + 1,
        ledger,
        eps0_rating if eps0_rating is not None else eps,
        u.upsilon,
        a,
        tau,
        options.d_floor,
    )
    rho_next = (1.0 - 3.0 * u.d) * u.rho
    sigma_next = (1.0 - 3.0 * u.d) * u.sigma
    upsilon_next = (1.0 - u.d ** (4.0 * tau + 3.0)) * u.upsilon
    zeta_next = d_next * sigma_next / (4.0 * ledger.omega_abs)
    params_next = WeightedNormParams(rho_next, sigma_next)
    eps_next = new_decomp.measured_eps(params_next)
    u_next = IterationParams(
        d=d_next,
        eps=eps_next,
        zeta=zeta_next,
        upsilon=upsilon_next,
        rho=rho_next,
        sigma=sigma_next,
        a=a,
        tau=tau,
        gamma=u.gamma,
    )
    eps_theory_next = (
        ledger.D / (a ** 4 * u.upsilon ** 2 * u.d ** (8.0 * (tau + 1.0)))
    ) * eps ** 2
    minp = new_decomp.min_decay_index()
    trace_row = {
        "step": step_index,
        "d": u.d,
        "rho": u.rho,
        "sigma": u.sigma,
        "zeta": zeta,
        "upsilon": u.upsilon,
        "eps_in": eps,
        "eps_A": epsA.K,
        "eps_B": epsB,
        "min_p_in": decomp.min_decay_index() or 0,
        "chi_norm": weighted_norm(chi, params).K,
        "S_norm": weighted_norm(solS.phi, params).K,
        "min_divisor": _finite_or_zero(
            min([solS.min_divisor] + [t.min_divisor for t in solT])
        ),
        "gamma_rho_sigma": gamma_rho_sigma(S, params),
        "lie_contraction": diag.contraction,
        "lie_terms": diag.s_stop,
        "lie_converged": diag.converged,
        "lie_tail_bound": diag.tail_bound,
        "lie_discarded_mass": diag.discarded_mass,
        "hom_residual_low": resid_low,
        "eps_out": eps_next,
        "eps_theory_next": eps_theory_next,
        "min_p_out": minp or 0,
        "c_op_bound": c_operator_bound(new_decomp.C, params_next),
        "verdict_piccolaunmezzo": v_picc,
        "verdict_smallone": v_smallone,
        "verdict_smallv": v_smallv,
    }
    chi_record = ChiRecord(step_index, chi, u.rho, u.sigma, u.d)
    return new_decomp, chi_record, u_next, trace_row


def run(setup, max_steps=None, target_eps=None) -> RunResult:
    """Iterate normalization steps until eps <= target or the budget runs out.

    Accepts a RunSetup or anything with an initialize() producing one (a
    Problem).  Aborts with status "diverged" when eps grows two steps in a
    row and with "refused" when a step declines its smallness precondition;
    the trace is returned in every case.
    """
    if not isinstance(setup, RunSetup):
        setup = setup.initialize()
    options = setup.options
    max_steps = options.max_steps if max_steps is None else max_steps
    target_eps = options.target_eps if target_eps is None else target_eps
    decomp, u, freq, S, ledger = (
        setup.decomp,
        setup.params,
        setup.freq,
        setup.structure,
        setup.ledger,
    )
    trace = NormalizationTrace()
    warnings = []
    if setup.empirical_mode:
        warnings.append(
            "eps0 rating %.6g exceeds the theoretical threshold %.6g; "
            "running in empirical mode (measured norms drive the iteration)"
            % (setup.eps0_rating, ledger.eps_threshold)
        )
    trace.header = {
        "eps0_rating": setup.eps0_rating,
        "eps0_measured": u.eps,
        "eps_threshold": ledger.eps_threshold,
        "empirical_mode": setup.empirical_mode,
        "target_eps": target_eps,
        "max_steps": max_steps,
        "u0": u.as_dict(),
        "omega_tilde": [float(v) for v in freq.omega_tilde],
        "omega": [float(v) for v in freq.omega],
        "gamma_K": freq.gamma,
        "tau": u.tau,
        "a": u.a,
        "constants": ledger.as_dict(),
        "warnings": warnings,
        "problem": setup.problem_echo,
    }
    chi_records = []
    stopped = None
    grew = 0
    for j in range(max_steps):
        if u.eps <= target_eps:
            break
        try:
            decomp, chi_rec, u_next, row = normalization_step(
                decomp, S, u, freq, ledger, options, step_index=j,
                eps0_rating=setup.eps0_rating,
            )
        except StepRefusedError as exc:
            warnings.append("step %d refused: %s" % (j, exc))
            stopped = "refused"
            break
        trace.rows.append(row)
        chi_records.append(chi_rec)
        if not row["lie_converged"]:
            warnings.append(
                "step %d: Lie series stopped by its cap at %d terms above lie_tol "
                "(tail bound %.3g)" % (j, row["lie_terms"], row["lie_tail_bound"])
            )
        grew = grew + 1 if u_next.eps > u.eps else 0
        u = u_next
        if u.eps > target_eps and grew >= 2:
            warnings.append(
                "eps grew twice in a row (%.3g); aborting as divergent" % u.eps
            )
            stopped = "diverged"
            break
    status = stopped or ("converged" if u.eps <= target_eps else "max_steps")
    trace.header["status"] = status
    trace.header["eps_final"] = u.eps
    trace.header["steps_taken"] = len(trace.rows)
    return RunResult(trace, decomp, chi_records, status, setup)


# ---------------------------------------------------------------- the map


def composed_displacements(chi_records, S: StructureMatrix):
    """The composed change of coordinates as identity + displacement series.

    Applies exp(L_chi) for step 0 first, then step 1, ... to the coordinate
    functions (kept as identity + series displacement, since bare x and xi are
    not ring elements).  Returns {coordinate: displacement or None}; xi has no
    entry: the transformation does not act on time.  The map depends on the
    run only, so build it once and evaluate it with apply_displacements.
    A stored generator that fails the contraction guard raises
    LieDivergenceError (a StepRefusedError).
    """
    coords = [("y", i) for i in range(S.m)] + [("x", l) for l in range(S.n)]
    coords += ["eta"]
    disp = {c: None for c in coords}
    for rec in chi_records:
        params = rec.norm_params()
        for c in coords:
            base, _ = lie_coordinate_displacement(rec.chi, c, S, params)
            if disp[c] is not None and not disp[c].is_zero():
                carried, _ = lie_transform(rec.chi, disp[c], S, params)
            else:
                carried = disp[c]
            disp[c] = base if carried is None else base + carried
    return disp


def apply_displacements(disp, point: ExtendedPoint) -> ExtendedPoint:
    """Evaluate a composed map from composed_displacements at a point; the
    displacements that are not None are evaluated as one SeriesStack."""
    live = [c for c, d in disp.items() if d is not None]
    vals = []
    if live:
        vals = SeriesStack([disp[c] for c in live]).evaluate(point.y, point.x, point.eta, point.xi)
    at = dict(zip(live, map(complex, vals)))
    y = np.array([v + at.get(("y", i), 0.0) for i, v in enumerate(point.y)])
    x = np.array([v + at.get(("x", l), 0.0) for l, v in enumerate(point.x)])
    return ExtendedPoint(y, x, point.eta + at.get("eta", 0.0), point.xi)


def compose_map(chi_records, point: ExtendedPoint, S: StructureMatrix):
    """Push a point in final coordinates back through every step's flow."""
    return apply_displacements(composed_displacements(chi_records, S), point)


# ---------------------------------------------------------------- schedule audit


@dataclass
class ScheduleAudit:
    beta: float
    rows: list
    rho_limit: float
    sigma_limit: float
    upsilon_limit: float
    d_max_tail: float


def _iterate_schedule(beta, tau, upsilon0, rho0, sigma0, omega_abs, j_end):
    rho, sigma, ups = rho0, sigma0, upsilon0
    rows = []
    for j in range(j_end + 1):
        if j == 0:
            d = 1.0 / 6.0
        else:
            d = beta * ups ** (-1.0 / (4.0 * (tau + 1.0))) * (j + 2) ** 2 / (j + 1) ** 4
        if 3.0 * d >= 1.0:
            return None
        zeta = d * sigma / (4.0 * omega_abs)
        rows.append(
            {"j": j, "d": d, "rho": rho, "sigma": sigma, "upsilon": ups, "zeta": zeta}
        )
        rho *= 1.0 - 3.0 * d
        sigma *= 1.0 - 3.0 * d
        ups *= 1.0 - d ** (4.0 * tau + 3.0)
    return rows, rho, sigma, ups


def schedule_audit(
    tau,
    upsilon0=0.5,
    rho0=1.0,
    sigma0=1.0,
    omega_abs=1.0,
    j_end=200,
    j_limit=4000,
) -> ScheduleAudit:
    """Iterate the printed parameter recursion with the free (symbolic) eps0
    prefactor calibrated so the domain radii converge to exactly a quarter of
    their starting values; upsilon barely moves and is checked against its
    floor upsilon0/2 rather than any limit claim."""
    target = rho0 / 4.0

    def limit(beta):
        out = _iterate_schedule(beta, tau, upsilon0, rho0, sigma0, omega_abs, j_limit)
        return None if out is None else out[1]

    lo, hi = 0.0, 0.05
    while True:
        val = limit(hi)
        if val is None or val < target:
            break
        lo = hi
        hi *= 2.0
        if hi > 128.0:
            raise RuntimeError("schedule calibration failed to bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = limit(mid)
        if val is None or val < target:
            hi = mid
        else:
            lo = mid
    beta = lo
    rows, rho_lim, sigma_lim, ups_lim = _iterate_schedule(
        beta, tau, upsilon0, rho0, sigma0, omega_abs, j_limit
    )
    d_tail = max(r["d"] for r in rows[1:])
    return ScheduleAudit(
        beta=beta,
        rows=rows[: j_end + 1],
        rho_limit=rho_lim,
        sigma_limit=sigma_lim,
        upsilon_limit=ups_lim,
        d_max_tail=d_tail,
    )
