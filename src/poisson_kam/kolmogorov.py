"""Iterative construction of the Kolmogorov normal form.

State at step j is H = eta + omega~.y + (1/2) C y.y + R + A + B.y with A, B
the unwanted decaying terms.  One step solves the two homological equations
for the linear generating function chi = S + T.y, applies exp(L_chi) with
convergence control, re-splits, and updates the parameter vector
u = (d, eps, zeta, upsilon, rho, sigma).  Control decisions use measured
majorant norms; the printed theoretical constants (M0..M8, D) are evaluated
alongside as a diagnostics ledger because they are far too pessimistic to
drive desk-scale runs.

A RunSetup is the one source of a run's inputs: init_from_problem(problem,
options) builds it from a validated Problem, run(setup) reads its budget from
setup.options, and normalization_step(setup, decomp, u, j) reads the
structure, frequencies, ledger, options and eps0 rating from it.  The
problem's constants have one source each: the decay rate a is the series
ring's decay_rate and tau is freq.tau; IterationParams is u and nothing
else.  eps is max(eps_parts), and _shrink is the one (rho, sigma, upsilon)
recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .bracket import (
    E_SQ,
    ExtendedPoint,
    LieOperator,
    StructureMatrix,
    gamma_rho_sigma,
    lie_transform,
    low_degree_bracket,
)
from .errors import (
    ParameterError,
    ProblemFormatError,
    StepRefusedError,
)
from .homological import FrequencyData, build_E, solve_S, solve_T
from .series import (
    MAX_ORDER,
    FourierTaylorSeries,
    SeriesStack,
    WeightedNormParams,
    _integer,
    _real,
    reassemble_taylor,
    shift_action_expansion,
    taylor_split,
    weight_bounds,
    weighted_norm,
)

D_FLOOR = 1e-3


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

    def reassembled(self) -> FourierTaylorSeries:
        return (
            _eta_series(self.full)
            + _omega_y(self.full, self.omega_tilde)
            + reassemble_taylor(self.A, self.B, self.C, self.R)
        )

    def eps_parts(self, params: WeightedNormParams):
        """(||A||, sum_i ||B_i||) at params; eps is their max."""
        return (
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
    return FourierTaylorSeries.from_terms(*like.ring, [((0,) * like.n, (0,) * like.m, 1, 0, 1.0)])


def _omega_y(like, omega_tilde):
    """omega~.y in the ring of like."""
    unit = np.eye(like.m, dtype=int)
    terms = [((0,) * like.n, unit[i], 0, 0, float(w)) for i, w in enumerate(omega_tilde)]
    return FourierTaylorSeries.from_terms(*like.ring, terms)


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
    """The parameter vector u_j = (d, eps, zeta, upsilon, rho, sigma)."""

    d: float
    eps: float
    zeta: float
    upsilon: float
    rho: float
    sigma: float

    def norm_params(self) -> WeightedNormParams:
        return WeightedNormParams(self.rho, self.sigma)

    def validate(self, omega_abs: float):
        if not (0 < self.d <= 1 / 6 + 1e-15):
            raise ParameterError("d must lie in (0, 1/6]")
        if not (0 < self.upsilon < 1):
            raise ParameterError("upsilon must lie in (0, 1)")
        if abs(4 * omega_abs * self.zeta - self.d * self.sigma) > 1e-12 * self.sigma:
            raise ParameterError(
                "zeta = %r violates 4|omega| zeta = d sigma at |omega| = %r"
                % (self.zeta, omega_abs)
            )

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass
class ConstantsLedger:
    """Every printed constant of the quantitative scheme, evaluated in floats.

    Diagnostics, not certificates: Theta1/Theta2 are the measured per-mode
    amplification of the homological solve at the working truncation.
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


@dataclass(frozen=True)
class ChiRecord:
    """Generating function with the domain parameters it was built at.

    A record is checked when made, as a stored generator is read back:
    step is an integer in 0..MAX_ORDER (read by _integer), rho and sigma
    are finite and positive (read by _real) with finite majorant weights on
    chi's ring, and d lies in (0, 1/3), where the shrink factor 1 - 3d is
    positive.  Raises ProblemFormatError otherwise.
    """

    step: int
    chi: FourierTaylorSeries
    rho: float
    sigma: float
    d: float

    def __post_init__(self):
        step = _integer(self.step, "generator step", 0, MAX_ORDER, ProblemFormatError)
        rho, sigma, d = (
            _real(getattr(self, name), "generator %d: %s" % (step, name), rule, ProblemFormatError)
            for name, rule in (("rho", "finite and > 0"), ("sigma", "finite and > 0"),
                               ("d", "in (0, 1/3)"))
        )
        rules = weight_bounds(rho, sigma, self.chi.trunc)
        # Gamma_{rho,sigma} divides by (e rho sigma)^2
        rules.append(("rho * sigma", rho * sigma, "such that (e rho sigma)^2 > 0",
                      (math.e * rho * sigma) ** 2 > 0.0))
        for name, value, rule, ok in rules:
            if not ok:
                raise ProblemFormatError(
                    "generator %d: %s must be %s, got %r" % (step, name, rule, value)
                )
        for name, value in (("step", step), ("rho", rho), ("sigma", sigma), ("d", d)):
            object.__setattr__(self, name, value)

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
            payload["step"],
            FourierTaylorSeries.from_payload(payload["chi"]),
            payload["rho"],
            payload["sigma"],
            payload["d"],
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
    problem_echo: dict


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
    Theta1 ~ a * max 1/|div|, Theta2 ~ a * max (1+|k|)/|div|, read by shell."""
    theta1 = a * max(1.0 / a, 1.0 / min(freq.shell_divisors))
    theta2_best = max((1.0 + s) / dot for s, dot in enumerate(freq.shell_divisors, 1))
    theta2 = max(a * max(1.0 / a, theta2_best), 2.0 * theta1)
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
    M_h: float,
) -> ConstantsLedger:
    """Evaluate M0..M8 and D exactly as printed, at (rho*, sigma*) = u0/4,
    with a the decay rate of S's ring, tau that of freq and Theta1, Theta2
    the measured ones (measured_thetas).

    Raises ParameterError when a constant overflows or is not finite.
    """
    a, tau = S.decay_rate, freq.tau
    rho_star, sigma_star = u0.rho / 4.0, u0.sigma / 4.0
    upsilon_star = u0.upsilon / 2.0
    Theta1, Theta2 = measured_thetas(freq, a)
    n, m = S.n, S.m
    params0 = u0.norm_params()
    M_B = S.full_norm(params0)
    b0_norm = n * m * float(np.abs(S.B0).max(initial=0.0))
    b1w = np.einsum("lij,i->lj", S.B1, np.asarray(freq.omega_tilde, dtype=float))
    b1w_norm = n * m * float(np.abs(b1w).max(initial=0.0))
    try:
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
        D = 32.0 * E_SQ * freq.omega_abs * M_B * (rho_star * sigma_star) ** -2 * max(M6, M7, M8)
        eps_threshold = a ** 4 / (D * 12.0 ** (8.0 * (tau + 1.0)))
    except OverflowError as exc:
        raise ParameterError(
            "constants ledger overflows at rho* = %r, sigma* = %r, tau = %r"
            % (rho_star, sigma_star, tau)
        ) from exc
    gamma = gamma_rho_sigma(S, params0)
    ledger = ConstantsLedger(
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
        omega_abs=freq.omega_abs,
        eps_threshold=eps_threshold,
    )
    bad = [k for k, v in ledger.as_dict().items() if not math.isfinite(v)]
    if bad:
        raise ParameterError("constants ledger entries not finite: %s" % ", ".join(bad))
    return ledger


# ---------------------------------------------------------------- initialization


def torus_frequencies(problem, K_max):
    """(S, h(y* + .), freq): structure and h shifted to the torus y*, and the lattice
    table to K_max of omega = S.B0 omega~, omega~ the linear frequencies of h(y* + .)."""
    S_shifted = problem.structure.shifted(problem.y_star)
    h_shift = shift_action_expansion(problem.h, problem.y_star)
    freq = FrequencyData.build(linear_frequencies(h_shift), S_shifted.B0, problem.tau, K_max)
    return S_shifted, h_shift, freq


def init_from_problem(problem, options: RunOptions) -> RunSetup:
    """Shift the expansion point of a Problem to the torus, assemble
    H = eta + omega~.y + h(y* + .)|_{|alpha| >= 2} + eps f(y* + .), with omega~
    the real parts of the linear coefficients of h(y* + .) and its constant
    dropped, split it, and set the step-0 parameter vector
    (rho0, sigma0) = (rho, sigma)/2, d0 = 1/6, from the problem's options.

    The problem was validated when it was built.  Rejects resonant
    frequencies (via the Diophantine scan at the truncation) and raises
    ParameterError when eps0 or a ledger constant is not finite.
    """
    rho, sigma = problem.option("rho"), problem.option("sigma")
    S_shifted, h_shift, freq = torus_frequencies(problem, problem.trunc.K_max)
    f_shift = shift_action_expansion(problem.f, problem.y_star)
    full = (
        _eta_series(h_shift)
        + _omega_y(h_shift, freq.omega_tilde)
        + _by_degree(h_shift)[1]
        + f_shift.scale(problem.epsilon)
    )
    decomp = HamiltonianDecomposition.from_full(full, freq.omega_tilde)
    rho0, sigma0 = rho / 2.0, sigma / 2.0
    params0 = WeightedNormParams(rho0, sigma0)
    c_bound = c_operator_bound(decomp.C, params0)
    upsilon_hyp = min(0.9999, 1.0 / c_bound) if c_bound > 0 else 0.9999
    d0 = 1.0 / 6.0
    u0 = IterationParams(
        d=d0,
        eps=max(decomp.eps_parts(params0)),
        zeta=d0 * sigma0 / (4.0 * freq.omega_abs),
        upsilon=upsilon_hyp / 2.0,
        rho=rho0,
        sigma=sigma0,
    )
    u0.validate(freq.omega_abs)
    M_f = weighted_norm(f_shift, WeightedNormParams(rho, sigma / 2.0)).K
    eps0_rating = problem.m * problem.epsilon * M_f / rho0
    if not (math.isfinite(eps0_rating) and math.isfinite(u0.eps)):
        raise ParameterError(
            "eps0 is not finite: rating %r, measured %r" % (eps0_rating, u0.eps)
        )
    M_h_meas = weighted_norm(full.eta_free_part(), params0).K
    ledger = constants_ledger(S_shifted, u0, freq, M_h=M_h_meas)
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
        problem_echo=problem.echo(),
    )


# ---------------------------------------------------------------- the step


def _finite_or_zero(x):
    return float(x) if math.isfinite(x) else 0.0


def _schedule_d(j, ledger, eps0_rating, upsilon, a, tau):
    """d_j = clamp of the printed schedule into [D_FLOOR, 1/6]."""
    if eps0_rating <= 0:
        return 1.0 / 6.0
    base = (ledger.D * eps0_rating / (a ** 4 * upsilon ** 2)) ** (
        1.0 / (8.0 * (tau + 1.0))
    )
    profile = (j + 2) ** 2 / (j + 1) ** 4
    return min(1.0 / 6.0, max(base * profile, D_FLOOR))


def _shrink(d, tau, rho, sigma, upsilon):
    """One step of the printed recursion: (rho, sigma) <- (1 - 3d)(rho, sigma),
    upsilon <- (1 - d^{4 tau + 3}) upsilon."""
    return (
        (1.0 - 3.0 * d) * rho,
        (1.0 - 3.0 * d) * sigma,
        (1.0 - d ** (4.0 * tau + 3.0)) * upsilon,
    )


def normalization_step(setup: RunSetup, decomp, u, step_index):
    """One Kolmogorov step on decomp at u: solve for chi = S + T.y,
    transform, re-split.  The structure, frequencies, ledger and eps0
    rating come from setup.  The printed smallness conditions are the row's
    three verdicts, which refuse nothing.

    Returns (new_decomposition, chi_record, u_next, trace_row).  The one
    refusal: lie_transform raises LieDivergenceError (a StepRefusedError)
    when the measured Lie contraction exceeds 1/2.  Raises ParameterError
    when a denominator of the smallness verdicts underflows to 0.
    """
    S, freq, ledger = setup.structure, setup.freq, setup.ledger
    a, tau = S.decay_rate, freq.tau
    params = u.norm_params()
    eps_A, eps_B = decomp.eps_parts(params)
    eps = max(eps_A, eps_B)
    zeta = u.zeta
    picc_den = a ** 4 * u.upsilon ** 2 * u.d ** (8.0 * (tau + 1.0))
    smallone_den = (
        a ** 2
        * u.upsilon
        * u.d ** (4.0 * tau + 3.0)
        * (ledger.rho_star * ledger.sigma_star) ** 2
    )
    smallv_den = a ** 2 * u.upsilon ** 2 * u.d ** (4.0 * tau + 5.0) * zeta
    if not min(picc_den, smallone_den, smallv_den) > 0.0:
        raise ParameterError(
            "smallness verdicts undefined: a denominator underflows to 0 at "
            "a = %r, d = %r, upsilon = %r" % (a, u.d, u.upsilon)
        )
    v_picc = eps * ledger.D / picc_den <= 0.5
    v_smallone = eps * 8.0 * E_SQ * ledger.M_B * ledger.M5 / smallone_den <= 0.5
    v_smallv = eps * ledger.M8 / smallv_den <= 0.5

    solS = solve_S(decomp.A, freq, params)
    E = build_E(S, decomp.C, decomp.omega_tilde)
    solT = solve_T(decomp.B, solS.phi, E, freq, params)
    chi = solS.phi
    for j, sol in enumerate(solT):
        chi = chi + sol.phi.mul_y(j)

    Hhat, diag = lie_transform(chi, decomp.full, S, params)
    Hhat = Hhat.drop_pure_constant()
    new_decomp = HamiltonianDecomposition.from_full(Hhat, decomp.omega_tilde)

    # homological residual restricted to |alpha| <= 1 (should sit at rounding):
    # chi_xi + g + {chi, h} with g = A + B.y and h = omega~.y + (1/2) C y.y + R,
    # summed on the ring cut to |alpha| <= 1, where each term is bit for bit
    # that of the full-order sum; the bracket's products record no discard
    g, h = _by_degree(_rest(decomp.full, decomp.omega_tilde))
    h = h + _omega_y(decomp.full, decomp.omega_tilde)
    low = low_degree_bracket(chi, h, S)
    resid = chi.partial_xi().cut(low.trunc) + g.cut(low.trunc) + low
    resid_low = weighted_norm(resid, params).K

    d_next = _schedule_d(step_index + 1, ledger, setup.eps0_rating, u.upsilon, a, tau)
    rho_next, sigma_next, upsilon_next = _shrink(u.d, tau, u.rho, u.sigma, u.upsilon)
    params_next = WeightedNormParams(rho_next, sigma_next)
    eps_next = max(new_decomp.eps_parts(params_next))
    if not diag.converged:
        # the terms the cap left out have majorant at most tail_bound at
        # params, so at the smaller params_next too; they add at most that
        # to eps's A part, and 1/rho of it to its B part, which is their
        # |alpha| = 1 part differentiated in y
        eps_next += diag.tail_bound / min(1.0, u.rho)
    u_next = IterationParams(
        d=d_next,
        eps=eps_next,
        zeta=d_next * sigma_next / (4.0 * ledger.omega_abs),
        upsilon=upsilon_next,
        rho=rho_next,
        sigma=sigma_next,
    )
    minp = new_decomp.min_decay_index()
    trace_row = {
        "step": step_index,
        "d": u.d,
        "rho": u.rho,
        "sigma": u.sigma,
        "zeta": zeta,
        "upsilon": u.upsilon,
        "eps_in": eps,
        "eps_A": eps_A,
        "eps_B": eps_B,
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
        "eps_theory_next": ledger.D / picc_den * eps ** 2,
        "min_p_out": minp or 0,
        "c_op_bound": c_operator_bound(new_decomp.C, params_next),
        "verdict_piccolaunmezzo": v_picc,
        "verdict_smallone": v_smallone,
        "verdict_smallv": v_smallv,
    }
    chi_record = ChiRecord(step_index, chi, u.rho, u.sigma, u.d)
    return new_decomp, chi_record, u_next, trace_row


def run(setup: RunSetup) -> RunResult:
    """Iterate normalization steps until eps <= target_eps or max_steps
    steps have run, both read from setup.options.

    Aborts with status "diverged" when eps grows two steps in a row and
    with "refused" when the contraction guard refuses a step's Lie series;
    the trace is returned in every case.
    """
    options = setup.options
    decomp, u = setup.decomp, setup.params
    trace = NormalizationTrace()
    warnings = []
    if setup.empirical_mode:
        warnings.append(
            "eps0 rating %.6g exceeds the theoretical threshold %.6g; "
            "running in empirical mode (measured norms drive the iteration)"
            % (setup.eps0_rating, setup.ledger.eps_threshold)
        )
    trace.header = {
        "eps0_rating": setup.eps0_rating,
        "eps0_measured": u.eps,
        "eps_threshold": setup.ledger.eps_threshold,
        "empirical_mode": setup.empirical_mode,
        "target_eps": options.target_eps,
        "max_steps": options.max_steps,
        "u0": u.as_dict(),
        "omega_tilde": [float(v) for v in setup.freq.omega_tilde],
        "omega": [float(v) for v in setup.freq.omega],
        "gamma_K": setup.freq.gamma,
        "tau": setup.freq.tau,
        "a": setup.structure.decay_rate,
        "constants": setup.ledger.as_dict(),
        "warnings": warnings,
        "problem": setup.problem_echo,
    }
    chi_records = []
    stopped = None
    grew = 0
    for j in range(options.max_steps):
        if u.eps <= options.target_eps:
            break
        try:
            decomp, chi_rec, u_next, row = normalization_step(setup, decomp, u, j)
        except StepRefusedError as exc:
            warnings.append("step %d refused: %s" % (j, exc))
            stopped = "refused"
            break
        trace.rows.append(row)
        chi_records.append(chi_rec)
        if not row["lie_converged"]:
            warnings.append(
                "step %d: Lie series stopped by its cap at LIE_MAX_TERMS = %d terms, "
                "above LIE_REL_TOL (tail bound %.3g)"
                % (j, row["lie_terms"], row["lie_tail_bound"])
            )
        grew = grew + 1 if u_next.eps > u.eps else 0
        u = u_next
        if u.eps > options.target_eps and grew >= 2:
            warnings.append(
                "eps grew twice in a row (%.3g); aborting as divergent" % u.eps
            )
            stopped = "diverged"
            break
    status = stopped or ("converged" if u.eps <= options.target_eps else "max_steps")
    trace.header["status"] = status
    trace.header["eps_final"] = u.eps
    trace.header["steps_taken"] = len(trace.rows)
    return RunResult(trace, decomp, chi_records, status, setup)


# ---------------------------------------------------------------- the map


def composed_displacements(chi_records, S: StructureMatrix):
    """The composed change of coordinates as identity + displacement series.

    Applies exp(L_chi) for step 0 first, then step 1, ... to the coordinate
    functions (kept as identity + series displacement, since bare x and xi are
    not ring elements).  Returns the displacements of y_1..y_m, x_1..x_n and
    eta in that order, each a zero series of S's ring before any record; xi
    has none: the transformation does not act on time.  compose_map, the
    one place the map is applied, builds it.  Each record's generator is one
    LieOperator, shared by all its series; a stored generator that fails
    the contraction guard raises LieDivergenceError (a StepRefusedError).
    """
    coords = [("y", i) for i in range(S.m)] + [("x", l) for l in range(S.n)] + ["eta"]
    disp = [S.B12[0][0]._like(None, None)] * len(coords)
    for rec in chi_records:
        op = LieOperator(rec.chi, S, rec.norm_params())
        for i, c in enumerate(coords):
            base, _ = op.displacement(c)
            disp[i] = base if disp[i].is_zero() else base + op.transform(disp[i])[0]
    return disp


def compose_map(chi_records, point: ExtendedPoint, S: StructureMatrix) -> ExtendedPoint:
    """Push a point in final coordinates back through every step's flow.

    The one place the map is applied: its displacements are built once, as
    one SeriesStack, and valued at the points one at a time, so the term
    values of one point only are held at once.  The point's fields may
    carry a leading batch axis, y (P, m), x (P, n), eta and xi (P,); the
    result has the input's shapes, and each of its points is what that
    point alone maps to, bit for bit.
    """
    m, n = S.m, S.n
    stack = SeriesStack(composed_displacements(chi_records, S))
    y, x = np.reshape(point.y, (-1, m)), np.reshape(point.x, (-1, n))
    eta, xi = np.reshape(point.eta, -1), np.reshape(point.xi, -1)
    disp = np.array([stack.evaluate(*at)[0] for at in zip(y, x, eta, xi)]).reshape(-1, m + n + 1)
    return ExtendedPoint(
        (y + disp[:, :m]).reshape(np.shape(point.y)),
        (x + disp[:, m : m + n]).reshape(np.shape(point.x)),
        (eta + disp[:, m + n]).reshape(np.shape(point.eta))[()],
        point.xi,
    )


# ---------------------------------------------------------------- schedule audit


@dataclass
class ScheduleAudit:
    beta: float
    rows: list
    rho_limit: float
    sigma_limit: float
    upsilon_limit: float
    d_max_tail: float


def _iterate_schedule(beta, tau, upsilon0, rho0, sigma0):
    rho, sigma, ups = rho0, sigma0, upsilon0
    rows = []
    for j in range(4001):
        if j == 0:
            d = 1.0 / 6.0
        else:
            d = beta * ups ** (-1.0 / (4.0 * (tau + 1.0))) * (j + 2) ** 2 / (j + 1) ** 4
        if 3.0 * d >= 1.0:
            return None
        zeta = d * sigma / 4.0
        rows.append(
            {"j": j, "d": d, "rho": rho, "sigma": sigma, "upsilon": ups, "zeta": zeta}
        )
        rho, sigma, ups = _shrink(d, tau, rho, sigma, ups)
    return rows, rho, sigma, ups


def schedule_audit(tau, upsilon0, rho0=1.0, sigma0=1.0) -> ScheduleAudit:
    """Iterate the printed parameter recursion, at |omega| = 1, with the free
    (symbolic) eps0 prefactor calibrated so the domain radii converge to
    exactly a quarter of their starting values; upsilon barely moves and is
    checked against its floor upsilon0/2 rather than any limit claim.  The
    limits are taken after 4000 steps and the rows j = 0..200 are kept.  The
    calibration bisects until the midpoint of the bracket is one of its ends."""
    target = rho0 / 4.0

    def limit(beta):
        out = _iterate_schedule(beta, tau, upsilon0, rho0, sigma0)
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
        if mid in (lo, hi):
            break
        val = limit(mid)
        if val is None or val < target:
            hi = mid
        else:
            lo = mid
    beta = lo
    rows, rho_lim, sigma_lim, ups_lim = _iterate_schedule(beta, tau, upsilon0, rho0, sigma0)
    d_tail = max(r["d"] for r in rows[1:])
    return ScheduleAudit(
        beta=beta,
        rows=rows[:201],
        rho_limit=rho_lim,
        sigma_limit=sigma_lim,
        upsilon_limit=ups_lim,
        d_max_tail=d_tail,
    )
