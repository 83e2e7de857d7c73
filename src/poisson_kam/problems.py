"""Problem files: the single structured-text format shared by library and CLI.

A problem bundles the integrable part h(y), the decaying perturbation f, the
structure matrix blocks, the expansion point y*, the decay rate a, the
perturbation scale epsilon, the Diophantine exponent tau and the truncation
orders, plus free-form options (norm radii, step budgets, tolerances).

A Problem is immutable and is the one place its data is checked: a Problem
that exists has passed __post_init__, and init_from_problem(problem, options)
reads it without checking it again.  The built-in problems are made by one
builder, _built_in.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass, field, fields
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import jsonio
from .bracket import StructureMatrix
from .errors import ProblemFormatError
from .kolmogorov import RunOptions, RunSetup, init_from_problem
from .series import MAX_ORDER, FourierTaylorSeries, Truncation, _integer, _real, weight_bounds

GOLDEN = (1.0 + 5 ** 0.5) / 2.0

_RUN_DEFAULTS = {f.name: f.default for f in fields(RunOptions)}
# the default of every option; RunOptions holds those of the run settings
_OPTION_DEFAULTS = {
    "rho": 0.5,
    "sigma": 1.0,
    "t_end": 100.0,
    "tol": 1e-10,
    "threshold": 10.0,
    "seed": 0,
    **_RUN_DEFAULTS,
}


# the rule each real option is read by (see series._real) and the least
# value of each integer option, whether set in the file or passed as an
# override
_OPTION_RULES = {
    **dict.fromkeys(("rho", "sigma", "tol", "t_end", "target_eps"), "finite and > 0"),
    "threshold": "a number other than NaN",
    "max_steps": 1,
    "seed": None,
}


@dataclass(frozen=True)
class Problem:
    n: int
    m: int
    a: float
    epsilon: float
    tau: float
    y_star: np.ndarray
    trunc: Truncation
    h: FourierTaylorSeries
    f: FourierTaylorSeries
    structure: StructureMatrix
    options: Mapping = field(default_factory=dict)

    def __post_init__(self):
        # every scalar is stored as read and the containers read-only, so a
        # built Problem stays as checked
        for name in ("n", "m"):
            value = _integer(getattr(self, name), name, 1, MAX_ORDER, ProblemFormatError)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "trunc", Truncation(*(
            _integer(v, "series order " + k, 1, MAX_ORDER, ProblemFormatError)
            for k, v in Truncation(*self.trunc)._asdict().items()
        )))
        if not isinstance(self.options, Mapping):
            got = reprlib.repr(self.options)
            raise ProblemFormatError("options must be an object, got %s" % got)
        object.__setattr__(self, "options", MappingProxyType(dict(self.options)))
        for name in self.options:
            self.option(name)
        for name, what, rule in (("epsilon", "epsilon", "finite and >= 0"),
                                 ("a", "decay rate a", "in (0, 1)"),
                                 ("tau", "tau", "finite and >= 0")):
            value = _real(getattr(self, name), what, rule, ProblemFormatError)
            object.__setattr__(self, name, value)
        y_star = np.asarray(self.y_star, dtype=object)
        if y_star.shape != (self.m,):
            raise ProblemFormatError(
                "y_star must be %d numbers, got %s" % (self.m, reprlib.repr(self.y_star))
            )
        y_star = np.array([_real(v, "y_star", "finite", ProblemFormatError) for v in y_star])
        y_star.setflags(write=False)
        object.__setattr__(self, "y_star", y_star)
        rho, sigma = self.option("rho"), self.option("sigma")
        for name, value, rule, ok in weight_bounds(rho, sigma, self.trunc):
            if not ok:
                raise ProblemFormatError("option %r must be %s, got %r" % (name, rule, value))
        # StructureMatrix gives every entry the (n, m) of its block shape, so
        # checking the entries' ring also checks B12 is m x n and B22 n x n
        S = self.structure
        parts = [("h", self.h), ("f", self.f)]
        parts += [("structure entry", e) for row in S.B12 + S.B22 for e in row]
        for part, series in parts:
            self.check_ring(part, series)
        if self.f.ecol.any():
            raise ProblemFormatError("perturbation must not depend on eta")
        if not self.f.is_zero() and int(self.f.pcol.min()) < 1:
            raise ProblemFormatError(
                "perturbation has a non-decaying term (p = 0); decay hypothesis violated"
            )
        if not self.h.is_action_only():
            raise ProblemFormatError("integrable part h must depend on y only")

    def check_ring(self, part, series):
        """Raise ProblemFormatError unless series (named part in the message)
        lies in the problem's ring: the same n, m, a and truncation orders."""
        got = (series.n, series.m, series.decay_rate, *series.trunc)
        want = (self.n, self.m, self.a, *self.trunc)
        for name, g, w in zip(("n", "m", "a", *Truncation._fields), got, want):
            if g != w:
                msg = "%s has %s = %r, but the problem states %r" % (part, name, g, w)
                raise ProblemFormatError(msg)

    def option(self, name, override=None):
        """The override, else the file value, else the default; None counts as
        unset.  The value is read by the type of its default and its entry in
        _OPTION_RULES: an integer option by _integer from its least value up
        to MAX_ORDER, a real one by _real.  Raises ProblemFormatError for an
        unknown name or a value that is refused."""
        if name not in _OPTION_DEFAULTS:
            raise ProblemFormatError("unknown option %r" % name)
        default = _OPTION_DEFAULTS[name]
        value = override if override is not None else self.options.get(name)
        if value is None:
            return default
        what, rule = "option %r" % name, _OPTION_RULES[name]
        if isinstance(default, int):
            return _integer(value, what, rule, MAX_ORDER, ProblemFormatError)
        return _real(value, what, rule, ProblemFormatError)

    def run_options(self, **overrides) -> RunOptions:
        unknown = sorted(set(overrides) - set(_RUN_DEFAULTS))
        if unknown:
            raise ProblemFormatError("unknown run option %s" % ", ".join(unknown))
        return RunOptions(
            **{name: self.option(name, overrides.get(name)) for name in _RUN_DEFAULTS}
        )

    def initialize(self, **overrides) -> RunSetup:
        return init_from_problem(self, self.run_options(**overrides))

    def echo(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "a": self.a,
            "epsilon": self.epsilon,
            "tau": self.tau,
            "y_star": [float(v) for v in self.y_star],
            "trunc": self.trunc._asdict(),
            "options": {k: self.options[k] for k in sorted(self.options)},
        }

    def to_payload(self) -> dict:
        payload = self.echo()
        payload["h"] = self.h.to_payload()
        payload["f"] = self.f.to_payload()
        payload["B12"] = [[e.to_payload() for e in row] for row in self.structure.B12]
        payload["B22"] = [[e.to_payload() for e in row] for row in self.structure.B22]
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "Problem":
        try:
            series = FourierTaylorSeries.from_payload
            B12, B22 = ([[series(e) for e in row] for row in payload[k]] for k in ("B12", "B22"))
            return cls(
                **{k: payload[k] for k in ("n", "m", "a", "epsilon", "tau", "y_star")},
                trunc=Truncation(*(payload["trunc"][k] for k in Truncation._fields)),
                h=series(payload["h"]),
                f=series(payload["f"]),
                structure=StructureMatrix(B12, B22),
                options=payload.get("options", {}),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ProblemFormatError("bad problem payload: %s" % exc) from exc

    def save(self, path):
        Path(path).write_text(jsonio.dumps(self.to_payload()) + "\n")

    @classmethod
    def load(cls, path) -> "Problem":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ProblemFormatError("cannot read problem file %s: %s" % (path, exc)) from exc
        try:
            payload = jsonio.loads(text)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(
                "%s: line %d column %d: %s" % (path, exc.lineno, exc.colno, exc.msg)
            ) from exc
        except ProblemFormatError as exc:
            raise ProblemFormatError("%s: %s" % (path, exc)) from exc
        return cls.from_payload(payload)


def _two_mode_forcing(m):
    """The terms of f = exp(-a xi) [cos x1 + cos(x1 + x2) / 2] with m actions."""
    z = (0,) * m
    return [((1, 0), z, 0, 1, 0.5), ((-1, 0), z, 0, 1, 0.5),
            ((1, 1), z, 0, 1, 0.25), ((-1, -1), z, 0, 1, 0.25)]


def _built_in(S, h_terms, f_terms, epsilon, tau, y_star, options) -> Problem:
    """A built-in Problem: h and f from their terms in the ring (n, m, a,
    trunc) of the structure S.  The norm radii are always among the options,
    at their defaults unless the options set them."""
    ring = (S.n, S.m, S.decay_rate, S.trunc)
    return Problem(
        n=S.n,
        m=S.m,
        a=S.decay_rate,
        epsilon=epsilon,
        tau=tau,
        y_star=y_star,
        trunc=S.trunc,
        h=FourierTaylorSeries.from_terms(*ring, h_terms),
        f=FourierTaylorSeries.from_terms(*ring, f_terms),
        structure=S,
        options={"rho": _OPTION_DEFAULTS["rho"], "sigma": _OPTION_DEFAULTS["sigma"], **options},
    )


def benchmark_problem(epsilon=1e-3, a=0.5, y_star=1.0, tau=1.0, **options) -> Problem:
    """Canonical one-degree benchmark: h = y^2/2, f = exp(-a xi) cos x, at
    truncation (K, L, P) = (16, 4, 16)."""
    return _built_in(
        StructureMatrix.canonical(1, a, (16, 4, 16)),
        [((0,), (2,), 0, 0, 0.5)],
        [((1,), (0,), 0, 1, 0.5), ((-1,), (0,), 0, 1, 0.5)],
        epsilon, tau, [y_star], options,
    )


def rescaled_benchmark_problem(trunc=(8, 3, 6), **options) -> Problem:
    """Genuinely non-canonical instance: one action, two angles,
    B12(y) = -((1-slope) + slope*y) (1, 1/phi) with slope 0.3 and a constant
    skew B22 of 0.2, at epsilon 3e-4, a 1/2, y* 1 and tau 1.2.

    B12 keeps a constant direction, so the bracket satisfies Jacobi for any
    action profile; B12(y*) = -(1, 1/phi) makes the torus frequency
    Diophantine, and the first-order block B1 is nonzero, exercising the
    full E-matrix path.
    """
    n, m, a, slope = 2, 1, 0.5, 0.3
    beta = 1.0 / GOLDEN

    def entry(c):
        return FourierTaylorSeries.from_terms(
            n, m, a, trunc,
            [((0, 0), (0,), 0, 0, -(1.0 - slope) * c), ((0, 0), (1,), 0, 0, -slope * c)],
        )

    zero = FourierTaylorSeries.zeros(n, m, a, trunc)
    b22 = FourierTaylorSeries.constant(0.2, zero)
    S = StructureMatrix(
        [[entry(1.0), entry(beta)]], [[zero, b22], [b22.scale(-1.0), zero]]
    )
    return _built_in(
        S, [((0, 0), (2,), 0, 0, 0.5)], _two_mode_forcing(m),
        3e-4, 1.2, [1.0], options,
    )


def two_dof_problem(omega=(1.0, GOLDEN), **options) -> Problem:
    """Canonical two-degree problem with y* chosen so omega is as given, at
    epsilon 1e-4, a 1/2, tau 1.2 and truncation (K, L, P) = (10, 4, 10)."""
    return _built_in(
        StructureMatrix.canonical(2, 0.5, (10, 4, 10)),
        [((0, 0), (2, 0), 0, 0, 0.5), ((0, 0), (0, 2), 0, 0, 0.5)],
        _two_mode_forcing(2), 1e-4, 1.2, omega, options,
    )
