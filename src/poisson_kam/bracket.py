"""Structure matrices, the extended Poisson bracket, and Lie transforms.

The phase space is (y, x, eta, xi) with y the actions, x the angles, xi the
time made autonomous and eta its conjugate.  The bracket is

    {F, G} = F_y^T B12 G_x - F_x^T B12^T G_y + F_x^T B22 G_x
             + F_xi G_eta - F_eta G_xi,

with B12 (m x n) and skew B22 (n x n) depending on the actions only.  Sign
conventions are pinned by the identities L_chi eta = chi_xi, L_chi xi = 0 and
L_chi y = -chi_x B12^T, which the tests assert literally.

The formula is written once, in LieOperator, which holds chi's side of the
bracket, L_chi = {chi, .}: chi's partials, the contraction 4 e^2 Gamma ||chi||
with the guard that refuses a Lie series, and each product of a chi partial
and a structure entry, formed when the operator is built; the one mass its
truncation dropped is charged to the discard tracker at every use.  apply
takes G's partial derivatives; poisson_bracket passes a series G's,
bracket_with_coordinate the unit partial of a coordinate, and
low_degree_bracket G's partials to an operator on the ring cut to
|alpha| <= 1, each a one-shot operator.  The Lie series is written once
too, in LieOperator._lie_sum, with one stopping rule (LIE_REL_TOL,
LIE_MAX_TERMS) and a count of the truncation discards of its own products;
a normalization step or a record of the composed map builds one operator
and sums every one of its series with it.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .errors import LieDivergenceError, StructureMismatchError
from .series import (
    FourierTaylorSeries,
    WeightedNormParams,
    discard_log,
    discards,
    majorant_with_eta,
    weighted_norm,
)

E_SQ = math.e ** 2

# Lie series stopping: relative term tolerance and hard cap on the order.
LIE_REL_TOL = 1e-14
LIE_MAX_TERMS = 40

# a structure whose relative Jacobi defect exceeds this is not Poisson
JACOBI_REL_TOL = 1e-12


@dataclass
class ExtendedPoint:
    y: np.ndarray
    x: np.ndarray
    eta: complex = 0.0
    xi: float = 0.0

    def __post_init__(self):
        self.y = np.atleast_1d(np.asarray(self.y))
        self.x = np.atleast_1d(np.asarray(self.x))


class StructureMatrix:
    """Block Poisson matrix [[0, B12], [-B12^T, B22]] with y-only entries.

    Also carries the frozen expansion data at the working origin:
    B0 = -B12^T(0)  (n x m) and B1[l, i, j] = -d/dy_j (B12^T)_{l i}(0).
    """

    def __init__(self, B12, B22):
        self._assemble(B12, B22)
        defect = self.jacobi_defect()
        if defect > JACOBI_REL_TOL:
            raise StructureMismatchError(
                "structure matrix fails the Jacobi identity (relative defect %.3g)" % defect
            )

    def _assemble(self, B12, B22):
        """Check the blocks' shapes and entries and read off B0 and B1."""
        if not B12 or not B12[0] or any(len(row) != len(B12[0]) for row in B12):
            raise StructureMismatchError("B12 must be a non-empty m x n matrix")
        self.m = len(B12)
        self.n = len(B12[0])
        self.B12 = [list(row) for row in B12]
        self.B22 = [list(row) for row in B22]
        proto = self.B12[0][0]
        self.trunc = proto.trunc
        self.decay_rate = proto.decay_rate
        if len(self.B22) != self.n or any(len(r) != self.n for r in self.B22):
            raise StructureMismatchError("B22 must be n x n")
        for row in self.B12 + self.B22:
            for entry in row:
                if entry.n != self.n or entry.m != self.m:
                    raise StructureMismatchError("entry dims disagree")
                if not entry.is_action_only():
                    raise StructureMismatchError(
                        "structure matrix entries must depend on y only"
                    )
                if np.abs(entry.coeffs.imag).max(initial=0.0) != 0.0:
                    raise StructureMismatchError("structure matrix must be real")
        for l in range(self.n):
            for lp in range(self.n):
                if not self.B22[l][lp] == -self.B22[lp][l]:
                    raise StructureMismatchError("B22 must be skew-symmetric")
        zero_a = (0,) * self.m
        self.B0 = np.zeros((self.n, self.m))
        self.B1 = np.zeros((self.n, self.m, self.m))
        for i in range(self.m):
            for l in range(self.n):
                entry = self.B12[i][l]
                self.B0[l, i] = -entry.coefficient((0,) * self.n, zero_a, 0, 0).real
                for j in range(self.m):
                    alpha = tuple(1 if t == j else 0 for t in range(self.m))
                    self.B1[l, i, j] = -entry.coefficient(
                        (0,) * self.n, alpha, 0, 0
                    ).real

    # ---- constructors -----------------------------------------------------

    @classmethod
    def canonical(cls, dof, decay_rate, trunc):
        """Canonical bracket: B12 = -I (so xdot = +H_y, ydot = -H_x), B22 = 0."""
        return cls.from_constant_blocks(-np.eye(dof), np.zeros((dof, dof)), decay_rate, trunc)

    @classmethod
    def from_constant_blocks(cls, B12_vals, B22_vals, decay_rate, trunc):
        B12_vals = np.asarray(B12_vals, dtype=float)
        B22_vals = np.asarray(B22_vals, dtype=float)
        m, n = B12_vals.shape
        zero = FourierTaylorSeries.zeros(n, m, decay_rate, trunc)

        def const(v):
            return FourierTaylorSeries.constant(v, zero) if v else zero

        B12 = [[const(B12_vals[i, l]) for l in range(n)] for i in range(m)]
        B22 = [[const(B22_vals[l, lp]) for lp in range(n)] for l in range(n)]
        return cls(B12, B22)

    def shifted(self, y_star) -> "StructureMatrix":
        """Re-expand all entries around y*.  A shift of the actions keeps the
        Jacobi identity, so the copy is not checked for it again."""
        from .series import shift_action_expansion

        return self._entrywise(lambda e: shift_action_expansion(e, y_star))

    def cut(self, trunc) -> "StructureMatrix":
        """Every entry cut to the orders trunc: the structure of that ring,
        for brackets formed there.  It is not checked for the Jacobi
        identity, which only the full series need."""
        return self._entrywise(lambda e: e.cut(trunc))

    def _entrywise(self, fn) -> "StructureMatrix":
        copy = object.__new__(StructureMatrix)
        copy._assemble(
            [[fn(e) for e in row] for row in self.B12],
            [[fn(e) for e in row] for row in self.B22],
        )
        return copy

    # ---- the Jacobi identity ------------------------------------------------

    def jacobi_defect(self) -> float:
        """Largest relative Jacobi defect over the coordinate triples of (y, x):
        the norm of {B^bc, z_a} + {B^ca, z_b} + {B^ab, z_c}, with B^ab = {z_a, z_b},
        over the sum of its terms' norms, at (rho, sigma) = (1, 1).  Constant
        blocks satisfy the identity, so 0 when no entry depends on y."""
        entries = [e for row in self.B12 + self.B22 for e in row]
        if not any(e.acols.any() for e in entries):
            return 0.0
        zero = entries[0]._like(None, None)
        m, n = self.m, self.n
        B = [[zero] * m + row for row in self.B12]
        B += [[-self.B12[i][l] for i in range(m)] + self.B22[l] for l in range(n)]
        coords = [("y", i) for i in range(m)] + [("x", l) for l in range(n)]
        unit = WeightedNormParams(1.0, 1.0)
        worst = 0.0
        for a, b, c in itertools.combinations(range(m + n), 3):
            terms = [
                bracket_with_coordinate(B[q][r], coords[p], self)
                for p, q, r in ((a, b, c), (b, c, a), (c, a, b))
            ]
            scale = sum(weighted_norm(t, unit).K for t in terms)
            if scale > 0.0:
                cyclic = weighted_norm(terms[0] + terms[1] + terms[2], unit).K
                worst = max(worst, cyclic / scale)
        return worst

    # ---- norms --------------------------------------------------------------

    @staticmethod
    def _max_entry_norm(block, params: WeightedNormParams) -> float:
        return max([0.0] + [weighted_norm(e, params).K for row in block for e in row])

    def block_norms(self, params: WeightedNormParams):
        """(G11, G12, G22): the block matrix norms nm * max sup|entry|.

        The upper-left block is structurally zero, so G11 = 0 always.
        """
        g12 = self._max_entry_norm(self.B12, params)
        g22 = self._max_entry_norm(self.B22, params)
        return 0.0, self.m * self.n * g12, self.n * self.n * g22

    def full_norm(self, params: WeightedNormParams) -> float:
        """Norm of the whole (m+n)^2 matrix: (m+n)^2 * max entry majorant."""
        return (self.m + self.n) ** 2 * self._max_entry_norm(self.B12 + self.B22, params)


# ---- the bracket ---------------------------------------------------------------


class LieOperator:
    """L_chi = {chi, .} on the ring of the structure matrix S, with chi's
    side of every bracket formed once.

    It holds chi's xi and eta partials and, formed when the operator is
    built, its terms: for each nonzero product F_d * b of a chi y or x
    partial and a structure entry, in the bracket's order, its sign, the
    product, the tracker of the mass its truncation dropped and the G
    partial it multiplies.  Every use of a term charges that mass again, as
    one discard, to the open discard tracker, where the bracket would have
    formed the product, so a bracket's discards are what forming every
    product afresh records.  Given params, the contraction
    4 e^2 Gamma ||chi|| at those (rho, sigma) is measured once, and a factor
    above 1/2 raises LieDivergenceError (a StepRefusedError): the one place
    a Lie series refuses.  A zero chi needs no guard; its contraction is 0.
    The Lie sums (transform, displacement) need params; a single bracket
    does not.

    Build one operator per generator and let it go with the loop that
    applies it, which frees its products.
    """

    def __init__(self, chi: FourierTaylorSeries, S: StructureMatrix, params=None):
        self.contraction = 0.0
        if params is not None and not chi.is_zero():
            self.contraction = lie_contraction(chi, S, params)
            if not self.contraction <= 0.5:
                raise LieDivergenceError(
                    "Lie contraction %.3g > 1/2; shrink the perturbation first"
                    % self.contraction
                )
        self.chi, self.S, self.params = chi, S, params
        self.Fxi = chi.partial_xi()
        self.Feta = chi.partial_eta()
        m, n = S.m, S.n
        Fy = [chi.partial_y(i) for i in range(m)]
        Fx = [chi.partial_x(l) for l in range(n)]
        # (sign, chi partial, structure entry, index of the G partial in
        # Gy + Gx), in the bracket's order
        factors = []
        for i, l in itertools.product(range(m), range(n)):
            factors.append((operator.add, Fy[i], S.B12[i][l], m + l))
            factors.append((operator.sub, Fx[l], S.B12[i][l], i))
        for l, lp in itertools.product(range(n), repeat=2):
            factors.append((operator.add, Fx[l], S.B22[l][lp], m + lp))
        self.terms = []
        for sign, F_d, b, g in factors:
            if F_d.is_zero() or b.is_zero():
                continue
            with discard_log() as lost:
                product = F_d * b
            self.terms.append((sign, product, lost, g))

    def apply(self, Gy, Gx, Geta, Gxi) -> FourierTaylorSeries:
        """{chi, G} from G's partials: each a series, None where it vanishes,
        or the int 1 where it is the constant one (series * 1 is an exact
        scale).  The term order and the (F_d * b) * G_d grouping fix every
        rounding; each term used records its product's discard again."""
        G = [*Gy, *Gx]
        total = self.chi._like(None, None)
        for sign, product, lost, g in self.terms:
            if G[g] is not None:
                lost.charge()
                total = sign(total, product * G[g])
        if Geta is not None:
            total = total + self.Fxi * Geta
        if not self.Feta.is_zero() and Gxi is not None:
            total = total - self.Feta * Gxi
        return total

    def bracket(self, G: FourierTaylorSeries) -> FourierTaylorSeries:
        """{chi, G} for a series G of the ring."""
        self.chi._check_compatible(G)
        nz = lambda d: None if d.is_zero() else d
        Gy = [nz(G.partial_y(i)) for i in range(self.S.m)]
        Gx = [nz(G.partial_x(l)) for l in range(self.S.n)]
        return self.apply(Gy, Gx, nz(G.partial_eta()), nz(G.partial_xi()))

    def coordinate_bracket(self, coord) -> FourierTaylorSeries:
        """{chi, z_c} for a coordinate function z_c in {("y", i), ("x", l),
        "eta", "xi"}, whose one nonzero partial is 1."""
        m, n = self.S.m, self.S.n
        kind, idx = (coord, None) if isinstance(coord, str) else coord
        valid = {"y": range(m), "x": range(n), "eta": [None], "xi": [None]}
        if idx not in valid.get(kind, []):
            raise ValueError("unknown coordinate %r" % (coord,))
        unit = lambda k, size: [1 if kind == k and j == idx else None for j in range(size)]
        one = lambda k: 1 if kind == k else None
        return self.apply(unit("y", m), unit("x", n), one("eta"), one("xi"))

    def transform(self, F):
        """exp(L_chi) F."""
        return self._lie_sum(lambda: self.bracket(F), F)

    def displacement(self, coord):
        """exp(L_chi) z_c - z_c (zero for coord = "xi")."""
        first = lambda: self.coordinate_bracket(coord)
        return self._lie_sum(first, self.chi._like(None, None))

    def _lie_sum(self, first, base):
        """base + sum_{s>=1} L_chi^s(seed)/s!, where first() is the s = 1
        term: the one Lie series, summed until a term drops below
        LIE_REL_TOL relative to the sum or LIE_MAX_TERMS terms have run
        (both read at the call).  A zero chi returns base.  Under the
        contraction guard the terms decay at least geometrically; the
        diagnostics carry the geometric tail estimate and the mass
        truncation dropped from the series' products, first() included."""
        if self.chi.is_zero():
            return base, LieDiagnostics(0.0, 0, 0.0, [], 0.0)
        L, params = self.contraction, self.params
        with discards() as lost:
            total = base
            term = first()
            norms = []
            s = 1
            while True:
                total = total + term
                norms.append(majorant_with_eta(term, params))
                running = majorant_with_eta(total, params)
                converged = term.is_zero() or norms[-1] <= LIE_REL_TOL * max(running, 1e-300)
                if converged or s >= LIE_MAX_TERMS:
                    break
                s += 1
                term = self.bracket(term).scale(1.0 / s)
        s_stop = s if norms[-1] > 0 else s - 1
        tail = norms[-1] * L / (1.0 - L)
        return total, LieDiagnostics(L, s_stop, tail, norms, lost.total_mass, converged)


def poisson_bracket(F: FourierTaylorSeries, G: FourierTaylorSeries, S: StructureMatrix):
    """Extended bracket {F, G}; bilinear, antisymmetric, Leibniz."""
    return LieOperator(F, S).bracket(G)


def low_degree_bracket(chi: FourierTaylorSeries, G: FourierTaylorSeries, S: StructureMatrix):
    """The |alpha| <= 1 terms of {chi, G}, for a chi of degree at most 1 in
    y, as a series of the ring cut to |alpha| <= 1: bit for bit the low
    terms of poisson_bracket(chi, G, S).

    A low term of a product comes only from low terms of its factors, and
    the cut ring forms them from the same pairs in the same order, so the
    one formula runs there on chi, the structure entries and G's partials,
    each cut.  G's partials are taken before the cut (d/dy lowers the
    degree), from G's terms of degree <= 2, the only ones with low partials.
    The products drop their other pairs into a discard_log() that is never
    charged: nothing read from the result is lost."""
    chi._check_compatible(G)
    if chi.acols.sum(axis=1).max(initial=0) > 1:
        raise ValueError("low_degree_bracket needs a chi of degree at most 1 in y")
    K, L, P = chi.trunc
    low = (K, min(L, 1), P)
    G = G.cut((K, min(L, 2), P))

    def cut(d):
        d = d.cut(low)
        return None if d.is_zero() else d

    Gy = [cut(G.partial_y(i)) for i in range(S.m)]
    Gx = [cut(G.partial_x(l)) for l in range(S.n)]
    with discard_log():
        op = LieOperator(chi.cut(low), S.cut(low))
        return op.apply(Gy, Gx, cut(G.partial_eta()), cut(G.partial_xi()))


def bracket_with_coordinate(F: FourierTaylorSeries, coord, S: StructureMatrix):
    """{F, z_c} for a coordinate function z_c in {("y", i), ("x", l), "eta", "xi"},
    whose one nonzero partial is 1.  The bare coordinates x_l and xi are not
    elements of the series ring; their derivatives are, so the bracket is."""
    return LieOperator(F, S).coordinate_bracket(coord)


# ---- convergence-controlled Lie transform ---------------------------------------


def gamma_from_block_norms(G11, G12, G22, rho, sigma) -> float:
    """Gamma_{rho,sigma} = [e^2 G11 sigma^2 + 2e G12 rho sigma + G22 rho^2] / (e rho sigma)^2."""
    return (
        E_SQ * G11 * sigma ** 2 + 2.0 * math.e * G12 * rho * sigma + G22 * rho ** 2
    ) / (math.e * rho * sigma) ** 2


def gamma_rho_sigma(S: StructureMatrix, params: WeightedNormParams) -> float:
    G11, G12, G22 = S.block_norms(params)
    return gamma_from_block_norms(G11, G12, G22, params.rho, params.sigma)


@dataclass
class LieDiagnostics:
    """converged is False when the term cap stopped the series while its
    last term was still above the relative tolerance."""

    contraction: float
    s_stop: int
    tail_bound: float
    term_norms: List[float] = field(default_factory=list)
    discarded_mass: float = 0.0
    converged: bool = True


def lie_contraction(chi, S, params: WeightedNormParams) -> float:
    """Measured contraction factor 4 e^2 Gamma ||chi||."""
    gamma = gamma_rho_sigma(S, params)
    return 4.0 * E_SQ * gamma * weighted_norm(chi, params).K


def lie_transform(
    chi: FourierTaylorSeries,
    F: FourierTaylorSeries,
    S: StructureMatrix,
    params: WeightedNormParams,
):
    """exp(L_chi) F, summed as every Lie series is (LieOperator._lie_sum).

    Raises LieDivergenceError (a StepRefusedError) from LieOperator when the
    measured contraction factor exceeds 1/2.
    """
    return LieOperator(chi, S, params).transform(F)


def lie_coordinate_displacement(
    chi: FourierTaylorSeries, coord, S: StructureMatrix, params: WeightedNormParams
):
    """exp(L_chi) z_c - z_c as a series (zero series for coord = "xi"),
    summed as every Lie series is.

    Refuses exactly as lie_transform does.
    """
    return LieOperator(chi, S, params).displacement(coord)
