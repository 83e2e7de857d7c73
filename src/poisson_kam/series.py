"""Sparse truncated Fourier-Taylor series over the decaying-exponential time ring.

A series is a finite sum of terms

    c * exp(i k.x) * y^alpha * eta^e * exp(-p*a*xi)

with k an integer wavevector (|k|_1 <= K_max), alpha a Taylor multi-index in
the actions (|alpha|_1 <= L_max), e in {0, 1} the power of the auxiliary
variable conjugate to time, and p >= 0 an integer decay index (p <= P_max).
Time dependence is restricted to finite combinations of exp(-p*a*xi); this
ring is closed under multiplication, differentiation and the per-mode
homological solve, and matches the shape of every bound used downstream.

Terms are stored as a key matrix (rows = terms, columns = k_1..k_n,
alpha_1..alpha_m, e, p) plus a complex coefficient vector, kept in a canonical
sorted order with no exactly-zero coefficients.  All operations are pure; the
arrays are marked read-only, so series can be shared freely across threads.

Multiplication forms only the pairs of terms that survive the |alpha| and p
orders: the second factor's rows are grouped by their (|alpha|, p) class,
so the rows within reach of a first-factor row are one contiguous run per
|alpha| level, and every run is expanded in one vectorized pass, so no N*M
array is built.  Each key row packs into one int64 code, and packing is
linear, so a product's code is a sum of its factors' codes.  Pairs are
taken first-factor-row by row, and the stable merge keeps that order, so
every coefficient is bit-identical to summing all N*M pairs in row-major
order.  The pairs of all first-factor rows are formed in one pass, and
every gather works on blocks of merge._BLOCK_PAIRS pairs, so the product
holds, per pair:

  - formed: its two int32 row indices and one mask byte while |k|_1 is
    summed, 9 bytes, and 8 more while the kept pairs' indices are picked
    out; a pair the |k|_1 order cuts holds 8 bytes until the cut masses
    are summed, once;
  - kept: the row indices and its code, 16 bytes;
  - merged: _merge_order tags each code with its row index in the low bits
    and sorts the tagged codes in place (no two are equal, so that order is
    the stable one), then reads back an int32 order by mask and the codes
    by shift, 20 bytes and a boundary byte; only codes too wide to take the
    tag go through numpy's stable argsort;
  - summed: the row indices and the order, 12 bytes, while each block of
    whole runs of equal codes forms its coefficients, f's times g's out of
    place, and sums each run by reduceat into the merged terms, 24 bytes
    per term with its code.

Only the merged codes are unpacked into keys.  The packing codec is built
once per ring, and a ring whose keys need more than 62 bits is refused
before anything is allocated for it.

The codes, the merges and the block size live in the merge module.  A sum
and a construction share one merge, _merge_rows, the stable sort of codes:
of a sum's operands' rows end to end, or of rows from outside the algebra
(from_terms, direct construction) once their ring is read (_read_ring).
Only the product takes the tagged sort.  Every other operation keeps the
canonical order by construction and builds through _like, which reads and
merges nothing: a derivative in y or eta, or a product with y_i, shifts one
key column by a constant on ordered rows, which keeps their order.

_number reads every number from outside: a coefficient, and through _real
a real number held to one range of _REAL_RULES, through which _integer reads
term indices, series orders, dimensions, generator steps, integer options
and the CLI's counts, each with its own bounds and error class.

Mass discarded by the hard truncation is recorded on the innermost tracker
opened by discards() in the current context, which passes it on outwards to
discard_tracker, the process total; so a Lie series or a test can count its
own discards, whatever ran before.  A product records at most one discard,
the mass of all its cut pairs.  A discard_log() block records on a tracker
with no parent instead, for a product formed once and used many times: the
tracker's charge() records its total again, as one discard, at each use.
A log that is never charged drops its mass: the bracket on the cut ring
keeps its discards so, since its products drop only terms no result reads.
The pairs cut on |alpha| or p are valued per class, |c_f| times the mass of
the second factor's classes out of reach.

taylor_split reads the Taylor blocks off by selecting on |alpha| and
differentiating in y, so it is exact.

Evaluation is written once, in SeriesStack, which values the terms of several
series at a batch of points in one pass; FourierTaylorSeries.evaluate is its
one-series, one-point case.
"""

from __future__ import annotations

import cmath
import contextlib
import contextvars
import itertools
import math
import reprlib
import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import (
    EtaDegreeError,
    NormDomainError,
    ParameterError,
    StructureMismatchError,
)
from .merge import (
    _blocks,
    _merge_codes,
    _merge_order,
    _pack,
    _pack_codec,
    _run_products,
    _unpack,
)

class Truncation(NamedTuple):
    K_max: int
    L_max: int
    P_max: int


@dataclass(frozen=True)
class WeightedNormParams:
    """Weights of the majorant norm: action radius rho, angle strip sigma."""

    rho: float
    sigma: float

    def __post_init__(self):
        for name in ("rho", "sigma"):
            object.__setattr__(self, name, _real(getattr(self, name), name, "finite and > 0"))


def weight_bounds(rho, sigma, trunc):
    """For finite positive radii rho and sigma on a ring of orders trunc, the
    bounds that keep the majorant weights rho^L_max and exp(sigma K_max)
    finite, as (name, value, rule, holds) for each radius."""
    big = math.log(sys.float_info.max)
    return [
        ("rho", rho, "such that rho^L_max is finite", trunc.L_max * math.log(rho) < big),
        ("sigma", sigma, "such that exp(sigma K_max) is finite", sigma * trunc.K_max < big),
    ]


@dataclass(frozen=True)
class DecayBound:
    """The statement  norm <= K * exp(-p * a * xi)  on the real ray xi >= 0."""

    K: float
    p: int


class TruncationTracker:
    """Accumulates coefficient mass discarded by hard truncation; a tracker
    opened by discards() passes every record on to the one it was opened in."""

    def __init__(self, parent=None):
        self.total_mass = 0.0
        self.events = 0
        self.parent = parent

    def record(self, mass: float):
        if mass > 0.0:
            self.total_mass += mass
            self.events += 1
            if self.parent is not None:
                self.parent.record(mass)

    def charge(self):
        """Record total_mass as one discard on the open tracker: what a block
        of one product records, had it run where charge is called."""
        _open_tracker.get().record(self.total_mass)


# the process total, which every discards() scope reaches in the end
discard_tracker = TruncationTracker()
_open_tracker = contextvars.ContextVar("open_tracker", default=discard_tracker)


@contextlib.contextmanager
def _opened(tracker):
    token = _open_tracker.set(tracker)
    try:
        yield tracker
    finally:
        _open_tracker.reset(token)


def discards():
    """A fresh tracker for the discards made inside the block, in this
    context only; each is also recorded by the enclosing tracker."""
    return _opened(TruncationTracker(_open_tracker.get()))


def discard_log():
    """A block whose discards go to a tracker with no parent, recorded on no
    other tracker until its charge()."""
    return _opened(TruncationTracker())


# The largest series order (K_max, L_max, P_max) a file may give.  Keys are
# int32, and a product forms the sum of two keys and its |k|_1 in int32
# before it truncates, so orders up to (2^31 - 1) // 2 keep those in range.
# It also bounds every other count a file or a flag gives.
MAX_ORDER = 2**30 - 1


def _integer(value, what, lo=None, hi=None, error=StructureMismatchError) -> int:
    """value, read from a file, an option or a flag, as an int in lo..hi (a
    bound of None is open): a number _real reads as whole.  Raises error
    naming what, and a bound refusal names the bound, never the value."""
    if type(value) is not int:
        value = int(_real(value, what, "an integer", error))
    if lo is not None and value < lo:
        raise error("%s must be at least %d" % (what, lo))
    if hi is not None and value > hi:
        raise error("%s must be at most %d" % (what, hi))
    return value


# the ranges _real reads a number by, each under the name its messages give
_REAL_RULES = {
    "a number": lambda v: True,
    "an integer": float.is_integer,
    "finite": math.isfinite,
    "finite and > 0": lambda v: math.isfinite(v) and v > 0,
    "finite and >= 0": lambda v: math.isfinite(v) and v >= 0,
    "in (0, 1)": lambda v: 0.0 < v < 1.0,
    "in (0, 1/3)": lambda v: 0.0 < v < 1.0 / 3.0,
    "a number other than NaN": lambda v: not math.isnan(v),
}


def _shown(value) -> str:
    """reprlib.repr(value), or, for a value holding an integer too long for
    Python to print, a phrase saying so."""
    try:
        return reprlib.repr(value)
    except ValueError:
        held = "" if isinstance(value, int) else "a %s holding " % type(value).__name__
        return "%san integer of more than %d digits" % (held, sys.get_int_max_str_digits())


def _number(value, kind, what, rule, error):
    """value, read from outside, as kind (float or complex): a boolean, or
    what kind() refuses, raises error "<what> must be <rule>, got <value>",
    plus kind()'s reason when the value is too large to convert."""
    if type(value) is kind:
        return value
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        got = _shown(value) + (" (%s)" % exc if isinstance(exc, OverflowError) else "")
        raise error("%s must be %s, got %s" % (what, rule, got)) from None


def _real(value, what, rule, error=ParameterError) -> float:
    """value, read from a file, an option or a flag, as a float (_number) in
    the range _REAL_RULES[rule]."""
    number = _number(value, float, what, rule, error)
    if not _REAL_RULES[rule](number):
        raise error("%s must be %s, got %s" % (what, rule, _shown(value)))
    return number


def _read_ring(n, m, decay_rate, trunc):
    """A ring from outside, read: n, m in 1..MAX_ORDER, the decay rate in
    (0, 1), each order in 0..MAX_ORDER, and its key rows must pack."""
    n, m = _integer(n, "n", 1, MAX_ORDER), _integer(m, "m", 1, MAX_ORDER)
    decay_rate = _real(decay_rate, "decay rate a", "in (0, 1)")
    orders = Truncation(*trunc)._asdict().items()
    trunc = Truncation(*(_integer(v, "series order " + k, 0, MAX_ORDER) for k, v in orders))
    _pack_codec(n, m, trunc)
    return n, m, decay_rate, trunc


def _merge_rows(keys, coeffs, codec):
    """Each distinct key row once, in canonical order, with the sum of its
    coefficients in row order: the stable merge of their codes."""
    _, first, coeffs = _merge_codes(_pack(keys, codec), coeffs)
    return keys.take(first, axis=0), coeffs


def _tuples(cols):
    """The rows of a list of equal-length columns, as tuples; () for each
    row when there are no columns."""
    return zip(*cols) if cols else itertools.repeat(())


class FourierTaylorSeries:
    """Immutable sparse series; see module docstring for the term model."""

    __slots__ = ("n", "m", "decay_rate", "trunc", "keys", "coeffs")

    def __init__(self, n, m, decay_rate, trunc, keys=None, coeffs=None, _canonical=False):
        if not _canonical:
            n, m, decay_rate, trunc = _read_ring(n, m, decay_rate, trunc)
        self.n, self.m, self.decay_rate, self.trunc = n, m, decay_rate, trunc
        ncols = n + m + 2
        if keys is None:
            keys = np.zeros((0, ncols), dtype=np.int32)
            coeffs = np.zeros(0, dtype=np.complex128)
        keys = np.asarray(keys, dtype=np.int32).reshape(-1, ncols)
        coeffs = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
        if keys.shape[0] != coeffs.shape[0]:
            raise StructureMismatchError("keys/coeffs length mismatch")
        if not _canonical:
            keys, coeffs = _merge_rows(keys, coeffs, _pack_codec(n, m, trunc))
        keep = coeffs != 0
        if not keep.all():
            keys, coeffs = keys[keep], coeffs[keep]
        keys.setflags(write=False)
        coeffs.setflags(write=False)
        self.keys = keys
        self.coeffs = coeffs

    # ---- construction ------------------------------------------------

    @classmethod
    def zeros(cls, n, m, decay_rate, trunc):
        return cls(n, m, decay_rate, trunc)

    @classmethod
    def from_terms(cls, n, m, decay_rate, trunc, terms: Iterable):
        """Build from an iterable of (k, alpha, e, p, coefficient); the indices
        are read by _integer, alpha and p must not be negative, and a
        coefficient is what complex() takes, read by _number."""
        n, m, decay_rate, trunc = _read_ring(n, m, decay_rate, trunc)
        rows, cs = [], []
        for k, alpha, e, p, c in terms:
            k = tuple(_integer(v, "term index") for v in k)
            alpha = tuple(_integer(v, "term index", 0) for v in alpha)
            e, p = _integer(e, "term index"), _integer(p, "term index", 0)
            if len(k) != n or len(alpha) != m:
                raise StructureMismatchError("key length does not match dims")
            if e not in (0, 1):
                raise EtaDegreeError("eta power must be 0 or 1")
            if (
                sum(abs(v) for v in k) > trunc.K_max
                or sum(alpha) > trunc.L_max
                or p > trunc.P_max
            ):
                raise StructureMismatchError("term outside the truncation orders")
            c = _number(c, complex, "coefficient", "a number", ParameterError)
            if not cmath.isfinite(c):
                raise ParameterError("non-finite coefficient %r at k=%s" % (c, list(k)))
            rows.append(k + alpha + (e, p))
            cs.append(c)
        keys = np.asarray(rows, dtype=np.int32).reshape(-1, n + m + 2)
        return cls(n, m, decay_rate, trunc, keys, np.asarray(cs, dtype=np.complex128))

    @classmethod
    def constant(cls, value, like: "FourierTaylorSeries"):
        terms = [((0,) * like.n, (0,) * like.m, 0, 0, value)] if value != 0 else []
        return cls.from_terms(*like.ring, terms)

    def _like(self, keys, coeffs):
        """A series of this ring from rows in canonical order: nothing is
        read and no merge runs."""
        return FourierTaylorSeries(*self.ring, keys, coeffs, _canonical=True)

    # ---- key column views ---------------------------------------------

    @property
    def kcols(self):
        return self.keys[:, : self.n]

    @property
    def acols(self):
        return self.keys[:, self.n : self.n + self.m]

    @property
    def ecol(self):
        return self.keys[:, self.n + self.m]

    @property
    def pcol(self):
        return self.keys[:, self.n + self.m + 1]

    # ---- basic queries -------------------------------------------------

    @property
    def ring(self):
        """(n, m, decay_rate, trunc): what a series of this ring is built from."""
        return self.n, self.m, self.decay_rate, self.trunc

    @property
    def num_terms(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return len(self.coeffs) == 0

    def is_action_only(self) -> bool:
        """True when every term has k = 0, e = 0, p = 0 (pure y dependence)."""
        return not (self.kcols.any() or self.ecol.any() or self.pcol.any())

    def max_abs_coeff(self) -> float:
        return float(np.abs(self.coeffs).max()) if len(self.coeffs) else 0.0

    def min_decay_index(self):
        """Smallest p in the support, or None for the zero series."""
        return int(self.pcol.min()) if len(self.coeffs) else None

    def dominant_min_decay_index(self):
        """Smallest p among terms of size at least 1e-9 of the largest.

        Exact cancellations leave rounding dust ~1e-16 of the cancelled
        magnitude at the old keys; the decay-order bookkeeping of the scheme
        concerns the dominant support, so dust is excluded here.
        """
        if self.is_zero():
            return None
        big = np.abs(self.coeffs) >= 1e-9 * self.max_abs_coeff()
        return int(self.pcol[big].min())

    def coefficient(self, k, alpha, e, p) -> complex:
        row = np.asarray(tuple(k) + tuple(alpha) + (e, p), dtype=np.int32)
        hits = np.flatnonzero((self.keys == row).all(axis=1))
        return complex(self.coeffs[hits[0]]) if len(hits) else 0j

    def terms(self):
        n, m = self.n, self.m
        for row, c in zip(self.keys.tolist(), self.coeffs.tolist()):
            yield tuple(row[:n]), tuple(row[n : n + m]), row[n + m], row[n + m + 1], c

    def _check_compatible(self, other: "FourierTaylorSeries"):
        if self.ring != other.ring:
            raise StructureMismatchError("series disagree on dims, decay rate or truncation")

    def __eq__(self, other):
        if not isinstance(other, FourierTaylorSeries):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.keys.shape == other.keys.shape
            and bool((self.keys == other.keys).all())
            and bool((self.coeffs == other.coeffs).all())
        )

    __hash__ = None

    def __repr__(self):
        return "FourierTaylorSeries(n=%d, m=%d, terms=%d)" % (
            self.n,
            self.m,
            self.num_terms,
        )

    # ---- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = FourierTaylorSeries.constant(other, self)
        self._check_compatible(other)
        keys = np.concatenate([self.keys, other.keys])
        coeffs = np.concatenate([self.coeffs, other.coeffs])
        return self._like(*_merge_rows(keys, coeffs, _pack_codec(self.n, self.m, self.trunc)))

    __radd__ = __add__

    def __neg__(self):
        return self._like(self.keys, -self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, FourierTaylorSeries) else -complex(other))

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, factor) -> "FourierTaylorSeries":
        factor = complex(factor)
        if factor == 0:
            return self._like(None, None)
        return self._like(self.keys, self.coeffs * factor)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        self._check_compatible(other)
        return _series_mul(self, other)

    def __rmul__(self, other):
        return self.scale(other)

    def __truediv__(self, other):
        return self.scale(1.0 / complex(other))

    # ---- derivatives ----------------------------------------------------

    def _times(self, factor) -> "FourierTaylorSeries":
        """Each term times its factor, the terms whose factor is 0 dropped."""
        keep = factor != 0
        return self._like(self.keys[keep], self.coeffs[keep] * factor[keep])

    def _shift(self, keep, col, step, coeffs) -> "FourierTaylorSeries":
        """Rows keep with coefficients coeffs and column col moved by step: still canonical."""
        keys = self.keys[keep]
        keys[:, col] += step
        return self._like(keys, coeffs)

    def partial_x(self, l: int) -> "FourierTaylorSeries":
        """d/dx_l: multiply each term by i*k_l."""
        return self._times(1j * self.keys[:, l].astype(np.float64))

    def partial_y(self, i: int) -> "FourierTaylorSeries":
        """d/dy_i: alpha_i -> alpha_i - 1 with factor alpha_i."""
        col = self.n + i
        keep = self.keys[:, col] > 0
        return self._shift(keep, col, -1, self.coeffs[keep] * self.keys[keep, col])

    def partial_eta(self) -> "FourierTaylorSeries":
        """d/deta: the terms with e = 1, now e = 0."""
        keep = self.ecol == 1
        return self._shift(keep, self.n + self.m, -1, self.coeffs[keep])

    def partial_xi(self) -> "FourierTaylorSeries":
        """d/dxi: each term carries exp(-p*a*xi), so factor is -p*a."""
        return self._times(-self.decay_rate * self.pcol.astype(np.float64))

    def directional_x(self, omega) -> "FourierTaylorSeries":
        """Angle derivative along omega: multiply each term by i*(k.omega)."""
        return self._times(1j * (self.kcols.astype(np.float64) @ np.asarray(omega, np.float64)))

    def mul_y(self, i: int) -> "FourierTaylorSeries":
        """Multiply by the monomial y_i (truncating |alpha| > L_max)."""
        keep = self.acols.sum(axis=1) < self.trunc.L_max
        _open_tracker.get().record(float(np.abs(self.coeffs[~keep]).sum()))
        return self._shift(keep, self.n + i, 1, self.coeffs[keep])

    def cut(self, trunc) -> "FourierTaylorSeries":
        """The terms within the orders trunc, as a series of that ring.  The
        canonical order is lexicographic in the key rows in every ring, so
        the kept rows stay canonical; a selection records no discard."""
        *_, trunc = ring = _read_ring(self.n, self.m, self.decay_rate, trunc)
        keep = (
            (np.abs(self.kcols).sum(axis=1) <= trunc.K_max)
            & (self.acols.sum(axis=1) <= trunc.L_max)
            & (self.pcol <= trunc.P_max)
        )
        return FourierTaylorSeries(*ring, self.keys[keep], self.coeffs[keep], _canonical=True)

    # ---- evaluation ------------------------------------------------------

    def evaluate(self, y, x, eta=0.0, xi=0.0) -> complex:
        """Pointwise value; the universal oracle for the algebra tests."""
        point = (np.reshape(y, (1, self.m)), np.reshape(x, (1, self.n)), [eta], [xi])
        return complex(SeriesStack([self]).evaluate(*point)[0, 0])

    # ---- structure edits --------------------------------------------------

    def select(self, mask) -> "FourierTaylorSeries":
        return self._like(self.keys[mask], self.coeffs[mask])

    def eta_part(self) -> "FourierTaylorSeries":
        return self.select(self.ecol == 1)

    def eta_free_part(self) -> "FourierTaylorSeries":
        return self.select(self.ecol == 0)

    def drop_pure_constant(self) -> "FourierTaylorSeries":
        """Remove the k=0, alpha=0, e=0, p=0 term (additive energy constant)."""
        mask = ~((self.keys == 0).all(axis=1))
        return self.select(mask)

    def is_real_symmetric(self, tol: float = 0.0) -> bool:
        """c(k, .) == conj(c(-k, .)) for every stored term."""
        if self.is_zero():
            return True
        flipped = self.keys.copy()
        flipped[:, : self.n] *= -1
        table = {row.tobytes(): c for row, c in zip(self.keys, self.coeffs)}
        for row, c in zip(flipped, self.coeffs):
            mate = table.get(row.tobytes())
            if mate is None:
                return False
            if abs(mate - np.conj(c)) > tol * max(1.0, abs(c)):
                return False
        return True

    # ---- serialization ----------------------------------------------------

    def to_payload(self) -> dict:
        """The series as JSON-ready data.  The keys are read column by
        column, so no list is made per row, and terms with equal k share one
        k tuple, and likewise for alpha."""
        n, m = self.n, self.m
        cols = self.keys.T.tolist()
        shared = {}
        terms = []
        for k, alpha, e, p, re, im in zip(
            _tuples(cols[:n]),
            _tuples(cols[n : n + m]),
            cols[n + m],
            cols[n + m + 1],
            self.coeffs.real.tolist(),
            self.coeffs.imag.tolist(),
        ):
            terms.append(
                {
                    "k": shared.setdefault(k, k),
                    "alpha": shared.setdefault(alpha, alpha),
                    "e": e,
                    "p": p,
                    "re": re,
                    "im": im,
                }
            )
        return {
            "n": self.n,
            "m": self.m,
            "a": self.decay_rate,
            "K_max": self.trunc.K_max,
            "L_max": self.trunc.L_max,
            "P_max": self.trunc.P_max,
            "terms": terms,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FourierTaylorSeries":
        terms = [
            (t["k"], t["alpha"], t["e"], t["p"],
             complex(_real(t["re"], "coefficient re", "a number"),
                     _real(t["im"], "coefficient im", "a number")))
            for t in payload["terms"]
        ]
        trunc = [payload[k] for k in Truncation._fields]
        return cls.from_terms(payload["n"], payload["m"], payload["a"], trunc, terms)


class SeriesStack:
    """Several series of one ring, evaluated together at a batch of points:
    every term is valued at every point in one pass, and each series is
    summed over its own slice with .sum(axis=1), numpy's pairwise sum along
    a contiguous row as on a standalone array, so entry (i, j) reads
    parts[j].evaluate(point i) bit for bit, whatever the other points."""

    def __init__(self, parts):
        rings = {(p.n, p.m, p.decay_rate) for p in parts}
        if len(rings) != 1:
            raise StructureMismatchError("stacked series must share n, m and the decay rate")
        ((self.n, self.m, self.decay_rate),) = rings
        sizes = [p.num_terms for p in parts]
        ends = np.cumsum(sizes).tolist()
        self.bounds = list(zip([0] + ends[:-1], ends))
        self.keys = np.concatenate([p.keys for p in parts])
        self.coeffs = np.concatenate([p.coeffs for p in parts])
        # a series with an eta term raises every one of its terms to eta**e
        self.eta_rows = np.repeat([p.ecol.any() for p in parts], sizes)

    def evaluate(self, y, x, eta, xi) -> np.ndarray:
        """The complex value of every part at P points, shape (P, parts), in
        part order: y is (P, m), x is (P, n), eta and xi are (P,)."""
        n, m, keys, rows = self.n, self.m, self.keys, self.eta_rows
        x = np.asarray(x, dtype=np.complex128).reshape(-1, n)
        P = len(x)
        if not len(self.coeffs):
            return np.zeros((P, len(self.bounds)), dtype=np.complex128)
        y = np.asarray(y, dtype=np.complex128).reshape(P, m)
        # k.x summed per term: a matrix product sends a one-row key matrix
        # through a fused dot, so a term's phase would depend on the rows
        # beside it.  coeffs goes in as a (1, T) row: numpy rounds the
        # complex product of a (1,) and a (1, 1) array unlike any other
        # shape, which would single out a one-term series at one point
        vals = self.coeffs[None, :] * np.exp(1j * (keys[None, :, :n] * x[:, None, :]).sum(axis=-1))
        if m:
            vals = vals * np.prod(np.power(y[:, None, :], keys[None, :, n : n + m]), axis=-1)
        if rows.any():
            eta = np.asarray(eta, dtype=np.complex128).reshape(P, 1)
            vals[:, rows] = vals[:, rows] * np.power(eta, keys[rows, n + m])
        # the decay exponent -a xi per point in Python complex arithmetic,
        # as a lone point has always formed it
        rate = np.array([-self.decay_rate * complex(v) for v in np.ravel(xi)])
        vals = vals * np.exp(rate[:, None] * keys[:, n + m + 1])
        return np.stack([vals[:, a:b].sum(axis=1) for a, b in self.bounds], axis=1)


def _series_mul(f: FourierTaylorSeries, g: FourierTaylorSeries) -> FourierTaylorSeries:
    """f * g from the pairs (i, j) within the |alpha| and p orders only, taken
    in i-major order (see the module docstring).  g's keys are unique, so
    each f row adds at most once to an output key, and every coefficient is
    the row-major all-pairs sum bit for bit.  The pairs are formed in one
    pass and gathered in blocks of merge._BLOCK_PAIRS; one discard event is
    recorded when a pair is dropped."""
    if f.is_zero() or g.is_zero():
        return f._like(None, None)
    if f.ecol.any() and g.ecol.any():
        raise EtaDegreeError("product would carry eta^2; misuse of the scheme")
    n = f.n
    K, L, P = f.trunc
    codec = _pack_codec(n, f.m, f.trunc)
    # g in (|alpha|, p) class order; class (a, p) is a * (P + 1) + p, and it
    # is rows first[c] .. first[c + 1] of the sorted g
    classes = (L + 1) * (P + 1)
    g_class = g.acols.sum(axis=1, dtype=np.int64) * (P + 1) + g.pcol
    order = np.argsort(g_class, kind="stable")
    counts = np.bincount(g_class, minlength=classes)
    first = np.concatenate([[0], np.cumsum(counts)])
    level_start = np.arange(0, classes, P + 1)
    level_first = first[level_start]
    # for each room (ra, rp) of an f row: the number of g rows with
    # |alpha| <= ra and p <= rp, and the g mass out of reach, built from
    # suffix sums of nonnegative masses (never as total - reachable, which
    # cancels); tails[a, p] is the mass of class a at p or above
    reach = counts.reshape(L + 1, P + 1).cumsum(axis=0).cumsum(axis=1)
    mass = np.bincount(g_class, weights=np.abs(g.coeffs), minlength=classes)
    tails = np.zeros((L + 2, P + 2))
    tails[:-1, :-1] = mass.reshape(L + 1, P + 1)
    tails = tails[:, ::-1].cumsum(axis=1)[:, ::-1]
    above = tails[::-1, 0].cumsum()[::-1]
    unreached = above[1:, None] + tails[:-1, 1:].cumsum(axis=0)

    room_a = L - f.acols.sum(axis=1, dtype=np.int64)
    room_p = P - f.pcol.astype(np.int64)
    pairs = reach[room_a, room_p]
    f_abs = np.abs(f.coeffs)
    g_keys, g_coeffs = g.keys.take(order, axis=0), g.coeffs[order]
    fk = np.ascontiguousarray(f.kcols.T)
    gk = np.ascontiguousarray(g_keys[:, :n].T)
    f_codes = f.keys @ codec.strides
    g_codes = _pack(g_keys, codec)

    # one run per (f row, |alpha| level a): the g rows of classes (a, 0..rp),
    # empty above the row's |alpha| room; j is a run's first g row plus the
    # pair's place less the run's
    length = first[level_start + room_p[:, None] + 1] - level_first
    length = (length * (np.arange(L + 1) <= room_a[:, None])).ravel()
    lo = np.tile(level_first, f.num_terms)
    i = np.repeat(np.arange(f.num_terms, dtype=np.int32), pairs)
    j = np.repeat((lo - (np.cumsum(length) - length)).astype(np.int32), length)
    for block in _blocks(len(j)):
        j[block] += np.arange(block.start, block.stop, dtype=np.int32)
    near, far_mass = _k_filter(i, j, fk, gk, K, f.coeffs, g_coeffs)
    lost = float(f_abs @ unreached[room_a, room_p])
    if not near.all():
        lost += far_mass
        i, j = i[near], j[near]
    del near
    _open_tracker.get().record(lost)
    if len(i) == 0:
        return f._like(None, None)
    # a kept pair is its two int32 row indices and its code until the merge
    codes = np.empty(len(i), dtype=np.int64)
    for block in _blocks(len(i)):
        np.add(f_codes.take(i[block]), g_codes.take(j[block]), out=codes[block])
    order, starts = _merge_order(codes)
    codes = codes[starts]
    coeffs = _run_products(f.coeffs, g_coeffs, i, j, order, starts)
    del i, j, order
    return f._like(_unpack(codes, codec), coeffs)


def _k_filter(i, j, fk, gk, K, f_coeffs, g_coeffs):
    """Which pairs (i, j) have |k|_1 <= K, as a mask, and the mass |f_i g_j|
    of the others, summed once in pair order; formed block by block, so no
    gathered array is longer than _BLOCK_PAIRS."""
    near = np.empty(len(i), dtype=bool)
    far_abs = []
    for block in _blocks(len(i)):
        # take copies an int32 index to intp at every call; once per block
        ib, jb = i[block].astype(np.intp), j[block].astype(np.intp)
        k_norm = np.zeros(len(ib), dtype=np.int32)
        for col in range(len(fk)):
            k_norm += np.abs(fk[col].take(ib) + gk[col].take(jb))
        ok = np.less_equal(k_norm, K, out=near[block])
        if not ok.all():
            far = ~ok
            far_abs.append(np.abs(np.multiply(f_coeffs.take(ib[far]), g_coeffs.take(jb[far]))))
    return near, float(np.concatenate(far_abs).sum()) if far_abs else 0.0


# ---- norms ------------------------------------------------------------------


def _majorant(f: FourierTaylorSeries, params: WeightedNormParams, include_eta: bool) -> float:
    if f.is_zero():
        return 0.0
    if not include_eta and f.ecol.any():
        raise NormDomainError("weighted norm is defined for eta-free series only")
    weights = np.abs(f.coeffs)
    weights = weights * np.power(params.rho, f.acols.sum(axis=1).astype(np.float64))
    weights = weights * np.exp(
        params.sigma * np.abs(f.kcols).sum(axis=1).astype(np.float64)
    )
    return float(weights.sum())


def weighted_norm(f: FourierTaylorSeries, params: WeightedNormParams) -> DecayBound:
    """Majorant of the weighted Fourier norm on the real time ray.

    Returns (K, p) with K = sum |c| rho^|alpha| exp(|k| sigma) and p the
    smallest decay index in the support, i.e. norm(f) <= K exp(-p*a*xi).
    Raises NormDomainError when the series carries eta (never normalized).
    """
    K = _majorant(f, params, include_eta=False)
    p = f.min_decay_index()
    return DecayBound(K, 0 if p is None else p)


def majorant_with_eta(f: FourierTaylorSeries, params: WeightedNormParams) -> float:
    """Internal stopping norm for Lie series: eta contributes weight 1."""
    return _majorant(f, params, include_eta=True)


# ---- Taylor split / reassembly ----------------------------------------------


def taylor_split(f: FourierTaylorSeries):
    """Split f (eta-free) into (A, B, C, R) with f = A + B.y + (1/2) C y.y + R.

    A collects |alpha| = 0 and R every term with |alpha| >= 3.  B_i is the
    y_i-derivative of the |alpha| = 1 terms, and C the y-Hessian of the
    |alpha| = 2 terms, so C is symmetric and C_ii is twice the y_i^2
    coefficient; partial_y supplies both factors exactly, and reassembly is
    exact.
    """
    if f.ecol.any():
        raise NormDomainError("taylor_split expects an eta-free series")
    tot = f.acols.sum(axis=1)
    linear, quadratic = f.select(tot == 1), f.select(tot == 2)
    B = [linear.partial_y(i) for i in range(f.m)]
    C = [[quadratic.partial_y(i).partial_y(l) for l in range(f.m)] for i in range(f.m)]
    return f.select(tot == 0), B, C, f.select(tot >= 3)


def reassemble_taylor(A, B, C, R) -> FourierTaylorSeries:
    """Exact inverse of taylor_split: A + sum B_i y_i + 1/2 sum C_il y_i y_l + R."""
    total = A + R
    m = A.m
    for i in range(m):
        total = total + B[i].mul_y(i)
    for i in range(m):
        for l in range(m):
            total = total + C[i][l].mul_y(i).mul_y(l).scale(0.5)
    return total


def shift_action_expansion(f: FourierTaylorSeries, y_star) -> FourierTaylorSeries:
    """Re-expand around y*: substitute y -> y + y* (exact binomial expansion).

    Used once at initialization to move the expansion point to the origin.
    A power of y* that overflows (Python floats raise on it) or a shifted
    coefficient that is not finite raises ParameterError naming y_star.
    """
    y_star = np.asarray(y_star, dtype=np.float64).reshape(f.m).tolist()
    if not any(y_star) or f.is_zero():
        return f
    terms = []
    try:
        for k, alpha, e, p, c in f.terms():
            for new_alpha in itertools.product(*(range(ai + 1) for ai in alpha)):
                w = 1.0
                for ai, j, y in zip(alpha, new_alpha, y_star):
                    w = w * math.comb(ai, j) * y ** (ai - j)
                if w != 0.0:
                    terms.append((k, new_alpha, e, p, c * w))
        if not all(cmath.isfinite(term[4]) for term in terms):
            raise OverflowError
    except OverflowError:
        raise ParameterError("y_star = %s overflows the shifted series" % y_star) from None
    return FourierTaylorSeries.from_terms(*f.ring, terms)
