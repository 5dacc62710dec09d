"""Latent-state recursions f(s, y, x) and their contraction/growth envelopes.

Three shapes: a linear recursion with covariate-dependent coefficients, a
two-regime threshold recursion switching on where the observation falls,
and an ARMA-like form a(x)s + g(y,x) - a(x)y.  All are Lipschitz in the
state argument only (no continuity in y is needed), and each exposes its
exact per-covariate Lipschitz constant plus an additive growth envelope
|f(s,y,x)| <= kappa(x)|s| + kappa_tilde(x)|y|^i + delta_tilde(x).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .covariates import (
    CoefficientMap,
    ConstantMap,
    DerivedMap,
    abs_map,
    max_map,
    provable_sup,
    sum_map,
)
from ._codec import Spec
from .errors import InvalidSpec


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Interval(Spec):
    """The endpoints of an interval map and their checks."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise InvalidSpec("interval needs lo <= hi")

    @property
    def is_bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)


@dataclass(frozen=True)
class FixedInterval(_Interval):
    tag = ("kind", "fixed")

    def bounds(self, x):
        """(lo, hi) with I(x) = [lo, hi]; scalars here, per covariate row for CovariateScaled."""
        return self.lo, self.hi

    def sup_abs(self, x) -> float:
        return max(abs(self.lo), abs(self.hi))


@dataclass(frozen=True)
class CovariateScaled(_Interval):
    """[lo |x|, hi |x|], |x| the summed absolute value of each covariate row."""

    tag = ("kind", "covariate_scaled")

    @staticmethod
    def _scale(x):
        return np.abs(np.atleast_1d(np.asarray(x, dtype=float))).sum(axis=-1)

    def bounds(self, x):
        a = self._scale(x)
        return self.lo * a, self.hi * a

    def sup_abs(self, x):
        return max(abs(self.lo), abs(self.hi)) * self._scale(x)


IntervalMap = FixedInterval | CovariateScaled


# ---------------------------------------------------------------------------
# link variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CategoryTable(Spec):
    """Additive state increment per observation category (multinomial links).

    Column y of the (N - 1 x N) table of N categories is added to kappa(x)s,
    the one-hot reading of "kappa_tilde(x) y".
    """

    tag = ("kind", "category_table")
    values: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2:
            raise InvalidSpec("category table must be 2-d")
        object.__setattr__(self, "values", tuple(tuple(row) for row in arr))

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.values)

    @property
    def n_categories(self) -> int:
        return self.array.shape[1]

    def max_inf_norm(self) -> float:
        return float(np.max(np.abs(self.array)))


class _Link(Spec):
    """The checks every link shape shares: order 1 or 2, and a finite floor (None is no floor)."""

    def __post_init__(self):
        if self.order not in (1, 2):
            raise InvalidSpec("link order must be 1 or 2")
        if self.floor is not None and not (isinstance(self.floor, numbers.Real) and math.isfinite(self.floor)):
            raise InvalidSpec(f"link floor must be a finite number, got {self.floor!r}")


@dataclass(frozen=True)
class LinearLink(_Link):
    """f(s,y,x) = kappa(x) s + kappa_tilde(x) y^i + delta_tilde(x)."""

    tag = ("variant", "linear")
    kappa: CoefficientMap
    kappa_tilde: CoefficientMap | CategoryTable
    delta_tilde: CoefficientMap
    order: int = 1
    floor: float | None = None


@dataclass(frozen=True)
class RegimeCoefficients(Spec):
    kappa: CoefficientMap
    kappa_tilde: CoefficientMap
    gamma: CoefficientMap


@dataclass(frozen=True)
class ThresholdLink(_Link):
    """Regime 1 applies when y falls in I(x), regime 2 otherwise."""

    tag = ("variant", "threshold")
    regime_in: RegimeCoefficients
    regime_out: RegimeCoefficients
    interval: IntervalMap
    order: int = 1
    floor: float | None = None


@dataclass(frozen=True)
class ArmaLikeLink(_Link):
    """f(s,y,x) = a(x)s + g(y,x) - a(x)y with g(y,x) = c(x) + b(x) y.

    Driving a location kernel, this gives varying-coefficient ARMA(1,1)
    observations.  The regression g is affine in y by construction, so the
    growth envelope always exists at order 1.
    """

    tag = ("variant", "arma_like")
    a: CoefficientMap
    g_intercept: CoefficientMap
    g_slope: CoefficientMap
    floor: float | None = None

    @property
    def order(self) -> int:
        return 1


LinkSpec = LinearLink | ThresholdLink | ArmaLikeLink


def category_table(link: LinkSpec) -> CategoryTable | None:
    """The category table of a multinomial link, None for every other link."""
    kt = getattr(link, "kappa_tilde", None)
    return kt if isinstance(kt, CategoryTable) else None


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def coefficient_maps(link: LinkSpec) -> list:
    """The link's coefficient maps, in the column order of ``coefficient_table``."""
    if isinstance(link, ThresholdLink):
        return [m for r in (link.regime_in, link.regime_out) for m in (r.kappa, r.kappa_tilde, r.gamma)]
    if isinstance(link, ArmaLikeLink):
        return [link.a, link.g_intercept, link.g_slope]
    return [link.kappa, link.delta_tilde] if category_table(link) else [link.kappa, link.kappa_tilde, link.delta_tilde]


def coefficient_table(link: LinkSpec, x) -> np.ndarray:
    """The link's coefficients at each covariate row of x (d,) or (n, d): an (n, k) table.

    The one place that evaluates the link's maps.  Columns: linear (kappa,
    kappa_tilde, delta_tilde), or (kappa, delta_tilde) with a category table;
    threshold (kappa, kappa_tilde, gamma) per regime, then I(x) = [lo, hi];
    ARMA-like (a, c, b).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    cols = [m.evaluate(x) for m in coefficient_maps(link)]
    if isinstance(link, ThresholdLink):
        cols += link.interval.bounds(x)
    return np.column_stack([np.broadcast_to(c, len(x)) for c in cols])


def step(link: LinkSpec, row, s, y):
    """f(s, y, x) from the coefficients of x: a table row, or the table's columns for a batch.

    s and y may be batched along axis 0; a value not batched is shared by
    every row.  Multinomial states are (N - 1,) or (n, N - 1) and y
    is a category index.  The floor clamp comes last (it is 1-Lipschitz, so
    contraction constants are unchanged).  Overflow gives inf, not an error;
    ``float_step`` steps one Python float state with the same bits.
    """
    table = category_table(link)
    s, y = np.asarray(s, dtype=float), np.asarray(y, dtype=float if table is None else int)
    out = batch_step(link)(row, s, y)
    return out if np.ndim(out) else float(out)


def batch_step(link: LinkSpec):
    """``step``'s array formula for the link's shape, as a function (row, s, y) -> array that loops
    stepping one batch per time fix once per run.  s is a float array; y a float array, a 0/1 int
    array (a binary draw, which numpy promotes to the same bits) or, for a category table, an int
    array of categories.  Overflow warns as numpy does."""
    table, sq = category_table(link), link.order == 2
    if table is not None:
        increments = table.array.T

        def fstep(row, s, y):
            # a trailing axis on k and d broadcasts them over the state coordinates
            k, d = row
            return np.asarray(k)[..., None] * s + increments[y] + np.asarray(d)[..., None]
    elif isinstance(link, ThresholdLink):
        def fstep(row, s, y):
            k1, kt1, g1, k2, kt2, g2, lo, hi = row
            yi = y * y if sq else y  # numpy's y**2 is y*y; Python's float ** overflows
            return np.where((y >= lo) & (y <= hi), k1 * s + kt1 * yi + g1, k2 * s + kt2 * yi + g2)
    elif isinstance(link, LinearLink):
        def fstep(row, s, y):
            k, kt, d = row
            return k * s + kt * (y * y if sq else y) + d
    else:
        def fstep(row, s, y):
            a, c, b = row
            return a * s + c + b * y - a * y
    if link.floor is None:
        return fstep
    floor = link.floor
    return lambda row, s, y: np.maximum(fstep(row, s, y), floor)


def float_step(link: LinkSpec):
    """``step`` of one Python float state for a scalar link, as a function (row, s, y) -> float of
    one table row (a ``tolist()`` row, or a tuple of the columns' items): the bits of a (1,) batch,
    with no warning (overflow gives inf).  The floor acts as numpy's maximum: f on a tie (so +-0),
    and a NaN state stays NaN; no floor is -inf, which keeps every value."""
    sq, f = link.order == 2, -math.inf if link.floor is None else float(link.floor)
    if isinstance(link, ThresholdLink):
        def fstep(row, s, y):
            k1, kt1, g1, k2, kt2, g2, lo, hi = row
            y = float(y)
            yi = y * y if sq else y
            out = k1 * s + kt1 * yi + g1 if (y >= lo) & (y <= hi) else k2 * s + kt2 * yi + g2
            return out if out > f or out != out else f
    elif isinstance(link, LinearLink):
        def fstep(row, s, y):
            k, kt, d = row
            y = float(y)
            out = k * s + kt * (y * y if sq else y) + d
            return out if out > f or out != out else f
    else:
        def fstep(row, s, y):
            a, c, b = row
            y = float(y)
            out = a * s + c + b * y - a * y
            return out if out > f or out != out else f
    return fstep


def _coefficients(link: LinkSpec, x):
    """The table row of one covariate row x (d,), or the table's columns for a batch (n, d)."""
    table = coefficient_table(link, x)
    return table[0] if np.ndim(x) <= 1 else table.T


def apply(link: LinkSpec, s, y, x):
    """``step`` on the coefficient table of x (d,) or (n, d); loops over a path
    build its table once and call ``step`` per time instead."""
    return step(link, _coefficients(link, x), s, y)


def contraction_map(link: LinkSpec) -> CoefficientMap:
    """Exact per-covariate Lipschitz constant of s -> f(s, y, x)."""
    if isinstance(link, LinearLink):
        return abs_map(link.kappa)
    if isinstance(link, ThresholdLink):
        return max_map(
            "max(|kappa_1|,|kappa_2|)",
            abs_map(link.regime_in.kappa),
            abs_map(link.regime_out.kappa),
        )
    return abs_map(link.a)


def state_multiplier(link: LinkSpec, row, y):
    """The exact multiplier of s in f(s, y, x); ``row`` as in ``step``.  A threshold link's
    depends on y and is an array over y; every other shape's is the row's first column, row[0],
    for any y.

    Differences of two states sharing (y, x) scale by exactly this factor
    (before any floor clamp); gap-tracking couplings use it to propagate
    separations below the floating-point resolution of the states.
    """
    if isinstance(link, ThresholdLink):
        k1, _, _, k2, _, _, lo, hi = row
        y = np.asarray(y, dtype=float)
        return np.where((y >= lo) & (y <= hi), k1, k2)
    return row[0]


def state_coefficients(link: LinkSpec, y, x) -> np.ndarray:
    """``state_multiplier`` on the coefficient table of x (d,) or (n, d), as an array over y."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return np.full(y.shape, state_multiplier(link, _coefficients(link, x), y))


@dataclass(frozen=True)
class GrowthEnvelope:
    """Maps certifying |f(s,y,x)| <= kappa|s| + kappa_tilde |y|^i + delta_tilde."""

    kappa_map: CoefficientMap
    kappa_tilde_map: CoefficientMap
    delta_map: CoefficientMap
    order: int
    is_contractive_in_s: bool
    case: str  # linear | pratique2-case1 | pratique2-case2 | arma

    def bound(self, s, y, x) -> float:
        ynorm = float(np.max(np.abs(np.atleast_1d(y))))
        snorm = float(np.max(np.abs(np.atleast_1d(s))))
        return float(
            self.kappa_map.evaluate(x) * snorm
            + self.kappa_tilde_map.evaluate(x) * ynorm**self.order
            + self.delta_map.evaluate(x)
        )

    def to_dict(self):
        return {
            "kappa": self.kappa_map.to_dict(),
            "kappa_tilde": self.kappa_tilde_map.to_dict(),
            "delta_tilde": self.delta_map.to_dict(),
            "order": self.order,
            "is_contractive_in_s": self.is_contractive_in_s,
            "case": self.case,
        }


def growth_envelope(link: LinkSpec) -> GrowthEnvelope:
    """Additive growth envelope of the recursion.

    Threshold links with a bounded interval get the refined envelope: the
    regime-1 observation term is bounded on I(x) and absorbed into the
    intercept, so only the regime-2 slope survives in front of |y|^i.
    """
    order = link.order
    if isinstance(link, LinearLink) and isinstance(link.kappa_tilde, CategoryTable):
        # one-hot observations: the table term is bounded, so it lives
        # in the intercept and the |y| slope is zero
        kt, case = ConstantMap(0.0, nonnegative=True), "linear"
        delta = sum_map(
            "|delta_tilde| + max_y|table|",
            abs_map(link.delta_tilde),
            ConstantMap(link.kappa_tilde.max_inf_norm(), nonnegative=True),
        )
    elif isinstance(link, LinearLink):
        kt, delta, case = abs_map(link.kappa_tilde), abs_map(link.delta_tilde), "linear"
    elif isinstance(link, ThresholdLink):
        r1, r2 = link.regime_in, link.regime_out
        gmax = max_map("max(|gamma_1|,|gamma_2|)", abs_map(r1.gamma), abs_map(r2.gamma))
        if link.interval.is_bounded:
            kt1 = abs_map(r1.kappa_tilde)
            absorbed = DerivedMap(
                "sup_{y in I(x)} |kappa_tilde_1(x) y^i|",
                lambda x, _m=kt1, _iv=link.interval, _o=order: _m.evaluate(x) * _iv.sup_abs(x) ** _o,
            )
            kt, case = abs_map(r2.kappa_tilde), "pratique2-case2"
            delta = sum_map("max|gamma| + absorbed regime-1 term", gmax, absorbed)
        else:
            kt = max_map("max(|kt_1|,|kt_2|)", abs_map(r1.kappa_tilde), abs_map(r2.kappa_tilde))
            delta, case = gmax, "pratique2-case1"
    else:
        # ARMA-like: f = a s + (b - a) y + c, so the |y| slope is |b| + |a|
        kt = sum_map("|g_slope| + |a|", abs_map(link.g_slope), abs_map(link.a))
        delta, case = abs_map(link.g_intercept), "arma"
    k = contraction_map(link)
    sup = provable_sup(k)
    return GrowthEnvelope(k, kt, delta, order, sup is not None and sup < 1.0, case)


def structural_floor(link: LinkSpec) -> float | None:
    """The least branch intercept (its constant, or 0 for a map flagged nonnegative) when every
    branch's slopes are flagged nonnegative, else None; ARMA-like links subtract a(x) y, so None.
    f is at least this bound wherever the state and the observation term are nonnegative."""
    if isinstance(link, ThresholdLink):
        branches = [(r.kappa, r.kappa_tilde, r.gamma) for r in (link.regime_in, link.regime_out)]
    elif isinstance(link, LinearLink):
        branches = [(link.kappa, link.kappa_tilde, link.delta_tilde)]
    else:
        return None
    bounds = []
    for kappa, kappa_tilde, intercept in branches:
        if not (kappa.nonnegative and getattr(kappa_tilde, "nonnegative", False)):
            return None
        bounds.append(intercept.c if isinstance(intercept, ConstantMap) else 0.0 if intercept.nonnegative else None)
    return None if None in bounds else min(bounds)
