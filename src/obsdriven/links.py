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
from dataclasses import dataclass

import numpy as np

from .covariates import (
    CoefficientMap,
    ConstantMap,
    DerivedMap,
    abs_map,
    map_from_dict,
    max_map,
    provable_sup,
    sum_map,
)
from .errors import InvalidSpec


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedInterval:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise InvalidSpec("interval needs lo <= hi")

    def bounds(self, x):
        """(lo, hi) with I(x) = [lo, hi]; scalars here, per covariate row for CovariateScaled."""
        return self.lo, self.hi

    @property
    def is_bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def sup_abs(self, x) -> float:
        return max(abs(self.lo), abs(self.hi))

    def to_dict(self):
        return {"kind": "fixed", "lo": self.lo, "hi": self.hi}


@dataclass(frozen=True)
class CovariateScaled:
    """[lo |x|, hi |x|], |x| the summed absolute value of each covariate row."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise InvalidSpec("interval needs lo <= hi")

    @staticmethod
    def _scale(x):
        return np.abs(np.atleast_1d(np.asarray(x, dtype=float))).sum(axis=-1)

    def bounds(self, x):
        a = self._scale(x)
        return self.lo * a, self.hi * a

    @property
    def is_bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def sup_abs(self, x):
        return max(abs(self.lo), abs(self.hi)) * self._scale(x)

    def to_dict(self):
        return {"kind": "covariate_scaled", "lo": self.lo, "hi": self.hi}


IntervalMap = FixedInterval | CovariateScaled


def interval_from_dict(d: dict) -> IntervalMap:
    kind = d.get("kind")
    if kind == "fixed":
        return FixedInterval(d["lo"], d["hi"])
    if kind == "covariate_scaled":
        return CovariateScaled(d["lo"], d["hi"])
    raise InvalidSpec(f"unknown interval kind {kind!r}")


# ---------------------------------------------------------------------------
# link variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CategoryTable:
    """Additive state increment per observation category (multinomial links).

    Column y of the (state_dim x n_categories) table is added to kappa(x)s,
    the one-hot reading of "kappa_tilde(x) y".
    """

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

    def to_dict(self):
        return {"kind": "category_table", "values": [list(r) for r in self.values]}


@dataclass(frozen=True)
class LinearLink:
    """f(s,y,x) = kappa(x) s + kappa_tilde(x) y^i + delta_tilde(x)."""

    kappa: CoefficientMap
    kappa_tilde: CoefficientMap | CategoryTable
    delta_tilde: CoefficientMap
    order: int = 1
    floor: float | None = None

    def __post_init__(self):
        if self.order not in (1, 2):
            raise InvalidSpec("link order must be 1 or 2")

    def to_dict(self):
        return {
            "variant": "linear",
            "kappa": self.kappa.to_dict(),
            "kappa_tilde": self.kappa_tilde.to_dict(),
            "delta_tilde": self.delta_tilde.to_dict(),
            "order": self.order,
            "floor": self.floor,
        }


@dataclass(frozen=True)
class RegimeCoefficients:
    kappa: CoefficientMap
    kappa_tilde: CoefficientMap
    gamma: CoefficientMap

    def to_dict(self):
        return {
            "kappa": self.kappa.to_dict(),
            "kappa_tilde": self.kappa_tilde.to_dict(),
            "gamma": self.gamma.to_dict(),
        }


@dataclass(frozen=True)
class ThresholdLink:
    """Regime 1 applies when y falls in I(x), regime 2 otherwise."""

    regime_in: RegimeCoefficients
    regime_out: RegimeCoefficients
    interval: IntervalMap
    order: int = 1
    floor: float | None = None

    def __post_init__(self):
        if self.order not in (1, 2):
            raise InvalidSpec("link order must be 1 or 2")

    def to_dict(self):
        return {
            "variant": "threshold",
            "regime_in": self.regime_in.to_dict(),
            "regime_out": self.regime_out.to_dict(),
            "interval": self.interval.to_dict(),
            "order": self.order,
            "floor": self.floor,
        }


@dataclass(frozen=True)
class ArmaLikeLink:
    """f(s,y,x) = a(x)s + g(y,x) - a(x)y with g(y,x) = c(x) + b(x) y.

    Driving a location kernel, this gives varying-coefficient ARMA(1,1)
    observations.  The regression g is affine in y by construction, so the
    growth envelope always exists at order 1.
    """

    a: CoefficientMap
    g_intercept: CoefficientMap
    g_slope: CoefficientMap
    floor: float | None = None

    @property
    def order(self) -> int:
        return 1

    def to_dict(self):
        return {
            "variant": "arma_like",
            "a": self.a.to_dict(),
            "g_intercept": self.g_intercept.to_dict(),
            "g_slope": self.g_slope.to_dict(),
            "floor": self.floor,
        }


LinkSpec = LinearLink | ThresholdLink | ArmaLikeLink


def category_table(link: LinkSpec) -> CategoryTable | None:
    """The category table of a multinomial link, None for every other link."""
    kt = getattr(link, "kappa_tilde", None)
    return kt if isinstance(kt, CategoryTable) else None


def link_from_dict(d: dict) -> LinkSpec:
    variant = d.get("variant")
    if variant == "linear":
        kt = d["kappa_tilde"]
        kt_obj = CategoryTable(tuple(map(tuple, kt["values"]))) if kt.get("kind") == "category_table" else map_from_dict(kt)
        return LinearLink(
            map_from_dict(d["kappa"]), kt_obj, map_from_dict(d["delta_tilde"]),
            d.get("order", 1), d.get("floor"),
        )
    if variant == "threshold":
        def regime(r):
            return RegimeCoefficients(
                map_from_dict(r["kappa"]), map_from_dict(r["kappa_tilde"]), map_from_dict(r["gamma"])
            )
        return ThresholdLink(
            regime(d["regime_in"]), regime(d["regime_out"]),
            interval_from_dict(d["interval"]), d.get("order", 1), d.get("floor"),
        )
    if variant == "arma_like":
        return ArmaLikeLink(
            map_from_dict(d["a"]), map_from_dict(d["g_intercept"]), map_from_dict(d["g_slope"]),
            d.get("floor"),
        )
    raise InvalidSpec(f"unknown link variant {variant!r}")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def coefficient_table(link: LinkSpec, x) -> np.ndarray:
    """The link's coefficients at each covariate row of x (d,) or (n, d): an (n, k) table.

    The one place that evaluates the link's maps.  Columns: linear (kappa,
    kappa_tilde, delta_tilde), or (kappa, delta_tilde) with a category table;
    threshold (kappa, kappa_tilde, gamma) per regime, then I(x) = [lo, hi];
    ARMA-like (a, c, b).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if isinstance(link, ThresholdLink):
        maps = [m for r in (link.regime_in, link.regime_out) for m in (r.kappa, r.kappa_tilde, r.gamma)]
    elif category_table(link) is not None:
        maps = [link.kappa, link.delta_tilde]
    elif isinstance(link, LinearLink):
        maps = [link.kappa, link.kappa_tilde, link.delta_tilde]
    else:
        maps = [link.a, link.g_intercept, link.g_slope]
    cols = [m.evaluate(x) for m in maps]
    if isinstance(link, ThresholdLink):
        cols += link.interval.bounds(x)
    return np.column_stack([np.broadcast_to(c, len(x)) for c in cols])


def step(link: LinkSpec, row, s, y):
    """f(s, y, x) from the coefficients of x: a table row, or the table's columns for a batch.

    s and y may be batched along axis 0; a value not batched is shared by
    every row.  Multinomial states are (state_dim,) or (n, state_dim) and y
    is a category index.  The floor clamp comes last (it is 1-Lipschitz, so
    contraction constants are unchanged).  Overflow gives inf, not an error.
    A Python float state with a list row (``tolist()``) steps on floats: the
    same formula, so the bits of a (1,) batch, as a float and without warnings.
    """
    if scalar := type(s) is float and type(row) is list:  # never multinomial: its states are vectors
        y, table = float(y), None
    else:
        table = category_table(link)
        s, y = np.asarray(s, dtype=float), np.asarray(y, dtype=float if table is None else int)
    yi = y if link.order == 1 else y * y  # numpy's y**2 is y*y; Python's float ** overflows
    if table is not None:
        # a trailing axis on k and d broadcasts them over the state coordinates
        k, d = row
        out = np.asarray(k)[..., None] * s + table.array.T[y] + np.asarray(d)[..., None]
    elif isinstance(link, ThresholdLink):
        k1, kt1, g1, k2, kt2, g2, lo, hi = row
        inside, f1, f2 = (y >= lo) & (y <= hi), k1 * s + kt1 * yi + g1, k2 * s + kt2 * yi + g2
        out = (f1 if inside else f2) if scalar else np.where(inside, f1, f2)
    elif isinstance(link, LinearLink):
        k, kt, d = row
        out = k * s + kt * yi + d
    else:
        a, c, b = row
        out = a * s + c + b * y - a * y
    if (f := link.floor) is not None:  # as numpy's maximum: f on a tie (so +-0), NaN from either side
        out = (out if out > f or out != out else f) if scalar else np.maximum(out, f)
    if scalar or np.ndim(out):
        return out
    return float(out)


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


def state_multiplier(link: LinkSpec, row, y) -> np.ndarray:
    """The exact multiplier of s in f(s, y, x), elementwise over y; ``row`` as in ``step``.

    Differences of two states sharing (y, x) scale by exactly this factor
    (before any floor clamp); gap-tracking couplings use it to propagate
    separations below the floating-point resolution of the states.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if isinstance(link, ThresholdLink):
        k1, _, _, k2, _, _, lo, hi = row
        return np.where((y >= lo) & (y <= hi), k1, k2)
    return np.full(y.shape, row[0])


def state_coefficients(link: LinkSpec, y, x) -> np.ndarray:
    """``state_multiplier`` on the coefficient table of x (d,) or (n, d)."""
    return state_multiplier(link, _coefficients(link, x), y)


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


def _contractive(m: CoefficientMap) -> bool:
    sup = provable_sup(m)
    return sup is not None and sup < 1.0


def growth_envelope(link: LinkSpec) -> GrowthEnvelope:
    """Additive growth envelope of the recursion.

    Threshold links with a bounded interval get the refined envelope: the
    regime-1 observation term is bounded on I(x) and absorbed into the
    intercept, so only the regime-2 slope survives in front of |y|^i.
    """
    if isinstance(link, LinearLink):
        if isinstance(link.kappa_tilde, CategoryTable):
            # one-hot observations: the table term is bounded, so it lives
            # in the intercept and the |y| slope is zero
            k = abs_map(link.kappa)
            extra = link.kappa_tilde.max_inf_norm()
            delta = sum_map(
                "|delta_tilde| + max_y|table|",
                abs_map(link.delta_tilde),
                ConstantMap(extra, nonnegative=True),
            )
            return GrowthEnvelope(k, ConstantMap(0.0, nonnegative=True), delta, link.order, _contractive(k), "linear")
        k = abs_map(link.kappa)
        return GrowthEnvelope(
            k, abs_map(link.kappa_tilde), abs_map(link.delta_tilde),
            link.order, _contractive(k), "linear",
        )

    if isinstance(link, ThresholdLink):
        r1, r2 = link.regime_in, link.regime_out
        k = max_map("max(|kappa_1|,|kappa_2|)", abs_map(r1.kappa), abs_map(r2.kappa))
        gmax = max_map("max(|gamma_1|,|gamma_2|)", abs_map(r1.gamma), abs_map(r2.gamma))
        if link.interval.is_bounded:
            kt1 = abs_map(r1.kappa_tilde)
            interval, order = link.interval, link.order
            absorbed = DerivedMap(
                "sup_{y in I(x)} |kappa_tilde_1(x) y^i|",
                lambda x, _m=kt1, _iv=interval, _o=order: _m.evaluate(x) * _iv.sup_abs(x) ** _o,
            )
            delta = sum_map("max|gamma| + absorbed regime-1 term", gmax, absorbed)
            return GrowthEnvelope(
                k, abs_map(r2.kappa_tilde), delta, link.order, _contractive(k), "pratique2-case2",
            )
        kt = max_map("max(|kt_1|,|kt_2|)", abs_map(r1.kappa_tilde), abs_map(r2.kappa_tilde))
        return GrowthEnvelope(k, kt, gmax, link.order, _contractive(k), "pratique2-case1")

    # ARMA-like: f = a s + (b - a) y + c, so the |y| slope is |b| + |a|
    k = abs_map(link.a)
    kt = sum_map("|g_slope| + |a|", abs_map(link.g_slope), abs_map(link.a))
    return GrowthEnvelope(k, kt, abs_map(link.g_intercept), 1, _contractive(k), "arma")


def structurally_nonnegative(link: LinkSpec) -> bool:
    """True when every branch of f provably maps into [0, inf)."""
    def nn(m):
        return getattr(m, "nonnegative", False)

    if isinstance(link, LinearLink):
        if isinstance(link.kappa_tilde, CategoryTable):
            return nn(link.kappa) and nn(link.delta_tilde) and bool(np.all(link.kappa_tilde.array >= 0))
        return nn(link.kappa) and nn(link.kappa_tilde) and nn(link.delta_tilde)
    if isinstance(link, ThresholdLink):
        return all(
            nn(m)
            for r in (link.regime_in, link.regime_out)
            for m in (r.kappa, r.kappa_tilde, r.gamma)
        )
    return False  # ARMA-like subtracts a(x) y, no structural sign
