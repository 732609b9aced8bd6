"""Regime classification, asymptotic scalings and bounds on the step count.

The infrared behaviour of every spectral sum is controlled by a single
exponent zeta built from the channel exponents and the relevant spatial
dimension.  Sign and size of zeta against a boundary (twice the dynamical
exponent for single-qubit dephasing, the dynamical exponent itself for the
pair-correlation sums) select one of four regimes: saturating, logarithmic,
power-law growth, or strong-infrared growth set by the bath size.  One
table, _growth_law, holds each regime's long-time law (the infinite-volume
laws of Novais, Mucciolo & Baranger, PRA 78, 012314 (2008)); the asymptotic
sums evaluate it, and _steps_to inverts it into the asymptotic bounds M_max.

The laws carry order-one prefactors that the theory does not fix; they enter
as calibration constants (c_cal for the single-qubit bound, b_cal for the
register bound) scaling the distance criterion: the single-qubit bound
solves lambda*^2 law(M) = c_cal * D_crit.  At 1 they give the bare laws, and
calibrate_c_cal fits c_cal against the numerically exact sums at one point.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Sequence

import numpy as np

from .bath import (ModeGrid, QubitLayout, _caller_stacklevel, _check_time, gamma, gamma_infinity,
                   w_sum)
from .config import BathChannel, BathGeometry, BoundInput, _number
from .coupling import EffectiveCoupling
from .errors import ConfigError, CriterionUnreachableError, CapabilityError

ZETA_TOL = 1e-12
_SEARCH_CAP = 2**40


class SumKind(Enum):
    SINGLE_DEPHASING = "single_dephasing"
    W_SELF = "w_self"
    W_CORRELATED = "w_correlated"


class Regime(Enum):
    SUPER_OHMIC = "SuperOhmic"
    OHMIC = "Ohmic"
    SUB_OHMIC = "SubOhmic"
    STRONG_IR = "StrongIR"


@dataclass(frozen=True)
class RegimeReport:
    """zeta exponent, its regime boundary and the resulting classification."""

    zeta: float
    boundary: float
    z_exp: float
    kind: SumKind
    regime: Regime


def zeta_and_regime(
    ch: BathChannel, geom: BathGeometry, kind: SumKind, D_x: int = 0
) -> RegimeReport:
    """Classify the infrared regime of one spectral sum.

    zeta = 2*(z - s) - D for single-qubit dephasing and self-correlation
    sums; the correlated pair sum gains the qubit-array dimension,
    zeta = 2*(z - s) + D_x - D.  A zeta within 1e-12 of zero is logarithmic
    (Ohmic); a zeta at or beyond the boundary is classified strong-infrared
    (worst case).
    """
    if kind == SumKind.W_CORRELATED:
        if D_x < 0 or D_x > geom.D:
            raise ConfigError(f"D_x must lie between 0 and the bath dimension {geom.D}")
        zeta = 2.0 * (ch.z_exp - ch.s_exp) + D_x - geom.D
    else:
        zeta = 2.0 * (ch.z_exp - ch.s_exp) - geom.D
    boundary = 2.0 * ch.z_exp if kind == SumKind.SINGLE_DEPHASING else ch.z_exp
    if abs(zeta) <= ZETA_TOL:
        regime = Regime.OHMIC
    elif zeta < 0:
        regime = Regime.SUPER_OHMIC
    elif zeta < boundary:
        regime = Regime.SUB_OHMIC
    else:
        regime = Regime.STRONG_IR
    return RegimeReport(zeta=zeta, boundary=boundary, z_exp=ch.z_exp, kind=kind, regime=regime)


def trace_distance_single(gamma_val: float, sigma_plus_abs: float) -> float:
    """Exact single-qubit trace distance under pure dephasing.

    D = |<sigma+>| * (1 - exp(-4*gamma)); monotone in gamma, saturating at
    |<sigma+>|.  A negative or NaN gamma is refused (ValueError).
    """
    if not gamma_val >= 0:  # true for nan as well
        raise ValueError(f"decoherence function must be non-negative, got {gamma_val}")
    return sigma_plus_abs * (-math.expm1(-4.0 * gamma_val))


def _require_kind(report: RegimeReport, *kinds: SumKind) -> None:
    if report.kind not in kinds:
        allowed = ", ".join(k.value for k in kinds)
        raise ConfigError(
            f"regime report of kind '{report.kind.value}' passed where {allowed} is required"
        )


def _growth_law(
    report: RegimeReport, geom: BathGeometry, delta: float
) -> tuple[float, float | None]:
    """Unit-prefactor long-time law (A, p): A * M**p, or A * ln M when p is None.

    Saturating (Delta^(-zeta/z), 0); logarithmic (1, None); power law
    (Delta^(zeta/z), zeta/z); strong IR (Delta^(b/z) (L/2pi)^(zeta-b), b/z),
    b the regime boundary.  b = 2z gives the dephasing law, b = z the pair-sum law.
    """
    z = report.z_exp
    if report.regime == Regime.SUPER_OHMIC:
        return delta ** (-report.zeta / z), 0.0
    if report.regime == Regime.OHMIC:
        return 1.0, None
    if report.regime == Regime.SUB_OHMIC:
        return delta ** (report.zeta / z), report.zeta / z
    b = report.boundary
    return delta ** (b / z) * (geom.L / (2.0 * math.pi)) ** (report.zeta - b), b / z


def _law(report: RegimeReport, geom: BathGeometry, delta: float, M: int) -> float:
    """The growth law of _growth_law evaluated after M >= 1 periods."""
    if M < 1:
        raise ValueError("step count must be at least 1")
    A, p = _growth_law(report, geom, delta)
    return A * (math.log(M) if p is None else M**p)


def _steps_to(report: RegimeReport, geom: BathGeometry, delta: float, target: float) -> int | float:
    """Largest M with the growth law at or below target; inf if it never gets there."""
    A, p = _growth_law(report, geom, delta)
    if p == 0.0:
        return math.inf
    try:  # an M past float range (1/p is huge near Ohmic) is never reached
        steps = math.exp(target / A) if p is None else (target / A) ** (1.0 / p)
        return max(0, math.floor(steps))
    except OverflowError:
        return math.inf


def gamma_asymptotic(
    report: RegimeReport,
    inputs: BoundInput,
    lambda_star: float,
    geom: BathGeometry,
    M: int,
) -> float:
    """Long-time growth law of the dephasing function after M periods.

    lambda*^2 times the dephasing law of _growth_law, divided by c_cal: the
    bound solves law(M) = c_cal * D_crit / lambda*^2, so a calibrated curve
    crosses D_crit at the calibrated asymptotic M_max.
    """
    _require_kind(report, SumKind.SINGLE_DEPHASING)
    return lambda_star**2 * _law(report, geom, inputs.delta, M) / inputs.c_cal


def w_sum_asymptotic(
    report: RegimeReport, N: int, geom: BathGeometry, delta: float, M: int
) -> float:
    """Growth law of |sum over qubit pairs of W| after M periods (unit prefactor)."""
    _require_kind(report, SumKind.W_SELF, SumKind.W_CORRELATED)
    return N * _law(report, geom, delta, M)


def d_sat(grid: ModeGrid, lambda_star: float, sigma_plus_abs: float) -> float:
    """Saturation value of the single-qubit trace distance.

    Uses the long-time mean of gamma (static sum; the oscillatory cosine
    term time-averages to zero, which is the Cesaro-mean convention for a
    discrete quasi-periodic spectrum).  Meaningful as a limit only in the
    saturating regime; elsewhere it is just the cutoff-dominated mean.
    """
    return trace_distance_single(gamma_infinity(grid, lambda_star), sigma_plus_abs)


def mmax_single(
    report: RegimeReport,
    inputs: BoundInput,
    lambda_star: float,
    geom: BathGeometry,
    mode: str = "asymptotic",
    grid: ModeGrid | None = None,
) -> int | float:
    """Largest number of correction periods an isolated logical qubit survives.

    Asymptotic mode returns the largest M whose dephasing law (_growth_law)
    stays at or below c_cal * D_crit / lambda*^2: infinite in the saturating
    regime, where it requires the criterion to sit above the saturation
    value (checked when a grid is supplied), and whenever the law cannot
    reach the target in floating point.

    Numeric mode runs the first-crossing search (_first_crossing) on the
    exact trace distance of the supplied grid.  Its gamma values are the
    grid's dephasing spectrum's, computed once (Spectrum.at), so searches on
    one grid for other couplings, or a repeated one, share its evaluations.
    """
    _require_kind(report, SumKind.SINGLE_DEPHASING)
    if mode not in ("asymptotic", "numeric"):
        raise ValueError(f"unknown mode {mode!r}")
    lambda_star = _number(lambda_star, "lambda*")  # finite (ConfigError) before any shortcut
    if lambda_star == 0.0:
        return math.inf
    if mode == "numeric":
        if grid is None:
            raise ConfigError("numeric mode requires a mode grid")
        sigma = inputs.sigma_plus_abs
        if inputs.d_crit >= sigma:
            raise CriterionUnreachableError(f"criterion {inputs.d_crit} can never be exceeded: "
                                            f"the trace distance saturates at |<sigma+>| = {sigma}")
        return _first_crossing(
            lambda T: trace_distance_single(gamma(grid, lambda_star, T), sigma),
            trace_distance_single(2.0 * gamma_infinity(grid, lambda_star), sigma),  # gamma <= 2 * static sum
            inputs, "the grid's infrared resolution may be too coarse for this coupling",
        )

    if report.regime == Regime.SUPER_OHMIC and grid is not None:
        if d_sat(grid, lambda_star, inputs.sigma_plus_abs) >= inputs.d_crit:
            raise ValueError(
                "saturating regime with criterion at or below the saturation value; "
                "the asymptotic bound does not apply"
            )
    target = inputs.c_cal * inputs.d_crit / lambda_star**2
    return _steps_to(report, geom, inputs.delta, target)


def _first_crossing(
    distance: Callable[[float], float], ceiling: float, inputs: BoundInput, cap_hint: str
) -> int | float:
    """M - 1 for an M whose distance(M * Delta) exceeds D_crit while that of M - 1 does not.

    inf when ceiling, a bound on the distance at every time, is at or below
    D_crit.  M is found by doubling and then bisecting, so it is the first
    crossing only if the distance grows monotonically in M, which a finite
    grid does not guarantee (ROADMAP item 1).  Raises CapabilityError once M
    passes _SEARCH_CAP.
    """
    if ceiling <= inputs.d_crit:
        return math.inf

    def exceeded(M: int) -> bool:
        return distance(M * inputs.delta) > inputs.d_crit

    if exceeded(1):
        return 0
    hi = 2
    while not exceeded(hi):
        hi *= 2
        if hi > _SEARCH_CAP:
            raise CapabilityError("criterion not exceeded within the search cap; " + cap_hint)
    lo = hi // 2  # exceeded(lo) is False
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if exceeded(mid):
            hi = mid
        else:
            lo = mid
    return lo


def calibrate_c_cal(
    report: RegimeReport,
    inputs: BoundInput,
    lambda_star: float,
    geom: BathGeometry,
    grid: ModeGrid,
) -> float:
    """One-point calibration: the c_cal making the asymptotic bound match numerics.

    The bound solves law(M) = c_cal * D_crit / lambda*^2, so at the
    numerically exact M_max c_cal = lambda*^2 * law(M_max) / D_crit, with
    M_max from mmax_single in numeric mode: after that same search it reads
    stored values and evaluates nothing.  In the saturating regime both routes
    are infinite and c_cal is returned unchanged.
    """
    _require_kind(report, SumKind.SINGLE_DEPHASING)
    lambda_star = _number(lambda_star, "lambda*")  # finite (ConfigError) before any shortcut
    if report.regime == Regime.SUPER_OHMIC:
        return inputs.c_cal
    m_num = mmax_single(report, inputs, lambda_star, geom, mode="numeric", grid=grid)
    if not m_num or math.isinf(m_num):
        raise ValueError(f"numeric bound {m_num} cannot calibrate the asymptotic formula")
    return lambda_star**2 * _law(report, geom, inputs.delta, m_num) / inputs.d_crit


def mmax_multi(
    report: RegimeReport,
    inputs: BoundInput,
    lambda_star: float,
    geom: BathGeometry,
) -> int | float:
    """Bound on the step count from one channel of an N-qubit register.

    The largest M whose pair-sum law (_growth_law) stays at or below
    b_cal * D_crit / (N |lambda*|): infinite in the saturating regime and
    whenever the law cannot reach the target in floating point.  The
    renormalized lambda* can be negative; only its size enters, as in the
    lambda*^2 of the numeric bound.  The overall register bound is the
    minimum over channels.
    """
    _require_kind(report, SumKind.W_SELF, SumKind.W_CORRELATED)
    lambda_star = _number(lambda_star, "lambda*")  # finite (ConfigError) before any shortcut
    if lambda_star == 0.0:
        return math.inf
    target = inputs.b_cal * inputs.d_crit / (inputs.n_logical * abs(lambda_star))
    return _steps_to(report, geom, inputs.delta, target)


def _lam2_by_grid(
    grids: Mapping[str, ModeGrid], couplings: EffectiveCoupling
) -> dict[ModeGrid, float]:
    """sum of lambda*^2 over the coupled channels of each distinct grid object."""
    lam2: dict[ModeGrid, float] = {}
    for axis, lam_star in couplings.lambda_star.items():
        _number(lam_star, f"lambda* of channel '{axis}'")
        if lam_star != 0.0:
            if axis not in grids:
                raise ConfigError(f"no mode grid supplied for channel '{axis}'")
            lam2[grids[axis]] = lam2.get(grids[axis], 0.0) + lam_star**2
    return lam2


def hs_distance(
    grids: Mapping[str, ModeGrid],
    couplings: EffectiveCoupling,
    layout: QubitLayout,
    T: float,
    proportionality: float = 1.0,
) -> float:
    """Hilbert-Schmidt distance bound for the full register.

    D_HS = proportionality * sqrt(sum over channels of lambda*^2 * |sum over
    position pairs of W(T)|^2), with the pair sum running over all ordered
    logical-position pairs including the diagonal.  W depends on a channel
    only through its grid, so channels sharing one grid object share one
    evaluation: sum lambda*^2 |W|^2 = (sum lambda*^2) |W|^2.  T is checked as in
    w_sum, and every lambda* must be finite (ValueError), both before any work.
    """
    _check_time(T)
    lam2_by_grid = _lam2_by_grid(grids, couplings)
    n = layout.n_logical
    strongest = couplings.max_value
    if strongest**2 * n > 0.1:
        warnings.warn(
            f"perturbative bound stretched: (max lambda*)^2 * N = {strongest**2 * n:.3g} > 0.1",
            stacklevel=_caller_stacklevel(),
        )
    acc = 0.0
    for grid, lam2 in lam2_by_grid.items():
        total = w_sum(grid, layout.padded_logical_positions(grid.D), T)
        acc += lam2 * abs(total) ** 2
    return proportionality * math.sqrt(acc)


def mmax_multi_numeric(
    grids: Mapping[str, ModeGrid],
    couplings: EffectiveCoupling,
    layout: QubitLayout,
    inputs: BoundInput,
    proportionality: float = 1.0,
) -> int | float:
    """Register bound: the first-crossing search (_first_crossing) on the Hilbert-Schmidt bound."""
    # hard ceiling: |sum of W| <= 2 * N^2 * static sum per grid
    n = layout.n_logical
    ceiling_sq = sum(w * (2.0 * n**2 * g.dephasing.static) ** 2
                     for g, w in _lam2_by_grid(grids, couplings).items())
    return _first_crossing(
        lambda T: hs_distance(grids, couplings, layout, T, proportionality),
        proportionality * math.sqrt(ceiling_sq), inputs,
        "couplings may be too weak for a finite register bound on this grid",
    )


def fit_loglog_slope(series: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares slope of ln(value) against ln(M).

    Returns (slope, max absolute residual).  Requires at least 8 strictly
    increasing M values; non-positive values are a domain error (they signal
    the wrong regime, e.g. a saturated decoherence function).
    """
    if len(series) < 8:
        raise ValueError("need at least 8 points for a slope fit")
    m = np.asarray([p[0] for p in series], dtype=np.float64)
    vals = np.asarray([p[1] for p in series], dtype=np.float64)
    if np.any(np.diff(m) <= 0):
        raise ValueError("M values must be strictly increasing")
    if np.any(vals <= 0):
        raise ValueError(
            "series contains non-positive values; the quantity is not in a "
            "power-law regime (it may be saturated or identically zero)"
        )
    x = np.log(m)
    y = np.log(vals)
    dx, dy = x - x.mean(), y - y.mean()  # closed-form least squares for a line: no LAPACK call
    slope = np.sum(dx * dy) / np.sum(dx * dx)
    residuals = dy - slope * dx
    return float(slope), float(np.max(np.abs(residuals)))
