import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from qecbound import (
    BathChannel,
    BathGeometry,
    BoundInput,
    CapabilityError,
    ConfigError,
    CriterionUnreachableError,
    EffectiveCoupling,
    ModeGrid,
    Regime,
    SumKind,
    build_mode_grid,
    build_radial_mode_grid,
    calibrate_c_cal,
    d_sat,
    fit_loglog_slope,
    gamma,
    gamma_asymptotic,
    gamma_infinity,
    hs_distance,
    mmax_multi,
    mmax_multi_numeric,
    mmax_single,
    regular_layout,
    trace_distance_single,
    w_sum_asymptotic,
    zeta_and_regime,
)
from qecbound import bath, bounds


def _ch(z=1.0, s=0.0, lam=1e-3):
    return BathChannel(axis="z", z_exp=z, s_exp=s, lam=lam)


def _inputs(**kw):
    base = dict(d_crit=0.01, sigma_plus_abs=0.5, n_logical=1, delta=1.0)
    base.update(kw)
    return BoundInput(**base)


GEOM_1D = BathGeometry(D=1, L=2 * math.pi * 5000, omega_c=1.0)


class TestRegimes:
    def test_sub_ohmic(self):
        rep = zeta_and_regime(_ch(), GEOM_1D, SumKind.SINGLE_DEPHASING)
        assert rep.zeta == 1.0 and rep.boundary == 2.0
        assert rep.regime == Regime.SUB_OHMIC

    def test_ohmic(self):
        rep = zeta_and_regime(_ch(s=0.5), GEOM_1D, SumKind.SINGLE_DEPHASING)
        assert rep.zeta == 0.0 and rep.regime == Regime.OHMIC

    def test_super_ohmic(self):
        geom = BathGeometry(D=3, L=100.0, omega_c=1.0)
        rep = zeta_and_regime(_ch(), geom, SumKind.SINGLE_DEPHASING)
        assert rep.zeta == -1.0 and rep.regime == Regime.SUPER_OHMIC

    def test_strong_ir(self):
        rep = zeta_and_regime(_ch(s=-1.0), GEOM_1D, SumKind.SINGLE_DEPHASING)
        assert rep.zeta == 3.0 and rep.regime == Regime.STRONG_IR

    def test_w_boundary_is_z(self):
        rep = zeta_and_regime(_ch(), GEOM_1D, SumKind.W_SELF)
        assert rep.boundary == 1.0 and rep.regime == Regime.STRONG_IR

    def test_correlated_gains_array_dimension(self):
        geom = BathGeometry(D=3, L=100.0, omega_c=1.0)
        rep = zeta_and_regime(_ch(), geom, SumKind.W_CORRELATED, D_x=2)
        assert rep.zeta == 1.0

    def test_correlated_zero_dim_equals_self(self):
        geom = BathGeometry(D=2, L=100.0, omega_c=1.0)
        for s in (-0.5, 0.0, 0.5, 1.0):
            self_rep = zeta_and_regime(_ch(s=s), geom, SumKind.W_SELF)
            corr_rep = zeta_and_regime(_ch(s=s), geom, SumKind.W_CORRELATED, D_x=0)
            assert corr_rep.zeta == self_rep.zeta
            assert corr_rep.regime == self_rep.regime

    def test_invalid_array_dimension(self):
        with pytest.raises(ConfigError):
            zeta_and_regime(_ch(), GEOM_1D, SumKind.W_CORRELATED, D_x=2)


class TestBoundInput:
    def test_criterion_range(self):
        with pytest.raises(ValueError, match=r"criteria\.D_crit"):
            _inputs(d_crit=0.0)
        with pytest.raises(ValueError, match=r"criteria\.D_crit"):
            _inputs(d_crit=1.0)

    def test_coherence_range(self):
        with pytest.raises(ValueError, match="sigma"):
            _inputs(sigma_plus_abs=0.6)

    def test_period_positive(self):
        with pytest.raises(ValueError, match=r"qec\.Delta"):
            _inputs(delta=0.0)

    def test_zero_qubits_rejected(self):
        with pytest.raises(ConfigError, match=r"^layout\.N must be at least 1$"):
            _inputs(n_logical=0)

    @pytest.mark.parametrize("field", ["c_cal", "b_cal"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_calibration_positive(self, field, value):
        with pytest.raises(ConfigError, match=rf"^calibration\.{field} must be positive$"):
            _inputs(**{field: value})

    @pytest.mark.parametrize("field", ["d_crit", "sigma_plus_abs", "delta", "c_cal", "b_cal"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigError, match="must be a finite number"):
            _inputs(**{field: value})

    def test_numpy_scalars_accepted(self):
        inputs = _inputs(d_crit=np.float32(0.25), n_logical=np.int64(3), delta=np.float64(2.0))
        assert (inputs.d_crit, inputs.n_logical, inputs.delta) == (0.25, 3, 2.0)
        assert type(inputs.d_crit) is float and type(inputs.n_logical) is int
        with pytest.raises(ConfigError, match=r"layout\.N must be an integer"):
            _inputs(n_logical=True)


class TestTraceDistance:
    def test_zero(self):
        assert trace_distance_single(0.0, 0.5) == 0.0

    def test_saturation(self):
        assert trace_distance_single(1e6, 0.37) == pytest.approx(0.37)

    def test_small_gamma_linearization(self):
        for g in (2e-3, 1e-3, 1e-4, 1e-6):
            exact = trace_distance_single(g, 0.5)
            linear = 4.0 * g * 0.5
            assert abs(exact - linear) / exact < 0.01

    def test_monotone(self):
        rng = random.Random(4)
        for _ in range(200):
            a = rng.uniform(0, 5)
            b = a + rng.uniform(0, 5)
            assert trace_distance_single(b, 0.5) >= trace_distance_single(a, 0.5)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            trace_distance_single(-0.1, 0.5)


_FINITE = r"lambda\* must be a finite number"


@pytest.mark.parametrize("call, error, message", [
    (lambda grid: gamma(grid, math.nan, 1.0), ConfigError, _FINITE),
    (lambda grid: gamma(grid, math.inf, 1.0), ConfigError, _FINITE),
    (lambda grid: gamma(grid, math.nan, math.nan), ValueError, "time T must be finite"),  # T first
    (lambda grid: gamma_infinity(grid, math.nan), ConfigError, _FINITE),
    (lambda grid: d_sat(grid, math.inf, 0.5), ConfigError, _FINITE),
    (lambda grid: trace_distance_single(math.nan, 0.5), ValueError,
     "decoherence function must be non-negative, got nan"),
], ids=["gamma-nan", "gamma-inf", "gamma-time-first", "gamma_infinity", "d_sat",
        "trace_distance"])
def test_non_finite_dephasing_input_is_named(call, error, message):
    grid = build_mode_grid(BathGeometry(D=1, L=2 * math.pi * 20, omega_c=1.0), _ch())
    with pytest.raises(error, match=message):
        call(grid)


class TestAsymptotics:
    def test_ohmic_first_step_is_zero(self):
        rep = zeta_and_regime(_ch(s=0.5), GEOM_1D, SumKind.SINGLE_DEPHASING)
        assert gamma_asymptotic(rep, _inputs(), 1e-3, GEOM_1D, 1) == 0.0

    def test_sub_ohmic_pure_power_law(self):
        rep = zeta_and_regime(_ch(), GEOM_1D, SumKind.SINGLE_DEPHASING)
        one = gamma_asymptotic(rep, _inputs(), 1e-3, GEOM_1D, 500)
        two = gamma_asymptotic(rep, _inputs(), 1e-3, GEOM_1D, 1000)
        assert two / one == pytest.approx(2.0 ** (rep.zeta / rep.z_exp))

    def test_calibration_prefactor(self):
        # the bound solves law(M) = c_cal * D_crit, so the curve is law / c_cal
        rep = zeta_and_regime(_ch(), GEOM_1D, SumKind.SINGLE_DEPHASING)
        base = gamma_asymptotic(rep, _inputs(), 1e-3, GEOM_1D, 100)
        scaled = gamma_asymptotic(rep, _inputs(c_cal=2.5), 1e-3, GEOM_1D, 100)
        assert scaled == pytest.approx(base / 2.5)

    def test_wrong_kind_rejected(self):
        rep = zeta_and_regime(_ch(), GEOM_1D, SumKind.W_SELF)
        with pytest.raises(ConfigError):
            gamma_asymptotic(rep, _inputs(), 1e-3, GEOM_1D, 10)

    def test_step_count_below_one_rejected(self):
        rep = zeta_and_regime(_ch(), GEOM_1D, SumKind.SINGLE_DEPHASING)
        with pytest.raises(ValueError, match="step count must be at least 1"):
            gamma_asymptotic(rep, _inputs(), 1e-3, GEOM_1D, 0)

    def test_one_point_fit_predicts_decade_up(self):
        # sub-Ohmic dephasing: fit the order-one constant at M = 100, then
        # the asymptotic law must track the exact sum at M = 1000 within 20%
        grid = build_mode_grid(GEOM_1D, _ch())
        rep = zeta_and_regime(_ch(), GEOM_1D, SumKind.SINGLE_DEPHASING)
        lam = 1e-3
        fit_m = 100
        c = gamma_asymptotic(rep, _inputs(), lam, GEOM_1D, fit_m) / gamma(
            grid, lam, float(fit_m)
        )
        inputs = _inputs(c_cal=c)
        predicted = gamma_asymptotic(rep, inputs, lam, GEOM_1D, 1000)
        actual = gamma(grid, lam, 1000.0)
        assert predicted == pytest.approx(actual, rel=0.20)

    def test_super_ohmic_value_is_time_independent(self):
        geom = BathGeometry(D=3, L=100.0, omega_c=1.0)
        rep = zeta_and_regime(_ch(), geom, SumKind.SINGLE_DEPHASING)  # zeta = -1
        inputs = _inputs(delta=0.5)
        values = {gamma_asymptotic(rep, inputs, 1e-3, geom, M) for M in (1, 10, 1000)}
        assert values == {1e-6 * 0.5 ** (-rep.zeta / rep.z_exp)}

    def test_strong_ir_value(self):
        rep = zeta_and_regime(_ch(s=-1.0), GEOM_1D, SumKind.SINGLE_DEPHASING)  # zeta = 3
        got = gamma_asymptotic(rep, _inputs(), 1e-3, GEOM_1D, 10)
        expected = 1e-6 * (GEOM_1D.L / (2 * math.pi)) ** (rep.zeta - 2.0) * 100
        assert got == pytest.approx(expected, rel=1e-12)

    def test_w_sum_cases(self):
        rep = zeta_and_regime(_ch(s=0.5), GEOM_1D, SumKind.W_SELF)
        assert w_sum_asymptotic(rep, 4, GEOM_1D, 1.0, 1) == 0.0
        rep = zeta_and_regime(_ch(s=0.25), GEOM_1D, SumKind.W_SELF)  # zeta = 0.5 < z
        one = w_sum_asymptotic(rep, 4, GEOM_1D, 1.0, 300)
        two = w_sum_asymptotic(rep, 4, GEOM_1D, 1.0, 600)
        assert two / one == pytest.approx(2.0**0.5)
        # strong infrared: linear in M with the size-dependent prefactor
        rep = zeta_and_regime(_ch(s=-1.0), GEOM_1D, SumKind.W_SELF)  # zeta = 3 > z
        got = w_sum_asymptotic(rep, 4, GEOM_1D, 1.0, 50)
        expected = 4 * 1.0 * (GEOM_1D.L / (2 * math.pi)) ** (rep.zeta - 1.0) * 50
        assert got == pytest.approx(expected, rel=1e-12)
        # saturating: M-independent
        geom3 = BathGeometry(D=3, L=100.0, omega_c=1.0)
        rep = zeta_and_regime(_ch(s=0.5), geom3, SumKind.W_SELF)  # zeta = -2
        assert w_sum_asymptotic(rep, 4, geom3, 2.0, 7) == w_sum_asymptotic(
            rep, 4, geom3, 2.0, 700
        )


class TestDSat:
    def test_zero_coupling(self):
        grid = build_mode_grid(BathGeometry(D=1, L=30.0, omega_c=1.0), _ch())
        assert d_sat(grid, 0.0, 0.5) == 0.0

    def test_single_mode_static_sum(self):
        geom = BathGeometry(D=1, L=2 * math.pi, omega_c=1.0)
        grid = build_mode_grid(geom, _ch(s=0.5))
        lam = 0.1
        expected_gamma = grid.prefactor * lam**2 * 2.0
        assert gamma_infinity(grid, lam) == pytest.approx(expected_gamma, rel=1e-12)
        assert d_sat(grid, lam, 0.5) == pytest.approx(
            0.5 * (1 - math.exp(-4 * expected_gamma)), rel=1e-12
        )

    def test_l_independence_in_saturating_regime(self):
        ch = _ch()
        a = build_radial_mode_grid(BathGeometry(D=3, L=40 * math.pi, omega_c=1.0), ch)
        b = build_radial_mode_grid(BathGeometry(D=3, L=80 * math.pi, omega_c=1.0), ch)
        da, db = d_sat(a, 1e-3, 0.5), d_sat(b, 1e-3, 0.5)
        assert abs(da / db - 1.0) < 0.05


class TestMmaxSingle:
    def test_zero_coupling_is_infinite(self):
        rep = zeta_and_regime(_ch(), GEOM_1D, SumKind.SINGLE_DEPHASING)
        assert mmax_single(rep, _inputs(), 0.0, GEOM_1D) == math.inf

    def test_super_ohmic_infinite_when_saturation_below(self):
        geom = BathGeometry(D=3, L=40 * math.pi, omega_c=1.0)
        grid = build_radial_mode_grid(geom, _ch())
        rep = zeta_and_regime(_ch(), geom, SumKind.SINGLE_DEPHASING)
        lam = 1e-3
        assert d_sat(grid, lam, 0.5) < 0.01
        assert mmax_single(rep, _inputs(), lam, geom, grid=grid) == math.inf
        assert mmax_single(rep, _inputs(), lam, geom, mode="numeric", grid=grid) == math.inf

    def test_super_ohmic_asymptotic_rejected_below_saturation(self):
        geom = BathGeometry(D=3, L=40 * math.pi, omega_c=1.0)
        grid = build_radial_mode_grid(geom, _ch())
        rep = zeta_and_regime(_ch(), geom, SumKind.SINGLE_DEPHASING)
        with pytest.raises(ValueError, match="saturation"):
            mmax_single(rep, _inputs(), 1.0, geom, grid=grid)

    def test_numeric_unreachable_criterion(self):
        grid = build_mode_grid(GEOM_1D, _ch())
        rep = zeta_and_regime(_ch(), GEOM_1D, SumKind.SINGLE_DEPHASING)
        with pytest.raises(CriterionUnreachableError):
            mmax_single(
                rep, _inputs(d_crit=0.6, sigma_plus_abs=0.5), 1e-3, GEOM_1D,
                mode="numeric", grid=grid,
            )

    def test_numeric_requires_a_grid(self):
        rep = zeta_and_regime(_ch(), GEOM_1D, SumKind.SINGLE_DEPHASING)
        with pytest.raises(ConfigError, match="numeric mode requires a mode grid"):
            mmax_single(rep, _inputs(), 1e-3, GEOM_1D, mode="numeric", grid=None)

    def test_numeric_single_mode_against_linear_scan(self):
        # one-mode grid, crossing inside the first monotone quarter period
        geom = BathGeometry(D=1, L=2 * math.pi / 0.01, omega_c=0.011)
        ch = _ch(z=1.0, s=0.0)
        grid = build_mode_grid(geom, ch)
        assert grid.mode_count == 2
        rep = zeta_and_regime(ch, geom, SumKind.SINGLE_DEPHASING)
        inputs = _inputs(d_crit=0.05)
        lam = 0.05
        got = mmax_single(rep, inputs, lam, geom, mode="numeric", grid=grid)
        scan = 0
        for m in range(1, 400):
            if trace_distance_single(gamma(grid, lam, float(m)), 0.5) > inputs.d_crit:
                scan = m - 1
                break
        assert got == scan
        assert 0 < got < 160  # crossing before the quarter period pi/omega

    def test_duality_sub_ohmic(self):
        grid = build_mode_grid(GEOM_1D, _ch())
        rep = zeta_and_regime(_ch(), GEOM_1D, SumKind.SINGLE_DEPHASING)
        c = calibrate_c_cal(rep, _inputs(), 1e-2, GEOM_1D, grid)
        for lam in (1e-2, 2e-2, 5e-3):
            numeric = mmax_single(rep, _inputs(), lam, GEOM_1D, mode="numeric", grid=grid)
            asym = mmax_single(rep, _inputs(c_cal=c), lam, GEOM_1D)
            assert 0.5 <= (numeric + 1) / (asym + 1) <= 2.0

    def test_duality_ohmic(self):
        geom = BathGeometry(D=1, L=2 * math.pi * 2000, omega_c=1.0)
        ch = _ch(s=0.5)
        grid = build_mode_grid(geom, ch)
        rep = zeta_and_regime(ch, geom, SumKind.SINGLE_DEPHASING)
        c = calibrate_c_cal(rep, _inputs(), 0.03, geom, grid)
        for lam in (0.03, 0.025):
            numeric = mmax_single(rep, _inputs(), lam, geom, mode="numeric", grid=grid)
            asym = mmax_single(rep, _inputs(c_cal=c), lam, geom)
            assert 0.5 <= (numeric + 1) / (asym + 1) <= 2.0

    def test_duality_strong_ir(self):
        geom = BathGeometry(D=1, L=2 * math.pi * 1000, omega_c=1.0)
        ch = _ch(s=-1.0)
        grid = build_mode_grid(geom, ch)
        rep = zeta_and_regime(ch, geom, SumKind.SINGLE_DEPHASING)
        assert rep.regime == Regime.STRONG_IR
        c = calibrate_c_cal(rep, _inputs(), 8.8e-5, geom, grid)
        for lam in (8.8e-5, 4e-5):
            numeric = mmax_single(rep, _inputs(), lam, geom, mode="numeric", grid=grid)
            asym = mmax_single(rep, _inputs(c_cal=c), lam, geom)
            assert 0.5 <= (numeric + 1) / (asym + 1) <= 2.0

    def test_near_ohmic_asymptotic_bounds_are_infinite(self):
        # zeta = 1e-9: the inverse power z/zeta overflows, so the law never reaches the criterion
        single, pair = (
            zeta_and_regime(_ch(s=0.4999999995), GEOM_1D, kind)
            for kind in (SumKind.SINGLE_DEPHASING, SumKind.W_SELF)
        )
        assert single.regime == pair.regime == Regime.SUB_OHMIC
        assert mmax_single(single, _inputs(), 1e-3, GEOM_1D) == math.inf
        assert mmax_multi(pair, _inputs(), 1e-3, GEOM_1D) == math.inf

    def test_bad_mode(self):
        rep = zeta_and_regime(_ch(), GEOM_1D, SumKind.SINGLE_DEPHASING)
        with pytest.raises(ValueError):
            mmax_single(rep, _inputs(), 1e-3, GEOM_1D, mode="fast")


class TestMmaxMulti:
    def test_worked_logarithmic_example(self):
        ch = _ch(s=0.5)
        rep = zeta_and_regime(ch, GEOM_1D, SumKind.W_SELF)
        assert rep.regime == Regime.OHMIC
        inputs = _inputs(d_crit=0.1, n_logical=10, b_cal=1.0)
        assert mmax_multi(rep, inputs, 0.01, GEOM_1D) == 2

    def test_super_ohmic_infinite(self):
        geom = BathGeometry(D=3, L=100.0, omega_c=1.0)
        rep = zeta_and_regime(_ch(s=-0.1), geom, SumKind.W_SELF)
        assert rep.regime == Regime.SUPER_OHMIC
        assert mmax_multi(rep, _inputs(n_logical=5), 1e-3, geom) == math.inf

    def test_doubling_n_in_power_law_case(self):
        ch = _ch(s=0.25)  # zeta = 0.5, z = 1 -> M ~ N^{-2}
        rep = zeta_and_regime(ch, GEOM_1D, SumKind.W_SELF)
        assert rep.regime == Regime.SUB_OHMIC
        lam = 1e-6
        m1 = mmax_multi(rep, _inputs(n_logical=10), lam, GEOM_1D)
        m2 = mmax_multi(rep, _inputs(n_logical=20), lam, GEOM_1D)
        assert m2 / m1 == pytest.approx(2.0 ** (-rep.z_exp / rep.zeta), rel=1e-3)

    def test_non_increasing_in_n(self):
        lam = 1e-4
        cases = [
            (_ch(s=0.5), SumKind.W_SELF),   # logarithmic
            (_ch(s=0.25), SumKind.W_SELF),  # power law
            (_ch(s=-1.0), SumKind.W_SELF),  # strong infrared
        ]
        for ch, kind in cases:
            rep = zeta_and_regime(ch, GEOM_1D, kind)
            values = [
                mmax_multi(rep, _inputs(n_logical=n), lam, GEOM_1D)
                for n in (1, 2, 4, 8, 16, 32)
            ]
            assert all(a >= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "s, lam, regime",
        [(0.5, 1e-4, Regime.OHMIC), (0.3, 1e-4, Regime.SUB_OHMIC), (-1.0, 1e-12, Regime.STRONG_IR)],
    )
    def test_sign_of_lambda_star_is_irrelevant(self, s, lam, regime):
        rep = zeta_and_regime(_ch(s=s), GEOM_1D, SumKind.W_SELF)
        assert rep.regime == regime
        inputs = _inputs(n_logical=4)
        m = mmax_multi(rep, inputs, lam, GEOM_1D)
        assert 1 <= m < math.inf
        assert mmax_multi(rep, inputs, -lam, GEOM_1D) == m

    def test_wrong_kind_rejected(self):
        rep = zeta_and_regime(_ch(), GEOM_1D, SumKind.SINGLE_DEPHASING)
        with pytest.raises(ConfigError):
            mmax_multi(rep, _inputs(), 1e-3, GEOM_1D)


@pytest.fixture(scope="module")
def hs_setup():
    geom = BathGeometry(D=1, L=2 * math.pi * 2000, omega_c=1.0)
    ch = _ch(s=0.25, lam=1e-3)
    grid = build_mode_grid(geom, ch)
    layout = regular_layout(4, Xi=200.0, D_x=1, xi=1.0)
    return geom, grid, layout


class TestHsDistance:
    def test_zero_coupling(self, hs_setup):
        _, grid, layout = hs_setup
        couplings = EffectiveCoupling({"z": 0.0})
        assert hs_distance({"z": grid}, couplings, layout, 5.0) == 0.0

    def test_zero_time(self, hs_setup):
        _, grid, layout = hs_setup
        couplings = EffectiveCoupling({"z": 1e-3})
        assert hs_distance({"z": grid}, couplings, layout, 0.0) == 0.0

    def test_translation_invariance(self, hs_setup):
        _, grid, layout = hs_setup
        couplings = EffectiveCoupling({"z": 1e-3})
        base = hs_distance({"z": grid}, couplings, layout, 12.0)
        shifted = regular_layout(4, Xi=200.0, D_x=1, xi=1.0)
        shifted.logical_positions = layout.logical_positions + 137.0
        moved = hs_distance({"z": grid}, couplings, shifted, 12.0)
        assert moved == pytest.approx(base, rel=1e-10)

    def test_proportionality_scales(self, hs_setup):
        _, grid, layout = hs_setup
        couplings = EffectiveCoupling({"z": 1e-3})
        one = hs_distance({"z": grid}, couplings, layout, 7.0, proportionality=1.0)
        three = hs_distance({"z": grid}, couplings, layout, 7.0, proportionality=3.0)
        assert three == pytest.approx(3.0 * one)

    def test_perturbative_warning(self, hs_setup):
        _, grid, layout = hs_setup
        couplings = EffectiveCoupling({"z": 0.5})
        with pytest.warns(UserWarning, match="perturbative"):
            hs_distance({"z": grid}, couplings, layout, 1.0)

    def test_perturbative_warning_names_the_caller(self, hs_setup):
        _, grid, layout = hs_setup
        couplings = EffectiveCoupling({"z": 0.5})
        for call in (
            lambda: hs_distance({"z": grid}, couplings, layout, 1.0),
            lambda: mmax_multi_numeric({"z": grid}, couplings, layout, _inputs()),
        ):
            with pytest.warns(UserWarning, match="perturbative") as record:
                call()
            # reported at the line here, not inside qecbound.bounds (as from mmax_multi_numeric)
            assert {w.filename for w in record} == {__file__}

    def test_negative_lambda_star_counts_by_size(self, hs_setup):
        _, grid, _ = hs_setup
        couplings = EffectiveCoupling({"x": -0.1, "z": 1e-3})
        assert couplings.max_value == 0.1
        layout = regular_layout(16, Xi=200.0, D_x=1, xi=1.0)  # 0.1^2 * 16 > 0.1
        with pytest.warns(UserWarning, match="perturbative"):
            hs_distance({"x": grid, "z": grid}, couplings, layout, 1.0)

    @pytest.mark.parametrize("T", [-1.0, math.nan, math.inf])
    def test_time_checked_with_every_coupling_zero(self, hs_setup, T):
        _, grid, layout = hs_setup
        with pytest.raises(ValueError, match="time T must be finite and non-negative"):
            hs_distance({"z": grid}, EffectiveCoupling({"z": 0.0}), layout, T)

    def test_missing_grid(self, hs_setup):
        _, grid, layout = hs_setup
        couplings = EffectiveCoupling({"z": 1e-3, "x": 1e-4})
        with pytest.raises(ConfigError):
            hs_distance({"z": grid}, couplings, layout, 1.0)

    def test_numeric_register_bound_missing_grid(self, hs_setup):
        _, grid, layout = hs_setup
        couplings = EffectiveCoupling({"z": 1e-3, "x": 1e-3})
        with pytest.raises(ConfigError, match="no mode grid supplied for channel 'x'"):
            mmax_multi_numeric({"z": grid}, couplings, layout, _inputs(n_logical=4))

    def test_numeric_register_bound(self, hs_setup):
        _, grid, layout = hs_setup
        couplings = EffectiveCoupling({"z": 2e-4})
        inputs = _inputs(d_crit=0.01, n_logical=4)
        got = mmax_multi_numeric({"z": grid}, couplings, layout, inputs)
        assert got >= 0
        # first exceeded step really is got + 1
        d_ok = hs_distance({"z": grid}, couplings, layout, got * inputs.delta) if got else 0.0
        d_over = hs_distance({"z": grid}, couplings, layout, (got + 1) * inputs.delta)
        assert d_ok <= inputs.d_crit < d_over

    def test_numeric_register_bound_zero_coupling(self, hs_setup):
        _, grid, layout = hs_setup
        couplings = EffectiveCoupling({"z": 0.0})
        assert mmax_multi_numeric({"z": grid}, couplings, layout, _inputs()) == math.inf


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
class TestNonFiniteLambdaStar:
    """Every entry point refuses a lambda* that is not finite, naming it, before any search."""

    @pytest.mark.parametrize("mode", ["asymptotic", "numeric"])
    def test_mmax_single(self, hs_setup, mode, lam):
        geom, grid, _ = hs_setup
        rep = zeta_and_regime(_ch(s=0.25), geom, SumKind.SINGLE_DEPHASING)
        with pytest.raises(ValueError, match=r"lambda\* must be a finite number"):
            mmax_single(rep, _inputs(), lam, geom, mode=mode, grid=grid)

    def test_calibrate_c_cal(self, hs_setup, lam):
        geom, grid, _ = hs_setup
        rep = zeta_and_regime(_ch(s=0.25), geom, SumKind.SINGLE_DEPHASING)
        with pytest.raises(ValueError, match=r"lambda\* must be a finite number"):
            calibrate_c_cal(rep, _inputs(), lam, geom, grid)

    def test_mmax_multi(self, hs_setup, lam):
        geom, _, _ = hs_setup
        rep = zeta_and_regime(_ch(s=0.25), geom, SumKind.W_SELF)
        with pytest.raises(ValueError, match=r"lambda\* must be a finite number"):
            mmax_multi(rep, _inputs(n_logical=4), lam, geom)

    def test_hs_distance(self, hs_setup, lam):
        _, grid, layout = hs_setup
        couplings = EffectiveCoupling({"x": 0.0, "z": lam})
        with pytest.raises(ValueError, match=r"lambda\* of channel 'z' must be a finite number"):
            hs_distance({"x": grid, "z": grid}, couplings, layout, 1.0)

    def test_mmax_multi_numeric(self, hs_setup, lam):
        _, grid, layout = hs_setup
        couplings = EffectiveCoupling({"z": lam})
        with pytest.raises(ValueError, match=r"lambda\* of channel 'z' must be a finite number"):
            mmax_multi_numeric({"z": grid}, couplings, layout, _inputs(n_logical=4))


def _unshared(grid):
    """A separate instance over the same arrays: nothing memoized, nothing shared."""
    return ModeGrid(D=grid.D, L=grid.L, omega=grid.omega, u2=grid.u2, weight=grid.weight, m2=grid.m2)


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestSearchCap:
    """z = 1 and Delta = L: every search time is a recurrence time, where gamma(T)
    returns to ~0, while the ceiling exceeds the criterion."""

    GEOM = BathGeometry(D=1, L=2 * math.pi * 20, omega_c=1.0)

    def _setup(self):
        grid = build_mode_grid(self.GEOM, _ch())
        inputs = _inputs(d_crit=0.1, delta=self.GEOM.L)
        assert gamma(grid, 0.3, 7.0 * self.GEOM.L) < 1e-10
        return grid, inputs

    def test_single_qubit_search_stops_at_the_cap(self):
        grid, inputs = self._setup()
        rep = zeta_and_regime(_ch(), self.GEOM, SumKind.SINGLE_DEPHASING)
        assert trace_distance_single(2 * gamma_infinity(grid, 0.3), 0.5) > inputs.d_crit
        cap = "criterion not exceeded within the search cap; the grid's infrared resolution"
        with pytest.raises(CapabilityError, match=cap):
            mmax_single(rep, inputs, 0.3, self.GEOM, mode="numeric", grid=grid)

    def test_register_search_stops_at_the_cap(self):
        grid, inputs = self._setup()
        layout = regular_layout(1, Xi=100.0, D_x=1, xi=1.0)
        couplings = EffectiveCoupling({"z": 0.3})
        cap = "criterion not exceeded within the search cap; couplings may be too weak"
        with pytest.raises(CapabilityError, match=cap):
            mmax_multi_numeric({"z": grid}, couplings, layout, inputs)


class TestFirstCrossing:
    """The one search of both numeric bounds, on distances given in closed form."""

    def test_last_step_at_or_below_the_criterion(self):
        times = []

        def distance(T):
            times.append(T)
            return 0.01 * T

        inputs = _inputs(d_crit=0.1075, delta=0.5)  # 0.01 * M * 0.5 first exceeds it at M = 22
        assert bounds._first_crossing(distance, 1.0, inputs, "") == 21
        assert [T / 0.5 for T in times] == [1, 2, 4, 8, 16, 32, 24, 20, 22, 21]

    def test_ceiling_at_the_criterion_is_infinite_without_evaluating(self):
        def distance(T):
            raise AssertionError("evaluated")

        assert bounds._first_crossing(distance, 0.01, _inputs(d_crit=0.01), "") == math.inf


class TestSharedGridSums:
    @pytest.mark.parametrize("D", [1, 2])
    def test_hs_distance_sums_each_grid_once(self, D, monkeypatch):
        geom = BathGeometry(D=D, L=2 * math.pi * (400 if D == 1 else 25), omega_c=1.0)
        grid = build_mode_grid(geom, _ch(s=0.25))
        assert build_mode_grid(geom, BathChannel("x", 1.0, 0.25, 1e-4)) is grid
        layout = regular_layout(4, Xi=20.0, D_x=D, xi=1.0)
        couplings = EffectiveCoupling({"z": 3e-3, "x": 1e-3})
        separate = {"z": _unshared(grid), "x": _unshared(grid)}
        calls = _counting(monkeypatch, bounds, "w_sum")
        for T in (2.5, 40.0, 3.0 * geom.L + 0.7):
            calls.clear()
            shared = hs_distance({"z": grid, "x": grid}, couplings, layout, T)
            assert len(calls) == 1
            expected = hs_distance(separate, couplings, layout, T)
            assert len(calls) == 3
            assert shared == pytest.approx(expected, rel=1e-12)

    def test_calibration_reuses_the_numeric_search(self, monkeypatch):
        grid = build_mode_grid(GEOM_1D, _ch())
        rep = zeta_and_regime(_ch(), GEOM_1D, SumKind.SINGLE_DEPHASING)
        lam = 1.3e-2
        m = mmax_single(rep, _inputs(), lam, GEOM_1D, mode="numeric", grid=grid)
        evaluations = _counting(monkeypatch, bath.Spectrum, "_evaluate")
        c = calibrate_c_cal(rep, _inputs(), lam, GEOM_1D, grid)
        assert evaluations == []  # the same search, read from the grid's dephasing spectrum
        assert c == calibrate_c_cal(rep, _inputs(), lam, GEOM_1D, _unshared(grid))
        assert evaluations  # the fresh grid searched
        assert m == mmax_single(rep, _inputs(), lam, GEOM_1D, mode="numeric", grid=_unshared(grid))

    def test_searches_for_other_couplings_share_the_evaluations(self, monkeypatch):
        grid = _unshared(build_mode_grid(GEOM_1D, _ch()))
        rep = zeta_and_regime(_ch(), GEOM_1D, SumKind.SINGLE_DEPHASING)
        gammas = _counting(monkeypatch, bounds, "gamma")
        evaluations = _counting(monkeypatch, bath.Spectrum, "_evaluate")
        couplings = (1.3e-2, 1.7e-2, 1.3e-2)
        found = [mmax_single(rep, _inputs(), lam, GEOM_1D, mode="numeric", grid=grid)
                 for lam in couplings]
        # each (T, imag) the searches read is evaluated once, on the grid's dephasing spectrum
        assert len(set(evaluations)) == len(evaluations) < len(gammas)
        assert set(evaluations) == {(grid.dephasing, T, False) for _, _, T in gammas}
        fresh = [mmax_single(rep, _inputs(), lam, GEOM_1D, mode="numeric", grid=_unshared(grid))
                 for lam in couplings]
        assert found == fresh and 0 < found[1] < found[0] == found[2] < math.inf

    def test_a_spectrum_keeps_at_most_its_cap_of_values(self):
        grid = _unshared(build_mode_grid(BathGeometry(D=1, L=2 * math.pi * 50, omega_c=1.0), _ch()))
        times = [0.25 * j for j in range(bath._VALUES_CAP + 1)]
        first = [gamma(grid, 1e-2, T) for T in times]
        values = grid.dephasing._values
        assert len(values) == 1 and all(type(v) is complex for v in values.values())  # emptied once
        assert [gamma(grid, 1e-2, T) for T in times] == first  # evaluated again, bitwise
        assert 0 < len(values) <= bath._VALUES_CAP


class TestSearchPins:
    """The searches on a D = 1, z = 1 grid, whose sums take the harmonic path of
    Spectrum.at: M, c_cal and the number of kernel evaluations of the gamma and the
    w_sum spectrum are those of the per-shell kernel the harmonic path replaced there."""

    GEOM = BathGeometry(D=1, L=2 * math.pi * 3000, omega_c=1.0)
    CASES = [  # (single-qubit lambda*, register lambda*, M, c_cal, gamma evals, M, w_sum evals)
        (0.006, 1e-6, 838, 0.10421362674813692, 20, 1383, 22),
        (0.012, 3e-6, 60, 0.11154192037077361, 12, 300, 18),
        (0.025, 1e-5, 5, 0.1397542485937369, 6, 90, 14),
    ]

    @pytest.mark.parametrize("case", CASES, ids=lambda case: f"lam{case[0]}")
    def test_searches_unchanged(self, case, monkeypatch):
        lam, lam_register, m_single, c_cal, n_gamma, m_multi, n_w_sum = case
        grid = _unshared(build_mode_grid(self.GEOM, _ch(s=0.25)))
        assert grid.fundamental is not None
        rep = zeta_and_regime(_ch(s=0.25), self.GEOM, SumKind.SINGLE_DEPHASING)
        inputs = _inputs(n_logical=8)
        evaluations = _counting(monkeypatch, bath.Spectrum, "_evaluate")

        def counts():
            gammas = sum(spectrum is grid.dephasing for spectrum, _, _ in evaluations)
            return gammas, len(evaluations) - gammas

        assert mmax_single(rep, inputs, lam, self.GEOM, mode="numeric", grid=grid) == m_single
        assert calibrate_c_cal(rep, inputs, lam, self.GEOM, grid) == pytest.approx(c_cal, rel=1e-12)
        assert counts() == (n_gamma, 0)  # the calibration evaluates nothing more
        layout = regular_layout(8, Xi=100.0, D_x=1, xi=1.0)
        couplings = EffectiveCoupling({"z": lam_register})
        assert mmax_multi_numeric({"z": grid}, couplings, layout, inputs) == m_multi
        assert counts() == (n_gamma, n_w_sum)


class TestSearchScratch:
    """A numeric search holds its grid, one table per kind and little else: on a D = 1 grid, whose
    shells are half its modes, every shell-length temporary is a share of the run's memory."""

    def test_searches_hold_at_most_two_and_a_half_shell_arrays_of_scratch(self):
        geom = BathGeometry(D=1, L=2 * math.pi * 125_000, omega_c=1.0)
        grid = _unshared(build_mode_grid(geom, _ch(s=0.25)))  # cold: no table built yet
        shell_array = 8 * grid.stored_count
        rep = zeta_and_regime(_ch(s=0.25), geom, SumKind.SINGLE_DEPHASING)
        inputs = _inputs(n_logical=8)
        layout = regular_layout(8, Xi=100.0, D_x=1, xi=1.0)
        tracemalloc.start()
        try:
            m_single = mmax_single(rep, inputs, 0.01, geom, mode="numeric", grid=grid)
            couplings = EffectiveCoupling({"z": 3e-6})
            m_multi = mmax_multi_numeric({"z": grid}, couplings, layout, inputs)
            retained, peak = tracemalloc.get_traced_memory()  # retained: the two tables
        finally:
            tracemalloc.stop()
        assert grid.stored_count == 125_000 and 0 < m_single < m_multi < math.inf
        assert 2 * shell_array <= retained < 2.2 * shell_array
        assert peak - retained <= 2.5 * shell_array


class TestFitSlope:
    def test_exact_power_law(self):
        series = [(m, 3.0 * m**2) for m in range(1, 12)]
        slope, resid = fit_loglog_slope(series)
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert resid < 1e-12

    def test_constant_series(self):
        series = [(m, 7.5) for m in range(1, 12)]
        slope, _ = fit_loglog_slope(series)
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([(1, 1.0)] * 7)

    def test_non_positive_values(self):
        series = [(m, float(m - 5)) for m in range(1, 12)]
        with pytest.raises(ValueError, match="non-positive"):
            fit_loglog_slope(series)

    def test_non_increasing_m(self):
        series = [(m, 1.0 * m) for m in (1, 2, 3, 4, 5, 6, 7, 7)]
        with pytest.raises(ValueError, match="increasing"):
            fit_loglog_slope(series)


class TestCalibration:
    def test_strong_ir_c_cal_is_box_independent(self):
        ch = _ch(s=-1.0)
        values = []
        for size in (250, 1000, 4000):
            geom = BathGeometry(D=1, L=2 * math.pi * size, omega_c=1.0)
            rep = zeta_and_regime(ch, geom, SumKind.SINGLE_DEPHASING)
            assert rep.regime == Regime.STRONG_IR
            grid = build_radial_mode_grid(geom, ch)
            values.append(calibrate_c_cal(rep, _inputs(), 8.8e-5, geom, grid))
        assert max(values) < 1.5 * min(values)

    @pytest.mark.parametrize(
        "kind, s, regime, lams",
        [
            (SumKind.SINGLE_DEPHASING, 0.5, Regime.OHMIC, (0.05, 0.037)),
            (SumKind.SINGLE_DEPHASING, 0.0, Regime.SUB_OHMIC, (1.3e-3, 4.1e-4)),
            (SumKind.SINGLE_DEPHASING, -1.0, Regime.STRONG_IR, (1e-5, 3.3e-6)),
            (SumKind.W_SELF, 0.5, Regime.OHMIC, (5e-4, 3.7e-4)),
            (SumKind.W_SELF, 0.25, Regime.SUB_OHMIC, (1.3e-4, 3e-4)),
            (SumKind.W_SELF, -1.0, Regime.STRONG_IR, (1.3e-12, 3.3e-13)),
            (SumKind.W_CORRELATED, 1.0, Regime.OHMIC, (5e-4, 3.7e-4)),
            (SumKind.W_CORRELATED, 0.75, Regime.SUB_OHMIC, (1.3e-4, 3e-4)),
            (SumKind.W_CORRELATED, 0.25, Regime.STRONG_IR, (3e-7, 1.1e-7)),
        ],
        ids=[
            "ohmic",
            "sub_ohmic",
            "strong_ir",
            "w_self-ohmic",
            "w_self-sub_ohmic",
            "w_self-strong_ir",
            "w_correlated-ohmic",
            "w_correlated-sub_ohmic",
            "w_correlated-strong_ir",
        ],
    )
    def test_asymptotic_bound_inverts_the_growth_law(self, kind, s, regime, lams):
        # the bound is the last M whose law stays at or below the scaled criterion
        rep = zeta_and_regime(_ch(s=s), GEOM_1D, kind, D_x=1)
        assert rep.regime == regime
        for cal, lam in itertools.product((1.0, 0.5, 2.0), lams):
            if kind == SumKind.SINGLE_DEPHASING:
                inputs = _inputs(c_cal=cal)
                m = mmax_single(rep, inputs, lam, GEOM_1D)
                target = inputs.d_crit

                def law(k):
                    return gamma_asymptotic(rep, inputs, lam, GEOM_1D, k)

            else:
                inputs = _inputs(n_logical=4, b_cal=cal)
                m = mmax_multi(rep, inputs, lam, GEOM_1D)
                target = cal * inputs.d_crit

                def law(k):
                    return lam * w_sum_asymptotic(rep, 4, GEOM_1D, inputs.delta, k)

            assert m >= 1, (cal, lam)
            assert law(m) <= target < law(m + 1), (cal, lam)

    @pytest.mark.parametrize("kind", [SumKind.W_SELF, SumKind.W_CORRELATED])
    def test_wrong_kind_rejected(self, kind):
        # at s = -0.25 a w_self report is strong-IR and the dephasing one sub-Ohmic: another c_cal
        geom = BathGeometry(D=1, L=2 * math.pi * 1000, omega_c=1.0)
        grid = build_mode_grid(geom, _ch(s=-0.25))
        dephasing = zeta_and_regime(_ch(s=-0.25), geom, SumKind.SINGLE_DEPHASING)
        assert 0 < calibrate_c_cal(dephasing, _inputs(), 1e-3, geom, grid) < math.inf
        with pytest.raises(ConfigError, match=f"kind '{kind.value}'"):
            calibrate_c_cal(zeta_and_regime(_ch(s=-0.25), geom, kind, D_x=1), _inputs(), 1e-3, geom, grid)

    def test_super_ohmic_passthrough(self):
        geom = BathGeometry(D=3, L=40 * math.pi, omega_c=1.0)
        grid = build_radial_mode_grid(geom, _ch())
        rep = zeta_and_regime(_ch(), geom, SumKind.SINGLE_DEPHASING)
        assert calibrate_c_cal(rep, _inputs(c_cal=1.7), 1e-3, geom, grid) == 1.7

    def test_infinite_numeric_bound_cannot_calibrate(self):
        grid = build_mode_grid(GEOM_1D, _ch())
        rep = zeta_and_regime(_ch(), GEOM_1D, SumKind.SINGLE_DEPHASING)
        assert mmax_single(rep, _inputs(), 1e-9, GEOM_1D, mode="numeric", grid=grid) == math.inf
        with pytest.raises(ValueError, match="numeric bound inf cannot calibrate"):
            calibrate_c_cal(rep, _inputs(), 1e-9, GEOM_1D, grid)

    def test_calibration_reproduces_numeric_at_fit_point(self):
        # sub-Ohmic, Ohmic and strong-IR: the grids of the test_duality_* tests
        for size, s, lam in ((5000, 0.0, 1e-2), (2000, 0.5, 0.03), (1000, -1.0, 8.8e-5)):
            geom = BathGeometry(D=1, L=2 * math.pi * size, omega_c=1.0)
            grid = build_mode_grid(geom, _ch(s=s))
            rep = zeta_and_regime(_ch(s=s), geom, SumKind.SINGLE_DEPHASING)
            numeric = mmax_single(rep, _inputs(), lam, geom, mode="numeric", grid=grid)
            c = calibrate_c_cal(rep, _inputs(), lam, geom, grid)
            asym = mmax_single(rep, _inputs(c_cal=c), lam, geom)
            assert abs(asym - numeric) <= 1, rep.regime
