"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines on passing runs.  Heavy grids are shared through module-scoped
fixtures; criterion 3 asserts its own wall-clock budget.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

import qecbound as qb
from qecbound.cli import main as cli_main
from qecbound.cli import run_subcommand

from conftest import random_pauli

DELTA = 1.0
LAMBDA_STAR = 1e-3
MIN_L = 200 * 2 * math.pi  # criterion 3 floor on the bath size


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    print(f"[criterion {number}] PASS - {description}")


def _log_spaced_steps(lo, hi, count):
    return np.unique(np.round(np.logspace(math.log10(lo), math.log10(hi), count)).astype(int))


def _channel(s_exp, axis="z"):
    return qb.BathChannel(axis=axis, z_exp=1.0, s_exp=s_exp, lam=LAMBDA_STAR)


@pytest.fixture(scope="module")
def grid_sub_ohmic():
    # D=1, z=1, s=0; L chosen >> T_max so finite-size revivals stay away
    geom = qb.BathGeometry(D=1, L=2 * math.pi * 3.0e4, omega_c=1.0 / DELTA)
    assert geom.L >= MIN_L
    return geom, qb.build_mode_grid(geom, _channel(0.0))


@pytest.fixture(scope="module")
def grid_super_ohmic():
    # D=3 at the stated minimum size; radial compression keeps it in memory
    geom = qb.BathGeometry(D=3, L=MIN_L, omega_c=1.0 / DELTA)
    return geom, qb.build_radial_mode_grid(geom, _channel(0.0), max_modes=50_000_000)


class TestCriterion1:
    def test_eta_table(self):
        with criterion(1, "10-entry uncorrectable-error table matching the reference indices"):
            start = time.perf_counter()
            rows = run_subcommand("eta", qb.default_config(), {}).rows
            elapsed = time.perf_counter() - start
            assert len(rows) == 10
            xz = {(i, j, k) for a, b, i, j, k, cls in rows if (a, b) == ("x", "z")}
            zx = {(i, j, k) for a, b, i, j, k, cls in rows if (a, b) == ("z", "x")}
            assert len(xz) == 5 and len(zx) == 5
            # classification split: (x; z,z) acts as logical X, (z; x,x) as logical Z
            for a, b, i, j, k, cls in rows:
                assert cls == ("LogicalX" if a == "x" else "LogicalZ")

            def cyc(triples, shift):
                def move(q):
                    return (q + shift - 1) % 5 + 1

                return {
                    (move(i), min(move(j), move(k)), max(move(j), move(k)))
                    for i, j, k in triples
                }

            # closed under cyclic shifts of the site labels
            assert cyc(xz, 1) == xz and cyc(zx, 1) == zx
            # reference indices from the documented generator convention
            ref_xz = {(3, 2, 4), (4, 3, 5), (5, 1, 4), (1, 2, 5), (2, 1, 3)}
            ref_zx = {(1, 3, 4), (4, 1, 2), (2, 4, 5), (5, 2, 3), (3, 1, 5)}
            shifts = [s for s in range(5) if cyc(ref_xz, s) == xz and cyc(ref_zx, s) == zx]
            assert shifts, "no cyclic relabeling maps the reference table onto the result"
            # identity relabeling works under this convention (and, because the
            # table is shift-closed, so does every other cyclic relabeling)
            assert 0 in shifts
            assert elapsed < 1.0


class TestCriterion2:
    def test_distance_by_full_enumeration(self, code):
        with criterion(2, "no trivial-syndrome logical of weight < 3 among all 1024 Paulis"):
            start = time.perf_counter()
            logical_weights = []
            for letters in itertools.product("IXYZ", repeat=5):
                p = qb.PauliString.from_label("".join(letters))
                if qb.syndrome(code, p).is_trivial and qb.classify(code, p).is_logical:
                    logical_weights.append(p.weight)
            assert logical_weights, "enumeration found no logical operators at all"
            assert min(logical_weights) == 3
            assert qb.verify_distance(code, 3)
            assert time.perf_counter() - start < 1.0


class TestCriterion3:
    def test_regime_exponents(self, grid_sub_ohmic, grid_super_ohmic):
        with criterion(3, "decoherence-function growth laws in all four regimes"):
            start = time.perf_counter()
            steps = _log_spaced_steps(100, 10_000, 25)

            # (a) D=1, z=1, s=0: power-law growth with unit exponent
            _, grid_a = grid_sub_ohmic
            series_a = [(int(m), qb.gamma(grid_a, LAMBDA_STAR, m * DELTA)) for m in steps]
            slope_a, _ = qb.fit_loglog_slope(series_a)
            assert abs(slope_a - 1.0) <= 0.15

            # (b) D=1, z=1, s=-1: strong infrared, quadratic growth, L-dependent
            geom_b = qb.BathGeometry(D=1, L=2 * math.pi * 1.0e5, omega_c=1.0 / DELTA)
            assert geom_b.L >= MIN_L
            grid_b = qb.build_mode_grid(geom_b, _channel(-1.0))
            series_b = [(int(m), qb.gamma(grid_b, LAMBDA_STAR, m * DELTA)) for m in steps]
            slope_b, _ = qb.fit_loglog_slope(series_b)
            assert abs(slope_b - 2.0) <= 0.1
            geom_b2 = qb.BathGeometry(D=1, L=2 * geom_b.L, omega_c=1.0 / DELTA)
            grid_b2 = qb.build_mode_grid(geom_b2, _channel(-1.0))
            assert qb.gamma(grid_b2, LAMBDA_STAR, 1000.0) > qb.gamma(grid_b, LAMBDA_STAR, 1000.0)

            # (c) D=1, z=1, s=1/2: logarithmic growth
            geom_c = qb.BathGeometry(D=1, L=2 * math.pi * 3.0e4, omega_c=1.0 / DELTA)
            grid_c = qb.build_mode_grid(geom_c, _channel(0.5))
            top_decade = _log_spaced_steps(1000, 10_000, 9)
            ratios = [
                qb.gamma(grid_c, LAMBDA_STAR, m * DELTA) / math.log(m) for m in top_decade
            ]
            assert max(ratios) / min(ratios) <= 1.10

            # (d) D=3, z=1, s=0: saturation
            _, grid_d = grid_super_ohmic
            g3 = qb.gamma(grid_d, LAMBDA_STAR, 1.0e3 * DELTA)
            g4 = qb.gamma(grid_d, LAMBDA_STAR, 1.0e4 * DELTA)
            assert 1.0 <= g4 / g3 <= 1.05

            assert time.perf_counter() - start < 300.0


class TestCriterion4:
    def test_exact_single_qubit_distance(self):
        with criterion(4, "exact dephasing distance on a single-mode grid"):
            geom = qb.BathGeometry(D=1, L=2 * math.pi, omega_c=1.0)
            grid = qb.build_mode_grid(geom, _channel(0.5))
            assert grid.mode_count == 2  # k = +-1 only
            sigma = 0.5
            for T in (0.1, 0.7, 2.0, 9.0):
                g = qb.gamma(grid, 0.05, T)
                closed_form = grid.prefactor * 0.05**2 * 2.0 * (1.0 - math.cos(T))
                assert g == pytest.approx(closed_form, rel=1e-12)
                d = qb.trace_distance_single(g, sigma)
                reference = sigma * (1.0 - math.exp(-4.0 * g))
                assert d == pytest.approx(reference, rel=1e-12)
            for g in (2e-3, 1e-3, 1e-4, 1e-6):
                exact = qb.trace_distance_single(g, sigma)
                assert abs(exact - 4.0 * g * sigma) / exact <= 0.01


class TestCriterion5:
    def test_mmax_cross_validation(self, grid_sub_ohmic, grid_super_ohmic):
        with criterion(5, "numeric and calibrated asymptotic step bounds agree within 2x"):
            geom, grid = grid_sub_ohmic
            ch = _channel(0.0)
            report = qb.zeta_and_regime(ch, geom, qb.SumKind.SINGLE_DEPHASING)
            inputs = qb.BoundInput(
                d_crit=0.01, sigma_plus_abs=0.5, n_logical=1, delta=DELTA
            )
            c_cal = qb.calibrate_c_cal(report, inputs, 1e-3, geom, grid)
            calibrated = qb.BoundInput(
                d_crit=0.01, sigma_plus_abs=0.5, n_logical=1, delta=DELTA, c_cal=c_cal
            )
            for lam in (1e-3, 3e-3, 1e-2):
                numeric = qb.mmax_single(
                    report, inputs, lam, geom, mode="numeric", grid=grid
                )
                asym = qb.mmax_single(report, calibrated, lam, geom)
                assert numeric > 0 and asym > 0
                assert 0.5 <= numeric / asym <= 2.0

            # saturating regime: criterion above the saturation value -> infinite
            geom_s, grid_s = grid_super_ohmic
            report_s = qb.zeta_and_regime(ch, geom_s, qb.SumKind.SINGLE_DEPHASING)
            assert report_s.regime == qb.Regime.SUPER_OHMIC
            assert qb.d_sat(grid_s, 1e-3, 0.5) < 0.01
            assert qb.mmax_single(report_s, inputs, 1e-3, geom_s, grid=grid_s) == math.inf
            assert (
                qb.mmax_single(report_s, inputs, 1e-3, geom_s, mode="numeric", grid=grid_s)
                == math.inf
            )


class TestCriterion6:
    def test_pair_sum_scaling(self):
        with criterion(6, "pair-correlation sum: linear in N, M-exponent 1/2"):
            # separations far outside the light cone of the largest time
            spacing = 2.4e5
            geom = qb.BathGeometry(D=1, L=2 * math.pi * 1.2e6, omega_c=1.0 / DELTA)
            grid = qb.build_mode_grid(geom, _channel(0.25))
            steps = _log_spaced_steps(100, 10_000, 13)
            totals = {}
            for n in (2, 4, 8, 16):
                positions = (np.arange(n) * spacing)[:, None]
                totals[n] = [
                    abs(qb.w_sum(grid, positions, m * DELTA)) for m in steps
                ]
            for idx, m in enumerate(steps):
                per_qubit = [totals[n][idx] / n for n in (2, 4, 8, 16)]
                assert max(per_qubit) / min(per_qubit) <= 1.10
            for n in (2, 4, 8, 16):
                slope, _ = qb.fit_loglog_slope(list(zip(steps, totals[n])))
                assert abs(slope - 0.5) <= 0.15


class TestCriterion7:
    def test_hs_bound_sanity(self):
        with criterion(7, "register bound edge cases and the worked logarithmic example"):
            geom = qb.BathGeometry(D=1, L=2 * math.pi * 1000, omega_c=1.0)
            grid = qb.build_mode_grid(geom, _channel(0.25))
            layout = qb.regular_layout(4, Xi=2000.0, D_x=1, xi=1.0)
            zero_coupling = qb.EffectiveCoupling({"z": 0.0})
            assert qb.hs_distance({"z": grid}, zero_coupling, layout, 5.0) == 0.0
            finite = qb.EffectiveCoupling({"z": 1e-3})
            assert qb.hs_distance({"z": grid}, finite, layout, 0.0) == 0.0

            # worked example: exp(1) floored to 2
            ch = _channel(0.5)
            report = qb.zeta_and_regime(ch, geom, qb.SumKind.W_SELF)
            assert report.regime == qb.Regime.OHMIC
            inputs = qb.BoundInput(
                d_crit=0.1, sigma_plus_abs=0.5, n_logical=10, delta=DELTA, b_cal=1.0
            )
            assert qb.mmax_multi(report, inputs, 0.01, geom) == 2

            # the register bound never grows with more qubits, in any finite regime
            for s_exp in (0.5, 0.25, -1.0):
                rep = qb.zeta_and_regime(_channel(s_exp), geom, qb.SumKind.W_SELF)
                assert rep.regime != qb.Regime.SUPER_OHMIC
                values = [
                    qb.mmax_multi(
                        rep,
                        qb.BoundInput(
                            d_crit=0.1, sigma_plus_abs=0.5, n_logical=n, delta=DELTA
                        ),
                        1e-4,
                        geom,
                    )
                    for n in (1, 2, 4, 8, 16, 32)
                ]
                assert all(a >= b for a, b in zip(values, values[1:]))


class TestCriterion8:
    def test_property_suites(self, code, tmp_path):
        with criterion(8, "property suites: algebra, sum bounds, symmetry, determinism"):
            rng = random.Random(20100420)

            # exact associativity on 1000 random triples
            for _ in range(1000):
                n = rng.randint(1, 6)
                p, q, r = (random_pauli(rng, n) for _ in range(3))
                assert qb.multiply(qb.multiply(p, q), r) == qb.multiply(p, qb.multiply(q, r))

            # classification is constant on stabilizer cosets, 1000 random errors
            group = code.stabilizer_group()
            for _ in range(1000):
                e = random_pauli(rng, 5)
                ref = qb.classify(code, e)
                for s in group:
                    assert qb.classify(code, qb.multiply(e, s)) == ref

            # decoherence function: non-negative, bounded by twice the static sum
            for _ in range(10):
                geom = qb.BathGeometry(
                    D=rng.choice([1, 2]),
                    L=rng.uniform(20, 80),
                    omega_c=rng.uniform(0.7, 1.5),
                )
                ch = qb.BathChannel(
                    axis="z",
                    z_exp=rng.uniform(0.6, 1.8),
                    s_exp=rng.uniform(-0.5, 0.8),
                    lam=1e-3,
                )
                grid = qb.build_mode_grid(geom, ch)
                bound = 2.0 * qb.gamma_infinity(grid, 0.05)
                for _ in range(10):
                    g = qb.gamma(grid, 0.05, rng.uniform(0, 300))
                    assert 0.0 <= g <= bound * (1 + 1e-12)

            # pair-correlation symmetry and the diagonal imaginary-part identity
            geom = qb.BathGeometry(D=1, L=60 * math.pi, omega_c=1.0)
            grid = qb.build_mode_grid(geom, _channel(0.25))
            for _ in range(25):
                x, y = [rng.uniform(-50, 50)], [rng.uniform(-50, 50)]
                T = rng.uniform(0, 80)
                assert qb.w_pair(grid, x, y, T) == qb.w_pair(grid, y, x, T)
            T = 11.0
            diag = qb.w_pair(grid, [0.0], [0.0], T)
            expected_im = -grid.prefactor * float(
                np.dot(grid.weight * grid.u2 / grid.omega**2, np.sin(grid.omega * T))
            )
            assert diag.imag == pytest.approx(expected_im, rel=1e-12)

            # translation invariance of the register bound
            layout = qb.regular_layout(4, Xi=300.0, D_x=1, xi=1.0)
            couplings = qb.EffectiveCoupling({"z": 1e-3})
            base = qb.hs_distance({"z": grid}, couplings, layout, 9.0)
            layout.logical_positions = layout.logical_positions + 41.5
            assert qb.hs_distance({"z": grid}, couplings, layout, 9.0) == pytest.approx(
                base, rel=1e-10
            )

            # byte-identical CLI reruns
            out_a, out_b = tmp_path / "a", tmp_path / "b"
            for out in (out_a, out_b):
                assert (
                    cli_main(
                        ["--out", str(out), "gamma", "--t-max", "40", "--steps", "15"]
                    )
                    == 0
                )
            assert (out_a / "gamma.csv").read_bytes() == (out_b / "gamma.csv").read_bytes()
