"""Exact invariances of the lattice sums: where a register sits, and the size of the box.

Translating a set of positions, or permuting it, leaves every separation as
it was, and W is even in the separation; so w_sum, hs_distance and a_matrix
are unchanged, and w_pair is symmetric, up to the rounding of the
coordinates (relative 1e-12).  Each case runs on one product layout (the
factorized structure factor on D >= 2) and one that is not a product (the
separation table).

Shrinking the box and everything in it by c (L -> L/c, omega_c -> c omega_c,
T -> T/c and positions -> positions/c, at z = 1) keeps the integer mode set,
so each time sum scales by exactly c^(D + 2s - 2): the prefactor gives c^D and
|u|^2 / omega^2 gives c^(2s - 2), while every phase k.d and omega T is unchanged.
"""

import math

import numpy as np
import pytest

from qecbound import (
    BathChannel,
    BathGeometry,
    BoundInput,
    EffectiveCoupling,
    QubitLayout,
    SumKind,
    a_matrix,
    build_mode_grid,
    gamma,
    gamma_infinity,
    hs_distance,
    lattice_sites,
    mmax_single,
    w_pair,
    w_sum,
    zeta_and_regime,
)
from qecbound.bath import _product_axes

CH = BathChannel(axis="z", z_exp=1.0, s_exp=0.25, lam=1e-3)
GEOMS = {
    1: BathGeometry(D=1, L=2 * math.pi * 50, omega_c=1.0),
    2: BathGeometry(D=2, L=2 * math.pi * 12, omega_c=1.0),
    3: BathGeometry(D=3, L=2 * math.pi * 6, omega_c=1.0),
}
TIMES = (3.7, 41.3)
REL = 1e-12


def _layouts(D):
    """{name: positions}: a product of per-axis coordinates, and a set that is none."""
    irregular = np.random.default_rng(D).uniform(-4.0, 4.0, size=(5, D))
    irregular[3] = irregular[1]  # a coincident pair
    return {"product": 7.0 * lattice_sites(4, D), "irregular": irregular}


def _moved(positions, seed):
    """The positions permuted and translated by one vector."""
    rng = np.random.default_rng(seed)
    return positions[rng.permutation(len(positions))] + rng.uniform(-3.0, 3.0, size=positions.shape[1])


def _register(positions, offsets=None):
    D = positions.shape[1]
    offsets = 0.5 * lattice_sites(5, D) if offsets is None else offsets
    return QubitLayout(logical_positions=positions, physical_offsets=offsets, xi=0.5, Xi=7.0, D_x=D)


def _assert_close(got, want):
    assert abs(got - want) <= REL * abs(want)


@pytest.fixture(scope="module", params=sorted(GEOMS), ids=lambda D: f"D{D}")
def case(request):
    D = request.param
    return D, build_mode_grid(GEOMS[D], CH)


@pytest.mark.parametrize("D", [2, 3])
def test_layouts_take_both_structure_factor_paths(D):
    layouts = _layouts(D)
    assert _product_axes(layouts["product"]) is not None and _product_axes(layouts["irregular"]) is None


@pytest.mark.parametrize("layout", ["product", "irregular"])
def test_w_sum_ignores_translation_and_order(case, layout):
    D, grid = case
    positions = _layouts(D)[layout]
    for seed in (1, 2):
        moved = _moved(positions, seed)
        for T in TIMES:
            _assert_close(w_sum(grid, moved, T), w_sum(grid, positions, T))


@pytest.mark.parametrize("layout", ["product", "irregular"])
def test_hs_distance_ignores_translation_and_order(case, layout):
    D, grid = case
    positions = _layouts(D)[layout]
    grids, couplings = {"z": grid, "x": grid}, EffectiveCoupling({"z": 3e-3, "x": 1e-3})
    for T in TIMES:
        want = hs_distance(grids, couplings, _register(positions), T)
        _assert_close(hs_distance(grids, couplings, _register(_moved(positions, 3)), T), want)


@pytest.mark.parametrize("layout", ["product", "irregular"])
def test_w_pair_is_symmetric(case, layout):
    D, grid = case
    positions = _layouts(D)[layout]
    for x, y in ((positions[0], positions[1]), (positions[1], positions[-1])):
        for T in TIMES:
            _assert_close(w_pair(grid, y, x, T), w_pair(grid, x, y, T))


@pytest.mark.parametrize("layout", ["product", "irregular"])
def test_a_matrix_ignores_translation_of_the_offsets(case, layout):
    D, grid = case
    offsets = 0.1 * _layouts(D)[layout]
    shifted = offsets + np.random.default_rng(4).uniform(-3.0, 3.0, size=D)
    logical = np.zeros((1, D))
    want = a_matrix(grid, _register(logical, offsets), CH, delta=1.0).values
    got = a_matrix(grid, _register(logical, shifted), CH, delta=1.0).values
    np.testing.assert_allclose(got, want, rtol=REL, atol=0.0)


def _scaled_pair(D, s, c):
    """(channel, the box shrunk by c, its grid, the grid of GEOMS[D], c^(D + 2s - 2)), at z = 1."""
    ch = BathChannel(axis="z", z_exp=1.0, s_exp=s, lam=1e-3)
    geom = GEOMS[D]
    small = BathGeometry(D=D, L=geom.L / c, omega_c=geom.omega_c * c)
    grids = build_mode_grid(small, ch), build_mode_grid(geom, ch)
    return ch, small, *grids, float(c) ** (D + 2 * s - 2)


_SCALE_CASES = [(D, s, c) for D in sorted(GEOMS) for s in (0.0, 0.25) for c in (2, 4)]


@pytest.mark.parametrize("D, s, c", _SCALE_CASES)
class TestScaleCovariance:
    """gamma, w_pair and w_sum on a box shrunk by c are c^(D + 2s - 2) times their values.

    a_matrix and lambda_star are left out: their pair sums lack the (2*pi/L)^D measure that
    gamma and W carry, so they come out low by exactly c^-D (ROADMAP item 2).  The fix of that
    item's step 1 adds them here.
    """

    def test_time_sums_scale(self, D, s, c):
        _, _, small, grid, power = _scaled_pair(D, s, c)
        assert np.array_equal(small.m2, grid.m2)  # the same mode set
        for positions in _layouts(D).values():
            x, y = positions[0], positions[1]
            for T in (3.7, 41.3, 250.9):
                _assert_close(gamma(small, 0.03, T / c), power * gamma(grid, 0.03, T))
                _assert_close(w_pair(small, x / c, y / c, T / c), power * w_pair(grid, x, y, T))
                _assert_close(w_sum(small, positions / c, T / c), power * w_sum(grid, positions, T))

    def test_numeric_mmax_is_invariant(self, D, s, c):
        ch, small_geom, small, grid, power = _scaled_pair(D, s, c)
        report = zeta_and_regime(ch, GEOMS[D], SumKind.SINGLE_DEPHASING)
        inputs = BoundInput(d_crit=0.01, sigma_plus_abs=0.5, n_logical=1, delta=0.125)
        shrunk = BoundInput(d_crit=0.01, sigma_plus_abs=0.5, n_logical=1, delta=0.125 / c)
        gamma_crit = -0.25 * math.log1p(-0.01 / 0.5)  # the criterion's gamma
        for f in (1.1, 2.0, 8.0):  # a late, a middle and an early crossing
            lam = math.sqrt(f * gamma_crit / gamma_infinity(grid, 1.0))
            m = mmax_single(report, inputs, lam, GEOMS[D], mode="numeric", grid=grid)
            assert 0 < m < math.inf
            scaled = lam * float(c) ** (-(D + 2 * s - 2) / 2)
            assert mmax_single(report, shrunk, scaled, small_geom, mode="numeric", grid=small) == m
