"""Exact invariances of the position sums: none depends on where a register sits.

Translating a set of positions, or permuting it, leaves every separation as
it was, and W is even in the separation; so w_sum, hs_distance and a_matrix
are unchanged, and w_pair is symmetric, up to the rounding of the
coordinates (relative 1e-12).  Each case runs on one product layout (the
factorized structure factor on D >= 2) and one that is not a product (the
separation table).
"""

import math

import numpy as np
import pytest

from qecbound import (
    BathChannel,
    BathGeometry,
    EffectiveCoupling,
    QubitLayout,
    a_matrix,
    build_mode_grid,
    hs_distance,
    lattice_sites,
    w_pair,
    w_sum,
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
