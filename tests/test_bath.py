import gc
import itertools
import math
import random
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qecbound import (
    BathChannel,
    BathGeometry,
    CapabilityError,
    DegenerateInputError,
    DimensionError,
    ModeGrid,
    QubitLayout,
    a_matrix,
    build_mode_grid,
    build_radial_mode_grid,
    default_config,
    gamma,
    gamma_infinity,
    lattice_sites,
    regular_layout,
    w_pair,
    w_sum,
)
from qecbound import bath

from conftest import grid_modes


def _ch(z=1.0, s=0.0, lam=1e-3, axis="z"):
    return BathChannel(axis=axis, z_exp=z, s_exp=s, lam=lam)


class TestGridConstruction:
    def test_minimal_1d_grid(self):
        geom = BathGeometry(D=1, L=2 * math.pi, omega_c=1.0)
        grid = build_mode_grid(geom, _ch())
        assert grid.mode_count == 2 and grid.n is None  # one shell: the pair n = +-1
        assert np.array_equal(grid.weight, [2.0])
        assert np.allclose(grid.omega, 1.0)

    def test_1d_count(self):
        geom = BathGeometry(D=1, L=20 * math.pi, omega_c=1.0)
        grid = build_mode_grid(geom, _ch())
        assert grid.mode_count == 20

    def test_plus_minus_closure(self):
        rng = random.Random(8)
        for _ in range(5):
            D = rng.choice([1, 2, 3])
            geom = BathGeometry(D=D, L=rng.uniform(10, 30), omega_c=rng.uniform(0.8, 2.0))
            ch = _ch(z=rng.uniform(0.5, 2.0))
            grid = build_mode_grid(geom, ch)
            ball = _pencil_vectors(D, bath._lattice_extent(geom, ch.z_exp))
            if D == 1:  # the shell table alone: shell j is the pair n = +-(j + 1)
                assert grid.n is None and np.array_equal(grid.weight, np.full(len(ball) // 2, 2.0))
                continue
            vectors = {tuple(v) for v in np.concatenate([grid.n, -grid.n]).tolist()}
            assert len(vectors) == 2 * len(grid.n) == len(ball)
            assert vectors == {tuple(v) for v in ball.tolist()}

    def test_cutoff_respected(self):
        geom = BathGeometry(D=2, L=25.0, omega_c=1.3)
        ch = _ch(z=1.7)
        grid = build_mode_grid(geom, ch)
        assert np.all(grid.omega <= geom.omega_c * (1 + 1e-9))

    def test_budget_exceeded_names_inputs(self):
        geom = BathGeometry(D=3, L=300.0, omega_c=1.0)
        with pytest.raises(CapabilityError) as err:
            build_mode_grid(geom, _ch(), max_modes=1000)
        assert "L=300.0" in str(err.value) and "omega_c=1.0" in str(err.value)

    def test_empty_grid_rejected(self):
        geom = BathGeometry(D=1, L=2 * math.pi, omega_c=0.5)
        with pytest.raises(DegenerateInputError):
            build_mode_grid(geom, _ch())

    def test_radial_matches_dense(self):
        for D in (1, 2, 3):
            geom = BathGeometry(D=D, L=31.0, omega_c=1.0)
            ch = _ch(z=1.2, s=0.3)
            dense = build_mode_grid(geom, ch)
            radial = build_radial_mode_grid(geom, ch)
            assert radial.is_radial and dense.is_radial == (D == 1)
            assert radial.mode_count == dense.mode_count
            # D = 1 stores one record per shell either way
            assert radial.stored_count <= dense.stored_count
            for T in (0.0, 3.7, 50.0):
                assert gamma(radial, 0.1, T) == pytest.approx(
                    gamma(dense, 0.1, T), rel=1e-12, abs=1e-300
                )
            assert gamma_infinity(radial, 0.1) == pytest.approx(
                gamma_infinity(dense, 0.1), rel=1e-12
            )

    @pytest.mark.parametrize("D", [1, 2, 3])
    def test_slab_enumeration_matches_pencils(self, D):
        for n in (1, 2, 5, 11):
            for m2max in (n * n, n * n + 1, n * n + n):
                want = _pencil_vectors(D, m2max)
                got = bath._dense_vectors(list(bath._slabs(D, m2max)), len(want) // 2)
                assert np.array_equal(got, want[: len(want) // 2])

    def test_radial_refuses_positions(self):
        geom = BathGeometry(D=2, L=30.0, omega_c=1.0)
        grid = build_radial_mode_grid(geom, _ch())
        with pytest.raises(CapabilityError, match="dense"):
            w_pair(grid, [1.0, 0.0], [0.0, 0.0], 1.0)

    def test_radial_refuses_every_position_sum(self):
        geom = BathGeometry(D=2, L=30.0, omega_c=1.0)
        grid = build_radial_mode_grid(geom, _ch())
        with pytest.warns(UserWarning, match="coarse graining"):
            register = regular_layout(2, Xi=3.0, D_x=1, xi=0.5)
        for call in (
            lambda: w_pair(grid, [1.0, 0.0], [0.0, 0.0], 1.0),
            lambda: w_sum(grid, register.padded_logical_positions(2), 1.0),
            lambda: w_sum(grid, np.zeros((1, 2)), 1.0),  # one site: no separation to form
            lambda: a_matrix(grid, register, _ch(), delta=1.0),
        ):
            with pytest.raises(CapabilityError, match="dense"):
                call()

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            BathGeometry(D=4, L=10.0, omega_c=1.0)
        with pytest.raises(ValueError):
            BathGeometry(D=1, L=-1.0, omega_c=1.0)
        with pytest.raises(ValueError):
            BathChannel(axis="y", z_exp=1.0, s_exp=0.0, lam=0.1)
        with pytest.raises(ValueError):
            BathChannel(axis="z", z_exp=0.0, s_exp=0.0, lam=0.1)
        with pytest.raises(ValueError):
            BathChannel(axis="z", z_exp=1.0, s_exp=0.0, lam=-0.1)


def _pencil_vectors(D, m2max):
    """Reference enumeration: one (n1, n2) pencil at a time, then drop the origin."""
    n_max = math.isqrt(m2max)
    if D == 1:
        ns = np.arange(-n_max, n_max + 1)
        return ns[ns != 0].reshape(-1, 1)
    blocks = []
    for n1 in range(-n_max, n_max + 1):
        r2 = m2max - n1 * n1
        pencils = [()] if D == 2 else [(n2,) for n2 in range(-math.isqrt(r2), math.isqrt(r2) + 1)]
        for lead in pencils:
            m = math.isqrt(r2 - sum(c * c for c in lead))
            for last in range(-m, m + 1):
                blocks.append((n1, *lead, last))
    vectors = np.array(blocks, dtype=np.int64)
    return vectors[np.any(vectors != 0, axis=1)]


class TestGridSharing:
    def test_equal_spectra_share_one_grid(self):
        geom = BathGeometry(D=2, L=2 * math.pi * 5, omega_c=1.0)
        z, x = _ch(s=0.25, lam=1e-3, axis="z"), _ch(s=0.25, lam=0.2, axis="x")
        assert build_mode_grid(geom, z) is build_mode_grid(geom, x)
        assert build_radial_mode_grid(geom, z) is build_radial_mode_grid(geom, x)
        assert build_radial_mode_grid(geom, z) is not build_mode_grid(geom, z)

    def test_every_key_field_separates_grids(self):
        geom = BathGeometry(D=1, L=2 * math.pi * 30, omega_c=1.0)
        base = build_mode_grid(geom, _ch(s=0.25))
        assert build_mode_grid(geom, _ch(s=0.25, lam=0.5)) is base
        others = [
            build_mode_grid(BathGeometry(D=1, L=2 * math.pi * 31, omega_c=1.0), _ch(s=0.25)),
            build_mode_grid(BathGeometry(D=1, L=geom.L, omega_c=0.9), _ch(s=0.25)),
            build_mode_grid(geom, _ch(s=0.5)),
            build_mode_grid(geom, _ch(z=1.5, s=0.25)),
            build_mode_grid(geom, _ch(s=0.25), max_modes=1000),
        ]
        assert all(other is not base for other in others)

    def test_smaller_budget_still_refused(self):
        geom = BathGeometry(D=1, L=2 * math.pi * 30, omega_c=1.0)
        for build in (build_mode_grid, build_radial_mode_grid):
            assert build(geom, _ch(), max_modes=100).mode_count == 60
            with pytest.raises(CapabilityError, match="budget of 59"):
                build(geom, _ch(), max_modes=59)

    def test_arrays_are_read_only(self):
        geom = BathGeometry(D=2, L=2 * math.pi * 4, omega_c=1.0)
        dense = build_mode_grid(geom, _ch())
        radial = build_radial_mode_grid(geom, _ch())
        for array in (dense.omega, dense.u2, dense.n, dense.weight, radial.omega, radial.weight):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_at_most_two_grids_stay_alive(self):
        refs = []
        for i in range(4):
            grid = build_mode_grid(BathGeometry(D=1, L=2 * math.pi * (70 + i), omega_c=1.0), _ch())
            refs.append(weakref.ref(grid))
        del grid
        gc.collect()
        assert [ref() is not None for ref in refs] == [False, False, True, True]


@pytest.fixture(scope="module")
def grid_1d():
    geom = BathGeometry(D=1, L=60 * math.pi, omega_c=1.0)
    return build_mode_grid(geom, _ch(s=0.25))


def _random_grid(rng):
    geom = BathGeometry(
        D=rng.choice([1, 2]),
        L=rng.uniform(15, 60),
        omega_c=rng.uniform(0.7, 1.5),
    )
    ch = _ch(z=rng.uniform(0.6, 1.8), s=rng.uniform(-0.5, 0.8))
    return build_mode_grid(geom, ch)


class TestGamma:
    def test_zero_time(self, grid_1d):
        assert gamma(grid_1d, 1e-3, 0.0) == 0.0

    def test_single_mode_closed_form(self):
        geom = BathGeometry(D=1, L=2 * math.pi, omega_c=1.0)
        grid = build_mode_grid(geom, _ch(s=0.5))
        lam = 0.02
        for T in (0.3, 1.0, 7.0):
            expected = grid.prefactor * lam**2 * 2.0 * (1 - math.cos(T))
            assert gamma(grid, lam, T) == pytest.approx(expected, rel=1e-12)
        period = 2 * math.pi
        assert gamma(grid, lam, 1.0) == pytest.approx(gamma(grid, lam, 1.0 + period), rel=1e-9)

    def test_non_negative_and_bounded(self):
        rng = random.Random(17)
        for _ in range(20):
            grid = _random_grid(rng)
            bound = 2.0 * gamma_infinity(grid, 0.05)
            for _ in range(10):
                T = rng.uniform(0, 500)
                g = gamma(grid, 0.05, T)
                assert g >= 0.0
                assert g <= bound * (1 + 1e-12)

    def test_negative_time_rejected(self, grid_1d):
        with pytest.raises(ValueError):
            gamma(grid_1d, 1e-3, -1.0)

    def test_refinement_consistency_super_ohmic(self):
        # doubling L at fixed cutoff moves gamma by < 2% (saturating case)
        ch = _ch()
        base = build_radial_mode_grid(BathGeometry(D=3, L=80 * math.pi, omega_c=1.0), ch)
        fine = build_radial_mode_grid(BathGeometry(D=3, L=160 * math.pi, omega_c=1.0), ch)
        for T in (1.0, 10.0, 50.0, 100.0):
            ratio = gamma(base, 1e-3, T) / gamma(fine, 1e-3, T)
            assert abs(ratio - 1.0) < 0.02


class TestWPair:
    def test_zero_time(self, grid_1d):
        assert w_pair(grid_1d, [3.0], [1.0], 0.0) == 0j

    def test_diagonal_imaginary_part(self, grid_1d):
        T = 4.2
        expected = -grid_1d.prefactor * float(
            np.dot(grid_1d.weight * grid_1d.u2 / grid_1d.omega**2, np.sin(grid_1d.omega * T))
        )
        assert w_pair(grid_1d, [0.0], [0.0], T).imag == pytest.approx(expected, rel=1e-12)

    def test_single_mode_modulus(self):
        geom = BathGeometry(D=1, L=2 * math.pi, omega_c=1.0)
        grid = build_mode_grid(geom, _ch(s=0.5))
        T = 2.3
        # two modes at |k| = 1 with u2/omega^2 = 1 each
        expected = grid.prefactor * 2.0 * 2.0 * abs(math.sin(T / 2.0))
        assert abs(w_pair(grid, [0.0], [0.0], T)) == pytest.approx(expected, rel=1e-12)

    def test_pair_symmetry(self, grid_1d):
        rng = random.Random(23)
        for _ in range(25):
            x = [rng.uniform(-40, 40)]
            y = [rng.uniform(-40, 40)]
            T = rng.uniform(0, 100)
            assert w_pair(grid_1d, x, y, T) == w_pair(grid_1d, y, x, T)

    def test_dimension_mismatch(self, grid_1d):
        with pytest.raises(DimensionError):
            w_pair(grid_1d, [0.0, 1.0], [0.0, 0.0], 1.0)


class TestWSum:
    def test_matches_pair_double_loop(self, grid_1d):
        rng = random.Random(31)
        positions = np.array([[rng.uniform(-30, 30)] for _ in range(5)])
        for T in (0.5, 9.0):
            direct = sum(
                w_pair(grid_1d, positions[i], positions[j], T)
                for i in range(5)
                for j in range(5)
            )
            grouped = w_sum(grid_1d, positions, T)
            assert grouped == pytest.approx(direct, rel=1e-10)

    def test_real_part_nonnegative(self, grid_1d):
        rng = random.Random(37)
        for _ in range(10):
            positions = np.array([[rng.uniform(-50, 50)] for _ in range(4)])
            total = w_sum(grid_1d, positions, rng.uniform(0, 200))
            assert total.real >= -1e-10 * abs(total)


# -- per-mode references for the shell kernel ---------------------------------


def _per_mode_osc(omega, T):
    """1 - e^{i omega T} per mode as 2 sin^2(omega T/2) - i sin(omega T): exact at small omega T."""
    return 2.0 * np.sin(0.5 * omega * T) ** 2 - 1j * np.sin(omega * T)


def _prefactor(geom):
    return (2.0 * math.pi / geom.L) ** geom.D


def _per_mode_sum(geom, ch, d, T):
    """sum over modes of |u|^2/omega^2 e^{-i k.d} (1 - e^{i omega T}), no prefactor."""
    k, omega, u2 = grid_modes(geom, ch)
    return np.sum(u2 / (omega * omega) * np.exp(-1j * (k @ d)) * _per_mode_osc(omega, T))


def _ref_gamma(geom, ch, lam, T):
    return _prefactor(geom) * lam**2 * _per_mode_sum(geom, ch, np.zeros(geom.D), T).real


def _ref_w_pair(geom, ch, x, y, T):
    return _prefactor(geom) * _per_mode_sum(geom, ch, np.asarray(x) - np.asarray(y), T)


def _ref_w_sum(geom, ch, positions, T):
    return sum(_ref_w_pair(geom, ch, x, y, T) for x in positions for y in positions)


def _assert_close(got, ref):
    assert abs(got - ref) <= 1e-12 * abs(ref)


def _irregular_register(D):
    """Irregular positions with a coincident pair (a zero separation off the
    diagonal) and, for D >= 2, separations (1.25, 0) and (0.75, 1) of equal
    length that no lattice symmetry relates."""
    pos = np.random.default_rng(11).uniform(-2.0, 2.0, size=(5, D))
    pos[0] = pos[2] = 0.0
    pos[2, 0] = 1.25
    if D >= 2:
        pos[3] = 0.0
        pos[3, :2] = (0.75, 1.0)
    pos[4] = pos[1]
    return pos


# z = 1 makes every frequency a multiple of 2*pi/L: the sums recur with period L
_SHELL_CASES = [
    (1, BathGeometry(D=1, L=2 * math.pi * 50, omega_c=1.0)),
    (2, BathGeometry(D=2, L=2 * math.pi * 12, omega_c=1.0)),
    (3, BathGeometry(D=3, L=2 * math.pi * 6, omega_c=1.0)),
]


_SHELL_CH = _ch(s=0.25)


@pytest.fixture(scope="module", params=_SHELL_CASES, ids=lambda case: f"D{case[0]}")
def shell_case(request):
    _, geom = request.param
    grid = build_mode_grid(geom, _SHELL_CH)
    return geom, grid, (3.7, 2.5 * geom.L + 0.9)


class TestShellKernel:
    def test_shells_partition_the_modes(self, shell_case):
        geom, grid, _ = shell_case
        order, counts = np.unique(_mode_m2(geom, _SHELL_CH), return_counts=True)
        assert len(grid.omega) == len(order) < grid.mode_count
        assert np.array_equal(grid.weight, counts)
        if geom.D == 1:
            assert grid.n is None and np.array_equal(order, np.arange(1, len(order) + 1) ** 2)
        else:
            assert np.array_equal(order[grid.shell_index], np.sum(grid.n * grid.n, axis=1))
            assert np.array_equal(grid.weight, 2 * np.bincount(grid.shell_index))
        k = (2.0 * math.pi / grid.L) * np.sqrt(order.astype(float))
        np.testing.assert_allclose(grid.omega, k**_SHELL_CH.z_exp, rtol=1e-15)
        np.testing.assert_allclose(grid.u2, k ** (2.0 * _SHELL_CH.s_exp), rtol=1e-15)

    def test_gamma(self, shell_case):
        geom, grid, times = shell_case
        assert gamma(grid, 0.03, 0.0) == 0.0
        for T in times:
            _assert_close(gamma(grid, 0.03, T), _ref_gamma(geom, _SHELL_CH, 0.03, T))

    def test_static_sum(self, shell_case):
        _, grid, _ = shell_case
        ref = float(np.sum(grid.weight * grid.u2 / grid.omega**2))
        assert grid.static_sum == pytest.approx(ref, rel=1e-12)

    def test_w_pair(self, shell_case):
        geom, grid, times = shell_case
        rng = random.Random(geom.D)
        x = [rng.uniform(-5, 5) for _ in range(geom.D)]
        y = [rng.uniform(-5, 5) for _ in range(geom.D)]
        for a, b in ((x, y), (x, x)):
            assert w_pair(grid, a, b, 0.0) == 0j
            for T in times:
                _assert_close(w_pair(grid, a, b, T), _ref_w_pair(geom, _SHELL_CH, a, b, T))

    def test_w_sum(self, shell_case):
        geom, grid, times = shell_case
        registers = [regular_layout(1, Xi=7.0, D_x=0, xi=0.5)]
        registers += [regular_layout(4, Xi=7.0, D_x=d, xi=0.5) for d in range(1, geom.D + 1)]
        # off-centre, so that a structure factor depending on absolute positions would show
        position_sets = [layout.padded_logical_positions(geom.D) + 0.37 for layout in registers]
        position_sets.append(_irregular_register(geom.D))
        for positions in position_sets:
            assert w_sum(grid, positions, 0.0) == 0j
            for T in times:
                _assert_close(w_sum(grid, positions, T), _ref_w_sum(geom, _SHELL_CH, positions, T))

    def test_radial_grid_holds_the_dense_shells(self):
        for _, geom in _SHELL_CASES:
            dense = build_mode_grid(geom, _SHELL_CH)
            radial = build_radial_mode_grid(geom, _SHELL_CH)
            assert (radial is dense) == (geom.D == 1)
            assert radial.mode_count == dense.mode_count
            for array in ("omega", "u2", "weight"):
                assert np.array_equal(getattr(radial, array), getattr(dense, array))
            if geom.D > 1:
                assert np.array_equal(radial.weight, 2 * np.bincount(dense.shell_index))
            assert np.array_equal(radial.shell_damping, dense.shell_damping)
            for T in (0.0, 3.7, 2.5 * geom.L + 0.9):
                assert gamma(radial, 0.03, T) == gamma(dense, 0.03, T)

    def test_radial_1d_counting_is_linear(self):
        geom = BathGeometry(D=1, L=2 * math.pi * 2000, omega_c=1.0)
        tracemalloc.start()
        try:
            grid = build_radial_mode_grid(geom, _ch())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.mode_count == 4000
        assert peak < 1_000_000


def _ref_register(geom, ch, positions, T):
    """w_sum per mode: prefactor * sum |u|^2/omega^2 |sum_x e^{i k.x}|^2 (1 - e^{i omega T})."""
    k, omega, u2 = grid_modes(geom, ch)
    factor = np.abs(np.exp(1j * (k @ positions.T)).sum(axis=1)) ** 2
    return _prefactor(geom) * np.sum(u2 / (omega * omega) * factor * _per_mode_osc(omega, T))


def _mode_m2(geom, ch):
    """|n|^2 of every mode of the brute-force enumeration."""
    k = grid_modes(geom, ch)[0] * (geom.L / (2.0 * math.pi))
    return np.rint(np.einsum("ij,ij->i", k, k)).astype(np.int64)


def _ref_shell_factor(geom, ch, positions):
    """Per shell, |sum_x e^{i k.x}|^2 summed over half the shell's modes, from the enumeration."""
    k = grid_modes(geom, ch)[0]
    shells = np.unique(_mode_m2(geom, ch), return_inverse=True)[1]
    factor = np.abs(np.exp(1j * (k @ positions.T)).sum(axis=1)) ** 2
    return 0.5 * np.bincount(shells, weights=factor)


def _assert_parts_close(got, ref):
    assert abs(got.real - ref.real) <= 1e-12 * abs(ref.real)
    assert abs(got.imag - ref.imag) <= 1e-12 * abs(ref.imag)


def _per_shell(grid, weights, T):
    """The per-shell kernel: one versine and one sin per shell."""
    x = grid.omega * T
    re = float(np.einsum("i,i->", weights, 2.0 * np.sin(0.5 * x) ** 2))
    return complex(re, -float(np.einsum("i,i->", weights, np.sin(x))))


# D = 1, z = 1: S = 1; S + 1 = 25 a perfect square; S + 1 = 31 not one; S = 125k
_HARMONIC_CASES = [(shells, s) for shells in (1, 24, 30, 125_000) for s in (-0.5, 0.0, 0.25)]


@pytest.fixture(scope="module", params=_HARMONIC_CASES, ids=lambda case: f"S{case[0]}-s{case[1]}")
def harmonic_case(request):
    shells, s = request.param
    geom = BathGeometry(D=1, L=2 * math.pi * shells, omega_c=1.0)
    ch = _ch(s=s)
    # Besides T = 0: Delta = 1, omega_c T >> 2 pi, and T past the recurrence time L.  Not
    # near a half recurrence L/2 * m: there the imaginary part nearly cancels, and at
    # S = 125k float64 phases hold only ~1e-10 of it (an extended-precision sum shows it
    # for the per-shell kernel too).
    return geom, ch, build_mode_grid(geom, ch), (1.0, 200.3, 1.37 * geom.L + 0.3)


class TestHarmonicKernel:
    """1-D linear-dispersion grids: every shell frequency is j * 2*pi/L, and the
    sums take the harmonic path of bath._oscillating_sum."""

    def test_fundamental_detected(self, harmonic_case):
        _, _, grid, _ = harmonic_case
        assert grid.fundamental == grid.omega[0] == 2.0 * math.pi / grid.L
        assert len(grid.omega) == round(grid.L / (2.0 * math.pi))

    def test_gamma(self, harmonic_case):
        geom, ch, grid, times = harmonic_case
        assert gamma(grid, 0.03, 0.0) == 0.0
        for T in times:
            ref = _ref_gamma(geom, ch, 0.03, T)
            _assert_parts_close(complex(gamma(grid, 0.03, T)), complex(ref))

    def test_w_pair(self, harmonic_case):
        geom, ch, grid, times = harmonic_case
        for x, y in (([2.3], [-1.1]), ([0.4], [0.4])):
            assert w_pair(grid, x, y, 0.0) == 0j
            for T in times:
                _assert_parts_close(w_pair(grid, x, y, T), _ref_w_pair(geom, ch, x, y, T))

    def test_w_sum(self, harmonic_case):
        geom, ch, grid, times = harmonic_case
        positions = regular_layout(4, Xi=7.0, D_x=1, xi=0.5).padded_logical_positions(1) + 0.37
        assert w_sum(grid, positions, 0.0) == 0j
        for T in times:
            _assert_parts_close(w_sum(grid, positions, T), _ref_register(geom, ch, positions, T))

    @pytest.mark.parametrize(
        "geom, z",
        [
            (BathGeometry(D=1, L=2 * math.pi * 300, omega_c=1.0), 1.2),
            (BathGeometry(D=2, L=2 * math.pi * 12, omega_c=1.0), 1.0),
            (BathGeometry(D=3, L=2 * math.pi * 6, omega_c=1.0), 1.0),
        ],
        ids=["D1-z1.2", "D2", "D3"],
    )
    def test_other_grids_keep_the_per_shell_kernel(self, geom, z):
        grid = build_mode_grid(geom, _ch(z=z, s=0.25))
        assert grid.fundamental is None
        d = np.arange(1.0, geom.D + 1) * 0.7
        positions = regular_layout(4, Xi=7.0, D_x=geom.D, xi=0.5).padded_logical_positions(geom.D)
        pair_weights = 2.0 * grid.u2 / grid.omega**2 * bath._shell_cos(grid, d)
        register_weights = 2.0 * grid.u2 / grid.omega**2 * bath._structure_factor(grid, positions)
        for T in (0.0, 3.7, 2.5 * geom.L + 0.9):
            assert gamma(grid, 0.03, T) == grid.prefactor * 0.03**2 * _per_shell(
                grid, grid.shell_damping, T).real
            assert w_pair(grid, d, np.zeros(geom.D), T) == grid.prefactor * _per_shell(
                grid, pair_weights, T)
            assert w_pair(grid, d, d, T) == grid.prefactor * _per_shell(grid, grid.shell_damping, T)
            register = grid.prefactor * _per_shell(grid, register_weights, T)
            assert w_sum(grid, positions, T) == register


def _versine_reference(grid, lam, T):
    """gamma summed over the shells in extended precision, with the versine 2 sin^2(omega T/2).

    A longdouble 1 - cos(omega T) is itself too coarse at omega T ~ 1e-4 to
    check to 1e-12.
    """
    omega = grid.omega.astype(np.longdouble)
    damping = grid.weight.astype(np.longdouble) * grid.u2.astype(np.longdouble) / omega**2
    osc = np.sum(damping * 2 * np.sin(omega * np.longdouble(T) / 2) ** 2)
    return np.longdouble(grid.prefactor) * np.longdouble(lam) ** 2 * osc


@pytest.mark.parametrize(
    "geom, z",
    [
        (BathGeometry(D=3, L=2 * math.pi * 40, omega_c=1.0), 1.0),
        (BathGeometry(D=1, L=2 * math.pi * 200, omega_c=1.0), 1.2),
    ],
    ids=["D3", "D1-z1.2"],
)
@pytest.mark.parametrize("T", [1e-4, 1e-2])
def test_per_shell_kernel_keeps_small_time_accuracy(geom, z, T):
    grid = build_radial_mode_grid(geom, _ch(z=z))
    assert grid.fundamental is None
    ref = _versine_reference(grid, 0.03, T)
    assert float(abs(gamma(grid, 0.03, T) - ref) / ref) <= 1e-12


def _ref_a_matrix(geom, ch, offsets, scale):
    k, _, u2 = grid_modes(geom, ch)
    return np.array(
        [[scale * np.sum(u2 * np.exp(-1j * (k @ (a - b)))).real for b in offsets] for a in offsets]
    )


def _malformed(grid, case):
    """A hand-built copy of a dense grid that is not a +-k pair table."""
    n, weight = np.array(grid.n), np.array(grid.weight)
    if case == "both k and -k":  # a pair swapped for the partner of another in its shell
        same = np.flatnonzero(grid.shell_index == grid.shell_index[0])
        n[same[1]] = -n[same[0]]
    elif case == "pair dropped":
        n = n[1:]
    else:
        weight[0] += 2.0
    return ModeGrid(D=grid.D, L=grid.L, omega=grid.omega, u2=grid.u2, weight=weight, n=n)


class TestPlusMinusFold:
    """Position sums run over one vector per +-k pair; check them against every mode."""

    @pytest.mark.parametrize("D_x", [1, 2])
    def test_zero_components_match_full_grid(self, D_x):
        geom = _SHELL_CASES[2][1]  # D = 3
        ch = _ch(s=0.25, lam=0.2)
        grid = build_mode_grid(geom, ch)
        register = regular_layout(4, Xi=7.0, D_x=D_x, xi=0.5)
        positions = register.padded_logical_positions(3)
        assert not positions[:, D_x:].any()  # every separation has zero components
        for T in (3.7, 2.5 * geom.L + 0.9):
            _assert_close(w_sum(grid, positions, T), _ref_w_sum(geom, ch, positions, T))
            x, y = positions[0], positions[-1]
            _assert_close(w_pair(grid, x, y, T), _ref_w_pair(geom, ch, x, y, T))
        offsets = register.padded_offsets(3)
        ref = _ref_a_matrix(geom, ch, offsets, (ch.lam * 1.5) ** 2)
        got = a_matrix(grid, register, ch, delta=1.5).values
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * ref[0, 0])

    @pytest.mark.parametrize("case", ["both k and -k", "pair dropped", "wrong weight"])
    def test_malformed_grid_rejected_by_every_position_sum(self, case):
        grid = _malformed(build_mode_grid(_SHELL_CASES[2][1], _SHELL_CH), case)
        register = regular_layout(2, Xi=7.0, D_x=1, xi=0.5)
        positions = register.padded_logical_positions(3)
        for _ in range(2):  # a failed check is not cached
            with pytest.raises(ArithmeticError, match="pair table"):
                a_matrix(grid, register, _ch(), delta=1.0)
            with pytest.raises(ArithmeticError, match="pair table"):
                w_sum(grid, positions, 1.0)
            with pytest.raises(ArithmeticError, match="pair table"):
                w_pair(grid, positions[0], positions[1], 1.0)

    def test_permuted_grid_gives_the_same_sums(self):
        grid = build_mode_grid(_SHELL_CASES[2][1], _SHELL_CH)
        order = np.random.default_rng(5).permutation(grid.stored_count)
        permuted = ModeGrid(D=grid.D, L=grid.L, omega=grid.omega, u2=grid.u2, weight=grid.weight,
                            n=grid.n[order])
        register = regular_layout(4, Xi=7.0, D_x=2, xi=0.5)
        positions = register.padded_logical_positions(3)
        for T in (3.7, 2.5 * grid.L + 0.9):
            _assert_close(w_sum(permuted, positions, T), w_sum(grid, positions, T))
            x, y = positions[0], positions[-1]
            _assert_close(w_pair(permuted, x, y, T), w_pair(grid, x, y, T))
        want = a_matrix(grid, register, _SHELL_CH, delta=1.5).values
        got = a_matrix(permuted, register, _SHELL_CH, delta=1.5).values
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * want[0, 0])

    @settings(max_examples=40, deadline=None)
    @given(
        D=st.integers(1, 3),
        size=st.floats(1.0, 8.0),
        omega_c=st.floats(1.0, 1.5),
        z=st.floats(0.5, 2.0),
        s=st.floats(-0.5, 0.8),
    )
    def test_every_built_grid_is_a_pair_table(self, D, size, omega_c, z, s):
        geom = BathGeometry(D=D, L=2 * math.pi * size, omega_c=omega_c)
        grid = build_mode_grid(geom, _ch(z=z, s=s))
        if D == 1:  # shell j is the pair n = +-(j + 1), and no vector is stored
            assert grid.n is None and np.all(grid.weight == 2.0)
            return
        vectors = [tuple(v) for v in grid.n.tolist()]
        assert all(next(c for c in v if c) < 0 for v in vectors)  # lexicographically negative
        assert len(set(vectors)) == len(vectors)
        assert np.array_equal(2 * np.bincount(grid.shell_index), grid.weight)


_LINE_GEOM = BathGeometry(D=1, L=2 * math.pi * 50, omega_c=1.0)
_LINE_LAYOUTS = {  # offsets and logical positions: a product layout, and one with coincident sites
    "product": QubitLayout(np.arange(4.0)[:, None] * 7.0 + 0.37,
                           np.arange(5.0)[:, None] * 0.5 - 1.0, xi=0.5, Xi=7.0, D_x=1),
    "coincident": QubitLayout([[0.37], [0.37], [7.37]], np.zeros((3, 1)), xi=0.0, Xi=7.0, D_x=1),
}


class TestShellTableGrid:
    """D = 1: shell j is the pair n = +-(j + 1), so the shell table serves every position sum."""

    @pytest.mark.parametrize("z", [1.0, 1.2], ids=["harmonic", "per-shell"])
    @pytest.mark.parametrize("kind", list(_LINE_LAYOUTS))
    def test_position_sums_match_the_enumeration(self, z, kind):
        ch, layout = _ch(z=z, s=0.25, lam=0.2), _LINE_LAYOUTS[kind]
        grid = build_mode_grid(_LINE_GEOM, ch)
        assert grid is build_radial_mode_grid(_LINE_GEOM, ch) and grid.n is None
        assert (grid.fundamental is not None) == (z == 1.0)
        offsets = layout.padded_offsets(1)
        ref = _ref_a_matrix(_LINE_GEOM, ch, offsets, (ch.lam * 1.5) ** 2)
        got = a_matrix(grid, layout, ch, delta=1.5).values
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * ref[0, 0])
        positions = layout.padded_logical_positions(1)
        for T in (3.7, 2.5 * _LINE_GEOM.L + 0.9):
            _assert_close(w_sum(grid, positions, T), _ref_w_sum(_LINE_GEOM, ch, positions, T))
            for x, y in ((positions[0], positions[-1]), (positions[0], positions[1])):
                _assert_close(w_pair(grid, x, y, T), _ref_w_pair(_LINE_GEOM, ch, x, y, T))

    @pytest.mark.parametrize("z", [1.0, 1.2], ids=["harmonic", "per-shell"])
    def test_shell_weight_other_than_two_rejected_by_every_position_sum(self, z):
        grid = build_mode_grid(_LINE_GEOM, _ch(z=z))
        weight = np.array(grid.weight)
        weight[3] = 4.0
        malformed = ModeGrid(D=1, L=grid.L, omega=grid.omega, u2=grid.u2, weight=weight)
        for layout in _LINE_LAYOUTS.values():
            positions = layout.padded_logical_positions(1)
            for _ in range(2):  # a failed check is not memoized
                with pytest.raises(ArithmeticError, match="pair table"):
                    a_matrix(malformed, layout, _ch(), delta=1.0)
                with pytest.raises(ArithmeticError, match="pair table"):
                    w_sum(malformed, positions, 1.0)
                with pytest.raises(ArithmeticError, match="pair table"):
                    w_sum(malformed, positions[:1], 1.0)  # one site: no separation to form
                with pytest.raises(ArithmeticError, match="pair table"):
                    w_pair(malformed, positions[0], positions[-1], 1.0)


_PRODUCT_CASES = [  # (grid geometry, z, positions): each a full product of per-axis coordinates
    (BathGeometry(D=2, L=2 * math.pi * 12, omega_c=1.0), 1.0,
     regular_layout(16, Xi=7.0, D_x=2, xi=0.5).padded_logical_positions(2)),
    (BathGeometry(D=3, L=2 * math.pi * 6, omega_c=1.0), 1.0,
     regular_layout(9, Xi=7.0, D_x=2, xi=0.5).padded_logical_positions(3) + 0.37),
    (BathGeometry(D=2, L=2 * math.pi * 12, omega_c=1.0), 1.3,
     regular_layout(4, Xi=7.0, D_x=1, xi=0.5).padded_logical_positions(2)),
]
_PAIR_CASES = [  # (grid geometry, z, positions): the separation form over shells
    (BathGeometry(D=2, L=2 * math.pi * 12, omega_c=1.0), 1.0,
     regular_layout(5, Xi=7.0, D_x=2, xi=0.5).padded_logical_positions(2)),
    (BathGeometry(D=3, L=2 * math.pi * 6, omega_c=1.0), 1.0,
     regular_layout(4, Xi=7.0, D_x=0, xi=0.5).padded_logical_positions(3)),
    (BathGeometry(D=1, L=2 * math.pi * 300, omega_c=1.0), 1.2,  # a product layout, but D = 1
     regular_layout(6, Xi=7.0, D_x=1, xi=0.5).padded_logical_positions(1)),
]


def _separation_form(grid, positions):
    """N + 2 sum_d m_d cos(k.d) per shell, one bath._shell_cos per distinct separation."""
    seps, mult, _ = bath._separations(positions)
    total = (len(positions) + 2.0 * mult[0]) * bath._shell_cos(grid, seps[0])
    for d, m in zip(seps[1:], mult[1:]):
        total = total + 2.0 * m * bath._shell_cos(grid, d)
    return total


def _assert_shell_factor(geom, ch, grid, positions):
    """The per-shell structure factor against the enumeration, to 1e-12 of each shell's largest."""
    got, want = bath._structure_factor(grid, positions), _ref_shell_factor(geom, ch, positions)
    assert np.all(np.abs(got - want) <= 1e-12 * len(positions) ** 2 * grid.weight)


class TestStructureFactor:
    """The register structure factor: per axis on D >= 2 product layouts, else per separation."""

    @pytest.mark.parametrize("geom, z, positions", _PRODUCT_CASES,
                             ids=["4x4-D2", "3x3-D3-padded", "Dx1-D2"])
    def test_product_layouts_factorize(self, geom, z, positions):
        ch = _ch(z=z, s=0.25)
        grid = build_mode_grid(geom, ch)
        axes = bath._product_axes(positions)
        assert axes is not None and math.prod(map(len, axes)) == len(positions)
        _assert_shell_factor(geom, ch, grid, positions)
        np.testing.assert_allclose(bath._structure_factor(grid, positions),
                                   _separation_form(grid, positions),
                                   rtol=0, atol=1e-12 * len(positions) ** 2 * grid.weight.max())
        for T in (3.7, 2.5 * geom.L + 0.9):
            _assert_parts_close(w_sum(grid, positions, T), _ref_register(geom, ch, positions, T))

    @pytest.mark.parametrize("geom, z, positions", _PAIR_CASES,
                             ids=["N5-Dx2", "coincident", "D1-product"])
    def test_other_layouts_take_the_separation_sum(self, geom, z, positions):
        ch = _ch(z=z, s=0.25)
        grid = build_mode_grid(geom, ch)
        assert (bath._product_axes(positions) is None) == (geom.D > 1)
        want = _separation_form(grid, positions)
        assert np.array_equal(bath._structure_factor(grid, positions), want)
        _assert_shell_factor(geom, ch, grid, positions)
        for T in (3.7, 2.5 * geom.L + 0.9):
            _assert_parts_close(w_sum(grid, positions, T), _ref_register(geom, ch, positions, T))


class TestSeparations:
    def test_square_register_has_one_entry_per_lattice_separation(self):
        # 4 x 4 sites: separations (a, b) * Xi, a in 0..3, b in -3..3, folded: 24 besides 0;
        # centring the sites rounds equal differences apart, which must not split them
        pos = regular_layout(16, Xi=46.3, D_x=2, xi=1.0).padded_logical_positions(2)
        seps, mult, index = bath._separations(pos)
        assert len(seps) == 25 and mult[0] == 0 and mult.sum() == 16 * 15 // 2
        assert np.array_equal(index, index.T) and not index.diagonal().any()
        for i, j in itertools.combinations(range(16), 2):
            d, sep = pos[i] - pos[j], seps[index[i, j]]
            assert np.allclose(d, sep, rtol=0, atol=1e-9) or np.allclose(d, -sep, rtol=0, atol=1e-9)

    def test_memoized_per_position_set_and_read_only(self):
        pos = regular_layout(5, Xi=3.0, D_x=2, xi=0.1).padded_offsets(3)
        table = bath._separations(pos)
        assert bath._separations(pos.copy()) is table  # keyed on the values, not the array
        assert bath._separations(pos[:, :2]) is not table
        assert not any(array.flags.writeable for array in table)

    def test_coincident_pair_and_equal_lengths(self):
        pos = _irregular_register(3)
        seps, mult, index = bath._separations(pos)
        assert mult[0] == 1 and index[1, 4] == 0 and not seps[0].any()
        assert index[0, 2] != index[0, 3]  # equal lengths, different separations
        # site 4 repeats site 1, so its three pairs with sites 0, 2, 3 repeat those of site 1
        assert mult.tolist() == [1, 2, 1, 1, 2, 2, 1]


class TestLayout:
    def test_lattice_sites_shape_and_centering(self):
        for count, dims in ((5, 1), (5, 2), (7, 3)):
            sites = lattice_sites(count, dims)
            assert sites.shape == (count, dims)
            assert np.allclose(sites.mean(axis=0), 0.0)

    def test_lattice_sites_unit_spacing_line(self):
        sites = lattice_sites(5, 1)
        assert np.allclose(sorted(sites[:, 0]), [-2, -1, 0, 1, 2])

    def test_zero_dim_collapses(self):
        sites = lattice_sites(4, 0)
        assert np.all(sites == 0.0)

    def test_regular_layout_spacings(self):
        layout = regular_layout(3, Xi=50.0, D_x=1, xi=2.0)
        assert layout.n_logical == 3
        diffs = np.diff(np.sort(layout.logical_positions[:, 0]))
        assert np.allclose(diffs, 50.0)
        phys = np.sort(layout.physical_offsets[:, 0])
        assert np.allclose(np.diff(phys), 2.0)

    def test_warns_when_scales_collide(self):
        for build in (
            lambda: QubitLayout(np.zeros((2, 1)), np.zeros((5, 1)), xi=1.0, Xi=5.0, D_x=1),
            lambda: regular_layout(2, Xi=3.0, D_x=1, xi=0.5),
            lambda: default_config().with_value("layout.Xi", 3.0).qubit_layout(),
        ):
            with pytest.warns(UserWarning, match="spacing") as record:
                build()
            # reported at the caller's line, not inside qecbound or the dataclass-generated __init__
            assert len(record) == 1 and record[0].filename == __file__

    def test_padding(self):
        layout = regular_layout(2, Xi=100.0, D_x=1, xi=1.0)
        padded = layout.padded_logical_positions(3)
        assert padded.shape == (2, 3)
        assert np.all(padded[:, 1:] == 0.0)
        with pytest.raises(DimensionError):
            QubitLayout(
                logical_positions=np.zeros((2, 3)),
                physical_offsets=np.zeros((5, 3)),
                xi=1.0,
                Xi=100.0,
                D_x=3,
            ).padded_logical_positions(1)
