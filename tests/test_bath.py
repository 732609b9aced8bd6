import gc
import itertools
import math
import random
import sys
import threading
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
    ConfigError,
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

from conftest import fresh_interpreter, grid_modes


def _ch(z=1.0, s=0.0, lam=1e-3, axis="z"):
    return BathChannel(axis=axis, z_exp=z, s_exp=s, lam=lam)


class TestGridConstruction:
    @pytest.mark.parametrize("case, error", [
        ("empty", DegenerateInputError), ("ragged", DimensionError),
        ("two-dimensional", DimensionError),
        (0.0, ValueError), (-1.0, ValueError), (np.nan, ValueError), (np.inf, ValueError),
        ("u2 nan", ValueError), ("u2 inf", ValueError), ("u2 negative", ValueError),
    ])
    def test_unusable_hand_built_grid_refused(self, case, error):
        # a float case is one shell's omega, a "u2" case one shell's u2
        grid = build_mode_grid(BathGeometry(D=1, L=2 * math.pi * 10, omega_c=1.0), _ch())
        arrays = {name: np.array(getattr(grid, name)) for name in ("omega", "u2", "weight", "m2")}
        if case == "empty":
            arrays = {name: array[:0] for name, array in arrays.items()}
        elif case == "ragged":
            arrays["u2"] = arrays["u2"][1:]
        elif case == "two-dimensional":
            arrays = {name: array[None, :] for name, array in arrays.items()}
        elif isinstance(case, str):
            arrays["u2"][3] = {"u2 nan": np.nan, "u2 inf": np.inf, "u2 negative": -1e-3}[case]
        else:
            arrays["omega"][3] = case
        with pytest.raises(error, match="mode grid"):
            ModeGrid(D=1, L=grid.L, **arrays)

    @pytest.mark.parametrize("field, value, message", [
        ("L", math.nan, "must be a finite number"), ("L", math.inf, "must be a finite number"),
        ("L", 0.0, "must be positive"), ("L", -2 * math.pi * 10, "must be positive"),
        ("L", "62.8", "must be a number"), ("D", 0, "must be at least 1"),
        ("D", True, "must be an integer"), ("D", 1.0, "must be an integer"),
    ])
    def test_box_no_sum_can_use_refused(self, field, value, message):
        # checked before the table: a nan L made every sum nan, L = 0 a ZeroDivisionError,
        # L < 0 a negative gamma and an infinite L every sum 0
        grid = build_mode_grid(BathGeometry(D=1, L=2 * math.pi * 10, omega_c=1.0), _ch())
        with pytest.raises(ConfigError, match=f"^mode grid {field} {message}$"):
            ModeGrid(**{**_hand_built(grid), field: value})

    def test_minimal_1d_grid(self):
        geom = BathGeometry(D=1, L=2 * math.pi, omega_c=1.0)
        grid = build_mode_grid(geom, _ch())
        assert grid.mode_count == 2  # one shell: the pair n = +-1
        assert np.array_equal(grid.m2, [1]) and np.array_equal(grid.weight, [2.0])
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
            m2, counts = np.unique(np.einsum("ij,ij->i", ball, ball), return_counts=True)
            assert np.array_equal(grid.m2, m2) and np.array_equal(grid.weight, counts)
            assert grid.mode_count == len(ball)

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

    def test_oversized_grid_refused_before_the_walk(self):
        # the D = 3 ball at L/2pi = 1e5 holds ~4e15 modes; D = 1 at L = 1e20 overflowed int64
        proc = fresh_interpreter(  # a hang fails by timeout
            "import math, qecbound as qb\n"
            "ch = qb.BathChannel(axis='z', z_exp=1.0, s_exp=0.0, lam=1e-3)\n"
            "for D, L in ((3, 2 * math.pi * 1e5), (1, 1.0e20)):\n"
            "    try:\n"
            "        qb.build_mode_grid(qb.BathGeometry(D=D, L=L, omega_c=1.0), ch)\n"
            "    except qb.CapabilityError as err:\n"
            "        print(err)\n",
            timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 2 and all("needs at least" in line for line in lines)

    def test_refused_count_is_a_lower_bound(self):
        geom = BathGeometry(D=3, L=2 * math.pi * 200, omega_c=1.0)  # a disc of 8 chunks of runs
        full = sum(int(np.sum(2 * half + 1)) for _, half in bath._slabs(3, bath._lattice_extent(geom, 1.0))) - 1
        with pytest.raises(CapabilityError, match="needs at least") as err:
            build_mode_grid(geom, _ch(), max_modes=1000)
        needed = int(str(err.value).split("needs at least ")[1].split()[0])
        assert 1000 < needed < full

    def test_empty_grid_rejected(self):
        geom = BathGeometry(D=1, L=2 * math.pi, omega_c=0.5)
        with pytest.raises(DegenerateInputError):
            build_mode_grid(geom, _ch())

    def test_radial_matches_dense(self):
        for D in (1, 2, 3):  # a grid is its shell table on every D: one instance
            geom = BathGeometry(D=D, L=31.0, omega_c=1.0)
            ch = _ch(z=1.2, s=0.3)
            assert build_radial_mode_grid(geom, ch) is build_mode_grid(geom, ch)
            assert build_mode_grid(geom, ch).stored_count == len(build_mode_grid(geom, ch).m2)

    @pytest.mark.parametrize("D", [1, 2, 3])
    def test_slab_enumeration_matches_pencils(self, D):
        for n in (1, 2, 5, 11):
            for m2max in (n * n, n * n + 1, n * n + n):
                want = _pencil_vectors(D, m2max)
                # the walk of the half ball: lead rows repeated along their runs, then n_D
                chunks = list(bath._half_ball(D, m2max))
                got = np.concatenate([
                    np.column_stack((np.repeat(lead, lens, axis=0), last))
                    for lead, lens, last in chunks
                ])
                assert np.array_equal(got, want[: len(want) // 2])
                assert all(len(last) <= bath._CHUNK for _, _, last in chunks)

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

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field, key", [
        ("L", r"bath\.L"), ("omega_c", r"bath\.omega_c"), ("z_exp", "z_exp"), ("s_exp", "s_exp"),
        ("lam", "lambda"),
    ])
    def test_value_types_reject_non_finite(self, field, key, value):
        geom, ch = dict(D=1, L=10.0, omega_c=1.0), dict(axis="z", z_exp=1.0, s_exp=0.0, lam=0.1)
        cls, kwargs = (BathGeometry, geom) if field in geom else (BathChannel, ch)
        with pytest.raises(ConfigError, match=f"^{key} must be a finite number$"):
            cls(**{**kwargs, field: value})

    def test_value_types_take_numpy_scalars(self):
        geom = BathGeometry(D=np.int64(2), L=np.float32(30.0), omega_c=np.float64(1.0))
        ch = BathChannel(axis="z", z_exp=np.float32(1.5), s_exp=np.int64(0), lam=np.float64(1e-3))
        assert geom == BathGeometry(D=2, L=30.0, omega_c=1.0)
        assert ch == BathChannel(axis="z", z_exp=1.5, s_exp=0.0, lam=1e-3)
        assert [type(v) for v in (geom.D, geom.L, ch.z_exp, ch.s_exp)] == [int, float, float, float]
        with pytest.raises(ConfigError, match=r"^bath\.D must be an integer$"):
            BathGeometry(D=2.0, L=30.0, omega_c=1.0)


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
        assert build_radial_mode_grid(geom, z) is build_mode_grid(geom, x)

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
        grid = build_mode_grid(geom, _ch())
        for array in (grid.omega, grid.u2, grid.weight, grid.m2):
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


@pytest.mark.parametrize("T", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda grid, T: gamma(grid, 1e-3, T),
    lambda grid, T: w_pair(grid, [0.0], [3.0], T),
    lambda grid, T: w_sum(grid, np.array([[0.0], [3.0]]), T),
], ids=["gamma", "w_pair", "w_sum"])
def test_time_must_be_finite_and_non_negative(grid_1d, call, T):
    with pytest.raises(ValueError, match="time T must be finite and non-negative"):
        call(grid_1d, T)


def test_time_is_checked_before_any_position_work(monkeypatch):
    geom = BathGeometry(D=2, L=2 * math.pi * 40, omega_c=1.0)
    grid = ModeGrid(**{f: getattr(build_mode_grid(geom, _ch()), f)  # nothing memoized yet
                       for f in ("D", "L", "omega", "u2", "weight", "m2")})
    calls = []
    for name in ("_structure_factor", "_shell_sums"):
        real = getattr(bath, name)
        monkeypatch.setattr(bath, name, lambda *args, real=real: calls.append(1) or real(*args))
    positions = regular_layout(16, Xi=7.0, D_x=2, xi=0.5).padded_logical_positions(2)
    for T in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="time T must be finite and non-negative"):
            w_sum(grid, positions, T)
        with pytest.raises(ValueError, match="time T must be finite and non-negative"):
            w_pair(grid, positions[0], positions[1], T)
    assert calls == [] and "register" not in grid._memo


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("D", [1, 2])
def test_positions_must_be_finite(D, bad, monkeypatch):
    grid = ModeGrid(**_hand_built(build_mode_grid(  # nothing memoized yet
        BathGeometry(D=D, L=2 * math.pi * 20, omega_c=1.0), _ch())))
    calls = []
    for name in ("_structure_factor", "_shell_sums"):
        real = getattr(bath, name)
        monkeypatch.setattr(bath, name, lambda *args, real=real: calls.append(1) or real(*args))
    x, y = [bad] + [0.5] * (D - 1), [0.0] * D
    for call in (lambda: w_pair(grid, x, y, 1.0), lambda: w_pair(grid, y, x, 1.0),
                 lambda: w_sum(grid, [y, x], 1.0), lambda: w_sum(grid, [x], 1.0)):
        with pytest.raises(ValueError, match="positions must be finite"):
            call()
    with pytest.raises(ValueError, match="time T"):  # the time is checked first
        w_pair(grid, x, y, math.nan)
    if D == 1:  # the (N,) form of a D = 1 register
        with pytest.raises(ValueError, match="positions must be finite"):
            w_sum(grid, [0.0, bad], 1.0)
    assert calls == [] and "register" not in grid._memo


@pytest.mark.parametrize("D", [1, 3])
def test_positions_must_not_be_empty(D, monkeypatch):
    grid = ModeGrid(**_hand_built(build_mode_grid(  # nothing memoized yet
        BathGeometry(D=D, L=2 * math.pi * 6, omega_c=1.0), _ch())))
    calls = []
    for name in ("_structure_factor", "_shell_sums"):
        real = getattr(bath, name)
        monkeypatch.setattr(bath, name, lambda *args, real=real: calls.append(1) or real(*args))
    for positions in [np.empty((0, D))] + ([[]] if D == 1 else []):  # [] is the (N,) form of D = 1
        with pytest.raises(ValueError, match="^positions must hold at least one position$"):
            w_sum(grid, positions, 1.0)
    assert calls == [] and "register" not in grid._memo


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

    def test_1d_positions_on_a_1d_grid(self, grid_1d):
        positions = np.array([-7.5, 0.0, 12.25])
        for T in (0.5, 9.0):
            assert w_sum(grid_1d, positions, T) == w_sum(grid_1d, positions[:, None], T)

    def test_positions_of_another_dimension_rejected(self, grid_1d):
        with pytest.raises(DimensionError, match="positions must have dimension 1"):
            w_sum(grid_1d, np.zeros((3, 2)), 1.0)

    def test_two_threads_alternating_registers(self):
        # the grid keeps one register per kind, so alternating sets recompute
        # on every call; both threads must still see each set's own value
        grid = build_mode_grid(BathGeometry(D=2, L=2 * math.pi * 8, omega_c=1.0), _ch())
        registers = [regular_layout(n, Xi=5.0, D_x=2, xi=0.1).padded_logical_positions(2)
                     for n in (3, 4)]
        want = [w_sum(grid, pos, 2.5) for pos in registers]
        results, interval, start = [[], []], sys.getswitchinterval(), threading.Barrier(2)

        def run(k):
            start.wait(timeout=60)
            for step in range(400):
                which = (step + k) % 2
                results[k].append((which, w_sum(grid, registers[which], 2.5)))

        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got in results:
            assert len(got) == 400 and all(value == want[which] for which, value in got)

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


class TestSpectrum:
    def test_quadrature_nodes_need_no_grid(self):
        # the exponential-cutoff spectrum u2 = e^{-k}, omega = k on D = 1 (both signs of k):
        # gamma / lambda*^2 = 2 [T atan T - ln(1 + T^2) / 2], here on 40 Gauss-Legendre panels
        # of 40 nodes each over k in (0, 40]
        x, w = np.polynomial.legendre.leggauss(40)
        k = (np.arange(40.0)[:, None] + 0.5 * (x + 1.0)).ravel()  # panel j is [j, j + 1]
        dk = 0.5 * np.tile(w, 40)
        spectrum = bath.Spectrum(omega=k, weights=2.0 * dk * np.exp(-k) / k**2)
        assert spectrum.at(0.0) == 0j
        for T in (0.01, 1.0, 10.0, 100.0):
            closed = 2.0 * (T * math.atan(T) - 0.5 * math.log1p(T * T))
            got = spectrum.at(T, imag=False)
            assert got.imag == 0.0
            assert abs(got.real - closed) <= 1e-12 * closed

    def test_threads_sharing_a_spectrum_read_the_values_of_their_keys(self, monkeypatch):
        monkeypatch.setattr(bath, "_VALUES_CAP", 16)  # emptied every few steps, under contention
        omega = np.arange(1.0, 65.0)
        spectrum, fresh = (bath.Spectrum(omega=omega, weights=1.0 / omega**2) for _ in range(2))
        keys = [(0.37 * j, bool(j % 3)) for j in range(40)]
        want = {key: fresh.at(*key) for key in keys}
        results, interval, start = [[] for _ in range(4)], sys.getswitchinterval(), threading.Barrier(4)

        def run(k):
            start.wait(timeout=60)
            for step in range(400):
                key = keys[(7 * step + k) % len(keys)]
                results[k].append((key, spectrum.at(*key)))

        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got in results:
            assert len(got) == 400 and all(value == want[key] for key, value in got)
        assert len(spectrum._values) < 16 + len(threads)  # a thread stores at most one past the cap


class TestShellKernel:
    def test_shells_partition_the_modes(self, shell_case):
        geom, grid, _ = shell_case
        order, counts = np.unique(_mode_m2(geom, _SHELL_CH), return_counts=True)
        assert len(grid.omega) == len(order) < grid.mode_count
        assert np.array_equal(grid.weight, counts) and np.array_equal(grid.m2, order)
        if geom.D == 1:
            assert np.array_equal(order, np.arange(1, len(order) + 1) ** 2)
        k = (2.0 * math.pi / grid.L) * np.sqrt(order.astype(float))
        np.testing.assert_allclose(grid.omega, k**_SHELL_CH.z_exp, rtol=1e-15)
        np.testing.assert_allclose(grid.u2, k ** (2.0 * _SHELL_CH.s_exp), rtol=1e-15)

    def test_weight_contracts_the_binned_rows(self, shell_case, monkeypatch):
        # one dot per row during the walk equals the per-shell rows contracted afterwards
        _, grid, _ = shell_case
        seps = np.array([[0.7] * grid.D, [2.3] + [-1.1] * (grid.D - 1)])
        rows = bath._shell_cos(grid, seps)
        want = np.array([np.einsum("i,i->", grid.u2, row) for row in rows])
        got = bath._shell_cos(grid, seps, grid.u2)
        assert got.shape == (2,)
        scale = grid.dephasing.static / grid.prefactor  # sum weight * u2 / omega^2
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)
        monkeypatch.setattr(bath, "_CHUNK", 7)  # many walk chunks per shell
        np.testing.assert_allclose(bath._shell_cos(grid, seps, grid.u2), want, rtol=1e-12,
                                   atol=1e-12 * scale)
        assert bath._shell_cos(grid, seps[:0], grid.u2).shape == (0,)

    def test_gamma(self, shell_case):
        geom, grid, times = shell_case
        assert gamma(grid, 0.03, 0.0) == 0.0
        for T in times:
            _assert_close(gamma(grid, 0.03, T), _ref_gamma(geom, _SHELL_CH, 0.03, T))

    def test_static_sum(self, shell_case):
        _, grid, _ = shell_case
        ref = grid.prefactor * float(np.sum(grid.weight * grid.u2 / grid.omega**2))
        assert grid.dephasing.static == pytest.approx(ref, rel=1e-12)

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
            grid = build_mode_grid(geom, _SHELL_CH)
            assert build_radial_mode_grid(geom, _SHELL_CH) is grid
            # the walk of the half lattice, each point counted for its +-k pair, finds every mode
            ones = bath._shell_sums(grid, lambda lead, lens, last: [np.ones(len(last))], 1)
            assert np.array_equal(ones[0], grid.weight)

    def test_position_sums_stream_the_lattice(self):
        # 904k modes: one stored vector per +-k pair alone would take 10.8 MB
        bath._shared_grid.cache_clear()
        geom, ch = BathGeometry(D=3, L=2 * math.pi * 60, omega_c=1.0), _ch(s=0.25)
        layout = regular_layout(4, Xi=20.0, D_x=2, xi=1.0)
        tracemalloc.start()
        try:
            grid = build_mode_grid(geom, ch)
            a_matrix(grid, layout, ch, delta=1.0)
            w_sum(grid, layout.padded_logical_positions(3), 5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.mode_count == 904_088
        assert peak < 8_000_000

    def test_line_grid_build_and_check_hold_few_shell_arrays(self):
        # 125k shells of 1 MB each: the build holds its four arrays and about two of scratch,
        # and the check of a hand-built copy works in _slices, with no shell-sized temporary
        geom = BathGeometry(D=1, L=2 * math.pi * 125_000, omega_c=1.0)
        shell_array = 8 * 125_000
        bath._shared_grid.cache_clear()
        bath._radial_counts.cache_clear()
        tracemalloc.start()
        try:
            grid = build_mode_grid(geom, _ch(s=0.25))
            built = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            ModeGrid(D=1, L=grid.L, omega=grid.omega, u2=grid.u2, weight=grid.weight, m2=grid.m2)
            checked = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert grid.stored_count == 125_000
        assert built <= 6.2 * shell_array
        assert checked <= 0.5 * shell_array

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

    def test_plane_counting_holds_the_count_table_and_a_chunk(self):
        # the disc |n|^2 <= 1000^2 holds 3.1M modes; its count table is 8 MB of int64, and a
        # bincount over the whole table per chunk (2.04x) made the count quadratic in the radius
        table = 8 * (1000**2 + 1)
        tracemalloc.start()
        try:
            m2, weight = bath._radial_counts.__wrapped__(2, 1000**2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert weight.sum() == sum(2 * math.isqrt(1000**2 - x * x) + 1 for x in range(-1000, 1001)) - 1
        assert peak < 1.8 * table


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
    """Per shell, |sum_x e^{i k.x}|^2 summed over all of the shell's modes, from the enumeration."""
    k = grid_modes(geom, ch)[0]
    shells = np.unique(_mode_m2(geom, ch), return_inverse=True)[1]
    factor = np.abs(np.exp(1j * (k @ positions.T)).sum(axis=1)) ** 2
    return np.bincount(shells, weights=factor)


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
    sums take the harmonic path of Spectrum.at."""

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
        pair = grid.spectrum(bath._shell_cos(grid, [d])[0])
        register = grid.spectrum(bath._structure_factor(grid, positions))
        damping = grid.dephasing
        assert damping.block is None and pair.block is None and register.block is None
        for T in (0.0, 3.7, 2.5 * geom.L + 0.9):
            assert gamma(grid, 0.03, T) == 0.03**2 * _per_shell(grid, damping.weights, T).real
            assert w_pair(grid, d, np.zeros(geom.D), T) == _per_shell(grid, pair.weights, T)
            assert w_pair(grid, d, d, T) == _per_shell(grid, damping.weights, T)
            assert w_sum(grid, positions, T) == _per_shell(grid, register.weights, T)


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


def _hand_built(grid):
    """The fields of a separate instance over a grid's arrays: nothing memoized on it."""
    return {f: getattr(grid, f) for f in ("D", "L", "omega", "u2", "weight", "m2")}


def _malformed(grid, case):
    """The arrays of a hand-built copy of a built grid that is not a +-k pair table."""
    m2, weight = np.array(grid.m2), np.array(grid.weight)
    if case == "m2 off the lattice":  # 7 is no sum of three squares: no mode lies there
        m2[0] = 7
    elif case == "m2 swapped":  # |n|^2 = 1 and 2 hold 6 and 12 modes on D = 3
        m2[:2] = m2[1::-1]
    else:
        weight[0] += 2.0
    return dict(D=grid.D, L=grid.L, omega=grid.omega, u2=grid.u2, weight=weight, m2=m2)


class TestPlusMinusFold:
    """Position sums walk one lattice point per +-k pair; check them against every mode.

    The walk trusts the grid's shell table, so a table that is not the lattice's +-k pair
    table is refused when the grid is made, and no position sum ever sees it."""

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

    @pytest.mark.parametrize("case", ["m2 off the lattice", "m2 swapped", "wrong weight"])
    def test_malformed_grid_rejected_by_every_position_sum(self, case):
        # refused when made, so no position sum can take it
        arrays = _malformed(build_mode_grid(_SHELL_CASES[2][1], _SHELL_CH), case)
        for _ in range(2):  # a failed check is not cached
            with pytest.raises(ArithmeticError, match="pair table"):
                ModeGrid(**arrays)

    @pytest.mark.parametrize("case", ["m2 off the lattice", "m2 swapped", "wrong weight"])
    def test_contracted_walk_checks_the_table(self, case, monkeypatch):
        # the check's own count walk, chunked as every walk is, finds the fault at any chunk size
        arrays = _malformed(build_mode_grid(_SHELL_CASES[2][1], _SHELL_CH), case)
        monkeypatch.setattr(bath, "_CHUNK", 7)
        bath._radial_counts.cache_clear()  # no table of the build to read: the check walks
        with pytest.raises(ArithmeticError, match="pair table"):
            ModeGrid(**arrays)

    @pytest.mark.parametrize("case", ["m2 off the lattice", "m2 repeated", "wrong weight"])
    def test_malformed_line_grid_rejected(self, case, monkeypatch):
        # D = 1 shell i must be the pair n = +-(i + 1): m2 = (i + 1)^2 and weight 2, in _slices
        grid = build_mode_grid(_SHELL_CASES[0][1], _SHELL_CH)
        m2, weight = np.array(grid.m2), np.array(grid.weight)
        if case == "m2 off the lattice":  # 2 is no square
            m2[1] = 2
        elif case == "m2 repeated":  # two shells at the one pair |n| = 1
            m2[1] = 1
        else:
            weight[-1] = 4.0
        for chunk in (bath._CHUNK, 7):  # the fault in the first or the last of several slices
            monkeypatch.setattr(bath, "_CHUNK", chunk)
            with pytest.raises(ArithmeticError, match="pair table"):
                ModeGrid(D=1, L=grid.L, omega=grid.omega, u2=grid.u2, weight=weight, m2=m2)

    def test_line_shell_without_a_pair_refused(self):
        grid = build_mode_grid(_SHELL_CASES[0][1], _SHELL_CH)
        m2, weight = np.array(grid.m2), np.array(grid.weight)
        m2[1], weight[1] = 2, 0.0  # no lattice point at |n|^2 = 2, and no mode claimed there
        with pytest.raises(ArithmeticError, match="pair table"):
            ModeGrid(D=1, L=grid.L, omega=grid.omega, u2=grid.u2, weight=weight, m2=m2)
        with pytest.raises(ArithmeticError, match="pair table"):  # the ball without |n|^2 = 4
            ModeGrid(D=1, L=grid.L, **{name: np.delete(getattr(grid, name), 1)
                                        for name in ("omega", "u2", "weight", "m2")})

    def test_permuted_grid_refused(self):
        # the shells are in increasing order: the walk takes shell i for |n| = i + 1 on D = 1
        for geom in (_SHELL_CASES[2][1], _SHELL_CASES[0][1]):
            grid = build_mode_grid(geom, _SHELL_CH)
            order = np.random.default_rng(5).permutation(grid.stored_count)
            with pytest.raises(ArithmeticError, match="pair table"):
                ModeGrid(D=grid.D, L=grid.L, omega=grid.omega[order], u2=grid.u2[order],
                         weight=grid.weight[order], m2=grid.m2[order])

    @pytest.mark.parametrize("kind", ["float", "negative"])
    def test_table_of_other_values_refused(self, kind):
        # m2 is an integer array of shells |n|^2 >= 1: a float copy or a shell at 0 is no table
        for geom in (_SHELL_CASES[1][1], _SHELL_CASES[0][1]):
            grid = build_mode_grid(geom, _SHELL_CH)
            m2 = grid.m2.astype(float) if kind == "float" else np.array(grid.m2) - 1
            with pytest.raises(ArithmeticError, match="pair table"):
                ModeGrid(**{**_hand_built(grid), "m2": m2})

    def test_position_sums_trust_the_checked_table(self, monkeypatch):
        # the table is checked once, when the grid is made, and never by a position sum
        cases = [(build_mode_grid(geom, _SHELL_CH), D_x)
                 for geom, D_x in ((_SHELL_CASES[1][1], 2), (_SHELL_CASES[0][1], 1))]
        checks = []
        real = bath._is_pair_table
        monkeypatch.setattr(bath, "_is_pair_table", lambda *args: checks.append(1) or real(*args))
        for built, D_x in cases:
            grid = ModeGrid(**_hand_built(built))
            register = regular_layout(4, Xi=7.0, D_x=D_x, xi=0.5)
            positions = register.padded_logical_positions(grid.D)
            a_matrix(grid, register, _SHELL_CH, delta=1.5)
            w_sum(grid, positions, 3.7)
            w_pair(grid, positions[0], positions[-1], 3.7)
        assert len(checks) == 2

    def test_built_grid_walks_the_lattice_once(self, monkeypatch):
        # the check of a D >= 2 grid reads the table of the build's count walk
        walks = []
        real = bath._half_ball
        monkeypatch.setattr(bath, "_half_ball", lambda *args: walks.append(1) or real(*args))
        bath._shared_grid.cache_clear()
        bath._radial_counts.cache_clear()
        ModeGrid(**_hand_built(build_mode_grid(_SHELL_CASES[2][1], _SHELL_CH)))
        assert walks == [1]

    @pytest.mark.parametrize("D, m2max, modes", [
        (3, 40_000, 12.0),  # far below the inscribed cube's 231^3 - 1 modes
        (2, 10**6, 8e6),  # above the enclosing square's 2001^2 - 1
    ])
    def test_impossible_mode_count_refused_without_a_walk(self, D, m2max, modes):
        # the ball |n|^2 <= max(m2) holds the cube of half-side isqrt(max(m2) // D) and lies in
        # that of isqrt(max(m2)): a claimed mode count outside the two is refused unwalked
        before = bath._radial_counts.cache_info()
        with pytest.raises(ArithmeticError, match="pair table"):
            ModeGrid(D=D, L=10.0, omega=np.array([1.0, 2.0]), u2=np.ones(2),
                     weight=np.full(2, modes / 2), m2=np.array([1, m2max]))
        assert bath._radial_counts.cache_info() == before

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
        vectors = [tuple(lead) + (n_D,) for rows, lens, last in bath._half_ball(D, grid.m2[-1])
                   for lead, n_D in zip(np.repeat(rows, lens, axis=0).tolist(), last.tolist())]
        assert all(next(c for c in v if c) < 0 for v in vectors)  # lexicographically negative
        assert len(set(vectors)) == len(vectors) == grid.mode_count // 2
        ones = bath._shell_sums(grid, lambda lead, lens, last: [np.ones(len(last))], 1)
        assert np.array_equal(ones[0], grid.weight)


def _line_reference(m2, weight, f):
    """D = 1 position sums by their definition, unchunked: shell i must be the pair
    n = +-(i + 1), at m2 = (i + 1)^2 with weight 2, and it gets 2 f(-(i + 1)): the walk
    visits n = -(i + 1) and counts it for both modes of the pair."""
    if list(m2) != [(i + 1) ** 2 for i in range(len(m2))] or set(weight) - {2.0}:
        raise ArithmeticError("grid is not a +-k pair table")
    return 2.0 * np.array([f(-(i + 1)) for i in range(len(m2))]).T


class TestLineSlices:
    """D = 1 shells are checked and summed in slices of _CHUNK: shell i is the pair
    n = +-(i + 1), and a table that is not (permuted, a repeated or missing square, a shell
    off the squares, another weight) is refused when the grid is made, as the definition
    refuses it, wherever the fault falls among the slices."""

    CHUNK = 7  # 30 shells: four full slices and a short one
    REPEAT = (2, 25)  # shells in slices 0 and 3

    @staticmethod
    def _table(case):
        m2, weight = (np.arange(30) + 1) ** 2, np.full(30, 2.0)
        first, last = TestLineSlices.REPEAT
        if case == "permuted":
            m2 = m2[np.random.default_rng(19).permutation(30)]
        elif case.startswith("repeated"):
            m2[first] = m2[last]
            weight[[first, last]] = {"repeated": (0.0, 2.0), "repeated, both claim": (2.0, 2.0),
                                     "repeated, first copy claims": (2.0, 0.0)}[case]
        elif case.startswith("no square"):  # 50 is no square: no lattice point, no pair
            m2[10], weight[10] = 50, 2.0 if case == "no square with a weight" else 0.0
        elif case == "wrong weight":
            weight[-1] = 4.0
        return m2, weight

    @staticmethod
    def _grid(m2, weight):
        ones = np.ones(len(m2))  # the position sums read only m2 and weight
        return ModeGrid(D=1, L=2 * math.pi * 40, omega=ones, u2=ones, weight=weight, m2=m2)

    @staticmethod
    def _rows(lead, lens, last):
        return [np.cos(0.3 * last), 1.0 * last]

    def _refused_like_the_definition(self, case, monkeypatch):
        """True, having checked the refusal at both chunk sizes, if the definition refuses case."""
        m2, weight = self._table(case)
        try:
            _line_reference(m2.tolist(), weight.tolist(), lambda n: (0.0, 0.0))
        except ArithmeticError:
            for chunk in (bath._CHUNK, self.CHUNK):
                monkeypatch.setattr(bath, "_CHUNK", chunk)
                with pytest.raises(ArithmeticError, match="pair table"):
                    self._grid(m2, weight)
            return True
        return False

    @pytest.mark.parametrize("case", ["pair table", "permuted", "repeated", "no square"])
    def test_sums_match_the_definition(self, case, monkeypatch):
        if self._refused_like_the_definition(case, monkeypatch):
            assert case != "pair table"
            return
        m2, weight = self._table(case)
        whole = bath._shell_sums(self._grid(m2, weight), self._rows, 2)
        monkeypatch.setattr(bath, "_CHUNK", self.CHUNK)
        seen = []
        rows = lambda lead, lens, last: seen.append(len(last)) or self._rows(lead, lens, last)
        sliced = bath._shell_sums(self._grid(m2, weight), rows, 2)
        assert seen == [7, 7, 7, 7, 2]
        assert np.array_equal(sliced, whole)
        want = _line_reference(m2.tolist(), weight.tolist(), lambda n: (math.cos(0.3 * n), 1.0 * n))
        np.testing.assert_allclose(sliced, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("case", ["repeated, first copy claims", "repeated, both claim",
                                      "no square with a weight", "wrong weight"])
    def test_malformed_tables_rejected(self, case, monkeypatch):
        assert self._refused_like_the_definition(case, monkeypatch)

    @pytest.mark.parametrize("case", ["pair table", "permuted", "repeated", "no square",
                                      "wrong weight"])
    def test_contracted_sums_match_the_definition(self, case, monkeypatch):
        if self._refused_like_the_definition(case, monkeypatch):
            assert case != "pair table"
            return
        m2, weight = self._table(case)
        u2 = np.linspace(0.5, 2.0, len(m2))
        contract = lambda: bath._shell_sums(self._grid(m2, weight), self._rows, 2, u2)
        rows = _line_reference(m2.tolist(), weight.tolist(), lambda n: (math.cos(0.3 * n), 1.0 * n))
        whole = contract()
        np.testing.assert_allclose(whole, np.einsum("ci,i->c", rows, u2), rtol=1e-14)
        monkeypatch.setattr(bath, "_CHUNK", self.CHUNK)  # each chunk's sum is its own dot
        np.testing.assert_allclose(contract(), whole, rtol=1e-14)

    def test_slicing_changes_no_value(self, monkeypatch):
        # every pass over shells (the harmonic check, the tables, the walk) is elementwise
        built = build_mode_grid(_LINE_GEOM, _ch(s=0.25))
        register = _LINE_LAYOUTS["product"]
        positions = register.padded_logical_positions(1)

        def values():
            grid = ModeGrid(D=1, L=built.L, omega=built.omega, u2=built.u2, weight=built.weight,
                            m2=built.m2)
            return (grid.fundamental, gamma(grid, 0.03, 7.5), w_pair(grid, [0.4], [3.1], 7.5),
                    w_sum(grid, positions, 7.5),
                    a_matrix(grid, register, _ch(), 1.0).values.tolist())

        whole = values()
        monkeypatch.setattr(bath, "_CHUNK", self.CHUNK)
        sliced = values()
        # each shell gets one point, so only the pair sums, one dot per chunk, move with slicing
        assert sliced[:4] == whole[:4] and whole[0] is not None
        np.testing.assert_allclose(sliced[4], whole[4], rtol=1e-14)

    def test_pair_sums_hold_no_shell_row(self):
        # 200k shells of 1.6 MB each: the walk contracts each chunk of points with u2
        built = build_mode_grid(BathGeometry(D=1, L=2 * math.pi * 200_000, omega_c=1.0), _ch())
        grid = ModeGrid(**_hand_built(built))  # nothing memoized
        offsets = lattice_sites(5, 1) * 0.7
        tracemalloc.start()
        try:
            sums = bath._pair_sums(grid, offsets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.stored_count == 200_000 and sums.shape == (5, 5)
        assert peak < 8 * grid.stored_count

    def test_table_longer_than_handed_in_refused_unmade(self):
        # claims the 2e9 modes of |n| <= 1e9 in two shells: the squares of the ball need 1e9
        # shells, so the check refuses it before it makes a table of them
        tracemalloc.start()
        try:
            with pytest.raises(ArithmeticError, match="pair table"):
                ModeGrid(D=1, L=10.0, omega=np.array([1.0, 2.0]), u2=np.ones(2),
                         weight=np.array([1e9, 1e9]), m2=np.array([1, 10**18]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


_LINE_GEOM = BathGeometry(D=1, L=2 * math.pi * 50, omega_c=1.0)
_LINE_LAYOUTS = {  # offsets and logical positions: a product layout, and one with coincident sites
    "product": QubitLayout(np.arange(4.0)[:, None] * 7.0 + 0.37,
                           np.arange(5.0)[:, None] * 0.5 - 1.0, xi=0.5, Xi=7.0, D_x=1),
    "coincident": QubitLayout([[0.37], [0.37], [7.37]], np.zeros((3, 1)), xi=0.0, Xi=7.0, D_x=1),
}


class TestShellTableGrid:
    """D = 1: shell j is the pair n = +-(j + 1), one point of the walk."""

    @pytest.mark.parametrize("z", [1.0, 1.2], ids=["harmonic", "per-shell"])
    @pytest.mark.parametrize("kind", list(_LINE_LAYOUTS))
    def test_position_sums_match_the_enumeration(self, z, kind):
        ch, layout = _ch(z=z, s=0.25, lam=0.2), _LINE_LAYOUTS[kind]
        grid = build_mode_grid(_LINE_GEOM, ch)
        assert grid is build_radial_mode_grid(_LINE_GEOM, ch)
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
        # refused when made, harmonic or not, so no position sum can take it
        grid = build_mode_grid(_LINE_GEOM, _ch(z=z))
        weight = np.array(grid.weight)
        weight[3] = 4.0
        for _ in range(2):  # a failed check is not memoized
            with pytest.raises(ArithmeticError, match="pair table"):
                ModeGrid(D=1, L=grid.L, omega=grid.omega, u2=grid.u2, weight=weight, m2=grid.m2)


@pytest.mark.parametrize("geom", [geom for _, geom in _SHELL_CASES], ids=["D1", "D2", "D3"])
def test_one_position_register_is_the_diagonal_pair(geom, monkeypatch):
    # no nonzero separation: the structure factor is (N + 2 m_0) * weight, with no walk
    grid = ModeGrid(**_hand_built(build_mode_grid(geom, _SHELL_CH)))  # nothing memoized
    walks = []
    real = bath._shell_sums
    monkeypatch.setattr(bath, "_shell_sums", lambda *args: walks.append(1) or real(*args))
    x = np.linspace(0.3, 1.1, geom.D)
    for T in (0.0, 3.7, 2.5 * geom.L + 0.9):
        assert w_sum(grid, [x], T) == w_pair(grid, x, x, T)
        _assert_parts_close(w_sum(grid, [x, x, x], T), 9.0 * w_pair(grid, x, x, T))
    assert walks == []


@pytest.mark.parametrize("geom", [_SHELL_CASES[0][1], _SHELL_CASES[2][1]], ids=["D1", "D3"])
def test_one_site_pair_sums_take_no_walk(geom, monkeypatch):
    # one site has no nonzero separation: the pair sums are the on-site u2 . weight alone
    grid = ModeGrid(**_hand_built(build_mode_grid(geom, _SHELL_CH)))  # nothing memoized
    walks = []
    real = bath._half_ball
    monkeypatch.setattr(bath, "_half_ball", lambda *args: walks.append(1) or real(*args))
    layout = QubitLayout(np.zeros((1, 1)), np.full((1, 1), 0.4), xi=0.0, Xi=1.0, D_x=1)
    got = a_matrix(grid, layout, _SHELL_CH, delta=1.5).values
    assert walks == []
    want = (_SHELL_CH.lam * 1.5) ** 2 * math.fsum(grid.u2 * grid.weight)
    np.testing.assert_allclose(got, [[want]], rtol=1e-14)


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
    """N + 2 sum_d m_d cos(k.d) per shell, one bath._shell_cos walk per distinct separation."""
    seps, mult, _ = bath._separations(positions)
    total = (len(positions) + 2.0 * mult[0]) * grid.weight  # the pair counts
    for d, m in zip(seps[1:], mult[1:]):
        total = total + 2.0 * m * bath._shell_cos(grid, [d])[0]
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
        # the walk sums N + 2 sum_d m_d cos(k.d) per pair before binning: another summation order
        np.testing.assert_allclose(bath._structure_factor(grid, positions),
                                   _separation_form(grid, positions),
                                   rtol=0, atol=1e-12 * len(positions) ** 2 * grid.weight.max())
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

    def test_lattice_sites_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="count must be positive"):
            lattice_sites(0, 1)
        for args in ((1, 1), (3, 1)):  # cached first: an untyped cache gives True the key of 1
            lattice_sites(*args)
        for count, dims, name in ((3, 1.5, "dims"), (2.5, 1, "count"), (True, 1, "count"),
                                  (3, True, "dims")):
            with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
                lattice_sites(count, dims)
        proc = fresh_interpreter(  # a negative dimension looped forever
            "import qecbound as qb\n"
            "for build in (lambda: qb.lattice_sites(3, -1), lambda: qb.regular_layout(2, 100.0, -1, 1.0)):\n"
            "    try:\n"
            "        build()\n"
            "    except ValueError as err:\n"
            "        print(err)\n",
            timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["dims must be non-negative",
                                            "layout.D_x must be non-negative"]

    @pytest.mark.parametrize("n_logical, D_x, message", [
        (2, -1, "layout.D_x must be non-negative"),
        (0, 1, "layout.N must be at least 1"),
        (2, 1.5, "layout.D_x must be an integer"),
    ])
    def test_regular_layout_names_the_key(self, n_logical, D_x, message):
        with pytest.raises(ConfigError, match=message):
            regular_layout(n_logical, 100.0, D_x, 1.0)

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

    @pytest.mark.parametrize("spacings, key", [
        (dict(Xi=math.inf), r"layout\.Xi"), (dict(Xi=math.nan), r"layout\.Xi"),
        (dict(xi=math.inf), r"layout\.xi"),
    ])
    def test_non_finite_spacing_rejected(self, spacings, key):
        with pytest.raises(ConfigError, match=f"^{key} must be a finite number$"):
            regular_layout(2, **{"Xi": 10.0, "D_x": 1, "xi": 0.1, **spacings})

    def test_non_finite_coordinate_rejected(self):
        offsets = lattice_sites(5, 1) * 0.1
        offsets[2, 0] = math.inf
        with pytest.raises(ConfigError, match="^layout physical_offsets must be finite numbers$"):
            QubitLayout(np.zeros((2, 1)), offsets, xi=0.1, Xi=10.0, D_x=1)
        with pytest.raises(ConfigError, match="^layout logical_positions must be finite numbers$"):
            QubitLayout([[0.0], [math.nan]], lattice_sites(5, 1), xi=0.1, Xi=10.0, D_x=1)

    @pytest.mark.parametrize("empty", [[], np.empty((0, 1))], ids=["list", "array"])
    @pytest.mark.parametrize("name", ["logical_positions", "physical_offsets"])
    def test_empty_position_set_refused(self, name, empty):
        # np.atleast_2d reads [] as one position with no coordinate: a phantom qubit at 0
        fields = dict(logical_positions=np.zeros((2, 1)), physical_offsets=lattice_sites(5, 1) * 0.1)
        with pytest.raises(ConfigError, match=f"^layout {name} must hold at least one position$"):
            QubitLayout(**{**fields, name: empty}, xi=0.1, Xi=10.0, D_x=1)

    def test_dimension_read_through_the_schema(self):
        for D_x, message in ((-1, "must be non-negative"), (1.5, "must be an integer")):
            with pytest.raises(ConfigError, match=rf"^layout\.D_x {message}$"):
                QubitLayout(np.zeros((2, 1)), np.zeros((5, 1)), xi=0.1, Xi=10.0, D_x=D_x)

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
