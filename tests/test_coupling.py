import itertools
import math
import random

import numpy as np
import pytest

from qecbound import (
    AMatrix,
    BathChannel,
    BathGeometry,
    ConfigError,
    ErrorClass,
    ModeGrid,
    PauliString,
    StabilizerCode,
    UnsupportedOrderError,
    a_matrix,
    build_mode_grid,
    classify,
    enumerate_eta,
    lambda_star,
    multiply,
    regular_layout,
    syndrome,
)
from qecbound import coupling

from conftest import grid_modes

# Index sets in the documented generator convention (j < k normalized).
XZ_TRIPLES = {(3, 2, 4), (4, 3, 5), (5, 1, 4), (1, 2, 5), (2, 1, 3)}
ZX_TRIPLES = {(1, 3, 4), (4, 1, 2), (2, 4, 5), (5, 2, 3), (3, 1, 5)}


def _norm(triples):
    return {(i, min(j, k), max(j, k)) for i, j, k in triples}


class TestEnumerate:
    def test_entry_count_and_split(self, code):
        table = enumerate_eta(code)
        assert len(table.entries) == 10
        assert table.index_set("x", "z") == _norm(XZ_TRIPLES)
        assert table.index_set("z", "x") == _norm(ZX_TRIPLES)

    def test_no_same_channel_entries(self, code):
        table = enumerate_eta(code)
        assert not table.index_set("x", "x")
        assert not table.index_set("z", "z")

    def test_logical_types(self, code):
        table = enumerate_eta(code)
        for e in table.entries:
            expected = ErrorClass.LOGICAL_X if e.alpha == "x" else ErrorClass.LOGICAL_Z
            assert e.logical_type == expected

    def test_cyclic_closure(self, code):
        table = enumerate_eta(code)

        def shift(triples):
            return {
                (i % 5 + 1, min(j % 5 + 1, k % 5 + 1), max(j % 5 + 1, k % 5 + 1))
                for i, j, k in triples
            }

        for alpha, beta in (("x", "z"), ("z", "x")):
            triples = table.index_set(alpha, beta)
            assert shift(triples) == triples

    def test_entries_are_trivial_syndrome(self, code):
        table = enumerate_eta(code)
        for e in table.entries:
            assert syndrome(code, e.pauli(code.n)).is_trivial

    def test_coset_invariance(self, code):
        table = enumerate_eta(code)
        group = code.stabilizer_group()
        for e in table.entries:
            p = e.pauli(code.n)
            for s in group:
                assert classify(code, multiply(p, s)) == e.logical_type

    def test_brute_force_cross_check(self, code):
        """Unrestricted scan of all 4^5 Paulis, filtered by letter content."""
        found_xz = set()
        found_zx = set()
        for letters in itertools.product("IXYZ", repeat=5):
            counts = {c: letters.count(c) for c in "XYZ"}
            if counts["Y"]:
                continue
            if counts["X"] == 1 and counts["Z"] == 2:
                kind = "xz"
            elif counts["Z"] == 1 and counts["X"] == 2:
                kind = "zx"
            else:
                continue
            p = PauliString.from_label("".join(letters))
            if not classify(code, p).is_logical or not syndrome(code, p).is_trivial:
                continue
            single = "X" if kind == "xz" else "Z"
            i = letters.index(single) + 1
            pair = tuple(q + 1 for q, c in enumerate(letters) if c != "I" and q + 1 != i)
            (found_xz if kind == "xz" else found_zx).add((i, pair[0], pair[1]))
        table = enumerate_eta(code)
        assert found_xz == table.index_set("x", "z")
        assert found_zx == table.index_set("z", "x")

    def test_memoized_per_code(self, code):
        assert enumerate_eta(code) is enumerate_eta(code)

    def test_rejects_wrong_distance(self):
        trivial = StabilizerCode(
            n=1,
            k=1,
            generators=(),
            logical_x=(PauliString.from_label("X"),),
            logical_z=(PauliString.from_label("Z"),),
            distance=1,
        )
        with pytest.raises(UnsupportedOrderError):
            enumerate_eta(trivial)


@pytest.fixture(scope="module")
def small_grid():
    geom = BathGeometry(D=1, L=40 * math.pi, omega_c=1.0)
    ch = BathChannel(axis="z", z_exp=1.0, s_exp=0.0, lam=0.1)
    return geom, ch, build_mode_grid(geom, ch)


class TestAMatrix:
    def test_coincident_positions_on_site_maximum(self, small_grid):
        geom, ch, grid = small_grid
        layout = regular_layout(1, Xi=100.0, D_x=1, xi=0.0, n_physical=3)
        a = a_matrix(grid, layout, ch, delta=1.0)
        expected = (ch.lam * 1.0) ** 2 * float(np.sum(grid_modes(geom, ch)[2]))
        assert a.values == pytest.approx(np.full((3, 3), expected))

    def test_zero_coupling(self, small_grid):
        _, _, grid = small_grid
        ch0 = BathChannel(axis="z", z_exp=1.0, s_exp=0.0, lam=0.0)
        layout = regular_layout(1, Xi=100.0, D_x=1, xi=1.0)
        a = a_matrix(grid, layout, ch0, delta=1.0)
        assert np.all(a.values == 0.0)

    def test_single_mode_cosine(self):
        # L = 2*pi with cutoff 1 keeps only k = +-1
        geom = BathGeometry(D=1, L=2 * math.pi, omega_c=1.0)
        ch = BathChannel(axis="z", z_exp=1.0, s_exp=0.25, lam=0.3)
        grid = build_mode_grid(geom, ch)
        assert grid.mode_count == 2
        xi = 0.7
        layout = regular_layout(1, Xi=100.0, D_x=1, xi=xi, n_physical=2)
        delta = 1.5
        a = a_matrix(grid, layout, ch, delta)
        u2 = 1.0  # |k|=1
        assert a[1, 2] == pytest.approx((ch.lam * delta) ** 2 * u2 * 2.0 * math.cos(xi), rel=1e-12)

    def test_symmetry_and_diagonal_dominance(self, small_grid):
        _, ch, grid = small_grid
        rng = random.Random(5)
        for _ in range(10):
            offsets = np.array([[rng.uniform(-3, 3)] for _ in range(4)])
            layout = regular_layout(1, Xi=100.0, D_x=1, xi=1.0, n_physical=4)
            layout.physical_offsets = offsets
            a = a_matrix(grid, layout, ch, delta=1.0)
            assert np.allclose(a.values, a.values.T)
            diag = np.diag(a.values)
            assert np.all(np.abs(a.values) <= diag[:, None] * (1 + 1e-12))

    @pytest.mark.parametrize("case", ["d2_dx2", "d3_irregular"])
    def test_matches_per_pair_complex_exponential(self, case):
        if case == "d2_dx2":
            geom = BathGeometry(D=2, L=2 * math.pi * 30, omega_c=1.0)
            layout = regular_layout(1, Xi=100.0, D_x=2, xi=1.3)
        else:
            geom = BathGeometry(D=3, L=2 * math.pi * 8, omega_c=1.0)
            layout = regular_layout(1, Xi=100.0, D_x=3, xi=1.0)
            rng = np.random.default_rng(11)
            offsets = rng.uniform(-2.0, 2.0, size=(5, 3))
            # separations of equal length not related by a lattice symmetry
            offsets[0], offsets[2], offsets[3] = (0, 0, 0), (1.25, 0, 0), (0.75, 1.0, 0)
            offsets[4] = offsets[1]  # a coincident pair: zero off-diagonal separation
            layout.physical_offsets = offsets
        ch = BathChannel(axis="x", z_exp=1.0, s_exp=0.25, lam=0.2)
        grid = build_mode_grid(geom, ch)
        delta = 1.5
        k, _, u2 = grid_modes(geom, ch)
        pos = layout.padded_offsets(geom.D)
        ref = np.empty((5, 5))
        for i, j in itertools.product(range(5), repeat=2):
            total = np.sum(u2 * np.exp(-1j * (k @ (pos[i] - pos[j]))))
            ref[i, j] = (ch.lam * delta) ** 2 * total.real
        a = a_matrix(grid, layout, ch, delta)
        np.testing.assert_allclose(a.values, ref, rtol=1e-12, atol=1e-12 * ref[0, 0])
        assert a.axis == "x"

    def test_second_coupling_reuses_the_pair_sums(self, small_grid, monkeypatch):
        geom, ch, grid = small_grid
        layout = regular_layout(1, Xi=100.0, D_x=1, xi=1.0)
        first = a_matrix(grid, layout, ch, delta=1.5)
        real = coupling._pair_sums
        calls = []
        monkeypatch.setattr(coupling, "_pair_sums", lambda *args: calls.append(1) or real(*args))
        other = BathChannel(axis="x", z_exp=1.0, s_exp=0.0, lam=0.7)
        second = a_matrix(grid, layout, other, delta=0.4)
        assert calls == []
        assert second.axis == "x"
        ratio = (other.lam * 0.4) ** 2 / (ch.lam * 1.5) ** 2
        np.testing.assert_allclose(second.values, ratio * first.values, rtol=1e-15, atol=0)
        fresh = ModeGrid(D=1, L=geom.L, omega=grid.omega, u2=grid.u2, weight=grid.weight, n=grid.n)
        np.testing.assert_array_equal(a_matrix(fresh, layout, other, delta=0.4).values, second.values)
        assert calls == [1]

    def test_empty_grid_rejected(self, small_grid):
        geom, ch, grid = small_grid
        from qecbound import DegenerateInputError, ModeGrid

        empty = ModeGrid(D=1, L=geom.L, omega=grid.omega[:0], u2=grid.u2[:0],
                         weight=grid.weight[:0])
        layout = regular_layout(1, Xi=100.0, D_x=1, xi=1.0)
        with pytest.raises(DegenerateInputError):
            a_matrix(empty, layout, ch, delta=1.0)


def _uniform_a(axis, value, n=5):
    return AMatrix(axis, np.full((n, n), float(value)))


class TestLambdaStar:
    def test_all_zero_amplitudes(self, code):
        table = enumerate_eta(code)
        coupling = lambda_star(
            {"x": 0.2, "z": 0.1},
            table,
            {"x": _uniform_a("x", 0.0), "z": _uniform_a("z", 0.0)},
        )
        assert coupling["x"] == 0.0 and coupling["z"] == 0.0

    def test_uniform_amplitude_counts_entries(self, code):
        table = enumerate_eta(code)
        a0 = 0.3
        coupling = lambda_star(
            {"x": 2.0, "z": 1.0},
            table,
            {"x": _uniform_a("x", a0), "z": _uniform_a("z", a0)},
        )
        assert coupling["x"] == pytest.approx(2.0 * 5 * a0)
        assert coupling["z"] == pytest.approx(1.0 * 5 * a0)

    def test_delta_doubling_quadruples(self, code, small_grid):
        _, ch, grid = small_grid
        table = enumerate_eta(code)
        layout = regular_layout(1, Xi=100.0, D_x=1, xi=1.0)
        chx = BathChannel(axis="x", z_exp=1.0, s_exp=0.0, lam=0.05)
        for delta, scale in ((1.0, 1.0), (2.0, 4.0)):
            a = {
                "z": a_matrix(grid, layout, ch, delta),
                "x": a_matrix(grid, layout, chx, delta),
            }
            c = lambda_star({"x": chx.lam, "z": ch.lam}, table, a)
            if delta == 1.0:
                base = (c["x"], c["z"])
        assert c["x"] == pytest.approx(scale * base[0])
        assert c["z"] == pytest.approx(scale * base[1])

    def test_linear_in_lambda_alpha_quadratic_in_lambda_beta(self, code, small_grid):
        _, _, grid = small_grid
        table = enumerate_eta(code)
        layout = regular_layout(1, Xi=100.0, D_x=1, xi=1.0)

        def coupling(lam_x, lam_z):
            chx = BathChannel(axis="x", z_exp=1.0, s_exp=0.0, lam=lam_x)
            chz = BathChannel(axis="z", z_exp=1.0, s_exp=0.0, lam=lam_z)
            a = {
                "x": a_matrix(grid, layout, chx, 1.0),
                "z": a_matrix(grid, layout, chz, 1.0),
            }
            return lambda_star({"x": lam_x, "z": lam_z}, table, a)

        base = coupling(0.02, 0.01)
        # lambda*_x is linear in lambda_x ...
        assert coupling(0.06, 0.01)["x"] == pytest.approx(3 * base["x"], rel=1e-12)
        # ... and quadratic in lambda_z (the paired-channel coupling)
        assert coupling(0.02, 0.03)["x"] == pytest.approx(9 * base["x"], rel=1e-12)

    def test_missing_channel_amplitudes(self, code):
        table = enumerate_eta(code)
        with pytest.raises(ConfigError, match="channel"):
            lambda_star({"x": 1.0}, table, {"x": _uniform_a("x", 1.0)})

    def test_mislabeled_amplitudes(self, code):
        table = enumerate_eta(code)
        with pytest.raises(ConfigError, match="labeled"):
            lambda_star(
                {"x": 1.0},
                table,
                {"x": _uniform_a("x", 1.0), "z": _uniform_a("x", 1.0)},
            )

    def test_table_export_format(self, code):
        text = enumerate_eta(code).to_text()
        lines = text.strip().split("\n")
        assert lines[0].split() == ["alpha", "beta", "i", "j", "k", "logical_type"]
        assert len(lines) == 11
