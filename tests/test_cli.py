import ast
import math
import sys
from pathlib import Path

import pytest

import qecbound
from qecbound import PauliString, StabilizerCode, default_config, from_dict
from qecbound.cli import _pipeline, main, run_subcommand
from qecbound.config import CODE_REGISTRY

from conftest import fresh_interpreter


def _read(path):
    return path.read_text()


def _data_rows(text):
    return [line for line in text.strip().split("\n") if not line.startswith("#")][1:]


SMALL_BATH = {
    "bath": {
        "D": 1,
        "L": 200 * math.pi,
        "channels": [
            {"axis": "z", "z_exp": 1.0, "s_exp": 0.0, "lambda": 1e-3},
            {"axis": "x", "z_exp": 1.0, "s_exp": 0.0, "lambda": 1e-4},
        ],
    },
}


def _write_config(tmp_path):
    import yaml

    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(SMALL_BATH))
    return path


class TestOutputs:
    def test_eta_writes_table_and_text(self, tmp_path):
        config = _write_config(tmp_path)
        assert main(["--config", str(config), "--out", str(tmp_path), "eta"]) == 0
        csv = _read(tmp_path / "eta.csv")
        assert csv.startswith("# artifact: qecbound")
        assert "# config: " in csv
        assert len(_data_rows(csv)) == 10
        txt = _read(tmp_path / "eta.txt")
        assert txt.splitlines()[0].split() == ["alpha", "beta", "i", "j", "k", "logical_type"]

    def test_every_subcommand_writes_the_csv_named_after_it(self, tmp_path):
        config = _write_config(tmp_path)
        for cmd in ("eta", "code-check", "lambda-star", "gamma", "distance", "hs", "regimes", "mmax"):
            assert main(["--config", str(config), "--out", str(tmp_path), cmd]) == 0, cmd
            assert f"# subcommand: {cmd}" in _read(tmp_path / f"{cmd}.csv").splitlines()

    def test_gamma_zero_time_single_row(self, tmp_path):
        config = _write_config(tmp_path)
        assert (
            main(
                ["--config", str(config), "--out", str(tmp_path), "gamma", "--t-max", "0", "--steps", "1"]
            )
            == 0
        )
        rows = _data_rows(_read(tmp_path / "gamma.csv"))
        assert rows == ["0,0,0"]

    def test_rerun_byte_identical(self, tmp_path):
        config = _write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code = main(
                ["--config", str(config), "--out", str(out), "gamma", "--t-max", "50", "--steps", "20"]
            )
            assert code == 0
        assert _read(out1 / "gamma.csv") == _read(out2 / "gamma.csv")

    def test_distance_reports_saturation(self, tmp_path):
        config = _write_config(tmp_path)
        assert main(["--config", str(config), "--out", str(tmp_path), "distance"]) == 0
        text = _read(tmp_path / "distance.csv")
        assert "# d_sat: " in text and "# gamma_inf: " in text

    def test_regimes_rows(self, tmp_path):
        config = _write_config(tmp_path)
        assert main(["--config", str(config), "--out", str(tmp_path), "regimes"]) == 0
        rows = _data_rows(_read(tmp_path / "regimes.csv"))
        assert len(rows) == 6  # 2 channels x 3 kinds

    def test_mmax_modes(self, tmp_path):
        config = _write_config(tmp_path)
        for mode in ("asymptotic", "numeric"):
            out = tmp_path / mode
            assert (
                main(["--config", str(config), "--out", str(out), "mmax", "--mode", mode]) == 0
            )
            rows = _data_rows(_read(out / "mmax.csv"))
            assert rows[-1].startswith("overall,")

    def test_hs_series(self, tmp_path):
        config = _write_config(tmp_path)
        assert (
            main(["--config", str(config), "--out", str(tmp_path), "hs", "--t-max", "4", "--steps", "3"])
            == 0
        )
        rows = _data_rows(_read(tmp_path / "hs.csv"))
        assert len(rows) == 3
        assert rows[0] == "0,0"

    def test_lambda_star_rows(self, tmp_path):
        config = _write_config(tmp_path)
        assert main(["--config", str(config), "--out", str(tmp_path), "lambda-star"]) == 0
        rows = _data_rows(_read(tmp_path / "lambda-star.csv"))
        assert [r.split(",")[0] for r in rows] == ["x", "z"]

    def test_example_config_runs(self, tmp_path):
        config = Path(__file__).resolve().parents[1] / "docs" / "example-config.yaml"
        for command in ("lambda-star", "regimes", "mmax"):
            assert main(["--config", str(config), "--out", str(tmp_path), command]) == 0
            assert _data_rows(_read(tmp_path / f"{command}.csv"))


class TestSweep:
    def test_delta_sweep_mmax_non_increasing(self, tmp_path):
        config = _write_config(tmp_path)
        code = main(
            [
                "--config", str(config), "--out", str(tmp_path),
                "sweep", "--param", "qec.Delta", "--from", "0.5", "--to", "2.0",
                "--points", "4", "--target", "mmax",
            ]
        )
        assert code == 0
        rows = _data_rows(_read(tmp_path / "sweep.csv"))
        assert len(rows) == 4
        values = [float(r.split(",")[-1]) for r in rows]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_sweep_rejects_bad_target(self, tmp_path):
        config = _write_config(tmp_path)
        with pytest.raises(SystemExit):
            main(
                [
                    "--config", str(config), "--out", str(tmp_path),
                    "sweep", "--param", "qec.Delta", "--from", "1", "--to", "2",
                    "--target", "eta",
                ]
            )

    def test_sweep_bad_param_fails_cleanly(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        code = main(
            [
                "--config", str(config), "--out", str(tmp_path),
                "sweep", "--param", "qec.Period", "--from", "1", "--to", "2",
                "--target", "mmax",
            ]
        )
        assert code == 1
        assert "qec.Period" in capsys.readouterr().err


    @pytest.mark.parametrize("change, message", [
        ({"param": None}, "sweep requires --param"),
        ({"target": "eta"}, "--target must be one of"),
        ({"to": None}, "sweep requires --from and --to"),
    ])
    def test_programmatic_sweep_checks_its_flags(self, change, message):
        from qecbound.errors import QecBoundError

        flags = {"param": "qec.Delta", "from_": 1.0, "to": 2.0, "points": 2, "target": "mmax", **change}
        with pytest.raises(QecBoundError, match=message):
            run_subcommand("sweep", default_config(), flags)

    @pytest.mark.parametrize(
        "param, lo, hi", [("layout.xi", 0.5, 2.0), ("bath.channels.1.s_exp", 0.0, 0.5)]
    )
    def test_sweep_points_match_separate_runs(self, param, lo, hi):
        cfg = from_dict(SMALL_BATH)
        flags = {"param": param, "from_": lo, "to": hi, "points": 4, "target": "lambda-star"}
        sweep = run_subcommand("sweep", cfg, flags)
        assert sweep.columns == ["param", "value", "lambda_star_x", "lambda_star_z"]
        rows = sweep.rows
        for row in rows:
            single = run_subcommand("lambda-star", cfg.with_value(param, row[1]), {})
            assert row[2:] == (single.summary["lambda_star_x"], single.summary["lambda_star_z"])
        assert len({row[2:] for row in rows}) == len(rows)  # every point differs

    @pytest.mark.parametrize(
        "param, lo, hi, points, target",
        [
            ("layout.N", 1, 4, 4, "hs"),
            ("layout.D_x", 0, 1, 2, "lambda-star"),
            ("bath.D", 1, 3, 3, "lambda-star"),
            ("budget.max_modes", 100, 103, 4, "lambda-star"),
        ],
    )
    def test_integer_key_sweep_matches_separate_runs(self, param, lo, hi, points, target):
        cfg = from_dict({"bath": {**SMALL_BATH["bath"], "L": 20 * math.pi}})
        flags = {"param": param, "from_": lo, "to": hi, "points": points, "target": target,
                 "t_max": 10.0, "steps": 3}
        rows = run_subcommand("sweep", cfg, flags).rows
        assert [row[1] for row in rows] == list(range(lo, hi + 1))
        for row in rows:
            single = run_subcommand(target, cfg.with_value(param, int(row[1])), flags)
            assert row[2:] == tuple(single.summary.values())

    def test_integer_key_sweep_off_the_integers_fails_cleanly(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        argv = ["--config", str(config), "--out", str(tmp_path), "sweep", "--param", "layout.N",
                "--from", "1", "--to", "4", "--points", "3", "--target", "lambda-star"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "layout.N" in err and "2.5" in err


class TestPipelineStages:
    def test_coupling_sweep_builds_each_stage_once(self, monkeypatch):
        from qecbound import bath

        counts = {"pair_sums": 0}

        def counting(module, name, key):
            real = getattr(module, name)

            def wrapper(*args):
                counts[key] += 1
                return real(*args)

            monkeypatch.setattr(module, name, wrapper)

        param = "bath.channels.0.lambda"
        cfg = from_dict(SMALL_BATH)
        flags = {"param": param, "from_": 1e-4, "to": 5e-3, "points": 6, "target": "lambda-star"}
        bath._shared_grid.cache_clear()
        counting(bath, "_shell_cos", "pair_sums")  # the one walk of each pair-sum computation
        rows = run_subcommand("sweep", cfg, flags).rows
        grids = bath._shared_grid.cache_info().misses  # one miss per grid built
        assert (grids, counts["pair_sums"]) == (1, 1)
        for row in rows:
            bath._shared_grid.cache_clear()  # a separate run shares nothing
            single = run_subcommand("lambda-star", cfg.with_value(param, row[1]), {})
            grids += bath._shared_grid.cache_info().misses
            assert row[2:] == (single.summary["lambda_star_x"], single.summary["lambda_star_z"])
        assert (grids, counts["pair_sums"]) == (7, 7)

        # a bath.L sweep: both channels share each point's grid and pair sums, and every
        # point's layout is built from the same two site tables (N = 1 and 5 sites, D_x = 1)
        counts["pair_sums"] = 0
        bath._shared_grid.cache_clear()
        bath.lattice_sites.cache_clear()
        flags = {**flags, "param": "bath.L", "from_": 100 * math.pi, "to": 300 * math.pi}
        run_subcommand("sweep", cfg, flags)
        assert (bath._shared_grid.cache_info().misses, counts["pair_sums"]) == (6, 6)
        assert bath.lattice_sites.cache_info().misses == 2
        with pytest.raises(ValueError):
            bath.lattice_sites(5, 1)[0, 0] = 1.0

    @pytest.mark.parametrize(
        "x_channel, shared",
        [
            ({"z_exp": 1.0, "s_exp": 0.0, "lambda": 1e-4}, True),
            ({"z_exp": 1.0, "s_exp": 0.25, "lambda": 1e-3}, False),
            ({"z_exp": 1.5, "s_exp": 0.0, "lambda": 1e-3}, False),
        ],
    )
    def test_grid_shared_only_between_equal_spectra(self, x_channel, shared):
        tree = {
            "bath": {
                "D": 1,
                "L": 200 * math.pi,
                "channels": [
                    {"axis": "z", "z_exp": 1.0, "s_exp": 0.0, "lambda": 1e-3},
                    {"axis": "x", **x_channel},
                ],
            }
        }
        grids = _pipeline(from_dict(tree))[3]
        assert (grids["x"] is grids["z"]) == shared
        assert not shared or grids["x"].mode_count == grids["z"].mode_count


class TestErrorPaths:
    def test_invalid_config_exits_nonzero(self, tmp_path, capsys):
        config = tmp_path / "bad.yaml"
        config.write_text("bath:\n  channels:\n    - axis: z\n      lambda: -1\n")
        assert main(["--config", str(config), "--out", str(tmp_path), "eta"]) == 1
        assert "bath.channels[0].lambda" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["gamma", "--mode", "numeric"], ["mmax", "--steps", "3"],
                                      ["eta", "--t-max", "1"], ["hs", "--points", "3"],
                                      ["regimes", "--mode", "numeric"]], ids=" ".join)
    def test_flag_of_another_subcommand_exits_2(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(["--out", str(tmp_path), *argv])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("case", ["missing config", "config is a directory", "out is a file"])
    def test_file_errors_exit_cleanly(self, tmp_path, capsys, case):
        (tmp_path / "file").write_text("")
        config, out = {
            "missing config": (tmp_path / "missing.yaml", tmp_path),
            "config is a directory": (tmp_path, tmp_path),
            "out is a file": (_write_config(tmp_path), tmp_path / "file"),
        }[case]
        assert main(["--config", str(config), "--out", str(out), "eta"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("name", [["five_qubit"], {"a": 1}], ids=["list", "mapping"])
    def test_unhashable_code_name_exits_cleanly(self, tmp_path, capsys, name):
        import yaml

        config = tmp_path / "bad.yaml"
        config.write_text(yaml.safe_dump({"code": {"name": name}}))
        assert main(["--config", str(config), "--out", str(tmp_path), "eta"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: code.name must be one of ['five_qubit'], got {name!r}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("cmd", ["gamma", "distance", "hs"])
    @pytest.mark.parametrize("t_max", ["inf", "nan"])
    def test_non_finite_t_max_exits_cleanly(self, tmp_path, capsys, cmd, t_max):
        assert main(["--out", str(tmp_path), cmd, "--t-max", t_max]) == 1
        err = capsys.readouterr().err
        assert err == "error: --t-max must be a finite number\n"
        assert not (tmp_path / f"{cmd}.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["gamma", "--t-max", "-1"], "--t-max must be non-negative"),
        (["hs", "--steps", "0"], "--steps must be at least 1"),
        (["sweep", "--param", "qec.Delta", "--from", "1", "--to", "2", "--points", "1",
          "--target", "mmax"], "--points must be at least 2"),
    ])
    def test_flag_range_exits_cleanly(self, tmp_path, capsys, argv, message):
        assert main(["--out", str(tmp_path), *argv]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

    def test_unknown_flag_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["eta", "--frobnicate"])
        assert exc.value.code == 2

    def test_budget_error_propagates(self, tmp_path, capsys):
        config = tmp_path / "big.yaml"
        config.write_text(
            "bath:\n  D: 3\n  L: 2000.0\nbudget:\n  max_modes: 100\n"
        )
        assert main(["--config", str(config), "--out", str(tmp_path), "gamma"]) == 1
        assert "budget" in capsys.readouterr().err

    def test_library_error_exits_cleanly(self, tmp_path, capsys):
        # the saturating regime leaves the asymptotic single-qubit bound undefined
        import yaml

        tree = {
            "bath": {
                "D": 2,
                "L": 2 * math.pi * 100,
                "channels": [
                    {"axis": "z", "s_exp": 0.25, "lambda": 1e-2},
                    {"axis": "x", "s_exp": 0.25, "lambda": 1e-2},
                ],
            },
            "layout": {"Xi": 50, "D_x": 2, "N": 16},
        }
        config = tmp_path / "saturating.yaml"
        config.write_text(yaml.safe_dump(tree))
        assert main(["--config", str(config), "--out", str(tmp_path), "mmax"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "saturating regime" in err
        assert "Traceback" not in err

    def test_near_ohmic_asymptotic_bound_is_infinite(self, tmp_path):
        # zeta = 1e-9 for both channels: the inverse power overflows, the law never crosses
        import yaml

        channel = {"z_exp": 1.0, "s_exp": 0.4999999995}
        tree = {
            "bath": {"D": 1, "channels": [{"axis": "z", **channel}, {"axis": "x", **channel}]}
        }
        config = tmp_path / "near-ohmic.yaml"
        config.write_text(yaml.safe_dump(tree))
        assert main(["--config", str(config), "--out", str(tmp_path), "mmax"]) == 0
        rows = [row.split(",") for row in _data_rows(_read(tmp_path / "mmax.csv"))]
        infinite = [row[-1] for row in rows if row[0] == "single" or row[2] == "w_self"]
        assert infinite == ["inf"] * 3

    def test_negative_lambda_star_register_bound(self, tmp_path, capsys):
        # at s = 0.8 the renormalized x coupling is negative (about -1e-8)
        import yaml

        tree = {"bath": {"channels": [{"axis": "z", "s_exp": 0.8},
                                      {"axis": "x", "s_exp": 0.8, "lambda": 1e-4}]}}
        config = tmp_path / "negative.yaml"
        config.write_text(yaml.safe_dump(tree))
        assert main(["--config", str(config), "--out", str(tmp_path), "lambda-star"]) == 0
        assert float(_data_rows(_read(tmp_path / "lambda-star.csv"))[0].split(",")[-1]) < 0
        assert main(["--config", str(config), "--out", str(tmp_path), "mmax"]) == 0
        assert "Traceback" not in capsys.readouterr().err
        overall = _data_rows(_read(tmp_path / "mmax.csv"))[-1].split(",")[-1]
        assert 0 < float(overall) < math.inf

    def test_code_check_fails_on_broken_code(self, tmp_path, capsys, monkeypatch):
        def broken():
            return StabilizerCode(
                n=2,
                k=0,
                generators=(PauliString.from_label("XI"), PauliString.from_label("ZI")),
                logical_x=(),
                logical_z=(),
                distance=1,
            )

        monkeypatch.setitem(CODE_REGISTRY, "broken", broken)
        config = tmp_path / "broken.yaml"
        config.write_text("code:\n  name: broken\n")
        assert main(["--config", str(config), "--out", str(tmp_path), "code-check"]) == 1
        text = _read(tmp_path / "code-check.csv")
        assert ",fail," in text

    def test_code_check_passes_on_default(self, tmp_path):
        assert main(["--out", str(tmp_path), "code-check"]) == 0
        text = _read(tmp_path / "code-check.csv")
        assert ",fail," not in text


class TestRunSubcommand:
    def test_unknown_subcommand(self):
        from qecbound.errors import QecBoundError

        with pytest.raises(QecBoundError, match="unknown subcommand"):
            run_subcommand("explode", default_config(), {})

    def test_single_channel_config_runs(self):
        cfg = from_dict({"bath": {"channels": [{"axis": "z"}]}})
        rows = run_subcommand("lambda-star", cfg, {}).rows
        # the paired channel is absent, so the renormalized coupling vanishes
        assert rows == [("z", 1e-3, 0.0)]

    def test_mmax_single_channel_infinite(self):
        cfg = from_dict({"bath": {"channels": [{"axis": "z"}]}})
        out = run_subcommand("mmax", cfg, {"mode": "asymptotic"})
        assert out.summary["mmax_overall"] == math.inf


ROOT = Path(__file__).resolve().parent.parent
NUMERIC_MODULES = ("numpy", "qecbound.bath", "qecbound.bounds", "qecbound.coupling")


# A library run: numpy first, then a config load, its grids and both numeric searches.  It
# asserts that qecbound loaded neither hashlib nor _hashlib (numpy itself may have).
LIBRARY_SEARCH = """
import sys
import numpy
before = {"hashlib", "_hashlib"} & set(sys.modules)
import qecbound as qb
cfg = qb.load_config("docs/example-config.yaml")
geom, channels, inputs = cfg.geometry(), cfg.channel_map(), cfg.bound_input()
grids = {axis: qb.build_mode_grid(geom, ch, cfg.max_modes) for axis, ch in channels.items()}
report = qb.zeta_and_regime(channels["z"], geom, qb.SumKind.SINGLE_DEPHASING)
print(qb.mmax_single(report, inputs, 0.01, geom, mode="numeric", grid=grids["z"]))
couplings = qb.EffectiveCoupling({"z": 3e-6, "x": 2e-6})
print(qb.mmax_multi_numeric(grids, couplings, cfg.qubit_layout(), inputs, cfg.proportionality))
loaded = {"hashlib", "_hashlib"} & set(sys.modules) - before
assert not loaded, loaded
"""


class TestImportLayers:
    """The CLI, config loading and the Pauli/eta layer import no numeric code."""

    def _assert_numpy_free(self, code):
        check = f"import sys\n{code}\nassert not set({NUMERIC_MODULES!r}) & set(sys.modules)"
        proc = fresh_interpreter(check)
        assert proc.returncode == 0, proc.stderr
        return proc

    def test_loading_a_config(self):
        self._assert_numpy_free("import qecbound.cli\nfrom qecbound.config import load_config\n"
                                "load_config('docs/example-config.yaml')")

    @pytest.mark.parametrize("cmd", ["eta", "code-check"])
    def test_algebra_subcommands(self, tmp_path, cmd):
        self._assert_numpy_free(f"from qecbound.cli import main\n"
                                f"assert main(['--out', {str(tmp_path)!r}, {cmd!r}]) == 0")
        assert (tmp_path / f"{cmd}.csv").is_file()

    def test_config_error(self):
        proc = self._assert_numpy_free("from qecbound.cli import main\n"
                                       "assert main(['--config', '/nonexistent.yaml', 'eta']) == 1")
        assert proc.stderr.startswith("error:")

    def test_help(self):
        self._assert_numpy_free("from qecbound.cli import main\ntry:\n    main(['--help'])\n"
                                "except SystemExit as exc:\n    assert exc.code == 0")

    def test_library_search_maps_no_openssl(self):
        # hashlib maps OpenSSL's libcrypto; only the config hash of a written CSV needs it
        proc = fresh_interpreter(LIBRARY_SEARCH)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["16", "102"]  # both searches ran to a finite M

    @pytest.mark.parametrize("cmd", ["eta", "lambda-star"])
    def test_csv_run_maps_no_openssl(self, tmp_path, cmd):
        # the config hash takes CPython's own SHA-256; hashlib would map OpenSSL's libcrypto
        proc = fresh_interpreter(
            "import sys\nfrom qecbound.cli import main\n"
            "before = {'hashlib', '_hashlib'} & set(sys.modules)\n"
            f"assert main(['--out', {str(tmp_path)!r}, {cmd!r}]) == 0\n"
            "loaded = {'hashlib', '_hashlib'} & set(sys.modules) - before\n"
            "assert not loaded, loaded")
        assert proc.returncode == 0, proc.stderr
        assert "# config: ab73b34ef89803d1" in (tmp_path / f"{cmd}.csv").read_text().splitlines()

    def test_config_hash_without_a_builtin_sha2(self):
        # where CPython has no SHA-2 module of its own, hashlib gives the same digest
        proc = fresh_interpreter(
            "import sys\nsys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "from qecbound import default_config\n"
            "print(default_config().config_hash(), 'hashlib' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["ab73b34ef89803d1", "True"]

    def test_config_hash_unchanged(self):
        assert default_config().config_hash() == "ab73b34ef89803d1"  # the '# config:' header


SRC = ROOT / "src" / "qecbound"
_BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "linalg"}


def _blas_calls(source):
    """(line, description) of each BLAS-backed call or import in Python source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in _BLAS_NAMES:
            found.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            names += [alias.name for alias in node.names]
            if _BLAS_NAMES & {part for name in names for part in name.split(".")}:
                found.append((node.lineno, "import"))
        elif (isinstance(node, ast.Call) and "einsum" in (getattr(node.func, "attr", None),
                                                          getattr(node.func, "id", None))
              and any(kw.arg == "optimize" for kw in node.keywords)):
            found.append((node.lineno, "einsum(optimize=...)"))
    return found


class TestBlasThreads:
    """qecbound, imported before numpy, sets OPENBLAS_NUM_THREADS=1 unless it is set."""

    @pytest.mark.parametrize("preset, want", [(None, "1"), ("3", "3")], ids=["unset", "preset"])
    def test_cli_default(self, tmp_path, preset, want):
        proc = fresh_interpreter(
            "import os, sys\nfrom qecbound.cli import main\n"
            f"assert main(['--out', {str(tmp_path)!r}, 'lambda-star']) == 0\n"
            f"assert 'numpy' in sys.modules and os.environ['OPENBLAS_NUM_THREADS'] == {want!r}",
            OPENBLAS_NUM_THREADS=preset)
        assert proc.returncode == 0, proc.stderr

    def test_library_first_starts_one_thread(self):
        proc = fresh_interpreter("import os, sys, qecbound\nqecbound.w_sum\n"
                                  "assert 'numpy' in sys.modules\n"
                                  "assert os.environ['OPENBLAS_NUM_THREADS'] == '1'\n"
                                  "print(len(os.listdir('/proc/self/task'))"
                                  " if sys.platform.startswith('linux') else '')",
                                  OPENBLAS_NUM_THREADS=None)
        assert proc.returncode == 0, proc.stderr
        if not sys.platform.startswith("linux"):
            pytest.skip("thread count read from /proc/self/task")
        assert proc.stdout.split() == ["1"]

    def test_numpy_first_keeps_its_pool(self):
        proc = fresh_interpreter("import os, numpy, qecbound\nqecbound.w_sum\n"
                                  "assert 'OPENBLAS_NUM_THREADS' not in os.environ",
                                  OPENBLAS_NUM_THREADS=None)
        assert proc.returncode == 0, proc.stderr

    def test_library_preset_wins(self):
        proc = fresh_interpreter("import os, qecbound\nqecbound.w_sum\n"
                                  "assert os.environ['OPENBLAS_NUM_THREADS'] == '3'",
                                  OPENBLAS_NUM_THREADS="3")
        assert proc.returncode == 0, proc.stderr

    def test_source_calls_no_blas(self):
        # the one-thread default costs a run nothing only while qecbound calls no BLAS routine
        found = [f"{path.name}:{line}: {what}" for path in sorted(SRC.glob("*.py"))
                 for line, what in _blas_calls(path.read_text())]
        assert not found, found

    def test_blas_guard_catches_each_form(self):
        snippets = ["a @ b", "a @= b", "np.dot(a, b)", "a.dot(b)", "np.vdot(a, b)",
                    "np.inner(a, b)", "np.matmul(a, b)", "np.tensordot(a, b)",
                    "np.linalg.solve(a, b)", "from numpy.linalg import lstsq",
                    "from numpy import dot", "np.einsum('ij,jk', a, b, optimize=True)",
                    "einsum('ij,jk', a, b, optimize='greedy')"]
        assert [s for s in snippets if not _blas_calls(s)] == []
        assert _blas_calls("np.einsum('i,i->', a, b)\na * b\nnp.sum(a)") == []


PUBLIC_API = [
    "AMatrix", "BathChannel", "BathGeometry", "BoundInput", "CapabilityError", "ConfigError",
    "CriterionUnreachableError", "DegenerateInputError", "DimensionError", "EffectiveCoupling",
    "ErrorClass", "EtaEntry", "EtaTable", "ModeGrid", "PauliString", "QecBoundError",
    "QubitLayout", "Regime", "RegimeReport", "RunConfig", "StabilizerCode", "SumKind",
    "Syndrome", "UnsupportedOrderError", "__version__", "a_matrix", "build_mode_grid",
    "build_radial_mode_grid", "calibrate_c_cal", "classify", "commutes", "d_sat",
    "default_config", "enumerate_eta", "fit_loglog_slope", "five_qubit_code", "from_dict",
    "gamma", "gamma_asymptotic", "gamma_infinity", "hs_distance", "lambda_star",
    "lattice_sites", "load_config", "mmax_multi", "mmax_multi_numeric", "mmax_single",
    "multiply", "paulis_of_weight", "regular_layout", "syndrome", "trace_distance_single",
    "verify_distance", "w_pair", "w_sum", "w_sum_asymptotic", "zeta_and_regime",
]


class TestPublicApi:
    def test_every_name_resolves(self):
        assert sorted(qecbound.__all__) == PUBLIC_API
        for name in PUBLIC_API:
            getattr(qecbound, name)
        assert set(PUBLIC_API) <= set(dir(qecbound))
        with pytest.raises(AttributeError):
            qecbound.no_such_name

    def test_star_import(self):
        namespace = {}
        exec("from qecbound import *", namespace)
        assert set(PUBLIC_API) <= set(namespace)

    def test_names_resolve_at_each_access(self, monkeypatch):
        from qecbound import bath

        monkeypatch.setattr(bath, "gamma", lambda *args: "swapped")
        assert qecbound.gamma(None, 0.0, 0.0) == "swapped"
        monkeypatch.undo()
        assert qecbound.gamma is bath.gamma
        assert "gamma" not in vars(qecbound)

    def test_moved_types_keep_their_old_homes(self):
        from qecbound import bath, bounds, config, coupling, pauli

        assert coupling.enumerate_eta is pauli.enumerate_eta
        assert coupling.EtaTable is pauli.EtaTable and coupling.EtaEntry is pauli.EtaEntry
        assert bath.BathChannel is config.BathChannel
        assert bath.BathGeometry is config.BathGeometry
        assert bounds.BoundInput is config.BoundInput
