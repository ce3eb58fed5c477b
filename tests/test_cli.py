import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackNoConvergence

from steklov_annulus import cli, experiments


class TestConfig:
    def test_read_config(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("ntheta=128\nnr = 16\n# comment\n\njobs=2\n")
        values = cli.read_config(cfg)
        assert values == {"ntheta": 128, "nr": 16, "jobs": 2}

    def test_bad_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("banana=1\n")
        with pytest.raises(cli.ConfigError):
            cli.read_config(cfg)

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("ntheta=many\n")
        with pytest.raises(cli.ConfigError):
            cli.read_config(cfg)

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("ntheta=128\nout=fromcfg\n")
        args = cli.build_parser().parse_args(
            ["--config", str(cfg), "--ntheta", "256", "eps0"])
        settings = cli.resolve_settings(args)
        assert settings["ntheta"] == 256
        assert settings["out"] == "fromcfg"

    def test_defaults(self):
        args = cli.build_parser().parse_args(["eps0"])
        settings = cli.resolve_settings(args)
        assert settings["ntheta"] == experiments.DEFAULT_NTHETA
        assert settings["nr"] == experiments.DEFAULT_NR
        assert settings["jobs"] == 1

    def test_invalid_settings_rejected(self):
        args = cli.build_parser().parse_args(["--ntheta", "4", "eps0"])
        with pytest.raises(cli.ConfigError):
            cli.resolve_settings(args)
        args = cli.build_parser().parse_args(["--jobs", "0", "eps0"])
        with pytest.raises(cli.ConfigError):
            cli.resolve_settings(args)
        for tolerance in ("nan", "inf", "-inf", "0"):
            args = cli.build_parser().parse_args([f"--tolerance={tolerance}", "eps0"])
            with pytest.raises(cli.ConfigError):
                cli.resolve_settings(args)


class TestExitCodes:
    def test_missing_config_file_is_exit_2(self, tmp_path, capsys):
        code = cli.main(["--config", str(tmp_path / "nope.txt"),
                         "--out", str(tmp_path), "eps0"])
        assert code == cli.EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_config_file_not_utf8_is_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff")
        code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "eps0"])
        assert code == cli.EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_out_path_is_a_file_is_exit_2(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        code = cli.main(["--out", str(taken), "eps0"])
        assert code == cli.EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_nan_tolerance_in_config_is_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("tolerance = nan\n")
        code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "eps0"])
        assert code == cli.EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_eps0_passes(self, tmp_path, capsys):
        code = cli.main(["--out", str(tmp_path), "eps0"])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert (tmp_path / "eps0.csv").exists()
        assert (tmp_path / "summary.csv").exists()

    def test_tight_tolerance_is_exit_1(self, tmp_path, capsys):
        code = cli.main(["--out", str(tmp_path), "--ntheta", "64", "--nr", "8",
                         "--tolerance", "1e-9", "table", "3"])
        assert code == cli.EXIT_TOLERANCE
        assert "[FAIL]" in capsys.readouterr().out
        summary = (tmp_path / "summary.csv").read_text()
        assert "fail" in summary

    def test_solver_failure_is_exit_2(self, tmp_path, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        code = cli.main(["--out", str(tmp_path), "--ntheta", "32", "--nr", "4",
                         "table", "1"])
        assert code == cli.EXIT_CONFIG
        assert "solver error" in capsys.readouterr().err


class TestOutputs:
    def test_fig1_artifacts(self, tmp_path, capsys):
        code = cli.main(["--out", str(tmp_path), "fig1"])
        assert code == cli.EXIT_OK
        csv = (tmp_path / "fig1.csv").read_text().splitlines()
        assert csv[0] == "eps,E"
        assert len(csv) == 501
        svg = (tmp_path / "fig1.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg
        assert "0.146721" in svg

    def test_table_csv_rows(self, tmp_path, capsys):
        code = cli.main(["--out", str(tmp_path), "--ntheta", "96", "--nr", "12",
                         "table", "1"])
        assert code == cli.EXIT_OK
        lines = (tmp_path / "table1.csv").read_text().splitlines()
        assert len(lines) == 10  # header + 9 centers
        assert all(line.endswith(",pass") for line in lines[1:])

    def test_summary_accumulates(self, tmp_path, capsys):
        cli.main(["--out", str(tmp_path), "eps0"])
        cli.main(["--out", str(tmp_path), "eps0"])
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(lines) == 3  # one header, two rows

    def test_fd_check_jobs_do_not_change_output(self, tmp_path, capsys):
        # ε = 0.1 breaches its tolerance on so coarse a mesh: exit 1 either way
        codes = [cli.main(["--out", str(tmp_path / jobs), "--ntheta", "32", "--nr", "4",
                           "--jobs", jobs, "fd-check"]) for jobs in ("1", "2")]
        assert codes[0] == codes[1]
        serial = (tmp_path / "1" / "fd-check.csv").read_bytes()
        assert len(serial.splitlines()) == 4  # header + three radii
        assert serial == (tmp_path / "2" / "fd-check.csv").read_bytes()

    def test_table_jobs_do_not_change_output(self, tmp_path, capsys):
        """--jobs spreads the five solved rows; the mirrored rows follow."""
        for jobs in ("1", "2"):
            cli.main(["--out", str(tmp_path / jobs), "--ntheta", "32", "--nr", "4",
                      "--jobs", jobs, "table", "4"])
        serial = (tmp_path / "1" / "table4.csv").read_bytes()
        assert len(serial.splitlines()) == 10  # header + 9 centers
        assert serial == (tmp_path / "2" / "table4.csv").read_bytes()


class TestDefaultTolerances:
    """Without --tolerance each runner applies its own default."""

    def test_table7_default(self, tmp_path, capsys):
        cli.main(["--out", str(tmp_path), "--ntheta", "32", "--nr", "4", "table", "7"])
        lines = (tmp_path / "table7.csv").read_text().splitlines()[1:]
        assert len(lines) == 4
        assert all(line.split(",")[-2] == f"{experiments.PERTURBED_TOLERANCE:g}" for line in lines)

    def test_fd_check_default(self, tmp_path, capsys):
        cli.main(["--out", str(tmp_path), "--ntheta", "32", "--nr", "4", "fd-check"])
        lines = (tmp_path / "fd-check.csv").read_text().splitlines()[1:]
        # ε = 0.1 and 0.3 use the relative bound, the critical radius an absolute one
        assert [line.split(",")[-2] for line in lines] == ["0.02", "0.001", "0.02"]


def test_import_leaves_out_scipy_optimize_and_integrate():
    """Importing the CLI stays cheap: scipy.optimize alone costs about 0.4 s."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = ("import sys, steklov_annulus.cli, steklov_annulus.experiments; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.optimize', 'scipy.integrate'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _fresh_python(code, *args):
    """Run `code` in a new interpreter with the package on its path; its
    standard output, which must end in one JSON line, read back."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


# every package module, both closed-form commands and the closed-form
# matrices, then one FEM solve; pytest's own filter on
# scipy.sparse.SparseEfficiencyWarning imports scipy.sparse in-process
CLOSED_FORM_THEN_SOLVE = """
import importlib, json, pkgutil, sys
import steklov_annulus
from steklov_annulus import analytic, cli, shape_deriv
from steklov_annulus.fem import solve_domain
from steklov_annulus.geometry import INNER, OUTER, AnnularDomain, Circle, PerturbationField

for info in pkgutil.iter_modules(steklov_annulus.__path__):
    importlib.import_module(f"steklov_annulus.{info.name}")
codes = [cli.main(["--out", sys.argv[1], command]) for command in ("eps0", "fig1")]
inner = PerturbationField(radial=0.5, cos_coeffs=(0.2, -0.1), sin_coeffs=(0.3, 0.0), target=INNER)
outer = PerturbationField(cos_coeffs=(0.2, -0.1), sin_coeffs=(0.3, 0.0), target=OUTER)
matrix, _ = shape_deriv.annulus_matrices(0.3, inner, outer)
shape_deriv.split_radial(0.3, inner)
shape_deriv.ball_matrix(2, 1.0, 0.1, outer)
shape_deriv.normalized_derivative(matrix, 8.0, -3.0, 0.75)
loaded = sorted(m for m in sys.modules if m.startswith(("scipy.sparse", "scipy.linalg")))
domain = AnnularDomain(outer=Circle(radius=1.0, orientation=OUTER),
                       inner=Circle(radius=0.1, orientation=INNER))
lam1 = float(solve_domain(domain, 32, 4, count=2).eigenvalues[1])
print(json.dumps({"codes": codes, "loaded": loaded, "lam1": lam1,
                  "exact": analytic.steklov_eig(0.1, 1, "minus")}))
"""


def test_closed_form_loads_no_scipy_subpackage(tmp_path):
    """Importing the package and running its closed forms loads neither
    scipy.sparse nor scipy.linalg; the first FEM solve imports them and
    solves as before (λ₁ at 32×4, ε = 0.1 is 0.75% above the closed form)."""
    result = _fresh_python(CLOSED_FORM_THEN_SOLVE, tmp_path)
    assert result["codes"] == [cli.EXIT_OK, cli.EXIT_OK]
    assert result["loaded"] == []
    assert abs(result["lam1"] - result["exact"]) <= 1e-2 * result["exact"]


RUN_CLI = """
import json, sys
from steklov_annulus import cli
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "scipy.sparse": "scipy.sparse" in sys.modules}))
"""


def test_fresh_pool_workers_import_scipy_themselves(tmp_path):
    """--jobs 2 from a process that never loads SciPy: every solve runs in a
    forked worker, which imports SciPy on its first solve, and the table is
    the --jobs 1 table byte for byte.  At 32×4 the rows read up to 0.12
    above the reference, inside a tolerance of 0.2."""
    serial, pooled = (_fresh_python(RUN_CLI, "--out", tmp_path / jobs, "--ntheta", "32",
                                    "--nr", "4", "--tolerance", "0.2", "--jobs", jobs, "table", "1")
                      for jobs in ("1", "2"))
    assert serial["code"] == pooled["code"] == cli.EXIT_OK
    assert not pooled["scipy.sparse"]
    assert ((tmp_path / "1" / "table1.csv").read_bytes()
            == (tmp_path / "2" / "table1.csv").read_bytes())
