import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chebydev import __version__, cli
from chebydev.constructions import compute_rd
from chebydev.domains import simplex


def run(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


class TestConstruct:
    def test_td4_leading_coefficient(self, capsys):
        code, out = run(["construct", "--family", "td", "--d", "4"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["leading_coefficient"] == 896
        assert payload["polynomial"]["nvars"] == 4

    def test_r5_constants_block(self, capsys):
        code, out = run(["construct", "--family", "r5"], capsys)
        assert code == 0
        payload = json.loads(out)
        consts = payload["constants"]
        assert round(consts["a"], 7) == 28.5926243
        assert round(consts["b"], 7) == 21.8935834
        assert round(consts["d_root"], 9) == -1.208972894
        assert payload["face_defect"]["exceeds_one"]

    def test_r3_is_td3(self, capsys):
        _, r3 = run(["construct", "--family", "r3"], capsys)
        _, td3 = run(["construct", "--family", "td", "--d", "3"], capsys)
        r3, td3 = json.loads(r3), json.loads(td3)
        assert (r3.pop("family"), td3.pop("family")) == ("r3", "td")
        assert r3 == td3

    def test_td_requires_d_at_least_3(self, capsys):
        code = cli.main(["construct", "--family", "td", "--d", "2"])
        assert code == 2

    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--tol", "supnorm=1"]])
    def test_rejects_inert_flags(self, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(["construct", "--family", "td", "--d", "3"] + flag)
        assert exc.value.code == 2


class TestVerify:
    @pytest.mark.parametrize("name", ["weights", "certificate", "nonsense"])
    def test_unknown_tolerance_is_a_usage_error(self, name):
        argv = ["verify", "--suite", "combi", "--d", "3", "--tol", f"{name}=1"]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("pair", ["supnorm=abc", "foo=1", "supnorm=-5", "supnorm=nan",
                                      "supnorm=inf", "supnorm=", "supnorm"])
    def test_bad_tolerance_is_one_usage_line(self, pair, capsys):
        # exit 2 before any check runs, whatever is wrong with the pair
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "supnorm", "--d", "3", "--tol", pair])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "annihilation, supnorm, max_principle" in captured.err
        assert "finite and >= 0" in captured.err

    def test_zero_tolerance_is_accepted(self, capsys):
        _, out = run(["verify", "--suite", "combi", "--d", "3", "--tol", "annihilation=0"], capsys)
        assert json.loads(out)["config"]["tolerances"]["annihilation"] == 0.0

    def test_known_tolerance_lands_in_config(self, capsys):
        _, out = run(["verify", "--suite", "combi", "--d", "3",
                      "--tol", "supnorm=0.5"], capsys)
        tols = json.loads(out)["config"]["tolerances"]
        assert tols == {"annihilation": 1e-8, "max_principle": 1e-8, "supnorm": 0.5}

    def test_descending_range_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "combi", "--d", "5..3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("spec", ["3..x", "x"])
    def test_non_integer_range_is_a_usage_error(self, spec, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "combi", "--d", spec])
        assert exc.value.code == 2
        assert "--d expects an integer or an ascending range" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["2", "1..4"])
    def test_d_below_3_is_a_usage_error(self, spec):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "supnorm", "--d", spec])
        assert exc.value.code == 2

    def test_laplacian_suite_searches_once_per_d(self, capsys, monkeypatch):
        from chebydev import supnorm
        searches = []
        original = supnorm.critical_points

        def counted(*args, **kwargs):
            searches.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(supnorm, "critical_points", counted)
        code, _ = run(["verify", "--suite", "laplacian", "--d", "3..5"], capsys)
        assert code == 0
        assert searches == [simplex(d) for d in (3, 4, 5)]

    def test_run_without_checks_fails(self, capsys):
        # the determinant suite stops at d = 6
        code, out = run(["verify", "--suite", "determinant", "--d", "7..8"], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["checks"] == [] and payload["all_passed"] is False

    def test_combi_suite_wide_range(self, capsys):
        code, out = run(["verify", "--suite", "combi", "--d", "3..15"], capsys)
        assert code == 0
        assert json.loads(out)["all_passed"]

    def test_all_suites_small_range(self, capsys):
        code, out = run(["verify", "--suite", "all", "--d", "3..5"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"]
        names = {c["name"] for c in payload["checks"]}
        assert any(n.startswith("td_bound") for n in names)
        assert any(n.startswith("laplacian_constant") for n in names)

    def test_supnorm_d6_flags_conjecture_mode(self, capsys):
        code, out = run(["verify", "--suite", "supnorm", "--d", "6"], capsys)
        assert code == 0
        payload = json.loads(out)
        entry = payload["checks"][0]
        assert entry["conjecture_mode"] and "finding" in entry

    def test_failure_exit_code(self, capsys, monkeypatch):
        import chebydev.cli as climod
        monkeypatch.setitem(climod.SUITES, "combi",
                            lambda ds, tols, seed: [{"name": "x", "passed": False}])
        code, _ = run(["verify", "--suite", "combi", "--d", "3"], capsys)
        assert code == 1


class TestApprox:
    def test_simplex_product(self, capsys):
        code, out = run(["approx", "--monomial", "1,1,1", "--domain", "simplex",
                         "--degree", "2", "--grid", "32"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["deviation"] - 0.0138888888) < 5e-4
        assert payload["problem"]["basis"] == "symmetric"

    def test_rejects_tolerance_flag(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["approx", "--monomial", "1,1", "--degree", "1", "--tol", "supnorm=1"])
        assert exc.value.code == 2

    def test_bad_monomial_flag(self, capsys):
        code = cli.main(["approx", "--monomial", "a,b", "--degree", "2"])
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["--monomial", "1,1,1", "--degree", "-1"],
        ["--monomial", "1,1,1", "--degree", "2", "--grid", "0"],
        ["--monomial", "1,-1,1", "--degree", "2"],
    ])
    def test_out_of_range_flag_is_a_usage_error(self, flags, capsys):
        assert cli.main(["approx"] + flags) == 2

    def test_target_in_the_span(self, capsys):
        code, out = run(["approx", "--monomial", "1,1", "--degree", "5", "--grid", "8"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["deviation_lower"] == 0.0 <= payload["deviation_upper"]
        assert payload["extrema"] == [] and payload["equioscillation_count"] == 0

    def test_solver_failure_exit_code(self, capsys, monkeypatch):
        from chebydev.lp import LPError

        def boom(*args, **kwargs):
            raise LPError("no convergence")

        monkeypatch.setattr(cli, "remez_exchange", boom)
        code = cli.main(["approx", "--monomial", "1,1", "--degree", "1",
                         "--grid", "4"])
        assert code == 3

    def test_warning_exit_code(self, capsys, monkeypatch, tmp_path):
        # a result that carries a warning is reported on stderr, not written
        from types import SimpleNamespace

        monkeypatch.setattr(cli, "remez_exchange", lambda prob, seed: SimpleNamespace(
            warning="exchange stopped at its iteration limit"))
        report = tmp_path / "report.json"
        code = cli.main(["approx", "--monomial", "1,1", "--degree", "1",
                         "--grid", "4", "--out", str(report)])
        assert code == 3
        assert "exchange stopped at its iteration limit" in capsys.readouterr().err
        assert not report.exists()

    def test_basis_outside_the_span_is_a_usage_error(self, capsys, monkeypatch):
        # the even basis is not closed under u = 2x - 1: refused before any LP
        import chebydev.bestapprox as ba

        def no_solve(*args, **kwargs):
            raise AssertionError("an LP was solved")

        monkeypatch.setattr(ba, "simplex_solve", no_solve)
        code = cli.main(["approx", "--monomial", "2,2,2", "--degree", "4",
                         "--basis", "even"])
        assert code == 2
        assert "left the basis span" in capsys.readouterr().err

    def test_grid_too_coarse_for_the_basis_is_a_usage_error(self, capsys, monkeypatch):
        # four grid points cannot carry the quadratics: the rank check on the
        # grid refuses the problem before any LP
        import chebydev.bestapprox as ba

        def no_solve(*args, **kwargs):
            raise AssertionError("an LP was solved")

        monkeypatch.setattr(ba, "simplex_solve", no_solve)
        code = cli.main(["approx", "--monomial", "1,1,1", "--degree", "2", "--grid", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "raise it" in err and "x0^2, rational) is dependent" in err

    def test_even_constants_on_the_simplex(self, capsys):
        code, out = run(["approx", "--monomial", "2,2,2", "--degree", "1",
                         "--basis", "even", "--grid", "8"], capsys)
        assert code == 0 and len(json.loads(out)["coefficients"]) == 1


class TestModuleEntry:
    """python -m chebydev from a source checkout."""

    def run_module(self, *args):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        return subprocess.run([sys.executable, "-m", "chebydev", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_version(self):
        proc = self.run_module("--version")
        assert proc.returncode == 0 and proc.stdout.strip() == __version__

    def test_usage_error_exit_code(self):
        proc = self.run_module("approx", "--monomial", "2,2,2", "--degree", "4",
                               "--basis", "even")
        assert proc.returncode == 2 and "left the basis span" in proc.stderr


    def test_rd_table(self):
        # the invocation the README documents
        proc = self.run_module("rd-table", "--max-d", "4")
        assert proc.returncode == 0
        assert proc.stdout == "d,r_d,prime_factorization\n3,72,2^3*3^2\n4,896,2^7*7\n"


class TestMainErrors:
    @pytest.mark.parametrize("error", ["PolyError", "LPError"])
    def test_numerical_errors_exit_3(self, capsys, monkeypatch, error):
        exc = getattr(cli, error)

        def failing(args):
            raise exc("singular system")

        monkeypatch.setattr(cli, "cmd_rd_table", failing)
        assert cli.main(["rd-table", "--max-d", "3"]) == 3
        assert capsys.readouterr().err == "chebydev: singular system\n"


class TestBlasThreads:
    """Importing chebydev asks OpenBLAS for one thread unless the variable is set."""

    @pytest.mark.parametrize("preset, want", [(None, "1"), ("2", "2")])
    def test_import_sets_one_thread_unless_set(self, preset, want):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        proc = subprocess.run(
            [sys.executable, "-c", "import os, chebydev; print(os.environ['OPENBLAS_NUM_THREADS'])"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and proc.stdout.strip() == want


class TestTables:
    def test_rd_table_rows(self, capsys):
        code, out = run(["rd-table", "--max-d", "11"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d,r_d,prime_factorization"
        assert len(lines) == 1 + 9
        assert lines[1] == "3,72,2^3*3^2"
        assert lines[-1].startswith("11,6939874934784,")

    def test_rd_table_bad_flag(self, capsys):
        assert cli.main(["rd-table", "--max-d", "2"]) == 2

    def test_rd_table_to_d30_multiplies_back(self, capsys):
        code, out = run(["rd-table", "--max-d", "30"], capsys)
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == list(range(3, 31))
        for row in rows:
            d, rd, fact = row.split(",")
            factors = [f.partition("^") for f in fact.split("*")]
            assert math.prod(int(b.rstrip("?")) ** int(e or 1) for b, _, e in factors) \
                == int(rd) == compute_rd(int(d))
        # r_30's 30-digit cofactor lies past the proven Miller-Rabin range
        assert rows[-1].endswith("*141394687279295136642440200829?")

    def test_rd_table_method_disagreement(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "compute_rd", lambda d, method: 72 + (method == "recursive"))
        assert cli.main(["rd-table", "--max-d", "4"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "method disagreement at d=3" in captured.err

    def test_surface_grid_zero_is_a_usage_error(self, capsys):
        assert cli.main(["surface", "--poly", "u3", "--grid", "0"]) == 2
        assert "--grid must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["rd-table", "--max-d", "3", "--seed", "1"],
                                      ["rd-table", "--max-d", "3", "--tol", "supnorm=1"],
                                      ["surface", "--poly", "u3", "--seed", "1"]])
    def test_table_commands_reject_inert_flags(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    def test_surface_u5_grid3(self, capsys):
        code, out = run(["surface", "--poly", "u5", "--grid", "3"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 10
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(-1 - 1e-9 <= v <= 1 + 1e-9 for v in values)


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        args = ["approx", "--monomial", "1,1", "--domain", "simplex",
                "--degree", "1", "--grid", "8", "--seed", "3"]
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    # sha256 of reports with exact numbers only (no floats, so the same on
    # every platform), recorded from the Fraction-based orbit, condition-row
    # and constructor code that the integer versions replaced.  The reports
    # embed the library version, so a version bump re-records them.
    @pytest.mark.parametrize("args, digest", [
        (["construct", "--family", "td", "--d", "10"],
         "f2c21b909a6fa09b1432cfb27e987ec9f866cc2a7a4948dbf4e402ff88d599a8"),
        (["verify", "--suite", "signature", "--d", "4..7"],
         "d58ec5714cbf35371b9246ed10646f19d90a6ab78efdf87e622cfd0b5f014a60"),
    ], ids=["construct_td_d10", "verify_signature_d4_7"])
    def test_exact_reports_keep_their_bytes(self, tmp_path, args, digest):
        out = tmp_path / "report.json"
        assert cli.main(args + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_reports_embed_config(self, capsys):
        code, out = run(["verify", "--suite", "cubature", "--d", "3"], capsys)
        payload = json.loads(out)
        cfg = payload["config"]
        assert cfg["version"] and "tolerances" in cfg and "seed" in cfg
