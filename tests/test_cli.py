import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import hqflow
from hqflow import cli, elliptic

FLOW_CFG = """\
# unit-disk baseline
problem.k = 1
problem.l = 0
problem.domain = disk
problem.f = "1"
problem.phi = "1"
problem.u0 = "(x1^2 + x2^2)/2 + 0.1*(1 - x1^2 - x2^2)^2"
grid.n_r = 12
grid.n_theta = 24
flow.mode = translating
flow.t_max = 40.0
flow.tol_trans = 1e-7
flow.checkpoint_every = 50
"""

EIGEN_CFG = """\
problem.k = 1
problem.l = 0
problem.domain = disk
problem.f = "1"
problem.phi = "1"
problem.u0 = "(x1^2 + x2^2)/2"
problem.require_nonnegative_initial_speed = false
grid.n_r = 10
grid.n_theta = 20
eigen.n_halvings = 3
"""

CONV_CFG = """\
problem.k = 1
problem.l = 0
problem.domain = disk
problem.f = "(2 + 0.025*exp(x1/2)) * exp(u - ((x1^2 + x2^2)/2 + 0.1*exp(x1/2)))"
problem.phi = "1 + 0.05*x1*exp(x1/2) + ((x1^2 + x2^2)/2 + 0.1*exp(x1/2)) - u"
problem.u0 = "(x1^2 + x2^2)/2 + 0.1*exp(x1/2)"
problem.growth_rate = 1.0
problem.require_nonnegative_initial_speed = false
grid.n_r = 8
grid.n_theta = 16
flow.t_max = 40.0
flow.mean_shift = true
converge.u_star = "(x1^2 + x2^2)/2 + 0.1*exp(x1/2)"
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_module(args, tmp_path, timeout=None):
    """`python -m hqflow.cli ARGS` in tmp_path, importing the same hqflow
    as this process, whether it comes from an install or from
    PYTHONPATH=src; cwd=tmp_path keeps the working directory from
    supplying it instead."""
    pkg_root = os.path.dirname(os.path.dirname(hqflow.__file__))
    env = dict(os.environ, HQFLOW_OUT=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [pkg_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "hqflow.cli", *args], capture_output=True,
        text=True, cwd=tmp_path, env=env, timeout=timeout)


class TestConfigParsing:
    def test_pairs_comments_and_blanks(self):
        pairs = cli.parse_config_text(
            "# note\n\nproblem.k = 2\nproblem.f = \"exp(u)\"\n")
        assert pairs == {"problem.k": "2", "problem.f": '"exp(u)"'}

    def test_duplicate_key_rejected(self):
        with pytest.raises(cli.ConfigError, match="duplicate"):
            cli.parse_config_text("a.b = 1\na.b = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(cli.ConfigError, match="key = value"):
            cli.parse_config_text("problem.k 2\n")

    def test_empty_value_rejected(self):
        with pytest.raises(cli.ConfigError, match="empty value"):
            cli.parse_config_text("problem.k =\n")

    def test_typed_getters(self):
        cfg = cli.Config({"a.i": "3", "a.x": "2.5", "a.b": "true",
                          "a.s": '"exp(u)"', "a.p": "0.1, -0.2",
                          "a.list": "8, 16, 32"}, "d" * 64)
        assert cfg.int_("a.i") == 3
        assert cfg.float_("a.x") == 2.5
        assert cfg.bool_("a.b") is True
        assert cfg.str_("a.s") == "exp(u)"
        assert cfg.point("a.p") == (0.1, -0.2)
        assert cfg.int_list("a.list") == [8, 16, 32]
        assert cfg.int_("a.missing", 7) == 7
        with pytest.raises(cli.ConfigError, match="required key"):
            cfg.float_("a.missing")
        with pytest.raises(cli.ConfigError, match="expected an integer"):
            cfg.int_("a.x")
        with pytest.raises(cli.ConfigError, match="true or false"):
            cfg.bool_("a.i")

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "problem.bogus = 3\n")
        assert cli.main(["flow", path]) == 2
        assert "problem.bogus" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert cli.main(["flow", "/no/such/file.cfg"]) == 2
        assert "config error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def flow_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("flowcli")
    cfg = write_cfg(tmp, FLOW_CFG)
    out = tmp / "out"
    old = os.environ.get("HQFLOW_OUT")
    os.environ["HQFLOW_OUT"] = str(out)
    try:
        code = cli.main(["flow", cfg])
    finally:
        if old is None:
            os.environ.pop("HQFLOW_OUT", None)
        else:
            os.environ["HQFLOW_OUT"] = old
    return code, out, cfg


class TestFlowCommand:
    def test_clean_exit(self, flow_run):
        code, out, _ = flow_run
        assert code == 0

    def test_artifacts_written(self, flow_run):
        _, out, _ = flow_run
        assert {p.name for p in out.iterdir()} == {"monitors.csv",
                                                   "final.csv",
                                                   "summary.json"}

    def test_metadata_header_first(self, flow_run):
        _, out, _ = flow_run
        for name in ("monitors.csv", "final.csv"):
            head = (out / name).read_text().splitlines()[:5]
            assert head[0] == "# command=flow"
            assert head[1].startswith("# config_sha256=")
            assert "# outside_theory=false" in head
        summary = json.loads((out / "summary.json").read_text())
        assert list(summary)[0] == "meta"
        assert len(summary["meta"]["config_sha256"]) == 64

    def test_summary_contents(self, flow_run):
        _, out, _ = flow_run
        d = json.loads((out / "summary.json").read_text())
        assert d["status"] == "translating"
        assert abs(d["speed"] - math.log(2.0)) <= 1e-2
        assert d["final_osc_ut"] < 1e-6
        assert d["monitors"]["all_ok"]["ok"] is True
        assert d["steps"] > 0 and d["t_final"] > 0

    def test_rerun_is_byte_identical(self, flow_run, tmp_path, monkeypatch):
        _, out, cfg = flow_run
        monkeypatch.setenv("HQFLOW_OUT", str(tmp_path))
        assert cli.main(["flow", cfg]) == 0
        for name in ("monitors.csv", "final.csv", "summary.json"):
            assert (tmp_path / name).read_bytes() == \
                (out / name).read_bytes()

    def test_t_max_exit_4(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, FLOW_CFG.replace(
            "flow.t_max = 40.0", "flow.t_max = 0.001"))
        monkeypatch.setenv("HQFLOW_OUT", str(tmp_path / "o"))
        assert cli.main(["flow", cfg]) == 4

    def test_increasing_phi_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FLOW_CFG.replace(
            'problem.phi = "1"', 'problem.phi = "1 + u"'))
        assert cli.main(["flow", cfg]) == 2
        err = capsys.readouterr().err
        assert "problem.phi" in err
        assert "strictly decreasing in u" in err

    def test_inadmissible_u0_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FLOW_CFG.replace(
            'problem.u0 = "(x1^2 + x2^2)/2 + 0.1*(1 - x1^2 - x2^2)^2"',
            'problem.u0 = "-x1^2"'))
        assert cli.main(["flow", cfg]) == 2
        err = capsys.readouterr().err
        assert "problem.u0" in err
        assert "Gamma_k" in err and "at node" in err

    def test_bad_expression_names_field(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FLOW_CFG.replace(
            'problem.f = "1"', 'problem.f = "1 +"'))
        assert cli.main(["flow", cfg]) == 2
        assert "problem.f" in capsys.readouterr().err

    @pytest.mark.parametrize("cfl", ["0", "-0.1", "nan"])
    def test_unusable_cfl_exit_2(self, tmp_path, cfl):
        # with dt <= 0 a run never reaches t_max; the timeout turns such
        # a hang into a failure
        cfg = write_cfg(tmp_path, FLOW_CFG + f"flow.cfl = {cfl}\n")
        proc = run_module(["flow", cfg], tmp_path, timeout=120)
        assert proc.returncode == 2
        assert "config error at flow.cfl" in proc.stderr

    @pytest.mark.parametrize("t_max", ["inf", "nan", "0", "-1"])
    def test_unusable_t_max_exit_2(self, tmp_path, t_max):
        # with tol_trans = 0 only t_max ends a translating run, so an
        # infinite limit would hang; the timeout turns that into a failure
        cfg = write_cfg(tmp_path, FLOW_CFG.replace(
            "flow.t_max = 40.0", f"flow.t_max = {t_max}").replace(
            "flow.tol_trans = 1e-7", "flow.tol_trans = 0"))
        proc = run_module(["flow", cfg], tmp_path, timeout=120)
        assert proc.returncode == 2
        assert "config error at flow.t_max: must be finite and positive" \
            in proc.stderr

    @pytest.mark.parametrize("key", ["flow.window", "flow.checkpoint_every"])
    def test_zero_loop_setting_exit_2(self, tmp_path, capsys, key):
        cfg = write_cfg(tmp_path, FLOW_CFG.replace(
            "flow.checkpoint_every = 50\n", "") + f"{key} = 0\n")
        assert cli.main(["flow", cfg]) == 2
        assert f"config error at {key}: must be at least 1" in \
            capsys.readouterr().err

    def test_odd_n_theta_reported_at_its_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FLOW_CFG.replace(
            "grid.n_theta = 24", "grid.n_theta = 15"))
        assert cli.main(["flow", cfg]) == 2
        assert "config error at grid.n_theta" in capsys.readouterr().err

    def test_u_in_u0_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FLOW_CFG.replace(
            'problem.u0 = "(x1^2 + x2^2)/2 + 0.1*(1 - x1^2 - x2^2)^2"',
            'problem.u0 = "u + x1"'))
        assert cli.main(["flow", cfg]) == 2
        assert "problem.u0" in capsys.readouterr().err


class TestEigenCommand:
    def test_baseline_summary(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, EIGEN_CFG)
        monkeypatch.setenv("HQFLOW_OUT", str(tmp_path / "o"))
        assert cli.main(["eigen", cfg]) == 0
        d = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert list(d)[0] == "meta"
        assert d["status"] == "converged"
        assert abs(d["oracle_s"] - math.log(2.0)) <= 1e-12
        assert abs(d["s_hat"] - d["oracle_s"]) <= 2e-2
        assert len(d["epsilon_trace"]) == 4
        assert (tmp_path / "o" / "profile.csv").exists()

    def test_translation_identity_reported(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, EIGEN_CFG
                        + "eigen.check_translation = true\n")
        monkeypatch.setenv("HQFLOW_OUT", str(tmp_path / "o"))
        assert cli.main(["eigen", cfg]) == 0
        d = json.loads((tmp_path / "o" / "summary.json").read_text())
        tr = d["translation_identity"]
        assert tr["ok"] is True
        assert tr["deviation"] <= tr["tolerance"]

    def test_damped_solve_timeout_exit_3(self, tmp_path, monkeypatch,
                                         capsys):
        cfg = write_cfg(tmp_path, EIGEN_CFG + "eigen.t_max = 0.001\n")
        monkeypatch.setenv("HQFLOW_OUT", str(tmp_path / "o"))
        assert cli.main(["eigen", cfg]) == 3
        assert "eigen solve failed" in capsys.readouterr().err
        d = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert d["status"] == "diverged"

    @pytest.mark.parametrize("t_max", ["inf", "nan", "0", "-1"])
    def test_unusable_t_max_exit_2(self, tmp_path, t_max):
        cfg = write_cfg(tmp_path, EIGEN_CFG + f"eigen.t_max = {t_max}\n")
        proc = run_module(["eigen", cfg], tmp_path, timeout=120)
        assert proc.returncode == 2
        assert "config error at eigen.t_max: must be finite and positive" \
            in proc.stderr

    def test_noncontracting_trace_exit_5(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, EIGEN_CFG)
        monkeypatch.setenv("HQFLOW_OUT", str(tmp_path / "o"))

        def fake(spec, **kwargs):
            return elliptic.EigenPair(
                s=0.5, u_ell=np.array(spec.u0_grid), y0=(0.0, 0.0),
                epsilon_trace=[(1.0, 0.5)], residual=0.0,
                status="convergence-failure",
                notes=["the damping trace is not contracting"])

        monkeypatch.setattr(cli.elliptic, "solve_eigenpair", fake)
        assert cli.main(["eigen", cfg]) == 5

    def test_u_dependent_f_exit_2(self, tmp_path, capsys, monkeypatch):
        cfg = write_cfg(tmp_path, EIGEN_CFG.replace(
            'problem.f = "1"', 'problem.f = "exp(u)"'))
        monkeypatch.setenv("HQFLOW_OUT", str(tmp_path / "o"))
        assert cli.main(["eigen", cfg]) == 2
        assert "problem.f" in capsys.readouterr().err


class TestVerifyCommand:
    def test_small_suite_passes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HQFLOW_OUT", str(tmp_path))
        assert cli.main(["verify", "--seed", "3", "--trials", "30"]) == 0
        d = json.loads((tmp_path / "verify.json").read_text())
        assert d["all_ok"] is True and d["vacuous"] is False
        assert d["trials"] == 30 and d["seed"] == 3
        assert len(d["properties"]) == 17
        assert list(d)[0] == "meta"

    def test_zero_trials_vacuous_warning(self, tmp_path, monkeypatch,
                                         capsys):
        monkeypatch.setenv("HQFLOW_OUT", str(tmp_path))
        assert cli.main(["verify", "--trials", "0"]) == 0
        assert "vacuously" in capsys.readouterr().err
        d = json.loads((tmp_path / "verify.json").read_text())
        assert d["vacuous"] is True
        worst = [p["worst_margin"] for p in d["properties"].values()]
        assert all(w is None for w in worst)

    def test_self_test_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HQFLOW_OUT", str(tmp_path))
        assert cli.main(["verify", "--trials", "40", "--self-test"]) == 0
        d = json.loads((tmp_path / "verify.json").read_text())
        assert d["self_test_detects_faults"] is True

    def test_failing_property_exit_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HQFLOW_OUT", str(tmp_path))
        from hqflow.verify import PropertyResult

        def fake(trials=None, seed=0, names=None):
            return {"deletion_identity": PropertyResult(
                "deletion_identity", "identity", 10, 9, 3e-4, 1e-12)}

        monkeypatch.setattr(cli.verify, "run_suite", fake)
        assert cli.main(["verify", "--trials", "10"]) == 1
        assert "deletion_identity" in capsys.readouterr().err

    def test_rerun_byte_identical(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("HQFLOW_OUT", str(a))
        cli.main(["verify", "--trials", "25"])
        monkeypatch.setenv("HQFLOW_OUT", str(b))
        cli.main(["verify", "--trials", "25"])
        assert (a / "verify.json").read_bytes() == \
            (b / "verify.json").read_bytes()


class TestConvergeCommand:
    def test_two_level_order(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, CONV_CFG)
        monkeypatch.setenv("HQFLOW_OUT", str(tmp_path / "o"))
        assert cli.main(["converge", cfg, "--levels", "2"]) == 0
        d = json.loads((tmp_path / "o" / "converge.json").read_text())
        assert len(d["levels"]) == 2 and len(d["orders"]) == 1
        assert 1.5 <= d["orders"][0] <= 2.5
        assert d["levels"][0]["error"] > d["levels"][1]["error"]

    def test_identical_levels_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path,
                        CONV_CFG + "converge.resolutions = 8, 8\n")
        assert cli.main(["converge", cfg, "--levels", "2"]) == 2
        assert "identical grid levels" in capsys.readouterr().err

    def test_level_count_mismatch_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path,
                        CONV_CFG + "converge.resolutions = 8, 16, 32\n")
        assert cli.main(["converge", cfg, "--levels", "2"]) == 2
        assert "converge.resolutions" in capsys.readouterr().err

    def test_single_level_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, CONV_CFG)
        assert cli.main(["converge", cfg, "--levels", "1"]) == 2

    def test_missing_truth_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CONV_CFG.replace(
            'converge.u_star = "(x1^2 + x2^2)/2 + 0.1*exp(x1/2)"\n', ""))
        assert cli.main(["converge", cfg, "--levels", "2"]) == 2
        assert "converge.u_star" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = run_module(["verify", "--trials", "0"], tmp_path)
        assert proc.returncode == 0
        assert "vacuously" in proc.stderr

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["melt"])
        assert exc.value.code == 2
