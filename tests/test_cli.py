import contextlib
import importlib.util
import io
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import hqflow
from hqflow import cli, flow

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
converge.u_star = "(x1^2 + x2^2)/2 + 0.1*exp(x1/2)"
"""


# f = sqrt(u - 1.4) + 10 is defined at u0 >= 1.5, but the initial speed
# is negative and the flow lowers u below 1.4
DOMAIN_EXIT_CFG = """\
problem.k = 1
problem.l = 0
problem.domain = disk
problem.f = "sqrt(u - 1.4) + 10"
problem.phi = "1"
problem.u0 = "(x1^2 + x2^2)/2 + 1.5"
problem.require_nonnegative_initial_speed = false
grid.n_r = 6
grid.n_theta = 12
"""


# The translating solution |x|^2/2 on a 4x8 disk; phi = |x| is its
# normal derivative on a disk of any radius, so a change of the radius
# alone keeps the problem consistent.
FUZZ_CFG = """\
problem.k = 1
problem.l = 0
problem.domain = disk
problem.f = "1"
problem.phi = "sqrt(x1^2 + x2^2)"
problem.u0 = "(x1^2 + x2^2)/2"
problem.require_nonnegative_initial_speed = false
grid.n_r = 4
grid.n_theta = 8
flow.mode = translating
flow.t_max = 0.05
"""


# The same translating solution for the eigen solve and its translation
# identity, which reads eigen.eps0, and the steady solution |x|^2/2 of
# f = 2 for a converge ladder of 4x8 and 8x16.
EIGEN_FUZZ_CFG = """\
problem.k = 1
problem.l = 0
problem.domain = disk
problem.f = "1"
problem.phi = "sqrt(x1^2 + x2^2)"
problem.u0 = "(x1^2 + x2^2)/2"
problem.require_nonnegative_initial_speed = false
grid.n_r = 4
grid.n_theta = 8
eigen.tol = 1e-6
eigen.check_translation = true
"""

CONV_FUZZ_CFG = """\
problem.k = 1
problem.l = 0
problem.domain = disk
problem.f = "2"
problem.phi = "sqrt(x1^2 + x2^2)"
problem.u0 = "(x1^2 + x2^2)/2"
problem.require_nonnegative_initial_speed = false
grid.n_r = 4
grid.n_theta = 8
flow.t_max = 0.05
converge.u_star = "(x1^2 + x2^2)/2"
"""


def fuzz_config(changes, base=FUZZ_CFG):
    """`base` with the keys in `changes` set to new raw values."""
    pairs = cli.parse_config_text(base)
    pairs.update(changes)
    return "".join(f"{k} = {v}\n" for k, v in pairs.items())


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def artifacts(out):
    """The artifacts under `out` by name, without their metadata: the
    "meta" of a JSON file and the "#" lines of a CSV file."""
    found = {}
    for path in sorted(out.iterdir()):
        text = path.read_text()
        if path.suffix == ".json":
            found[path.name] = {k: v for k, v in json.loads(text).items()
                                if k != "meta"}
        else:
            found[path.name] = [ln for ln in text.splitlines()
                                if not ln.startswith("#")]
    return found


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
                          "a.s": '"exp(u)"'}, "d" * 64)
        assert cfg.int_("a.i") == 3
        assert cfg.float_("a.x") == 2.5
        assert cfg.bool_("a.b") is True
        assert cfg.str_("a.s") == "exp(u)"
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

    def test_readme_config_block_names_the_known_keys(self):
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split(
            "## Config format", 1)[1].split("\n## ", 1)[0]
        keys = re.findall(r"^    ([a-z_]+\.[a-z_0-9]+) = ", section, re.M)
        assert sorted(keys) == sorted(cli.KNOWN_KEYS)

    @pytest.mark.parametrize("workload, kwargs, command, line", [
        ("Eigen", {"grid": (8, 16)}, ["eigen"], "eigen.n_halvings = 6\n"),
        ("Manufactured", {"base_grid": (4, 8)},
         ["converge", "--levels", "2"], "flow.mean_shift = true\n")],
        ids=["eigen", "manufactured"])
    def test_bench_config_with_retired_key_exit_0(self, tmp_path, monkeypatch,
                                                  workload, kwargs, command,
                                                  line):
        # the benchmark's eigen and manufactured configs still set
        # eigen.n_halvings and flow.mean_shift, which nothing reads: each
        # loads, and changes no artifact
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", pathlib.Path(__file__).resolve().parents[1]
            / "hqbench" / "workloads.py")
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        text = next(iter(getattr(bench, workload)(
            1, tmp_path / "bench", **kwargs).configs.values()))
        assert line in text
        runs = []
        for name, cfg_text in (("with", text),
                               ("without", text.replace(line, ""))):
            out = tmp_path / name
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(cfg_text)
            monkeypatch.setenv("HQFLOW_OUT", str(out))
            assert cli.main([command[0], str(cfg), *command[1:]]) == 0
            runs.append(artifacts(out))
        assert runs[0] == runs[1]


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
        # every domain is smooth and strictly convex, so no header flags
        # one that leaves the theory
        _, out, _ = flow_run
        for name in ("monitors.csv", "final.csv"):
            head = [line for line in (out / name).read_text().splitlines()
                    if line.startswith("#")]
            assert head == ["# command=flow", head[1],
                            "# domain=disk radius=1", "# grid=polar 12x24"]
            assert head[1].startswith("# config_sha256=")
        summary = json.loads((out / "summary.json").read_text())
        assert list(summary)[0] == "meta"
        assert len(summary["meta"]["config_sha256"]) == 64
        assert "outside_theory" not in summary["meta"]

    def test_summary_contents(self, flow_run):
        _, out, _ = flow_run
        d = json.loads((out / "summary.json").read_text())
        assert d["status"] == "translating"
        assert abs(d["speed"] - math.log(2.0)) <= 1e-2
        assert d["final_osc_ut"] < 1e-6
        assert d["monitors"]["all_ok"]["ok"] is True
        assert d["steps"] > 0 and d["t_final"] > 0
        # max|u_t| tends to the speed, so a decay rate means nothing here
        assert "decay_rate" not in d

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

    @pytest.mark.parametrize("changes, key", [
        ({"problem.phi": '"1 - 0.5*u"', "problem.damping_rate": "-1"},
         "problem.damping_rate"),
        ({"problem.u0": '"log(x1)"'}, "problem.u0"),
        ({"problem.f": '"log(u - 5)"'}, "problem.f"),
        ({"problem.phi": '"sqrt(u - 5)"'}, "problem.phi"),
        ({"problem.phi": '"-1"'}, "problem.phi")])
    def test_field_error_reported_at_its_key(self, tmp_path, capsys,
                                             changes, key):
        # phi = -1 closes the admissible u0 to boundary values that
        # leave the cone
        cfg = write_cfg(tmp_path, fuzz_config(changes))
        assert cli.main(["flow", cfg]) == 2
        assert f"config error at {key}:" in capsys.readouterr().err

    def test_non_finite_phi_exit_2(self, tmp_path):
        # the affine closure of a phi free of u does not check phi; the
        # overflow is reported once, by the config error, and not again
        # by a numpy warning
        cfg = write_cfg(tmp_path, fuzz_config(
            {"problem.phi": '"1e308*1e308"'}))
        proc = run_module(["flow", cfg], tmp_path, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr == ("config error at problem.phi: is not finite "
                               "at the boundary values\n")

    def test_window_is_an_unknown_key(self, tmp_path, capsys):
        # osc(u_t) < tol_trans alone stops a translating run
        cfg = write_cfg(tmp_path, FLOW_CFG + "flow.window = 50\n")
        assert cli.main(["flow", cfg]) == 2
        assert "config error at flow.window: unknown key" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("key, expr", [
        ("problem.f", "exp(0.1*u)"), ("problem.phi", "1 - 0.5*u")])
    def test_u_dependent_data_cannot_translate_exit_2(self, tmp_path, capsys,
                                                       key, expr):
        cfg = write_cfg(tmp_path, FLOW_CFG.replace(
            f'{key} = "1"', f'{key} = "{expr}"')
            + "problem.require_nonnegative_initial_speed = false\n")
        assert cli.main(["flow", cfg]) == 2
        assert "config error at flow.mode: must be steady" \
            in capsys.readouterr().err

    def test_mean_shift_is_read_by_nothing_exit_0(self, tmp_path,
                                                  monkeypatch, flow_run):
        # flow.mean_shift is a known key that nothing reads: a
        # translating run that sets it writes the artifacts of one that
        # does not
        _, plain, _ = flow_run
        cfg = write_cfg(tmp_path, FLOW_CFG + "flow.mean_shift = true\n")
        monkeypatch.setenv("HQFLOW_OUT", str(tmp_path / "o"))
        assert cli.main(["flow", cfg]) == 0
        assert artifacts(tmp_path / "o") == artifacts(plain)

    @pytest.mark.parametrize("cfl", ["0", "-0.1", "nan", "5e-324", "0.4"])
    def test_unusable_cfl_exit_2(self, tmp_path, capsys, cfl):
        # every run's first dt is the cap, so flow.cfl is an unknown key
        # whatever its value
        cfg = write_cfg(tmp_path, FLOW_CFG + f"flow.cfl = {cfl}\n")
        assert cli.main(["flow", cfg]) == 2
        assert "config error at flow.cfl: unknown key" \
            in capsys.readouterr().err

    def test_diverged_summary_ends_on_last_row(self, tmp_path, monkeypatch):
        # every trial of step 8 leaves the cone, between the records at
        # steps 5 and 10; the first two evaluations check the initial
        # data and start the run
        calls = itertools.count()
        evaluate = flow._evaluate

        def failing(spec, u):
            ev = evaluate(spec, u)
            if next(calls) >= 9:
                ev.ok_all = False
            return ev

        monkeypatch.setattr(flow, "_evaluate", failing)
        monkeypatch.setenv("HQFLOW_OUT", str(tmp_path / "o"))
        assert cli.main(["flow", write_cfg(tmp_path, FLOW_CFG.replace(
            "flow.checkpoint_every = 50", "flow.checkpoint_every = 5"))]) == 3
        d = json.loads((tmp_path / "o" / "summary.json").read_text())
        rows = [ln.split(",") for ln in
                (tmp_path / "o" / "monitors.csv").read_text().splitlines()
                if not ln.startswith("#")]
        last = dict(zip(rows[0], rows[-1]))
        max_ut, min_ut = float(last["max_ut"]), float(last["min_ut"])
        assert d["status"] == last["status"] == "diverged"
        assert d["steps"] == 7
        assert d["t_final"] == float(last["t"])
        assert d["final_max_abs_ut"] == max(abs(max_ut), abs(min_ut))
        assert d["final_osc_ut"] == max_ut - min_ut
        assert min_ut <= d["speed"] <= max_ut

    def test_steady_summary_has_decay_rate_after_speed(self, tmp_path,
                                                       monkeypatch):
        cfg = write_cfg(tmp_path, fuzz_config({"flow.mode": "steady"}))
        monkeypatch.setenv("HQFLOW_OUT", str(tmp_path / "o"))
        assert cli.main(["flow", cfg]) == 4
        keys = list(json.loads(
            (tmp_path / "o" / "summary.json").read_text()))
        assert keys[keys.index("speed") + 1] == "decay_rate"

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

    @pytest.mark.parametrize("key", ["flow.checkpoint_every"])
    def test_zero_loop_setting_exit_2(self, tmp_path, capsys, key):
        cfg = write_cfg(tmp_path, FLOW_CFG.replace(
            "flow.checkpoint_every = 50\n", "") + f"{key} = 0\n")
        assert cli.main(["flow", cfg]) == 2
        assert f"config error at {key}: must be at least 1" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("domain, key, value", [
        ("disk", "problem.radius", "-1"), ("disk", "problem.radius", "inf"),
        ("disk", "problem.radius", "1e-200"),
        ("disk", "problem.radius", "1e-160"),
        ("ellipse", "problem.a", "nan"), ("ellipse", "problem.b", "inf"),
        ("ellipse", "problem.b", "1e200")])
    def test_unusable_domain_size_exit_2(self, tmp_path, domain, key, value):
        # 1e-200 squares to 0 and 1e200 to inf, 1e-160 squares to a
        # subnormal whose inverse is inf, and the polar metric divides
        # by the squared semi-axes
        sizes = {"ellipse": {"problem.a": "1.2", "problem.b": "0.8"}}.get(
            domain, {})
        sizes[key] = value
        text = FLOW_CFG.replace("problem.domain = disk",
                                f"problem.domain = {domain}")
        text += "".join(f"{k} = {v}\n" for k, v in sizes.items())
        proc = run_module(["flow", write_cfg(tmp_path, text)], tmp_path,
                          timeout=120)
        assert proc.returncode == 2
        assert f"config error at {key}:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_square_is_not_a_domain_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FLOW_CFG.replace(
            "problem.domain = disk", "problem.domain = square"))
        assert cli.main(["flow", cfg]) == 2
        assert "config error at problem.domain: expected one of disk, " \
            "ellipse" in capsys.readouterr().err

    # the square's keys, the eigen pin point (always the origin) and the
    # converge ladder's resolutions (it always doubles --levels times)
    @pytest.mark.parametrize("key, value", [
        ("grid.n", "9"), ("problem.half_width", "1.0"),
        ("problem.y0", "0, 0"), ("converge.resolutions", "8, 16")])
    def test_retired_keys_are_unknown_exit_2(self, tmp_path, capsys, key,
                                             value):
        cfg = write_cfg(tmp_path, FLOW_CFG + f"{key} = {value}\n")
        assert cli.main(["flow", cfg]) == 2
        assert f"config error at {key}: unknown key" \
            in capsys.readouterr().err

    def test_odd_n_theta_reported_at_its_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FLOW_CFG.replace(
            "grid.n_theta = 24", "grid.n_theta = 15"))
        assert cli.main(["flow", cfg]) == 2
        assert "config error at grid.n_theta" in capsys.readouterr().err

    def test_expression_leaving_its_domain_mid_run_exit_3(self, tmp_path):
        # f is defined at u0 but not once the flow has lowered u past 1.4
        cfg = write_cfg(tmp_path, DOMAIN_EXIT_CFG + "flow.t_max = 5\n")
        proc = run_module(["flow", cfg], tmp_path, timeout=120)
        assert proc.returncode == 3
        assert "run failed" in proc.stderr and "sqrt" in proc.stderr
        assert "Traceback" not in proc.stderr

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
        assert "epsilon_trace" not in d
        assert 1 <= d["newton_iterations"] <= 5
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

    def test_constant_offset_of_u0_exit_0(self, tmp_path, monkeypatch):
        # the (2,1) disk of the benchmark with u0 shifted by +1000, which
        # leaves the problem unchanged
        base = EIGEN_CFG.replace("problem.k = 1\nproblem.l = 0",
                                 "problem.k = 2\nproblem.l = 1")
        s_hat = []
        for u0 in ("(x1^2 + x2^2)/2", "(x1^2 + x2^2)/2 + 1000"):
            cfg = write_cfg(tmp_path, base.replace(
                'problem.u0 = "(x1^2 + x2^2)/2"', f'problem.u0 = "{u0}"'))
            monkeypatch.setenv("HQFLOW_OUT", str(tmp_path / "o"))
            assert cli.main(["eigen", cfg]) == 0
            d = json.loads((tmp_path / "o" / "summary.json").read_text())
            assert d["status"] == "converged"
            s_hat.append(d["s_hat"])
        assert abs(s_hat[1] - s_hat[0]) <= 1e-10

    def test_damped_solve_timeout_exit_3(self, tmp_path, monkeypatch,
                                         capsys):
        # the round-off of max|G| lies far above 1e-300, so the solve
        # fails before its first Newton step
        cfg = write_cfg(tmp_path, EIGEN_CFG + "eigen.tol = 1e-300\n")
        monkeypatch.setenv("HQFLOW_OUT", str(tmp_path / "o"))
        assert cli.main(["eigen", cfg]) == 3
        err = capsys.readouterr().err
        assert "eigen solve failed" in err
        assert "tol 1e-300 lies below the round-off floor" in err
        d = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert d["status"] == "diverged"

    @pytest.mark.parametrize("t_max", ["inf", "nan", "0", "-1", "400"])
    def test_unusable_t_max_exit_2(self, tmp_path, capsys, t_max):
        # the damped solves are Newton solves, with no time horizon, so
        # eigen.t_max is an unknown key whatever its value
        cfg = write_cfg(tmp_path, EIGEN_CFG + f"eigen.t_max = {t_max}\n")
        assert cli.main(["eigen", cfg]) == 2
        assert "config error at eigen.t_max: unknown key" \
            in capsys.readouterr().err

    def test_identity_damping_past_round_off_exit_3(self, tmp_path,
                                                    monkeypatch, capsys):
        # at eps0 = 1e20 the identity's damped solve cannot reach tol: a
        # documented failure, not a traceback
        cfg = write_cfg(tmp_path, EIGEN_CFG + "eigen.check_translation = "
                        "true\neigen.eps0 = 1e20\n")
        monkeypatch.setenv("HQFLOW_OUT", str(tmp_path / "o"))
        assert cli.main(["eigen", cfg]) == 3
        assert "round-off floor" in capsys.readouterr().err
        d = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert d["status"] == "diverged"

    # eigen.eps0 is the damping of the translation identity alone
    @pytest.mark.parametrize("key, value", [
        ("eigen.eps0", "0"), ("eigen.eps0", "-1"), ("eigen.eps0", "nan"),
        ("eigen.eps0", "inf")])
    def test_unusable_schedule_exit_2(self, tmp_path, key, value):
        cfg = write_cfg(tmp_path, EIGEN_CFG + "eigen.check_translation = "
                        f"true\n{key} = {value}\n")
        proc = run_module(["eigen", cfg], tmp_path, timeout=120)
        assert proc.returncode == 2
        assert f"config error at {key}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_u_dependent_f_exit_2(self, tmp_path, capsys, monkeypatch):
        cfg = write_cfg(tmp_path, EIGEN_CFG.replace(
            'problem.f = "1"', 'problem.f = "exp(u)"'))
        monkeypatch.setenv("HQFLOW_OUT", str(tmp_path / "o"))
        assert cli.main(["eigen", cfg]) == 2
        assert "problem.f" in capsys.readouterr().err

    @pytest.mark.parametrize("k, l", [(1, 0), (2, 0), (2, 1)])
    def test_u_dependent_phi_exit_2(self, tmp_path, capsys, monkeypatch,
                                    k, l):
        # the Laplace oracle of (1, 0) evaluates phi at u = 0, where this
        # phi has no value; the damped solver names phi first
        text = EIGEN_CFG.replace("grid.n_r = 10\ngrid.n_theta = 20",
                                 "grid.n_r = 8\ngrid.n_theta = 16")
        for key, value in (("k", k), ("l", l),
                           ("phi", '"1 - log(u/1.5)"'),
                           ("u0", '"(x1^2 + x2^2)/2 + 1"')):
            text = re.sub(rf"^problem\.{key} = .*$", f"problem.{key} = "
                          f"{value}", text, flags=re.M)
        cfg = write_cfg(tmp_path, text)
        monkeypatch.setenv("HQFLOW_OUT", str(tmp_path / "o"))
        assert cli.main(["eigen", cfg]) == 2
        assert "config error at problem.phi: must not depend on u" \
            in capsys.readouterr().err

    def test_slowly_u_dependent_f_exit_2(self, tmp_path, capsys,
                                         monkeypatch):
        cfg = write_cfg(tmp_path, EIGEN_CFG.replace(
            'problem.f = "1"', 'problem.f = "exp(0.1*u)"'))
        monkeypatch.setenv("HQFLOW_OUT", str(tmp_path / "o"))
        assert cli.main(["eigen", cfg]) == 2
        assert "config error at problem.f" in capsys.readouterr().err


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

    def test_negative_trials_exit_2(self, tmp_path):
        proc = run_module(["verify", "--trials", "-1"], tmp_path, timeout=120)
        assert proc.returncode == 2
        assert "config error at --trials" in proc.stderr
        assert "Traceback" not in proc.stderr

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

    def test_exact_reproduction_is_not_a_failed_order(self, tmp_path,
                                                      monkeypatch):
        # u_star = |x|^2/2 is reproduced to round-off on both levels, so
        # the pair has no order to measure
        cfg = write_cfg(tmp_path, CONV_FUZZ_CFG)
        monkeypatch.setenv("HQFLOW_OUT", str(tmp_path / "o"))
        assert cli.main(["converge", cfg, "--levels", "2"]) == 0
        d = json.loads((tmp_path / "o" / "converge.json").read_text())
        assert all(v["error"] <= 1e-15 for v in d["levels"])
        assert d["orders"] == [None]
        assert "round-off" in d["notes"][0]
        assert d["ok"] is True

    def test_single_level_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, CONV_CFG)
        assert cli.main(["converge", cfg, "--levels", "1"]) == 2

    def test_expression_leaving_its_domain_mid_run_exit_3(self, tmp_path):
        cfg = write_cfg(tmp_path, DOMAIN_EXIT_CFG.replace(
            "grid.n_r = 6\ngrid.n_theta = 12",
            "grid.n_r = 4\ngrid.n_theta = 8")
            + 'converge.u_star = "(x1^2 + x2^2)/2"\n')
        proc = run_module(["converge", cfg, "--levels", "2"], tmp_path,
                          timeout=120)
        assert proc.returncode == 3
        assert "run failed" in proc.stderr and "sqrt" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_truth_not_evaluable_exit_2(self, tmp_path):
        # sqrt(x1) has no value at the nodes with x1 < 0; the check runs
        # before the first level, so no flow is integrated
        text = CONV_CFG.replace("grid.n_r = 8\ngrid.n_theta = 16",
                                "grid.n_r = 4\ngrid.n_theta = 8")
        text = text.replace(
            'converge.u_star = "(x1^2 + x2^2)/2 + 0.1*exp(x1/2)"',
            'converge.u_star = "sqrt(x1) + (x1^2 + x2^2)/2"')
        cfg = write_cfg(tmp_path, text)
        proc = run_module(["converge", cfg, "--levels", "2"], tmp_path,
                          timeout=120)
        assert proc.returncode == 2
        assert "config error at converge.u_star:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_truth_not_finite_exit_2(self, tmp_path):
        # exp(1000 + x1) overflows at every node; the orders measured
        # against it would all be nan
        text = CONV_CFG.replace("grid.n_r = 8\ngrid.n_theta = 16",
                                "grid.n_r = 4\ngrid.n_theta = 8")
        text = text.replace(
            'converge.u_star = "(x1^2 + x2^2)/2 + 0.1*exp(x1/2)"',
            'converge.u_star = "exp(1000 + x1)"')
        cfg = write_cfg(tmp_path, text)
        proc = run_module(["converge", cfg, "--levels", "2"], tmp_path,
                          timeout=120)
        assert proc.returncode == 2
        assert "config error at converge.u_star:" in proc.stderr
        assert "Traceback" not in proc.stderr

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

    def test_import_loads_no_scipy(self, tmp_path):
        # scipy raises the peak memory and the import time of every run
        pkg_root = os.path.dirname(os.path.dirname(hqflow.__file__))
        probe = subprocess.run(
            [sys.executable, "-c", "import sys, hqflow.cli; print(sorted("
             "m for m in sys.modules if m.startswith('scipy')))"],
            capture_output=True, text=True, cwd=tmp_path, timeout=120,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(
                None, [pkg_root, os.environ.get("PYTHONPATH")]))))
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout.strip() == "[]"

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["melt"])
        assert exc.value.code == 2


# Raw values for one key: numbers at and past the edges of their range,
# overflowing and unevaluable expressions, and words no key takes.
FUZZ_VALUES = ("0", "-1", "1", "2", "0.5", "nan", "inf", "-inf", "1e400",
               "99999999999999999999", '"1e308*1e308"', '"exp(1000 + x1)"',
               '"log(x1)"', '"sqrt(u - 5)"', '"1 +"', "bogus", "true",
               "1, 2")
FUZZ_KEYS = sorted(k for k in cli.KNOWN_KEYS
                   if k.startswith(("problem.", "grid.", "flow."))
                   or k == "output.formats")
EIGEN_FUZZ_KEYS = sorted(k for k in cli.KNOWN_KEYS
                         if k.startswith(("problem.", "grid.", "eigen.")))
CONV_FUZZ_KEYS = sorted(k for k in cli.KNOWN_KEYS
                        if k.startswith(("converge.", "flow.")))


def assert_documented_exit(args, base, key, value):
    """`hqflow ARGS` with `key` of the config `base` set to `value` ends
    in a documented exit code, and a config error names that key."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, \
            mock.patch.dict(os.environ, {"HQFLOW_OUT": out}), \
            contextlib.redirect_stderr(err):
        cfg = os.path.join(out, "run.cfg")
        with open(cfg, "w") as fh:
            fh.write(fuzz_config({key: value}, base))
        code = cli.main([args[0], cfg, *args[1:]])
    assert code in (0, 1, 2, 3, 4)
    if code == 2:
        assert f"config error at {key}:" in err.getvalue()


class TestConfigFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(key=st.sampled_from(FUZZ_KEYS), value=st.sampled_from(FUZZ_VALUES))
    def test_one_changed_key(self, key, value):
        assert_documented_exit(["flow"], FUZZ_CFG, key, value)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(key=st.sampled_from(EIGEN_FUZZ_KEYS),
           value=st.sampled_from(FUZZ_VALUES))
    def test_one_changed_eigen_key(self, key, value):
        assert_documented_exit(["eigen"], EIGEN_FUZZ_CFG, key, value)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(key=st.sampled_from(CONV_FUZZ_KEYS),
           value=st.sampled_from(FUZZ_VALUES))
    def test_one_changed_converge_key(self, key, value):
        assert_documented_exit(["converge", "--levels", "2"], CONV_FUZZ_CFG,
                               key, value)
