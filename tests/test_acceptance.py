"""End-to-end acceptance checks with pinned tolerances.

Each test is one scripted scenario against the command line front end
or the property suite: randomized symmetric-function identities and
inequalities, the derivative-matrix oracle, operator concavity, the
unit-disk translating baseline in both solver lanes, a manufactured
steady problem with unit growth (decay rate and observed order), the
a priori monitor bounds, the quotient cases k = 2, uniqueness of the
profile up to constants, and byte-level determinism of every artifact.
"""

import json
import math
import os
import time
from collections import namedtuple

import numpy as np
import pytest

from hqflow import cli, elliptic, flow, geometry, verify

# The suite takes most of the full test run; `-m "not slow"` skips it.
pytestmark = pytest.mark.slow

CliRun = namedtuple("CliRun", "code wall out args")

U_STAR = "(x1^2 + x2^2)/2 + 0.1*exp(x1/2)"

BASE_QUOTIENT = """\
problem.domain = disk
problem.f = "1"
problem.phi = "1"
grid.n_theta = {n_theta}
grid.n_r = {n_r}
flow.mode = translating
flow.t_max = 40.0
flow.tol_trans = 1e-7
problem.k = {k}
problem.l = {l}
problem.u0 = "(x1^2 + x2^2)/2 + 0.1*(1 - x1^2 - x2^2)^2"
problem.require_nonnegative_initial_speed = false
"""

EIGEN_QUOTIENT = """\
problem.domain = disk
problem.f = "1"
problem.phi = "1"
problem.u0 = "(x1^2 + x2^2)/2"
problem.require_nonnegative_initial_speed = false
grid.n_r = 24
grid.n_theta = 48
eigen.n_halvings = 6
problem.k = {k}
problem.l = {l}
{extra}"""

MANUFACTURED = f"""\
problem.k = 2
problem.l = 1
problem.domain = disk
problem.f = "((1 + 0.025*exp(x1/2))/(2 + 0.025*exp(x1/2))) * exp(u - ({U_STAR}))"
problem.phi = "1 + 0.05*x1*exp(x1/2) + ({U_STAR}) - u"
problem.growth_rate = 1.0
problem.require_nonnegative_initial_speed = false
flow.t_max = 40.0
flow.tol_steady = 1e-8
"""

CONFIGS = {
    "laplace_flow": BASE_QUOTIENT.format(k=1, l=0, n_r=64, n_theta=128),
    "laplace_eigen": EIGEN_QUOTIENT.format(
        k=1, l=0, extra="eigen.check_translation = true\n"),
    "decay_flow": MANUFACTURED + (
        f'problem.u0 = "({U_STAR}) + 0.2*(1 - x1^2 - x2^2)^2"\n'
        "grid.n_r = 24\ngrid.n_theta = 48\n"),
    "order_ladder": MANUFACTURED + (
        f'problem.u0 = "{U_STAR}"\n'
        "grid.n_r = 8\ngrid.n_theta = 16\n"
        f'converge.u_star = "{U_STAR}"\n'),
    "k2l0_flow": BASE_QUOTIENT.format(k=2, l=0, n_r=32, n_theta=64),
    "k2l1_flow": BASE_QUOTIENT.format(k=2, l=1, n_r=32, n_theta=64),
    "k2l0_eigen": EIGEN_QUOTIENT.format(k=2, l=0, extra=""),
    "k2l1_eigen": EIGEN_QUOTIENT.format(k=2, l=1, extra=""),
}


def run_cli(args, out):
    """Invoke the front end with HQFLOW_OUT pointed at `out`."""
    old = os.environ.get("HQFLOW_OUT")
    os.environ["HQFLOW_OUT"] = str(out)
    try:
        t0 = time.perf_counter()
        code = cli.main(list(args))
        wall = time.perf_counter() - t0
    finally:
        if old is None:
            os.environ.pop("HQFLOW_OUT", None)
        else:
            os.environ["HQFLOW_OUT"] = old
    return CliRun(code, wall, out, tuple(args))


def summary_of(run):
    return json.loads((run.out / "summary.json").read_text())


def monitor_osc_series(run):
    """Oscillation of u_t per checkpoint, from the monitor CSV."""
    rows = [ln for ln in (run.out / "monitors.csv").read_text().splitlines()
            if ln and not ln.startswith("#")]
    head = rows[0].split(",")
    i_max, i_min = head.index("max_ut"), head.index("min_ut")
    return np.array([float(r.split(",")[i_max]) - float(r.split(",")[i_min])
                     for r in rows[1:]])


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    for name, text in CONFIGS.items():
        (root / f"{name}.cfg").write_text(text)
    return root


@pytest.fixture(scope="session")
def property_suite():
    bulk = [n for n, (_, t) in verify.PROPERTIES.items() if t == 10000]
    t0 = time.perf_counter()
    results = verify.run_suite(names=bulk)
    wall = time.perf_counter() - t0
    matrix = verify.run_suite(names=["derivative_matrix_definite",
                                     "derivative_matrix_matches_fd",
                                     "midpoint_concavity"])
    return results, wall, matrix


@pytest.fixture(scope="session")
def laplace_flow(workdir):
    return run_cli(["flow", str(workdir / "laplace_flow.cfg")],
                   workdir / "laplace_flow")


@pytest.fixture(scope="session")
def laplace_eigen(workdir):
    return run_cli(["eigen", str(workdir / "laplace_eigen.cfg")],
                   workdir / "laplace_eigen")


@pytest.fixture(scope="session")
def decay_flow(workdir):
    return run_cli(["flow", str(workdir / "decay_flow.cfg")],
                   workdir / "decay_flow")


@pytest.fixture(scope="session")
def order_ladder(workdir):
    return run_cli(["converge", str(workdir / "order_ladder.cfg"),
                    "--levels", "3"], workdir / "order_ladder")


@pytest.fixture(scope="session")
def quotient_runs(workdir):
    runs = {}
    for k, l in ((2, 0), (2, 1)):
        runs[(k, l)] = {
            "flow": run_cli(["flow", str(workdir / f"k{k}l{l}_flow.cfg")],
                            workdir / f"k{k}l{l}_flow"),
            "eigen": run_cli(["eigen", str(workdir / f"k{k}l{l}_eigen.cfg")],
                             workdir / f"k{k}l{l}_eigen"),
        }
    return runs


def test_criterion_01_symmetric_function_suite(property_suite):
    results, wall, _ = property_suite
    assert len(results) == 14
    assert wall < 60.0, f"property suite took {wall:.1f} s, budget is 60 s"
    for r in results.values():
        assert r.trials == 10000, r.name
        assert r.ok, (f"{r.name}: {r.passes}/{r.trials} passed, "
                      f"worst margin {r.worst_margin:.3e}")
        if r.kind == "identity":
            assert r.worst_margin <= 1e-12, r.name
        else:
            assert r.worst_margin >= -1e-10, r.name


def test_criterion_02_derivative_matrix_oracle(property_suite):
    _, _, matrix = property_suite
    fd = matrix["derivative_matrix_matches_fd"]
    assert fd.trials == 1000 and fd.ok
    assert fd.worst_margin <= 1e-5
    pd = matrix["derivative_matrix_definite"]
    assert pd.trials == 1000
    assert pd.passes == pd.trials, "a derivative matrix was not definite"
    assert pd.worst_margin >= -1e-10


def test_criterion_03_quotient_concavity(property_suite):
    _, _, matrix = property_suite
    r = matrix["midpoint_concavity"]
    assert r.trials == 1000 and r.ok
    assert r.worst_margin >= -1e-10


def test_criterion_04_laplace_translating_speed(laplace_flow):
    assert laplace_flow.code == 0
    assert laplace_flow.wall <= 300.0, \
        f"run took {laplace_flow.wall:.0f} s, budget is 300 s"
    d = summary_of(laplace_flow)
    assert d["status"] == "translating"
    assert d["final_osc_ut"] < 1e-6
    assert abs(d["speed"] - math.log(2.0)) <= 1e-2


def test_criterion_05_eigen_scheme_agreement(laplace_eigen):
    assert laplace_eigen.code == 0
    d = summary_of(laplace_eigen)
    assert d["status"] == "converged"
    assert abs(d["s_hat"] - math.log(2.0)) <= 1e-2
    assert abs(d["oracle_s"] - math.log(2.0)) <= 1e-12
    tr = d["translation_identity"]
    assert tr["ok"], f"translation identity off by {tr['deviation']:.3e}"


def test_criterion_06_exponential_decay_and_order(decay_flow, order_ladder):
    assert decay_flow.code == 0
    d = summary_of(decay_flow)
    assert d["status"] == "steady"
    assert d["decay_rate"] >= 0.8, f"fitted decay rate {d['decay_rate']:.3f}"
    assert order_ladder.code == 0
    c = json.loads((order_ladder.out / "converge.json").read_text())
    assert len(c["levels"]) == 3
    assert all(1.5 <= o <= 2.5 for o in c["orders"]), c["orders"]
    assert c["ok"] is True


def test_criterion_07_maximum_principle_monitors(laplace_flow, decay_flow,
                                                 quotient_runs):
    flows = [("laplace", laplace_flow), ("manufactured", decay_flow),
             ("k2l0", quotient_runs[(2, 0)]["flow"]),
             ("k2l1", quotient_runs[(2, 1)]["flow"])]
    for name, run in flows:
        checks = summary_of(run)["monitors"]
        bad = [c for c, v in checks.items() if not v["ok"]]
        assert not bad, f"{name}: monitor checks failed: {bad}"
    manufactured = summary_of(decay_flow)
    assert "amplitude" in manufactured["monitors"]
    assert "quotient_floor" in manufactured["monitors"]
    assert "ut_decay_envelope" in manufactured["monitors"]


def test_criterion_08_quotient_cases_two_lanes(quotient_runs):
    expected = {(2, 0): 0.0, (2, 1): -math.log(2.0)}
    for pair, runs in quotient_runs.items():
        assert runs["flow"].code == 0, pair
        assert runs["eigen"].code == 0, pair
        speed = summary_of(runs["flow"])["speed"]
        eig = summary_of(runs["eigen"])
        assert abs(speed - expected[pair]) <= 1e-2, pair
        assert abs(speed - eig["s_hat"]) <= 5e-2, pair
        assert eig["residual"] <= 10.0 * eig["mesh_size"] ** 2, pair
        osc = monitor_osc_series(runs["flow"])
        assert float(np.max(np.diff(osc))) <= 1e-8, \
            f"{pair}: oscillation checkpoints increased"


def test_criterion_09_profile_unique_up_to_constant(laplace_eigen):
    rows = [ln for ln in
            (laplace_eigen.out / "profile.csv").read_text().splitlines()
            if ln and not ln.startswith("#")]
    assert rows[0] == "x,y,u"
    grid = geometry.build_grid(geometry.Disk(1.0), n_r=24, n_theta=48)
    u_a = np.array([float(r.split(",")[2])
                    for r in rows[1:]]).reshape(grid.shape)
    spec = flow.ProblemSpec(
        grid, 1, 0, f="1", phi="1",
        u0="(x1^2 + x2^2)/2 + 0.15*(1 - x1^2 - x2^2)^2",
        require_nonnegative_initial_speed=False)
    pair = elliptic.solve_eigenpair(spec)
    assert pair.status == "converged", pair.notes
    osc = elliptic.check_uniqueness_up_to_constant(u_a, pair.u_ell)
    bound = 10.0 * geometry.mesh_size(grid) ** 2
    assert osc <= bound, f"osc(u_a - u_b) = {osc:.3e} > {bound:.3e}"


def test_criterion_10_byte_identical_reruns(workdir, laplace_flow,
                                            laplace_eigen, decay_flow,
                                            order_ladder, quotient_runs):
    firsts = [laplace_flow, laplace_eigen, decay_flow, order_ladder]
    for runs in quotient_runs.values():
        firsts.extend([runs["flow"], runs["eigen"]])
    for first in firsts:
        again_dir = first.out.parent / (first.out.name + "_again")
        again = run_cli(first.args, again_dir)
        assert again.code == first.code, first.args
        names = sorted(p.name for p in first.out.iterdir())
        assert names == sorted(p.name for p in again_dir.iterdir())
        for name in names:
            assert (again_dir / name).read_bytes() == \
                (first.out / name).read_bytes(), \
                f"{first.out.name}/{name} is not byte-identical on rerun"
