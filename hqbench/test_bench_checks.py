"""Checks on the benchmark's checks.

Each workload runs one round on tiny grids: its checker must pass the
true references and report a failed operation when handed a wrong one.
Every single check is also shown to fire on a doctored record, and the
benchmark must refuse to run without hqflow's sources.
"""

import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads as W
from hqflow import cli

HERE = Path(__file__).resolve().parent


def one_round(wl):
    wl.write_inputs()
    _, records = run.run_round(cli, wl)
    return records


def failed_ops(wl, records):
    return sorted(name for name, problems in wl.check(records).items()
                  if problems)


@pytest.fixture(scope="module")
def translate(tmp_path_factory):
    wl = W.Translate(1, tmp_path_factory.mktemp("translate"),
                     disk_grid=(6, 12), ellipse_grids=((6, 12), (8, 16)))
    return wl, one_round(wl)


def test_translate_true_references_pass(translate):
    wl, records = translate
    assert failed_ops(wl, records) == []


@pytest.mark.parametrize("op", ["disk-k1l0", "disk-k2l0", "disk-k2l1"])
def test_translate_disk_speed_shifted(translate, op):
    wl, records = translate
    wl.disk_speeds[op] += 1e-3
    try:
        assert failed_ops(wl, records) == [op]
    finally:
        wl.disk_speeds[op] -= 1e-3


def test_translate_ellipse_speed_shifted(translate):
    wl, records = translate
    true = W.ellipse_speed(W.ELLIPSE_A, W.ELLIPSE_B)
    wl.ellipse_speed = true + 1e-3
    try:
        # the coarse levels' own C h^2 tolerances are wider than 1e-3;
        # the Richardson value is not
        assert failed_ops(wl, records) == ["ellipse-8x16"]
        wl.ellipse_speed = true + 0.05
        assert failed_ops(wl, records) == ["ellipse-6x12", "ellipse-8x16"]
    finally:
        wl.ellipse_speed = true


def test_translate_profile_and_monitor_checks_fire():
    wl = W.Translate(1, "unused", disk_grid=(6, 12),
                     ellipse_grids=((6, 12), (8, 16)))
    good = {"code": 0, "status": "translating", "speed": math.log(2.0),
            "monitors_bad": [], "osc_rise": 0.0, "profile_gap": 1e-12}
    assert wl._check("disk-k1l0", good, {}) == []
    for change in ({"status": "t_max"}, {"monitors_bad": ["ut_upper"]},
                   {"osc_rise": 1e-6}, {"profile_gap": 5e-4}):
        assert len(wl._check("disk-k1l0", {**good, **change}, {})) == 1
    assert wl.check({op.name: {"code": 3} for op in wl.ops}) == {
        op.name: ["exit code 3"] for op in wl.ops}


@pytest.fixture(scope="module")
def eigen(tmp_path_factory):
    wl = W.Eigen(1, tmp_path_factory.mktemp("eigen"), grid=(8, 16))
    return wl, one_round(wl)


def test_eigen_references(eigen):
    wl, records = eigen
    assert failed_ops(wl, records) == []
    wl.speed += 1e-3
    try:
        assert failed_ops(wl, records) == ["eigen-k2l1"]
    finally:
        wl.speed -= 1e-3


def test_eigen_checks_fire(eigen):
    wl, records = eigen
    good = records["eigen-k2l1"]
    for change in ({"status": "convergence-failure"},
                   {"profile_gap": 0.01}, {"residual": 10.0},
                   {"identity": {"ok": True, "deviation": 1e-3}},
                   {"identity": {"ok": False, "deviation": 0.0}}):
        assert len(wl._check("eigen-k2l1", {**good, **change}, {})) == 1


@pytest.fixture(scope="module")
def manufactured(tmp_path_factory):
    wl = W.Manufactured(1, tmp_path_factory.mktemp("manufactured"),
                        base_grid=(4, 8))
    return wl, one_round(wl)


def test_manufactured_references(manufactured):
    wl, records = manufactured
    assert failed_ops(wl, records) == []
    wl.order_range = (0.5, 1.5)  # an order of 1 as the reference
    try:
        assert failed_ops(wl, records) == ["converge-k2l1"]
    finally:
        wl.order_range = (1.5, 2.5)


def test_manufactured_checks_fire(manufactured):
    wl, records = manufactured
    rec = records["converge-k2l1"]
    big = {"levels": [(s, 10 * e) for s, e in rec["levels"]]}
    assert len(wl._check("converge-k2l1", big, {})) == 3
    short = {"levels": rec["levels"][:2]}
    assert len(wl._check("converge-k2l1", short, {})) == 1


def test_properties_references(tmp_path):
    wl = W.Properties(3, tmp_path, trials=20)
    records = one_round(wl)
    assert records["verify"]["trials"] == wl.expected_trials == 17 * 20
    assert failed_ops(wl, records) == []
    wl.expected_trials += 1
    assert failed_ops(wl, records) == ["verify"]
    wl.expected_trials -= 1
    good = records["verify"]
    for change in ({"seed": 4}, {"all_ok": False, "failing": ["x"]},
                   {"self_test": False}):
        assert len(wl._check("verify", {**good, **change}, {})) == 1


def test_traced_round_counts_layers(tmp_path):
    wl = W.Manufactured(2, tmp_path, base_grid=(4, 8))
    wl.write_inputs()
    from hqflow import exprparse, flow
    run_fn, eval_fn = flow.run, exprparse.eval
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, records = run.run_round(cli, wl)
    finally:
        tracer.uninstall()
    assert (flow.run, exprparse.eval) == (run_fn, eval_fn)
    m = {k: v["value"] for k, v in tracer.metrics(1).items()}
    assert m["flow.run.calls"] == 3
    assert m["flow.steps"] > 0
    assert m["discretize.hessian.calls"] >= m["flow.steps"]
    assert 0 < m["flow.self_s"] < m["flow.run.s"]
    assert m["exprparse.eval.calls"] > 0
    assert m["cli.artifacts.bytes"] > 0
    assert m["symmfunc.calls"] == 0
    assert failed_ops(wl, records) == []


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "hqbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracing.py"):
        shutil.copy(HERE / name, bench / name)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "eigen",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
