"""Workloads of the hqflow benchmark.

Each workload makes its inputs (config files and command lines) from a
seed, names the operations that run them through ``hqflow.cli.main``,
reads back the artifacts each operation wrote, and checks them against
computations made apart from hqflow: closed-form speeds and profiles,
an ellipse perimeter from ``scipy.special.ellipe``, the exact
manufactured solution, the observed order and the planted-fault self
test.  A check that fails marks its operation as failed.

Grid sizes are constructor arguments so that the tests of the checks
can run every workload on tiny grids.
"""

import json
import math
import os
import random
import shutil
from dataclasses import dataclass

import numpy as np

LOG2 = math.log(2.0)

# The difference stencils are exact on quadratics, so on the disk the
# only gap between the final state and |x|^2/2 + c is the transient the
# stop rule leaves, about tol_trans / decay rate ~ 1e-7.  10 h^2 would be
# 1.5 on an 8x16 grid and let a profile 10% off pass.
DISK_SPEED_TOL = 1e-6
DISK_PROFILE_TOL = 1e-6
# Observed ellipse speed gaps are 0.011 h^2.  The Richardson value of
# two levels removes the h^2 term; what is left is 0.002 h^4 of the
# finer level (1.2e-4 on 8x16).
ELLIPSE_LEVEL_C = 0.03
ELLIPSE_RICHARDSON_C = 0.01
# Criterion 8 of the acceptance suite: osc(u_t) checkpoints may rise by
# no more than this.
OSC_RISE_TOL = 1e-8

ELLIPSE_A, ELLIPSE_B = 1.25, 0.8

FLOW_CFG = """\
problem.k = {k}
problem.l = {l}
problem.domain = {domain}
problem.f = "1"
problem.phi = "1"
problem.u0 = "{u0}"
problem.require_nonnegative_initial_speed = false
grid.n_r = {n_r}
grid.n_theta = {n_theta}
flow.mode = translating
flow.t_max = 40.0
flow.tol_trans = 1e-7
flow.checkpoint_every = 100
"""

EIGEN_CFG = """\
problem.k = 2
problem.l = 1
problem.domain = disk
problem.f = "1"
problem.phi = "1"
problem.u0 = "{u0}"
problem.require_nonnegative_initial_speed = false
grid.n_r = {n_r}
grid.n_theta = {n_theta}
eigen.eps0 = {eps0}
eigen.n_halvings = {n_halvings}
eigen.tol = {tol}
eigen.check_translation = true
"""

# The manufactured problem: U* = |x|^2/2 + a exp(e.x / 2) for a unit
# vector e has D^2 U* = I + q e e^T with q = (a/4) exp(e.x / 2), so
# sigma_2/sigma_1 = (1 + q)/(2 + q), and on the unit circle
# U*_nu = 1 + (a/2) (e.x) exp(e.x / 2).  With f = that quotient times
# exp(u - U*) and phi = U*_nu + U* - u, U* is the exact steady state,
# f grows in u at rate 1 and phi falls in u at rate 1.
MANUFACTURED_CFG = """\
problem.k = 2
problem.l = 1
problem.domain = disk
problem.f = "((1 + {q}*exp(({ex})/2))/(2 + {q}*exp(({ex})/2))) * exp(u - ({u_star}))"
problem.phi = "1 + {p}*({ex})*exp(({ex})/2) + ({u_star}) - u"
problem.u0 = "{u_star}"
problem.growth_rate = 1.0
problem.require_nonnegative_initial_speed = false
grid.n_r = {n_r}
grid.n_theta = {n_theta}
flow.t_max = 40.0
flow.tol_steady = 1e-8
flow.checkpoint_every = 100
flow.mean_shift = true
converge.u_star = "{u_star}"
"""


def manufactured_config(rng, n_r, n_theta):
    """Config of the manufactured problem with a seeded U*: the seed
    picks the amplitude a and the direction e."""
    a = rng.uniform(0.08, 0.12)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    ex = f"{math.cos(theta):.17g}*x1 + {math.sin(theta):.17g}*x2"
    u_star = f"(x1^2 + x2^2)/2 + {a:.17g}*exp(({ex})/2)"
    return MANUFACTURED_CFG.format(q=f"{a / 4:.17g}", p=f"{a / 2:.17g}",
                                   ex=ex, u_star=u_star, n_r=n_r,
                                   n_theta=n_theta)


@dataclass
class Op:
    """One call of ``hqflow.cli.main`` with its output directory."""
    name: str
    argv: list
    out: str


def polar_mesh_size(n_r, n_theta, scale=1.0):
    """Coarsest spacing of hqflow's polar grid: rings at (j + 1/2) dr
    with the last one on r = 1, so dr = 1/(n_r - 1/2), and n_theta
    equal angles; `scale` is the radius or the longer semi-axis."""
    return scale * max(1.0 / (n_r - 0.5), 2.0 * math.pi / n_theta)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    """Columns of an hqflow CSV artifact (metadata lines skipped)."""
    with open(path, encoding="utf-8") as fh:
        rows = [ln.rstrip("\n").split(",") for ln in fh
                if ln.strip() and not ln.startswith("#")]
    head, body = rows[0], rows[1:]
    return {name: [r[i] for r in body] for i, name in enumerate(head)}


def profile_gap(path):
    """Oscillation of u - |x|^2/2 over a grid CSV: zero exactly when u
    is |x|^2/2 up to an additive constant."""
    cols = read_csv(path)
    x = np.array(cols["x"], dtype=float)
    y = np.array(cols["y"], dtype=float)
    d = np.array(cols["u"], dtype=float) - 0.5 * (x * x + y * y)
    return float(np.max(d) - np.min(d))


def osc_rise(path):
    """Largest rise of osc(u_t) = max_ut - min_ut between checkpoints."""
    cols = read_csv(path)
    osc = (np.array(cols["max_ut"], dtype=float)
           - np.array(cols["min_ut"], dtype=float))
    return float(np.max(np.diff(osc))) if osc.size > 1 else 0.0


def ellipse_speed(a, b):
    """log(perimeter / area) of the ellipse with semi-axes a >= b: the
    Laplace speed with f = phi = 1, by the divergence theorem.  scipy
    is imported here, after the run's peak memory has been read."""
    from scipy.special import ellipe
    perimeter = 4.0 * a * float(ellipe(1.0 - (b / a) ** 2))
    return math.log(perimeter / (math.pi * a * b))


def bump(rng, a=1.0, b=1.0):
    """Seeded admissible perturbation c (1 - rho^2)^2, rho the ellipse
    radius with semi-axes a, b: it vanishes to second order on the
    boundary (u_nu is unchanged) and keeps the Hessian definite."""
    c = rng.uniform(0.06, 0.1)
    return f"{c:.6f}*(1 - x1^2/{a * a:.17g} - x2^2/{b * b:.17g})^2"


class Workload:
    """A seeded workload: its `ops`, the config files they read, and
    `collect` / `check` of their artifacts.  Subclasses set `name`,
    add ops with `_op`, and define `_read` and `_check`."""

    name = None

    def __init__(self, seed, out_root):
        self.seed = seed
        self.out_root = str(out_root)
        self.rng = random.Random(seed)
        self.ops = []
        self.configs = {}

    def _op(self, name, argv, config=None):
        out = os.path.join(self.out_root, name)
        if config is not None:
            cfg = os.path.join(self.out_root, f"{name}.cfg")
            self.configs[cfg] = config
            argv = [argv[0], cfg] + argv[1:]
        self.ops.append(Op(name, argv, out))

    def write_inputs(self):
        # Start from an empty directory: on ext4, overwriting a file
        # flushes its old blocks on close, which costs tens of ms.
        shutil.rmtree(self.out_root, ignore_errors=True)
        os.makedirs(self.out_root)
        for path, text in self.configs.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)

    def collect(self, op, code):
        """Read what the checks need from the op's artifacts."""
        rec = {"code": code}
        try:
            rec.update(self._read(op))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            rec["unreadable"] = f"{type(exc).__name__}: {exc}"
        return rec

    def check(self, rnd):
        """{op name: [problems]} for one round of collected records."""
        problems = {}
        for op in self.ops:
            rec = rnd[op.name]
            if rec["code"] != 0:
                problems[op.name] = [f"exit code {rec['code']}"]
            elif "unreadable" in rec:
                problems[op.name] = [f"artifacts: {rec['unreadable']}"]
            else:
                problems[op.name] = self._check(op.name, rec, rnd)
        return problems

    def _read(self, op):
        raise NotImplementedError

    def _check(self, name, rec, rnd):
        raise NotImplementedError


def _flow_record(op):
    s = read_json(os.path.join(op.out, "summary.json"))
    return {"status": s["status"], "speed": s["speed"],
            "monitors_bad": sorted(k for k, v in s["monitors"].items()
                                   if not v["ok"]),
            "osc_rise": osc_rise(os.path.join(op.out, "monitors.csv"))}


def _flow_problems(rec, ref, tol):
    out = []
    if rec["status"] != "translating":
        out.append(f"status {rec['status']}")
    if not abs(rec["speed"] - ref) <= tol:
        out.append(f"speed {rec['speed']:.12g} is off {ref:.12g} "
                   f"by more than {tol:.3g}")
    if rec["monitors_bad"]:
        out.append(f"monitor checks failed: {rec['monitors_bad']}")
    if not rec["osc_rise"] <= OSC_RISE_TOL:
        out.append(f"osc(u_t) rose by {rec['osc_rise']:.3g} at a checkpoint")
    return out


class Translate(Workload):
    """Translating flows with f = 1, phi = 1: one per quotient case on
    the unit disk, and the Laplace case on an ellipse at two levels.

    The disk speeds follow from u = |x|^2/2, which has u_nu = 1 = phi
    and D^2 u = I: log sigma_1 = log 2, log sigma_2 = 0 and
    log(sigma_2/sigma_1) = -log 2.
    The ellipse speed is log(perimeter / area) by the divergence
    theorem; the two levels give a Richardson value.
    """

    name = "translate"

    def __init__(self, seed, out_root, disk_grid=(8, 16),
                 ellipse_grids=((6, 12), (8, 16))):
        super().__init__(seed, out_root)
        self.ellipse_grids = ellipse_grids
        self.disk_speeds = {}
        self.ellipse_speed = None
        for k, l, speed in ((1, 0, LOG2), (2, 0, 0.0), (2, 1, -LOG2)):
            name = f"disk-k{k}l{l}"
            self.disk_speeds[name] = speed
            u0 = f"(x1^2 + x2^2)/2 + {bump(self.rng)}"
            self._op(name, ["flow"], FLOW_CFG.format(
                k=k, l=l, domain="disk", u0=u0,
                n_r=disk_grid[0], n_theta=disk_grid[1]))
        a, b = ELLIPSE_A, ELLIPSE_B
        u0 = f"(x1^2/{a} + x2^2/{b})/2 + {bump(self.rng, a, b)}"
        for n_r, n_t in ellipse_grids:
            self._op(f"ellipse-{n_r}x{n_t}", ["flow"], FLOW_CFG.format(
                k=1, l=0, domain=f"ellipse\nproblem.a = {a}\nproblem.b = {b}",
                u0=u0, n_r=n_r, n_theta=n_t))

    def _read(self, op):
        rec = _flow_record(op)
        if op.name in self.disk_speeds:
            rec["profile_gap"] = profile_gap(os.path.join(op.out, "final.csv"))
        return rec

    def _check(self, name, rec, rnd):
        if name in self.disk_speeds:
            out = _flow_problems(rec, self.disk_speeds[name], DISK_SPEED_TOL)
            if not rec["profile_gap"] <= DISK_PROFILE_TOL:
                out.append(f"final u is |x|^2/2 + c only within "
                           f"{rec['profile_gap']:.3g}")
            return out
        if self.ellipse_speed is None:
            self.ellipse_speed = ellipse_speed(ELLIPSE_A, ELLIPSE_B)
        hs = {f"ellipse-{n_r}x{n_t}": polar_mesh_size(n_r, n_t, ELLIPSE_A)
              for n_r, n_t in self.ellipse_grids}
        out = _flow_problems(rec, self.ellipse_speed,
                             ELLIPSE_LEVEL_C * hs[name] ** 2)
        coarse, fine = hs
        s0 = rnd[coarse].get("speed")
        if name == fine and s0 is not None:
            w = (hs[coarse] / hs[fine]) ** 2
            s_rich = (w * rec["speed"] - s0) / (w - 1.0)
            tol = ELLIPSE_RICHARDSON_C * hs[fine] ** 4
            if not abs(s_rich - self.ellipse_speed) <= tol:
                out.append(f"Richardson speed {s_rich:.12g} is off "
                           f"{self.ellipse_speed:.12g} by more than {tol:.3g}")
        return out


class Eigen(Workload):
    """``hqflow eigen`` for (k, l) = (2, 1) on the unit disk with the
    translation-identity check, from seeded initial data.  Reference
    speed -log 2 and profile |x|^2/2 (see Translate)."""

    name = "eigen"
    EPS0, N_HALVINGS, TOL = 1.0, 6, 1e-8
    # The schedule's Richardson speed carries an O(eps^2) error, eps =
    # 1/64 at the end: 6e-6 is observed.
    SPEED_TOL = 1e-4

    def __init__(self, seed, out_root, grid=(10, 20)):
        super().__init__(seed, out_root)
        self.grid = grid
        self.speed = -LOG2
        u0 = f"(x1^2 + x2^2)/2 + {bump(self.rng)}"
        self._op("eigen-k2l1", ["eigen"], EIGEN_CFG.format(
            u0=u0, n_r=grid[0], n_theta=grid[1], eps0=self.EPS0,
            n_halvings=self.N_HALVINGS, tol=self.TOL))

    @property
    def profile_tol(self):
        # The last damped solve has eps = eps0 / 2^n; its profile is off
        # the translating one by O(eps): 0.06 eps is observed.
        return 0.25 * self.EPS0 * 2.0 ** -self.N_HALVINGS

    def _read(self, op):
        s = read_json(os.path.join(op.out, "summary.json"))
        return {"status": s["status"], "s_hat": s["s_hat"],
                "residual": s["residual"],
                "identity": s["translation_identity"],
                "profile_gap": profile_gap(
                    os.path.join(op.out, "profile.csv"))}

    def _check(self, name, rec, rnd):
        out = []
        if rec["status"] != "converged":
            out.append(f"status {rec['status']}")
        if not abs(rec["s_hat"] - self.speed) <= self.SPEED_TOL:
            out.append(f"s_hat {rec['s_hat']:.12g} is off {self.speed:.12g} "
                       f"by more than {self.SPEED_TOL:g}")
        if not rec["profile_gap"] <= self.profile_tol:
            out.append(f"profile is |x|^2/2 + c only within "
                       f"{rec['profile_gap']:.3g}")
        h = polar_mesh_size(*self.grid)
        if not rec["residual"] <= 10.0 * h * h:
            out.append(f"residual {rec['residual']:.3g} exceeds 10 h^2")
        ident = rec["identity"]
        if not (ident["ok"] and ident["deviation"]
                <= 100.0 * self.TOL / self.EPS0):
            out.append(f"translation identity off by {ident['deviation']:.3g}")
        return out


class Manufactured(Workload):
    """``hqflow converge --levels 3`` on the manufactured (2, 1) problem
    with growth rate 1: f and phi depend on u, and U* is the exact
    steady state."""

    name = "manufactured"
    # Observed max errors are about 0.002 h^2 on every level.
    ERROR_C = 0.01

    def __init__(self, seed, out_root, base_grid=(4, 8)):
        super().__init__(seed, out_root)
        self.base_grid = base_grid
        self.order_range = (1.5, 2.5)
        self._op("converge-k2l1", ["converge", "--levels", "3"],
                 manufactured_config(self.rng, *base_grid))

    def _read(self, op):
        c = read_json(os.path.join(op.out, "converge.json"))
        return {"levels": [(tuple(v["shape"]), v["error"])
                           for v in c["levels"]]}

    def _check(self, name, rec, rnd):
        out = []
        n_r, n_t = self.base_grid
        want = [(n_r * s, n_t * s) for s in (1, 2, 4)]
        shapes = [s for s, _ in rec["levels"]]
        if shapes != want:
            return [f"levels {shapes}, expected {want}"]
        hs = [polar_mesh_size(*s) for s in shapes]
        errs = [e for _, e in rec["levels"]]
        for h, e, s in zip(hs, errs, shapes):
            if not e <= self.ERROR_C * h * h:
                out.append(f"error {e:.3g} on {s} exceeds "
                           f"{self.ERROR_C:g} h^2")
        lo, hi = self.order_range
        for j in range(len(errs) - 1):
            if not (errs[j] > 0.0 and errs[j + 1] > 0.0):
                out.append(f"zero error on a level: {errs}")
                continue
            order = (math.log(errs[j] / errs[j + 1])
                     / math.log(hs[j] / hs[j + 1]))
            if not lo <= order <= hi:
                out.append(f"observed order {order:.4f} leaves [{lo}, {hi}]")
        return out


class Properties(Workload):
    """``hqflow verify --seed <seed> --self-test --trials <trials>``: the
    same budget for each of the suite's 17 properties."""

    name = "properties"
    PROPERTIES = 17

    def __init__(self, seed, out_root, trials=400):
        super().__init__(seed, out_root)
        self.expected_trials = self.PROPERTIES * trials
        self._op("verify", ["verify", "--seed", str(seed), "--self-test",
                            "--trials", str(trials)])

    def _read(self, op):
        v = read_json(os.path.join(op.out, "verify.json"))
        props = v["properties"]
        return {"seed": v["seed"], "all_ok": v["all_ok"],
                "self_test": v["self_test_detects_faults"],
                "trials": sum(p["trials"] for p in props.values()),
                "failing": sorted(n for n, p in props.items()
                                  if not (p["ok"] and not p["vacuous"]
                                          and p["passes"] == p["trials"]))}

    def _check(self, name, rec, rnd):
        out = []
        if rec["seed"] != self.seed:
            out.append(f"verify.json reports seed {rec['seed']}")
        if rec["failing"] or not rec["all_ok"]:
            out.append(f"properties failed: {rec['failing']}")
        if rec["trials"] != self.expected_trials:
            out.append(f"{rec['trials']} trials run, expected "
                       f"{self.expected_trials}")
        if rec["self_test"] is not True:
            out.append("the self-test did not flag the corrupted sigma")
        return out


WORKLOADS = {w.name: w for w in (Translate, Eigen, Manufactured, Properties)}
