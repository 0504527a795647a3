"""Configuration-driven command line front end.

Four subcommands orchestrate the package: ``flow`` integrates a
configured problem until its stop rule fires, ``eigen`` extracts the
translating speed and profile through the damped-solve schedule,
``verify`` runs the randomized property suite, and ``converge``
measures the observed order of the steady state against a manufactured
solution over a ladder of grids.

Config files are flat ``key = value`` lines with dotted prefixes::

    problem.k = 1
    problem.l = 0
    problem.domain = disk
    problem.f = "1"
    problem.phi = "1"
    problem.u0 = "(x1^2 + x2^2)/2"
    grid.n_r = 64
    grid.n_theta = 128
    flow.mode = translating

Quoted values are expressions for the parser; bare values are numbers,
booleans, words, or comma-separated tuples.  Unknown or duplicate keys
are rejected with the offending path.  Every artifact starts with a
metadata header recording the config digest, the grid, and whether the
domain leaves the smooth uniformly convex setting the estimates assume
(squares do).  Reruns with identical inputs produce byte-identical
files: nothing time- or host-dependent is written.

Exit codes: 0 success; 1 a measured property failed (verify suite, or
convergence orders off target); 2 config or argument error; 3 a run
diverged or a damped solve failed; 4 the flow hit its time horizon;
5 the damping trace did not contract.
"""

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import elliptic, exprparse, flow, geometry, verify

__all__ = [
    "ConfigError", "load_config", "parse_config_text",
    "cmd_flow", "cmd_eigen", "cmd_verify", "cmd_converge", "main",
]

_MISSING = object()

KNOWN_KEYS = frozenset({
    "problem.k", "problem.l", "problem.domain", "problem.radius",
    "problem.a", "problem.b", "problem.half_width",
    "problem.f", "problem.phi", "problem.u0", "problem.y0",
    "problem.growth_rate", "problem.damping_rate",
    "problem.require_nonnegative_initial_speed",
    "grid.backend", "grid.n_r", "grid.n_theta", "grid.n",
    "flow.mode", "flow.cfl", "flow.t_max", "flow.tol_steady",
    "flow.tol_trans", "flow.window", "flow.checkpoint_every",
    "flow.mean_shift",
    "eigen.eps0", "eigen.n_halvings", "eigen.tol", "eigen.t_max",
    "eigen.check_translation",
    "converge.u_star", "converge.resolutions",
    "output.dir", "output.formats",
})


class ConfigError(Exception):
    """Invalid configuration; `path` names the offending field."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"config error at {path}: {message}")


def parse_config_text(text):
    """Flat config text -> {dotted.path: raw value string}.

    Blank lines and lines starting with '#' are skipped; duplicate or
    malformed keys raise ConfigError.
    """
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}", "expected key = value")
        if any(not part for part in key.split(".")) or " " in key:
            raise ConfigError(f"line {lineno}", f"malformed key {key!r}")
        if key in pairs:
            raise ConfigError(key, f"duplicate key (line {lineno})")
        if not value:
            raise ConfigError(key, "empty value")
        pairs[key] = value
    return pairs


class Config:
    """Typed access to flat config pairs with pathed diagnostics."""

    def __init__(self, pairs, digest):
        self.pairs = dict(pairs)
        self.digest = digest

    def _raw(self, path, default):
        if path in self.pairs:
            return self.pairs[path]
        if default is _MISSING:
            raise ConfigError(path, "required key is missing")
        return None

    def int_(self, path, default=_MISSING):
        raw = self._raw(path, default)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(path, f"expected an integer, got {raw!r}") \
                from None

    def float_(self, path, default=_MISSING):
        raw = self._raw(path, default)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(path, f"expected a number, got {raw!r}") \
                from None

    def bool_(self, path, default=_MISSING):
        raw = self._raw(path, default)
        if raw is None:
            return default
        if raw.lower() in ("true", "false"):
            return raw.lower() == "true"
        raise ConfigError(path, f"expected true or false, got {raw!r}")

    def str_(self, path, default=_MISSING):
        raw = self._raw(path, default)
        if raw is None:
            return default
        if len(raw) >= 2 and raw[0] == '"' and raw[-1] == '"':
            return raw[1:-1]
        return raw

    def word(self, path, choices, default=_MISSING):
        raw = self.str_(path, default)
        if raw is default and raw not in choices:
            return default
        if raw not in choices:
            raise ConfigError(
                path, f"expected one of {', '.join(choices)}; got {raw!r}")
        return raw

    def point(self, path, default=_MISSING):
        raw = self._raw(path, default)
        if raw is None:
            return default
        parts = [p.strip() for p in raw.split(",")]
        try:
            vals = tuple(float(p) for p in parts)
        except ValueError:
            vals = ()
        if len(vals) != 2:
            raise ConfigError(
                path, f"expected two comma-separated numbers, got {raw!r}")
        return vals

    def int_list(self, path, default=_MISSING):
        raw = self._raw(path, default)
        if raw is None:
            return default
        try:
            return [int(p.strip()) for p in raw.split(",")]
        except ValueError:
            raise ConfigError(
                path, f"expected comma-separated integers, got {raw!r}") \
                from None

    def expr(self, path, slot, default=_MISSING):
        raw = self.str_(path, default)
        if raw is default:
            return default
        try:
            return exprparse.parse(raw, slot=slot)
        except exprparse.ParseError as exc:
            raise ConfigError(path, str(exc)) from exc


def load_config(path):
    """Read, hash, and key-check a config file."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError("config", str(exc)) from exc
    digest = hashlib.sha256(data).hexdigest()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError("config", f"not valid UTF-8: {exc}") from exc
    pairs = parse_config_text(text)
    for key in pairs:
        if key not in KNOWN_KEYS:
            raise ConfigError(key, "unknown key")
    return Config(pairs, digest)


def build_domain(cfg):
    name = cfg.word("problem.domain", ("disk", "ellipse", "square"))
    try:
        if name == "disk":
            return geometry.Disk(cfg.float_("problem.radius", 1.0))
        if name == "ellipse":
            return geometry.Ellipse(cfg.float_("problem.a"),
                                    cfg.float_("problem.b"))
        return geometry.Square(cfg.float_("problem.half_width", 1.0))
    except ValueError as exc:
        raise ConfigError("problem.domain", str(exc)) from exc


def build_grid(cfg, dom, scale=1):
    """Grid for the configured domain; `scale` refines for ladders."""
    is_square = isinstance(dom, geometry.Square)
    backend = cfg.word("grid.backend", ("polar", "cartesian"), default=None)
    wanted = "cartesian" if is_square else "polar"
    if backend is not None and backend != wanted:
        raise ConfigError(
            "grid.backend",
            f"a {type(dom).__name__.lower()} domain uses the {wanted} "
            f"backend")
    try:
        if is_square:
            n = cfg.int_("grid.n")
            return geometry.build_grid(dom, n=(n - 1) * scale + 1)
        n_r = cfg.int_("grid.n_r")
        n_t = cfg.int_("grid.n_theta")
        return geometry.build_grid(dom, n_r=n_r * scale, n_theta=n_t * scale)
    except ValueError as exc:
        path = ("grid.n" if is_square else
                "grid.n_theta" if "n_theta" in str(exc) else "grid.n_r")
        raise ConfigError(path, str(exc)) from exc


_SPEC_HINTS = (
    ("cfl", "flow.cfl"),
    ("phi", "problem.phi"),
    ("f must", "problem.f"),
    ("right side f", "problem.f"),
    ("growth_rate", "problem.growth_rate"),
    ("damping_rate", "problem.damping_rate"),
    ("initial", "problem.u0"),
    ("Gamma_k", "problem.u0"),
)


def _spec_error_path(message):
    for token, path in _SPEC_HINTS:
        if token in message:
            return path
    return "problem"


def build_spec(cfg, grid):
    k = cfg.int_("problem.k")
    l = cfg.int_("problem.l")
    if not 1 <= k <= 2:
        raise ConfigError("problem.k", f"k must be 1 or 2 on planar "
                          f"domains, got {k}")
    if not 0 <= l < k:
        raise ConfigError("problem.l", f"l must satisfy 0 <= l < k = {k}, "
                          f"got {l}")
    f = cfg.expr("problem.f", "f")
    phi = cfg.expr("problem.phi", "phi")
    u0 = cfg.expr("problem.u0", "u0")
    try:
        return flow.ProblemSpec(
            grid, k, l, f=f, phi=phi, u0=u0,
            growth_rate=cfg.float_("problem.growth_rate", None),
            damping_rate=cfg.float_("problem.damping_rate", None),
            require_nonnegative_initial_speed=cfg.bool_(
                "problem.require_nonnegative_initial_speed", True),
            cfl=cfg.float_("flow.cfl", 0.4))
    except ValueError as exc:
        raise ConfigError(_spec_error_path(str(exc)), str(exc)) from exc


def _domain_label(dom):
    if isinstance(dom, geometry.Disk):
        return f"disk radius={dom.radius:g}"
    if isinstance(dom, geometry.Ellipse):
        return f"ellipse a={dom.a:g} b={dom.b:g}"
    return f"square half_width={dom.half_width:g}"


def _meta(command, digest, grid=None):
    dom = None if grid is None else grid.domain
    return {
        "command": command,
        "config_sha256": digest,
        "domain": None if dom is None else _domain_label(dom),
        "grid": None if grid is None else
            f"{grid.backend} {grid.shape[0]}x{grid.shape[1]}",
        "outside_theory": isinstance(dom, geometry.Square),
    }


def _meta_lines(meta):
    def plain(v):
        if v is None:
            return "none"
        if isinstance(v, bool):
            return "true" if v else "false"
        return str(v)

    return [f"{k}={plain(v)}" for k, v in meta.items()]


def _jsonable(obj):
    """Recursively make `obj` JSON-safe; non-finite floats become null."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    return obj


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_jsonable(payload), indent=2) + "\n")


def _out_dir(cfg):
    out = os.environ.get("HQFLOW_OUT")
    if out is None:
        out = "." if cfg is None else cfg.str_("output.dir", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _formats(cfg):
    raw = cfg.str_("output.formats", "csv,json")
    fmts = {p.strip() for p in raw.split(",") if p.strip()}
    bad = fmts - {"csv", "json"}
    if bad or not fmts:
        raise ConfigError("output.formats",
                          f"expected a subset of csv,json; got {raw!r}")
    return fmts


def _time_limit(cfg, path, default):
    """A t_max setting: a run with an infinite or NaN limit never ends,
    and one with a limit <= 0 takes no step."""
    value = cfg.float_(path, default)
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(path, f"must be finite and positive, got {value}")
    return value


def _run_settings(cfg):
    mode = cfg.word("flow.mode", ("steady", "translating"), default="steady")
    settings = dict(mode=mode,
                    t_max=_time_limit(cfg, "flow.t_max", 50.0),
                    tol_steady=cfg.float_("flow.tol_steady", 1e-8),
                    tol_trans=cfg.float_("flow.tol_trans", 1e-8),
                    window=cfg.int_("flow.window", 50),
                    checkpoint_every=cfg.int_("flow.checkpoint_every", 100),
                    mean_shift=cfg.bool_("flow.mean_shift", False))
    for key in ("window", "checkpoint_every"):
        if settings[key] < 1:
            raise ConfigError(f"flow.{key}",
                              f"must be at least 1, got {settings[key]}")
    return settings


_FLOW_EXIT = {"steady": 0, "translating": 0, "t_max": 4, "diverged": 3}


def cmd_flow(args):
    cfg = load_config(args.config)
    dom = build_domain(cfg)
    grid = build_grid(cfg, dom)
    spec = build_spec(cfg, grid)
    settings = _run_settings(cfg)
    formats = _formats(cfg)
    out = _out_dir(cfg)
    meta = _meta("flow", cfg.digest, grid)

    result = flow.run(spec, **settings)
    checks = flow.monitor_report(result, spec, mode=settings["mode"])
    summary = {
        "meta": meta,
        "status": result.status,
        "mode": settings["mode"],
        "t_final": result.state.t,
        "steps": result.state.step_count,
        "final_max_abs_ut": result.series["max_abs_ut"][-1],
        "final_osc_ut": result.series["osc_ut"][-1],
        "speed": result.series["mean_ut"][-1],
        "decay_rate": flow.decay_rate(result),
        "mean_shifts": result.info["shifts"],
        "monitor_tol": result.monitor_tol,
        "amplitude_bound": spec.amplitude_bound,
        "quotient_floor": spec.quotient_floor,
        "mesh_size": geometry.mesh_size(grid),
        "monitors": checks,
    }
    lines = _meta_lines(meta)
    if "csv" in formats:
        flow.write_monitor_csv(os.path.join(out, "monitors.csv"), result,
                               metadata=lines)
        geometry.export_csv(grid, result.state.u,
                            os.path.join(out, "final.csv"), metadata=lines)
    if "json" in formats:
        _write_json(os.path.join(out, "summary.json"), summary)
    return _FLOW_EXIT[result.status]


def cmd_eigen(args):
    cfg = load_config(args.config)
    dom = build_domain(cfg)
    grid = build_grid(cfg, dom)
    spec = build_spec(cfg, grid)
    y0 = cfg.point("problem.y0", (0.0, 0.0))
    eps0 = cfg.float_("eigen.eps0", 1.0)
    n_halvings = cfg.int_("eigen.n_halvings", 6)
    tol = cfg.float_("eigen.tol", 1e-8)
    t_max = _time_limit(cfg, "eigen.t_max", 400.0)
    check_translation = cfg.bool_("eigen.check_translation", False)
    formats = _formats(cfg)
    out = _out_dir(cfg)
    meta = _meta("eigen", cfg.digest, grid)

    oracle_s = None
    if (spec.k, spec.l) == (1, 0) and not spec.f.depends_on_u:
        oracle_s = elliptic.laplace_speed_oracle(grid, spec.f, spec.phi)

    try:
        pair = elliptic.solve_eigenpair(spec, eps0=eps0,
                                        n_halvings=n_halvings, y0=y0,
                                        tol=tol, t_max=t_max)
    except elliptic.ConvergenceError as exc:
        if "json" in formats:
            _write_json(os.path.join(out, "summary.json"),
                        {"meta": meta, "status": "diverged",
                         "error": str(exc)})
        print(f"eigen solve failed: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        raise ConfigError(_spec_error_path(str(exc)), str(exc)) from exc

    summary = {"meta": meta}
    summary.update(elliptic.eigen_summary(pair, oracle_s=oracle_s))
    summary["y0"] = list(pair.y0)
    summary["mesh_size"] = geometry.mesh_size(grid)

    if check_translation:
        base = elliptic.solve_regularized(spec, eps0, tol=tol, t_max=t_max)

        def f_shift(x, y, u, _f=spec.f):
            return math.e * _f(x, y, u)

        sspec = flow.ProblemSpec(grid, spec.k, spec.l, f=f_shift,
                                 phi=spec.phi, u0=spec.u0_grid,
                                 require_nonnegative_initial_speed=False,
                                 cfl=spec.cfl)
        shifted = elliptic.solve_regularized(sspec, eps0, tol=tol,
                                             t_max=t_max)
        dev = float(np.max(np.abs(shifted - (base - 1.0 / eps0))))
        tol_id = 100.0 * tol / eps0
        summary["translation_identity"] = {
            "deviation": dev, "tolerance": tol_id, "ok": dev <= tol_id}

    if "csv" in formats:
        geometry.export_csv(grid, pair.u_ell,
                            os.path.join(out, "profile.csv"),
                            metadata=_meta_lines(meta))
    if "json" in formats:
        _write_json(os.path.join(out, "summary.json"), summary)
    if pair.status == "converged":
        return 0
    if any("trace" in note for note in pair.notes):
        return 5
    return 3


def cmd_verify(args):
    trials = args.trials
    seed = args.seed
    results = verify.run_suite(trials=trials, seed=seed)
    all_ok = all(r.ok for r in results.values())
    vacuous = any(r.vacuous for r in results.values())
    stamp = f"verify seed={seed} trials={trials}"
    payload = {
        "meta": _meta("verify", hashlib.sha256(stamp.encode()).hexdigest()),
        "seed": seed,
        "trials": "default" if trials is None else trials,
        "properties": verify.results_to_dict(results),
        "all_ok": all_ok,
        "vacuous": vacuous,
    }
    ok = all_ok
    if args.self_test:
        detected = verify.self_test(seed=seed)
        payload["self_test_detects_faults"] = detected
        ok = ok and detected
        if not detected:
            print("self-test: the suite failed to flag a corrupted "
                  "sigma implementation", file=sys.stderr)
    out = _out_dir(None)
    _write_json(os.path.join(out, "verify.json"), payload)
    if vacuous:
        print("warning: zero trials requested; every property passes "
              "vacuously", file=sys.stderr)
    for r in results.values():
        if not r.ok:
            print(f"property failed: {r.name} ({r.passes}/{r.trials} "
                  f"passed, worst margin {r.worst_margin:.3e})",
                  file=sys.stderr)
    return 0 if ok else 1


def cmd_converge(args):
    cfg = load_config(args.config)
    if args.levels < 2:
        raise ConfigError("--levels", "need at least 2 grid levels")
    dom = build_domain(cfg)
    u_star = cfg.expr("converge.u_star", "u0")
    resolutions = cfg.int_list("converge.resolutions", None)
    settings = _run_settings(cfg)
    settings["mode"] = "steady"
    formats = _formats(cfg)
    out = _out_dir(cfg)

    if resolutions is not None:
        if len(resolutions) != args.levels:
            raise ConfigError(
                "converge.resolutions",
                f"{args.levels} levels requested but "
                f"{len(resolutions)} resolutions listed")
        if len(set(resolutions)) != len(resolutions):
            raise ConfigError("converge.resolutions",
                              "identical grid levels requested")
        base = resolutions[0]
        scales = [r / base for r in resolutions]
        for r, s in zip(resolutions, scales):
            if s != int(s):
                raise ConfigError(
                    "converge.resolutions",
                    f"resolution {r} is not an integer multiple of the "
                    f"coarsest level {base}")
        scales = [int(s) for s in scales]
        if resolutions != sorted(resolutions):
            raise ConfigError("converge.resolutions",
                              "resolutions must increase")
    else:
        scales = [2 ** j for j in range(args.levels)]

    levels = []
    meta = None
    for scale in scales:
        grid = build_grid(cfg, dom, scale=scale)
        if meta is None:
            meta = _meta("converge", cfg.digest, grid)
        spec = build_spec(cfg, grid)
        result = flow.run(spec, **settings)
        if result.status != "steady":
            print(f"level with grid {grid.shape} ended with status "
                  f"{result.status!r}", file=sys.stderr)
            return _FLOW_EXIT[result.status]
        truth = np.broadcast_to(
            np.asarray(exprparse.eval(u_star, {"x1": grid.x, "x2": grid.y}),
                       dtype=float), grid.shape)
        err = float(np.max(np.abs(result.state.u - truth)))
        levels.append({"shape": list(grid.shape),
                       "h": geometry.mesh_size(grid),
                       "error": err})

    orders = []
    for a, b in zip(levels[:-1], levels[1:]):
        if b["error"] == 0.0 or a["error"] == 0.0:
            orders.append(float("inf"))
            continue
        orders.append(math.log(a["error"] / b["error"])
                      / math.log(a["h"] / b["h"]))
    ok = all(1.5 <= o <= 2.5 for o in orders)
    payload = {"meta": meta, "levels": levels, "orders": orders, "ok": ok}
    if "json" in formats:
        _write_json(os.path.join(out, "converge.json"), payload)
    if not ok:
        print(f"observed orders {orders} leave [1.5, 2.5]", file=sys.stderr)
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hqflow",
        description="Finite-difference laboratory for Neumann problems of "
                    "parabolic Hessian quotient flows.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("flow", help="integrate a configured problem until "
                                    "its stop rule fires")
    p.add_argument("config", help="path to a flat key = value config file")

    p = sub.add_parser("eigen", help="extract the translating speed and "
                                     "profile by damped solves")
    p.add_argument("config", help="path to a flat key = value config file")

    p = sub.add_parser("verify", help="run the randomized property suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None,
                   help="trials per property (default: per-property budget)")
    p.add_argument("--self-test", action="store_true", dest="self_test",
                   help="also check that the suite flags a corrupted "
                        "sigma implementation")

    p = sub.add_parser("converge", help="order study against a "
                                        "manufactured solution")
    p.add_argument("config", help="path to a flat key = value config file")
    p.add_argument("--levels", type=int, default=3,
                   help="number of grid levels, each refining by 2")

    args = parser.parse_args(argv)
    handlers = {"flow": cmd_flow, "eigen": cmd_eigen,
                "verify": cmd_verify, "converge": cmd_converge}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
