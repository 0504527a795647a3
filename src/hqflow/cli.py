"""Configuration-driven command line front end.

Four subcommands orchestrate the package: ``flow`` integrates a
configured problem until its stop rule fires, ``eigen`` extracts the
translating speed and profile from one damped solve, ``verify`` runs
the randomized property suite, and ``converge`` measures the observed
order of the steady state against a manufactured solution over a ladder
of grids.

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
are rejected with the offending path.  A key left out takes the
default of the library function that takes it, which also checks the
value; `main` reports its ArgumentError at the key of that name in
``problem.*``, the command's section, ``flow.*`` or ``grid.*``.
Every artifact starts with a metadata header recording the command,
the config digest, the domain and the grid.  Reruns with identical
inputs produce byte-identical files: nothing time- or host-dependent is
written.

Exit codes: 0 success; 1 a measured property failed (verify suite, or
convergence orders off target); 2 config or argument error; 3 a run
diverged, reached a state where f or phi cannot be evaluated, or a
damped solve failed; 4 the flow hit its time horizon.

Importing this module loads only ``geometry`` of hqflow.  Each command
loads the modules it runs when it starts: ``flow`` and ``converge``
load ``exprparse``, ``discretize`` and ``flow``; ``eigen`` loads those
and ``elliptic``; ``verify`` loads ``symmfunc``, ``oracle`` and
``verify``, and no solver module.  Without a bytecode cache every
module loaded is compiled, so a process that loads only its command's
modules starts sooner (README "Command line" gives the times).
"""

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

# Only what every command shares; each handler, and each helper that
# one command needs, imports its own modules where it starts.
from . import geometry

__all__ = [
    "ConfigError", "load_config", "parse_config_text",
    "cmd_flow", "cmd_eigen", "cmd_verify", "cmd_converge", "main",
]

_MISSING = object()

KNOWN_KEYS = frozenset({
    "problem.k", "problem.l", "problem.domain", "problem.radius",
    "problem.a", "problem.b",
    "problem.f", "problem.phi", "problem.u0",
    "problem.growth_rate", "problem.damping_rate",
    "problem.require_nonnegative_initial_speed",
    "grid.n_r", "grid.n_theta",
    "flow.mode", "flow.t_max", "flow.tol_steady", "flow.tol_trans",
    "flow.checkpoint_every",
    # flow.mean_shift and eigen.n_halvings are read by nothing: the
    # benchmark's manufactured and eigen configs still set them
    "flow.mean_shift",
    "eigen.eps0", "eigen.n_halvings", "eigen.tol", "eigen.check_translation",
    "converge.u_star",
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


def _bool(raw):
    return {"true": True, "false": False}[raw.lower()]


def _unquote(raw):
    if len(raw) >= 2 and raw[0] == '"' and raw[-1] == '"':
        return raw[1:-1]
    return raw


class Config:
    """Typed access to flat config pairs with pathed diagnostics."""

    def __init__(self, pairs, digest):
        self.pairs = dict(pairs)
        self.digest = digest

    def _get(self, path, default, parse, expected):
        """pairs[path] read by `parse`, or `default` for a key left out;
        a value `parse` rejects is reported as not being `expected`."""
        if path not in self.pairs:
            if default is _MISSING:
                raise ConfigError(path, "required key is missing")
            return default
        raw = self.pairs[path]
        try:
            return parse(raw)
        except (KeyError, ValueError):
            raise ConfigError(path, f"expected {expected}, got {raw!r}") \
                from None

    def int_(self, path, default=_MISSING):
        return self._get(path, default, int, "an integer")

    def float_(self, path, default=_MISSING):
        return self._get(path, default, float, "a number")

    def bool_(self, path, default=_MISSING):
        return self._get(path, default, _bool, "true or false")

    def str_(self, path, default=_MISSING):
        return self._get(path, default, _unquote, "a string")

    def word(self, path, choices):
        raw = self.str_(path)
        if raw not in choices:
            raise ConfigError(
                path, f"expected one of {', '.join(choices)}; got {raw!r}")
        return raw

    def expr(self, path, slot):
        from . import exprparse
        try:
            return exprparse.parse(self.str_(path), slot=slot)
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
        # a byte-order mark, as some editors save, is not part of a key
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError("config", f"not valid UTF-8: {exc}") from exc
    pairs = parse_config_text(text)
    for key in pairs:
        if key not in KNOWN_KEYS:
            raise ConfigError(key, "unknown key")
    return Config(pairs, digest)


_DOMAINS = {
    "disk": (geometry.Disk, {"radius": 1.0}),
    "ellipse": (geometry.Ellipse, {"a": _MISSING, "b": _MISSING}),
}


def build_domain(cfg):
    cls, defaults = _DOMAINS[cfg.word("problem.domain", tuple(_DOMAINS))]
    sizes = {f: cfg.float_(f"problem.{f}", d) for f, d in defaults.items()}
    return cls(**sizes)


def build_grid(cfg, dom, scale=1):
    """Grid for the configured domain; `scale` refines for ladders."""
    n_r = cfg.int_("grid.n_r")
    n_t = cfg.int_("grid.n_theta")
    return geometry.build_grid(dom, n_r=n_r * scale, n_theta=n_t * scale)


def _options(cfg, section, **getters):
    """Keyword arguments for the `section.name` keys the config sets,
    each read by getters[name]; a key left out keeps the default of the
    library function that takes it."""
    return {name: get(cfg, f"{section}.{name}")
            for name, get in getters.items()
            if f"{section}.{name}" in cfg.pairs}


def build_spec(cfg, grid):
    from . import flow
    try:
        return flow.ProblemSpec(
            grid, cfg.int_("problem.k"), cfg.int_("problem.l"),
            f=cfg.expr("problem.f", "f"), phi=cfg.expr("problem.phi", "phi"),
            u0=cfg.expr("problem.u0", "u0"),
            **_options(cfg, "problem", growth_rate=Config.float_,
                       damping_rate=Config.float_,
                       require_nonnegative_initial_speed=Config.bool_))
    except geometry.AdmissibilityError as exc:
        raise ConfigError("problem.u0", str(exc)) from exc


def _domain_label(dom):
    if isinstance(dom, geometry.Disk):
        return f"disk radius={dom.radius:g}"
    return f"ellipse a={dom.a:g} b={dom.b:g}"


def _meta(command, digest, grid=None):
    return {
        "command": command,
        "config_sha256": digest,
        "domain": None if grid is None else _domain_label(grid.domain),
        "grid": None if grid is None else
            f"polar {grid.shape[0]}x{grid.shape[1]}",
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
    """The artifact directory, made if missing: HQFLOW_OUT, else
    output.dir; one that cannot be made is a config error at its source."""
    source, out = "HQFLOW_OUT", os.environ.get("HQFLOW_OUT")
    if out is None:
        source = "output.dir"
        out = "." if cfg is None else cfg.str_("output.dir", ".")
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(source, f"cannot make directory {out!r}: "
                                  f"{exc.strerror or exc}") from exc
    return out


def _formats(cfg):
    raw = cfg.str_("output.formats", "csv,json")
    fmts = {p.strip() for p in raw.split(",") if p.strip()}
    bad = fmts - {"csv", "json"}
    if bad or not fmts:
        raise ConfigError("output.formats",
                          f"expected a subset of csv,json; got {raw!r}")
    return fmts


def _run_settings(cfg):
    return _options(cfg, "flow", mode=Config.str_, t_max=Config.float_,
                    tol_steady=Config.float_, tol_trans=Config.float_,
                    checkpoint_every=Config.int_)


_FLOW_EXIT = {"steady": 0, "translating": 0, "t_max": 4, "diverged": 3}
# A converge level whose error is at most this many ulps of max|u_star|
# reproduces u_star to round-off.
_ROUNDOFF_ULPS = 64


def cmd_flow(args):
    from . import flow
    cfg = load_config(args.config)
    dom = build_domain(cfg)
    grid = build_grid(cfg, dom)
    spec = build_spec(cfg, grid)
    settings = _run_settings(cfg)
    formats = _formats(cfg)
    out = _out_dir(cfg)
    meta = _meta("flow", cfg.digest, grid)

    result = flow.run(spec, **settings)
    last = result.records[-1]
    summary = {
        "meta": meta,
        "status": result.status,
        "mode": result.mode,
        "t_final": result.state.t,
        "steps": result.state.step_count,
        "final_max_abs_ut": last.max_abs_ut,
        "final_osc_ut": last.osc_ut,
        "speed": last.mean_ut,
    }
    if result.mode == "steady":
        # a translating max|u_t| tends to the speed, not to zero
        summary["decay_rate"] = flow.decay_rate(result)
    summary.update({
        "monitor_tol": spec.monitor_tol,
        "amplitude_bound": spec.amplitude_bound,
        "quotient_floor": spec.quotient_floor,
        "mesh_size": geometry.mesh_size(grid),
        "monitors": flow.monitor_report(result, spec),
    })
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
    from . import elliptic
    cfg = load_config(args.config)
    dom = build_domain(cfg)
    grid = build_grid(cfg, dom)
    spec = build_spec(cfg, grid)
    solve = _options(cfg, "eigen", tol=Config.float_)
    identity_args = dict(solve, **_options(cfg, "eigen", eps0=Config.float_))
    check_translation = cfg.bool_("eigen.check_translation", False)
    formats = _formats(cfg)
    out = _out_dir(cfg)
    meta = _meta("eigen", cfg.digest, grid)

    oracle_s = None
    # the oracle evaluates f and phi at u = 0, so it needs both free of
    # u; solve_eigenpair then names the one that is not
    if ((spec.k, spec.l) == (1, 0) and not spec.f.depends_on_u
            and not spec.phi.depends_on_u):
        oracle_s = elliptic.laplace_speed_oracle(grid, spec.f, spec.phi)

    try:
        # the identity first, so that a bad eigen.eps0 stops the command
        # before the eigen solve
        identity = (elliptic.translation_identity(spec, **identity_args)
                    if check_translation else None)
        pair = elliptic.solve_eigenpair(spec, **solve)
    except elliptic.ConvergenceError as exc:
        if "json" in formats:
            _write_json(os.path.join(out, "summary.json"),
                        {"meta": meta, "status": "diverged",
                         "error": str(exc)})
        print(f"eigen solve failed: {exc}", file=sys.stderr)
        return 3

    summary = {"meta": meta}
    summary.update(elliptic.eigen_summary(pair, oracle_s=oracle_s))
    summary["y0"] = list(pair.y0)
    summary["mesh_size"] = geometry.mesh_size(grid)

    if identity is not None:
        summary["translation_identity"] = identity

    if "csv" in formats:
        geometry.export_csv(grid, pair.u_ell,
                            os.path.join(out, "profile.csv"),
                            metadata=_meta_lines(meta))
    if "json" in formats:
        _write_json(os.path.join(out, "summary.json"), summary)
    return 0 if pair.status == "converged" else 3


def cmd_verify(args):
    from . import verify
    trials = args.trials
    seed = args.seed
    out = _out_dir(None)
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


def _exact_solution(u_star, grid):
    """converge.u_star at the grid nodes, checked before the level runs."""
    from . import exprparse
    try:
        truth = exprparse.eval(u_star, {"x1": grid.x, "x2": grid.y})
    except exprparse.EvalError as exc:
        raise ConfigError("converge.u_star", str(exc)) from exc
    if not np.all(np.isfinite(truth)):
        raise ConfigError("converge.u_star", "is not finite at the grid nodes")
    return np.broadcast_to(np.asarray(truth, dtype=float), grid.shape)


def cmd_converge(args):
    from . import flow
    cfg = load_config(args.config)
    if args.levels < 2:
        raise ConfigError("--levels", "need at least 2 grid levels")
    dom = build_domain(cfg)
    u_star = cfg.expr("converge.u_star", "u0")
    settings = _run_settings(cfg)
    settings["mode"] = "steady"
    formats = _formats(cfg)
    out = _out_dir(cfg)

    levels = []
    floors = []
    meta = None
    for j in range(args.levels):
        grid = build_grid(cfg, dom, scale=2 ** j)
        if meta is None:
            meta = _meta("converge", cfg.digest, grid)
        spec = build_spec(cfg, grid)
        truth = _exact_solution(u_star, grid)
        result = flow.run(spec, **settings)
        if result.status != "steady":
            print(f"level with grid {grid.shape} ended with status "
                  f"{result.status!r}", file=sys.stderr)
            return _FLOW_EXIT[result.status]
        err = float(np.max(np.abs(result.state.u - truth)))
        levels.append({"shape": list(grid.shape),
                       "h": geometry.mesh_size(grid),
                       "error": err})
        floors.append(_ROUNDOFF_ULPS * np.finfo(float).eps
                      * float(np.max(np.abs(truth))))

    orders = []
    notes = []
    for i, (a, b) in enumerate(zip(levels[:-1], levels[1:])):
        if a["error"] <= floors[i] and b["error"] <= floors[i + 1]:
            # the scheme reproduces u_star: there is no order to measure
            orders.append(None)
            notes.append(f"orders[{i}] is null: both errors are round-off, "
                         f"at most {_ROUNDOFF_ULPS} ulps of max|u_star|")
            continue
        if b["error"] == 0.0 or a["error"] == 0.0:
            orders.append(float("inf"))
            continue
        orders.append(math.log(a["error"] / b["error"])
                      / math.log(a["h"] / b["h"]))
    ok = all(o is None or 1.5 <= o <= 2.5 for o in orders)
    payload = {"meta": meta, "levels": levels, "orders": orders}
    if notes:
        payload["notes"] = notes
    payload["ok"] = ok
    if "json" in formats:
        _write_json(os.path.join(out, "converge.json"), payload)
    if not ok:
        print(f"observed orders {orders} leave [1.5, 2.5]", file=sys.stderr)
    return 0 if ok else 1


def _argument_key(command, field):
    """The config key, or for verify the option, of library argument
    `field`; None when no key sets it."""
    if command == "verify":
        return f"--{field}"
    section = "eigen" if command == "eigen" else "flow"
    keys = [f"{s}.{field}" for s in ("problem", section, "flow", "grid")]
    return next((key for key in keys if key in KNOWN_KEYS), None)


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
                        "sigma implementation; this check always runs 200 "
                        "trials per property, whatever --trials is")

    p = sub.add_parser("converge", help="order study against a "
                                        "manufactured solution")
    p.add_argument("config", help="path to a flat key = value config file")
    p.add_argument("--levels", type=int, default=3,
                   help="number of grid levels, each refining by 2")

    args = parser.parse_args(argv)
    handlers = {"flow": cmd_flow, "eigen": cmd_eigen,
                "verify": cmd_verify, "converge": cmd_converge}
    try:
        # a non-finite value is caught where it matters and reported by
        # its exit code, so numpy's own warnings would only repeat it
        with np.errstate(all="ignore"):
            return handlers[args.command](args)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        # arguments are checked before any work; any other ValueError
        # means f or phi could not be evaluated, or the Neumann closure
        # not solved, at a state a run reached
        key = (_argument_key(args.command, exc.field)
               if isinstance(exc, geometry.ArgumentError) else None)
        if key is None:
            print(f"{args.command} run failed: {exc}", file=sys.stderr)
            return 3
        print(ConfigError(key, exc.reason), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
