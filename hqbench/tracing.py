"""Per-layer timing of hqflow from outside the package.

`Tracer.install` replaces public functions of hqflow's modules by
timing wrappers, through the module attributes hqflow itself calls
them by, and `uninstall` puts the originals back.  A wrapper records a
span only for the outermost call of its group, so the recursion of
``exprparse.eval`` and the calls of ``symmfunc`` or ``oracle`` among
themselves count once.  Each span charges its duration to the span
that encloses it, which gives the self time of ``flow.run``.
"""

import os
import time
import types
from collections import defaultdict


class Tracer:
    """Counts and times the layers of hqflow while installed."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.steps = 0
        self.trials = 0
        self.artifact_bytes = 0
        self._depth = defaultdict(int)
        self._stack = []
        self._saved = []

    def _wrap(self, module, attr, key, group=None, after=None):
        """Replace module.attr; `group` shares one outermost-call depth
        among several functions; `after(args, result)` sees every call."""
        fn = getattr(module, attr)
        group = group or key
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._depth[group]:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            tracer._depth[group] += 1
            frame = [0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                tracer._depth[group] -= 1
                tracer.calls[key] += 1
                tracer.seconds[key] += dt
                tracer.self_seconds[key] += dt - frame[0]
                if tracer._stack:
                    tracer._stack[-1][0] += dt
            if after is not None:
                after(args, result)
            return result

        self._saved.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def _wrap_public(self, module, group):
        for name in module.__all__:
            if isinstance(getattr(module, name), types.FunctionType):
                self._wrap(module, name, group, group=group)

    def install(self):
        from hqflow import (cli, discretize, elliptic, exprparse, flow,
                            geometry, oracle, symmfunc, verify)

        def count_steps(args, result):
            self.steps += result.state.step_count

        def count_trials(args, result):
            self.trials += sum(r.trials for r in result.values())

        def count_bytes(index):
            def after(args, result):
                self.artifact_bytes += os.path.getsize(args[index])
            return after

        self._wrap(flow, "run", "flow.run", after=count_steps)
        for name in ("hessian", "apply_neumann", "gradient"):
            self._wrap(discretize, name, f"discretize.{name}")
        self._wrap(exprparse, "eval", "exprparse.eval")
        for name in ("solve_regularized", "solve_eigenpair"):
            self._wrap(elliptic, name, f"elliptic.{name}")
        for name in ("build_grid", "boundary_integral"):
            self._wrap(geometry, name, f"geometry.{name}")
        self._wrap(cli, "build_spec", "cli.build_spec")
        self._wrap(geometry, "export_csv", "cli.artifacts",
                   after=count_bytes(2))
        self._wrap(flow, "write_monitor_csv", "cli.artifacts",
                   group="cli.artifacts.monitors", after=count_bytes(0))
        self._wrap(cli, "_write_json", "cli.artifacts",
                   group="cli.artifacts.json", after=count_bytes(0))
        self._wrap_public(symmfunc, "symmfunc")
        self._wrap_public(oracle, "oracle")
        self._wrap(verify, "run_suite", "verify.run_suite",
                   group="verify", after=count_trials)
        self._wrap(verify, "self_test", "verify.self_test", group="verify")

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def metrics(self, rounds):
        """Per-layer metrics, each averaged over `rounds` traced rounds."""
        n = float(rounds)
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value / n, "unit": unit}

        put("flow.run.calls", self.calls["flow.run"], "count")
        put("flow.run.s", self.seconds["flow.run"], "s")
        put("flow.steps", self.steps, "count")
        out["flow.step_us"] = {
            "value": (1e6 * self.seconds["flow.run"] / self.steps
                      if self.steps else 0.0), "unit": "us"}
        put("flow.self_s", self.self_seconds["flow.run"], "s")
        for key in ("discretize.hessian", "discretize.apply_neumann",
                    "discretize.gradient", "exprparse.eval",
                    "elliptic.solve_regularized"):
            put(f"{key}.calls", self.calls[key], "count")
            put(f"{key}.s", self.seconds[key], "s")
        for key in ("elliptic.solve_eigenpair", "geometry.build_grid",
                    "geometry.boundary_integral", "cli.build_spec",
                    "cli.artifacts"):
            put(f"{key}.s", self.seconds[key], "s")
        put("cli.artifacts.bytes", self.artifact_bytes, "B")
        for key in ("symmfunc", "oracle"):
            put(f"{key}.calls", self.calls[key], "count")
            put(f"{key}.s", self.seconds[key], "s")
        put("verify.trials", self.trials, "count")
        put("verify.run_suite.s", self.seconds["verify.run_suite"], "s")
        put("verify.self_test.s", self.seconds["verify.self_test"], "s")
        return out
