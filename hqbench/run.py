"""Run one hqflow benchmark workload and print its metrics.

    python3 hqbench/run.py --workload translate --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: hqflow is imported from its ``src``
directory.  The run repeats whole rounds of the workload's operations,
each a call of ``hqflow.cli.main``.  After four rounds it starts no
round that it expects to end past `--seconds`.  It then checks every
round's artifacts and prints one JSON object as the last line of
standard output.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``
(the fastest of fresh processes that import hqflow and numpy and make
the inputs), ``solve_s`` (the sum over operations of each operation's
fastest time inside ``cli.main`` in the run) and ``peak_rss_mb``.  The
host this was written on changes speed in spells of seconds to
minutes, so a median follows the host; the fastest time follows the
program (see README.md).  With ``--trace 1`` the run times
one untraced round, then traced rounds, and prints the per-layer
metrics of `tracing.Tracer` per round, with the tracing overhead.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 11
MIN_ROUNDS = 4
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print 'ready' and exit")
    return p.parse_args(argv)


def import_hqflow():
    """Import hqflow from this checkout's src, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hqflow
    if Path(hqflow.__file__).resolve().parent.parent != src:
        raise ImportError(f"hqflow was imported from {hqflow.__file__}, "
                          f"not from {src}")
    from hqflow import cli
    return cli


def setup(args):
    """What `setup_s` measures: imports and the seeded inputs."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    cli = import_hqflow()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    # Probes write apart, so that they do not delete the run's artifacts.
    out = OUT / ("setup-probe" if args.setup_probe else args.workload)
    wl = workloads.WORKLOADS[args.workload](args.seed, out)
    wl.write_inputs()
    return cli, wl


def run_round(cli, wl):
    """One round: every op through cli.main; returns ({op: seconds},
    records)."""
    records = {}
    times = []
    old = os.environ.get("HQFLOW_OUT")
    try:
        for op in wl.ops:
            shutil.rmtree(op.out, ignore_errors=True)
            os.makedirs(op.out)
            os.environ["HQFLOW_OUT"] = op.out
            t0 = time.perf_counter()
            try:
                code = cli.main(list(op.argv))
            except Exception as exc:  # a traceback is a failed op
                code = f"{type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - t0)
            records[op.name] = wl.collect(op, code)
    finally:
        if old is None:
            os.environ.pop("HQFLOW_OUT", None)
        else:
            os.environ["HQFLOW_OUT"] = old
    print(" ".join(f"{op.name} {t:.2f}s" for op, t in zip(wl.ops, times)),
          file=sys.stderr)
    return dict(zip((op.name for op in wl.ops), times)), records


def probe_setup(args):
    """Seconds from spawning a fresh benchmark process to its 'ready'."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
    return elapsed


def main(argv=None):
    args = parse_args(argv)
    try:
        cli, wl = setup(args)
    except ImportError as exc:
        print(f"cannot import hqflow: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    rounds = []
    solve = []          # {op: seconds} of each untraced round
    traced_solve = []   # seconds of each traced round
    round_s = []
    tracer = None
    start = time.perf_counter()
    try:
        while True:
            if args.trace and rounds and tracer is None:
                import tracing
                tracer = tracing.Tracer()
                tracer.install()
            times, records = run_round(cli, wl)
            seconds = sum(times.values())
            if tracer:
                traced_solve.append(seconds)
            else:
                solve.append(times)
            rounds.append(records)
            round_s.append(seconds)
            print(f"{args.workload} round {len(rounds)}"
                  f"{' (traced)' if tracer else ''}: {seconds:.3f} s",
                  file=sys.stderr)
            # At least MIN_ROUNDS rounds; then start no round that a
            # median round would end past --seconds.
            done = time.perf_counter() - start
            if len(rounds) >= MIN_ROUNDS and \
                    done + statistics.median(round_s) > args.seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()

    if args.trace:
        metrics = tracer.metrics(len(traced_solve))
        untraced = sum(solve[0].values())
        overhead = statistics.median(traced_solve) - untraced
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        print(f"tracing overhead {overhead:.3f} s on an untraced "
              f"{untraced:.3f} s round", file=sys.stderr)
    else:
        peak_rss_mb = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Set-up and each operation at their fastest: the host's slow
        # spells only ever add time, so the minimum is what the program
        # costs.
        setup_s = min(probe_setup(args) for _ in range(SETUP_PROBES))
        solve_s = sum(min(times[op.name] for times in solve)
                      for op in wl.ops)
        print(f"solve_s {solve_s:.3f} s; median round "
              f"{statistics.median(round_s):.3f} s", file=sys.stderr)
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "solve_s": {"value": solve_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}

    failed = 0
    for records in rounds:
        for name, problems in wl.check(records).items():
            if problems:
                failed += 1
                print(f"FAILED {name}: {'; '.join(problems)}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0,
                      "attempted": len(rounds) * len(wl.ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
