"""cvpose benchmark: the train and eval workloads, end to end.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload train --seed 1 --seconds 40 --trace 0
    python3 benchmarks/run.py --seed 1      # every workload, one process each

One workload per process: set-up is repeated SETUP_REPEATS times (its
median is setup_s), then the body is repeated for about --seconds (at
least MIN_REPS times); every timing is the median over those
repetitions. Timings on the result line are rescaled to a fixed host
speed (see speed.py); the seconds as measured are printed beside them
with the suffix _measured. With --trace 1 the repetitions alternate
without and with timing wrappers, and the result line carries the
per-layer metrics instead. Output checks run on every run; a failed check
exits with status 1. The last stdout line is the result:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train", "eval")
SETUP_REPEATS = 3
MIN_REPS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a shared 2-core host a second thread made `eval` no
# faster, burned a quarter more CPU time spinning, and made every timing
# more sensitive to what else the host runs.
BLAS_THREADS = 1

# name -> unit of the metrics every untraced run puts on its result line;
# BENCHMARK.json declares the same names with their bounds.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "mpjpe_tri_mm": "mm",
    "pmpjpe_refined_mm": "mm",
}
# Printed by name with their units on the workloads they describe, but not
# on the result line: none has a steady, non-zero value on every workload
# (see README.md).
EXTRA_UNITS = {"mpjpe_refined_mm": "mm", "final_loss": "1",
               "failed_frac": "frac", "setup_s_measured": "s",
               "wall_s_measured": "s", "samples_per_s_measured": "1/s",
               "probe_loop_s": "s"}


def pin_one_cpu():
    """Run on one CPU, so the speed probe times the core the body runs on."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def limit_blas_threads():
    """Pin BLAS to BLAS_THREADS (never above nproc), whatever the caller's
    environment says; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    return nproc


def git_commit():
    """HEAD of the checkout's git metadata, or "unknown" without one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(nproc, cpu):
    import numpy
    return {"commit": git_commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": nproc, "pinned_cpu": cpu,
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS}}


def timed_reps(workload, state, seconds, clock, probe, trace=False):
    """Repeat the body at least MIN_REPS times, then while another
    repetition of the last one's length still ends within `seconds`.

    With `trace`, repetitions alternate untraced and traced (an even count),
    so both sides see the same drift in machine speed; a traced
    repetition runs under a fresh Tracer whose wrappers are removed before
    the next. Each outcome's probe_s is the speed probe's median loop time
    during it. Returns (outcomes, tracers), tracers[i] None when untraced.
    """
    from layers import BODY, install
    from spans import Tracer
    outcomes, tracers = [], []
    start = clock()
    while True:
        gc.collect()
        tracer = Tracer() if trace and len(outcomes) % 2 else None
        if tracer is not None:
            install(tracer)
            root = tracer.open(BODY)
        try:
            t0 = clock()
            out = workload.body(state)
            t1 = clock()
            out.wall_s = t1 - t0
        finally:
            if tracer is not None:
                tracer.close(root)
                tracer.remove()
        out.probe_s = probe.loop_s(t0, t1)
        outcomes.append(out)
        tracers.append(tracer)
        done = (len(outcomes) >= MIN_REPS
                and clock() - start + out.wall_s > seconds)
        if done and (len(outcomes) % 2 == 0 or not trace):
            return outcomes, tracers


def run_one(args):
    nproc = limit_blas_threads()
    cpu = pin_one_cpu()
    if not os.path.isfile(os.path.join(ROOT, "src", "cvpose", "__init__.py")):
        print(f"error: no cvpose sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from layers import PER_LAYER, body_metrics, install_setup
    from spans import Tracer
    from speed import SpeedProbe, rescale
    from workloads import WORKLOADS as DEFS, Check

    workload = DEFS[args.workload]
    clock = time.perf_counter
    work = os.path.join(ROOT, ".bench_work", args.workload)
    probe = SpeedProbe(clock)
    try:
        with probe:
            setup_times, setup_probes = [], []
            for _ in range(1 if args.trace else SETUP_REPEATS):
                setup_tracer = Tracer() if args.trace else None
                if setup_tracer is not None:
                    install_setup(setup_tracer)
                t0 = clock()
                try:
                    state = workload.setup(work, args.seed)
                finally:
                    if setup_tracer is not None:
                        setup_tracer.remove()
                t1 = clock()
                setup_times.append(t1 - t0)
                setup_probes.append(probe.loop_s(t0, t1))
            state["clock"] = clock
            outcomes, tracers = timed_reps(workload, state, args.seconds,
                                           clock, probe, trace=bool(args.trace))
        check = Check()
        quality = workload.finish(state, outcomes, check)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass    # another workload's files are still there

    # End-to-end numbers come from untraced repetitions only.
    untraced = [o for o, t in zip(outcomes, tracers) if t is None]
    traced = [o for o, t in zip(outcomes, tracers) if t is not None]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    rates = [o.samples / (o.rate_s or o.wall_s) for o in untraced]
    report = dict(quality)
    report.update({
        "setup_s": median([rescale(t, p)
                           for t, p in zip(setup_times, setup_probes)]),
        "wall_s": median([rescale(o.wall_s, o.probe_s) for o in untraced]),
        "samples_per_s": median([x / rescale(1.0, o.probe_s)
                                 for x, o in zip(rates, untraced)]),
        "setup_s_measured": median(setup_times),
        "wall_s_measured": median([o.wall_s for o in untraced]),
        "samples_per_s_measured": median(rates),
        "probe_loop_s": median([o.probe_s for o in untraced]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": failed / attempted,
    })

    units, values, shares = END_TO_END, report, None
    if args.trace:
        per_rep = [body_metrics(t) for t in tracers if t is not None]
        values = {name: median([m[name] for m in per_rep])
                  for name in per_rep[0]}
        values["syndata.generate.busy_s"] = setup_tracer.busy("syndata.generate")
        traced_wall = median([o.wall_s for o in traced])
        values["trace.overhead_frac"] = (
            median([rescale(o.wall_s, o.probe_s) for o in traced])
            / report["wall_s"] - 1.0)
        units = PER_LAYER
        # Share of the traced body for per-body times (not set-up, not the
        # per-epoch medians).
        shares = {name: values[name] / traced_wall
                  for name, unit in units.items() if unit == "s"
                  and not name.startswith(("syndata.generate", "training.epoch"))}

    for name in sorted(report):
        print(f"{args.workload:7s} {name:34s} {report[name]:.6g} "
              f"{END_TO_END.get(name) or EXTRA_UNITS[name]}")
    if args.trace:
        for name, unit in units.items():
            share = f"  ({shares[name]:.1%})" if name in shares else ""
            print(f"{args.workload:7s} {name:34s} {values[name]:.6g} "
                  f"{unit}{share}")
    for c in check.results:
        print(f"{args.workload:7s} check {'ok  ' if c['ok'] else 'FAIL'} "
              f"{c['check']} {c['detail']}".rstrip())
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "wall_s_reps": [o.wall_s for o in untraced],
        "probe_loop_s_reps": [o.probe_s for o in untraced],
        "setup_s_reps": setup_times,
        "setup_probe_loop_s_reps": setup_probes,
        "env": environment(nproc, cpu), "checks": check.results,
        "report": report, "layers": values if args.trace else None,
        "layer_shares": shares}))
    print(json.dumps({
        "correct": check.ok, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if check.ok else 1


def run_all(args):
    """Each workload in its own process, so peak memory is its own."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)])
        status = status or proc.returncode
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
