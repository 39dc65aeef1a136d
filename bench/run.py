"""Benchmark entry point: run one workload for a fixed time and print its
metrics.

    python3 bench/run.py --workload s7-principal --seed 0 --seconds 40 --trace 0

Run from the repository root; blockperm is imported from ./src.  The run
times fresh-interpreter set-ups, half before and half after the passes so
that they sample the whole run, and asks the workload's questions in passes
(each from fresh group objects) while the next pass still fits in
--seconds, always at least one.  The inputs depend on --seed alone; pass k
hands blockperm's randomized calls the seed --seed + k, so that a run's
median pass is not one seed's luck.  Every answer is checked.  With --trace 0
the end-to-end metrics are printed; with --trace 1 the in-process set-up
and one pass run traced, then one pass runs untraced for the tracing
overhead, and the per-layer metrics are printed and the spans written to
bench/out/.  The last line of output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The exit code is 0
only when every answer was correct.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_DIR, "src")
SETUP_SAMPLES = 12


def blas_threads():
    """BLAS threads: at most nproc, and recorded in the result."""
    nproc = os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var, "").isdigit():
            return min(int(os.environ[var]), nproc)
    return nproc


def git_commit():
    """The commit of a git checkout, read from .git without running git;
    None outside a git repository."""
    git = os.path.join(REPO_DIR, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args, threads):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": threads,
        "python": platform.python_version(), "numpy": np.__version__,
        "commit": git_commit(),
    }


def setup_samples(workload, count):
    """Times of count set-ups, each in a fresh interpreter.

    The probes start one BLAS thread: with two, the thread pool OpenBLAS
    starts at import takes 0.1 s or 0.2 s depending on whether the second
    core is free, which swamps the rest of a 0.1-0.7 s set-up."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"),
           "--fields", *workload.fields, "--groups", *workload.groups]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    samples = []
    for _ in range(count):
        out = subprocess.run(cmd, capture_output=True, text=True, env=env,
                             check=True, timeout=120)
        samples.append(float(out.stdout.split()[-1]))
    return samples


def null_span(_name):
    return contextlib.nullcontext()


def timed_pass(wl, inputs, seed, span=null_span):
    from workloads import run_pass
    t0 = time.perf_counter()
    tally = run_pass(wl, inputs, seed, span)
    return time.perf_counter() - t0, tally


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC_DIR, "blockperm", "__init__.py")):
        print("bench: no blockperm sources under %s" % SRC_DIR,
              file=sys.stderr)
        return 2
    threads = blas_threads()
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    sys.path[:0] = [SRC_DIR, BENCH_DIR]
    import blockperm
    if not os.path.abspath(blockperm.__file__).startswith(SRC_DIR + os.sep):
        print("bench: blockperm was imported from %s, not from %s"
              % (blockperm.__file__, SRC_DIR), file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print("bench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(args, threads), sort_keys=True))
    wl = workloads.WORKLOADS[args.workload]()
    inputs = wl.make_inputs(args.seed)
    if args.trace:
        metrics, tallies = traced_run(wl, inputs, args)
    else:
        metrics, tallies = untraced_run(wl, inputs, args)

    attempted = sum(t.attempted for t in tallies)
    failures = [f for t in tallies for f in t.failures]
    for qid, detail in failures:
        print("FAIL %s: %s" % (qid, detail))
    print("answers: %d attempted, %d failed (fail_frac %.4g)"
          % (attempted, len(failures), len(failures) / attempted))
    for name, (value, unit) in metrics.items():
        print("%s = %r %s" % (name, value, unit))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def in_process_setup(wl):
    """Build the workload's fields and parse its groups, so that no pass
    pays for field tables."""
    from blockperm import gfq
    from blockperm.permgrp import parse_group
    for spec in wl.fields:
        gfq.GF.parse(spec)
    for spec in wl.groups:
        parse_group(spec)


def untraced_run(wl, inputs, args):
    setup = setup_samples(wl, SETUP_SAMPLES // 2)
    in_process_setup(wl)
    walls, tallies = [], []
    start = time.perf_counter()
    while True:
        wall, tally = timed_pass(wl, inputs, args.seed + len(walls))
        walls.append(wall)
        tallies.append(tally)
        print("pass %d: %.3f s, %d/%d answers correct"
              % (len(walls), wall, tally.attempted - len(tally.failures),
                 tally.attempted))
        elapsed = time.perf_counter() - start
        if elapsed + max(walls) > args.seconds:
            break
    setup += setup_samples(wl, SETUP_SAMPLES - len(setup))
    print("set-ups: " + " ".join("%.3f" % t for t in setup))
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    return metrics, tallies


def traced_run(wl, inputs, args):
    """In-process set-up and one pass under the tracer, then one untraced
    pass of the same inputs for the tracing overhead."""
    import layers
    import workloads
    from tracer import Tracer

    tracer = Tracer()
    layers.instrument(tracer)
    try:
        t0 = time.perf_counter()
        in_process_setup(wl)
        t1 = time.perf_counter()
        traced_wall, traced = timed_pass(wl, inputs, args.seed, tracer.span)
        t2 = time.perf_counter()
    finally:
        tracer.restore()
    plain_wall, plain = timed_pass(wl, inputs, args.seed)
    print("traced pass: %.3f s after %.3f s set-up; untraced pass: %.3f s"
          % (traced_wall, t1 - t0, plain_wall))
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.save(os.path.join(out_dir, "spans-%s-seed%d.npz"
                             % (args.workload, args.seed)), (t0, t2))
    metrics = layers.per_layer_metrics(tracer, workloads.CHECK_SPANS, t2 - t0)
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["trace.spans"] = (len(tracer.starts), "count")
    return metrics, [traced, plain]


if __name__ == "__main__":
    sys.exit(main())
