"""Run the benchmark over several seeds and summarise every metric.

    python3 bench/record.py --seeds 0-9 --out bench/baselines/BENCH_1.json

Each run is a separate `python3 bench/run.py` process, one at a time, with
the run length from BENCHMARK.json.  For each
workload and end-to-end metric the summary gives the median, the quartiles
(statistics.quantiles, n=4) and the spread, (q3 - q1) / median.  With
--trace-seed one traced run per workload is added and its per-layer
metrics are recorded as they are.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)


def parse_seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=REPO_DIR, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0][4:]) if lines and lines[0].startswith("env ") \
        else None
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, env, result, proc.stderr


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main(argv=None):
    with open(os.path.join(REPO_DIR, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-9"))
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {"run_seconds": seconds, "seeds": args.seeds,
              "env": None, "workloads": {}}
    ok = True
    for workload in names:
        values = {}
        runs = []
        for seed in args.seeds:
            code, env, result, err = run_once(workload, seed, seconds, 0)
            report["env"] = report["env"] or env
            if code != 0 or not result or not result["correct"]:
                ok = False
                print("%s seed %d: exit %d\n%s" % (workload, seed, code,
                                                   err[-2000:]))
                continue
            runs.append({"seed": seed, **result})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (workload, seed, "  ".join(
                "%s=%.4g" % (k, v["value"])
                for k, v in result["metrics"].items())), flush=True)
        entry = {"runs": runs, "metrics": {}}
        for name, vals in values.items():
            if len(vals) >= 2:
                entry["metrics"][name] = summarise(vals)
                s = entry["metrics"][name]
                print("  %-12s median %.4g  q1 %.4g  q3 %.4g  spread %.3f"
                      " (bound %s)" % (name, s["median"], s["q1"], s["q3"],
                                       s["spread"], bounds.get(name)))
        if args.trace_seed is not None:
            code, _env, result, err = run_once(workload, args.trace_seed,
                                               seconds, 1)
            if code != 0 or not result:
                ok = False
                print("%s traced run failed:\n%s" % (workload, err[-2000:]))
            else:
                entry["traced"] = {"seed": args.trace_seed, **result}
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
