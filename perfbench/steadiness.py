#!/usr/bin/env python3
"""Run the benchmark over many seeds and report how steady it is.

    python3 perfbench/steadiness.py

For every workload BENCHMARK.json declares it makes two sets of ten
untraced runs of the declared length, each run with its own seed (1, 2, ...
in the order the runs are made), and prints, per end-to-end metric, the
median, the first and third quartiles and the quartile spread as a share of
the median -- the figure BENCHMARK.json's bounds are set against.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SETS = 2
RUNS = 10


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError("%s seed %d: outputs incorrect" % (workload, seed))
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        declared = json.load(f)
    seconds = declared["run_seconds"]
    seed = 1
    for s in range(SETS):
        for workload in (w["name"] for w in declared["workloads"]):
            runs = []
            for _ in range(RUNS):
                runs.append(one_run(workload, seed, seconds))
                seed += 1
            print("set %d, %s, %d runs of %d s" % (s + 1, workload, RUNS, seconds))
            for name in runs[0]:
                med, q1, q3, spread = summarize([r[name] for r in runs])
                print("  %-14s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f"
                      % (name, med, q1, q3, spread))
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
