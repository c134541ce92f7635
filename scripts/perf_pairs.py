#!/usr/bin/env python3
"""Same-host A/B perf gate: the merge base against the working tree.

    python3 scripts/perf_pairs.py

Run it from anywhere in a checkout; it takes no flags.  The base is
`git merge-base HEAD main`, exported with `git archive` into
build-perf/base-src.  Both sides are measured on this host, in alternating
pairs, so the verdict never depends on which machine runs it.

1. Exactness.  Both sides' `zerodeg` CLIs run the same censuses at the
   held-out base seed 20110219 (the archive workload and `--workload
   traffic`) with `--checkpoint`; stdout and journal must be byte-identical.
2. Speed.  For every workload BENCHMARK.json declares, PAIRS pairs of
   untraced `perfbench/run.py` runs, base and tree built into
   build-perf/base and build-perf/tree, the two sides taking turns to run
   first and sharing the pair's seed.

The gate fails when a run exits non-zero or reports `correct: false`, when
the censuses differ, or when an end-to-end metric's median pair ratio,
oriented so that above 1 is worse, is past its BENCHMARK.json bound *and*
the tree is worse in every pair.  The second condition keeps a metric with
a wide run-to-run spread gated without letting one noisy pair fail it.  A
workload with such a metric runs PAIRS more pairs, and the verdict is taken
over all of them: by chance alone, a metric is worse in all of one round's
pairs once in 2**PAIRS, and `setup_s` spreads enough that it then often
lies past its bound too.

Pair medians go to build-perf/pairs.json in the layout of the committed
BENCH_<pr>.json files.
"""
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "build-perf")
PAIRS = 8
SECONDS = 10
HELD_OUT_SEED = "20110219"
CENSUS_SEEDS = "16"
CENSUSES = {"archive": [], "traffic": ["--workload", "traffic"]}


def log(line):
    print("perf_pairs: " + line, file=sys.stderr, flush=True)


def export_base(sha):
    """Unpack the base commit into build-perf/base-src, unless it is there."""
    src = os.path.join(OUT, "base-src")
    stamp = os.path.join(src, ".base-commit")
    if os.path.isfile(stamp) and open(stamp).read() == sha:
        return src
    shutil.rmtree(src, ignore_errors=True)
    os.makedirs(src)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", src], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise RuntimeError("git archive %s failed" % sha)
    with open(stamp, "w") as f:
        f.write(sha)
    return src


def build_cli(side, src):
    build = os.path.join(OUT, side + "-cli")
    with open(build + ".log", "w") as out:
        for step in (["cmake", "-S", src, "-B", build],
                     ["cmake", "--build", build, "-j", str(os.cpu_count() or 1),
                      "--target", "zerodeg"]):
            if subprocess.run(step, stdout=out, stderr=out).returncode != 0:
                raise RuntimeError("%s: '%s' failed; see %s.log" % (side, " ".join(step), build))
    return os.path.join(build, "tools", "zerodeg")


def census(side, cli, name, extra):
    """One held-out census from scratch; returns its stdout and journal bytes."""
    journal = os.path.join(OUT, "%s-%s.journal" % (side, name))
    if os.path.exists(journal):
        os.remove(journal)
    proc = subprocess.run([cli, "census", "--base-seed", HELD_OUT_SEED, "--seeds", CENSUS_SEEDS,
                           "--jobs", "4", "--checkpoint", journal] + extra,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if proc.returncode != 0:
        raise RuntimeError("%s %s census exited %d: %s"
                           % (side, name, proc.returncode, proc.stderr.decode()[-500:]))
    with open(journal, "rb") as f:
        return proc.stdout, f.read()


def perf_run(side, src, workload, seed):
    """One untraced perfbench run; returns its JSON result, or None if it failed."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(OUT, side))
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    with open(os.path.join(OUT, side + ".log"), "a") as err:
        proc = subprocess.run(cmd, cwd=src, env=env, stdout=subprocess.PIPE, stderr=err,
                              text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("%s %s seed %d exited %d; see build-perf/%s.log"
            % (side, workload, seed, proc.returncode, side))
        return None
    return json.loads(lines[-1])


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs]


def verdict(metric, base, tree):
    """The median pair ratio, oriented so that above 1 is worse, the number of
    pairs the tree is worse in, and whether the metric fails."""
    worse = [t / b if metric["better"] == "lower" else b / t for b, t in zip(base, tree)]
    med = statistics.median(worse)
    worse_in = sum(w > 1 for w in worse)
    return med, worse_in, med > 1 + metric["bound"] and worse_in == len(worse)


def fails(sides_runs, metrics):
    return any(verdict(m, values(sides_runs["base"], m["name"]),
                       values(sides_runs["tree"], m["name"]))[2] for m in metrics)


def summary(runs, metrics):
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {m["name"]: {"value": statistics.median(values(runs, m["name"])),
                                "unit": m["unit"]} for m in metrics},
    }


def judge(workload, base_runs, tree_runs, metrics, failures):
    """Pair ratios of one workload; appends a line to failures per failing metric."""
    ratio_median, parent_iqr = {}, {}
    for m in metrics:
        name = m["name"]
        base, tree = values(base_runs, name), values(tree_runs, name)
        ratio_median[name] = round(statistics.median(t / b for b, t in zip(base, tree)), 4)
        q1, _, q3 = statistics.quantiles(base, n=4)
        parent_iqr[name] = float("%.4g" % (q3 - q1))
        med, worse_in, failed = verdict(m, base, tree)
        if failed:
            failures.append("%s %s: %.1f%% worse in the median pair (bound %.0f%%), "
                            "worse in all %d pairs" % (workload, name, 100 * (med - 1),
                                                       100 * m["bound"], len(base)))
        log("%-8s %-12s median worse-ratio %.4f, worse in %d/%d pairs  %s"
            % (workload, name, med, worse_in, len(base), "FAIL" if failed else "ok"))
    return ratio_median, parent_iqr


def run_pairs(sides, workloads, pairs, runs, start):
    """Runs the given pairs (0-based) of each workload into runs; False if a run failed."""
    for pair in pairs:
        seed = pair + 1
        order = ("base", "tree") if pair % 2 == 0 else ("tree", "base")
        for workload in workloads:
            for side in order:
                result = perf_run(side, sides[side], workload, seed)
                if result is None:
                    log("FAIL: %s %s seed %d did not finish" % (side, workload, seed))
                    return False
                if not result["correct"]:
                    log("FAIL: %s %s seed %d reported correct: false (%d of %d cells failed)"
                        % (side, workload, seed, result["failed"], result["attempted"]))
                    return False
                runs[workload][side].append(result)
        log("pair %d done (%.0f s)" % (pair + 1, time.monotonic() - start))
    return True


def main():
    start = time.monotonic()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    workloads = [w["name"] for w in declared["workloads"]]
    metrics = declared["end_to_end"]
    os.makedirs(OUT, exist_ok=True)
    for side in ("base", "tree"):
        open(os.path.join(OUT, side + ".log"), "w").close()

    sha = subprocess.run(["git", "-C", ROOT, "merge-base", "HEAD", "main"], check=True,
                         stdout=subprocess.PIPE, text=True).stdout.strip()
    sides = {"base": export_base(sha), "tree": ROOT}
    log("base %s (git merge-base HEAD main) against the working tree" % sha[:12])

    clis = {side: build_cli(side, src) for side, src in sides.items()}
    for name, extra in CENSUSES.items():
        outs = {side: census(side, cli, name, extra) for side, cli in clis.items()}
        if outs["base"] != outs["tree"]:
            log("FAIL: held-out %s census (--base-seed %s --seeds %s) differs from the base; "
                "compare build-perf/base-%s.journal with build-perf/tree-%s.journal"
                % (name, HELD_OUT_SEED, CENSUS_SEEDS, name, name))
            return 1
        log("held-out %s census: stdout and journal byte-identical" % name)

    runs = {w: {"base": [], "tree": []} for w in workloads}
    if not run_pairs(sides, workloads, range(PAIRS), runs, start):
        return 1
    suspect = [w for w in workloads if fails(runs[w], metrics)]
    if suspect:
        log("%s past a bound in every pair; confirming with %d more pairs"
            % (", ".join(suspect), PAIRS))
        if not run_pairs(sides, suspect, range(PAIRS, 2 * PAIRS), runs, start):
            return 1

    failures = []
    doc = {
        "what": "Pair medians of the end-to-end perfbench metrics: the merge base %s "
                "(parent) against the working tree (change)." % sha,
        "protocol": "scripts/perf_pairs.py: python3 perfbench/run.py --workload W --seed S "
                    "--seconds %d --trace 0, parent and change alternating which runs first. "
                    "parent/change hold perfbench's JSON with each metric's median over the "
                    "runs and attempted/failed summed over them; pair_ratio_median is the "
                    "median over the pairs of change/parent." % SECONDS,
        "workloads": {},
    }
    for workload in workloads:
        base_runs, tree_runs = runs[workload]["base"], runs[workload]["tree"]
        ratio_median, parent_iqr = judge(workload, base_runs, tree_runs, metrics, failures)
        doc["workloads"][workload] = {
            "pairs": len(base_runs),
            "seeds": [str(s + 1) for s in range(len(base_runs))],
            "parent": summary(base_runs, metrics),
            "change": summary(tree_runs, metrics),
            "pair_ratio_median": ratio_median,
            "parent_iqr": parent_iqr,
        }
    doc["failures"] = failures
    with open(os.path.join(OUT, "pairs.json"), "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")

    log("pair medians written to build-perf/pairs.json (%.0f s)" % (time.monotonic() - start))
    for line in failures:
        log("FAIL: " + line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
