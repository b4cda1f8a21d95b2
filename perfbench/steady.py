#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py [--runs 10] [--workloads a,b]

Runs two sets of N runs per workload (all workloads of BENCHMARK.json unless
--workloads names some) through the command in BENCHMARK.json, for its
run_seconds, with seeds 1..N (set B reuses set A's seeds, so the determinism
digests must repeat pairwise and differ between seeds).  For every metric it
prints each set's median and quartiles, the spread (q3 - q1) / median, and
the shift of set B's median against set A's in the metric's worse direction,
and says whether they hold within the bounds in BENCHMARK.json: spread
within the bound (setup_s excepted) and shift within the bound.  Raw results
go to .bench_build/steady.json.  Exit code 1 when any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit("run failed: %s (exit %d)" % (" ".join(cmd), done.returncode))
    lines = done.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    digest = next((l.split("=", 1)[1] for l in lines
                   if l.startswith("digest=")), None)
    host = next((l for l in lines if l.startswith("host.")), "")
    return result, digest, host


def stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    seeds = list(range(1, args.runs + 1))

    raw = {}
    for label in ("A", "B"):
        for w in workloads:
            for seed in seeds:
                result, digest, host = run_once(bench, w, seed)
                raw.setdefault(w, {}).setdefault(label, []).append(
                    {"seed": seed, "digest": digest, "result": result})
                vals = " ".join("%s=%.4g" % (k, v["value"])
                                for k, v in result["metrics"].items()
                                if not k.startswith("churn.fallback"))[:160]
                print("%s %-18s seed=%-3d correct=%s %s | %s" % (
                    label, w, seed, result["correct"], host, vals),
                    flush=True)
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "steady.json"), "w") as f:
        json.dump(raw, f, indent=1)

    ok = True
    for w in workloads:
        runs_a, runs_b = raw[w]["A"], raw[w]["B"]
        digests = [r["digest"] for r in runs_a]
        repeat = digests == [r["digest"] for r in runs_b]
        distinct = len(set(digests)) == len(digests)
        correct = all(r["result"]["correct"] and r["result"]["failed"] == 0
                      for r in runs_a + runs_b)
        print("\n%s: correct=%s digests repeat per seed=%s, differ across "
              "seeds=%s" % (w, correct, repeat, distinct))
        ok &= repeat and distinct and correct
        print("  %-26s %-32s %-32s %7s  %s" % (
            "metric", "A median [q1, q3] spread", "B median [q1, q3] spread",
            "shift", "verdict"))
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = stats([r["result"]["metrics"][name]["value"] for r in runs_a])
            b = stats([r["result"]["metrics"][name]["value"] for r in runs_b])
            sign = 1 if m["better"] == "lower" else -1
            shift = sign * (b[0] - a[0]) / a[0] if a[0] else 0.0
            spread_ok = name == "setup_s" or max(a[3], b[3]) <= bound
            good = spread_ok and shift <= bound
            steady = name == "setup_s" or max(a[3], b[3]) < bound / 3
            verdict = "%s (bound %.2f%s)" % (
                "ok" if good else "FAIL", bound,
                "" if steady else ", spread above bound/3")
            ok &= good
            print("  %-26s %-32s %-32s %+7.3f  %s" % (
                name,
                "%.4g [%.4g, %.4g] %.3f" % a,
                "%.4g [%.4g, %.4g] %.3f" % b, shift, verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
