#!/usr/bin/env python3
"""The benchmark's own test: every workload at tiny n, in seconds.

    python3 perfbench/smoke_test.py

Runs each workload in `--smoke` mode (same code paths, small instances)
untraced and traced, and checks that every op passes its gate, that the
result line carries exactly the metrics BENCHMARK.json lists, that the
determinism digest repeats at a seed and changes with the seed, and that the
traced plan pipeline's layers cover its op.  Exit code 1 on any failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", "1", "--trace", str(trace),
                              "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise AssertionError("%s exited %d" % (" ".join(cmd), done.returncode))
    lines = done.stdout.strip().split("\n")
    digest = [l for l in lines if l.startswith("digest=")]
    return json.loads(lines[-1]), digest[0] if digest else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []

    def check(cond, what):
        if not cond:
            errors.append(what)
            print("FAIL " + what)

    for w in (w["name"] for w in bench["workloads"]):
        digests = {}
        for trace, metrics in ((0, bench["end_to_end"]),
                               (1, bench["per_layer"])):
            for seed in (1, 1, 2):
                res, digest = run(bench, w, seed, trace)
                tag = "%s trace=%d seed=%d" % (w, trace, seed)
                check(res["correct"] and res["failed"] == 0
                      and res["attempted"] >= 1, tag + ": ops pass their gates")
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                want = {m["name"]: m["unit"] for m in metrics}
                check(got == want, tag + ": metric names and units")
                if trace == 0:
                    check(all(v["value"] > 0 for v in res["metrics"].values()),
                          tag + ": end-to-end metrics are positive")
                digests.setdefault(seed, set()).add(digest)
                if w == "plan_200k" and trace == 1:
                    cov = res["metrics"]["plan.trace_coverage"]["value"]
                    check(0.85 <= cov <= 1.15,
                          tag + ": layer p50s cover the traced op (%.3f)" % cov)
        check(len(digests[1]) == 1, w + ": digest repeats at a seed")
        check(digests[1].isdisjoint(digests[2]),
              w + ": digest changes with seed")
        print("%s: %s" % (w, "ok" if not errors else "errors so far: %d"
                          % len(errors)), flush=True)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
