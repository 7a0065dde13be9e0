#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Run from the repository root (it builds through run.py like any run).
For each workload, at reduced network size (--scale small) and a short
window, it checks that:

  * the run exits 0 and its last stdout line is the result object with
    exactly the keys correct / attempted / failed / metrics;
  * every end-to-end metric (--trace 0) or per-layer metric (--trace 1)
    that BENCHMARK.json names is present, with the unit BENCHMARK.json
    gives, and nothing else;
  * the outputs are correct and nothing failed (failed_frac is 0);
  * every end-to-end value is finite and positive.

Then, for each output check, it perturbs one bound in the check's
comparison (--perturb) and shows that the run fails with that check named.
Last, it shows that a tree holding only BENCHMARK.json and the benchmark's
own directory exits non-zero without printing a result.
Exits 0 when everything holds.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"
SEED = "1"
# check name (as --perturb spells it) -> workload it lives in
CHECKS = {
    "digest": "full_analysis",
    "combined": "full_analysis",
    "whatif": "whatif_local",
    "sweep": "fault_sweep",
    "ladder": "ladder_budget",
}


def run(workload, trace, extra=(), cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", SEED, "--seconds", SECONDS,
           "--trace", trace, "--scale", "small", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            errors.append(what)

    for w in (w["name"] for w in bench["workloads"]):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            label = "%s --trace %s" % (w, trace)
            proc = run(w, trace)
            res = result_of(proc)
            expect(proc.returncode == 0 and res is not None,
                   "%s exits 0 with a result line" % label)
            if res is None:
                print(proc.stderr[-2000:])
                continue
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                   "%s result has exactly the four keys" % label)
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            expect(got == want, "%s reports every %s metric with its unit" % (label, key))
            expect(res["correct"] is True, "%s outputs are correct" % label)
            expect(res["attempted"] >= 1 and res["failed"] == 0,
                   "%s failed_frac is 0 (%d of %d failed)"
                   % (label, res["failed"], res["attempted"]))
            if trace == "1":
                expect(res["metrics"].get("failed_frac", {}).get("value") == 0,
                       "%s per-layer failed_frac is 0" % label)
            else:
                bad = [k for k, v in res["metrics"].items()
                       if not (math.isfinite(v["value"]) and v["value"] > 0)]
                expect(not bad, "%s end-to-end values are finite and positive %s"
                       % (label, bad or ""))

    for check, w in CHECKS.items():
        proc = run(w, "0", ("--perturb", check))
        res = result_of(proc)
        expect(proc.returncode != 0 and res is not None and res["correct"] is False
               and ("check failed: %s:" % check) in proc.stderr,
               "perturbing one bound trips the '%s' check of %s" % (check, w))

    # A tree with only BENCHMARK.json and the benchmark directory.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                        ignore=shutil.ignore_patterns("__pycache__"))
    env_dir = os.environ.pop("CARGO_TARGET_DIR", None)
    try:
        proc = run(bench["workloads"][0]["name"], "0", cwd=bare)
    finally:
        if env_dir is not None:
            os.environ["CARGO_TARGET_DIR"] = env_dir
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and result_of(proc) is None,
           "a tree without the analyzer sources exits non-zero without a result")

    print("%d failure(s)" % len(errors))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
