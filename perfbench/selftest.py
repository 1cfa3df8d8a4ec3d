#!/usr/bin/env python3
"""Self-test of the benchmark. Runs in about half a minute:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it makes a short untraced and a short
traced run and checks that the result line names exactly the end-to-end
(resp. per-layer) metrics with their units, that the run was correct, and
that span coverage is at least 0.95. It then makes the wrapper answer
wrongly on purpose and checks that the oracle catches it: the run must fail
with "correct": false and a non-zero "failed" count. Exits 0 when every
check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace, seconds=1, inject_wrong=0):
    command = [sys.executable, RUN, "--workload", workload, "--seed", "11",
               "--seconds", str(seconds), "--trace", str(trace)]
    if inject_wrong:
        command += ["--inject-wrong", str(inject_wrong)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result, done.stderr


def check_metrics(label, result, declared):
    metrics = result["metrics"]
    check(set(metrics) == set(declared),
          "%s names exactly the declared metrics (missing %s, extra %s)" %
          (label, sorted(set(declared) - set(metrics)),
           sorted(set(metrics) - set(declared))))
    for name, unit in declared.items():
        if name in metrics:
            check(metrics[name].get("unit") == unit and
                  isinstance(metrics[name].get("value"), (int, float)),
                  "%s prints %s in %s" % (label, name, unit))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check("setup_s" in end_to_end, "BENCHMARK.json declares setup_s")
    check(all(m["bound"] <= 0.25 for m in spec["end_to_end"]),
          "every end-to-end bound is at most 0.25")
    check(all(len(w["why"]) <= 200 for w in spec["workloads"]),
          "every workload reason fits in 200 characters")

    for workload in (w["name"] for w in spec["workloads"]):
        code, result, err = run(workload, 0)
        check(code == 0 and result is not None and result["correct"] and
              result["failed"] == 0 and result["attempted"] >= 1,
              "%s untraced run is correct (exit %d)%s" %
              (workload, code, "" if code == 0 else ": " + err[-500:]))
        if result is not None:
            check_metrics(workload + " untraced", result, end_to_end)
            check(all(m["value"] > 0 for m in result["metrics"].values()),
                  "%s end-to-end metrics are all non-zero" % workload)

        code, result, err = run(workload, 1, seconds=2)
        check(code == 0 and result is not None and result["correct"],
              "%s traced run is correct (exit %d)%s" %
              (workload, code, "" if code == 0 else ": " + err[-500:]))
        if result is not None:
            check_metrics(workload + " traced", result, per_layer)
            coverage = result["metrics"].get("bench.span_coverage_frac", {})
            check(coverage.get("value", 0) >= 0.95,
                  "%s span coverage %s >= 0.95" %
                  (workload, coverage.get("value")))

        code, result, _ = run(workload, 0, inject_wrong=5)
        check(code != 0 and result is not None and not result["correct"] and
              result["failed"] > 0,
              "%s: a deliberately wrong response is caught (exit %d, failed %s)"
              % (workload, code, result and result["failed"]))

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
