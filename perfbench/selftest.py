#!/usr/bin/env python3
"""Self-test of the kreg benchmark, in a quick mode.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json briefly (1 s each) and checks:
  1. every named metric is printed, with its unit: the end-to-end ones
     untraced, the per-layer ones traced, and no others;
  2. two invocations with one seed generate identical inputs and serve
     scripts, and another seed different ones;
  3. a deliberately corrupted result is caught by the output check: the run
     reports it as failed and exits nonzero.
It also checks that perfbench/layers.json describes exactly the workloads
and metrics of BENCHMARK.json. Exits nonzero on any failure.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())
QUICK = ["--seconds", "1"]

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(*args):
    return subprocess.run([sys.executable, str(RUN), *args],
                          capture_output=True, text=True, timeout=900)


def result_line(done):
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_metrics(workload, trace):
    done = run("--workload", workload, "--seed", "5", "--trace", str(trace),
               *QUICK)
    check(done.returncode == 0, f"{workload} trace={trace}: exit 0 "
          f"(got {done.returncode}; {done.stderr.strip()[-300:]})")
    result = result_line(done)
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    got = result["metrics"] if result else {}
    check(set(got) == {m["name"] for m in wanted},
          f"{workload} trace={trace}: exactly the {len(wanted)} named metrics")
    for m in wanted:
        entry = got.get(m["name"], {})
        printed = any(line.split()[:1] == [m["name"]] and
                      (m["unit"] in line.split() or "n/a" in line)
                      for line in done.stdout.splitlines())
        check(entry.get("unit") == m["unit"] and
              isinstance(entry.get("value"), (int, float)) and printed,
              f"{workload} trace={trace}: {m['name']} printed in {m['unit']}")
    check(bool(result) and result["correct"] and result["failed"] == 0,
          f"{workload} trace={trace}: correct, no failures")


def check_inputs(workload):
    def dump(seed):
        return run("--workload", workload, "--seed", seed, "--dump-inputs",
                   *QUICK)
    first, second, other = dump("11"), dump("11"), dump("12")
    check(first.returncode == 0 and first.stdout.strip() != "" and
          first.stdout == second.stdout,
          f"{workload}: one seed, identical inputs and script")
    check(other.stdout != first.stdout,
          f"{workload}: another seed, other inputs and script")


def check_corruption(workload):
    done = run("--workload", workload, "--seed", "5", "--trace", "0",
               "--corrupt", *QUICK)
    result = result_line(done)
    check(done.returncode != 0 and bool(result) and not result["correct"] and
          result["failed"] >= 1,
          f"{workload}: a corrupted output is caught (exit {done.returncode})")


def main():
    check(set(LAYERS["per_layer"]) == {m["name"] for m in BENCH["per_layer"]},
          "layers.json covers exactly the per-layer metrics")
    check(set(LAYERS["workloads"]) == {w["name"] for w in BENCH["workloads"]},
          "layers.json covers exactly the workloads")
    check(set(LAYERS["end_to_end"]) ==
          {m["name"] for m in BENCH["end_to_end"]},
          "layers.json covers exactly the end-to-end metrics")
    for w in BENCH["workloads"]:
        check_inputs(w["name"])
        check_metrics(w["name"], 0)
        check_metrics(w["name"], 1)
        check_corruption(w["name"])
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
