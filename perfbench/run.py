#!/usr/bin/env python3
"""The kreg benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Builds the library and the kreg_serve daemon from the repository root
(Release, KREG_NATIVE=OFF, no tests, benches or examples) and the benchmark
program in perfbench/ into .bench_build/, then runs the workload with every
KREG_* variable removed from the environment (they change plans). Workloads
and metrics are listed in BENCHMARK.json; perfbench/layers.json says how
each is measured and which end-to-end metric each per-layer one should move.

Standard output: a summary, the run's record (commit, build, machine,
parameters, sample counts) as one JSON line, and last the result line
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. The record is also written
to .bench_build/results/ and a traced run's spans to .bench_build/runs/.
Exits 1 when any selection failed or was wrong, 2 when the repository or
the build is missing.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
KREG_BUILD = BUILD / "kreg"
BENCH_BUILD = BUILD / "perfbench"
ISA_FLAGS = ("sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw", "avx512vl")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def clean_env():
    """The environment without KREG_* variables, and the names removed.
    TMPDIR points into the build tree so the compiler's temporary files
    stay inside the checkout."""
    cleared = sorted(k for k in os.environ if k.startswith("KREG_"))
    env = {k: v for k, v in os.environ.items() if k not in cleared}
    env["TMPDIR"] = str(BUILD / "tmp")
    return env, cleared


def run_logged(cmd, env, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(map(str, cmd)) + "\n")
        out.flush()
        done = subprocess.run(cmd, env=env, stdout=out,
                              stderr=subprocess.STDOUT)
    if done.returncode != 0:
        tail = Path(log).read_text().splitlines()[-40:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"build step failed: {' '.join(map(str, cmd))}")


def build(env):
    """Configures (once) and builds the kreg library, kreg_serve and the
    benchmark program. Incremental: an up-to-date tree costs well under a
    second."""
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    if not (KREG_BUILD / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", ROOT, "-B", KREG_BUILD,
                    "-DCMAKE_BUILD_TYPE=Release", "-DKREG_NATIVE=OFF",
                    "-DKREG_BUILD_TESTS=OFF", "-DKREG_BUILD_BENCH=OFF",
                    "-DKREG_BUILD_EXAMPLES=OFF"], env, log)
    run_logged(["cmake", "--build", KREG_BUILD, "-j", jobs,
                "--target", "kreg_serve"], env, log)
    if not (BENCH_BUILD / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", HERE, "-B", BENCH_BUILD,
                    "-DCMAKE_BUILD_TYPE=Release",
                    f"-DKREG_BUILD_DIR={KREG_BUILD}"], env, log)
    run_logged(["cmake", "--build", BENCH_BUILD, "-j", jobs], env, log)


def cmake_cache(build_dir):
    values = {}
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        m = re.match(r"^([A-Za-z_0-9]+):[A-Z]+=(.*)$", line)
        if m:
            values[m.group(1)] = m.group(2)
    return values


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools", "perfbench"):
        files += [p for p in (ROOT / top).rglob("*") if p.is_file()]
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return None


def machine():
    cpu_model, flags = "unknown", set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name" and cpu_model == "unknown":
                cpu_model = value.strip()
            elif key.strip() == "flags" and not flags:
                flags = set(value.split())
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model,
            "isa": [f for f in ISA_FLAGS if f in flags],
            "kernel": platform.release()}


def build_record(env):
    cache = cmake_cache(KREG_BUILD)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True, env=env).stdout.splitlines()
    return {"build_type": cache.get("CMAKE_BUILD_TYPE"),
            "KREG_NATIVE": cache.get("KREG_NATIVE"),
            "compiler": version[0] if version else compiler}


def check_metric_names(result, bench, trace):
    """The metrics must be exactly BENCHMARK.json's list, with its units."""
    wanted = {m["name"]: m["unit"]
              for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(n for n in set(got) & set(wanted)
                       if got[n] != wanted[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}, unit mismatch {units}", code=1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dump-inputs", action="store_true",
                        help="print the generated inputs' digests and exit")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: perturb one output before the check")
    args = parser.parse_args()

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no kreg sources (CMakeLists.txt and src/)")
    if not bench_file.is_file():
        fail(f"{bench_file} is missing")
    bench = json.loads(bench_file.read_text())
    workloads = {w["name"]: w for w in bench["workloads"]}
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; one of {sorted(workloads)}")

    env, cleared = clean_env()
    build(env)
    runs = BUILD / "runs"
    runs.mkdir(exist_ok=True)
    cmd = [str(BENCH_BUILD / "kreg_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--serve-binary", str(KREG_BUILD / "tools" / "kreg_serve"),
           "--run-dir", str(runs)]
    if args.dump_inputs:
        cmd.append("--dump-inputs")
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"kreg_perfbench exceeded {RUN_TIMEOUT_S} s", code=1)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"kreg_perfbench exited {done.returncode}", code=1)
    if args.dump_inputs:
        sys.stdout.write(done.stdout)
        return 0

    result = json.loads(done.stdout.strip().splitlines()[-1])
    check_metric_names(result, bench, args.trace)
    record = result.pop("record")
    record.update({
        "commit": commit(),
        "source_sha256": source_digest(),
        "build": build_record(env),
        "machine": machine(),
        "environment": {"KREG_cleared": cleared,
                        "note": "runs with every KREG_* variable unset"},
        "command": {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace},
        "finished_unix": time.time(),
    })
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**result, "record": record}, indent=1) + "\n")

    attempted, failed = result["attempted"], result["failed"]
    print(f"kreg benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    samples = record["samples"]
    for name, m in result["metrics"].items():
        na = record["not_applicable"].get(name)
        shown = f"n/a ({na})" if na else f"{m['value']:.6g} {m['unit']}"
        print(f"  {name:38s} {shown}   [samples {samples[name]}]")
    print(f"  {'failed_ratio':38s} {failed / attempted:.6g} ratio"
          f"   [{failed} of {attempted} attempted]")
    for why in record["failures"]:
        print(f"  FAILED: {why}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": result["correct"], "attempted": attempted,
                      "failed": failed, "metrics": result["metrics"]}))
    return 0 if result["correct"] and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
