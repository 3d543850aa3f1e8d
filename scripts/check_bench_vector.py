#!/usr/bin/env python3
"""Perf smoke over BENCH_vector.json: the 8-lane batch must beat scalar.

Fails (exit 1) if, at n = 10^5, the C = 8 Epanechnikov cell's elements/s
falls below the scalar sequential sweep's on any design of X in the file —
the regression this guards is the lane-batched gather kernel losing its
vector margin (e.g. the contiguous-run fast path silently breaking).

Usage: check_bench_vector.py [BENCH_vector.json]
"""
import json
import sys


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_vector.json"
    with open(path) as f:
        cells = json.load(f)["cells"]

    n = 100_000
    kernel = "epanechnikov"
    by_design = {}
    for c in cells:
        if c["n"] == n and c["kernel"] == kernel:
            by_design.setdefault(c["design"], {})[c["lane_width"]] = c
    if not by_design:
        print(f"{path}: no n={n} {kernel} cells")
        return 1

    failed = False
    for design, lanes in sorted(by_design.items()):
        if 0 not in lanes or 8 not in lanes:
            print(f"{design} X: missing the scalar or the C=8 cell")
            failed = True
            continue
        scalar_eps = lanes[0]["elements_per_s"]
        batched = lanes[8]
        ratio = batched["elements_per_s"] / scalar_eps
        print(f"{design} X, {kernel} n={n}: scalar {scalar_eps:.3e} elem/s, "
              f"C=8 {batched['elements_per_s']:.3e} elem/s ({ratio:.2f}x)")
        if ratio < 1.0:
            print(f"FAIL: C=8 {kernel} is slower than the scalar "
                  f"sweep on {design} X")
            failed = True
    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
