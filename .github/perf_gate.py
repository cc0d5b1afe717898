#!/usr/bin/env python3
"""End-to-end performance gate: pmsbench built from a parent and a change.

Usage, from the root of the change's checkout:

    python3 .github/perf_gate.py PARENT_PMSBENCH CHANGE_PMSBENCH

Every workload BENCHMARK.json names runs PAIRS times on each binary, for
SECONDS each with seed SEED, alternating which side runs first. Each run's
last stdout line is pmsbench's result object. The gate prints one row per
(workload, end-to-end metric) and exits 1 when

* a change run reports `"correct": false`;
* the change fails a larger share of its attempted operations than the
  parent; or
* a metric's change median is worse than the parent median by more than
  the metric's bound and by more than the parent runs' own range
  (max - min, over the parent median).

A metric past its bound but within the parent's range is `unresolved`:
three short runs of one binary can spread wider than a bound (with the
same binary on both sides, on a 2-vCPU VM, multistage1024 setup_s read
+25.4 % against a 25 % bound, with a 55 % parent range), so a bare
median-against-bound rule fails changes that alter nothing.
"""

import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 3
SECONDS = 2
SEED = 0

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run(binary, workload):
    """One pmsbench run: its parsed result line."""
    cmd = [binary, "--workload", workload, "--seconds", str(SECONDS), "--seed", str(SEED)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"{' '.join(cmd)}: no result line (exit {out.returncode})\n{out.stderr}")


def relative(delta, base):
    """`delta` as a fraction of `base`."""
    if base == 0:
        return 0.0 if delta == 0 else math.copysign(math.inf, delta)
    return delta / abs(base)


def main(argv):
    if len(argv) != 3:
        print(f"usage: {argv[0]} PARENT_PMSBENCH CHANGE_PMSBENCH", file=sys.stderr)
        return 2
    parent_bin, change_bin = argv[1], argv[2]
    bench = json.loads(BENCHMARK.read_text())

    failures = []
    print(f"{'workload':<16} {'metric':<16} {'parent':>12} {'change':>12} "
          f"{'worse':>8} {'bound':>6} {'range':>7}  verdict")
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                runs[side].append(run(parent_bin if side == "parent" else change_bin, workload))

        if not all(r["correct"] for r in runs["change"]):
            failures.append(f"{workload}: a change run reported correct: false")

        def failed_share(side):
            return sum(r["failed"] for r in runs[side]) / sum(r["attempted"] for r in runs[side])

        if failed_share("change") > failed_share("parent"):
            failures.append(f"{workload}: failed share {failed_share('change'):.3g} "
                            f"> parent {failed_share('parent'):.3g}")

        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
            parent, change = (statistics.median(values[s]) for s in ("parent", "change"))
            worse = relative(change - parent if metric["better"] == "lower" else parent - change, parent)
            spread = relative(max(values["parent"]) - min(values["parent"]), parent)
            if worse <= bound:
                verdict = "ok"
            elif worse <= spread:
                verdict = "unresolved"
            else:
                verdict = "FAIL"
                failures.append(f"{workload} {name}: {worse:+.1%} worse, bound {bound:.0%}, "
                                f"parent range {spread:.0%}")
            print(f"{workload:<16} {name:<16} {parent:>12.6g} {change:>12.6g} "
                  f"{worse:>+8.1%} {bound:>6.0%} {spread:>7.1%}  {verdict}", flush=True)

    for f in failures:
        print(f"perf gate: {f}")
    print(f"perf gate: {'FAIL' if failures else 'pass'} "
          f"({PAIRS} pairs x {SECONDS} s per workload, seed {SEED})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
