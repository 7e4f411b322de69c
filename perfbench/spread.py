"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]
                                [--seconds S]

Runs ``run.py`` once per seed, one run at a time, and prints for every
end-to-end metric the median across runs, the quartile spread
(Q3 - Q1) / median, the highest percentile with at least ten runs above
it, and the run count, next to the metric's bound from BENCHMARK.json.
A spread under a third of the bound counts as steady (setup_s aside, whose
bound limits only the change of its median).  The per-run results go to
.perfbench_out/spread-NAME.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import OUT_DIR, ROOT, load_spec, tail_percentile


def quartile_spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="perfbench/spread.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        print(f"seed {seed}: " + ", ".join(
            f"{k} {v['value']:.5g}" for k, v in result["metrics"].items())
            + f"; failed {result['failed']}/{result['attempted']}",
            flush=True)

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"spread-{args.workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    steady = True
    print(f"{'metric':<14}{'median':>12}{'spread':>9}{'bound':>7}  tail")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        spread = quartile_spread(values)
        tail = tail_percentile(values)
        ok = m["name"] == "setup_s" or spread < m["bound"] / 3
        steady &= ok
        print(f"{m['name']:<14}{statistics.median(values):>12.5g}"
              f"{spread:>9.4f}{m['bound']:>7}  "
              + (f"p{tail[0]} {tail[1]:.5g}" if tail else "-")
              + f"  n={len(values)}" + ("" if ok else "  NOT STEADY"))
    print("all failed counts zero:", all(r["failed"] == 0 for r in results))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
