#!/usr/bin/env python3
"""A/A steadiness tool for the session benchmark.

Runs workloads repeatedly on the same code, one seed per run, and prints
for every metric its median, quartiles, inter-quartile spread and
max/min spread. With ``--sets 2`` it makes two sets of runs and also
prints how far the second median moved from the first. Spreads and
shifts are compared with the bounds in ``BENCHMARK.json``: every spread
must stay within the bound and should stay below a third of it, and the
second median may not move from the first by more than the bound, in
either direction.

Run it from the repository root:

    python3 sessbench/aa.py --workload oracle --runs 5
    python3 sessbench/aa.py --workload all --runs 10 --sets 2

It exits 1 when a bound is exceeded and 2 when a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_spec(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    took = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"run failed: {' '.join(argv)} (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"incorrect run: {' '.join(argv)}: {lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}, took


def spread(values):
    """(median, q1, q3, IQR share of the median, max/min - 1)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    iqr = (q3 - q1) / med if med else float("inf") if q3 != q1 else 0.0
    lo, hi = min(values), max(values)
    maxmin = hi / lo - 1 if lo > 0 else float("inf") if hi != lo else 0.0
    return med, q1, q3, iqr, maxmin


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (negative if better).

    Which set comes second is chance, so the verdict below judges the
    size of this shift, not its sign."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", required=True,
                    help="workload name, repeatable, or 'all'")
    ap.add_argument("--runs", type=int, default=5, help="runs per set")
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--seed0", type=int, default=1, help="first seed")
    ap.add_argument("--seconds", type=float, help="override run_seconds")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--spec", default="BENCHMARK.json")
    ap.add_argument("--values", action="store_true", help="also print every run's value")
    ap.add_argument("--command", help="run this command instead of the spec's (e.g. a built binary)")
    args = ap.parse_args()

    spec = load_spec(args.spec)
    command = args.command.split() if args.command else spec["command"]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]] if "all" in args.workload else args.workload
    metrics = spec["end_to_end"] if args.trace == 0 else [
        dict(m, bound=None) for m in spec["per_layer"]]

    ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.seed0 + s * args.runs + i
                values, took = run_once(command, workload, seed, seconds, args.trace)
                runs.append(values)
                print(f"  {workload} set {s + 1} seed {seed}: {took:.1f} s", file=sys.stderr)
            sets.append(runs)
        print(f"\n{workload}: {args.runs} runs x {args.sets} set(s), {seconds} s each")
        print(f"  {'metric':<28}{'set':>4}{'median':>12}{'q1':>12}{'q3':>12}{'iqr%':>8}{'max/min%':>10}"
              f"{'shift%':>8}{'bound%':>8}  verdict")
        for m in metrics:
            name, bound = m["name"], m.get("bound")
            stats = [spread([r[name] for r in runs]) for runs in sets]
            shift = worse_by(stats[0][0], stats[1][0], m["better"]) if len(stats) > 1 and "better" in m else None
            verdict = ""
            if bound is not None:
                iqr_worst = max(st[3] for st in stats)
                if iqr_worst > bound:
                    verdict, ok = "SPREAD>BOUND", False
                elif shift is not None and abs(shift) > bound:
                    verdict, ok = "SHIFT>BOUND", False
                elif iqr_worst > bound / 3:
                    verdict = "spread>bound/3"
                else:
                    verdict = "ok"
            for s, (med, q1, q3, iqr, maxmin) in enumerate(stats):
                last = s == len(stats) - 1
                shift_s = f"{100 * shift:8.2f}" if last and shift is not None else f"{'':>8}"
                bound_s = f"{100 * bound:8.1f}" if last and bound is not None else f"{'':>8}"
                label = name if s == 0 else ""
                print(f"  {label:<28}{s + 1:>4}{med:12.5g}{q1:12.5g}{q3:12.5g}{100 * iqr:8.2f}"
                      f"{100 * maxmin:10.2f}{shift_s}{bound_s}  {verdict if last else ''}")
                if args.values:
                    print(f"  {'':<32}" + " ".join(f"{r[name]:.5g}" for r in sets[s]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
