"""Steadiness self-check for the benchmark.

    python3 perfbench/selfcheck.py [--workloads incircuit,dse] [--runs 10]
        [--first-seed 1] [--seconds S]

Runs every workload ``--runs`` times untraced, each time with the next
seed, and prints each end-to-end metric's run-to-run spread -- the
distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median --
against the metric's bound in BENCHMARK.json. A spread above a third of
the bound is flagged; one above the bound fails.

It then runs each workload traced twice with the same seed and checks
that the exact counts (``runtime.cycles``, ``faults.verdicts.*``,
``lab.resyntheses``) repeat exactly, and that every run reports exactly
the metric names and units BENCHMARK.json lists. Exits 1 on any failure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT = ("runtime.cycles", "lab.resyntheses",
         "faults.verdicts.assertion-detected",
         "faults.verdicts.watchdog-detected",
         "faults.verdicts.silent-corruption", "faults.verdicts.benign")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n"
                         f"{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_names(result: dict, declared: list[dict], what: str) -> list[str]:
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    return [] if got == want else [f"{what}: metrics {got} != {want}"]


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    problems: list[str] = []
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for k in range(args.runs):
            seed = args.first_seed + k
            res = run(workload, seed, args.seconds, 0)
            problems += check_names(res, bench["end_to_end"],
                                    f"{workload} seed {seed}")
            if not res["correct"]:
                problems.append(f"{workload} seed {seed}: incorrect "
                                f"({res['failed']}/{res['attempted']} "
                                "failed)")
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
        print(f"\n{workload}: {args.runs} runs, seeds "
              f"{args.first_seed}..{args.first_seed + args.runs - 1}")
        print(f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>8}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]
            flag = "steady" if spread <= bound / 3 else (
                "WIDE" if spread <= bound else "OVER")
            print(f"  {name:<14}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{spread:>9.3f}{bound:>8.2f}  {flag}")
            if flag == "OVER":
                problems.append(f"{workload} {name}: spread "
                                f"{spread:.3f} > bound {bound}")
        a = run(workload, args.first_seed, args.seconds, 1)
        b = run(workload, args.first_seed, args.seconds, 1)
        for res in (a, b):
            problems += check_names(res, bench["per_layer"],
                                    f"{workload} traced")
        counts = {n: (a["metrics"][n]["value"], b["metrics"][n]["value"])
                  for n in EXACT}
        same = all(x == y for x, y in counts.values())
        print(f"  exact counts ({'repeat' if same else 'DIFFER'}): "
              + ", ".join(f"{n}={x}" + ("" if x == y else f"/{y}")
                          for n, (x, y) in counts.items()))
        if not same:
            problems.append(f"{workload}: exact counts differ {counts}")
    for p in problems:
        print("PROBLEM:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
