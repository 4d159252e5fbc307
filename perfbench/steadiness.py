#!/usr/bin/env python3
"""Check that the benchmark is steady: run sets of runs of one commit and compare.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--workloads a,b]

Each set makes --runs untraced runs of every workload, each run with its own
seed. For every workload and end-to-end metric in BENCHMARK.json it reports,
per set, the median and the spread (the distance between the first and third
quartile from statistics.quantiles(n=4), as a share of the median). It then
says whether each later set's median is no worse than the first set's by more
than the metric's bound, and whether each spread is within the bound
(setup_s excepted) and below a third of it. Run it from the repository root.
The summary also goes to .bench_build/results/steadiness.json.

Exit code 0 when every median agrees within its bound and every spread is
within its bound; 1 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {done.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def worse_by(metric, first, later):
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--first-seed", type=int, default=101)
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    # values[set][workload][metric] -> list of run values
    values = [{w: {m["name"]: [] for m in metrics} for w in workloads} for _ in range(args.sets)]
    for s in range(args.sets):
        for i in range(args.runs):
            for w in workloads:
                seed = args.first_seed + 1000 * s + i
                start = time.monotonic()
                result = run_once(w, seed, args.seconds)
                if not result["correct"] or result["failed"]:
                    raise SystemExit(f"{w} seed {seed}: {result['failed']} failed operations")
                for m in metrics:
                    values[s][w][m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: "
                      f"{time.monotonic() - start:.1f} s", file=sys.stderr, flush=True)

    ok = True
    summary = []
    print(f"{'workload':<14} {'metric':<22} {'bound':>6}  "
          + "  ".join(f"{'median ' + str(s + 1):>12} {'spread':>7}" for s in range(args.sets))
          + "  verdict")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            row = {"workload": w, "metric": name, "bound": bound, "sets": []}
            verdicts = []
            cells = []
            for s in range(args.sets):
                med, spr = spread(values[s][w][name])
                row["sets"].append({"median": med, "spread": spr, "values": values[s][w][name]})
                cells.append(f"{med:>12.6g} {spr:>7.3f}")
                if name != "setup_s" and spr > bound:
                    verdicts.append(f"spread {s + 1} over bound")
                elif name != "setup_s" and spr > bound / 3:
                    verdicts.append(f"spread {s + 1} over bound/3")
                if s > 0:
                    worse = worse_by(m, row["sets"][0]["median"], med)
                    row.setdefault("worse_than_first", []).append(worse)
                    if worse > bound:
                        verdicts.append(f"median {s + 1} worse by {worse:.3f}")
            failed = any("over bound" in v and "/3" not in v for v in verdicts) or \
                any(v.startswith("median") for v in verdicts)
            ok = ok and not failed
            row["verdict"] = "; ".join(verdicts) or "steady"
            summary.append(row)
            print(f"{w:<14} {name:<22} {bound:>6}  " + "  ".join(cells) + f"  {row['verdict']}")

    out = ROOT / ".bench_build" / "results" / "steadiness.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": args.runs, "sets": args.sets, "seconds": args.seconds,
                               "ok": ok, "rows": summary}, indent=2) + "\n")
    print("agree within bounds" if ok else "NOT steady", f"(details in {out})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
