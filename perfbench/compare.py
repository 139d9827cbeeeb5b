"""Run sets of benchmark runs and report, metric by metric, whether they agree.

    python3 perfbench/compare.py [--sets 2] [--runs 10] [--workloads a,b] [--first-seed 1]

Each set runs every workload `runs` times, each run with its own seed (the
sets use disjoint seeds, workloads interleaved).  For every end-to-end
metric the report gives each set's median and spread, the spread being the
distance between the first and third quartile as a share of the median.
Two sets agree on a metric when each spread, setup_s's included, is within
the metric's bound from BENCHMARK.json and the two medians differ, either
way, by no more than the bound as a share of the first; they must also
fail the same share of operations.  Every run's result line is appended to
.perfbench_out/compare-runs.jsonl.  Exit code 0 when everything agrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None, help="comma list (default: all)")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    log_dir = ROOT / ".perfbench_out"
    log_dir.mkdir(exist_ok=True)
    results = {(s, w): [] for s in range(args.sets) for w in names}
    with open(log_dir / "compare-runs.jsonl", "a", encoding="utf-8") as log:
        for s in range(args.sets):
            for r in range(args.runs):
                seed = args.first_seed + s * args.runs + r
                for w in names:
                    res = run_once(w, seed, spec["run_seconds"])
                    results[s, w].append(res)
                    log.write(json.dumps({"set": s, "workload": w, "seed": seed, **res}) + "\n")
                    log.flush()
                    print(f"set {s} {w:16s} seed {seed:3d} correct={res['correct']} "
                          f"failed={res['failed']}/{res['attempted']} "
                          + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
                          flush=True)

    agree = True
    print(f"\n{'workload':16s} {'metric':14s} {'bound':>6s} " + " ".join(
        f"{'median' + str(s):>12s} {'spread' + str(s):>8s}" for s in range(args.sets)) + "  verdict")
    for w in names:
        shares = {sum(x["failed"] for x in results[s, w]) / sum(x["attempted"] for x in results[s, w])
                  for s in range(args.sets)}
        if len(shares) > 1 or any(not x["correct"] for s in range(args.sets) for x in results[s, w]):
            agree = False
            print(f"{w:16s} failed shares {sorted(shares)} or an incorrect run: DISAGREE")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [spread([x["metrics"][name]["value"] for x in results[s, w]]) for s in range(args.sets)]
            ok = all(sp <= bound for _, sp in stats)
            if len(stats) > 1:
                first, second = stats[0][0], stats[1][0]
                ok = ok and abs(second - first) / first <= bound
            agree = agree and ok
            cells = " ".join(f"{med:12.5g} {sp:8.4f}" for med, sp in stats)
            print(f"{w:16s} {name:14s} {bound:6.3f} {cells}  {'ok' if ok else 'DISAGREE'}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
