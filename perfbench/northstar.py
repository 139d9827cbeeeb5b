"""One-off reference figures: the ROADMAP north-star table, measured again.

    python3 perfbench/northstar.py

Times `run_suite(params, dim)` in one process for each (lambda, dim) of the
ROADMAP table, with a seeded alpha for each lambda, then one
`cycosc verify --suite all` process at the largest lambda and dim.  dim 256
stays out of the timed verify-grid workload because one pass there would
take minutes; this script records it instead.  Prints a Markdown table.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402


DIMS = (32, 64, 128, 256)
LAMBDAS = (2, 5)
SEED = 1


def main() -> int:
    dims, lambdas = DIMS, LAMBDAS
    os.environ.update({k: v for k, v in run.child_env().items() if k.endswith("_THREADS")})

    start = time.perf_counter()
    from cycosc import run_suite, validate_alpha
    import_s = time.perf_counter() - start

    rng = random.Random(f"northstar:{SEED}")
    alphas = {lam: wl.random_alpha(rng, lam) for lam in lambdas}
    print(f"BLAS threads {run.BLAS_THREADS}; import cycosc {import_s:.3f} s; seconds per run_suite\n")
    print("| lambda | " + " | ".join(f"dim {d}" for d in dims) + " |")
    print("|---" * (len(dims) + 1) + "|")
    for lam in lambdas:
        cells = []
        for dim in dims:
            t = time.perf_counter()
            report = run_suite(validate_alpha(lam, alphas[lam]), dim)
            cells.append(f"{time.perf_counter() - t:.2f}")
            if report["summary"]["fail"]:
                raise SystemExit(f"lambda {lam} dim {dim}: {report['summary']}")
        print(f"| {lam} | " + " | ".join(cells) + " |", flush=True)

    lam, dim = lambdas[-1], dims[-1]
    argv = [sys.executable, str(BENCH / "launch.py"), "--", "verify", "--lambda", str(lam),
            "--alpha=" + ",".join(repr(a) for a in alphas[lam]), "--dim", str(dim), "--suite", "all"]
    t = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=run.child_env(), capture_output=True, text=True, timeout=600)
    print(f"\nCLI verify --lambda {lam} --dim {dim}: {time.perf_counter() - t:.2f} s, exit {proc.returncode}: "
          + json.dumps(proc.stdout.strip()))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
