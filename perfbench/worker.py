"""One fresh interpreter of the benchmark: set-up probe or in-process workload.

    python3 perfbench/worker.py '<spec json>'

The spec names the workload, seed and mode:

  setup  import cycosc.cli (numpy with it), let cycosc build the workload's
         fixed parameter sets (nf-words), print the READY line and exit;
         run.py times spawn -> READY.  The benchmark's own inputs (word
         pool, parameter stream) are built after READY, outside that time.
  run    after READY, run the in-process workload's operations in whole
         rounds until `seconds` have passed, checking every output between
         operations.
  fixed  after READY, run a fixed number of operations (`ops`), traced
         when `trace` is set; checks follow the loop.

`run` and `fixed` write their totals to the spec's `out` file as JSON.
"""

from __future__ import annotations

import itertools
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def program_inputs(workload: str, seed: int) -> list:
    """The inputs cycosc itself builds before the first operation."""
    if workload != "nf-words":
        return []
    from cycosc import validate_alpha

    return [validate_alpha(lam, alpha) for lam, alpha in wl.nf_params(seed)]


class Sweep:
    """verify-sweep: run_suite over a stream of distinct parameter sets."""

    def __init__(self, stream):
        import cycosc

        self.cycosc = cycosc
        self.stream = stream
        self.first = None

    def op(self, spec):
        params = self.cycosc.validate_alpha(spec["lam"], spec["alpha"])
        return self.cycosc.run_suite(params, spec["dim"])

    def check(self, spec, report) -> tuple:
        """(graded checks, problems) of one report."""
        if self.first is None:
            self.first = (spec, json.dumps(report, sort_keys=True, indent=2))
        return oracle.graded_checks(report), oracle.check_report(report, spec["lam"], spec["alpha"], spec["dim"])

    def recheck(self) -> list:
        """A second run of the first set must give the same report, byte for byte."""
        spec, text = self.first
        again = json.dumps(self.op(spec), sort_keys=True, indent=2)
        return [] if again == text else [f"second run of {spec} gave another report"]


class Words:
    """nf-words: parse, reduce and render words the way `cycosc nf --json` does."""

    def __init__(self, params, seed):
        import cycosc
        from cycosc import cli

        self.cycosc = cycosc
        self.cli = cli
        self.params = params
        self.alphas = [alpha for _lam, alpha in wl.nf_params(seed)]
        self.pool = wl.nf_pool(seed)
        self.reference = {}

    def op(self, item):
        index, _word, text = item
        nf = self.cycosc.normal_form(self.cycosc.parse(text), self.params[index])
        return self.cli.format_nf_json(nf)

    def warm(self) -> list:
        """One untimed round: fill the memo caches and check every word densely."""
        problems = []
        for item in self.pool:
            index, word, text = item
            out = self.op(item)
            found = oracle.check_nf(json.loads(out)["terms"], word, wl.creation_weight(word),
                                    self.alphas[index])
            problems += [f"{text}: {p}" for p in found]
            self.reference[index, text] = None if found else out
        return problems

    def check(self, item, out) -> tuple:
        good = self.reference.get((item[0], item[2]))
        return 1, [] if out == good else [f"{item[2]}: output differs from its checked first rendering"]

    def recheck(self) -> list:
        return []


def main(spec: dict) -> int:
    t_import = time.perf_counter()
    import cycosc.cli  # noqa: F401
    import numpy  # noqa: F401

    import_s = time.perf_counter() - t_import
    params = program_inputs(spec["workload"], spec["seed"])
    print("READY " + json.dumps({"import_s": import_s}), flush=True)
    if spec["mode"] == "setup":
        return 0

    if spec["workload"] == "verify-sweep":
        work = Sweep(wl.sweep_stream(spec["seed"]))
        items = work.stream
        warm_problems = []
    else:
        work = Words(params, spec["seed"])
        warm_problems = work.warm()
        items = itertools.cycle(work.pool)

    result = {"latencies": [], "items": [], "failed": 0, "problems": list(warm_problems)}
    if spec["mode"] == "run":
        run_timed(work, items, spec, result)
    else:
        run_fixed(work, items, spec, result)
    result["problems"] += work.recheck()
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _record(work, item, out, result):
    count, problems = work.check(item, out)
    result["items"].append(count)
    if problems:
        result["failed"] += 1
        result["problems"] += problems[:3]


def run_timed(work, items, spec, result):
    """Closed loop in whole rounds until `seconds` have passed; checks run between
    operations, outside their timers.

    Peak RSS is read after the first `rss_ops` operations, a fixed amount of
    work, so it cannot grow because a faster build fits more in the run.
    """
    latencies = result["latencies"]
    deadline = time.perf_counter() + spec["seconds"]
    for item in items:
        start = time.perf_counter()
        try:
            out = work.op(item)
        except Exception as err:  # noqa: BLE001 - a raising operation is a failed one
            latencies.append(time.perf_counter() - start)
            result["items"].append(0)
            result["failed"] += 1
            result["problems"].append(f"{type(err).__name__}: {err}")
        else:
            latencies.append(time.perf_counter() - start)
            _record(work, item, out, result)
        done = len(latencies)
        if done == spec["rss_ops"]:
            result["peak_rss_mb"] = peak_rss_mb()
        if done % spec["round"] == 0 and done >= spec["rss_ops"] and time.perf_counter() >= deadline:
            break


def run_fixed(work, items, spec, result):
    """`ops` operations in one timed loop, traced when asked; checks follow the loop."""
    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        tracer.install()
    memo_before = spans.memo_info()
    chosen = list(itertools.islice(items, spec["ops"]))
    outs = []
    start = time.perf_counter()
    for item in chosen:
        outs.append(work.op(item))
    result["wall_s"] = time.perf_counter() - start
    for item, out in zip(chosen, outs):
        _record(work, item, out, result)
    if tracer is not None:
        snap = spans.snapshot(tracer)
        snap["memo"]["hits"] -= memo_before["hits"]
        snap["memo"]["misses"] -= memo_before["misses"]
        result["trace"] = snap


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
