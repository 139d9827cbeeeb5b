"""cycosc benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; cycosc is imported from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
Everything the run writes goes to .perfbench_out/ and is removed at the end.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_SAMPLES = 4         # fresh-interpreter set-ups before and again after the timed work
TRACE_SETUP_SAMPLES = 3   # the same for cli.import_s in a traced run
MIN_PASSES = 2            # CLI passes per run, at least, so passes can be compared byte for byte
NF_POOL = len(wl.nf_pool(0))  # the same size for every seed
ROUND = {"verify-sweep": len(wl.SWEEP_LAMBDAS), "nf-words": NF_POOL}
RSS_OPS = {"verify-sweep": 2 * ROUND["verify-sweep"], "nf-words": 3 * NF_POOL}
TRACE_OPS = {"verify-sweep": 2 * ROUND["verify-sweep"], "nf-words": 3 * NF_POOL}
BLAS_THREADS = min(2, os.cpu_count() or 1)
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    """Environment of every process the benchmark starts: fixed BLAS threads and hashing."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def _watchdog(proc) -> threading.Timer:
    """Kill `proc` if it is still running after CHILD_TIMEOUT_S; cancel when it has ended."""
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.daemon = True
    timer.start()
    return timer


class Run:
    """State of one benchmark run: its scratch directory, spawned children and totals."""

    def __init__(self, args):
        self.args = args
        self.workload = args.workload
        self.env = child_env()
        self.out = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.out.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def note(self, problems: list, where: str):
        self.problems += [f"{where}: {p}" for p in problems[:3]]

    # -- children -----------------------------------------------------------

    def spawn(self, argv: list) -> tuple:
        """Run one child to its end: (exit code, seconds, peak RSS in MB, stdout bytes).

        A child still running after CHILD_TIMEOUT_S is killed, so its
        operation fails instead of hanging the run.
        """
        err_path = self.out / "stderr.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                    stdout=subprocess.PIPE, stderr=err)
            watchdog = _watchdog(proc)
            data = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.note([err_path.read_text(errors="replace")[-300:]], f"exit {proc.returncode}")
        return proc.returncode, seconds, usage.ru_maxrss / 1024, data

    def worker(self, spec: dict) -> tuple:
        """Start worker.py; (seconds from spawn to READY, its READY payload, process)."""
        spec = dict(spec, workload=self.workload, seed=self.args.seed)
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
                                cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True)
        proc.watchdog = _watchdog(proc)
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        if not line.startswith("READY "):
            self.finish(proc)
            raise RuntimeError(f"worker did not start: {line!r}")
        return ready_s, json.loads(line[len("READY "):]), proc

    def finish(self, proc) -> None:
        """Wait for a worker; one killed by its watchdog or failing ends the run."""
        proc.stdout.read()
        proc.stdout.close()
        proc.wait()
        proc.watchdog.cancel()
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}")

    def setup_samples(self, count: int, discard: int = 1) -> tuple:
        """Spawn -> READY seconds and cli import seconds of `count` fresh set-ups.

        `discard` extra set-ups run first and are dropped, so byte-compiling
        the sources and loading them from disk is not in any sample.
        """
        ready, imports = [], []
        for i in range(count + discard):
            ready_s, payload, proc = self.worker({"mode": "setup"})
            self.finish(proc)
            if i >= discard:
                ready.append(ready_s)
                imports.append(payload["import_s"])
        return ready, imports

    # -- CLI workloads --------------------------------------------------------

    def cli_pass(self, configs: list, trace: bool = False) -> dict:
        """Every config once, each as a fresh `cycosc` process."""
        seconds, rss, outputs, codes = [], 0.0, [], []
        for cfg in configs:
            argv = [str(BENCH / "launch.py")]
            if trace:
                argv += ["--trace-out", str(self.out / "trace.json")]
            argv += ["--", *cfg["argv"]]
            report = self.out / "report.json"
            if cfg["argv"][0] == "verify":
                argv += ["--out", str(report)]
            code, sec, peak, data = self.spawn(argv)
            seconds.append(sec)
            rss = max(rss, peak)
            codes.append(code)
            if cfg["argv"][0] == "verify":
                data = report.read_bytes() if code == 0 else b""
            outputs.append(data)
        result = {"seconds": seconds, "rss": rss, "outputs": outputs, "codes": codes}
        if trace:
            result["trace"] = json.loads((self.out / "trace.json").read_text())
        return result

    def check_pass(self, configs: list, result: dict, reference: list | None = None) -> int:
        """Check one pass's outputs, and against an earlier pass's bytes; returns its items."""
        items = 0
        problems = []
        for i, (cfg, code, data) in enumerate(zip(configs, result["codes"], result["outputs"])):
            if code != 0:
                problems.append(f"{cfg['name']} exited {code}")
                continue
            if reference is not None and data != reference[i]:
                problems.append(f"{cfg['name']} wrote other bytes than in the first pass")
            try:
                parsed = json.loads(data)
            except ValueError as err:
                problems.append(f"{cfg['name']} output is not JSON: {err}")
                continue
            if cfg["argv"][0] == "verify":
                found = oracle.check_report(parsed, cfg["lam"], cfg["alpha"], cfg["dim"])
                items += oracle.graded_checks(parsed)
            else:
                found = oracle.check_spectrum(parsed, cfg["alpha"], cfg["dim"])
                items += len(parsed)
            problems += [f"{cfg['name']} ({cfg['form']}): {p}" for p in found]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.note(problems, "pass")
        return items

    def cli_timed(self) -> dict:
        """Whole passes until `seconds` have passed, MIN_PASSES at least.

        Every pass must write the same bytes as the first.
        """
        configs = wl.cli_configs(self.workload, self.args.seed)
        reference, passes, items, rss = None, [], [], 0.0
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < self.args.seconds:
            result = self.cli_pass(configs)
            passes.append(sum(result["seconds"]))
            items.append(self.check_pass(configs, result, reference))
            rss = max(rss, result["rss"])
            reference = reference or result["outputs"]
        return {"op_s": passes, "items": sum(items), "peak_rss_mb": rss}

    def cli_traced(self, import_s: float) -> dict:
        """Each config untraced and traced, in alternating order; spans from the traced ones."""
        configs = wl.cli_configs(self.workload, self.args.seed)
        seconds = {False: 0.0, True: 0.0}
        traces, output_bytes, checks = [], 0, 0
        for i, cfg in enumerate(configs):
            for trace in ((False, True) if i % 2 == 0 else (True, False)):
                result = self.cli_pass([cfg], trace=trace)
                items = self.check_pass([cfg], result)
                seconds[trace] += result["seconds"][0]
                if trace:
                    traces.append(result["trace"])
                    output_bytes += len(result["outputs"][0])
                    checks += items if cfg["argv"][0] == "verify" else 0
        total = spans.merge(traces)
        total["output_bytes"] = output_bytes
        return spans.layer_metrics(total, checks, seconds[True], seconds[False], import_s)

    # -- in-process workloads -------------------------------------------------

    def in_process(self, mode: str, **spec) -> dict:
        spec["out"] = str(self.out / f"{mode}.json")
        _, _, proc = self.worker(dict(spec, mode=mode, round=ROUND[self.workload]))
        self.finish(proc)
        result = json.loads(Path(spec["out"]).read_text())
        self.attempted += len(result["latencies"]) if mode == "run" else spec["ops"]
        self.failed += result["failed"]
        self.note(result["problems"], mode)
        if result["problems"] and not result["failed"]:
            self.failed += 1  # a failed warm-up or determinism check
        return result

    def in_process_timed(self) -> dict:
        """Whole rounds in one process until `seconds` have passed."""
        result = self.in_process("run", seconds=self.args.seconds, rss_ops=RSS_OPS[self.workload])
        return {"op_s": result["latencies"], "items": sum(result["items"]), "peak_rss_mb": result["peak_rss_mb"]}

    def in_process_traced(self, import_s: float) -> dict:
        """The fixed work untraced, traced, traced, untraced; spans from the traced runs."""
        ops = TRACE_OPS[self.workload]
        runs = [self.in_process("fixed", ops=ops, trace=trace) for trace in (0, 1, 1, 0)]
        plain_s = runs[0]["wall_s"] + runs[3]["wall_s"]
        traced_s = runs[1]["wall_s"] + runs[2]["wall_s"]
        total = spans.merge([runs[1]["trace"], runs[2]["trace"]])
        checks = sum(runs[1]["items"]) + sum(runs[2]["items"]) if self.workload == "verify-sweep" else 0
        return spans.layer_metrics(total, checks, traced_s, plain_s, import_s)

    def timed(self) -> dict:
        return self.cli_timed() if self.workload in wl.CLI_WORKLOADS else self.in_process_timed()

    def traced(self, import_s: float) -> dict:
        if self.workload in wl.CLI_WORKLOADS:
            return self.cli_traced(import_s)
        return self.in_process_traced(import_s)


def end_to_end(setup_s: float, timed: dict) -> dict:
    """Items over the summed operation times of the run, and the median operation time."""
    op_ms = [s * 1000.0 for s in timed["op_s"]]
    if len(op_ms) >= 1000:
        p99 = statistics.quantiles(op_ms, n=100)[98]
        print(f"op_ms.p99 {p99:.4f} ms over {len(op_ms)} operations", file=sys.stderr)
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (timed["items"] / sum(timed["op_s"]), "1/s"),
        "op_ms.p50": (statistics.median(op_ms), "ms"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="cycosc benchmark, one run of one workload")
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cycosc" / "__init__.py").is_file():
        print(f"error: no cycosc sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    run = Run(args)
    try:
        if args.trace:
            _, imports = run.setup_samples(TRACE_SETUP_SAMPLES)
            metrics = run.traced(statistics.median(imports))
        else:
            # set-ups on both sides of the timed work, so the median spans the run
            before, _ = run.setup_samples(SETUP_SAMPLES)
            timed = run.timed()
            after, _ = run.setup_samples(SETUP_SAMPLES, discard=0)
            metrics = end_to_end(statistics.median(before + after), timed)
    finally:
        shutil.rmtree(run.out, ignore_errors=True)
        try:
            run.out.parent.rmdir()
        except OSError:
            pass
    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"blas_threads {BLAS_THREADS}", file=sys.stderr)
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
