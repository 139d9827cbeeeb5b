"""Per-layer spans taken from outside the program.

The tracer replaces a cycosc function by a timing wrapper in every cycosc
module that binds it (``identities`` and ``cli`` import their helpers by
name, so wrapping only the defining module would miss most calls).  A span
nested in a span of the same group is not a new span: recursive functions
and helpers that call each other count once, at their outermost call.
Self time goes to the layer of the innermost open span.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

MB = 1024 * 1024

# (module, function, span name, nesting group)
SPANS = (
    ("params", "validate_alpha", "params", "params"),
    ("params", "params_from_kappa", "params", "params"),
    ("expr", "parse", "expr.parse", "expr.parse"),
    ("fock", "build_rep", "fock.build_rep", "fock.build_rep"),
    ("fock", "apply_word", "fock.apply_word", "fock.apply_word"),
    ("fock", "spectrum", "fock.spectrum", "fock.spectrum"),  # keeps cli.self_s clean on spectrum runs
    ("normal_order", "normal_form", "normal_order.normal_form", "normal_order.normal_form"),
    ("normal_order", "nf_to_matrix", "normal_order.nf_to_matrix", "normal_order.nf_to_matrix"),
    ("normal_order", "beta_closed_form", "normal_order.closed_form", "normal_order.closed_form"),
    ("normal_order", "beta_tower_raw", "normal_order.closed_form", "normal_order.closed_form"),
    ("identities", "run_suite", "identities.run_suite", "identities.run_suite"),
    ("identities", "check_basic", "identities.suite.basic", "identities.suite"),
    ("identities", "check_single_mode", "identities.suite.single", "identities.suite"),
    ("identities", "check_general", "identities.suite.general", "identities.suite"),
    ("identities", "check_virasoro", "identities.suite.virasoro", "identities.suite"),
    ("identities", "check_klein_virasoro", "identities.suite.virasoro", "identities.suite"),
    ("identities", "check_lambda2", "identities.suite.lambda2", "identities.suite"),
    ("identities", "check_winf", "identities.suite.winf", "identities.suite"),
    ("identities", "check_klein_winf", "identities.suite.winf", "identities.suite"),
    ("identities", "check_sp2", "identities.suite.sp2", "identities.suite"),
    ("identities", "check_casimir", "identities.suite.casimir", "identities.suite"),
    ("identities", "check_wconst", "identities.suite.wconst", "identities.suite"),
    ("winf", "winf_structure", "winf.winf_structure", "winf.winf_structure"),
    ("cli", "main", "cli.main", "cli.main"),
    ("cli", "format_nf_json", "cli.format_nf_json", "cli.format_nf_json"),
)
SUITES = ("basic", "single", "general", "virasoro", "lambda2", "winf", "sp2", "casimir", "wconst")
MEMO_CACHES = ("_reorder_core", "_a_times_adpow")


class Tracer:
    """Span statistics of one process; `install` patches the loaded cycosc modules."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.covered = 0.0
        self.rep_bytes = 0
        self.output_bytes = 0
        self._open = {}
        self._stack = []
        self._mark = 0.0

    def _enter(self, layer: str) -> float:
        now = time.perf_counter()
        if self._stack:
            self.self_s[self._stack[-1]] += now - self._mark
        self._stack.append(layer)
        self._mark = now
        return now

    def _leave(self, name: str, start: float):
        now = time.perf_counter()
        self.self_s[self._stack.pop()] += now - self._mark
        self._mark = now
        self.seconds[name] += now - start
        self.calls[name] += 1
        if not self._stack:
            self.covered += now - start

    def wrap(self, fn, name: str, group: str):
        layer = name.split(".")[0]
        is_rep = name == "fock.build_rep"
        is_render = name == "cli.format_nf_json"
        depth = self._open.setdefault(group, [0])  # open spans of the group, shared by its wrappers

        def span(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            start = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[0] = 0
                self._leave(name, start)
            if is_rep:
                arrays = (result.mat_n, result.mat_k, result.mat_a, result.mat_adag,
                          result.mat_h0, *result.mat_p)
                self.rep_bytes = max(self.rep_bytes, sum(m.nbytes for m in arrays))
            elif is_render:
                self.output_bytes += len(result.encode())
            return result

        return span

    def install(self):
        """Wrap every SPANS function wherever a cycosc module binds it."""
        import cycosc.cli  # noqa: F401 - loads every module that binds a traced name

        modules = [m for key, m in sys.modules.items() if key == "cycosc" or key.startswith("cycosc.")]
        for module_name, fn_name, name, group in SPANS:
            original = getattr(sys.modules[f"cycosc.{module_name}"], fn_name)
            wrapped = self.wrap(original, name, group)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)


def memo_info() -> dict:
    """Hits, misses and entries summed over the rewrite engine's memo caches."""
    from cycosc import normal_order

    out = {"hits": 0, "misses": 0, "entries": 0}
    for name in MEMO_CACHES:
        info = getattr(normal_order, name).cache_info()
        out["hits"] += info.hits
        out["misses"] += info.misses
        out["entries"] += info.currsize
    return out


def snapshot(tracer: Tracer) -> dict:
    """JSON-ready totals of one traced process."""
    return {
        "seconds": dict(tracer.seconds),
        "calls": dict(tracer.calls),
        "self_s": dict(tracer.self_s),
        "covered_s": tracer.covered,
        "rep_bytes": tracer.rep_bytes,
        "output_bytes": tracer.output_bytes,
        "memo": memo_info(),
    }


def merge(parts: list) -> dict:
    """Sum the snapshots of several processes; the largest realization and cache win."""
    total = {"seconds": defaultdict(float), "calls": defaultdict(int), "self_s": defaultdict(float),
             "covered_s": 0.0, "rep_bytes": 0, "output_bytes": 0,
             "memo": {"hits": 0, "misses": 0, "entries": 0}}
    for part in parts:
        for key in ("seconds", "calls", "self_s"):
            for name, value in part[key].items():
                total[key][name] += value
        total["covered_s"] += part["covered_s"]
        total["output_bytes"] += part["output_bytes"]
        total["rep_bytes"] = max(total["rep_bytes"], part["rep_bytes"])
        total["memo"]["hits"] += part["memo"]["hits"]
        total["memo"]["misses"] += part["memo"]["misses"]
        total["memo"]["entries"] = max(total["memo"]["entries"], part["memo"]["entries"])
    return total


def layer_metrics(total: dict, checks: int, wall_s: float, untraced_s: float, import_s: float) -> dict:
    """Every per-layer metric of BENCHMARK.json from merged spans and run totals."""
    sec, calls, self_s = total["seconds"], total["calls"], total["self_s"]
    memo = total["memo"]
    lookups = memo["hits"] + memo["misses"]
    out = {
        "params.s": (sec.get("params", 0.0), "s"),
        "params.calls": (calls.get("params", 0), "count"),
        "expr.parse.s": (sec.get("expr.parse", 0.0), "s"),
        "expr.parse.calls": (calls.get("expr.parse", 0), "count"),
        "fock.build_rep.s": (sec.get("fock.build_rep", 0.0), "s"),
        "fock.build_rep.calls": (calls.get("fock.build_rep", 0), "count"),
        "fock.rep_mb": (total["rep_bytes"] / MB, "MB"),
        "fock.apply_word.s": (sec.get("fock.apply_word", 0.0), "s"),
        "fock.apply_word.calls": (calls.get("fock.apply_word", 0), "count"),
        "normal_order.normal_form.s": (sec.get("normal_order.normal_form", 0.0), "s"),
        "normal_order.normal_form.calls": (calls.get("normal_order.normal_form", 0), "count"),
        "normal_order.nf_to_matrix.s": (sec.get("normal_order.nf_to_matrix", 0.0), "s"),
        "normal_order.nf_to_matrix.calls": (calls.get("normal_order.nf_to_matrix", 0), "count"),
        "normal_order.closed_form.s": (sec.get("normal_order.closed_form", 0.0), "s"),
        "normal_order.memo.hit_ratio": (memo["hits"] / lookups if lookups else 0.0, "ratio"),
        "normal_order.memo.entries": (memo["entries"], "count"),
        "identities.checks": (checks, "count"),
        "identities.self_s": (self_s.get("identities", 0.0), "s"),
    }
    for suite in SUITES:
        out[f"identities.suite.{suite}.s"] = (sec.get(f"identities.suite.{suite}", 0.0), "s")
    out.update({
        "winf.winf_structure.s": (sec.get("winf.winf_structure", 0.0), "s"),
        "winf.winf_structure.calls": (calls.get("winf.winf_structure", 0), "count"),
        "cli.import_s": (import_s, "s"),
        "cli.self_s": (self_s.get("cli", 0.0), "s"),
        "cli.output_kb": (total["output_bytes"] / 1024, "KB"),
        "trace.coverage": (100.0 * total["covered_s"] / wall_s, "%"),
        "trace.overhead": (100.0 * (wall_s / untraced_s - 1.0), "%"),
    })
    return out
