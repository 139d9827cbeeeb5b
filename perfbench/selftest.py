"""Show that every output check of the benchmark rejects a 1e-6 perturbation.

    python3 perfbench/selftest.py

It makes real outputs with cycosc (verify and spectrum through the command
line, nf words in process), checks that each passes, then perturbs one
number at a time by 1e-6 of its size (of the complex number's modulus for
one of its parts; 1e-6 at least) and checks that the same check now
rejects it: every fitted K{r} of every single.m* check, every spectrum
energy, and the real and imaginary part of every normal-form term of every
word of the nf-words pool for seed 1.
Exit code 0 when the clean outputs pass and every perturbation is rejected.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import workloads as wl  # noqa: E402

DELTA = 1e-6


def nudged(value: float, size: float | None = None) -> float:
    """`value` moved by DELTA relative to `size` (its own size by default), DELTA at least."""
    return value + DELTA * max(1.0, abs(value if size is None else size))


def cli_output(argv: list) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "launch.py"), "--", *argv],
                          cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout)


def verify_cases():
    """(name, clean verdict, perturbed verdicts) for a verify report given both ways."""
    for cfg in wl.cli_configs("verify-grid", 1)[:2]:  # lambda 2, once by alpha and once by kappa
        report = cli_output([*cfg["argv"][:4], "--dim", "32", "--suite", "all", "--format", "json"])
        check = lambda rep: oracle.check_report(rep, cfg["lam"], cfg["alpha"], 32)  # noqa: E731
        perturbed = []
        for index, entry in enumerate(report["checks"]):
            if not entry["id"].startswith("single.m"):
                continue
            for key in [k for k in entry["fitted"] if k.startswith("K")]:
                for part in (0, 1):
                    bad = copy.deepcopy(report)
                    pair = bad["checks"][index]["fitted"][key]
                    pair[part] = nudged(pair[part], abs(complex(*pair)))
                    perturbed.append(check(bad))
        yield f"verify lambda={cfg['lam']} by {cfg['form']}", check(report), perturbed


def spectrum_cases():
    cfg = wl.cli_configs("spectrum-lambda", 1)[0]
    dim = 64
    rows = cli_output([*cfg["argv"][:4], "--dim", str(dim), "--format", "json"])
    perturbed = []
    for n in range(len(rows)):
        bad = copy.deepcopy(rows)
        bad[n]["energy"] = nudged(bad[n]["energy"])
        perturbed.append(oracle.check_spectrum(bad, cfg["alpha"], dim))
    yield f"spectrum lambda={cfg['lam']} dim={dim}", oracle.check_spectrum(rows, cfg["alpha"], dim), perturbed


def nf_cases():
    from cycosc import normal_form, parse, validate_alpha
    from cycosc.cli import format_nf_json

    sets = wl.nf_params(1)
    params = [validate_alpha(lam, alpha) for lam, alpha in sets]
    for index, word, text in wl.nf_pool(1):
        alpha = sets[index][1]
        weight = wl.creation_weight(word)
        terms = json.loads(format_nf_json(normal_form(parse(text), params[index])))["terms"]
        # a zero result must reject a spurious constant term
        perturbed = [oracle.check_nf([{"p": 0, "q": 0, "r": 0, "re": DELTA, "im": 0.0}], word, weight, alpha)
                     ] if not terms else []
        for i in range(len(terms)):
            for part in ("re", "im"):
                bad = copy.deepcopy(terms)
                bad[i][part] = nudged(bad[i][part], abs(complex(bad[i]["re"], bad[i]["im"])))
                perturbed.append(oracle.check_nf(bad, word, weight, alpha))
        yield f"nf {text}", oracle.check_nf(terms, word, weight, alpha), perturbed


def main() -> int:
    ok = True
    total = 0
    for cases in (verify_cases(), spectrum_cases(), nf_cases()):
        for name, clean, perturbed in cases:
            missed = sum(1 for problems in perturbed if not problems)
            total += len(perturbed)
            if clean or missed or not perturbed:
                ok = False
                print(f"FAIL {name}: clean problems {clean[:2]}, {missed} of {len(perturbed)} perturbations accepted")
    print(f"{'ok' if ok else 'FAILED'}: {total} perturbations of {DELTA:g} checked")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
