"""Reference computations the benchmark checks cycosc's outputs against.

Nothing here imports cycosc.  Each check returns a list of problems, empty
when the output is correct, and compares against the method's own properties
(the alpha -> kappa DFT, the closed-form spectrum, a small dense evaluator),
never against stored copies of earlier output.
"""

from __future__ import annotations

import cmath
import math

# Relative tolerance of the verify and spectrum comparisons.  It sits far above
# double-precision round-off and far below the 1e-6 perturbation the
# self-test proves each check rejects.
REL_TOL = 1e-9
# The nf check compares matrix entries relative to the sum of the sizes of
# the terms that make them up, where a small term sits next to terms a few
# hundred times larger; its tolerance is tighter so that a 1e-6 change of
# such a term still shows.  Clean outputs of the nf-words pool stay below
# 6e-14 of that scale.
NF_REL_TOL = 1e-11


def kappa_from_alpha(alpha) -> list:
    """kappa_r = (1/lam) sum_mu alpha_mu x^{mu r}, x = exp(-2i pi/lam), r = 1..lam-1."""
    lam = len(alpha)
    return [
        sum(alpha[mu] * cmath.exp(-2j * cmath.pi * ((mu * r) % lam) / lam) for mu in range(lam)) / lam
        for r in range(1, lam)
    ]


def partial_sums(alpha) -> list:
    beta = [0.0]
    for a in alpha:
        beta.append(beta[-1] + a)
    return beta


def level_energies(alpha, count: int) -> list:
    """Sorted closed-form levels n + gamma_{n mod lam} + 1/2, gamma_mu = (beta_mu + beta_{mu+1})/2."""
    lam = len(alpha)
    beta = partial_sums(alpha)
    gamma = [0.5 * (beta[mu] + beta[mu + 1]) for mu in range(lam)]
    return sorted(n + gamma[n % lam] + 0.5 for n in range(count))


def _close(got: complex, want: complex) -> bool:
    return abs(got - want) <= REL_TOL * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# cycosc verify


def check_report(report: dict, lam: int, alpha, dim: int) -> list:
    """Properties every verify report must have for a valid configuration."""
    problems = []
    config = report.get("config", {})
    if config.get("lambda") != lam or config.get("dim") != dim:
        problems.append(f"config echoes lambda={config.get('lambda')} dim={config.get('dim')}")
    echoed = config.get("alpha") or []
    if len(echoed) != lam or not all(_close(a, b) for a, b in zip(echoed, alpha)):
        problems.append("config alpha differs from the input")
    checks = report.get("checks", [])
    summary = report.get("summary", {})
    if summary.get("fail", 1) != 0:
        problems.append(f"summary has {summary.get('fail')} failed checks")
    tally = {"pass": 0, "discrepancy": 0, "fail": 0, "not_applicable": 0}
    for c in checks:
        key = c["status"].replace("-", "_")
        tally[key] = tally.get(key, 0) + 1
    if tally != summary:
        problems.append(f"summary {summary} does not count the checks {tally}")

    basic = [c for c in checks if c["id"].startswith("basic.")]
    if not basic:
        problems.append("no basic.* checks")
    problems += [f"{c['id']} is {c['status']}" for c in basic if c["status"] != "pass"]

    kappa = kappa_from_alpha(alpha)
    singles = [c for c in checks if c["id"].startswith("single.m")]
    if not singles:
        problems.append("no single.m* checks")
    for c in singles:
        m = int(c["id"][len("single.m"):])
        fitted = c.get("fitted") or {}
        want = {0: complex(m, 0)}
        for r in range(1, lam):
            geo = sum(cmath.exp(-2j * cmath.pi * ((r * p) % lam) / lam) for p in range(m))
            want[r] = kappa[r - 1] * geo
        for r, w in want.items():
            pair = fitted.get(f"K{r}")
            if pair is None or not _close(complex(pair[0], pair[1]), w):
                problems.append(f"{c['id']} K{r} = {pair}, expected {w}")
    return problems


def graded_checks(report: dict) -> int:
    return sum(1 for c in report.get("checks", []) if c["status"] != "not-applicable")


# ---------------------------------------------------------------------------
# cycosc spectrum


def check_spectrum(rows: list, alpha, dim: int) -> list:
    """Rows n = 0..dim-2 whose energy is the closed-form level n + gamma + 1/2."""
    problems = []
    want = level_energies(alpha, dim - 1)
    if len(rows) != dim - 1:
        return [f"{len(rows)} rows, expected {dim - 1}"]
    for n, (row, w) in enumerate(zip(rows, want)):
        if row.get("n") != n:
            problems.append(f"row {n} is labelled n={row.get('n')}")
        if not _close(row["energy"], w):
            problems.append(f"energy[{n}] = {row['energy']!r}, expected {w!r}")
    return problems


# ---------------------------------------------------------------------------
# cycosc nf: a small dense evaluator of the words built in workloads.py


def dense_generators(alpha, dim: int) -> dict:
    """a, ad, N, K and the residue projectors on levels 0..dim-1 (numpy arrays)."""
    import numpy as np

    lam = len(alpha)
    beta = partial_sums(alpha)
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(n + beta[n % lam])
    levels = np.arange(dim)
    gens = {
        "a": a,
        "ad": a.conj().T.copy(),
        "N": np.diag(levels.astype(complex)),
        "K": np.diag(np.exp(2j * np.pi * (levels % lam) / lam)),
    }
    for mu in range(lam):
        gens[f"P{mu}"] = np.diag((levels % lam == mu).astype(complex))
    return gens


def dense_eval(w, gens: dict):
    """Literal matrix of a word: products, powers and brackets of the generators."""
    import numpy as np

    kind = w[0]
    dim = gens["a"].shape[0]
    if kind == "atom":
        return gens[w[1]]
    if kind == "proj":
        return gens[f"P{w[1]}"]
    if kind == "scal":
        return w[1] * np.eye(dim, dtype=complex)
    if kind == "sum":
        return sum(dense_eval(t, gens) for t in w[1])
    if kind == "prod":
        out = dense_eval(w[1][0], gens)
        for t in w[1][1:]:
            out = out @ dense_eval(t, gens)
        return out
    if kind == "pow":
        base = dense_eval(w[1], gens)
        out = np.eye(dim, dtype=complex)
        for _ in range(w[2]):
            out = out @ base
        return out
    left, right = dense_eval(w[1], gens), dense_eval(w[2], gens)
    if kind == "comm":
        return left @ right - right @ left
    return left @ right + right @ left


NF_WINDOW = 8  # exact columns compared per word


def check_nf(terms: list, word, weight: int, alpha) -> list:
    """The (p, q, r) terms must rebuild the word's matrix on its exact columns.

    With W the larger of the word's creation weight and the highest p, both
    sides are truncation-exact on columns 0..dim-1-W; dim leaves NF_WINDOW of
    them.  Each entry is compared relative to the sizes of the terms that
    make it up, so cancellation cannot hide a wrong coefficient.
    """
    import numpy as np

    top = max([weight] + [t["p"] for t in terms])
    dim = top + NF_WINDOW
    gens = dense_generators(alpha, dim)
    want = dense_eval(word, gens)[:, :NF_WINDOW]
    got = np.zeros_like(want)
    scale = np.abs(want)
    for t in terms:
        mono = np.linalg.matrix_power(gens["ad"], t["p"]) @ np.linalg.matrix_power(gens["a"], t["q"])
        mono = (mono @ np.linalg.matrix_power(gens["K"], t["r"]))[:, :NF_WINDOW]
        term = complex(t["re"], t["im"]) * mono
        got += term
        scale += np.abs(term)
    bad = np.abs(got - want) > NF_REL_TOL * np.maximum(scale, 1.0)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        return [f"entry ({i}, {j}) = {got[i, j]}, dense evaluation gives {want[i, j]}"]
    return []
