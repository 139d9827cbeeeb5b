"""Seeded inputs of the four benchmark workloads.

Everything here depends only on the workload seed and the standard library,
so the same seed gives the same inputs on every machine.  The program under
test receives only what these functions build.
"""

from __future__ import annotations

import cmath
import random

from oracle import kappa_from_alpha, partial_sums

WORKLOADS = ("verify-grid", "verify-sweep", "nf-words", "spectrum-lambda")
CLI_WORKLOADS = ("verify-grid", "spectrum-lambda")

GRID_LAMBDAS = (2, 3, 5)
GRID_DIMS = (32, 64, 128)
SWEEP_LAMBDAS = tuple(range(2, 9))
SWEEP_DIMS = (13, 15, 17, 19, 20, 22, 24)  # one round's dims, spread over 13..24
SPECTRUM_LAMBDAS = (8, 16, 32, 64)
SPECTRUM_DIM = 256
NF_LAMBDAS = (2, 3, 5)
ALPHA_SPREAD = 0.8


def random_alpha(rng: random.Random, lam: int) -> tuple:
    """Alpha vector whose partial sums beta_1..beta_{lam-1} lie in (-ALPHA_SPREAD, ALPHA_SPREAD).

    beta_0 = beta_lam = 0, so sum(alpha) = 0, and every partial sum stays
    well inside the unitarity bound beta > -1.
    """
    beta = [0.0] + [round(rng.uniform(-ALPHA_SPREAD, ALPHA_SPREAD), 6) for _ in range(lam - 1)] + [0.0]
    return tuple(round(beta[mu + 1] - beta[mu], 6) for mu in range(lam))


def _param_flags(lam: int, alpha, as_kappa: bool) -> list:
    if as_kappa:
        kappa = ",".join(f"{k.real!r}:{k.imag!r}" for k in kappa_from_alpha(alpha))
        return ["--lambda", str(lam), f"--kappa={kappa}"]
    return ["--lambda", str(lam), "--alpha=" + ",".join(repr(a) for a in alpha)]


def cli_configs(workload: str, seed: int) -> list:
    """One pass of CLI invocations: dicts with lam, alpha, dim, form and argv.

    Configs alternate between --alpha and --kappa, starting from the seed's
    parity, so every pass gives parameters both ways.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-grid":
        grid = [(lam, dim) for lam in GRID_LAMBDAS for dim in GRID_DIMS]
    elif workload == "spectrum-lambda":
        grid = [(lam, SPECTRUM_DIM) for lam in SPECTRUM_LAMBDAS]
    else:
        raise ValueError(f"{workload} is not a CLI workload")
    configs = []
    for index, (lam, dim) in enumerate(grid):
        alpha = random_alpha(rng, lam)
        as_kappa = (index + seed) % 2 == 1
        flags = _param_flags(lam, alpha, as_kappa) + ["--dim", str(dim)]
        if workload == "verify-grid":
            argv = ["verify", *flags, "--suite", "all"]
        else:
            argv = ["spectrum", *flags, "--format", "json"]
        configs.append({
            "name": f"lam{lam}-dim{dim}",
            "lam": lam,
            "alpha": alpha,
            "dim": dim,
            "form": "kappa" if as_kappa else "alpha",
            "argv": argv,
        })
    return configs


def sweep_stream(seed: int):
    """Endless rounds of distinct parameter sets, one set per lambda in 2..8.

    Each round visits every lambda once in a seeded order, pairs the lambdas
    with a seeded shuffle of SWEEP_DIMS and draws a fresh alpha for each, so
    every set brings a new kappa while every round holds the same sizes.
    """
    rng = random.Random(f"verify-sweep:{seed}")
    while True:
        order = list(SWEEP_LAMBDAS)
        dims = list(SWEEP_DIMS)
        rng.shuffle(order)
        rng.shuffle(dims)
        for lam, dim in zip(order, dims):
            yield {"lam": lam, "alpha": random_alpha(rng, lam), "dim": dim}


# ---------------------------------------------------------------------------
# operator words
#
# A word is a nested tuple:
#   ("atom", "a" | "ad" | "K" | "N")   ("proj", mu)   ("scal", complex)
#   ("sum", (w, ...))   ("prod", (w, ...))   ("pow", w, k)
#   ("comm", w, w)   ("anti", w, w)

A, AD, KLEIN, NUM = (("atom", kind) for kind in ("a", "ad", "K", "N"))
ONE = ("scal", 1 + 0j)


def _scal(c, w):
    return ("prod", (("scal", complex(c)), w))


def _sum(*terms):
    return terms[0] if len(terms) == 1 else ("sum", terms)


def _minus(lhs, rhs):
    return ("sum", (lhs, _scal(-1, rhs)))


def _pow(w, k: int):
    return ONE if k == 0 else w if k == 1 else ("pow", w, k)


def _mono(s: int, m: int):
    """(a+)^s a^m."""
    parts = [f for f in (_pow(AD, s) if s else None, _pow(A, m) if m else None) if f]
    return ONE if not parts else parts[0] if len(parts) == 1 else ("prod", tuple(parts))


def _ell(m: int):
    """Ladder generator l_m = (a+)^{m+1} a."""
    return _mono(m + 1, 1)


def _comm(x, y):
    return ("comm", x, y)


def _root(lam: int, j: int) -> complex:
    """x^j with x = exp(-2i pi / lam)."""
    return cmath.exp(-2j * cmath.pi * (j % lam) / lam)


def suite_words(lam: int, alpha) -> dict:
    """The words `cycosc verify --suite all` reduces, by suite, plus the documented nf examples.

    Each family follows the suite's default index grid (dim >= 13): the
    basic relations as left minus right side, [a, (a+)^m], [a^n, (a+)^m],
    [l_m, l_n] and [l_m, K], the order-two brackets (lambda 2 only),
    [w^s_m, w^t_n] and [w^s_m, K], the sp(2) triple and the Casimir.
    """
    kappa = kappa_from_alpha(alpha)
    beta = partial_sums(alpha)
    gamma = [0.5 * (beta[mu] + beta[mu + 1]) for mu in range(lam)]
    x = _root(lam, 1)
    proj = [("proj", mu) for mu in range(lam)]
    basic = [
        _minus(_comm(NUM, AD), AD),
        _minus(_comm(NUM, A), _scal(-1, A)),
        _comm(NUM, KLEIN),
        *[_comm(NUM, p) for p in proj],
        _minus(_pow(KLEIN, lam), ONE),
        _minus(_sum(*proj), ONE),
        *[("prod", (proj[mu], proj[nu])) if mu != nu else _minus(("prod", (proj[mu], proj[mu])), proj[mu])
          for mu in range(lam) for nu in range(lam)],
        *[_minus(("prod", (AD, proj[mu])), ("prod", (proj[(mu + 1) % lam], AD))) for mu in range(lam)],
        _minus(_comm(A, AD), _sum(ONE, *[_scal(alpha[mu], proj[mu]) for mu in range(lam)])),
        _minus(_comm(A, AD), _sum(ONE, *[_scal(kappa[r - 1], _pow(KLEIN, r)) for r in range(1, lam)])),
        _minus(("prod", (AD, KLEIN)), _scal(x, ("prod", (KLEIN, AD)))),
        _minus(("prod", (A, KLEIN)), _scal(x.conjugate(), ("prod", (KLEIN, A)))),
        _minus(("prod", (AD, A)), _sum(NUM, *[_scal(beta[mu], proj[mu]) for mu in range(lam)])),
        _minus(("prod", (A, AD)),
               _sum(NUM, ONE, *[_scal(beta[mu % lam], proj[(mu - 1) % lam]) for mu in range(lam)])),
        *[_minus(proj[mu], _sum(*[_scal(_root(lam, mu * nu) / lam, _pow(KLEIN, nu)) for nu in range(lam)]))
          for mu in range(lam)],
        _minus(_scal(0.5, ("anti", A, AD)),
               _sum(NUM, _scal(0.5, ONE), *[_scal(gamma[mu], proj[mu]) for mu in range(lam)])),
    ]
    if lam == 2:
        basic.append(("anti", KLEIN, AD))
    casimir = _sum(_pow(("prod", (AD, A)), 2), _scal(-0.5, ("anti", _mono(2, 1), A)))
    families = {
        "docs": [NUM, ("prod", (AD, A)), _sum(*proj)],
        "basic": basic,
        "single": [_comm(A, _pow(AD, m)) for m in range(1, 6)],
        "general": [_comm(_pow(A, n), _pow(AD, m)) for n in range(1, 5) for m in range(1, 9)],
        "virasoro": [_comm(_ell(m), _ell(n)) for m in range(-1, 4) for n in range(-1, 4)]
        + [_comm(_ell(m), KLEIN) for m in range(-1, 6)],
        "lambda2": [],
        "winf": [_comm(_mono(s, m), _mono(t, n))
                 for s in range(4) for m in range(4) for t in range(4) for n in range(4)]
        + [_comm(_mono(s, m), KLEIN) for s in range(5) for m in range(5)],
        "sp2": [_comm(_mono(0, 1), _mono(1, 1)), _comm(_mono(2, 1), _mono(1, 1)),
                _comm(_mono(2, 1), _mono(0, 1))],
        "casimir": [casimir, _comm(casimir, ("prod", (AD, A)))],
    }
    if lam == 2:
        for k in range(3):
            for j in range(3):
                families["lambda2"] += [_comm(_ell(2 * k), _ell(2 * j)),
                                        _comm(_ell(2 * k + 1), _ell(2 * j + 1)),
                                        _comm(_ell(2 * k), _ell(2 * j + 1))]
        families["lambda2"] += [_comm(_ell(m), KLEIN) for m in range(6)]
    return families


def creation_weight(w) -> int:
    """Most creation factors any expanded product term of `w` can hold."""
    kind = w[0]
    if kind == "atom":
        return 1 if w[1] == "ad" else 0
    if kind in ("proj", "scal"):
        return 0
    if kind == "sum":
        return max(creation_weight(t) for t in w[1])
    if kind == "prod":
        return sum(creation_weight(t) for t in w[1])
    if kind == "pow":
        return w[2] * creation_weight(w[1])
    return creation_weight(w[1]) + creation_weight(w[2])


def to_text(w) -> str:
    """Render a word in the syntax `cycosc nf` reads; every group is bracketed."""
    kind = w[0]
    if kind == "atom":
        return w[1]
    if kind == "proj":
        return f"P{w[1]}"
    if kind == "scal":
        return f"({w[1].real!r},{w[1].imag!r})"
    if kind == "sum":
        return "(" + " + ".join(to_text(t) for t in w[1]) + ")"
    if kind == "prod":
        return "(" + " * ".join(to_text(t) for t in w[1]) + ")"
    if kind == "pow":
        return f"{to_text(w[1])}^{w[2]}"
    left, right = to_text(w[1]), to_text(w[2])
    return f"[{left}, {right}]" if kind == "comm" else f"{{{left}, {right}}}"


def nf_params(seed: int) -> tuple:
    """The run's three parameter sets: (lambda, alpha) for each of NF_LAMBDAS."""
    rng = random.Random(f"nf-words:{seed}")
    return tuple((lam, random_alpha(rng, lam)) for lam in NF_LAMBDAS)


def nf_pool(seed: int) -> list:
    """Every distinct suite word at each of the run's parameter sets, in seeded
    order: (set index, word, text)."""
    pool = []
    for index, (lam, alpha) in enumerate(nf_params(seed)):
        seen = set()
        for words in suite_words(lam, alpha).values():
            for w in words:
                text = to_text(w)
                if text not in seen:
                    seen.add(text)
                    pool.append((index, w, text))
    random.Random(f"nf-words-order:{seed}").shuffle(pool)
    return pool
