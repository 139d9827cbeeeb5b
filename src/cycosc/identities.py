"""Identity verification suite.

Every check evaluates its bracket twice, once as a literal matrix word and
once through the normal-ordering engine, and requires the two to agree on the
safe window (the self-consistency gate).  The published right-hand side is
then assembled literally and compared against that ground truth:

    pass         residual against the published form is below tolerance
    discrepancy  the bracket closes on the predicted monomials but with
                 different constants (the fitted ones are reported)
    fail         the two oracles disagree, or an error occurred

Residuals are max absolute entries over safe-window columns.  The oracle
gate is normalized by the bracket's own window maximum, floored at 1.  A
residual against the published side is normalized by the window maxima of
the bracket and of the operands each check names (its target monomial, H0,
or a defining relation's left side), also floored at 1; a claim that the
bracket vanishes is normalized by the named operands alone.

``FAMILIES`` is the one place where a check family is declared: the suite
that runs it, its id prefix and index letters, its tolerance, its check
function and its index grid.  ``SUITES``, ``TOL``, the entry labels and the
dispatch of ``run_suite`` all come from it.  Most checks grade one bracket
per index; ``check_winf`` is one call per parameter set that grades all 256
higher-spin brackets, sharing their monomials and products between them.

The per-check ids, the fitted tables and the deterministic report layout are
the package's external wire format; see ``run_suite``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from itertools import combinations_with_replacement, product
from typing import NamedTuple

import numpy as np

from . import expr as ex
from .errors import EmptyWindow, IndexOutOfRealization, NotFinite, WrongLambda
from .fock import (
    Banded,
    FockRep,
    SafeWindow,
    apply_word,
    build_rep,
    safe_window,
    window_residual,
)
from .normal_order import (
    NormalForm,
    beta_closed_form,
    beta_tower_raw,
    f_kpoly,
    kpoly_left_mul,
    kpoly_left_sum,
    kpoly_mul,
    left_read,
    nf_add,
    nf_mul,
    nf_scale,
    nf_sub,
    nf_to_matrix,
    nf_zero,
    normal_form,
)
from .params import AlgebraParams, root_power, validate_alpha
from .winf import central_charge, central_term, dual_readings, winf_structure

GATE_TOL = 1e-8


class Family(NamedTuple):
    """One id family: the suite that runs it, its tolerance, check and index grid.

    `check` names the check function, looked up when it is called so that
    wrappers and patches of the module attribute apply.  `index` maps each
    id letter to its range; the grid is their product, and an empty index is
    one call of a check that returns its own entries.
    """

    suite: str
    family: str
    tol: float
    check: str
    index: dict


FAMILIES = (
    Family("basic", "basic", 1e-12, "check_basic", {}),
    Family("single", "single", 1e-8, "check_single_mode", {"m": range(1, 6)}),
    Family("general", "general", 1e-8, "check_general", {"n": range(1, 5), "m": range(1, 9)}),
    Family("virasoro", "virasoro", 1e-8, "check_virasoro", {"m": range(-1, 4), "n": range(-1, 4)}),
    Family("virasoro", "klein_v", 1e-10, "check_klein_virasoro", {"m": range(-1, 6)}),
    Family("lambda2", "lambda2", 1e-8, "check_lambda2", {}),
    Family("winf", "winf", 1e-8, "check_winf", {}),
    Family("winf", "klein_w", 1e-10, "check_klein_winf", dict.fromkeys("sm", range(5))),
    Family("sp2", "sp2", 1e-8, "check_sp2", {}),
    Family("casimir", "casimir", 1e-10, "check_casimir", {}),
    Family("wconst", "wconst", 1e-10, "check_wconst", {}),
)
TOL = {f.family: f.tol for f in FAMILIES}
SUITES = tuple(dict.fromkeys(f.suite for f in FAMILIES))

F_CANDIDATES = ("geometric", "conjugate", "paper")  # the order a winner is picked in

CONVENTION_NOTES = (
    "projectors use the normalized root sum P_mu = (1/lam) sum_nu x^{mu nu} K^nu",
    "Klein operator realized as K = exp(2i pi N / lam), forced by a+ K = x K a+",
    "alpha<->kappa transforms are the DFT pair consistent with the realized bracket",
    "ladder-bracket comparisons apply the fitted global sign to the published form",
    "residuals are max-abs window entries normalized by operand magnitude",
)


@dataclass
class IdentityCheck:
    """Outcome of one identity comparison."""

    id: str
    window: tuple
    residual_paper: float | None
    residual_best: float | None
    fitted: dict | None
    status: str


@lru_cache(maxsize=16)
def _rep(params: AlgebraParams, dim: int) -> FockRep:
    return build_rep(params, dim)


def _verdict(check_id, window, gate, res_paper, res_best=None, fitted=None, ok=True):
    """The one place where the gate and residuals become a status.

    The tolerance is the one of the check's family (the id up to its first
    dot); `res_best` defaults to the gate; `ok=False` (an off-support or
    off-ladder normal form) and a non-finite `res_paper` fail like a failed gate.
    """
    if res_best is None:
        res_best = gate
    tol = TOL[check_id.split(".")[0]]
    if not (gate < GATE_TOL and ok and math.isfinite(res_paper)):
        status = "fail"
    elif res_paper < tol:
        status = "pass"
    elif res_best < tol:
        status = "discrepancy"
    else:
        status = "fail"
    return IdentityCheck(check_id, (window.lo, window.hi), res_paper, res_best, fitted, status)


def _ungraded(check_id: str, status: str, fitted=None) -> IdentityCheck:
    """An entry that carries no residual: an error, n/a, or a recorded value."""
    return IdentityCheck(check_id, (0, 0), None, None, fitted, status)


def _failed(check_id: str, err: Exception) -> IdentityCheck:
    """The failed entry of a check that raised `err`."""
    return _ungraded(check_id, "fail", {"error": f"{type(err).__name__}: {err}"})


class _Dual:
    """One word evaluated by both oracles, and its oracle gate, on its safe window."""

    def __init__(self, rep: FockRep, e: ex.OperatorExpr):
        # normal-form terms keep the word's net degree, so one window serves both oracles
        self._grade(rep, apply_word(rep, e), normal_form(e, rep.params), safe_window(rep, [e]))

    @classmethod
    def of_parts(cls, rep: FockRep, mat: Banded, nf: NormalForm, window: SafeWindow) -> _Dual:
        """The word whose matrix, normal form and safe window are already evaluated."""
        d = cls.__new__(cls)
        d._grade(rep, mat, nf, window)
        return d

    def _grade(self, rep: FockRep, mat: Banded, nf: NormalForm, window: SafeWindow) -> None:
        self.rep, self.mat, self.nf, self.window = rep, mat, nf, window
        # the word's own window peak, floored at 1: the scale of every residual against it
        self.floor = max(1.0, mat.window_max(window.lo, window.hi))
        self.gate = self.against(nf)
        if not math.isfinite(self.gate):
            raise NotFinite(f"gate {self.gate} at dim {rep.dim}: the realization overflows")

    def against(self, published, *scale) -> float:
        """Residual of the word against a published right side.

        `published` is a normal form or its matrix, normalized by the word and
        the `scale` operands; None claims the word vanishes, normalized by the
        `scale` operands alone.
        """
        if published is None:
            return window_residual(self.mat, self.window, *scale)
        if isinstance(published, NormalForm):
            published = nf_to_matrix(published, self.rep)
        return window_residual(self.mat, self.window, *scale, minus=published, floor=self.floor)


def _c2(value: complex):
    return [float(value.real), float(value.imag)]


def _ktable(poly, prefix: str, start: int = 0) -> dict:
    """Fitted entries {prefix + r: [re, im]} of a K-polynomial from power `start` on."""
    return {f"{prefix}{r}": _c2(poly[r]) for r in range(start, len(poly))}


def _kpoly(params: AlgebraParams, c0, term) -> np.ndarray:
    """The K-polynomial [c0, term(kappa_1, 1), ..., term(kappa_{lam-1}, lam-1)].

    `term` gets kappa_r so that each printed product keeps its operand order.
    """
    rest = [term(params.kappa[r - 1], r) for r in range(1, params.lam)]
    return np.array([c0, *rest], dtype=complex)


def _mono_expr(s: int, m: int) -> ex.OperatorExpr:
    """Expression for (a+)^s a^m."""
    parts = []
    if s:
        parts.append(ex.Power(ex.AD, s))
    if m:
        parts.append(ex.Power(ex.A, m))
    if not parts:
        return ex.ONE
    return ex.word(*parts)


def _ell_expr(m: int) -> ex.OperatorExpr:
    if m < -1:
        raise IndexOutOfRealization(f"ladder index {m} < -1 has no realization")
    return _mono_expr(m + 1, 1)


@lru_cache(maxsize=8)
def virasoro_sign(lam: int) -> int:
    """Global sign of the realized ladder bracket, fitted undeformed.

    The realization satisfies [l_m, l_n] = sigma (m - n) l_{m+n} with a single
    sigma; it is measured once on [l_1, l_{-1}] against 2 l_0.
    """
    params = validate_alpha(lam, (0.0,) * lam)
    bracket = normal_form(ex.Commutator(_ell_expr(1), _ell_expr(-1)), params)
    lead = bracket.coefficient(1, 1, 0)
    return 1 if abs(lead - 2.0) < abs(lead + 2.0) else -1


# ---------------------------------------------------------------------------
# basic defining relations


def check_basic(params: AlgebraParams, dim: int) -> list:
    """Residuals of every defining relation of the algebra."""
    rep = _rep(params, dim)
    lam = params.lam
    x = params.root
    checks = []

    def add(check_id, pairs):
        """pairs: list of (lhs_expr, rhs_expr or None) whose difference must vanish."""
        worst_paper = 0.0
        worst_gate = 0.0
        windows = []
        for lhs, rhs in pairs:
            d = _Dual(rep, lhs if rhs is None else ex.summed(lhs, ex.negated(rhs)))
            worst_paper = max(worst_paper, d.against(None, apply_word(rep, lhs)))
            worst_gate = max(worst_gate, d.gate)
            windows.append(d.window)
        checks.append(_verdict(check_id, min(windows, key=lambda w: w.hi), worst_gate, worst_paper))

    proj = [ex.Proj(mu) for mu in range(lam)]

    def on_proj(coeffs, shift):
        """Terms of sum_mu coeffs[mu] P_{mu+shift}."""
        return [ex.scaled(coeffs[mu], proj[(mu + shift) % lam]) for mu in range(lam)]

    def on_klein(coeff, start):
        """Terms of sum_r coeff(r) K^r for r = start..lam-1."""
        return [ex.scaled(coeff(r), ex.Power(ex.KLEIN, r)) for r in range(start, lam)]

    add("basic.number_raise", [(ex.Commutator(ex.NUM, ex.AD), ex.AD)])
    add("basic.number_lower", [(ex.Commutator(ex.NUM, ex.A), ex.negated(ex.A))])
    add("basic.number_klein", [(ex.Commutator(ex.NUM, ex.KLEIN), None)])
    add("basic.number_proj", [(ex.Commutator(ex.NUM, p), None) for p in proj])
    add("basic.klein_cycle", [(ex.Power(ex.KLEIN, lam), ex.ONE)])
    add("basic.proj_complete", [(ex.summed(*proj), ex.ONE)])
    add(
        "basic.proj_orthogonal",
        [
            (ex.word(proj[mu], proj[nu]), proj[nu] if mu == nu else None)
            for mu in range(lam)
            for nu in range(lam)
        ],
    )
    add(
        "basic.shift_ad_proj",
        [
            (ex.word(ex.AD, proj[mu]), ex.word(proj[(mu + 1) % lam], ex.AD))
            for mu in range(lam)
        ],
    )
    bracket = ex.Commutator(ex.A, ex.AD)
    add("basic.bracket_alpha", [(bracket, ex.summed(ex.ONE, *on_proj(params.alpha, 0)))])
    kappa_sum = ex.summed(ex.ONE, *on_klein(lambda r: params.kappa[r - 1], 1))
    add("basic.bracket_kappa", [(bracket, kappa_sum)])
    add("basic.klein_ad", [(ex.word(ex.AD, ex.KLEIN), ex.scaled(x, ex.word(ex.KLEIN, ex.AD)))])
    add(
        "basic.klein_a",
        [(ex.word(ex.A, ex.KLEIN), ex.scaled(x.conjugate(), ex.word(ex.KLEIN, ex.A)))],
    )
    # structure function: a+ a = F(N) and a a+ = F(N+1), expanded over projectors
    f_of_n = ex.summed(ex.NUM, *on_proj(params.beta, 0))
    f_of_n1 = ex.summed(ex.NUM, ex.ONE, *on_proj(params.beta, -1))
    add("basic.struct_lower", [(ex.word(ex.AD, ex.A), f_of_n)])
    add("basic.struct_raise", [(ex.word(ex.A, ex.AD), f_of_n1)])
    # projector from Klein powers with the 1/lam normalization
    add("basic.proj_klein_sum", [
        (proj[mu], ex.summed(*on_klein(lambda nu: root_power(lam, mu * nu) / lam, 0)))
        for mu in range(lam)
    ])
    # Hamiltonian: (1/2){a, a+} equals N + 1/2 + sum gamma_mu P_mu
    h_words = ex.scaled(0.5, ex.Anticommutator(ex.A, ex.AD))
    h_shift = ex.summed(ex.NUM, ex.scaled(0.5, ex.ONE), *on_proj(params.gamma, 0))
    add("basic.hamiltonian_shift", [(h_words, h_shift)])
    if lam == 2:
        add("basic.klein_anticommute", [(ex.Anticommutator(ex.KLEIN, ex.AD), None)])
    return checks


# ---------------------------------------------------------------------------
# single-mode reordering


def check_single_mode(params: AlgebraParams, dim: int, m: int) -> IdentityCheck:
    """[a, (a+)^m] against the three candidate coefficient functions."""
    rep = _rep(params, dim)
    lam = params.lam
    d = _Dual(rep, ex.Commutator(ex.A, ex.Power(ex.AD, m)))

    on_support = all((p, q) == (m - 1, 0) for (p, q) in d.nf.support())

    target = rep.matrix_power("ad", m - 1)
    residuals = {}
    for variant in F_CANDIDATES:
        poly = f_kpoly(params, m, variant).vec
        poly[0] = m
        residuals[variant] = d.against(kpoly_left_mul(poly, m - 1, 0, lam), target)

    winner = next((v for v in F_CANDIDATES if residuals[v] < TOL["single"]), "none")
    if not params.is_deformed:
        winner = "all"

    fitted = {"winner": winner, **_ktable(left_read(d.nf, m - 1, 0), "K")}
    fitted.update({f"residual_{v}": res for v, res in residuals.items()})

    return _verdict(
        f"single.m{m}", d.window, d.gate, residuals["paper"], min(residuals.values()),
        fitted, on_support,
    )


# ---------------------------------------------------------------------------
# general reordering


def check_general(params: AlgebraParams, dim: int, n: int, m: int) -> IdentityCheck:
    """[a^n, (a+)^m]: oracle cross-check plus the literal double-sum assembly.

    The published right side pairs the coefficient tower of the one-lower
    power product (its monomials are (a+)^{m-l-1} a^{n-l-1}), so the tower
    with n-1 lowering factors is used for both the oracle and the literal
    closed-form coefficients.
    """
    rep = _rep(params, dim)
    lam = params.lam
    d = _Dual(rep, ex.Commutator(ex.Power(ex.A, n), ex.Power(ex.AD, m)))

    allowed = {(m - 1 - l, n - 1 - l) for l in range(min(n, m))}
    on_support = d.nf.support() <= allowed

    tower = beta_tower_raw(n - 1, m, params)
    prefactor = f_kpoly(params, m, "paper")

    def assemble(betas):
        # nf_add, not one dict: the grades of different alpha coincide, and the
        # pruning after each sum is part of the published side's arithmetic
        rhs = nf_zero(lam)
        for alpha in range(n):
            # one bracket (m + F x^alpha); x^alpha is a scalar power
            phase = root_power(lam, alpha)
            pref = _kpoly(params, m, lambda _, r: prefactor.vec[r] * phase)
            for l in range(min(alpha + 1, m)):
                combined = kpoly_mul(pref, betas[l])
                rhs = nf_add(rhs, kpoly_left_mul(combined, m - l - 1, n - l - 1, lam))
        return rhs

    res_oracle = d.against(assemble(tower.coeffs))
    res_closed = d.against(assemble([beta_closed_form(n - 1, m, l, params) for l in range(n)]))

    # direct tower validation: sum_l beta_l (a+)^{m-1-l} a^{n-1-l} == a^{n-1} (a+)^{m-1}
    tower_nf = kpoly_left_sum(
        ((poly, m - 1 - l, n - 1 - l) for l, poly in enumerate(tower.coeffs[:m])), lam
    )
    prod_mat = rep.matrix_power("a", n - 1) @ rep.matrix_power("ad", m - 1)
    res_tower = window_residual(prod_mat, d.window, prod_mat, minus=nf_to_matrix(tower_nf, rep))

    fitted = {"assembly_oracle_beta": res_oracle, "assembly_closed_beta": res_closed,
              "tower_matrix_residual": res_tower, "on_support": bool(on_support)}
    return _verdict(f"general.n{n}.m{m}", d.window, d.gate, res_closed, fitted=fitted,
                    ok=on_support)


# ---------------------------------------------------------------------------
# deformed ladder (Virasoro-type) relations


def _ladder(params: AlgebraParams, dim: int, check_id: str, m: int, n: int, poly) -> IdentityCheck:
    """[l_m, l_n] against sigma (sum_r poly[r] K^r) l_{m+n}, the K-polynomial on the left."""
    rep = _rep(params, dim)
    lam = params.lam
    sigma = virasoro_sign(lam)
    d = _Dual(rep, ex.Commutator(_ell_expr(m), _ell_expr(n)))
    rhs_nf = nf_scale(kpoly_left_mul(poly, m + n + 1, 1, lam), sigma)
    res_paper = d.against(rhs_nf, rep.monomial(m + n + 1, 1, 0))
    lead_poly = left_read(d.nf, m + n + 1, 1)
    fitted = {"sigma": sigma, "lead": _c2(lead_poly[0]), **_ktable(lead_poly, "K", 1)}
    return _verdict(check_id, d.window, d.gate, res_paper, fitted=fitted)


def check_virasoro(params: AlgebraParams, dim: int, m: int, n: int) -> IdentityCheck:
    """[l_m, l_n] against the published deformed bracket, sign-adjusted."""
    if m != n and m + n < -1:
        raise IndexOutOfRealization(f"l_{m+n} outside the realization")
    check_id = f"virasoro.m{m}.n{n}"
    lam = params.lam
    if m == n:
        # antisymmetry makes both sides zero; no target monomial is needed
        rep = _rep(params, dim)
        d = _Dual(rep, ex.Commutator(_ell_expr(m), _ell_expr(n)))
        res_paper = d.against(None, rep.monomial(m + 1, 1, 0))
        return _verdict(check_id, d.window, d.gate, res_paper, fitted={"sigma": virasoro_sign(lam)})

    poly = _kpoly(params, m - n, lambda k, r: k * (
        root_power(lam, -r * (n + 1)) - root_power(lam, -r * (m + 1))
    ))
    return _ladder(params, dim, check_id, m, n, poly)


def _klein(params: AlgebraParams, dim: int, check_id: str, generator, s: int, m: int, claimed,
           shift=None, grading=None) -> IdentityCheck:
    """[w, K] for the generator w = (a+)^s a^m, against `claimed` times the monomial wK.

    With `shift` None the monomial is read with K on the right, (a+)^s a^m K;
    otherwise with K on the left, K (a+)^s a^m = x^shift (a+)^s a^m K.  The
    fitted coefficient is graded as the best residual; a measured `grading`
    is reported with whether w commutes with K.
    """
    rep = _rep(params, dim)
    d = _Dual(rep, ex.Commutator(generator, ex.KLEIN))
    c_fit = d.nf.coefficient(s, m, 1)
    mono = rep.monomial(s, m, 1)
    if shift is not None:
        mono = complex(root_power(params.lam, shift)) * mono
        c_fit = c_fit * root_power(params.lam, -shift)
    res_fit = d.against(c_fit * mono, mono)
    fitted = {"coefficient": _c2(c_fit), "claimed": _c2(claimed)}
    if grading is not None:
        fitted["grading"] = _c2(grading)
        fitted["commutes"] = bool(res_fit < 1e-10 and abs(c_fit) < 1e-10)
    return _verdict(check_id, d.window, d.gate, d.against(claimed * mono, mono),
                    max(res_fit, d.gate), fitted)


def check_klein_virasoro(params: AlgebraParams, dim: int, m: int) -> IdentityCheck:
    """[l_m, K] against the published grading g = 1 - exp(2i pi (m+1)/lam).

    The realization grades by the net degree: the measured coefficient is
    1 - exp(2i pi m / lam), reported in the fitted table.
    """
    lam = params.lam
    g_paper, grading = (1.0 - cmath.exp(2j * cmath.pi * k / lam) for k in (m + 1, m))
    return _klein(params, dim, f"klein_v.m{m}", _ell_expr(m), m + 1, 1, g_paper, grading=grading)


def check_lambda2(params: AlgebraParams, dim: int) -> list:
    """Order-two case: even/even, odd/odd and even/odd ladder brackets."""
    if params.lam != 2:
        raise WrongLambda(f"order-two suite needs lam = 2, got {params.lam}")
    kappa1 = params.kappa[0]
    checks = []
    for k, l in product(range(3), repeat=2):
        rows = (
            # even/even: claim (2k - 2l) l_{2k+2l}, no deformation term
            ("ee", 2 * k, 2 * l, [2 * k - 2 * l, 0]),
            # odd/odd: claim (2k - 2l) l_{2k+2l+2}
            ("oo", 2 * k + 1, 2 * l + 1, [2 * k - 2 * l, 0]),
            # even/odd: claim 2(l - k) l + (1 - 2 kappa_1 K) l at index 2k+2l+1
            ("eo", 2 * k, 2 * l + 1, [2 * (l - k) + 1, -2 * kappa1]),
        )
        for kind, m, n, poly in rows:
            checks.append(_ladder(params, dim, f"lambda2.{kind}.k{k}.l{l}", m, n, poly))
    for k in range(3):
        for parity, em, claimed in (("even", 2 * k, 2.0), ("odd", 2 * k + 1, 0.0)):
            checks.append(_klein(params, dim, f"lambda2.klein_{parity}.k{k}", _ell_expr(em),
                                 em + 1, 1, claimed))
    return checks


# ---------------------------------------------------------------------------
# higher-spin family


@lru_cache(maxsize=256)
def _xi_side(params: AlgebraParams, s: int, m: int, t: int):
    """Per-level terms of the published Xi^{(s,m)} coefficient sum.

    Term l (0 <= l <= m-1) is (m - l) (t + F x^{l+s}) beta_l^{[s]} with the
    tower taken from the product of m lowering factors against t raising
    factors, and the bracketed-power substitution x^j -> x^{js} applied to
    the printed beta formulas.  Returns a read-only (m x lam) array, one
    K-polynomial a row, built once per argument and shared by every check.
    """
    F = f_kpoly(params, t + 1, "paper")
    out = np.zeros((m, params.lam), dtype=complex)
    for l in range(m):
        phase = root_power(params.lam, l + s)
        pref = _kpoly(params, t, lambda _, r: F.vec[r] * phase)
        beta = beta_closed_form(m, t + 1, l, params, subst=s)
        out[l] = (m - l) * kpoly_mul(pref, beta)
    out.setflags(write=False)
    return out


def check_winf(params: AlgebraParams, dim: int) -> list:
    """[w^s_m, w^t_n] against the published level-by-level coefficient sums, for all s, m, t, n.

    One call grades the whole grid, sorted by id.  Each oracle evaluates the
    16 monomials once, and each unordered pair x <= y of them is one `_Dual`
    of [w_x, w_y] = XY - YX, as `apply_word` and `normal_form` evaluate a
    `Commutator`.  Its mirror [w_y, w_x] is the exact negation, so it is
    graded on the same `_Dual` against its own published side negated.  An
    error in a pair fails both of its entries, and one in a published side
    fails that entry alone; a window the truncation leaves empty, or a gate
    that is not finite, raises EmptyWindow or NotFinite naming the first such
    bracket, which `run_suite` does not grade.
    """
    rep = _rep(params, dim)
    lam = params.lam
    monomials = list(product(range(4), repeat=2))  # (s, m) of w^s_m, each of 0..3
    for s, t in product(range(4), repeat=2):
        if s + t > dim - 1:
            raise EmptyWindow(f"creation weight {s + t} of winf.s{s}.m0.t{t}.n0 "
                              f"leaves no exact column at dim {dim}")
    evaluated = {}

    def label(x: int, y: int) -> str:
        return "winf.s{}.m{}.t{}.n{}".format(*monomials[x], *monomials[y])

    def dual(x: int, y: int) -> _Dual:
        """[w_x, w_y] as XY - YX of its two oracle products; with x == y, one product each."""
        for k in {x, y} - evaluated.keys():
            e = _mono_expr(*monomials[k])
            evaluated[k] = apply_word(rep, e), normal_form(e, params)
        (x_mat, x_nf), (y_mat, y_nf) = evaluated[x], evaluated[y]
        xy_mat, xy_nf = x_mat @ y_mat, nf_mul(x_nf, y_nf, params)
        yx_mat, yx_nf = (xy_mat, xy_nf) if x == y else (y_mat @ x_mat, nf_mul(y_nf, x_nf, params))
        window = SafeWindow(0, dim - 1 - (monomials[x][0] + monomials[y][0]))
        return _Dual.of_parts(rep, xy_mat - yx_mat, nf_sub(xy_nf, yx_nf), window)

    def graded(d: _Dual, x: int, y: int) -> IdentityCheck:
        """[w_x, w_y] graded on `d`, the `_Dual` of the pair; with x > y, a mirror."""
        (s, m), (t, n) = monomials[x], monomials[y]
        grade = (s - m) + (t - n)
        on_ladder = all(p - q == grade for (p, q) in d.nf.support())

        polys = np.zeros((max(m, n), lam), dtype=complex)
        polys[:m] += _xi_side(params, s, m, t)
        polys[:n] -= _xi_side(params, t, n, s)
        rows, dropped = [], 0
        for l, poly in enumerate(polys):
            p, q = s + t - l - 1, m + n - l - 1
            if p >= 0 and q >= 0:
                rows.append((poly, p, q))
            elif np.any(np.abs(poly) > 1e-13):
                dropped += 1
        rhs = kpoly_left_sum(rows, lam)
        # a mirror's residual is |(-M) - P| = |M + P| bit for bit: IEEE negation is exact
        res_paper = d.against(nf_scale(rhs, -1.0) if x > y else rhs)
        fitted = {"on_ladder": bool(on_ladder), "dropped_terms": dropped}
        return _verdict(label(x, y), d.window, d.gate, res_paper, fitted=fitted, ok=on_ladder)

    checks = []
    for x, y in combinations_with_replacement(range(16), 2):
        brackets = [(x, y)] if x == y else [(x, y), (y, x)]
        try:
            d = dual(x, y)
        except NotFinite as err:
            raise NotFinite(f"{label(x, y)}: {err}") from err
        except Exception as err:  # noqa: BLE001 - this pair fails, the others are graded
            checks += [_failed(label(u, v), err) for u, v in brackets]
            continue
        for u, v in brackets:
            try:
                checks.append(graded(d, u, v))
            except Exception as err:  # noqa: BLE001 - this entry fails, the others are graded
                checks.append(_failed(label(u, v), err))
    return sorted(checks, key=lambda c: c.id)


def check_klein_winf(params: AlgebraParams, dim: int, s: int, m: int) -> IdentityCheck:
    """[w^s_m, K] against the published coefficient (x^{s+m} - 1) K w^s_m.

    The measured grading is x^{s-m} - 1: the generator commutes with K
    exactly when s = m (mod lam), not when s + m = 0 (mod lam).
    """
    lam = params.lam
    # K w^s_m in canonical layout: phase x^{m-s} times (a+)^s a^m K
    return _klein(params, dim, f"klein_w.s{s}.m{m}", _mono_expr(s, m), s, m,
                  root_power(lam, s + m) - 1.0, m - s, root_power(lam, s - m) - 1.0)


def check_sp2(params: AlgebraParams, dim: int) -> list:
    """The three brackets of the realized sp(2) triple w^0_1, w^1_1, w^2_1."""
    rep = _rep(params, dim)
    lam = params.lam
    x = params.root
    checks = []

    def entry(check_id, s1, m1, s2, m2, rhs_poly, target_s, target_m):
        d = _Dual(rep, ex.Commutator(_mono_expr(s1, m1), _mono_expr(s2, m2)))
        rhs_nf = kpoly_left_mul(rhs_poly, target_s, target_m, lam)
        res_paper = d.against(rhs_nf, rep.monomial(target_s, target_m, 0))
        fitted = _ktable(left_read(d.nf, target_s, target_m), "K")
        checks.append(_verdict(check_id, d.window, d.gate, res_paper, fitted=fitted))

    # [w^0_1, w^1_1] claimed [sum kappa_r K^r (1 - x) + 1] w^0_1
    poly = _kpoly(params, 1.0, lambda k, r: k * (1.0 - x))
    entry("sp2.low_mid", 0, 1, 1, 1, poly, 0, 1)

    # [w^2_1, w^1_1] claimed [sum kappa_r K^r (1 + x^r) x (x - 1) - 1] w^2_1
    poly = _kpoly(params, -1.0, lambda k, r: k * (1.0 + root_power(lam, r)) * x * (x - 1.0))
    entry("sp2.high_mid", 2, 1, 1, 1, poly, 2, 1)

    # [w^2_1, w^0_1] claimed [sum kappa_r K^r (1 + x^r) (x^2 - 1) - 2] w^1_1
    poly = _kpoly(params, -2.0, lambda k, r: k * (1.0 + root_power(lam, r)) * (x * x - 1.0))
    entry("sp2.high_low", 2, 1, 0, 1, poly, 1, 1)
    return checks


def check_casimir(params: AlgebraParams, dim: int) -> list:
    """Undeformed vanishing of C plus the deformed bracket comparison."""
    rep = _rep(params, dim)
    lam = params.lam
    x = params.root

    c_expr = ex.summed(
        ex.Power(ex.word(ex.AD, ex.A), 2),
        ex.scaled(-0.5, ex.Anticommutator(ex.word(ex.Power(ex.AD, 2), ex.A), ex.A)),
    )
    b = _Dual(rep, ex.Commutator(c_expr, ex.word(ex.AD, ex.A)))
    if not params.is_deformed:
        # undeformed claims: C vanishes, and it is central on the triple, so [C, w^1_1] = 0
        c = _Dual(rep, c_expr)
        return [
            _verdict("casimir.vanishing", c.window, c.gate, c.against(None, rep.mat_h0)),
            _verdict("casimir.bracket", b.window, b.gate, b.against(None, rep.mat_h0)),
        ]

    # published right side: first piece on (a+)^2 a^2, second on a+ a
    xs = partial(root_power, lam)
    poly22 = _kpoly(params, 0.0, lambda k, r: (
        0.5 * k * (xs(3 * r) - (1.0 + xs(r)) * x - (xs(r) + xs(2 * r)) * x + 1.0) * (x - 1.0)
    ))
    # sum kappa_r K^r (x^r + x^{2r}) x - 1, and 1 + (1/2) sum kappa_r K^r (1 + x^r)
    bracket_a = _kpoly(params, -1.0, lambda k, r: k * (xs(r) + xs(2 * r)) * x)
    bracket_b = _kpoly(params, 1.0, lambda k, r: 0.5 * k * (1.0 + xs(r)))
    poly11 = kpoly_mul(bracket_a, bracket_b, 1.0 - x)
    rhs_nf = nf_add(kpoly_left_mul(poly22, 2, 2, lam), kpoly_left_mul(poly11, 1, 1, lam))
    fitted = {**_ktable(left_read(b.nf, 2, 2), "w22_K"), **_ktable(left_read(b.nf, 1, 1), "w11_K")}
    return [_verdict("casimir.bracket", b.window, b.gate, b.against(rhs_nf, rep.mat_h0),
                     fitted=fitted)]


# ---------------------------------------------------------------------------
# standalone structure constants


def check_wconst(phi_reading: str = "literal", n_reading: str = "literal") -> list:
    """Central charges and dual-reading structure constants, realization-free.

    The entries are built once per pair of readings; each call gets fresh
    copies (the fitted values are numbers and strings).
    """
    return [replace(c, fitted=dict(c.fitted)) for c in _wconst_checks(phi_reading, n_reading)]


@lru_cache(maxsize=8)
def _wconst_checks(phi_reading: str, n_reading: str) -> tuple:
    worst = 0.0
    fitted = {}
    for i in range(11):
        ci = central_charge(i)
        if ci <= 0:
            worst = 1.0
        if i <= 3:
            fitted[f"c{i}"] = f"{ci.numerator}/{ci.denominator}"
    for i in range(7):
        for m in range(-(i + 1), i + 2):
            if central_term(i, m) != 0:
                worst = 1.0
    checks = [_verdict("wconst.central", SafeWindow(0, 0), 0.0, worst, worst, fitted)]
    for i in range(4):
        for j in range(4):
            for l in range(4):
                values = dual_readings(i, j, l, 1, -1)
                values["g"] = winf_structure(i, j, l, 1, -1, n_reading, phi_reading).value_g
                values["readings"] = f"N={n_reading},phi={phi_reading}"
                checks.append(_ungraded(f"wconst.g.i{i}.j{j}.l{l}", "pass", values))
    return tuple(checks)


# ---------------------------------------------------------------------------
# suite driver


def run_suite(params: AlgebraParams, dim: int = 64, selection=("all",),
              phi_reading: str = "literal", n_reading: str = "literal") -> dict:
    """Execute the selected check suites and assemble the JSON-ready report.

    Each `FAMILIES` row of a selected suite calls its check once per index
    tuple of its grid; a check that raises WrongLambda becomes one
    `not-applicable` entry.  A truncation the realization refuses raises
    before any check is graded (unless only the realization-free `wconst`
    suite is selected), and one that leaves a check no exact column raises
    EmptyWindow naming the check; other per-check errors become failed
    entries and the suite never aborts.  Reports are byte-deterministic for a
    fixed configuration.
    """
    selection = tuple(selection)
    if "all" in selection:
        chosen = set(SUITES)
    else:
        unknown = set(selection) - set(SUITES)
        if unknown:
            raise ValueError(f"unknown suites: {sorted(unknown)}")
        chosen = set(selection)
    if chosen - {"wconst"}:
        _rep(params, dim)

    checks: list[IdentityCheck] = []
    for fam in FAMILIES:
        if fam.suite not in chosen:
            continue
        head = (phi_reading, n_reading) if fam.suite == "wconst" else (params, dim)
        for values in product(*fam.index.values()):
            label = fam.family + "".join(f".{k}{v}" for k, v in zip(fam.index, values))
            try:
                result = globals()[fam.check](*head, *values)
            except WrongLambda:
                result = _ungraded(label, "not-applicable")
            except EmptyWindow as err:  # a truncation too small for the check is not graded
                raise EmptyWindow(f"{label} needs more levels than dim {dim}: {err}") from err
            except NotFinite as err:  # an overflowing realization is not graded either
                raise NotFinite(f"{label}: {err}") from err
            except Exception as err:  # noqa: BLE001 - reported, never fatal
                result = _failed(label, err)
            checks.extend(result if isinstance(result, list) else [result])

    checks.sort(key=lambda c: c.id)
    summary = dict.fromkeys(("pass", "discrepancy", "fail", "not_applicable"), 0)
    for c in checks:
        summary[c.status.replace("-", "_")] += 1

    config = {
        "lambda": params.lam,
        "alpha": [float(a) for a in params.alpha],
        "kappa": [[k.real, k.imag] for k in params.kappa],
        "dim": dim,
        "suites": sorted(chosen),
        "phi_reading": phi_reading,
        "N_reading": n_reading,
        "sigma": virasoro_sign(params.lam),
        "gate_tolerance": GATE_TOL,
        "tolerances": dict(sorted(TOL.items())),
        "notes": list(CONVENTION_NOTES),
    }
    return {
        "config": config,
        "checks": [{**vars(c), "window": list(c.window)} for c in checks],
        "summary": summary,
    }
