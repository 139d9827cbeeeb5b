import cmath
import json
import math

import numpy as np
import pytest

from cycosc import expr as ex
from cycosc.errors import DimTooSmall, EmptyWindow, NegativeLevel, UnknownSymbol
from cycosc.expr import parse
from cycosc.fock import (
    Banded,
    apply_word,
    build_rep,
    dump_matrices,
    safe_window,
    spectrum,
    spectrum_closed_form,
    structure_function,
)
from cycosc.normal_order import normal_form
from cycosc.params import validate_alpha

from conftest import bits, dense, random_valid_alpha


def test_structure_function_values(params_l2, params_l3):
    assert structure_function(params_l2, 3) == pytest.approx(3.5)
    assert structure_function(validate_alpha(4, (0,) * 4), 7) == 7.0
    assert structure_function(params_l3, 5) == pytest.approx(5.5)
    with pytest.raises(NegativeLevel):
        structure_function(params_l2, -1)


def test_ladder_entries_plain(params_plain):
    a = dense(build_rep(params_plain, 4).mat_a)
    assert a[0, 1] == pytest.approx(1.0)
    assert a[1, 2] == pytest.approx(math.sqrt(2))


def test_ladder_entries_deformed(params_l2):
    a = dense(build_rep(params_l2, 4).mat_a)
    assert a[0, 1] == pytest.approx(math.sqrt(1.5))
    assert a[1, 2] == pytest.approx(math.sqrt(2.0))
    assert a[2, 3] == pytest.approx(math.sqrt(3.5))


def test_dim_guard(params_l3):
    with pytest.raises(DimTooSmall):
        build_rep(params_l3, 4)


def test_klein_power_and_projector_algebra(rng):
    for lam in (2, 3, 4, 5):
        p = validate_alpha(lam, random_valid_alpha(rng, lam))
        rep = build_rep(p, 24)
        mat_k, mat_a, mat_adag = (dense(m) for m in (rep.mat_k, rep.mat_a, rep.mat_adag))
        mat_p = [dense(m) for m in rep.mat_p]
        eye = np.eye(24)
        assert np.max(np.abs(np.linalg.matrix_power(mat_k, lam) - eye)) < 1e-12
        total = sum(mat_p)
        assert np.max(np.abs(total - eye)) < 1e-12
        for mu in range(lam):
            for nu in range(lam):
                target = mat_p[nu] if mu == nu else 0.0
                assert np.max(np.abs(mat_p[mu] @ mat_p[nu] - target)) < 1e-12
        assert np.max(np.abs(mat_adag - mat_a.conj().T)) == 0.0


def test_bracket_ground_truth(rng):
    for lam in (2, 3, 4, 5):
        p = validate_alpha(lam, random_valid_alpha(rng, lam))
        rep = build_rep(p, 24)
        mat_k, mat_a, mat_adag = (dense(m) for m in (rep.mat_k, rep.mat_a, rep.mat_adag))
        bracket = mat_a @ mat_adag - mat_adag @ mat_a - np.eye(24)
        for r in range(1, lam):
            bracket = bracket - p.kappa[r - 1] * np.linalg.matrix_power(mat_k, r)
        assert np.max(np.abs(bracket[:23, :23])) < 1e-12


def test_klein_exchange_with_ladders(params_l3):
    rep = build_rep(params_l3, 16)
    x = params_l3.root
    mat_k, mat_adag = dense(rep.mat_k), dense(rep.mat_adag)
    res = mat_adag @ mat_k - x * mat_k @ mat_adag
    assert np.max(np.abs(res)) < 1e-14


def test_number_and_structure_diagonals(params_l3):
    rep = build_rep(params_l3, 16)
    mat_a, mat_adag = dense(rep.mat_a), dense(rep.mat_adag)
    nd = mat_adag @ mat_a
    for n in range(16):
        assert nd[n, n] == pytest.approx(structure_function(params_l3, n), abs=1e-12)
    raised = mat_a @ mat_adag
    for n in range(15):
        assert raised[n, n] == pytest.approx(structure_function(params_l3, n + 1), abs=1e-12)


def test_spectrum_deformed(params_l2):
    rep = build_rep(params_l2, 16)
    ev = spectrum(rep)
    assert np.allclose(ev, [n + 0.75 for n in range(15)], atol=1e-10)


def test_spectrum_plain(params_plain):
    ev = spectrum(build_rep(params_plain, 16))
    assert np.allclose(ev, [n + 0.5 for n in range(15)], atol=1e-12)


def test_spectrum_order_three(params_l3):
    ev = spectrum(build_rep(params_l3, 16))
    assert ev[:4] == pytest.approx([0.65, 1.9, 2.75, 3.65], abs=1e-10)
    assert np.allclose(ev, spectrum_closed_form(params_l3, 15), atol=1e-10)


def test_apply_word_canonical_bracket(params_plain):
    rep = build_rep(params_plain, 12)
    mat = apply_word(rep, parse("a ad - ad a"))
    window = safe_window(rep, [parse("a ad - ad a")])
    assert (mat - Banded.identity(12)).window_max(window.lo, window.hi) < 1e-12


def test_apply_word_klein_cycle(params_l3):
    rep = build_rep(params_l3, 12)
    mat = dense(apply_word(rep, parse("K^3")))
    assert np.max(np.abs(mat - np.eye(12))) < 1e-12


def test_apply_word_partition_of_unity(params_l2):
    rep = build_rep(params_l2, 12)
    mat = dense(apply_word(rep, parse("P0 + P1")))
    assert np.max(np.abs(mat - np.eye(12))) < 1e-12


def test_apply_word_unknown_projector(params_l2):
    rep = build_rep(params_l2, 12)
    with pytest.raises(UnknownSymbol):
        apply_word(rep, parse("P5"))


def test_safe_window_examples(params_l2):
    rep16 = build_rep(params_l2, 16)
    win = safe_window(rep16, [parse("[a, ad^3]")])
    assert (win.lo, win.hi) == (0, 12)

    rep8 = build_rep(params_l2, 8)
    with pytest.raises(EmptyWindow):
        safe_window(rep8, [parse("ad^10")])

    rep32 = build_rep(params_l2, 32)
    casimir = parse("(ad a)^2 - 0.5*{ad^2 a, a}")
    win = safe_window(rep32, [casimir])
    assert (win.lo, win.hi) == (0, 29)


def test_dump_matrices_roundtrip(params_l2):
    rep = build_rep(params_l2, 6)
    blob = json.loads(json.dumps(dump_matrices(rep)))
    assert set(blob) == {"N", "K", "a", "ad", "H0", "P0", "P1"}
    a = blob["a"]
    assert a["rows"] == a["cols"] == 6
    rebuilt = np.zeros((6, 6), dtype=complex)
    for i, j, re, im in a["entries"]:
        rebuilt[i, j] = complex(re, im)
    assert np.max(np.abs(rebuilt - dense(rep.mat_a))) < 1e-15


def _literal_tables(params, dim):
    """K, P_mu and a from the per-level loops the realization is defined by.

    Levels are numpy ints, whose complex division by lam numpy rounds
    differently from Python's at some lam (6 and 9 among 2..9).
    """
    lam = params.lam
    levels = np.arange(dim)
    k = np.diag([cmath.exp(2j * cmath.pi * (n % lam) / lam) for n in levels])
    projectors = []
    for mu in range(lam):
        diag = np.zeros(dim, dtype=complex)
        for n in levels:
            acc = 0.0 + 0.0j
            for nu in range(lam):
                acc += cmath.exp(2j * cmath.pi * nu * ((n - mu) % lam) / lam)
            diag[n] = acc / lam
        projectors.append(np.diag(diag))
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(structure_function(params, n))
    return k, projectors, a


@pytest.mark.parametrize("lam", range(2, 10))
def test_build_rep_matches_literal_loops(lam, rng):
    head = rng.uniform(-0.1, 0.1, lam - 1)
    params = validate_alpha(lam, np.append(head, -head.sum()))
    for dim in (lam + 2, 2 * lam + 3, 40):
        rep = build_rep(params, dim)
        k, projectors, a = _literal_tables(params, dim)
        assert np.array_equal(dense(rep.mat_k), k)
        assert all(np.array_equal(dense(p), q)
                   for p, q in zip(rep.mat_p, projectors, strict=True))
        assert np.array_equal(dense(rep.mat_a), a)
        assert np.array_equal(dense(rep.mat_adag), a.conj().T)


@pytest.mark.parametrize("lam, dim", [(2, 16), (3, 40), (5, 64)])
def test_spectrum_is_sorted_eigensolve(lam, dim):
    alpha = [0.0] * lam
    alpha[0], alpha[-1] = 0.4, -0.4
    rep = build_rep(validate_alpha(lam, alpha), dim)
    block = dense(rep.mat_h0)[: dim - 1, : dim - 1]
    assert np.max(np.abs(spectrum(rep) - np.sort(np.linalg.eigvalsh(block)))) < 1e-12


def test_dump_matrices_matches_entry_loop(params_l3):
    rep = build_rep(params_l3, 9)
    blob = dump_matrices(rep)
    named = {"N": rep.mat_n, "K": rep.mat_k, "a": rep.mat_a, "ad": rep.mat_adag, "H0": rep.mat_h0}
    named.update({f"P{mu}": p for mu, p in enumerate(rep.mat_p)})
    named = {key: dense(mat) for key, mat in named.items()}
    assert set(blob) == set(named)
    for key, mat in named.items():
        entries = [
            [i, j, float(mat[i, j].real), float(mat[i, j].imag)]
            for i in range(9)
            for j in range(9)
            if mat[i, j] != 0
        ]
        assert blob[key] == {"rows": 9, "cols": 9, "entries": entries}


def test_rep_storage_is_linear_in_dim():
    """Every generator is one diagonal: storage stays at one vector per field."""
    lam, dim = 5, 256
    rep = build_rep(validate_alpha(lam, (0.3, -0.1, 0.2, -0.25, -0.15)), dim)
    fields = (rep.mat_n, rep.mat_k, rep.mat_a, rep.mat_adag, rep.mat_h0, *rep.mat_p)
    assert sum(m.nbytes for m in fields) <= (lam + 5) * dim * 16


@pytest.mark.parametrize("nan_first", [True, False])
def test_window_max_is_nan_when_a_window_entry_is_nan(nan_first):
    clean = np.array([3.0, -7.0, 2.0, 1.0], dtype=complex)
    spoiled = np.array([0.5, complex(np.nan, 0.0), 0.25, 0.0], dtype=complex)
    bands = {0: spoiled, 1: clean} if nan_first else {1: clean, 0: spoiled}
    assert math.isnan(Banded(4, bands).window_max(0, 2))
    assert math.isnan((Banded(4, {0: clean}) - Banded(4, bands)).window_max(0, 2))
    # a NaN on a subtracted band at an offset the matrix lacks
    assert math.isnan((Banded(4, {1: clean}) - Banded(4, {0: spoiled})).window_max(0, 2))
    # the floor of a NaN peak is Python's max, as for a word's own window peak
    assert max(1.0, Banded(4, bands).window_max(0, 2)) == 1.0


def test_window_max_ignores_nan_outside_the_window():
    vec = np.array([1.0, -4.0, 2.0, np.nan], dtype=complex)
    lower = np.array([0.0, 5.0, 1.0, 0.0], dtype=complex)
    assert Banded(4, {0: vec, -1: lower}).window_max(1, 2) == 5.0
    assert Banded(4, {0: vec}).window_max(0, 2) == 4.0
    powers = np.array([1.0, 2.0, 4.0, 8.0, 16.0], dtype=complex)
    assert [Banded(5, {0: powers}).window_max(0, hi) for hi in range(5)] == [1, 2, 4, 8, 16]
    # a subtracted band at an offset the matrix lacks counts on the window columns only
    spread = Banded(4, {0: vec, 1: lower})
    assert (Banded(4, {0: vec}) - spread).window_max(0, 2) == 5.0
    assert (Banded(4, {0: vec}) - spread).window_max(0, 0) == 0.0


def test_window_max_of_no_bands_is_zero():
    assert Banded(5, {}).window_max(0, 4) == 0.0
    assert (Banded(5, {}) - Banded(5, {})).window_max(1, 3) == 0.0
    zero = Banded(3, {0: np.zeros(3, dtype=complex)})
    assert (zero - Banded(3, {})).window_max(0, 2) == 0.0


@pytest.mark.parametrize("lam", range(2, 9))
def test_grade_table_rows_are_the_literal_products_bit_for_bit(lam, rng):
    params = validate_alpha(lam, random_valid_alpha(rng, lam) * 0.5)
    dim = lam + 6
    rep = build_rep(params, dim)
    for p in range(dim + 2):
        for q in range(dim + 2):
            term = rep.matrix_power("ad", p) @ rep.matrix_power("a", q)
            table = rep.grade_table(p, q)
            if p - q not in term.bands:
                assert table is None
                continue
            assert isinstance(table, tuple) and all(type(row) is tuple for row in table)
            for r in range(lam):
                literal = term @ rep.matrix_power("K", r) if r else term
                assert bits(table[r]) == bits(literal.bands[p - q])


@pytest.mark.parametrize("node", ["a", ("atom", "a"), 3, None, [ex.A], ex.Product((ex.A, "ad"))])
def test_a_non_node_is_an_unknown_symbol_to_both_evaluators(node):
    """apply_word and normal_form dispatch on the exact node type; anything else is refused."""
    params = validate_alpha(2, (0.5, -0.5))
    with pytest.raises(UnknownSymbol):
        apply_word(build_rep(params, 8), node)
    with pytest.raises(UnknownSymbol):
        normal_form(node, params)
