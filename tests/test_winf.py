from fractions import Fraction

import pytest

from cycosc import winf
from cycosc.cli import main
from cycosc.errors import NotFinite
from cycosc.winf import (
    INDEX_MAX,
    central_charge,
    central_term,
    dual_readings,
    falling,
    mode_factor,
    phi_factor,
    rising,
    winf_structure,
)


def test_lowest_central_charge_is_exact():
    assert central_charge(0) == Fraction(1, 24)


def test_next_central_charges():
    assert central_charge(1) == Fraction(1, 45)
    assert central_charge(2) == Fraction(8, 525)


def test_central_charges_positive():
    for i in range(11):
        assert central_charge(i) > 0


def test_central_term_vanishing_window():
    for i in range(7):
        for m in range(-(i + 1), i + 2):
            assert central_term(i, m) == 0
        assert central_term(i, i + 2) != 0
        assert central_term(i, -(i + 2)) != 0


def test_empty_products():
    assert falling(3.7, 0) == 1.0
    assert rising(-2.5, 0) == 1.0
    assert falling(5, 2) == 20.0
    assert rising(2, 3) == 24.0


def test_phi_at_level_zero_is_one():
    for i in range(4):
        for j in range(4):
            assert phi_factor(i, j, 0, "literal") == pytest.approx(1.0)
            assert phi_factor(i, j, 0, "alt") == pytest.approx(1.0)


def test_alt_mode_factor_reproduces_classical_bracket():
    # at level zero the corrected reading gives 2 (m (j+1) - n (i+1)),
    # twice the classical spin-(i+2)/(j+2) coefficient
    for i in range(3):
        for j in range(3):
            for m in (-2, -1, 0, 1, 3):
                for n in (-3, -1, 0, 2):
                    expected = 2.0 * (m * (j + 1) - n * (i + 1))
                    assert mode_factor(i, j, 0, m, n, "alt") == pytest.approx(expected)
                    s, t = i + 2, j + 2
                    # the classical coefficient (t-1) m - (s-1) n
                    assert expected == pytest.approx(2.0 * ((t - 1) * m - (s - 1) * n))


def test_dual_readings_run_over_grid():
    for i in range(4):
        for j in range(4):
            for l in range(4):
                for nr in ("literal", "alt"):
                    for pr in ("literal", "alt"):
                        c = winf_structure(i, j, l, 1, -1, nr, pr)
                        assert Fraction(c["c_i"]) > 0
                        assert isinstance(c["value_g"], float)


def test_spot_value_both_readings_agree_here():
    lit = winf_structure(0, 0, 0, 1, -1, "literal", "literal")
    alt = winf_structure(0, 0, 0, 1, -1, "alt", "literal")
    assert lit["value_N"] == pytest.approx(4.0)
    assert alt["value_N"] == pytest.approx(4.0)
    assert lit["value_g"] == pytest.approx(2.0)


def test_rejects_negative_indices():
    with pytest.raises(ValueError):
        winf_structure(-1, 0, 0, 0, 0)


def test_classical_family_satisfies_jacobi():
    """The spin/mode coefficients close under the Jacobi identity."""
    triples = [
        ((2, 1), (3, -2), (4, 2)),
        ((2, 0), (2, 1), (3, 1)),
        ((3, 2), (3, -1), (2, -2)),
        ((4, 1), (2, -1), (3, 3)),
        ((5, 2), (3, 1), (2, 0)),
    ]
    for (s, m), (t, n), (u, p) in triples:
        def c(a, b):
            return (b[0] - 1) * a[1] - (a[0] - 1) * b[1]  # (t-1) m - (s-1) n of [w^s_m, w^t_n]

        def comp(a, b):
            return (a[0] + b[0] - 2, a[1] + b[1])

        total = (
            c((s, m), (t, n)) * c(comp((s, m), (t, n)), (u, p))
            + c((t, n), (u, p)) * c(comp((t, n), (u, p)), (s, m))
            + c((u, p), (s, m)) * c(comp((u, p), (s, m)), (t, n))
        )
        assert total == 0


def test_dual_readings_cover_every_reading_pair():
    for i, j, l in [(0, 0, 0), (1, 2, 1), (3, 3, 2)]:
        table = dual_readings(i, j, l, 1, -1)
        assert set(table) == {"N_literal", "N_alt", "phi_literal", "phi_alt"}
        for nr in ("literal", "alt"):
            for pr in ("literal", "alt"):
                const = winf_structure(i, j, l, 1, -1, n_reading=nr, phi_reading=pr)
                assert table[f"N_{nr}"] == const["value_N"]
                assert table[f"phi_{pr}"] == const["value_phi"]
                assert const["dual_readings"] == table


@pytest.mark.parametrize("name", ["i", "j", "l"])
def test_an_index_above_the_bound_is_refused_before_any_evaluation(monkeypatch, capsys, name):
    """c_i stops printing (CPython's int string limit) between i = 3000 and 5000, and N's
    binomials stop converting to a double at l = 1029; the bound refuses both first."""
    def evaluated(*args):
        raise AssertionError(f"evaluated {args}")

    for fn in ("mode_factor", "phi_factor", "central_charge", "central_term"):
        monkeypatch.setattr(winf, fn, evaluated)
    indices = {"i": 0, "j": 0, "l": 0, name: INDEX_MAX + 1}
    with pytest.raises(ValueError, match=f"index {name} = {INDEX_MAX + 1} .*bound {INDEX_MAX}"):
        winf_structure(**indices, m=0, n=0)
    for fmt in ("text", "json"):
        assert main(["wconst", f"--{name}", "1000000", "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: index {name} = 1000000 is above the bound {INDEX_MAX}\n"


def test_a_mode_too_large_for_a_double_is_not_finite(capsys):
    """An integer factor that no double holds names N, as a sum that overflows does."""
    m = 10 ** 400
    with pytest.raises(NotFinite, match=rf"^N\(0,0,0\)\({m},0\): int too large"):
        mode_factor(0, 0, 0, m, 0)
    assert main(["wconst", "--m", str(m)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: N(0,0,0)({m},0): ") and err.endswith("the series overflows\n")


def test_a_central_term_too_large_for_a_double_names_c_i_m(capsys):
    """c_3(m) grows as m^9: past DBL_MAX it is refused as NotFinite naming it, in both formats."""
    m = 10 ** 41
    reason = "integer division result too large for a float"
    with pytest.raises(NotFinite, match=rf"^c_3\({m}\): {reason}$"):
        winf_structure(3, 0, 0, m, 0)
    for fmt in ("text", "json"):
        assert main(["wconst", "--i", "3", "--m", str(m), "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: c_3({m}): {reason}\n"
