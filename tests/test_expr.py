import cmath
import itertools

import pytest

from cycosc import expr as ex
from cycosc.errors import NegativePower, ParseError
from cycosc.expr import creation_weight, parse, to_source
from cycosc.params import validate_alpha


def test_commutator_of_power():
    tree = parse("[a, ad^3]")
    assert tree == ex.Commutator(ex.A, ex.Power(ex.AD, 3))


def test_hamiltonian_word():
    tree = parse("0.5*(a*ad + ad*a)")
    assert tree == ex.word(
        ex.Scalar(complex(0.5)),
        ex.summed(ex.word(ex.A, ex.AD), ex.word(ex.AD, ex.A)),
    )


def test_anticommutator_form():
    assert parse("0.5*{a, ad}") == ex.word(
        ex.Scalar(complex(0.5)), ex.Anticommutator(ex.A, ex.AD)
    )


def test_negative_power_rejected():
    with pytest.raises(NegativePower):
        parse("ad^-1")


def test_juxtaposition_is_multiplication():
    assert parse("a ad") == parse("a*ad") == ex.word(ex.A, ex.AD)
    assert parse("2 K") == ex.word(ex.Scalar(complex(2)), ex.KLEIN)


def test_projector_atoms():
    assert parse("P0 + P1") == ex.summed(ex.Proj(0), ex.Proj(1))
    assert parse("P12") == ex.Proj(12)


def test_complex_literal():
    assert parse("(0.3,-0.1)*K") == ex.word(ex.Scalar(complex(0.3, -0.1)), ex.KLEIN)
    assert parse("(1,0)") == ex.Scalar(complex(1.0, 0.0))


def test_parenthesized_expression_still_works():
    assert parse("(a + ad)^2") == ex.Power(ex.summed(ex.A, ex.AD), 2)


def test_unary_minus():
    assert parse("-a") == ex.word(ex.Scalar(complex(-1)), ex.A)
    assert parse("-2.5") == ex.Scalar(complex(-2.5))
    assert parse("a - ad") == ex.summed(ex.A, ex.word(ex.Scalar(complex(-1)), ex.AD))


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse("a + $")
    assert info.value.pos == 4
    with pytest.raises(ParseError):
        parse("[a, ")
    with pytest.raises(ParseError):
        parse("ad^1.5")
    with pytest.raises(ParseError):
        parse("Q")


SAMPLES = [
    "a",
    "ad^3",
    "[a, ad^3]",
    "{K, ad}",
    "0.5*(a*ad + ad*a)",
    "N + P0 - P1",
    "(0.25,-0.75)*K^2 a",
    "[a^2, (a + ad)^2]",
    "2 a ad K",
    "-3*(a + K)",
]


@pytest.mark.parametrize("text", SAMPLES)
def test_parse_print_parse_identity(text):
    tree = parse(text)
    assert parse(to_source(tree)) == tree


def test_print_parse_on_generated_trees():
    import itertools

    leaves = [ex.A, ex.AD, ex.KLEIN, ex.NUM, ex.Proj(1), ex.Scalar(complex(0.5, -0.25))]
    trees = []
    for x, y in itertools.product(leaves, repeat=2):
        trees.extend(
            [
                ex.word(x, y),
                ex.summed(x, y),
                ex.Commutator(x, y),
                ex.Anticommutator(x, y),
                ex.Power(ex.summed(x, y), 2),
            ]
        )
    for tree in trees:
        assert parse(to_source(tree)) == tree


def test_creation_weight():
    assert creation_weight(parse("a ad^3")) == 3
    assert creation_weight(parse("[a, ad^3]")) == 3
    assert creation_weight(parse("(ad a)^2")) == 2
    assert creation_weight(parse("N + K")) == 0
    assert creation_weight(parse("{ad^2, ad}")) == 3
    assert creation_weight(parse("a^4")) == 0


# The words `verify --suite all` reduces, written out the way a caller of `cycosc nf` spells
# them: every group bracketed, every scalar a (re,im) literal.  The words are built unflattened,
# so a sum of sums prints as nested parentheses; `_flat` gives the tree the parser returns.

UNIT = ex.Scalar(1 + 0j)


def _sum(*terms):
    return terms[0] if len(terms) == 1 else ex.Sum(terms)


def _prod(*factors):
    return factors[0] if len(factors) == 1 else ex.Product(factors)


def _times(c, e):
    return ex.Product((ex.Scalar(complex(c)), e))


def _minus(lhs, rhs):
    return ex.Sum((lhs, _times(-1, rhs)))


def _pow(e, k):
    return UNIT if k == 0 else e if k == 1 else ex.Power(e, k)


def _mono(s, m):
    """(a+)^s a^m."""
    factors = [_pow(f, k) for f, k in ((ex.AD, s), (ex.A, m)) if k]
    return _prod(*factors) if factors else UNIT


def _suite_words(lam, alpha):
    p = validate_alpha(lam, alpha)
    x = p.root
    proj = [ex.Proj(mu) for mu in range(lam)]
    comm = ex.Commutator
    ell = [_mono(m + 1, 1) for m in range(-1, 6)]  # ell[m + 1] = l_m = (a+)^{m+1} a
    basic = [
        _minus(comm(ex.NUM, ex.AD), ex.AD), _minus(comm(ex.NUM, ex.A), _times(-1, ex.A)),
        comm(ex.NUM, ex.KLEIN), *[comm(ex.NUM, q) for q in proj],
        _minus(_pow(ex.KLEIN, lam), UNIT), _minus(_sum(*proj), UNIT),
        *[_prod(q, r) if q != r else _minus(_prod(q, q), q) for q in proj for r in proj],
        *[_minus(_prod(ex.AD, proj[mu]), _prod(proj[(mu + 1) % lam], ex.AD))
          for mu in range(lam)],
        _minus(comm(ex.A, ex.AD), _sum(UNIT, *map(_times, p.alpha, proj))),
        _minus(comm(ex.A, ex.AD),
               _sum(UNIT, *[_times(k, _pow(ex.KLEIN, r)) for r, k in enumerate(p.kappa, 1)])),
        _minus(_prod(ex.AD, ex.KLEIN), _times(x, _prod(ex.KLEIN, ex.AD))),
        _minus(_prod(ex.A, ex.KLEIN), _times(x.conjugate(), _prod(ex.KLEIN, ex.A))),
        _minus(_prod(ex.AD, ex.A), _sum(ex.NUM, *map(_times, p.beta, proj))),
        _minus(_prod(ex.A, ex.AD),
               _sum(ex.NUM, UNIT, *[_times(p.beta[mu], proj[mu - 1]) for mu in range(lam)])),
        *[_minus(proj[mu], _sum(*[_times(cmath.exp(-2j * cmath.pi * mu * nu / lam) / lam,
                                         _pow(ex.KLEIN, nu)) for nu in range(lam)]))
          for mu in range(lam)],
        _minus(_times(0.5, ex.Anticommutator(ex.A, ex.AD)),
               _sum(ex.NUM, _times(0.5, UNIT), *map(_times, p.gamma, proj))),
    ]
    lambda2 = []
    if lam == 2:
        basic.append(ex.Anticommutator(ex.KLEIN, ex.AD))
        for k, j in itertools.product(range(3), repeat=2):
            lambda2 += [comm(ell[2 * k + 1], ell[2 * j + 1]), comm(ell[2 * k + 2], ell[2 * j + 2]),
                        comm(ell[2 * k + 1], ell[2 * j + 2])]
        lambda2 += [comm(e, ex.KLEIN) for e in ell[1:]]
    grid = range(4)
    casimir = _sum(_pow(_prod(ex.AD, ex.A), 2),
                   _times(-0.5, ex.Anticommutator(_mono(2, 1), ex.A)))
    return [
        ex.NUM, _prod(ex.AD, ex.A), _sum(*proj), *basic,
        *[comm(ex.A, _pow(ex.AD, m)) for m in range(1, 6)],
        *[comm(_pow(ex.A, n), _pow(ex.AD, m)) for n in range(1, 5) for m in range(1, 9)],
        *[comm(ell[m], ell[n]) for m in range(5) for n in range(5)],
        *[comm(e, ex.KLEIN) for e in ell], *lambda2,
        *[comm(_mono(s, m), _mono(t, n)) for s, m, t, n in itertools.product(grid, repeat=4)],
        *[comm(_mono(s, m), ex.KLEIN) for s in range(5) for m in range(5)],
        comm(_mono(0, 1), _mono(1, 1)), comm(_mono(2, 1), _mono(1, 1)),
        comm(_mono(2, 1), _mono(0, 1)), casimir, comm(casimir, _prod(ex.AD, ex.A)),
    ]


def _bracketed(e):
    """`e` as text with every sum and product in parentheses and scalars as (re,im)."""
    if isinstance(e, ex.Atom):
        return e.kind
    if isinstance(e, ex.Proj):
        return f"P{e.mu}"
    if isinstance(e, ex.Scalar):
        return f"({e.value.real!r},{e.value.imag!r})"
    if isinstance(e, (ex.Sum, ex.Product)):
        parts, op = (e.terms, " + ") if isinstance(e, ex.Sum) else (e.factors, " * ")
        return "(" + op.join(map(_bracketed, parts)) + ")"
    if isinstance(e, ex.Power):
        return f"{_bracketed(e.base)}^{e.exponent}"
    left, right = _bracketed(e.left), _bracketed(e.right)
    return f"[{left}, {right}]" if isinstance(e, ex.Commutator) else f"{{{left}, {right}}}"


def _flat(e):
    """The tree the parser builds from `_bracketed(e)`: nested sums and products flattened."""
    if isinstance(e, ex.Sum):
        return ex.summed(*map(_flat, e.terms))
    if isinstance(e, ex.Product):
        return ex.word(*map(_flat, e.factors))
    if isinstance(e, ex.Power):
        return ex.Power(_flat(e.base), e.exponent)
    if isinstance(e, (ex.Commutator, ex.Anticommutator)):
        return type(e)(_flat(e.left), _flat(e.right))
    return e


@pytest.mark.parametrize("lam, alpha", [(2, (0.3125, -0.3125)), (3, (0.25, -0.625, 0.375)),
                                        (5, (0.5, -0.125, -0.75, 0.25, 0.125))])
def test_suite_words_parse_to_their_trees(lam, alpha):
    words = _suite_words(lam, alpha)
    assert len(words) > 350
    for w in words:
        tree = _flat(w)
        assert parse(_bracketed(w)) == tree
        assert parse(to_source(tree)) == tree


def test_atoms_parse_to_the_module_constants():
    atoms = (ex.A, ex.AD, ex.NUM, ex.KLEIN, ex.ONE)
    assert all(parse(kind) is atom for kind, atom in zip(ex.ATOM_KINDS, atoms, strict=True))
    assert parse("P\u0663 a^\u0663") == ex.word(ex.Proj(3), ex.Power(ex.A, 3))  # Unicode Nd


@pytest.mark.parametrize("text, pos, char", [
    ("$a", 0, "$"),
    ("a + $ ad", 4, "$"),
    ("[a, ad]$", 7, "$"),
    ("a\n$", 2, "$"),
    ("\n\n#", 2, "#"),
    ("\u00e9 a", 0, "\u00e9"),
    ("a \u00e9 ad", 2, "\u00e9"),
    ("ad^2 \u4e2d", 5, "\u4e2d"),
])
def test_unknown_character_position(text, pos, char):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.pos == pos
    assert str(info.value) == f"unexpected character {char!r} (at position {pos})"
