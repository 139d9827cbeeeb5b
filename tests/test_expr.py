import cmath
import itertools
import random
import re
import sys
from pathlib import Path

import pytest

from cycosc import expr as ex
from cycosc.cli import main
from cycosc.errors import NegativePower, ParseError
from cycosc.expr import creation_weight, parse, to_source
from cycosc.params import validate_alpha

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402  (the benchmark's word pool)


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


@pytest.mark.parametrize("text, pos", [
    ("a^\u0663", 2),          # ARABIC-INDIC DIGIT THREE
    ("P\u0663", 1),
    ("P3\u0663", 2),
    ("\uff13 a", 0),          # FULLWIDTH DIGIT THREE
    ("a\u00a0ad", 1),         # NO-BREAK SPACE: whitespace is ASCII too
])
def test_non_ascii_digits_and_spaces_are_parse_errors(capsys, text, pos):
    """The tokens are ASCII, so a tree has one spelling: the one to_source prints."""
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.pos == pos
    assert main(["nf", text, "--lambda", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: unexpected character")


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


@pytest.mark.parametrize("node", ["a", ("atom", "a"), 3, None, [ex.A],
                                  ex.Sum((ex.A, "ad")), ex.Power("a", 2)])
def test_a_non_node_is_a_type_error_to_the_tree_walkers(node):
    """creation_weight and to_source dispatch on the exact node type; anything else is refused."""
    with pytest.raises(TypeError, match="not an operator expression"):
        creation_weight(node)
    with pytest.raises(TypeError, match="not an operator expression"):
        to_source(node)


def test_nodes_compare_and_hash_by_type_and_fields():
    assert ex.Sum((ex.A, ex.AD)) != ex.Product((ex.A, ex.AD))
    assert ex.Commutator(ex.A, ex.AD) != ex.Anticommutator(ex.A, ex.AD)
    assert ex.Proj(1) != ex.Scalar(1) and ex.Scalar(1) != 1
    first, second = parse("[a, ad^2] + 0.5 K"), parse("[a,ad^2]+0.5*K")
    assert first is not second and first == second and hash(first) == hash(second)
    assert len({first, second, parse("[ad^2, a] + 0.5 K")}) == 2
    assert repr(ex.Power(ex.A, 2)) == "Power(base=Atom(kind='a'), exponent=2)"
    match parse("[a, ad^2]"):
        case ex.Commutator(ex.Atom("a"), ex.Power(ex.Atom("ad"), 2)):
            pass
        case other:
            pytest.fail(f"no class pattern matched {other!r}")


# ---------------------------------------------------------------------------
# the one-scan tokenizer against the per-match scanner it replaced

_REFERENCE_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z]+\d*)
      | (?P<punct>[+\-*^\[\]{}(),])
      | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL | re.ASCII,
)


def _reference_tokens(text):
    """Kinds, texts and starts from one match per token or whitespace run, closed by `end`."""
    kinds, texts, starts = [], [], []
    for m in _REFERENCE_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        token = m.group()
        if kind == "punct":
            kind = token
        elif kind == "bad":
            raise ParseError(f"unexpected character {token!r}", m.start())
        kinds.append(kind)
        texts.append(token)
        starts.append(m.start())
    return kinds + ["end"], texts + [""], starts + [len(text)]


def _outcome(tokenizer, text):
    try:
        return tokenizer(text)
    except ParseError as err:
        return str(err), err.pos


_FRAGMENTS = ("a", "ad", "K", "N", "I", "P0", "P12", "Q", "1", "2.5", ".5e-3", "1.", "1e", "1e+",
              "3E7", "07", "[", "]", "{", "}", "(", ")", ",", "+", "-", "*", "^", " ", "  ",
              "\t", "\n", "\x0b", "\x0c", "\r", "\u00a0", "\u0663", "@", "$", ".", "\u00e9")


def _fuzz_texts(rng, pool, count):
    for _ in range(count):
        if rng.random() < 0.5:
            yield "".join(rng.choice(_FRAGMENTS) for _ in range(rng.randrange(13)))
        else:
            chars = list(rng.choice(pool))
            for _ in range(rng.randrange(1, 4)):
                at = rng.randrange(len(chars) + 1)
                if rng.random() < 0.3 and at < len(chars):
                    del chars[at]
                else:
                    chars.insert(at, rng.choice(_FRAGMENTS))
            yield "".join(chars)


def test_tokenizer_matches_the_per_match_scanner():
    """Kinds, texts, starts and every ParseError over the benchmark words and a seeded fuzz."""
    pool = [text for seed in (1, 2, 3) for _, _, text in workloads.nf_pool(seed)]
    fuzz = list(_fuzz_texts(random.Random(20261020), pool, 6000))
    errors = 0
    for text in pool + fuzz:
        want = _outcome(_reference_tokens, text)
        got = _outcome(ex._tokenize, text)
        if isinstance(want[0], str):  # (message, position)
            errors += 1
            assert got == want, text
            assert _outcome(ex._token_starts, text) == want, text
        else:
            assert ([ex._token_kind(t) for t in got], got, ex._token_starts(text)) == want, text
    assert 1000 < errors < len(fuzz)  # the fuzz reaches both outcomes


@pytest.mark.parametrize("text, error", [
    ("a + * b", ParseError("unexpected token '*'", 4)),
    ("[a, ad", ParseError("expected ']', found 'end of input'", 6)),
    ("a^x", ParseError("exponent must be an integer", 2)),
    ("a^ 1.5", ParseError("exponent must be an integer", 3)),
    ("a  Q", ParseError("unknown atom 'Q'", 3)),
    ("{a ad}", ParseError("expected ',', found '}'", 5)),
    ("  [ad, a] ]", ParseError("trailing input ']'", 10)),
    ("P1 + -", ParseError("unexpected token 'end of input'", 6)),
    ("ad^-2", NegativePower("negative power at position 4")),
    ("a\t+ ad^---2", NegativePower("negative power at position 10")),
])
def test_parser_errors_point_at_their_token(text, error):
    """Positions are found again only when an error is raised; they are the tokens' starts."""
    with pytest.raises(type(error)) as info:
        parse(text)
    assert str(info.value) == str(error)
