"""Operator expressions: syntax tree, parser and printer.

Grammar accepted by :func:`parse`:

    atoms       a  ad  N  K  I  P0 P1 ...      (Pmu validated against lam later)
    scalars     1.5   2e-3   (re,im)           complex literal in parentheses
    operators   +  -  *  ^                      '*' optional between factors
    brackets    [X, Y]  commutator              {X, Y}  anticommutator
    grouping    ( ... )

Tokens and whitespace are ASCII: a digit is 0-9 and a letter A-Z or a-z, so
any other character, a non-ASCII digit among them, is a ParseError.
Whitespace is insignificant.  Powers must be non-negative integers.
Printing with :func:`to_source` produces text that reparses to the same tree.
"""

from __future__ import annotations

import re
from typing import Union

from .errors import NegativePower, ParseError
from .record import Record

ATOM_KINDS = ("a", "ad", "N", "K", "I")


class Atom(Record):
    __slots__ = __match_args__ = ("kind",)

    def __init__(self, kind: str):
        self.kind = kind  # one of ATOM_KINDS


class Proj(Record):
    __slots__ = __match_args__ = ("mu",)

    def __init__(self, mu: int):
        self.mu = mu


class Scalar(Record):
    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: complex):
        self.value = value


class Sum(Record):
    __slots__ = __match_args__ = ("terms",)

    def __init__(self, terms: tuple):
        self.terms = terms


class Product(Record):
    __slots__ = __match_args__ = ("factors",)

    def __init__(self, factors: tuple):
        self.factors = factors


class Power(Record):
    __slots__ = __match_args__ = ("base", "exponent")

    def __init__(self, base: OperatorExpr, exponent: int):
        if exponent < 0:
            raise NegativePower(f"power {exponent} < 0")
        self.base = base
        self.exponent = exponent


class Commutator(Record):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: OperatorExpr, right: OperatorExpr):
        self.left = left
        self.right = right


class Anticommutator(Record):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: OperatorExpr, right: OperatorExpr):
        self.left = left
        self.right = right


OperatorExpr = Union[Atom, Proj, Scalar, Sum, Product, Power, Commutator, Anticommutator]

A = Atom("a")
AD = Atom("ad")
NUM = Atom("N")
KLEIN = Atom("K")
ONE = Atom("I")


def summed(*terms) -> OperatorExpr:
    """Flattening Sum constructor."""
    flat = []
    for t in terms:
        flat.extend(t.terms if type(t) is Sum else (t,))
    return flat[0] if len(flat) == 1 else Sum(tuple(flat))


def word(*factors) -> OperatorExpr:
    """Flattening Product constructor."""
    flat = []
    for f in factors:
        flat.extend(f.factors if type(f) is Product else (f,))
    return flat[0] if len(flat) == 1 else Product(tuple(flat))


def scaled(c, e) -> OperatorExpr:
    return word(Scalar(complex(c)), e)


def negated(e) -> OperatorExpr:
    if type(e) is Scalar:
        return Scalar(-e.value)
    return word(Scalar(complex(-1)), e)


# ---------------------------------------------------------------------------
# tokenizer

_PUNCT = "+-*^[](){},"
_TOKEN_RE = re.compile(
    r"""[+\-*^\[\]{}(),]
      | \d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?
      | [A-Za-z]+\d*
    """,
    re.VERBOSE | re.ASCII,
)
_SPACE = " \t\n\r\f\v"  # what \s matches under re.ASCII
_PROJ_RE = re.compile(r"P(\d+)", re.ASCII)
_ATOMS = {atom.kind: atom for atom in (A, AD, NUM, KLEIN, ONE)}
_SIGNS = ("+", "-")
_TERM_STOPS = frozenset(("+", "-", "^", ")", "]", "}", ",", ""))  # tokens no factor starts at
_BRACKETS = {"[": ("]", Commutator), "{": ("}", Anticommutator)}  # opener -> closer, node type
_KINDS = {"": "end"}  # first character of a token -> its kind
_KINDS.update((c, c) for c in _PUNCT)
_KINDS.update((c, "number") for c in "0123456789.")
_KINDS.update((c, "name") for c in "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")


def _token_kind(token: str) -> str:
    """`number`, `name`, `end` (the empty token) or the punctuation character itself."""
    return _KINDS[token[:1]]


def _tokenize(text: str) -> list:
    """The token texts of `text`, in one scan, closed by the empty `end` token.

    Whitespace separates tokens.  Any other character that no token covers
    raises ParseError; the count of covered characters proves there is none.
    """
    tokens = _TOKEN_RE.findall(text)
    if sum(map(len, tokens)) != len(text) - text.count(" "):
        _token_starts(text)  # raises ParseError unless the rest is whitespace other than ' '
    tokens.append("")
    return tokens


def _token_starts(text: str) -> list:
    """Start positions of the tokens of `text`, the `end` token's included.

    Raises ParseError at the first character that is neither whitespace nor
    inside a token.  Only errors need positions, so only they scan again.
    """
    starts, done = [], 0
    for m in (*_TOKEN_RE.finditer(text), None):
        start = len(text) if m is None else m.start()
        rest = text[done:start].lstrip(_SPACE)
        if rest:
            pos = start - len(rest)
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        starts.append(start)
        if m is not None:
            done = m.end()
    return starts


class _Parser:
    """Recursive descent over the token texts of one text.

    Each rule takes the index of its first token and returns its node with
    the index after it.  A nesting level costs four frames (expr, term,
    factor, primary), so the recursion limit bounds the depth of the input;
    `term` and `factor` take a bare atom without a call.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)

    def fail(self, message: str, i: int):
        raise ParseError(message, self.start(i))

    def start(self, i: int) -> int:
        return _token_starts(self.text)[i]

    def expect(self, value: str, i: int) -> int:
        if self.tokens[i] != value:
            self.fail(f"expected {value!r}, found {self.tokens[i] or 'end of input'!r}", i)
        return i + 1

    # expr := term (('+'|'-') term)*
    def expr(self, i: int):
        tokens = self.tokens
        node, i = self.term(i)
        terms = [node]
        while tokens[i] in _SIGNS:
            op = tokens[i]
            node, i = self.term(i + 1)
            terms.append(negated(node) if op == "-" else node)
        return (node if len(terms) == 1 else summed(*terms)), i

    # term := '-'* factor (('*')? factor)*
    def term(self, i: int):
        tokens = self.tokens
        negative = False
        while tokens[i] == "-":
            i += 1
            negative = not negative
        factors = []
        while True:
            node = _ATOMS.get(tokens[i])
            if node is not None and tokens[i + 1] != "^":
                i += 1
            else:
                node, i = self.factor(i)
            factors.append(node)
            if tokens[i] == "*":
                i += 1
            elif tokens[i] in _TERM_STOPS:
                break
        if len(factors) > 1:
            node = word(*factors)
        return (negated(node) if negative else node), i

    # factor := primary ('^' '-'* integer)?, where any '-' is a NegativePower
    def factor(self, i: int):
        tokens = self.tokens
        base = _ATOMS.get(tokens[i])
        if base is None:
            base, i = self.primary(i)
        else:
            i += 1
        if tokens[i] != "^":
            return base, i
        i += 1
        negative = False
        while tokens[i] == "-":
            i += 1
            negative = not negative
        text = tokens[i]
        if not text.isdecimal():
            self.fail("exponent must be an integer", i)
        if negative:
            raise NegativePower(f"negative power at position {self.start(i)}")
        return Power(base, int(text)), i + 1

    def primary(self, i: int):
        text = self.tokens[i]
        kind = _token_kind(text)
        if kind == "name":
            if text in _ATOMS:
                return _ATOMS[text], i + 1
            m = _PROJ_RE.fullmatch(text)
            if m:
                return Proj(int(m.group(1))), i + 1
            self.fail(f"unknown atom {text!r}", i)
        if kind == "number":
            return Scalar(complex(float(text))), i + 1
        if kind == "(":
            literal = self.complex_literal(i + 1)
            if literal is not None:
                return literal
            inner, i = self.expr(i + 1)
            return inner, self.expect(")", i)
        if kind in _BRACKETS:
            close, node_type = _BRACKETS[kind]
            left, i = self.expr(i + 1)
            right, i = self.expr(self.expect(",", i))
            return node_type(left, right), self.expect(close, i)
        self.fail(f"unexpected token {text or 'end of input'!r}", i)

    def complex_literal(self, i: int):
        """(Scalar, index after it) for `['-'] number ',' ['-'] number ')'` from token i, else None.

        Token i follows a '('.
        """
        re_part, i = self.signed_number(i)
        if re_part is None or self.tokens[i] != ",":
            return None
        im_part, i = self.signed_number(i + 1)
        if im_part is None or self.tokens[i] != ")":
            return None
        return Scalar(complex(re_part, im_part)), i + 1

    def signed_number(self, i: int):
        """(value, index after it) of `'-'* number` from token i; (None, i) without a number."""
        tokens = self.tokens
        sign = 1.0
        while tokens[i] == "-":
            i += 1
            sign = -sign
        if _token_kind(tokens[i]) != "number":
            return None, i
        return sign * float(tokens[i]), i + 1


def parse(text: str) -> OperatorExpr:
    """Parse an operator expression; raises ParseError or NegativePower."""
    p = _Parser(text)
    node, i = p.expr(0)
    if p.tokens[i]:
        p.fail(f"trailing input {p.tokens[i]!r}", i)
    return node


# ---------------------------------------------------------------------------
# printer

def _format_scalar(c: complex) -> str:
    if c.imag == 0.0 and c.real >= 0.0:
        return repr(c.real)
    return f"({c.real!r},{c.imag!r})"


def to_source(e: OperatorExpr) -> str:
    """Render a tree as text that parses back to the same tree."""
    kind = type(e)
    if kind is Atom:
        return e.kind
    if kind is Proj:
        return f"P{e.mu}"
    if kind is Scalar:
        return _format_scalar(e.value)
    if kind is Sum:
        return " + ".join(to_source(t) for t in e.terms)
    if kind is Product:
        parts = []
        for f in e.factors:
            s = to_source(f)
            parts.append(f"({s})" if type(f) is Sum else s)
        return " * ".join(parts)
    if kind is Power:
        s = to_source(e.base)
        if type(e.base) not in (Atom, Proj):
            s = f"({s})"
        return f"{s}^{e.exponent}"
    if kind is Commutator:
        return f"[{to_source(e.left)}, {to_source(e.right)}]"
    if kind is Anticommutator:
        return f"{{{to_source(e.left)}, {to_source(e.right)}}}"
    raise TypeError(f"not an operator expression: {e!r}")


def creation_weight(e: OperatorExpr) -> int:
    """Worst-case count of creation factors in any expanded product term.

    This bounds how far an evaluation can climb above the starting level,
    which is what truncation-exactness windows are computed from.
    """
    kind = type(e)
    if kind is Atom:
        return 1 if e.kind == "ad" else 0
    if kind is Proj or kind is Scalar:
        return 0
    if kind is Sum:
        return max(creation_weight(t) for t in e.terms)
    if kind is Product:
        return sum(creation_weight(f) for f in e.factors)
    if kind is Power:
        return e.exponent * creation_weight(e.base)
    if kind is Commutator or kind is Anticommutator:
        return creation_weight(e.left) + creation_weight(e.right)
    raise TypeError(f"not an operator expression: {e!r}")
