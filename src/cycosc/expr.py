"""Operator expressions: syntax tree, parser and printer.

Grammar accepted by :func:`parse`:

    atoms       a  ad  N  K  I  P0 P1 ...      (Pmu validated against lam later)
    scalars     1.5   2e-3   (re,im)           complex literal in parentheses
    operators   +  -  *  ^                      '*' optional between factors
    brackets    [X, Y]  commutator              {X, Y}  anticommutator
    grouping    ( ... )

Whitespace is insignificant.  Powers must be non-negative integers.
Printing with :func:`to_source` produces text that reparses to the same tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .errors import NegativePower, ParseError

ATOM_KINDS = ("a", "ad", "N", "K", "I")


@dataclass(frozen=True)
class Atom:
    kind: str  # one of ATOM_KINDS


@dataclass(frozen=True)
class Proj:
    mu: int


@dataclass(frozen=True)
class Scalar:
    value: complex


@dataclass(frozen=True)
class Sum:
    terms: tuple


@dataclass(frozen=True)
class Product:
    factors: tuple


@dataclass(frozen=True)
class Power:
    base: "OperatorExpr"
    exponent: int

    def __post_init__(self):
        if self.exponent < 0:
            raise NegativePower(f"power {self.exponent} < 0")


@dataclass(frozen=True)
class Commutator:
    left: "OperatorExpr"
    right: "OperatorExpr"


@dataclass(frozen=True)
class Anticommutator:
    left: "OperatorExpr"
    right: "OperatorExpr"


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
        flat.extend(t.terms if isinstance(t, Sum) else (t,))
    return flat[0] if len(flat) == 1 else Sum(tuple(flat))


def word(*factors) -> OperatorExpr:
    """Flattening Product constructor."""
    flat = []
    for f in factors:
        flat.extend(f.factors if isinstance(f, Product) else (f,))
    return flat[0] if len(flat) == 1 else Product(tuple(flat))


def scaled(c, e) -> OperatorExpr:
    return word(Scalar(complex(c)), e)


def negated(e) -> OperatorExpr:
    if isinstance(e, Scalar):
        return Scalar(-e.value)
    return word(Scalar(complex(-1)), e)


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z]+\d*)
      | (?P<punct>[+\-*^\[\]{}(),])
      | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)
_PROJ_RE = re.compile(r"P(\d+)")
_ATOMS = {atom.kind: atom for atom in (A, AD, NUM, KLEIN, ONE)}


def _tokenize(text: str):
    """(kind, text, position) per token, in one pass; `bad` matches any other character."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        if kind != "ws":
            tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        kind, text, pos = self.next()
        if text != value:
            raise ParseError(f"expected {value!r}, found {text or 'end of input'!r}", pos)

    def at_factor_start(self) -> bool:
        kind, text, _ = self.peek()
        return kind in ("number", "name") or text in ("(", "[", "{")

    # expr := term (('+'|'-') term)*
    def parse_expr(self):
        terms = [self.parse_term()]
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            t = self.parse_term()
            terms.append(negated(t) if op == "-" else t)
        return summed(*terms)

    # term := '-'* factor (('*')? factor)*
    def parse_term(self):
        sign = 1
        while self.peek()[1] == "-":
            self.next()
            sign = -sign
        factors = [self.parse_factor()]
        while True:
            if self.peek()[1] == "*":
                self.next()
                factors.append(self.parse_factor())
            elif self.at_factor_start():
                factors.append(self.parse_factor())
            else:
                break
        node = word(*factors)
        return negated(node) if sign < 0 else node

    # factor := primary ('^' integer)?
    def parse_factor(self):
        base = self.parse_primary()
        if self.peek()[1] != "^":
            return base
        self.next()
        sign = 1
        while self.peek()[1] == "-":
            self.next()
            sign = -sign
        kind, text, pos = self.next()
        if kind != "number" or not text.isdecimal():
            raise ParseError("exponent must be an integer", pos)
        if sign < 0:
            raise NegativePower(f"negative power at position {pos}")
        return Power(base, int(text))

    def parse_primary(self):
        kind, text, pos = self.next()
        if kind == "number":
            return Scalar(complex(float(text)))
        if kind == "name":
            if text in _ATOMS:
                return _ATOMS[text]
            m = _PROJ_RE.fullmatch(text)
            if m:
                return Proj(int(m.group(1)))
            raise ParseError(f"unknown atom {text!r}", pos)
        if text == "(":
            lit = self._try_complex_literal()
            if lit is not None:
                return lit
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if text == "[":
            left = self.parse_expr()
            self.expect(",")
            right = self.parse_expr()
            self.expect("]")
            return Commutator(left, right)
        if text == "{":
            left = self.parse_expr()
            self.expect(",")
            right = self.parse_expr()
            self.expect("}")
            return Anticommutator(left, right)
        raise ParseError(f"unexpected token {text or 'end of input'!r}", pos)

    def _try_complex_literal(self):
        # After '(' look for: ['-'] number ',' ['-'] number ')'
        mark = self.i

        def signed_number():
            sign = 1.0
            while self.peek()[1] == "-":
                self.next()
                sign = -sign
            kind, text, _ = self.peek()
            if kind != "number":
                return None
            self.next()
            return sign * float(text)

        re_part = signed_number()
        if re_part is not None and self.peek()[1] == ",":
            self.next()
            im_part = signed_number()
            if im_part is not None and self.peek()[1] == ")":
                self.next()
                return Scalar(complex(re_part, im_part))
        self.i = mark
        return None


def parse(text: str) -> OperatorExpr:
    """Parse an operator expression; raises ParseError or NegativePower."""
    p = _Parser(text)
    node = p.parse_expr()
    kind, text_, pos = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {text_!r}", pos)
    return node


# ---------------------------------------------------------------------------
# printer

def _format_scalar(c: complex) -> str:
    if c.imag == 0.0 and c.real >= 0.0:
        return repr(c.real)
    return f"({c.real!r},{c.imag!r})"


def to_source(e: OperatorExpr) -> str:
    """Render a tree as text that parses back to the same tree."""
    if isinstance(e, Atom):
        return e.kind
    if isinstance(e, Proj):
        return f"P{e.mu}"
    if isinstance(e, Scalar):
        return _format_scalar(e.value)
    if isinstance(e, Sum):
        return " + ".join(to_source(t) for t in e.terms)
    if isinstance(e, Product):
        parts = []
        for f in e.factors:
            s = to_source(f)
            parts.append(f"({s})" if isinstance(f, Sum) else s)
        return " * ".join(parts)
    if isinstance(e, Power):
        s = to_source(e.base)
        if not isinstance(e.base, (Atom, Proj)):
            s = f"({s})"
        return f"{s}^{e.exponent}"
    if isinstance(e, Commutator):
        return f"[{to_source(e.left)}, {to_source(e.right)}]"
    if isinstance(e, Anticommutator):
        return f"{{{to_source(e.left)}, {to_source(e.right)}}}"
    raise TypeError(f"not an operator expression: {e!r}")


def creation_weight(e: OperatorExpr) -> int:
    """Worst-case count of creation factors in any expanded product term.

    This bounds how far an evaluation can climb above the starting level,
    which is what truncation-exactness windows are computed from.
    """
    if isinstance(e, Atom):
        return 1 if e.kind == "ad" else 0
    if isinstance(e, (Proj, Scalar)):
        return 0
    if isinstance(e, Sum):
        return max(creation_weight(t) for t in e.terms)
    if isinstance(e, Product):
        return sum(creation_weight(f) for f in e.factors)
    if isinstance(e, Power):
        return e.exponent * creation_weight(e.base)
    if isinstance(e, (Commutator, Anticommutator)):
        return creation_weight(e.left) + creation_weight(e.right)
    raise TypeError(f"not an operator expression: {e!r}")
