"""Expression language for composing multiplicative functions.

Grammar (highest precedence last):

    expr   := term (('<*>' | '<+>') term)*      convolutions
    term   := factor ('*' factor)*              pointwise product
    factor := atom ('^' INT)?                   pointwise power, 1..MAX_POWER
    atom   := NAME ['(' INT (',' INT)* ')']     |INT| <= MAX_PARAM
            | 'inv' '(' expr ')'
            | 'shift' '(' expr ',' INT ')'      |INT| <= MAX_POWER
            | '(' expr ')'

parse gives the nodes in post-order as plain tuples, each after its
operands; build runs them on a stack through catalog.make and dgf.bell's
combinators, which name each function by its fully parenthesised text.
"""
from __future__ import annotations

from typing import NamedTuple

from . import catalog
from .bell import (MAX_ORDER, MultiplicativeFunction, dirichlet_convolve,
                   dirichlet_inverse, pointwise_power, pointwise_product,
                   shift_by_power, unitary_convolve)
from .errors import ParseError

# the largest exponent of '^': a power node holds j references to its
# base, so j is bounded before any is made; the bound of a shift amount too
MAX_POWER = MAX_ORDER ** 2
# the bound of an atom parameter's size: every catalog range lies far
# inside it, so the catalog names the range
MAX_PARAM = 10 ** 18


class Token(NamedTuple):
    kind: str
    text: str
    pos: int  # 1-based column


_FIXED = [("<*>", "CONV"), ("<+>", "UCONV"), ("*", "STAR"), ("^", "CARET"),
          ("(", "LPAREN"), (")", "RPAREN"), (",", "COMMA")]


def tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        pos = i + 1
        for lit, kind in _FIXED:
            if text.startswith(lit, i):
                out.append(Token(kind, lit, pos))
                i += len(lit)
                break
        else:
            # isdecimal: exactly the digits int() reads; isdigit takes '²' too
            if ch.isdecimal() or (ch == "-" and i + 1 < n
                                  and text[i + 1].isdecimal()):
                j = i + 1
                while j < n and text[j].isdecimal():
                    j += 1
                out.append(Token("INT", text[i:j], pos))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i + 1
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                out.append(Token("NAME", text[i:j], pos))
                i = j
            else:
                raise ParseError("unexpected character %r" % ch, pos)
    out.append(Token("EOF", "", n + 1))
    return out


class _Parser:
    """Recursive descent over the tokens; each rule appends its operands'
    nodes, then its own, to ops."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.ops: list[tuple] = []

    def peek(self) -> Token:
        return self.tokens[self.i]

    def take(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError("expected %s" % what, tok.pos)
        return self.take()

    def parse_expr(self):
        self.parse_term()
        while self.peek().kind in ("CONV", "UCONV"):
            op = self.take()
            self.parse_term()
            self.ops.append(("conv",) if op.kind == "CONV" else ("uconv",))

    def parse_term(self):
        self.parse_factor()
        while self.peek().kind == "STAR":
            self.take()
            self.parse_factor()
            self.ops.append(("mul",))

    def parse_factor(self):
        self.parse_atom()
        if self.peek().kind == "CARET":
            self.take()
            tok = self.peek()
            j = -1 if tok.text.startswith("-") else \
                self.parse_int("an exponent", "exponent", MAX_POWER)
            if j < 1:
                raise ParseError("exponent must be a positive integer",
                                 tok.pos)
            self.ops.append(("pow", j))

    def parse_int(self, what: str = "an integer", name: str = "parameter",
                  bound: int = MAX_PARAM) -> int:
        """The next token, an integer of absolute value at most bound, or
        a ParseError at its column; its digits are counted first, as
        int() refuses over 4300 of them."""
        tok = self.expect("INT", what)
        digits = tok.text.lstrip("-").lstrip("0")
        if len(digits) > len(str(bound)) or int(digits or "0") > bound:
            raise ParseError("%s must be at least %d" % (name, -bound)
                             if tok.text.startswith("-") else
                             "%s must be at most %d" % (name, bound), tok.pos)
        return int(tok.text)

    def parse_atom(self):
        tok = self.take()
        if tok.kind == "LPAREN":
            self.parse_expr()
            self.expect("RPAREN", "')'")
            return
        if tok.kind != "NAME":
            raise ParseError("expected a function name or '('", tok.pos)
        if tok.text in ("inv", "shift"):
            self.expect("LPAREN", "'(' after " + tok.text)
            self.parse_expr()
            if tok.text == "inv":
                node = ("inv",)
            else:
                self.expect("COMMA", "',' and a shift amount")
                node = ("shift", self.parse_int(name="shift amount",
                                                bound=MAX_POWER))
            self.expect("RPAREN", "')'")
        else:
            args = []
            if self.peek().kind == "LPAREN":
                self.take()
                args.append(self.parse_int())
                while self.peek().kind == "COMMA":
                    self.take()
                    args.append(self.parse_int())
                self.expect("RPAREN", "')'")
            node = ("atom", tok.text, tuple(args))
        self.ops.append(node)


def parse(text: str) -> list[tuple]:
    """The expression as a post-order list of plain tuples: ("atom", name,
    args), ("pow", j), ("inv",), ("shift", k), ("mul",), ("conv",) and
    ("uconv",), each node after its operands.  Every syntax error is
    raised here, before any catalog lookup."""
    p = _Parser(tokenize(text))
    p.parse_expr()
    tok = p.peek()
    if tok.kind != "EOF":
        raise ParseError("unexpected trailing input", tok.pos)
    return p.ops


# node kind -> (number of operands, combinator); a node's own fields
# follow its operands as the combinator's arguments
_COMBINATORS = {
    "conv": (2, dirichlet_convolve), "uconv": (2, unitary_convolve),
    "mul": (2, pointwise_product), "pow": (1, pointwise_power),
    "inv": (1, dirichlet_inverse), "shift": (1, shift_by_power),
}


def build(ops: list[tuple]) -> MultiplicativeFunction:
    """The multiplicative function a post-order node list denotes, built
    on an explicit stack: atoms are made left to right, so the first bad
    one raises its CatalogError."""
    stack: list[MultiplicativeFunction] = []
    for kind, *fields in ops:
        if kind == "atom":
            name, args = fields
            stack.append(catalog.make(name, *args))
        else:
            n, combine = _COMBINATORS[kind]
            stack[-n:] = [combine(*stack[-n:], *fields)]
    f, = stack
    return f


def parse_function(text: str) -> MultiplicativeFunction:
    """One-step parse and build."""
    return build(parse(text))
