"""Expression language for composing multiplicative functions.

Grammar (highest precedence last):

    expr   := term (('<*>' | '<+>') term)*      convolutions
    term   := factor ('*' factor)*              pointwise product
    factor := atom ('^' INT)?                   pointwise power, 1..MAX_POWER
    atom   := NAME ['(' INT (',' INT)* ')']     |INT| <= MAX_PARAM
            | 'inv' '(' expr ')'
            | 'shift' '(' expr ',' INT ')'      |INT| <= MAX_POWER
            | '(' expr ')'
"""
from __future__ import annotations

from typing import NamedTuple

from . import catalog
from .bell import (MAX_ORDER, MultiplicativeFunction, dirichlet_convolve,
                   dirichlet_inverse, pointwise_power, pointwise_product,
                   shift_by_power, unitary_convolve)
from .errors import ParseError
from .records import Record

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


# -- syntax tree --------------------------------------------------------------

class _Node(Record):
    """Immutable syntax node: nodes of different kinds are never equal."""
    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError("%s takes %d fields, got %d" % (
                type(self).__name__, len(self.__slots__), len(values)))
        for k, v in zip(self.__slots__, values):
            object.__setattr__(self, k, v)

    def __setattr__(self, name, value):
        raise AttributeError("syntax nodes are immutable")

    def __hash__(self):
        return hash((self.__class__, self._values()))

    def __reduce__(self):
        return self.__class__, self._values()


class Atom(_Node):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple[int, ...] = ()):
        super().__init__(name, args)


class Conv(_Node):
    __slots__ = ("left", "right")


class UConv(_Node):
    __slots__ = ("left", "right")


class PMul(_Node):
    __slots__ = ("left", "right")


class PPow(_Node):
    __slots__ = ("base", "exponent")


class Inv(_Node):
    __slots__ = ("inner",)


class Shift(_Node):
    __slots__ = ("inner", "k")


def to_text(node) -> str:
    if isinstance(node, Atom):
        if not node.args:
            return node.name
        return "%s(%s)" % (node.name, ",".join(str(a) for a in node.args))
    if isinstance(node, Conv):
        return "(%s <*> %s)" % (to_text(node.left), to_text(node.right))
    if isinstance(node, UConv):
        return "(%s <+> %s)" % (to_text(node.left), to_text(node.right))
    if isinstance(node, PMul):
        return "(%s * %s)" % (to_text(node.left), to_text(node.right))
    if isinstance(node, PPow):
        # composite nodes carry their own parentheses; a power base must
        # gain a pair, since the grammar does not chain '^'
        base = to_text(node.base)
        if isinstance(node.base, PPow):
            base = "(%s)" % base
        return "%s^%d" % (base, node.exponent)
    if isinstance(node, Inv):
        return "inv(%s)" % to_text(node.inner)
    if isinstance(node, Shift):
        return "shift(%s, %d)" % (to_text(node.inner), node.k)
    raise TypeError("not a syntax node: %r" % (node,))


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

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
        node = self.parse_term()
        while self.peek().kind in ("CONV", "UCONV"):
            op = self.take()
            rhs = self.parse_term()
            node = Conv(node, rhs) if op.kind == "CONV" else UConv(node, rhs)
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek().kind == "STAR":
            self.take()
            node = PMul(node, self.parse_factor())
        return node

    def parse_factor(self):
        node = self.parse_atom()
        if self.peek().kind == "CARET":
            self.take()
            tok = self.peek()
            j = -1 if tok.text.startswith("-") else \
                self.parse_int("an exponent", "exponent", MAX_POWER)
            if j < 1:
                raise ParseError("exponent must be a positive integer",
                                 tok.pos)
            node = PPow(node, j)
        return node

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
        tok = self.peek()
        if tok.kind == "LPAREN":
            self.take()
            node = self.parse_expr()
            self.expect("RPAREN", "')'")
            return node
        if tok.kind != "NAME":
            raise ParseError("expected a function name or '('", tok.pos)
        self.take()
        if tok.text == "inv":
            self.expect("LPAREN", "'(' after inv")
            node = self.parse_expr()
            self.expect("RPAREN", "')'")
            return Inv(node)
        if tok.text == "shift":
            self.expect("LPAREN", "'(' after shift")
            node = self.parse_expr()
            self.expect("COMMA", "',' and a shift amount")
            k = self.parse_int(name="shift amount", bound=MAX_POWER)
            self.expect("RPAREN", "')'")
            return Shift(node, k)
        args: tuple[int, ...] = ()
        if self.peek().kind == "LPAREN":
            self.take()
            vals = [self.parse_int()]
            while self.peek().kind == "COMMA":
                self.take()
                vals.append(self.parse_int())
            self.expect("RPAREN", "')'")
            args = tuple(vals)
        return Atom(tok.text, args)


def parse(text: str):
    """Parse an expression into a syntax tree."""
    p = _Parser(tokenize(text))
    node = p.parse_expr()
    tok = p.peek()
    if tok.kind != "EOF":
        raise ParseError("unexpected trailing input", tok.pos)
    return node


def build(node) -> MultiplicativeFunction:
    """Construct the multiplicative function an expression denotes."""
    if isinstance(node, Atom):
        return catalog.make(node.name, *node.args)
    if isinstance(node, Conv):
        return dirichlet_convolve(build(node.left), build(node.right))
    if isinstance(node, UConv):
        return unitary_convolve(build(node.left), build(node.right))
    if isinstance(node, PMul):
        return pointwise_product(build(node.left), build(node.right))
    if isinstance(node, PPow):
        return pointwise_power(build(node.base), node.exponent)
    if isinstance(node, Inv):
        return dirichlet_inverse(build(node.inner))
    if isinstance(node, Shift):
        return shift_by_power(build(node.inner), node.k)
    raise TypeError("not a syntax node: %r" % (node,))


def parse_function(text: str) -> MultiplicativeFunction:
    """One-step parse and build."""
    return build(parse(text))
