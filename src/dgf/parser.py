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
operands, by one loop over the tokens (Dijkstra's shunting-yard) with an
explicit stack of open groups; build runs them on a stack through
catalog.make and dgf.bell's combinators, which name each function by its
fully parenthesised text.  Neither recurses per nesting level.
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


def _expect(tok: Token, kind: str, message: str) -> None:
    if tok.kind != kind:
        raise ParseError(message, tok.pos)


def _int(tok: Token, what: str = "an integer", name: str = "parameter",
         bound: int = MAX_PARAM) -> int:
    """tok, an integer of absolute value at most bound, or a ParseError at
    its column; its digits are counted first, as int() refuses over 4300
    of them."""
    _expect(tok, "INT", "expected " + what)
    digits = tok.text.lstrip("-").lstrip("0")
    if len(digits) > len(str(bound)) or int(digits or "0") > bound:
        raise ParseError("%s must be at least %d" % (name, -bound)
                         if tok.text.startswith("-") else
                         "%s must be at most %d" % (name, bound), tok.pos)
    return int(tok.text)


# binary operator token -> (precedence, node); all are left-associative
_BINARY = {"CONV": (1, ("conv",)), "UCONV": (1, ("uconv",)),
           "STAR": (2, ("mul",))}


def parse(text: str) -> list[tuple]:
    """The expression as a post-order list of plain tuples: ("atom", name,
    args), ("pow", j), ("inv",), ("shift", k), ("mul",), ("conv",) and
    ("uconv",), each node after its operands.  Every syntax error is
    raised here, before any catalog lookup."""
    toks, i, ops = tokenize(text), 0, []
    # the open groups, innermost last: how each opened ("" for the whole
    # text, "(", "inv" or "shift") and its pending binary operators, of
    # rising precedence
    groups: list[tuple[str, list]] = [("", [])]
    while True:
        # an operand: open its groups, up to its atom
        tok, i = toks[i], i + 1
        if tok.text in ("(", "inv", "shift"):
            if tok.kind == "NAME":
                _expect(toks[i], "LPAREN", "expected '(' after " + tok.text)
                i += 1
            groups.append((tok.text, []))
            continue
        _expect(tok, "NAME", "expected a function name or '('")
        args = []
        if toks[i].kind == "LPAREN":
            while not args or toks[i].kind == "COMMA":
                args.append(_int(toks[i + 1]))
                i += 2
            _expect(toks[i], "RPAREN", "expected ')'")
            i += 1
        ops.append(("atom", tok.text, tuple(args)))
        # the operand is complete: its '^' (which does not chain), then
        # close groups until a binary operator opens the next operand
        while True:
            tok = toks[i]
            if tok.kind == "CARET":
                tok = toks[i + 1]
                j = -1 if tok.text.startswith("-") else \
                    _int(tok, "an exponent", "exponent", MAX_POWER)
                if j < 1:
                    raise ParseError("exponent must be a positive integer",
                                     tok.pos)
                ops.append(("pow", j))
                i += 2
                tok = toks[i]
            opening, pending = groups[-1]
            if tok.kind in _BINARY:
                op = _BINARY[tok.kind]
                while pending and pending[-1][0] >= op[0]:
                    ops.append(pending.pop()[1])
                pending.append(op)
                i += 1
                break
            ops += [node for _, node in reversed(pending)]
            groups.pop()
            if not opening:
                _expect(tok, "EOF", "unexpected trailing input")
                return ops
            if opening == "shift":
                _expect(tok, "COMMA", "expected ',' and a shift amount")
                ops.append(("shift", _int(toks[i + 1], name="shift amount",
                                          bound=MAX_POWER)))
                i += 2
            elif opening == "inv":
                ops.append(("inv",))
            _expect(toks[i], "RPAREN", "expected ')'")
            i += 1


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
