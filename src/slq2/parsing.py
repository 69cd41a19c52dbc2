"""Textual and JSON forms of scalars, elements, and matrices.

Scalar syntax: polynomials in q with rational coefficients, e.g.
``1 - q^2 + (1/2)q``, plus half powers ``q^(1/2)``, ``q^(-3/2)``.
Element syntax: ``+``/``-`` separated terms, each an optional scalar
prefix followed by a whitespace-separated word such as ``a^2 b c^3``.
Everything parses back to reduced canonical form, so emission followed by
parsing is the identity on reduced values.
Parentheses and unary minus signs nest at most ``MAX_NESTING_DEPTH`` levels
deep, and one term's word has total degree at most ``MAX_WORD_DEGREE``;
other input is a ``ParseError``, not a RecursionError or an unbounded run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .algebra import AlgebraElement, AlgebraMode, NormalMonomial, from_word, monomial_element, term_text, zero
from .cyclo import CyclotomicScalar, q_half_power, q_power
from .linalg import ScalarMatrix

SCHEMA_VERSION = 1
MAX_NESTING_DEPTH = 100
# rewriting and coproducts grow steeply with the degree: coproduct "c^300"
# takes ~2.5 s at ell = 3, and the parser's "d a^200000" ran unbounded
MAX_WORD_DEGREE = 300


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+)|(?P<gen>[abcd])(?![a-zA-Z])|(?P<q>q)|(?P<op>[+\-*/^()])|(?P<bad>\S))"
)


@dataclass
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            break
        if m.group("bad"):
            raise ParseError(f"unexpected character {m.group('bad')!r}", m.start("bad"))
        for kind in ("number", "gen", "q", "op"):
            if m.group(kind):
                tokens.append(_Token(kind, m.group(kind), m.start(kind)))
                break
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser shared by the scalar and element grammars."""

    def __init__(self, text: str, mode: AlgebraMode):
        self.text = text
        self.mode = mode
        self.ell = mode.ell
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    # -- token helpers -------------------------------------------------------

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.next()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}", tok.pos)

    # -- element grammar -------------------------------------------------------

    def parse_element(self) -> AlgebraElement:
        result = zero(self.mode)
        sign = 1
        first = True
        while True:
            tok = self.peek()
            if tok is None:
                if first:
                    raise ParseError("empty element expression", 0)
                break
            if not first:
                if tok.kind != "op" or tok.text not in "+-":
                    raise ParseError("expected '+' or '-' between terms", tok.pos)
                sign = 1 if tok.text == "+" else -1
                self.next()
            else:
                if tok.kind == "op" and tok.text in "+-":
                    sign = 1 if tok.text == "+" else -1
                    self.next()
                first = False
            result = result + self.parse_term(sign)
            sign = 1
        return result

    def parse_term(self, sign: int) -> AlgebraElement:
        coeff = CyclotomicScalar.one(self.ell)
        tok = self.peek()
        if tok is not None and tok.kind != "gen":
            coeff = self.parse_scalar_expr(stop_at_gen=True)
        if sign < 0:
            coeff = -coeff
        word: list[tuple[str, int]] = []
        degree = 0
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "gen":
                break
            g = self.next().text
            exp = 1
            nxt = self.peek()
            if nxt is not None and nxt.kind == "op" and nxt.text == "^":
                self.next()
                exp = self.parse_integer()
                if exp < 0:
                    raise ParseError("generator exponents must be >= 0", nxt.pos)
            degree += exp
            if degree > MAX_WORD_DEGREE:
                raise ParseError(f"word of degree above {MAX_WORD_DEGREE}", tok.pos)
            word.append((g, exp))
        return from_word(self.mode, word, coeff)

    # -- scalar grammar --------------------------------------------------------

    def parse_scalar_expr(self, stop_at_gen: bool = False) -> CyclotomicScalar:
        value = self.parse_scalar_product(stop_at_gen)
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op" or tok.text not in "+-":
                return value
            if stop_at_gen:
                # inside an element term the +/- separates terms, not scalars
                return value
            self.next()
            rhs = self.parse_scalar_product(stop_at_gen)
            value = value + rhs if tok.text == "+" else value - rhs

    def parse_scalar_product(self, stop_at_gen: bool) -> CyclotomicScalar:
        value = self.parse_scalar_atom()
        while True:
            tok = self.peek()
            if tok is None:
                return value
            if tok.kind == "op" and tok.text in "*/":
                self.next()
                rhs = self.parse_scalar_atom()
                if tok.text == "*":
                    value = value * rhs
                elif rhs:
                    value = value / rhs
                else:
                    raise ParseError("division by zero", tok.pos)
                continue
            # juxtaposition: (1/2)q, 2q^2, q(1+q)
            if tok.kind in ("number", "q") or (tok.kind == "op" and tok.text == "(" and not stop_at_gen):
                value = value * self.parse_scalar_atom()
                continue
            return value

    def parse_scalar_atom(self) -> CyclotomicScalar:
        tok = self.next()
        if tok.kind == "op" and tok.text in "-(":
            if self.depth == MAX_NESTING_DEPTH:
                raise ParseError(f"nesting deeper than {MAX_NESTING_DEPTH} levels", tok.pos)
            self.depth += 1
            if tok.text == "-":
                value = -self.parse_scalar_atom()
            else:
                value = self.parse_scalar_expr()
                self.expect_op(")")
            self.depth -= 1
            return value
        if tok.kind == "number":
            return CyclotomicScalar.from_rational(self.ell, int(tok.text))
        if tok.kind == "q":
            nxt = self.peek()
            if nxt is not None and nxt.kind == "op" and nxt.text == "^":
                self.next()
                return self.parse_q_exponent()
            return q_power(self.ell, 1)
        raise ParseError(f"unexpected token {tok.text!r} in scalar", tok.pos)

    def parse_q_exponent(self) -> CyclotomicScalar:
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "(":
            self.next()
            num = self.parse_integer()
            nxt = self.peek()
            if nxt is not None and nxt.kind == "op" and nxt.text == "/":
                self.next()
                den = self.parse_integer()
                if den != 2:
                    raise ParseError("only half-integer q powers are supported", nxt.pos)
                self.expect_op(")")
                return q_half_power(self.ell, num)
            self.expect_op(")")
            return q_power(self.ell, num)
        return q_power(self.ell, self.parse_integer())

    def parse_integer(self) -> int:
        tok = self.next()
        sign = 1
        if tok.kind == "op" and tok.text == "-":
            sign = -1
            tok = self.next()
        if tok.kind != "number":
            raise ParseError("expected an integer", tok.pos)
        return sign * int(tok.text)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def parse_scalar(text: str, ell: int) -> CyclotomicScalar:
    parser = _Parser(text, AlgebraMode.generic(ell))
    value = parser.parse_scalar_expr()
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok.text!r}", tok.pos)
    return value


def parse_element(text: str, mode: AlgebraMode) -> AlgebraElement:
    parser = _Parser(text, mode)
    value = parser.parse_element()
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok.text!r}", tok.pos)
    return value


def mode_from_name(name: str, ell: int) -> AlgebraMode:
    table = {
        "generic": AlgebraMode.generic,
        "F": AlgebraMode.quotient_f,
        "Fhat": AlgebraMode.quotient_fhat,
    }
    if name not in table:
        raise ValueError(f"unknown mode {name!r} (use generic, F, or Fhat)")
    return table[name](ell)


# -- JSON ---------------------------------------------------------------------

def element_to_json(x: AlgebraElement) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "mode": x.mode.kind,
        "ell": x.ell,
        "terms": [
            {"monomial": {"t": m.t, "j": m.j, "k": m.k}, "coeff": str(c)}
            for m, c in x.items()
        ],
    }


def element_from_json(data: dict) -> AlgebraElement:
    mode = mode_from_name(data["mode"], data["ell"])
    out = zero(mode)
    for term in data["terms"]:
        m = term["monomial"]
        mono = NormalMonomial(m["t"], m["j"], m["k"])
        out = out + monomial_element(mode, mono, parse_scalar(term["coeff"], mode.ell))
    return out


def matrix_to_json(m: ScalarMatrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in m.data]


# -- LaTeX --------------------------------------------------------------------

def scalar_to_latex(x: CyclotomicScalar) -> str:
    s = str(x)
    s = re.sub(r"q\^(\d+)", r"q^{\1}", s)
    return s


def monomial_to_latex(m: NormalMonomial) -> str:
    parts = []
    for g, e in m.word():
        parts.append(g if e == 1 else f"{g}^{{{e}}}")
    return "".join(parts) if parts else "1"


def element_to_latex(x: AlgebraElement) -> str:
    if x.is_zero():
        return "0"
    parts = [term_text(scalar_to_latex(coeff), monomial_to_latex(mono), "") for mono, coeff in x.items()]
    return " + ".join(parts).replace("+ -", "- ")


def matrix_to_latex(rows: list[list[str]]) -> str:
    body = r" \\ ".join(" & ".join(row) for row in rows)
    return r"\begin{pmatrix} " + body + r" \end{pmatrix}"
