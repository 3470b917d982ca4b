"""Parser and evaluator for the rational-map DSL.

Grammar:

    map      := poly ('/' poly)?
    poly     := ['+'|'-'] term (('+'|'-') term)*
    term     := rational ('*'? 'x' ('^' nat)?)? | 'x' ('^' nat)?
    rational := int ('/' posint)?

A '/' directly after an integer binds into the rational when the next
token is again an integer ("1/2*x" is the coefficient 1/2), otherwise
it is the map-level division ("1/x").  Coefficients are exact
rationals; coefficient lists are dense, ascending degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DegreeCap, DivisionByZero, ParseError
from .geometry import embed
from .padic import PAdic

DEFAULT_DEGREE_CAP = 16


@dataclass(frozen=True, slots=True)
class RationalMap:
    """num(x)/den(x) with exact rational coefficients, ascending degree."""

    num: tuple[Fraction, ...]
    den: tuple[Fraction, ...]

    @property
    def is_polynomial(self) -> bool:
        return self.den == (Fraction(1),)

    def __str__(self):
        return render_map(self)


def _trim(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def make_map(num, den=(1,)) -> RationalMap:
    """Normalize coefficient lists: trim zeros, absorb constant denominators."""
    num = [Fraction(c) for c in num] or [Fraction(0)]
    den = [Fraction(c) for c in den] or [Fraction(1)]
    num, den = list(_trim(num)), list(_trim(den))
    if den == [Fraction(0)]:
        raise ParseError("denominator is identically zero", 0)
    if len(den) == 1:
        num = [c / den[0] for c in num]
        den = [Fraction(1)]
    return RationalMap(tuple(num), tuple(den))


@dataclass(frozen=True, slots=True)
class _Tok:
    kind: str  # INT | X | OP | END
    text: str
    pos: int


def _tokenize(text: str) -> list[_Tok]:
    toks, i, n = [], 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Tok("INT", text[i:j], i))
            i = j
        elif ch == "x":
            toks.append(_Tok("X", ch, i))
            i += 1
        elif ch in "+-*/^":
            toks.append(_Tok("OP", ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(_Tok("END", "", n))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok], cap: int):
        self.toks = toks
        self.i = 0
        self.cap = cap

    def peek(self, ahead=0) -> _Tok:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def take(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def rational(self) -> Fraction:
        t = self.take()  # caller guaranteed INT
        num = int(t.text)
        if (
            self.peek().kind == "OP"
            and self.peek().text == "/"
            and self.peek(1).kind == "INT"
        ):
            self.take()
            den_tok = self.take()
            if int(den_tok.text) == 0:
                raise ParseError("zero denominator in coefficient", den_tok.pos)
            return Fraction(num, int(den_tok.text))
        return Fraction(num)

    def power(self) -> int:
        # after 'x': optional '^' nat
        if self.peek().kind == "OP" and self.peek().text == "^":
            self.take()
            t = self.peek()
            if t.kind != "INT":
                raise ParseError("expected exponent after '^'", t.pos)
            self.take()
            deg = int(t.text)
            if deg > self.cap:
                raise DegreeCap(f"degree {deg} exceeds cap {self.cap}")
            return deg
        return 1

    def term(self) -> tuple[Fraction, int]:
        t = self.peek()
        if t.kind == "INT":
            coeff = self.rational()
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.text == "*":
                self.take()
                if self.peek().kind != "X":
                    raise ParseError("expected 'x' after '*'", self.peek().pos)
            if self.peek().kind == "X":
                self.take()
                return coeff, self.power()
            return coeff, 0
        if t.kind == "X":
            self.take()
            return Fraction(1), self.power()
        raise ParseError("expected a term", t.pos)

    def poly(self) -> list[Fraction]:
        coeffs: dict[int, Fraction] = {}
        sign = Fraction(1)
        t = self.peek()
        if t.kind == "OP" and t.text in "+-":
            self.take()
            sign = Fraction(1) if t.text == "+" else Fraction(-1)
        while True:
            c, d = self.term()
            coeffs[d] = coeffs.get(d, Fraction(0)) + sign * c
            t = self.peek()
            if t.kind == "OP" and t.text in "+-":
                self.take()
                sign = Fraction(1) if t.text == "+" else Fraction(-1)
                continue
            break
        top = max(coeffs)
        return [coeffs.get(d, Fraction(0)) for d in range(top + 1)]


def parse_map(text: str, degree_cap: int = DEFAULT_DEGREE_CAP) -> RationalMap:
    """Parse the DSL into a RationalMap.

    Raises:
        ParseError: with the offset of the offending token.
        DegreeCap: an exponent above `degree_cap`.
    """
    p = _Parser(_tokenize(text), degree_cap)
    num = p.poly()
    den = [Fraction(1)]
    t = p.peek()
    if t.kind == "OP" and t.text == "/":
        p.take()
        den_pos = p.peek().pos
        den = p.poly()
        if all(c == 0 for c in den):
            raise ParseError("denominator is identically zero", den_pos)
    t = p.peek()
    if t.kind != "END":
        raise ParseError(f"unexpected {t.text!r}", t.pos)
    return make_map(num, den)


def _render_coeff(c: Fraction) -> str:
    return str(c)


def _render_poly(coeffs: tuple[Fraction, ...], force_x0: bool) -> str:
    parts = []
    for d, c in enumerate(coeffs):
        if c == 0 and not (len(coeffs) == 1):
            continue
        mag = abs(c)
        if d == 0:
            body = f"{_render_coeff(mag)}*x^0" if force_x0 else _render_coeff(mag)
        else:
            xpart = "x" if d == 1 else f"x^{d}"
            body = xpart if mag == 1 else f"{_render_coeff(mag)}*{xpart}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    if not parts:
        return "0*x^0" if force_x0 else "0"
    first_sign, first_body = parts[0]
    out = (first_sign if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += sign + body
    return out


def render_map(f: RationalMap) -> str:
    """Grammar-valid text that re-parses to the same map.

    A constant numerator over a non-constant denominator is rendered
    with an explicit x^0 so the '/' cannot be swallowed by the
    coefficient grammar.
    """
    if f.is_polynomial:
        return _render_poly(f.num, False)
    force_x0 = len(f.num) == 1
    return _render_poly(f.num, force_x0) + "/" + _render_poly(f.den, False)


@lru_cache(maxsize=4096)
def _embed_coeffs(coeffs: tuple[Fraction, ...], p: int, end: int) -> tuple[PAdic, ...]:
    return tuple(embed(c, p, end) for c in coeffs)


def _horner(coeffs: tuple, x):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def eval_map(f: RationalMap, x):
    """num(x)/den(x) by Horner evaluation.

    A rational x gives the exact rational f(x).  A PAdic x gives a PAdic,
    with precision tracked throughout.

    Raises:
        DivisionByZero: denominator zero (or flagged zero) at x.
        PrecisionExhausted: propagated from consumed flagged values.
    """
    num, den = f.num, f.den
    if isinstance(x, PAdic):
        end = (x.known_mod if x.known_mod is not None else 0) + 8
        num, den = _embed_coeffs(num, x.p, end), _embed_coeffs(den, x.p, end)
    top = _horner(num, x)
    if f.is_polynomial:
        return top
    bottom = _horner(den, x)
    if isinstance(bottom, PAdic):
        return top * bottom.inv()
    if bottom == 0:
        raise DivisionByZero("inverse of a value not certified nonzero")
    return top / bottom
