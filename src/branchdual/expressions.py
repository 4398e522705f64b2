"""Parsing and printing of polynomial expressions in t (series) or u (operators).

Grammar: a sum of terms ``c``, ``c t^k``, ``t^k``, ``t`` (likewise with
``u``), where ``c`` is an optionally signed integer or fraction ``p/q``.
Whitespace is insignificant and an optional ``*`` may separate the
coefficient from the variable.  The variable decides the result type:
``t`` yields an exact :class:`Series`, ``u`` a :class:`DiffOp`; mixing
both in one expression is an error.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ExpressionError
from .series import DiffOp, Series

# Largest exponent an expression may carry.  Parsing builds a dense
# coefficient list up to the highest exponent, so the bound caps that
# allocation; it lies far above any degree the closure can certify within
# its default truncation ceiling (512).
MAX_EXPONENT = 10_000

# Longest digit run of a coefficient's numerator or denominator, checked
# before int(), which refuses more than 4,300 digits.
MAX_COEFF_DIGITS = 1_000


def parse_expression(text: str):
    """Parse one expression; returns a Series (variable t) or DiffOp (u).

    A constant expression parses as a Series.  Errors carry the offending
    position.
    """
    coeffs, var = _parse_terms(text)
    size = max(coeffs) + 1 if coeffs else 0
    dense = [coeffs.get(i, Fraction(0)) for i in range(size)]
    if var == "u":
        return DiffOp.make(dense)
    return Series.make(dense, None)


def _parse_terms(text: str):
    pos = 0
    n = len(text)
    coeffs: dict = {}
    var = None
    saw_term = False
    while True:
        while pos < n and text[pos].isspace():
            pos += 1
        if pos == n:
            break
        sign = Fraction(1)
        if text[pos] in "+-":
            if text[pos] == "-":
                sign = -sign
            pos += 1
            while pos < n and text[pos].isspace():
                pos += 1
            if pos == n:
                raise ExpressionError("dangling sign", pos)
        elif saw_term:
            raise ExpressionError("expected '+' or '-' between terms", pos)
        coeff, exp, term_var, pos = _parse_term(text, pos)
        if term_var is not None:
            if var is None:
                var = term_var
            elif var != term_var:
                raise ExpressionError("mixed variables in one expression", pos - 1)
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + sign * coeff
        saw_term = True
    if not saw_term:
        raise ExpressionError("empty expression", 0)
    return {e: c for e, c in coeffs.items() if c != 0}, var


def _parse_term(text: str, pos: int):
    n = len(text)
    start = pos
    coeff = None
    # ASCII digits only: str.isdigit also takes ones int() rejects, like "²"
    if pos < n and "0" <= text[pos] <= "9":
        num, pos = _parse_int(text, pos)
        coeff = Fraction(num)
        while pos < n and text[pos].isspace():
            pos += 1
        if pos < n and text[pos] == "/":
            slash = pos
            pos += 1
            while pos < n and text[pos].isspace():
                pos += 1
            if pos == n or not "0" <= text[pos] <= "9":
                raise ExpressionError("expected denominator after '/'", pos)
            den, pos = _parse_int(text, pos)
            if den == 0:
                raise ExpressionError("zero denominator", slash + 1)
            coeff = Fraction(num, den)
        while pos < n and text[pos].isspace():
            pos += 1
        if pos < n and text[pos] == "*":
            pos += 1
            while pos < n and text[pos].isspace():
                pos += 1
    if pos < n and text[pos] in "tu":
        term_var = text[pos]
        pos += 1
        exp = 1
        while pos < n and text[pos].isspace():
            pos += 1
        if pos < n and text[pos] == "^":
            pos += 1
            while pos < n and text[pos].isspace():
                pos += 1
            if pos == n or not "0" <= text[pos] <= "9":
                raise ExpressionError("expected exponent after '^'", pos)
            exp, pos = _parse_exponent(text, pos)
        return (coeff if coeff is not None else Fraction(1)), exp, term_var, pos
    if coeff is None:
        raise ExpressionError("expected a term", start)
    return coeff, 0, None, pos


def _parse_int(text: str, pos: int):
    """At most MAX_COEFF_DIGITS digits, measured before int()."""
    start = pos
    while pos < len(text) and "0" <= text[pos] <= "9":
        pos += 1
    if pos - start > MAX_COEFF_DIGITS:
        raise ExpressionError(f"number longer than {MAX_COEFF_DIGITS} digits", start)
    return int(text[start:pos]), pos


def _parse_exponent(text: str, pos: int):
    """An exponent of at most MAX_EXPONENT; its digits are measured before int()."""
    start = pos
    while pos < len(text) and "0" <= text[pos] <= "9":
        pos += 1
    digits = text[start:pos].lstrip("0") or "0"
    if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
        raise ExpressionError(f"exponent above the limit {MAX_EXPONENT}", start)
    return int(digits), pos


def parse_series(text: str) -> Series:
    """Parse an expression that must be a series in t (or a constant)."""
    x = parse_expression(text)
    if not isinstance(x, Series):
        raise ExpressionError("expected a series in t, got an operator in u")
    return x


def parse_diffop(text: str) -> DiffOp:
    """Parse an expression that must be an operator in u."""
    x = parse_expression(text)
    if isinstance(x, DiffOp):
        return x
    if isinstance(x, Series) and all(c == 0 for c in x.coeffs[1:]):
        return DiffOp.make(list(x.coeffs[:1]))
    raise ExpressionError("expected an operator in u, got a series in t")


def parse_generators(text):
    """Parse series expressions: one comma-separated text, or a list of texts.

    Error positions count from the start of the text; for a list, from the
    start of its texts joined by commas (a comma inside one is no separator).
    """
    parts = text.split(",") if isinstance(text, str) else text
    out = []
    offset = 0
    for part in parts:
        try:
            out.append(parse_series(part))
        except ExpressionError as ex:
            if not offset or ex.position is None:
                raise
            raise ExpressionError(ex.reason, offset + ex.position) from None
        offset += len(part) + 1
    return out


def parse_operators(text: str):
    """Parse a semicolon-separated list of operator expressions."""
    return [parse_diffop(part) for part in text.split(";")]


def _format_terms(coeffs, var: str) -> str:
    terms = [(i, c) for i, c in enumerate(coeffs) if c != 0]
    if not terms:
        return "0"
    parts = []
    for k, (i, c) in enumerate(terms):
        neg = c < 0
        mag = -c if neg else c
        if i == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else f"{mag} "
            body = f"{head}{var}" if i == 1 else f"{head}{var}^{i}"
        if k == 0:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


def format_series(f: Series) -> str:
    return _format_terms(f.coeffs, "t")


def format_diffop(g: DiffOp) -> str:
    return _format_terms(g.coeffs, "u")


def format_rational(x) -> str:
    """Exact decimal-free rendering: "p" or "p/q"."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
