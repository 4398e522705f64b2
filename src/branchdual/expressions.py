"""Parsing and printing of polynomial expressions in t (series) or u (operators).

Grammar: an optionally signed term, then terms each after ``+`` or ``-``.
A term matches ``_TERM``, ``[num [/ den] [*]] [t|u [^ exp]]`` with
whitespace allowed between tokens and ``num``, ``den``, ``exp`` ASCII
digit runs: ``c``, ``c t^k``, ``t^k``, ``t`` (likewise with ``u``), where
``c`` is an integer or fraction ``p/q``.  The variable decides the result
type: ``t`` yields an exact :class:`Series`, ``u`` a :class:`DiffOp`;
mixing both in one expression is an error.  Errors carry the position of
the offending token; in a list of generators it counts from the start of
the whole text, or of a list's texts joined by commas.
"""

from __future__ import annotations

import re
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

# Every part of both patterns is optional, so a match never fails and never
# backtracks; a group that is None or empty names what is missing.  [0-9], not
# \d, which takes other scripts' digits ("٤"); \s is exactly str.isspace().
_SIGN = re.compile(r"\s*([+-]?)\s*")
_TERM = re.compile(
    r"(?:(?P<num>[0-9]+)\s*(?:(?P<slash>/)\s*(?P<den>[0-9]*)\s*)?(?:\*\s*)?)?"
    r"(?:(?P<var>[tu])\s*(?:\^\s*(?P<exp>[0-9]*))?)?"
)


def parse_expression(text: str):
    """Parse one expression; returns a Series (variable t) or DiffOp (u).

    A constant expression parses as a Series.  Errors carry the offending
    position.
    """
    coeffs, var = _parse(text, 0, len(text))
    return DiffOp.make(coeffs) if var == "u" else Series.make(coeffs, None)


def _parse(text: str, pos: int, end: int):
    """The dense coefficients of text[pos:end] and its variable (None for a
    constant), parsed in place; error positions index ``text``.
    """
    coeffs, var = {}, None  # coeffs: exponent -> int or Fraction sum, a key per term
    while True:
        sign = _SIGN.match(text, pos, end)
        pos = sign.end()
        if pos == end:
            if sign.group(1):
                raise ExpressionError("dangling sign", pos)
            if not coeffs:  # the first match: it starts where the text does
                raise ExpressionError("empty expression", sign.start())
            break
        if coeffs and not sign.group(1):
            raise ExpressionError("expected '+' or '-' between terms", pos)
        m = _TERM.match(text, pos, end)
        num, den, term_var = m.group("num", "den", "var")
        if num is None and term_var is None:
            raise ExpressionError("expected a term", pos)
        coeff = 1 if num is None else _digits(m, "num")
        if den is not None:
            if not den:
                raise ExpressionError("expected denominator after '/'", m.start("den"))
            d = _digits(m, "den")
            if d == 0:
                raise ExpressionError("zero denominator", m.end("slash"))
            coeff = Fraction(coeff, d)
        exp = 0
        if term_var is not None:
            exp = 1 if m.group("exp") is None else _exponent(m)
            if var not in (None, term_var):
                raise ExpressionError("mixed variables in one expression", m.start("var"))
            var = term_var
        coeffs[exp] = coeffs.get(exp, 0) + (-coeff if sign.group(1) == "-" else coeff)
        pos = m.end()
    return [coeffs.get(i, 0) for i in range(max(coeffs) + 1)], var


def _digits(m, group: str) -> int:
    """At most MAX_COEFF_DIGITS digits, measured before int()."""
    digits = m.group(group)
    if len(digits) > MAX_COEFF_DIGITS:
        raise ExpressionError(f"number longer than {MAX_COEFF_DIGITS} digits", m.start(group))
    return int(digits)


def _exponent(m) -> int:
    """An exponent of at most MAX_EXPONENT; its digits are measured before int()."""
    if not m.group("exp"):
        raise ExpressionError("expected exponent after '^'", m.start("exp"))
    digits = m.group("exp").lstrip("0") or "0"
    if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
        raise ExpressionError(f"exponent above the limit {MAX_EXPONENT}", m.start("exp"))
    return int(digits)


def _series(text: str, pos: int, end: int) -> Series:
    coeffs, var = _parse(text, pos, end)
    if var == "u":
        raise ExpressionError("expected a series in t, got an operator in u")
    return Series.make(coeffs, None)


def parse_series(text: str) -> Series:
    """Parse an expression that must be a series in t (or a constant)."""
    return _series(text, 0, len(text))


def parse_diffop(text: str) -> DiffOp:
    """Parse an expression that must be an operator in u (or a constant)."""
    coeffs, var = _parse(text, 0, len(text))
    if var == "t" and any(coeffs[1:]):
        raise ExpressionError("expected an operator in u, got a series in t")
    return DiffOp.make(coeffs)


def parse_generators(text):
    """Parse series expressions: one comma-separated text, or a list of texts.

    Each part is parsed in place in the text, or in a list's texts joined by
    commas (a comma inside one is no separator), so error positions count
    from the start of that whole text.
    """
    parts = text.split(",") if isinstance(text, str) else list(text)
    joined = ",".join(parts)
    out, pos = [], 0
    for part in parts:
        out.append(_series(joined, pos, pos + len(part)))
        pos += len(part) + 1
    return out


def parse_operators(text: str):
    """Parse a semicolon-separated list of operator expressions."""
    return [parse_diffop(part) for part in text.split(";")]


def _format_terms(terms, var: str) -> str:
    """The (exponent, nonzero rational) pairs, by increasing exponent, as an expression."""
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
    return _format_terms([(i, c) for i, c in enumerate(f.coeffs) if c], "t")


def format_diffop(g: DiffOp) -> str:
    return _format_terms([(i, c) for i, c in enumerate(g.coeffs) if c], "u")


def _format_row(row, o: int) -> str:
    """The series of the int row divided by its entry at column o, formatted as
    ``format_series`` formats it, with no ``Series`` built: an entry is
    printed as an int when o's entry is 1, as a ``Fraction`` otherwise."""
    p = row[o]
    if p == 1:
        return _format_terms([(i, x) for i, x in enumerate(row) if x], "t")
    return _format_terms([(i, Fraction(x, p)) for i, x in enumerate(row) if x], "t")


def format_rational(x) -> str:
    """Exact decimal-free rendering: "p" or "p/q"."""
    if type(x) is not Fraction:
        x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
