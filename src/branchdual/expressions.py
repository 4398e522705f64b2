"""Parsing and printing of polynomial expressions in t (series) or u (operators).

Grammar: an optionally signed term, then terms each after ``+`` or ``-``.
A term matches ``_TERM``, ``[num [/ den] [*]] [t|u [^ exp]]`` with
whitespace allowed between tokens and ``num``, ``den``, ``exp`` ASCII
digit runs: ``c``, ``c t^k``, ``t^k``, ``t`` (likewise with ``u``), where
``c`` is an integer or fraction ``p/q``.  A series (an exact
:class:`Series`) is in ``t``, an operator (a :class:`DiffOp`) in ``u``, and
a constant is either; mixing both in one expression is an error, and so
is an operator where a series is asked for, or the converse.  Errors carry
the position of the offending token; in a list of generators it counts
from the start of the whole text, or of a list's texts joined by commas.

Parsing sums each exponent's terms in ints (a ``Fraction`` only for a term
with a denominator) and builds the dense ``Fraction`` tuple once, with no
``Series.make``.  A list of generators or of operators is bounded by
MAX_LIST_COEFFS before any tuple is built.

Printing has one formatter, ``_format_terms``, of (exponent, numerator,
denominator) triples, and one coefficient string, ``_rational``: every
expression, coefficient map, matrix cell and Laurent map of a report goes
through them, and no ``Fraction`` is compared or negated on the way.  An
int too long for ``str()`` (``sys.get_int_max_str_digits()``) is converted
in parts (``_decimal``), so a report of any size is written.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import ExpressionError
from .linalg import QZERO
from .series import DiffOp, Series

# Largest exponent an expression may carry.  Parsing builds a dense
# coefficient list up to the highest exponent, so the bound caps that
# allocation; it lies far above any degree the closure can certify within
# its default truncation ceiling (512).
MAX_EXPONENT = 10_000

# Longest digit run of a coefficient's numerator or denominator, checked
# before int(), which refuses more than 4,300 digits.
MAX_COEFF_DIGITS = 1_000

# Largest sum of (degree + 1) over a generator or operator list: the entries
# of the dense coefficient tuples it would build, counted on the parsed terms
# before any tuple is.  MAX_EXPONENT caps one expression, not a list.
MAX_LIST_COEFFS = 100_000

# Every part of both patterns is optional, so a match never fails and never
# backtracks; a group that is None or empty names what is missing.  [0-9], not
# \d, which takes other scripts' digits ("٤"); \s is exactly str.isspace().
_SIGN = re.compile(r"\s*([+-]?)\s*")
_TERM = re.compile(
    r"(?:(?P<num>[0-9]+)\s*(?:(?P<slash>/)\s*(?P<den>[0-9]*)\s*)?(?:\*\s*)?)?"
    r"(?:(?P<var>[tu])\s*(?:\^\s*(?P<exp>[0-9]*))?)?"
)


def _parse(text: str, pos: int, end: int):
    """The terms of text[pos:end], {exponent: nonzero int or Fraction sum},
    and its variable (None for a constant), parsed in place; error positions
    index ``text``.
    """
    coeffs, var = {}, None  # exponent -> int or Fraction sum, a key per term
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
        coeff = -coeff if sign.group(1) == "-" else coeff
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
        coeffs[exp] = coeffs[exp] + coeff if exp in coeffs else coeff
        pos = m.end()
    return {i: x for i, x in coeffs.items() if x}, var


def _coeffs(terms) -> tuple:
    """The dense ``Fraction`` coefficients of nonzero terms, up to the highest
    exponent, every zero the one shared ``Fraction(0)``: what ``Series.make``
    makes of them, built once."""
    out = [QZERO] * (max(terms) + 1 if terms else 0)
    for i, x in terms.items():
        out[i] = x if type(x) is Fraction else Fraction(x)
    return tuple(out)


def _parse_list(text: str, parts: list, kind) -> list:
    """A ``kind`` (Series or DiffOp) of each of the ``parts`` that make up
    ``text``, one separator between two, each parsed in place, so error
    positions count from the start of ``text``; built once their sum of
    (degree + 1) is checked against MAX_LIST_COEFFS."""
    found, pos = [], 0
    for part in parts:
        found.append(_terms(text, pos, pos + len(part), "t" if kind is Series else "u"))
        pos += len(part) + 1
    total = sum([max(terms) + 1 for terms in found if terms])
    if total > MAX_LIST_COEFFS:
        raise ExpressionError(f"{total} coefficients in the list, above the limit {MAX_LIST_COEFFS}")
    return [kind(_coeffs(terms)) for terms in found]


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


def _terms(text: str, pos: int, end: int, want: str) -> dict:
    """``_parse``'s terms of a series (``want`` "t") or an operator ("u"): a
    constant, or a series in t that cancels to one, parses as either."""
    terms, var = _parse(text, pos, end)
    if var not in (None, want) and (want == "t" or max(terms, default=0) > 0):
        raise ExpressionError("expected " + ("a series in t, got an operator in u" if want == "t"
                                             else "an operator in u, got a series in t"))
    return terms


def parse_series(text: str) -> Series:
    """Parse an expression that must be a series in t (or a constant)."""
    return Series(_coeffs(_terms(text, 0, len(text), "t")))


def parse_diffop(text: str) -> DiffOp:
    """Parse an expression that must be an operator in u (or a constant)."""
    return DiffOp(_coeffs(_terms(text, 0, len(text), "u")))


def parse_generators(text):
    """Parse series expressions: one comma-separated text, or a list of texts.

    Each part is parsed in place in the text, or in a list's texts joined by
    commas (a comma inside one is no separator), so error positions count
    from the start of that whole text.  Their sum of (degree + 1) is bounded
    by MAX_LIST_COEFFS before any coefficient tuple is built.
    """
    parts = text.split(",") if isinstance(text, str) else list(text)
    return _parse_list(",".join(parts), parts, Series)


def parse_operators(text: str):
    """Parse a semicolon-separated list of operator expressions, each in place
    in the text, so error positions count from its start; their sum of
    (degree + 1) is bounded by MAX_LIST_COEFFS before any is built."""
    return _parse_list(text, text.split(";"), DiffOp)


def _rational(num: int, den: int) -> str:
    """The coefficient string of num/den, in lowest terms with den > 0: "p" or "p/q"."""
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # an int of more digits than str() converts (sys.get_int_max_str_digits())
        return _decimal(num) if den == 1 else f"{_decimal(num)}/{_decimal(den)}"


def _decimal(n: int) -> str:
    """str(n) for an int of any size, with no process-wide setting changed.

    An int of at most 2,000 bits has at most 603 digits, below 640, the
    least limit ``sys.set_int_max_str_digits`` accepts, so ``str()``
    converts it.  A longer one is split at 10^k, k at most half its digits
    (log10(2) > 3/10), and each part converted so.
    """
    if n.bit_length() <= 2000:
        return str(n)
    hi, lo = divmod(abs(n), 10 ** (k := n.bit_length() * 3 // 20))
    return "-" * (n < 0) + _decimal(hi) + _decimal(lo).zfill(k)


def _format_terms(terms, var: str) -> str:
    """The (exponent, numerator, denominator) triples of nonzero coefficients
    in lowest terms, denominator > 0, by increasing exponent, as an
    expression: the one formatter of every expression in a report."""
    if not terms:
        return "0"
    parts = []
    for i, num, den in terms:
        body = _rational(abs(num), den)
        if i:
            head = "" if body == "1" else f"{body} "
            body = f"{head}{var}" if i == 1 else f"{head}{var}^{i}"
        if parts:
            parts.append(("- " if num < 0 else "+ ") + body)
        else:
            parts.append(("-" if num < 0 else "") + body)
    return " ".join(parts)


def _triples(coeffs) -> list:
    """The (exponent, numerator, denominator) triples of the nonzero rationals ``coeffs``."""
    return [(i, c.numerator, c.denominator) for i, c in enumerate(coeffs) if c]


def format_series(f: Series) -> str:
    return _format_terms(_triples(f.coeffs), "t")


def format_diffop(g: DiffOp) -> str:
    return _format_terms(_triples(g.coeffs), "u")


def _format_row(row, o: int) -> str:
    """The series of the int row divided by its positive entry at column o,
    formatted as ``format_series`` formats it, with no ``Series`` built."""
    p = row[o]
    return _format_terms([(i, x // (g := math.gcd(x, p)), p // g) for i, x in enumerate(row) if x], "t")


def format_rational(x) -> str:
    """Exact decimal-free rendering: "p" or "p/q"."""
    x = Fraction(x)
    return _rational(x.numerator, x.denominator)
