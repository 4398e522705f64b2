"""Expression parsing and printing."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import format_rational_naive, format_terms_naive, random_branch

from branchdual import cli
from branchdual.errors import ExpressionError
from branchdual.expressions import (
    MAX_COEFF_DIGITS,
    MAX_LIST_COEFFS,
    _format_row,
    _format_terms,
    MAX_EXPONENT,
    format_diffop,
    format_rational,
    format_series,
    parse_diffop,
    parse_expression,
    parse_generators,
    parse_operators,
    parse_series,
)
from branchdual.inverse_system import inverse_system, rosenlicht, transport_dual
from branchdual.linalg import _rational_row
from branchdual.series import DiffOp, Series
from branchdual.subalgebra import AlgebraInput, closure

F = Fraction


def test_parse_series_basic():
    f = parse_expression("t^3 + t^4")
    assert isinstance(f, Series) and f.exact
    assert f.coeffs == (F(0), F(0), F(0), F(1), F(1))


def test_parse_diffop_with_fraction():
    g = parse_expression("u^3 - 1/4 u^4")
    assert isinstance(g, DiffOp)
    assert g.coeffs == (F(0), F(0), F(0), F(1), F(-1, 4))


def test_parse_whitespace_and_star():
    assert parse_expression("2*t^2").coeffs == parse_expression("  2 t ^ 2 ").coeffs


def test_parse_bare_variable_and_constant():
    assert parse_expression("t").coeffs == (F(0), F(1))
    assert parse_expression("7").coeffs == (F(7),)
    assert parse_expression("3/2").coeffs == (F(3, 2),)


def test_parse_leading_sign_and_merging():
    f = parse_expression("-t + 2 t + t^2 - t^2")
    assert f.coeffs == (F(0), F(1))


def test_parse_zero_denominator_position():
    with pytest.raises(ExpressionError) as ex:
        parse_expression("t^2 + 3/0 t^3")
    assert ex.value.position == 8


def test_parse_mixed_variables():
    with pytest.raises(ExpressionError):
        parse_expression("t + u")


@pytest.mark.parametrize(
    "parse, text, reason, position",
    [
        (parse_expression, "", "empty expression", 0),
        (parse_expression, " \t", "empty expression", 0),
        (parse_expression, "2 +", "dangling sign", 3),
        (parse_expression, "t^", "expected exponent after '^'", 2),
        (parse_expression, "3/", "expected denominator after '/'", 2),
        (parse_expression, "x", "expected a term", 0),
        (parse_expression, "*t", "expected a term", 0),
        (parse_expression, "^3", "expected a term", 0),
        (parse_expression, "t + -t", "expected a term", 4),
        (parse_expression, "t^2 t^3", "expected '+' or '-' between terms", 4),
        (parse_expression, "2 t3", "expected '+' or '-' between terms", 3),
        (parse_expression, "3 / 0", "zero denominator", 3),
        (parse_expression, "t^2 + 3/ t", "expected denominator after '/'", 9),
        (parse_expression, "t^2 + ٤", "expected a term", 6),
        (parse_expression, "t^²", "expected exponent after '^'", 2),
        # a mixed variable is reported at its letter
        (parse_expression, "t + u ", "mixed variables in one expression", 4),
        (parse_expression, "t+u^2", "mixed variables in one expression", 2),
        (parse_generators, "t^2, u - t", "mixed variables in one expression", 9),
        (parse_generators, ["t", "u+t^2"], "mixed variables in one expression", 4),
        (parse_generators, "t^2,,t", "empty expression", 4),
        (parse_generators, "t, t +", "dangling sign", 6),
        (parse_generators, "t, t^10001", f"exponent above the limit {MAX_EXPONENT}", 5),
        (parse_generators, ["t^2", "t^3,t"], "expected '+' or '-' between terms", 7),
        (parse_generators, ["t", ""], "empty expression", 2),
        (parse_generators, "t, u^2", "expected a series in t, got an operator in u", None),
        (parse_series, "u^2", "expected a series in t, got an operator in u", None),
        (parse_diffop, "1 + t^2", "expected an operator in u, got a series in t", None),
    ],
)
def test_parse_error_messages_and_positions(parse, text, reason, position):
    with pytest.raises(ExpressionError) as ex:
        parse(text)
    assert (ex.value.reason, ex.value.position) == (reason, position)


def test_constants_and_cancelled_variables_parse_as_operators():
    assert parse_diffop("3").coeffs == (F(3),)
    assert parse_diffop("2 + t - t").coeffs == (F(2),)
    assert parse_diffop("u - u").is_zero()
    assert parse_diffop("3 * + u").coeffs == (F(3), F(1))


def test_long_whitespace_run_parses():
    assert parse_series(" " * 100_000 + "t").coeffs == (F(0), F(1))
    assert parse_generators(["t^2", "\t" * 100_000 + "t^3"])[1].coeffs[-1] == 1


SPACE = st.sampled_from(["", "", " ", "\t", "\u2003", "  \n"])


@st.composite
def rendered_sums(draw, var):
    """(text, its coefficient sum by exponent) with random whitespace, zero
    padding, optional '*', unreduced fractions and repeated exponents."""
    ws = lambda: draw(SPACE)  # noqa: E731
    terms = draw(st.lists(
        st.tuples(st.integers(0, 9), st.booleans(), st.integers(0, 40), st.integers(1, 12)),
        min_size=1, max_size=8,
    ))
    text, want = ws(), {}
    for k, (exp, neg, p, q) in enumerate(terms):
        text += ("-" if neg else "+" if k or draw(st.booleans()) else "") + ws()
        if exp and draw(st.booleans()):
            p = q = 1  # a bare variable
        else:
            text += "0" * draw(st.integers(0, 2)) + str(p) + ws()
            if q > 1 or draw(st.booleans()):
                text += "/" + ws() + str(q) + ws()
            if draw(st.booleans()):
                text += "*" + ws()
        if exp or draw(st.booleans()):
            text += var + ws()
            if exp != 1 or draw(st.booleans()):
                text += "^" + ws() + "0" * draw(st.integers(0, 3)) + str(exp)
        text += ws()
        want[exp] = want.get(exp, 0) + F(-p if neg else p, q)
    return text, [want.get(i, 0) for i in range(10)]


def well_formed(f) -> bool:
    """Only ``Fraction`` coefficients and, for an exact series or an operator,
    no trailing zero: what ``Series.make`` and ``DiffOp.make`` would give."""
    exact = not isinstance(f, Series) or f.exact
    return all(type(c) is F for c in f.coeffs) and not (exact and f.coeffs and f.coeffs[-1] == 0)


@given(rendered_sums("t"), rendered_sums("u"))
@settings(max_examples=200, deadline=None)
def test_rendered_sums_parse_to_their_coefficients(series_case, op_case):
    # the parser builds its Series and DiffOps without ``make``, as ``make`` would
    text, want = series_case
    for f in [parse_series(text), parse_expression(text)] + parse_generators([text, text]):
        assert well_formed(f) and f == Series.make(want)
    text, want = op_case
    for g in [parse_diffop(text)] + parse_operators(f"{text};{text}"):
        assert well_formed(g) and g == DiffOp.make(want)


def test_parse_errors():
    for bad in ["", "2 +", "t^", "3/", "x", "t^2 t^3", "^3"]:
        with pytest.raises(ExpressionError):
            parse_expression(bad)


def test_exponent_limit():
    assert parse_expression(f"t^{MAX_EXPONENT}").coeffs[-1] == 1
    assert parse_expression("t^0003").coeffs == parse_expression("t^3").coeffs
    for text, position in [(f"t^{MAX_EXPONENT + 1}", 2), (f"1 - 2 u^{10 * MAX_EXPONENT}", 8)]:
        with pytest.raises(ExpressionError) as ex:
            parse_expression(text)
        assert ex.value.position == position


def test_coefficient_digit_limit():
    big = "9" * MAX_COEFF_DIGITS
    assert parse_expression(f"{big}/{big} t").coeffs[-1] == 1
    for text, position in [(f"1{big} t", 0), (f"t + 1/1{big}", 6)]:
        with pytest.raises(ExpressionError) as ex:
            parse_expression(text)
        assert ex.value.position == position


def test_parse_series_rejects_operator():
    with pytest.raises(ExpressionError):
        parse_series("u^2")


def test_parse_diffop_rejects_series():
    with pytest.raises(ExpressionError):
        parse_diffop("t^2")


def test_parse_generator_and_operator_lists():
    gens = parse_generators("t^3+t^4, t^5")
    assert [g.coeffs for g in gens] == [
        (F(0), F(0), F(0), F(1), F(1)),
        (F(0), F(0), F(0), F(0), F(0), F(1)),
    ]
    ops = parse_operators("u; u^2 - u^3")
    assert [g.coeffs for g in ops] == [
        (F(0), F(1)),
        (F(0), F(0), F(1), F(-1)),
    ]


def test_format_examples():
    assert format_series(parse_expression("t^3+t^4")) == "t^3 + t^4"
    assert format_diffop(parse_expression("u^3-1/4u^4")) == "u^3 - 1/4 u^4"
    assert format_series(Series.make([])) == "0"
    assert format_series(parse_expression("-t")) == "-t"
    assert format_series(parse_expression("2 - 3 t")) == "2 - 3 t"


def test_format_rational():
    assert format_rational(F(3)) == "3"
    assert format_rational(F(-1, 4)) == "-1/4"
    assert format_rational(2) == "2"


coeff = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@given(st.lists(coeff, min_size=0, max_size=8))
@settings(max_examples=100, deadline=None)
def test_series_round_trip(coeffs):
    f = Series.make(coeffs)
    assert parse_series(format_series(f)).coeffs == f.coeffs


@given(st.lists(coeff, min_size=0, max_size=8))
@settings(max_examples=100, deadline=None)
def test_diffop_round_trip(coeffs):
    g = DiffOp.make(coeffs)
    if g.is_zero():
        # "0" parses as a constant series; operators print the same token
        assert format_diffop(g) == "0"
    else:
        assert parse_diffop(format_diffop(g)).coeffs == g.coeffs


@st.composite
def primitive_rows(draw):
    """(row, o): a primitive int row, zero before o and positive at o, whose
    entries after o may be negative or equal to +-row[o]."""
    o = draw(st.integers(0, 3))
    p = draw(st.integers(1, 12))
    tail = draw(st.lists(st.one_of(st.integers(-30, 30), st.sampled_from([p, -p])), max_size=7))
    row = [0] * o + [p] + tail
    g = math.gcd(*row)
    return [x // g for x in row], o


@given(primitive_rows())
@example(([3, 1, -3, 0, 6], 0))  # a constant term, t, an entry equal to -pivot
@example(([0, 2, -2, 3, 0, -4], 1))  # exponent 1 at the pivot
@example(([0, 0, 1, -1, 0, 7], 2))
@settings(max_examples=200, deadline=None)
def test_int_row_formatting_matches_format_series(case):
    row, o = case
    assert _format_row(row, o) == format_series(Series.make(_rational_row(row, o)))


@pytest.mark.parametrize(
    "text, sums",
    [
        ("t - t", []),
        ("1/2 t + 1/2 t", [0, F(1)]),
        ("t^3 + t - t^3", [0, F(1)]),
        ("-0 t^2 + t", [0, F(1)]),
        ("2 t^2 + 1/2 t^2 - 3/4 t^2 + t^2", [0, 0, F(11, 4)]),  # ints and fractions at one exponent
        ("1/3 - 1 + 2/3 + t", [0, F(1)]),
        ("-1/2 t^4 + 3 t^4 - 5/2 t^4 + t", [0, F(1)]),  # a cancelled top term
    ],
)
def test_repeated_exponents_parse_to_make_of_their_sums(text, sums):
    got = parse_series(text)
    assert well_formed(got) and got == Series.make(sums)
    assert parse_diffop(text.replace("t", "u")) == DiffOp.make(sums)


NONZERO = st.one_of(
    st.sampled_from([F(1), F(-1)]),
    st.integers(-40, 40).filter(bool).map(F),
    st.fractions(min_value=-20, max_value=20, max_denominator=15).filter(bool),
)


@st.composite
def term_lists(draw):
    """(exponent, nonzero Fraction) pairs by increasing exponent: signs, +-1,
    ints and p/q, a constant term sometimes, the empty list too."""
    return [(i, draw(NONZERO)) for i in sorted(draw(st.sets(st.integers(0, 12), max_size=7)))]


@given(term_lists())
@example([])
@example([(0, F(-1)), (1, F(1)), (2, F(-1, 2)), (3, F(7)), (4, F(-1))])
@example([(0, F(3, 2)), (1, F(-1)), (5, F(1, 9))])
@settings(max_examples=300, deadline=None)
def test_one_formatter_gives_the_bytes_of_the_fraction_formatter(terms):
    # triples through ``_format_terms`` and ``_rational``: the same strings as
    # the Fraction formatter, for expressions and an operator's coefficient map
    dense = [F(0)] * (terms[-1][0] + 1 if terms else 0)
    for i, c in terms:
        dense[i] = c
    for var in "tu":
        want = format_terms_naive(terms, var)
        assert _format_terms([(i, c.numerator, c.denominator) for i, c in terms], var) == want
    assert format_series(Series.make(dense)) == format_terms_naive(terms, "t")
    g = DiffOp.make(dense)
    assert format_diffop(g) == format_terms_naive(terms, "u")
    assert cli._op_entry(g) == {
        "expr": format_terms_naive(terms, "u"),
        "coefficients": {str(i): format_rational_naive(c) for i, c in terms},
    }
    assert [format_rational(c) for _, c in terms] == [format_rational_naive(c) for _, c in terms]


def naive_op_entry(g):
    terms = [(i, c) for i, c in enumerate(g.coeffs) if c]
    return {"expr": format_terms_naive(terms, "u"),
            "coefficients": {str(i): format_rational_naive(c) for i, c in terms}}


@given(NONZERO, st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6), max_size=4))
@settings(max_examples=40, deadline=None)
def test_transport_matrix_cells_match_the_fraction_formatter(h1, tail):
    h = Series.make([0, h1] + tail)
    gens = ["t^3 + 1/2 t^4", "t^5"]
    report, code = cli.run(cli.JobSpec("transport", gens, {"h": format_series(h)}))
    assert code == 0
    S = closure(AlgebraInput.make(parse_generators(gens)))
    M, V1 = transport_dual(h, S.conductor, inverse_system(S))
    assert report["result"]["matrix"] == [
        [format_rational_naive(x) if x else "0" for x in M.row(i)] for i in range(M.rows)]
    assert report["result"]["basis"] == [naive_op_entry(g) for g in V1.basis]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_laurent_maps_match_the_fraction_formatter(seed):
    gens = [format_series(Series.make([d.get(i, 0) for i in range(max(d) + 1)]))
            for d in random_branch(random.Random(seed), max_delta=6)]
    report, code = cli.run(cli.JobSpec("canonical", gens))
    assert code == 0
    S = closure(AlgebraInput.make(parse_generators(gens)))
    assert report["result"]["basis"] == [
        {"operator": naive_op_entry(g)["expr"],
         "laurent": {str(e): format_rational_naive(c) for e, c in sorted(rosenlicht(g, S.conductor).items())}}
        for g in inverse_system(S).basis
    ]
    report, code = cli.run(cli.JobSpec("inverse-system", gens))
    assert report["result"]["basis"] == [naive_op_entry(g) for g in inverse_system(S).basis]


def test_list_size_is_bounded_before_allocation():
    # sum of (degree + 1) over a list: exactly the limit parses, one more
    # coefficient does not, and a cancelled term counts no degree.  The limit
    # is the README's; this test allocates that many coefficients
    assert MAX_LIST_COEFFS == 100_000
    k = MAX_LIST_COEFFS // 10_000
    at_limit = [f"t^{9_999}"] * k
    assert len(parse_generators(at_limit)) == k
    assert len(parse_operators(";".join([f"u^{9_999}"] * k))) == k
    assert parse_generators(at_limit + ["t^5 - t^5"])[-1].coeffs == ()
    reason = f"{MAX_LIST_COEFFS + 2} coefficients in the list, above the limit {MAX_LIST_COEFFS}"
    for parse, text in [(parse_generators, at_limit + ["t"]), (parse_operators, ";".join([f"u^{9_999}"] * k + ["u"]))]:
        with pytest.raises(ExpressionError) as ex:
            parse(text)
        assert ex.value.reason == reason
