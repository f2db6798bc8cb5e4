"""Sparse polynomials: parsing, arithmetic, Frobenius powers, term orders.

Random round trips and order comparisons run against the literal
re-implementations in oracles.py.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charplab import (
    GREVLEX, LEX, Field, IdealHandle, InputError, Limits, Monomial,
    ParseError, PerturbationPlan, Polynomial, QuotientPresentation, Ring,
    block_order, convergence_diagnostic, eliminate, hk_series,
    order_from_string, parameter_check, parse_poly, stability_threshold,
    subalgebra_presentation,
)
from charplab.groebner import Staircase
from oracles import block_greater, grevlex_greater, lex_greater


def ring(p, m, *names):
    return Ring(Field(p, m), names)


def random_poly(rng, R, max_terms=6, max_exp=4):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exps = tuple(rng.randrange(max_exp + 1) for _ in range(R.n))
        terms[exps] = rng.randrange(R.field.q)
    return Polynomial(R, terms)


# -- parsing -------------------------------------------------------------------

def test_parse_negative_constant_reduces():
    R = ring(5, 1, "x", "y")
    f = parse_poly("x^2*y - 3", R)
    assert f.terms == {(2, 1): 1, (0, 0): 2}


def test_parse_two_terms():
    R = ring(3, 1, "x", "y", "t")
    f = parse_poly("x*y + t^3", R)
    assert len(f) == 2
    assert f.terms == {(1, 1, 0): 1, (0, 0, 3): 1}


def test_parse_extension_generator_coefficients():
    F = Field(2, 2)
    R = Ring(F, ("z",))
    f = parse_poly("g^2*z + g", R)
    gp1 = F.add(F.generator.code, 1)
    assert f.terms == {(1,): gp1, (0,): F.generator.code}


def test_parse_repeated_variable_accumulates_exponent():
    R = ring(5, 1, "x", "y")
    assert parse_poly("x*x*y", R) == parse_poly("x^2*y", R)


def test_parse_cancellation_to_zero():
    R = ring(7, 1, "x")
    assert parse_poly("x - x", R).is_zero()


# text -> (message, 1-based position) over GF(5)[x, y], then GF(4)[x, y]
PRIME_FIELD_ERRORS = {
    "": ("expected an atom", 1),
    "  ": ("expected an atom", 3),
    "x +": ("expected an atom", 4),
    "x - ": ("expected an atom", 5),
    "x*": ("expected an atom", 3),
    "x ^": ("expected integer exponent after 'x'", 4),
    "x^": ("expected integer exponent after 'x'", 3),
    "x^y": ("expected integer exponent after 'x'", 3),
    "x^-1": ("expected integer exponent after 'x'", 3),
    "^2": ("expected an atom, got '^'", 1),
    "-x": ("expected an atom, got '-'", 1),
    "x * * y": ("expected an atom, got '*'", 5),
    "x + (y)": ("unexpected character '('", 5),
    "x @ y": ("unexpected character '@'", 3),
    "x ++ @": ("unexpected character '@'", 6),
    "w + x": ("unknown identifier 'w'", 1),
    "3x": ("expected '+' or '-', got 'x'", 2),
    "x y": ("expected '+' or '-', got 'y'", 3),
    "2^3": ("expected '+' or '-', got '^'", 2),
    "x^2^3": ("expected '+' or '-', got '^'", 4),
    "g": ("'g' denotes the extension generator but the field is prime", 1),
}
EXTENSION_FIELD_ERRORS = {
    "g^": ("expected integer exponent after 'g'", 3),
    "g^y": ("expected integer exponent after 'g'", 3),
    "g x": ("expected '+' or '-', got 'x'", 3),
    "g*x^2 + g^3 +": ("expected an atom", 14),
    "h": ("unknown identifier 'h'", 1),
}


def test_parse_errors_carry_positions():
    for R, table in ((ring(5, 1, "x", "y"), PRIME_FIELD_ERRORS),
                     (ring(2, 2, "x", "y"), EXTENSION_FIELD_ERRORS)):
        for text, (message, position) in table.items():
            with pytest.raises(ParseError) as err:
                parse_poly(text, R)
            assert (str(err.value), err.value.position) == \
                (f"{message} (at position {position})", position), text


def test_non_ascii_text_and_overlong_integers_are_parse_errors():
    R = ring(5, 1, "x", "y")
    digits = "9" * 5000
    cases = {
        "x^\u00b2": ("unexpected character '\u00b2'", 3),
        "\u00e9 + x": ("unexpected character '\u00e9'", 1),
        "x + \u0663": ("unexpected character '\u0663'", 5),
        "x\u0663": ("unexpected character '\u0663'", 2),
        "x + " + digits: ("integer of 5000 digits is too long", 5),
        "x^" + digits: ("integer of 5000 digits is too long", 3),
    }
    for text, (message, position) in cases.items():
        with pytest.raises(ParseError) as err:
            parse_poly(text, R)
        assert (str(err.value), err.value.position) == \
            (f"{message} (at position {position})", position), text
    # whitespace stays insignificant, the no-break space included
    assert parse_poly("x\u00a0+\ty", R) == parse_poly("x + y", R)


# the grammar's characters, characters outside ASCII, and digit runs past
# the interpreter's integer-string limit
FUZZ_PIECES = (list("xyg0123456789+-*^ _") + ["x1", "^2", "\u00b2", "\u0663",
               "\u00e9", "\u00a0", "9" * 5000, "1" + "0" * 4999])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([(5, 1), (2, 2)]),
       st.lists(st.sampled_from(FUZZ_PIECES), max_size=12).map("".join))
def test_any_text_parses_or_raises_a_parse_error(field, text):
    R = ring(*field, "x", "y")
    try:
        f = parse_poly(text, R)
    except ParseError as err:
        assert 1 <= err.position <= len(text) + 1
    else:
        assert parse_poly(f.text(), R) == f


def test_generator_letter_reserved_in_extension_rings():
    with pytest.raises(InputError):
        Ring(Field(2, 2), ("g", "x"))
    # fine over a prime field, where no generator letter exists
    Ring(Field(2), ("g", "x"))


def test_parse_print_round_trip_random():
    rng = random.Random(7)
    rings = [ring(2, 1, "x", "y"), ring(5, 1, "x", "y", "t"),
             ring(2, 2, "z", "w"), ring(3, 2, "x",)]
    for R in rings:
        for _ in range(60):
            f = random_poly(rng, R)
            for order in (GREVLEX, LEX):
                assert parse_poly(f.text(order), R) == f


# -- arithmetic ----------------------------------------------------------------

def test_product_difference_of_squares():
    R = ring(5, 1, "x", "y")
    x, y = R.gens()
    assert (x + y) * (x - y) == parse_poly("x^2 + 4*y^2", R)


def test_cube_in_characteristic_three():
    R = ring(3, 1, "x", "y")
    x, y = R.gens()
    assert (x + y) ** 3 == x**3 + y**3


def test_multiplication_by_zero():
    R = ring(5, 1, "x", "y")
    f = parse_poly("x^2 + 2*y", R)
    assert (f * R.zero).is_zero()


def test_field_element_scalars_work_on_either_side():
    # a FieldElement on the left declines a Polynomial, so Python reaches
    # Polynomial's reflected methods
    rng = random.Random(14)
    for p, m in ((5, 1), (2, 2)):
        R = ring(p, m, "x", "y")
        for c in R.field.elements():
            for _ in range(5):
                f = random_poly(rng, R)
                assert c * f == f * c == R.constant(c) * f
                assert c + f == f + c
                assert c - f == -(f - c)
        with pytest.raises(TypeError):
            R.field.one * 1.5


def test_ring_distributivity_random():
    rng = random.Random(11)
    R = ring(3, 1, "x", "y")
    for _ in range(40):
        f, g, h = (random_poly(rng, R) for _ in range(3))
        assert f * (g + h) == f * g + f * h
        assert (f + g) - g == f


@st.composite
def field_polys(draw):
    """A field among GF(2), GF(3), GF(4), GF(9), a ring in 1-2 variables,
    two polynomials whose drawn codes may be 0, and a scalar code."""
    p, m = draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]))
    R = ring(p, m, *("x", "y")[:draw(st.integers(1, 2))])
    term = st.tuples(st.tuples(*[st.integers(0, 3)] * R.n),
                     st.integers(0, R.field.q - 1))
    f, g = (Polynomial(R, dict(draw(st.lists(term, max_size=6))))
            for _ in range(2))
    return R, f, g, draw(st.integers(0, R.field.q - 1))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(field_polys())
def test_no_zero_codes_and_arithmetic_matches_evaluation(case):
    R, f, g, c = case
    F = R.field
    scalar = F.from_code(c)
    exps = next(iter(f.terms), (1,) * R.n)
    cancelled = parse_poly(f.text() + " + " + (-f).text(), R)
    results = [f + g, f - g, f * g, f * scalar, c * f, f * 0, 0 * f,
               R.constant(scalar), R.monomial(exps, scalar), cancelled]
    results += [f.partial(i) for i in range(R.n)]
    for h in results:
        assert all(v for v in h.terms.values()), h.terms
    assert cancelled.is_zero()
    for pt in itertools.product(range(F.q), repeat=R.n):
        a, b = f.evaluate(pt), g.evaluate(pt)
        assert (f + g).evaluate(pt) == F.add(a, b)
        assert (f - g).evaluate(pt) == F.sub(a, b)
        assert (f * g).evaluate(pt) == F.mul(a, b)


def test_evaluate_agrees_with_substitution():
    R = ring(7, 1, "x", "y")
    f = parse_poly("x^2*y + 3*x + 5", R)
    F = R.field
    for a in range(7):
        for b in range(7):
            want = F.add(F.add(F.mul(F.mul(a, a), b), F.mul(3, a)), 5)
            assert f.evaluate((a, b)) == want


# -- Frobenius powers ------------------------------------------------------------

def test_frobenius_pow_fixed_values():
    R = ring(3, 1, "x", "y")
    x, y = R.gens()
    assert (x + y).frobenius_pow(1) == x**3 + y**3

    F4 = Field(2, 2)
    S = Ring(F4, ("z",))
    f = parse_poly("g*z", S)
    assert f.frobenius_pow(1) == parse_poly("g^2*z^2", S)

    f = parse_poly("x^2 + 2*y", R)
    assert f.frobenius_pow(0) == f


def test_frobenius_pow_equals_plain_power_random():
    rng = random.Random(13)
    for R in (ring(2, 1, "x", "y"), ring(3, 1, "x", "y"), ring(2, 2, "z",)):
        p = R.field.p
        for _ in range(25):
            f = random_poly(rng, R, max_terms=4, max_exp=3)
            for e in (1, 2):
                assert f.frobenius_pow(e) == f ** (p ** e)


# -- leading terms and orders ----------------------------------------------------

def test_leading_term_grevlex_tie():
    R = ring(3, 1, "x", "y", "t")
    f = parse_poly("x*y + t^2", R)
    mono, coeff = f.leading_term(GREVLEX)
    assert mono.exponents == (1, 1, 0)
    assert coeff.code == 1


def test_leading_term_lex():
    R = ring(5, 1, "x", "y")
    f = parse_poly("x + y^2", R)
    mono, _ = f.leading_term(LEX)
    assert mono.exponents == (1, 0)


def test_leading_term_of_constant():
    R = ring(7, 1, "x")
    f = parse_poly("5", R)
    mono, coeff = f.leading_term(GREVLEX)
    assert mono.exponents == (0,)
    assert coeff.code == 5


def test_orders_match_literal_comparators():
    rng = random.Random(17)
    tuples = [tuple(rng.randrange(5) for _ in range(4)) for _ in range(40)]
    blk = block_order(2)
    for a in tuples:
        for b in tuples:
            assert GREVLEX.greater(a, b) == grevlex_greater(a, b)
            assert LEX.greater(a, b) == lex_greater(a, b)
            assert blk.greater(a, b) == block_greater(a, b, 2)


def test_orders_total_and_multiplicative():
    rng = random.Random(19)
    tuples = [tuple(rng.randrange(4) for _ in range(3)) for _ in range(30)]
    for order in (GREVLEX, LEX, block_order(1)):
        for a in tuples:
            for b in tuples:
                if a == b:
                    assert not order.greater(a, b)
                else:
                    assert order.greater(a, b) != order.greater(b, a)
                for c in tuples[:8]:
                    ac = tuple(i + j for i, j in zip(a, c))
                    bc = tuple(i + j for i, j in zip(b, c))
                    assert order.greater(a, b) == order.greater(ac, bc)


def test_order_from_string_spellings():
    assert order_from_string("grevlex") == GREVLEX
    assert order_from_string("lex") == LEX
    assert order_from_string("block:2") == block_order(2)
    with pytest.raises(InputError):
        order_from_string("degrevlex")
    with pytest.raises(InputError):
        order_from_string("block:0")
    for text in ("block:1_0", "block:\u0663", "block:+3", "block:" + "9" * 5000):
        with pytest.raises(InputError, match="malformed block order"):
            order_from_string(text)


def test_exponents_must_be_nonnegative_integers():
    R = ring(5, 1, "x", "y")
    for exps in ((1.7, 0), (True, 0), (-1, 0), ("1", 0)):
        with pytest.raises(InputError):
            R.monomial(exps)
        with pytest.raises(InputError):
            Monomial(exps)
    assert R.monomial((1, 0)) == R.variable("x")
    assert Monomial((2, 1)).degree == 3


def test_a_string_is_not_a_list_of_variable_names():
    with pytest.raises(InputError):
        Ring(Field(3), "xy")      # not GF(3)[x, y]
    with pytest.raises(InputError):
        Ring(Field(3), ["t"]).extend_front("xy")      # not GF(3)[x, y, t]
    assert Ring(Field(3), ["x", "y"]) == ring(3, 1, "x", "y")


def test_a_variable_name_must_be_a_string():
    for names in ((1,), ("x", None), ("x", b"y")):
        with pytest.raises(InputError):
            Ring(Field(3), names)


# calls that take an integer from a caller, with a bool, a float or a
# string in its place; F = GF(3), R = F[x, y, t], x its first variable
NOT_INTEGERS = [
    ("element-bool", lambda F, R, x: F.element(True)),
    ("constant-bool", lambda F, R, x: R.constant(True)),
    ("pow-bool", lambda F, R, x: x ** True),
    ("pow-float", lambda F, R, x: x ** 2.0),
    ("frobenius-bool", lambda F, R, x: x.frobenius_pow(True)),
    ("field-pow-float", lambda F, R, x: F.one ** 1.5),
    ("code-float", lambda F, R, x: F.from_code(1.5)),
    ("code-bool", lambda F, R, x: F.from_code(True)),
    ("variable-negative", lambda F, R, x: R.variable(-1)),
    ("variable-past-end", lambda F, R, x: R.variable(3)),
    ("variable-bool", lambda F, R, x: R.variable(True)),
    ("variable-float", lambda F, R, x: R.variable(1.0)),
    ("limits-float", lambda F, R, x: Limits(max_basis=2.5)),
    ("limits-string", lambda F, R, x: Limits(max_basis="5")),
    ("limits-bool", lambda F, R, x: Limits(max_degree=True)),
    ("partial-bool", lambda F, R, x: (x * x).partial(True)),
    ("partial-negative", lambda F, R, x: (x * x).partial(-1)),
    ("partial-past-end", lambda F, R, x: (x * x).partial(3)),
    ("substitute-past-end", lambda F, R, x: x.substitute({3: x})),
    ("substitute-unknown-name", lambda F, R, x: x.substitute({"z": x})),
    ("field-frobenius-float", lambda F, R, x: F.frobenius(2, 1.5)),
    ("element-frobenius-bool", lambda F, R, x: F.one.frobenius(True)),
    ("count-degree-bool",
     lambda F, R, x: Staircase([(2, 0), (0, 2)], 2).count_degree(True)),
    ("count-degree-float",
     lambda F, R, x: Staircase([(2, 0), (0, 2)], 2).count_degree(1.5)),
    ("drop-front-float", lambda F, R, x: R.drop_front(1.5)),
    ("drop-front-bool", lambda F, R, x: R.drop_front(True)),
    ("eliminate-float", lambda F, R, x: eliminate(IdealHandle(R, [x]), 1.5)),
    ("eliminate-bool", lambda F, R, x: eliminate(IdealHandle(R, [x]), True)),
    ("diagnostic-float", lambda F, R, x: xy_diagnostic(R, x, 1.5)),
    ("diagnostic-negative", lambda F, R, x: xy_diagnostic(R, x, -1)),
    ("diagnostic-bool", lambda F, R, x: xy_diagnostic(R, x, True)),
    ("diagnostic-string", lambda F, R, x: xy_diagnostic(R, x, "1")),
]


def xy_diagnostic(R, x, d):
    """The convergence diagnostic of the hk series of (xy) to e = 3."""
    P = QuotientPresentation(R, [x * R.variable(1)])
    return convergence_diagnostic(hk_series(P, 3), d)


@pytest.mark.parametrize("call", [c for _, c in NOT_INTEGERS],
                         ids=[name for name, _ in NOT_INTEGERS])
def test_integers_from_callers_are_ints(call):
    F = Field(3)
    R = Ring(F, ("x", "y", "t"))
    with pytest.raises(InputError):
        call(F, R, R.variable(0))


def test_limits_take_seconds_as_a_finite_number():
    for seconds in (True, "5", -1, float("nan"), float("inf"), 10 ** 400):
        with pytest.raises(InputError, match="max_seconds"):
            Limits(max_seconds=seconds)
    assert [Limits(max_seconds=s).max_seconds for s in (0, 2, 0.5, None)] \
        == [0.0, 2.0, 0.5, None]


def plan_with(P, targets=None, e_range=(1, 2)):
    return PerturbationPlan(P, targets, 2, 4, 1, 0, e_range,
                            "splitting-constancy")


# calls that take a list from a caller, with 5 or a string in its place;
# F = GF(3), R = F[x, y, t], x its first variable, P = R with J = 0
NOT_LISTS = [
    ("ring", lambda F, R, P, x: Ring(F, 5)),
    ("ideal", lambda F, R, P, x: IdealHandle(R, 5)),
    ("ideal-string", lambda F, R, P, x: IdealHandle(R, "x")),
    ("presentation", lambda F, R, P, x: QuotientPresentation(R, 5)),
    ("parameter-check", lambda F, R, P, x: parameter_check(P, 5)),
    ("stability-threshold", lambda F, R, P, x: stability_threshold(P, 5, 1)),
    ("plan-targets", lambda F, R, P, x: plan_with(P, targets=5)),
    ("plan-e-range", lambda F, R, P, x: plan_with(P, (x,), e_range=5)),
    ("staircase", lambda F, R, P, x: Staircase(5, 1)),
    ("subalgebra", lambda F, R, P, x: subalgebra_presentation(5)),
    ("monomial", lambda F, R, P, x: R.monomial(5)),
    ("monomial-type", lambda F, R, P, x: Monomial(5)),
    ("coordinates", lambda F, R, P, x: F.from_coords(5)),
    ("evaluate", lambda F, R, P, x: x.evaluate(5)),
    ("substitute", lambda F, R, P, x: x.substitute(5)),
    ("parse", lambda F, R, P, x: parse_poly(5, R)),
    ("modulus", lambda F, R, P, x: Field(3, 2, modulus=5)),
    ("modulus-string", lambda F, R, P, x: Field(3, 2, modulus="112")),
]


@pytest.mark.parametrize("call", [c for _, c in NOT_LISTS],
                         ids=[name for name, _ in NOT_LISTS])
def test_lists_from_callers_are_iterables_but_not_strings(call):
    F = Field(3)
    R = Ring(F, ("x", "y", "t"))
    P = QuotientPresentation(R, [])
    with pytest.raises(InputError):
        call(F, R, P, R.variable(0))


@pytest.mark.parametrize("point", [[5, 0], [-1, 0], [1.5, 0], [True, 0]],
                         ids=["past-q", "negative", "float", "bool"])
def test_evaluate_reads_each_coordinate_as_a_field_code(point):
    R = ring(3, 1, "x", "y")
    f = parse_poly("x^2 + y", R)
    assert f.evaluate([2, 0]) == 1
    with pytest.raises(InputError, match="out of range for GF"):
        f.evaluate(point)


def test_comparison_with_a_bool_is_false_and_does_not_raise():
    F = Field(3)
    R = Ring(F, ("x", "y", "t"))
    assert (R.one == True) is False       # noqa: E712
    assert (F.one == True) is False       # noqa: E712
    assert (R.one == 1) is True and (F.one == 1) is True
    assert R.variable(2) == R.variable("t")
