from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from newton_circle.poly import (
    Poly2,
    PolynomialSyntaxError,
    RealPoly2,
    UniPoly,
    evaluate,
    format_poly,
    is_degenerate,
    parse_poly,
    pin,
    scale,
    separable,
    support,
)


def test_support_examples():
    assert support(parse_poly("m1^2*m2^3")) == {(2, 3)}
    assert support(Poly2({})) == frozenset()
    assert support(parse_poly("m1^3*m2 + m1*m2^3")) == {(3, 1), (1, 3)}


def test_degeneracy_examples():
    assert is_degenerate(parse_poly("m1^2 + m2^3"))
    assert not is_degenerate(parse_poly("m1*m2"))
    assert not is_degenerate(parse_poly("m1^2*m2^3 + m1"))
    with pytest.raises(ValueError):
        is_degenerate(parse_poly("m1*m2 + 3"))


def test_degeneracy_matches_split_witness(rng):
    # explicit separability witness: every exponent pair touches an axis
    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            g = (rng.randint(0, 4), rng.randint(0, 4))
            if g == (0, 0):
                continue
            terms[g] = rng.randint(1, 5)
        if not terms:
            continue
        P = Poly2(terms)
        witness = all(g1 == 0 or g2 == 0 for g1, g2 in terms)
        assert is_degenerate(P) == witness


def test_evaluate_examples():
    assert evaluate(parse_poly("m1^2*m2^3"), (2, 3)) == 108
    assert evaluate(parse_poly("m1^3*m2 + m1*m2^3"), (2, 1)) == 10
    assert evaluate(parse_poly("m1*m2 - m1"), (0, 0)) == 0


def test_scale_examples():
    assert scale(parse_poly("m1*m2"), 0).terms == {}
    half = scale(parse_poly("m1*m2"), Fraction(1, 2))
    assert half.terms == {(1, 1): Fraction(1, 2)} and half.exact
    quarter = scale(parse_poly("m1^2*m2^3"), 0.25)
    assert quarter.terms == {(2, 3): 0.25} and not quarter.exact
    # a float xi rounds xi*c once while |c| <= 2**53; past that, and past
    # the largest float, xi*c stays the exact dyadic rational
    wide = scale(Poly2({(1, 1): 2**60 + 1, (0, 2): 10**400, (0, 1): 3}), 0.3)
    assert wide.terms == {(1, 1): Fraction(0.3) * (2**60 + 1), (0, 2): Fraction(0.3) * 10**400,
                          (0, 1): 0.3 * 3}


@pytest.mark.parametrize("axis", [1, 2])
def test_pin_matches_evaluate_on_grid(rng, axis):
    for _ in range(30):
        P = Poly2({(rng.randint(0, 5), rng.randint(0, 5)): rng.randint(-9, 9)
                   for _ in range(rng.randint(1, 8))})
        for value in range(-3, 5):
            pinned = pin(P, axis, value)
            assert type(pinned) is Poly2
            assert all(g[axis - 1] == 0 for g in pinned.terms)
            for r in range(-4, 5):
                m = (value, r) if axis == 1 else (r, value)
                # the pinned axis has exponent 0, so its argument is ignored
                assert evaluate(pinned, (r, r)) == evaluate(P, m)


def test_pin_zero_polynomial():
    assert pin(Poly2({}), 1, 7) == Poly2({})
    assert pin(RealPoly2({}), 2, 7).terms == {}
    # cancellation leaves the zero polynomial, not a zero coefficient
    assert pin(parse_poly("m1*m2 - 2*m2"), 1, 2).is_zero


def test_pin_real_coefficients_are_exact():
    Q = RealPoly2({(2, 1): 0.1, (0, 1): 0.3, (1, 0): Fraction(1, 3)})
    pinned = pin(Q, 1, 3)
    assert type(pinned) is RealPoly2 and pinned.exact
    want = Fraction(0.1) * 9 + Fraction(0.3)
    assert pinned.terms == {(0, 1): want, (0, 0): Fraction(1)}
    assert want != Fraction(0.1 * 9 + 0.3)  # float arithmetic would round
    assert pin(Q, 2, 2).terms == {(2, 0): Fraction(0.1) * 2, (0, 0): Fraction(0.3) * 2,
                                  (1, 0): Fraction(1, 3)}


@pytest.mark.parametrize("axis", [0, 3, -1])
def test_pin_rejects_invalid_axis(axis):
    with pytest.raises(ValueError, match="axis must be 1 or 2"):
        pin(parse_poly("m1*m2"), axis, 1)


def test_parse_examples():
    assert parse_poly("m1^2*m2^3").terms == {(2, 3): 1}
    assert parse_poly("2*m1*m2 - m2^4").terms == {(1, 1): 2, (0, 4): -1}
    assert parse_poly("m1 - m1").is_zero


def test_parse_whitespace_and_signs():
    assert parse_poly("  - 3 * m1 ^ 2 + m2  ").terms == {(2, 0): -3, (0, 1): 1}
    assert parse_poly("m1^ 2").terms == {(2, 0): 1}
    # factors come in any order and may repeat; a constant is a term
    assert parse_poly("m1*m1*m2").terms == {(2, 1): 1}
    assert parse_poly("2*3*m1").terms == {(1, 0): 6}
    assert parse_poly("7").terms == {(0, 0): 7}


FACTOR = "expected a coefficient, m1 or m2"
SIGN = "expected '+' or '-' between terms"
PARSE_ERRORS = [
    ("", "empty polynomial", 0),
    ("bogus(", FACTOR, 0),
    ("m3", FACTOR, 0),
    ("m1^", "expected an integer", 3),
    ("2**m1", FACTOR, 2),
    ("m1 + ", FACTOR, 5),
    ("^2", FACTOR, 0),
    (" m 1", FACTOR, 1),
    ("m1 m2", SIGN, 3),
    ("3 4", SIGN, 2),
    ("m1^65", "exponent exceeds 64", 5),
    ("m1^64*m1", "exponent exceeds 64", 8),
    # more digits than Python's integer-string limit (4,300 by default)
    ("m1 - 3*" + "9" * 4301 + "*m2", "integer exceeds 4300 digits", 7),
]


@pytest.mark.parametrize("bad, message, position", PARSE_ERRORS,
                         ids=[bad if len(bad) < 40 else f"{bad[:9]}...({len(bad)} chars)"
                              for bad, *_ in PARSE_ERRORS])
def test_parse_errors_carry_position(bad, message, position):
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_poly(bad)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


GRAMMAR_TOKENS = ["m1", "m2", "m3", "m", "0", "7", "12", "64", "65", "^", "*", "+", "-", "x",
                  " ", "  ", "\t"]
PARSE_MESSAGES = {"empty polynomial", "expected an integer", FACTOR, SIGN, "exponent exceeds 64"}


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(GRAMMAR_TOKENS), max_size=12).map("".join))
def test_parse_accepts_or_names_the_position(text):
    try:
        P = parse_poly(text)
    except PolynomialSyntaxError as err:
        assert 0 <= err.position <= len(text)
        assert str(err) in {f"{m} (at position {err.position})" for m in PARSE_MESSAGES}
    else:
        assert parse_poly(format_poly(P)) == P


def test_format_roundtrip(rng):
    for _ in range(50):
        terms = {(rng.randint(0, 6), rng.randint(0, 6)): rng.randint(-9, 9)
                 for _ in range(rng.randint(1, 6))}
        P = Poly2({g: c for g, c in terms.items() if c})
        assert parse_poly(format_poly(P)) == P


def test_separable_composition():
    P = separable(UniPoly((0, 0, 1)), UniPoly((0, 0, 0, 1)))
    assert P == parse_poly("m1^2 + m2^3")
    with pytest.raises(ValueError):
        separable(UniPoly((1, 1)), UniPoly((0, 1)))


def test_exponent_cap():
    with pytest.raises(ValueError):
        Poly2({(65, 0): 1})
