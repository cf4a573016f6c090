"""Sparse bivariate integer polynomials, exact pinning, and real scaling.

A polynomial is a map from exponent pairs (g1, g2) to nonzero coefficients.
Exponents are capped at 64 per axis; coefficients are arbitrary-precision
integers, so evaluation can never overflow.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Tuple, Union

from .arith import RealLike, as_fraction, is_exact

MAX_EXPONENT = 64

ExpPair = Tuple[int, int]


class PolynomialSyntaxError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _validated_terms(terms: Mapping[ExpPair, int], allow_real: bool = False) -> Dict[ExpPair, object]:
    out = {}
    for (g1, g2), c in terms.items():
        if not (0 <= g1 <= MAX_EXPONENT and 0 <= g2 <= MAX_EXPONENT):
            raise ValueError(f"exponents must lie in [0, {MAX_EXPONENT}], got ({g1}, {g2})")
        if c == 0:
            continue
        if not allow_real and not isinstance(c, int):
            raise TypeError(f"integer coefficient required at ({g1}, {g2}), got {type(c).__name__}")
        out[(int(g1), int(g2))] = c
    return out


class Poly2:
    """Sparse bivariate polynomial with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[ExpPair, int]):
        self.terms: Dict[ExpPair, int] = _validated_terms(terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def total_degree(self) -> int:
        return max((g1 + g2 for g1, g2 in self.terms), default=0)

    @property
    def partial_degrees(self) -> ExpPair:
        d1 = max((g1 for g1, _ in self.terms), default=0)
        d2 = max((g2 for _, g2 in self.terms), default=0)
        return d1, d2

    def constant_term(self) -> int:
        return self.terms.get((0, 0), 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly2) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"Poly2({format_poly(self)!r})"


class RealPoly2:
    """Bivariate polynomial with real coefficients; exact when all are rational."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[ExpPair, Union[int, float, Fraction]]):
        clean = {}
        for key, c in _validated_terms(terms, allow_real=True).items():
            if isinstance(c, float) and not math.isfinite(c):
                raise ValueError(f"non-finite coefficient at {key}")
            clean[key] = c
        self.terms = clean

    @property
    def exact(self) -> bool:
        return all(is_exact(c) for c in self.terms.values())

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*m1^{g1}*m2^{g2}" for (g1, g2), c in sorted(self.terms.items()))
        return f"RealPoly2({body or '0'})"


@dataclass(frozen=True)
class UniPoly:
    """Univariate polynomial as a coefficient tuple (c0, c1, ...)."""

    coeffs: Tuple[RealLike, ...]

    def __post_init__(self):
        c = tuple(self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    def __call__(self, x: RealLike) -> RealLike:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def support(P: Union[Poly2, RealPoly2]) -> frozenset:
    """Exponent pairs carrying a nonzero coefficient."""
    return frozenset(P.terms)


def is_degenerate(P: Poly2) -> bool:
    """True iff P has no mixed monomial, i.e. splits as P1(m1) + P2(m2)."""
    if P.constant_term() != 0:
        raise ValueError("degeneracy test requires P(0,0) = 0")
    return all(g1 == 0 or g2 == 0 for g1, g2 in P.terms)


def evaluate(P: Poly2, m: Tuple[int, int]) -> int:
    """Value at an integer point, as an exact big integer."""
    m1, m2 = m
    total = 0
    for (g1, g2), c in P.terms.items():
        total += c * m1**g1 * m2**g2
    return total


def separable(p1: UniPoly, p2: UniPoly) -> Poly2:
    """The degenerate polynomial p1(m1) + p2(m2); both constant terms must vanish."""
    terms: Dict[ExpPair, int] = {}
    for i, c in enumerate(p1.coeffs):
        if c:
            terms[(i, 0)] = terms.get((i, 0), 0) + int(c)
    for i, c in enumerate(p2.coeffs):
        if c:
            terms[(0, i)] = terms.get((0, i), 0) + int(c)
    poly = Poly2(terms)
    if poly.constant_term() != 0:
        raise ValueError("separable composition requires p1(0) = p2(0) = 0")
    return poly


def scale(P: Poly2, xi: RealLike) -> RealPoly2:
    """The scaled polynomial xi * P; exact (rational coefficients) when xi is.

    A float xi rounds each xi*c once, to the float nearest it, while |c| <=
    2**53 is itself a float; past that float(xi) * c would round c first (and
    overflow past about 1.8e308), so xi*c stays the exact dyadic rational."""
    if is_exact(xi):
        x = xi if isinstance(xi, Fraction) else Fraction(xi)
        return RealPoly2({g: x * c for g, c in P.terms.items()})
    return RealPoly2({g: float(xi) * c if abs(c) <= 1 << 53 else as_fraction(xi) * c
                      for g, c in P.terms.items()})


def transpose(P: Union[Poly2, RealPoly2]) -> Union[Poly2, RealPoly2]:
    """P with m1 and m2 swapped, of the same class."""
    return type(P)({(g2, g1): c for (g1, g2), c in P.terms.items()})


def pin(P: Union[Poly2, RealPoly2], axis: int, value: int) -> Union[Poly2, RealPoly2]:
    """P with m_axis = value substituted exactly (a float coefficient is read as
    the dyadic rational it denotes): the same class, in the other variable only."""
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    value = operator.index(value)
    # a key reached by a non-int coefficient sums to a Fraction, any other to an int
    sums: Dict[ExpPair, Union[int, Fraction]] = {}
    for (g1, g2), c in P.terms.items():
        key, power = ((0, g2), g1) if axis == 1 else ((g1, 0), g2)
        sums[key] = sums.get(key, 0) + (c if isinstance(c, int) else Fraction(c)) * value**power
    return type(P)(sums)


# ---------------------------------------------------------------------------
# Text grammar, shared with the CLI:
#   poly  := [+|-] term ((+|-) term)*
#   term  := factor (* factor)*
#   factor:= INT | m1[^INT] | m2[^INT]
# e.g. "2*m1*m2 - m2^4".  Factors come in any order and may repeat ("2*3*m1",
# "m1*m1*m2"), and a lone INT is a constant term.  Whitespace may stand
# between tokens, not inside m1, m2 or an INT.  Like factors and like terms
# merge; each exponent is capped at 64 after its factors merge.
# ---------------------------------------------------------------------------

# One factor with the whitespace around it and the '*' after it: (INT, axis,
# exponent, star).  Where no factor stands, the first two groups are None; a
# '^' without digits leaves the exponent "".
_FACTOR = re.compile(r"\s*(?:(\d+)|m([12])(?:\s*\^\s*(\d*))?)?\s*(\*?)")


def _integer(factor: re.Match, group: int) -> int:
    try:
        return int(factor.group(group))
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise PolynomialSyntaxError(f"integer exceeds {sys.get_int_max_str_digits()} digits",
                                    factor.start(group)) from None


def parse_poly(text: str) -> Poly2:
    if not text.strip():
        raise PolynomialSyntaxError("empty polynomial", 0)
    terms: Dict[ExpPair, int] = {}
    i = len(text) - len(text.lstrip())
    while i < len(text):
        # text[i] is a sign, or else the first term's first factor
        sign = -1 if text[i] == "-" else 1
        i += text[i] in "+-"
        coeff, g, star = 1, [0, 0], "*"
        while star:
            factor = _FACTOR.match(text, i)
            digits, axis, exp, star = factor.groups()
            if exp == "":
                raise PolynomialSyntaxError("expected an integer", factor.start(3))
            if digits:
                coeff *= _integer(factor, 1)
            elif axis:
                g[int(axis) - 1] += _integer(factor, 3) if exp else 1
            else:
                raise PolynomialSyntaxError("expected a coefficient, m1 or m2", factor.start(4))
            i = factor.end()
        if max(g) > MAX_EXPONENT:
            raise PolynomialSyntaxError(f"exponent exceeds {MAX_EXPONENT}", i)
        key = tuple(g)
        terms[key] = terms.get(key, 0) + sign * coeff
        if i < len(text) and text[i] not in "+-":
            raise PolynomialSyntaxError("expected '+' or '-' between terms", i)
    return Poly2(terms)


def format_poly(P: Poly2) -> str:
    """Inverse of parse_poly up to term order and spacing."""
    if P.is_zero:
        return "0"
    pieces = []
    for (g1, g2), c in sorted(P.terms.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), kv[0])):
        factors = []
        if abs(c) != 1 or (g1 == 0 and g2 == 0):
            factors.append(str(abs(c)))
        if g1:
            factors.append("m1" if g1 == 1 else f"m1^{g1}")
        if g2:
            factors.append("m2" if g2 == 1 else f"m2^{g2}")
        body = "*".join(factors)
        pieces.append(("- " if c < 0 else "+ ") + body)
    joined = " ".join(pieces)
    return joined[2:] if joined.startswith("+ ") else "-" + joined[2:]
