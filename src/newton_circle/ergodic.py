"""Polynomial averages on the integer shift system and their probes.

Regions are exact: scales and the lacunarity factor are rationals, so floor
arithmetic pins every region cardinality.  The averages act on finitely
supported functions f: Z -> C; averaging f along -P visits finitely many
points, and all operators here are pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .arith import RealLike, as_fraction, is_exact
from .expsum import double_sum
from .newton import NewtonDiagram, _check_j, sector_arrays
from .poly import Poly2, UniPoly, evaluate, scale, separable


class EmptyRegionError(ValueError):
    """The averaging region contains no lattice points."""


@dataclass(frozen=True)
class FiniteFunction:
    """Finitely supported complex function on the integers."""

    values: Dict[int, complex]

    @classmethod
    def of(cls, mapping) -> "FiniteFunction":
        return cls({int(k): complex(v) for k, v in mapping.items() if complex(v) != 0})

    @classmethod
    def delta(cls, at: int = 0) -> "FiniteFunction":
        return cls({at: 1.0 + 0j})

    def __call__(self, x: int) -> complex:
        return self.values.get(x, 0j)

    def to_json(self) -> str:
        payload = {str(k): [v.real, v.imag] for k, v in sorted(self.values.items())}
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FiniteFunction":
        """The inverse of to_json; JSON of any other shape than {point: [re,
        im]} with real numbers re and im raises ValueError.  Python's json
        reads NaN and Infinity, which are not real numbers."""
        raw = json.loads(text)
        if not isinstance(raw, dict) or not all(
                isinstance(v, list) and len(v) == 2
                and all(isinstance(t, (int, float)) and -math.inf < t < math.inf for t in v)
                for v in raw.values()):
            raise ValueError("a finite function must be a JSON object {point: [re, im]}")
        return cls({int(k): complex(re, im) for k, (re, im) in raw.items()})


@dataclass(frozen=True)
class AverageSpec:
    """Averaging recipe: polynomial, scales, and full or truncated region.

    Truncated regions drop the initial tau^-1 portion of each axis; tau must
    be rational so the region cardinalities stay exact.
    """

    P: Poly2
    M1: RealLike
    M2: RealLike
    region: str = "full"          # "full" or "truncated"
    tau: Optional[Fraction] = None

    def __post_init__(self):
        if self.region not in ("full", "truncated"):
            raise ValueError("region must be 'full' or 'truncated'")
        if self.region == "truncated":
            if self.tau is None or not is_exact(self.tau):
                raise ValueError("truncated regions need a rational tau > 1")
            if as_fraction(self.tau) <= 1:
                raise ValueError("tau must exceed 1")
        for M in (self.M1, self.M2):
            if not is_exact(M):
                raise ValueError("scales must be rational for exact region counts")
            if as_fraction(M) < 1:
                raise ValueError("scales must be >= 1")

    def axis_bounds(self) -> Tuple[int, int, int, int]:
        """Lattice bounds (K1, M1f, K2, M2f) with the region (K1, M1f] x (K2, M2f]."""
        m1f = math.floor(as_fraction(self.M1))
        m2f = math.floor(as_fraction(self.M2))
        if self.region == "full":
            return 0, m1f, 0, m2f
        t = as_fraction(self.tau)
        k1 = math.floor(as_fraction(self.M1) / t)
        k2 = math.floor(as_fraction(self.M2) / t)
        return k1, m1f, k2, m2f

    def cardinality(self) -> int:
        k1, m1, k2, m2 = self.axis_bounds()
        return (m1 - k1) * (m2 - k2)


def region_points(spec: AverageSpec) -> Iterator[Tuple[int, int]]:
    k1, m1, k2, m2 = spec.axis_bounds()
    for a in range(k1 + 1, m1 + 1):
        for b in range(k2 + 1, m2 + 1):
            yield a, b


def shift_average(spec: AverageSpec, f: FiniteFunction, x: int) -> complex:
    """Average of f(x - P(m)) over the region."""
    card = spec.cardinality()
    if card == 0:
        raise EmptyRegionError(f"region of {spec.region} average at ({spec.M1}, {spec.M2}) is empty")
    total = 0j
    for m in region_points(spec):
        total += f(x - evaluate(spec.P, m))
    return total / card


def shift_average_1d(p: UniPoly, M: RealLike, f: FiniteFunction, x: int) -> complex:
    """One-parameter average of f(x - p(m)) over m in [1, floor(M)]."""
    mf = math.floor(as_fraction(M))
    if mf < 1:
        raise EmptyRegionError("one-parameter averaging range is empty")
    total = 0j
    for m in range(1, mf + 1):
        total += f(x - int(p(m)))
    return total / mf


def character_average(P: Poly2, theta: RealLike, M1: RealLike, M2: RealLike,
                      region: str = "full", tau: Optional[Fraction] = None) -> complex:
    """Average of e(theta * P(m)) over the region; the shift average of the
    character x -> e(theta x) factors through this value."""
    spec = AverageSpec(P=P, M1=M1, M2=M2, region=region, tau=tau)
    card = spec.cardinality()
    if card == 0:
        raise EmptyRegionError("character averaging region is empty")
    k1, m1, k2, m2 = spec.axis_bounds()
    return double_sum(scale(P, theta), k1, m1, k2, m2).value / card


def sector_grid(diagram: NewtonDiagram, j: int, tau: Fraction,
                bound: RealLike) -> List[Tuple[Fraction, Fraction]]:
    """Lacunary scale pairs (tau^n1, tau^n2) over sector j with both <= bound.

    Exponent membership comes from `sector_arrays`, one call per row of the
    exponent grid; powers are exact rationals.
    """
    t = as_fraction(tau)
    if t <= 1:
        raise ValueError("tau must exceed 1")
    _check_j(diagram, j)
    b = as_fraction(bound)
    powers = []
    p = Fraction(1)
    while p <= b:
        powers.append(p)
        p *= t
    # one kernel call per row keeps the arrays to O(len(powers)) beside the output
    out = []
    row = np.column_stack((np.zeros(len(powers), dtype=np.int64), np.arange(len(powers))))
    for n1, p1 in enumerate(powers):
        row[:, 0] = n1
        member = sector_arrays(diagram, row).member[:, j - 1]
        out.extend((p1, powers[n2]) for n2 in np.flatnonzero(member).tolist())
    return out


def degenerate_factorization_gap(p1: UniPoly, p2: UniPoly, f: FiniteFunction,
                                 M1: RealLike, M2: RealLike, x: int) -> float:
    """|two-parameter average of p1(m1)+p2(m2)  -  nested one-parameter averages|.

    The two paths are algebraically identical for separable polynomials, so
    the gap is zero up to float rounding.
    """
    if p1(0) != 0 or p2(0) != 0:
        raise ValueError("separable parts must vanish at 0")
    spec = AverageSpec(P=separable(p1, p2), M1=M1, M2=M2, region="full")
    direct = shift_average(spec, f, x)

    mf = math.floor(as_fraction(M1))
    if mf < 1:
        raise EmptyRegionError("outer averaging range is empty")
    # nested path: average in m2 first, then in m1
    total = 0j
    for m in range(1, mf + 1):
        total += shift_average_1d(p2, M2, f, x - int(p1(m)))
    nested = total / mf
    return abs(direct - nested)
