"""Multi-parameter oscillation semi-norms and 1-D variation semi-norms.

Index sets are finite points in R^k for k in {1, 2}; scalars are accepted for
one-parameter families and normalized to 1-tuples.  Boxes attached to an
increasing sequence are half-open, and the last sequence point opens no box,
so suprema only ever range over explicitly listed indices; empty suprema
contribute zero.  The rho-variation is a dynamic programme over the last
chosen index, exact for every rho >= 1, with no cap on the number of points.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

Point = Tuple[float, ...]


def _as_point(t) -> Point:
    if isinstance(t, tuple):
        return t
    return (t,)


@dataclass(frozen=True)
class IndexedFamily:
    """Finitely many complex values indexed by points of R^k."""

    values: Dict[Point, complex]

    @classmethod
    def of(cls, mapping) -> "IndexedFamily":
        return cls({_as_point(t): complex(v) for t, v in mapping.items()})

    @property
    def dim(self) -> int:
        for t in self.values:
            return len(t)
        return 1

    @property
    def index_set(self) -> frozenset:
        return frozenset(self.values)

    def __post_init__(self):
        dims = {len(t) for t in self.values}
        if len(dims) > 1:
            raise ValueError(f"mixed index dimensions: {sorted(dims)}")
        if dims and dims != {1} and dims != {2}:
            raise ValueError("only 1- and 2-parameter families are supported")


@dataclass(frozen=True)
class IncreasingSequence:
    """Candidate strictly increasing sequence of index points."""

    points: Tuple[Point, ...]

    @classmethod
    def of(cls, pts: Iterable) -> "IncreasingSequence":
        return cls(tuple(_as_point(p) for p in pts))

    def is_strictly_increasing(self) -> bool:
        return all(
            all(a < b for a, b in zip(p, q))
            for p, q in zip(self.points, self.points[1:])
        )


def _in_box(t: Point, lo: Point, hi: Point) -> bool:
    return all(l <= x < h for x, l, h in zip(t, lo, hi))


def oscillation(family: IndexedFamily, seq: IncreasingSequence,
                subdomain: Optional[Iterable] = None) -> float:
    """Square-summed box suprema of deviations from the box anchors.

    For each consecutive pair (I_j, I_{j+1}) the half-open box between them
    contributes the largest |a_t - a_{I_j}| with t restricted to the
    subdomain.  One pass over the domain assigns each point to its box.
    """
    if not seq.is_strictly_increasing() or len(seq.points) < 2:
        raise ValueError("sequence must be strictly increasing with at least 2 points")
    missing = [p for p in seq.points if p not in family.values]
    if missing:
        raise ValueError(f"sequence points outside the family index set: {missing[:3]}")
    values, pts = family.values, seq.points
    domain = values if subdomain is None else {
        t for t in map(_as_point, subdomain) if t in values
    }
    # the first coordinates strictly increase, so the half-open boxes have
    # disjoint first-coordinate intervals and bisect names the only candidate
    firsts = [p[0] for p in pts]
    best = [0.0] * (len(pts) - 1)
    for t in domain:
        j = bisect_right(firsts, t[0]) - 1
        if 0 <= j < len(best) and _in_box(t, pts[j], pts[j + 1]):
            dev = abs(values[t] - values[pts[j]])
            if dev > best[j]:
                best[j] = dev
    total = 0.0
    for b in best:
        total += b * b
    return math.sqrt(total)


def variation(family: IndexedFamily, rho: float = 2.0) -> float:
    """Sup over increasing subsequences of the rho-sum of increments, 1-D only.

    The rho-sum adds one term per consecutive chosen pair, so the best sum
    ending at index i is the best over j < i of the best sum ending at j plus
    |a_i - a_j|**rho.  This dynamic programme is exact for every rho >= 1.
    """
    if family.dim != 1:
        raise ValueError("variation is defined for 1-parameter families")
    if rho < 1:
        raise ValueError("variation exponent must be >= 1")
    pts = sorted(family.index_set)
    vals = [family.values[t] for t in pts]
    n = len(vals)
    if n < 2:
        return 0.0
    best = [0.0] * n
    try:
        for i in range(1, n):
            best[i] = max(best[j] + abs(vals[i] - vals[j]) ** rho for j in range(i))
    except OverflowError:
        best[-1] = math.inf
    if max(best) == math.inf:
        raise ValueError(f"the rho-sum of increments at rho = {rho} exceeds the largest "
                         f"float, {sys.float_info.max:.4g}")
    return max(best) ** (1.0 / rho)


def _interval_family(family: IndexedFamily) -> Tuple[int, int, Sequence[complex]]:
    pts = sorted(family.index_set)
    ints = [int(p[0]) for p in pts]
    if any(p[0] != i for p, i in zip(pts, ints)):
        raise ValueError("family must be indexed by integers")
    j0, top = ints[0], ints[-1] + 1
    if ints != list(range(j0, top)):
        raise ValueError("family index set must be a contiguous integer interval")
    if top <= 0 or top & (top - 1):
        raise ValueError(f"interval must end at a power of two, got [{j0}, {top})")
    return j0, top, [family.values[(i,)] for i in ints]


def dyadic_block_rhs(family: IndexedFamily) -> float:
    """Dyadic-block majorant: sqrt(2) * sum over block sizes of the l2 norm of
    telescoped block increments, blocks fully inside the index interval."""
    j0, top, vals = _interval_family(family)
    m = top.bit_length() - 1
    get = lambda i: vals[i - j0]
    total = 0.0
    for i in range(m + 1):
        size = 1 << i
        level = 0.0
        for j in range(0, (top >> i)):
            lo, hi = j * size, (j + 1) * size
            if lo < j0 or hi > top:
                continue
            upper = min(hi, top - 1)
            if upper <= lo:
                continue
            inc = get(upper) - get(lo)
            level += abs(inc) ** 2
        total += math.sqrt(level)
    return math.sqrt(2.0) * total


def rademacher_menshov_sides(family: IndexedFamily,
                             seq: IncreasingSequence) -> Tuple[float, float]:
    """(oscillation, dyadic-block majorant) on an integer interval [j0, 2**m).

    The first component never exceeds the second; the majorant telescopes
    increments over dyadic blocks contained in the interval.
    """
    lhs = oscillation(family, seq)
    rhs = dyadic_block_rhs(family)
    return lhs, rhs
