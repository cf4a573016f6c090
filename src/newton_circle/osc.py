"""Multi-parameter oscillation semi-norms and 1-D variation semi-norms.

Index sets are finite points in R^k for k in {1, 2}; scalars are accepted for
one-parameter families and normalized to 1-tuples.  Boxes attached to an
increasing sequence are half-open, and the last sequence point opens no box,
so suprema only ever range over explicitly listed indices; empty suprema
contribute zero.  The rho-variation is a dynamic programme over the last
chosen index, exact for every rho >= 1, with no cap on the number of points.
Each is an array kernel over a batch of families (the ``*_rows`` functions);
the functions of one family run it on a batch of one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

Point = Tuple[float, ...]


def _as_point(t) -> Point:
    return t if isinstance(t, tuple) else (t,)


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
        return all(all(a < b for a, b in zip(p, q))
                   for p, q in zip(self.points, self.points[1:]))


def oscillation_rows(values: np.ndarray, points: np.ndarray, chains: np.ndarray,
                     domain: np.ndarray) -> np.ndarray:
    """Oscillation of each family of a batch: values (F, n) on the shared
    index points (n, d), chains (F, L) indexing strictly increasing points,
    padded by repeating the last index (padding opens only empty boxes), and
    domain (F, n) marking the points the suprema range over.  A point can lie
    only in the box of the last anchor whose first coordinate is at most its
    own.  Exact box maxima of the hypot that abs(complex) takes, squares
    added in box order: each row equals the box-by-box scan to the bit.
    """
    F, L = chains.shape
    rows = np.arange(F)[:, None]
    anchors = points[chains]
    box = (anchors[:, :, None, 0] <= points[:, 0]).sum(axis=1) - 1
    inside = domain & (box >= 0) & (box < L - 1)
    box = np.clip(box, 0, L - 2)
    inside &= ((anchors[rows, box] <= points) & (points < anchors[rows, box + 1])).all(axis=2)
    dev = values - values[rows, chains[rows, box]]
    dev = np.hypot(dev.real, dev.imag)
    best = np.zeros((F, L - 1))
    f, t = np.nonzero(inside)
    np.maximum.at(best, (f, box[f, t]), dev[f, t])
    return np.sqrt(np.cumsum(best * best, axis=1)[:, -1])


def oscillation(family: IndexedFamily, seq: IncreasingSequence,
                subdomain: Optional[Iterable] = None) -> float:
    """Square-summed box suprema of deviations from the box anchors.

    For each consecutive pair (I_j, I_{j+1}) the half-open box between them
    contributes the largest |a_t - a_{I_j}| with t restricted to the
    subdomain.
    """
    if not seq.is_strictly_increasing() or len(seq.points) < 2:
        raise ValueError("sequence must be strictly increasing with at least 2 points")
    missing = [p for p in seq.points if p not in family.values]
    if missing:
        raise ValueError(f"sequence points outside the family index set: {missing[:3]}")
    where = {t: i for i, t in enumerate(family.values)}
    domain = np.full(len(where), subdomain is None)
    if subdomain is not None:
        domain[[where[t] for t in map(_as_point, subdomain) if t in where]] = True
    return float(oscillation_rows(np.array([list(family.values.values())]),
                                  np.array(list(where)),
                                  np.array([[where[p] for p in seq.points]]), domain[None])[0])


def variation_rows(values: np.ndarray, rho: float) -> np.ndarray:
    """rho-variation of each row of values (F, n), 1-D families in index order.

    The best rho-sum ending at column i is the best over j < i of the best
    ending at j plus |a_i - a_j|**rho (np.abs, within an ulp of abs(complex)
    and several times faster than np.hypot), exact for every rho >= 1.
    Repeating a row's first or last value leaves its variation unchanged.
    """
    v = values.T.copy()
    best = np.zeros(v.shape)
    with np.errstate(over="ignore"):
        for i in range(1, len(v)):
            best[i] = (best[:i] + np.abs(v[i] - v[:i]) ** rho).max(axis=0)
    top = best.max(axis=0, initial=0.0)  # 0.0 for an empty family
    if np.isinf(top).any():
        raise ValueError(f"the rho-sum of increments at rho = {rho} exceeds the largest "
                         f"float, {sys.float_info.max:.4g}")
    return top ** (1.0 / rho)


def variation(family: IndexedFamily, rho: float = 2.0) -> float:
    """Sup over increasing subsequences of the rho-sum of increments, 1-D only."""
    if family.dim != 1:
        raise ValueError("variation is defined for 1-parameter families")
    if not rho >= 1:  # NaN fails every comparison
        raise ValueError(f"variation exponent must be >= 1, got {rho}")
    vals = [family.values[t] for t in sorted(family.values)]
    return float(variation_rows(np.array([vals]), rho)[0])


def dyadic_block_rows(values: np.ndarray, j0: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Dyadic-block majorant of each row of values (F, n), column i holding
    the value at i, on its interval [j0, top), n a power of two >= top: sqrt(2)
    times the sum over block sizes of the l2 norm of the increments
    a[min(hi, top - 1)] - a[lo] over the blocks [lo, hi) in the interval."""
    F, n = values.shape
    j0, top = j0[:, None], top[:, None]
    total = np.zeros(F)
    for size in (1 << i for i in range(n.bit_length())):
        lo = np.arange(0, n, size)
        upper = np.minimum(lo + size, top - 1)
        inside = (lo >= j0) & (lo + size <= top) & (upper > lo)
        inc = np.take_along_axis(values, upper, axis=1) - values[:, lo]
        inc = inc.real**2 + inc.imag**2
        total += np.sqrt(np.where(inside, inc, 0.0).sum(axis=1))
    return math.sqrt(2.0) * total


def rademacher_menshov_sides(family: IndexedFamily,
                             seq: IncreasingSequence) -> Tuple[float, float]:
    """(oscillation, dyadic-block majorant) on an integer interval [j0, 2**m).

    The first component never exceeds the second; the majorant telescopes
    increments over dyadic blocks contained in the interval.
    """
    pts = sorted(family.values)
    ints = [int(p[0]) for p in pts]
    if any(p[0] != i for p, i in zip(pts, ints)):
        raise ValueError("family must be indexed by integers")
    j0, top = ints[0], ints[-1] + 1
    if ints != list(range(j0, top)):
        raise ValueError("family index set must be a contiguous integer interval")
    if top <= 0 or top & (top - 1):
        raise ValueError(f"interval must end at a power of two, got [{j0}, {top})")
    # blocks start at 0 or later, so no negative index is read
    row = np.array([[family.values.get((i,), 0j) for i in range(top)]])
    return oscillation(family, seq), float(dyadic_block_rows(row, np.array([j0]),
                                                             np.array([top]))[0])
