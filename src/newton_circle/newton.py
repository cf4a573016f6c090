"""Backwards Newton diagram: vertices, normals, cones, sectors, and gap constants.

The diagram of P is the convex hull of the union of translated lower-left
quadrants at each support point.  Its corner chain, read top-left to
bottom-right, carries everything downstream: edge normals (gcd-reduced to
coprime positive integers, which pins the determinants and gap constants to
canonical values), the closed sector cones spanned by consecutive normals,
and their integer subsector coordinates.

Sector geometry of many lattice points at once comes from one int64 array
kernel, `sector_arrays`: for an (n, 2) array of nonnegative points it gives
the cone coordinates (t1, t2), closed-cone membership and level N of every
sector.  It also re-derives the open cones from the half-plane description
(the vertex strictly beats every other support point) and raises
AssertionError where the two tests disagree, so every caller runs that
second algorithm.  A guard raises GeometryOverflowError before any product
could leave int64, including the suite's exact gap comparison scaled by the
gap denominators.  `sector_membership` is a one-point call into the kernel;
`cone_coordinates` and `subsector` stay scalar, since they accept real
points and resolve a single sector.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import FrozenSet, NamedTuple, Tuple, Union

import numpy as np

from .complete import INT64_LIMIT
from .poly import Poly2, is_degenerate, support

Vec = Tuple[int, int]


class DegeneratePolynomialError(ValueError):
    """The polynomial splits as P1(m1) + P2(m2); no mixed monomial exists."""


class GeometryOverflowError(OverflowError):
    """A sector-geometry product over the given points could exceed int64."""


@dataclass(frozen=True)
class NewtonDiagram:
    support: FrozenSet[Vec]
    vertices: Tuple[Vec, ...]
    normals: Tuple[Vec, ...]          # length r+1, normals[0]=(0,1), normals[r]=(1,0)
    determinants: Tuple[int, ...]     # d_j = -det[w_{j-1} | w_j] > 0
    gaps: Tuple[Union[Fraction, float], ...]  # per-vertex gap constant, inf if no competitor

    @property
    def r(self) -> int:
        return len(self.vertices)

    @cached_property
    def _sector_operands(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Operands of `sector_arrays` and its int64 product scale.

        plane (2, r+1): points @ plane gives a*w_k[1] - b*w_k[0] for every
        normal w_k, which is t2 of sector k+1 and -t1 of sector k.  diffs
        (2, K): every sector's support differences side by side; owner
        (K, r) marks the sector of each.  scale bounds |product| / largest
        coordinate over points x normals, points x support differences and
        the suite's gap comparison dot * den > -num * level_N.
        """
        supp = sorted(self.support)
        rows = [(j, v[0] - vj[0], v[1] - vj[1]) for j, vj in enumerate(self.vertices)
                for v in supp if v != vj]
        plane = np.array([[w[1] for w in self.normals], [-w[0] for w in self.normals]],
                         dtype=np.int64)
        diffs = np.array([[x for _, x, _ in rows], [y for _, _, y in rows]],
                         dtype=np.int64).reshape(2, -1)
        owner = np.zeros((len(rows), self.r), dtype=np.int64)
        owner[np.arange(len(rows)), [j for j, _, _ in rows]] = 1
        finite = [g for g in self.gaps if isinstance(g, Fraction)]
        scale = max(
            max(abs(x) + abs(y) for x, y in self.normals)
            * max((abs(g.numerator) for g in finite), default=1),
            max((abs(x) + abs(y) for _, x, y in rows), default=0)
            * max((g.denominator for g in finite), default=1),
        )
        for a in (plane, diffs, owner):
            a.setflags(write=False)
        return plane, diffs, owner, scale


@dataclass(frozen=True)
class SectorPoint:
    """A lattice point resolved into subsector coordinates of one sector.

    branch 1 means d_j*(a,b) = (offset_n+level_N)*w_{j-1} + level_N*w_j;
    branch 2 swaps the roles of the two normals.
    """

    point: Vec
    sector: int
    branch: int
    level_N: int
    offset_n: int


def _reduced_normal(v: Vec, w: Vec) -> Vec:
    # inward edge v -> w has dx > 0, dy < 0; outward normal is (-dy, dx)
    dx, dy = w[0] - v[0], w[1] - v[1]
    n1, n2 = -dy, dx
    g = math.gcd(n1, n2)
    return (n1 // g, n2 // g)


def build_diagram(P: Poly2) -> NewtonDiagram:
    """Construct the diagram of a non-degenerate P with P(0,0) = 0."""
    if P.constant_term() != 0:
        raise ValueError("diagram requires P(0,0) = 0")
    if is_degenerate(P):
        raise DegeneratePolynomialError(
            "polynomial splits as P1(m1) + P2(m2); its averages factor and "
            "no mixed dominant monomial exists"
        )
    supp = support(P)
    # upper convex chain from the top point rightwards; the pop below drops
    # every dominated point, so the chain runs x increasing, y decreasing
    top = max(supp, key=lambda v: (v[1], v[0]))
    chain: list = []
    for p in [top] + sorted(v for v in supp if v[0] > top[0]):
        while len(chain) >= 2:
            ax, ay = chain[-2]
            bx, by = chain[-1]
            cross = (bx - ax) * (p[1] - by) - (by - ay) * (p[0] - bx)
            if cross >= 0:  # middle point is on or below the a->p segment
                chain.pop()
            else:
                break
        chain.append(p)
    vertices = tuple(chain)
    r = len(vertices)
    normals = [(0, 1)]
    for j in range(r - 1):
        normals.append(_reduced_normal(vertices[j], vertices[j + 1]))
    normals.append((1, 0))
    dets = []
    for j in range(1, r + 1):
        w_prev, w = normals[j - 1], normals[j]
        d = w_prev[1] * w[0] - w_prev[0] * w[1]
        if d <= 0:
            raise AssertionError(f"normal chain not convex at j={j}: {normals}")
        dets.append(d)
    gaps = tuple(_gap(supp, vertices[j - 1], normals[j - 1], normals[j], dets[j - 1])
                 for j in range(1, r + 1))
    return NewtonDiagram(
        support=supp,
        vertices=vertices,
        normals=tuple(normals),
        determinants=tuple(dets),
        gaps=gaps,
    )


def _gap(supp, vertex, w_prev, w, d) -> Union[Fraction, float]:
    others = [v for v in supp if v != vertex]
    if not others:
        return math.inf
    s = w_prev[0] + w[0], w_prev[1] + w[1]
    return min(
        Fraction((vertex[0] - v[0]) * s[0] + (vertex[1] - v[1]) * s[1], d)
        for v in others
    )


def _check_j(diagram: NewtonDiagram, j: int) -> None:
    if not 1 <= j <= diagram.r:
        raise ValueError(f"sector index must lie in [1, {diagram.r}], got {j}")


def cone_coordinates(diagram: NewtonDiagram, j: int, point) -> Tuple:
    """Integer coordinates (t1, t2) with d_j*(a,b) = t1*w_{j-1} + t2*w_j.

    Accepts real coordinates as well; the result is then real-valued.
    """
    _check_j(diagram, j)
    a, b = point
    w_prev = diagram.normals[j - 1]
    w = diagram.normals[j]
    t1 = -a * w[1] + b * w[0]
    t2 = a * w_prev[1] - b * w_prev[0]
    return t1, t2


class SectorArrays(NamedTuple):
    """Sector geometry of n points; column j-1 holds sector j, all (n, r)."""

    t1: np.ndarray        # int64, d_j*(a,b) = t1*w_{j-1} + t2*w_j
    t2: np.ndarray        # int64
    member: np.ndarray    # bool, closed cone: t1 >= 0 and t2 >= 0
    level_N: np.ndarray   # int64, min(t1, t2)


def support_differences(diagram: NewtonDiagram, j: int) -> np.ndarray:
    """int64 (k, 2) array of v - v_j over the support points v other than v_j."""
    _check_j(diagram, j)
    _, diffs, owner, _ = diagram._sector_operands
    return diffs.T[owner[:, j - 1] == 1]


def sector_arrays(diagram: NewtonDiagram, points) -> SectorArrays:
    """Cone coordinates, closed-cone membership and level N of every sector
    at every point of an (n, 2) array of nonnegative lattice points.

    The open-cone test t1 > 0 and t2 > 0 is cross-checked at interior points
    against the half-plane description of the open cones, from one points x
    support-differences product; a disagreement raises AssertionError.
    """
    # sequences go through Python ints, so no coordinate is rounded or wrapped
    pts = points if isinstance(points, np.ndarray) else np.array(points, dtype=object)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must form an (n, 2) array, got shape {pts.shape}")
    if pts.dtype.kind not in "iuO" or (
            pts.dtype.kind == "O"
            and not all(isinstance(x, numbers.Integral) for x in pts.flat)):
        raise TypeError("lattice points must be integers")
    if pts.size and pts.min() < 0:
        raise ValueError("sector membership is defined on nonnegative lattice points")
    plane, diffs, owner, scale = diagram._sector_operands
    top = int(pts.max()) if pts.size else 0
    if top * scale >= INT64_LIMIT:
        raise GeometryOverflowError(
            f"coordinate {top} times the diagram's normals, support differences "
            f"and gap constants could exceed 2**63 (int64)"
        )
    pts = pts.astype(np.int64, copy=False)
    c = pts @ plane
    t1, t2 = -c[:, 1:], c[:, :-1]
    level = np.minimum(t1, t2)
    # the open cone of sector j (level N > 0) holds the interior points at
    # which every v - v_j has a negative dot product; owner counts the
    # failures per sector
    half_plane = ((pts @ diffs >= 0).astype(np.int64) @ owner) == 0
    bad = ((level > 0) != half_plane) & (pts.min(axis=1) > 0)[:, None]
    if bad.any():
        i, j = np.argwhere(bad)[0]
        point = tuple(int(x) for x in pts[i])
        raise AssertionError(f"cone tests disagree at point {point}, sector {j + 1}")
    return SectorArrays(t1=t1, t2=t2, member=level >= 0, level_N=level)


def sector_membership(diagram: NewtonDiagram, point: Vec) -> FrozenSet[int]:
    """Indices j of every closed sector cone containing the point.

    A one-point call into `sector_arrays`, so the half-plane cross-check
    runs here too; boundary points belong to two sectors.
    """
    members = frozenset(int(j) + 1 for j in
                        np.flatnonzero(sector_arrays(diagram, [point]).member[0]))
    if not members:
        raise AssertionError(f"sectors fail to cover {point}")
    return members


def subsector(diagram: NewtonDiagram, j: int, point: Vec) -> SectorPoint:
    """Resolve a sector point into its branch, level N, and offset n."""
    t1, t2 = cone_coordinates(diagram, j, point)
    if t1 < 0 or t2 < 0:
        raise ValueError(f"point {point} lies outside sector {j}")
    if t1 >= t2:
        return SectorPoint(point=point, sector=j, branch=1, level_N=t2, offset_n=t1 - t2)
    return SectorPoint(point=point, sector=j, branch=2, level_N=t1, offset_n=t2 - t1)


def vertex_gap(diagram: NewtonDiagram, j: int) -> Union[Fraction, float]:
    """Gap constant of sector j: by how much the vertex beats every other
    support point along the subsector direction, per unit of level N."""
    _check_j(diagram, j)
    return diagram.gaps[j - 1]


_SECTOR_TOL = 1e-9


def in_sector_scales(diagram: NewtonDiagram, j: int, M1: float, M2: float) -> bool:
    """Whether the scale pair (M1, M2) lies over sector j.

    Cones are scale-invariant, so the test uses natural logs of the scales;
    a small relative tolerance absorbs float rounding on boundaries.
    """
    _check_j(diagram, j)
    if M1 < 1 or M2 < 1:
        raise ValueError("scales must be >= 1")
    x, y = math.log(M1), math.log(M2)
    t1, t2 = cone_coordinates(diagram, j, (x, y))
    bound = -_SECTOR_TOL * max(1.0, abs(x), abs(y))
    return t1 >= bound and t2 >= bound


def dominant_scale(diagram: NewtonDiagram, j: int, M1: float, M2: float) -> float:
    """The scale that controls logarithmic thresholds in sector j.

    Sector 1 is governed by M2, sector r by M1, interior sectors (and the
    single-vertex case) by the larger of the two.
    """
    if not in_sector_scales(diagram, j, M1, M2):
        raise ValueError(f"scales ({M1}, {M2}) do not lie over sector {j}")
    r = diagram.r
    if r == 1 or 1 < j < r:
        return max(M1, M2)
    if j == 1:
        return M2
    return M1
