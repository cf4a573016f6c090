import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from newton_circle import newton, poly, suites
from newton_circle.newton import (
    DegeneratePolynomialError,
    GeometryOverflowError,
    build_diagram,
    cone_coordinates,
    dominant_scale,
    sector_arrays,
    sector_membership,
    subsector,
    vertex_gap,
)
from newton_circle.poly import Poly2, parse_poly
from newton_circle.suites import direction_witness_vertices, random_nondegenerate_poly


@pytest.fixture
def two_sector():
    return build_diagram(parse_poly("m1^3*m2 + m1*m2^3"))


def test_single_vertex_diagram():
    d = build_diagram(parse_poly("m1^2*m2^3"))
    assert d.r == 1
    assert d.vertices == ((2, 3),)
    assert d.normals == ((0, 1), (1, 0))


def test_two_vertex_diagram(two_sector):
    assert two_sector.vertices == ((1, 3), (3, 1))
    assert two_sector.normals == ((0, 1), (1, 1), (1, 0))
    assert two_sector.determinants == (1, 1)


def test_dominated_point_not_a_corner():
    d = build_diagram(parse_poly("m1*m2 + m1^2*m2^2"))
    assert d.vertices == ((2, 2),)


def test_degenerate_rejected():
    with pytest.raises(DegeneratePolynomialError):
        build_diagram(parse_poly("m1^2 + m2^3"))
    with pytest.raises(ValueError):
        build_diagram(parse_poly("m1*m2 + 1"))


def test_vertex_ordering_and_normal_slopes(rng):
    for _ in range(60):
        d = build_diagram(random_nondegenerate_poly(rng))
        for (a1, b1), (a2, b2) in zip(d.vertices, d.vertices[1:]):
            assert a1 < a2 and b2 < b1
        # slopes of normals strictly decrease: cross-products avoid div by zero
        for w1, w2 in zip(d.normals, d.normals[1:]):
            assert w1[1] * w2[0] > w2[1] * w1[0]
        for d_j in d.determinants:
            assert d_j > 0


def test_sign_conditions_exact(rng):
    for _ in range(60):
        P = random_nondegenerate_poly(rng)
        d = build_diagram(P)
        for j in range(1, d.r + 1):
            vj = d.vertices[j - 1]
            for v in d.support:
                if v == vj:
                    continue
                s1 = d.normals[j][0] * (v[0] - vj[0]) + d.normals[j][1] * (v[1] - vj[1])
                s2 = d.normals[j - 1][0] * (v[0] - vj[0]) + d.normals[j - 1][1] * (v[1] - vj[1])
                assert s1 <= 0 and s2 <= 0 and (s1 < 0 or s2 < 0)


def test_hull_matches_direction_witness_oracle(rng):
    for _ in range(60):
        P = random_nondegenerate_poly(rng)
        assert frozenset(build_diagram(P).vertices) == direction_witness_vertices(P)


def _witness_vertices_by_loop(P):
    """The witness oracle as a scalar loop: for each support point v, scan
    the directions (a, b) in [1, 2*deg + 1]**2 for one with
    a*(w1 - v1) + b*(w2 - v2) < 0 at every other support point w."""
    supp = sorted(poly.support(P))
    bound = 2 * P.total_degree + 1
    out = set()
    for v in supp:
        others = [w for w in supp if w != v]
        for a in range(1, bound + 1):
            found = False
            for b in range(1, bound + 1):
                if all(a * (w[0] - v[0]) + b * (w[1] - v[1]) < 0 for w in others):
                    found = True
                    break
            if found:
                out.add(v)
                break
    return frozenset(out)


def test_witness_oracle_equals_its_loop_on_random_polys():
    rng = random.Random(2024)
    for _ in range(300):
        P = random_nondegenerate_poly(rng)
        got = direction_witness_vertices(P)
        assert got == _witness_vertices_by_loop(P)
        assert all(type(x) is int for v in got for x in v)


@pytest.mark.parametrize("text, want", [
    ("m1*m2 + m1^2*m2^2 + m1^3*m2^3", {(3, 3)}),                # collinear, one ray
    ("m1^3 + m1^2*m2 + m1*m2^2 + m2^3", {(3, 0), (0, 3)}),      # collinear segment
    ("m1*m2 + m1^2", {(1, 1), (2, 0)}),                         # two points, both corners
    ("m1*m2 + m1^2*m2^2", {(2, 2)}),                            # two points, one dominated
    ("m1^2*m2^3", {(2, 3)}),                                    # one point
    ("m1 + m2^6", {(1, 0), (0, 6)}),                            # needs a > deg, below
    ("m1*m2^3 + m1^3*m2^3 + m1^3*m2", {(3, 3)}),                # top and right ties
    ("m1*m2^4 + m1^2*m2^4 + m1^4*m2 + m1^4*m2^2", {(2, 4), (4, 2)}),  # tied rows, columns
])
def test_witness_oracle_hand_cases(text, want):
    P = parse_poly(text)
    assert direction_witness_vertices(P) == _witness_vertices_by_loop(P) == want
    if not poly.is_degenerate(P):
        assert set(build_diagram(P).vertices) == want


def test_witness_oracle_vertex_past_the_degree():
    # the corner (1, 0) of m1 + m2^6 is separated from (0, 6) only by the
    # directions with a > 6*b, so every one has a > deg = 6 and a search over
    # a <= deg misses it; the zero polynomial has no corner
    P = parse_poly("m1 + m2^6")
    seps = [(a, b) for a in range(1, 14) for b in range(1, 14) if a > 6 * b]
    assert min(a for a, _ in seps) == 7
    assert (1, 0) in direction_witness_vertices(P)
    assert direction_witness_vertices(Poly2({})) == frozenset()


def test_membership_examples(two_sector):
    assert sector_membership(two_sector, (1, 2)) == {1}
    assert sector_membership(two_sector, (1, 1)) == {1, 2}
    assert sector_membership(two_sector, (0, 0)) == {1, 2}


def test_covering_and_disjointness(two_sector):
    for a in range(41):
        for b in range(41):
            assert sector_membership(two_sector, (a, b))
            if a and b:
                opens = [j for j in (1, 2)
                         if all(t > 0 for t in cone_coordinates(two_sector, j, (a, b)))]
                assert len(opens) <= 1


def test_subsector_examples(two_sector):
    sp = subsector(two_sector, 1, (1, 2))
    assert (sp.branch, sp.level_N, sp.offset_n) == (1, 1, 0)
    sp = subsector(two_sector, 1, (1, 3))
    assert (sp.branch, sp.level_N, sp.offset_n) == (1, 1, 1)
    sp = subsector(two_sector, 2, (0, 0))
    assert (sp.level_N, sp.offset_n) == (0, 0)
    with pytest.raises(ValueError):
        subsector(two_sector, 2, (1, 3))


def test_subsector_reconstruction(two_sector, rng):
    for _ in range(200):
        a, b = rng.randint(0, 30), rng.randint(0, 30)
        for j in sector_membership(two_sector, (a, b)):
            sp = subsector(two_sector, j, (a, b))
            w_prev, w = two_sector.normals[j - 1], two_sector.normals[j]
            dj = two_sector.determinants[j - 1]
            if sp.branch == 1:
                t1, t2 = sp.offset_n + sp.level_N, sp.level_N
            else:
                t1, t2 = sp.level_N, sp.offset_n + sp.level_N
            assert (dj * a, dj * b) == (
                t1 * w_prev[0] + t2 * w[0],
                t1 * w_prev[1] + t2 * w[1],
            )


def test_gap_examples(two_sector):
    assert vertex_gap(two_sector, 1) == Fraction(2)
    assert vertex_gap(two_sector, 2) == Fraction(2)
    assert vertex_gap(build_diagram(parse_poly("m1^2*m2^3")), 1) == math.inf


def test_gap_inequality_exact(two_sector):
    sigma = {j: vertex_gap(two_sector, j) for j in (1, 2)}
    for a in range(41):
        for b in range(41):
            for j in sector_membership(two_sector, (a, b)):
                sp = subsector(two_sector, j, (a, b))
                vj = two_sector.vertices[j - 1]
                for v in two_sector.support:
                    if v == vj:
                        continue
                    dot = a * (v[0] - vj[0]) + b * (v[1] - vj[1])
                    assert Fraction(dot) <= -sigma[j] * sp.level_N


def test_membership_matches_boundary_slopes(two_sector, rng):
    # closed-cone membership pins the point between the two normal slopes
    d = build_diagram(parse_poly("m1^4*m2 + m1^3*m2^3 + m1*m2^4"))
    assert d.r == 3
    for _ in range(300):
        a, b = rng.randint(0, 25), rng.randint(0, 25)
        for j in sector_membership(d, (a, b)):
            w_prev, w = d.normals[j - 1], d.normals[j]
            assert w[1] * a <= w[0] * b
            if w_prev[0] > 0:
                assert w_prev[1] * a >= w_prev[0] * b
    for _ in range(100):
        a, b = rng.randint(0, 25), rng.randint(0, 25)
        for j in sector_membership(two_sector, (a, b)):
            if j == 1:
                assert two_sector.normals[1][1] * a <= two_sector.normals[1][0] * b
            if j == 2:
                assert two_sector.normals[1][1] * a >= two_sector.normals[1][0] * b


def test_dominant_scale(two_sector):
    single = build_diagram(parse_poly("m1^2*m2^3"))
    assert dominant_scale(single, 1, 4, 8) == 8
    assert dominant_scale(two_sector, 1, 2, 16) == 16
    assert dominant_scale(two_sector, 2, 16, 2) == 16
    with pytest.raises(ValueError):
        dominant_scale(two_sector, 1, 16, 2)  # (16,2) lies over sector 2 only


def test_in_sector_scales_boundaries(two_sector):
    from newton_circle.newton import in_sector_scales

    assert in_sector_scales(two_sector, 1, 1, 1)  # origin is in every sector
    assert in_sector_scales(two_sector, 2, 1, 1)
    assert in_sector_scales(two_sector, 1, 8, 8)  # diagonal boundary ray
    assert in_sector_scales(two_sector, 2, 8, 8)
    assert not in_sector_scales(two_sector, 2, 2, 16)


def _fixture_diagrams(rng):
    yield build_diagram(parse_poly("m1^2*m2^3"))
    yield build_diagram(parse_poly("m1^4*m2 + m1^3*m2^3 + m1*m2^4"))
    for _ in range(60):
        yield build_diagram(random_nondegenerate_poly(rng))


def test_sector_arrays_match_scalar_api_and_slopes(rng):
    grid = [(a, b) for a in range(26) for b in range(26)]
    for d in _fixture_diagrams(rng):
        geo = sector_arrays(d, grid)
        assert geo.member.shape == geo.level_N.shape == (len(grid), d.r)
        rows = zip(geo.t1.tolist(), geo.t2.tolist(), geo.member.tolist(),
                   geo.level_N.tolist())
        for (a, b), (t1s, t2s, member, level) in zip(grid, rows):
            members = sector_membership(d, (a, b))
            for j in range(1, d.r + 1):
                w_prev, w = d.normals[j - 1], d.normals[j]
                # closed cone j: between the slopes of its two normals
                inside = w[1] * a <= w[0] * b and w_prev[1] * a >= w_prev[0] * b
                assert member[j - 1] == inside == (j in members)
                t1, t2 = t1s[j - 1], t2s[j - 1]
                dj = d.determinants[j - 1]
                assert (dj * a, dj * b) == (t1 * w_prev[0] + t2 * w[0],
                                            t1 * w_prev[1] + t2 * w[1])
                assert level[j - 1] == min(t1, t2)
                if inside:
                    assert subsector(d, j, (a, b)).level_N == level[j - 1]


def test_corrupted_normal_fails_half_plane_cross_check(two_sector):
    bad = dataclasses.replace(two_sector, normals=((0, 1), (2, 1), (1, 0)))
    grid = [(a, b) for a in range(6) for b in range(6)]
    with pytest.raises(AssertionError, match="cone tests disagree"):
        sector_arrays(bad, grid)
    with pytest.raises(AssertionError, match="cone tests disagree"):
        sector_membership(bad, (3, 2))
    sector_arrays(two_sector, grid)


def test_sector_arrays_guards(two_sector):
    single = build_diagram(parse_poly("m1^2*m2^3"))
    top = 2**63 - 1
    geo = sector_arrays(single, [(top, top)])
    assert (int(geo.t1[0, 0]), int(geo.t2[0, 0])) == (top, top)
    with pytest.raises(GeometryOverflowError):
        sector_arrays(single, [(2**63, 0)])
    # gaps (1, 1/2): the widest support difference (6) times the gap
    # denominator (2) beats the widest normal (5) times the numerator (1)
    d = build_diagram(parse_poly("m2^2 + m1*m2^2 + m1^4*m2 + m1^5*m2"))
    assert d.gaps == (1, Fraction(1, 2))
    limit = (2**63 - 1) // 12
    sector_arrays(d, [(0, limit)])
    with pytest.raises(GeometryOverflowError):
        sector_arrays(d, [(0, limit + 1)])
    with pytest.raises(ValueError, match="nonnegative"):
        sector_arrays(two_sector, [(1, 2), (-1, 2)])
    with pytest.raises(ValueError, match="nonnegative"):
        sector_membership(two_sector, (0, -1))
    with pytest.raises(TypeError):
        sector_arrays(two_sector, [(0.5, 1.0)])


def test_overflow_guard_raises_before_allocating(two_sector):
    # a zero-stride view: a million points that occupy 16 bytes
    pts = np.broadcast_to(np.array([[2**62, 1]], dtype=np.int64), (10**6, 2))
    tracemalloc.start()
    try:
        with pytest.raises(GeometryOverflowError):
            sector_arrays(two_sector, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5  # the product arrays alone would take 24 MB


def test_suite_counts_uncovered_points(monkeypatch):
    def drop_first_point(diagram, points):
        geo = sector_arrays(diagram, points)
        geo.member[0] = False
        return geo

    monkeypatch.setattr(newton, "sector_arrays", drop_first_point)
    rows = {row.name: row for row in suites.suite_newton(trials=3)}
    assert rows["sector_cones_cover_grid"].lhs == 3
    assert not rows["sector_cones_cover_grid"].passed
    assert rows["subsector_gap_inequality_exact"].passed


def test_suite_sign_conditions_see_a_negated_normal(monkeypatch):
    # w_0 = (0, 1) negated: v_1 has the top m2-exponent of the support, so
    # every support point below it then has a positive dot with w_0.  The
    # cone tests keep the true diagram's operands, so only the
    # sign-condition row can see the corruption
    real = newton.build_diagram

    def negated_first_normal(P):
        diagram = real(P)
        (a, b), *rest = diagram.normals
        bad = dataclasses.replace(diagram, normals=((-a, -b), *rest))
        bad.__dict__["_sector_operands"] = diagram._sector_operands
        return bad

    monkeypatch.setattr(newton, "build_diagram", negated_first_normal)
    rows = {row.name: row for row in suites.suite_newton(trials=3)}
    assert rows["vertex_normal_sign_conditions"].lhs > 0
    assert not rows["vertex_normal_sign_conditions"].passed
    assert all(row.passed for name, row in rows.items() if name != "vertex_normal_sign_conditions")
