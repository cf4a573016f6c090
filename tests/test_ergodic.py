import math
from fractions import Fraction

import pytest

from newton_circle.circle import discrete_multiplier
from newton_circle.ergodic import (
    AverageSpec,
    EmptyRegionError,
    FiniteFunction,
    character_average,
    degenerate_factorization_gap,
    region_points,
    sector_grid,
    shift_average,
    shift_average_1d,
)
from newton_circle.expsum import double_sum
from newton_circle.newton import build_diagram
from newton_circle.poly import UniPoly, parse_poly, scale


def test_shift_average_examples():
    f = FiniteFunction.delta(0)
    spec = AverageSpec(P=parse_poly("m1*m2"), M1=2, M2=2)
    assert shift_average(spec, f, 0) == 0
    assert shift_average(spec, f, 1) == pytest.approx(0.25)
    ones = FiniteFunction.of({k: 1 for k in range(-64, 1)})
    assert shift_average(spec, ones, 0) == pytest.approx(1)


def test_positivity_and_l1_contraction(rng):
    P = parse_poly("m1^2*m2 + m1")
    spec = AverageSpec(P=P, M1=4, M2=3)
    f = FiniteFunction.of({rng.randint(-30, 30): rng.uniform(0, 2) for _ in range(8)})
    for x in range(-40, 80):
        assert shift_average(spec, f, x).real >= -1e-15
    visited = {x for x in range(-200, 200) if shift_average(spec, f, x) != 0}
    total = sum(abs(shift_average(spec, f, x)) for x in visited)
    assert total <= sum(abs(v) for v in f.values.values()) + 1e-9


def test_truncated_region_bounds():
    spec = AverageSpec(P=parse_poly("m1*m2"), M1=8, M2=8,
                       region="truncated", tau=Fraction(2))
    pts = list(region_points(spec))
    assert pts == [(a, b) for a in range(5, 9) for b in range(5, 9)]
    with pytest.raises(EmptyRegionError):
        # floor(5/2) == floor((5/2)/(6/5)), so the first axis has no points
        shift_average(
            AverageSpec(P=parse_poly("m1*m2"), M1=Fraction(5, 2), M2=4,
                        region="truncated", tau=Fraction(6, 5)),
            FiniteFunction.delta(), 0)


def test_truncated_regions_tile_full_region():
    # the full box is the disjoint union of truncated boxes over smaller scales
    tau = Fraction(3, 2)
    n1, n2 = 6, 5
    full = set(region_points(AverageSpec(
        P=parse_poly("m1*m2"), M1=tau**n1, M2=tau**n2)))
    tiles = []
    for l1 in range(n1 + 1):
        for l2 in range(n2 + 1):
            tiles.append(set(region_points(AverageSpec(
                P=parse_poly("m1*m2"), M1=tau**l1, M2=tau**l2,
                region="truncated", tau=tau))))
    union = set().union(*tiles)
    assert union == full
    assert sum(len(t) for t in tiles) == len(full)


def test_rational_tau_required():
    with pytest.raises(ValueError):
        AverageSpec(P=parse_poly("m1*m2"), M1=4, M2=4, region="truncated", tau=1.5)


def test_full_region_takes_no_tau():
    # a tau beside the full region would be dropped without a word
    P = parse_poly("m1*m2")
    with pytest.raises(ValueError, match="full region takes no tau"):
        AverageSpec(P=P, M1=16, M2=16, region="full", tau=Fraction(2))
    with pytest.raises(ValueError, match="full region takes no tau"):
        character_average(P, Fraction(1, 3), 16, 16, "full", Fraction(2))


def test_character_average_examples():
    P = parse_poly("m1*m2")
    assert character_average(P, 0, 5, 7) == pytest.approx(1)
    assert character_average(P, Fraction(1, 2), 2, 2) == pytest.approx(0.5)


def test_character_average_matches_double_sum():
    P = parse_poly("m1^2*m2^3")
    theta = Fraction(3, 7)
    got = character_average(P, theta, 6, 5)
    want = double_sum(scale(P, theta), 0, 6, 0, 5).value / 30
    assert got == want


def test_character_average_is_shift_average_of_character():
    # averaging x -> e(theta x) under the shift factors through the value
    import cmath

    P = parse_poly("m1*m2")
    theta = Fraction(1, 3)
    x = 2
    spec = AverageSpec(P=P, M1=3, M2=2)
    direct = sum(
        cmath.exp(2j * math.pi * float(theta) * (x - m1 * m2))
        for m1, m2 in region_points(spec)
    ) / 6
    via = cmath.exp(2j * math.pi * float(theta) * x) * character_average(
        P, -theta, 3, 2).conjugate()
    # e(theta(x - P)) = e(theta x) * conj(e(theta P))
    assert direct == pytest.approx(via)


def test_character_average_truncated_region():
    # a float theta scales a coefficient past 2**53 exactly, as the pinning
    # of discrete_multiplier does, so the two agree bit for bit
    for text, theta in (("m1*m2", Fraction(1, 4)), (f"{2**60 + 1}*m1*m2 + m2^2", 0.3)):
        P = parse_poly(text)
        got = character_average(P, theta, 8, 8, region="truncated", tau=Fraction(2))
        assert got == double_sum(scale(P, theta), 4, 8, 4, 8).value / 16
        assert got == discrete_multiplier(P, theta, 8, 8, 2)


def test_sector_grid_non_dyadic_lacunarity():
    d = build_diagram(parse_poly("m1^2*m2^3"))
    tau = Fraction(3, 2)
    grid = sector_grid(d, 1, tau, Fraction(27, 8))
    powers = [tau**n for n in range(4)]  # 1, 3/2, 9/4, 27/8
    assert sorted(grid) == sorted((a, b) for a in powers for b in powers)


def test_sector_grid_examples():
    single = build_diagram(parse_poly("m1^2*m2^3"))
    grid = sector_grid(single, 1, Fraction(2), 4)
    assert sorted(grid) == sorted(
        [(Fraction(2**i), Fraction(2**j)) for i in range(3) for j in range(3)]
    )
    two = build_diagram(parse_poly("m1^3*m2 + m1*m2^3"))
    for m1, m2 in sector_grid(two, 1, Fraction(2), 8):
        n1, n2 = m1.numerator.bit_length() - 1, m2.numerator.bit_length() - 1
        assert n2 >= n1
    assert sector_grid(single, 1, Fraction(2), Fraction(1, 2)) == []


def test_sector_grid_matches_cone_coordinates(rng):
    from newton_circle.newton import cone_coordinates
    from newton_circle.suites import random_nondegenerate_poly

    tau = Fraction(3, 2)
    powers = [tau**n for n in range(12)]
    for _ in range(20):
        d = build_diagram(random_nondegenerate_poly(rng))
        for j in range(1, d.r + 1):
            expected = [(powers[n1], powers[n2]) for n1 in range(12) for n2 in range(12)
                        if min(cone_coordinates(d, j, (n1, n2))) >= 0]
            assert sector_grid(d, j, tau, powers[-1]) == expected
    with pytest.raises(ValueError, match="sector index"):
        sector_grid(d, d.r + 1, tau, 8)
    with pytest.raises(ValueError, match="sector index"):
        sector_grid(d, d.r + 1, tau, Fraction(1, 2))  # no power fits the bound


def test_factorization_gap_examples(rng):
    f = FiniteFunction.delta(0)
    assert degenerate_factorization_gap(
        UniPoly((0, 0, 1)), UniPoly((0, 0, 0, 1)), f, 2, 2, 5) == 0.0
    for _ in range(25):
        p1 = UniPoly((0, rng.randint(-4, 4), rng.randint(-4, 4)))
        p2 = UniPoly((0, rng.randint(-4, 4), 0, rng.randint(-4, 4)))
        g = FiniteFunction.of({rng.randint(-20, 20): rng.uniform(-1, 1) for _ in range(5)})
        gap = degenerate_factorization_gap(
            p1, p2, g, rng.randint(1, 8), rng.randint(1, 8), rng.randint(-5, 5))
        assert gap < 1e-12


def test_mixed_polynomial_negative_control():
    f = FiniteFunction.delta(0)
    mixed = shift_average(AverageSpec(P=parse_poly("m1*m2"), M1=2, M2=2), f, 1)
    composed = shift_average_1d(
        UniPoly((0, 1)), 2,
        FiniteFunction.of({y: shift_average_1d(UniPoly((0, 1)), 2, f, y)
                           for y in range(-8, 8)}),
        1,
    )
    assert abs(mixed - composed) > 0.01


def test_finite_function_json_roundtrip():
    f = FiniteFunction.of({3: 1 + 2j, -5: 0.25, 0: -1j})
    assert FiniteFunction.from_json(f.to_json()).values == f.values
