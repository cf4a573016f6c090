import cmath
import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from newton_circle import expsum
from newton_circle.arith import golden_ratio_conjugate, torus_distance
from newton_circle.expsum import (
    BLOCK_CELLS,
    FLOAT_TERM_BUDGET,
    HISTOGRAM_BINS,
    double_sum,
    double_sum_abs,
    residue_sum,
    weyl_sum,
)
from newton_circle.poly import Poly2, RealPoly2, evaluate, parse_poly, scale, transpose


def brute_weyl(xs, N):
    total = 0j
    for n in range(1, N + 1):
        phase = sum(float(x) * n ** (i + 1) for i, x in enumerate(xs))
        total += cmath.exp(2j * math.pi * phase)
    return total


def test_weyl_examples():
    assert abs(weyl_sum([Fraction(1, 2)], 4).value) < 1e-12
    assert weyl_sum([0, 0], 9).value == 9
    assert abs(weyl_sum([Fraction(1, 3)], 3).value) < 1e-12


def test_weyl_modes():
    assert weyl_sum([Fraction(1, 3), Fraction(1, 5)], 10).mode == "exact"
    assert weyl_sum([0.3], 10).mode == "float"
    # an exact input still carries trig and summation rounding
    assert weyl_sum([Fraction(1, 3)], 10).error_budget == 10 * FLOAT_TERM_BUDGET


@pytest.mark.parametrize("a, q", [(1, 2), (2, 7), (5, 12), (3, 65537), (12345, 65536),
                                  (7, 2**20 - 3), (2**19 + 1, 2**20)])
def test_complete_period_vanishes(a, q):
    # sum over n <= q of e(a*n/q) is exactly 0 for q > 1 and a coprime to q
    v = weyl_sum((Fraction(a, q),), q)
    assert v.mode == "exact"
    assert abs(v.value) <= v.error_budget


@pytest.mark.parametrize("a, p", [(1, 3), (2, 5), (3, 7), (10, 101), (3, 65537),
                                  (5, 2**20 - 3)])
def test_quadratic_gauss_sum_has_modulus_sqrt_p(a, p):
    # |sum over n <= p of e(a*n^2/p)| = sqrt(p) for an odd prime p not dividing a
    v = weyl_sum((0, Fraction(a, p)), p)
    assert abs(abs(v.value) - math.sqrt(p)) <= v.error_budget


def test_weyl_against_brute_force():
    for xs in ([Fraction(2, 7)], [0.137, 0.71], [Fraction(1, 3), 0.5, Fraction(1, 4)]):
        got = weyl_sum(xs, 30)
        want = brute_weyl(xs, 30)
        assert abs(got.value - want) < 1e-9


def test_weyl_validation():
    with pytest.raises(ValueError):
        weyl_sum([0.1] * 9, 10)
    with pytest.raises(ValueError):
        weyl_sum([0.1], 0)


def test_geometric_bound_rational_linear_phase(rng):
    # |sum| <= 1/dist(xi, Z) for one-dimensional rational phases
    for _ in range(60):
        q = rng.randint(2, 50)
        a = rng.choice([a for a in range(1, q) if math.gcd(a, q) == 1])
        N = rng.randint(1, 10**4)
        value = abs(weyl_sum([Fraction(a, q)], N).value)
        assert value <= 1 / float(torus_distance(Fraction(a, q))) + 1e-9


def test_double_sum_examples():
    zero = scale(parse_poly("m1*m2"), 0)
    assert double_sum(zero, 0, 3, 0, 5).value == 15
    half = scale(parse_poly("m1*m2"), Fraction(1, 2))
    assert abs(double_sum(half, 0, 2, 0, 2).value - 2) < 1e-12
    integer = scale(parse_poly("m1^2*m2 + 3*m1"), 1)
    assert double_sum(integer, 0, 4, 0, 6).value == pytest.approx(24)


def test_double_sum_against_brute_force(rng):
    P = parse_poly("2*m1^2*m2 - m1*m2^3")
    for xi in (Fraction(3, 7), 0.318):
        Q = scale(P, xi)
        got = double_sum(Q, 1, 6, 0, 5).value
        want = 0j
        for m1 in range(2, 7):
            for m2 in range(1, 6):
                want += cmath.exp(2j * math.pi * float(xi) * (2 * m1**2 * m2 - m1 * m2**3))
        assert abs(got - want) < 1e-9


def test_double_sum_conjugation():
    P = parse_poly("m1^2*m2^3 + m1*m2")
    pos = double_sum(scale(P, Fraction(2, 7)), 0, 5, 0, 5).value
    neg = double_sum(scale(P, Fraction(-2, 7)), 0, 5, 0, 5).value
    assert neg == pytest.approx(pos.conjugate(), abs=1e-12)


def test_double_sum_range_additivity():
    Q = scale(parse_poly("m1*m2^2"), Fraction(1, 5))
    whole = double_sum(Q, 0, 9, 0, 4).value
    split = double_sum(Q, 0, 6, 0, 4).value + double_sum(Q, 6, 9, 0, 4).value
    assert abs(whole - split) < 1e-12
    Qf = scale(parse_poly("m1*m2^2"), 0.2137)
    whole = double_sum(Qf, 0, 9, 0, 4).value
    split = double_sum(Qf, 0, 6, 0, 4).value + double_sum(Qf, 6, 9, 0, 4).value
    assert abs(whole - split) < 1e-10


def test_scale_periodicity_exact():
    P = parse_poly("m1^3*m2 + m1*m2^3")
    a = double_sum(scale(P, Fraction(2, 5)), 0, 6, 0, 6).value
    b = double_sum(scale(P, Fraction(2, 5) + 1), 0, 6, 0, 6).value
    assert a == b


def brute_dyadic(coeffs, points):
    """Per-term sum with each phase reduced mod 1 exactly: floats read as dyadic
    rationals, big-integer evaluation, Fraction mod 1, math.fsum."""
    fracs = {g: Fraction(c) for g, c in coeffs.items()}
    L = math.lcm(*(f.denominator for f in fracs.values()))
    ints = {g: f.numerator * (L // f.denominator) for g, f in fracs.items()}
    re, im = [], []
    for m1, m2 in points:
        t = sum(c * m1**g1 * m2**g2 for (g1, g2), c in ints.items())
        angle = 2 * math.pi * float(Fraction(t, L) % 1)
        re.append(math.cos(angle))
        im.append(math.sin(angle))
    return complex(math.fsum(re), math.fsum(im))


def test_float_error_budget_bounds_the_error():
    Q = scale(parse_poly("m1^3*m2^4 + m1*m2"), 0.1234567)
    got = double_sum(Q, 0, 200, 0, 200)
    want = brute_dyadic(Q.terms, [(m1, m2) for m1 in range(1, 201) for m2 in range(1, 201)])
    assert got.mode == "float"
    assert abs(got.value - want) <= got.error_budget
    # 1e-20 has denominator 2**119 > 2**64: the float tail of the wide kernel
    for xs in [(0.1, 0, 0, 0.3141), (0.3, 0, 1e-20)]:
        got = weyl_sum(xs, 5000)
        want = brute_dyadic({(0, i + 1): x for i, x in enumerate(xs)},
                            [(1, n) for n in range(1, 5001)])
        assert abs(got.value - want) <= got.error_budget


def test_wide_denominator_matches_int64_path():
    # L = 7 * 2**61 does not divide 2**64 and is past the int64 bound, so the
    # shifted sum takes the tail producer (uint64 wraparound with a float
    # tail) while the unshifted one stays on int64 residues mod L: two
    # algorithms
    Q = scale(parse_poly("m1^2*m2^3 + m1*m2"), Fraction(3, 7))
    k = 3**38
    shifted = RealPoly2({**Q.terms, (0, 0): Fraction(k, 2**61)})
    base = double_sum(Q, 0, 30, 0, 20).value
    got = double_sum(shifted, 0, 30, 0, 20)
    assert got.mode == "exact"
    want = cmath.exp(2j * math.pi * float(Fraction(k, 2**61))) * base
    assert abs(got.value - want) <= 1e-12 * got.term_count


_DYADIC_EDGES = {
    # name: (Q, box); each L divides 2**64, so the exact producer runs in uint64
    # L = 2**64 itself: the mask 2**64 - 1 keeps every wrapped residue
    "L_2_64": (RealPoly2({(2, 3): Fraction(123456789123456789, 2**64), (1, 1): 0.1234567}),
               (0, 12, 3, 40)),
    # integer coefficients: L = 1 and every residue is 0
    "L_1": (scale(parse_poly("m1^2*m2^3 + 3*m1*m2 - m1^3"), 7), (0, 12, 3, 40)),
}


@pytest.mark.parametrize("case", list(_DYADIC_EDGES))
def test_exact_producer_at_the_dyadic_edges(case):
    Q, (K1, M1, K2, M2) = _DYADIC_EDGES[case]
    form = expsum._integer_form(Q.terms)
    L = form[0]
    blocks = list(expsum._phase_blocks(form, K1, M1, K2, M2))
    assert all(b[1].dtype == np.uint64 and b[2] == L for b in blocks)
    # the residues are L*Q(m) mod L, each in [0, L)
    got = sorted(int(t) for _, x, _ in blocks for t in x.ravel())
    fracs = [(g, Fraction(c)) for g, c in Q.terms.items()]
    want = sorted(int(L * sum(f * m1**g1 * m2**g2 for (g1, g2), f in fracs)) % L
                  for m1 in range(K1 + 1, M1 + 1) for m2 in range(K2 + 1, M2 + 1))
    assert got == want
    value = double_sum(Q, K1, M1, K2, M2)
    terms = (M1 - K1) * (M2 - K2)
    if L == 1:
        assert value.value == terms
    else:
        brute = brute_dyadic(Q.terms, [(m1, m2) for m1 in range(K1 + 1, M1 + 1)
                                       for m2 in range(K2 + 1, M2 + 1)])
        assert abs(value.value - brute) <= value.error_budget


GOLDEN = golden_ratio_conjugate(192)


@pytest.mark.parametrize("k, N", [(8, 3000), (6, 20000), (4, 20000)])
def test_golden_weyl_matches_brute_force(k, N):
    # L is a 98-bit Fibonacci number; the float tail stays below 2**-12 of a
    # turn only because the row is cut into one-row tiles, each Taylor-shifted
    # to its origin (90 cells wide at k = 8, 8192 at k = 4)
    assert expsum._tile_shape([k], 1, N)[1] < N
    xs = (GOLDEN,) * k
    got = weyl_sum(xs, N)
    want = brute_dyadic({(0, i + 1): x for i, x in enumerate(xs)},
                        [(1, n) for n in range(1, N + 1)])
    assert got.mode == "exact"
    assert abs(got.value - want) <= N * FLOAT_TERM_BUDGET


def test_golden_double_sum_matches_brute_force():
    # K1, K2 > 0: the one tile is Taylor-shifted to its origin (20, 30)
    Q = scale(parse_poly("m1^2*m2^3 + m1*m2"), GOLDEN)
    got = double_sum(Q, 20, 60, 30, 110)
    want = brute_dyadic(Q.terms, [(m1, m2) for m1 in range(21, 61) for m2 in range(31, 111)])
    assert got.mode == "exact"
    assert abs(got.value - want) <= got.term_count * FLOAT_TERM_BUDGET


# ---------------------------------------------------------------------------
# The tail producer: tiles of bounded growth
# ---------------------------------------------------------------------------


def _down_closure(terms):
    return {(i, j) for g1, g2 in terms for i in range(g1 + 1) for j in range(g2 + 1)}


def _growth(terms, h, w):
    """The growth of an h x w tile: its offsets reach h and w (w alone for a
    one-row tile, whose offset u1 is 0)."""
    return sum(h**i * w**j for i, j in _down_closure(terms))


def _top(terms):
    """The down-closure by m1-exponent: its largest m2-exponent at each i."""
    d1 = max(g1 for g1, _ in terms)
    return [max(j for i2, j in _down_closure(terms) if i2 == i) for i in range(d1 + 1)]


_TILE_CASES = {
    # name: (Q, box, {BLOCK_CELLS: (path, bands or rows, column tiles)}); a
    # band of h <= m1-degree + 1 rows is cut into one-row tiles (h = 1)
    "tiles_2d": (scale(parse_poly("m1^7*m2^8 + 2*m1^3*m2 - m2^5"), GOLDEN), (5, 45, 7, 37),
                 {BLOCK_CELLS: ("rows", 40, 1), 64: ("tiles", 3, 4)}),
    "tiles_band": (scale(parse_poly("m1^6*m2^6 + m1*m2 - 3*m2^2"), GOLDEN), (9, 109, 4, 14),
                   {BLOCK_CELLS: ("tiles", 3, 1), 64: ("tiles", 3, 2)}),
    "m2_degree_8": (scale(parse_poly("m1*m2^8 + m1^2*m2 + 3*m1"), GOLDEN), (5, 13, 9, 209),
                    {BLOCK_CELLS: ("rows", 8, 3), 64: ("tiles", 1, 10)}),
    "m1_degree_8": (scale(parse_poly("m1^8*m2 + m1*m2^2 + 3*m2"), GOLDEN), (9, 209, 5, 13),
                    {BLOCK_CELLS: ("tiles", 3, 1), 64: ("tiles", 3, 2)}),
    "wide_q": (scale(parse_poly("m1^8*m2^8 + m1*m2"), Fraction(987654321, 2**61 - 1)),
               (0, 10, 3, 153), {BLOCK_CELLS: ("rows", 10, 2), 64: ("tiles", 1, 22)}),
    # degree 64: one-row tiles, which keep only the m1-exponent 0, and tiles
    # one column wide
    "m1_degree_64": (scale(parse_poly("m1^64*m2 + m1*m2^2"), GOLDEN), (3, 13, 5, 45),
                     {BLOCK_CELLS: ("rows", 10, 1), 64: ("rows", 10, 40)}),
    "m2_degree_64": (scale(parse_poly("m1*m2^64 + m1^2*m2"), GOLDEN), (2, 42, 3, 13),
                     {BLOCK_CELLS: ("tiles", 1, 10), 64: ("tiles", 1, 10)}),
    # one row without m1 over several one-row tiles
    "long_row": (scale(parse_poly("m2^8 + 3*m2^3 - m2"), GOLDEN), (4, 5, 7, 1007),
                 {BLOCK_CELLS: ("rows", 1, 12), 64: ("rows", 1, 16)}),
    # far from the origin: the shift reduces coordinates near 10**18 mod L
    "far_box": (scale(parse_poly("m1^2*m2^3 + m1*m2"), GOLDEN),
                (10**15, 10**15 + 30, 10**18, 10**18 + 40),
                {BLOCK_CELLS: ("tiles", 1, 1), 64: ("tiles", 1, 2)}),
}


@pytest.mark.parametrize("block_cells", [BLOCK_CELLS, 7, 64])
@pytest.mark.parametrize("case", list(_TILE_CASES))
def test_tail_tiles_match_per_cell_oracle(monkeypatch, case, block_cells):
    # boxes that need several tiles, against one Fraction phase per cell;
    # small blocks also narrow the tiles to BLOCK_CELLS // (m1-degree + 1)
    monkeypatch.setattr(expsum, "BLOCK_CELLS", block_cells)
    Q, (K1, M1, K2, M2), tiles = _TILE_CASES[case]
    n1, n2 = M1 - K1, M2 - K2
    d1 = max(g1 for g1, _ in Q.terms)
    h, w = expsum._tile_shape(_top(Q.terms), n1, n2)
    path = "rows" if h == 1 else "tiles"
    assert _growth(Q.terms, h if path == "tiles" else 0, w) <= 2**52
    assert w <= max(1, block_cells // (d1 + 1))
    if block_cells in tiles:
        assert (path, -(-n1 // h) if path == "tiles" else n1, -(-n2 // w)) == tiles[block_cells]
    # every cell once, in blocks of at most BLOCK_CELLS
    sizes = [x.size for _, x, _ in expsum._phase_blocks(expsum._integer_form(Q.terms), K1, M1, K2, M2)]
    assert sum(sizes) == n1 * n2 and max(sizes) <= block_cells
    got = double_sum(Q, K1, M1, K2, M2)
    want = brute_dyadic(Q.terms, [(m1, m2) for m1 in range(K1 + 1, M1 + 1)
                                  for m2 in range(K2 + 1, M2 + 1)])
    assert got.mode == "exact"
    assert abs(got.value - want) <= got.error_budget


def test_tail_tile_at_its_growth_bound(monkeypatch):
    # m1*m2 has growth (1 + h)(1 + w): on one column (w = 1) a tile of
    # 2**51 - 1 rows has growth 2**52 exactly and one of 2**51 rows 2**52 +
    # 2, so a box of 2**51 rows takes the shorter tiles
    assert expsum._tile_shape([1, 1], 2**51 - 1, 1) == (2**51 - 1, 1)
    assert expsum._tile_shape([1, 1], 2**51, 1) == (2**51 - 1, 1)
    # m1 + m2 has growth 1 + h + w: a box of growth 2**52 is one tile, one
    # of 2**52 + 1 is not, and its tiles stay within the bound
    n1 = 2**52 - 101
    assert expsum._tile_shape([1, 0], n1, 100) == (n1, 100)
    h, w = expsum._tile_shape([1, 0], n1 + 1, 100)
    assert h < n1 + 1 and 1 + h + w <= 2**52
    # a one-row tile's row at u1 = 0: 1 + w for m2 + m1^2, 2**52 exactly at
    # w = 2**52 - 1 (with no cap from BLOCK_CELLS), one less than a box of
    # 2**52 columns; at m1-degree 2 a box of 3 rows or fewer takes one-row
    # tiles (h = 1)
    monkeypatch.setattr(expsum, "BLOCK_CELLS", 2**62)
    assert expsum._tile_shape([1, 0, 0], 3, 2**52 - 1) == (1, 2**52 - 1)
    assert expsum._tile_shape([1, 0, 0], 3, 2**52) == (1, 2**52 - 1)


@pytest.mark.parametrize("K1, K2", [(0, 0), (5, 9)])
def test_tail_segments_at_their_largest_tail(K1, K2):
    # m2^51 + m1: one-row tiles 2 cells wide, whose row growth 1 + 2 + ... +
    # 2**51 = 2**52 - 1 is the largest any width reaches below the bound (3
    # cells pass it), so the float tail is near its 2**-12 of a turn; against
    # one Fraction phase per cell
    Q = scale(parse_poly("m2^51 + m1"), GOLDEN)
    assert expsum._tile_shape(_top(Q.terms), 3, 7) == (1, 2)
    assert _growth(Q.terms, 0, 2) == 2**52 - 1 < 2**52 < _growth(Q.terms, 0, 3)
    got = double_sum(Q, K1, K1 + 3, K2, K2 + 7)
    want = brute_dyadic(Q.terms, itertools.product(range(K1 + 1, K1 + 4), range(K2 + 1, K2 + 8)))
    assert abs(got.value - want) <= got.error_budget


def test_double_sum_abs_examples():
    zero = scale(parse_poly("m1*m2"), 0)
    assert double_sum_abs(zero, 0, 3, 0, 5) == pytest.approx(15)
    half = scale(parse_poly("m1*m2"), Fraction(1, 2))
    assert double_sum_abs(half, 0, 2, 0, 2, outer_axis=1) == pytest.approx(2)


def _per_row_oracle(Q, K1, M1, K2, M2, axis):
    """The outer sum of |inner sums|, one double_sum (histogram reduction) a row."""
    if axis == 1:
        rows = (double_sum(Q, m1 - 1, m1, K2, M2) for m1 in range(K1 + 1, M1 + 1))
    else:
        rows = (double_sum(Q, K1, M1, m2 - 1, m2) for m2 in range(K2 + 1, M2 + 1))
    return math.fsum(abs(v.value) for v in rows)


_ABS_P = parse_poly("m1^2*m2^3 + 3*m1*m2 - m1^3")
# The largest L with 65 * L**2 < 2**63 (_histogram_peak, the one int64 bound
# on residues); it and L + 1 are not powers of two
_INT64_TOP = 376_693_550
_ABS_CASES = {
    # name: (Q, box of the inner axis-1 sums, phase producer); a dyadic L takes
    # the exact producer (uint64), any other L the exact producer (int64)
    # up to _INT64_TOP and the tail producer past it
    "int64": (scale(_ABS_P, Fraction(5, 4093)), (3, 17, 2, 23), "exact"),
    "int64_q_2_16": (scale(_ABS_P, Fraction(12345, 2**16)), (0, 11, 0, 70), "exact"),
    "dyadic": (scale(_ABS_P, 0.1234567), (2, 12, 5, 30), "exact"),
    "tail": (scale(_ABS_P, Fraction(123456789123, 2**61 - 1)), (2, 14, 1, 40), "tail"),
    # m2-degree 8: a one-row tail tile holds at most 90 cells, so rows of 150 wrap
    "tail_segments": (scale(parse_poly("m1*m2^8 + m1^2*m2"), Fraction(987654321, 2**61 - 1)),
                      (0, 5, 0, 150), "tail"),
    # columns near 10**18, far past 2**63 / L: the int64 producer reduces them first
    "guard_below": (scale(_ABS_P, Fraction(5, 4093)), (0, 6, 10**18, 10**18 + 20), "exact"),
    "guard_at": (scale(_ABS_P, Fraction(123456789, _INT64_TOP)), (0, 6, 30, 50), "exact"),
    "guard_past_tail": (scale(_ABS_P, Fraction(987654323, _INT64_TOP + 1)), (0, 6, 30, 50),
                        "tail"),
    # one row over 12 one-row tiles: its partials all go to row 0
    "tail_long_row": (scale(parse_poly("m2^8 + 3*m2^3"), Fraction(987654321, 2**61 - 1)),
                      (4, 5, 7, 1007), "tail"),
    # 40 one-row tiles, and at BLOCK_CELLS = 64 3 x 4 tiles away from the
    # origin: rows spread over column tiles, and the bands' offsets place
    # each row's partials
    "tail_tiles_2d": (scale(parse_poly("m1^7*m2^8 + m1*m2^2"), Fraction(987654321, 2**61 - 1)),
                      (3, 43, 2, 32), "tail"),
    # three tall tiles of 8 columns stacked into one chunk: each tile's rows
    # go to their own offsets
    "tail_stacked_tiles": (scale(parse_poly("m1^8*m2 + m1*m2^2"), Fraction(987654321, 2**61 - 1)),
                           (9, 209, 5, 13), "tail"),
    "one_column": (scale(_ABS_P, Fraction(5, 4093)), (0, 9, 6, 7), "exact"),
    "one_column_wrapped": (scale(_ABS_P, 0.1234567), (0, 9, 6, 7), "exact"),
    "no_rows": (scale(_ABS_P, Fraction(5, 4093)), (3, 3, 0, 5), None),
    "no_columns": (scale(_ABS_P, 0.1234567), (0, 5, 4, 4), None),
}


@pytest.mark.parametrize("case", ["guard_below", "guard_at", "guard_past_tail"])
def test_producers_at_the_int64_bound(case):
    # int64 below the bound 65 * L**2 < 2**63 (columns near 10**18) and at
    # it, the tail just past it, against a per-cell sum in big integers; on
    # the int64 side every block holds the exact residues
    Q, (K1, M1, K2, M2), path = _ABS_CASES[case]
    form = expsum._integer_form(Q.terms)
    L = form[0]
    assert L & (L - 1)                  # not dyadic, so L alone picks the path
    assert (expsum._histogram_peak(L) < 2**63) == (path == "exact")
    assert expsum._histogram_peak(_INT64_TOP) < 2**63 <= expsum._histogram_peak(_INT64_TOP + 1)
    cells = [(m1, m2) for m1 in range(K1 + 1, M1 + 1) for m2 in range(K2 + 1, M2 + 1)]
    blocks = list(expsum._phase_blocks(form, K1, M1, K2, M2))
    if path == "exact":
        assert all(b[1].dtype == np.int64 and b[2] == L for b in blocks)
        fracs = [(g, Fraction(c)) for g, c in Q.terms.items()]
        want = sorted(int(L * sum(f * m1**g1 * m2**g2 for (g1, g2), f in fracs)) % L
                      for m1, m2 in cells)
        assert sorted(int(t) for _, x, _ in blocks for t in x.ravel()) == want
    else:
        assert all(b[2] is None for b in blocks)
    value = double_sum(Q, K1, M1, K2, M2)
    assert abs(value.value - brute_dyadic(Q.terms, cells)) <= value.error_budget


@pytest.mark.parametrize("block_cells", [BLOCK_CELLS, 7, 64])
@pytest.mark.parametrize("case", list(_ABS_CASES))
def test_double_sum_abs_matches_per_row_oracle(monkeypatch, case, block_cells):
    # direct trig per cell against one histogram-reduced double_sum per row;
    # small blocks spread a row over several column blocks or tiles and
    # put several rows in one block
    monkeypatch.setattr(expsum, "BLOCK_CELLS", block_cells)
    Q, (K1, M1, K2, M2), path = _ABS_CASES[case]
    paths = []

    def spy(name, blocks):
        def run(*args):
            paths.append(name)
            return blocks(*args)
        return run

    with monkeypatch.context() as m:
        m.setattr(expsum, "_residue_blocks", spy("exact", expsum._residue_blocks))
        m.setattr(expsum, "_tail_phase_blocks", spy("tail", expsum._tail_phase_blocks))
        got = [double_sum_abs(Q, K1, M1, K2, M2, 1),
               double_sum_abs(transpose(Q), K2, M2, K1, M1, 2)]
    assert paths == ([path] * 2 if path else [])
    terms = (M1 - K1) * (M2 - K2)
    want = [_per_row_oracle(Q, K1, M1, K2, M2, 1),
            _per_row_oracle(transpose(Q), K2, M2, K1, M1, 2)]
    for g, w in zip(got, want):
        assert abs(g - w) <= 2 * terms * FLOAT_TERM_BUDGET
    if not terms:
        assert got == [0.0, 0.0]


def test_double_sum_abs_runs_no_per_row_kernel(monkeypatch):
    calls = []
    kernel = expsum._lattice_phase_sum
    monkeypatch.setattr(expsum, "_lattice_phase_sum", lambda *a: calls.append(a) or kernel(*a))
    for Q in (scale(_ABS_P, Fraction(5, 4093)), scale(_ABS_P, 0.1234567),
              scale(_ABS_P, Fraction(123456789123, 2**61 - 1))):
        for axis in (1, 2):
            assert double_sum_abs(Q, 0, 12, 0, 15, axis) > 0
    assert calls == []


def test_triangle_domination(rng):
    for _ in range(20):
        P = parse_poly("m1^2*m2 + m1*m2^2")
        xi = Fraction(rng.randint(1, 30), 31)
        Q = scale(P, xi)
        s = abs(double_sum(Q, 0, 6, 0, 7).value)
        assert s <= double_sum_abs(Q, 0, 6, 0, 7, 1) + 1e-10
        assert s <= double_sum_abs(Q, 0, 6, 0, 7, 2) + 1e-10


def test_modulus_within_budget_invariant():
    v = weyl_sum([0.123456], 5000)
    assert abs(v.value) <= v.term_count + v.error_budget


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40),
       st.fractions(min_value=0, max_value=1, max_denominator=64))
def test_double_sum_modulus_bound(m1, m2, xi):
    v = double_sum(scale(parse_poly("m1*m2"), xi), 0, m1, 0, m2)
    assert abs(v.value) <= v.term_count + 1e-9


# ---------------------------------------------------------------------------
# Box sums: the histogram of a dense box, the row sums of a sparse one
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _per_cell_oracle(terms, K1, M1, K2, M2):
    """The box sum of e(Q) for Q with these (exponent, Fraction) terms, with
    one poly.evaluate per cell in big integers and the residues summed by
    residue_sum (a sort, through libm): no power table, no histogram, no
    period, no table kernel."""
    fracs = dict(terms)
    L = math.lcm(*(f.denominator for f in fracs.values()))
    P = Poly2({g: int(f * L) for g, f in fracs.items()})
    return residue_sum([evaluate(P, (m1, m2)) % L for m1 in range(K1 + 1, M1 + 1)
                        for m2 in range(K2 + 1, M2 + 1)], L)


def _check_box(Q, K1, M1, K2, M2):
    got = double_sum(Q, K1, M1, K2, M2)
    terms = tuple(sorted((g, Fraction(c)) for g, c in Q.terms.items()))
    assert abs(got.value - _per_cell_oracle(terms, K1, M1, K2, M2)) <= got.error_budget


def _check_weyl(xs, N):
    got = weyl_sum(xs, N)
    terms = tuple((g, Fraction(x)) for g, x in (((0, i + 1), x) for i, x in enumerate(xs)))
    assert abs(got.value - _per_cell_oracle(terms, 0, 1, 0, N)) <= got.error_budget


@pytest.fixture
def routes(monkeypatch):
    """Spies on the box sums: "histogram" per dense box, "blocks" per sparse
    one (its row sums); cells and dtypes of every block the producer yields."""
    seen = {"route": [], "cells": [], "dtypes": set()}
    hist, rows, blocks = expsum._box_histogram, expsum._lattice_row_sums, expsum._residue_blocks

    def produce(*args):
        for b in blocks(*args):
            seen["cells"].append(b[1].size)
            seen["dtypes"].add(b[1].dtype)
            yield b

    monkeypatch.setattr(expsum, "_box_histogram", lambda *a: seen["route"].append("histogram")
                        or hist(*a))
    monkeypatch.setattr(expsum, "_lattice_row_sums", lambda *a: seen["route"].append("blocks")
                        or rows(*a))
    monkeypatch.setattr(expsum, "_residue_blocks", produce)
    return seen


@pytest.mark.parametrize("block_cells", [BLOCK_CELLS, 7, 64])
def test_box_route_follows_the_cell_count(monkeypatch, routes, block_cells):
    # 4 x 5 boxes and 20-term Weyl sums: L = cells - 1 and cells take the
    # histogram, L = cells + 1 the row sums
    monkeypatch.setattr(expsum, "BLOCK_CELLS", block_cells)
    for L, route in ((19, "histogram"), (20, "histogram"), (21, "blocks")):
        routes["route"].clear()
        _check_box(scale(_ABS_P, Fraction(11, L)), 2, 6, 3, 8)
        _check_weyl((Fraction(11, L), Fraction(3, L)), 20)
        assert set(routes["route"]) == {route}, L


@pytest.mark.parametrize("block_cells", [BLOCK_CELLS, 7, 64])
@pytest.mark.parametrize("L", [7, 64])
def test_box_histogram_counts_each_period_once(monkeypatch, routes, block_cells, L):
    # sides L - 1, L, L + 1 and 2L + 1 on each axis, away from the origin:
    # only the first L rows and columns are produced, weighted by the
    # periods they stand for; L = 7 runs int64 residues, L = 64 uint64 ones
    # counted through an int64 view
    monkeypatch.setattr(expsum, "BLOCK_CELLS", block_cells)
    Q = scale(_ABS_P, Fraction(3, L))
    sides = (L - 1, L, L + 1, 2 * L + 1)
    for n1, n2 in itertools.product(sides, sides):
        routes["cells"].clear()
        _check_box(Q, 5, 5 + n1, 11, 11 + n2)
        assert sum(routes["cells"]) == min(n1, L) * min(n2, L)
    assert set(routes["route"]) == {"histogram"}
    for N in sides:                     # N = L - 1 < L is a sparse box
        routes["route"].clear()
        _check_weyl((Fraction(5, L), Fraction(3, L)), N)
        assert set(routes["route"]) == {"histogram" if N >= L else "blocks"}
    assert routes["dtypes"] == {np.dtype(np.int64 if L == 7 else np.uint64)}


def test_box_route_at_the_bin_cap(monkeypatch, routes):
    # a 7 x 9 box with the cap at 40 bins: L = cap is read from its
    # histogram, L = cap + 1 by its row sums
    monkeypatch.setattr(expsum, "HISTOGRAM_BINS", 40)
    for L, route in ((40, "histogram"), (41, "blocks")):
        routes["route"].clear()
        _check_box(scale(_ABS_P, Fraction(11, L)), 1, 8, 2, 11)
        assert set(routes["route"]) == {route}


def test_weyl_sum_at_the_real_bin_cap(routes):
    # sum over n <= L of e(a*n/L) is exactly 0 for a coprime to L: at L =
    # HISTOGRAM_BINS = N the box is read from its histogram, one bin more
    # and it is summed block by block
    for L, route in ((HISTOGRAM_BINS, "histogram"), (HISTOGRAM_BINS + 1, "blocks")):
        routes["route"].clear()
        v = weyl_sum((Fraction(12345, L),), L)
        assert abs(v.value) <= v.error_budget
        assert set(routes["route"]) == {route}


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_sparse_box_within_budget_of_mpmath(monkeypatch, dtype):
    # a seeded polynomial with L above the 170 x 64 box's 10,880 cells: int64
    # residues for L in (cells, 10**8), uint64 for L a power of two up to
    # 2**64.  With blocks of 4,096 cells the box is three blocks of 4,096,
    # 4,096 and 2,688 cells, each past _E_MIN, so every cell's phase t/L
    # goes through the table kernel; against e(t/L) summed in mpmath at 30
    # digits over the residues of one big-integer evaluation per cell
    mp = pytest.importorskip("mpmath")
    rnd = random.Random(31 + (dtype is np.uint64))
    L = 2 ** rnd.randint(14, 64) if dtype is np.uint64 else rnd.randrange(10**6, 10**8)
    P = Poly2({(rnd.randint(0, 3), rnd.randint(1, 3)): rnd.randrange(1, L) for _ in range(4)})
    Q = RealPoly2({g: Fraction(c, L) for g, c in P.terms.items()})
    K1, M1, K2, M2 = 7, 177, 3, 67
    monkeypatch.setattr(expsum, "BLOCK_CELLS", 4096)
    blocks, kernel = [], []
    produce, e = expsum._residue_blocks, expsum._e
    monkeypatch.setattr(expsum, "_residue_blocks", lambda *a: (
        blocks.append((b[1].size, b[1].dtype)) or b for b in produce(*a)))
    monkeypatch.setattr(expsum, "_e", lambda x: kernel.append(x.size) or e(x))
    got = double_sum(Q, K1, M1, K2, M2)
    assert expsum._integer_form(Q.terms)[0] == L > got.term_count
    assert blocks == [(4096, dtype), (4096, dtype), (2688, dtype)]
    assert kernel == [4096, 4096, 2688] and min(kernel) > expsum._E_MIN
    mp.mp.dps = 30
    want = mp.fsum(mp.expjpi(mp.mpf(2 * (evaluate(P, (m1, m2)) % L)) / L)
                   for m1 in range(K1 + 1, M1 + 1) for m2 in range(K2 + 1, M2 + 1))
    assert abs(got.value - complex(want)) <= got.error_budget


# ---------------------------------------------------------------------------
# The exact-split sum against math.fsum
# ---------------------------------------------------------------------------


def _assert_rows_match_fsum(x, W):
    want = [math.fsum(row) for row in x.tolist()]
    got = expsum._split_sum(x.copy(), W)
    for g, w in zip(got, want):
        assert abs(g - w) <= math.ulp(w)


def _cancelling_rows(n, tiny, seed):
    # n // 2 pairs +-x in random order and one remainder tiny: the exact sum
    # is tiny, far below the split sum's lo rounding
    r = np.random.default_rng(seed)
    half = r.uniform(-1.0, 1.0, (2, n // 2))
    x = np.concatenate([half, -half, np.full((2, n - 2 * (n // 2)), tiny)], axis=1)
    return r.permuted(x, axis=1)


@pytest.mark.parametrize("n, tiny", [(1001, 1e-20), (4097, 2.0**-60), (BLOCK_CELLS + 1, 5e-324)])
def test_split_sum_heavy_cancellation(n, tiny):
    x = _cancelling_rows(n, tiny, n)
    assert [math.fsum(row) for row in x.tolist()] == [tiny, tiny]
    _assert_rows_match_fsum(x, n)


def test_split_sum_at_its_bound():
    # the absolute sum is W, and sorted rows add every negative term before
    # any positive one, so the hi partial sums climb to about k*W/2 before
    # they cancel; a larger k would round them
    W, n = 2**15 - 1, BLOCK_CELLS
    x = np.random.default_rng(5).uniform(-1.0, 1.0, (2, n))
    x *= W / np.abs(x).sum(axis=1, keepdims=True) * (1 - 1e-12)
    _assert_rows_match_fsum(np.sort(x, axis=1), W)


def test_split_sum_subnormal_and_zero_rows():
    r = np.random.default_rng(7)
    sub = r.integers(-2**40, 2**40, 1000) * 5e-324          # every term subnormal
    _assert_rows_match_fsum(np.stack([sub, np.abs(sub)]), 1000)
    assert expsum._split_sum(np.zeros((2, 1000)), 1000).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("n", [1, 2, 3, 95, 96, 97])
def test_split_sum_short_rows(n):
    # every row length takes the split, down to a single term
    x = np.random.default_rng(n).uniform(-1.0, 1.0, (2, n)) * 3
    _assert_rows_match_fsum(x, 3 * n)


def test_split_sum_of_a_full_residue_block():
    # a block of BLOCK_CELLS residues: counts summing to W, terms count * cos/sin
    r = np.random.default_rng(11)
    W = BLOCK_CELLS
    counts = np.bincount(r.integers(0, 3000, W), minlength=3000)
    counts = counts[counts > 0]
    assert counts.sum() == W
    phase = r.uniform(0.0, 1.0, counts.size)
    angle = math.tau * phase
    x = np.stack([counts * np.cos(angle), counts * np.sin(angle)])
    _assert_rows_match_fsum(x, W)
    want = complex(math.fsum(x[0].tolist()), math.fsum(x[1].tolist()))
    got = expsum._sum_e(phase, counts, W)
    assert abs(got.real - want.real) <= math.ulp(want.real)
    assert abs(got.imag - want.imag) <= math.ulp(want.imag)


@pytest.mark.parametrize("n", [1, expsum._SHORT_SUM, expsum._SHORT_SUM + 1, 500])
def test_sum_e_paths_within_their_rounding(monkeypatch, n):
    # up to _SHORT_SUM terms math.fsum in Python, past it _split_sum; each
    # against the exact sum of count * cos and count * sin of the angles
    # 2*pi*phase that _sum_e forms: at most 4 ulp from cos or sin (below 1),
    # u from the product and 3u from the sum, per unit of count
    split = []
    kernel = expsum._split_sum
    monkeypatch.setattr(expsum, "_split_sum", lambda *a: split.append(a) or kernel(*a))
    r = np.random.default_rng(n)
    phase = r.uniform(0.0, 1.0, n)
    counts = r.integers(1, 100, n)
    W = int(counts.sum())
    got = expsum._sum_e(phase, counts, W)
    angle = math.tau * phase
    want = [float(sum(Fraction(int(c)) * Fraction(f(a)) for c, a in zip(counts, angle.tolist())))
            for f in (math.cos, math.sin)]
    assert bool(split) == (n > expsum._SHORT_SUM)
    assert abs(got.real - want[0]) <= 8 * W * 2.0**-53
    assert abs(got.imag - want[1]) <= 8 * W * 2.0**-53


U = 2.0**-53
# Per-component bounds against e(x): the table kernel's (expsum._e) for any
# phase, and the libm path's (expsum._cis) on phases in [-1/2, 1), where the
# angle 2*pi*x is off by at most 8u and cos and sin add 4 ulp (the comment
# above FLOAT_TERM_BUDGET).
_E_BOUND = 1.54 * U
_CIS_BOUND = 12 * U


def _cos_sin_2pi(mp, x):
    """cos and sin of 2*pi*x for the exact float x, each as a double-double
    (hi, lo) array pair from mpmath."""
    mp.mp.prec = 160
    parts = []
    for f in (mp.cospi, mp.sinpi):
        v = [f(2 * mp.mpf(float(t))) for t in x.tolist()]
        hi = [float(t) for t in v]
        parts.append((np.array(hi), np.array([float(t - h) for t, h in zip(v, hi)])))
    return parts


@pytest.fixture(scope="module")
def e_phases():
    """(x, (cos, sin), moderate): 13,152 phases with their e(x) from mpmath,
    and the mask of those in [-1/2, 1): random ones in [-1/2, 1), random
    sizes up to 2**40 turns, the multiples of 1/1024 in [-1, 2) and the
    ties halfway between them, +-0, subnormals, the least normal and +-1/2."""
    mp = pytest.importorskip("mpmath")
    r = np.random.default_rng(30)
    steps = np.arange(-1024, 2048) / 1024
    x = np.concatenate([r.uniform(-0.5, 1.0, 5000),
                        r.uniform(-1.0, 1.0, 2000) * 2.0 ** r.integers(0, 41, 2000),
                        steps, steps + 1 / 2048,
                        [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 0.5, -0.5]])
    return x, _cos_sin_2pi(mp, x), (x >= -0.5) & (x < 1.0)


def _e_error(z, ref):
    """Largest error of each component of z against double-double references."""
    return [float(np.max(np.abs((c - hi) - lo))) for c, (hi, lo) in zip(z, ref)]


def test_e_table_entries_within_u():
    # the bound of _e assumes every table entry within u of the exact value
    mp = pytest.importorskip("mpmath")
    j = np.arange(expsum._E_STEPS) / expsum._E_STEPS
    err = _e_error((expsum._E_COS, expsum._E_SIN), _cos_sin_2pi(mp, j))
    assert max(err) <= U


def test_e_within_its_bound_on_every_kind_of_phase(monkeypatch, e_phases):
    x, ref, _ = e_phases
    libm = []
    cis = expsum._cis
    monkeypatch.setattr(expsum, "_cis", lambda p: libm.append(p.size) or cis(p))
    z = expsum._e(x)
    assert libm == []
    assert max(_e_error(z, ref)) <= _E_BOUND
    # the zero phases give exactly e(0) = 1
    assert (z[0, x == 0] == 1).all() and (z[1, x == 0] == 0).all()


@pytest.mark.parametrize("shape", [
    (1,), (expsum._E_MIN - 1,), (expsum._E_MIN,), (BLOCK_CELLS - 1,), (BLOCK_CELLS,),
    (BLOCK_CELLS + 1,), (2, 1023), (3, 700), (129, 131),
])
def test_e_sizes_and_shapes(monkeypatch, e_phases, shape):
    # below _E_MIN phases libm, from it the table; slices of _E_SLICE
    x, (c, s), moderate = e_phases
    pick = np.flatnonzero(moderate)[np.arange(math.prod(shape)) % np.count_nonzero(moderate)]
    libm = []
    cis = expsum._cis
    monkeypatch.setattr(expsum, "_cis", lambda p: libm.append(p.size) or cis(p))
    z = expsum._e(x[pick].reshape(shape))
    assert z.shape == (2,) + shape
    small = pick.size < expsum._E_MIN
    assert libm == ([pick.size] if small else [])
    ref = [(hi[pick], lo[pick]) for hi, lo in (c, s)]
    assert max(_e_error(z.reshape(2, -1), ref)) <= (_CIS_BOUND if small else _E_BOUND)


def test_residue_table_built_once_per_box(monkeypatch):
    # 5/4093 on 200 x 200 runs as blocks of 81, 81 and 38 rows of 200, each
    # of at least L cells, so each reads the L-entry table: one build serves
    # all three, and the sum is the one a build per block gives, to the bit
    Q = scale(parse_poly("m1^2*m2^3"), Fraction(5, 4093))
    builds = []
    cis = expsum._cis
    monkeypatch.setattr(expsum, "_cis", lambda p: builds.append(p.size) or cis(p))
    expsum._residue_table.cache_clear()
    got = expsum.double_sum_abs(Q, 0, 200, 0, 200)
    assert builds == [4093]
    monkeypatch.setattr(expsum, "_residue_table", expsum._residue_table.__wrapped__)
    builds.clear()
    assert expsum.double_sum_abs(Q, 0, 200, 0, 200) == got
    assert builds == [4093] * 3


@pytest.mark.parametrize("dtype, L, shape", [
    (np.int64, 60 * 70, (60, 70)),          # L = cells: the L-entry table
    (np.int64, 60 * 70 + 1, (60, 70)),      # L = cells + 1: the table kernel
    (np.uint64, 1 << 12, (64, 64)),         # dyadic, L = cells
    (np.uint64, 1 << 12, (63, 65)),         # dyadic, L = cells + 1
])
def test_row_sums_of_exact_residues_read_an_L_entry_table(monkeypatch, dtype, L, shape):
    h, w = shape
    x = np.random.default_rng(L + h).integers(0, L, shape).astype(dtype)
    kernel = []
    e = expsum._e
    monkeypatch.setattr(expsum, "_e", lambda p: kernel.append(p.size) or e(p))
    r, got = expsum._block_row_sums(range(h), x, L)
    want = expsum._split_sum(expsum._cis(x / L).reshape(2 * h, w), w).reshape(2, h)
    assert r == range(h)
    if L <= x.size:
        assert kernel == []
        assert got.tobytes() == want.tobytes()
    else:
        assert kernel == [x.size]
        assert np.max(np.abs(got - want)) <= 2 * w * FLOAT_TERM_BUDGET
