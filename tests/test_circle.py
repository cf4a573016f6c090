import cmath
import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from newton_circle import circle, complete, ergodic, expsum, suites
from newton_circle.arith import golden_ratio_conjugate

from newton_circle.circle import (
    arc_classify,
    continuous_multiplier,
    cutoff_eta,
    discrete_multiplier,
    discrete_multiplier_direct,
    discrete_multiplier_grid,
    major_approximant,
    partial_approx_error,
    projection_multiplier,
)
from newton_circle.complete import WorkCapExceeded, gauss_sum
from newton_circle.expsum import double_sum
from newton_circle.iw import IWParams
from newton_circle.newton import build_diagram
from newton_circle.poly import Poly2, evaluate, parse_poly, pin, scale, transpose
from newton_circle.suites import random_nondegenerate_poly
from test_expsum import _per_cell_oracle


@pytest.fixture(scope="module")
def mixed():
    return parse_poly("m1*m2")


@pytest.fixture(scope="module")
def single_diagram():
    return build_diagram(parse_poly("m1^2*m2^3"))


def test_discrete_multiplier_examples(mixed):
    assert discrete_multiplier(mixed, Fraction(0), 4, 4, 2) == pytest.approx(1)
    assert discrete_multiplier(mixed, Fraction(1, 2), 2, 2, 2) == pytest.approx(1)
    P = parse_poly("m1^3*m2 + m1*m2^3")
    a = discrete_multiplier(P, Fraction(2, 9), 8, 8, 2)
    b = discrete_multiplier(P, Fraction(2, 9) + 1, 8, 8, 2)
    assert a == b


@pytest.mark.parametrize("n", [12, 1000])
def test_multiplier_grid_matches_scalar(n):
    # DFT of the residue histogram against the lattice kernel, at every i/n;
    # where i/n reduces to at most the box's cells both read the same
    # histogram, so the scalar kernel is held to the direct sum as well
    cases = [(parse_poly("m1^2*m2^3"), 8, 8, 2),
             (random_nondegenerate_poly(random.Random(n)), 10, 7, Fraction(3, 2))]
    for P, M1, M2, tau in cases:
        grid = discrete_multiplier_grid(P, n, M1, M2, tau)
        direct = discrete_multiplier_direct(P, range(n), n, M1, M2, tau)
        assert grid.shape == (n,)
        for i, (v, d) in enumerate(zip(grid.tolist(), direct.tolist())):
            scalar = discrete_multiplier(P, Fraction(i, n), M1, M2, tau)
            assert abs(v - scalar) <= 1e-12
            assert abs(d - scalar) <= 1e-14


def test_multiplier_grid_guards(mixed, monkeypatch):
    with pytest.raises(ValueError):
        discrete_multiplier_grid(mixed, 0, 8, 8, 2)
    with pytest.raises(WorkCapExceeded):
        discrete_multiplier_grid(mixed, 12, 10**5, 10**5, 2)
    # a large n is only as much work as its n bins and DFT: 2**21 bins run
    n = 2**21
    grid = discrete_multiplier_grid(mixed, n, 8, 8, 2)
    numerators = (0, 1, 12345, n // 2, n - 1)
    # 0 and n/2 reduce to 1 and 2 bins, read from the same histogram as the
    # grid's, so the direct sum checks the scalar kernel too
    direct = discrete_multiplier_direct(mixed, numerators, n, 8, 8, 2)
    for i, d in zip(numerators, direct.tolist()):
        scalar = discrete_multiplier(mixed, Fraction(i, n), 8, 8, 2)
        assert abs(grid[i] - scalar) <= 1e-12
        assert abs(d - scalar) <= 1e-14

    def refuse(*args):
        raise AssertionError("histogram built before the work cap")

    # the n bins count towards the cap, checked before anything is allocated
    monkeypatch.setattr(circle, "_box_histogram", refuse)
    with pytest.raises(WorkCapExceeded):
        discrete_multiplier_grid(mixed, complete.WORK_CAP_CELLS + 1, 8, 8, 2)


@pytest.mark.parametrize("n", [1, 12, 97])
def test_direct_multiplier_matches_scalar(mixed, n):
    rng = random.Random(n)
    cases = [(mixed, 8, 8, 2), (random_nondegenerate_poly(rng), 8, 8, 2),
             (random_nondegenerate_poly(rng), 10, 7, Fraction(3, 2))]
    a = range(-2 * n, 2 * n)  # negative numerators and a >= n included
    for P, M1, M2, tau in cases:
        direct = discrete_multiplier_direct(P, a, n, M1, M2, tau)
        assert direct.shape == (4 * n,)
        for k, v in zip(a, direct.tolist()):
            assert abs(v - discrete_multiplier(P, Fraction(k, n), M1, M2, tau)) <= 1e-14


def test_direct_multiplier_matches_grid():
    n = 1000
    i = np.arange(n)
    for P in (parse_poly("m1^2*m2^3"), random_nondegenerate_poly(random.Random(3))):
        grid = discrete_multiplier_grid(P, n, 8, 8, 2)
        assert np.abs(discrete_multiplier_direct(P, i, n, 8, 8, 2) - grid).max() <= 1e-14
        assert np.abs(discrete_multiplier_direct(P, -i, n, 8, 8, 2) - grid.conj()).max() <= 1e-14


class _Frequencies:
    """A count of numerators that are never materialised."""

    def __init__(self, count):
        self.count = count

    def __len__(self):
        return self.count

    def __iter__(self):
        raise AssertionError("numerators read before the work cap")


def test_direct_multiplier_guards(mixed, monkeypatch):
    with pytest.raises(ValueError):
        discrete_multiplier_direct(mixed, [1], 0, 8, 8, 2)
    # the largest n with n**2 below 2**63 runs; one more is refused
    n = math.isqrt(2**63 - 1)
    got = discrete_multiplier_direct(mixed, [n - 5, 7], n, 8, 8, 2)
    for a, v in zip((n - 5, 7), got.tolist()):
        assert abs(v - discrete_multiplier(mixed, Fraction(a, n), 8, 8, 2)) <= 1e-12
    with pytest.raises(WorkCapExceeded):
        discrete_multiplier_direct(mixed, [1], n + 1, 8, 8, 2)
    with pytest.raises(ergodic.EmptyRegionError):
        discrete_multiplier_direct(mixed, [1], 12, Fraction(5, 2), 8, Fraction(6, 5))

    def refuse(*args):
        raise AssertionError("residues evaluated before the work cap")

    # the cap is checked before any residue or frequency is touched: 16 cells
    # times the count reaches the cap exactly at 6.25 million frequencies
    monkeypatch.setattr(circle, "evaluate", refuse)
    cap = complete.WORK_CAP_CELLS
    with pytest.raises(WorkCapExceeded):
        discrete_multiplier_direct(mixed, _Frequencies(cap // 16 + 1), 12, 8, 8, 2)
    with pytest.raises(AssertionError, match="residues evaluated"):
        discrete_multiplier_direct(mixed, _Frequencies(cap // 16), 12, 8, 8, 2)
    monkeypatch.undo()
    monkeypatch.setattr(complete, "WORK_CAP_CELLS", 100)
    with pytest.raises(WorkCapExceeded):
        discrete_multiplier_direct(mixed, range(7), 12, 8, 8, 2)  # 112 cells
    assert discrete_multiplier_direct(mixed, range(6), 12, 8, 8, 2).shape == (6,)


def test_direct_multiplier_needs_no_histogram_or_fft(monkeypatch):
    P = parse_poly("m1^2*m2^3")
    want = discrete_multiplier_direct(P, range(-50, 50), 1000, 8, 8, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("histogram or FFT engine called")

    for module, name in ((complete, "_box_histogram"), (circle, "_box_histogram"),
                         (np.fft, "fft"), (np.fft, "ifft")):
        monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError):
        discrete_multiplier_grid(P, 1000, 8, 8, 2)
    got = discrete_multiplier_direct(P, range(-50, 50), 1000, 8, 8, 2)
    assert np.array_equal(got, want)


def _multiplier_rows():
    return {row.name: row.passed for row in suites.suite_multiplier()}


def test_suite_multiplier_catches_conjugated_direct_kernel(monkeypatch):
    direct = circle.discrete_multiplier_direct
    monkeypatch.setattr(circle, "discrete_multiplier_direct",
                        lambda *args: direct(*args).conj())
    assert not _multiplier_rows()["discrete_multiplier_conjugation_symmetry"]


def test_suite_multiplier_catches_shifted_numerators(monkeypatch):
    direct = circle.discrete_multiplier_direct
    monkeypatch.setattr(circle, "discrete_multiplier_direct",
                        lambda P, a, n, *rest: direct(P, np.asarray(a) + 1, n, *rest))
    assert not _multiplier_rows()["discrete_multiplier_periodic"]


def test_suite_multiplier_spot_checks_the_scalar_kernel(monkeypatch):
    scalar = circle.discrete_multiplier
    monkeypatch.setattr(circle, "discrete_multiplier",
                        lambda P, xi, *rest: scalar(P, xi, *rest) if xi == 0 else 0j)
    rows = _multiplier_rows()
    assert rows["discrete_multiplier_normalized_at_zero"]
    assert not rows["discrete_multiplier_periodic"]
    assert not rows["discrete_multiplier_conjugation_symmetry"]


def test_discrete_multiplier_empty_region(mixed):
    from newton_circle.circle import EmptyRegionError

    with pytest.raises(EmptyRegionError):
        # floor(5/2) == floor((5/2)/(6/5)): no lattice points in the block
        discrete_multiplier(mixed, Fraction(0), Fraction(5, 2), 8, Fraction(6, 5))


def test_empty_region_error_is_shared(mixed):
    from newton_circle import circle, ergodic

    assert circle.EmptyRegionError is ergodic.EmptyRegionError
    with pytest.raises(ergodic.EmptyRegionError):
        discrete_multiplier(mixed, Fraction(0), Fraction(5, 2), 8, Fraction(6, 5))


def test_discrete_partial_normalization(mixed):
    v = discrete_multiplier(mixed, Fraction(0), 8, 8, 2, axis_partial=(1, 5))
    assert v == pytest.approx(1)
    v = discrete_multiplier(mixed, Fraction(0), 8, 8, 2, axis_partial=(2, 5))
    assert v == pytest.approx(1)


def test_discrete_partial_axis2_matches_fraction_brute_force():
    P = parse_poly("m1^2*m2^3 + 2*m1*m2 + m2^4")
    xi, frozen = Fraction(3, 7), 5
    got = discrete_multiplier(P, xi, 12, 8, 2, axis_partial=(2, frozen))
    # per-term exact phase xi * P(m1, frozen) mod 1, m1 in (6, 12]
    terms = [cmath.exp(2j * math.pi * float(xi * evaluate(P, (m1, frozen)) % 1))
             for m1 in range(7, 13)]
    assert got == pytest.approx(sum(terms) / 6, abs=1e-12)
    assert abs(got - 1) > 0.1  # nonzero xi: the phases do not all vanish


def test_discrete_partial_float_xi_is_the_frozen_row():
    # the integer polynomial is pinned before scaling: an exact xi gives the
    # coefficients of pinning xi*P, and a float xi rounds each pinned xi*N
    # once, so the sum is that of scale(pin(P), xi) bit for bit.  The frozen
    # row or column of scale(P, xi), whose coefficients round each xi*c
    # instead, differs by at most 2u|xi| * |P|(m) turns a cell (|P| with the
    # absolute coefficients, u = 2**-53), 2*pi times that in e(), plus the
    # error budgets of both sums
    P = parse_poly("m1^3*m2^2 + 5*m1*m2^2 + 3*m1^2*m2 + m2^4 + 7*m1^4")
    absP = Poly2({g: abs(c) for g, c in P.terms.items()})
    for xi in (Fraction(3, 7), Fraction(-5, 2**70 + 1)):
        for axis, frozen in itertools.product((1, 2), (3, 7, 11)):
            assert circle._pinned(P, xi, 16, 24, (axis, frozen))[0].terms == \
                pin(scale(P, xi), axis, frozen).terms
    for xi in (0.1234567, -0.987654321, 2.0**-20 * 3):
        Q = scale(P, xi)
        for frozen in (3, 7, 11):
            for axis, n, box in ((1, 12, (frozen - 1, frozen, 12, 24)),
                                 (2, 8, (8, 16, frozen - 1, frozen))):
                got = discrete_multiplier(P, xi, 16, 24, 2, axis_partial=(axis, frozen))
                pinned_box = (0, 1, 12, 24) if axis == 1 else (8, 16, 0, 1)
                assert got == double_sum(scale(pin(P, axis, frozen), xi), *pinned_box).value / n
                row = double_sum(Q, *box)
                cells = itertools.product(range(box[0] + 1, box[1] + 1), range(box[2] + 1, box[3] + 1))
                gap = math.tau * 2 * 2.0**-53 * abs(xi) * max(evaluate(absP, m) for m in cells)
                assert abs(got - row.value / n) <= gap + 2 * row.error_budget / n


def test_discrete_partial_float_xi_keeps_large_pinned_coefficients_exact():
    # m1^64*m2 pinned at m1 = 10**6 gives N = 10**384, past 2**53 and past
    # the largest float: xi*N stays the exact dyadic rational, the coefficient
    # of pinning xi*P; m1*m2^2 pins to 10**6 * m2^2, rounded once.  With
    # frozen 3**4, N = 3**256 is past 2**53 but a float would hold it rounded
    P = parse_poly("m1^64*m2 + m1*m2^2")
    xi = 0.1234567
    for frozen in (10**6, 3**4):
        for axis, Pa in ((1, P), (2, transpose(P))):
            Q, Ms = circle._pinned(Pa, xi, 16, 24, (axis, frozen))
            key = (0, 1) if axis == 1 else (1, 0)
            exact = pin(scale(Pa, xi), axis, frozen).terms[key]
            assert Q.terms[key] == Fraction(xi) * frozen**64 == exact
            assert Q.terms[(0, 2) if axis == 1 else (2, 0)] == xi * frozen
            got = discrete_multiplier(Pa, xi, 16, 24, 2, axis_partial=(axis, frozen))
            box = (0, 1, 12, 24) if axis == 1 else (8, 16, 0, 1)
            assert got == double_sum(Q, *box).value / (12 if axis == 1 else 8)
            assert abs(got) <= 1


def test_discrete_partial_rejects_frozen_below_one(mixed):
    for axis in (1, 2):
        for frozen in (0, -2):
            with pytest.raises(ValueError):
                discrete_multiplier(mixed, Fraction(1, 3), 8, 8, 2, axis_partial=(axis, frozen))


def test_continuous_partial_rejects_frozen_below_one():
    # the same pinning step as discrete_multiplier: a frozen value of 0 would
    # pin the polynomial to a constant and return 1, not raise
    P = parse_poly("m1^2*m2^3 + m1*m2")
    for axis in (1, 2):
        for frozen in (0, -3):
            with pytest.raises(ValueError, match="frozen value must be a positive integer"):
                continuous_multiplier(P, 0.01, 8, 8, 2, axis_partial=(axis, frozen))


def test_discrete_multiplier_bounds_and_conjugation(mixed):
    for i in range(25):
        xi = Fraction(i, 25)
        v = discrete_multiplier(mixed, xi, 8, 8, 2)
        assert abs(v) <= 1 + 1e-12
        assert discrete_multiplier(mixed, -xi, 8, 8, 2) == pytest.approx(v.conjugate())


def test_continuous_multiplier_normalization(mixed):
    assert continuous_multiplier(mixed, 0, 16, 16, 2) == pytest.approx(1, abs=1e-9)
    assert continuous_multiplier(mixed, 0, 16, 16, 2, axis_partial=(1, 3)) == pytest.approx(1, abs=1e-9)


def test_continuous_multiplier_modulus(mixed):
    for xi in (0.1, 0.9, 3.7, 12.0):
        assert abs(continuous_multiplier(mixed, xi, 4, 4, 2)) <= 1 + 1e-9


def test_continuous_multiplier_oscillatory_decay(mixed):
    # high-frequency decay consistent with the stationary-phase envelope
    vals = [abs(continuous_multiplier(mixed, float(x), 1, 1, 2)) for x in (10, 100, 1000)]
    assert vals[0] > vals[1] > vals[2]
    assert all(v * math.sqrt(x) <= 3.0 for v, x in zip(vals, (10, 100, 1000)))


def test_continuous_multiplier_matches_riemann_sum(mixed):
    # independent quadrature oracle: plain midpoint rule at high resolution
    xi = 0.37
    n = 4000
    total = 0j
    for i in range(n):
        for j_ in range(80):
            y1 = 0.5 + (i + 0.5) / (2 * n)
            y2 = 0.5 + (j_ + 0.5) / 160
            total += cmath.exp(2j * math.pi * xi * (4 * y1) * (4 * y2))
    riemann = total / (n * 80)
    got = continuous_multiplier(mixed, xi, 4, 4, 2)
    assert got == pytest.approx(riemann, abs=5e-4)


def test_continuous_partial_axis2_matches_riemann_sum():
    # axis 2 pinned at frozen: the integral of e(xi * P(M1 y, frozen)) over
    # [1/2, 1], normalized, against a plain midpoint rule
    P = parse_poly("m1^2*m2^3 + m1*m2")
    xi, M1, frozen, n = 0.05, 4, 2, 20000
    total = 0j
    for i in range(n):
        y = 0.5 + (i + 0.5) / (2 * n)
        total += cmath.exp(2j * math.pi * xi * ((M1 * y) ** 2 * frozen**3 + M1 * y * frozen))
    riemann = total / n
    got = continuous_multiplier(P, xi, M1, 64, 2, axis_partial=(2, frozen))
    assert got == pytest.approx(riemann, abs=1e-6)
    assert abs(got) < 0.5  # several turns of phase: far from the xi = 0 value 1


def _complex_exp_phase(Q, M1, M2):
    """The former phase evaluation: e(Q(M1 x, M2 y)) as np.exp of a complex array."""
    terms = [(g1, g2, float(c)) for (g1, g2), c in Q.terms.items()]

    def f(X, Y):
        p = np.zeros(np.broadcast(X, Y).shape)
        for g1, g2, c in terms:
            term = c
            if g1:
                term = term * (M1 * X) ** g1
            if g2:
                term = term * (M2 * Y) ** g2
            p = p + term
        return np.exp(2j * np.pi * p)

    return f


def _complex_exp_level(f2, pinned):
    """The former rule evaluation on explicit nodes and weights: complex
    matvecs over 2**21-cell blocks, or, with axis 1 or 2 pinned, the complex
    line rule along the live axis times the pinned axis's weights (the
    pinned exponents are 0, so the pinned argument of f2 is immaterial)."""
    if pinned == 1:
        return lambda x, wx, y, wy: wx.sum() * complex(wy @ f2(y, y))
    if pinned == 2:
        return lambda x, wx, y, wy: wy.sum() * complex(wx @ f2(x, x))

    def level(x, wx, y, wy):
        block = max(1, (1 << 21) // len(x))
        total = 0j
        for i in range(0, len(y), block):
            ys = y[i : i + block]
            total += wy[i : i + block] @ (f2(x[None, :], ys[:, None]) @ wx)
        return total

    return level


def _rule_against_oracle(monkeypatch, P, xi, M1, M2, axis_partial=None):
    """Run continuous_multiplier, evaluating its rule also by the complex-exp
    oracle on the same nodes; return (gap, panel count of each axis)."""
    Q = scale(P if axis_partial is None else pin(P, *axis_partial), xi)
    oracle = _complex_exp_level(_complex_exp_phase(Q, float(M1), float(M2)),
                                axis_partial and axis_partial[0])
    gaps, nodes = [], []
    real = circle._level

    def both(terms, Ms, axes):
        got = real(terms, Ms, axes)
        (x, wx), (y, wy) = (circle._nodes(*axis) for axis in axes)
        gaps.append(abs(got - oracle(x, wx, y, wy)))
        nodes.extend((len(x), len(y)))
        return got

    monkeypatch.setattr(circle, "_level", both)
    continuous_multiplier(P, xi, M1, M2, 2, axis_partial=axis_partial)
    assert len(gaps) == 1  # one rule, no ladder
    return gaps[0], nodes


@pytest.mark.parametrize("poly, xi, M1, M2, axis_partial, last_level", [
    # the wide-phase benchmark anchors; the refinement ladder stopped at 256
    # and 2048 nodes per axis, and the certified rule takes fewer on each axis
    ("m1^2*m2^3", 0.001, 8, 8, None, 256),
    ("m1^2*m2^3", 0.01, 8, 8, None, 2048),
    ("3*m1^2*m2 - m1*m2^3 + 2*m1 + m2^2 + 5", 0.3, 5, 4, None, None),
    ("m1*m2", 0, 16, 16, None, None),          # the zero phase
    ("m1^2*m2^3 + m1*m2", 0.05, 4, 64, (2, 2), None),
    ("m1^3*m2 - 2*m1*m2^2 + m2", 0.002, 9, 12, (1, 3), None),
])
def test_real_trig_levels_match_complex_exp_oracle(monkeypatch, poly, xi, M1, M2, axis_partial,
                                                   last_level):
    gap, nodes = _rule_against_oracle(monkeypatch, parse_poly(poly), xi, M1, M2, axis_partial)
    assert gap <= 1e-13
    if last_level is not None:
        assert all(n < last_level for n in nodes)
    if xi == 0:
        assert nodes == [1, 1]
    if axis_partial is not None:
        assert nodes[axis_partial[0] - 1] == 1


def test_oracles_run_without_the_table_kernel(monkeypatch):
    # grid-vs-direct and rule-vs-oracle checks compare two trig algorithms:
    # the direct multiplier, residue_sum, the per-cell box oracle of
    # tests/test_expsum.py and the complex-exp oracle take libm or np.exp,
    # never the table kernel that the checked paths take
    def no_kernel(x):
        raise AssertionError("the table kernel ran")

    for module in (expsum, circle, complete):
        monkeypatch.setattr(module, "_e", no_kernel)
    P = parse_poly("m1^2*m2^3 + m1*m2")
    direct = discrete_multiplier_direct(P, range(1, 40), 97, 64, 64, 2)
    assert np.allclose(direct, discrete_multiplier_grid(P, 97, 64, 64, 2)[1:40], atol=1e-12)
    residues = np.random.default_rng(3).integers(0, 10**6, 4 * expsum.BLOCK_CELLS)
    assert abs(expsum.residue_sum(residues, 10**6)) < residues.size
    # an exact sparse box: L = 10007 above its 64 x 64 cells, one block of
    # 4,096 >= _E_MIN cells; its oracle runs (uncached), the box sum does not
    sparse = tuple(sorted((g, Fraction(3 * c, 10007)) for g, c in P.terms.items()))
    assert abs(_per_cell_oracle.__wrapped__(sparse, 0, 64, 0, 64)) < 64 * 64
    assert 64 * 64 >= expsum._E_MIN
    x = np.linspace(0.5, 1.0, 200)
    w = np.full(200, 0.5 / 200)
    level = _complex_exp_level(_complex_exp_phase(scale(P, 0.01), 8.0, 8.0), None)
    assert abs(level(x, w, x, w)) <= 0.25
    # the kernel is live on the paths these oracles check
    with pytest.raises(AssertionError, match="table kernel"):
        continuous_multiplier(P, 0.01, 8, 8, 2)
    with pytest.raises(AssertionError, match="table kernel"):
        double_sum(scale(P, golden_ratio_conjugate(192)), 0, 64, 0, 64)
    with pytest.raises(AssertionError, match="table kernel"):
        double_sum(scale(P, Fraction(3, 10007)), 0, 64, 0, 64)
    with pytest.raises(AssertionError, match="table kernel"):
        complete.moment_identity_gap(2, 2, 6, [0.3, 0.7])


@pytest.mark.parametrize("xi, M1, M2, axis_partial", [
    (2**-24, 240, 240, None),       # ROADMAP item 7: 71,000 turns along m2, 2**36 cells
    (0.7, 12, 60, (1, 60)),         # 8.2e8 turns along m2, 1 x 2**31 nodes
    (1.0, 1e200, 12, None),         # M1**2 * M2**3 past the float range
])
def test_unresolvable_phase_fails_before_any_level(monkeypatch, xi, M1, M2, axis_partial):
    def no_level(*args):
        raise AssertionError("the rule ran before the work cap was checked")

    monkeypatch.setattr(circle, "_level", no_level)
    start = time.perf_counter()
    with pytest.raises(WorkCapExceeded, match="nodes per axis"):
        continuous_multiplier(parse_poly("m1^2*m2^3"), xi, M1, M2, 2, axis_partial=axis_partial)
    assert time.perf_counter() - start < 1.0


def test_phase_finer_than_the_float_grid_is_refused():
    # [1/tau, 1] holds eight floats, but the phase needs about 87,000 panels
    start = time.perf_counter()
    with pytest.raises(ValueError, match="float nodes"):
        continuous_multiplier(parse_poly("m1^2*m2^3"), 1e5, 1e4, 1e4, 1 + 2**-50,
                              axis_partial=(1, 60))
    assert time.perf_counter() - start < 1.0


def _rule_of(P, xi, M1, M2, tau, axis_partial=None):
    """circle._rule for the call continuous_multiplier(P, xi, M1, M2, tau,
    axis_partial): (value, bound, nodes of each axis, terms).  The pinned
    axis keeps its scale: its exponents are 0, so the rule does not read it."""
    Q = scale(P if axis_partial is None else pin(P, *axis_partial), xi)
    terms = [(g1, g2, float(c)) for (g1, g2), c in Q.terms.items()]
    nodes = []
    real = circle._level

    def spy(terms, Ms, axes):
        nodes.extend(len(c) * len(rule[0]) for c, _, rule in axes)
        return real(terms, Ms, axes)

    circle._level = spy
    try:
        value, bound = circle._rule(terms, float(M1), float(M2), 1 / float(tau))
    finally:
        circle._level = real
    return value, bound, nodes, terms


def _rounding(terms, M1, M2, nodes):
    """The float rounding term documented in circle._rule."""
    phi = sum(abs(c) * M1**g1 * M2**g2 for g1, g2, c in terms)
    degree = max((g1 + g2 for g1, g2, _ in terms), default=0)
    return 2.0**-53 * (math.tau * phi * (7 * degree + len(terms) + 4)
                       + 2 * sum(n + 1 for n in nodes) + 64)


def _ladder(P, xi, M1, M2, tau, axis_partial=None):
    """The refinement ladder the certified rule replaced: 2**depth uniform
    32-point panels per axis (the live axis of a partial call), from depth 0
    until two levels agree within 1e-10, each level evaluated by the
    complex-exp oracle."""
    Q = scale(P if axis_partial is None else pin(P, *axis_partial), xi)
    level = _complex_exp_level(_complex_exp_phase(Q, float(M1), float(M2)),
                               axis_partial and axis_partial[0])
    x32, w32 = np.polynomial.legendre.leggauss(32)
    lo, prev = 1 / float(tau), None
    for depth in range(21):
        edges = np.linspace(lo, 1.0, (1 << depth) + 1)
        half, mid = (edges[1:] - edges[:-1]) / 2, (edges[1:] + edges[:-1]) / 2
        nodes = (mid[:, None] + half[:, None] * x32).ravel()
        wts = (half[:, None] * w32).ravel()
        cur = level(nodes, wts, nodes, wts)
        if prev is not None and abs(cur - prev) < 1e-10:
            return cur / (1 - lo) ** 2
        prev = cur
    raise AssertionError("the ladder did not converge")


def test_certified_rule_bounds_its_error_against_the_ladder():
    # on seeded random calls the bound's truncation part stays within the
    # tolerance, and the value lies within its bound of the former ladder
    rng = random.Random(7)
    polys = [parse_poly(p) for p in ("m1^2*m2^3", "m1*m2", "m1^2*m2 - 3*m1*m2^2 + m2")]
    for _ in range(24):
        P = rng.choice(polys)
        M1, M2, tau = rng.randint(2, 16), rng.randint(2, 16), rng.choice((2, 1.5, 3))
        axis_partial = rng.choice((None, (1, rng.randint(1, 9)), (2, rng.randint(1, 9))))
        Q = scale(P, 1) if axis_partial is None else pin(scale(P, 1), *axis_partial)
        # up to about 10**e turns on [1/tau, 1]
        top = sum(abs(c) * (g1 + g2) * M1**g1 * M2**g2 for (g1, g2), c in Q.terms.items())
        xi = 10 ** rng.uniform(0, 2 if axis_partial is None else 3.5) / top
        value, bound, nodes, terms = _rule_of(P, xi, M1, M2, tau, axis_partial)
        assert value == continuous_multiplier(P, xi, M1, M2, tau, axis_partial=axis_partial)
        assert bound <= circle._TOL + _rounding(terms, M1, M2, nodes)
        assert abs(value - _ladder(P, xi, M1, M2, tau, axis_partial)) <= bound


def _monomial_oracle(c, g, lo):
    """The normalised integral of e(c y**g) over [lo, 1], in closed form:
    with a = -2 pi i c, a**(-1/g) / g * gamma(1/g, a lo**g, a) / (1 - lo)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        a = -2j * mp.pi * mp.mpf(c)
        z = mp.mpf(1) / g
        v = a**-z / g * mp.gammainc(z, a * mp.mpf(lo) ** g, a) / (1 - mp.mpf(lo))
        return complex(v)


@pytest.mark.parametrize("turns", [1e2, 1e3, 1e4, 1e5])
@pytest.mark.parametrize("axis", [1, 2])
def test_diagonal_monomial_matches_incomplete_gamma(turns, axis):
    # m1^2*m2^3 pinned on one axis is the single monomial c * y**g along the
    # live axis, g = 3 (axis 1 pinned) or 2; xi gives slope times length
    # `turns` (the next test takes the range to 8.4 M turns)
    P, M, frozen = parse_poly("m1^2*m2^3"), 12, 5
    g, pinned = (3, frozen**2) if axis == 1 else (2, frozen**3)
    xi = turns / (0.5 * g * pinned * M**g)
    value, bound, nodes, _ = _rule_of(P, xi, M, M, 2, (axis, frozen))
    assert abs(value - _monomial_oracle(xi * pinned * M**g, g, 0.5)) <= bound
    assert nodes[axis - 1] == 1


def test_eight_million_turn_diagonal_is_certified_quickly():
    # m1^2*m2^3 at xi = 0.9, M = 12, frozen m1 = 60: 8.4 M turns of slope
    # times length; the refinement ladder raised after 8.0 s.  The bound is
    # on this thread's CPU time, which other load on the machine does not
    # stretch as it does wall time; the node count is the deterministic check
    P = parse_poly("m1^2*m2^3")
    start = time.thread_time()
    value, bound, nodes, _ = _rule_of(P, 0.9, 12, 12, 2, (1, 60))
    assert time.thread_time() - start < 3.0
    assert abs(value - _monomial_oracle(0.9 * 60**2 * 12**3, 3, 0.5)) <= bound
    assert nodes[0] == 1 and nodes[1] <= 15_247_744 <= complete.WORK_CAP_CELLS


# tracemalloc peaks of one cold call each (fresh interpreter, first call) on
# the tree whose unsorted phases took libm's cos and sin (commit f2bc1de;
# Python 3.11.7, numpy 2.4.6): the 8.4 M-turn partial rule and the golden
# 1024 x 1024 character average.
_LIBM_PEAK_BYTES = {"partial_8M_turns": 91_650_541, "golden_charavg_1024": 815_220}


@pytest.mark.parametrize("case", list(_LIBM_PEAK_BYTES))
def test_table_kernel_peak_memory_no_higher_than_libm(case):
    P = parse_poly("m1^2*m2^3")
    golden = golden_ratio_conjugate(192)
    call = {"partial_8M_turns": lambda: continuous_multiplier(P, 0.9, 12, 12, 2, (1, 60)),
            "golden_charavg_1024": lambda: ergodic.character_average(P, golden, 1024, 1024)}
    tracemalloc.start()
    try:
        call[case]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _LIBM_PEAK_BYTES[case]


def test_two_dimensional_rule_matches_mpmath_quad():
    mp = pytest.importorskip("mpmath")
    P, xi, M1, M2 = parse_poly("m1^2*m2 - 3*m1*m2^2 + m2"), 0.05, 3, 2
    value, bound, _, _ = _rule_of(P, xi, M1, M2, 2)
    with mp.workdps(20):
        def f(y1, y2):
            m1, m2 = M1 * y1, M2 * y2
            return mp.expjpi(2 * mp.mpf(xi) * (m1**2 * m2 - 3 * m1 * m2**2 + m2))
        got, err = mp.quad(f, [0.5, 1], [0.5, 1], method="gauss-legendre", error=True)
        assert err < 1e-16
        oracle = complex(got * 4)
    assert abs(value - oracle) <= bound
    assert abs(oracle - 1) > 0.1  # the phase turns: far from the xi = 0 value


def test_zero_phase_takes_one_node_per_axis_and_returns_one():
    # the midpoint rule is exact on an axis along which the phase does not
    # move: no truncation term, and the value is 1 to the last bit for any tau
    P = parse_poly("3*m1^2*m2 - m1*m2^3 + 2*m1 + m2^2 + 5")
    for tau in (2, 3, 1.5):
        for axis_partial in (None, (1, 3), (2, 5)):
            value, bound, nodes, terms = _rule_of(P, 0, 16, 12, tau, axis_partial)
            assert nodes == [1, 1]
            assert value == 1 + 0j
            assert bound == _rounding(terms, 16, 12, nodes)
            assert continuous_multiplier(P, 0, 16, 12, tau, axis_partial=axis_partial) == 1


def test_one_variable_polynomial_takes_one_node_on_the_other_axis():
    mp = pytest.importorskip("mpmath")
    P, xi, M1, M2 = parse_poly("m2^3 - 2*m2"), 0.05, 5, 3
    value, bound, nodes, _ = _rule_of(P, xi, M1, M2, 2)
    assert nodes[0] == 1 and nodes[1] >= 32
    with mp.workdps(20):
        def f(y):
            m2 = M2 * y
            return mp.expjpi(2 * mp.mpf(xi) * (m2**3 - 2 * m2))
        got, err = mp.quad(f, [0.5, 1], method="gauss-legendre", error=True)
        assert err < 1e-16
        oracle = complex(got * 2)
    assert abs(value - oracle) <= bound
    assert abs(oracle - 1) > 0.1  # the phase turns: far from the xi = 0 value


def test_cutoff_eta_shape():
    assert cutoff_eta(3, 5.0) == 1.0
    assert cutoff_eta(3, -17.0) == 0.0
    assert cutoff_eta(2, 1.5 * 4) == pytest.approx(0.5)
    xs = [i / 16 for i in range(-80, 81)]
    vals = [cutoff_eta(0, x) for x in xs]
    assert all(0 <= v <= 1 for v in vals)
    assert all(cutoff_eta(0, x) == cutoff_eta(0, -x) for x in xs)
    mags = [cutoff_eta(0, x) for x in xs if x >= 0]
    assert all(a >= b for a, b in zip(mags, mags[1:]))
    # indicator sandwich
    for x in xs:
        inner = 1.0 if abs(x) <= 1 else 0.0
        outer = 1.0 if abs(x) <= 2 else 0.0
        assert inner <= cutoff_eta(0, x) <= outer


def test_projection_multiplier_bumps():
    params = IWParams(rho=Fraction(1, 2), l=0)
    at_center = projection_multiplier(params, -10, Fraction(1, 2))
    assert at_center.value == pytest.approx(1)
    assert not at_center.overlap_warning
    off = projection_multiplier(params, -10, Fraction(1, 2) + Fraction(3, 2) * Fraction(1, 2**10))
    assert off.value == pytest.approx(0.5)
    far = projection_multiplier(params, -10, Fraction(1, 2) + Fraction(1, 100))
    assert far.value == 0.0


def test_projection_overlap_warning():
    params = IWParams(rho=Fraction(1, 2), l=0)
    assert projection_multiplier(params, -3, 0.1).overlap_warning


def test_arc_classify_examples(single_diagram):
    P = parse_poly("m1^2*m2^3")
    at_zero = arc_classify(P, single_diagram, 1, 0.0, 16, 16, 4.0, 2)
    assert at_zero.kind == "major" and at_zero.center == Fraction(0, 1)
    at_half = arc_classify(P, single_diagram, 1, 0.5, 16, 16, 4.0, 2)
    assert at_half.kind == "major" and at_half.center == Fraction(1, 2)
    assert at_half.thresholds["q_threshold"] >= 2


def test_arc_classify_minor(single_diagram):
    P = parse_poly("m1^2*m2^3")
    # denominator between the thresholds: q=5 > (log2 16)^1 = 4 at beta=1
    ac = arc_classify(P, single_diagram, 1, float(Fraction(2, 5)), 16, 16, 1.0, 2)
    assert ac.thresholds["q_threshold"] < 5
    assert ac.kind == "minor"
    assert ac.center is None and ac.offset is None


def test_arc_classify_offset_bound(single_diagram, rng):
    P = parse_poly("m1^2*m2^3")
    v = (2, 3)
    for _ in range(50):
        xi = rng.random()
        ac = arc_classify(P, single_diagram, 1, xi, 32, 32, 3.0, 2)
        if ac.kind == "major":
            q = ac.center.denominator
            window = ac.thresholds["q_threshold"] / (q * 32.0 ** v[0] * 32.0 ** v[1])
            assert abs(ac.offset) <= window * (1 + 1e-12)


def test_arc_classify_large_scales(single_diagram):
    # resolution around 2^45: the convergent search must stay cheap and exact
    P = parse_poly("m1^2*m2^3")
    ac = arc_classify(P, single_diagram, 1, 1 / 3 + 1e-12, 2**9, 2**9, 4.0, 2)
    assert ac.kind == "major"
    assert ac.center == pytest.approx(1 / 3)
    assert abs(ac.offset) < 1e-9


def test_arc_classify_degenerate_threshold(single_diagram):
    P = parse_poly("m1^2*m2^3")
    with pytest.raises(ValueError):
        arc_classify(P, single_diagram, 1, 0.3, 4, 4, 40.0, 2)


def test_major_approximant_at_center(mixed):
    params = IWParams(rho=Fraction(1, 2), l=0)
    for frac in (Fraction(1, 2), Fraction(1, 4), Fraction(3, 8)):
        val = major_approximant(mixed, params, -12, frac, 8, 8, 2)
        assert val == pytest.approx(gauss_sum(mixed, frac), abs=1e-9)
    near_zero = major_approximant(mixed, params, -12, 2.0**-15, 8, 8, 2)
    assert near_zero == pytest.approx(
        continuous_multiplier(mixed, 2.0**-15, 8, 8, 2), abs=1e-9)


def test_partial_approx_error_probe(mixed):
    diagram = build_diagram(mixed)
    measured, budget = partial_approx_error(
        mixed, diagram, 1, 2, 729, Fraction(1, 3), Fraction(1, 3), 2, 4.0, 4, 4096)
    assert budget == pytest.approx(3 / 729)
    assert measured / budget <= 50
    with pytest.raises(ValueError):
        partial_approx_error(mixed, diagram, 1, 2, 4, Fraction(1, 5), Fraction(1, 5),
                             2, 4.0, 4, 4096)  # q > M2prime
    with pytest.raises(ValueError):
        partial_approx_error(mixed, diagram, 1, 2, 729, 0.4, Fraction(1, 3),
                             2, 1.0, 4, 4096)  # far outside the beta=1 window
    with pytest.raises(ValueError, match=r"M1\*\*1 \* M2\*\*1 at M1 = 1e\+300, M2 = 1e\+300 "
                                         r"exceeds the largest float"):
        partial_approx_error(mixed, diagram, 1, 2, 729, Fraction(1, 3), Fraction(1, 3),
                             2, 4.0, 1e300, 1e300)
