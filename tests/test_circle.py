import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from newton_circle import circle, complete, ergodic, suites

from newton_circle.circle import (
    ScaleBook,
    arc_classify,
    continuous_multiplier,
    cutoff_eta,
    discrete_multiplier,
    discrete_multiplier_direct,
    discrete_multiplier_grid,
    major_approximant,
    partial_approx_error,
    projection_complement,
    projection_multiplier,
    scale_exponent,
    scale_exponent_at_threshold,
    threshold_level,
    validate_arc_parameters,
)
from newton_circle.complete import WorkCapExceeded, gauss_sum, partial_gauss
from newton_circle.expsum import double_sum
from newton_circle.iw import IWParams
from newton_circle.newton import build_diagram
from newton_circle.poly import evaluate, parse_poly, pin, scale
from newton_circle.suites import random_nondegenerate_poly


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
    # DFT of the residue histogram against the lattice kernel, at every i/n
    cases = [(parse_poly("m1^2*m2^3"), 8, 8, 2),
             (random_nondegenerate_poly(random.Random(n)), 10, 7, Fraction(3, 2))]
    for P, M1, M2, tau in cases:
        grid = discrete_multiplier_grid(P, n, M1, M2, tau)
        assert grid.shape == (n,)
        for i, v in enumerate(grid.tolist()):
            assert abs(v - discrete_multiplier(P, Fraction(i, n), M1, M2, tau)) <= 1e-12


def test_multiplier_grid_guards(mixed):
    with pytest.raises(ValueError):
        discrete_multiplier_grid(mixed, 0, 8, 8, 2)
    with pytest.raises(WorkCapExceeded):
        discrete_multiplier_grid(mixed, 2**21, 8, 8, 2)  # n**3 reaches 2**63
    with pytest.raises(WorkCapExceeded):
        discrete_multiplier_grid(mixed, 12, 10**5, 10**5, 2)


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

    for module, name in ((complete, "_residue_histogram"), (circle, "_residue_histogram"),
                         (np.fft, "fft"), (np.fft, "ifft")):
        monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError):
        discrete_multiplier_grid(P, 1000, 8, 8, 2)
    got = discrete_multiplier_direct(P, range(-50, 50), 1000, 8, 8, 2)
    assert np.array_equal(got, want)


def _multiplier_rows():
    return {row["name"]: row["pass"] for row in suites.suite_multiplier()}


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
    # pinning happens after scaling, exactly, so a float xi gives bit for bit
    # the lattice sum of scale(P, xi) over the frozen row or column
    P = parse_poly("m1^3*m2^2 + 5*m1*m2^2 + 3*m1^2*m2 + m2^4 + 7*m1^4")
    for xi in (0.1234567, -0.987654321, 2.0**-20 * 3):
        Q = scale(P, xi)
        for frozen in (3, 7, 11):
            got = discrete_multiplier(P, xi, 16, 24, 2, axis_partial=(1, frozen))
            assert got == double_sum(Q, frozen - 1, frozen, 12, 24).value / 12
            got = discrete_multiplier(P, xi, 16, 24, 2, axis_partial=(2, frozen))
            assert got == double_sum(Q, 8, 16, frozen - 1, frozen).value / 8


def test_discrete_partial_rejects_frozen_below_one(mixed):
    for axis in (1, 2):
        for frozen in (0, -2):
            with pytest.raises(ValueError):
                discrete_multiplier(mixed, Fraction(1, 3), 8, 8, 2, axis_partial=(axis, frozen))


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


def _complex_exp_level(f2, axis_partial):
    """The former refinement level: complex matvecs over 2**21-cell blocks, or
    the complex line rule along the diagonal."""
    if axis_partial is not None:
        return lambda nodes, wts: complex(wts @ f2(nodes, nodes))

    def level(nodes, wts):
        block = max(1, (1 << 21) // len(nodes))
        total = 0j
        for i in range(0, len(nodes), block):
            ys = nodes[i : i + block]
            total += wts[i : i + block] @ (f2(nodes[None, :], ys[:, None]) @ wts)
        return total

    return level


def _levels_against_oracle(monkeypatch, P, xi, M1, M2, axis_partial=None):
    """Run continuous_multiplier, evaluating every refinement level also by the
    complex-exp oracle; return (largest level gap, node count of each level)."""
    Q = scale(P, xi)
    if axis_partial is not None:
        Q = pin(Q, *axis_partial)
    oracle = _complex_exp_level(_complex_exp_phase(Q, float(M1), float(M2)), axis_partial)
    gaps, sizes = [], []
    real = circle.dyadic_refine

    def refine(level, a, b, tol):
        def both(nodes, wts):
            got = level(nodes, wts)
            gaps.append(abs(got - oracle(nodes, wts)))
            sizes.append(len(nodes))
            return got
        return real(both, a, b, tol)

    monkeypatch.setattr(circle, "dyadic_refine", refine)
    continuous_multiplier(P, xi, M1, M2, 2, axis_partial=axis_partial)
    return max(gaps), sizes


@pytest.mark.parametrize("poly, xi, M1, M2, axis_partial, last_level", [
    # the wide-phase benchmark anchors stop where the complex-exp rule stopped;
    # at 2048 nodes a level is two 2**21-cell blocks
    ("m1^2*m2^3", 0.001, 8, 8, None, 256),
    ("m1^2*m2^3", 0.01, 8, 8, None, 2048),
    ("3*m1^2*m2 - m1*m2^3 + 2*m1 + m2^2 + 5", 0.3, 5, 4, None, None),
    ("m1*m2", 0, 16, 16, None, None),          # the zero phase
    ("m1^2*m2^3 + m1*m2", 0.05, 4, 64, (2, 2), None),
    ("m1^3*m2 - 2*m1*m2^2 + m2", 0.002, 9, 12, (1, 3), None),
])
def test_real_trig_levels_match_complex_exp_oracle(monkeypatch, poly, xi, M1, M2, axis_partial,
                                                   last_level):
    gap, sizes = _levels_against_oracle(monkeypatch, parse_poly(poly), xi, M1, M2, axis_partial)
    assert gap <= 1e-13
    if last_level is not None:
        assert sizes[-1] == last_level


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
    comp = projection_complement(params, -10, Fraction(1, 2))
    assert comp.value == pytest.approx(0.0)


def test_projection_overlap_warning():
    params = IWParams(rho=Fraction(1, 2), l=0)
    assert projection_multiplier(params, -3, 0.1).overlap_warning


def test_scale_bookkeeping_identity():
    book = ScaleBook(v=(2, 3), beta=4.0, tau=2.0)
    M1, M2, M = 16.0, 64.0, 64.0
    direct = book.exponent_at_threshold(M1, M2, M)
    assert direct == pytest.approx(book.exponent(M1, M2, book.level(M)))
    assert direct == pytest.approx(
        math.log2(M1**2 * M2**3 * math.log2(M) ** -4.0))
    assert threshold_level(M, 4.0, 2.0) == pytest.approx(math.log2(math.log2(M) ** 4))
    assert scale_exponent(M1, M2, (2, 3), 0.0) == pytest.approx(math.log2(M1**2 * M2**3))
    assert scale_exponent_at_threshold(M1, M2, (2, 3), 4.0, M, 2.0) == pytest.approx(direct)


def test_validate_arc_parameters():
    assert validate_arc_parameters(4.0, Fraction(1, 100000))
    with pytest.warns(RuntimeWarning):
        # desk-scale defaults sit outside the asymptotic regime on purpose
        assert not validate_arc_parameters(4.0, Fraction(1, 100))
    with pytest.raises(ValueError):
        validate_arc_parameters(-1.0)


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
        val = major_approximant(mixed, params, -12, frac, 8, 8, 2, G_mode="full")
        assert val == pytest.approx(gauss_sum(mixed, frac), abs=1e-9)
    near_zero = major_approximant(mixed, params, -12, 2.0**-15, 8, 8, 2, G_mode="full")
    assert near_zero == pytest.approx(
        continuous_multiplier(mixed, 2.0**-15, 8, 8, 2), abs=1e-9)


def test_major_approximant_bare_periodization(mixed):
    params = IWParams(rho=Fraction(1, 2), l=0)
    val = major_approximant(mixed, params, -12, Fraction(1, 4), 8, 8, 2, G_mode="one")
    assert val == pytest.approx(1.0)


def test_major_approximant_axis_mode(mixed):
    params = IWParams(rho=Fraction(1, 2), l=0)
    val = major_approximant(mixed, params, -12, Fraction(1, 4), 8, 64, 2,
                            G_mode="axis1", frozen=3)
    want = partial_gauss(mixed, Fraction(1, 4), 3, 1) * continuous_multiplier(
        mixed, 0.0, 8, 64, 2, axis_partial=(1, 3))
    assert val == pytest.approx(want, abs=1e-9)


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
