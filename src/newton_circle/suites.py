"""Named verification suites: every numeric is pinned to an exact identity or
an independent brute-force computation, and each suite returns its rows as
``report.Check``, which passes iff lhs <= rhs + tolerance.

Every size, bound and cap is fixed in the suite body.  The settable values
are the ones the CLI sets: ``trials`` (``verify --trials``: the sample count of
moment, newton, osc and factorization), ``seed`` (``verify --seed``: every
suite that draws random inputs), and iw's ``rhos`` and ``l_max`` (``--rho``,
``--lmax``).  The defaults run the full-strength configuration.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import List, Sequence

import numpy as np

from . import circle, complete, ergodic, expsum, iw, newton, osc, poly
from .arith import golden_ratio_conjugate
from .poly import Poly2, UniPoly, parse_poly
from .report import Check


def random_nondegenerate_poly(rng: random.Random) -> Poly2:
    """Random polynomial with P(0,0)=0, a mixed monomial, small coefficients:
    2 to 8 terms of total degree at most 6."""
    pool = [(g1, g2) for g1 in range(7) for g2 in range(7) if 0 < g1 + g2 <= 6]
    while True:
        n_terms = rng.randint(2, 8)
        exps = rng.sample(pool, min(n_terms, len(pool)))
        terms = {}
        for e in exps:
            c = rng.choice([c for c in range(-9, 10) if c != 0])
            terms[e] = c
        P = Poly2(terms)
        if not P.is_zero and not poly.is_degenerate(P):
            return P


# ---------------------------------------------------------------------------
# 1. moment identity
# ---------------------------------------------------------------------------


def suite_moment(trials: int = 100, seed: int = 2024) -> List[Check]:
    rng = random.Random(seed)
    rel_tol = 1e-8
    worst = 0.0
    for _ in range(trials):
        s = rng.randint(1, 3)
        k = rng.randint(1, 3)
        N = rng.randint(4, 20)
        xi = [rng.random() for _ in range(k)]
        gap = complete.moment_identity_gap(s, k, N, xi)
        worst = max(worst, gap / float(N) ** (2 * s))
    checks = [Check("moment_identity_max_relative_gap", worst, 0.0, rel_tol)]
    # the most expensive corner of the parameter box, hit deterministically
    corner = complete.moment_identity_gap(3, 3, 20, [rng.random() for _ in range(3)])
    checks.append(Check("moment_identity_corner_relative_gap",
                        corner / 20.0**6, 0.0, rel_tol))
    exact_fail = 0
    for s, k, N in [(1, 1, 12), (2, 2, 9), (3, 3, 7), (3, 2, 20)]:
        gap0 = complete.moment_identity_gap(s, k, N, [Fraction(0)] * k)
        if gap0 != 0.0:
            exact_fail += 1
    checks.append(Check("moment_identity_exact_at_zero", exact_fail, 0))
    return checks


# ---------------------------------------------------------------------------
# 2. solution counts
# ---------------------------------------------------------------------------


def _brute_count_22(N: int) -> int:
    total = 0
    for x1 in range(1, N + 1):
        for x2 in range(1, N + 1):
            for y1 in range(1, N + 1):
                for y2 in range(1, N + 1):
                    if x1 + x2 == y1 + y2 and x1 * x1 + x2 * x2 == y1 * y1 + y2 * y2:
                        total += 1
    return total


def suite_counts() -> List[Check]:
    checks = []
    brute_viol = sum(
        1 for N in range(2, 13)
        if _brute_count_22(N) != 2 * N * N - N
    )
    checks.append(Check("pair_count_formula_vs_brute_force", brute_viol, 0))
    formula_viol = sum(
        1 for N in range(2, 51)
        if complete.vinogradov_diagonal(2, 2, N) != 2 * N * N - N
    )
    checks.append(Check("pair_count_formula_all_N", formula_viol, 0))

    table_viol = 0
    for s, k, N in [(1, 1, 30), (2, 2, 12), (3, 2, 8), (2, 3, 6)]:
        table = complete.vinogradov_table(s, k, N)
        diag = table[tuple([0] * k)]
        if sum(table.values()) != N ** (2 * s):
            table_viol += 1
        # the packed table is mirrored from its positive half, so symmetry is
        # checked on the table summed over all n**2 pairs by the sort-reduce
        u, c = complete._count_arrays(s, k, N)
        keys = (u[:, None, :] - u[None, :, :]).reshape(-1, k)
        pairs = complete._as_dict(*complete._sort_reduce(keys, np.outer(c, c).ravel(), s, N))
        if pairs != table:
            table_viol += 1
        if any(pairs[lam] != pairs.get(tuple(-x for x in lam), 0) for lam in pairs):
            table_viol += 1
        if any(v > diag for v in table.values()):
            table_viol += 1
        if diag < N**s:
            table_viol += 1
    checks.append(Check("count_table_mass_symmetry_peak", table_viol, 0))

    base = complete.vinogradov_diagonal(4, 2, 4) / 4**5
    worst = max(complete.vinogradov_diagonal(4, 2, N) / N**5 for N in range(4, 25))
    checks.append(Check("deep_count_growth_envelope", worst, 1.5 * base))
    return checks


# ---------------------------------------------------------------------------
# 3. diagram geometry
# ---------------------------------------------------------------------------


def direction_witness_vertices(P: Poly2) -> frozenset:
    """Brute-force vertex oracle: v is a corner iff some (a, b) in [1, 2*deg + 1]**2
    strictly separates it from every other support point, all tested in one int array."""
    supp = np.array(sorted(poly.support(P)), dtype=np.int64).reshape(-1, 2)
    steps = np.arange(1, 2 * P.total_degree + 2)
    dirs = np.stack(np.meshgrid(steps, steps)).reshape(2, -1)
    score = (supp[None, :, :] - supp[:, None, :]) @ dirs
    score[np.diag_indices(len(supp))] = -1  # v itself does not block
    return frozenset(map(tuple, supp[(score < 0).all(axis=1).any(axis=1)].tolist()))


def suite_newton(trials: int = 200, seed: int = 7) -> List[Check]:
    rng = random.Random(seed)
    oracle_viol = cover_viol = disjoint_viol = gap_viol = sign_viol = 0
    pts = np.indices((41, 41)).reshape(2, -1).T
    interior = (pts > 0).all(axis=1)
    for _ in range(trials):
        P = random_nondegenerate_poly(rng)
        diagram = newton.build_diagram(P)
        if frozenset(diagram.vertices) != direction_witness_vertices(P):
            oracle_viol += 1
        r = diagram.r
        for j in range(1, r + 1):  # (v - v_j) . [w_{j-1}, w_j]: both <= 0, not both 0
            dots = newton.support_differences(diagram, j) @ np.array(diagram.normals[j - 1:j + 1]).T
            sign_viol += int(np.count_nonzero((dots > 0).any(axis=1) | (dots == 0).all(axis=1)))
        geo = newton.sector_arrays(diagram, pts)
        cover_viol += int(np.count_nonzero(~geo.member.any(axis=1)))
        open_hits = ((geo.t1 > 0) & (geo.t2 > 0))[interior].sum(axis=1)
        disjoint_viol += int(np.count_nonzero(open_hits > 1))
        for j in range(1, r + 1):
            sigma = newton.vertex_gap(diagram, j)
            if sigma == math.inf:
                continue
            level = geo.level_N[:, j - 1]
            sel = geo.member[:, j - 1] & (level <= 20)
            dot = pts[sel] @ newton.support_differences(diagram, j).T
            # exact rational comparison: dot <= -sigma*N
            gap_viol += int(np.count_nonzero(
                dot * sigma.denominator > -sigma.numerator * level[sel, None]))
    return [
        Check("hull_chain_equals_direction_witness_oracle", oracle_viol, 0),
        Check("vertex_normal_sign_conditions", sign_viol, 0),
        Check("sector_cones_cover_grid", cover_viol, 0),
        Check("open_cones_pairwise_disjoint", disjoint_viol, 0),
        Check("subsector_gap_inequality_exact", gap_viol, 0),
    ]


# ---------------------------------------------------------------------------
# 4. complete sums
# ---------------------------------------------------------------------------


def _coprime_samples(q: int) -> List[int]:
    if q == 1:
        return [0]
    cands = [a for a in range(1, q) if math.gcd(a, q) == 1]
    return sorted({cands[0], cands[-1], cands[len(cands) // 2]})


def suite_gauss(seed: int = 11) -> List[Check]:
    P0 = parse_poly("m1^2*m2^3")
    ident_viol = 0
    worst_rel = 0.0
    # the second algorithm: poly.evaluate per cell in big integers, no power table
    values = [[poly.evaluate(P0, (m1, m2)) for m2 in range(1, 65)] for m1 in range(1, 65)]
    for q in range(1, 65):
        box = np.array([v % q for row in values[:q] for v in row[:q]], dtype=np.int64)
        for a in _coprime_samples(q):
            g = complete.gauss_sum(P0, Fraction(a, q)) * q * q
            s = expsum.residue_sum(a * box % q, q)
            rel = abs(g - s) / max(1.0, abs(s))
            worst_rel = max(worst_rel, rel)
            if rel > 1e-9:
                ident_viol += 1
    checks = [
        Check("complete_sum_equals_exact_double_sum", ident_viol, 0),
        Check("complete_sum_identity_worst_relative_error", worst_rel, 0.0, 1e-9),
    ]
    rng = random.Random(seed)
    polys = [("m1^2*m2^3", P0)]
    polys += [(f"random_{i}", random_nondegenerate_poly(rng)) for i in range(5)]
    worst_tail = 0.0
    for name, P in polys:
        rows = complete.dyadic_envelope(P, (8, 16, 32, 64, 128))
        env = [r["envelope"] for r in rows]
        steps_up = sum(1 for a, b in zip(env, env[1:]) if b > a + 1e-12)
        # NOTE: genuinely false for m1^2*m2^3 at Q=16 -> 32: the envelope jumps
        # from 3/8 (q=16) to 5/12 (q=36), the product 3/4 * 5/9 of the maxima
        # at q=4 and q=9 that the sweep itself multiplies; a test pins 5/12
        # by evaluating every cell of the 36 x 36 box.  The check is kept as
        # specified and reported honestly.
        checks.append(Check(f"dyadic_envelope_nonincreasing[{name}]", steps_up, 0))
        worst_tail = max(worst_tail, env[-1])
    checks.append(Check("dyadic_envelope_tail_bound", worst_tail, 0.6))
    return checks


# ---------------------------------------------------------------------------
# 5. equidistribution probe
# ---------------------------------------------------------------------------


def suite_equidistribution() -> List[Check]:
    P = parse_poly("m1^2*m2^3")
    theta = golden_ratio_conjugate(192)
    v_small = abs(ergodic.character_average(P, theta, 16, 16))
    v_big = abs(ergodic.character_average(P, theta, 1024, 1024))
    return [
        Check("character_average_tail_bound", v_big, 0.05),
        Check("character_average_decay_factor", 4.0 * v_big, v_small),
    ]


# ---------------------------------------------------------------------------
# 6. degenerate factorization
# ---------------------------------------------------------------------------


def _random_unipoly(rng: random.Random) -> UniPoly:
    deg = rng.randint(1, 4)
    coeffs = [0] + [rng.randint(-5, 5) for _ in range(deg)]
    if coeffs[-1] == 0:
        coeffs[-1] = 1
    return UniPoly(tuple(coeffs))


def suite_factorization(trials: int = 50, seed: int = 5) -> List[Check]:
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(trials):
        p1 = _random_unipoly(rng)
        p2 = _random_unipoly(rng)
        f = ergodic.FiniteFunction.of(
            {rng.randint(-40, 40): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
             for _ in range(rng.randint(1, 6))} or {0: 1.0}
        )
        M1, M2 = rng.randint(1, 8), rng.randint(1, 8)
        x = rng.randint(-10, 10)
        worst = max(worst, ergodic.degenerate_factorization_gap(p1, p2, f, M1, M2, x))
    checks = [Check("separable_two_path_gap", worst, 0.0, 1e-12)]
    # negative control: a mixed polynomial does not factor through nested averages
    f = ergodic.FiniteFunction.delta(0)
    spec = ergodic.AverageSpec(P=parse_poly("m1*m2"), M1=2, M2=2)
    mixed = ergodic.shift_average(spec, f, 1)
    nested = ergodic.shift_average(
        ergodic.AverageSpec(P=poly.separable(UniPoly((0, 1)), UniPoly((0, 1))), M1=2, M2=2),
        f, 1,
    )
    control_gap = abs(mixed - nested)
    checks.append(Check("mixed_polynomial_negative_control", 0.01, control_gap))
    return checks


# ---------------------------------------------------------------------------
# 7. arithmetic denominator sets
# ---------------------------------------------------------------------------


def suite_iw(rhos: Sequence[Fraction] = (Fraction(1, 2), Fraction(1, 4)),
             l_max: int = 3) -> List[Check]:
    checks = []
    for rho in rhos:
        rows = iw.verify_iw_properties(Fraction(rho), l_max)
        viol = sum(1 for r in rows if not r.passed)
        checks.append(Check(f"denominator_set_properties_rho_{rho.numerator}_{rho.denominator}",
                            viol, 0))
    n0 = len(iw.build_sigma(iw.IWParams(rho=Fraction(1, 2), l=0), 1))
    checks.append(Check("fraction_count_level0_abs_error", abs(n0 - 32), 0))
    reduce_viol = 0
    params = iw.IWParams(rho=Fraction(1, 2), l=2)
    for (a,), q in iw.build_sigma(params, 1):
        fr = Fraction(a, q)
        if fr.denominator != q or not 0 <= a < q:
            reduce_viol += 1
    sig2 = iw.build_sigma(iw.IWParams(rho=Fraction(1, 2), l=1), 2)
    for (a1, a2), q in sig2:
        if math.gcd(math.gcd(a1, a2), q) != 1:
            reduce_viol += 1
    checks.append(Check("fractions_already_reduced", reduce_viol, 0))
    return checks


# ---------------------------------------------------------------------------
# 8. oscillation semi-norms
# ---------------------------------------------------------------------------


# the index points 0..63 hold every interval [j0, 2**m) with m <= 6
OSC_WIDTH = 64


def _osc_trials(rng: random.Random, trials: int) -> tuple:
    """The osc suite's draws as arrays over the index points 0..63, in the
    order the trials make them: per trial an interval [j0, top) with
    top = 2**m, two families f and g on it (zero outside), a chain of 2 to 8
    of its points padded by repeating the last, a scalar c, and one half of
    a random split of the interval."""
    f = np.zeros((trials, OSC_WIDTH), dtype=complex)
    g = np.zeros_like(f)
    half = np.zeros(f.shape, dtype=bool)
    j0, top = np.zeros((2, trials), dtype=np.int64)
    chains = np.zeros((trials, 8), dtype=np.int64)
    c = np.zeros(trials, dtype=complex)
    for t in range(trials):
        b = 1 << rng.randint(3, 6)
        a = rng.randint(0, b // 2)
        j0[t], top[t] = a, b
        # each value is complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), and
        # rng.uniform(-1, 1) is -1 + 2 * rng.random(): consecutive (real,
        # imag) draws, viewed as one complex
        for fam in (f, g):
            draws = np.array([rng.random() for _ in range(2 * (b - a))])
            fam[t, a:b] = (-1.0 + 2.0 * draws).view(complex)
        pts = sorted(rng.sample(range(a, b), rng.randint(2, min(8, b - a))))
        chains[t] = pts + pts[-1:] * (8 - len(pts))
        c[t] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        dom = list(range(a, b))
        rng.shuffle(dom)
        half[t, dom[:len(dom) // 2]] = True
    return f, g, j0, top, chains, c, half


def suite_osc(trials: int = 500, seed: int = 13) -> List[Check]:
    f, g, j0, top, chains, c, half = _osc_trials(random.Random(seed), trials)
    cols = np.arange(OSC_WIDTH)
    dom = (j0[:, None] <= cols) & (cols < top[:, None])

    def o(values, domain=dom, chain=chains):
        return osc.oscillation_rows(values, cols[:, None], chain, domain)

    count = np.count_nonzero
    o_f = o(f)
    axiom_viol = count(o(f + g) > o_f + o(g) + 1e-10)
    axiom_viol += count(np.abs(o(c[:, None] * f) - np.abs(c) * o_f) > 1e-9 * (1 + np.abs(c)))
    split_viol = count(o_f > o(f, dom & half) + o(f, dom & ~half) + 1e-10)
    # a row's first and last values repeated out to the width leave its
    # variation unchanged
    edge = np.take_along_axis(f, np.clip(cols, j0[:, None], top[:, None] - 1), axis=1)
    variation_viol = count(o_f > osc.variation_rows(edge, 2.0) + 1e-10)
    rm_viol = count(o_f > osc.dyadic_block_rows(f, j0, top) + 1e-10)
    crude_viol = count(o_f > 2.0 * np.sqrt((f.real**2 + f.imag**2).sum(axis=1)) + 1e-10)
    full = np.minimum(j0[:, None] + cols, top[:, None] - 1)  # every point of the interval
    peak = np.abs(f).max(axis=1)
    anchor_peak = np.abs(np.take_along_axis(f, full, axis=1)).max(axis=1)
    max_viol = count(peak > anchor_peak + o(f, chain=full) + 1e-10)
    return [
        Check("seminorm_axioms", axiom_viol, 0),
        Check("subdomain_splitting", split_viol, 0),
        Check("oscillation_below_quadratic_variation", variation_viol, 0),
        Check("dyadic_block_majorant", rm_viol, 0),
        Check("crude_l2_bound_constant_2", crude_viol, 0),
        Check("max_dominated_by_anchors_plus_oscillation", max_viol, 0),
    ]


# ---------------------------------------------------------------------------
# 9. multiplier normalization and symmetry
# ---------------------------------------------------------------------------


def suite_multiplier(seed: int = 17) -> List[Check]:
    rng = random.Random(seed)
    grid, M1, M2, tau = 1000, 8, 8, 2
    polys = [parse_poly("m1^2*m2^3")] + [random_nondegenerate_poly(rng) for _ in range(4)]
    norm_viol = bound_viol = period_viol = conj_viol = cont_viol = 0
    for P in polys:
        if abs(circle.discrete_multiplier(P, Fraction(0), M1, M2, tau) - 1) > 1e-12:
            norm_viol += 1
        if abs(circle.continuous_multiplier(P, 0, M1, M2, tau) - 1) > 1e-9:
            cont_viol += 1
        # v(i/grid) from the DFT of the residue histogram; xi + 1 and -xi from
        # the direct term-by-term sum, so both checks compare two algorithms
        values = circle.discrete_multiplier_grid(P, grid, M1, M2, tau)
        i = np.arange(grid)
        shifted = circle.discrete_multiplier_direct(P, i + grid, grid, M1, M2, tau)
        negated = circle.discrete_multiplier_direct(P, -i, grid, M1, M2, tau)
        bound_viol += int(np.count_nonzero(np.abs(values) > 1 + 1e-12))
        period_viol += int(np.count_nonzero(np.abs(values - shifted) > 1e-12))
        conj_viol += int(np.count_nonzero(np.abs(negated - values.conj()) > 1e-12))
        # the scalar lattice kernel, spot-checked at every 50th frequency
        # against the direct sum at xi (it reduces k + grid mod grid): a
        # frequency reduced to at most the box's 16 cells reads the same
        # residue histogram as the grid
        for k in range(0, grid, 50):
            xi, v = Fraction(k, grid), complex(shifted[k])
            if abs(v - circle.discrete_multiplier(P, xi + 1, M1, M2, tau)) > 1e-12:
                period_viol += 1
            if abs(circle.discrete_multiplier(P, -xi, M1, M2, tau) - v.conjugate()) > 1e-12:
                conj_viol += 1
    return [
        Check("discrete_multiplier_normalized_at_zero", norm_viol, 0),
        Check("continuous_multiplier_normalized_at_zero", cont_viol, 0),
        Check("discrete_multiplier_bounded_by_one", bound_viol, 0),
        Check("discrete_multiplier_periodic", period_viol, 0),
        Check("discrete_multiplier_conjugation_symmetry", conj_viol, 0),
    ]


# ---------------------------------------------------------------------------
# 10. major-arc partial approximation
# ---------------------------------------------------------------------------


def suite_approx() -> List[Check]:
    P = parse_poly("m1^2*m2^3")
    diagram = newton.build_diagram(P)
    tau, beta = 2, 4.0
    M1, M2 = 4, 4096
    worst_ratio = 0.0
    step_viol = 0
    for q in range(1, 11):
        a_values = [0] if q == 1 else [a for a in range(1, q) if math.gcd(a, q) == 1]
        for a in a_values[:2]:
            center = Fraction(a, q)
            for m1 in (1, 2, 3):
                prev = None
                for m2p in (64, 128, 256, 512, 1024):
                    measured, budget = circle.partial_approx_error(
                        P, diagram, 1, m1, m2p, center, center, tau, beta, M1, M2
                    )
                    worst_ratio = max(worst_ratio, measured / budget)
                    if prev is not None and measured > 1.1 * prev + 1e-12:
                        step_viol += 1
                    prev = measured
    return [
        Check("partial_approx_ratio_cap", worst_ratio, 50.0),
        Check("partial_approx_decreases_under_doubling", step_viol, 0),
    ]


SUITES = {
    "moment": suite_moment,
    "counts": suite_counts,
    "newton": suite_newton,
    "gauss": suite_gauss,
    "equidistribution": suite_equidistribution,
    "factorization": suite_factorization,
    "iw": suite_iw,
    "osc": suite_osc,
    "multiplier": suite_multiplier,
    "approx": suite_approx,
}
