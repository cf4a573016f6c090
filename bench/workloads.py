"""Seeded inputs for the three benchmark workloads.

Every workload is a fixed schedule of operation kinds and sizes, run in a
fixed order; the seed chooses everything else (polynomials, numerators,
exact moduli, phases).  The fixed order also keeps the library's cache
contents, and so peak memory, alike across seeds.
Sizes follow fixed geometric ladders and random polynomials have a fixed
shape, so the cost of a batch barely depends on the seed while its inputs
do.  The same seed always gives the same inputs.

Anchors are the fixed-size probes named in ROADMAP item 1; their references
are seed-independent and stored in ``reference/anchors.json``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from newton_circle import newton
from newton_circle.arith import golden_ratio_conjugate
from newton_circle.poly import Poly2, parse_poly
from newton_circle.suites import SUITES, random_nondegenerate_poly

WORKLOADS = ("verify_suites", "exact_phase_queries", "wide_phase_queries")

# Root-of-unity table bound of the exact path; larger moduli take the trig
# fallback.  Used only to classify generated inputs.
TABLE_MAX = 1 << 16

# verify_suites ships stored reference rows for seed % VERIFY_SEEDS; index 0
# runs the suites' pinned defaults (no --seed flag).
VERIFY_SEEDS = 10
# Per-suite strength overrides.  The default strength (about 30-45 s a pass)
# does not fit the benchmark's time budget.  moment, newton and osc keep their
# pinned seeds: their cost depends strongly on what the seed draws (one
# (s, k, N) = (3, 3, 20) moment draw costs seconds; newton's cost follows the
# support sizes), which would make a run's time depend on the seed.
VERIFY_ARGS = {"moment": ["--trials", "10"], "newton": ["--trials", "40"]}
VERIFY_SEEDED = ("factorization", "gauss", "multiplier")

M1M2 = parse_poly("m1^2*m2^3")


@dataclass(frozen=True)
class Query:
    kind: str
    args: tuple
    anchor: str = ""     # set for seed-independent anchors with stored references


def ladder(lo: float, hi: float, n: int, integer: bool = True) -> List:
    """n geometrically spaced sizes from lo to hi inclusive."""
    vals = [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]
    return [round(v) for v in vals] if integer else vals


def shaped_poly(rng: random.Random) -> Poly2:
    """A random nondegenerate polynomial with 4 terms and m2-degree 4.

    The exact kernels cost about (terms + m2-degree) per lattice point, so a
    fixed shape keeps a batch's cost independent of the seed.
    """
    while True:
        P = random_nondegenerate_poly(rng)
        if len(P.terms) == 4 and P.partial_degrees[1] == 4:
            return P


def _paired(sizes: List, costs: List) -> List[Tuple]:
    """Pair two ladders in a fixed scrambled order, the same for every seed, so
    the distribution of per-query cost does not depend on the seed."""
    return list(zip(sizes, random.Random("pairing").sample(costs, len(costs))))


def _coprime(rng: random.Random, q: int) -> int:
    while True:
        a = rng.randrange(1, q) if q > 1 else 0
        if math.gcd(a, q) == 1:
            return a


def _modulus(rng: random.Random, q0: int, cap: int) -> int:
    return min(cap, rng.randint(q0, max(q0, q0 + q0 // 10)))


def _phase_range(P: Poly2, M1: float, M2: float) -> float:
    return sum(abs(c) * M1**g1 * M2**g2 for (g1, g2), c in P.terms.items())


def verify_calls(seed: int) -> List[List[str]]:
    """CLI argument lists, one per suite, in the order `verify --suite all` runs them."""
    k = seed % VERIFY_SEEDS
    calls = []
    for name in sorted(SUITES):
        argv = ["verify", "--suite", name, "--stable-runtime"] + VERIFY_ARGS.get(name, [])
        if k and name in VERIFY_SEEDED:
            argv += ["--seed", str(k)]
        calls.append(argv)
    return calls


def exact_queries(seed: int) -> List[Query]:
    """Exact-rational queries whose phases take the root-table path (q <= 2**16)."""
    rng = random.Random(f"exact:{seed}")
    out = [
        Query("double_sum", (M1M2, Fraction(3, 7), 0, 400, 0, 400), "ds_3_7_M400"),
        Query("weyl_sum", ((Fraction(1, 3), Fraction(0), Fraction(1, 5), Fraction(3, 7)), 10**4),
              "weyl_k4_N10000"),
        Query("gauss_sum_sweep", (M1M2, 1, 400), "sweep_q400"),
    ]
    for side, q0 in _paired(ladder(8, 400, 48), ladder(2, TABLE_MAX - TABLE_MAX // 10, 48)):
        q = _modulus(rng, q0, TABLE_MAX)
        out.append(Query("double_sum", (shaped_poly(rng), Fraction(_coprime(rng, q), q),
                                        0, side, 0, side)))
    for side, q0 in _paired(ladder(8, 200, 24), ladder(2, 4096, 24)):
        q = _modulus(rng, q0, TABLE_MAX)
        out.append(Query("double_sum_abs", (shaped_poly(rng), Fraction(_coprime(rng, q), q),
                                            0, side, 0, side, rng.choice((1, 2)))))
    for i, (N, q0) in enumerate(_paired(ladder(100, 20000, 40), ladder(2, 60000, 40))):
        k = 1 + i % 4
        q = _modulus(rng, q0, TABLE_MAX)
        coeffs = tuple(Fraction(rng.randrange(q), q) for _ in range(k - 1)) + (
            Fraction(_coprime(rng, q), q),)
        out.append(Query("weyl_sum", (coeffs, N)))
    for q0 in ladder(2, 360, 16):
        q = _modulus(rng, q0, 400)
        out.append(Query("gauss_sum", (shaped_poly(rng), Fraction(_coprime(rng, q), q))))
    for q0 in ladder(2, 360, 40):
        q = _modulus(rng, q0, 400)
        out.append(Query("partial_gauss", (shaped_poly(rng), Fraction(_coprime(rng, q), q),
                                           rng.randint(1, 64), rng.choice((1, 2)))))
    for q0 in ladder(2, 398, 16):
        out.append(Query("gauss_sum_sweep", (shaped_poly(rng), q0, q0 + 2)))
    for M, q0 in _paired(ladder(4, 64, 40), ladder(2, 1000, 40)):
        q = _modulus(rng, q0, 1000)
        out.append(Query("discrete_multiplier", (shaped_poly(rng), Fraction(_coprime(rng, q), q),
                                                 M, M, 2)))
    random.Random("order").shuffle(out)
    return out


def wide_queries(seed: int) -> List[Query]:
    """The same query kinds with phases the small-modulus path cannot take:
    binary floats, the 192-bit golden-ratio probe and moduli above 2**16."""
    rng = random.Random(f"wide:{seed}")
    golden = golden_ratio_conjugate(192)
    out = [
        Query("double_sum", (M1M2, 0.1234567, 0, 400, 0, 400), "float_ds_M400"),
        Query("double_sum", (parse_poly("m1^3*m2^4 + m1*m2"), 0.1234567, 0, 200, 0, 200),
              "float_ds_roadmap_M200"),
        Query("weyl_sum", ((0.1, 0.0, 0.0, 0.3141), 5000), "float_weyl_N5000"),
        Query("character_average", (M1M2, golden, 1024, 1024, "full", None),
              "golden_charavg_M1024"),
        Query("double_sum", (M1M2, Fraction(12345, 65537), 0, 400, 0, 400), "ds_q65537_M400"),
        Query("continuous_multiplier", (M1M2, 0.001, 8, 8, 2, None), "cont_xi0.001_M8"),
        Query("continuous_multiplier", (M1M2, 0.01, 8, 8, 2, None), "cont_xi0.01_M8"),
    ]
    for side in ladder(8, 300, 32):
        out.append(Query("double_sum", (shaped_poly(rng), rng.uniform(0.01, 1.0),
                                        0, side, 0, side)))
    for i, N in enumerate(ladder(100, 20000, 24)):
        k = 1 + i % 4
        out.append(Query("weyl_sum", (tuple(rng.uniform(0.0, 1.0) for _ in range(k)), N)))
    for side in ladder(8, 256, 16):
        out.append(Query("double_sum", (shaped_poly(rng), golden, 0, side, 0, side)))
    for i, side in enumerate(ladder(16, 256, 8)):
        region, tau = ("truncated", Fraction(2)) if i % 2 else ("full", None)
        out.append(Query("character_average", (shaped_poly(rng), golden, side, side, region, tau)))
    for side, q0 in _paired(ladder(8, 300, 24), ladder(TABLE_MAX + 1, 1 << 30, 24)):
        q = rng.randint(q0, q0 + q0 // 10)
        while math.gcd(q, 210) != 1:    # no coefficient (|c| <= 9) may cancel q below 2**16
            q += 1
        out.append(Query("double_sum", (shaped_poly(rng), Fraction(_coprime(rng, q), q),
                                        0, side, 0, side)))
    for i, N in enumerate(ladder(100, 20000, 16)):
        k = 1 + i % 4
        q = rng.randint(TABLE_MAX + 1, 1 << 40)
        coeffs = tuple(Fraction(rng.randrange(q), q) for _ in range(k - 1)) + (
            Fraction(_coprime(rng, q), q),)
        out.append(Query("weyl_sum", (coeffs, N)))
    # quadrature depth follows the phase range, so it is fixed by a ladder
    for target in ladder(0.25, 8.0, 12, integer=False):
        P = shaped_poly(rng)
        M1, M2 = rng.randint(4, 16), rng.randint(4, 16)
        out.append(Query("continuous_multiplier",
                         (P, target / _phase_range(P, M1, M2), M1, M2, 2, None)))
    for target in ladder(1.0, 300.0, 16, integer=False):
        P = shaped_poly(rng)
        M, frozen, axis = rng.randint(8, 64), rng.randint(1, 8), rng.choice((1, 2))
        xi = target / (_phase_range(P, frozen, M) if axis == 1 else _phase_range(P, M, frozen))
        out.append(Query("continuous_multiplier", (P, xi, M, M, 2, (axis, frozen))))
    for i, M in enumerate(ladder(64, 256, 48)):
        P = shaped_poly(rng)
        diagram = newton.build_diagram(P)
        j = min(newton.sector_membership(diagram, (1, 1)))
        kind = i % 3
        if kind == 0:
            xi = golden_ratio_conjugate(rng.choice((64, 96, 128, 192)))
        elif kind == 1:
            xi = rng.random()
        else:
            q = rng.getrandbits(80) | (1 << 79)
            xi = Fraction(rng.randrange(q), q)
        out.append(Query("arc_classify", (P, diagram, j, xi, M, M, 4.0, 2)))
    random.Random("order").shuffle(out)
    return out


def generate(workload: str, seed: int):
    if workload == "verify_suites":
        return verify_calls(seed)
    if workload == "exact_phase_queries":
        return exact_queries(seed)
    if workload == "wide_phase_queries":
        return wide_queries(seed)
    raise ValueError(f"unknown workload {workload!r}")


def path_of(coeffs) -> str:
    """Phase path an input takes: 'float', or 'table' / 'wide' by the common
    denominator of the exact coefficients."""
    if any(isinstance(c, float) for c in coeffs):
        return "float"
    L = 1
    for c in coeffs:
        L = math.lcm(L, Fraction(c).denominator)
    return "table" if L <= TABLE_MAX else "wide"
