import math
import random
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from newton_circle import suites
from newton_circle.osc import (
    IncreasingSequence,
    IndexedFamily,
    oscillation,
    oscillation_rows,
    rademacher_menshov_sides,
    variation,
    variation_rows,
)

complex_values = st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)


def test_oscillation_constant_family():
    fam = IndexedFamily.of({t: 3 + 4j for t in range(6)})
    assert oscillation(fam, IncreasingSequence.of([0, 3, 5])) == 0.0


def test_oscillation_1d_example():
    fam = IndexedFamily.of({0: 0, 1: 1, 2: 2})
    assert oscillation(fam, IncreasingSequence.of([0, 2])) == 1.0


def test_oscillation_2d_indicator():
    fam = IndexedFamily.of({(1, 1): 0, (2, 3): 0, (1, 2): 1, (3, 1): 0})
    hit = IncreasingSequence.of([(1, 1), (2, 3)])
    assert oscillation(fam, hit) == 1.0
    miss = IncreasingSequence.of([(2, 3), (4, 4)])
    fam2 = IndexedFamily.of({(2, 3): 0, (4, 4): 0, (1, 2): 1})
    assert oscillation(fam2, miss) == 0.0


def test_oscillation_empty_box_contributes_zero():
    fam = IndexedFamily.of({0: 1, 10: 5})
    assert oscillation(fam, IncreasingSequence.of([0, 10])) == 0.0


def test_oscillation_requires_anchor_values():
    fam = IndexedFamily.of({0: 1, 2: 2})
    with pytest.raises(ValueError):
        oscillation(fam, IncreasingSequence.of([0, 1]))
    with pytest.raises(ValueError):
        oscillation(fam, IncreasingSequence.of([2, 0]))


def _scan_oscillation(family, seq, subdomain=None):
    # the definition, box by box: scan the whole domain for each box
    domain = set(family.values) if subdomain is None else (
        {p if isinstance(p, tuple) else (p,) for p in subdomain} & set(family.values))
    total = 0.0
    for lo, hi in zip(seq.points, seq.points[1:]):
        best = 0.0
        for t in domain:
            if all(l <= x < h for x, l, h in zip(t, lo, hi)):
                best = max(best, abs(family.values[t] - family.values[lo]))
        total += best * best
    return math.sqrt(total)


def _random_case(rng, dim):
    if dim == 1:
        top = rng.randint(2, 64)
        keys = sorted(set(rng.sample(range(-8, top), rng.randint(2, top))))
        chain = sorted(rng.sample(keys, rng.randint(2, min(8, len(keys)))))
        outside = [rng.randint(-20, top + 20) for _ in range(6)]
    else:
        a, b = rng.randint(2, 16), rng.randint(2, 16)
        k = rng.randint(2, min(a, b))
        chain = list(zip(sorted(rng.sample(range(a), k)), sorted(rng.sample(range(b), k))))
        keys = {(i, j) for i in range(a) for j in range(b) if rng.random() < 0.8}
        keys = sorted(keys | set(chain))
        outside = [(rng.randint(-3, a + 3), rng.randint(-3, b + 3)) for _ in range(6)]
    family = IndexedFamily.of({t: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for t in keys})
    subdomain = [t for t in family.values if rng.random() < 0.5] + outside
    return family, IncreasingSequence.of(chain), subdomain


@pytest.mark.parametrize("dim", [1, 2])
def test_oscillation_equals_box_scan(dim):
    rng = random.Random(dim)
    for _ in range(300):
        family, seq, subdomain = _random_case(rng, dim)
        assert oscillation(family, seq) == _scan_oscillation(family, seq)
        assert (oscillation(family, seq, subdomain)
                == _scan_oscillation(family, seq, subdomain))


def _stacked(cases):
    """The cases as one kernel batch: every case on the union of their index
    points, chains padded by repeating their last index, and each case twice,
    on its whole family and on its subdomain."""
    points = sorted(set().union(*(family.values for family, _, _ in cases)))
    where = {t: i for i, t in enumerate(points)}
    width = max(len(seq.points) for _, seq, _ in cases)
    values = np.zeros((2 * len(cases), len(points)), dtype=complex)
    chains = np.zeros((2 * len(cases), width), dtype=np.int64)
    domain = np.zeros(values.shape, dtype=bool)
    for f, (family, seq, subdomain) in enumerate(cases):
        cols = [where[t] for t in family.values]
        chain = [where[p] for p in seq.points]
        sub = {p if isinstance(p, tuple) else (p,) for p in subdomain} & set(family.values)
        for row in (2 * f, 2 * f + 1):
            values[row, cols] = list(family.values.values())
            chains[row] = chain + chain[-1:] * (width - len(chain))
        domain[2 * f, cols] = True
        domain[2 * f + 1, [where[t] for t in sub]] = True
    return values, np.array(points), chains, domain


@pytest.mark.parametrize("dim", [1, 2])
def test_oscillation_rows_equal_box_scan_in_one_batch(dim):
    # the cases of test_oscillation_equals_box_scan, as one batch whose
    # families share no index set: the domain masks keep them apart
    rng = random.Random(dim)
    cases = [_random_case(rng, dim) for _ in range(300)]
    rows = oscillation_rows(*_stacked(cases)).tolist()
    expected = []
    for family, seq, subdomain in cases:
        expected += [_scan_oscillation(family, seq), _scan_oscillation(family, seq, subdomain)]
    assert rows == expected


def test_variation_examples():
    assert variation(IndexedFamily.of({i: i for i in range(5)}), 1.0) == pytest.approx(4)
    assert variation(IndexedFamily.of({0: 0, 1: 1, 2: 0}), 2.0) == pytest.approx(math.sqrt(2))
    assert variation(IndexedFamily.of({0: 7, 1: 7}), 2.0) == 0.0


@pytest.mark.parametrize("rho", [math.nan, 0.5, -math.inf])
def test_variation_rejects_an_exponent_below_one_or_nan(rho):
    with pytest.raises(ValueError, match=re.escape(f"variation exponent must be >= 1, got {rho}")):
        variation(IndexedFamily.of({0: 0, 1: 1}), rho)


@pytest.mark.parametrize("values, rho", [((1, 2, 3), 1e308), ((1e200, -1e200, 3), 2.0),
                                         ((0, 1e155, 0, 1e155, 0), 2.0)])
def test_variation_past_the_float_range_is_a_named_error(values, rho):
    # an increment ** rho that overflows, and a sum of finite terms that does
    with pytest.raises(ValueError, match=re.escape(f"rho = {rho} exceeds the largest float")):
        variation(IndexedFamily.of(dict(enumerate(values))), rho)


def _enumerated_variation(vals, rho):
    # the definition: the best rho-sum over every subsequence of 2 or more points
    best = 0.0
    for size in range(2, len(vals) + 1):
        for sub in combinations(range(len(vals)), size):
            s = sum(abs(vals[b] - vals[a]) ** rho for a, b in zip(sub, sub[1:]))
            best = max(best, s ** (1 / rho))
    return best


def _random_values(rng, n):
    return [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]


def test_variation_dp_matches_enumeration(rng):
    for _ in range(30):
        n = rng.randint(2, 9)
        vals = _random_values(rng, n)
        fam = IndexedFamily.of(dict(enumerate(vals)))
        for rho in (1.0, 1.5, 2.0, 3.0):
            assert variation(fam, rho) == pytest.approx(_enumerated_variation(vals, rho), abs=1e-9)


def test_variation_rows_match_enumeration(rng):
    # rows of 2 to 9 points in one batch, each padded to 12 columns by
    # repeating its first value before it and its last after it
    families, rows = [], []
    for _ in range(30):
        vals = _random_values(rng, rng.randint(2, 9))
        lead = rng.randint(0, 12 - len(vals))
        families.append(vals)
        rows.append([vals[0]] * lead + vals + [vals[-1]] * (12 - lead - len(vals)))
    values = np.array(rows)
    for rho in (1.0, 1.5, 2.0, 3.0):
        got = variation_rows(values, rho)
        for row, vals in zip(got, families):
            assert row == pytest.approx(_enumerated_variation(vals, rho), abs=1e-9)


def test_oscillation_below_variation(rng):
    for _ in range(50):
        n = rng.randint(3, 12)
        fam = IndexedFamily.of(
            {i: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for i in range(n)}
        )
        pts = sorted(rng.sample(range(n), rng.randint(2, n)))
        seq = IncreasingSequence.of(pts)
        o = oscillation(fam, seq)
        for rho in (1.0, 1.5, 2.0):
            assert o <= variation(fam, rho) + 1e-9


def test_rademacher_menshov_example():
    fam = IndexedFamily.of({k: (1.0 if k == 3 else 0.0) for k in range(8)})
    lhs, rhs = rademacher_menshov_sides(fam, IncreasingSequence.of([0, 4, 7]))
    assert lhs <= rhs
    assert rhs >= math.sqrt(2)


def test_rademacher_menshov_constant():
    fam = IndexedFamily.of({k: 2j for k in range(4, 8)})
    lhs, rhs = rademacher_menshov_sides(fam, IncreasingSequence.of([4, 6]))
    assert lhs == 0.0 and rhs == 0.0


def test_rademacher_menshov_malformed_interval():
    with pytest.raises(ValueError):
        rademacher_menshov_sides(
            IndexedFamily.of({0: 1, 1: 1, 2: 1}),  # ends at 3, not a power of two
            IncreasingSequence.of([0, 2]),
        )


@settings(max_examples=120, deadline=None)
@given(st.lists(complex_values, min_size=4, max_size=32), st.data())
def test_rademacher_menshov_majorant_property(values, data):
    m = 1
    while (1 << m) < len(values):
        m += 1
    values = values + [0j] * ((1 << m) - len(values))
    fam = IndexedFamily.of({i: v for i, v in enumerate(values)})
    size = data.draw(st.integers(min_value=2, max_value=min(6, len(values))))
    pts = sorted(data.draw(
        st.lists(st.integers(min_value=0, max_value=len(values) - 1),
                 min_size=size, max_size=size, unique=True)
    ))
    lhs, rhs = rademacher_menshov_sides(fam, IncreasingSequence.of(pts))
    assert lhs <= rhs + 1e-9


@settings(max_examples=80, deadline=None)
@given(st.lists(complex_values, min_size=3, max_size=16),
       st.lists(complex_values, min_size=3, max_size=16))
def test_seminorm_triangle_inequality(xs, ys):
    n = min(len(xs), len(ys))
    f = IndexedFamily.of({i: xs[i] for i in range(n)})
    g = IndexedFamily.of({i: ys[i] for i in range(n)})
    h = IndexedFamily.of({i: xs[i] + ys[i] for i in range(n)})
    seq = IncreasingSequence.of(list(range(n)))
    assert oscillation(h, seq) <= oscillation(f, seq) + oscillation(g, seq) + 1e-9


def _scalar_osc_draws(rng, trials):
    """The osc suite's draws made the scalar way, families as dicts: per
    trial (j0, top, f, g, chain, c), then the shuffle of the index set."""
    out = []
    for _ in range(trials):
        top = 1 << rng.randint(3, 6)
        j0 = rng.randint(0, top // 2)
        f, g = (IndexedFamily.of({k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                  for k in range(j0, top)}) for _ in range(2))
        size = rng.randint(2, min(8, top - j0))
        chain = IncreasingSequence.of(sorted(rng.sample(range(j0, top), size)))
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        dom = list(f.values)  # the shuffle draws the same for any order
        rng.shuffle(dom)
        out.append((j0, top, f, g, chain, c))
    return out


@pytest.mark.parametrize("seed", [13, 7])
def test_osc_suite_draws_the_scalar_inputs(seed):
    arrays, scalar = random.Random(seed), random.Random(seed)
    f, g, j0, top, chains, c, half = suites._osc_trials(arrays, 500)
    for t, (a, b, fam, gam, chain, ct) in enumerate(_scalar_osc_draws(scalar, 500)):
        assert (j0[t], top[t], c[t]) == (a, b, ct)
        for row, family in ((f[t], fam), (g[t], gam)):
            assert row[a:b].tolist() == [family.values[(k,)] for k in range(a, b)]
            assert not row[:a].any() and not row[b:].any()
        pts = [p[0] for p in chain.points]
        assert chains[t].tolist() == pts + pts[-1:] * (8 - len(pts))
        assert half[t].sum() == (b - a) // 2 and not half[t, :a].any() and not half[t, b:].any()
    assert arrays.getstate() == scalar.getstate()
