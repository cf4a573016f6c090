import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from newton_circle.osc import (
    IncreasingSequence,
    IndexedFamily,
    oscillation,
    rademacher_menshov_sides,
    variation,
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


def test_variation_examples():
    assert variation(IndexedFamily.of({i: i for i in range(5)}), 1.0) == pytest.approx(4)
    assert variation(IndexedFamily.of({0: 0, 1: 1, 2: 0}), 2.0) == pytest.approx(math.sqrt(2))
    assert variation(IndexedFamily.of({0: 7, 1: 7}), 2.0) == 0.0


@pytest.mark.parametrize("values, rho", [((1, 2, 3), 1e308), ((1e200, -1e200, 3), 2.0),
                                         ((0, 1e155, 0, 1e155, 0), 2.0)])
def test_variation_past_the_float_range_is_a_named_error(values, rho):
    # an increment ** rho that overflows, and a sum of finite terms that does
    with pytest.raises(ValueError, match=re.escape(f"rho = {rho} exceeds the largest float")):
        variation(IndexedFamily.of(dict(enumerate(values))), rho)


def test_variation_dp_matches_enumeration(rng):
    for _ in range(30):
        n = rng.randint(2, 9)
        fam = IndexedFamily.of(
            {i: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for i in range(n)}
        )
        for rho in (1.0, 1.5, 2.0, 3.0):
            dp = variation(fam, rho)
            brute = 0.0
            from itertools import combinations

            vals = [fam.values[(i,)] for i in range(n)]
            for size in range(2, n + 1):
                for sub in combinations(range(n), size):
                    s = sum(abs(vals[b] - vals[a]) ** rho for a, b in zip(sub, sub[1:]))
                    brute = max(brute, s ** (1 / rho))
            assert dp == pytest.approx(brute, abs=1e-9)


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
