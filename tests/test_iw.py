import math
from fractions import Fraction

import numpy as np
import pytest

from newton_circle.iw import (
    ConfigurationError,
    EnumerationCapError,
    IWParams,
    build_p_le,
    build_sigma,
    lcm_log2,
    sigma_fractions,
    verify_iw_properties,
)


def test_params_derived_quantities():
    p = IWParams(rho=Fraction(1, 2), l=2)
    assert (p.D, p.N0, p.Q0) == (5, 2, 32)
    p = IWParams(rho=Fraction(1, 4), l=3)
    assert p.D == 9
    assert p.N0 == 2
    assert p.Q0 == 2**9


def test_params_invariants():
    for rho in (Fraction(1, 2), Fraction(1, 4), Fraction(2, 3), Fraction(99, 100)):
        for l in range(5):
            p = IWParams(rho=rho, l=l)
            assert p.D >= 3
            assert p.N0 >= 2


def test_params_validation():
    with pytest.raises(ConfigurationError):
        IWParams(rho=Fraction(3, 2), l=1)
    with pytest.raises(ConfigurationError):
        IWParams(rho=Fraction(1, 2), l=12, enumeration_cap=100)


def test_level0_denominators():
    sets = build_p_le(IWParams(rho=Fraction(1, 2), l=0))
    assert sets.p_le == (1, 2, 4, 8, 16, 32)
    assert not sets.truncated


def test_level2_denominators():
    sets = build_p_le(IWParams(rho=Fraction(1, 2), l=2))
    divisors = {1, 2, 4, 8, 16, 32}
    products = {1, 3, 9, 27, 81, 243}
    expected = sorted({d * w for d in divisors for w in products})
    assert sets.p_le == tuple(expected)
    # medium primes in (2, 4] are exactly {3}
    assert 3 in sets.p_le and 5 not in sets.p_le


def test_initial_segment_contained():
    sets = build_p_le(IWParams(rho=Fraction(1, 2), l=2))
    assert all(n in set(sets.p_le) for n in range(1, 5))


def test_factorization_structure():
    params = IWParams(rho=Fraction(1, 2), l=3)
    sets = build_p_le(params)
    primes_mid = [p for p in (3, 5, 7) if p > params.N0]
    for q in sets.p_le:
        w = 1
        rest = q
        for p in primes_mid:
            while rest % p == 0:
                rest //= p
                w *= p
        assert params.Q0 % rest == 0


def test_truncation_flag():
    sets = build_p_le(IWParams(rho=Fraction(1, 2), l=4, enumeration_cap=10**4))
    assert sets.truncated
    assert all(q <= 10**4 for q in sets.p_le)


def _factorizations(top):
    """{p: e} for every n in [1, top], from a smallest-prime-factor sieve."""
    spf = list(range(top + 1))
    for p in range(2, math.isqrt(top) + 1):
        if spf[p] == p:
            for m in range(p * p, top + 1, p):
                spf[m] = min(spf[m], p)
    out = [None, {}]
    for n in range(2, top + 1):
        fac = dict(out[n // spf[n]])
        fac[spf[n]] = fac.get(spf[n], 0) + 1
        out.append(fac)
    return out


# the primes up to 31, the largest N0 on the grid of test_p_le_matches_its_definition
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _factor_table(factorizations):
    """Per q >= 1 of _factorizations, one row: v_p(q) for each p in
    _SMALL_PRIMES, then the count, largest exponent and largest prime of the
    prime factors of q above 31 (0 where q has none)."""
    rows = []
    for fac in factorizations[1:]:
        big = {p: e for p, e in fac.items() if p > _SMALL_PRIMES[-1]}
        rows.append([fac.get(p, 0) for p in _SMALL_PRIMES]
                    + [len(big), max(big.values(), default=0), max(big, default=0)])
    return np.array(rows, dtype=np.int64)


def _valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def test_p_le_matches_its_definition():
    # the set, read off each q's factorisation: v_p(q) <= v_p((N0!)**D) for
    # p <= N0, and every other prime in (N0, 2**l], at most D of them, each
    # to a power <= D; truncated iff the largest uncapped member, (N0!)**D
    # times p**D over the D largest medium primes, passes the cap
    top = 20000
    factorizations = _factorizations(top)
    table = _factor_table(factorizations)
    exps, big_count, big_exp, big_prime = table[:, :-3], table[:, -3], table[:, -2], table[:, -1]
    small = np.array(_SMALL_PRIMES)
    for rho in (Fraction(1, 2), Fraction(1, 4), Fraction(2, 3), Fraction(9, 10), Fraction(1, 10)):
        for l in range(12):
            params = IWParams(rho=rho, l=l)
            N0, D, Q0 = params.N0, params.D, params.Q0
            assert N0 <= _SMALL_PRIMES[-1]  # so every p <= N0 has its column
            low = small <= N0
            # the factors above N0: primes in (N0, 31], then those above 31
            mid, mid_primes = exps[:, ~low], small[~low]
            count = (mid > 0).sum(axis=1) + big_count
            largest_exp = np.maximum(mid.max(axis=1, initial=0), big_exp)
            largest_prime = np.maximum((mid_primes * (mid > 0)).max(axis=1, initial=0), big_prime)
            # v_p(Q0) read from Q0 itself
            q0_exps = np.array([_valuation(Q0, p) for p in _SMALL_PRIMES if p <= N0])
            ok = ((exps[:, low] <= q0_exps).all(axis=1) & (count <= D)
                  & (largest_exp <= D) & (largest_prime <= 2**l))
            members = (np.flatnonzero(ok) + 1).tolist()
            medium = [p for p in range(N0 + 1, 2**l + 1) if factorizations[p] == {p: 1}]
            largest = Q0 * math.prod(p**D for p in medium[-D:])
            for cap in [c for c in (2**l, 2**l + 1, 500, 4096, top) if c >= 2**l]:
                sets = build_p_le(IWParams(rho=rho, l=l, enumeration_cap=cap))
                assert sets.p_le == tuple(q for q in members if q <= cap), (rho, l, cap)
                assert sets.truncated == (largest > cap), (rho, l, cap)


def test_sigma_level0_count():
    sig = build_sigma(IWParams(rho=Fraction(1, 2), l=0), 1)
    assert len(sig) == 32
    # equals the totient sum over the denominator set
    tot = sum(
        1 if q == 1 else sum(1 for a in range(1, q) if math.gcd(a, q) == 1)
        for q in build_p_le(IWParams(rho=Fraction(1, 2), l=0)).p_le
    )
    assert tot == 32


def test_sigma_entries_reduced():
    for (a,), q in build_sigma(IWParams(rho=Fraction(1, 2), l=2), 1):
        assert 0 <= a < q
        assert math.gcd(a, q) == 1
    for (a1, a2), q in build_sigma(IWParams(rho=Fraction(1, 2), l=0), 2):
        assert math.gcd(math.gcd(a1, a2), q) == 1


def test_sigma_nesting():
    lo = set(sigma_fractions(IWParams(rho=Fraction(1, 2), l=0)))
    hi = set(sigma_fractions(IWParams(rho=Fraction(1, 2), l=1)))
    assert lo <= hi


def test_sigma_single_fraction_for_q1():
    sig = [e for e in build_sigma(IWParams(rho=Fraction(1, 2), l=0), 1) if e[1] == 1]
    assert sig == [((0,), 1)]


def test_sigma_cap(monkeypatch):
    import newton_circle.iw as iw_mod

    monkeypatch.setattr(iw_mod, "SIGMA_CARDINALITY_CAP", 10)
    with pytest.raises(EnumerationCapError, match="cap is 10;"):
        build_sigma(IWParams(rho=Fraction(1, 2), l=3), 2)


def test_properties_pass():
    for rho in (Fraction(1, 2), Fraction(1, 4)):
        for check in verify_iw_properties(rho, 3):
            assert check.passed, check


def test_properties_catch_broken_set(monkeypatch):
    # regression fixture: removing 3 from a level-2 set must break containment
    import newton_circle.iw as iw_mod

    real = iw_mod.p_le_values

    def broken(rho, l):
        vals = real(rho, l)
        if l == 2:
            vals = tuple(v for v in vals if v != 3)
        return vals

    monkeypatch.setattr(iw_mod, "p_le_values", broken)
    checks = iw_mod.verify_iw_properties(Fraction(1, 2), 2)
    failed = [c for c in checks if not c.passed]
    assert any(c.name == "initial_segment_l2" for c in failed)


def test_lcm_log2():
    sets = build_p_le(IWParams(rho=Fraction(1, 2), l=0))
    assert lcm_log2(sets) == pytest.approx(5.0)
