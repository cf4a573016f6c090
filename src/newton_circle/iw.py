"""Ionescu-Wainger denominator sets and their reduced-fraction companions.

The sets are built exactly: the factorial block comes from a Legendre-formula
factorization, the medium-prime block from a capped depth-first product
enumeration.  Truncation against the enumeration cap is always explicit via
a flag; nothing is dropped silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

DEFAULT_ENUMERATION_CAP = 10**6
SIGMA_CARDINALITY_CAP = 4_000_000  # candidate tuples build_sigma may enumerate
MAX_LEVEL = 24  # sieve bound 2**l stays desk-scale


class ConfigurationError(ValueError):
    """Parameters cannot produce a meaningful enumeration (e.g. cap < 2**l)."""


class EnumerationCapError(RuntimeError):
    """Requested fraction set is too large; its cardinality grows like
    2**(C*(d+1)*2**(rho*l)) and the configured cap would be exceeded."""


@dataclass(frozen=True)
class IWParams:
    rho: Fraction
    l: int
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP

    def __post_init__(self):
        rho = Fraction(self.rho)
        object.__setattr__(self, "rho", rho)
        if not 0 < rho < 1:
            raise ConfigurationError(f"rho must lie in (0,1), got {rho}")
        if self.l < 0 or self.l > MAX_LEVEL:
            raise ConfigurationError(f"level must lie in [0, {MAX_LEVEL}], got {self.l}")
        if self.enumeration_cap < 2**self.l:
            raise ConfigurationError(
                f"cap {self.enumeration_cap} cannot contain the first 2**{self.l} integers"
            )

    @property
    def D(self) -> int:
        return math.floor(2 / self.rho) + 1

    @property
    def N0(self) -> int:
        # floor(2**(rho*l/2)) + 1, computed exactly for rational rho
        e = self.rho * self.l / 2
        p, q = e.numerator, e.denominator
        return _floor_root(2**p, q) + 1

    @property
    def Q0(self) -> int:
        return math.factorial(self.N0) ** self.D


def _floor_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for positive integers, exact."""
    if k == 1:
        return n
    x = int(round(n ** (1.0 / k)))
    while x**k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


@dataclass(frozen=True)
class IWSets:
    params: IWParams
    p_le: Tuple[int, ...]
    truncated: bool


def _sieve(limit: int) -> List[int]:
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i, f in enumerate(flags) if f]


def _factorial_factorization(n: int, power: int) -> Dict[int, int]:
    """Prime factorization of (n!)**power via Legendre's formula."""
    out = {}
    for p in _sieve(n):
        e, pk = 0, p
        while pk <= n:
            e += n // pk
            pk *= p
        out[p] = e * power
    return out


def _divisors_capped(factorization: Dict[int, int], cap: int) -> Tuple[List[int], bool]:
    divisors = [1]
    truncated = False
    for p, e in factorization.items():
        new = []
        for d in divisors:
            v = d
            for _ in range(e + 1):
                if v > cap:
                    truncated = True
                    break
                new.append(v)
                v *= p
        divisors = new
    return sorted(set(divisors)), truncated


def medium_prime_products(params: IWParams) -> Tuple[List[int], bool]:
    """Products of 1..D distinct primes from (N0, 2**l], each at powers 1..D,
    capped at the enumeration cap."""
    primes = [p for p in _sieve(2**params.l) if p > params.N0]
    cap, D = params.enumeration_cap, params.D
    out: List[int] = []
    truncated = False

    def grow(start: int, value: int, used: int) -> None:
        nonlocal truncated
        for i in range(start, len(primes)):
            p = primes[i]
            if value * p > cap:
                # primes are sorted, so every remaining extension overflows too
                truncated = True
                break
            v = value
            for _ in range(D):
                v *= p
                if v > cap:
                    truncated = True
                    break
                out.append(v)
                if used + 1 < D:
                    grow(i + 1, v, used + 1)

    grow(0, 1, 0)
    return sorted(set(out)), truncated


def build_p_le(params: IWParams) -> IWSets:
    """The denominator set: {Q*w <= cap, Q | (N0!)**D, w a medium-prime product}."""
    fact = _factorial_factorization(params.N0, params.D)
    divisors, trunc_d = _divisors_capped(fact, params.enumeration_cap)
    products, trunc_w = medium_prime_products(params)
    cap = params.enumeration_cap
    values = set()
    truncated = trunc_d or trunc_w
    for w in [1] + products:
        for d in divisors:
            v = d * w
            if v <= cap:
                values.add(v)
            else:
                truncated = True
    return IWSets(
        params=params,
        p_le=tuple(sorted(values)),
        truncated=truncated,
    )


def p_le_values(rho: Fraction, l: int) -> Tuple[int, ...]:
    if l < 0:
        return ()
    return build_p_le(IWParams(rho=rho, l=l)).p_le


def build_sigma(params: IWParams, d: int) -> List[Tuple[Tuple[int, ...], int]]:
    """All reduced fraction d-tuples a/q with q in the denominator set.

    Entries are (a_1..a_d, q) with 0 <= a_i < q and gcd(a_1,..,a_d,q) = 1.
    """
    if d not in (1, 2):
        raise ValueError("only 1- and 2-dimensional fraction sets are supported")
    sets = build_p_le(params)
    projected = sum(q**d for q in sets.p_le)
    if projected > SIGMA_CARDINALITY_CAP:
        raise EnumerationCapError(
            f"about {projected} candidate tuples requested, cap is {SIGMA_CARDINALITY_CAP}; "
            f"the set cardinality grows doubly exponentially in the level"
        )
    out: List[Tuple[Tuple[int, ...], int]] = []
    for q in sets.p_le:
        if d == 1:
            for a in range(q):
                if math.gcd(a, q) == 1:
                    out.append(((a,), q))
        else:
            for a1 in range(q):
                g1 = math.gcd(a1, q)
                for a2 in range(q):
                    if math.gcd(g1, a2) == 1:
                        out.append(((a1, a2), q))
    return out


def sigma_fractions(params: IWParams) -> List[Fraction]:
    """The 1-dimensional fraction set as torus points in [0, 1)."""
    return [Fraction(a[0], q) for a, q in build_sigma(params, 1)]


def lcm_log2(sets: IWSets) -> float:
    """log2 of the least common multiple of the denominator set."""
    l = 1
    for q in sets.p_le:
        l = l * q // math.gcd(l, q)
    return math.log2(l)


def verify_iw_properties(rho: Fraction, l_max: int) -> List[dict]:
    """Structural checks on the denominator sets for every level up to l_max.

    Checks per level: nesting in the previous level's set, containment of
    [2**l], divisor closure, and the lower bound 2**(l-1) < q for new
    elements.  Violation counts are reported; all should be zero.
    """
    checks = []

    def violations(name: str, count: int) -> None:
        checks.append({"name": name, "pass": count == 0, "lhs": count, "rhs": 0, "tolerance": 0})

    prev: Tuple[int, ...] = ()
    for l in range(l_max + 1):
        cur = p_le_values(rho, l)
        cur_set = set(cur)
        violations(f"nesting_l{l}", sum(1 for q in prev if q not in cur_set))
        violations(f"initial_segment_l{l}",
                   sum(1 for n in range(1, 2**l + 1) if n not in cur_set))
        closure_viol = 0
        for q in cur:
            for dv in range(1, int(math.isqrt(q)) + 1):
                if q % dv == 0:
                    if dv not in cur_set or (q // dv) not in cur_set:
                        closure_viol += 1
        violations(f"divisor_closure_l{l}", closure_viol)
        if l > 0:
            prev_set = set(prev)
            violations(f"new_denominator_lower_bound_l{l}",
                       sum(1 for q in cur if q not in prev_set and q <= 2 ** (l - 1)))
        prev = cur
    return checks
