"""Ionescu-Wainger denominator sets and their reduced-fraction companions.

The denominator set is built exactly, in one capped depth-first enumeration
over the primes: those up to N0 at their Legendre exponents in (N0!)**D, the
medium primes at powers up to D.  Truncation against the enumeration cap is
always explicit via a flag; nothing is dropped silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .report import Check

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


def build_p_le(params: IWParams) -> IWSets:
    """The denominator set: {Q*w <= cap, Q | (N0!)**D, w a product of at most D
    distinct primes from (N0, 2**l], each to a power 1..D}.

    One depth-first pass over the primes in increasing order appends each
    member once: p <= N0 at powers up to D*v_p(N0!) (Legendre), a medium prime
    at powers up to D while fewer than D are used.  A branch stops at its first
    product past the cap, since every later prime is larger, so truncated is
    set exactly when some member of the uncapped set exceeds the cap.
    """
    N0, D, cap = params.N0, params.D, params.enumeration_cap
    primes = _sieve(max(N0, 2**params.l))
    tops = [D * sum(N0 // p**i for i in range(1, N0.bit_length())) if p <= N0 else D
            for p in primes]
    values = [1]
    truncated = False

    def grow(start: int, value: int, used: int) -> None:
        nonlocal truncated
        for i in range(start, len(primes)):
            p = primes[i]
            if p > N0 and used == D:
                break
            if value * p > cap:
                truncated = True
                break
            v = value
            for _ in range(tops[i]):
                v *= p
                if v > cap:
                    truncated = True
                    break
                values.append(v)
                grow(i + 1, v, used + (p > N0))

    grow(0, 1, 0)
    return IWSets(params=params, p_le=tuple(sorted(values)), truncated=truncated)


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


def verify_iw_properties(rho: Fraction, l_max: int) -> List[Check]:
    """Structural checks on the denominator sets for every level up to l_max.

    Checks per level: nesting in the previous level's set, containment of
    [2**l], divisor closure, and the lower bound 2**(l-1) < q for new
    elements.  Each row's lhs is a violation count and its rhs 0.
    """
    checks: List[Check] = []

    def violations(name: str, count: int) -> None:
        checks.append(Check(name, count, 0))

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
