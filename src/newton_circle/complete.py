"""Complete Gauss-type sums over residue boxes and moment-system counts.

Complete sums are box sums.  gauss_sum and partial_gauss are the sums of
e(a*P/q) over [1, q]**2 and over one row of it, through the kernel of
expsum's box sums (expsum._lattice_phase_sum): read from the int64 q-bin
histogram h of a*P mod q (expsum._box_histogram), or, for a row of more
than expsum.HISTOGRAM_BINS residues, as its row sum in bounded memory.  A
work cap bounds the box, and _histogram_peak every int64 intermediate,
before anything is allocated.  The all-frequency sweep takes one DFT of the
histogram of P mod p**k:
p**2k * G(a/p**k) = sum_t h[t] * e(a*t/p**k) for every a at once.  It does so
only for prime powers: by the Chinese remainder theorem G(a/q) factors over
the coprime prime-power factors of q, so max over units |G(a/q)| is the
product of their maxima and a composite q needs no q x q table.  A prime
table of a monomial c*m1**a*m2**b (a, b >= 1) has a closed form in O(p)
cells (_monomial_histogram): under a primitive root its unit cells take
each value of c times the subgroup of e-th powers, e = gcd(a, b, p - 1),
equally often.

The solution counts are sparse int64 tables: the s-fold additive
convolution of the moment-curve point mass on [N] lives on at most
C(N+s-1, s) lattice points (multisets of size s), cached as arrays.  The
difference table lambda = u - v is even, J(lambda) = J(-lambda), so only
its positive half is built, cached and evaluated (_table_sum), with
J(0) = vinogradov_diagonal beside it; vinogradov_table mirrors it into a
dict on demand, and vinogradov_count reads one entry from the count arrays
by one np.searchsorted.  Both tables come from one pair reduction,
_pair_reduce of a[i] + b[j] over the pairs j < ends[i]: each convolution
step u + x takes every pair, the positive half the pairs j < i of u and
-u.  The mixed-radix code of a lattice point is linear, so a pair's code is
the sum of its rows' codes; packed above its weight in one int64, the pairs
are written in bands of rows straight into one array (_pair_codes),
grouped by a single in-place np.sort and reduced without a second
full-size copy (_packed_reduce), and the half is evaluated in bands of
rows, so beside the packed pairs and the table no temporary exceeds about
_BAND entries (notes/decisions.md, "The moment table in bands", "One pair
reduction for both moment steps").  When the packed value could reach
2**63 the pair rows go to the older sort-reduce (argsort of the code, or
np.lexsort when the code alone would not fit).  One work guard,
_check_work, raises WorkCapExceeded before allocating when a table would
exceed the configured cell cap or when a count or coordinate could overflow
int64, so nothing is truncated or wrapped silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .arith import RealLike
from .expsum import _E_MIN, _box_histogram, _e, _histogram_peak, _lattice_phase_sum, weyl_sum
from .poly import Poly2, transpose

WORK_CAP_CELLS = 10**8
INT64_LIMIT = 2**63
# Cells of one band: beside its result, a difference table's build, reduction
# and evaluation hold temporaries of about this many entries.  At least
# expsum._E_MIN, so that each band of _table_sum takes the kernel of the whole.
_BAND = max(1 << 16, _E_MIN)


class WorkCapExceeded(RuntimeError):
    """The requested count table would exceed the configured cell cap."""


def gauss_sum(P: Poly2, a_over_q: Fraction) -> complex:
    """Normalized complete sum q^-2 * sum over (r1, r2) in [1,q]^2 of e(a*P/q),
    the box sum of a*P/q (expsum._lattice_phase_sum) read from its q-bin
    histogram; the q x q box must fit WORK_CAP_CELLS (q <= 10**4), else
    WorkCapExceeded is raised first."""
    a, q = a_over_q.numerator, a_over_q.denominator
    _check_work(q * q, _histogram_peak(q), f"complete sum needs a {q} x {q} residue box")
    return _lattice_phase_sum((q, {g: a * c for g, c in P.terms.items()}), 0, q, 0, q) / q**2


def partial_gauss(P: Poly2, a_over_q: Fraction, frozen: int, axis: int) -> complex:
    """Normalized complete sum in one residue with m_axis pinned to frozen:
    the box sum of a*P/q over m1 = frozen, m2 in [1, q] (P transposed for
    axis 2; expsum._lattice_phase_sum), from its histogram up to
    HISTOGRAM_BINS residues, past them as its row sum in bounded memory; q
    must fit WORK_CAP_CELLS, else WorkCapExceeded is raised first."""
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    a, q = a_over_q.numerator, a_over_q.denominator
    _check_work(q, _histogram_peak(q), f"partial complete sum needs {q} residues")
    terms = {g: a * c for g, c in (P if axis == 1 else transpose(P)).terms.items()}
    return _lattice_phase_sum((q, terms), frozen - 1, frozen, 0, q) / q


def _monomial_histogram(c: int, a: int, b: int, p: int) -> np.ndarray:
    """int64 p-bin histogram of c * m1**a * m2**b mod p over [0, p)**2, for a
    prime p and a, b >= 1, from p - 1 cells: the 2p - 1 cells with p | m1*m2
    go to bin 0, and the units take each value c*x**e, x = 1..p - 1, p - 1
    times, e = gcd(a, b, p - 1) (Ireland-Rosen, ch. 8; notes/decisions.md
    "Monomial prime tables in closed form").  p | c needs no branch: then
    every c*x**e is 0 too, and bin 0 gets (p - 1)**2 + 2p - 1 = p**2.
    """
    x = np.arange(1, p, dtype=np.int64)
    v = np.full(p - 1, c % p, dtype=np.int64)
    for _ in range(math.gcd(a, b, p - 1)):
        v = v * x % p
    hist = (p - 1) * np.bincount(v, minlength=p)
    hist[0] += 2 * p - 1
    return hist


def _check_work(cells: int, peak: int, what: str) -> None:
    """Raise WorkCapExceeded, before any work, unless a table of this many
    cells fits the cell cap and peak, a bound on its largest int64
    intermediate, stays below 2**63."""
    if cells > WORK_CAP_CELLS or peak >= INT64_LIMIT:
        raise WorkCapExceeded(
            f"{what}; the cap is {WORK_CAP_CELLS} cells and every intermediate "
            f"must stay below 2**63 (int64)"
        )


def _prime_powers(q: int) -> List[Tuple[int, int]]:
    """(p, p**k) for every prime power p**k exactly dividing q, by trial division."""
    out = []
    p = 2
    while p * p <= q:
        if q % p == 0:
            pk = 1
            while q % p == 0:
                q //= p
                pk *= p
            out.append((p, pk))
        p += 1
    if q > 1:
        out.append((q, q))
    return out


def gauss_sum_sweep(P: Poly2, q_values: Iterable[int]) -> List[dict]:
    """|G(a/q)| envelope rows for every q: count of coprime a and the max modulus.

    Only prime powers get a table.  With h the p**k x p**k residue histogram
    of P mod p**k, p**2k * G(a/p**k) is the sum of h[t] * e(a*t/p**k) over t,
    so one DFT of h gives every a at once, and its maximum over the units
    (a not divisible by p) is taken once per call.  For coprime q1, q2 the
    Chinese remainder theorem factors G(a/(q1*q2)) as G(a1/q1) * G(a2/q2),
    with (a1, a2) running over all pairs of units as a does, so a row's
    max_abs_G is the product of its prime-power maxima and its a_count is
    phi(q), the product of p**k - p**(k-1); q = 1 is the empty product.
    For a one-term P = c*m1**a*m2**b with a, b >= 1 a prime table is
    _monomial_histogram's closed form, since (i, j) -> a*i + b*j covers the
    index-gcd(a, b, p - 1) subgroup of Z/(p - 1) evenly; proper prime powers
    and every other P take expsum._box_histogram.  Rows are cross-checkable
    against a per-cell evaluation of P, which needs no histogram.
    """
    q_values = list(q_values)
    if any(q < 1 for q in q_values):
        raise ValueError("moduli must be positive")
    q_top = max(q_values, default=1)
    _check_work(q_top * q_top, _histogram_peak(q_top),
                f"gauss sweep needs a {q_top} x {q_top} residue table")
    terms = list(P.terms.items())
    monomial = len(terms) == 1 and min(terms[0][0]) >= 1
    maxima: Dict[int, float] = {}
    rows = []
    for q in q_values:
        max_abs, a_count = 1.0, 1
        for p, pk in _prime_powers(q):
            if pk not in maxima:
                if monomial and pk == p:
                    (a, b), c = terms[0]
                    hist = _monomial_histogram(c, a, b, p)
                else:
                    hist = _box_histogram(P.terms, pk, range(pk), range(pk))
                spectrum = np.abs(np.fft.fft(hist)) / pk**2
                maxima[pk] = float(spectrum[np.arange(pk) % p != 0].max())
            max_abs *= maxima[pk]
            a_count *= pk - pk // p
        rows.append({"q": q, "a_count": a_count, "max_abs_G": max_abs})
    return rows


def dyadic_envelope(P: Poly2, starts: Sequence[int]) -> List[dict]:
    """max |G(a/q)| over q in [Q, 2Q] for each dyadic start Q, read from one
    sweep over the union of the windows."""
    sweep = gauss_sum_sweep(P, sorted({q for Q in starts for q in range(Q, 2 * Q + 1)}))
    by_q = {r["q"]: r["max_abs_G"] for r in sweep}
    return [{"Q": Q, "envelope": max(by_q[q] for q in range(Q, 2 * Q + 1))} for Q in starts]


def _decay_fit(rows: Sequence[dict]) -> float:
    """Least-squares exponent d in max_abs_G ~ q**-d over the given sweep rows.

    The true decay rate is existential, so it is reported, never asserted;
    exact-zero rows are floored at machine scale before taking logs.
    """
    xs = np.array([math.log(r["q"]) for r in rows])
    ys = np.array([math.log(max(r["max_abs_G"], 1e-300)) for r in rows])
    slope = ((xs - xs.mean()) * (ys - ys.mean())).sum() / ((xs - xs.mean()) ** 2).sum()
    return -slope


# ---------------------------------------------------------------------------
# Moment-system solution counts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VinogradovCount:
    s: int
    k: int
    N: int
    lam: Tuple[int, ...]
    count: int


def _check_params(s: int, k: int, N: int, table: bool = False) -> None:
    if not 1 <= s <= 6:
        raise ValueError(f"s must lie in [1, 6], got {s}")
    if not 1 <= k <= 3:
        raise ValueError(f"k must lie in [1, 3], got {k}")
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    # the total mass (N**s for s-fold sums, N**(2s) for the difference table)
    # bounds every count, every product c_u*c_v and every partial sum of them;
    # s*N**k bounds every coordinate
    mass = N ** (2 * s if table else s)
    cells = math.comb(N + s - 1, s) ** (2 if table else 1)  # bounds the sparse support
    _check_work(cells, max(mass, s * N**k), f"count table needs up to {cells} cells, "
                f"counts up to {mass} and coordinates up to s*N**k = {s * N**k}")


def _radix(s: int, N: int, k: int) -> Tuple[List[int], List[int], int]:
    """(bounds s*N**i, places, span) of the mixed radix 2*s*N**i + 1 of k
    coordinates; coordinate i (from 1) lies in [-s*N**i, s*N**i]."""
    bounds = [s * N**i for i in range(1, k + 1)]
    places = [math.prod(2 * b + 1 for b in bounds[i + 1:]) for i in range(k)]
    return bounds, places, places[0] * (2 * bounds[0] + 1)


def _sort_reduce(keys: np.ndarray, weights: np.ndarray, s: int,
                 N: int) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct rows of the (n, k) int64 array ``keys``, coordinate i (from 1)
    in [-s*N**i, s*N**i], with their summed weights, in lexicographic order:
    the fallback of the packed pair reduction, by argsort of the int64 code
    while the span is below 2**63, by np.lexsort over the columns past it."""
    bounds, places, span = _radix(s, N, keys.shape[1])
    if span < INT64_LIMIT:
        code = (keys + bounds) @ places
        order = np.argsort(code)
        code = code[order]
        new_run = code[1:] != code[:-1]
    else:  # neighbours compared one gathered column at a time
        order = np.lexsort(keys.T[::-1])
        new_run = np.zeros(len(keys) - 1, dtype=bool)
        for i in range(keys.shape[1]):
            column = keys[order, i]
            new_run |= column[1:] != column[:-1]
        del column
    starts = np.flatnonzero(np.concatenate(([True], new_run)))
    return keys[order[starts]], np.add.reduceat(weights[order], starts)


def _packed_reduce(packed: np.ndarray, bits: int, bounds: List[int],
                   places: List[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct rows x with summed weights, in lexicographic order, of int64
    values C(x) << bits | weight, C(x) = sum x_i * place_i.  packed is sorted
    in place, its run starts found by comparing neighbours in chunks of
    _BAND, C gathered only there and the weights masked in place and summed;
    it is dropped before the decode, which frees it unless the caller holds
    a name for it.  Digit i of C(x) + C(bounds) is its floor quotient by
    place_i; the remainder passes on by a multiply-subtract, not a second
    division as np.divmod took."""
    packed.sort()
    new_run = np.empty(len(packed), dtype=bool)
    new_run[:1] = True
    for a in range(0, len(packed) - 1, _BAND):
        run = packed[a:a + _BAND + 1] >> bits
        np.not_equal(run[1:], run[:-1], out=new_run[a + 1:a + len(run)])
    starts = np.flatnonzero(new_run)
    del new_run
    code = packed[starts]
    code >>= bits
    packed &= (1 << bits) - 1  # the weights, in code order
    weights = np.add.reduceat(packed, starts)
    del packed, starts
    code += sum(b * p for b, p in zip(bounds, places))
    keys = np.empty((len(code), len(places)), dtype=np.int64)
    for a in range(0, len(code), _BAND):
        rest, rows = code[a:a + _BAND], keys[a:a + _BAND]
        for i, p in enumerate(places[:-1]):  # the last place is 1
            np.floor_divide(rest, p, out=rows[:, i])
            rest -= rows[:, i] * p
        rows[:, -1] = rest
    keys -= bounds
    return keys, weights


def _pair_reduce(a: np.ndarray, wa: np.ndarray, b: np.ndarray, wb: np.ndarray,
                 ends: np.ndarray, s: int, N: int) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a[i] + b[j] with the summed weights wa[i] * wb[j] over
    the pairs j < ends[i], ends non-decreasing, in lexicographic order; each
    coordinate i (from 1) lies in [-s*N**i, s*N**i].  The code sum
    x_i * place_i is linear, so the pair codes are sums of per-row codes,
    packed (_pair_codes, handed to _packed_reduce unnamed, so that it frees
    them before it decodes) while span << (bit length of max(wa) * max(wb))
    < 2**63; otherwise the pair rows go to _sort_reduce, with the pair
    indices dropped first."""
    bounds, places, span = _radix(s, N, a.shape[1])
    bits = (int(wa.max()) * int(wb.max())).bit_length()
    if span << bits >= INT64_LIMIT:
        i = np.repeat(np.arange(len(a)), ends)
        j = np.arange(len(i)) - np.repeat(np.cumsum(ends) - ends, ends)
        keys, weights = a[i] + b[j], wa[i] * wb[j]
        del i, j, b, ends  # only the pair rows are held through the sort
        return _sort_reduce(keys, weights, s, N)
    return _packed_reduce(_pair_codes((a @ places) << bits, wa, (b @ places) << bits, wb, ends),
                          bits, bounds, places)


def _pair_codes(ca: np.ndarray, wa: np.ndarray, cb: np.ndarray, wb: np.ndarray,
                ends: np.ndarray) -> np.ndarray:
    """int64 ca[i] + cb[j] + wa[i] * wb[j] over the pairs j < ends[i], row by
    row, for non-decreasing ends: written in bands of rows [r0, r1) against
    the columns [0, ends[r1 - 1]), each band within _BAND cells, so no
    len(ca) x len(cb) product is allocated."""
    out = np.empty(int(ends.sum()), dtype=np.int64)
    step = max(1, _BAND // max(1, int(ends[-1])))
    at = 0
    for r0 in range(0, len(ends), step):
        rows = slice(r0, r0 + step)
        cols = int(ends[rows][-1])
        band = np.multiply.outer(wa[rows], wb[:cols])
        band += cb[:cols]
        band += ca[rows, None]
        # a band whose every row takes every column needs no mask
        pairs = band.ravel() if ends[r0] == cols else band[np.arange(cols) < ends[rows, None]]
        out[at:at + len(pairs)] = pairs
        at += len(pairs)
    return out


def _as_dict(keys: np.ndarray, weights: np.ndarray) -> Dict[Tuple[int, ...], int]:
    return dict(zip(map(tuple, keys.tolist()), weights.tolist()))


@lru_cache(maxsize=32)
def _count_arrays(s: int, k: int, N: int) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only int64 (keys, weights) of moment_curve_counts, keys in
    lexicographic order, from s - 1 steps of _pair_reduce."""
    _check_params(s, k, N)
    x = np.arange(1, N + 1, dtype=np.int64)
    base = np.stack([x**i for i in range(1, k + 1)], axis=1)
    ones = np.ones(N, dtype=np.int64)
    keys, weights = base, ones
    for _ in range(s - 1):
        keys, weights = _pair_reduce(keys, weights, base, ones, np.full(len(keys), N), s, N)
    keys.flags.writeable = weights.flags.writeable = False
    return keys, weights


@lru_cache(maxsize=32)
def moment_curve_counts(s: int, k: int, N: int) -> Dict[Tuple[int, ...], int]:
    """Counts of representations of lambda as a sum of s moment-curve points.

    Returned mapping: lambda -> #{(x_1..x_s) in [N]^s : sum (x_i,..,x_i^k) = lambda},
    the dict of the cached _count_arrays.  Treat as immutable; results are cached.
    """
    return _as_dict(*_count_arrays(s, k, N))


def vinogradov_count(s: int, k: int, N: int, lam: Sequence[int]) -> VinogradovCount:
    """Number of solutions of the inhomogeneous moment system in 2s variables.

    Counts tuples x, y in [N]^s with sum x_j^i - sum y_j^i = lam_i for i <= k:
    the sum of c(u) * c(u - lam) over the cached count arrays.  Only rows u
    with u - lam in the box [0, s*N**i] of the keys can match, and on that
    box the linear code is one-to-one and in lexicographic order, so one
    np.searchsorted of code(u) - code(lam) among the key codes finds them all;
    past 2**63 the rows are searched as records of k int64 fields.  The
    products are summed in Python integers, as in vinogradov_diagonal: the
    sum may pass 2**63 where the counts do not.
    """
    _check_params(s, k, N)
    lam = tuple(int(v) for v in lam)
    if len(lam) != k:
        raise ValueError(f"lambda must have length k={k}")
    keys, weights = _count_arrays(s, k, N)
    bounds, places, span = _radix(s, N, k)
    lo = [max(v, 0) for v in lam]
    hi = [min(b, b + v) for b, v in zip(bounds, lam)]
    total = 0
    if all(a <= b for a, b in zip(lo, hi)):  # else no u - lam is in the box
        u = ((keys >= lo) & (keys <= hi)).all(axis=1)
        rows = keys[u] - lam
        if span < INT64_LIMIT:  # 25 times faster than records at (6, 3, 30)
            have, want = keys @ places, rows @ places
        else:  # records of k int64 fields compare lexicographically
            record = np.dtype([("", np.int64)] * k)
            have, want = keys.view(record).ravel(), rows.view(record).ravel()
        at = np.minimum(np.searchsorted(have, want), len(have) - 1)
        hit = have[at] == want
        total = sum(a * b for a, b in zip(weights[u][hit].tolist(), weights[at[hit]].tolist()))
    return VinogradovCount(s=s, k=k, N=N, lam=lam, count=total)


@lru_cache(maxsize=16)
def _difference_table(s: int, k: int, N: int) -> Tuple[np.ndarray, np.ndarray, int]:
    """Positive half (pos, Jp, J0) of the inhomogeneous moment system's
    table, pos and Jp read-only.  With u the count arrays' rows, in
    lexicographic order, and c their counts, the rows after lambda = 0 are
    the differences u[i] - u[j] over the pairs j < i, so pos and Jp are
    _pair_reduce of u and -u with ends[i] = i (through _sort_reduce only at
    s = 1, k = 3 from N = 913 on); J0 = J(0) = sum c**2 is
    vinogradov_diagonal."""
    _check_params(s, k, N, table=True)
    u, c = _count_arrays(s, k, N)
    pos, Jp = _pair_reduce(u, c, -u, c, np.arange(len(u)), s, N)
    pos.flags.writeable = Jp.flags.writeable = False
    return pos, Jp, vinogradov_diagonal(s, k, N)


# One dict at a time: it is several times the size of the cached arrays it is
# built from (169 MB against 15 MB for (3, 3, 20)).
@lru_cache(maxsize=1)
def vinogradov_table(s: int, k: int, N: int) -> Dict[Tuple[int, ...], int]:
    """Full sparse table lambda -> count for the inhomogeneous moment system,
    in lexicographic order: the cached positive half, mirrored."""
    pos, Jp, J0 = _difference_table(s, k, N)
    return _as_dict(np.concatenate([-pos[::-1], np.zeros((1, k), dtype=np.int64), pos]),
                    np.concatenate([Jp[::-1], [J0], Jp]))


def vinogradov_diagonal(s: int, k: int, N: int) -> int:
    """Count at lambda = 0, the largest entry of the table: the sum of c**2
    in Python integers, which may pass 2**63 where the counts do not."""
    return sum(c * c for c in _count_arrays(s, k, N)[1].tolist())


def _table_sum(s: int, N: int, pos: np.ndarray, Jp: np.ndarray, J0: int,
               xi: Sequence[float]) -> float:
    """J0 + 2 * sum over the rows of pos of Jp * Re e(xi.lambda): the sum of
    J(lambda) e(xi.lambda) over the whole table, which is even.  e(xi.lambda)
    is the product of e(xi_i * lambda_i) over the axes, lambda_i in
    [-s*N**i, s*N**i].  An axis whose 2*s*N**i + 1 phases are at most the row
    count gathers them from a table of e(xi_i * j), a longer one takes them on
    the column, both from the table kernel (expsum._e) on the phases centred
    exactly, which gives e(0) = 1 exactly.  The rows go in bands of at least
    min(n, _BAND) of them, each band on the kernel of the whole column, into
    one array of weighted terms that is summed once, so the pairwise
    summation order, and the result, do not depend on the bands.  The
    weighted sum makes no BLAS call, whose threads spin on after it
    (notes/decisions.md, "The moment table from its positive half")."""
    def phases(x: np.ndarray) -> np.ndarray:
        # centred exactly: below _E_MIN phases _e takes libm, whose angle
        # 2*pi*phase would round in proportion to the phase
        x -= np.rint(x)
        return _e(x).T.copy().view(complex).ravel()     # cos + i sin

    n = len(Jp)
    tables = []
    for i, x in enumerate(xi, start=1):
        b = s * N**i
        # j = 0..b, then -b..-1: a negative coordinate indexes from the end
        tables.append(phases(np.r_[0:b + 1, -b:0] * x) if 2 * b + 1 <= n else None)
    weighted = np.empty(n)
    bands = max(1, n // _BAND)  # each of at least min(n, _BAND) rows
    edges = [n * t // bands for t in range(bands + 1)]
    for r0, r1 in zip(edges, edges[1:]):
        terms = np.ones(r1 - r0, dtype=complex)
        for col, x, table in zip(pos[r0:r1].T, xi, tables):
            terms *= phases(col * x) if table is None else table[col]
        np.multiply(Jp[r0:r1], terms.real, out=weighted[r0:r1])
    return J0 + 2 * float(weighted.sum())


def moment_identity_gap(s: int, k: int, N: int, xi: Sequence[RealLike]) -> float:
    """|  |S_k(xi;N)|^(2s) - sum_lambda J(lambda) e(xi.lambda) |.

    The left side is the direct power sum; the right side is evaluated from
    the positive half of the sparse count table (_table_sum), an independent
    combinatorial path.
    """
    xs = tuple(xi)
    if len(xs) != k:
        raise ValueError(f"xi must have length k={k}")
    ws = weyl_sum(xs, N)
    v = ws.value
    lhs = (v.real * v.real + v.imag * v.imag) ** s
    return abs(lhs - _table_sum(s, N, *_difference_table(s, k, N), [float(x) for x in xs]))
