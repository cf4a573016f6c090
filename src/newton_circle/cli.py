"""Batch command-line front end.

Subcommands map onto the library: diagram construction, sector grids,
exponential sums, solution counts, complete sums, denominator sets,
oscillation statistics, shift averages, arc classification, and the named
verification suites.  Exit codes: 0 all checks pass, 1 a check failed or an
I/O error occurred, 2 usage error.  No environment variable changes what a
command computes; with --stable-runtime, identical inputs give byte-identical
reports.
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
import time
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, List, Optional

from . import __version__, circle, complete, ergodic, expsum, iw, newton, osc, poly, suites
from .poly import PolynomialSyntaxError, parse_poly
from .report import VerificationReport, emit_report

USAGE_ERROR = 2


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _real(text: str):
    try:
        if "/" in text:
            return Fraction(text)
        if text.strip().lstrip("+-").isdigit():
            return int(text)
        return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a real number: {text!r}") from exc


def _entries(text: str, parse, kind: str) -> list:
    """The comma-separated entries of a list argument through parse; a
    malformed entry is a usage error that names it."""
    out = []
    for entry in text.split(","):
        try:
            out.append(parse(entry))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not {kind}: {entry!r}") from exc
    return out


def _at_least(low: int, kind: str, number=int) -> Callable[[str], float]:
    """argparse type of the finite numbers >= low, each described as `kind`."""
    def parse(text: str):
        value = number(text)  # argparse turns a ValueError into a usage error
        if not low <= value < math.inf:  # NaN fails every comparison
            raise argparse.ArgumentTypeError(f"must be {kind}, got {value}")
        return value
    parse.__name__ = number.__name__  # argparse names it: "invalid int value"
    return parse


_positive_int = _at_least(1, "a positive integer")
_nonnegative_int = _at_least(0, "a non-negative integer")


def _poly_arg(text: str, require_vanishing: bool = False) -> poly.Poly2:
    P = parse_poly(text)
    if require_vanishing and P.constant_term() != 0:
        raise argparse.ArgumentTypeError(
            f"polynomial has nonzero constant term {P.constant_term()}; "
            "averages and diagrams require P(0,0) = 0"
        )
    return P


def _finish(report: VerificationReport, args, t0: float) -> int:
    report.runtime_ms = 0 if args.stable_runtime else int((time.time() - t0) * 1000)
    try:
        if args.json is not None:
            emit_report(report, "json", args.json)
        if args.csv is not None:
            emit_report(report, "csv", args.csv)
        if args.json is None and args.csv is None:
            emit_report(report, "json", None)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 1
    return report.exit_code


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", metavar="PATH", help="write JSON report (- for stdout)")
    sub.add_argument("--csv", metavar="PATH", help="write CSV report (- for stdout)")
    sub.add_argument("--stable-runtime", action="store_true",
                     help="pin runtime_ms to 0 for byte-stable reports")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state between calls, and a build costs milliseconds."""
    parser = argparse.ArgumentParser(
        prog="newton-circle",
        description="verification toolkit for two-parameter lattice exponential sums",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("newton", help="diagram vertices, normals, gaps")
    p.add_argument("--poly", required=True)
    _add_output_flags(p)

    p = subs.add_parser("sectors", help="lacunary sector grid over one sector")
    p.add_argument("--poly", required=True)
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--tau", type=_fraction, default=Fraction(2))
    p.add_argument("--bound", type=_real, default=64.0)
    _add_output_flags(p)

    p = subs.add_parser("expsum", help="double sums or moment-curve sums")
    p.add_argument("--poly", help="bivariate polynomial for a double sum")
    p.add_argument("--xi", type=_real, default=Fraction(0), help="scaling frequency")
    p.add_argument("--m1", type=int, default=16)
    p.add_argument("--m2", type=int, default=16)
    p.add_argument("--k1", type=int, default=0)
    p.add_argument("--k2", type=int, default=0)
    p.add_argument("--abs-axis", type=int, choices=(1, 2), dest="abs_axis",
                   help="sum absolute inner sums along this outer axis")
    p.add_argument("--weyl", help="comma-separated coefficients of a moment-curve sum")
    p.add_argument("--n", type=int, default=64, help="moment-curve range")
    _add_output_flags(p)

    p = subs.add_parser("vinogradov", help="moment-system solution counts")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lam", default=None, help="comma-separated target vector")
    _add_output_flags(p)

    p = subs.add_parser("gauss", help="complete sums and denominator sweeps")
    p.add_argument("--poly", required=True)
    p.add_argument("--q", type=_positive_int)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--qmax", type=_positive_int, default=50, help="sweep all q up to this bound")
    p.add_argument("--frozen", type=int, help="partial sum with this frozen value")
    p.add_argument("--axis", type=int, choices=(1, 2), default=1)
    _add_output_flags(p)

    p = subs.add_parser("iw", help="arithmetic denominator sets")
    p.add_argument("--rho", type=_fraction, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--cap", type=int, default=iw.DEFAULT_ENUMERATION_CAP)
    p.add_argument("--d", type=int, choices=(1, 2), default=1)
    _add_output_flags(p)

    p = subs.add_parser("osc", help="oscillation and variation of a value list")
    p.add_argument("--values", required=True, help="comma-separated complex values")
    p.add_argument("--seq", help="comma-separated anchor indices")
    p.add_argument("--rho", type=_at_least(1, "a finite number >= 1", float), default=2.0)
    _add_output_flags(p)

    p = subs.add_parser("average", help="shift average of a finite function")
    p.add_argument("--poly", required=True)
    p.add_argument("--f", required=True, help="JSON file with the finite function")
    p.add_argument("--x", type=int, default=0)
    p.add_argument("--m1", type=_real, required=True)
    p.add_argument("--m2", type=_real, required=True)
    p.add_argument("--tau", type=_fraction, help="average over the truncated region (M/tau, M]")
    _add_output_flags(p)

    p = subs.add_parser("arcs", help="major/minor classification of a frequency")
    p.add_argument("--poly", required=True)
    p.add_argument("--xi", type=_real, required=True)
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--m1", type=_real, required=True)
    p.add_argument("--m2", type=_real, required=True)
    p.add_argument("--beta", type=float, default=circle.DEFAULT_BETA)
    p.add_argument("--tau", type=_fraction, default=Fraction(2))
    _add_output_flags(p)

    p = subs.add_parser("verify", help="run named verification suites")
    p.add_argument("--suite", action="append", required=True,
                   choices=sorted(suites.SUITES) + ["all"])
    p.add_argument("--rho", type=_fraction, default=None, help="iw suite parameter")
    p.add_argument("--lmax", type=_nonnegative_int, default=None, help="iw suite parameter")
    p.add_argument("--trials", type=_positive_int, default=None,
                   help="sample count of the moment, newton, osc and factorization suites")
    p.add_argument("--seed", type=int, default=None,
                   help="random seed of every suite that draws random inputs")
    _add_output_flags(p)
    return parser


def _cmd_newton(args, report: VerificationReport) -> None:
    P = _poly_arg(args.poly, require_vanishing=True)
    diagram = newton.build_diagram(P)
    report.results.append({
        "vertices": [list(v) for v in diagram.vertices],
        "normals": [list(w) for w in diagram.normals],
        "determinants": list(diagram.determinants),
        "gaps": [str(g) for g in diagram.gaps],
    })
    missed = suites.direction_witness_vertices(P).symmetric_difference(diagram.vertices)
    report.add_check("vertices_match_witnesses", len(missed), 0)


def _cmd_sectors(args, report: VerificationReport) -> None:
    P = _poly_arg(args.poly, require_vanishing=True)
    diagram = newton.build_diagram(P)
    grid = ergodic.sector_grid(diagram, args.j, args.tau, args.bound)
    for m1, m2 in grid:
        report.results.append({"M1": str(m1), "M2": str(m2)})
    report.add_check("grid_nonempty", 1, len(grid))


def _add_sum_row(report: VerificationReport, kind: str, value: expsum.ExpSumValue) -> None:
    report.results.append({
        "kind": kind, "re": value.value.real, "im": value.value.imag,
        "mode": value.mode, "terms": value.term_count, "error_budget": value.error_budget,
    })
    bound = value.term_count + value.error_budget
    report.add_check("modulus_within_term_count", abs(value.value), bound, 1e-9)


def _cmd_expsum(args, report: VerificationReport) -> None:
    if args.weyl:
        coeffs = [_real(t) for t in args.weyl.split(",")]
        _add_sum_row(report, "moment_curve", expsum.weyl_sum(coeffs, args.n))
        return
    if not args.poly:
        raise argparse.ArgumentTypeError("expsum needs --poly or --weyl")
    P = _poly_arg(args.poly)
    Q = poly.scale(P, args.xi)
    if args.abs_axis:
        total = expsum.double_sum_abs(Q, args.k1, args.m1, args.k2, args.m2, args.abs_axis)
        report.results.append({"kind": "absolute_double_sum", "value": total})
        cells = (args.m1 - args.k1) * (args.m2 - args.k2)
        report.add_check("total_within_cell_count", total, cells, cells * expsum.FLOAT_TERM_BUDGET)
        return
    _add_sum_row(report, "double_sum", expsum.double_sum(Q, args.k1, args.m1, args.k2, args.m2))


def _cmd_vinogradov(args, report: VerificationReport) -> None:
    lam = _entries(args.lam, int, "an integer") if args.lam else [0] * args.k
    count = complete.vinogradov_count(args.s, args.k, args.n, lam)
    report.results.append({"s": count.s, "k": count.k, "N": count.N,
                           "lambda": list(count.lam), "count": str(count.count)})
    report.add_check("count_within_trivial_bound", count.count, args.n ** (2 * args.s))


def _cmd_gauss(args, report: VerificationReport) -> None:
    P = _poly_arg(args.poly)
    if args.q is not None:
        frac = Fraction(args.a % args.q if args.q > 1 else 0, args.q)
        if args.frozen is not None:
            value = complete.partial_gauss(P, frac, args.frozen, args.axis)
            kind = "partial_complete_sum"
        else:
            value = complete.gauss_sum(P, frac)
            kind = "complete_sum"
        report.results.append({"kind": kind, "q": args.q, "a": frac.numerator,
                               "re": value.real, "im": value.imag, "abs": abs(value)})
        report.add_check("modulus_at_most_one", abs(value), 1, 1e-12)
        return
    rows = complete.gauss_sum_sweep(P, range(1, args.qmax + 1))
    report.results.extend(rows)
    if args.qmax >= 8:
        # the fit runs over 2 <= q <= qmax, the rows after q = 1
        report.results.append({"fitted_decay_exponent": complete._decay_fit(rows[1:])})
    report.add_check("sweep_moduli_at_most_one", max(r["max_abs_G"] for r in rows), 1, 1e-12)


def _cmd_iw(args, report: VerificationReport) -> None:
    params = iw.IWParams(rho=args.rho, l=args.l, enumeration_cap=args.cap)
    sets = iw.build_p_le(params)
    sigma = iw.build_sigma(params, args.d)
    report.results.append({
        "D": params.D, "N0": params.N0, "denominators": len(sets.p_le),
        "largest": sets.p_le[-1], "truncated": sets.truncated,
        "fractions": len(sigma), "lcm_log2": iw.lcm_log2(sets),
    })
    denominators = set(sets.p_le)
    missing = sum(1 for n in range(1, 2**args.l + 1) if n not in denominators)
    report.add_check("initial_segment_contained", missing, 0)


def _cmd_osc(args, report: VerificationReport) -> None:
    values = _entries(args.values, complex, "a complex number")
    fam = osc.IndexedFamily.of({i: v for i, v in enumerate(values)})
    if args.seq:
        pts = _entries(args.seq, int, "an integer")
    else:
        pts = list(range(len(values)))
    seq = osc.IncreasingSequence.of(pts)
    o = osc.oscillation(fam, seq)
    v = osc.variation(fam, args.rho)
    check_rho = min(args.rho, 2.0)      # O <= V_2 <= V_rho for rho <= 2
    report.results.append({"oscillation": o, "variation": v, "rho": args.rho, "check_rho": check_rho})
    v_check = v if check_rho == args.rho else osc.variation(fam, check_rho)
    report.add_check("oscillation_at_most_variation", o, v_check, 1e-10)


def _cmd_average(args, report: VerificationReport) -> None:
    P = _poly_arg(args.poly, require_vanishing=True)
    with open(args.f, "r", encoding="utf-8") as fh:
        f = ergodic.FiniteFunction.from_json(fh.read())
    spec = ergodic.AverageSpec(P=P, M1=args.m1, M2=args.m2, tau=args.tau,
                               region="full" if args.tau is None else "truncated")
    value = ergodic.shift_average(spec, f, args.x)
    report.results.append({"re": value.real, "im": value.imag,
                           "region_size": spec.cardinality()})
    peak = max((abs(v) for v in f.values.values()), default=0.0)
    report.add_check("average_bounded_by_sup", abs(value), peak, 1e-12)


def _cmd_arcs(args, report: VerificationReport) -> None:
    P = _poly_arg(args.poly, require_vanishing=True)
    diagram = newton.build_diagram(P)
    ac = circle.arc_classify(P, diagram, args.j, args.xi, args.m1, args.m2,
                             args.beta, args.tau)
    row = {"kind": ac.kind, **ac.thresholds}
    if ac.kind == "major":
        row["center"] = str(ac.center)
        row["offset"] = ac.offset
        # arc_classify's offset bound: |xi - a/q| <= 1 / (q * resolution)
        ratio = abs(ac.offset) * row["q"] * row["resolution"]
        report.add_check("major_offset_within_resolution", ratio, 1, 1e-12)
    else:
        report.add_check("minor_denominator_past_threshold", row["q_threshold"], row["q"])
    report.results.append(row)


def _cmd_verify(args, report: VerificationReport) -> None:
    names: List[str] = []
    for s in args.suite:
        names.extend(sorted(suites.SUITES) if s == "all" else [s])
    for name in dict.fromkeys(names):
        fn = suites.SUITES[name]
        kwargs = {}
        if name == "iw":
            if args.rho is not None:
                kwargs["rhos"] = (args.rho,)
            if args.lmax is not None:
                kwargs["l_max"] = args.lmax
        params = inspect.signature(fn).parameters
        for key in ("trials", "seed"):
            if getattr(args, key) is not None and key in params:
                kwargs[key] = getattr(args, key)
        report.checks.extend(replace(check, name=f"{name}:{check.name}") for check in fn(**kwargs))


_DISPATCH = {
    "newton": _cmd_newton,
    "sectors": _cmd_sectors,
    "expsum": _cmd_expsum,
    "vinogradov": _cmd_vinogradov,
    "gauss": _cmd_gauss,
    "iw": _cmd_iw,
    "osc": _cmd_osc,
    "average": _cmd_average,
    "arcs": _cmd_arcs,
    "verify": _cmd_verify,
}


def run_command(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    t0 = time.time()
    report = VerificationReport(command=args.command,
                                params={k: str(v) for k, v in vars(args).items()
                                        if k not in ("json", "csv") and v is not None},
                                version=__version__)
    try:
        _DISPATCH[args.command](args, report)
    except (PolynomialSyntaxError, argparse.ArgumentTypeError) as exc:
        # ArgumentTypeError: a value checked after argparse, such as an entry
        # of --weyl or a polynomial's constant term
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, ArithmeticError, RuntimeError, OSError, MemoryError) as exc:
        # ArithmeticError: a float past its range that no named check caught;
        # MemoryError: an array past memory, such as 2**40 row sums
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _finish(report, args, t0)


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
