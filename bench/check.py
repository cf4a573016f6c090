"""Expected outputs and the pass/fail rule for every benchmark operation.

Expected values come from ``reference.py`` (computed per run, outside the
timed region) or from the stored files in ``reference/``: anchors, which do
not depend on the seed, and the verify check rows of each shipped seed.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from typing import Dict, List

import reference as ref
from workloads import VERIFY_SEEDS, Query, path_of

HERE = os.path.dirname(os.path.abspath(__file__))
ANCHORS_PATH = os.path.join(HERE, "reference", "anchors.json")
VERIFY_PATH = os.path.join(HERE, "reference", "verify_rows.json")
ROW_FLOOR = 1e-9      # lhs/rhs of a verify row may move by this much (relative or absolute)


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _expsum_coeffs(q: Query):
    if q.kind == "weyl_sum":
        return tuple(q.args[0])
    P, xi = q.args[0], q.args[1]
    return tuple(xi * c if isinstance(xi, float) else Fraction(xi) * c for c in P.terms.values())


def expected(q: Query):
    """Reference output of one query, in the worker's encoding."""
    k, a = q.kind, q.args
    if k == "double_sum":
        P, xi, K1, M1, K2, M2 = a
        v = ref.lattice_sum(ref.scaled_coeffs(P.terms, xi), K1, M1, K2, M2)
        return {"v": [v.real, v.imag], "terms": (M1 - K1) * (M2 - K2)}
    if k == "weyl_sum":
        coeffs, N = a
        v = ref.weyl(coeffs, N)
        return {"v": [v.real, v.imag], "terms": N}
    if k == "double_sum_abs":
        P, xi, K1, M1, K2, M2, axis = a
        return ref.lattice_abs_sum(ref.scaled_coeffs(P.terms, xi), K1, M1, K2, M2, axis)
    if k == "gauss_sum":
        P, frac = a
        q_ = frac.denominator
        v = ref.lattice_sum(ref.scaled_coeffs(P.terms, frac), 0, q_, 0, q_) / (q_ * q_)
        return [v.real, v.imag]
    if k == "partial_gauss":
        P, frac, frozen, axis = a
        q_ = frac.denominator
        box = (frozen - 1, frozen, 0, q_) if axis == 1 else (0, q_, frozen - 1, frozen)
        v = ref.lattice_sum(ref.scaled_coeffs(P.terms, frac), *box) / q_
        return [v.real, v.imag]
    if k == "gauss_sum_sweep":
        P, qlo, qhi = a
        return ref.sweep_rows(P.terms, qlo, qhi)
    if k in ("discrete_multiplier", "character_average"):
        if k == "discrete_multiplier":
            P, xi, M1, M2, tau = a
            t = Fraction(tau)
            box = (math.floor(M1 / t), M1, math.floor(M2 / t), M2)
        else:
            P, xi, M1, M2, region, tau = a
            box = (0, M1, 0, M2) if region == "full" else (
                math.floor(M1 / tau), M1, math.floor(M2 / tau), M2)
        K1, M1, K2, M2 = box
        v = ref.lattice_sum(ref.scaled_coeffs(P.terms, xi), K1, M1, K2, M2)
        v /= (M1 - K1) * (M2 - K2)
        return [v.real, v.imag]
    if k == "continuous_multiplier":
        P, xi, M1, M2, tau, axis_partial = a
        v = ref.oscillatory_integral(P.terms, xi, M1, M2, tau, axis_partial)
        return [v.real, v.imag]
    if k == "arc_classify":
        P, diagram, j, xi, M1, M2, beta, tau = a
        v = diagram.vertices[j - 1]
        # M1 == M2, so every sector's dominant scale is M
        q_threshold = (math.log(M1) / math.log(tau)) ** beta
        resolution = float(M1) ** v[0] * float(M2) ** v[1] / q_threshold
        center = ref.dirichlet(Fraction(xi), math.ceil(resolution))
        major = center.denominator <= q_threshold
        return {"kind": "major" if major else "minor", "q": center.denominator,
                "center": str(center) if major else None,
                "q_threshold": q_threshold, "resolution": resolution}
    raise ValueError(f"unknown query kind {k!r}")


def _close(x: List[float], y: List[float], tol: float) -> bool:
    return abs(complex(*x) - complex(*y)) <= tol


def judge(q: Query, out, exp) -> Dict[str, bool]:
    """{'failed', 'float_result', 'violation'} for one query output."""
    k = q.kind
    verdict = {"failed": False, "float_result": False, "violation": False}
    if k in ("double_sum", "weyl_sum"):
        path = path_of(_expsum_coeffs(q))
        terms = exp["terms"]
        modulus = abs(complex(*out["v"]))
        ok = (out["terms"] == terms and out["mode"] == ("float" if path == "float" else "exact")
              and modulus <= terms + out["budget"] + 1e-9)
        if path == "float":
            verdict["float_result"] = True
            err = abs(complex(*out["v"]) - complex(*exp["v"]))
            verdict["violation"] = err > out["budget"] + ref.REF_ERROR_PER_TERM * terms
        else:
            ok = ok and _close(out["v"], exp["v"], ref.ABS_FLOOR + ref.TERM_FLOOR * terms)
        verdict["failed"] = not ok
    elif k == "double_sum_abs":
        P, xi, K1, M1, K2, M2, _ = q.args
        terms = (M1 - K1) * (M2 - K2)
        verdict["failed"] = not (abs(out - exp) <= ref.ABS_FLOOR + ref.TERM_FLOOR * terms
                                 and out <= terms + 1e-9)
    elif k == "gauss_sum_sweep":
        verdict["failed"] = not (len(out) == len(exp) and all(
            o[0] == e[0] and o[1] == e[1] and abs(o[2] - e[2]) <= ref.ABS_FLOOR
            for o, e in zip(out, exp)))
    elif k == "continuous_multiplier":
        verdict["failed"] = not _close(out, exp, ref.QUAD_FLOOR)
    elif k == "arc_classify":
        verdict["failed"] = not (
            out["kind"] == exp["kind"] and out["q"] == exp["q"] and out["center"] == exp["center"]
            and math.isclose(out["resolution"], exp["resolution"], rel_tol=1e-12)
            and math.isclose(out["q_threshold"], exp["q_threshold"], rel_tol=1e-12))
    else:
        verdict["failed"] = not (_close(out, exp, ref.ABS_FLOOR)
                                 and abs(complex(*out)) <= 1 + 1e-9)
    return verdict


def verify_reference(seed: int) -> List[dict]:
    return load_json(VERIFY_PATH)[str(seed % VERIFY_SEEDS)]


def _near(a: float, b: float) -> bool:
    return abs(a - b) <= ROW_FLOOR * max(1.0, abs(b))


def judge_verify(out, exp) -> bool:
    """True when a suite call's exit code and check rows match the stored ones."""
    rows, want = out["rows"], exp["rows"]
    return out["exit"] == exp["exit"] and len(rows) == len(want) and all(
        r[0] == w[0] and r[1] == w[1] and _near(r[2], w[2]) and _near(r[3], w[3])
        for r, w in zip(rows, want))
