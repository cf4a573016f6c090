"""One pass of one workload in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --mode setup|run|trace

Imports the package, generates the seed's inputs and prints ``READY``; the
parent times set-up up to that line.  In run and trace modes it then runs
the batch in a closed loop (one call at a time, no threads) and prints one
JSON line with per-operation latencies and raw outputs.  Peak RSS is read
before anything else happens after the batch; no reference checking runs in
this process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

CAL_EVERY_S = 0.1
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import speed  # noqa: E402
import workloads  # noqa: E402  (imports newton_circle)
from newton_circle import circle, cli, complete, ergodic, expsum, poly  # noqa: E402


def execute(workload: str, item):
    if workload == "verify_suites":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run_command(item)
        return code, buf
    kind, a = item.kind, item.args
    if kind == "double_sum":
        P, xi, K1, M1, K2, M2 = a
        return expsum.double_sum(poly.scale(P, xi), K1, M1, K2, M2)
    if kind == "double_sum_abs":
        P, xi, K1, M1, K2, M2, axis = a
        return expsum.double_sum_abs(poly.scale(P, xi), K1, M1, K2, M2, axis)
    if kind == "weyl_sum":
        return expsum.weyl_sum(*a)
    if kind == "gauss_sum":
        return complete.gauss_sum(*a)
    if kind == "partial_gauss":
        return complete.partial_gauss(*a)
    if kind == "gauss_sum_sweep":
        P, qlo, qhi = a
        return complete.gauss_sum_sweep(P, range(qlo, qhi + 1))
    if kind == "discrete_multiplier":
        return circle.discrete_multiplier(*a)
    if kind == "character_average":
        return ergodic.character_average(*a)
    if kind == "continuous_multiplier":
        P, xi, M1, M2, tau, axis_partial = a
        return circle.continuous_multiplier(P, xi, M1, M2, tau, axis_partial=axis_partial)
    if kind == "arc_classify":
        return circle.arc_classify(*a)
    raise ValueError(f"unknown query kind {kind!r}")


def encode(workload: str, item, out):
    """JSON form of an operation's output."""
    if workload == "verify_suites":
        code, buf = out
        checks = json.loads(buf.getvalue())["checks"]
        return {"exit": code,
                "rows": [[c["name"], c["pass"], c["lhs"], c["rhs"]] for c in checks]}
    if isinstance(out, expsum.ExpSumValue):
        return {"v": [out.value.real, out.value.imag], "mode": out.mode,
                "terms": out.term_count, "budget": out.error_budget}
    if isinstance(out, complex):
        return [out.real, out.imag]
    if isinstance(out, float):
        return out
    if item.kind == "gauss_sum_sweep":
        return [[r["q"], r["a_count"], r["max_abs_G"]] for r in out]
    if item.kind == "arc_classify":
        return {"kind": out.kind, "center": None if out.center is None else str(out.center),
                "q": int(out.thresholds["q"]), "q_threshold": out.thresholds["q_threshold"],
                "resolution": out.thresholds["resolution"]}
    raise TypeError(f"cannot encode {type(out).__name__}")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    args = ap.parse_args()

    items = workloads.generate(args.workload, args.seed)
    print("READY", flush=True)
    if args.mode == "setup":
        return
    caches = {"complete.vinogradov_table": complete.vinogradov_table,
              "complete.moment_curve_counts": complete.moment_curve_counts}
    tracer = None
    if args.mode == "trace":
        import spans
        tracer = spans.Tracer()
        tracer.install()

    # speed samples between operations: every CAL_EVERY_S among queries, and
    # a burst before every (long) suite call
    verify = args.workload == "verify_suites"
    every, burst = (0.0, 5) if verify else (CAL_EVERY_S, 1)
    clock = time.perf_counter
    samples = [speed.sample()]
    last = clock()
    raw, errors, durations = [], [], []
    for item in items:
        if clock() - last >= every:
            samples.extend(speed.sample() for _ in range(burst))
            last = clock()
        s = clock()
        try:
            out, err = execute(args.workload, item), None
        except Exception as exc:  # a failed operation is recorded, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        durations.append(clock() - s)
        raw.append(out)
        errors.append(err)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples.append(speed.sample())
    f = speed.factor(samples)
    latencies = [d * f for d in durations]

    outputs = []
    for item, out, err in zip(items, raw, errors):
        if err is None:
            try:
                out = encode(args.workload, item, out)
            except (ValueError, TypeError, KeyError) as exc:
                err = f"unreadable output: {exc}"
        outputs.append({"error": err} if err else {"out": out})
    cache = {}
    for name, fn in caches.items():
        info = fn.cache_info()
        lookups = info.hits + info.misses
        cache[f"{name}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        cache[f"{name}.evictions"] = info.misses - info.currsize
    result = {"wall_s": sum(latencies), "raw_wall_s": sum(durations), "speed_samples_s": samples,
              "latencies_s": latencies, "peak_rss_mb": peak_rss_mb,
              "outputs": outputs, "cache": cache,
              "layers": tracer.metrics(f) if tracer else None}
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
