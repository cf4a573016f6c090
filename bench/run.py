"""Benchmark entry point for newton-circle.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each pass of the workload runs in a fresh interpreter
(``worker.py``) with BLAS/OpenMP threads pinned to 1 and
NEWTON_CIRCLE_THREADS unset, one client in a closed loop.  Passes repeat
until S seconds have been spent measuring.  Set-up (interpreter start,
package import, input generation) is timed separately a few more times.
Outputs are then checked against the references in ``check.py``.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics, from passes whose layer calls are
timed by ``spans.py``, alternated with untraced passes to measure the
tracing overhead.  The line before it is a context and detail block.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

CAL_REPS = 3              # speed samples after every interpreter start
SETUP_PROBES = 5          # set-up-only interpreter starts per run, besides each pass
MIN_PASSES = 2            # per run; with --trace 1 one untraced and one traced pass
DEADLINE_S = 170.0        # a run must end within 180 s
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
NOTE = ("shared machine: no CPU pinning, no frequency or cache control; times are "
        "scaled to reference speed by calibration samples taken between operations (speed.py)")


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "NEWTON_CIRCLE_THREADS"}
    env.update(THREAD_ENV)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, mode: str, start: float):
    """Run one worker; return ((start, ready) times, parsed result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        t_ready = time.perf_counter()
        if ready.strip() != "READY":
            raise BenchError(f"worker did not start ({mode}): {ready.strip()!r}")
        out, _ = proc.communicate(timeout=max(1.0, DEADLINE_S - (time.perf_counter() - start)))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the run deadline ({mode})") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode} ({mode})")
    return (t0, t_ready), (json.loads(out.strip().splitlines()[-1]) if mode != "setup" else None)


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def judge_passes(workload: str, seed: int, passes):
    """Count attempted and failed operations and float-budget violations."""
    import check
    attempted = failed = float_results = violations = 0
    failures = []
    if workload == "verify_suites":
        want = check.verify_reference(seed)
        for p in passes:
            for i, o in enumerate(p["outputs"]):
                attempted += 1
                if "error" in o or not check.judge_verify(o["out"], want[i]):
                    failed += 1
                    failures.append(want[i]["argv"][2])
        return attempted, failed, float_results, violations, failures
    import workloads
    items = workloads.generate(workload, seed)
    anchors = check.load_json(check.ANCHORS_PATH)
    exp = [anchors[q.anchor] if q.anchor else check.expected(q) for q in items]
    for p in passes:
        for q, o, e in zip(items, p["outputs"], exp):
            attempted += 1
            if "error" in o:
                failed += 1
                failures.append(f"{q.kind}: {o['error']}")
                continue
            v = check.judge(q, o["out"], e)
            failed += v["failed"]
            float_results += v["float_result"]
            violations += v["violation"]
            if v["failed"]:
                failures.append(f"{q.kind} {q.anchor}")
    return attempted, failed, float_results, violations, failures


def context() -> dict:
    import numpy
    files = sorted(os.path.join(d, f) for d, _, fs in os.walk(os.path.join(SRC, "newton_circle"))
                   for f in fs if f.endswith(".py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(data)
        lines += data.count(b"\n")
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {"commit": _git_commit(), "src_sha256": digest.hexdigest(), "src_lines": lines,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "thread_env": {**THREAD_ENV, "NEWTON_CIRCLE_THREADS": None}, "note": NOTE}


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), "r", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def main() -> int:
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = time.perf_counter()
    samples = []

    def calibrate():
        samples.extend(speed.sample() for _ in range(CAL_REPS))

    calibrate()
    setup_spans = []
    modes = ("run", "trace") if args.trace else ("run",)
    passes = {m: [] for m in modes}
    for _ in range(SETUP_PROBES):
        setup_spans.append(spawn(args.workload, args.seed, "setup", start)[0])
        calibrate()
    t_measure = time.perf_counter()
    i = 0
    while i < MIN_PASSES or time.perf_counter() - t_measure < args.seconds:
        mode = modes[i % len(modes)]
        span, result = spawn(args.workload, args.seed, mode, start)
        setup_spans.append(span)
        calibrate()
        passes[mode].append(result)
        i += 1
    # set-up is too short to match the phase of the samples next to it, so it
    # is scaled by the run's mean speed
    samples += [x for ps in passes.values() for p in ps for x in p["speed_samples_s"]]
    setups = [(b - a) * speed.factor(samples) for a, b in setup_spans]

    everything = passes["run"] + passes.get("trace", [])
    attempted, failed, float_results, violations, failures = judge_passes(
        args.workload, args.seed, everything)
    error_rate = failed / attempted
    budget_rate = violations / float_results if float_results else 0.0
    walls = {m: [p["wall_s"] for p in ps] for m, ps in passes.items()}
    raw_walls = {m: [p["raw_wall_s"] for p in ps] for m, ps in passes.items()}

    if args.trace:
        metrics = {}
        traced = [p["layers"] for p in passes["trace"]]
        for name in traced[0]:
            unit = "count" if name.endswith((".calls", ".terms.table", ".terms.wide",
                                             ".terms.float")) else "s"
            if ".terms_per_s." in name:
                unit = "1/s"
            metrics[name] = (statistics.median(t[name] for t in traced), unit)
        for name in everything[0]["cache"]:
            metrics[name] = (statistics.median(p["cache"][name] for p in everything),
                             "ratio" if name.endswith("hit_ratio") else "count")
        metrics["trace.overhead_s"] = (
            statistics.median(walls["trace"]) - statistics.median(walls["run"]), "s")
        metrics["error_rate"] = (error_rate, "ratio")
        metrics["budget_violation_rate"] = (budget_rate, "ratio")
    else:
        # an operation's latency is its median over the run's passes, which
        # filters the machine's phase flips out of single operations
        lat_ms = [1000.0 * statistics.median(op) for op in
                  zip(*(p["latencies_s"] for p in passes["run"]))]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls["run"]), "s"),
            "query_p50_ms": (percentile(lat_ms, 50), "ms"),
            "query_p95_ms": (percentile(lat_ms, 95), "ms"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes["run"]), "MB"),
        }
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "passes": {m: len(ps) for m, ps in passes.items()},
              "setup_samples_s": setups, "wall_samples_s": walls,
              "raw_setup_samples_s": [b - a for a, b in setup_spans],
              "raw_wall_samples_s": raw_walls,
              "run_speed_factor": speed.factor(samples),
              "pass_speed_factors": {m: [speed.factor(p["speed_samples_s"]) for p in ps]
                                     for m, ps in passes.items()},
              "operations_per_pass": len(everything[0]["outputs"]),
              "error_rate": error_rate, "budget_violation_rate": budget_rate,
              "float_results": float_results, "budget_violations": violations,
              "failures": failures[:20]}
    print(json.dumps({"context": context(), "detail": detail}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "newton_circle", "__init__.py")):
        sys.stderr.write("error: run from a newton-circle checkout (src/newton_circle missing)\n")
        sys.exit(2)
    try:
        sys.exit(main())
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.exit(1)
