"""Regenerate the stored reference data in bench/reference/.

    python3 bench/make_reference.py anchors   # brute-force values of the fixed anchors
    python3 bench/make_reference.py verify    # check rows of every shipped verify seed

Anchors are computed by ``reference.py`` alone.  Verify rows record what the
suites report at the commit they were made from (the documented reds 04b and
10b included); regenerate them only when a change is meant to alter a row,
and say so in the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import workloads  # noqa: E402


def make_anchors() -> dict:
    out = {}
    for q in workloads.exact_queries(0) + workloads.wide_queries(0):
        if q.anchor:
            out[q.anchor] = check.expected(q)
            print(f"anchor {q.anchor} done", file=sys.stderr)
    return dict(sorted(out.items()))


def make_verify_rows() -> dict:
    from newton_circle import cli
    out = {}
    for k in range(workloads.VERIFY_SEEDS):
        calls = []
        for argv in workloads.verify_calls(k):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.run_command(argv)
            checks = json.loads(buf.getvalue())["checks"]
            calls.append({"argv": argv, "exit": code,
                          "rows": [[c["name"], c["pass"], c["lhs"], c["rhs"]] for c in checks]})
        out[str(k)] = calls
        print(f"verify seed {k} done", file=sys.stderr)
    return out


def main() -> None:
    what = sys.argv[1:] or ["anchors", "verify"]
    for name in what:
        if name == "anchors":
            data, path = make_anchors(), check.ANCHORS_PATH
        elif name == "verify":
            data, path = make_verify_rows(), check.VERIFY_PATH
        else:
            raise SystemExit(f"unknown target {name!r}; use anchors or verify")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
