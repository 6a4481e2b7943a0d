"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload named in BENCHMARK.json with --tiny, untraced and traced,
and checks that:

- the run exits 0 and its last line is the result object, with 0 failed;
- every metric named in BENCHMARK.json is reported with its unit and a value
  above 0 (trace.overhead_s, a difference of two timings that can read below
  0 on a quiet tracer, only has to be finite);
- the run exits 1 without a result when the reference is shifted by 1e-6;
- run.py exits non-zero without a result in a directory that holds only
  BENCHMARK.json and perfbench/.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIGNED = {"trace.overhead_s"}


def run(cwd: str, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_line(proc: subprocess.CompletedProcess):
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) and "metrics" in doc else None


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, wl, trace)
            doc = result_line(proc)
            expect(proc.returncode == 0 and doc is not None,
                   f"{wl} trace={trace}: exit 0 with a result ({proc.stderr.strip()[-300:]})")
            if doc is None:
                continue
            expect(set(doc) == {"correct", "attempted", "failed", "metrics"}
                   and doc["correct"] is True and doc["attempted"] >= 1 and doc["failed"] == 0,
                   f"{wl} trace={trace}: correct, {doc['attempted']} attempted, "
                   f"{doc['failed']} failed")
            got = doc["metrics"]
            expect(set(got) == set(expected[trace]),
                   f"{wl} trace={trace}: metric names match BENCHMARK.json "
                   f"(missing {sorted(set(expected[trace]) - set(got))}, "
                   f"extra {sorted(set(got) - set(expected[trace]))})")
            for name, unit in expected[trace].items():
                m = got.get(name)
                if m is None:
                    continue
                value = m["value"]
                positive = math.isfinite(value) and (name in SIGNED or value > 0)
                expect(m["unit"] == unit and positive,
                       f"{wl} trace={trace}: {name} = {value} {m['unit']}")
        proc = run(ROOT, wl, 0, "--perturb-reference", "1e-6")
        expect(proc.returncode == 1 and result_line(proc) is None
               and "check failed" in proc.stderr,
               f"{wl}: a reference shifted by 1e-6 is caught "
               f"({proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else 'no message'})")

    bare = tempfile.mkdtemp(prefix=".perfbench-work-bare-", dir=ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        expect(proc.returncode != 0 and result_line(proc) is None,
               f"without src/: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
