"""Route-level benchmark of recolat.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from ./src.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. Exits 1 when an output fails its check
and 2 when the program cannot be imported. See perfbench/README.md.
"""

from __future__ import annotations

import os

# one process, no extra threads: BLAS runs single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_REPEATS = 5


def import_program():
    """Import recolat from this checkout's src/ and return it with the time
    the import took (numpy and scipy included: nothing has loaded them yet)."""
    if not os.path.isfile(os.path.join(SRC, "recolat", "__init__.py")):
        raise ImportError(f"no recolat package under {SRC}")
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    R = importlib.import_module("recolat")
    importlib.import_module("recolat.cli")
    elapsed = perf_counter() - t0
    if not os.path.abspath(R.__file__).startswith(SRC + os.sep):
        raise ImportError(f"recolat was imported from {R.__file__}, not from {SRC}")
    return R, elapsed


def fresh_import_s() -> float:
    """Time to import recolat (numpy and scipy included) in a fresh
    interpreter, as every CLI invocation pays it; measured in a child process
    that this one waits for."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import recolat, recolat.cli; print(time.perf_counter() - t)"
    )
    proc = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(proc.stdout)


def run_rounds(workload, seconds: float, exact: int | None = None) -> list:
    """Whole rounds while another one fits in `seconds` (at least one), or
    exactly `exact` rounds. The first round keeps its outputs; the others
    keep only their sampler estimates, and fingerprints that must match the
    first round's."""
    from workloads import Pooled, Round, fingerprint, pooled

    rounds = []
    start = perf_counter()
    while True:
        rd = Round()
        t0 = perf_counter()
        workload.round(rd, len(rounds))
        rd.wall_s = perf_counter() - t0
        rd.fingerprints = {
            k: fingerprint(v) for k, v in rd.outputs.items() if not pooled(k)
        }
        rd.outputs = {
            k: Pooled.of(v) if pooled(k) else v
            for k, v in rd.outputs.items()
            if pooled(k) or not rounds
        }
        rounds.append(rd)
        if exact is not None:
            if len(rounds) == exact:
                return rounds
        elif perf_counter() - start + rd.wall_s > seconds:
            return rounds  # another round like this one would overrun


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes, for the self-test")
    parser.add_argument("--perturb-reference", type=float, default=0.0,
                        help="shift the reference by this much (self-test: must fail)")
    args = parser.parse_args(argv)

    try:
        R, import_s = import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from reference import CheckFailure, Checker, Reference
    from workloads import ROUTES, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    try:
        workload = WORKLOADS[args.workload](R, args.seed, args.tiny, workdir)
        import_times = [fresh_import_s() for _ in range(SETUP_REPEATS)]
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            workload.setup()
            setup_times.append(perf_counter() - t0)
        setup_s = statistics.median(import_times) + statistics.median(setup_times)

        if args.trace:
            from tracing import LAYER_UNITS, Tracer

            plain = run_rounds(workload, args.seconds / 2)
            tracer = Tracer()
            tracer.install(R)
            try:
                traced = []
                for _ in plain:
                    tracer.start_round()
                    traced += run_rounds(workload, 0, exact=1)
                    tracer.end_round()
                    traced[-1].outputs = {}  # only fingerprints are compared
            finally:
                tracer.uninstall()
            rounds = plain + traced
        else:
            rounds = run_rounds(workload, args.seconds)

        checker = Checker()
        first = rounds[0]
        try:
            # traced rounds reuse the first round's sampler seeds: check the plain ones
            checked = plain if args.trace else rounds
            workload.check(first.outputs, [rd.outputs for rd in checked],
                           Reference(args.perturb_reference), checker)
            for i, rd in enumerate(rounds[1:], start=2):
                checker.holds(f"round {i} outputs differ from round 1",
                              rd.fingerprints == first.fingerprints)
        except CheckFailure as exc:
            print(f"check failed ({args.workload}, seed {args.seed}): {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(rd.attempted for rd in rounds)
    failed = sum(rd.failed for rd in rounds)
    for rd in rounds:
        for err in rd.errors:
            print(f"operation failed: {err}", file=sys.stderr)

    if args.trace:
        plain_wall = statistics.median(rd.wall_s for rd in plain)
        traced_wall = statistics.median(rd.wall_s for rd in traced)
        values = tracer.layer_metrics()
        values["trace.overhead_s"] = traced_wall - plain_wall
        metrics = {k: {"value": values[k], "unit": u} for k, u in LAYER_UNITS.items()}
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(rd.wall_s for rd in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for route in ROUTES:
            values[f"{route}_s"] = statistics.median(rd.route_s[route] for rd in rounds)
        metrics = {
            k: {"value": v, "unit": "MiB" if k == "peak_rss_mb" else "s"}
            for k, v in values.items()
        }

    result = {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    header = {
        "workload": args.workload, "seed": args.seed, "result": result,
        "checks": checker.worst, "setup_times_s": setup_times,
        "import_times_s": import_times, "in_process_import_s": import_s,
        "round_times": [{"wall_s": rd.wall_s, **rd.route_s} for rd in rounds],
    }
    if args.trace:
        tracer.write(stem + ".json", header)
    else:
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)

    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} operations, {failed} failed")
    print(f"checks (worst/tolerance): {checker.summary()}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
