"""Fixed-seed benchmark of the hullprice pricing pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload fuzz_small --seed 1 --seconds 30 --trace 0

One process, one closed-loop client: each operation starts when the
previous one has returned. OpenBLAS runs one thread. With ``--trace 0`` the
run sets up, warms up on one op, then sends ops for ``--seconds`` seconds
and reports the end-to-end metrics over every op sent in that time;
``setup_s`` is the median of five set-ups, this process's and four in
fresh processes. With ``--trace 1`` it sends a fixed list of ops (the lead
and one pass), each once plain and once with spans around every layer's
entry points, and reports the per-layer metrics; the ratio of traced to
plain time is the tracing overhead. Every op's output is checked after the
timed loop; an op that raises or fails its check counts in ``failed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Instance files go
to ``.perfbench_out/`` and are removed at the end; a traced run leaves its
spans and report in ``.perfbench_out/trace-<workload>-s<seed>.json``.
The program is imported from ``src/`` next to this directory; without it
the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5   # set-ups per run: this process plus four fresh ones


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--fresh-days", action="store_true",
                   help="draw every workload's days from --seed, also for "
                        "workloads that replay fixed days (held-out checks)")
    p.add_argument("--setup-only", action="store_true",
                   help="set up once, print the set-up seconds and exit")
    return p.parse_args(argv)


def setup(workload_name, seed, out_dir, fresh_days=False):
    """Import the program, write the run's instances.

    Returns (corpus, dayahead_dp units by file, set-up seconds).

    Timed from before the first import of the package, so a fresh process
    pays for numpy and scipy as a user's first call does.
    """
    t0 = time.perf_counter()
    import hullprice  # noqa: F401
    import workloads
    wl = workloads.WORKLOADS.get(workload_name)
    if wl is None:
        raise SystemExit(f"error: unknown workload {workload_name!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    if fresh_days:
        wl = dataclasses.replace(wl, seeded_days=True)
    corpus = workloads.build_corpus(wl, seed, out_dir)
    units = workloads.load_units(corpus)
    return corpus, units, time.perf_counter() - t0


def blas_threads():
    """Threads OpenBLAS reports it will use, or the requested count."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return BLAS_THREADS


def tail(times):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    k = n - 10          # s[k - 1] has exactly ten samples above it
    return s[k - 1], 100.0 * k / n


class Runner:
    """Sends ops one after another and keeps each result for checking."""

    def __init__(self, workload_name, corpus, units):
        import workloads
        self.workloads = workloads
        self.dp = workload_name == "dayahead_dp"
        self.corpus = corpus
        self.units = units

    def call(self, op):
        if self.dp:
            return self.workloads.run_profit_max(op, self.units)
        return self.workloads.run_compare(op)

    def check(self, op, result):
        if self.dp:
            gen = self.units[op.path][op.unit]
            return self.workloads.check_profit_max(gen, op.prices, result)
        code, text = result
        return self.workloads.check_compare(code, text, op.T, op.ids,
                                            demo=op.demo)

    @staticmethod
    def timed(call, op):
        """(seconds, outcome) of one op; the outcome is its result or the
        exception it raised, so nothing escapes the loop."""
        t0 = time.perf_counter()
        try:
            res = call(op)
        except Exception as exc:  # counted as failed, run continues
            res = exc
        return time.perf_counter() - t0, (op, res)

    def run(self, count=None, until=None):
        """Send the corpus's ops in order, either ``count`` of them or
        until ``until`` seconds have passed; (per-op seconds, outcomes,
        wall seconds)."""
        times, outcomes = [], []
        start = time.perf_counter()
        i = 0
        while i != count and (until is None
                              or time.perf_counter() - start < until):
            dt, outcome = self.timed(self.call, self.corpus.op(i))
            times.append(dt)
            outcomes.append(outcome)
            i += 1
        return times, outcomes, time.perf_counter() - start

    def failures(self, outcomes):
        bad = []
        for op, res in outcomes:
            if isinstance(res, Exception):
                bad.append((op, [f"raised {type(res).__name__}: {res}"]))
                continue
            problems = self.check(op, res)
            if problems:
                bad.append((op, problems))
        return bad


def set_up_fresh(args):
    """Set-up seconds of fresh processes, one per extra repeat."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    if args.fresh_days:
        cmd.append("--fresh-days")
    out = []
    for _ in range(SETUP_REPEATS - 1):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                             check=True)
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def end_to_end(args, runner, setup_times):
    runner.run(count=1)
    times, outcomes, wall = runner.run(until=args.seconds)
    value, pct = tail(times)
    print(f"{args.workload}: {len(times)} ops in {wall:.3f} s; op_s.tail is "
          f"p{pct:.1f} of {len(times)} samples; set-ups "
          f"{', '.join(f'{t:.3f}' for t in setup_times)} s")
    metrics = {
        "ops_per_s": (len(times) / wall, "1/s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (value, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return outcomes, metrics


def traced(args, runner):
    """Each op of the lead and one pass runs plain, then traced, so the
    two passes share machine conditions and their time ratio is the
    tracing overhead."""
    import tracing
    count = len(runner.corpus.lead) + runner.corpus.pass_len
    runner.run(count=1)
    tracer = tracing.Tracer()
    root = tracer.span(tracing.ROOT, runner.call)
    wall_plain = wall_traced = 0.0
    outcomes = []
    for i in range(count):
        op = runner.corpus.op(i)
        dt, plain = runner.timed(runner.call, op)
        wall_plain += dt
        with tracer:
            dt, outcome = runner.timed(root, op)
        wall_traced += dt
        outcomes += [plain, outcome]
    m = tracing.layer_report(tracer.spans, tracer.memo_lookups)
    bad = runner.failures(outcomes)
    m["checks.failed_frac"] = len(bad) / len(outcomes)
    m["trace.overhead_frac"] = (wall_traced - wall_plain) / wall_plain
    m["trace.wall_s"] = wall_traced
    m["env.blas_threads"] = blas_threads()
    m["env.nproc"] = os.cpu_count()
    OUT.mkdir(exist_ok=True)
    fresh = "-fresh" if args.fresh_days else ""
    path = OUT / f"trace-{args.workload}-s{args.seed}{fresh}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "ops": count, "metrics": m,
                   "calls": Counter(s[tracing.NAME] for s in tracer.spans),
                   "spans": [s[:4] for s in tracer.spans]}, fh)
    print(f"{args.workload}: {count} ops, each plain then traced; spans in "
          f"{path}")
    units = per_layer_units()
    return outcomes, {k: (v, units[k]) for k, v in m.items()}, bad


def per_layer_units():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "hullprice" / "__init__.py").is_file():
        print(f"error: no hullprice sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    run_dir = OUT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        corpus, units, setup_s = setup(args.workload, args.seed, run_dir,
                                       args.fresh_days)
        if args.setup_only:
            print(f"{setup_s:.9f}")
            return 0
        import hullprice
        if Path(hullprice.__file__).resolve().parent != SRC / "hullprice":
            print(f"error: imported hullprice from {hullprice.__file__}",
                  file=sys.stderr)
            return 2
        runner = Runner(args.workload, corpus, units)
        if args.trace:
            outcomes, metrics, bad = traced(args, runner)
        else:
            setup_times = [setup_s] + set_up_fresh(args)
            outcomes, metrics = end_to_end(args, runner, setup_times)
            bad = runner.failures(outcomes)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for op, problems in bad[:5]:
        print(f"FAILED {Path(op.path).name}: {'; '.join(problems)}")
    print(json.dumps({
        "correct": not bad,
        "attempted": len(outcomes),
        "failed": len(bad),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
