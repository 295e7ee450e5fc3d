"""Determinism, held-out and coverage checks over traced benchmark runs.

Run from the repository root:

    python3 perfbench/check.py --seed 1 --held-out 2

For every workload it makes three traced runs, each in its own process:
two on ``--seed`` and one on ``--held-out`` with fresh days (``run.py
--fresh-days``), so the fixed-day workloads also see days they were not
tuned on. It then checks that

* ``lp.iterations``, ``bnb.nodes`` and ``ucdp.solve_ed_calls`` repeat
  exactly across the two runs of one seed (the simplex breaks ties by a
  fixed rule, so any difference is a bug);
* the dominant layer (largest self time) and the dominant pipeline stage
  (most inclusive time) are the same on the held-out run;
* ``ucdp`` spans cover most of ``dayahead_dp`` and under 5% of
  ``ladder_mid``, and ``bnb.solve_mip`` plus ``pricing.price_chp`` cover
  most of ``ladder_mid`` and none of ``dayahead_dp``, on both seeds;
* no op failed its output check.

It prints one line per run with each layer's self time and writes the
report to ``.perfbench_out/check.json``. Exit code 0 when every check
holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench_out"

# the timed workloads of BENCHMARK.json plus ladder_mid, which is traced
# here but left out of the timed runs (see workloads.py)
WORKLOADS = ("fuzz_small", "ladder_mid", "dayahead_dp")

REPEATED = ("lp.iterations", "bnb.nodes", "ucdp.solve_ed_calls")
# pipeline stages by inclusive seconds; ucdp covers the uplift rows of a
# compare op and the whole of a dayahead_dp op
STAGES = {
    "commitment": lambda m: m["pricing.solve_commitment_s"],
    "chp": lambda m: m["pricing.price_chp_s"],
    "tlmp": lambda m: m["pricing.price_tlmp_s"],
    "load": lambda m: m["model.load_s"],
    "ucdp": lambda m: m["ucdp.wall_frac"] * m["trace.wall_s"],
}

# (workload, metric, predicate text, predicate) from the benchmark's
# statement of which layer carries which workload
COVERAGE = (
    ("dayahead_dp", "ucdp.wall_frac", "> 0.5", lambda v: v > 0.5),
    ("ladder_mid", "ucdp.wall_frac", "< 0.05", lambda v: v < 0.05),
    ("ladder_mid", "bnb_chp.wall_frac", "> 0.5", lambda v: v > 0.5),
    ("dayahead_dp", "bnb_chp.wall_frac", "== 0", lambda v: v == 0),
)


def traced_run(workload, seed, fresh):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    if fresh:
        cmd.append("--fresh-days")
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                         check=True)
    out = json.loads(res.stdout.strip().splitlines()[-1])
    m = {k: v["value"] for k, v in out["metrics"].items()}
    m["failed"] = out["failed"]
    return m


def layers(m):
    return [k[:-len(".self_s")] for k in m if k.endswith(".self_s")]


def dominant(m):
    """(layer with the largest self time, stage with the most time)."""
    return (max(layers(m), key=lambda layer: m[f"{layer}.self_s"]),
            max(STAGES, key=lambda stage: STAGES[stage](m)))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--held-out", type=int, default=2)
    args = p.parse_args(argv)

    problems = []
    report = {}
    for wl in WORKLOADS:
        runs = {"a": traced_run(wl, args.seed, False),
                "b": traced_run(wl, args.seed, False),
                "held_out": traced_run(wl, args.held_out, True)}
        report[wl] = runs
        for tag, m in runs.items():
            selfs = ", ".join(f"{layer} {m[f'{layer}.self_s']:.3f}"
                              for layer in layers(m))
            print(f"{wl} {tag}: dominant layer, stage {dominant(m)}; "
                  f"self s: {selfs}; "
                  f"ucdp.wall_frac {m['ucdp.wall_frac']:.3f}, "
                  f"bnb_chp.wall_frac {m['bnb_chp.wall_frac']:.3f}, "
                  f"trace.overhead_frac {m['trace.overhead_frac']:.3f}")
            if m["failed"]:
                problems.append(f"{wl} {tag}: {m['failed']} ops failed")
            for name, metric, text, ok in COVERAGE:
                if name == wl and not ok(m[metric]):
                    problems.append(f"{wl} {tag}: {metric} = "
                                    f"{m[metric]:.4f}, expected {text}")
        for key in REPEATED:
            if runs["a"][key] != runs["b"][key]:
                problems.append(f"{wl}: {key} differs across two runs of "
                                f"seed {args.seed}: {runs['a'][key]} vs "
                                f"{runs['b'][key]}")
        if dominant(runs["held_out"]) != dominant(runs["a"]):
            problems.append(f"{wl}: dominant layer, stage "
                            f"{dominant(runs['a'])} on seed {args.seed} but "
                            f"{dominant(runs['held_out'])} held out")
    OUT.mkdir(exist_ok=True)
    with open(OUT / "check.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "held_out": args.held_out,
                   "runs": report, "problems": problems}, fh, indent=1)
    for line in problems:
        print(f"CHECK FAILED: {line}")
    print("all checks hold" if not problems else
          f"{len(problems)} checks failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
