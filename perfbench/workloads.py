"""Workload corpora, the operations that run them, and output checks.

Every workload sends systems built on a fixed fleet: the generators of each
system slot come from ``samples.random_instance`` under ``FLEET_SEED`` and
never change. Days vary on top of the fleet. A day's demand is the sum of
one sampled feasible dispatch per unit (the way ``random_instance`` builds
its demand); a ``dayahead_dp`` day adds one ``samples.random_prices``
vector. ``dayahead_dp`` draws its days from the workload seed.
``fuzz_small`` and ``ladder_mid`` replay fixed days whatever the seed:
their branch-and-bound trees change wholesale from one day to the next,
and with seeded days the spread of 30-second runs across seeds was two to
three times that of fixed days. ``run.py --fresh-days`` draws their days
from the seed too, for held-out checks.

``ladder_mid`` runs and traces like the others but is not in
``BENCHMARK.json``: a 30-second run holds only eight of its 1.5-10 s ops,
its tail is their maximum, and with three workloads the timed runs could
not be made longer.

The program is given only the generated instances: ``compare`` ops read
the JSON files written during set-up through the command line entry
point, and ``dayahead_dp`` ops call ``ucdp.profit_max`` on units parsed
back from the written files.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass

import numpy as np

from hullprice import cli, model, samples, ucdp

FLEET_SEED = 20190618
FIXED_DAY_SEED = 0

# (G, T) of each fleet slot, sent in this order; one pass sends every slot
# once and each pass has its own days.
FUZZ_CELLS = tuple((g, t) for t in (2, 3, 4) for g in (2, 3))
LADDER_CELLS = ((3, 6), (2, 7), (4, 5))

DAYAHEAD_UNITS = 10
DAYAHEAD_T = 24


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple          # (G, T) per fleet slot, in send order
    days: int             # days per fleet slot; each day is one pass
    seeded_days: bool = True
    demo_first: bool = False


WORKLOADS = {
    "fuzz_small": Workload("fuzz_small", FUZZ_CELLS * 5, days=1,
                           seeded_days=False, demo_first=True),
    "ladder_mid": Workload("ladder_mid", LADDER_CELLS, days=1,
                           seeded_days=False),
    "dayahead_dp": Workload("dayahead_dp", ((DAYAHEAD_UNITS, DAYAHEAD_T),),
                            days=6),
}

# demo goldens: summary block of `compare --format csv` on the bundled demo
DEMO_SUMMARY = ("method,total_uplift,z_qip,relaxation_obj,gap_tm\n"
                "tlmp,35,835,835,0.8\n"
                "chp,7,835,828,\n")

IDENTITY_TOL = 1e-6
PROFIT_TOL = 1e-6
CSV_REL = 1e-9   # rounding of the 10-significant-digit CSV floats


# ---------------------------------------------------------------------------
# corpus


def _fleet(slot, G, T):
    rng = np.random.default_rng([FLEET_SEED, slot, G, T])
    return samples.random_instance(rng, G, T).generators


def _day_demand(rng, gens, T):
    """Demand met by one sampled feasible dispatch of every unit."""
    while True:
        profiles = [samples._feasible_profile(rng, gen, T, force_on=(i == 0))
                    for i, gen in enumerate(gens)]
        demand = [sum(p[t] for p in profiles) for t in range(T)]
        if all(d > 1e-9 for d in demand):
            return tuple(demand)


@dataclass(frozen=True)
class Op:
    """One operation: an instance file, plus prices for dayahead_dp."""
    path: str
    T: int
    ids: tuple
    demo: bool = False
    prices: tuple = None
    unit: int = None


@dataclass(frozen=True)
class Corpus:
    """Ops of one run: ``lead`` is sent once, then ``cycle`` repeats.

    The first ``pass_len`` ops of the cycle are one pass: every fleet slot
    on one day.
    """
    lead: tuple
    cycle: tuple
    pass_len: int

    def op(self, i):
        if i < len(self.lead):
            return self.lead[i]
        return self.cycle[(i - len(self.lead)) % len(self.cycle)]


def build_corpus(workload, seed, out_dir):
    """Write the instance files of one run and return its Corpus.

    Day p of fleet slot s is drawn from ``(seed, p, s)``, so the same
    seed always gives the same files.
    """
    if not workload.seeded_days:
        seed = FIXED_DAY_SEED
    os.makedirs(out_dir, exist_ok=True)
    lead, ops = [], []
    if workload.demo_first:
        path = os.path.join(out_dir, "demo.json")
        demo = samples.demo_instance()
        model.save_instance(demo, path)
        lead.append(Op(path, demo.T, tuple(g.id for g in demo.generators),
                       demo=True))
    fleets = [_fleet(s, G, T) for s, (G, T) in enumerate(workload.cells)]
    for p in range(workload.days):
        for s, gens in enumerate(fleets):
            T = workload.cells[s][1]
            rng = np.random.default_rng([seed, p, s])
            inst = model.SystemInstance(T=T, demand=_day_demand(rng, gens, T),
                                        generators=gens)
            path = os.path.join(out_dir, f"p{p}-s{s}.json")
            model.save_instance(inst, path)
            ids = tuple(g.id for g in gens)
            if workload.name == "dayahead_dp":
                prices = samples.random_prices(rng, T)
                ops.extend(Op(path, T, ids, prices=prices, unit=u)
                           for u in range(len(gens)))
            else:
                ops.append(Op(path, T, ids))
    return Corpus(tuple(lead), tuple(ops), len(ops) // workload.days)


def load_units(corpus):
    """Parse each dayahead_dp instance file once; path -> generators."""
    return {op.path: model.load_instance(op.path).generators
            for op in corpus.cycle if op.unit is not None}


# ---------------------------------------------------------------------------
# operations


def run_compare(op):
    """One in-process `hullprice compare --format csv`; (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["compare", "--instance", op.path, "--format", "csv"])
    return code, out.getvalue()


def run_profit_max(op, units):
    gen = units[op.path][op.unit]
    return ucdp.profit_max(gen, op.prices)


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output holds


def _close(a, b, tol, *magnitudes):
    return abs(a - b) <= tol + CSV_REL * sum(abs(m) for m in magnitudes)


def parse_compare_csv(text):
    """Sections of `compare --format csv`, keyed by header line."""
    sections = {}
    for block in text.strip("\n").split("\n\n"):
        lines = block.split("\n")
        sections[lines[0]] = [line.split(",") for line in lines[1:]]
    return sections


def check_compare(code, text, T, ids, demo=False):
    """Problems with one compare op's exit code and CSV output."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        sec = parse_compare_csv(text)
        prices = sec["method,period,price"]
        rows = sec["method,generator,best_profit,iso_profit,uplift"]
        summary = sec["method,total_uplift,z_qip,relaxation_obj,gap_tm"]
        price_periods = [(m, int(t)) for m, t, p in prices
                         if math.isfinite(float(p))]
        row_keys = sorted((m, g) for m, g, *_ in rows)
        num = {(m, g): (float(b), float(i), float(u))
               for m, g, b, i, u in rows}
        totals = {m: (float(u), float(z), float(r))
                  for m, u, z, r, _ in summary}
        gap_tm = float(summary[0][4])
    except (KeyError, ValueError, IndexError) as exc:
        return [f"malformed CSV: {exc!r}"]
    problems = []
    methods = ("tlmp", "chp")
    if [m for m, *_ in summary] != list(methods):
        problems.append("summary methods are not tlmp, chp")
        return problems
    if price_periods != [(m, t) for m in methods
                         for t in range(1, T + 1)]:
        problems.append("price rows do not cover every period once")
    if row_keys != sorted((m, g) for m in methods for g in ids):
        problems.append("uplift rows do not cover every generator once")
        return problems
    for (m, g), (best, iso, up) in num.items():
        if not _close(up, best - iso, 0.0, best, iso, up):
            problems.append(f"{m}/{g}: uplift != best_profit - iso_profit")
        if up < -PROFIT_TOL * (1.0 + abs(best)):
            problems.append(f"{m}/{g}: negative uplift {up}")
    for m in methods:
        total, z, relax = totals[m]
        rows_sum = sum(num[(m, g)][2] for g in ids)
        if not _close(total, rows_sum, 0.0, total,
                      *(num[(m, g)][2] for g in ids)):
            problems.append(f"{m}: total_uplift != sum of uplift rows")
    (u_t, z_t, rel_t), (u_c, z_c, rel_c) = totals["tlmp"], totals["chp"]
    if z_t != z_c or rel_t != z_t:
        problems.append("z_qip or tlmp relaxation_obj inconsistent")
    if not u_c <= u_t + IDENTITY_TOL + CSV_REL * (abs(u_c) + abs(u_t)):
        problems.append(f"hull uplift {u_c} exceeds TLMP uplift {u_t}")
    if not _close(u_c, z_c - rel_c, IDENTITY_TOL, u_c, z_c, rel_c):
        problems.append(f"hull identity off: U={u_c} z-relax={z_c - rel_c}")
    expect_gap = (u_t - u_c) / u_t if u_t > 1e-12 else 0.0
    if not _close(gap_tm, expect_gap, IDENTITY_TOL, gap_tm, expect_gap):
        problems.append(f"gap_tm {gap_tm} != {expect_gap}")
    if demo and not text.endswith("\n" + DEMO_SUMMARY):
        problems.append("demo summary differs from the goldens")
    return problems


def check_profit_max(gen, prices, result):
    """Problems with one profit_max best response."""
    profit, sched = result
    problems = list(model.check_schedule(gen, sched))
    value = sum(p * x for p, x in zip(prices, sched.x)) - sched.cost
    if abs(value - profit) > PROFIT_TOL:
        problems.append(f"{gen.id}: pi.x - cost = {value} != profit {profit}")
    return problems
