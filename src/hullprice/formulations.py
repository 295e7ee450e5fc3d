"""Commitment-space and interval-space encodings of one generator, the
system assembly with load balance, and the map back to schedules.

Two encodings of the same feasible set are built:

* the commitment-space ("2bin") model over u_t, v_t, x_t with big-M
  coupling and epigraph rows for start/shut costs: the classic compact MIP
  whose LP relaxation is weak;
* the interval-space ("euc") model whose variables select whole on-runs:
  w_k picks "on from period 1 until k" (initially-on units; w_T = never
  shut down), y_tk picks the run [t, k], z_kt the off-gap from shutdown
  node k to a restart at t, and theta_t absorbs "shut down at t+1 and stay
  off". Interval outputs q and epigraph costs phi are indexed per covered
  period. The LP relaxation of one block has integral extreme points, so
  a system of blocks tied only by load balance prices out of its LP.

``map_to_schedule`` converts an integral interval-space point back to a
schedule on over its selected runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bnb import INT_TOL
from .lp import LpBuilder
from .model import gap_cost, run_cost, schedule_of_runs


class FractionalSolution(RuntimeError):
    """An interval-space point expected to be integral is not."""


@dataclass(frozen=True)
class IndexSets:
    """Interval index sets of one generator.

    tk1: initial-run intervals (1, k) of an initially-on unit; k is the
    last on period (the unit shuts at k+1, or never for k=T).
    tk2: fresh runs (t, k) started in-horizon at t.
    kt: off-gaps (k, t): shut down at k+1, restart at t.
    """

    tk1: tuple
    tk2: tuple
    kt: tuple

    @property
    def intervals(self):
        return self.tk1 + self.tk2


def enumerate_index_sets(gen):
    T, L, ell = gen.n_periods, gen.L, gen.ell
    tk1 = tuple((1, k) for k in range(max(gen.first_shut, 1), T + 1)) \
        if gen.initial.is_on else ()
    tk2 = tuple((t, k)
                for t in range(gen.first_start, T + 1)
                for k in range(min(t + L - 1, T), T + 1))
    kt = tuple((k, t)
               for k in range(gen.first_shut, T - ell)
               for t in range(k + ell + 1, T + 1))
    return IndexSets(tk1=tk1, tk2=tk2, kt=kt)


@dataclass
class EucVars:
    """Column indices of one interval-space block (global to its LP)."""

    gen_id: str
    sets: IndexSets
    w: dict
    y: dict
    z: dict
    theta: dict
    q: dict      # (t, k, s) -> column
    phi: dict    # (t, k, s) -> column
    w_none: int | None = None

    def outputs(self, s):
        """Output columns of period s, one per run covering it."""
        return [self.q[(t, k, s)] for (t, k) in self.sets.intervals
                if t <= s <= k]

    def integer_cols(self):
        cols = list(self.w.values()) + list(self.y.values()) + \
            list(self.z.values())
        if self.w_none is not None:
            cols.append(self.w_none)
        return sorted(cols)


def interval_rows(bld, gen, t, k, q, phi, ind, first_run):
    """Rows of the on-run [t, k] with indicator column ``ind``: output
    bounds tied to the indicator, start/shutdown ramp caps, the ramp chain,
    and cost epigraphs. ``q`` and ``phi`` map each period s of the run to
    its output and cost columns. ``first_run`` marks the initial run of an
    initially-on unit, whose pre-horizon output leaves period t uncapped.

    The interval-space block adds these rows for every run; ``solve_ed``
    adds them for one run with ``ind`` fixed at 1.
    """
    g = gen.id
    tag = f"t={t}:k={k}"
    for s in range(t, k + 1):
        bld.add_row([(q[s], 1.0), (ind, -gen.c_min)], ">=", 0.0,
                    f"euc:{g}:qlo:{tag}:s={s}")
        bld.add_row([(q[s], 1.0), (ind, -gen.c_max)], "<=", 0.0,
                    f"euc:{g}:qup:{tag}:s={s}")
    if not first_run:
        bld.add_row([(q[t], 1.0), (ind, -gen.start_ramp)], "<=", 0.0,
                    f"euc:{g}:startramp:{tag}")
    if k != gen.n_periods:
        bld.add_row([(q[k], 1.0), (ind, -gen.start_ramp)], "<=", 0.0,
                    f"euc:{g}:shutramp:{tag}")
    for s in range(t + 1, k + 1):
        bld.add_row([(q[s], 1.0), (q[s - 1], -1.0), (ind, -gen.ramp)],
                    "<=", 0.0, f"euc:{g}:rampup:{tag}:s={s}")
        bld.add_row([(q[s - 1], 1.0), (q[s], -1.0), (ind, -gen.ramp)],
                    "<=", 0.0, f"euc:{g}:rampdn:{tag}:s={s}")
    for s in range(t, k + 1):
        for j, piece in enumerate(gen.cost[s - 1].pieces):
            bld.add_row([(phi[s], 1.0), (q[s], -piece.a), (ind, -piece.b)],
                        ">=", 0.0, f"euc:{g}:piece:{tag}:s={s}:j={j}")


def _euc_block(bld, gen):
    """Interval-space block of one generator, added to a shared builder."""
    g = gen.id
    T = gen.n_periods
    sets = enumerate_index_sets(gen)
    is_on = gen.initial.is_on
    ev = EucVars(gen_id=g, sets=sets, w={}, y={}, z={}, theta={}, q={}, phi={})

    # w_t: the first run ends at t (initially on) or the first start is t
    if is_on:
        for t in range(gen.first_shut, T + 1):
            ev.w[t] = bld.add_var(f"euc:{g}:w:t={t}", 0.0, 1.0,
                                  run_cost(gen, 1, t))
    else:
        for t in range(gen.first_start, T + 1):
            ev.w[t] = bld.add_var(f"euc:{g}:w:t={t}", 0.0, 1.0,
                                  gap_cost(gen, 0, t))
        ev.w_none = bld.add_var(f"euc:{g}:w:never", 0.0, 1.0, 0.0)
    theta_range = range(gen.first_shut, T if is_on else T - gen.ell)
    for (t, k) in sets.tk2:
        ev.y[(t, k)] = bld.add_var(f"euc:{g}:y:t={t}:k={k}", 0.0, 1.0,
                                   run_cost(gen, t, k))
    for (k, t) in sets.kt:
        ev.z[(k, t)] = bld.add_var(f"euc:{g}:z:k={k}:t={t}", 0.0, 1.0,
                                   gap_cost(gen, k, t))
    for t in theta_range:
        ev.theta[t] = bld.add_var(f"euc:{g}:theta:t={t}", 0.0, 1.0, 0.0)
    for (t, k) in sets.intervals:
        for s in range(t, k + 1):
            ev.q[(t, k, s)] = bld.add_var(f"euc:{g}:q:t={t}:k={k}:s={s}",
                                          0.0, math.inf, 0.0)
            ev.phi[(t, k, s)] = bld.add_var(f"euc:{g}:phi:t={t}:k={k}:s={s}",
                                            -math.inf, math.inf, 1.0)

    # run selection: exactly one first-run choice (or one start / never)
    select = [(c, 1.0) for c in ev.w.values()]
    if ev.w_none is not None:
        select.append((ev.w_none, 1.0))
    bld.add_row(select, "=", 1.0, f"euc:{g}:select")

    def flow(t, w):
        # shutdown node t: runs ending at t (and w) feed a restart or the
        # stay-off sink theta_t
        coeffs = w + [(ev.theta[t], 1.0)]
        coeffs += [(ev.z[(k, s)], 1.0) for (k, s) in sets.kt if k == t]
        coeffs += [(ev.y[(s, k)], -1.0) for (s, k) in sets.tk2 if k == t]
        bld.add_row(coeffs, "=", 0.0, f"euc:{g}:flow:t={t}")

    def start(t, w):
        # start node t: runs from t balance the gaps that lead to them and w
        coeffs = [(ev.y[(t, k)], 1.0) for (s, k) in sets.tk2 if s == t]
        coeffs += [(ev.z[(k, t)], -1.0) for (k, s) in sets.kt if s == t]
        coeffs += w
        if coeffs:
            bld.add_row(coeffs, "=", 0.0, f"euc:{g}:start:t={t}")

    if is_on:
        for t in theta_range:
            flow(t, [(ev.w[t], -1.0)])
        for t in range(gen.first_start, T + 1):
            start(t, [])
    else:
        for t in sorted(ev.w):
            start(t, [(ev.w[t], -1.0)])
        for t in theta_range:
            flow(t, [])

    runs = [(t, k, ev.w[k], True) for (t, k) in sets.tk1]
    runs += [(t, k, ev.y[(t, k)], False) for (t, k) in sets.tk2]
    for t, k, ind, first_run in runs:
        span = range(t, k + 1)
        interval_rows(bld, gen, t, k, {s: ev.q[(t, k, s)] for s in span},
                      {s: ev.phi[(t, k, s)] for s in span}, ind, first_run)
    return ev


def build_euc(gen):
    """Interval-space LP of one generator; returns (LinearProgram, EucVars).

    The LP relaxation has integral extreme points, so solving it alone (or
    inside a system tied only by load balance) yields 0/1 interval
    selections at every simplex vertex.
    """
    bld = LpBuilder()
    ev = _euc_block(bld, gen)
    return bld.build(), ev


@dataclass
class TwoBinVars:
    """Column indices of one commitment-space block."""

    gen_id: str
    u: dict
    v: dict
    x: dict
    phi: dict
    zeta: dict    # start-cost epigraph variables
    zetap: dict   # shutdown-cost epigraph variables

    def outputs(self, s):
        return [self.x[s]]

    def integer_cols(self):
        return sorted(list(self.u.values()) + list(self.v.values()))


def _two_bin_block(bld, gen):
    g = gen.id
    T = gen.n_periods
    init = gen.initial
    L, ell = gen.L, gen.ell
    u0 = 1 if init.is_on else 0
    first_start = gen.first_start
    shut_nodes = range(gen.first_shut, T)   # zeta' indexed by last-on period

    # Duration costs split into a base charge on the transition variables
    # plus epigraph excess rows. The base is the cheapest achievable
    # duration cost (every off gap lasts >= ell periods, every run >= L),
    # so the excess coefficients are nonnegative and the LP relaxation is
    # materially tighter than with epigraph rows alone; at integral points
    # base + excess recovers the exact duration cost.
    sv = gen.startup_cost.values
    s_base = min(sv[min(ell, len(sv)) - 1:])
    pv = gen.shutdown_cost.values
    sp_base = min(pv[min(L, len(pv)) - 1:])

    tv = TwoBinVars(gen_id=g, u={}, v={}, x={}, phi={}, zeta={}, zetap={})
    for t in range(1, T + 1):
        tv.u[t] = bld.add_var(f"2bin:{g}:u:t={t}", 0.0, 1.0, 0.0)
    for t in range(1, T + 1):
        tv.v[t] = bld.add_var(f"2bin:{g}:v:t={t}", 0.0, 1.0, s_base)
    for t in shut_nodes:
        if sp_base == 0.0 or t == 0:
            continue  # t = 0 keeps the full coefficient in its epigraph row
        # u_t - u_{t+1} + v_{t+1} equals 1 exactly when the unit shuts
        # down at t+1 (and is nonnegative LP-wide)
        bld.add_obj(tv.u[t], sp_base)
        bld.add_obj(tv.u[t + 1], -sp_base)
        bld.add_obj(tv.v[t + 1], sp_base)
    for t in range(1, T + 1):
        tv.x[t] = bld.add_var(f"2bin:{g}:x:t={t}", 0.0, gen.c_max, 0.0)
        tv.phi[t] = bld.add_var(f"2bin:{g}:phi:t={t}", -math.inf, math.inf, 1.0)
    for t in range(first_start, T + 1):
        tv.zeta[t] = bld.add_var(f"2bin:{g}:zeta:t={t}", 0.0, math.inf, 1.0)
    for t in shut_nodes:
        tv.zetap[t] = bld.add_var(f"2bin:{g}:zetap:t={t}", 0.0, math.inf, 1.0)

    if init.is_on:
        for t in range(1, gen.first_shut + 1):
            bld.set_bounds(f"2bin:{g}:u:t={t}", 1.0, 1.0)
    else:
        for t in range(1, first_start):
            bld.set_bounds(f"2bin:{g}:u:t={t}", 0.0, 0.0)
            bld.set_bounds(f"2bin:{g}:v:t={t}", 0.0, 0.0)

    for t in range(1, T + 1):
        # min-up: any start within the last L periods keeps the unit on
        window = [i for i in range(max(t - L + 1, first_start), t + 1)]
        if window:
            bld.add_row([(tv.v[i], 1.0) for i in window] + [(tv.u[t], -1.0)],
                        "<=", 0.0, f"2bin:{g}:minup:t={t}")
        # min-down: no start within ell periods of an on period
        coeffs = [(tv.v[i], 1.0) for i in range(max(t - ell + 1, 1), t + 1)]
        if t - ell >= 1:
            coeffs.append((tv.u[t - ell], 1.0))
            rhs = 1.0
        else:
            rhs = 1.0 - u0
        bld.add_row(coeffs, "<=", rhs, f"2bin:{g}:mindown:t={t}")
        # start definition: v_t >= u_t - u_{t-1}
        coeffs = [(tv.u[t], 1.0), (tv.v[t], -1.0)]
        rhs = 0.0
        if t >= 2:
            coeffs.append((tv.u[t - 1], -1.0))
        else:
            rhs = float(u0)
        bld.add_row(coeffs, "<=", rhs, f"2bin:{g}:startdef:t={t}")
        # output bounds tied to commitment
        bld.add_row([(tv.x[t], -1.0), (tv.u[t], gen.c_min)], "<=", 0.0,
                    f"2bin:{g}:xlo:t={t}")
        bld.add_row([(tv.x[t], 1.0), (tv.u[t], -gen.c_max)], "<=", 0.0,
                    f"2bin:{g}:xup:t={t}")
        # generation cost epigraph; the intercept scales with commitment
        for j, piece in enumerate(gen.cost[t - 1].pieces):
            bld.add_row([(tv.phi[t], 1.0), (tv.x[t], -piece.a),
                         (tv.u[t], -piece.b)], ">=", 0.0,
                        f"2bin:{g}:piece:t={t}:j={j}")

    # ramping with start/shutdown relaxation via the start-ramp cap
    dV = gen.start_ramp - gen.ramp
    for t in range(1, T + 1):
        if t == 1:
            if init.is_on:
                continue  # pre-horizon output unconstrained
            bld.add_row([(tv.x[1], 1.0)], "<=", gen.start_ramp,
                        f"2bin:{g}:rampup:t=1")
            bld.add_row([(tv.x[1], -1.0), (tv.u[1], dV)], "<=", gen.start_ramp,
                        f"2bin:{g}:rampdn:t=1")
            continue
        bld.add_row([(tv.x[t], 1.0), (tv.x[t - 1], -1.0), (tv.u[t - 1], dV)],
                    "<=", gen.start_ramp, f"2bin:{g}:rampup:t={t}")
        bld.add_row([(tv.x[t - 1], 1.0), (tv.x[t], -1.0), (tv.u[t], dV)],
                    "<=", gen.start_ramp, f"2bin:{g}:rampdn:t={t}")

    # start-up cost epigraphs: active when v_t = 1 and the window [k+1, t-1]
    # was all off; the binding row carries the off-gap's duration cost
    for t in sorted(tv.zeta):
        if not init.is_on:
            K = gap_cost(gen, 0, t) - s_base
            if K > 0.0:
                coeffs = [(tv.zeta[t], 1.0), (tv.v[t], -K)]
                coeffs += [(tv.u[s], K) for s in range(1, t)]
                bld.add_row(coeffs, ">=", 0.0, f"2bin:{g}:startcost:t={t}:first")
        for k in range(gen.first_shut, t - ell):
            K = gap_cost(gen, k, t) - s_base
            if K <= 0.0:
                continue
            coeffs = [(tv.zeta[t], 1.0), (tv.v[t], -K)]
            coeffs += [(tv.u[s], K) for s in range(k + 1, t)]
            bld.add_row(coeffs, ">=", 0.0, f"2bin:{g}:startcost:t={t}:k={k}")

    # shutdown cost epigraphs
    if init.is_on:
        for t in shut_nodes:
            # first run [1, t] ends at t+1; active unless still on at t+1
            # or already interrupted before t
            K = run_cost(gen, 1, t) - (sp_base if t else 0.0)
            if K <= 0.0:
                continue
            coeffs = [(tv.zetap[t], 1.0), (tv.u[t + 1], K)]
            coeffs += [(tv.u[s], -K) for s in range(1, t + 1)]
            bld.add_row(coeffs, ">=", K * (1.0 - t),
                        f"2bin:{g}:shutcost:t={t}:first")
    for k in range(first_start, T + 1):
        for t in range(k + L - 1, T):
            K = run_cost(gen, k, t) - sp_base
            if K <= 0.0:
                continue
            # run started at k ends at t+1: v_k on, [k, t] all on, off at t+1
            coeffs = [(tv.zetap[t], 1.0), (tv.v[k], -K), (tv.u[t + 1], K)]
            coeffs += [(tv.u[s], -K) for s in range(k, t + 1)]
            bld.add_row(coeffs, ">=", K * (k - t - 1),
                        f"2bin:{g}:shutcost:t={t}:k={k}")
    return tv


def build_2bin(gen):
    """Commitment-space big-M MIP block; returns (LinearProgram, TwoBinVars)."""
    bld = LpBuilder()
    tv = _two_bin_block(bld, gen)
    return bld.build(), tv


# ---------------------------------------------------------------------------
# system assembly


@dataclass
class SystemModel:
    """Per-unit blocks on one LP, tied by per-period load balance."""

    lp: object
    blocks: dict          # gen id -> EucVars or TwoBinVars (columns global)
    load_balance_rows: tuple
    integer_cols: tuple


def _assemble(instance, add_block, tag):
    bld = LpBuilder()
    blocks = {gen.id: add_block(bld, gen) for gen in instance.generators}
    balance = []
    for s in range(1, instance.T + 1):
        coeffs = [(c, 1.0) for b in blocks.values() for c in b.outputs(s)]
        balance.append(bld.add_row(coeffs, "=", float(instance.demand[s - 1]),
                                   f"{tag}:balance:t={s}"))
    integer_cols = sorted(c for b in blocks.values() for c in b.integer_cols())
    return SystemModel(lp=bld.build(), blocks=blocks,
                       load_balance_rows=tuple(balance),
                       integer_cols=tuple(integer_cols))


def assemble_meuc(instance):
    """Block-diagonal interval-space blocks plus per-period load balance.

    Integrality is not imposed; the LP's load-balance duals are the
    system's convex hull prices.
    """
    return _assemble(instance, _euc_block, "meuc")


def _euc_row_count(gen):
    """Rows ``_euc_block`` adds for ``gen``, counted the way it adds them."""
    T = gen.n_periods
    sets = enumerate_index_sets(gen)
    theta_hi = T if gen.initial.is_on else T - gen.ell
    # select, a start row per start node, a flow row per theta_t
    rows = 1 + max(T - gen.first_start + 1, 0) \
        + max(theta_hi - gen.first_shut, 0)
    pieces = [0]   # pieces[s]: cost pieces of periods 1..s
    for period in gen.cost:
        pieces.append(pieces[-1] + len(period.pieces))
    for first_run, runs in ((True, sets.tk1), (False, sets.tk2)):
        for t, k in runs:
            # output bounds, ramp caps, the ramp chain and the epigraphs
            rows += 2 * (k - t + 1) + (not first_run) + (k != T) \
                + 2 * (k - t) + pieces[k] - pieces[t - 1]
    return rows


def meuc_row_count(instance):
    """``assemble_meuc(instance).lp.n_rows``, without building anything."""
    return instance.T + sum(_euc_row_count(gen)
                            for gen in instance.generators)


def assemble_2bin(instance):
    """Commitment-space system MIP: blocks plus per-period load balance."""
    return _assemble(instance, _two_bin_block, "2bin")


# ---------------------------------------------------------------------------
# mapping interval-space points back to schedules


def map_to_schedule(gen, ev, primal):
    """Convert an integral interval-space point to a Schedule.

    Raises FractionalSolution (naming the worst offender) if any selection
    variable is farther than ``INT_TOL``, the branch and bound's
    integrality tolerance, from 0/1.
    """
    worst_val, worst_name = 0.0, None
    named = [(f"w:t={t}", col) for t, col in sorted(ev.w.items())]
    if ev.w_none is not None:
        named.append(("w:never", ev.w_none))
    named += [(f"y:t={t}:k={k}", col) for (t, k), col in sorted(ev.y.items())]
    named += [(f"z:k={k}:t={t}", col) for (k, t), col in sorted(ev.z.items())]
    named += [(f"theta:t={t}", col) for t, col in sorted(ev.theta.items())]
    for name, col in named:
        frac = abs(primal[col] - round(primal[col]))
        if frac > worst_val:
            worst_val, worst_name = frac, name
    if worst_val > INT_TOL:
        raise FractionalSolution(
            f"{gen.id}: {worst_name} is {worst_val:.3g} from integrality")

    runs = [(t, k) for (t, k) in ev.sets.tk1 if round(primal[ev.w[k]]) == 1]
    runs += [run for run in ev.sets.tk2 if round(primal[ev.y[run]]) == 1]
    # every run's output of period s, in its load-balance row's order
    x = [0.0] * gen.n_periods
    for (t, k, s), col in ev.q.items():
        x[s - 1] += primal[col]
    return schedule_of_runs(gen, runs, lambda t, k: x[t - 1:k])
