"""Single-generator scheduling: closed-form interval dispatch, value-function
DP, schedule extraction, price-taking profit maximization, and two oracles
(interval dispatch LPs and brute-force enumeration).

The DP works on two value functions over period nodes:

* ``v_up[t]``: cheapest continuation given the unit turns (or stays) on at
  t; chooses the run end k (shutting down at k+1, paying the shutdown cost
  of the run length) or running through T.
* ``v_down[t]``: cheapest continuation given the unit shuts down at t+1
  (t is its last on period); chooses the next start k >= t + ell + 1
  (paying the startup cost of the off gap) or stays off for good.

Interval generation costs come from ``IntervalChain``: the dispatch of one
on-run is a chain of convex piecewise-linear stage costs linked by ramp
windows, so forward propagation of convex value functions prices every
on-run in closed form. The chain keeps one row of costs per start, filled by
one pass, and re-runs a start's pass to backtrack the dispatch of a run the
DP picks. With a price vector the per-period slopes are shifted by -pi so
"cost" means cost minus revenue throughout. ``solve_ed`` and
``IntervalCostCache`` solve the same interval as an LP over the rows the
interval-space model builds for it; they are the oracle that
``brute_force_uc`` and the tests check the chain against.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import groupby

from .formulations import interval_rows
from .lp import LpBuilder, solve_lp, OPTIMAL
from .model import closed_runs, gap_cost, run_cost, schedule_of_runs, \
    transition_costs, upper_envelope


class EnumerationTooLarge(ValueError):
    """brute_force_uc refuses horizons beyond its enumeration guard."""


@dataclass(frozen=True)
class EdResult:
    cost: float
    dispatch: tuple[float, ...]


def solve_ed(gen, t, k, prices=None):
    """Minimum net cost of running exactly over periods [t, k], by LP.

    The LP oracle for ``IntervalChain``: the interval-space rows of the run
    [t, k] (``formulations.interval_rows``), with its indicator column fixed
    at 1 and each output column priced at -pi_s. Start-up and shut-down
    lump costs are not included here.
    """
    if k < t:
        return EdResult(0.0, ())
    T = gen.n_periods
    if not (1 <= t and k <= T):
        raise ValueError(f"interval [{t}, {k}] outside horizon [1, {T}]")
    pi = prices if prices is not None else (0.0,) * T
    bld = LpBuilder()
    on = bld.add_var("on", 1.0, 1.0)
    span = range(t, k + 1)
    q = {s: bld.add_var(f"q{s}", 0.0, math.inf, -pi[s - 1]) for s in span}
    phi = {s: bld.add_var(f"phi{s}", -math.inf, math.inf, 1.0) for s in span}
    interval_rows(bld, gen, t, k, q, phi, on,
                  first_run=t == 1 and gen.initial.is_on)
    sol = solve_lp(bld.build())
    if sol.status != OPTIMAL:
        raise RuntimeError(
            f"{gen.id}: dispatch LP over [{t}, {k}] is {sol.status}")
    return EdResult(sol.objective, tuple(sol.primal[q[s]] for s in span))


class IntervalCostCache:
    """Lazy memo of solve_ed results for one (generator, prices) pair: the
    LP oracle behind ``brute_force_uc``, with IntervalChain's interface."""

    def __init__(self, gen, prices=None):
        self.gen = gen
        self.prices = prices
        self._memo = {}

    def result(self, t, k):
        key = (t, k)
        if key not in self._memo:
            self._memo[key] = solve_ed(self.gen, t, k, self.prices)
        return self._memo[key]

    def cost(self, t, k):
        return self.result(t, k).cost

    def dispatch(self, t, k):
        return self.result(t, k).dispatch


def _at(xs, vs, x):
    """Value at x, xs[0] <= x <= xs[-1], of the PWL function (xs, vs)."""
    i = bisect_left(xs, x)
    if xs[i] == x:
        return vs[i]
    x0, v0 = xs[i - 1], vs[i - 1]
    return v0 + (vs[i] - v0) * (x - x0) / (xs[i] - x0)


def _restrict(xs, vs, lo, hi):
    """(xs, vs) on [lo, hi], ends interpolated. A window that misses the
    domain by round-off is moved onto the nearest end of the domain."""
    if lo <= xs[0] and hi >= xs[-1]:
        return xs, vs
    lo = min(max(lo, xs[0]), xs[-1])
    hi = min(max(hi, lo), xs[-1])
    i, j = bisect_right(xs, lo), bisect_left(xs, hi)
    rx, rv = [lo] + xs[i:j], [_at(xs, vs, lo)] + vs[i:j]
    if hi > lo:
        rx.append(hi)
        rv.append(_at(xs, vs, hi))
    return rx, rv


def _add_stage(wx, wv, kinks, lines):
    """W + f on W's domain, f = max of ``lines`` with ``kinks`` as in
    upper_envelope. Breakpoints are W's plus f's kinks inside W's domain."""
    xs, vs = [], []
    j = bisect_right(kinks, wx[0])
    px = pw = None
    for x, w in zip(wx, wv):
        while j < len(kinks) and kinks[j] <= x:
            k = kinks[j]
            if k < x:
                a, b = lines[j]
                xs.append(k)
                vs.append(pw + (w - pw) * (k - px) / (x - px) + a * k + b)
            j += 1
        a, b = lines[j]
        xs.append(x)
        vs.append(w + a * x + b)
        px, pw = x, w
    return xs, vs


def _argmin(xs, vs):
    """(x, value) at the leftmost minimum of a PWL function."""
    i = vs.index(min(vs))
    return xs[i], vs[i]


def _min_below(xs, vs, cap):
    """Minimum of the PWL function (xs, vs) on x <= cap < xs[-1]: the value
    ``_argmin(*_restrict(xs, vs, -math.inf, cap))`` finds, without the
    restricted lists."""
    x0 = xs[0]
    i, j = bisect_right(xs, x0), bisect_left(xs, cap)
    best = vs[0]
    if j > i:
        inner = min(vs[i:j])
        if inner < best:
            best = inner
    if cap > x0:
        end = _at(xs, vs, cap)
        if end < best:
            best = end
    return best


def _check_span(T, t, k):
    if not (1 <= t <= k <= T):
        raise ValueError(f"interval [{t}, {k}] outside horizon [1, {T}]")


class IntervalChain:
    """Closed-form interval costs for one (generator, prices) pair, with
    IntervalCostCache's ``cost(t, k)`` / ``dispatch(t, k)`` interface.

    The dispatch of an on-run [t, k] is a chain of convex piecewise-linear
    stage costs f_s(x) = max_j (a_j - pi_s) x + b_j linked by the ramp
    window, so it is solved by forward propagation of convex value
    functions, as in the single-unit DP of Frangioni & Gentile (Oper. Res.
    54(4), 2006). One pass from each start t gives every end k:

    * V_t = f_t on [c_min, top], top = c_max for an initially-on unit at
      t = 1 (its pre-horizon output is unconstrained), else the start cap
      min(c_max, start_ramp);
    * V_s = f_s + W with W(x) = min over |x - x'| <= ramp of V_{s-1}(x'):
      the part of V_{s-1} left of its minimizer shifted by -ramp, the part
      right of it shifted by +ramp, taken inside [c_min, c_max];
    * cost(t, k) is the minimum of V_k below the shutdown cap (none at
      k = T), and the dispatch backtracks from its minimizer through the
      ramp windows.

    Each V is a list of breakpoints and a list of values. The pass from a
    start t records cost(t, k) for every k as it goes and keeps only that
    row (``costs``); ``dispatch`` re-runs the pass from t to k and
    backtracks through it.
    """

    def __init__(self, gen, prices=None):
        T = gen.n_periods
        pi = prices if prices is not None else (0.0,) * T
        self.gen = gen
        self._cap = min(gen.c_max, gen.start_ramp)
        self._stages = []
        for pc, p in zip(gen.cost, pi):
            kinks, active = upper_envelope(pc.pieces, gen.c_min, gen.c_max)
            lines = [(pc.pieces[i].a - p, pc.pieces[i].b) for i in active]
            self._stages.append((kinks, lines))
        self._rows = {}

    def _pass(self, t, k, values=None):
        """[cost(t, t), ..., cost(t, k)] from the forward pass from start
        t; each V_s, s = t, ..., k, is appended to ``values`` if given."""
        gen = self.gen
        T = gen.n_periods
        lo, hi, ramp, cap = gen.c_min, gen.c_max, gen.ramp, self._cap
        top = hi if t == 1 and gen.initial.is_on else cap
        xs = [lo, top] if top > lo else [lo]
        vs = [0.0] * len(xs)
        row = []
        for s, stage in enumerate(self._stages[t - 1:k], t):
            if s > t and ramp > 0:
                # shift the halves of V_{s-1} either side of its minimizer
                # (value m), then take them inside [lo, hi]
                i = vs.index(m)
                xs = [x - ramp for x in xs[:i + 1]] + \
                    [x + ramp for x in xs[i:]]
                vs = vs[:i + 1] + vs[i:]
                xs, vs = _restrict(xs, vs, lo, hi)
            xs, vs = _add_stage(xs, vs, *stage)
            if values is not None:
                values.append((xs, vs))
            m = min(vs)
            row.append(m if s == T or cap >= xs[-1] else
                       _min_below(xs, vs, cap))
        return row

    def costs(self, t):
        """[cost(t, t), ..., cost(t, T)]: one pass, kept per start."""
        row = self._rows.get(t)
        if row is None:
            T = self.gen.n_periods
            _check_span(T, t, T)
            row = self._rows[t] = self._pass(t, T)
        return row

    def cost(self, t, k):
        if k < t:
            return 0.0
        _check_span(self.gen.n_periods, t, k)
        return self.costs(t)[k - t]

    def dispatch(self, t, k):
        if k < t:
            return ()
        T = self.gen.n_periods
        _check_span(T, t, k)
        ramp = self.gen.ramp
        values = []
        self._pass(t, k, values)
        xs, vs = values.pop()
        cap = self.gen.c_max if k == T else self._cap
        x = _argmin(*_restrict(xs, vs, -math.inf, cap))[0]
        out = [x]
        for xs, vs in reversed(values):
            x = _argmin(*_restrict(xs, vs, x - ramp, x + ramp))[0]
            out.append(x)
        return tuple(reversed(out))


@dataclass
class ValueTables:
    """DP values, argmins, and the interval costs that produced them.

    ``argmin`` keys: ("up", t) -> ("until", k) or ("to_end",);
    ("down", t) -> ("restart", k) or ("end",); "root" -> ("shutdown", t) /
    ("stay_on",) for initially-on units, ("start", t) / ("never",) for
    initially-off ones.
    """

    objective: float
    v_down: dict = field(default_factory=dict)
    v_up: dict = field(default_factory=dict)
    argmin: dict = field(default_factory=dict)
    ed: IntervalChain = None


def _best(candidates):
    """(value, tag) with strictly-better wins; ties keep the earliest."""
    best_v, best_tag = math.inf, None
    for value, tag in candidates:
        if value < best_v:  # strict: earlier candidates win ties
            best_v, best_tag = value, tag
    return best_v, best_tag


def run_dp(gen, prices=None):
    """Value-function DP for one generator; returns (objective, tables).

    The objective is the minimum over feasible schedules of generation
    cost (net of prices, if given) plus start-up and shut-down costs.
    """
    T = gen.n_periods
    if prices is not None and len(prices) != T:
        raise ValueError("price vector length does not match the horizon")
    ed = IntervalChain(gen, prices)
    tables = ValueTables(objective=math.nan, ed=ed)
    v_down, v_up, arg = tables.v_down, tables.v_up, tables.argmin

    up_lo = gen.first_start
    down_lo = gen.first_shut if gen.initial.is_on else up_lo
    for t in range(T, down_lo - 1, -1):
        # shutdown node t: off from t+1 onward until a restart (or forever)
        if t >= T - gen.ell:
            v_down[t] = 0.0
            arg[("down", t)] = ("end",)
        else:
            cands = [(gap_cost(gen, t, k) + v_up[k], ("restart", k))
                     for k in range(t + gen.ell + 1, T + 1)]
            cands.append((0.0, ("end",)))
            v_down[t], arg[("down", t)] = _best(cands)
        # start node t: unit is on at t (fresh run for the up table)
        if t >= up_lo:
            row = ed.costs(t)   # row[k - t] is the cost of the run [t, k]
            cands = [(run_cost(gen, t, k) + row[k - t] + v_down[k],
                      ("until", k))
                     for k in range(t + gen.L - 1, T)]
            cands.append((row[-1], ("to_end",)))
            v_up[t], arg[("up", t)] = _best(cands)

    if gen.initial.is_on:
        cands = [(run_cost(gen, 1, t) + ed.cost(1, t) + v_down[t],
                  ("shutdown", t))
                 for t in range(down_lo, T)]
        cands.append((ed.cost(1, T), ("stay_on",)))
    else:
        cands = [(gap_cost(gen, 0, t) + v_up[t], ("start", t))
                 for t in range(up_lo, T + 1)]
        cands.append((0.0, ("never",)))
    tables.objective, tables.argmin["root"] = _best(cands)
    return tables.objective, tables


def extract_schedule(gen, tables):
    """Follow the DP argmins into a concrete schedule.

    The root's choices read as the nodes' do: "stay_on" runs from 1 to T
    as "to_end" does, ("shutdown", t) ends the first run [1, t] as
    ("until", k) does (no run for t = 0), ("start", t) opens a run as
    ("restart", k) does, and "never" stops as "end" does.

    The schedule's ``cost`` is evaluated at the generator's own cost data
    (no price folding); its net cost ``cost - pi . x`` reproduces the DP
    objective.
    """
    T = gen.n_periods
    arg = tables.argmin
    runs = []
    t, choice = 1, arg["root"]
    while choice[0] not in ("never", "end"):
        if choice[0] in ("stay_on", "to_end"):
            runs.append((t, T))
            break
        k = choice[1]
        if choice[0] in ("start", "restart"):
            t, choice = k, arg[("up", k)]
        else:  # "shutdown" / "until": the run from t ends at k
            if k >= t:
                runs.append((t, k))
            choice = arg[("down", k)]
    return schedule_of_runs(gen, runs, tables.ed.dispatch)


def profit_max(gen, prices):
    """Maximum self-schedule profit v(pi) and a schedule attaining it."""
    obj, tables = run_dp(gen, prices)
    sched = extract_schedule(gen, tables)
    return -obj, sched


# ---------------------------------------------------------------------------
# independent oracle

_ENUMERATION_LIMIT = 12


def commitment_feasible(gen, u):
    """Min-up/min-down validity of an on/off string, counting the
    pre-horizon run; runs that reach T are exempt (the horizon truncates
    them)."""
    return all(length >= (gen.L if state else gen.ell)
               for state, length in closed_runs(gen, u))


def _on_runs(u):
    """(first, last) period of each maximal on-run of u."""
    runs, t = [], 1
    for on, group in groupby(u):
        n = len(list(group))
        if on:
            runs.append((t, t + n - 1))
        t += n
    return runs


def brute_force_uc(gen, prices=None):
    """Exhaustive minimum over all feasible commitments; dispatch via
    solve_ed per maximal on-run. Returns (objective, Schedule).

    Guarded to horizons T <= 12; longer horizons raise
    EnumerationTooLarge rather than enumerate 2^T strings.
    """
    T = gen.n_periods
    if T > _ENUMERATION_LIMIT:
        raise EnumerationTooLarge(
            f"T={T} exceeds the enumeration guard {_ENUMERATION_LIMIT}")
    ed = IntervalCostCache(gen, prices)
    best, best_runs = math.inf, None
    for mask in range(1 << T):
        u = tuple((mask >> t) & 1 for t in range(T))
        if not commitment_feasible(gen, u):
            continue
        runs = _on_runs(u)
        total = sum(transition_costs(gen, u) +
                    [ed.cost(a, b) for a, b in runs], 0.0)
        if total < best - 1e-12:
            best, best_runs = total, runs
    return best, schedule_of_runs(gen, best_runs, ed.dispatch)
