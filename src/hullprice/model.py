"""Domain model: generators, systems, schedules, and JSON I/O.

Conventions used throughout the package:

* periods are 1-indexed, ``t in [1, T]``;
* a generator is either initially on (``on_for`` periods, counting the
  pre-horizon run) or initially off (``off_for`` periods);
* per-period generation cost is a convex piecewise-linear function given
  as the max of affine pieces ``a*x + b`` (the ``b`` term is only paid
  while the unit is committed);
* start-up and shut-down costs are step functions of the preceding
  off-duration / on-duration, indexed from duration 1, with the last
  table entry extended to all longer durations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace


class ParseError(ValueError):
    """Raised for malformed instance files (bad JSON, unknown or mistyped fields)."""


class ValidationError(ValueError):
    """Raised when an instance violates domain invariants; carries all diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = "; ".join(str(d) for d in self.diagnostics)
        super().__init__(f"invalid instance: {lines}")


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" or "warning"
    where: str     # dotted path, e.g. "generators[0].cost"
    message: str

    def __str__(self):
        return f"{self.severity}: {self.where}: {self.message}"


@dataclass(frozen=True)
class CostPiece:
    """One affine piece ``a*x + b`` of a convex generation cost."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("cost piece coefficients must be finite")

    def value(self, x):
        return self.a * x + self.b


@dataclass(frozen=True)
class PeriodCost:
    """Convex piecewise-linear cost for one period, the max of its pieces."""

    pieces: tuple[CostPiece, ...]

    def __post_init__(self):
        if len(self.pieces) == 0:
            raise ValueError("period cost needs at least one piece")

    def value(self, x):
        return max(p.value(x) for p in self.pieces)


@dataclass(frozen=True)
class DurationCostFn:
    """Cost table indexed by duration 1, 2, ...; the last value extends forever."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("duration cost table must be non-empty")
        for v in self.values:
            if not math.isfinite(v) or v < 0:
                raise ValueError("duration costs must be finite and non-negative")

    def value(self, duration):
        if duration < 1:
            raise ValueError(f"duration must be >= 1, got {duration}")
        return self.values[min(duration, len(self.values)) - 1]

    def is_nondecreasing(self):
        return all(b >= a for a, b in zip(self.values, self.values[1:]))


@dataclass(frozen=True)
class InitialState:
    """Pre-horizon state: exactly one of on_for / off_for is set (>= 1)."""

    on_for: int | None = None
    off_for: int | None = None

    def __post_init__(self):
        if (self.on_for is None) == (self.off_for is None):
            raise ValueError("initial state needs exactly one of on_for / off_for")
        dur = self.on_for if self.on_for is not None else self.off_for
        if not isinstance(dur, int) or isinstance(dur, bool) or dur < 1:
            raise ValueError("initial duration must be an integer >= 1")

    @property
    def is_on(self):
        return self.on_for is not None


@dataclass(frozen=True)
class GeneratorSpec:
    """Static data of one thermal unit."""

    id: str
    L: int                      # minimum up time, periods
    ell: int                    # minimum down time, periods
    c_min: float                # output lower bound while on
    c_max: float                # output upper bound while on
    ramp: float                 # ramp limit between consecutive on periods
    start_ramp: float           # output cap in the first period after a start
    startup_cost: DurationCostFn    # by preceding off-duration
    shutdown_cost: DurationCostFn   # by preceding on-duration
    cost: tuple[PeriodCost, ...]    # one PeriodCost per period
    initial: InitialState

    def __post_init__(self):
        if not isinstance(self.L, int) or isinstance(self.L, bool) or self.L < 1:
            raise ValueError(f"{self.id}: minimum up time must be an integer >= 1")
        if not isinstance(self.ell, int) or isinstance(self.ell, bool) or self.ell < 1:
            raise ValueError(f"{self.id}: minimum down time must be an integer >= 1")
        for name in ("c_min", "c_max", "ramp", "start_ramp"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{self.id}: {name} must be finite")
        if self.c_min < 0 or self.c_max < self.c_min:
            raise ValueError(f"{self.id}: need 0 <= c_min <= c_max")
        if self.ramp < 0:
            raise ValueError(f"{self.id}: ramp limit must be non-negative")
        if self.start_ramp < self.c_min:
            raise ValueError(f"{self.id}: start ramp below minimum output")
        if len(self.cost) == 0:
            raise ValueError(f"{self.id}: cost must cover at least one period")

    @property
    def n_periods(self):
        return len(self.cost)

    @property
    def first_start(self):
        """Earliest period the unit may start inside the horizon."""
        if self.initial.is_on:
            return self.first_shut + self.ell + 1
        return max(self.ell - self.initial.off_for + 1, 1)

    @property
    def first_shut(self):
        """Earliest last-on period of a run that ends inside the horizon;
        0 lets an initially-on unit be off from period 1."""
        if self.initial.is_on:
            return max(self.L - self.initial.on_for, 0)
        return self.first_start + self.L - 1


@dataclass(frozen=True)
class SystemInstance:
    """A demand profile plus the units available to serve it.

    ``diagnostics`` holds the warnings found when the instance was parsed,
    such as the dominated cost pieces removed on load; it is empty for an
    instance built in code and takes no part in equality.
    """

    T: int
    demand: tuple[float, ...]
    generators: tuple[GeneratorSpec, ...]
    diagnostics: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.T, int) or isinstance(self.T, bool) or self.T < 1:
            raise ValueError("horizon T must be an integer >= 1")
        if len(self.demand) != self.T:
            raise ValueError(f"demand has {len(self.demand)} entries, expected T={self.T}")


@dataclass(frozen=True, slots=True)
class Schedule:
    """Commitment and dispatch of one generator over the horizon.

    ``u[t-1]`` is the on/off status in period t, ``v[t-1]`` the start
    indicator, ``x[t-1]`` the dispatch, and ``cost`` the total of
    generation, start-up and shut-down costs at the generator's own
    (unshifted) cost data.
    """

    u: tuple[int, ...]
    v: tuple[int, ...]
    x: tuple[float, ...]
    cost: float


# ---------------------------------------------------------------------------
# derived data and small helpers

SCHEDULE_TOL = 1e-6   # check_schedule's slack on output limits and ramps


def tangent_pieces(alpha, beta, c, lo, hi, n):
    """Under-approximate ``alpha*x^2 + beta*x + c`` on [lo, hi] by n tangents.

    Tangent points sit at the midpoints of n equal subintervals; the
    tangent at xh is ``(2*alpha*xh + beta) * x + (c - alpha*xh^2)``.
    """
    if n < 1:
        raise ValueError("need at least one tangent piece")
    if hi < lo:
        raise ValueError("empty output range")
    width = hi - lo
    pieces = []
    for i in range(1, n + 1):
        xh = lo + (i - 0.5) * width / n
        pieces.append(CostPiece(a=2.0 * alpha * xh + beta, b=c - alpha * xh * xh))
    return tuple(pieces)


def upper_envelope(pieces, lo, hi):
    """Kinks of max_j (a_j x + b_j) inside (lo, hi), and the index of the
    piece that is the max on each stretch: ``active[j]`` holds from
    ``kinks[j-1]`` to ``kinks[j]``.

    Walks left to right, each step moving to the piece that overtakes
    first (ties go to the steepest), so it takes O(n^2) for n pieces. A
    piece that only touches the envelope at a point is not active; of
    identical pieces the last one is. The kinks do not depend on a uniform
    slope shift.
    """
    cur = max(range(len(pieces)), key=lambda i: (pieces[i].value(lo), i))
    kinks, active = [], [cur]
    while True:
        a, b = pieces[cur].a, pieces[cur].b
        steeper = [((b - p.b) / (p.a - a), -p.a, -i)
                   for i, p in enumerate(pieces) if p.a > a]
        if not steeper:
            return kinks, active
        x, _, neg_i = min(steeper)
        if x >= hi:
            return kinks, active
        cur = -neg_i
        if x > (kinks[-1] if kinks else lo):
            kinks.append(x)
            active.append(cur)
        else:  # overtakes where the last stretch starts (a tie)
            active[-1] = cur


def dominated_piece_indices(pieces, lo, hi):
    """Indices of pieces that never attain the upper envelope on [lo, hi]."""
    active = set(upper_envelope(pieces, lo, hi)[1])
    return [i for i in range(len(pieces)) if i not in active]


def prune_dominated(gen):
    """Return (generator without dominated pieces, list of warnings)."""
    warnings = []
    new_cost = []
    for t, pc in enumerate(gen.cost):
        drop = dominated_piece_indices(pc.pieces, gen.c_min, gen.c_max)
        if drop:
            warnings.append(Diagnostic(
                "warning", f"{gen.id}.cost[{t}]",
                f"removed {len(drop)} dominated piece(s) at positions {drop}"))
            keep = tuple(p for i, p in enumerate(pc.pieces) if i not in drop)
            new_cost.append(PeriodCost(keep))
        else:
            new_cost.append(pc)
    if not warnings:
        return gen, []
    return replace(gen, cost=tuple(new_cost)), warnings


def fold_prices(gen, pi):
    """Shift every period-t slope by -pi[t-1]: cost becomes cost minus revenue."""
    if len(pi) != gen.n_periods:
        raise ValueError("price vector length does not match the horizon")
    new_cost = tuple(
        PeriodCost(tuple(CostPiece(p.a - pi[t], p.b) for p in pc.pieces))
        for t, pc in enumerate(gen.cost)
    )
    return replace(gen, cost=new_cost)


def starts_from_commitment(gen, u):
    """Start indicators implied by a commitment string and the initial state."""
    prev = 1 if gen.initial.is_on else 0
    v = []
    for ut in u:
        v.append(1 if (ut == 1 and prev == 0) else 0)
        prev = ut
    return tuple(v)


def schedule_of_runs(gen, runs, dispatch):
    """The Schedule on over each run (t, k) of ``runs``, at output
    ``dispatch(t, k)`` there, and off elsewhere. Starts follow from the
    commitment, the cost from ``evaluate_schedule_cost``."""
    T = gen.n_periods
    u = [0] * T
    x = [0.0] * T
    for t, k in runs:
        u[t - 1:k] = [1] * (k - t + 1)
        x[t - 1:k] = dispatch(t, k)
    u = tuple(u)
    return Schedule(u=u, v=starts_from_commitment(gen, u), x=tuple(x),
                    cost=evaluate_schedule_cost(gen, u, x))


def evaluate_schedule_cost(gen, u, x):
    """Generation + start-up + shut-down cost of a commitment/dispatch pair.

    Off periods contribute nothing. A shutdown inside the horizon pays the
    shutdown cost of the ended run (counting the pre-horizon on-duration
    for the initial run); a run that reaches T pays none. A start pays the
    startup cost of the preceding off-duration (counting pre-horizon time).
    """
    total = 0.0
    for t in range(gen.n_periods):
        if u[t]:
            total += gen.cost[t].value(x[t])
    for cost in transition_costs(gen, u):
        total += cost
    return total


def transition_costs(gen, u):
    """Start-up or shut-down cost of each closed run of u, in time order:
    an on-run [t, k] ends in a shutdown (``run_cost``), an off-gap after
    last-on period k in a start at t (``gap_cost``). The run under way at
    period 1 starts there: an initially-on unit off at 1 closes the run
    [1, 0], and a gap under way at 1 follows last-on period 0."""
    costs, first, state = [], 1, 1 if gen.initial.is_on else 0
    for t, cur in enumerate(u, 1):
        if cur != state:
            costs.append(run_cost(gen, first, t - 1) if state
                         else gap_cost(gen, first - 1, t))
            first, state = t, cur
    return costs


def run_cost(gen, t, k):
    """Shut-down cost of the on-run [t, k]: none for a run reaching T; the
    first run of an initially-on unit counts its pre-horizon time."""
    if k == gen.n_periods:
        return 0.0
    n = k - t + 1
    if t == 1 and gen.initial.is_on:
        n += gen.initial.on_for
    return gen.shutdown_cost.value(n)


def gap_cost(gen, k, t):
    """Start-up cost of a start at t after last-on period k; the gap from
    k = 0 of an initially-off unit counts its pre-horizon time."""
    n = t - k - 1
    if k == 0 and not gen.initial.is_on:
        n += gen.initial.off_for
    return gen.startup_cost.value(n)


def closed_runs(gen, u):
    """(state, length) of each run of u ending inside the horizon, counting
    pre-horizon time; the run reaching T is truncated and left out."""
    state = 1 if gen.initial.is_on else 0
    length = gen.initial.on_for if gen.initial.is_on else gen.initial.off_for
    for cur in u:
        if cur == state:
            length += 1
        else:
            yield state, length
            state, length = cur, 1


def check_schedule(gen, sched):
    """List of constraint violations of a Schedule; empty when feasible."""
    T = gen.n_periods
    tol = SCHEDULE_TOL
    problems = []
    u, v, x = sched.u, sched.v, sched.x
    if not (len(u) == len(v) == len(x) == T):
        return [f"{gen.id}: schedule length mismatch"]
    if any(b not in (0, 1) for b in u) or any(b not in (0, 1) for b in v):
        problems.append(f"{gen.id}: u and v must be 0/1")
        return problems
    if tuple(v) != starts_from_commitment(gen, u):
        problems.append(f"{gen.id}: v does not mark the starts implied by u")
    for t in range(T):
        if u[t]:
            if x[t] < gen.c_min - tol or x[t] > gen.c_max + tol:
                problems.append(f"{gen.id}: x[{t + 1}] outside [c_min, c_max]")
        elif abs(x[t]) > tol:
            problems.append(f"{gen.id}: positive output while off at period {t + 1}")

    # run-length checks, including the pre-horizon run
    for st, ln in closed_runs(gen, u):
        if st == 1 and ln < gen.L:
            problems.append(f"{gen.id}: on-run of {ln} < minimum up time {gen.L}")
        if st == 0 and ln < gen.ell:
            problems.append(f"{gen.id}: off-run of {ln} < minimum down time {gen.ell}")

    # ramping between consecutive on periods; start/shutdown ramp caps
    prev_on = gen.initial.is_on
    for t in range(1, T + 1):
        cur_on = bool(u[t - 1])
        if cur_on and prev_on and t >= 2:
            if abs(x[t - 1] - x[t - 2]) > gen.ramp + tol:
                problems.append(f"{gen.id}: ramp violation into period {t}")
        if cur_on and not prev_on:
            if x[t - 1] > gen.start_ramp + tol:
                problems.append(f"{gen.id}: start ramp exceeded at period {t}")
        if prev_on and not cur_on and t >= 2:
            if x[t - 2] > gen.start_ramp + tol:
                problems.append(f"{gen.id}: shutdown ramp exceeded at period {t - 1}")
        prev_on = cur_on
    return problems


# ---------------------------------------------------------------------------
# validation


def validate(instance):
    """Cross-field diagnostics for a constructed instance.

    Severity "error" marks invariant violations; "warning" marks legal but
    suspicious data (capacity shortfall, dominated cost pieces,
    non-monotone startup cost tables).
    """
    return _validate(instance, check_pieces=True)


def _validate(instance, check_pieces):
    diags = []
    seen = set()
    for gi, g in enumerate(instance.generators):
        where = f"generators[{gi}]"
        if g.id in seen:
            diags.append(Diagnostic("error", where, f"duplicate generator id {g.id!r}"))
        seen.add(g.id)
        if g.n_periods != instance.T:
            diags.append(Diagnostic(
                "error", f"{where}.cost",
                f"covers {g.n_periods} periods, expected T={instance.T}"))
        for t, pc in enumerate(g.cost if check_pieces else ()):
            drop = dominated_piece_indices(pc.pieces, g.c_min, g.c_max)
            if drop:
                diags.append(Diagnostic(
                    "warning", f"{where}.cost[{t}]",
                    f"piece(s) {drop} never attain the maximum on "
                    f"[{g.c_min}, {g.c_max}]"))
        if not g.startup_cost.is_nondecreasing():
            diags.append(Diagnostic(
                "warning", f"{where}.startup_cost",
                "table decreases with off-duration; the commitment-space "
                "encoding may overcharge restarts"))
    for t, d in enumerate(instance.demand):
        if not math.isfinite(d) or d < 0:
            diags.append(Diagnostic(
                "error", f"demand[{t}]", "must be finite and non-negative"))
    cap = sum(g.c_max for g in instance.generators)
    peak = max(instance.demand) if instance.demand else 0.0
    if instance.generators and cap < peak:
        diags.append(Diagnostic(
            "warning", "demand",
            f"peak demand {peak} exceeds total capacity {cap}"))
    return diags


# ---------------------------------------------------------------------------
# JSON I/O

_TOP_FIELDS = {"T", "demand", "generators"}
_GEN_FIELDS = {"id", "L", "ell", "c_min", "c_max", "ramp", "start_ramp",
               "startup_cost", "shutdown_cost", "initial", "cost"}
_QUAD_FIELDS = {"alpha", "beta", "c", "pieces"}


def _num(val, where, diags, allow_int_only=False):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        diags.append(Diagnostic("error", where, "expected a number"))
        return 0
    if allow_int_only and not isinstance(val, int):
        diags.append(Diagnostic("error", where, "expected an integer"))
        return 0
    return val


def _check_unknown(obj, allowed, where):
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ParseError(f"{where}: unknown field(s) {', '.join(unknown)}")


def _parse_cost(raw, gen_where, T, c_min, c_max, default_pieces, diags):
    if isinstance(raw, dict):
        _check_unknown(raw, {"quadratic"}, f"{gen_where}.cost")
        quad = raw.get("quadratic")
        if not isinstance(quad, dict):
            raise ParseError(f"{gen_where}.cost.quadratic: expected an object")
        _check_unknown(quad, _QUAD_FIELDS, f"{gen_where}.cost.quadratic")
        alpha = _num(quad.get("alpha", 0.0), f"{gen_where}.cost.quadratic.alpha", diags)
        beta = _num(quad.get("beta", 0.0), f"{gen_where}.cost.quadratic.beta", diags)
        c = _num(quad.get("c", 0.0), f"{gen_where}.cost.quadratic.c", diags)
        n = quad.get("pieces", default_pieces)
        n = _num(n, f"{gen_where}.cost.quadratic.pieces", diags, allow_int_only=True)
        if n < 1:
            diags.append(Diagnostic("error", f"{gen_where}.cost.quadratic.pieces",
                                    "must be >= 1"))
            return None
        pieces = tangent_pieces(alpha, beta, c, c_min, c_max, n)
        return tuple(PeriodCost(pieces) for _ in range(T))
    if not isinstance(raw, list):
        raise ParseError(f"{gen_where}.cost: expected a list or a quadratic object")
    out = []
    for t, period in enumerate(raw):
        if not isinstance(period, list) or not period:
            diags.append(Diagnostic("error", f"{gen_where}.cost[{t}]",
                                    "expected a non-empty list of pieces"))
            return None
        pieces = []
        for j, piece in enumerate(period):
            if not isinstance(piece, dict):
                raise ParseError(f"{gen_where}.cost[{t}][{j}]: expected an object")
            _check_unknown(piece, {"a", "b"}, f"{gen_where}.cost[{t}][{j}]")
            a = _num(piece.get("a"), f"{gen_where}.cost[{t}][{j}].a", diags)
            b = _num(piece.get("b"), f"{gen_where}.cost[{t}][{j}].b", diags)
            pieces.append(CostPiece(float(a), float(b)))
        out.append(PeriodCost(tuple(pieces)))
    return tuple(out)


def _parse_duration_table(raw, where, diags):
    if not isinstance(raw, list) or not raw:
        diags.append(Diagnostic("error", where, "expected a non-empty list of costs"))
        return DurationCostFn((0.0,))
    vals = []
    for i, v in enumerate(raw):
        v = _num(v, f"{where}[{i}]", diags)
        if not math.isfinite(v) or v < 0:
            diags.append(Diagnostic("error", f"{where}[{i}]",
                                    "must be finite and non-negative"))
            v = 0.0
        vals.append(float(v))
    return DurationCostFn(tuple(vals))


def parse_instance(doc, quad_pieces=10):
    """Build a SystemInstance from a parsed JSON document.

    Structural problems (wrong shapes, unknown fields) raise ParseError at
    the first offence; value problems are collected and raised together as
    ValidationError. Dominated cost pieces are pruned on load; the
    instance's ``diagnostics`` carry a warning for each period pruned and
    ``validate``'s other warnings.
    """
    if not isinstance(doc, dict):
        raise ParseError("top level: expected an object")
    _check_unknown(doc, _TOP_FIELDS, "top level")
    diags = []
    T = doc.get("T")
    if not isinstance(T, int) or isinstance(T, bool) or T < 1:
        raise ParseError("T: expected an integer >= 1")
    demand_raw = doc.get("demand")
    if not isinstance(demand_raw, list):
        raise ParseError("demand: expected a list")
    if len(demand_raw) != T:
        diags.append(Diagnostic("error", "demand",
                                f"has {len(demand_raw)} entries, expected T={T}"))
    demand = tuple(float(_num(d, f"demand[{t}]", diags))
                   for t, d in enumerate(demand_raw))
    gens_raw = doc.get("generators")
    if not isinstance(gens_raw, list):
        raise ParseError("generators: expected a list")

    gens = []
    for gi, graw in enumerate(gens_raw):
        where = f"generators[{gi}]"
        if not isinstance(graw, dict):
            raise ParseError(f"{where}: expected an object")
        _check_unknown(graw, _GEN_FIELDS, where)
        missing = sorted(_GEN_FIELDS - set(graw))
        if missing:
            raise ParseError(f"{where}: missing field(s) {', '.join(missing)}")
        gid = graw["id"]
        if not isinstance(gid, str) or not gid:
            raise ParseError(f"{where}.id: expected a non-empty string")
        L = _num(graw["L"], f"{where}.L", diags, allow_int_only=True)
        ell = _num(graw["ell"], f"{where}.ell", diags, allow_int_only=True)
        c_min = float(_num(graw["c_min"], f"{where}.c_min", diags))
        c_max = float(_num(graw["c_max"], f"{where}.c_max", diags))
        ramp = float(_num(graw["ramp"], f"{where}.ramp", diags))
        start_ramp = float(_num(graw["start_ramp"], f"{where}.start_ramp", diags))
        su = _parse_duration_table(graw["startup_cost"], f"{where}.startup_cost", diags)
        sd = _parse_duration_table(graw["shutdown_cost"], f"{where}.shutdown_cost", diags)
        init_raw = graw["initial"]
        if not isinstance(init_raw, dict) or len(init_raw) != 1 or \
                next(iter(init_raw)) not in ("on_for", "off_for"):
            raise ParseError(f"{where}.initial: expected exactly one of on_for / off_for")
        key, dur = next(iter(init_raw.items()))
        dur = _num(dur, f"{where}.initial.{key}", diags, allow_int_only=True)

        # value sanity before constructing (constructors raise on first fault)
        if L < 1:
            diags.append(Diagnostic("error", f"{where}.L", "must be >= 1"))
        if ell < 1:
            diags.append(Diagnostic("error", f"{where}.ell", "must be >= 1"))
        if c_min < 0 or c_max < c_min:
            diags.append(Diagnostic("error", f"{where}.c_min", "need 0 <= c_min <= c_max"))
        if ramp < 0:
            diags.append(Diagnostic("error", f"{where}.ramp", "must be non-negative"))
        if start_ramp < c_min:
            diags.append(Diagnostic("error", f"{where}.start_ramp",
                                    "start ramp below minimum output"))
        if dur < 1:
            diags.append(Diagnostic("error", f"{where}.initial.{key}", "must be >= 1"))
        cost = _parse_cost(graw["cost"], where, T, min(c_min, c_max),
                           max(c_min, c_max), quad_pieces, diags)
        if cost is not None and len(cost) != T:
            diags.append(Diagnostic("error", f"{where}.cost",
                                    f"covers {len(cost)} periods, expected T={T}"))
        if any(d.severity == "error" for d in diags):
            continue
        gen = GeneratorSpec(
            id=gid, L=L, ell=ell, c_min=c_min, c_max=c_max, ramp=ramp,
            start_ramp=start_ramp, startup_cost=su, shutdown_cost=sd,
            cost=cost, initial=InitialState(**{key: dur}))
        gen, pruned = prune_dominated(gen)
        diags.extend(pruned)
        gens.append(gen)

    errors = [d for d in diags if d.severity == "error"]
    if errors:
        raise ValidationError(errors)
    instance = SystemInstance(T=T, demand=demand, generators=tuple(gens))
    # pruning left no dominated piece, so validate skips that walk
    diags.extend(_validate(instance, check_pieces=False))
    errors = [d for d in diags if d.severity == "error"]
    if errors:
        raise ValidationError(errors)
    return replace(instance, diagnostics=tuple(diags))


def load_instance(path, quad_pieces=10):
    """Load a system instance from a JSON file. See parse_instance."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: malformed JSON: {exc}") from exc
    return parse_instance(doc, quad_pieces=quad_pieces)


def instance_to_doc(instance):
    return {
        "T": instance.T,
        "demand": list(instance.demand),
        "generators": [
            {
                "id": g.id,
                "L": g.L,
                "ell": g.ell,
                "c_min": g.c_min,
                "c_max": g.c_max,
                "ramp": g.ramp,
                "start_ramp": g.start_ramp,
                "startup_cost": list(g.startup_cost.values),
                "shutdown_cost": list(g.shutdown_cost.values),
                "initial": ({"on_for": g.initial.on_for} if g.initial.is_on
                            else {"off_for": g.initial.off_for}),
                "cost": [[{"a": p.a, "b": p.b} for p in pc.pieces] for pc in g.cost],
            }
            for g in instance.generators
        ],
    }


def save_instance(instance, path):
    """Write an instance as JSON; load_instance(save_instance(x)) == x."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_doc(instance), fh, indent=2)
        fh.write("\n")
