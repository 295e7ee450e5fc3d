"""Shared fixtures and independent oracles for the test suite.

The joint-commitment enumeration oracle here is deliberately written from
first principles (its own transition-cost accounting and its own dispatch
LP assembly) so that agreement with the package's solvers is meaningful.
"""

import math
import os
from itertools import product

# one BLAS thread, as perfbench/run.py uses: the thread count can change
# the simplex's pivot path; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

from hullprice.lp import LinearProgram, LpBuilder, solve_lp
from hullprice.samples import demo_instance
from hullprice.ucdp import commitment_feasible


@pytest.fixture
def demo():
    return demo_instance()


def random_feasible_lp(rng):
    """Small random LP with finite variable bounds (never unbounded)."""
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 6))
    obj = rng.integers(-5, 6, size=n).astype(float)
    lo = np.where(rng.random(n) < 0.8, 0.0, -5.0)
    hi = np.where(rng.random(n) < 0.8, rng.integers(1, 10, size=n), 15.0)
    rows = []
    for _ in range(m):
        nz = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        coeffs = tuple((int(j), float(rng.integers(-4, 5)) or 1.0)
                       for j in nz)
        sense = ("<=", ">=", "=")[int(rng.integers(0, 3))]
        rhs = float(rng.integers(-10, 21))
        rows.append((coeffs, sense, rhs))
    return LinearProgram(n_vars=n, objective=tuple(obj), rows=tuple(rows),
                         var_lo=tuple(lo.tolist()),
                         var_hi=tuple(hi.astype(float).tolist()))


def feasible_commitments(gen, T):
    """Every 0/1 on-string the unit can physically follow."""
    out = []
    for mask in range(2 ** T):
        u = tuple((mask >> t) & 1 for t in range(T))
        if commitment_feasible(gen, u):
            out.append(u)
    return out


def transition_cost(gen, u):
    """Start-up and shut-down charges along one commitment string."""
    S = gen.startup_cost.value
    Sp = gen.shutdown_cost.value
    init = gen.initial
    cost = 0.0
    prev_on = init.is_on
    run_len = init.on_for if init.is_on else 0
    gap_len = 0 if init.is_on else init.off_for
    for t in range(len(u)):
        if u[t] and not prev_on:
            cost += S(gap_len)
            run_len = 0
        if not u[t] and prev_on:
            cost += Sp(run_len)
            gap_len = 0
        if u[t]:
            run_len += 1
        else:
            gap_len += 1
        prev_on = bool(u[t])
    return cost


def _runs(u):
    runs, start = [], None
    for t, on in enumerate(u, start=1):
        if on and start is None:
            start = t
        if not on and start is not None:
            runs.append((start, t - 1))
            start = None
    if start is not None:
        runs.append((start, len(u)))
    return runs


def joint_dispatch_value(instance, commitments):
    """Least generation cost of one joint commitment, or inf if demand
    cannot be met under it."""
    bld = LpBuilder()
    T = instance.T
    per_period = {t: [] for t in range(1, T + 1)}
    for gen, u in zip(instance.generators, commitments):
        for (a, b) in _runs(u):
            xs = {}
            for s in range(a, b + 1):
                xs[s] = bld.add_var(f"{gen.id}:x:{a}:{s}", gen.c_min,
                                    gen.c_max, 0.0)
                f = bld.add_var(f"{gen.id}:f:{a}:{s}", -math.inf, math.inf,
                                1.0)
                for i, piece in enumerate(gen.cost[s - 1].pieces):
                    bld.add_row([(f, 1.0), (xs[s], -piece.a)], ">=", piece.b,
                                f"{gen.id}:pc:{a}:{s}:{i}")
                per_period[s].append(xs[s])
            if not (a == 1 and gen.initial.is_on):
                bld.add_row([(xs[a], 1.0)], "<=", gen.start_ramp,
                            f"{gen.id}:sr:{a}")
            if b < T:
                bld.add_row([(xs[b], 1.0)], "<=", gen.start_ramp,
                            f"{gen.id}:hr:{a}")
            for s in range(a + 1, b + 1):
                bld.add_row([(xs[s], 1.0), (xs[s - 1], -1.0)], "<=", gen.ramp,
                            f"{gen.id}:ru:{a}:{s}")
                bld.add_row([(xs[s - 1], 1.0), (xs[s], -1.0)], "<=", gen.ramp,
                            f"{gen.id}:rd:{a}:{s}")
    for t in range(1, T + 1):
        bld.add_row([(j, 1.0) for j in per_period[t]], "=",
                    float(instance.demand[t - 1]), f"bal:{t}")
    sol = solve_lp(bld.build())
    if sol.status != "Optimal":
        return math.inf
    return sol.objective


def joint_enumeration_optimum(instance):
    """Exhaustive minimum over joint feasible commitments."""
    options = [feasible_commitments(gen, instance.T)
               for gen in instance.generators]
    best = math.inf
    for combo in product(*options):
        fixed = sum(transition_cost(gen, u)
                    for gen, u in zip(instance.generators, combo))
        disp = joint_dispatch_value(instance, combo)
        best = min(best, fixed + disp)
    return best


def enumeration_size(instance):
    n = 1
    for gen in instance.generators:
        n *= len(feasible_commitments(gen, instance.T))
    return n
