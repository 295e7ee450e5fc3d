"""Built-in demo system and random instance generators for fuzzing.

The random generators draw structurally feasible systems: demand is built
from a sampled feasible dispatch so the commitment problem always has a
solution. Start-up duration cost tables are drawn non-decreasing, which the
commitment-space epigraph rows require for exactness.
"""

from __future__ import annotations

from .model import (CostPiece, DurationCostFn, GeneratorSpec, InitialState,
                    PeriodCost, SystemInstance, tangent_pieces)


def demo_instance():
    """Two-unit, three-period system with a binding min-up unit.

    Unit g1 is small and flexible (free to cycle); unit g2 is cheap at
    scale but must run at least two periods once started and pays 100 to
    start. Demand (40, 80, 60) makes the cheapest commitment of g2
    expensive enough that the compact model's LP underprices it.
    """
    g1 = GeneratorSpec(
        id="g1", L=1, ell=1, c_min=0.0, c_max=40.0, ramp=40.0,
        start_ramp=40.0,
        startup_cost=DurationCostFn((0.0,)),
        shutdown_cost=DurationCostFn((0.0,)),
        cost=(
            PeriodCost((CostPiece(4.0, 0.0),)),
            PeriodCost((CostPiece(5.0, 0.0),)),
            PeriodCost((CostPiece(6.0, 0.0),)),
        ),
        initial=InitialState(on_for=1),
    )
    g2 = GeneratorSpec(
        id="g2", L=2, ell=2, c_min=20.0, c_max=100.0, ramp=5.0,
        start_ramp=55.0,
        startup_cost=DurationCostFn((100.0,)),
        shutdown_cost=DurationCostFn((0.0,)),
        cost=(
            PeriodCost((CostPiece(4.0, 20.0), CostPiece(5.0, -40.0))),
            PeriodCost((CostPiece(4.0, 20.0), CostPiece(5.0, -40.0))),
            PeriodCost((CostPiece(4.0, 20.0), CostPiece(5.0, -40.0))),
        ),
        initial=InitialState(on_for=2),
    )
    return SystemInstance(T=3, demand=(40.0, 80.0, 60.0), generators=(g1, g2))


def _random_duration_table(rng, scale, zero_ok=True):
    n = int(rng.integers(1, 4))
    base = 0.0 if (zero_ok and rng.random() < 0.3) else rng.uniform(0, scale)
    steps = rng.uniform(0, scale / 2, size=n - 1) if n > 1 else []
    vals = [base]
    for s in steps:
        vals.append(vals[-1] + s)
    return DurationCostFn(tuple(round(v, 4) for v in vals))


def random_generator(rng, T, gen_id="g1", allow_off=True):
    """One random unit with internally consistent limits."""
    c_min = round(float(rng.uniform(0.0, 20.0)), 3)
    c_max = round(c_min + float(rng.uniform(5.0, 60.0)), 3)
    ramp = round(float(rng.uniform(2.0, c_max)), 3)
    start_ramp = round(float(rng.uniform(max(c_min, 1e-3), c_max)), 3)
    L = int(rng.integers(1, min(T, 3) + 1))
    ell = int(rng.integers(1, min(T, 3) + 1))
    periods = []
    for _ in range(T):
        n = int(rng.integers(1, 4))
        alpha = float(rng.uniform(0.005, 0.05))
        beta = float(rng.uniform(1.0, 8.0))
        c = float(rng.uniform(0.0, 30.0))
        if n == 1 or c_max - c_min < 1e-6:
            mid = 0.5 * (c_min + c_max)
            pieces = (CostPiece(round(2 * alpha * mid + beta, 4),
                                round(c - alpha * mid * mid, 4)),)
        else:
            pieces = tangent_pieces(alpha, beta, c, c_min, c_max, n)
        periods.append(PeriodCost(pieces))
    if allow_off and rng.random() < 0.5:
        init = InitialState(off_for=int(rng.integers(1, 4)))
    else:
        init = InitialState(on_for=int(rng.integers(1, 4)))
    return GeneratorSpec(
        id=gen_id, L=L, ell=ell, c_min=c_min, c_max=c_max, ramp=ramp,
        start_ramp=start_ramp,
        startup_cost=_random_duration_table(rng, 80.0),
        shutdown_cost=_random_duration_table(rng, 40.0),
        cost=tuple(periods), initial=init)


def random_prices(rng, T, lo=-2.0, hi=12.0):
    return tuple(round(float(p), 3) for p in rng.uniform(lo, hi, size=T))


def _feasible_profile(rng, gen, T, force_on=False):
    """Sample one dispatch path the unit can actually follow."""
    x = [0.0] * T
    if gen.initial.is_on:
        lvl = float(rng.uniform(gen.c_min, gen.c_max))
        for t in range(T):
            x[t] = lvl
            lvl = float(rng.uniform(max(gen.c_min, lvl - gen.ramp),
                                    min(gen.c_max, lvl + gen.ramp)))
        return x
    if not force_on and rng.random() < 0.4:
        return x
    t_first = gen.first_start
    start = int(rng.integers(t_first, T + 1))
    if T - start + 1 < gen.L:
        start = max(t_first, T - gen.L + 1)
        if T - start + 1 < gen.L:
            return x
    lvl = float(rng.uniform(gen.c_min, min(gen.start_ramp, gen.c_max)))
    for t in range(start - 1, T):
        x[t] = lvl
        lvl = float(rng.uniform(max(gen.c_min, lvl - gen.ramp),
                                min(gen.c_max, lvl + gen.ramp)))
    return x


def random_instance(rng, n_gens, T):
    """A random system whose demand is met by a sampled feasible dispatch."""
    gens = tuple(random_generator(rng, T, gen_id=f"g{i + 1}",
                                  allow_off=(i != 0))
                 for i in range(n_gens))
    while True:
        profiles = [_feasible_profile(rng, gen, T, force_on=(i == 0))
                    for i, gen in enumerate(gens)]
        demand = [sum(p[t] for p in profiles) for t in range(T)]
        if all(d > 1e-9 for d in demand):
            break
    return SystemInstance(T=T, demand=tuple(demand), generators=gens)
