import gc
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import vstack

from hullprice import ucdp
from hullprice.formulations import build_euc
from hullprice.model import (
    CostPiece,
    DurationCostFn,
    GeneratorSpec,
    InitialState,
    PeriodCost,
    check_schedule,
    fold_prices,
)
from hullprice.samples import random_generator, random_prices
from hullprice.ucdp import (
    EnumerationTooLarge,
    IntervalChain,
    brute_force_uc,
    commitment_feasible,
    extract_schedule,
    profit_max,
    run_dp,
    solve_ed,
)


def _unit(T=3, **kw):
    base = dict(id="u", L=1, ell=1, c_min=0.0, c_max=10.0, ramp=10.0,
                start_ramp=10.0,
                startup_cost=DurationCostFn((0.0,)),
                shutdown_cost=DurationCostFn((0.0,)),
                cost=(PeriodCost((CostPiece(2.0, 0.0),)),) * T,
                initial=InitialState(on_for=1))
    base.update(kw)
    return GeneratorSpec(**base)


class TestSolveEd:
    def test_fixed_output_single_period(self):
        gen = _unit(T=1, c_min=10.0, c_max=10.0)
        res = solve_ed(gen, 1, 1)
        assert res.cost == pytest.approx(20.0)
        assert res.dispatch == pytest.approx((10.0,))

    def test_demo_unit_runs_at_minimum_without_prices(self, demo):
        g2 = demo.generators[1]
        res = solve_ed(g2, 1, 3)
        assert res.cost == pytest.approx(300.0, abs=1e-9)
        assert res.dispatch == pytest.approx((20.0, 20.0, 20.0), abs=1e-9)

    def test_prices_pull_output_up(self, demo):
        g2 = demo.generators[1]
        # period-2 price far above both slopes: x2 runs to capacity and
        # the ramp limit drags its neighbours up to 95
        res = solve_ed(g2, 1, 3, prices=(0.0, 50.0, 0.0))
        assert res.dispatch == pytest.approx((95.0, 100.0, 95.0), abs=1e-9)

    def test_start_ramp_binds_on_restart(self, demo):
        g2 = demo.generators[1]
        # interval starting at t=2 is a fresh start: x2 <= start_ramp = 55
        res = solve_ed(g2, 2, 3, prices=(0.0, 100.0, 100.0))
        assert res.dispatch == pytest.approx((55.0, 60.0), abs=1e-9)

    def test_empty_interval_costs_nothing(self, demo):
        res = solve_ed(demo.generators[1], 3, 2)
        assert res.cost == 0.0
        assert res.dispatch == ()

    def test_interval_outside_horizon_rejected(self, demo):
        with pytest.raises(ValueError):
            solve_ed(demo.generators[1], 1, 4)

    def test_initially_on_unit_skips_start_cap_at_one(self, demo):
        g2 = demo.generators[1]
        # pre-horizon output is unconstrained, so [1,1] may exceed the
        # start ramp; the shutdown cap (k=1 < T) still applies
        res = solve_ed(g2, 1, 1, prices=(100.0, 0.0, 0.0))
        assert res.dispatch[0] == pytest.approx(g2.start_ramp, abs=1e-9)
        res_end = solve_ed(g2, 3, 3, prices=(0.0, 0.0, 100.0))
        # k = T: no shutdown cap, but a fresh start at t=3 caps at 55
        assert res_end.dispatch[0] == pytest.approx(g2.start_ramp, abs=1e-9)


def _variant(rng, gen, kind):
    """A random unit bent into one of the degenerate shapes."""
    if kind == "ramp0":
        return replace(gen, ramp=0.0)
    if kind == "fixed":
        return replace(gen, c_max=gen.c_min, start_ramp=gen.c_min)
    if kind == "start_at_min":
        return replace(gen, start_ramp=gen.c_min)
    if kind == "equal_slopes":
        # each period gains a copy of a piece shifted up or down: one
        # dominates the other, or they tie at every output
        shift = float(rng.choice([-5.0, 0.0, 5.0]))
        return replace(gen, cost=tuple(
            PeriodCost(pc.pieces + (CostPiece(pc.pieces[0].a,
                                              pc.pieces[0].b + shift),))
            for pc in gen.cost))
    return gen


def _chain_corpus():
    rng = np.random.default_rng(2006)
    kinds = ("plain", "ramp0", "fixed", "start_at_min", "equal_slopes")
    for trial in range(60):
        T = 1 + trial % 8
        gen = _variant(rng, random_generator(rng, T, f"u{trial}"),
                       kinds[trial % len(kinds)])
        pi = random_prices(rng, T) if trial % 7 else None
        yield trial, gen, pi


class TestIntervalChain:
    def test_agrees_with_lp_oracle(self):
        checked = 0
        for trial, gen, pi in _chain_corpus():
            T, ramp = gen.n_periods, gen.ramp
            net = pi if pi is not None else (0.0,) * T
            chain = IntervalChain(gen, pi)
            for t in range(1, T + 1):
                for k in range(t, T + 1):
                    where = (trial, t, k)
                    ref = solve_ed(gen, t, k, pi)
                    cost = chain.cost(t, k)
                    assert cost == pytest.approx(ref.cost, rel=1e-9,
                                                 abs=1e-9), where
                    # ties may pick another dispatch than the LP's, so
                    # check the chain's own dispatch, not equality
                    x = chain.dispatch(t, k)
                    assert len(x) == k - t + 1, where
                    for out in x:
                        assert gen.c_min - 1e-9 <= out <= gen.c_max + 1e-9
                    for a, b in zip(x, x[1:]):
                        assert abs(b - a) <= ramp + 1e-9, where
                    if not (t == 1 and gen.initial.is_on):
                        assert x[0] <= gen.start_ramp + 1e-9, where
                    if k != T:
                        assert x[-1] <= gen.start_ramp + 1e-9, where
                    attained = sum(gen.cost[s - 1].value(out) - net[s - 1] * out
                                   for s, out in zip(range(t, k + 1), x))
                    assert attained == pytest.approx(cost, rel=1e-9,
                                                     abs=1e-9), where
                    checked += 1
        assert checked >= 600  # every shape and horizon 1..8 is exercised

    def test_empty_interval(self, demo):
        chain = IntervalChain(demo.generators[1], (1.0, 5.0, 6.0))
        assert chain.cost(1, 0) == 0.0
        assert chain.dispatch(1, 0) == ()
        assert chain.cost(3, 2) == 0.0
        assert chain.dispatch(3, 2) == ()

    def test_interval_outside_horizon_rejected(self, demo):
        gen = demo.generators[1]
        T = gen.n_periods
        with pytest.raises(ValueError):
            IntervalChain(gen).cost(1, T + 1)
        with pytest.raises(ValueError):
            IntervalChain(gen).dispatch(1, T + 1)

    def test_demo_ramp_window(self, demo):
        g2 = demo.generators[1]
        chain = IntervalChain(g2, (0.0, 50.0, 0.0))
        assert chain.dispatch(1, 3) == pytest.approx((95.0, 100.0, 95.0),
                                                     abs=1e-9)
        restart = IntervalChain(g2, (0.0, 100.0, 100.0))
        assert restart.dispatch(2, 3) == pytest.approx((55.0, 60.0), abs=1e-9)

    def test_run_dp_solves_no_lp(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("run_dp called the LP solver")
        monkeypatch.setattr(ucdp, "solve_lp", refuse)
        rng = np.random.default_rng(48)
        gen = random_generator(rng, 48, "u")
        pi = random_prices(rng, 48)
        value, sched = profit_max(gen, pi)
        assert check_schedule(gen, sched) == []
        assert sum(p * x for p, x in zip(pi, sched.x)) - sched.cost == \
            pytest.approx(value, abs=1e-7)


def test_min_below_cap_matches_restricted_argmin():
    # the pass takes each cost below the shutdown cap without building the
    # restricted lists; it must give the very float the restriction gives
    rng = np.random.default_rng(2417)
    for trial in range(2000):
        n = 1 + trial % 9
        xs = sorted(rng.choice([0.0, 1.0, 2.5, 4.0, 7.0, 9.5], n).tolist()
                    if trial % 3 == 0 else rng.uniform(0, 10, n).tolist())
        vs = rng.choice([-1.0, 0.0, 2.0], n).tolist() if trial % 2 \
            else rng.uniform(-5, 5, n).tolist()
        cap = float(rng.uniform(xs[0] - 1, xs[-1]))
        if cap >= xs[-1]:
            continue
        want = ucdp._argmin(*ucdp._restrict(xs, vs, -math.inf, cap))[1]
        assert ucdp._min_below(xs, vs, cap) == want, (xs, vs, cap)


def test_chain_footprint_is_linear_in_horizon():
    # the chain keeps one cost row per start, not the value functions of
    # every pass; count the GC-tracked containers a run_dp leaves alive
    rng = np.random.default_rng(4848)
    T = 48
    gen = random_generator(rng, T, "u")
    pi = random_prices(rng, T)
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        result = run_dp(gen, pi)
        alive = gc.get_count()[0] - before
    finally:
        gc.enable()
    assert result[0] < math.inf
    assert alive <= 16 * T


def test_dp_loads_no_scipy():
    # the LP stack imports scipy with the first LP it builds; the DP
    # builds none, so a process that only prices best responses skips it
    code = ("import sys, hullprice\n"
            "from hullprice.samples import demo_instance\n"
            "hullprice.profit_max(demo_instance().generators[1], (1.0, 5.0, 6.0))\n"
            "assert not [m for m in sys.modules if m.startswith('scipy')]\n"
            "hullprice.solve_ed(demo_instance().generators[1], 1, 3)\n"
            "assert 'scipy.sparse' in sys.modules\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120)


def _highs(lp):
    """HiGHS on a LinearProgram, rows split by sense (sparse)."""
    A = lp.matrix().tocsr()
    le, ge, eq = lp.sense == "<=", lp.sense == ">=", lp.sense == "="
    return linprog(
        c=np.asarray(lp.objective),
        A_ub=vstack([A[le], -A[ge]]).tocsc(),
        b_ub=np.concatenate([lp.rhs[le], -lp.rhs[ge]]),
        A_eq=A[eq].tocsc() if eq.any() else None,
        b_eq=lp.rhs[eq] if eq.any() else None,
        bounds=list(zip(lp.var_lo, lp.var_hi)), method="highs")


def test_long_horizon_dp_matches_interval_lp():
    # brute_force_uc stops at T = 12; the EUC LP of one unit is integral,
    # so its value is the unit's optimum at any horizon
    rng = np.random.default_rng(24)
    for trial in range(3):
        gen = random_generator(rng, 24, f"u{trial}")
        pi = random_prices(rng, 24)
        lp, _ = build_euc(fold_prices(gen, pi))
        ref = _highs(lp)
        assert ref.status == 0, (trial, ref.message)
        dp_obj, _ = run_dp(gen, prices=pi)
        assert dp_obj == pytest.approx(ref.fun, abs=1e-7), trial


class TestRunDp:
    def test_demo_unit_zero_profit_at_tlmp_prices(self, demo):
        g2 = demo.generators[1]
        obj, _ = run_dp(g2, prices=(1.0, 5.0, 6.0))
        assert obj == pytest.approx(0.0, abs=1e-9)

    def test_demo_unit_zero_profit_at_hull_prices(self, demo):
        g2 = demo.generators[1]
        obj, _ = run_dp(g2, prices=(1.7, 5.0, 6.0))
        assert obj == pytest.approx(0.0, abs=1e-9)

    def test_no_prices_shuts_down_immediately(self, demo):
        g2 = demo.generators[1]
        # without revenue the cheapest plan is off everywhere: the
        # pre-horizon run (2 periods >= L) may end at once, the shutdown
        # table charges nothing, and off periods are free
        obj, tables = run_dp(g2)
        sched = extract_schedule(g2, tables)
        assert obj == pytest.approx(0.0, abs=1e-12)
        assert sched.u == (0, 0, 0)
        assert check_schedule(g2, sched) == []

    def test_terminal_down_values_vanish(self):
        gen = _unit(T=4)
        _, tables = run_dp(gen, prices=(1.0, 1.0, 1.0, 1.0))
        for t, val in tables.v_down.items():
            if t >= gen.n_periods - gen.ell:
                assert val == 0.0

    def test_up_value_near_horizon_is_interval_cost(self):
        gen = _unit(T=4)
        _, tables = run_dp(gen, prices=(3.0, -1.0, 4.0, -2.0))
        T, L = gen.n_periods, gen.L
        for t, val in tables.v_up.items():
            if t > T - L:
                assert val == pytest.approx(tables.ed.cost(t, T), abs=1e-12)

    def test_price_length_checked(self, demo):
        with pytest.raises(ValueError):
            run_dp(demo.generators[0], prices=(1.0,))


class TestExtractSchedule:
    def test_net_cost_matches_objective(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            T = int(rng.integers(2, 7))
            gen = random_generator(rng, T, "u")
            pi = random_prices(rng, T)
            obj, tables = run_dp(gen, prices=pi)
            sched = extract_schedule(gen, tables)
            net = sched.cost - sum(p * xi for p, xi in zip(pi, sched.x))
            assert net == pytest.approx(obj, abs=1e-7)
            assert check_schedule(gen, sched) == []

    def test_profit_max_negates_dp(self, demo):
        g2 = demo.generators[1]
        pi = (10.0, 10.0, 10.0)
        value, sched = profit_max(g2, pi)
        obj, _ = run_dp(g2, prices=pi)
        assert value == pytest.approx(-obj, abs=1e-12)
        revenue = sum(p * xi for p, xi in zip(pi, sched.x))
        assert revenue - sched.cost == pytest.approx(value, abs=1e-9)


class TestCommitmentFeasible:
    def test_min_up_counts_pre_horizon_run(self, demo):
        g2 = demo.generators[1]  # L=2, on for 2 already
        assert commitment_feasible(g2, (0, 0, 1))
        # the pre-horizon run extends in-horizon runs: (1,0,0) is a run
        # of 3 >= L, so it is legal
        assert commitment_feasible(g2, (1, 0, 0))
        fresh = _unit(L=3, initial=InitialState(on_for=1))
        assert not commitment_feasible(fresh, (1, 0, 0))  # run of 2 < 3
        assert commitment_feasible(fresh, (1, 1, 0))      # run of 3

    def test_trailing_run_exempt(self, demo):
        g2 = demo.generators[1]
        assert commitment_feasible(g2, (0, 0, 1))  # run clipped at T

    def test_min_down_enforced(self):
        gen = _unit(ell=2, initial=InitialState(off_for=1))
        assert not commitment_feasible(gen, (1, 0, 0))  # off-run of 1 pre-horizon
        assert commitment_feasible(gen, (0, 1, 1))


class TestBruteForce:
    def test_guard_on_long_horizons(self):
        gen = _unit(T=13)
        with pytest.raises(EnumerationTooLarge):
            brute_force_uc(gen)

    def test_agrees_with_dp_on_random_instances(self):
        rng = np.random.default_rng(77)
        for trial in range(60):
            T = int(rng.integers(2, 8))
            gen = random_generator(rng, T, f"u{trial}")
            pi = random_prices(rng, T)
            dp_obj, _ = run_dp(gen, prices=pi)
            bf_obj, bf_sched = brute_force_uc(gen, prices=pi)
            assert dp_obj == pytest.approx(bf_obj, abs=1e-7), \
                f"trial {trial}: dp {dp_obj} vs brute force {bf_obj}"
            assert check_schedule(gen, bf_sched) == []
