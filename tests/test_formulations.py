import hashlib
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from hullprice.bnb import MipProblem, solve_mip
from hullprice.formulations import (
    FractionalSolution,
    assemble_2bin,
    assemble_meuc,
    build_2bin,
    build_euc,
    enumerate_index_sets,
    map_to_schedule,
    meuc_row_count,
)
from hullprice.lp import solve_lp, verify_duality, with_bounds
from hullprice.model import (
    CostPiece,
    DurationCostFn,
    GeneratorSpec,
    InitialState,
    PeriodCost,
    check_schedule,
    fold_prices,
    starts_from_commitment,
)
from hullprice.samples import (demo_instance, random_generator,
                               random_instance, random_prices)
from hullprice.ucdp import IntervalCostCache, run_dp

from conftest import feasible_commitments, transition_cost


def _unit(T=3, **kw):
    base = dict(id="u", L=1, ell=1, c_min=0.0, c_max=10.0, ramp=10.0,
                start_ramp=10.0,
                startup_cost=DurationCostFn((0.0,)),
                shutdown_cost=DurationCostFn((0.0,)),
                cost=(PeriodCost((CostPiece(2.0, 0.0),)),) * T,
                initial=InitialState(on_for=1))
    base.update(kw)
    return GeneratorSpec(**base)


class TestIndexSets:
    def test_demo_slow_unit(self, demo):
        sets = enumerate_index_sets(demo.generators[1])
        assert sets.tk1 == ((1, 1), (1, 2), (1, 3))
        assert sets.tk2 == ((3, 3),)
        assert sets.kt == ((0, 3),)

    def test_demo_fast_unit(self, demo):
        sets = enumerate_index_sets(demo.generators[0])
        assert sets.tk1 == ((1, 1), (1, 2), (1, 3))
        assert sets.tk2 == ((2, 2), (2, 3), (3, 3))
        assert sets.kt == ((0, 2), (0, 3), (1, 3))

    def test_single_period_horizon(self):
        sets = enumerate_index_sets(_unit(T=1, cost=(
            PeriodCost((CostPiece(2.0, 0.0),)),)))
        assert sets.tk1 == ((1, 1),)
        assert sets.tk2 == ()
        assert sets.kt == ()

    def test_initially_off_unit(self):
        gen = _unit(T=4, L=2, ell=2, initial=InitialState(off_for=1),
                    cost=(PeriodCost((CostPiece(2.0, 0.0),)),) * 4)
        sets = enumerate_index_sets(gen)
        assert sets.tk1 == ()
        # first possible start is period 2 (one more period of rest needed)
        assert sets.tk2 == ((2, 3), (2, 4), (3, 4), (4, 4))
        assert sets.kt == ()

    def test_forced_on_window_shrinks_first_run_choices(self):
        gen = _unit(T=4, L=3, initial=InitialState(on_for=1),
                    cost=(PeriodCost((CostPiece(2.0, 0.0),)),) * 4)
        # must stay on through period 2, so the first shutdown node is 2
        sets = enumerate_index_sets(gen)
        assert sets.tk1 == ((1, 2), (1, 3), (1, 4))


class TestEucBlock:
    def test_demo_slow_unit_column_counts(self, demo):
        lp, ev = build_euc(demo.generators[1])
        assert len(ev.w) == 4          # shutdown nodes 0..3
        assert len(ev.y) == 1
        assert len(ev.z) == 1
        assert len(ev.theta) == 3
        assert len(ev.q) == len(ev.phi) == 7
        assert ev.w_none is None

    def test_lp_value_matches_dp_at_several_prices(self, demo):
        for gen in demo.generators:
            for pi in [(0.0, 0.0, 0.0), (1.7, 5.0, 6.0), (9.0, -2.0, 3.0)]:
                lp, _ = build_euc(fold_prices(gen, pi))
                sol = solve_lp(lp)
                dp_obj, _ = run_dp(gen, prices=pi)
                assert sol.status == "Optimal"
                assert sol.objective == pytest.approx(dp_obj, abs=1e-8), \
                    (gen.id, pi)

    def test_never_start_choice_is_free(self):
        gen = _unit(T=3, initial=InitialState(off_for=1))
        lp, ev = build_euc(gen)
        sol = solve_lp(lp)
        assert sol.objective == pytest.approx(0.0, abs=1e-12)
        assert sol.primal[ev.w_none] == pytest.approx(1.0, abs=1e-9)

    def test_vertices_are_integral_on_random_blocks(self):
        rng = np.random.default_rng(31)
        for trial in range(40):
            T = int(rng.integers(2, 7))
            gen = random_generator(rng, T, f"u{trial}")
            pi = random_prices(rng, T)
            folded = fold_prices(gen, pi)
            lp, ev = build_euc(folded)
            sol = solve_lp(lp)
            assert sol.status == "Optimal"
            for col in ev.integer_cols():
                frac = abs(sol.primal[col] - round(sol.primal[col]))
                assert frac <= 1e-6, (trial, lp.var_label(col))
            sched = map_to_schedule(gen, ev, sol.primal)
            assert check_schedule(gen, sched) == []
            net = sched.cost - sum(p * xi for p, xi in zip(pi, sched.x))
            assert net == pytest.approx(sol.objective, abs=1e-7)


class TestMapToSchedule:
    def test_fractional_point_rejected(self, demo):
        model = assemble_meuc(demo)
        sol = solve_lp(model.lp)
        # the system LP vertex mixes two first-run choices of g1
        with pytest.raises(FractionalSolution):
            for gen in demo.generators:
                map_to_schedule(gen, model.blocks[gen.id], sol.primal)

    def test_integral_point_round_trips(self, demo):
        g2 = demo.generators[1]
        lp, ev = build_euc(fold_prices(g2, (10.0, 10.0, 10.0)))
        sol = solve_lp(lp)
        sched = map_to_schedule(g2, ev, sol.primal)
        assert sched.u == (1, 1, 1)
        assert sched.v == (0, 0, 0)


class TestMeucSystem:
    def test_demo_relaxation_value_and_prices(self, demo):
        model = assemble_meuc(demo)
        sol = solve_lp(model.lp)
        assert sol.status == "Optimal"
        assert sol.objective == pytest.approx(828.0, abs=1e-6)
        prices = [sol.duals[i] for i in model.load_balance_rows]
        assert prices == pytest.approx([1.7, 5.0, 6.0], abs=1e-6)
        assert verify_duality(model.lp, sol).ok

    def test_demo_fractional_vertex_structure(self, demo):
        # the relaxation splits the slow unit's first run between "shut
        # at once" (weight 0.2) and "stay on all horizon" (weight 0.8),
        # the signature of a non-integral system vertex
        model = assemble_meuc(demo)
        sol = solve_lp(model.lp)
        w = model.blocks["g2"].w
        vals = {t: sol.primal[c] for t, c in w.items()}
        assert vals[0] == pytest.approx(0.2, abs=1e-6)
        assert vals[3] == pytest.approx(0.8, abs=1e-6)

    def test_demo_integer_optimum(self, demo):
        model = assemble_meuc(demo)
        res = solve_mip(MipProblem(model.lp, model.integer_cols))
        assert res.status == "Optimal"
        assert res.objective == pytest.approx(835.0, abs=1e-6)
        scheds = {gen.id: map_to_schedule(gen, model.blocks[gen.id],
                                          res.primal)
                  for gen in demo.generators}
        assert scheds["g1"].x == pytest.approx((0.0, 35.0, 10.0), abs=1e-6)
        assert scheds["g2"].x == pytest.approx((40.0, 45.0, 50.0), abs=1e-6)


class TestTwoBin:
    def test_demo_relaxation_is_weaker_than_meuc(self, demo):
        model = assemble_2bin(demo)
        sol = solve_lp(model.lp)
        assert sol.status == "Optimal"
        assert sol.objective == pytest.approx(float(Fraction(8890, 11)),
                                              abs=1e-6)
        prices = [sol.duals[i] for i in model.load_balance_rows]
        assert prices == pytest.approx(
            [float(Fraction(38, 11)), 5.0, 5.0], abs=1e-6)

    def test_demo_integer_optimum_agrees_across_encodings(self, demo):
        model = assemble_2bin(demo)
        res = solve_mip(MipProblem(model.lp, model.integer_cols))
        assert res.status == "Optimal"
        assert res.objective == pytest.approx(835.0, abs=1e-6)

    def test_fixed_commitment_reproduces_run_costs(self):
        rng = np.random.default_rng(47)
        checked = 0
        for trial in range(12):
            T = int(rng.integers(2, 6))
            gen = random_generator(rng, T, f"u{trial}")
            lp, tv = build_2bin(gen)
            cache = IntervalCostCache(gen)
            for u in feasible_commitments(gen, T):
                v = starts_from_commitment(gen, u)
                fixes = {}
                for t in range(1, T + 1):
                    fixes[tv.u[t]] = (float(u[t - 1]), float(u[t - 1]))
                    fixes[tv.v[t]] = (float(v[t - 1]), float(v[t - 1]))
                sol = solve_lp(with_bounds(lp, fixes))
                assert sol.status == "Optimal", (trial, u)
                runs, start = [], None
                for t, on in enumerate(u, start=1):
                    if on and start is None:
                        start = t
                    if not on and start is not None:
                        runs.append((start, t - 1))
                        start = None
                if start is not None:
                    runs.append((start, T))
                want = transition_cost(gen, u) + sum(
                    cache.cost(a, b) for a, b in runs)
                assert sol.objective == pytest.approx(want, abs=1e-7), \
                    (trial, u)
                checked += 1
        assert checked >= 40

    def test_single_unit_mip_matches_interval_lp(self):
        rng = np.random.default_rng(53)
        for trial in range(15):
            T = int(rng.integers(2, 6))
            gen = random_generator(rng, T, f"u{trial}")
            pi = random_prices(rng, T)
            folded = fold_prices(gen, pi)
            euc_lp, _ = build_euc(folded)
            euc = solve_lp(euc_lp)
            two_lp, tv = build_2bin(folded)
            two = solve_mip(MipProblem(two_lp, tv.integer_cols()))
            assert two.status == "Optimal"
            assert euc.objective == pytest.approx(two.objective, abs=1e-7), \
                trial

    def test_relaxation_never_exceeds_integer_value(self):
        rng = np.random.default_rng(59)
        for trial in range(15):
            T = int(rng.integers(2, 6))
            gen = random_generator(rng, T, f"u{trial}")
            folded = fold_prices(gen, random_prices(rng, T))
            lp, tv = build_2bin(folded)
            relax = solve_lp(lp)
            exact = solve_mip(MipProblem(lp, tv.integer_cols()))
            assert relax.objective <= exact.objective + 1e-7


def test_meuc_row_count_matches_assembly(demo):
    assert meuc_row_count(demo) == assemble_meuc(demo).lp.n_rows == 95
    rng = np.random.default_rng(17)
    starts = Counter()
    for _ in range(80):
        inst = random_instance(rng, int(rng.integers(1, 4)),
                               int(rng.integers(1, 7)))
        assert meuc_row_count(inst) == assemble_meuc(inst).lp.n_rows
        starts.update(g.initial.is_on for g in inst.generators)
    # both initial states, each with its own flow and start rows
    assert starts[True] >= 40 and starts[False] >= 40


def _lp_digest(assemble):
    """sha256 over the demo and 20 fixed-seed systems of everything an
    assembled system model hands its solvers."""
    systems = [demo_instance()] + [
        random_instance(np.random.default_rng(seed), 1 + seed % 3,
                        1 + seed % 6) for seed in range(20)]
    h = hashlib.sha256()
    for inst in systems:
        model = assemble(inst)
        lp = model.lp
        h.update(repr((lp.rows, lp.objective, lp.var_lo, lp.var_hi,
                       lp.row_labels, lp.var_labels, model.load_balance_rows,
                       model.integer_cols)).encode())
    return h.hexdigest()


def test_assembled_lps_are_pinned():
    # both encodings must keep every row, bound, cost, label and column
    # order of the digests pinned here
    assert _lp_digest(assemble_meuc) == \
        "7b5c3ea8d3bb3eb4c40f4f8981d39cb63ab7544f1465528922017690d059a890"
    assert _lp_digest(assemble_2bin) == \
        "5314e2f4dd08228c1e259725b0158e8dc67327eec9a9d8a0c7671df746517336"
