from fractions import Fraction

import numpy as np
import pytest

from hullprice.model import (
    CostPiece,
    DurationCostFn,
    GeneratorSpec,
    InitialState,
    ParseError,
    PeriodCost,
    Schedule,
    SystemInstance,
    ValidationError,
    check_schedule,
    dominated_piece_indices,
    evaluate_schedule_cost,
    fold_prices,
    gap_cost,
    instance_to_doc,
    load_instance,
    parse_instance,
    prune_dominated,
    run_cost,
    save_instance,
    starts_from_commitment,
    tangent_pieces,
    transition_costs,
    upper_envelope,
    validate,
)
from hullprice.samples import demo_instance, random_generator

from conftest import feasible_commitments, transition_cost


def _g2(demo):
    return demo.generators[1]


class TestDurationCostFn:
    def test_last_entry_extends(self):
        fn = DurationCostFn((10.0, 20.0, 30.0))
        assert fn.value(1) == 10.0
        assert fn.value(2) == 20.0
        assert fn.value(3) == 30.0
        assert fn.value(5) == 30.0

    def test_duration_below_one_rejected(self):
        fn = DurationCostFn((10.0,))
        with pytest.raises(ValueError):
            fn.value(0)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            DurationCostFn(())

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            DurationCostFn((1.0, -2.0))

    def test_monotonicity_probe(self):
        assert DurationCostFn((1.0, 1.0, 4.0)).is_nondecreasing()
        assert not DurationCostFn((5.0, 1.0)).is_nondecreasing()


class TestInitialState:
    def test_exactly_one_side(self):
        with pytest.raises(ValueError):
            InitialState()
        with pytest.raises(ValueError):
            InitialState(on_for=1, off_for=1)



def _runs_and_gaps(gen, u):
    """Closed on-runs [t, k] of u and the gaps (k, t) that end in a start
    at t after last-on period k. The run on before period 1 starts at
    t = 1 (it is [1, 0] if the unit is off at 1); a gap on before period 1
    has k = 0."""
    runs, gaps = [], []
    start, last_on = 1, 0
    prev = 1 if gen.initial.is_on else 0
    for s, cur in enumerate(u, start=1):
        if prev and not cur:
            runs.append((start, s - 1))
        if cur and not prev:
            gaps.append((last_on, s))
            start = s
        if cur:
            last_on = s
        prev = cur
    return runs, gaps


def _seeded_units():
    """Seeded random units at T = 1..8, initially on and off."""
    rng = np.random.default_rng(22)
    units = [random_generator(rng, 1 + trial % 8, f"u{trial}")
             for trial in range(64)]
    assert {gen.initial.is_on for gen in units} == {True, False}
    return units


class TestRunRules:
    """The run rules of ``model`` against every commitment a unit can
    follow: when it may first start or shut down, and what each closed
    run and each gap ending in a start costs."""

    def test_first_start_is_the_earliest_start(self):
        for gen in _seeded_units():
            T = gen.n_periods
            starts = [t for u in feasible_commitments(gen, T)
                      for _, t in _runs_and_gaps(gen, u)[1]]
            if starts:
                assert gen.first_start == min(starts), gen
            else:
                assert gen.first_start > T, gen

    def test_first_shut_is_the_earliest_shutdown(self):
        for gen in _seeded_units():
            T = gen.n_periods
            shuts = [k for u in feasible_commitments(gen, T)
                     for _, k in _runs_and_gaps(gen, u)[0]]
            if shuts:
                assert gen.first_shut == min(shuts), gen
            else:
                assert gen.first_shut >= T, gen

    def test_run_and_gap_costs_price_every_transition(self):
        checked = 0
        for gen in _seeded_units():
            T = gen.n_periods
            for u in feasible_commitments(gen, T):
                runs, gaps = _runs_and_gaps(gen, u)
                costs = [run_cost(gen, t, k) for t, k in runs] + \
                    [gap_cost(gen, k, t) for k, t in gaps]
                assert sorted(costs) == sorted(transition_costs(gen, u)), \
                    (gen, u)
                checked += 1
            assert run_cost(gen, T, T) == 0.0
        assert checked >= 1000


class TestGeneratorSpec:
    def test_start_ramp_below_minimum_output(self):
        with pytest.raises(ValueError, match="start ramp below minimum output"):
            GeneratorSpec(
                id="bad", L=1, ell=1, c_min=30.0, c_max=60.0, ramp=10.0,
                start_ramp=20.0,
                startup_cost=DurationCostFn((0.0,)),
                shutdown_cost=DurationCostFn((0.0,)),
                cost=(PeriodCost((CostPiece(1.0, 0.0),)),),
                initial=InitialState(on_for=1))

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSpec(
                id="bad", L=1, ell=1, c_min=10.0, c_max=5.0, ramp=1.0,
                start_ramp=10.0,
                startup_cost=DurationCostFn((0.0,)),
                shutdown_cost=DurationCostFn((0.0,)),
                cost=(PeriodCost((CostPiece(1.0, 0.0),)),),
                initial=InitialState(on_for=1))


class TestTangentPieces:
    def test_tangents_touch_and_underestimate(self):
        alpha, beta, c = 0.02, 3.0, 7.0
        lo, hi = 10.0, 90.0
        pieces = tangent_pieces(alpha, beta, c, lo, hi, 6)
        assert len(pieces) == 6
        f = lambda x: alpha * x * x + beta * x + c
        for k in range(101):
            x = lo + (hi - lo) * k / 100.0
            env = max(p.value(x) for p in pieces)
            assert env <= f(x) + 1e-9
        # at each tangent point the envelope is exact
        for i, p in enumerate(pieces):
            xh = lo + (i + 0.5) * (hi - lo) / 6.0
            assert p.value(xh) == pytest.approx(f(xh), abs=1e-9)

    def test_slopes_increase(self):
        pieces = tangent_pieces(0.5, 0.0, 0.0, 0.0, 10.0, 4)
        slopes = [p.a for p in pieces]
        assert slopes == sorted(slopes)


class TestDominatedPieces:
    def test_detects_strictly_lower_piece(self):
        pieces = (CostPiece(1.0, 0.0), CostPiece(1.0, -5.0), CostPiece(-1.0, 4.0))
        drop = dominated_piece_indices(pieces, 0.0, 10.0)
        assert drop == [1]

    def test_keeps_pieces_that_touch(self):
        # two crossing lines: both attain the envelope
        pieces = (CostPiece(1.0, 0.0), CostPiece(-1.0, 5.0))
        assert dominated_piece_indices(pieces, 0.0, 10.0) == []

    def test_envelope_of_demo_g2(self, demo):
        kinks, active = upper_envelope(_g2(demo).cost[0].pieces, 20.0, 100.0)
        assert kinks == [60.0]
        assert active == [0, 1]

    def test_last_of_identical_pieces_is_active(self):
        pieces = (CostPiece(2.0, 1.0), CostPiece(-1.0, 3.0),
                  CostPiece(2.0, 1.0), CostPiece(-1.0, 3.0))
        kinks, active = upper_envelope(pieces, 0.0, 10.0)
        assert active == [3, 2]
        assert dominated_piece_indices(pieces, 0.0, 10.0) == [0, 1]

    def test_point_interval_keeps_one_piece(self):
        # all three pieces are 5 at x = 5
        pieces = (CostPiece(1.0, 0.0), CostPiece(-1.0, 10.0), CostPiece(0.0, 5.0))
        assert upper_envelope(pieces, 5.0, 5.0) == ([], [2])
        assert dominated_piece_indices(pieces, 5.0, 5.0) == [0, 1]

    def test_flat_tangents_collapse_to_one_piece(self):
        pieces = tangent_pieces(0.0, 5.0, 20.0, 20.0, 100.0, 10)
        assert upper_envelope(pieces, 20.0, 100.0) == ([], [9])
        assert dominated_piece_indices(pieces, 20.0, 100.0) == list(range(9))

    def test_envelope_property_corpus(self):
        # values are exact in Fractions; on integer data the float kinks
        # order the same way as the exact ones
        rng = np.random.default_rng(8)

        def val(p, x):
            return Fraction(p.a) * Fraction(x) + Fraction(p.b)

        for trial in range(400):
            lo = float(rng.integers(0, 10))
            hi = lo + float(rng.integers(0, 10))
            if trial % 4 == 0:
                pieces = tangent_pieces(float(rng.integers(0, 3)) / 4, 1.0,
                                        0.0, lo, hi, int(rng.integers(1, 8)))
            else:
                pieces = tuple(CostPiece(float(a), float(b)) for a, b in
                               rng.integers(-4, 5, size=(rng.integers(1, 9), 2)))
            kinks, active = upper_envelope(pieces, lo, hi)
            assert len(active) == len(kinks) + 1
            assert kinks == sorted(kinks) and all(lo < k < hi for k in kinks)
            ends = [lo] + kinks + [hi]
            for j, i in enumerate(active):
                mid = (Fraction(ends[j]) + Fraction(ends[j + 1])) / 2
                assert val(pieces[i], mid) == max(val(p, mid) for p in pieces)
                assert all(val(pieces[i], mid) > val(pieces[o], mid)
                           for o in active if o != i), (trial, pieces)
            dropped = dominated_piece_indices(pieces, lo, hi)
            assert sorted(dropped + active) == list(range(len(pieces)))
            for d in dropped:
                for x in ends:
                    assert val(pieces[d], x) <= max(val(pieces[i], x)
                                                    for i in active)

    def test_prune_dominated_reports_warning(self, demo):
        g = _g2(demo)
        extra = PeriodCost(g.cost[0].pieces + (CostPiece(4.0, -100.0),))
        from dataclasses import replace
        g2 = replace(g, cost=(extra,) + g.cost[1:])
        pruned, warnings = prune_dominated(g2)
        assert len(warnings) == 1
        assert len(pruned.cost[0].pieces) == 2


class TestScheduleCosts:
    def test_starts_from_commitment(self, demo):
        g = _g2(demo)  # initially on
        assert starts_from_commitment(g, (1, 1, 1)) == (0, 0, 0)
        assert starts_from_commitment(g, (0, 0, 1)) == (0, 0, 1)
        off = GeneratorSpec(
            id="off", L=1, ell=1, c_min=0.0, c_max=10.0, ramp=10.0,
            start_ramp=10.0, startup_cost=DurationCostFn((5.0,)),
            shutdown_cost=DurationCostFn((0.0,)),
            cost=(PeriodCost((CostPiece(1.0, 0.0),)),) * 3,
            initial=InitialState(off_for=2))
        assert starts_from_commitment(off, (1, 0, 1)) == (1, 0, 1)

    def test_duration_dependent_charges(self):
        gen = GeneratorSpec(
            id="u", L=1, ell=1, c_min=1.0, c_max=4.0, ramp=4.0,
            start_ramp=4.0,
            startup_cost=DurationCostFn((7.0, 11.0)),
            shutdown_cost=DurationCostFn((3.0, 5.0, 9.0)),
            cost=(PeriodCost((CostPiece(2.0, 0.0),)),) * 5,
            initial=InitialState(on_for=2))
        # on, off, off, on, on: shutdown after a 3-long run (2 pre-horizon),
        # restart after 2 periods off, generation 2*(1+2+3)
        cost = evaluate_schedule_cost(gen, (1, 0, 0, 1, 1), (1.0, 0, 0, 2.0, 3.0))
        assert cost == pytest.approx(2.0 * 6 + 9.0 + 11.0)

    def test_run_reaching_horizon_pays_no_shutdown(self):
        gen = GeneratorSpec(
            id="u", L=1, ell=1, c_min=0.0, c_max=4.0, ramp=4.0,
            start_ramp=4.0,
            startup_cost=DurationCostFn((0.0,)),
            shutdown_cost=DurationCostFn((100.0,)),
            cost=(PeriodCost((CostPiece(0.0, 0.0),)),) * 2,
            initial=InitialState(on_for=1))
        assert evaluate_schedule_cost(gen, (1, 1), (1.0, 1.0)) == 0.0
        assert evaluate_schedule_cost(gen, (0, 0), (0.0, 0.0)) == 100.0


    def test_closed_run_costs_match_transition_oracle(self):
        rng = np.random.default_rng(41)
        checked = 0
        for trial in range(40):
            T = 1 + trial % 6
            gen = random_generator(rng, T, f"u{trial}")
            for u in feasible_commitments(gen, T):
                assert sum(transition_costs(gen, u), 0.0) == \
                    transition_cost(gen, u), (trial, u)
                checked += 1
        assert checked >= 300


def test_schedule_is_a_slotted_value():
    # a best response is kept per dual evaluation: no per-object __dict__
    a = Schedule(u=(1, 0), v=(0, 0), x=(40.0, 0.0), cost=12.5)
    b = Schedule(u=(1, 0), v=(0, 0), x=(40.0, 0.0), cost=12.5)
    assert not hasattr(a, "__dict__")
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != Schedule(u=(1, 0), v=(0, 0), x=(40.0, 0.0), cost=13.0)


class TestCheckSchedule:
    def test_clean_schedule(self, demo):
        g = _g2(demo)
        s = Schedule(u=(1, 1, 1), v=(0, 0, 0), x=(40.0, 45.0, 50.0),
                     cost=evaluate_schedule_cost(g, (1, 1, 1), (40.0, 45.0, 50.0)))
        assert check_schedule(g, s) == []

    def test_ramp_violation_detected(self, demo):
        g = _g2(demo)  # ramp 5
        s = Schedule(u=(1, 1, 1), v=(0, 0, 0), x=(40.0, 60.0, 60.0), cost=0.0)
        problems = check_schedule(g, s)
        assert any("ramp violation into period 2" in p for p in problems)

    def test_min_up_violation_detected(self, demo):
        g = _g2(demo)  # L = 2, on_for = 2 pre-horizon
        s = Schedule(u=(0, 0, 1), v=(0, 0, 1), x=(0.0, 0.0, 20.0), cost=0.0)
        # off-run of 2 is fine (ell = 2); trailing run is unconstrained
        assert check_schedule(g, s) == []
        s2 = Schedule(u=(0, 1, 0), v=(0, 1, 0), x=(0.0, 20.0, 0.0), cost=0.0)
        problems = check_schedule(g, s2)
        assert any("minimum up time" in p for p in problems)
        assert any("minimum down time" in p for p in problems)

    def test_output_while_off_detected(self, demo):
        g = _g2(demo)
        s = Schedule(u=(1, 1, 0), v=(0, 0, 0), x=(40.0, 45.0, 3.0), cost=0.0)
        problems = check_schedule(g, s)
        assert any("positive output while off" in p for p in problems)


class TestFoldPrices:
    def test_slopes_shift_by_price(self, demo):
        g = _g2(demo)
        folded = fold_prices(g, (1.0, 5.0, 6.0))
        for t, (pc, fpc) in enumerate(zip(g.cost, folded.cost)):
            for p, fp in zip(pc.pieces, fpc.pieces):
                assert fp.a == pytest.approx(p.a - (1.0, 5.0, 6.0)[t])
                assert fp.b == p.b

    def test_length_mismatch_rejected(self, demo):
        with pytest.raises(ValueError):
            fold_prices(_g2(demo), (1.0, 2.0))


class TestValidate:
    def test_demo_is_clean(self, demo):
        assert [d for d in validate(demo) if d.severity == "error"] == []

    def test_duplicate_ids_flagged(self, demo):
        bad = SystemInstance(T=3, demand=demo.demand,
                             generators=(demo.generators[0],) * 2)
        diags = validate(bad)
        assert any(d.severity == "error" and "duplicate" in d.message
                   for d in diags)

    def test_capacity_shortfall_warned(self, demo):
        bad = SystemInstance(T=3, demand=(500.0, 80.0, 60.0),
                             generators=demo.generators)
        diags = validate(bad)
        assert any(d.severity == "warning" and "capacity" in d.message
                   for d in diags)

    def test_negative_demand_is_error(self, demo):
        bad = SystemInstance(T=3, demand=(40.0, -1.0, 60.0),
                             generators=demo.generators)
        diags = validate(bad)
        assert any(d.severity == "error" and d.where == "demand[1]"
                   for d in diags)

    def test_decreasing_startup_table_warned(self, demo):
        from dataclasses import replace
        g = replace(_g2(demo), startup_cost=DurationCostFn((100.0, 40.0)))
        inst = SystemInstance(T=3, demand=demo.demand,
                              generators=(demo.generators[0], g))
        diags = validate(inst)
        assert any(d.severity == "warning" and "startup_cost" in d.where
                   for d in diags)


class TestJsonIO:
    def test_round_trip(self, demo, tmp_path):
        path = tmp_path / "inst.json"
        save_instance(demo, path)
        back = load_instance(path)
        assert back == demo

    def test_bundled_instance_matches_sample(self):
        from pathlib import Path
        bundled = Path(__file__).resolve().parents[1] / "instances" / \
            "demo_two_gen.json"
        assert load_instance(bundled) == demo_instance()

    def test_unknown_field_named_in_error(self, demo, tmp_path):
        doc = instance_to_doc(demo)
        doc["generators"][0]["fuel"] = "coal"
        with pytest.raises(ParseError, match="fuel"):
            parse_instance(doc)

    def test_missing_field_named_in_error(self, demo):
        doc = instance_to_doc(demo)
        del doc["generators"][1]["ramp"]
        with pytest.raises(ParseError, match="ramp"):
            parse_instance(doc)

    def test_malformed_json_is_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            load_instance(path)

    def test_value_errors_are_collected(self, demo):
        doc = instance_to_doc(demo)
        doc["generators"][0]["ramp"] = -3.0
        doc["generators"][1]["start_ramp"] = 5.0  # below c_min = 20
        with pytest.raises(ValidationError) as exc:
            parse_instance(doc)
        text = str(exc.value)
        assert "generators[0].ramp" in text
        assert "generators[1].start_ramp" in text

    def test_quadratic_cost_expands_to_tangents(self, demo):
        doc = instance_to_doc(demo)
        doc["generators"][1]["cost"] = {
            "quadratic": {"alpha": 0.01, "beta": 4.0, "c": 50.0}}
        inst = parse_instance(doc, quad_pieces=7)
        pcs = inst.generators[1].cost
        assert len(pcs) == 3
        assert all(len(pc.pieces) == 7 for pc in pcs)
        # expansion matches the helper called directly
        direct = tangent_pieces(0.01, 4.0, 50.0, 20.0, 100.0, 7)
        assert pcs[0].pieces == direct

    def test_demand_length_mismatch(self, demo):
        doc = instance_to_doc(demo)
        doc["demand"] = doc["demand"][:2]
        with pytest.raises(ValidationError, match="expected T=3"):
            parse_instance(doc)
