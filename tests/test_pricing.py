import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from hullprice import pricing
from hullprice.formulations import assemble_2bin
from hullprice.pricing import (
    SolveFailure,
    compare,
    lagrangian_value,
    price,
    price_chp,
    price_tlmp,
    price_2bin_relaxation,
    prices_csv,
    solve_commitment,
    summary_csv,
    uplift_csv,
)
from hullprice.samples import random_instance, random_prices


class TestCommitment:
    def test_demo_optimum_and_dispatch(self, demo):
        res = solve_commitment(demo)
        assert res.objective == pytest.approx(835.0, abs=1e-6)
        assert res.schedules["g1"].x == pytest.approx((0.0, 35.0, 10.0),
                                                      abs=1e-6)
        assert res.schedules["g2"].x == pytest.approx((40.0, 45.0, 50.0),
                                                      abs=1e-6)
        # g1 has c_min = 0 and free transitions, so "on at zero output"
        # ties with "off" in period 1; only the dispatch is pinned
        assert res.schedules["g2"].u == (1, 1, 1)


class TestHullPrices:
    def test_demo_values(self, demo):
        prices, relax = price_chp(demo)
        assert relax == pytest.approx(828.0, abs=1e-6)
        assert prices == pytest.approx((1.7, 5.0, 6.0), abs=1e-6)

    def test_demo_uplift_and_identity(self, demo):
        rep = price(demo, "chp")
        assert rep.total_uplift == pytest.approx(7.0, abs=1e-6)
        assert rep.z_qip - rep.relaxation_objective == pytest.approx(
            rep.total_uplift, abs=1e-6)

    def test_lagrangian_attains_relaxation_at_hull_prices(self, demo):
        prices, relax = price_chp(demo)
        assert lagrangian_value(demo, prices) == pytest.approx(relax,
                                                               abs=1e-6)

    def test_lagrangian_weak_duality_at_random_prices(self, demo):
        rng = np.random.default_rng(13)
        _, relax = price_chp(demo)
        for _ in range(20):
            pi = random_prices(rng, demo.T)
            assert lagrangian_value(demo, pi) <= relax + 1e-7


class TestTlmp:
    def test_demo_values(self, demo):
        prices, commitment = price_tlmp(demo)
        assert prices == pytest.approx((1.0, 5.0, 6.0), abs=1e-6)
        assert commitment.objective == pytest.approx(835.0, abs=1e-6)

    def test_demo_uplift(self, demo):
        rep = price(demo, "tlmp")
        assert rep.total_uplift == pytest.approx(35.0, abs=1e-6)
        # all of it is the slow unit's lost money
        by_gen = {r.generator: r for r in rep.rows}
        assert by_gen["g2"].uplift == pytest.approx(35.0, abs=1e-6)
        assert by_gen["g1"].uplift == pytest.approx(0.0, abs=1e-6)


class TestTwoBinRelaxationPricing:
    def test_demo_values(self, demo):
        prices, relax = price_2bin_relaxation(demo)
        assert relax == pytest.approx(float(Fraction(8890, 11)), abs=1e-6)
        assert prices == pytest.approx(
            (float(Fraction(38, 11)), 5.0, 5.0), abs=1e-6)

    def test_demo_uplift_under_relaxation_duals(self, demo):
        rep = price(demo, "2bin-lp")
        assert rep.total_uplift == pytest.approx(float(Fraction(295, 11)),
                                                 abs=1e-6)

    def test_uncertified_duals_are_refused(self, demo, monkeypatch):
        row = assemble_2bin(demo).load_balance_rows[1]
        solve = pricing.solve_lp

        def perturbed(lp, *args, **kwargs):
            sol = solve(lp, *args, **kwargs)
            duals = list(sol.duals)
            duals[row] += 1.0
            return dataclasses.replace(sol, duals=tuple(duals))

        monkeypatch.setattr(pricing, "solve_lp", perturbed)
        with pytest.raises(SolveFailure, match="duality check"):
            price_2bin_relaxation(demo)


class TestCompare:
    def test_demo_gap(self, demo):
        cmp = compare(demo)
        assert cmp.tlmp.total_uplift == pytest.approx(35.0, abs=1e-6)
        assert cmp.chp.total_uplift == pytest.approx(7.0, abs=1e-6)
        assert cmp.gap_tm == pytest.approx(0.8, abs=1e-6)

    def test_uplift_rows_never_negative(self, demo):
        for method in ("chp", "tlmp", "2bin-lp"):
            rep = price(demo, method)
            for row in rep.rows:
                # the self-scheduled optimum is at least as good as the
                # awarded schedule, so uplift cannot be negative
                assert row.uplift >= -1e-9, (method, row)

    def test_random_systems_order_and_identity(self):
        rng = np.random.default_rng(23)
        for trial in range(8):
            inst = random_instance(rng, int(rng.integers(2, 4)),
                                   int(rng.integers(2, 5)))
            cmp = compare(inst)
            # read off the B&B root, bit for bit the LP price_chp solves
            lp_prices, lp_value = price_chp(inst)
            assert cmp.chp.prices == lp_prices, trial
            assert cmp.chp.relaxation_objective == lp_value, trial
            assert cmp.chp.total_uplift <= cmp.tlmp.total_uplift + 1e-6, trial
            identity = cmp.chp.z_qip - cmp.chp.relaxation_objective
            assert cmp.chp.total_uplift == pytest.approx(identity,
                                                         abs=1e-6), trial

    def test_unknown_method_rejected(self, demo, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking the method")
        monkeypatch.setattr(pricing, "solve_commitment", no_solve)
        with pytest.raises(ValueError, match="unknown pricing method"):
            price(demo, "vcg")


class TestCsvRendering:
    def test_prices_csv_golden(self, demo):
        rep = price(demo, "tlmp")
        text = prices_csv([rep])
        assert text == ("method,period,price\n"
                        "tlmp,1,1\n"
                        "tlmp,2,5\n"
                        "tlmp,3,6\n")

    def test_uplift_csv_golden(self, demo):
        rep = price(demo, "tlmp")
        lines = uplift_csv([rep]).splitlines()
        assert lines[0] == "method,generator,best_profit,iso_profit,uplift"
        assert lines[2].startswith("tlmp,g2,0,-35,35")

    def test_summary_csv_gap_only_on_tlmp_row(self, demo):
        cmp = compare(demo)
        text = summary_csv([cmp.tlmp, cmp.chp], gap_tm=cmp.gap_tm)
        lines = text.splitlines()
        assert lines[1] == "tlmp,35,835,835,0.8"
        assert lines[2] == "chp,7,835,828,"

    def test_rendering_is_deterministic(self, demo):
        a = prices_csv([price(demo, "chp")])
        b = prices_csv([price(demo, "chp")])
        assert a == b
