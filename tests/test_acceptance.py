"""Acceptance gate: every shipped guarantee as one test.

Each test asserts the pinned tolerances and prints one summary line with
the measured values; the per-test PASSED/FAILED column of ``pytest -v``
is the verdict sheet.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from hullprice.bnb import MipProblem, solve_mip
from hullprice.cli import main
from hullprice.formulations import assemble_2bin, assemble_meuc, build_euc
from hullprice.lp import solve_lp, verify_duality
from hullprice.model import fold_prices
from hullprice.pricing import (
    compare,
    price,
    price_2bin_relaxation,
    price_chp,
    price_tlmp,
)
from hullprice.samples import (
    demo_instance,
    random_generator,
    random_instance,
    random_prices,
)
from hullprice.ucdp import brute_force_uc, run_dp

from conftest import enumeration_size, joint_enumeration_optimum

BUNDLED = Path(__file__).resolve().parents[1] / "instances" / \
    "demo_two_gen.json"


# ---------------------------------------------------------------------------
# shared fuzz corpora (module scope so two criteria share one run)


@pytest.fixture(scope="module")
def single_unit_corpus():
    """200 random single units with prices: interval LP, DP, brute force."""
    rng = np.random.default_rng(9001)
    records = []
    start = time.perf_counter()
    for i in range(200):
        T = int(rng.integers(2, 9))
        gen = random_generator(rng, T, f"u{i}")
        pi = random_prices(rng, T)
        lp, ev = build_euc(fold_prices(gen, pi))
        sol = solve_lp(lp)
        assert sol.status == "Optimal", f"unit {i}: LP {sol.status}"
        worst = max(abs(sol.primal[c] - round(sol.primal[c]))
                    for c in ev.integer_cols())
        dp_obj, _ = run_dp(gen, prices=pi)
        bf_obj, _ = brute_force_uc(gen, prices=pi)
        records.append({"lp": sol.objective, "dp": dp_obj, "bf": bf_obj,
                        "frac": worst})
    elapsed = time.perf_counter() - start
    return {"records": records, "elapsed": elapsed}


def test_criterion_1_demo_solve_objective_dispatch_and_runtime(capsys):
    t0 = time.perf_counter()
    rc = main(["solve", "--instance", str(BUNDLED), "--format", "csv"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert rc == 0
    header, _, table = out.partition("\n\n")
    z_qip = float(header.split(",")[1])
    x = {"g1": [0.0] * 3, "g2": [0.0] * 3}
    for line in table.splitlines()[1:]:
        gid, t, _, _, xv = line.split(",")
        x[gid][int(t) - 1] = float(xv)
    assert z_qip == pytest.approx(835.00, abs=1e-4)
    assert x["g1"] == pytest.approx([0.0, 35.0, 10.0], abs=1e-4)
    assert x["g2"] == pytest.approx([40.0, 45.0, 50.0], abs=1e-4)
    assert elapsed < 1.0, f"solve took {elapsed:.2f}s"
    print(f"criterion 1: z_qip={z_qip:.4f} dispatch g1=(0,35,10) "
          f"g2=(40,45,50) runtime={elapsed:.2f}s < 1s")


def test_criterion_2_demo_restricted_dispatch_prices_and_uplift():
    demo = demo_instance()
    prices, _ = price_tlmp(demo)
    assert prices == pytest.approx((1.0, 5.0, 6.0), abs=1e-4)
    rep = price(demo, "tlmp")
    assert rep.total_uplift == pytest.approx(35.00, abs=1e-3)
    print(f"criterion 2: tlmp prices=({prices[0]:.4f}, {prices[1]:.4f}, "
          f"{prices[2]:.4f}) uplift={rep.total_uplift:.3f}")


def test_criterion_3_demo_compact_relaxation_value_duals_and_uplift():
    demo = demo_instance()
    prices, relax = price_2bin_relaxation(demo)
    assert relax == pytest.approx(808.18, abs=0.01)
    assert prices == pytest.approx((3.45, 5.0, 5.0), abs=0.01)
    rep = price(demo, "2bin-lp")
    assert rep.total_uplift == pytest.approx(26.82, abs=0.01)
    print(f"criterion 3: 2bin lp={relax:.4f} duals=({prices[0]:.4f}, "
          f"{prices[1]:.4f}, {prices[2]:.4f}) "
          f"uplift={rep.total_uplift:.4f}")


def test_criterion_4_demo_hull_relaxation_uplift_and_gap_identity():
    demo = demo_instance()
    prices, relax = price_chp(demo)
    assert relax == pytest.approx(828.00, abs=1e-4)
    rep = price(demo, "chp")
    assert rep.total_uplift == pytest.approx(7.00, abs=1e-3)
    # total hull uplift must equal the integrality gap exactly
    assert rep.z_qip - relax == pytest.approx(rep.total_uplift, abs=1e-6)
    print(f"criterion 4: hull lp={relax:.4f} prices=({prices[0]:.4f}, "
          f"{prices[1]:.4f}, {prices[2]:.4f}) uplift={rep.total_uplift:.3f} "
          f"identity gap={rep.z_qip - relax:.3f}")


def test_criterion_5_interval_lp_integrality_on_fuzzed_units(
        single_unit_corpus):
    records = single_unit_corpus["records"]
    elapsed = single_unit_corpus["elapsed"]
    assert len(records) >= 200
    worst = max(r["frac"] for r in records)
    assert worst <= 1e-6, f"worst selection fraction {worst:.3e}"
    assert elapsed < 60.0, f"corpus took {elapsed:.1f}s"
    print(f"criterion 5: {len(records)} units, worst integrality "
          f"deviation {worst:.2e}, corpus time {elapsed:.1f}s < 60s")


def test_criterion_6_interval_lp_matches_dp_and_enumeration(
        single_unit_corpus):
    records = single_unit_corpus["records"]
    worst_lp_dp = max(abs(r["lp"] - r["dp"]) for r in records)
    worst_dp_bf = max(abs(r["dp"] - r["bf"]) for r in records)
    assert worst_lp_dp <= 1e-6, f"max |lp - dp| = {worst_lp_dp:.3e}"
    assert worst_dp_bf <= 1e-6, f"max |dp - brute| = {worst_dp_bf:.3e}"
    print(f"criterion 6: {len(records)} units, max |lp-dp| "
          f"{worst_lp_dp:.2e}, max |dp-brute| {worst_dp_bf:.2e}")


def test_criterion_7_hull_uplift_dominance_and_identity():
    rng = np.random.default_rng(2718)
    worst_margin = -math.inf
    worst_ident = 0.0
    trials = 50
    for trial in range(trials):
        inst = random_instance(rng, int(rng.integers(2, 5)),
                               int(rng.integers(2, 7)))
        cmp = compare(inst)
        margin = cmp.chp.total_uplift - cmp.tlmp.total_uplift
        ident = abs(cmp.chp.total_uplift -
                    (cmp.chp.z_qip - cmp.chp.relaxation_objective))
        worst_margin = max(worst_margin, margin)
        worst_ident = max(worst_ident, ident)
        assert margin <= 1e-6, \
            f"trial {trial}: hull uplift exceeds tlmp by {margin:.3e}"
        assert ident <= 1e-6, f"trial {trial}: identity error {ident:.3e}"
    print(f"criterion 7: {trials} systems, max(U_chp - U_tlmp) "
          f"{worst_margin:.2e}, max identity error {worst_ident:.2e}")


def test_criterion_8_duality_certificates_and_determinism():
    from conftest import random_feasible_lp
    rng = np.random.default_rng(31415)
    checked = 0
    attempts = 0
    worst = 0.0
    while checked < 500:
        attempts += 1
        assert attempts < 2000, "generator starved of feasible LPs"
        lp = random_feasible_lp(rng)
        sol = solve_lp(lp)
        if sol.status != "Optimal":
            continue
        report = verify_duality(lp, sol)
        assert report.ok, (attempts, report)
        residual = max(report.primal_residual, report.dual_residual,
                       report.complementarity, report.objective_gap)
        worst = max(worst, residual)
        assert residual <= 1e-6, f"lp {attempts}: residual {residual:.3e}"
        if checked % 25 == 0:
            again = solve_lp(lp)
            assert again.primal == sol.primal
            assert again.duals == sol.duals
            assert again.objective == sol.objective
        checked += 1
    print(f"criterion 8: {checked} optimal LPs of {attempts} sampled, "
          f"worst residual {worst:.2e}, repeat solves bit-identical")


def test_criterion_9_mip_matches_joint_commitment_enumeration():
    rng = np.random.default_rng(777)
    accepted = 0
    rejected = 0
    worst = 0.0
    while accepted < 50:
        inst = random_instance(rng, int(rng.integers(1, 4)),
                               int(rng.integers(2, 6)))
        if enumeration_size(inst) > 800:
            rejected += 1
            assert rejected < 400, "size guard rejecting everything"
            continue
        oracle = joint_enumeration_optimum(inst)
        meuc = assemble_meuc(inst)
        res = solve_mip(MipProblem(meuc.lp, meuc.integer_cols))
        assert res.status == "Optimal", accepted
        err = abs(res.objective - oracle)
        worst = max(worst, err)
        assert err <= 1e-6, \
            f"system {accepted}: mip {res.objective} vs oracle {oracle}"
        if accepted % 5 == 0:
            twob = assemble_2bin(inst)
            res2 = solve_mip(MipProblem(twob.lp, twob.integer_cols))
            assert res2.status == "Optimal"
            assert abs(res2.objective - oracle) <= 1e-6, accepted
        accepted += 1
    print(f"criterion 9: {accepted} systems (plus {rejected} size-guarded "
          f"redraws), max |mip - enumeration| {worst:.2e}")
