import math
import re

import numpy as np
import pytest
from scipy.optimize import linprog

from hullprice.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LpBuilder,
    NumericalFailure,
    dump_lp,
    solve_lp,
    verify_duality,
    with_bounds,
)
from hullprice.simplex import MAX_ROWS


def _lp(objective, rows, lo, hi):
    return LinearProgram(n_vars=len(objective), objective=tuple(objective),
                         rows=tuple(rows), var_lo=tuple(lo), var_hi=tuple(hi))


class TestKernelExamples:
    def test_single_lower_bounded_row(self):
        # min x  s.t.  x >= 3
        lp = _lp([1.0], [(((0, 1.0),), ">=", 3.0)], [-math.inf], [math.inf])
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(3.0, abs=1e-9)
        assert sol.primal[0] == pytest.approx(3.0, abs=1e-9)
        assert sol.duals[0] == pytest.approx(1.0, abs=1e-9)
        assert verify_duality(lp, sol).ok

    def test_upper_bounded_row_dual_is_negative(self):
        # min -x  s.t.  x <= 5
        lp = _lp([-1.0], [(((0, 1.0),), "<=", 5.0)], [0.0], [math.inf])
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(-5.0, abs=1e-9)
        assert sol.duals[0] == pytest.approx(-1.0, abs=1e-9)
        assert verify_duality(lp, sol).ok

    def test_infeasible_detected(self):
        lp = _lp([1.0], [(((0, 1.0),), ">=", 3.0), (((0, 1.0),), "<=", 1.0)],
                 [-math.inf], [math.inf])
        assert solve_lp(lp).status == INFEASIBLE

    def test_unbounded_detected(self):
        lp = _lp([-1.0], [], [0.0], [math.inf])
        assert solve_lp(lp).status == UNBOUNDED

    def test_unbounded_with_rows(self):
        # min -x - y  s.t.  x - y <= 1,  x, y >= 0
        lp = _lp([-1.0, -1.0], [(((0, 1.0), (1, -1.0)), "<=", 1.0)],
                 [0.0, 0.0], [math.inf, math.inf])
        assert solve_lp(lp).status == UNBOUNDED

    def test_crossed_bounds_infeasible_without_pivots(self):
        lp = _lp([1.0], [(((0, 1.0),), ">=", 0.0)], [2.0], [1.0])
        sol = solve_lp(lp)
        assert sol.status == INFEASIBLE
        assert sol.iterations == 0

    def test_iteration_cap_raises(self):
        # min x  s.t.  x >= 3 needs one pivot from the slack basis
        lp = _lp([1.0], [(((0, 1.0),), ">=", 3.0)], [-math.inf], [math.inf])
        with pytest.raises(NumericalFailure, match="iteration cap 0"):
            solve_lp(lp, maxiter=0)

    def test_row_limit_raises(self):
        # one row past the limit would need a ~1.6 GB dense basis inverse
        m = MAX_ROWS + 1
        lp = _lp([1.0], [(((0, 1.0),), "<=", 1.0)] * m, [0.0], [1.0])
        with pytest.raises(NumericalFailure, match=f"{m} rows"):
            solve_lp(lp)

    def test_warm_start_with_basic_slack(self):
        # min x + y  s.t.  x + y >= 1,  x <= 5 (never binding),  x, y >= 0
        rows = [(((0, 1.0), (1, 1.0)), ">=", 1.0), (((0, 1.0),), "<=", 5.0)]
        lp = _lp([1.0, 1.0], rows, [0.0, 0.0], [math.inf, math.inf])
        cold = solve_lp(lp)
        assert cold.status == OPTIMAL
        assert lp.n_vars + 1 in cold.basis[0]  # slack of the second row
        warm = solve_lp(lp, basis=cold.basis)
        assert warm.status == OPTIMAL
        assert warm.objective == cold.objective
        assert warm.iterations == 0
        assert verify_duality(lp, warm).ok

    def test_bounds_only_program(self):
        # min x  s.t.  1 <= x <= 3, no rows
        lp = _lp([1.0], [], [1.0], [3.0])
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(1.0, abs=1e-12)
        assert sol.primal == (1.0,)
        assert sol.duals == ()
        assert verify_duality(lp, sol).ok

    def test_equalities_with_free_variables(self):
        # min x + y  s.t.  x + y = 4,  x - y = 0
        rows = [(((0, 1.0), (1, 1.0)), "=", 4.0),
                (((0, 1.0), (1, -1.0)), "=", 0.0)]
        lp = _lp([1.0, 1.0], rows, [-math.inf] * 2, [math.inf] * 2)
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.primal == pytest.approx((2.0, 2.0), abs=1e-9)
        assert sol.duals == pytest.approx((1.0, 0.0), abs=1e-9)
        assert verify_duality(lp, sol).ok

    def test_row_scaling_halves_the_dual(self):
        lp1 = _lp([1.0], [(((0, 1.0),), ">=", 3.0)], [-math.inf], [math.inf])
        lp2 = _lp([1.0], [(((0, 2.0),), ">=", 6.0)], [-math.inf], [math.inf])
        s1, s2 = solve_lp(lp1), solve_lp(lp2)
        assert s1.objective == pytest.approx(s2.objective, abs=1e-9)
        assert s2.duals[0] == pytest.approx(0.5 * s1.duals[0], abs=1e-9)


class TestVerifyDuality:
    def test_corrupted_duals_rejected(self):
        lp = _lp([1.0, 2.0],
                 [(((0, 1.0), (1, 1.0)), ">=", 3.0)],
                 [0.0, 0.0], [math.inf, math.inf])
        sol = solve_lp(lp)
        assert verify_duality(lp, sol).ok
        from dataclasses import replace
        bad = replace(sol, duals=(sol.duals[0] + 0.5,))
        assert not verify_duality(lp, bad).ok

    def test_corrupted_primal_rejected(self):
        lp = _lp([1.0], [(((0, 1.0),), ">=", 3.0)], [0.0], [math.inf])
        sol = solve_lp(lp)
        from dataclasses import replace
        bad = replace(sol, primal=(2.0,))
        assert not verify_duality(lp, bad).ok

    def test_non_optimal_input_rejected(self):
        lp = _lp([1.0], [(((0, 1.0),), ">=", 3.0), (((0, 1.0),), "<=", 1.0)],
                 [-math.inf], [math.inf])
        with pytest.raises(ValueError):
            verify_duality(lp, solve_lp(lp))


_ROW = (((0, 1.0),), "<=", 1.0)


@pytest.mark.parametrize("kwargs, message", [
    ({"rows": ((((0, 1.0),), "<>", 1.0),)}, "unknown row sense '<>'"),
    ({"rows": ((((0, 1.0),), ">=", math.inf),)}, "row rhs must be finite"),
    ({"rows": ((((0, math.nan),), "=", 1.0),)},
     "row coefficient must be finite"),
    ({"rows": ((((1, 1.0),), "<=", 1.0),)}, "variable index 1 out of range"),
    ({"rows": ((((-1, 1.0),), "<=", 1.0),)},
     "variable index -1 out of range"),
    ({"rows": (_ROW,), "var_lo": (0.0, 0.0)},
     "bound vectors must have n_vars entries"),
    ({"rows": (_ROW,), "row_labels": ("a", "b")},
     "row_labels length mismatch"),
    ({"rows": (_ROW,), "var_labels": ("x", "y")},
     "var_labels length mismatch"),
], ids=["sense", "rhs", "coefficient", "index-n", "index-negative",
        "var_lo", "row_labels", "var_labels"])
def test_invalid_program_rejected(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        LinearProgram(n_vars=1, objective=(1.0,), **kwargs)


class TestBuilder:
    def test_duplicate_entries_merge(self):
        bld = LpBuilder()
        x = bld.add_var("x", 0.0, 10.0, 1.0)
        bld.add_row([("x", 1.0), (x, 2.0)], ">=", 6.0, "r")
        lp = bld.build()
        assert lp.rows[0][0] == ((0, 3.0),)
        sol = solve_lp(lp)
        assert sol.primal[0] == pytest.approx(2.0, abs=1e-9)

    def test_zero_coefficients_dropped(self):
        bld = LpBuilder()
        bld.add_var("x", 0.0, 1.0)
        bld.add_var("y", 0.0, 1.0)
        bld.add_row([("x", 1.0), ("y", 1.0), ("y", -1.0)], "<=", 1.0, "r")
        assert bld.build().rows[0][0] == ((0, 1.0),)

    def test_duplicate_variable_rejected(self):
        bld = LpBuilder()
        bld.add_var("x")
        with pytest.raises(ValueError):
            bld.add_var("x")

    def test_add_obj_by_name_and_index(self):
        bld = LpBuilder()
        j = bld.add_var("x", 0.0, 1.0, 1.0)
        bld.add_obj("x", 2.0)
        bld.add_obj(j, 3.0)
        assert bld.build().objective == (6.0,)

    def test_with_bounds_overrides(self):
        bld = LpBuilder()
        x = bld.add_var("x", 0.0, 10.0, 1.0)
        bld.add_row([(x, 1.0)], ">=", 2.0, "r")
        lp = bld.build()
        assert solve_lp(lp).objective == pytest.approx(2.0)
        tight = with_bounds(lp, {x: (5.0, 10.0)})
        assert solve_lp(tight).objective == pytest.approx(5.0)
        assert lp.var_lo[x] == 0.0  # original untouched
        assert tight.matrix() is lp.matrix()


class TestDeterminism:
    def test_repeated_solves_are_identical(self):
        rng = np.random.default_rng(11)
        bld = LpBuilder()
        cols = [bld.add_var(f"x{j}", 0.0, 10.0, float(rng.integers(-5, 6)))
                for j in range(6)]
        for i in range(4):
            coeffs = [(j, float(rng.integers(-3, 4))) for j in cols]
            bld.add_row(coeffs, "<=", float(rng.integers(1, 20)), f"r{i}")
        lp = bld.build()
        a = solve_lp(lp)
        b = solve_lp(lp)
        assert a.primal == b.primal
        assert a.duals == b.duals
        assert a.objective == b.objective

    def test_warm_start_reaches_same_optimum(self):
        bld = LpBuilder()
        x = bld.add_var("x", 0.0, 4.0, -1.0)
        y = bld.add_var("y", 0.0, 4.0, -2.0)
        bld.add_row([(x, 1.0), (y, 1.0)], "<=", 5.0, "cap")
        lp = bld.build()
        cold = solve_lp(lp)
        warm = solve_lp(lp, basis=cold.basis)
        assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
        assert warm.iterations <= cold.iterations


def _scipy_solve(lp):
    c = np.asarray(lp.objective)
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for coeffs, sense, rhs in lp.rows:
        row = np.zeros(lp.n_vars)
        for j, a in coeffs:
            row[j] = a
        if sense == "<=":
            A_ub.append(row)
            b_ub.append(rhs)
        elif sense == ">=":
            A_ub.append(-row)
            b_ub.append(-rhs)
        else:
            A_eq.append(row)
            b_eq.append(rhs)
    return linprog(
        c, A_ub=np.array(A_ub) if A_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(A_eq) if A_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=list(zip(lp.var_lo, lp.var_hi)), method="highs")


def test_fuzz_against_reference_solver():
    from conftest import random_feasible_lp
    rng = np.random.default_rng(2024)
    optimal = 0
    for _ in range(120):
        lp = random_feasible_lp(rng)
        ours = solve_lp(lp)
        ref = _scipy_solve(lp)
        if ours.status == OPTIMAL:
            assert ref.status == 0, f"reference disagrees: {ref.status}"
            assert ours.objective == pytest.approx(ref.fun, abs=1e-7)
            report = verify_duality(lp, ours)
            assert report.ok, report
            optimal += 1
        elif ours.status == INFEASIBLE:
            assert ref.status == 2
        else:
            assert ref.status == 3
    assert optimal >= 60  # the corpus must actually exercise the solver


def test_dump_writes_readable_model(tmp_path):
    bld = LpBuilder()
    x = bld.add_var("power", 0.0, 10.0, 2.5)
    bld.add_row([(x, 1.0)], ">=", 4.0, "floor")
    path = tmp_path / "model.lp"
    dump_lp(bld.build(), path, name="tiny")
    text = path.read_text(encoding="utf-8")
    assert "power" in text and "floor" in text
