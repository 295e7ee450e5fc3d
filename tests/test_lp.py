import hashlib
import math
import re
from collections import Counter

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
from hullprice import simplex
from hullprice.simplex import AT_LO, AT_UP, BASIC, FREE, MAX_ROWS, Simplex


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

    def test_demo_pivot_path_is_pinned(self):
        # exact counts of the demo's solves: a kernel change that moves
        # the pivot path, and with it the published digits, fails here
        from hullprice import pricing
        from hullprice.formulations import assemble_2bin, assemble_meuc
        from hullprice.samples import demo_instance
        inst = demo_instance()
        root = solve_lp(assemble_meuc(inst).lp)
        assert (root.status, root.iterations) == (OPTIMAL, 56)
        assert root.objective == 828.0000000000001
        commit = pricing.solve_commitment(inst)
        assert commit.mip.node_count == 9
        fixed = pricing._fix_commitment(assemble_2bin(inst), inst,
                                        commit.schedules)
        assert solve_lp(fixed.lp).iterations == 18


def test_compare_lp_solutions_are_pinned(monkeypatch):
    # every simplex solve behind ``compare`` on the demo and 12 small
    # fixed-seed systems: a kernel change that moves one pivot, one basis
    # or one bit of a primal, dual or reduced cost fails here
    from hullprice import pricing
    from hullprice.samples import demo_instance, random_instance
    solutions = []
    solve = Simplex.solve

    def recording(self, basis=None):
        sol = solve(self, basis)
        solutions.append((sol.status, sol.primal, sol.duals,
                          sol.reduced_costs, sol.objective, sol.iterations,
                          sol.basis))
        return sol

    monkeypatch.setattr(Simplex, "solve", recording)
    systems = [demo_instance()] + [
        random_instance(np.random.default_rng(100 + seed), 2 + seed % 2,
                        2 + seed % 3) for seed in range(12)]
    for inst in systems:
        pricing.compare(inst)
    assert len(solutions) >= 60
    digest = hashlib.sha256(repr(solutions).encode()).hexdigest()
    assert digest == \
        "bbdac501f6af2edee50d2b8e91f0ca841a60073e4d0c41eecc4d22288c27352a"


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


def _kernel_lp(rng):
    """Small LP whose columns are short boxes, free, or one-sided. Costs
    never favour an unbounded ray. Most rows hold at a point inside the
    bounds, and ``>=`` rows mostly start with their slack above 0."""
    n = int(rng.integers(3, 9))
    m = int(rng.integers(2, 7))
    kind = rng.choice(4, size=n, p=[0.5, 0.2, 0.15, 0.15])
    base = rng.integers(-3, 4, size=n).astype(float)
    width = rng.choice([0.25, 0.5, 1.0, 2.0], size=n)
    lo = np.select([kind == 0, kind == 2], [base, 0.0], -math.inf)
    hi = np.select([kind == 0, kind == 3], [base + width, base], math.inf)
    cost = rng.integers(-5, 6, size=n).astype(float)
    obj = np.select([kind == 1, kind == 2, kind == 3],
                    [0.0, np.abs(cost), -np.abs(cost)], cost)
    point = np.clip(base + width * rng.random(n), lo, hi)
    rows = []
    for _ in range(m):
        nz = rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False)
        coeffs = tuple((int(j), float(rng.integers(-4, 5)) or 1.0)
                       for j in nz)
        sense = (">=", ">=", "<=", "=")[int(rng.integers(0, 4))]
        at = sum(a * point[j] for j, a in coeffs)
        rhs = {">=": math.floor(at), "<=": math.ceil(at), "=": at}[sense] \
            if rng.random() < 0.9 else float(rng.integers(-6, 7))
        rows.append((coeffs, sense, float(rhs)))
    return LinearProgram(n_vars=n, objective=tuple(obj.tolist()),
                         rows=tuple(rows), var_lo=tuple(lo.tolist()),
                         var_hi=tuple(hi.tolist()))


def _exchanged_basis(rng, lp, basis):
    """``basis`` one exchange away, with a pivot element of at least 1/2,
    and every nonbasic column at a random finite bound (free if none)."""
    cols, vstat = list(basis[0]), list(basis[1])
    n, m = lp.n_vars, lp.n_rows
    full = np.hstack([lp.matrix().toarray(), np.eye(m)])
    lo = np.concatenate([lp.var_lo, np.where(lp.sense == ">=", -math.inf, 0)])
    hi = np.concatenate([lp.var_hi, np.where(lp.sense == "<=", math.inf, 0)])
    for k in rng.permutation([k for k in range(n + m) if vstat[k] != BASIC]):
        w = np.linalg.solve(full[:, cols], full[:, k])
        rows = np.flatnonzero(np.abs(w) >= 0.5)
        if rows.size:
            cols[int(rng.choice(rows))] = int(k)
            break
    for k in range(n + m):
        ends = [s for s, b in ((AT_LO, lo[k]), (AT_UP, hi[k]))
                if math.isfinite(b)]
        vstat[k] = BASIC if k in cols else \
            int(rng.choice(ends)) if ends else FREE
    return tuple(cols), tuple(vstat)


def test_kernel_corpus_against_reference_solver(monkeypatch):
    """Paths the commitment LPs rarely take: bound flips on short boxes,
    free columns entering, phase 1 from ``>=`` slacks above their bound,
    and warm starts from an exchanged basis and from shifted boxes."""
    seen = Counter()
    ratio_test = Simplex._ratio_test

    def counting(self, j, direction, w, phase1):
        theta, r = ratio_test(self, j, direction, w, phase1)
        seen["flip"] += r is None and math.isfinite(theta)
        seen["free"] += self.vstat[j] == FREE
        return theta, r

    monkeypatch.setattr(Simplex, "_ratio_test", counting)

    def check(lp, ours):
        ref = _scipy_solve(lp)
        if ours.status == OPTIMAL:
            assert ref.status == 0, f"reference disagrees: {ref.status}"
            assert ours.objective == pytest.approx(ref.fun, abs=1e-7)
            report = verify_duality(lp, ours)
            assert report.ok, report
            seen["optimal"] += 1
        else:
            assert ours.status == INFEASIBLE and ref.status == 2

    rng = np.random.default_rng(7)
    for _ in range(200):
        lp = _kernel_lp(rng)
        cold = solve_lp(lp)
        check(lp, cold)
        if cold.status != OPTIMAL:
            continue
        check(lp, solve_lp(lp, basis=_exchanged_basis(rng, lp, cold.basis)))
        shifts = {j: (lp.var_lo[j] + s, lp.var_hi[j] + s)
                  for j in range(lp.n_vars)
                  if math.isfinite(lp.var_lo[j] + lp.var_hi[j])
                  for s in [float(rng.choice([-1.0, -0.5, 0.5, 1.0]))]
                  if rng.random() < 0.5}
        if shifts:
            shifted = with_bounds(lp, shifts)
            check(shifted, solve_lp(shifted, basis=cold.basis))
    # the corpus must actually exercise these paths
    assert seen["optimal"] >= 300 and seen["flip"] >= 100
    assert seen["free"] >= 100


def _shifted_boxes(rng, lp):
    """``lp`` with about half its boxed columns moved by up to one unit."""
    shifts = {j: (lp.var_lo[j] + s, lp.var_hi[j] + s)
              for j in range(lp.n_vars)
              if math.isfinite(lp.var_lo[j] + lp.var_hi[j])
              for s in [float(rng.choice([-1.0, -0.5, 0.5, 1.0]))]
              if rng.random() < 0.5}
    return with_bounds(lp, shifts) if shifts else None


def test_inherited_inverse_matches_refactored_start():
    """A warm start handed the cold solve's inverse ends where one that
    refactors the same basis does, and leaves the handed inverse as it
    was."""
    rng = np.random.default_rng(5)
    solved = pivoted = 0
    for _ in range(200):
        lp = _kernel_lp(rng)
        cold = solve_lp(lp)
        shifted = _shifted_boxes(rng, lp)
        if cold.status != OPTIMAL or shifted is None:
            continue
        handed = cold.inverse[0].copy()
        fresh = solve_lp(shifted, basis=cold.basis)
        inherited = solve_lp(shifted, basis=cold.basis + cold.inverse)
        assert np.array_equal(cold.inverse[0], handed)
        assert inherited.status == fresh.status
        if fresh.status != OPTIMAL:
            continue
        assert inherited.objective == pytest.approx(fresh.objective,
                                                    abs=1e-9)
        assert verify_duality(shifted, fresh).ok
        assert verify_duality(shifted, inherited).ok
        solved += 1
        pivoted += inherited.iterations > 0
    # the corpus must actually pivot away from the inherited inverse
    assert solved >= 50 and pivoted >= 20


def test_warm_start_reads_free_status_against_new_bounds():
    """A column recorded FREE that now has finite bounds starts at one of
    them, so it cannot step past the other one."""
    rng = np.random.default_rng(7)
    checked = stale = 0
    for _ in range(200):
        lp = _kernel_lp(rng)
        cold = solve_lp(lp)
        boxes = {j: (-0.5, 0.5) for j in range(lp.n_vars)
                 if math.isinf(lp.var_lo[j]) and math.isinf(lp.var_hi[j])}
        if cold.status != OPTIMAL or not boxes:
            continue
        boxed = with_bounds(lp, boxes)
        ours = solve_lp(boxed, basis=cold.basis)
        ref = _scipy_solve(boxed)
        if ours.status != OPTIMAL:
            assert ours.status == INFEASIBLE and ref.status == 2
            continue
        assert ref.status == 0
        assert ours.objective == pytest.approx(ref.fun, abs=1e-7)
        assert verify_duality(boxed, ours).ok
        checked += 1
        stale += any(cold.basis[1][j] == FREE for j in boxes)
    # the corpus must actually hand over FREE statuses that are now boxed
    assert checked >= 50 and stale >= 20


def _near_singular_exchange(lp, sol):
    """``lp`` with one column appended that is a basic column of ``sol``
    plus 1e-12 times another, and ``sol``'s basis with that new column
    exchanged for the other one, through a pivot element of 1e-12."""
    n, m = lp.n_vars, lp.n_rows
    full = np.hstack([lp.matrix().toarray(), np.eye(m)])
    cols = list(sol.basis[0])
    new = full[:, cols[0]] + 1e-12 * full[:, cols[1]]
    rows = [(tuple(c) + ((n, float(new[i])),) if new[i] else tuple(c),
             sense, rhs) for i, (c, sense, rhs) in enumerate(lp.rows)]
    wider = LinearProgram(n_vars=n + 1, objective=lp.objective + (10.0,),
                          rows=tuple(rows), var_lo=lp.var_lo + (0.0,),
                          var_hi=lp.var_hi + (1.0,))
    # slack indices move up by one behind the appended column
    cols = [j + (j >= n) for j in cols]
    leaving, cols[1] = cols[1], n
    vstat = list(sol.basis[1][:n]) + [BASIC] + list(sol.basis[1][n:])
    lo = np.concatenate([wider.var_lo,
                         np.where(wider.sense == ">=", -math.inf, 0)])
    hi = np.concatenate([wider.var_hi,
                         np.where(wider.sense == "<=", math.inf, 0)])
    vstat[leaving] = AT_LO if math.isfinite(lo[leaving]) else \
        AT_UP if math.isfinite(hi[leaving]) else FREE
    return wider, (tuple(cols), tuple(vstat))


def test_numerically_singular_warm_basis_falls_back():
    """A warm basis whose inverse would carry entries near 1e12 is
    refused, and the solve restarts cold and matches the reference."""
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(60):
        lp = _kernel_lp(rng)
        sol = solve_lp(lp)
        if sol.status != OPTIMAL or lp.n_rows < 2:
            continue
        wider, warm = _near_singular_exchange(lp, sol)
        engine = Simplex(wider)
        engine.basis = np.array(warm[0])
        with pytest.raises(NumericalFailure, match="numerically singular"):
            engine._refactor()
        ours = solve_lp(wider, basis=warm)
        ref = _scipy_solve(wider)
        assert ours.status == OPTIMAL and ref.status == 0
        assert ours.objective == pytest.approx(ref.fun, abs=1e-7)
        assert verify_duality(wider, ours).ok
        checked += 1
    assert checked >= 40


def test_refactor_matches_column_loop():
    # the reference places each basic column of [A I] one at a time
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(40):
        lp = _kernel_lp(rng)
        sol = solve_lp(lp)
        if sol.status != OPTIMAL:
            continue
        engine = Simplex(lp)
        engine.basis = np.array(sol.basis[0])
        engine._refactor()
        full = np.hstack([lp.matrix().toarray(), np.eye(lp.n_rows)])
        B = np.zeros((lp.n_rows, lp.n_rows))
        for i, j in enumerate(sol.basis[0]):
            B[:, i] = full[:, j]
        assert np.array_equal(engine.Binv, np.linalg.inv(B))
        checked += any(j < lp.n_vars for j in sol.basis[0]) and \
            any(j >= lp.n_vars for j in sol.basis[0])
    assert checked >= 10  # bases that mix structural and slack columns



def _check_carried(engine):
    """The per-row basic bounds and costs the pivot loop carries equal a
    gather through the basis, the entering masks equal a fresh derivation
    from the statuses, and each nonbasic value sits at its status bound."""
    basis, st = engine.basis, engine.vstat
    assert np.array_equal(engine.lo_b, engine.lo[basis])
    assert np.array_equal(engine.hi_b, engine.hi[basis])
    assert np.array_equal(engine.c_b, engine.c[basis])
    assert (st[basis] == BASIC).all() and (st == BASIC).sum() == engine.m
    free = st == FREE
    assert np.array_equal(engine.can_up,
                          free | ((st == AT_LO) & engine.movable))
    assert np.array_equal(engine.can_dn,
                          free | ((st == AT_UP) & engine.movable))
    at = np.where(st == AT_LO, engine.lo,
                  np.where(st == AT_UP, engine.hi, 0.0))
    nonbasic = st != BASIC
    assert np.array_equal(engine.xval[nonbasic], at[nonbasic])


def test_carried_basic_arrays_follow_every_pivot(monkeypatch):
    """Cold and warm solves of the kernel corpus, the demo's branch and
    bound, and the demo LP refactored every few pivots: after each pivot
    and each refactorization the carried arrays match the basis."""
    seen = Counter()
    apply_pivot, refactor = Simplex._apply_pivot, Simplex._refactor

    def pivoting(self, j, direction, w, theta, r):
        seen["free"] += self.vstat[j] == FREE
        apply_pivot(self, j, direction, w, theta, r)
        seen["flip" if r is None else "pivot"] += 1
        _check_carried(self)

    def refactoring(self):
        refactor(self)
        # a warm start refactors before the loop's arrays exist
        if "lo_b" in vars(self):
            seen["refactor"] += 1
            _check_carried(self)

    monkeypatch.setattr(Simplex, "_apply_pivot", pivoting)
    monkeypatch.setattr(Simplex, "_refactor", refactoring)
    rng = np.random.default_rng(7)
    for _ in range(200):
        lp = _kernel_lp(rng)
        cold = solve_lp(lp)
        if cold.status != OPTIMAL:
            continue
        solve_lp(lp, basis=_exchanged_basis(rng, lp, cold.basis))
        shifted = _shifted_boxes(rng, lp)
        if shifted is not None:
            solve_lp(shifted, basis=cold.basis)
            solve_lp(shifted, basis=cold.basis + cold.inverse)
    from hullprice import pricing
    from hullprice.formulations import assemble_meuc
    from hullprice.samples import demo_instance
    assert pricing.solve_commitment(demo_instance()).mip.node_count == 9
    assert seen["refactor"] == 0  # no corpus LP reaches REFACTOR_EVERY
    monkeypatch.setattr(simplex, "REFACTOR_EVERY", 5)
    root = solve_lp(assemble_meuc(demo_instance()).lp)
    assert root.objective == pytest.approx(828.0, abs=1e-9)
    # the corpus must actually exercise these paths
    assert seen["pivot"] >= 1000 and seen["flip"] >= 100
    assert seen["free"] >= 100 and seen["refactor"] >= 10


def _beale_lp():
    """Beale's (1955) LP, on which Dantzig pricing with a lowest-index
    ratio rule cycles; its optimum is -1/20 at x = (1/25, 0, 1, 0)."""
    return _lp([-0.75, 150.0, -0.02, 6.0],
               [(((0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)), "<=", 0.0),
                (((0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)), "<=", 0.0),
                (((2, 1.0),), "<=", 1.0)],
               [0.0] * 4, [math.inf] * 4)


def test_bland_rule_reaches_the_dantzig_optimum(monkeypatch):
    """With Bland's rule from the first pivot, every solve of the kernel
    corpus and of Beale's LP ends where Dantzig pricing does."""
    rng = np.random.default_rng(7)
    lps = [_beale_lp()] + [_kernel_lp(rng) for _ in range(200)]
    dantzig = [solve_lp(lp) for lp in lps]
    picks = Counter()
    pick_entering = Simplex._pick_entering

    def counting(self, d, bland):
        picks[bland] += 1
        return pick_entering(self, d, bland)

    monkeypatch.setattr(Simplex, "_pick_entering", counting)
    monkeypatch.setattr(simplex, "BLAND_AFTER", 0)
    for lp, ref in zip(lps, dantzig):
        ours = solve_lp(lp)
        assert ours.status == ref.status
        if ours.status == OPTIMAL:
            assert ours.objective == pytest.approx(ref.objective, abs=1e-9)
            assert verify_duality(lp, ours).ok
    beale = solve_lp(lps[0])
    assert beale.objective == pytest.approx(-0.05, abs=1e-12)
    assert beale.primal == pytest.approx((0.04, 0.0, 1.0, 0.0), abs=1e-12)
    # every entering choice went through Bland's rule
    assert picks[False] == 0 and picks[True] >= 1000


def test_dump_writes_readable_model(tmp_path):
    bld = LpBuilder()
    x = bld.add_var("power", 0.0, 10.0, 2.5)
    bld.add_row([(x, 1.0)], ">=", 4.0, "floor")
    path = tmp_path / "model.lp"
    dump_lp(bld.build(), path, name="tiny")
    text = path.read_text(encoding="utf-8")
    assert "power" in text and "floor" in text
