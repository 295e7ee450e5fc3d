import math

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from hullprice.bnb import MipProblem, solve_mip
from hullprice.lp import LinearProgram, LpBuilder


def _knapsack():
    bld = LpBuilder()
    x1 = bld.add_var("x1", 0.0, 1.0, -1.0)
    x2 = bld.add_var("x2", 0.0, 1.0, -2.0)
    bld.add_row([(x1, 1.0), (x2, 1.0)], "<=", 1.5, "cap")
    return MipProblem(bld.build(), (x1, x2))


class TestHandExamples:
    def test_two_item_knapsack(self):
        res = solve_mip(_knapsack())
        assert res.status == "Optimal"
        assert res.objective == pytest.approx(-2.0, abs=1e-9)
        assert res.primal[0] == pytest.approx(0.0, abs=1e-9)
        assert res.primal[1] == pytest.approx(1.0, abs=1e-9)
        assert res.gap <= 1e-6
        assert res.bound == pytest.approx(res.objective, abs=1e-6)

    def test_integer_infeasible_relaxation_feasible(self):
        bld = LpBuilder()
        x1 = bld.add_var("x1", 0.0, 1.0, 1.0)
        x2 = bld.add_var("x2", 0.0, 1.0, 1.0)
        bld.add_row([(x1, 1.0), (x2, 1.0)], "=", 0.5, "half")
        res = solve_mip(MipProblem(bld.build(), (x1, x2)))
        assert res.status == "Infeasible"

    def test_lp_infeasible_root(self):
        bld = LpBuilder()
        x = bld.add_var("x", 0.0, 1.0, 1.0)
        bld.add_row([(x, 1.0)], ">=", 2.0, "too_much")
        res = solve_mip(MipProblem(bld.build(), (x,)))
        assert res.status == "Infeasible"

    def test_unbounded_root(self):
        bld = LpBuilder()
        x = bld.add_var("x", 0.0, math.inf, -1.0)
        b = bld.add_var("b", 0.0, 1.0, 0.0)
        res = solve_mip(MipProblem(bld.build(), (b,)))
        assert res.status == "Unbounded"

    def test_integral_root_needs_one_node(self):
        bld = LpBuilder()
        x = bld.add_var("x", 0.0, 1.0, 1.0)
        bld.add_row([(x, 1.0)], ">=", 1.0, "force")
        res = solve_mip(MipProblem(bld.build(), (x,)))
        assert res.status == "Optimal"
        assert res.node_count == 1

    def test_node_limit_reports_bound(self):
        res = solve_mip(_knapsack(), node_limit=1)
        assert res.status in ("NodeLimit", "Optimal")
        if res.status == "NodeLimit":
            # the reported bound must under-estimate the true optimum
            assert res.bound <= -2.0 + 1e-9

    def test_bound_never_exceeds_incumbent(self):
        # a draw of _random_mip whose last open node sits above the
        # incumbent: the search closes with that node's bound, 11.33,
        # which must not be reported as a bound on the optimum 0
        lp = LinearProgram(
            n_vars=6, objective=(2.0, 5.0, 0.0, 4.0, 0.0, -5.0),
            rows=((((2, 4.0), (4, -4.0), (5, -3.0), (0, -2.0)), ">=", -6.0),
                  (((5, 4.0), (4, -4.0), (1, 4.0), (3, -3.0), (0, 1.0)),
                   "<=", -2.0),
                  (((3, 2.0), (5, 2.0), (0, -3.0), (4, -1.0), (2, 4.0)),
                   "<=", 2.0)),
            var_lo=(0.0,) * 6, var_hi=(10.0, 2.0, 2.0, 3.0, 10.0, 2.0))
        problem = MipProblem(lp, (1, 2, 3, 5))
        res = solve_mip(problem)
        assert res.status == "Optimal"
        assert res.objective == pytest.approx(0.0, abs=1e-9)
        assert res.bound <= res.objective
        # the node limit stops with only that node open
        res = solve_mip(problem, node_limit=8)
        assert res.status == "NodeLimit"
        assert res.bound <= res.objective

    def test_deterministic_reruns(self):
        a = solve_mip(_knapsack())
        b = solve_mip(_knapsack())
        assert a.primal == b.primal
        assert a.objective == b.objective
        assert a.node_count == b.node_count

    def test_continuous_columns_stay_free(self):
        # mixed problem: the continuous variable fills whatever the
        # binary decision leaves over
        bld = LpBuilder()
        b = bld.add_var("b", 0.0, 1.0, 5.0)
        x = bld.add_var("x", 0.0, 4.0, 1.0)
        bld.add_row([(b, 6.0), (x, 1.0)], ">=", 7.0, "need")
        res = solve_mip(MipProblem(bld.build(), (b,)))
        assert res.status == "Optimal"
        # b=1, x=1 costs 6; b=0 needs x=7 > 4: infeasible branch
        assert res.objective == pytest.approx(6.0, abs=1e-9)
        assert res.primal[1] == pytest.approx(1.0, abs=1e-9)


def _random_mip(rng):
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 5))
    obj = rng.integers(-5, 6, size=n).astype(float)
    int_cols = tuple(int(j) for j in range(n) if rng.random() < 0.6) or (0,)
    lo = np.zeros(n)
    hi = np.where([j in int_cols for j in range(n)],
                  rng.integers(1, 4, size=n), 10.0).astype(float)
    rows = []
    for _ in range(m):
        nz = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        coeffs = tuple((int(j), float(rng.integers(-4, 5)) or 1.0)
                       for j in nz)
        sense = ("<=", "<=", "<=", ">=", "=")[int(rng.integers(0, 5))]
        rhs = float(rng.integers(-6, 15))
        rows.append((coeffs, sense, rhs))
    lp = LinearProgram(n_vars=n, objective=tuple(obj), rows=tuple(rows),
                       var_lo=tuple(lo), var_hi=tuple(hi))
    return MipProblem(lp, int_cols)


def _scipy_rows(lp):
    """Dense A with row bounds lb <= A x <= ub."""
    lb = np.array([-math.inf if sense == "<=" else rhs
                   for _, sense, rhs in lp.rows])
    ub = np.array([math.inf if sense == ">=" else rhs
                   for _, sense, rhs in lp.rows])
    return lp.matrix().toarray(), lb, ub


def _scipy_milp(problem):
    lp = problem.lp
    A, lb, ub = _scipy_rows(lp)
    integrality = np.array([1 if j in problem.integer_cols else 0
                            for j in range(lp.n_vars)])
    return milp(c=np.asarray(lp.objective),
                constraints=LinearConstraint(A, lb, ub),
                integrality=integrality,
                bounds=Bounds(np.asarray(lp.var_lo), np.asarray(lp.var_hi)))


def _scipy_relaxation(problem):
    """HiGHS LP relaxation of the data _scipy_milp hands to milp."""
    lp = problem.lp
    A, lb, ub = _scipy_rows(lp)
    hi, lo = np.isfinite(ub), np.isfinite(lb)
    return linprog(c=np.asarray(lp.objective),
                   A_ub=np.vstack([A[hi], -A[lo]]),
                   b_ub=np.concatenate([ub[hi], -lb[lo]]),
                   bounds=list(zip(lp.var_lo, lp.var_hi)), method="highs")


def test_fuzz_against_reference_milp():
    rng = np.random.default_rng(404)
    solved = 0
    for trial in range(60):
        problem = _random_mip(rng)
        ours = solve_mip(problem)
        ref = _scipy_milp(problem)
        if ours.root.status == "Optimal":
            relax = _scipy_relaxation(problem)
            assert relax.status == 0, f"trial {trial}: relaxation {relax.status}"
            assert ours.root.objective == pytest.approx(relax.fun,
                                                        abs=1e-6), trial
        if ours.status == "Optimal":
            assert ref.status == 0, f"trial {trial}: reference {ref.status}"
            assert ours.objective == pytest.approx(ref.fun, abs=1e-6), trial
            for j in problem.integer_cols:
                assert abs(ours.primal[j] - round(ours.primal[j])) <= 1e-6
            solved += 1
        else:
            assert ours.status == "Infeasible"
            assert ref.status == 2, f"trial {trial}: reference {ref.status}"
    assert solved >= 20


def test_demo_commitment_reuses_solved_work(monkeypatch):
    # exact counts of the demo's branch and bound: a change that
    # re-inverts every node or cold-starts the rounding heuristic fails
    from hullprice import bnb, pricing
    from hullprice.samples import demo_instance
    from hullprice.simplex import Simplex
    refactors, pivots, calls = [], [], []
    refactor, solve, solve_lp = Simplex._refactor, Simplex.solve, bnb.solve_lp

    def counting_refactor(self):
        refactors.append(self.m)
        return refactor(self)

    def counting_solve(self, basis=None):
        sol = solve(self, basis)
        pivots.append(sol.iterations)
        return sol

    def recording_solve_lp(lp, maxiter=None, basis=None):
        calls.append((lp, basis))
        return solve_lp(lp, maxiter, basis=basis)

    monkeypatch.setattr(Simplex, "_refactor", counting_refactor)
    monkeypatch.setattr(Simplex, "solve", counting_solve)
    monkeypatch.setattr(bnb, "solve_lp", recording_solve_lp)
    commit = pricing.solve_commitment(demo_instance())
    assert commit.mip.node_count == 9
    assert (len(refactors), sum(pivots)) == (3, 127)
    # the second solve is the rounding heuristic's, warm from the root's
    # basis and inverse
    heuristic_lp, warm = calls[1]
    assert all(heuristic_lp.var_lo[j] == heuristic_lp.var_hi[j]
               for j in commit.model.integer_cols)
    assert warm is not None and len(warm) == 4
    assert commit.mip.root.inverse is None
