"""Branch and bound for LPs with binary/integer columns.

Best-first search on the node relaxation bound, with an initial
depth-first dive so an incumbent appears early, most-fractional branching,
warm-started node relaxations, and a rounding heuristic at the root. Meant
for the commitment MIPs built in this package: the integer columns are
0/1 selection variables and node feasibility repair is just an LP resolve
with tightened bounds.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .lp import INFEASIBLE, OPTIMAL, UNBOUNDED, NumericalFailure, solve_lp, \
    with_bounds

INT_TOL = 1e-6
PRUNE_MARGIN = 1e-9


@dataclass(frozen=True)
class MipProblem:
    lp: object
    integer_cols: tuple


@dataclass(frozen=True)
class MipSolution:
    status: str
    primal: tuple = ()
    objective: float = math.nan
    bound: float = math.nan
    gap: float = math.nan
    node_count: int = 0
    root: object = None   # LpSolution of the root relaxation, once solved


def _most_fractional(x, cols, tol):
    worst, arg = tol, None
    for j in cols:
        f = abs(x[j] - round(x[j]))
        if f > worst:
            worst, arg = f, j
    return arg


def _node_solve(lp, fixes, basis):
    node_lp = with_bounds(lp, fixes) if fixes else lp
    if basis is not None:
        try:
            return solve_lp(node_lp, basis=basis)
        except NumericalFailure:
            pass
    return solve_lp(node_lp)


def _round_and_fix(problem, x):
    """Fix every integer column at its rounded value and resolve."""
    updates = {}
    for j in problem.integer_cols:
        v = float(round(x[j]))
        v = min(max(v, problem.lp.var_lo[j]), problem.lp.var_hi[j])
        updates[j] = (v, v)
    sol = solve_lp(with_bounds(problem.lp, updates))
    return sol if sol.status == OPTIMAL else None


def solve_mip(problem, gap_tol=1e-6, node_limit=10 ** 6, int_tol=INT_TOL):
    """Minimize problem.lp with the integer columns restricted to integers.

    Returns a MipSolution; status is "Optimal", "Infeasible", "Unbounded",
    or "NodeLimit" (best incumbent so far with the proven bound and gap).
    Its ``root`` is the first node's cold ``solve_lp(problem.lp)``; None
    only if the node limit stops the search before that node.
    """
    lp = problem.lp
    root = None
    incumbent = None
    inc_obj = math.inf
    node_count = 0
    seq = 0
    heap = []    # (parent bound, seq, fixes, warm-start basis)
    stack = []   # dive entries, same layout

    def record(sol):
        nonlocal incumbent, inc_obj
        if sol.objective < inc_obj - PRUNE_MARGIN:
            incumbent, inc_obj = sol, sol.objective

    def result(status, bound=math.nan):
        if incumbent is None:
            return MipSolution(status=status, bound=bound,
                               node_count=node_count, root=root)
        return MipSolution(status=status, primal=incumbent.primal,
                           objective=inc_obj, bound=bound,
                           gap=max(inc_obj - bound, 0.0),
                           node_count=node_count, root=root)

    stack.append((-math.inf, seq, {}, None))
    heuristic_done = False
    while heap or stack:
        if node_count >= node_limit:
            open_bounds = [e[0] for e in heap] + [e[0] for e in stack]
            return result("NodeLimit", min(open_bounds + [inc_obj]))
        if stack:
            parent_bound, _, fixes, basis = stack.pop()
        else:
            parent_bound, _, fixes, basis = heapq.heappop(heap)
            if (incumbent is not None
                    and inc_obj - parent_bound <= gap_tol):
                # heap is bound-ordered: every open node is at least this,
                # and an open node above the incumbent bounds nothing
                return result(OPTIMAL, min(parent_bound, inc_obj))
        if parent_bound >= inc_obj - PRUNE_MARGIN:
            continue
        sol = _node_solve(lp, fixes, basis)
        node_count += 1
        if root is None:
            root = sol
        if sol.status == UNBOUNDED:
            # only possible at the root: fixing binaries never unbounds
            return result("Unbounded")
        if sol.status != OPTIMAL:
            continue
        if sol.objective >= inc_obj - PRUNE_MARGIN:
            continue
        if not heuristic_done:
            heuristic_done = True
            cand = _round_and_fix(problem, sol.primal)
            if cand is not None:
                record(cand)
            if sol.objective >= inc_obj - PRUNE_MARGIN:
                continue
        j = _most_fractional(sol.primal, problem.integer_cols, int_tol)
        if j is None:
            record(sol)
            continue
        xj = sol.primal[j]
        cur = fixes.get(j, (lp.var_lo[j], lp.var_hi[j]))
        down = dict(fixes)
        down[j] = (cur[0], math.floor(xj))
        up = dict(fixes)
        up[j] = (math.ceil(xj), cur[1])
        toward_up = (xj - math.floor(xj)) >= 0.5
        near, far = (up, down) if toward_up else (down, up)
        seq += 1
        heapq.heappush(heap, (sol.objective, seq, far, sol.basis))
        seq += 1
        stack.append((sol.objective, seq, near, sol.basis))

    if incumbent is None:
        return result(INFEASIBLE)
    return result(OPTIMAL, inc_obj)
