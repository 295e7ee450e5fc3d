"""Bounded-variable revised primal simplex.

The solver works on ``min c.x  s.t.  A x (<=,=,>=) b,  lo <= x <= hi``,
read from a ``LinearProgram``'s stored arrays. Each row gets a logical
column (slack) so the working system is ``[A I] (x, s) = b`` with sense
encoded in the slack bounds: ``<=`` gives s in [0, inf), ``>=`` gives s in
(-inf, 0], ``=`` pins s at 0. The ``I`` block is implicit and ``[A I]`` is
never built: slack columns are unit vectors, and the products with the
working system add the slack part to the products with ``A``.

Implementation notes:

* the basis inverse is kept explicitly (dense) and updated by a rank-1
  elimination per pivot, with periodic refactorization from scratch;
  the pivot column w = B^{-1} a_j is mostly zeros, so the update and the
  ratio test run over its nonzero rows only, and the masks of columns
  allowed to enter change only for the columns a pivot moves;
* the loop carries, per basic row, the basic value ``xb`` and the basic
  column's bounds and cost (``lo_b``, ``hi_b``, ``c_b``); a pivot
  rewrites the one row it exchanges, and the full value vector ``xval``
  is rebuilt from ``xb`` only at refactorizations and at the end, its
  nonbasic entries always sitting at their status bound. A slack's pivot
  column is a copy of one column of B^{-1}. The ``LinearProgram`` builds
  its slack bounds and ``A``'s transpose once, shared by every solve and
  every ``with_bounds`` copy;
* the pivot path is pinned bit for bit: a digest over every solve that
  ``compare`` makes on fixed systems (status, primal, duals, reduced
  costs, objective, pivot count and basis) is checked by
  ``tests/test_lp.py::test_compare_lp_solutions_are_pinned``;
* a refactorization whose growth max|B| * max|B^{-1}| exceeds
  ``MAX_GROWTH`` is refused as numerically singular, so a warm start
  from such a basis falls back to the cold start;
* an optimal ``LpSolution`` carries its final inverse and the count of
  updates since that inverse was last refactored; a warm start handed
  both copies the inverse instead of refactoring it, and keeps counting
  toward ``REFACTOR_EVERY`` from there;
* phase 1 minimizes the total bound violation of the basic variables
  (composite phase 1, no artificial columns), so any starting basis can
  be repaired, which branch and bound uses to warm start child nodes;
  its ratio test is phase 2's over the phase-1 bounds of each basic row,
  so a row outside its bounds blocks only on its way back in;
* pricing is Dantzig (most violating reduced cost); after 1000 degenerate
  steps the solver switches to Bland's rule to break cycles;
* pivots smaller than ``pivot_tol`` are rejected, bound/feasibility checks
  use ``feas_tol``, and the duals come from ``c_B B^{-1}`` at the final
  basis, so ties are resolved the same way on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

AT_LO, AT_UP, BASIC, FREE = 0, 1, 2, 3

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
OPT_TOL = 1e-7
DEGEN_STEP = 1e-10
BLAND_AFTER = 1000
REFACTOR_EVERY = 200
# the dense basis inverse and its same-size rank-1 update temporary take
# 16 m^2 bytes, 1.6 GB at this many rows
MAX_ROWS = 10_000
# bases of the benchmark's LPs reach 2.25e5; a near-zero exchange gives 1e12+
MAX_GROWTH = 1e10

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"


class NumericalFailure(RuntimeError):
    """Pivoting stalled (iteration cap hit or basis became unusable), or the
    LP has too many rows for the dense basis inverse."""


def check_rows(n_rows):
    """Raise NumericalFailure if an LP of ``n_rows`` rows is over
    ``MAX_ROWS``."""
    if n_rows > MAX_ROWS:
        raise NumericalFailure(
            f"LP has {n_rows} rows, over the dense-inverse limit of "
            f"{MAX_ROWS}")


@dataclass(frozen=True)
class LpSolution:
    status: str
    primal: tuple[float, ...] = ()
    duals: tuple[float, ...] = ()
    reduced_costs: tuple[float, ...] = ()
    objective: float = math.nan
    iterations: int = 0
    basis: tuple = None
    # (B^{-1}, updates since its refactorization) at the final basis;
    # ``basis + inverse`` warm-starts an LP of the same matrix without
    # refactoring
    inverse: tuple = field(default=None, repr=False, compare=False)


class Simplex:
    def __init__(self, lp, maxiter=None):
        """Engine for one solve of the ``LinearProgram`` ``lp``.

        Reads ``lp.matrix()``, ``lp.AT``, ``lp.rhs``, ``lp.slack_lo``,
        ``lp.slack_hi``, ``lp.objective``, ``lp.var_lo`` and ``lp.var_hi``.
        The matrix, its transpose, rhs and slack bounds are used as stored;
        only the cost and bound vectors are copied, extended by the slack
        part. maxiter defaults to ``50 * (n_vars + n_rows)``. Raises
        NumericalFailure, before allocating anything, for an LP of more than
        ``MAX_ROWS`` rows.
        """
        check_rows(lp.n_rows)
        self.A = lp.matrix()
        self.AT = lp.AT
        self.m, self.n = self.A.shape
        m, n = self.m, self.n
        self.b = lp.rhs
        self.c = np.concatenate([np.asarray(lp.objective, dtype=float),
                                 np.zeros(m)])
        self.lo = np.concatenate([np.asarray(lp.var_lo, dtype=float),
                                  lp.slack_lo])
        self.hi = np.concatenate([np.asarray(lp.var_hi, dtype=float),
                                  lp.slack_hi])
        self.movable = self.hi > self.lo
        self.maxiter = 50 * (n + m) if maxiter is None else maxiter
        self.iterations = 0
        self.degenerate = 0
        self.since_refactor = 0

    # -- basis algebra -----------------------------------------------------

    def _refactor(self):
        m, n, basis, a = self.m, self.n, self.basis, self.A
        B = np.zeros((m, m))
        # scatter the CSC entries of the structural basic columns: k runs
        # over their positions in A's arrays, one column after another
        struct = (basis < n).nonzero()[0]
        cols = basis[struct]
        starts = a.indptr[cols]
        counts = a.indptr[cols + 1] - starts
        k = np.repeat(starts - np.cumsum(counts) + counts, counts) + \
            np.arange(counts.sum())
        B[a.indices[k], np.repeat(struct, counts)] = a.data[k]
        slack = (basis >= n).nonzero()[0]
        B[basis[slack] - n, slack] = 1.0
        try:
            Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure("singular basis") from exc
        growth = np.abs(B).max(initial=0.0) * np.abs(Binv).max(initial=0.0)
        if not growth <= MAX_GROWTH:
            raise NumericalFailure(
                f"numerically singular basis (growth {growth:.3g})")
        self.Binv = Binv
        self.since_refactor = 0

    def _ftran(self, j):
        if j >= self.n:  # a slack's column of [A I] is a unit vector
            return self.Binv[:, j - self.n].copy()
        a = self.A
        col = slice(a.indptr[j], a.indptr[j + 1])
        return self.Binv[:, a.indices[col]] @ a.data[col]

    def _recompute_basics(self):
        xN = self.xval.copy()
        xN[self.basis] = 0.0
        n = self.n
        self.xb = self.Binv @ (self.b - (self.A @ xN[:n] + xN[n:]))
        self.xval[self.basis] = self.xb

    # -- setup ---------------------------------------------------------------

    def _cold_status(self):
        """Each column at the bound nearer zero (lo on ties and fixed
        columns), at its one finite bound, or free at 0."""
        lo, hi = self.lo, self.hi
        lo_fin, hi_fin = np.isfinite(lo), np.isfinite(hi)
        up = hi_fin & ~(lo_fin & (np.abs(lo) <= np.abs(hi))) & (lo != hi)
        free = ~lo_fin & ~hi_fin & (lo != hi)
        return np.where(up, AT_UP, np.where(free, FREE, AT_LO))

    def _start(self, warm):
        m, n = self.m, self.n
        if warm is not None:
            basis, vstat, *inverse = warm
            self.basis = np.array(basis, dtype=int)
            self.vstat = np.array(vstat, dtype=int)
            # a status recorded under other bounds may no longer fit: FREE
            # with a finite bound, or AT_LO / AT_UP at an infinite one
            st, lo_fin, hi_fin = self.vstat, np.isfinite(self.lo), \
                np.isfinite(self.hi)
            stale = ((st == FREE) & (lo_fin | hi_fin)) | \
                ((st == AT_LO) & ~lo_fin) | ((st == AT_UP) & ~hi_fin)
            if stale.any():
                self.vstat[stale] = self._cold_status()[stale]
            if inverse:
                # other warm starts may share it, and pivots update in place
                Binv, self.since_refactor = inverse
                self.Binv = Binv.copy()
            else:
                try:
                    self._refactor()
                except NumericalFailure:
                    warm = None
        if warm is None:
            self.vstat = self._cold_status()
            self.basis = np.arange(n, n + m)
            self.Binv = np.eye(m)
        self.vstat[self.basis] = BASIC
        self.xval = np.where(self.vstat == AT_UP, self.hi,
                             np.where(self.vstat == AT_LO, self.lo, 0.0))
        st = self.vstat
        free = st == FREE
        self.can_up = free | ((st == AT_LO) & self.movable)
        self.can_dn = free | ((st == AT_UP) & self.movable)
        # bounds and costs of the basic columns, row by row; a pivot
        # rewrites the row it exchanges
        self.lo_b = self.lo[self.basis]
        self.hi_b = self.hi[self.basis]
        self.c_b = self.c[self.basis]
        self.xb = np.zeros(m)
        self._recompute_basics()

    # -- pricing -------------------------------------------------------------

    def _reduced_costs(self, c, y):
        """c - [A I]^T y over all columns, structural then slack."""
        return c - np.concatenate([self.AT @ y, y])

    def _phase1_costs(self):
        """Costs of composite phase 1: -1 on a basic row below its lower
        bound, +1 above its upper one, else 0. Also sets the bounds each
        row blocks at in phase 1 (``lo_p1``, ``hi_p1``): a row below its
        lower bound may rise to it and fall without limit, a row above
        its upper bound the reverse."""
        below = self.xb < self.lo_b - FEAS_TOL
        above = self.xb > self.hi_b + FEAS_TOL
        self.lo_p1 = np.where(below, -np.inf,
                              np.where(above, self.hi_b, self.lo_b))
        self.hi_p1 = np.where(above, np.inf,
                              np.where(below, self.lo_b, self.hi_b))
        return np.subtract(above, below, dtype=float)

    def _set_status(self, k, st):
        """Give column k the status st and update whether it may enter
        moving up or down; a pivot changes only the columns it moves."""
        self.vstat[k] = st
        free = st == FREE
        self.can_up[k] = free or (st == AT_LO and self.movable[k])
        self.can_dn[k] = free or (st == AT_UP and self.movable[k])

    def _pick_entering(self, d, bland):
        """Entering column and direction for the reduced costs d, or
        (None, 0) at optimality. Basic columns never pass the masks, so
        their entries of d are not read."""
        up_ok = self.can_up & (d < -OPT_TOL)
        ok = up_ok | (self.can_dn & (d > OPT_TOL))
        if bland:
            hits = ok.nonzero()[0]
            if not hits.size:
                return None, 0
            j = int(hits[0])
        else:
            # every allowed column scores at least OPT_TOL, the rest 0
            j = int(np.where(ok, np.abs(d), 0.0).argmax())
            if not ok[j]:
                return None, 0
        return j, (1 if up_ok[j] else -1)

    # -- ratio test ----------------------------------------------------------

    def _ratio_test(self, j, direction, w, phase1):
        """Step length and leaving row for entering column j moving by
        ``direction`` (+1 up, -1 down). Returns (theta, row or None) where
        row None means the entering variable hits its own opposite bound.
        Only rows with |w| > PIVOT_TOL can block the step, so the test
        runs over those. Phase 1 blocks at the bounds ``_phase1_costs``
        set."""
        lo, hi = (self.lo_p1, self.hi_p1) if phase1 else \
            (self.lo_b, self.hi_b)
        rows = (np.abs(w) > PIVOT_TOL).nonzero()[0]
        delta = -direction * w[rows]  # change of basic values per unit step
        target = np.where(delta > 0.0, hi[rows], lo[rows])
        steps = (target - self.xb[rows]) / delta
        steps = np.where(np.isfinite(steps), np.maximum(steps, 0.0), np.inf)

        theta = float(steps.min()) if rows.size else math.inf
        own = float(self.hi[j] - self.lo[j])  # inf for free/one-sided
        if self.vstat[j] != FREE and math.isfinite(own) and own < theta:
            return own, None
        if not math.isfinite(theta):
            return math.inf, None
        # among (near-)minimal ratios prefer the largest pivot magnitude,
        # then the lowest row index (argmax keeps the first of equal
        # maxima), so reruns take identical paths
        cand = rows[steps <= theta + 1e-12]
        r = cand[np.abs(w[cand]).argmax()] if cand.size > 1 else cand[0]
        return max(theta, 0.0), int(r)

    # -- pivoting ------------------------------------------------------------

    def _apply_pivot(self, j, direction, w, theta, r):
        # the basic values live in xb only; _recompute_basics writes them
        # back into xval, whose nonbasic entries sit at their status bound
        xj = float(self.xval[j])
        if theta != 0.0:
            self.xb -= direction * theta * w
            xj += direction * theta
        if r is None:
            # bound flip: variable walked to its other bound
            if self.vstat[j] == AT_LO:
                self.xval[j] = self.hi[j]
                self._set_status(j, AT_UP)
            else:
                self.xval[j] = self.lo[j]
                self._set_status(j, AT_LO)
            return
        w_r = float(w[r])
        if abs(w_r) < PIVOT_TOL:
            raise NumericalFailure("pivot element below tolerance")
        # classify which bound the leaving variable stopped at
        leaving = int(self.basis[r])
        lv, lo, hi = float(self.xb[r]), float(self.lo_b[r]), \
            float(self.hi_b[r])
        if math.isfinite(lo) and abs(lv - lo) <= abs(lv - hi):
            self.xval[leaving] = lo
            self._set_status(leaving, AT_LO)
        else:
            self.xval[leaving] = hi
            self._set_status(leaving, AT_UP)
        self._set_status(j, BASIC)
        self.basis[r] = j
        self.lo_b[r], self.hi_b[r], self.c_b[r] = \
            self.lo[j], self.hi[j], self.c[j]
        self.xb[r] = xj
        # rank-1 update of the inverse; rows where w is zero keep their values
        piv = self.Binv[r, :] / w_r
        nz = w.nonzero()[0]
        self.Binv[nz] -= np.outer(w[nz], piv)
        self.Binv[r, :] = piv
        self.since_refactor += 1
        if self.since_refactor >= REFACTOR_EVERY:
            self._refactor()
            self._recompute_basics()

    # -- main loop -----------------------------------------------------------

    def _iterate(self, phase1):
        c = np.zeros_like(self.c) if phase1 else self.c
        while True:
            if phase1:
                cb = self._phase1_costs()
                if not cb.any():
                    return "feasible"
            else:
                cb = self.c_b
            y = cb @ self.Binv
            d = self._reduced_costs(c, y)
            bland = self.degenerate >= BLAND_AFTER
            j, direction = self._pick_entering(d, bland)
            if j is None:
                return "infeasible" if phase1 else "optimal"
            if self.iterations >= self.maxiter:
                raise NumericalFailure(
                    f"iteration cap {self.maxiter} reached")
            self.iterations += 1
            w = self._ftran(j)
            theta, r = self._ratio_test(j, direction, w, phase1)
            if not math.isfinite(theta):
                if phase1:
                    raise NumericalFailure("phase 1 direction unbounded")
                return "unbounded"
            if theta <= DEGEN_STEP:
                self.degenerate += 1
            self._apply_pivot(j, direction, w, theta, r)

    def solve(self, basis=None):
        """Solve from ``basis``, the ``(basis, vstat)`` pair an earlier
        ``LpSolution.basis`` carries, or from the cold start when None.
        A warm basis that turns out singular falls back to the cold start.
        ``basis + inverse`` of a solution of the same matrix also hands
        over its inverse, which is copied instead of refactored.
        """
        if (self.lo > self.hi).any():
            return LpSolution(INFEASIBLE)
        self._start(basis)
        n, m = self.n, self.m
        infeasible = (
            (self.xb < self.lo_b - FEAS_TOL).any()
            or (self.xb > self.hi_b + FEAS_TOL).any()
        ) if m else False
        if infeasible:
            verdict = self._iterate(phase1=True)
            if verdict == "infeasible":
                return LpSolution(INFEASIBLE, iterations=self.iterations)
            self._recompute_basics()
        verdict = self._iterate(phase1=False)
        if verdict == "unbounded":
            return LpSolution(UNBOUNDED, iterations=self.iterations)
        # polish the basic values against the final basis before reporting
        self._recompute_basics()
        y = self.c_b @ self.Binv if m else np.zeros(0)
        d = self._reduced_costs(self.c, y)
        d[self.basis] = 0.0
        x = self.xval[:n]
        return LpSolution(
            status=OPTIMAL,
            primal=tuple(x.tolist()),
            duals=tuple(y.tolist()),
            reduced_costs=tuple(d[:n].tolist()),
            objective=float(self.c[:n] @ x),
            iterations=self.iterations,
            basis=(tuple(self.basis.tolist()), tuple(self.vstat.tolist())),
            inverse=(self.Binv, self.since_refactor),
        )
