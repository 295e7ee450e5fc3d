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
* phase 1 minimizes the total bound violation of the basic variables
  (composite phase 1, no artificial columns), so any starting basis can
  be repaired, which branch and bound uses to warm start child nodes;
* pricing is Dantzig (most violating reduced cost); after 1000 degenerate
  steps the solver switches to Bland's rule to break cycles;
* pivots smaller than ``pivot_tol`` are rejected, bound/feasibility checks
  use ``feas_tol``, and the duals come from ``c_B B^{-1}`` at the final
  basis, so ties are resolved the same way on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"

_UNIT = np.ones(1)


class NumericalFailure(RuntimeError):
    """Pivoting stalled (iteration cap hit or basis became unusable), or the
    LP has too many rows for the dense basis inverse."""


@dataclass(frozen=True)
class LpSolution:
    status: str
    primal: tuple[float, ...] = ()
    duals: tuple[float, ...] = ()
    reduced_costs: tuple[float, ...] = ()
    objective: float = math.nan
    iterations: int = 0
    basis: tuple = None


class Simplex:
    def __init__(self, lp, maxiter=None):
        """Engine for one solve of the ``LinearProgram`` ``lp``.

        Reads ``lp.matrix()``, ``lp.rhs``, ``lp.sense``, ``lp.objective``,
        ``lp.var_lo`` and ``lp.var_hi``. The matrix and rhs are used as
        stored; only the cost and bound vectors are copied, extended by the
        slack part. maxiter defaults to ``50 * (n_vars + n_rows)``. Raises
        NumericalFailure, before allocating anything, for an LP of more than
        ``MAX_ROWS`` rows.
        """
        if lp.n_rows > MAX_ROWS:
            raise NumericalFailure(
                f"LP has {lp.n_rows} rows, over the dense-inverse limit of "
                f"{MAX_ROWS}")
        self.A = lp.matrix()
        # a CSR view sharing A's arrays; made once, as each view costs ~30 us
        self.AT = self.A.T
        self.m, self.n = self.A.shape
        m, n = self.m, self.n
        self.b = lp.rhs
        self.c = np.concatenate([np.asarray(lp.objective, dtype=float),
                                 np.zeros(m)])
        self.lo = np.concatenate([np.asarray(lp.var_lo, dtype=float),
                                  np.where(lp.sense == ">=", -np.inf, 0.0)])
        self.hi = np.concatenate([np.asarray(lp.var_hi, dtype=float),
                                  np.where(lp.sense == "<=", np.inf, 0.0)])
        self.movable = self.hi > self.lo
        self.maxiter = 50 * (n + m) if maxiter is None else maxiter
        self.iterations = 0
        self.degenerate = 0
        self.since_refactor = 0

    # -- basis algebra -----------------------------------------------------

    def _column(self, j):
        if j >= self.n:
            return np.array([j - self.n]), _UNIT
        a = self.A
        start, end = a.indptr[j], a.indptr[j + 1]
        return a.indices[start:end], a.data[start:end]

    def _refactor(self):
        m, n, basis = self.m, self.n, self.basis
        B = np.zeros((m, m))
        struct = basis < n
        B[:, struct] = self.A[:, basis[struct]].toarray()
        slack = np.flatnonzero(~struct)
        B[basis[slack] - n, slack] = 1.0
        try:
            self.Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure("singular basis") from exc
        self.since_refactor = 0

    def _ftran(self, j):
        rows, vals = self._column(j)
        return self.Binv[:, rows] @ vals

    def _recompute_basics(self):
        xN = self.xval.copy()
        xN[self.basis] = 0.0
        n = self.n
        self.xb = self.Binv @ (self.b - (self.A @ xN[:n] + xN[n:]))
        self.xval[self.basis] = self.xb

    # -- setup ---------------------------------------------------------------

    def _start(self, warm):
        m, n = self.m, self.n
        if warm is not None:
            basis, vstat = warm
            self.basis = np.array(basis, dtype=int)
            self.vstat = np.array(vstat, dtype=int)
            self.xval = np.where(self.vstat == AT_UP, self.hi,
                                 np.where(self.vstat == AT_LO, self.lo, 0.0))
            self.xval[~np.isfinite(self.xval)] = 0.0
            try:
                self._refactor()
            except NumericalFailure:
                warm = None
        if warm is None:
            # each column starts at the bound nearer zero (lo on ties and
            # fixed columns), at its one finite bound, or free at 0
            lo, hi = self.lo, self.hi
            lo_fin, hi_fin = np.isfinite(lo), np.isfinite(hi)
            up = hi_fin & ~(lo_fin & (np.abs(lo) <= np.abs(hi))) & (lo != hi)
            free = ~lo_fin & ~hi_fin & (lo != hi)
            self.vstat = np.where(up, AT_UP, np.where(free, FREE, AT_LO))
            self.xval = np.where(up, hi, np.where(free, 0.0, lo))
            self.basis = np.arange(n, n + m)
            self.vstat[self.basis] = BASIC
            self.Binv = np.eye(m)
        self.vstat[self.basis] = BASIC
        self.can_up = np.empty(n + m, dtype=bool)
        self.can_dn = np.empty(n + m, dtype=bool)
        self._refresh_masks(slice(None))
        self.xb = np.zeros(m)
        self._recompute_basics()

    # -- pricing -------------------------------------------------------------

    def _reduced_costs(self, c, y):
        """c - [A I]^T y over all columns, structural then slack."""
        return c - np.concatenate([self.AT @ y, y])

    def _phase1_costs(self):
        cb = np.zeros(self.m)
        cb[self.xb < self.lo[self.basis] - FEAS_TOL] = -1.0
        cb[self.xb > self.hi[self.basis] + FEAS_TOL] = 1.0
        return cb

    def _refresh_masks(self, cols):
        """Whether the nonbasic columns ``cols`` may enter moving up or
        down; a pivot changes them only for the columns it moves."""
        st = self.vstat[cols]
        free = st == FREE
        self.can_up[cols] = free | ((st == AT_LO) & self.movable[cols])
        self.can_dn[cols] = free | ((st == AT_UP) & self.movable[cols])

    def _pick_entering(self, d, bland):
        up_ok = self.can_up & (d < -OPT_TOL)
        dn_ok = self.can_dn & (d > OPT_TOL)
        any_ok = up_ok | dn_ok
        if not any_ok.any():
            return None, 0
        if bland:
            j = int(np.nonzero(any_ok)[0][0])
        else:
            score = np.where(any_ok, np.abs(d), 0.0)
            j = int(np.argmax(score))
        return j, (1 if up_ok[j] else -1)

    # -- ratio test ----------------------------------------------------------

    def _ratio_test(self, j, direction, w, phase1):
        """Step length and leaving row for entering column j moving by
        ``direction`` (+1 up, -1 down). Returns (theta, row or None) where
        row None means the entering variable hits its own opposite bound.
        Only rows with |w| > PIVOT_TOL can block the step, so the test
        runs over those."""
        rows = np.flatnonzero(np.abs(w) > PIVOT_TOL)
        delta = -direction * w[rows]  # change of basic values per unit step
        basic = self.basis[rows]
        lo_b, hi_b = self.lo[basic], self.hi[basic]
        xb = self.xb[rows]
        up = delta > 0.0
        target = np.where(up, hi_b, lo_b)
        if phase1:
            # an infeasible basic blocks at the bound it moves toward
            below = xb < lo_b - FEAS_TOL
            above = xb > hi_b + FEAS_TOL
            np.copyto(target, lo_b, where=below & up)
            np.copyto(target, hi_b, where=above & ~up)
            target[(below & ~up) | (above & up)] = np.nan

        steps = (target - xb) / delta
        steps = np.where(np.isfinite(steps), np.maximum(steps, 0.0), np.inf)

        theta = float(steps.min()) if rows.size else np.inf
        own = self.hi[j] - self.lo[j]  # own range; inf for free/one-sided
        if self.vstat[j] != FREE and np.isfinite(own) and own < theta:
            return own, None
        if not np.isfinite(theta):
            return np.inf, None
        # among (near-)minimal ratios prefer the largest pivot magnitude,
        # then the lowest row index, so reruns take identical paths
        cand = rows[steps <= theta + 1e-12]
        if cand.size > 1:
            cand = cand[np.lexsort((cand, -np.abs(w[cand])))]
        return max(theta, 0.0), int(cand[0])

    # -- pivoting ------------------------------------------------------------

    def _apply_pivot(self, j, direction, w, theta, r):
        if theta != 0.0:
            self.xb -= direction * theta * w
            self.xval[self.basis] = self.xb
            self.xval[j] = self.xval[j] + direction * theta
        if r is None:
            # bound flip: variable walked to its other bound
            self.vstat[j] = AT_UP if self.vstat[j] == AT_LO else AT_LO
            self.xval[j] = self.hi[j] if self.vstat[j] == AT_UP else self.lo[j]
            self._refresh_masks(j)
            return
        leaving = self.basis[r]
        if abs(w[r]) < PIVOT_TOL:
            raise NumericalFailure("pivot element below tolerance")
        # classify which bound the leaving variable stopped at
        lv = self.xval[leaving]
        if np.isfinite(self.lo[leaving]) and \
                abs(lv - self.lo[leaving]) <= abs(lv - self.hi[leaving]):
            self.vstat[leaving] = AT_LO
            self.xval[leaving] = self.lo[leaving]
        else:
            self.vstat[leaving] = AT_UP
            self.xval[leaving] = self.hi[leaving]
        self.basis[r] = j
        self.vstat[j] = BASIC
        self.xb[r] = self.xval[j]
        self._refresh_masks(j)
        self._refresh_masks(leaving)
        # rank-1 update of the inverse; rows where w is zero keep their values
        piv = self.Binv[r, :] / w[r]
        nz = np.flatnonzero(w)
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
                cb = self.c[self.basis]
            y = cb @ self.Binv
            d = self._reduced_costs(c, y)
            d[self.basis] = 0.0
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
            if not np.isfinite(theta):
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
        """
        if (self.lo > self.hi).any():
            return LpSolution(INFEASIBLE)
        self._start(basis)
        n, m = self.n, self.m
        infeasible = (
            (self.xb < self.lo[self.basis] - FEAS_TOL).any()
            or (self.xb > self.hi[self.basis] + FEAS_TOL).any()
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
        y = self.c[self.basis] @ self.Binv if m else np.zeros(0)
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
        )
