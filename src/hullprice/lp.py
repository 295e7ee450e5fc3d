"""Linear program container, solver front end, duality checks, text dump.

Dual sign convention for ``min c.x``: duals of ``<=`` rows are <= 0, duals
of ``>=`` rows are >= 0, duals of ``=`` rows are free. Reduced costs are
reported for the structural variables only and are exactly zero on the
basic ones.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

# the engine's result type and status words are re-exported from here
from .simplex import (INFEASIBLE, OPTIMAL, UNBOUNDED,  # noqa: F401
                      LpSolution, NumericalFailure, Simplex, check_rows)

SENSES = ("<=", ">=", "=")

DUALITY_TOL = 1e-6


@dataclass(frozen=True)
class LinearProgram:
    """min objective.x subject to rows and variable bounds.

    Each row is ``(coeffs, sense, rhs)`` with ``coeffs`` a tuple of
    ``(var_index, coefficient)`` pairs. Construction validates the rows and
    decodes them once into the CSC matrix ``A``, its CSR transpose ``AT``,
    the ``rhs`` and ``sense`` arrays, and the bounds ``slack_lo`` /
    ``slack_hi`` of the simplex's one slack column per row; copies made by
    ``with_bounds`` share them.
    """

    n_vars: int
    objective: tuple[float, ...]
    rows: tuple = ()
    var_lo: tuple[float, ...] = ()
    var_hi: tuple[float, ...] = ()
    row_labels: tuple[str, ...] = ()
    var_labels: tuple[str, ...] = ()
    A: scipy.sparse.csc_matrix = field(init=False, repr=False, compare=False)
    rhs: np.ndarray = field(init=False, repr=False, compare=False)
    sense: np.ndarray = field(init=False, repr=False, compare=False)
    AT: scipy.sparse.csr_matrix = field(init=False, repr=False,
                                        compare=False)
    slack_lo: np.ndarray = field(init=False, repr=False, compare=False)
    slack_hi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n_vars
        if len(self.objective) != n:
            raise ValueError("objective length != n_vars")
        object.__setattr__(self, "var_lo",
                           self.var_lo or tuple([-math.inf] * n))
        object.__setattr__(self, "var_hi",
                           self.var_hi or tuple([math.inf] * n))
        if len(self.var_lo) != n or len(self.var_hi) != n:
            raise ValueError("bound vectors must have n_vars entries")
        coeffs, senses, rhs = zip(*self.rows) if self.rows else ((), (), ())
        unknown = [s for s in senses if s not in SENSES]
        if unknown:
            raise ValueError(f"unknown row sense {unknown[0]!r}")
        rhs = np.array(rhs, dtype=float)
        if not np.isfinite(rhs).all():
            raise ValueError("row rhs must be finite")
        entries = list(chain.from_iterable(coeffs))
        cols, vals = zip(*entries) if entries else ((), ())
        cols = np.array(cols, dtype=np.intp)
        out = (cols < 0) | (cols >= n)
        if out.any():
            raise ValueError(f"variable index {cols[out][0]} out of range")
        vals = np.array(vals, dtype=float)
        if not np.isfinite(vals).all():
            raise ValueError("row coefficient must be finite")
        if self.row_labels and len(self.row_labels) != len(self.rows):
            raise ValueError("row_labels length mismatch")
        if self.var_labels and len(self.var_labels) != n:
            raise ValueError("var_labels length mismatch")
        # scipy loads with the first LP built: callers that only run the
        # DP (profit_max) never need it, and it is about 20 MB of RSS
        from scipy.sparse import csc_matrix
        # entries arrive row by row; a stable sort by column gives CSC order
        m = len(coeffs)
        row_of = np.repeat(np.arange(m), [len(c) for c in coeffs])
        order = np.argsort(cols, kind="stable")
        indptr = np.concatenate(([0],
                                 np.cumsum(np.bincount(cols, minlength=n))))
        A = csc_matrix((vals[order], row_of[order], indptr), shape=(m, n))
        A.sum_duplicates()  # repeated (row, column) pairs add up
        sense = np.array(senses, dtype="<U2")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "sense", sense)
        # a view sharing A's arrays (each costs ~30 us to make)
        object.__setattr__(self, "AT", A.T)
        # ``<=`` rows give s in [0, inf), ``>=`` rows (-inf, 0], ``=`` 0
        object.__setattr__(self, "slack_lo",
                           np.where(sense == ">=", -np.inf, 0.0))
        object.__setattr__(self, "slack_hi",
                           np.where(sense == "<=", np.inf, 0.0))

    @property
    def n_rows(self):
        return len(self.rows)

    def row_label(self, i):
        return self.row_labels[i] if self.row_labels else f"r{i}"

    def var_label(self, j):
        return self.var_labels[j] if self.var_labels else f"x{j}"

    def matrix(self):
        """Structural coefficient matrix as scipy CSC (shared, not a copy)."""
        return self.A


class LpBuilder:
    """Incremental LP assembly with named variables and labelled rows."""

    def __init__(self):
        self._obj = []
        self._lo = []
        self._hi = []
        self._vnames = []
        self._index = {}
        self._rows = []
        self._rlabels = []

    def add_var(self, name, lo=-math.inf, hi=math.inf, obj=0.0):
        if name in self._index:
            raise ValueError(f"duplicate variable {name!r}")
        j = len(self._vnames)
        self._index[name] = j
        self._vnames.append(name)
        self._lo.append(lo)
        self._hi.append(hi)
        self._obj.append(obj)
        return j

    def set_bounds(self, name, lo, hi):
        j = self._index[name]
        self._lo[j] = lo
        self._hi[j] = hi

    def add_obj(self, key, coef):
        j = key if isinstance(key, int) else self._index[key]
        self._obj[j] += coef

    def add_row(self, coeffs, sense, rhs, label):
        """coeffs: iterable of (variable name or column index, coefficient).

        Repeated variables are merged; zero coefficients are kept out of
        the stored row.
        """
        acc = {}
        for key, a in coeffs:
            j = key if isinstance(key, int) else self._index[key]
            acc[j] = acc.get(j, 0.0) + a
        packed = tuple((j, a) for j, a in sorted(acc.items()) if a != 0.0)
        self._rows.append((packed, sense, float(rhs)))
        self._rlabels.append(label)
        return len(self._rows) - 1

    def build(self):
        return LinearProgram(
            n_vars=len(self._vnames),
            objective=tuple(self._obj),
            rows=tuple(self._rows),
            var_lo=tuple(self._lo),
            var_hi=tuple(self._hi),
            row_labels=tuple(self._rlabels),
            var_labels=tuple(self._vnames),
        )


def with_bounds(lp, updates):
    """Copy of ``lp`` with variable bounds overridden.

    updates maps column index -> (lo, hi). Rows, objective and the decoded
    constraint arrays are shared, not rebuilt.
    """
    lo = list(lp.var_lo)
    hi = list(lp.var_hi)
    for j, (l, h) in updates.items():
        lo[j] = l
        hi[j] = h
    out = copy.copy(lp)
    object.__setattr__(out, "var_lo", tuple(lo))
    object.__setattr__(out, "var_hi", tuple(hi))
    return out


def solve_lp(lp, maxiter=None, basis=None):
    """Solve with the bounded-variable primal simplex; exact basic duals.

    maxiter defaults to 50 * (n_vars + n_rows). Raises NumericalFailure if
    the pivot loop exceeds it. basis is an earlier solution's ``basis``.
    """
    return Simplex(lp, maxiter).solve(basis)


@dataclass(frozen=True)
class DualityReport:
    primal_residual: float
    dual_residual: float
    complementarity: float
    objective_gap: float
    ok: bool
    notes: tuple[str, ...] = ()


def verify_duality(lp, sol):
    """Check an Optimal solution against its certificate.

    Verifies primal feasibility, dual feasibility (reduced-cost and row-dual
    signs), complementary slackness, and the strong-duality identity
    ``c.x = b.y + sum_j rc_j x_j`` (the sum carries the variable-bound
    contributions). Residuals are compared against ``DUALITY_TOL`` scaled
    by the magnitude of the data they involve.
    """
    if sol.status != OPTIMAL:
        raise ValueError("verify_duality expects an Optimal solution")
    tol = DUALITY_TOL
    x = np.asarray(sol.primal)
    y = np.asarray(sol.duals)
    rc = np.asarray(sol.reduced_costs)
    lo = np.asarray(lp.var_lo, dtype=float)
    hi = np.asarray(lp.var_hi, dtype=float)
    le, ge = lp.sense == "<=", lp.sense == ">="
    A = lp.matrix()
    notes = []

    slack = lp.rhs - A @ x
    row_viol = np.where(le, -slack, np.where(ge, slack, np.abs(slack)))
    primal = max(0.0, float(np.max(row_viol, initial=0.0)),
                 float(np.max(lo - x, initial=0.0)),
                 float(np.max(x - hi, initial=0.0)))
    comp = float(np.max(np.abs(y * slack), initial=0.0))

    dual = max(0.0, float(np.max(y[le], initial=0.0)),
               float(np.max(-y[ge], initial=0.0)))
    rc_exact = np.asarray(lp.objective) - A.T @ y
    dual = max(dual, float(np.max(np.abs(rc - rc_exact), initial=0.0)))
    at_lo = np.isfinite(lo) & (x - lo <= 1e-7)
    at_up = np.isfinite(hi) & (hi - x <= 1e-7)
    interior = ~at_lo & ~at_up
    # a fixed variable (at both bounds) may carry any reduced cost
    col_viol = np.where(at_lo, -rc, np.where(at_up, rc, np.abs(rc)))
    dual = max(dual, float(np.max(col_viol[~(at_lo & at_up)], initial=0.0)))
    for j in np.flatnonzero(interior & (np.abs(rc) > tol)):
        notes.append(f"nonzero reduced cost on interior variable "
                     f"{lp.var_label(j)}")

    cx = float(np.asarray(lp.objective) @ x)
    dual_obj = float(lp.rhs @ y) + float(rc @ x)
    gap = abs(cx - dual_obj)
    obj_gap_ok = gap <= tol * (1.0 + abs(cx))

    scale_b = 1.0 + float(np.max(np.abs(lp.rhs), initial=0.0)) + \
        float(np.max(np.abs(x), initial=0.0))
    scale_c = 1.0 + float(np.max(np.abs(lp.objective), initial=0.0)) + \
        float(np.max(np.abs(y), initial=0.0))
    ok = (primal <= tol * scale_b and dual <= tol * scale_c
          and comp <= tol * scale_b * scale_c and obj_gap_ok)
    return DualityReport(
        primal_residual=primal, dual_residual=dual, complementarity=comp,
        objective_gap=gap, ok=ok, notes=tuple(notes))


def _clean(label):
    return "".join(ch if not ch.isspace() else "_" for ch in label)


def dump_lp(lp, path, name="LP"):
    """Write a fixed-format text rendering (MPS layout) of the program."""
    lines = [f"NAME          {_clean(name)}", "ROWS", " N  COST"]
    sense_tag = {"<=": "L", ">=": "G", "=": "E"}
    rnames = [_clean(lp.row_label(i)) for i in range(lp.n_rows)]
    for sense, rname in zip(lp.sense.tolist(), rnames):
        lines.append(f" {sense_tag[sense]}  {rname}")
    lines.append("COLUMNS")
    A = lp.matrix()
    for j in range(lp.n_vars):
        vname = _clean(lp.var_label(j))
        lines.append(f"    {vname:<24}  {'COST':<24}  {lp.objective[j]!r}")
        col = slice(A.indptr[j], A.indptr[j + 1])
        for i, a in zip(A.indices[col].tolist(), A.data[col].tolist()):
            lines.append(f"    {vname:<24}  {rnames[i]:<24}  {a!r}")
    lines.append("RHS")
    for rname, rhs in zip(rnames, lp.rhs.tolist()):
        lines.append(f"    RHS  {rname:<24}  {rhs!r}")
    lines.append("BOUNDS")
    for j in range(lp.n_vars):
        vname = _clean(lp.var_label(j))
        lo, hi = lp.var_lo[j], lp.var_hi[j]
        if lo == hi:
            lines.append(f" FX BND  {vname:<24}  {lo!r}")
            continue
        if math.isinf(lo) and math.isinf(hi):
            lines.append(f" FR BND  {vname}")
            continue
        if math.isinf(lo):
            lines.append(f" MI BND  {vname}")
        else:
            lines.append(f" LO BND  {vname:<24}  {lo!r}")
        if math.isinf(hi):
            lines.append(f" PL BND  {vname}")
        else:
            lines.append(f" UP BND  {vname:<24}  {hi!r}")
    lines.append("ENDATA")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path
