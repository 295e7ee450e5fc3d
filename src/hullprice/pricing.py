"""Pricing routes and uplift accounting.

Three price vectors can be read off the same instance:

* convex hull prices: duals of the load-balance rows of the interval-space
  system LP (no integrality needed; the LP optimum is the Lagrangian dual
  bound, so these duals minimize total uplift);
* fixed-commitment prices: duals of the commitment-space dispatch LP with
  u, v frozen at the system MIP optimum (the classic restricted pricing
  run);
* relaxation prices: duals of the commitment-space LP with the binaries
  merely relaxed to [0, 1].

The uplift of one unit under prices pi is its best achievable profit
against pi (by the per-unit dynamic program) minus the profit the awarded
schedule earns at those prices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .bnb import MipProblem, solve_mip
from .formulations import (assemble_2bin, assemble_meuc, map_to_schedule,
                           meuc_row_count)
from .lp import OPTIMAL, check_rows, solve_lp, verify_duality, with_bounds
from .ucdp import profit_max

METHODS = ("chp", "tlmp", "2bin-lp")


class SolveFailure(RuntimeError):
    """The system MIP or LP did not reach a usable optimum."""


@dataclass(frozen=True)
class GenUplift:
    generator: str
    best_profit: float   # the unit's own optimal profit against the prices
    iso_profit: float    # profit of the awarded schedule at the prices
    uplift: float


@dataclass(frozen=True)
class PricingReport:
    method: str
    prices: tuple
    z_qip: float
    relaxation_objective: float
    rows: tuple
    total_uplift: float


@dataclass(frozen=True)
class Comparison:
    tlmp: PricingReport
    chp: PricingReport
    gap_tm: float


@dataclass(frozen=True)
class CommitmentResult:
    objective: float
    schedules: dict
    model: object
    mip: object


def system_model(instance):
    """The interval-space system model. Raises NumericalFailure, before
    assembling anything, if its LP would be over the row limit."""
    check_rows(meuc_row_count(instance))
    return assemble_meuc(instance)


def solve_commitment(instance, gap_tol=1e-6, node_limit=10 ** 6):
    """System MIP on the interval-space encoding; schedules per unit."""
    meuc = system_model(instance)
    res = solve_mip(MipProblem(meuc.lp, meuc.integer_cols),
                    gap_tol=gap_tol, node_limit=node_limit)
    if res.status == "Infeasible":
        raise SolveFailure("commitment problem is infeasible")
    if res.status != "Optimal":
        detail = f"gap {res.gap:.3g}" if res.primal else \
            f"no incumbent, bound {res.bound:.6g}"
        raise SolveFailure(f"commitment solve stopped at {res.status} "
                           f"({detail})")
    schedules = {gen.id: map_to_schedule(gen, meuc.blocks[gen.id], res.primal)
                 for gen in instance.generators}
    return CommitmentResult(objective=res.objective, schedules=schedules,
                            model=meuc, mip=res)


def _balance_duals(model, sol, what):
    """Certified load-balance duals of model.lp and its optimal value.

    Raises SolveFailure unless ``sol`` is Optimal and passes
    verify_duality, so every published price vector carries its
    optimality certificate.
    """
    if sol.status != OPTIMAL:
        raise SolveFailure(f"{what} is {sol.status}")
    cert = verify_duality(model.lp, sol)
    if not cert.ok:
        raise SolveFailure(f"{what} fails its duality check: residuals "
                           f"primal {cert.primal_residual:.3g}, dual "
                           f"{cert.dual_residual:.3g}, complementarity "
                           f"{cert.complementarity:.3g}")
    return tuple(sol.duals[r] for r in model.load_balance_rows), sol.objective


def price_chp(instance):
    """Convex hull prices and the relaxation objective they certify."""
    meuc = system_model(instance)
    return _balance_duals(meuc, solve_lp(meuc.lp), "system LP")


def _fix_commitment(model, instance, schedules):
    """The model with its u, v columns frozen at the awarded schedules."""
    fixes = {}
    for gen in instance.generators:
        tv = model.blocks[gen.id]
        sch = schedules[gen.id]
        for t in range(1, instance.T + 1):
            fixes[tv.u[t]] = (float(sch.u[t - 1]), float(sch.u[t - 1]))
            fixes[tv.v[t]] = (float(sch.v[t - 1]), float(sch.v[t - 1]))
    return replace(model, lp=with_bounds(model.lp, fixes))


def price_tlmp(instance, commitment=None):
    """Fixed-commitment dispatch duals at the system MIP optimum."""
    if commitment is None:
        commitment = solve_commitment(instance)
    fixed = _fix_commitment(assemble_2bin(instance), instance,
                            commitment.schedules)
    prices, _ = _balance_duals(fixed, solve_lp(fixed.lp),
                               "fixed-commitment dispatch LP")
    return prices, commitment


def price_2bin_relaxation(instance):
    """Duals of the commitment-space LP relaxation (no integrality)."""
    model = assemble_2bin(instance)
    return _balance_duals(model, solve_lp(model.lp), "commitment-space LP")


def uplift(instance, prices, schedules):
    """Per-unit uplift rows under the given prices and awarded schedules."""
    rows = []
    for gen in instance.generators:
        sch = schedules[gen.id]
        iso = sum(p * x for p, x in zip(prices, sch.x)) - sch.cost
        best, _ = profit_max(gen, prices)
        rows.append(GenUplift(generator=gen.id, best_profit=best,
                              iso_profit=iso, uplift=best - iso))
    return tuple(rows)


def _method_report(instance, method, commitment):
    """The PricingReport of ``method`` at the awarded ``commitment``.

    The "chp" prices are read off the root relaxation of the commitment
    branch and bound, which is the LP price_chp solves.
    """
    if method == "chp":
        prices, relax = _balance_duals(commitment.model, commitment.mip.root,
                                       "system LP")
    elif method == "tlmp":
        prices, _ = price_tlmp(instance, commitment)
        relax = commitment.objective
    else:
        prices, relax = price_2bin_relaxation(instance)
    rows = uplift(instance, prices, commitment.schedules)
    return PricingReport(method=method, prices=tuple(prices),
                         z_qip=commitment.objective,
                         relaxation_objective=relax, rows=rows,
                         total_uplift=sum(r.uplift for r in rows))


def price(instance, method, gap_tol=1e-6, node_limit=10 ** 6):
    """One PricingReport for method "chp", "tlmp", or "2bin-lp"."""
    if method not in METHODS:
        raise ValueError(f"unknown pricing method {method!r}")
    commitment = solve_commitment(instance, gap_tol, node_limit)
    return _method_report(instance, method, commitment)


def compare(instance, gap_tol=1e-6, node_limit=10 ** 6):
    """TLMP and convex hull reports on a shared awarded commitment."""
    commitment = solve_commitment(instance, gap_tol, node_limit)
    rep_t = _method_report(instance, "tlmp", commitment)
    rep_c = _method_report(instance, "chp", commitment)
    if rep_t.total_uplift > 1e-12:
        gap_tm = (rep_t.total_uplift - rep_c.total_uplift) / rep_t.total_uplift
    else:
        gap_tm = 0.0
    return Comparison(tlmp=rep_t, chp=rep_c, gap_tm=gap_tm)


def lagrangian_value(instance, prices):
    """pi.d minus the summed per-unit optimal profits against pi.

    Weak duality puts this at or below the MIP optimum for every price
    vector; at the convex hull prices it attains the system LP value.
    """
    total = sum(p * d for p, d in zip(prices, instance.demand))
    for gen in instance.generators:
        best, _ = profit_max(gen, prices)
        total -= best
    return total


# ---------------------------------------------------------------------------
# CSV rendering (deterministic: fixed column order, %.10g floats)


def fmt(v):
    """A number as %.10g with -0.0 shown as 0; None is the empty cell."""
    return "" if v is None else f"{float(v) + 0.0:.10g}"


def prices_csv(reports):
    lines = ["method,period,price"]
    for rep in reports:
        for t, p in enumerate(rep.prices, start=1):
            lines.append(f"{rep.method},{t},{fmt(p)}")
    return "\n".join(lines) + "\n"


def uplift_csv(reports):
    lines = ["method,generator,best_profit,iso_profit,uplift"]
    for rep in reports:
        for r in rep.rows:
            lines.append(",".join([rep.method, r.generator,
                                   fmt(r.best_profit), fmt(r.iso_profit),
                                   fmt(r.uplift)]))
    return "\n".join(lines) + "\n"


def summary_csv(reports, gap_tm=None):
    lines = ["method,total_uplift,z_qip,relaxation_obj,gap_tm"]
    for rep in reports:
        g = gap_tm if rep.method == "tlmp" else None
        lines.append(",".join([rep.method, fmt(rep.total_uplift),
                               fmt(rep.z_qip), fmt(rep.relaxation_objective),
                               fmt(g)]))
    return "\n".join(lines) + "\n"
