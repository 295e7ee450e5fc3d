"""Command line front end.

Subcommands: validate, solve, price, compare. Exit codes: 0 success,
1 validation or solve failure, 2 parse/usage errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import pricing
from .bnb import MipProblem, solve_mip
from .formulations import FractionalSolution, assemble_meuc
from .lp import NumericalFailure, dump_lp
# validate is no longer called here (a load reports its own diagnostics);
# the name stays because perfbench/tracing.py wraps cli.validate
from .model import (ParseError, ValidationError, load_instance,  # noqa: F401
                    validate)
from .pricing import fmt
from .samples import random_instance
from .ucdp import run_dp


def _load(args):
    inst = load_instance(args.instance, quad_pieces=args.pieces)
    for d in inst.diagnostics:
        print(d, file=sys.stderr)
    return inst


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_validate(args):
    _load(args)
    print("ok")
    return 0


def _schedule_csv(instance, schedules):
    lines = ["generator,period,u,v,x"]
    for gen in instance.generators:
        sch = schedules[gen.id]
        for t in range(instance.T):
            lines.append(f"{gen.id},{t + 1},{sch.u[t]},{sch.v[t]},"
                         f"{fmt(sch.x[t])}")
    return "\n".join(lines) + "\n"


def cmd_solve(args):
    inst = _load(args)
    if args.dump_lp:
        meuc = assemble_meuc(inst)
        dump_lp(meuc.lp, args.dump_lp, name="system")
    commit = pricing.solve_commitment(inst, gap_tol=args.gap_tol,
                                      node_limit=args.node_limit)
    if args.format == "csv":
        text = f"z_qip,{fmt(commit.objective)}\n\n" + \
            _schedule_csv(inst, commit.schedules)
    else:
        lines = [f"objective: {fmt(commit.objective)}"]
        for gen in inst.generators:
            sch = commit.schedules[gen.id]
            lines.append(
                f"{gen.id}: u={sch.u} v={sch.v} "
                f"x=({', '.join(fmt(x) for x in sch.x)}) "
                f"cost={fmt(sch.cost)}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def _trace_dp(instance, prices, path):
    lines = ["generator,state,t,value,choice"]
    for gen in instance.generators:
        _, tables = run_dp(gen, prices)
        for t in sorted(tables.v_up):
            choice = tables.argmin.get(("up", t))
            lines.append(f"{gen.id},up,{t},{fmt(tables.v_up[t])},"
                         f"{':'.join(str(c) for c in choice)}")
        for t in sorted(tables.v_down):
            choice = tables.argmin.get(("down", t))
            lines.append(f"{gen.id},down,{t},{fmt(tables.v_down[t])},"
                         f"{':'.join(str(c) for c in choice)}")
        root = tables.argmin.get("root")
        lines.append(f"{gen.id},root,0,{fmt(tables.objective)},"
                     f"{':'.join(str(c) for c in root)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _pretty_report(rep):
    lines = [f"[{rep.method}] prices: "
             f"({', '.join(fmt(p) for p in rep.prices)})"]
    for r in rep.rows:
        lines.append(f"  {r.generator}: best profit {fmt(r.best_profit)}, "
                     f"schedule profit {fmt(r.iso_profit)}, "
                     f"uplift {fmt(r.uplift)}")
    lines.append(f"  total uplift {fmt(rep.total_uplift)} "
                 f"(commitment cost {fmt(rep.z_qip)}, "
                 f"relaxation {fmt(rep.relaxation_objective)})")
    return lines


def cmd_price(args):
    inst = _load(args)
    if args.dump_lp:
        meuc = assemble_meuc(inst)
        dump_lp(meuc.lp, args.dump_lp, name="system")
    rep = pricing.price(inst, args.method, gap_tol=args.gap_tol,
                        node_limit=args.node_limit)
    if args.trace_dp:
        _trace_dp(inst, rep.prices, args.trace_dp)
    if args.format == "csv":
        text = pricing.prices_csv([rep]) + "\n" + \
            pricing.uplift_csv([rep]) + "\n" + pricing.summary_csv([rep])
    else:
        text = "\n".join(_pretty_report(rep)) + "\n"
    _emit(text, args.out)
    return 0


def _compare_one(inst, args):
    cmp = pricing.compare(inst, gap_tol=args.gap_tol,
                          node_limit=args.node_limit)
    reps = [cmp.tlmp, cmp.chp]
    if args.format == "csv":
        return pricing.prices_csv(reps) + "\n" + pricing.uplift_csv(reps) + \
            "\n" + pricing.summary_csv(reps, gap_tm=cmp.gap_tm)
    lines = []
    for rep in reps:
        lines.extend(_pretty_report(rep))
    lines.append(f"uplift gap (tlmp vs chp): {fmt(cmp.gap_tm)}")
    return "\n".join(lines) + "\n"


def cmd_compare(args):
    if args.fuzz:
        rng = np.random.default_rng(args.seed)
        failures = 0
        for trial in range(args.fuzz):
            n_gens = int(rng.integers(2, 4))
            T = int(rng.integers(2, 6))
            inst = random_instance(rng, n_gens, T)
            try:
                cmp = pricing.compare(inst, gap_tol=args.gap_tol,
                                      node_limit=args.node_limit)
            except (pricing.SolveFailure, NumericalFailure) as exc:
                print(f"trial {trial:03d} FAIL solve: {exc}")
                failures += 1
                continue
            ident = abs(cmp.chp.total_uplift -
                        (cmp.chp.z_qip - cmp.chp.relaxation_objective))
            ordered = cmp.chp.total_uplift <= cmp.tlmp.total_uplift + 1e-6
            ok = ordered and ident <= 1e-6
            tag = "ok" if ok else "FAIL"
            print(f"trial {trial:03d} {tag} U_tlmp={cmp.tlmp.total_uplift:.6f} "
                  f"U_chp={cmp.chp.total_uplift:.6f} identity_err={ident:.2e}")
            failures += 0 if ok else 1
        print(f"{args.fuzz - failures}/{args.fuzz} trials passed")
        return 1 if failures else 0
    if not args.instance:
        print("compare: an --instance file or --fuzz count is required",
              file=sys.stderr)
        return 2
    inst = _load(args)
    _emit(_compare_one(inst, args), args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hullprice",
        description="Convex hull pricing for multi-generator unit "
                    "commitment via an integral interval-space LP.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_instance=True):
        p.add_argument("--instance", required=need_instance,
                       help="instance JSON file")
        p.add_argument("--pieces", type=int, default=10,
                       help="tangent count for quadratic cost conversion")

    def solver_opts(p):
        p.add_argument("--gap-tol", type=float, default=1e-6)
        p.add_argument("--node-limit", type=int, default=10 ** 6)
        p.add_argument("--format", choices=("csv", "pretty"),
                       default="pretty")
        p.add_argument("--out", help="write output to this file")

    p = sub.add_parser("validate", help="parse and validate an instance")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="solve the commitment MIP")
    common(p)
    solver_opts(p)
    p.add_argument("--dump-lp", help="write the system LP in text form")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("price", help="compute prices and uplift")
    common(p)
    solver_opts(p)
    p.add_argument("--method", choices=pricing.METHODS, required=True)
    p.add_argument("--dump-lp", help="write the system LP in text form")
    p.add_argument("--trace-dp",
                   help="write per-unit value tables at the final prices")
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("compare", help="TLMP vs convex hull prices")
    common(p, need_instance=False)
    solver_opts(p)
    p.add_argument("--fuzz", type=int, default=0,
                   help="run this many random systems instead of a file")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (pricing.SolveFailure, FractionalSolution,
            NumericalFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
