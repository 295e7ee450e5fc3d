"""Spans around each layer's entry points, and the per-layer report.

``Tracer.install`` replaces each entry point in the namespace where its
caller looks it up (``pricing.solve_mip``, ``bnb.solve_lp``,
``ucdp.solve_ed``, the ``Simplex`` methods, ...) with a wrapper that
records one span: name, start, end, parent and a note taken from the
return value (LP iterations, B&B nodes, LP size). Spans stay in memory
until the run ends. ``uninstall`` puts every original back.

A span's self time is its duration minus the durations of its children;
calls are single-threaded and nest, so children never overlap.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from hullprice import bnb, cli, lp, pricing, simplex, ucdp

NAME, START, END, PARENT, NOTE = range(5)

ROOT = "op"   # the harness's span around one whole operation


def _lp_note(args, kwargs, sol):
    return {"iterations": sol.iterations,
            "warm": kwargs.get("basis") is not None}


def _lp_size(args, kwargs, model):
    m = model.lp
    return {"rows": m.n_rows, "nnz": sum(len(r[0]) for r in m.rows)}


def _identity(args, kwargs, cmp):
    chp = cmp.chp
    return {"identity_err": abs(chp.total_uplift
                                - (chp.z_qip - chp.relaxation_objective))}


def _simplex_rows(args, kwargs, _):
    return {"rows": args[0].m}


# (owner, attribute, span name, note from (args, kwargs, return value))
ENTRY_POINTS = (
    (cli, "main", "cli.main", None),
    (cli, "load_instance", "model.load_instance", None),
    (cli, "validate", "model.validate", None),
    (pricing, "compare", "pricing.compare", _identity),
    (pricing, "solve_commitment", "pricing.solve_commitment", None),
    (pricing, "price_tlmp", "pricing.price_tlmp", None),
    (pricing, "price_chp", "pricing.price_chp", None),
    (pricing, "uplift", "pricing.uplift", None),
    (pricing, "assemble_meuc", "formulations.assemble_meuc", _lp_size),
    (pricing, "assemble_2bin", "formulations.assemble_2bin", _lp_size),
    (pricing, "map_to_schedule", "formulations.map_to_schedule", None),
    (pricing, "solve_mip", "bnb.solve_mip",
     lambda a, k, res: {"nodes": res.node_count}),
    (pricing, "solve_lp", "lp.solve_lp", _lp_note),
    (bnb, "solve_lp", "lp.solve_lp", _lp_note),
    (ucdp, "solve_lp", "lp.solve_lp", _lp_note),
    (pricing, "with_bounds", "lp.with_bounds", None),
    (bnb, "with_bounds", "lp.with_bounds", None),
    (lp.LpBuilder, "build", "lp.build", None),
    (lp.LinearProgram, "matrix", "lp.matrix", None),
    (simplex.Simplex, "__init__", "simplex.init", _simplex_rows),
    (simplex.Simplex, "solve", "simplex.solve", None),
    (pricing, "profit_max", "ucdp.profit_max", None),
    (ucdp, "profit_max", "ucdp.profit_max", None),
    (ucdp, "run_dp", "ucdp.run_dp", None),
    (ucdp, "solve_ed", "ucdp.solve_ed", None),
    (ucdp, "extract_schedule", "ucdp.extract_schedule", None),
)

# counted, not spanned: one interval-cost lookup of the DP memo
MEMO_LOOKUP = (ucdp.IntervalCostCache, "result")

LAYERS = ("cli", "model", "pricing", "formulations", "bnb", "ucdp", "lp",
          "simplex")


class Tracer:
    def __init__(self):
        self.spans = []
        self.memo_lookups = 0
        self._stack = []
        self._saved = []

    def span(self, name, fn, note=None):
        """Wrap fn so every call records one span."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[NOTE] = {"raised": type(exc).__name__,
                             "warm": kwargs.get("basis") is not None}
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if note is not None:
                rec[NOTE] = note(args, kwargs, out)
            return out
        return wrapper

    def _count_lookups(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.memo_lookups += 1
            return fn(*args, **kwargs)
        return wrapper

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        for owner, attr, name, note in ENTRY_POINTS:
            self._replace(owner, attr,
                          self.span(name, getattr(owner, attr), note))
        owner, attr = MEMO_LOOKUP
        self._replace(owner, attr, self._count_lookups(getattr(owner, attr)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _outermost(spans, names):
    """Total duration of spans in names that have no ancestor in names."""
    total = 0.0
    inside = [False] * len(spans)
    for i, s in enumerate(spans):
        hit = s[NAME] in names
        parent_inside = s[PARENT] >= 0 and inside[s[PARENT]]
        inside[i] = hit or parent_inside
        if hit and not parent_inside:
            total += s[END] - s[START]
    return total


def layer_report(spans, memo_lookups):
    """Per-layer self times, counts and ratios from one traced pass."""
    n = len(spans)
    child = [0.0] * n
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    calls = defaultdict(int)
    total = defaultdict(float)
    self_t = defaultdict(float)
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        calls[s[NAME]] += 1
        total[s[NAME]] += dur
        self_t[s[NAME]] += dur - child[i]
    wall = total[ROOT]

    def note_values(name, key, parent_name=None):
        for s in spans:
            if s[NAME] != name or not s[NOTE] or key not in s[NOTE]:
                continue
            if parent_name is not None and (
                    s[PARENT] < 0 or spans[s[PARENT]][NAME] != parent_name):
                continue
            yield s[NOTE][key]

    def ratio(a, b):
        return a / b if b else 0.0

    iterations = sum(note_values("lp.solve_lp", "iterations"))
    warm = [s for s in spans if s[NAME] == "lp.solve_lp" and s[NOTE]
            and s[NOTE].get("warm")]
    nodes = sum(note_values("bnb.solve_mip", "nodes"))
    ed_calls = calls["ucdp.solve_ed"]
    m = {
        "simplex.solve_s": self_t["simplex.solve"],
        "simplex.init_s": self_t["simplex.init"],
        "simplex.rows_max": max(note_values("simplex.init", "rows"),
                                default=0),
        "lp.us_per_iteration": 1e6 * ratio(self_t["simplex.solve"],
                                           iterations),
        "lp.matrix_s": self_t["lp.matrix"],
        "lp.build_s": self_t["lp.build"],
        "lp.solve_self_s": self_t["lp.solve_lp"],
        "lp.solve_calls": calls["lp.solve_lp"],
        "lp.iterations": iterations,
        "lp.warm_calls": len(warm),
        "lp.warm_fallbacks": sum(1 for s in warm if "raised" in s[NOTE]),
        "bnb.nodes": nodes,
        "bnb.solve_self_s": self_t["bnb.solve_mip"],
        "bnb.iterations_per_node": ratio(
            sum(note_values("lp.solve_lp", "iterations", "bnb.solve_mip")),
            nodes),
        "ucdp.run_dp_self_s": self_t["ucdp.run_dp"],
        "ucdp.solve_ed_calls": ed_calls,
        "ucdp.solve_ed_s": total["ucdp.solve_ed"],
        "ucdp.ed_per_dp": ratio(ed_calls, calls["ucdp.run_dp"]),
        "ucdp.iterations_per_ed": ratio(
            sum(note_values("lp.solve_lp", "iterations", "ucdp.solve_ed")),
            ed_calls),
        "ucdp.ed_memo_hit_ratio": ratio(memo_lookups - ed_calls,
                                        memo_lookups),
        "formulations.assemble_meuc_s": total["formulations.assemble_meuc"],
        "formulations.assemble_2bin_s": total["formulations.assemble_2bin"],
        "formulations.meuc_rows_max": max(
            note_values("formulations.assemble_meuc", "rows"), default=0),
        "formulations.meuc_nnz_max": max(
            note_values("formulations.assemble_meuc", "nnz"), default=0),
        "pricing.solve_commitment_s": total["pricing.solve_commitment"],
        "pricing.price_chp_s": total["pricing.price_chp"],
        "pricing.price_tlmp_s": total["pricing.price_tlmp"],
        "pricing.uplift_s": total["pricing.uplift"],
        "pricing.identity_err_max": max(
            note_values("pricing.compare", "identity_err"), default=0.0),
        "model.load_s": total["model.load_instance"]
        + total["model.validate"],
        "ucdp.wall_frac": ratio(_outermost(spans, {
            "ucdp.profit_max", "ucdp.run_dp", "ucdp.solve_ed",
            "ucdp.extract_schedule"}), wall),
        "bnb_chp.wall_frac": ratio(_outermost(spans, {
            "bnb.solve_mip", "pricing.price_chp"}), wall),
        "trace.spans": n,
        "trace.ops": calls[ROOT],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_t.items()
                                   if k.split(".")[0] == layer)
    return m
