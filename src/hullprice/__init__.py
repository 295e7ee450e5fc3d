"""Convex hull pricing for multi-generator unit commitment.

The package builds an integral interval-space LP per generator, assembles
the system program with load-balance rows, reads convex hull prices off
the LP duals, and cross-checks everything against a per-unit dynamic
program and brute-force enumeration.
"""

from .model import (CostPiece, Diagnostic, DurationCostFn, GeneratorSpec,
                    InitialState, ParseError, PeriodCost, Schedule,
                    SystemInstance, ValidationError, load_instance,
                    parse_instance, save_instance, validate)
from .lp import (LinearProgram, LpBuilder, LpSolution, NumericalFailure,
                 dump_lp, solve_lp, verify_duality, with_bounds)
from .ucdp import (EnumerationTooLarge, brute_force_uc, profit_max, run_dp,
                   solve_ed)
from .formulations import (FractionalSolution, IndexSets, SystemModel,
                           assemble_2bin, assemble_meuc, build_2bin,
                           build_euc, enumerate_index_sets, map_to_schedule)
from .bnb import MipProblem, MipSolution, solve_mip
from .pricing import (Comparison, GenUplift, PricingReport, SolveFailure,
                      compare, lagrangian_value, price, price_2bin_relaxation,
                      price_chp, price_tlmp, solve_commitment, uplift)
from .samples import demo_instance, random_generator, random_instance, \
    random_prices

__version__ = "0.1.0"

__all__ = [
    "CostPiece", "Diagnostic", "DurationCostFn", "GeneratorSpec",
    "InitialState", "ParseError", "PeriodCost", "Schedule", "SystemInstance",
    "ValidationError", "load_instance", "parse_instance", "save_instance",
    "validate",
    "LinearProgram", "LpBuilder", "LpSolution", "NumericalFailure",
    "dump_lp", "solve_lp", "verify_duality", "with_bounds",
    "EnumerationTooLarge", "brute_force_uc", "profit_max", "run_dp",
    "solve_ed",
    "FractionalSolution", "IndexSets", "SystemModel", "assemble_2bin",
    "assemble_meuc", "build_2bin", "build_euc", "enumerate_index_sets",
    "map_to_schedule",
    "MipProblem", "MipSolution", "solve_mip",
    "Comparison", "GenUplift", "PricingReport", "SolveFailure", "compare",
    "lagrangian_value", "price", "price_2bin_relaxation", "price_chp",
    "price_tlmp", "solve_commitment", "uplift",
    "demo_instance", "random_generator", "random_instance", "random_prices",
    "__version__",
]
