"""Incomplete (weighted) partial MaxSAT solving by stochastic local search.

The package is organised around six pieces:

- :mod:`fps_maxsat.formula`: immutable problem representation (clauses as
  tuples of signed integer literals, weights with 0 marking hard clauses),
  WCNF parsing (both the pre-2022 ``p wcnf`` header dialect and the 2022
  ``h``-prefix dialect), and a from-scratch cost oracle.
- :mod:`fps_maxsat.engine`: the mutable search state with incremental score
  and falsified-clause maintenance, a read-only one-flip look-ahead, and
  dynamic clause weighting.
- :mod:`fps_maxsat.solver`: the search loops.  A single-flip baseline and a
  two-level look-ahead strategy that samples falsified clauses, probes
  candidate first flips, and picks a partner flip distributed as the best
  of ``sv_num`` uniform draws (drawn in closed form, one draw per score
  level).  ``SolverConfig.mode`` picks one of the five named
  configurations in ``MODES``: the strategy, the baseline, or one of three
  ablations of the strategy's moving parts.
- :mod:`fps_maxsat._kernel`: the same step loop compiled from C, which
  ``solve`` uses when it can be built; it takes the same trajectory as the
  Python engine, which remains the reference and the fallback.
- :mod:`fps_maxsat.oracle`: exact optimum for small instances by exhaustive
  enumeration, used to validate the heuristics.  It needs numpy (the
  ``oracle`` extra) and imports it when called.
- :mod:`fps_maxsat.harness`/:mod:`fps_maxsat.cli`: evaluation tooling and the
  ``fps-maxsat`` command line front end.
"""

from .formula import (
    INFEASIBLE,
    Formula,
    ParseError,
    evaluate_cost,
    is_feasible,
    parse_wcnf,
    write_wcnf,
)
from .engine import SearchState, WeightingParams
from .solver import RunResult, RunStatus, SolverConfig, solve
from .oracle import exact_solve

__version__ = "0.1.0"

__all__ = [
    "INFEASIBLE",
    "Formula",
    "ParseError",
    "RunResult",
    "RunStatus",
    "SearchState",
    "SolverConfig",
    "WeightingParams",
    "evaluate_cost",
    "exact_solve",
    "is_feasible",
    "parse_wcnf",
    "solve",
    "write_wcnf",
]
