"""Exact optimum for small instances by exhaustive enumeration.

Assignments are enumerated as integers whose bit ``v - 1`` is the value of
variable ``v``.  Enumeration is vectorised over blocks of assignments, with
clause falsification evaluated as boolean masks and costs accumulated in
unsigned 64-bit counters (the formula constructor guarantees the total soft
weight fits).  numpy is imported on the first call, so importing the
package (and the command line front end) does not load it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from .formula import INFEASIBLE, Formula

#: Refuse instances with more variables than this (2**26 assignments).
MAX_ENUM_VARS = 26

_BLOCK = 1 << 20


def exact_solve(
    formula: Formula,
) -> Tuple[Union[int, float], Optional[List[bool]]]:
    """Return ``(optimal_cost, witness)`` by trying every assignment.

    The witness is one assignment achieving the optimum (the lowest such
    assignment in bit order, so the result is deterministic), or None with
    cost :data:`INFEASIBLE` when no assignment satisfies the hard clauses.
    Raises ValueError when the formula has more than ``MAX_ENUM_VARS``
    variables, and ImportError when numpy is not installed.
    """
    try:
        import numpy as np
    except ImportError:
        raise ImportError(
            "the oracle needs numpy: pip install 'fps-maxsat[oracle]'"
        ) from None

    n = formula.num_vars
    if n > MAX_ENUM_VARS:
        raise ValueError(
            f"{n} variables exceed the enumeration limit {MAX_ENUM_VARS}"
        )
    if formula.has_empty_hard:
        return INFEASIBLE, None

    total = 1 << n
    best_cost: Optional[int] = None
    best_index = 0
    offset = formula.soft_offset

    for start in range(0, total, _BLOCK):
        stop = min(start + _BLOCK, total)
        indices = np.arange(start, stop, dtype=np.int64)
        # value[v] is a boolean column of variable v over the block
        value = {
            v: ((indices >> (v - 1)) & 1).astype(bool)
            for v in range(1, n + 1)
        }
        feasible = np.ones(len(indices), dtype=bool)
        cost = np.full(len(indices), offset, dtype=np.uint64)
        for clause, weight in zip(formula.clauses, formula.weights):
            falsified = None
            for lit in clause:
                col = value[abs(lit)]
                miss = ~col if lit > 0 else col
                falsified = miss if falsified is None else (falsified & miss)
            if not weight:
                feasible &= ~falsified
            else:
                cost += falsified * np.uint64(weight)
        if not feasible.any():
            continue
        feasible_costs = cost[feasible]
        feasible_indices = indices[feasible]
        j = int(np.argmin(feasible_costs))
        block_cost = int(feasible_costs[j])
        if best_cost is None or block_cost < best_cost:
            best_cost = block_cost
            best_index = int(feasible_indices[j])
            if best_cost == offset:
                # Every soft clause satisfied; nothing can be cheaper.
                break

    if best_cost is None:
        return INFEASIBLE, None
    witness = [bool((best_index >> (v - 1)) & 1) for v in range(1, n + 1)]
    return best_cost, witness
