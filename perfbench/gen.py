"""Frozen instance generator for the benchmark.

A copy of the ``planted_formula`` + ``conflicted_weighted_instance`` recipe
used by the test suite, kept here on purpose: the benchmark's inputs must
not drift when the tests' helpers change, and the benchmark must not vouch
for itself through the package it measures.  It draws from the RNG in the
same order as the recipe it copies, so a seed gives the same clauses.

Output is the 2022 WCNF dialect (``h`` marks hard clauses), hard clauses
first, in the order :func:`fps_maxsat.formula.write_wcnf` would emit them.
"""

from __future__ import annotations

import random
from typing import List, Tuple

# (is_hard, weight, literals); weight is 0 for hard clauses.
Clause = Tuple[bool, int, List[int]]


def _random_clause(rng: random.Random, n: int, max_len: int = 3) -> List[int]:
    k = rng.randint(1, min(max_len, n))
    variables = rng.sample(range(1, n + 1), k)
    return [v if rng.random() < 0.5 else -v for v in variables]


def conflicted_weighted_instance(
    seed: int,
    n: int,
    m_hard: int,
    m_soft: int,
    num_conflicts: int,
    max_weight: int = 9,
) -> List[Clause]:
    """Planted-satisfiable hard part plus weighted soft clauses.

    ``num_conflicts`` pairs of contradictory weighted soft units make the
    optimum strictly positive.  Clauses never repeat a variable, so none is
    a tautology and none needs normalising.
    """
    rng = random.Random(seed)
    planted = [rng.random() < 0.5 for _ in range(n)]
    hard: List[Clause] = []
    for _ in range(m_hard):
        lits = _random_clause(rng, n)
        if not any((lit > 0) == planted[abs(lit) - 1] for lit in lits):
            j = rng.randrange(len(lits))
            v = abs(lits[j])
            lits[j] = v if planted[v - 1] else -v
        hard.append((True, 0, lits))
    soft: List[Clause] = []
    for _ in range(m_soft):
        lits = _random_clause(rng, n)
        soft.append((False, rng.randint(1, max_weight), lits))
    for v in rng.sample(range(1, n + 1), min(num_conflicts, n)):
        soft.append((False, rng.randint(1, max_weight), [v]))
        soft.append((False, rng.randint(1, max_weight), [-v]))
    return hard + soft


def to_wcnf(clauses: List[Clause]) -> bytes:
    """2022-dialect WCNF text of ``clauses``."""
    lines = []
    for is_hard, weight, lits in clauses:
        prefix = "h" if is_hard else str(weight)
        lines.append(prefix + " " + " ".join(map(str, lits)) + " 0")
    return ("\n".join(lines) + "\n").encode("ascii")


def cost_of(clauses: List[Clause], bits: str) -> float:
    """From-scratch cost of a 0/1 model string; ``inf`` if a hard clause fails.

    Independent of :mod:`fps_maxsat.formula`, so the solver's own
    evaluator cannot vouch for its output.
    """
    cost = 0
    for is_hard, weight, lits in clauses:
        for lit in lits:
            if (bits[abs(lit) - 1] == "1") == (lit > 0):
                break
        else:
            if is_hard:
                return float("inf")
            cost += weight
    return cost
