"""Constants of the dynamic clause weighting scheme.

Both engines read them: the Python engine (:mod:`fps_maxsat.engine`) and
the compiled kernel, which ``solve`` runs without loading the Python one.
"""

from __future__ import annotations

import math

from ._record import FrozenRecord
from .formula import Formula


class WeightingParams(FrozenRecord):
    """Constants of the dynamic clause weighting scheme.

    ``hard_init`` is the initial dynamic weight of hard clauses and
    ``soft_init_from_weight`` selects whether soft clauses start at their
    original weight (weighted scheme) or at 1 (unweighted scheme).
    Increments are applied to falsified clauses at local optima; a soft
    clause's weight is only incremented while below ``soft_cap``.  With
    probability ``sp`` a weight update smooths instead: every satisfied
    clause above its initial weight loses 1.
    """

    __slots__ = ("h_inc", "s_inc", "sp", "soft_cap", "hard_init",
                 "soft_init_from_weight")

    def __init__(
        self,
        h_inc: int = 1,
        s_inc: int = 1,
        sp: float = 0.01,
        soft_cap: int = 100,
        hard_init: int = 1,
        soft_init_from_weight: bool = False,
    ) -> None:
        self._set(h_inc=h_inc, s_inc=s_inc, sp=sp, soft_cap=soft_cap,
                  hard_init=hard_init,
                  soft_init_from_weight=soft_init_from_weight)
        if h_inc < 1 or s_inc < 1:
            raise ValueError("weight increments must be >= 1")
        if not 0.0 <= sp <= 1.0:
            raise ValueError(f"smoothing probability out of range: {sp}")
        if soft_cap < 1 or hard_init < 1:
            raise ValueError("soft_cap and hard_init must be >= 1")

    @classmethod
    def defaults_for(cls, formula: Formula) -> "WeightingParams":
        """Scheme constants keyed to the instance family.

        Unweighted: all weights start at 1, both increments 1, cap 100.
        Weighted: soft clauses start at their original weight with cap
        10x the largest original weight; hard clauses start at the ceiling
        of the mean original soft weight, which is also the hard increment.
        """
        weights = formula.soft_weight
        top = max(weights, default=0)
        if top <= 1:
            return cls()
        softs = len(weights) - weights.count(0)
        hard_init = max(1, math.ceil(sum(weights) / softs))
        cap = 10 * top
        return cls(
            h_inc=hard_init,
            s_inc=1,
            sp=0.01,
            soft_cap=cap,
            hard_init=hard_init,
            soft_init_from_weight=True,
        )
