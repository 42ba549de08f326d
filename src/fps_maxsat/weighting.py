"""Constants of the dynamic clause weighting scheme.

There are three: the weight and bump of hard clauses, the smoothing
probability and the cap on soft weights.  Both engines read them: the
Python engine (:mod:`fps_maxsat.engine`) and the compiled kernel, which
``solve`` runs without loading the Python one.
"""

from __future__ import annotations

import math

from ._record import FrozenRecord
from .formula import Formula


class WeightingParams(FrozenRecord):
    """Constants of the dynamic clause weighting scheme.

    A soft clause starts at its original weight and a hard clause at
    ``hard_weight``.  At a local optimum every falsified hard clause gains
    ``hard_weight`` and every falsified soft clause below ``soft_cap``
    gains 1.  With probability ``sp`` a weight update smooths instead:
    every satisfied clause above its initial weight loses 1.
    """

    __slots__ = ("hard_weight", "sp", "soft_cap")

    def __init__(
        self,
        hard_weight: int = 1,
        sp: float = 0.01,
        soft_cap: int = 100,
    ) -> None:
        self._set(hard_weight=hard_weight, sp=sp, soft_cap=soft_cap)
        if hard_weight < 1 or soft_cap < 1:
            raise ValueError("hard_weight and soft_cap must be >= 1")
        if not 0.0 <= sp <= 1.0:
            raise ValueError(f"smoothing probability out of range: {sp}")

    @classmethod
    def defaults_for(cls, formula: Formula) -> "WeightingParams":
        """Scheme constants keyed to the instance family.

        Unweighted: every weight starts at 1, cap 100.  Weighted: the cap
        is 10x the largest original weight, and the hard weight is the
        ceiling of the mean original soft weight.
        """
        weights = formula.soft_weight
        top = max(weights, default=0)
        if top <= 1:
            return cls()
        softs = len(weights) - weights.count(0)
        return cls(
            hard_weight=max(1, math.ceil(sum(weights) / softs)),
            soft_cap=10 * top,
        )
