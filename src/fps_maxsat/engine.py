"""Mutable search state with incremental score maintenance.

The state tracks, per clause, its dynamic weight and the number of satisfying
literals; per variable, the score (change in total dynamic weight of
satisfied clauses if that variable were flipped); and three index sets:
falsified hard clauses, falsified soft clauses, and ``good_vars`` (variables
with strictly positive score).

A flip touches only the clauses containing the flipped variable.  Each
clause keeps ``tv[c]``, the XOR of its variables whose literal is true: when
one literal is true, that is the clause's critical variable, so every
transition is O(1) per touched clause except those that make or break a
clause, which visit its members.  The index sets change only through
:class:`IndexedSet`'s own methods.

:meth:`SearchState.probed_positive_scores` looks one flip ahead without
mutating anything: it returns the positive scores the other variables would
have if a given variable were flipped.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence

from .formula import INFEASIBLE, Formula
from .weighting import WeightingParams


class IndexedSet:
    """Set of ints with O(1) add/discard/contains and O(1) uniform choice.

    Backed by a dense list plus a position map; removal swaps the last
    element into the hole, so iteration order is unspecified.
    """

    __slots__ = ("items", "pos")

    def __init__(self, initial: Sequence[int] = ()) -> None:
        self.items: List[int] = list(initial)
        self.pos = {x: i for i, x in enumerate(self.items)}

    def add(self, x: int) -> None:
        if x not in self.pos:
            self.pos[x] = len(self.items)
            self.items.append(x)

    def discard(self, x: int) -> None:
        i = self.pos.pop(x, None)
        if i is None:
            return
        last = self.items.pop()
        if last != x:
            self.items[i] = last
            self.pos[last] = i

    def choose(self, rng: random.Random) -> int:
        items = self.items
        # int(random() * k) is the draw random.choices uses; random() < 1
        # guarantees the index stays in range.
        return items[int(rng.random() * len(items))]

    def __contains__(self, x: int) -> bool:
        return x in self.pos

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __repr__(self) -> str:
        return f"IndexedSet({sorted(self.items)!r})"


class SearchState:
    """Incremental assignment state over a fixed formula.

    Variables are 1-based internally: ``assign[0]`` is unused padding.
    ``score[x]`` is the gain in total dynamic weight of satisfied clauses
    from flipping ``x``; ``good_vars`` holds exactly the variables with
    positive score.  ``best_cost``/``best_assign`` track the cheapest
    feasible assignment seen so far (including the initial one).  A
    clause that names a variable twice (a repeated literal or a
    tautology) raises ``ValueError``.
    """

    __slots__ = (
        "formula",
        "weighting",
        "num_vars",
        "clause_vars",
        "soft_weight",
        "pos_occ",
        "neg_occ",
        "dyn_weight",
        "init_weight",
        "assign",
        "sat_count",
        "tv",
        "score",
        "falsified_hard",
        "falsified_soft",
        "good_vars",
        "soft_falsified_weight",
        "flips",
        "best_cost",
        "best_assign",
        "_offset",
        "_never_feasible",
    )

    def __init__(
        self,
        formula: Formula,
        weighting: Optional[WeightingParams] = None,
        rng: Optional[random.Random] = None,
        assignment: Optional[Sequence[bool]] = None,
    ) -> None:
        if weighting is None:
            weighting = WeightingParams.defaults_for(formula)
        self.formula = formula
        self.weighting = weighting
        n = formula.num_vars
        self.num_vars = n

        # The formula's weight array is shared, not copied: soft_weight[c]
        # is 0 for a hard clause.
        lits = [formula.lits[a:b] for a, b in
                zip(formula.lit_start, formula.lit_start[1:])]
        clause_vars = [tuple(map(abs, clause)) for clause in lits]
        # One literal per variable per clause, as parse_wcnf and
        # Formula.build leave it: the true-literal counts and the XOR of
        # true variables rest on it.
        if sum(map(len, map(set, clause_vars))) != sum(map(len, clause_vars)):
            c = next(c for c, vs in enumerate(clause_vars)
                     if len(set(vs)) < len(vs))
            raise ValueError(
                f"clause {c} names a variable twice: {tuple(lits[c])}")
        soft_weight = formula.soft_weight
        hard_weight = weighting.hard_weight
        dyn_weight = [w or hard_weight for w in soft_weight]
        pos_occ: List[List[int]] = [[] for _ in range(n + 1)]
        neg_occ: List[List[int]] = [[] for _ in range(n + 1)]
        for c, clause in enumerate(lits):
            for lit in clause:
                if lit > 0:
                    pos_occ[lit].append(c)
                else:
                    neg_occ[-lit].append(c)
        self.clause_vars = clause_vars
        self.soft_weight = soft_weight
        self.dyn_weight = dyn_weight
        self.init_weight = dyn_weight.copy()
        self.pos_occ = pos_occ
        self.neg_occ = neg_occ

        if assignment is not None:
            if len(assignment) != n:
                raise ValueError(
                    f"assignment length {len(assignment)} != num_vars {n}"
                )
            assign = [False] + [bool(v) for v in assignment]
        else:
            if rng is None:
                raise ValueError("rng is required when no assignment is given")
            assign = [False] + [rng.random() < 0.5 for _ in range(n)]
        self.assign = assign

        sat_count = [0] * len(lits)
        tv = [0] * len(lits)
        score = [0] * (n + 1)
        self.falsified_hard = IndexedSet()
        self.falsified_soft = IndexedSet()
        soft_falsified = 0
        for c, clause_lits in enumerate(lits):
            cnt = 0
            t = 0
            for lit in clause_lits:
                if lit > 0:
                    if assign[lit]:
                        cnt += 1
                        t ^= lit
                elif not assign[-lit]:
                    cnt += 1
                    t ^= -lit
            sat_count[c] = cnt
            tv[c] = t
            if cnt == 0:
                w = dyn_weight[c]
                for lit in clause_lits:
                    score[lit if lit > 0 else -lit] += w
                if not soft_weight[c]:
                    self.falsified_hard.add(c)
                else:
                    self.falsified_soft.add(c)
                    soft_falsified += soft_weight[c]
            elif cnt == 1:
                score[t] -= dyn_weight[c]
        self.sat_count = sat_count
        self.tv = tv
        self.score = score
        self.soft_falsified_weight = soft_falsified
        self.good_vars = IndexedSet(
            [x for x in range(1, n + 1) if score[x] > 0]
        )

        self._offset = formula.soft_offset
        self._never_feasible = formula.has_empty_hard
        self.flips = 0
        self.best_cost = self.current_cost
        self.best_assign: Optional[List[bool]] = (
            None if self.best_cost == INFEASIBLE else assign.copy()
        )

    # -- cost views ---------------------------------------------------

    @property
    def current_cost(self):
        """Cost of the current assignment (INFEASIBLE if a hard clause fails)."""
        if self._never_feasible or self.falsified_hard.items:
            return INFEASIBLE
        return self.soft_falsified_weight + self._offset

    def best_assignment(self) -> Optional[List[bool]]:
        """Copy of the best feasible assignment seen, or None."""
        if self.best_assign is None:
            return None
        return self.best_assign[1:]

    # -- flips ----------------------------------------------------------

    def probed_positive_scores(self, x: int) -> Dict[int, int]:
        """Positive-score variables of the hypothetical state with ``x`` flipped.

        Equal to ``{v: score[v] for v in good_vars if v != x}`` after
        ``flip(x)``, but nothing is mutated.  ``x`` is left out because it
        is never a partner of itself: flipping it back would undo the pair.
        Only clause-mates of x can change score, so one pass over x's
        occurrence lists builds a small delta table.
        """
        if not 1 <= x <= self.num_vars:
            raise ValueError(f"variable {x} out of range 1..{self.num_vars}")
        assign = self.assign
        score = self.score
        sat_count = self.sat_count
        tv = self.tv
        dyn_weight = self.dyn_weight
        clause_vars = self.clause_vars
        delta: Dict[int, int] = {}
        get = delta.get
        if assign[x]:
            inc_list = self.neg_occ[x]
            dec_list = self.pos_occ[x]
        else:
            inc_list = self.pos_occ[x]
            dec_list = self.neg_occ[x]
        for c in inc_list:
            k = sat_count[c]
            if k == 0:
                # satisfied solely by x afterwards: members lose the make-gain
                w = dyn_weight[c]
                for y in clause_vars[c]:
                    if y != x:
                        delta[y] = get(y, 0) - w
            elif k == 1:
                # the old critical variable is freed
                z = tv[c]
                delta[z] = get(z, 0) + dyn_weight[c]
        for c in dec_list:
            k = sat_count[c]
            if k == 1:
                # falsified afterwards: members gain the make-gain
                w = dyn_weight[c]
                for y in clause_vars[c]:
                    if y != x:
                        delta[y] = get(y, 0) + w
            elif k == 2:
                # x and one other variable are true in c: that one
                # becomes critical
                y = tv[c] ^ x
                delta[y] = get(y, 0) - dyn_weight[c]
        pos: Dict[int, int] = {}
        for y, d in delta.items():
            s = score[y] + d
            if s > 0:
                pos[y] = s
        for y in self.good_vars.items:
            if y != x and y not in delta:
                pos[y] = score[y]
        return pos

    def flip(self, x: int) -> None:
        """Flip variable ``x``, update all incremental structures.

        Counts toward ``flips`` and may update the best solution.
        """
        if not 1 <= x <= self.num_vars:
            raise ValueError(f"variable {x} out of range 1..{self.num_vars}")
        # Hot path: locals beat attribute loads.  good_vars membership is
        # exactly score > 0, so only a sign crossing touches the set.
        assign = self.assign
        new_val = not assign[x]
        assign[x] = new_val
        score = self.score
        sat_count = self.sat_count
        tv = self.tv
        dyn_weight = self.dyn_weight
        clause_vars = self.clause_vars
        soft_weight = self.soft_weight
        gv = self.good_vars
        if new_val:
            inc_list = self.pos_occ[x]
            dec_list = self.neg_occ[x]
        else:
            inc_list = self.neg_occ[x]
            dec_list = self.pos_occ[x]

        for c in inc_list:
            k = sat_count[c]
            z = tv[c]
            sat_count[c] = k + 1
            tv[c] = z ^ x
            if k == 0:
                # Clause becomes satisfied, critically by x: every member
                # loses the make-gain, x additionally takes the break-loss.
                w = dyn_weight[c]
                for y in clause_vars[c]:
                    s = score[y]
                    score[y] = s - w
                    if 0 < s <= w:
                        gv.discard(y)
                s = score[x]
                score[x] = s - w
                if 0 < s <= w:
                    gv.discard(x)
                if not soft_weight[c]:
                    self.falsified_hard.discard(c)
                else:
                    self.falsified_soft.discard(c)
                    self.soft_falsified_weight -= soft_weight[c]
            elif k == 1:
                # No longer critical: the old critical variable z is freed.
                s = score[z]
                ns = s + dyn_weight[c]
                score[z] = ns
                if ns > 0 >= s:
                    gv.add(z)

        for c in dec_list:
            k = sat_count[c]
            t = tv[c] ^ x
            sat_count[c] = k - 1
            tv[c] = t
            if k == 1:
                # Clause becomes falsified: every member gains the make-gain,
                # x additionally sheds the break-loss it held as critical.
                w = dyn_weight[c]
                for y in clause_vars[c]:
                    s = score[y]
                    ns = s + w
                    score[y] = ns
                    if ns > 0 >= s:
                        gv.add(y)
                s = score[x]
                ns = s + w
                score[x] = ns
                if ns > 0 >= s:
                    gv.add(x)
                if not soft_weight[c]:
                    self.falsified_hard.add(c)
                else:
                    self.falsified_soft.add(c)
                    self.soft_falsified_weight += soft_weight[c]
            elif k == 2:
                # Clause becomes critical: t is its one true variable.
                w = dyn_weight[c]
                s = score[t]
                score[t] = s - w
                if 0 < s <= w:
                    gv.discard(t)

        self.flips += 1
        if self.falsified_hard.items or self._never_feasible:
            return
        cost = self.soft_falsified_weight + self._offset
        if cost < self.best_cost:
            self.best_cost = cost
            self.best_assign = assign.copy()

    # -- weighting ------------------------------------------------------

    def update_weights(self, rng: random.Random) -> None:
        """One dynamic-weighting step, called at local optima.

        With probability ``sp`` smooths (every satisfied clause above its
        initial weight loses 1); otherwise bumps every falsified hard
        clause by ``hard_weight`` and every falsified soft clause below
        ``soft_cap`` by 1.  Scores and ``good_vars`` are kept consistent.
        """
        wp = self.weighting
        score = self.score
        gv = self.good_vars
        dyn_weight = self.dyn_weight
        if rng.random() < wp.sp:
            sat_count = self.sat_count
            init_weight = self.init_weight
            tv = self.tv
            for c in range(len(dyn_weight)):
                if sat_count[c] > 0 and dyn_weight[c] > init_weight[c]:
                    dyn_weight[c] -= 1
                    if sat_count[c] == 1:
                        z = tv[c]
                        s = score[z]
                        ns = s + 1
                        score[z] = ns
                        if ns > 0 and s <= 0:
                            gv.add(z)
            return
        clause_vars = self.clause_vars
        # Hard clauses have no cap.
        for falsified, inc, cap in (
            (self.falsified_hard, wp.hard_weight, math.inf),
            (self.falsified_soft, 1, wp.soft_cap),
        ):
            for c in falsified.items:
                if dyn_weight[c] >= cap:
                    continue
                dyn_weight[c] += inc
                for y in clause_vars[c]:
                    s = score[y]
                    ns = s + inc
                    score[y] = ns
                    if ns > 0 >= s:
                        gv.add(y)
