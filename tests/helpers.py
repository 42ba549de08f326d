"""Shared test utilities: reference recomputations and instance generators.

Everything here is deliberately naive and recomputed from scratch so the
incremental engine and the vectorized enumeration can be checked against an
independent route.  The score reference applies the definition directly
(total satisfied dynamic weight after flipping minus before), not the
engine's case analysis.
"""

from __future__ import annotations

import copy
import functools
import itertools
import operator
import random
from typing import Dict, List, Optional, Sequence, Tuple, Union

from fps_maxsat.engine import IndexedSet, SearchState
from fps_maxsat.formula import (
    INFEASIBLE,
    Formula,
    ParseError,
    evaluate_cost,
)


def total_sat_weight(state: SearchState, assign: Sequence[bool]) -> int:
    """Total dynamic weight of clauses satisfied under ``assign`` (1-based)."""
    total = 0
    dyn = state.dyn_weight
    for c, lits in enumerate(state.formula.clauses):
        for lit in lits:
            if (lit > 0) == assign[abs(lit)]:
                total += dyn[c]
                break
    return total


def rescan_scores(state: SearchState) -> List[int]:
    """score[x] by definition: satisfied-weight delta of flipping x."""
    assign = state.assign
    base = total_sat_weight(state, assign)
    scores = [0] * (state.num_vars + 1)
    for x in range(1, state.num_vars + 1):
        flipped = list(assign)
        flipped[x] = not flipped[x]
        scores[x] = total_sat_weight(state, flipped) - base
    return scores


def rescan(state: SearchState) -> Dict[str, object]:
    """All derived structures recomputed from assignment plus weights."""
    assign = state.assign
    sat_count = []
    tv = []
    falsified_hard = set()
    falsified_soft = set()
    soft_weight = 0
    for c, lits in enumerate(state.formula.clauses):
        true_vars = [abs(lit) for lit in lits if (lit > 0) == assign[abs(lit)]]
        k = len(true_vars)
        sat_count.append(k)
        tv.append(functools.reduce(operator.xor, true_vars, 0))
        if k == 0:
            if not state.soft_weight[c]:
                falsified_hard.add(c)
            else:
                falsified_soft.add(c)
                soft_weight += state.soft_weight[c]
    scores = rescan_scores(state)
    good_vars = {x for x in range(1, state.num_vars + 1) if scores[x] > 0}
    return {
        "sat_count": sat_count,
        "tv": tv,
        "score": scores,
        "falsified_hard": falsified_hard,
        "falsified_soft": falsified_soft,
        "good_vars": good_vars,
        "soft_falsified_weight": soft_weight,
        "cost": evaluate_cost(state.formula, state.current_assignment()),
    }


def assert_state_consistent(state: SearchState) -> None:
    """Exact-equality check of every incrementally maintained quantity."""
    ref = rescan(state)
    assert list(state.sat_count) == ref["sat_count"]
    assert list(state.tv) == ref["tv"]
    assert list(state.score) == ref["score"]
    assert set(state.falsified_hard.items) == ref["falsified_hard"]
    assert set(state.falsified_soft.items) == ref["falsified_soft"]
    assert set(state.good_vars.items) == ref["good_vars"]
    assert state.soft_falsified_weight == ref["soft_falsified_weight"]
    assert state.current_cost == ref["cost"]
    # position maps stay in sync with the dense lists
    for iset in (state.falsified_hard, state.falsified_soft, state.good_vars):
        assert_indexed_set_ok(iset)


def assert_indexed_set_ok(iset) -> None:
    assert len(iset.items) == len(iset.pos)
    for i, x in enumerate(iset.items):
        assert iset.pos[x] == i


def flipped_copy(state: SearchState, x: int) -> SearchState:
    """A copy of ``state`` with ``x`` really flipped; ``state`` is untouched.

    Only the fields ``flip`` mutates in place are copied (a deep copy of
    the whole state is two orders of magnitude slower); the rest, such as
    the clause tables and the dynamic weights, are shared.
    """
    twin = copy.copy(state)
    for name in ("assign", "score", "sat_count", "tv"):
        setattr(twin, name, list(getattr(state, name)))
    for name in ("falsified_hard", "falsified_soft", "good_vars"):
        setattr(twin, name, IndexedSet(getattr(state, name).items))
    twin.flip(x)
    return twin


def probe_reference(state: SearchState, x: int) -> Dict[int, int]:
    """What ``probed_positive_scores(x)`` must return, by a real flip.

    ``x`` itself is left out: it is never a partner of itself.
    """
    twin = flipped_copy(state, x)
    return {v: twin.score[v] for v in twin.good_vars.items if v != x}


def bms_reference(
    candidates: Sequence[int], scores, sv_num: int, rng: random.Random
) -> int:
    """Best-from-multiple-selection as literally defined: ``sv_num``
    uniform draws with replacement, the earliest drawn maximum wins.

    ``solver.bms_pick`` draws from the same distribution in closed form.
    """
    k = len(candidates)
    vals = [scores[v] for v in candidates]
    i = int(rng.random() * k)
    best = candidates[i]
    best_score = vals[i]
    for _ in range(sv_num - 1):
        i = int(rng.random() * k)
        if vals[i] > best_score:
            best = candidates[i]
            best_score = vals[i]
    return best


def snapshot(state: SearchState) -> Dict[str, object]:
    """Every observable field, as plain immutable values."""
    return {
        "assign": tuple(state.assign),
        "sat_count": tuple(state.sat_count),
        "tv": tuple(state.tv),
        "score": tuple(state.score),
        "dyn_weight": tuple(state.dyn_weight),
        "falsified_hard": frozenset(state.falsified_hard.items),
        "falsified_soft": frozenset(state.falsified_soft.items),
        "good_vars": frozenset(state.good_vars.items),
        "soft_falsified_weight": state.soft_falsified_weight,
        "flips": state.flips,
        "best_cost": state.best_cost,
        "best_assign": (
            None if state.best_assign is None else tuple(state.best_assign)
        ),
        "current_cost": state.current_cost,
    }


def brute_force_optimum(
    formula: Formula,
) -> Tuple[Union[int, float], Optional[List[bool]]]:
    """Plain itertools enumeration; independent of the vectorized oracle."""
    best: Union[int, float] = INFEASIBLE
    witness: Optional[List[bool]] = None
    for bits in itertools.product((False, True), repeat=formula.num_vars):
        cost = evaluate_cost(formula, list(bits))
        if cost < best:
            best = cost
            witness = list(bits)
    return best, witness


# -- instance generators ---------------------------------------------------


def random_clause(
    rng: random.Random, n: int, max_len: int = 3
) -> List[int]:
    k = rng.randint(1, min(max_len, n))
    variables = rng.sample(range(1, n + 1), k)
    return [v if rng.random() < 0.5 else -v for v in variables]


def random_formula(
    rng: random.Random,
    max_vars: int = 30,
    max_clauses: int = 120,
    weighted: Optional[bool] = None,
) -> Formula:
    """Arbitrary mixed instance; hard part may be unsatisfiable."""
    n = rng.randint(1, max_vars)
    m = rng.randint(1, max_clauses)
    if weighted is None:
        weighted = rng.random() < 0.5
    hard = []
    soft = []
    for _ in range(m):
        lits = random_clause(rng, n)
        if rng.random() < 0.4:
            hard.append(lits)
        else:
            w = rng.randint(1, 9) if weighted else 1
            soft.append((w, lits))
    return Formula.build(num_vars=n, hard=hard, soft=soft)


def planted_formula(
    rng: random.Random,
    n: int,
    m_hard: int,
    m_soft: int,
    weighted: bool,
    max_weight: int = 9,
) -> Formula:
    """Instance whose hard part is satisfied by a hidden planted assignment."""
    planted = [rng.random() < 0.5 for _ in range(n)]
    hard = []
    for _ in range(m_hard):
        lits = random_clause(rng, n)
        if not any((lit > 0) == planted[abs(lit) - 1] for lit in lits):
            # force one literal to agree with the planted assignment
            j = rng.randrange(len(lits))
            v = abs(lits[j])
            lits[j] = v if planted[v - 1] else -v
        hard.append(lits)
    soft = []
    for _ in range(m_soft):
        lits = random_clause(rng, n)
        w = rng.randint(1, max_weight) if weighted else 1
        soft.append((w, lits))
    return Formula.build(num_vars=n, hard=hard, soft=soft)


def conflicted_weighted_instance(
    rng: random.Random,
    n: int,
    m_hard: int,
    m_soft: int,
    num_conflicts: int = 3,
    max_weight: int = 9,
) -> Formula:
    """Planted-satisfiable hard part plus soft clauses with built-in conflicts.

    ``num_conflicts`` pairs of contradictory soft units guarantee a strictly
    positive optimum, so runs never end early in an all-satisfied state and
    the strategies face genuine trade-offs.
    """
    base = planted_formula(rng, n, m_hard, m_soft, weighted=True,
                           max_weight=max_weight)
    clauses = list(zip(base.clauses, base.weights))
    soft = [(w, list(c)) for c, w in clauses if w]
    hard = [list(c) for c, w in clauses if not w]
    for v in rng.sample(range(1, n + 1), min(num_conflicts, n)):
        soft.append((rng.randint(1, max_weight), [v]))
        soft.append((rng.randint(1, max_weight), [-v]))
    return Formula.build(num_vars=n, hard=hard, soft=soft)


def unit_weights(formula: Formula) -> Formula:
    """``formula`` with every soft weight set to 1."""
    return Formula(formula.num_vars, formula.clauses,
                   [min(w, 1) for w in formula.weights])


def worked_instance() -> Formula:
    """Three soft unit-weight clauses over two variables; optimum 0 at 11."""
    return Formula.build(
        num_vars=2,
        soft=[(1, [-1, 2]), (1, [1, -2]), (1, [1, 2])],
    )


# -- WCNF document rendering (for parser fuzzing) ---------------------------

RawClauses = List[Tuple[bool, int, List[int]]]  # (is_hard, weight, lits)


def render_new_dialect(raw: RawClauses) -> str:
    lines = []
    for is_hard, weight, lits in raw:
        prefix = "h" if is_hard else str(weight)
        lines.append(prefix + " " + " ".join(map(str, lits)) + " 0")
    return "\n".join(lines) + "\n"


def render_old_dialect(raw: RawClauses, num_vars: int) -> str:
    top = max((w for is_hard, w, _ in raw if not is_hard), default=1) + 1
    lines = [f"p wcnf {num_vars} {len(raw)} {top}"]
    for is_hard, weight, lits in raw:
        prefix = str(top) if is_hard else str(weight)
        lines.append(prefix + " " + " ".join(map(str, lits)) + " 0")
    return "\n".join(lines) + "\n"


def random_raw_clauses(
    rng: random.Random, max_vars: int = 8, max_clauses: int = 12
) -> Tuple[RawClauses, int]:
    """Raw clause tuples with no tautologies or repeated literals per clause."""
    n = rng.randint(1, max_vars)
    m = rng.randint(1, max_clauses)
    raw: RawClauses = []
    for _ in range(m):
        lits = random_clause(rng, n)
        is_hard = rng.random() < 0.4
        weight = 0 if is_hard else rng.randint(1, 50)
        raw.append((is_hard, weight, lits))
    return raw, n


# -- reference WCNF reader (for parser fuzzing) -----------------------------


def reference_parse(text: str) -> Formula:
    """The WCNF rules of :func:`fps_maxsat.formula.parse_wcnf` read line by
    line, the way they are specified: each line is blank, a comment (its
    first character after blanks is ``c``), the header or one clause, and
    its checks run in order, so the first malformed line raises.  The
    library parser must accept, normalise and report exactly as this does.
    """
    header = None
    raw = []
    saw_clause = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line[0] == "c":
            continue
        fields = line.split()
        if fields[0] == "p":
            if header is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            if saw_clause:
                raise ParseError(f"line {lineno}: header after clause data")
            if len(fields) != 5 or fields[1] != "wcnf":
                raise ParseError(f"line {lineno}: malformed header {line!r}")
            try:
                nv, nc, top = map(int, fields[2:])
            except ValueError:
                raise ParseError(
                    f"line {lineno}: non-integer field in header {line!r}"
                ) from None
            if nv < 0 or nc < 0 or top < 1:
                raise ParseError(f"line {lineno}: header values out of range")
            header = (nv, top)
            continue
        saw_clause = True
        if header is None and fields[0] == "h":
            is_hard, weight = True, 0
        else:
            try:
                weight = int(fields[0])
            except ValueError:
                expected = "clause weight" if header else "'h' or clause weight"
                raise ParseError(
                    f"line {lineno}: expected {expected}, got {fields[0]!r}"
                ) from None
            if header is not None and weight > header[1]:
                raise ParseError(
                    f"line {lineno}: weight {weight} exceeds top {header[1]}"
                )
            if weight <= 0:
                raise ParseError(
                    f"line {lineno}: soft clause weight must be positive"
                )
            is_hard = header is not None and weight == header[1]
        body = fields[1:]
        if not body:
            raise ParseError(f"line {lineno}: missing clause terminator 0")
        lits = []
        for tok in body[:-1]:
            try:
                lit = int(tok)
            except ValueError:
                raise ParseError(
                    f"line {lineno}: non-integer literal {tok!r}"
                ) from None
            if lit == 0:
                raise ParseError(f"line {lineno}: literal 0 inside clause body")
            if header is not None and abs(lit) > header[0]:
                raise ParseError(
                    f"line {lineno}: variable {abs(lit)} exceeds "
                    f"declared {header[0]}"
                )
            lits.append(lit)
        if body[-1] != "0":
            raise ParseError(f"line {lineno}: missing clause terminator 0")
        raw.append((is_hard, weight, lits))

    if sum(w for is_hard, w, _ in raw if not is_hard) > 2**64 - 1:
        raise ParseError("total soft weight exceeds 64 bits")
    num_vars = header[0] if header else max(
        (abs(lit) for _, _, lits in raw for lit in lits), default=0)
    clauses, weights, offset, empty_hard = [], [], 0, False
    for is_hard, weight, lits in raw:
        kept = dict.fromkeys(lits)
        if any(-lit in kept for lit in kept):
            continue
        if not kept:
            if is_hard:
                empty_hard = True
            else:
                offset += weight
            continue
        clauses.append(tuple(kept))
        weights.append(0 if is_hard else weight)
    return Formula(num_vars, clauses, weights, offset, empty_hard)
