"""Problem representation and exact evaluation for (weighted) partial MaxSAT.

A formula is a set of hard clauses (must all be satisfied) and soft clauses
(each carries a positive integer weight).  The cost of an assignment is the
total weight of falsified soft clauses, or :data:`INFEASIBLE` when any hard
clause is falsified.

Clauses are stored as tuples of signed integer literals, with a parallel
tuple of weights in which 0 marks a hard clause; the search engine and the
exhaustive oracle read them as they are.

Two WCNF dialects are accepted:

- the pre-2022 dialect with a ``p wcnf <nv> <nc> <top>`` header, where a
  clause whose leading weight equals ``top`` is hard;
- the 2022 dialect without a header, where hard clauses start with ``h`` and
  soft clauses start with their weight.

:func:`write_wcnf` always emits the 2022 dialect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

#: Cost sentinel for assignments that falsify a hard clause.  Compares
#: strictly greater than every finite cost.
INFEASIBLE = float("inf")

#: Total soft weight (including weight collected from empty soft clauses)
#: must fit in an unsigned 64-bit counter.
MAX_TOTAL_SOFT_WEIGHT = 2**64 - 1


class ParseError(ValueError):
    """Raised on malformed WCNF input."""


@dataclass(frozen=True)
class Formula:
    """An immutable (weighted) partial MaxSAT instance.

    Clause ``i`` is ``clauses[i]``, a tuple of signed integer literals
    (``v`` or ``-v`` for variable ``v``, numbered from 1), and its weight is
    ``weights[i]``: a positive integer for a soft clause, 0 for a hard one.
    ``soft_offset`` is the weight collected from empty soft clauses: it is
    added to every assignment's cost.  ``has_empty_hard`` marks a formula
    containing an empty hard clause, which makes every assignment infeasible.
    """

    num_vars: int
    clauses: Tuple[Tuple[int, ...], ...]
    weights: Tuple[int, ...]
    soft_offset: int = 0
    has_empty_hard: bool = False

    @property
    def is_weighted(self) -> bool:
        """True when some soft clause carries a weight other than 1."""
        return any(w > 1 for w in self.weights)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    @classmethod
    def build(
        cls,
        num_vars: Optional[int] = None,
        hard: Iterable[Sequence[int]] = (),
        soft: Iterable[Tuple[int, Sequence[int]]] = (),
    ) -> "Formula":
        """Build a formula from integer literal lists.

        ``hard`` holds literal lists; ``soft`` holds ``(weight, literals)``
        pairs.  When ``num_vars`` is None it is inferred as the largest
        variable index mentioned.  Applies the same normalisation as the
        parser (duplicate literals dropped, tautologies removed, empty
        clauses folded into ``has_empty_hard`` / ``soft_offset``).
        """
        raw: List[Tuple[bool, int, Sequence[int]]] = []
        for lits in hard:
            raw.append((True, 0, lits))
        for weight, lits in soft:
            raw.append((False, weight, lits))
        return _assemble(num_vars, raw)


def _assemble(
    num_vars: Optional[int], raw: Sequence[Tuple[bool, int, Sequence[int]]]
) -> Formula:
    """Normalise raw clauses and construct a Formula.

    Raises ValueError on a nonpositive soft weight, a variable index out of
    range, or total soft weight overflowing 64 bits.
    """
    max_var = 0
    for _, _, lits in raw:
        for lit in lits:
            if lit == 0:
                raise ValueError("literal 0 inside a clause body")
            max_var = max(max_var, abs(lit))
    if num_vars is None:
        num_vars = max_var
    elif max_var > num_vars:
        raise ValueError(
            f"variable {max_var} exceeds declared num_vars {num_vars}"
        )

    clauses: List[Tuple[int, ...]] = []
    weights: List[int] = []
    soft_offset = 0
    has_empty_hard = False
    total_soft = 0
    for is_hard, weight, lits in raw:
        if not is_hard:
            if weight <= 0:
                raise ValueError(f"soft clause weight must be positive, got {weight}")
            total_soft += weight
            if total_soft > MAX_TOTAL_SOFT_WEIGHT:
                raise ValueError("total soft weight exceeds 64 bits")
        # Dedup literals, keep first-occurrence order, drop tautologies.
        kept = dict.fromkeys(lits)
        if any(-lit in kept for lit in kept):
            continue
        if not kept:
            if is_hard:
                has_empty_hard = True
            else:
                soft_offset += weight
            continue
        clauses.append(tuple(kept))
        weights.append(0 if is_hard else weight)
    return Formula(
        num_vars=num_vars,
        clauses=tuple(clauses),
        weights=tuple(weights),
        soft_offset=soft_offset,
        has_empty_hard=has_empty_hard,
    )


def parse_wcnf(source: Union[str, bytes]) -> Formula:
    """Parse WCNF text in either dialect, detected from the content.

    A ``p wcnf`` header selects the pre-2022 dialect: the header's ``top``
    weight marks hard clauses, weights above ``top`` are rejected, and
    ``num_vars`` comes from the header.  Without a header the 2022 dialect
    applies: ``h`` marks hard clauses and ``num_vars`` is the largest
    variable index used.

    Raises :class:`ParseError` with a line number on malformed input.
    """
    if isinstance(source, bytes):
        try:
            text = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8 text: {exc}") from None
    else:
        text = source

    header: Optional[Tuple[int, int, int]] = None
    raw: List[Tuple[bool, int, Sequence[int]]] = []
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
                nv, nc, top = int(fields[2]), int(fields[3]), int(fields[4])
            except ValueError:
                raise ParseError(
                    f"line {lineno}: non-integer field in header {line!r}"
                ) from None
            if nv < 0 or nc < 0 or top < 1:
                raise ParseError(f"line {lineno}: header values out of range")
            header = (nv, nc, top)
            continue

        saw_clause = True
        if header is not None:
            tokens = fields
            try:
                weight = int(tokens[0])
            except ValueError:
                raise ParseError(
                    f"line {lineno}: expected clause weight, got {tokens[0]!r}"
                ) from None
            top = header[2]
            if weight > top:
                raise ParseError(
                    f"line {lineno}: weight {weight} exceeds top {top}"
                )
            if weight <= 0:
                raise ParseError(
                    f"line {lineno}: soft clause weight must be positive"
                )
            is_hard = weight == top
            body = tokens[1:]
        else:
            if fields[0] == "h":
                is_hard = True
                weight = 0
                body = fields[1:]
            else:
                try:
                    weight = int(fields[0])
                except ValueError:
                    raise ParseError(
                        f"line {lineno}: expected 'h' or clause weight, "
                        f"got {fields[0]!r}"
                    ) from None
                if weight <= 0:
                    raise ParseError(
                        f"line {lineno}: soft clause weight must be positive"
                    )
                is_hard = False
                body = fields[1:]

        if not body:
            raise ParseError(f"line {lineno}: missing clause terminator 0")
        lits: List[int] = []
        for tok in body[:-1]:
            try:
                lit = int(tok)
            except ValueError:
                raise ParseError(
                    f"line {lineno}: non-integer literal {tok!r}"
                ) from None
            if lit == 0:
                raise ParseError(
                    f"line {lineno}: literal 0 inside clause body"
                )
            if header is not None and abs(lit) > header[0]:
                raise ParseError(
                    f"line {lineno}: variable {abs(lit)} exceeds "
                    f"declared {header[0]}"
                )
            lits.append(lit)
        if body[-1] != "0":
            raise ParseError(f"line {lineno}: missing clause terminator 0")
        raw.append((is_hard, weight, lits))

    num_vars = header[0] if header is not None else None
    try:
        return _assemble(num_vars, raw)
    except ValueError as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(str(exc)) from None


def write_wcnf(formula: Formula) -> str:
    """Serialise a formula in the 2022 dialect.

    Empty clauses folded away during construction are re-emitted first so
    that parsing the output reproduces the formula (clause order, kinds and
    weights included).
    """
    lines: List[str] = []
    if formula.has_empty_hard:
        lines.append("h 0")
    if formula.soft_offset:
        lines.append(f"{formula.soft_offset} 0")
    for clause, weight in zip(formula.clauses, formula.weights):
        body = " ".join(map(str, clause))
        prefix = str(weight) if weight else "h"
        lines.append(f"{prefix} {body} 0")
    return "\n".join(lines) + "\n" if lines else ""


def evaluate_cost(
    formula: Formula, assignment: Sequence[bool]
) -> Union[int, float]:
    """Cost of an assignment, computed from scratch.

    Returns the total weight of falsified soft clauses plus the soft offset,
    or :data:`INFEASIBLE` when a hard clause is falsified.  ``assignment[i]``
    is the value of variable ``i + 1``; its length must equal ``num_vars``.
    """
    if len(assignment) != formula.num_vars:
        raise ValueError(
            f"assignment length {len(assignment)} != num_vars {formula.num_vars}"
        )
    if formula.has_empty_hard:
        return INFEASIBLE
    cost = formula.soft_offset
    for clause, weight in zip(formula.clauses, formula.weights):
        for lit in clause:
            if assignment[abs(lit) - 1] == (lit > 0):
                break
        else:
            if not weight:
                return INFEASIBLE
            cost += weight
    return cost


def is_feasible(formula: Formula, assignment: Sequence[bool]) -> bool:
    """True iff the assignment satisfies every hard clause."""
    return evaluate_cost(formula, assignment) != INFEASIBLE
