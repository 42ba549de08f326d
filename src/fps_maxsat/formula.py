"""Problem representation and exact evaluation for (weighted) partial MaxSAT.

A formula is a set of hard clauses (must all be satisfied) and soft clauses
(each carries a positive integer weight).  The cost of an assignment is the
total weight of falsified soft clauses, or :data:`INFEASIBLE` when any hard
clause is falsified.

A :class:`Formula` holds its clauses in three flat arrays: every literal
in clause order, the offset at which each clause starts, and the weights,
0 marking a hard clause.  The parser fills them, and the search engine,
the compiled kernel and the exhaustive oracle read them as they are.

Two WCNF dialects are accepted:

- the pre-2022 dialect with a ``p wcnf <nv> <nc> <top>`` header, where a
  clause whose leading weight equals ``top`` is hard;
- the 2022 dialect without a header, where hard clauses start with ``h`` and
  soft clauses start with their weight.

:func:`write_wcnf` always emits the 2022 dialect.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import accumulate, chain, compress, count, repeat
from operator import add, eq, mul, not_, sub
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from ._record import FrozenRecord

#: Cost sentinel for assignments that falsify a hard clause.  Compares
#: strictly greater than every finite cost.
INFEASIBLE = float("inf")

#: Total soft weight (including weight collected from empty soft clauses)
#: must fit in an unsigned 64-bit counter.
MAX_TOTAL_SOFT_WEIGHT = 2**64 - 1


class ParseError(ValueError):
    """Raised on malformed WCNF input."""


def _int_array(values: List[int]):
    """``values`` as C ints, or as 64-bit ints when one needs more bits.

    Beyond 64 bits they stay a tuple, which only the Python engine reads.
    """
    for typecode in "iq":
        try:
            return array(typecode, values)
        except OverflowError:
            pass
    return tuple(values)


class Formula(FrozenRecord):
    """An immutable (weighted) partial MaxSAT instance.

    Clause ``c`` is ``lits[lit_start[c]:lit_start[c + 1]]``, signed integer
    literals (``v`` or ``-v`` for variable ``v``, numbered from 1), and its
    weight is ``soft_weight[c]``: a positive integer for a soft clause, 0
    for a hard one.  ``lits`` and ``lit_start`` (``num_clauses + 1``
    offsets) are ``array('i')``, ``'q'`` when a value needs more than 31
    bits, and ``soft_weight`` is an ``array('Q')``; the arrays are shared
    with every reader and must not be modified.  ``soft_offset`` is the
    weight collected from empty soft clauses: it is added to every
    assignment's cost.  ``has_empty_hard`` marks a formula containing an
    empty hard clause, which makes every assignment infeasible.

    ``Formula(num_vars, clauses, weights)`` stores the clauses as given,
    each literal naming a variable in 1 .. ``num_vars``; :meth:`build` and
    :func:`parse_wcnf` normalise them first.  ``clauses`` and ``weights``
    are tuple views, built anew on every access.  ``_replace`` takes the
    constructor's arguments.
    """

    __slots__ = (
        "num_vars",
        "lits",
        "lit_start",
        "soft_weight",
        "soft_offset",
        "has_empty_hard",
    )

    def __init__(
        self,
        num_vars: int,
        clauses: Sequence[Sequence[int]],
        weights: Sequence[int],
        soft_offset: int = 0,
        has_empty_hard: bool = False,
    ) -> None:
        clauses = list(clauses)
        try:
            soft_weight = array("Q", weights)
        except OverflowError:
            raise ValueError("weights must lie in 0 .. 2**64 - 1") from None
        if len(soft_weight) != len(clauses):
            raise ValueError(
                f"{len(clauses)} clauses but {len(soft_weight)} weights"
            )
        lits = list(chain.from_iterable(clauses))
        if 0 in lits or max(map(abs, lits), default=0) > num_vars:
            raise ValueError(
                f"every literal must name a variable in 1 .. {num_vars}"
            )
        self._set(
            num_vars=num_vars,
            lits=_int_array(lits),
            lit_start=_int_array(list(accumulate(map(len, clauses),
                                                 initial=0))),
            soft_weight=soft_weight,
            soft_offset=soft_offset,
            has_empty_hard=has_empty_hard,
        )

    def __hash__(self) -> int:
        return hash(tuple(map(tuple, self._values()[1:4])) + (
            self.num_vars, self.soft_offset, self.has_empty_hard))

    def __reduce__(self):
        return _layout, self._values()

    def _asdict(self) -> dict:
        """The constructor's arguments, which the repr shows and
        ``_replace`` changes."""
        return {
            "num_vars": self.num_vars,
            "clauses": self.clauses,
            "weights": self.weights,
            "soft_offset": self.soft_offset,
            "has_empty_hard": self.has_empty_hard,
        }

    @property
    def clauses(self) -> Tuple[Tuple[int, ...], ...]:
        """The clauses as tuples of literals (built on each access)."""
        lits, start = self.lits, self.lit_start
        return tuple(
            tuple(lits[a:b]) for a, b in zip(start, start[1:])
        )

    @property
    def weights(self) -> Tuple[int, ...]:
        """The clause weights as a tuple (built on each access)."""
        return tuple(self.soft_weight)

    @property
    def is_weighted(self) -> bool:
        """True when some soft clause carries a weight other than 1."""
        return max(self.soft_weight, default=0) > 1

    @property
    def num_clauses(self) -> int:
        return len(self.soft_weight)

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


def _layout(num_vars, lits, lit_start, soft_weight, soft_offset,
            has_empty_hard) -> Formula:
    """A Formula holding the given arrays as they are."""
    formula = Formula.__new__(Formula)
    formula._set(num_vars=num_vars, lits=lits, lit_start=lit_start,
                 soft_weight=soft_weight, soft_offset=soft_offset,
                 has_empty_hard=has_empty_hard)
    return formula


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

    lits_out: List[int] = []
    starts = [0]
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
        lits_out += kept
        starts.append(len(lits_out))
        weights.append(0 if is_hard else weight)
    return _layout(num_vars, _int_array(lits_out), _int_array(starts),
                   array("Q", weights), soft_offset, has_empty_hard)


class _Malformed(Exception):
    """Some line is malformed; :func:`_first_error` says which and how."""


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
    try:
        return _parse(text)
    except _Malformed:
        raise _first_error(text) from None


def _parse(text: str) -> Formula:
    """The whole text in one pass over its tokens, or _Malformed.

    Every line is one clause, a comment, the header or blank.  Only a line
    holding a ``c`` or a ``p`` can be a comment or the header, so the lines
    up to the last such one are read one by one and the rest in bulk: their
    token counts give the clause boundaries in ``text.split()``.
    """
    lines = text.splitlines()
    last = max(text.rfind("c"), text.rfind("p"))
    head = len(text[: last + 1].splitlines()) if last >= 0 else 0
    header: Optional[Tuple[int, int]] = None
    kept: List[str] = []  # tokens of the clause lines among the head
    counts: List[int] = []  # tokens per line, 0 for a line with no clause
    skip = 0  # tokens of the head
    for lineno, line in enumerate(lines[:head], start=1):
        fields = line.split()
        skip += len(fields)
        if fields and fields[0][0] != "c":
            if fields[0] != "p":
                kept += fields
                counts.append(len(fields))
                continue
            if kept:  # the header is late, but an earlier line may be worse
                raise _Malformed
            if header is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            header = _read_header(fields, lineno, line)
        counts.append(0)
    counts += map(len, map(str.split, lines[head:]))
    del lines
    tokens = text.split()
    tokens[:skip] = kept

    # A clause line holds its weight, its literals and a "0": byte masks
    # over the tokens, one run per clause, pick the literals and the rest.
    sizes = list(filter(None, counts))
    if sizes and min(sizes) < 2:
        raise _Malformed
    runs = {size: b"\0" + b"\1" * (size - 2) + b"\0" for size in set(sizes)}
    lit_mask = b"".join(map(runs.__getitem__, sizes))
    weights_and_ends = list(compress(tokens, lit_mask.translate(_FLIP)))
    weight_tokens = weights_and_ends[0::2]
    if weights_and_ends.count("0") != len(sizes) + weight_tokens.count("0"):
        raise _Malformed  # some line does not end in a lone "0"
    try:
        values = list(map(int, compress(tokens, lit_mask)))
    except ValueError:
        raise _Malformed from None
    del tokens, weights_and_ends, lit_mask, runs
    if 0 in values:
        raise _Malformed
    lits = _int_array(values)
    variables = list(map(abs, values))
    del values
    max_var = max(variables, default=0)
    lengths = list(map(add, sizes, repeat(-2)))
    lit_start = _int_array(list(accumulate(lengths, initial=0)))

    try:
        if header is None:
            num_vars = max_var
            weights = list(map(int, map(_HARD.get, weight_tokens, weight_tokens)))
            if (weights.count(0) != weight_tokens.count("h")
                    or min(weights, default=0) < 0):
                raise _Malformed
        else:
            num_vars, top = header
            weights = list(map(int, weight_tokens))
            if weights and (max(weights) > top or min(weights) < 1
                            or max_var > num_vars):
                raise _Malformed
            # a clause weighing top is hard
            weights = list(map(mul, weights, map(top.__ne__, weights)))
    except ValueError:
        raise _Malformed from None
    if sum(weights) > MAX_TOTAL_SOFT_WEIGHT:
        raise ParseError("total soft weight exceeds 64 bits")

    if 0 in lengths or _names_a_variable_twice(variables, lit_start):
        return _assemble(num_vars, [
            (not w, w, lits[a:b])
            for w, a, b in zip(weights, lit_start, lit_start[1:])
        ])
    return _layout(num_vars, lits, lit_start, array("Q", weights), 0, False)


_HARD = {"h": "0"}
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")

#: Longest clause for which _names_a_variable_twice compares the literals
#: at each distance.  On a 2-vCPU x86-64 VM, over 1.5M literals in clauses
#: of one length L, the compares took 245, 343 and 475 ms at L = 3, 6 and
#: 8 and 1,062 ms at 16, the set of keys 390-510 ms at every L.  The
#: compares copy the list (12 MB), the set takes 140 MB: with the set
#: alone, parsing the 100k-variable file of ten times perfbench's `large`
#: recipe peaked at 222 MB of RSS instead of 172 MB and took 23% longer.
_PAIRWISE_MAX = 8


def _names_a_variable_twice(variables: List[int], lit_start) -> bool:
    """True when some clause names a variable twice.

    ``variables`` holds the variable of every literal, clause after clause.
    """
    lengths = list(map(sub, lit_start[1:], lit_start))
    longest = max(lengths, default=0)
    if longest > _PAIRWISE_MAX:
        n1 = max(variables) + 1
        clause_keys = chain.from_iterable(
            map(repeat, range(0, n1 * len(lengths), n1), lengths))
        return len(set(map(add, variables, clause_keys))) < len(variables)
    # equal variables d places apart, then whether both lie in one clause
    for d in range(1, longest):
        for i in compress(count(), map(eq, variables, variables[d:])):
            if i + d < lit_start[bisect_right(lit_start, i)]:
                return True
    return False


def _read_header(fields: List[str], lineno: int, line: str) -> Tuple[int, int]:
    """``(num_vars, top)`` of a ``p wcnf`` line."""
    line = line.strip()
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
    return nv, top


def _first_error(text: str) -> ParseError:
    """The ParseError of the first malformed line: the error path of
    :func:`parse_wcnf`, which reads the text again line by line."""
    header: Optional[Tuple[int, int]] = None
    saw_clause = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields or fields[0][0] == "c":
            continue
        if fields[0] == "p":
            if header is not None:
                return ParseError(f"line {lineno}: duplicate header")
            if saw_clause:
                return ParseError(f"line {lineno}: header after clause data")
            try:
                header = _read_header(fields, lineno, line)
            except ParseError as exc:
                return exc
            continue
        saw_clause = True
        error = _clause_error(fields, header)
        if error:
            return ParseError(f"line {lineno}: {error}")
    raise AssertionError("the bulk parse rejected text whose every line holds")


def _clause_error(fields: List[str], header: Optional[Tuple[int, int]]) -> str:
    """What is wrong with a clause line, or the empty string."""
    if header is not None:
        try:
            weight = int(fields[0])
        except ValueError:
            return f"expected clause weight, got {fields[0]!r}"
        if weight > header[1]:
            return f"weight {weight} exceeds top {header[1]}"
        if weight <= 0:
            return "soft clause weight must be positive"
    elif fields[0] != "h":
        try:
            weight = int(fields[0])
        except ValueError:
            return f"expected 'h' or clause weight, got {fields[0]!r}"
        if weight <= 0:
            return "soft clause weight must be positive"
    body = fields[1:]
    if not body:
        return "missing clause terminator 0"
    for tok in body[:-1]:
        try:
            lit = int(tok)
        except ValueError:
            return f"non-integer literal {tok!r}"
        if lit == 0:
            return "literal 0 inside clause body"
        if header is not None and abs(lit) > header[0]:
            return f"variable {abs(lit)} exceeds declared {header[0]}"
    if body[-1] != "0":
        return "missing clause terminator 0"
    return ""


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
    lits, start = formula.lits, formula.lit_start
    for weight, a, b in zip(formula.soft_weight, start, start[1:]):
        body = " ".join(map(str, lits[a:b]))
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
    n = formula.num_vars
    if len(assignment) != n:
        raise ValueError(
            f"assignment length {len(assignment)} != num_vars {n}"
        )
    if formula.has_empty_hard:
        return INFEASIBLE
    # truth[lit] is the value of literal lit (negative indices count from
    # the end); true_before[j] counts the true literals among lits[:j], so
    # clause c holds when it grows from lit_start[c] to lit_start[c + 1].
    truth = [False]
    truth += map(bool, assignment)
    truth += [not value for value in reversed(assignment)]
    true_before = list(
        accumulate(map(truth.__getitem__, formula.lits), initial=0))
    at = list(map(true_before.__getitem__, formula.lit_start))
    falsified = list(
        compress(formula.soft_weight, map(not_, map(sub, at[1:], at))))
    if 0 in falsified:
        return INFEASIBLE
    return formula.soft_offset + sum(falsified)


def is_feasible(formula: Formula, assignment: Sequence[bool]) -> bool:
    """True iff the assignment satisfies every hard clause."""
    return evaluate_cost(formula, assignment) != INFEASIBLE
