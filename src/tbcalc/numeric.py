"""Exact rational arithmetic: p/q formatting and parsing, continued
fractions, and a dense GF(2) solver.

Every quantity in this package (arm weights, canonical coefficients, tb
values, linking matrix entries) is an exact fractions.Fraction and no
float ever appears. solve_gf2 and cf_eval are independent oracles the
tests check the tree routines against; solve_gf2 is a plain dense
elimination, where exactness matters more than speed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import ZeroDenominator

GF2_UNIQUE = "unique"
GF2_MULTIPLE = "multiple"
GF2_INCONSISTENT = "inconsistent"


def format_rational(value) -> str:
    """Render a rational as "p/q" in lowest terms, or "p" when q = 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational.

    Only the integer and slash forms are accepted; decimal notation is
    rejected so that wire values stay exact by construction.
    """
    stripped = text.strip()
    if not _RATIONAL_RE.fullmatch(stripped):
        raise ValueError(f"not a rational: {text!r}")
    try:
        return Fraction(stripped)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator: {text!r}") from exc


def cf_eval(entries: Sequence[int]) -> Fraction:
    """Evaluate a negative continued fraction right to left.

    cf_eval([n1, ..., nk]) = n1 - 1/(n2 - 1/(... - 1/nk)). The first entry
    is outermost, i.e. the vertex closest to the anchor of the arm.

    Raises ZeroDenominator if any partial tail evaluates to zero. Entries
    of any sign are accepted; callers validating final resolution graphs
    are expected to reject non-negative self-intersections themselves.
    """
    # No package code calls this: bench/tracer.py wraps it, tests import it from here.
    if not entries:
        raise ZeroDenominator("continued fraction needs at least one entry")
    value = Fraction(entries[-1])
    for entry in reversed(entries[:-1]):
        if value == 0:
            raise ZeroDenominator(
                f"continued fraction tail of {list(entries)} evaluates to zero"
            )
        value = Fraction(entry) - Fraction(1, 1) / value
    return value


class Gf2Result(NamedTuple):
    """Outcome of a GF(2) solve: a status plus one solution when consistent.

    For the "multiple" status the returned solution is the one with every
    free variable set to zero.
    """
    # Only solve_gf2 builds this; tests import it from here.

    status: str
    solution: Optional[tuple[int, ...]]


def solve_gf2(matrix: Sequence[Sequence[int]], rhs: Sequence[int]) -> Gf2Result:
    """Gaussian elimination over the two-element field.

    Entries are reduced mod 2. Reports whether the system has a unique
    solution, several, or none, so callers know how decisive a mod 2
    cross-check is.
    """
    # No package code calls this: bench/tracer.py wraps it, tests import it from here.
    size = len(matrix)
    if len(rhs) != size or any(len(row) != size for row in matrix):
        raise ValueError("solve_gf2 needs a square system")
    rows = []
    for i in range(size):
        packed = 0
        for j in range(size):
            if matrix[i][j] & 1:
                packed |= 1 << j
        if rhs[i] & 1:
            packed |= 1 << size
        rows.append(packed)
    pivots: list[tuple[int, int]] = []
    rank = 0
    for col in range(size):
        pivot_row = next(
            (r for r in range(rank, size) if rows[r] >> col & 1), None
        )
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        for r in range(size):
            if r != rank and rows[r] >> col & 1:
                rows[r] ^= rows[rank]
        pivots.append((rank, col))
        rank += 1
    for r in range(rank, size):
        if rows[r]:
            return Gf2Result(GF2_INCONSISTENT, None)
    solution = [0] * size
    for row, col in pivots:
        solution[col] = rows[row] >> size & 1
    status = GF2_UNIQUE if rank == size else GF2_MULTIPLE
    return Gf2Result(status, tuple(solution))
