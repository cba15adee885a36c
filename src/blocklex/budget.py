"""One error hierarchy and one wall-clock deadline for the whole process.

Every error blocklex raises on purpose is a `BlocklexError`, and its class
names the answer and the CLI's exit code: `UsageError` (64) rejects an
argument or an input and is a ValueError, `HypothesisFailed` (2) is an
input that is well formed but fails a hypothesis a command needs, and
`Inconclusive` (3) is an answer that could not be told.  Any other
exception is a bug.

A `Budget` entered in a `with` statement sets the deadline, and every
engine polls it with `Budget.check()`, which raises `BudgetExceeded` once
it has passed.  Only the callers that make a report catch it, and turn it
into an inconclusive answer; engines never turn it into data.  An engine
asked for more than its size cap raises `SizeCapExceeded` the same way.
Both are an `Inconclusive`: the answer could not be told, and nothing was
refuted.
"""

from __future__ import annotations

import time
from typing import Optional

__all__ = [
    "BlocklexError",
    "UsageError",
    "HypothesisFailed",
    "Inconclusive",
    "Budget",
    "BudgetExceeded",
    "SizeCapExceeded",
]


class BlocklexError(Exception):
    """An error blocklex raises on purpose; `exit_code` is the CLI's."""

    exit_code: int


class UsageError(BlocklexError, ValueError):
    """An argument or an input is rejected."""

    exit_code = 64


class HypothesisFailed(BlocklexError):
    """An input is well formed but fails a hypothesis the command needs."""

    exit_code = 2


class Inconclusive(BlocklexError):
    """The answer could not be told: a budget or a size cap ran out."""

    exit_code = 3


class BudgetExceeded(Inconclusive):
    """The deadline passed before the answer was known."""


class SizeCapExceeded(Inconclusive):
    """Raised when an exact strategy is asked to handle too many vertices."""


class Budget:
    """A deadline `seconds` from entering the `with` block.  A nested one
    keeps the earlier deadline and restores the outer on exit.  With no
    budget entered, `check` never raises."""

    _deadline: Optional[float] = None

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self) -> "Budget":
        self._outer = Budget._deadline
        mine = time.monotonic() + self.seconds
        Budget._deadline = mine if self._outer is None else min(mine, self._outer)
        return self

    def __exit__(self, *exc) -> None:
        Budget._deadline = self._outer

    @staticmethod
    def check() -> None:
        deadline = Budget._deadline
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded("budget exceeded")
