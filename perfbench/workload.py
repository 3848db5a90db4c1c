"""What every workload module provides to the runner."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Item:
    """One library call of a workload.

    ``fn(*args)`` is the timed call.  ``data`` is what the check needs besides
    the output.  ``rung`` is 0 or 1 for items on the workload's paired size
    ladder (the same inputs at N and at ``ladder_ratio`` * N), else None.
    """

    label: str
    fn: Callable
    args: tuple
    data: Any = None
    rung: int | None = None


class Workload:
    """A seeded closed-loop workload: ``cycle(seed, i)`` lists the items of
    cycle i, and the runner repeats whole cycles.

    ``min_items`` keeps at least ten samples beyond p90; ``trace_cycles`` is
    the fixed amount a traced run replays; ``ladder_ratio`` is N_large/N_small
    on the rung pairs.
    """

    name = ""
    min_items = 110
    trace_cycles = 1
    ladder_ratio = 2

    def cycle(self, seed, index):
        raise NotImplementedError

    def check_item(self, item, output):
        """True when one output is correct; raising counts as a failure."""
        raise NotImplementedError

    def check(self, items, outputs):
        return [passes(self.check_item, item, out) for item, out in zip(items, outputs)]

    def corrupt(self, item, output):
        """A wrong output of the same shape, for the self-test."""
        raise NotImplementedError


def passes(check, *args):
    """Run one check; an exception inside it is a failed check, not a crash."""
    try:
        return bool(check(*args))
    except Exception:  # a malformed output may break the check anywhere
        return False
