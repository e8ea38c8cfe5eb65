"""Counter families: running totals with a derived snapshot, delta and sum.

Several layers keep running totals that outlive one enumeration — the
shared probe cache, the probe planner, the batching guidance wrapper,
a database's execution stats, the fault book — and every reader wants
the same three things from them: a frozen copy (:meth:`Counters.snapshot`),
what accrued since that copy (:meth:`Counters.delta_since`), and a
fold of one family into another (:meth:`Counters.absorb`). Subclasses
declare only their fields; all three operations derive from
:func:`dataclasses.fields`.

A field is either an ``int`` or a ``Dict[str, int]`` of per-key totals
(``ExecutionStats.per_kind``, the fault book's per-point counts). Dict
fields are handled key by key, and a delta keeps only the keys whose
count moved.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, TypeVar

C = TypeVar("C", bound="Counters")


@dataclass
class Counters:
    """Base for dataclasses of running totals (see module docstring)."""

    def snapshot(self: C) -> C:
        """A copy that later increments leave untouched."""
        return type(self)(**self.as_dict())

    def delta_since(self: C, earlier: C) -> C:
        """Counts accrued since ``earlier`` (a prior :meth:`snapshot`)."""
        values: Dict[str, object] = {}
        for spec in fields(self):
            now, then = getattr(self, spec.name), getattr(earlier, spec.name)
            if isinstance(now, dict):
                values[spec.name] = {
                    key: count - then.get(key, 0)
                    for key, count in now.items()
                    if count != then.get(key, 0)}
            else:
                values[spec.name] = now - then
        return type(self)(**values)

    def absorb(self, other: "Counters") -> None:
        """Add ``other``'s counts into this family, field by field."""
        for spec in fields(self):
            mine, theirs = getattr(self, spec.name), getattr(other, spec.name)
            if isinstance(mine, dict):
                for key, count in theirs.items():
                    mine[key] = mine.get(key, 0) + count
            else:
                setattr(self, spec.name, mine + theirs)

    def as_dict(self) -> Dict[str, object]:
        """Field name -> value, dict fields copied."""
        values: Dict[str, object] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            values[spec.name] = dict(value) if isinstance(value, dict) \
                else value
        return values
