"""The counter primitive: snapshot, delta and sum derived from fields.

Every counter family in the package derives from
:class:`repro.counters.Counters`; the contract below runs over each of
them, so a family cannot grow a field the shared operations mishandle.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.search.planner import PlannerCounters
from repro.core.verifier import ProbeCacheCounters
from repro.counters import Counters
from repro.db.database import ExecutionStats
from repro.faults import FaultBook
from repro.guidance.batched import AmortisationCounters

FAMILIES = [ProbeCacheCounters, PlannerCounters, AmortisationCounters,
            ExecutionStats, FaultBook]


def bump(counters: Counters, step: int) -> None:
    """Advance every field: ints by ``step``, dicts on two keys."""
    for spec in dataclasses.fields(counters):
        value = getattr(counters, spec.name)
        if isinstance(value, dict):
            value["a"] = value.get("a", 0) + step
            value[f"k{step}"] = value.get(f"k{step}", 0) + 1
        else:
            setattr(counters, spec.name, value + step)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
class TestContract:
    def test_family_fields_are_counts(self, family):
        for spec in dataclasses.fields(family):
            assert isinstance(getattr(family(), spec.name), (int, dict)), \
                f"{family.__name__}.{spec.name} is not a count"

    def test_snapshot_does_not_move_with_later_increments(self, family):
        counters = family()
        bump(counters, 2)
        snapshot = counters.snapshot()
        frozen = snapshot.as_dict()
        bump(counters, 3)
        assert snapshot.as_dict() == frozen
        assert snapshot != counters

    def test_delta_then_absorb_gives_back_the_current_values(self, family):
        counters = family()
        bump(counters, 2)
        earlier = counters.snapshot()
        bump(counters, 5)
        delta = counters.delta_since(earlier)
        earlier.absorb(delta)
        assert earlier == counters

    def test_zero_dict_deltas_are_dropped(self, family):
        counters = family()
        bump(counters, 1)
        earlier = counters.snapshot()
        delta = counters.delta_since(earlier)
        for name, value in delta.as_dict().items():
            assert value == ({} if isinstance(value, dict) else 0), name


def test_per_kind_delta_keeps_only_the_kinds_that_moved():
    stats = ExecutionStats()
    stats.record("probe", 1)
    stats.record("meta", 3)
    mark = stats.snapshot()
    stats.record("probe", 0)
    delta = stats.delta_since(mark)
    assert delta.per_kind == {"probe": 1}
    assert (delta.statements, delta.rows_fetched) == (1, 0)


def test_absorb_adds_dict_keys_it_has_not_seen():
    book = FaultBook(injected={"db.execute": 1})
    book.absorb(FaultBook(injected={"db.execute": 2, "pool.worker": 1},
                          surfaced={"pool.worker": 1}))
    assert book.as_dict() == {"injected": {"db.execute": 3,
                                           "pool.worker": 1},
                              "absorbed": {},
                              "surfaced": {"pool.worker": 1}}
