"""Search telemetry: the derived wire form, the counter folds, and the
verification backend each run reports."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.enumerator import Enumerator, EnumeratorConfig
from repro.core.search import PoolManager, SearchTelemetry
from repro.core.search.planner import PlannerCounters
from repro.core.verifier import ProbeCacheCounters
from repro.guidance import CalibratedOracleModel
from repro.guidance.batched import AmortisationCounters
from repro.nlq.literals import NLQuery


def test_as_dict_is_every_field_plus_the_hit_rate():
    telemetry = SearchTelemetry()
    names = [spec.name for spec in dataclasses.fields(SearchTelemetry)]
    assert list(telemetry.as_dict()) == names + ["cache_hit_rate"]


def test_as_dict_copies_the_prune_histogram():
    telemetry = SearchTelemetry()
    telemetry.record_prune("by_row", partial=True)
    wire = telemetry.as_dict()
    telemetry.record_prune("by_row", partial=True)
    assert wire["prunes_by_stage"] == {"by_row": 1}


@pytest.mark.parametrize("family", [ProbeCacheCounters, PlannerCounters,
                                    AmortisationCounters],
                         ids=lambda f: f.__name__)
def test_every_folded_counter_names_a_telemetry_field(family):
    """The engine copies these families' deltas by field name, so each
    of their fields must be a telemetry field of the same name."""
    telemetry_fields = {spec.name
                        for spec in dataclasses.fields(SearchTelemetry)}
    names = {spec.name for spec in dataclasses.fields(family)}
    assert names <= telemetry_fields, names - telemetry_fields
    telemetry = SearchTelemetry()
    telemetry.record(family(**{name: 7 for name in names}))
    assert all(getattr(telemetry, name) == 7 for name in names)


class TestReportedVerifyBackend:
    """Telemetry names the backend that ran, not the one configured:
    the default config (``threads`` backend, one worker) verifies
    inline."""

    @staticmethod
    def run(db, pool_manager=None, **config):
        enumerator = Enumerator(
            db, CalibratedOracleModel(seed=0),
            NLQuery.from_text("movies before 1995", literals=[1995]),
            config=EnumeratorConfig(max_candidates=3, max_expansions=300,
                                    **config),
            pool_manager=pool_manager)
        list(enumerator.enumerate())
        return enumerator.telemetry

    def test_default_run_reports_inline(self, movie_db):
        telemetry = self.run(movie_db)
        assert (telemetry.workers, telemetry.verify_backend) == \
            (1, "inline")

    def test_two_workers_report_threads(self, movie_db):
        telemetry = self.run(movie_db, workers=2)
        assert (telemetry.workers, telemetry.verify_backend) == \
            (2, "threads")

    def test_degraded_lease_reports_inline(self, movie_db):
        manager = PoolManager()
        manager.close()  # a closed manager leases a degraded inline pool
        telemetry = self.run(movie_db, pool_manager=manager, workers=2)
        assert telemetry.snapshot_degraded
        assert (telemetry.workers, telemetry.verify_backend) == \
            (1, "inline")
