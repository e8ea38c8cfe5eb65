"""Differential fuzzing of the search matrix.

The equivalence suite pins a handful of golden tasks; this suite
samples the configuration matrix on *fresh* synthetic tasks.  The
property under test: for any task, the candidate stream of a
(backend, probe-planner) variant is a pure function of
``(engine, cost_order)`` alone — every knob combination must answer
bit-for-bit like the inline seed run at the same engine and cost-order
point, and record the same verifier stats.  ``cost_order`` is part of
the baseline key, not a variant knob, because cost-order modes hand
the *beam* frontiers a cost key that deliberately reweights
truncation (see ``make_frontier``); only best-first carries the
stronger documented contract that ``order`` preserves the answer set,
which ``test_order_preserves_best_first_answers`` checks separately.

Tier-1 runs a small, fully deterministic profile (``derandomize=True``
so the sampled points never shift under ``-x``).  The nightly CI job
widens the sweep with ``REPRO_FUZZ_DEEP=1``.
"""

from __future__ import annotations

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.enumerator import Enumerator, EnumeratorConfig
from repro.datasets import (
    DETAIL_FULL,
    SpiderCorpusConfig,
    generate_corpus,
    synthesize_tsq,
)
from repro.guidance.oracle import CalibratedOracleModel
from repro.sqlir.canon import signature

from tests.core.fixtures.generate_search_golden import stable_repr

_DEEP = os.environ.get("REPRO_FUZZ_DEEP") == "1"
FUZZ = settings(max_examples=64 if _DEEP else 10,
                deadline=None,
                derandomize=True,
                suppress_health_check=(HealthCheck.too_slow,))

#: Corpus seeds — each generates one fresh synthetic-Spider task.
CORPUS_SEEDS = (11, 23, 37) + ((41, 53, 67, 79, 97) if _DEEP else ())
ENGINES = ("best-first", "beam")
#: (workers, verify_backend) variant points; the inline seed execution
#: mode is the baseline every point is compared against.
BACKENDS = ((1, "threads"), (2, "threads"), (4, "threads"))
PLANNERS = ("off", "plan", "batch", "fuse")

#: Keep every run fast and timeout-free so streams are deterministic
#: across machines: bounded by expansions/candidates only.
BUDGETS = dict(beam_width=8, max_candidates=8, max_expansions=1500,
               time_budget=None)

_TASKS = {}
_BASELINES = {}


def fuzz_task(seed):
    """One synthetic task per corpus seed, cached for the module."""
    if seed not in _TASKS:
        corpus = generate_corpus("dev", SpiderCorpusConfig(
            num_databases=1, tasks_per_database=1, seed=seed))
        task = next(iter(corpus))
        db = corpus.database_for(task)
        tsq = synthesize_tsq(task, db, detail=DETAIL_FULL, seed=0)
        _TASKS[seed] = (db, task, tsq)
    return _TASKS[seed]


def run_point(seed, engine, workers=1, verify_backend="inline",
              **overrides):
    db, task, tsq = fuzz_task(seed)
    config = EnumeratorConfig(engine=engine, workers=workers,
                              verify_backend=verify_backend,
                              **BUDGETS, **overrides)
    enumerator = Enumerator(db, CalibratedOracleModel(seed=0), task.nlq,
                            tsq=tsq, config=config, gold=task.gold,
                            task_id=task.task_id)
    stream = [(c.index, c.confidence, c.expansions,
               stable_repr(signature(c.query)))
              for c in enumerator.enumerate()]
    return stream, enumerator


def baseline(seed, engine, cost_order):
    """The inline knobs-off run this point must reproduce bit-for-bit.

    ``cost_order`` keys the baseline because it feeds the beam
    frontiers a truncation cost key — a deliberate stream change, not
    an execution detail like the backend or planner knobs.
    """
    key = (seed, engine, cost_order)
    if key not in _BASELINES:
        stream, enumerator = run_point(seed, engine,
                                       cost_order=cost_order)
        _BASELINES[key] = (stream, enumerator.verifier.stats,
                           enumerator.expansions)
    return _BASELINES[key]


matrix_points = st.tuples(
    st.sampled_from(CORPUS_SEEDS),
    st.sampled_from(ENGINES),
    st.sampled_from(BACKENDS),
    st.sampled_from(PLANNERS),
    st.sampled_from(("off", "order")),
)


@FUZZ
@given(point=matrix_points)
def test_matrix_point_matches_inline_seed_run(point):
    seed, engine, (workers, backend), planner, cost_order = point
    expected_stream, expected_stats, expected_expansions = \
        baseline(seed, engine, cost_order)
    stream, enumerator = run_point(seed, engine, workers=workers,
                                   verify_backend=backend,
                                   probe_planner=planner,
                                   cost_order=cost_order)
    label = (f"seed={seed} engine={engine} workers={workers} "
             f"backend={backend} planner={planner} "
             f"cost_order={cost_order}")

    assert stream == expected_stream, f"stream diverged: {label}"
    assert enumerator.expansions == expected_expansions, \
        f"expansion count diverged: {label}"
    assert enumerator.verifier.stats == expected_stats, \
        f"verifier stats diverged: {label}"

    # Planner modes must hold the stream on the fast path alone: a
    # silent degrade on a random task is a bug even when the fallback
    # preserves the answers.
    telemetry = enumerator.telemetry
    assert telemetry.probe_fuse_fallbacks == 0, label
    assert telemetry.probe_batch_fallbacks == 0, label
    if planner != "fuse":
        assert telemetry.probe_fused_groups == 0, label
    if planner in ("off", "plan"):
        assert telemetry.probe_batch_stmts == 0, label
    if planner == "off":
        assert telemetry.probe_compiles == 0, label


@FUZZ
@given(seed=st.sampled_from(CORPUS_SEEDS))
def test_order_preserves_best_first_answers(seed):
    """Best-first carries the stronger ``order`` contract: the frontier
    ignores the cost key, so cheapest-first dispatch may reorder
    statement execution but never change the emitted answer set."""
    off_stream, _, _ = baseline(seed, "best-first", "off")
    order_stream, _, _ = baseline(seed, "best-first", "order")
    assert {sig for *_, sig in order_stream} == \
        {sig for *_, sig in off_stream}, f"seed={seed}"


@FUZZ
@given(seed=st.sampled_from(CORPUS_SEEDS),
       planner=st.sampled_from(PLANNERS))
def test_order_never_executes_more_probes(seed, planner):
    """The cost-order execution contract, fuzzed: with single-flight
    dedup on, a cost-ordered parallel round never executes more probes
    than the plain parallel run, under every planner mode."""
    _, off = run_point(seed, "best-first", workers=4,
                       verify_backend="threads", probe_planner=planner)
    _, ordered = run_point(seed, "best-first", workers=4,
                           verify_backend="threads",
                           probe_planner=planner, cost_order="order")
    assert ordered.telemetry.probe_misses <= off.telemetry.probe_misses, \
        f"seed={seed} planner={planner}"
    assert ordered.telemetry.probe_timeouts == 0
