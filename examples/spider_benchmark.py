"""Mini simulation study on the synthetic Spider corpus.

Generates a small synthetic Spider-like dev split (see
``repro.datasets.spider`` for how the corpus substitutes for the real
benchmark), synthesizes a full-detail TSQ per task (Section 5.4.1), and
compares Duoquest against the NLI and PBE baselines — a scaled-down
Figure 10/11.

Run with::

    python examples/spider_benchmark.py

Useful ``SimulationConfig`` knobs beyond the ``timeout`` used below
(the CLI exposes the same surface on ``duoquest simulate``):

* ``workers`` + ``verify_backend`` — parallel verification on
  ``workers`` threads (``"threads"``, the default; ``"inline"`` needs
  ``workers=1``); each run leases warm per-database thread pools from
  its own ``PoolManager`` and closes them before returning.
* ``cache_dir`` — persist probe caches to disk keyed by database
  content hash; running this script twice with the same ``cache_dir``
  warm-starts the second run (see the ``WarmStart`` column of
  ``repro.eval.reports.search_report``).
* ``engine`` / ``beam_width`` — search strategy (``"best-first"``
  reproduces the paper's Algorithm 1 exactly).
"""

from repro.datasets import SpiderCorpusConfig, generate_corpus
from repro.eval import (
    SimulationConfig,
    fig10_report,
    fig11_report,
    run_simulation,
)


def main() -> None:
    corpus = generate_corpus("dev", SpiderCorpusConfig(
        num_databases=6, tasks_per_database=6, seed=0))
    print(corpus)
    print()

    records = run_simulation(corpus, config=SimulationConfig(timeout=5.0))
    print(fig10_report(records, "mini-dev"))
    print()
    print(fig11_report(records, "mini-dev"))
    print()
    print("Expected shape (paper, Figure 10): Duoquest top-1 is more than "
          "2x the NLI's; the PBE system supports only a small fraction of "
          "tasks and none of the hard ones.")


if __name__ == "__main__":
    main()
