"""Quickstart: the paper's motivating movie example (Examples 2.1-2.2).

Kevin wants "names of movies starring actors from before 1995, and those
after 2000, with corresponding actor names, and years, from earliest to
most recent" — an NLQ with at least three plausible readings (CQ1-CQ3 in
the paper). A table sketch query with two remembered facts (Table 2)
disambiguates: Tom Hanks starred in Forrest Gump before 1995; Sandra
Bullock starred in Gravity sometime between 2010 and 2017.

Run with::

    python examples/quickstart.py

This is the smallest end-to-end surface: build a ``Database``, tag an
``NLQuery``, sketch a ``TableSketchQuery``, and ask ``Duoquest`` for
ranked candidates. ``EnumeratorConfig`` carries every search knob the
CLI exposes (``engine``, ``workers``, ``verify_backend``,
``beam_width``); for repeated runs on one database, see
``repro.core.search.PersistentProbeCache`` (disk-backed probe cache)
and ``repro.core.search.PoolManager`` (warm verification threads) —
the eval harness wires the cache via ``SimulationConfig.cache_dir`` and
owns a pool manager per run.
"""

import random

from repro import Duoquest, EnumeratorConfig, NLQuery, TableSketchQuery, to_sql
from repro.db import Database, make_schema
from repro.guidance import LexicalGuidanceModel
from repro.sqlir.types import ColumnType as T


def build_movie_database() -> Database:
    schema = make_schema(
        "movies",
        tables={
            "actor": [("aid", T.NUMBER), ("name", T.TEXT),
                      ("gender", T.TEXT), ("birth_year", T.NUMBER)],
            "movie": [("mid", T.NUMBER), ("name", T.TEXT),
                      ("year", T.NUMBER), ("revenue", T.NUMBER)],
            "starring": [("aid", T.NUMBER), ("mid", T.NUMBER)],
        },
        foreign_keys=[("starring", "aid", "actor", "aid"),
                      ("starring", "mid", "movie", "mid")],
        primary_keys={"actor": "aid", "movie": "mid", "starring": None},
    )
    db = Database.create(schema)
    rng = random.Random(7)

    actors = [
        (1, "Tom Hanks", "male", 1956),
        (2, "Sandra Bullock", "female", 1964),
        (3, "Meg Ryan", "female", 1961),
        (4, "Denzel Washington", "male", 1954),
        (5, "Jodie Foster", "female", 1962),
    ]
    movies = [
        (1, "Forrest Gump", 1994, 678),
        (2, "Gravity", 2013, 723),
        (3, "Sleepless in Seattle", 1993, 227),
        (4, "Philadelphia", 1993, 206),
        (5, "Contact", 1997, 171),
        (6, "The Blind Side", 2009, 309),
        (7, "Cast Away", 2000, 429),
        (8, "Inferno", 2016, 220),
    ]
    starring = [(1, 1), (2, 2), (3, 3), (1, 3), (4, 4), (1, 4), (5, 5),
                (2, 6), (1, 7), (1, 8)]
    db.insert_rows("actor", actors)
    db.insert_rows("movie", movies)
    db.insert_rows("starring", starring)
    return db


def main() -> None:
    db = build_movie_database()

    nlq = NLQuery.from_text(
        "Show names of movies and actor names and years before 1995 or "
        "after 2000, from earliest to most recent.",
        literals=[1995, 2000])

    # Kevin's table sketch query (Table 2 of the paper): column types,
    # two partial example tuples (one with a range cell), not limited.
    tsq = TableSketchQuery.build(
        types=["text", "text", "number"],
        rows=[
            ["Forrest Gump", "Tom Hanks", None],
            ["Gravity", "Sandra Bullock", (2010, 2017)],
        ],
        sorted=True,
        limit=0,
    )

    system = Duoquest(db, model=LexicalGuidanceModel(),
                      config=EnumeratorConfig(time_budget=20.0,
                                              max_candidates=25))

    print("NLQ:", nlq.text)
    print("TSQ:", tsq)
    print()

    print("--- with the dual specification (NLQ + TSQ) ---")
    result = system.synthesize(nlq, tsq)
    for rank, candidate in enumerate(result.top(5), start=1):
        print(f"{rank}. [{candidate.confidence:.4f}] "
              f"{to_sql(candidate.query)}")

    print()
    print("--- NLQ alone (the NLI setting) ---")
    result_nli = system.synthesize(nlq, None)
    print(f"{len(result_nli.candidates)} candidates; first 5:")
    for rank, candidate in enumerate(result_nli.top(5), start=1):
        print(f"{rank}. [{candidate.confidence:.4f}] "
              f"{to_sql(candidate.query)}")
    print()
    print("The TSQ prunes interpretations that cannot produce Kevin's "
          "remembered tuples (CQ1/CQ2 in the paper), so the dual-"
          "specification list is far shorter.")


if __name__ == "__main__":
    main()
