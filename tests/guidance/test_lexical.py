"""Tests for the lexical guidance backend."""

import sys
import threading
from collections import Counter

import pytest

from repro.guidance import lexical
from repro.guidance.base import (
    ALL_SLOTS,
    GuidanceContext,
    SLOT_GROUP_BY,
    SLOT_ORDER_BY,
    SLOT_SELECT,
    SLOT_WHERE,
)
from repro.guidance.lexical import LexicalGuidanceModel
from repro.guidance.modules import MODULES, module_by_name
from repro.nlq.linking import link_schema
from repro.nlq.literals import NLQuery
from repro.nlq.tokenize import contains_phrase, tokenize
from repro.sqlir.ast import (
    STAR,
    AggOp,
    ColumnRef,
    CompOp,
    Direction,
    LogicOp,
)


def make_ctx(schema, text, literals=()):
    return GuidanceContext(nlq=NLQuery.from_text(text, literals=literals),
                           schema=schema)


@pytest.fixture
def model():
    return LexicalGuidanceModel()


class TestClausePresence:
    def test_literals_suggest_where(self, model, movie_schema):
        ctx = make_ctx(movie_schema, "movies before 1995", [1995])
        assert model.clause_presence(ctx, SLOT_WHERE).top is True

    def test_no_cues_no_where(self, model, movie_schema):
        ctx = make_ctx(movie_schema, "list all movie titles")
        assert model.clause_presence(ctx, SLOT_WHERE).top is False

    def test_for_each_suggests_grouping(self, model, movie_schema):
        ctx = make_ctx(movie_schema,
                       "number of movies for each actor name")
        assert model.clause_presence(ctx, SLOT_GROUP_BY).top is True

    def test_sorted_cue(self, model, movie_schema):
        ctx = make_ctx(movie_schema, "movie titles ordered by year")
        assert model.clause_presence(ctx, SLOT_ORDER_BY).top is True


class TestColumn:
    def test_linked_column_ranked_first(self, model, movie_schema):
        ctx = make_ctx(movie_schema, "list the movie titles")
        candidates = list(movie_schema.iter_column_refs())
        dist = model.column(ctx, SLOT_SELECT, candidates)
        assert dist.top == ColumnRef("movie", "title")


class TestAggregate:
    def test_how_many_cues_count(self, model, movie_schema):
        ctx = make_ctx(movie_schema, "how many movies are there")
        dist = model.aggregate(ctx, SLOT_SELECT,
                               ColumnRef("movie", "mid"),
                               [AggOp.NONE, AggOp.COUNT, AggOp.MAX])
        assert dist.top is AggOp.COUNT

    def test_no_cue_prefers_plain(self, model, movie_schema):
        ctx = make_ctx(movie_schema, "list the years")
        dist = model.aggregate(ctx, SLOT_SELECT,
                               ColumnRef("movie", "year"),
                               [AggOp.NONE, AggOp.COUNT, AggOp.MAX])
        assert dist.top is AggOp.NONE

    def test_text_column_rejects_numeric_aggs(self, model, movie_schema):
        ctx = make_ctx(movie_schema, "the highest title")
        dist = model.aggregate(ctx, SLOT_SELECT,
                               ColumnRef("movie", "title"),
                               [AggOp.NONE, AggOp.MAX])
        assert dist.prob_of(AggOp.MAX) < 0.05


class TestComparison:
    def test_more_than_cues_gt(self, model, movie_schema):
        ctx = make_ctx(movie_schema, "movies with more than 100 revenue",
                       [100])
        dist = model.comparison(ctx, SLOT_WHERE,
                                ColumnRef("movie", "revenue"),
                                [CompOp.EQ, CompOp.GT, CompOp.LT])
        assert dist.top is CompOp.GT

    def test_default_eq(self, model, movie_schema):
        ctx = make_ctx(movie_schema, 'movies named "Gravity"',
                       ["Gravity"])
        dist = model.comparison(ctx, SLOT_WHERE,
                                ColumnRef("movie", "title"),
                                [CompOp.EQ, CompOp.NE, CompOp.LIKE])
        assert dist.top is CompOp.EQ


class TestLogicAndDirection:
    def test_or_cue(self, model, movie_schema):
        ctx = make_ctx(movie_schema, "before 1995 or after 2000",
                       [1995, 2000])
        assert model.logic(ctx).top is LogicOp.OR

    def test_and_default(self, model, movie_schema):
        ctx = make_ctx(movie_schema, "movies before 1995 with revenue "
                                     "above 100", [1995, 100])
        assert model.logic(ctx).top is LogicOp.AND

    def test_descending_cue(self, model, movie_schema):
        ctx = make_ctx(movie_schema,
                       "titles ordered from highest to lowest revenue")
        direction, _ = model.direction(ctx,
                                       ColumnRef("movie", "revenue")).top
        assert direction is Direction.DESC


class TestModuleRegistry:
    def test_table3_modules_present(self):
        names = {m.name for m in MODULES}
        assert names == {"KW", "COL", "OP", "AGG", "AND/OR", "DESC/ASC",
                         "HAVING"}

    def test_lookup(self):
        assert module_by_name("COL").output == "Set"
        with pytest.raises(KeyError):
            module_by_name("NOPE")

    def test_methods_exist_on_model(self, model):
        for module in MODULES:
            assert hasattr(model, module.method)


class PerCallLexicalModel(LexicalGuidanceModel):
    """The reference: per-call cue detection. Every call tokenises the
    NLQ text and links the schema afresh, and every cue test re-reads
    the text and its phrase with :func:`contains_phrase`; the model's
    per-NLQ state must answer exactly as this does."""

    def _tokens(self, nlq):
        return tuple(tokenize(nlq.text))

    def _links(self, ctx):
        return link_schema(ctx.nlq, ctx.schema)

    @staticmethod
    def _has_any(tokens, phrases):
        # Tokens hold no spaces, so the joined text re-tokenises to them.
        text = " ".join(tokens)
        return any(contains_phrase(text, phrase) for phrase in phrases)


#: Cue edge cases: the contains_phrase cases of tests/nlq/test_tokenize.py
#: (contiguity, case), plus texts that sit on a cue's boundary.
EDGE_TEXTS = (
    "show me more than five rows",
    "more rows than that",
    "Ordered From Earliest",
    "",
    "either",
    "or",
    "movies before 1995 or after 2000",
    "number of movies per actor",
    "the top 3 movies, latest first",
    "titles with at least 2 actors for each year",
    "actors and movies and years and revenue",
    "movie_titles ORDERED by year, most-to-least",
    "count count how many",
)


def every_distribution(model, ctx):
    """Every lexical method's answer for ``ctx``, over every slot and a
    spread of candidates."""
    columns = list(ctx.schema.iter_column_refs())
    answers = [model.logic(ctx), model.having_presence(ctx),
               model.comparison(ctx, SLOT_WHERE, columns[0], list(CompOp)),
               model.direction(ctx, columns[0])]
    for slot in ALL_SLOTS:
        answers.append(model.clause_presence(ctx, slot))
        answers.append(model.num_items(ctx, slot, 4))
        answers.append(model.column(ctx, slot, columns))
    # The aggregate weights depend on the column's type.
    for column in columns + [STAR]:
        answers.append(model.aggregate(ctx, SLOT_SELECT, column,
                                       list(AggOp)))
    return answers


@pytest.fixture(scope="module")
def corpus_contexts():
    """One context per task of the synthetic corpus the benchmark draws
    from, plus the edge cases on the movie schema."""
    from repro.datasets import SpiderCorpusConfig, generate_corpus

    from tests.conftest import build_movie_schema

    corpus = generate_corpus("dev", SpiderCorpusConfig(
        num_databases=8, tasks_per_database=10, seed=0))
    contexts = [GuidanceContext(nlq=task.nlq,
                                schema=corpus.databases[task.db_name].schema)
                for task in corpus.tasks]
    movies = build_movie_schema()
    contexts += [GuidanceContext(nlq=NLQuery.from_text(text), schema=movies)
                 for text in EDGE_TEXTS]
    return contexts


class TestPerNLQState:
    """The model tokenises each NLQ text once; every answer equals the
    per-call reference's."""

    def test_every_method_matches_the_per_call_reference(
            self, corpus_contexts):
        model, reference = LexicalGuidanceModel(), PerCallLexicalModel()
        for ctx in corpus_contexts:
            expected = every_distribution(reference, ctx)
            # Twice: the second pass is served from the kept state.
            for _ in range(2):
                assert every_distribution(model, ctx) == expected, \
                    ctx.nlq.text

    def test_each_text_tokenised_once(self, corpus_contexts, monkeypatch):
        # A first pass tokenises every cue phrase these texts reach.
        warm = LexicalGuidanceModel()
        for ctx in corpus_contexts:
            every_distribution(warm, ctx)
        calls = Counter()

        def counting(text):
            calls[text] += 1
            return tokenize(text)

        monkeypatch.setattr(lexical, "tokenize", counting)
        model = LexicalGuidanceModel()
        for ctx in corpus_contexts * 2:
            every_distribution(model, ctx)
        assert calls == Counter({ctx.nlq.text for ctx in corpus_contexts})


class TestLinksFollowTheLiterals:
    """Schema linking favours columns of a tagged literal's type, so a
    text asked with other literals must not reuse the first links."""

    def test_same_text_with_new_literals_scores_like_a_fresh_model(
            self, movie_schema):
        model = LexicalGuidanceModel()
        candidates = list(movie_schema.iter_column_refs())
        bare = make_ctx(movie_schema, "movies from 1995")  # no literals
        model.column(bare, SLOT_SELECT, candidates)
        tagged = make_ctx(movie_schema, "movies from 1995", [1995])
        year = ColumnRef("movie", "year")
        assert link_schema(tagged.nlq, movie_schema).columns[year] == \
            pytest.approx(0.25)
        assert model.column(tagged, SLOT_SELECT, candidates) == \
            LexicalGuidanceModel().column(tagged, SLOT_SELECT, candidates)


class TestNLQBound:
    """Tokens and links share one LRU over NLQ texts with a constant
    bound, so a long-lived daemon model stays bounded."""

    @staticmethod
    def ctx(schema, i):
        return make_ctx(schema, f"titles of movie {i} ordered by year")

    def test_distinct_nlqs_beyond_the_bound_keep_it(self, movie_schema):
        model = LexicalGuidanceModel()
        for i in range(model.MAX_NLQS + 25):
            ctx = self.ctx(movie_schema, i)
            model.clause_presence(ctx, SLOT_ORDER_BY)
            model.column(ctx, SLOT_SELECT,
                         list(movie_schema.iter_column_refs()))
        assert len(model._nlqs) == model.MAX_NLQS
        # The oldest texts went first.
        assert self.ctx(movie_schema, 0).nlq.text not in model._nlqs
        assert self.ctx(movie_schema, model.MAX_NLQS + 24).nlq.text \
            in model._nlqs

    def test_evicted_nlq_scores_identically_on_return(self, movie_schema):
        model = LexicalGuidanceModel()
        ctx = make_ctx(movie_schema,
                       "how many movies for each actor with more than 2",
                       [2])
        before = every_distribution(model, ctx)
        for i in range(model.MAX_NLQS):
            model.logic(self.ctx(movie_schema, i))
        assert ctx.nlq.text not in model._nlqs
        assert every_distribution(model, ctx) == before

    def test_concurrent_callers_keep_the_bound_and_the_answers(
            self, movie_schema):
        """Daemon sessions share one model: under forced thread
        switching and constant eviction, no caller fails or gets another
        text's answers, and the bound holds."""
        model = LexicalGuidanceModel()
        model.MAX_NLQS = 4  # every caller keeps evicting the others
        contexts = [self.ctx(movie_schema, i) for i in range(12)]
        reference = PerCallLexicalModel()
        expected = {ctx.nlq.text: every_distribution(reference, ctx)
                    for ctx in contexts}
        errors = []

        def hammer(offset):
            try:
                for step in range(24):
                    ctx = contexts[(offset + step) % len(contexts)]
                    assert every_distribution(model, ctx) == \
                        expected[ctx.nlq.text]
            except Exception as exc:  # surfaced after the join
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(3 * i,))
                   for i in range(4)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(model._nlqs) <= model.MAX_NLQS
