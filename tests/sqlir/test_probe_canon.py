"""Property tests for the literal-stripping probe canonicaliser.

The planner's contract rests on three properties of
:func:`repro.sqlir.canon.canonicalize_probe`:

* **Literal invariance** — substituting any literal values into the
  same probe structure yields the same parameterised signature (that is
  what lets sibling probes share one prepared plan).
* **No structural collisions** — probes over different tables, columns,
  operators, or clause shapes never canonicalise to the same signature
  (a collision would silently merge distinct probe-cache entries).
* **Execution equivalence** — running the parameterised statement with
  its extracted parameters returns exactly what the raw statement
  returns (the planner substitutes one for the other on the hot path).

Probes are generated through the same formatting the verifier's probe
builders use (``quote_ident`` / ``quote_literal``), so the property
space is the grammar the planner actually sees.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sqlir.canon import canonicalize_probe, probe_plan_key
from repro.sqlir.render import quote_ident, quote_literal

from tests.conftest import build_movie_db

#: Identifier-ish names, including ones that need quoting.
_NAMES = st.sampled_from(
    ["movie", "actor", "year", "title", "birth_year", "revenue",
     "Weird Table", "mixedCase", "name"])

_OPS = st.sampled_from(["=", "!=", "<", ">", "<=", ">="])

#: Literal values spanning the renderer's output space: ints, floats
#: (including negatives and exponent reprs), and strings with quote
#: escapes and whitespace.
_VALUES = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(alphabet="abcXYZ0 1.9'%_-", max_size=12),
)


def render_probe(table: str, conditions) -> str:
    """A probe in exactly the verifier's rendering."""
    rendered = " AND ".join(
        f"{quote_ident(column)} {op} {quote_literal(value)}"
        + (" COLLATE NOCASE" if isinstance(value, str) and op == "=" else "")
        for column, op, value in conditions)
    return f"SELECT 1 FROM {quote_ident(table)} WHERE {rendered} LIMIT 1"


_CONDITIONS = st.lists(st.tuples(_NAMES, _OPS, _VALUES),
                       min_size=1, max_size=4)


class TestLiteralInvariance:
    @settings(max_examples=100, deadline=None)
    @given(table=_NAMES, conditions=_CONDITIONS, data=st.data())
    def test_signature_invariant_under_literal_substitution(self, table,
                                                            conditions,
                                                            data):
        """Swapping every literal for a fresh one of the same kind
        (string vs numeric — the renderer quotes them differently, but
        both strip to ``?``) leaves the signature unchanged."""
        substituted = []
        for column, op, value in conditions:
            if isinstance(value, str):
                fresh = data.draw(st.text(alphabet="zq'7 ", max_size=8))
            else:
                fresh = data.draw(st.one_of(
                    st.integers(min_value=-999, max_value=999),
                    st.floats(allow_nan=False, allow_infinity=False,
                              width=32)))
            substituted.append((column, op, fresh))
        # COLLATE NOCASE placement depends on the value's type, so keep
        # kinds aligned (string -> string, number -> number) — exactly
        # the renderer's behaviour.
        original_sql = render_probe(table, conditions)
        substituted_sql = render_probe(table, substituted)
        assert canonicalize_probe(original_sql)[0] == \
            canonicalize_probe(substituted_sql)[0]

    @settings(max_examples=50, deadline=None)
    @given(table=_NAMES, conditions=_CONDITIONS)
    def test_signature_invariant_under_whitespace(self, table, conditions):
        """Extra whitespace between tokens (not inside quoted
        identifiers or string literals, where it is data) is erased by
        canonicalisation."""
        sql = render_probe(table, conditions)
        spaced = sql.replace(" WHERE ", "\n  WHERE\t") \
                    .replace(" AND ", "\n  AND\t") \
                    .replace(" LIMIT ", "  LIMIT  ")
        assert canonicalize_probe(sql) == canonicalize_probe(spaced)

    @settings(max_examples=50, deadline=None)
    @given(table=_NAMES, column=_NAMES, op=_OPS,
           value=st.integers(min_value=0, max_value=10**6))
    def test_int_and_float_renderings_share_a_plan_not_a_key(self, table,
                                                             column, op,
                                                             value):
        """``= 2005`` and ``= 2005.0`` share a signature (one prepared
        plan) but keep distinct cache keys: under TEXT affinity the two
        probes genuinely differ, so merging them would cache a wrong
        answer — the planner spends a redundant probe instead."""
        int_sql = render_probe(table, [(column, op, value)])
        float_sql = render_probe(table, [(column, op, float(value))])
        int_sig, int_params = canonicalize_probe(int_sql)
        float_sig, float_params = canonicalize_probe(float_sql)
        assert int_sig == float_sig
        assert probe_plan_key(int_sig, int_params) != \
            probe_plan_key(float_sig, float_params)

    @settings(max_examples=50, deadline=None)
    @given(table=_NAMES, column=_NAMES, op=_OPS, left=_VALUES,
           right=_VALUES)
    def test_distinct_literals_share_signature_but_not_key(self, table,
                                                           column, op,
                                                           left, right):
        """Cache keys are exactly as fine-grained as the bound values:
        equal keys iff equal signature and type-identical parameters."""
        left_sig, left_params = canonicalize_probe(
            render_probe(table, [(column, op, left)]))
        right_sig, right_params = canonicalize_probe(
            render_probe(table, [(column, op, right)]))
        if isinstance(left, str) == isinstance(right, str):
            assert left_sig == right_sig
        keys_equal = probe_plan_key(left_sig, left_params) == \
            probe_plan_key(right_sig, right_params)
        assert keys_equal == (left_sig == right_sig
                              and list(map(repr, left_params))
                              == list(map(repr, right_params)))


class TestNoStructuralCollisions:
    @settings(max_examples=100, deadline=None)
    @given(first=st.tuples(_NAMES, st.tuples(_NAMES, _OPS, _VALUES)),
           second=st.tuples(_NAMES, st.tuples(_NAMES, _OPS, _VALUES)))
    @example(first=("movie", ("movie", "<", 0)),
             second=("movie", ("movie", "<", "")))
    def test_different_structures_never_collide(self, first, second):
        """Two single-condition probes canonicalise to the same
        signature iff their structure — table, column, operator, and,
        under ``=``, literal *kind* — agrees. Only string equality
        carries COLLATE NOCASE, so ``movie < 0`` and ``movie < ''``
        share a signature (one prepared plan); their cache keys still
        differ through the parameters."""
        (t1, (c1, o1, v1)), (t2, (c2, o2, v2)) = first, second
        sig1, params1 = canonicalize_probe(render_probe(t1, [(c1, o1, v1)]))
        sig2, params2 = canonicalize_probe(render_probe(t2, [(c2, o2, v2)]))
        same_kind = isinstance(v1, str) == isinstance(v2, str)
        structurally_equal = (
            t1 == t2 and c1 == c2 and o1 == o2
            and (o1 != "=" or same_kind))
        assert (sig1 == sig2) == structurally_equal
        if not same_kind:
            assert probe_plan_key(sig1, params1) != \
                probe_plan_key(sig2, params2)

    @settings(max_examples=50, deadline=None)
    @given(table=_NAMES, conditions=_CONDITIONS)
    def test_condition_count_is_structural(self, table, conditions):
        sql = canonicalize_probe(render_probe(table, conditions))[0]
        extended = canonicalize_probe(
            render_probe(table, conditions + [("year", "=", 1)]))[0]
        assert sql != extended

    def test_big_integers_neither_collide_nor_overflow(self):
        """Integers beyond float's exact range must keep distinct cache
        keys (folding through float would merge 2^53+1 with 2^53 — a
        silently wrong cached probe answer) and must never raise on the
        probe hot path."""
        base = 2 ** 53
        a = render_probe("movie", [("mid", "=", base)])
        b = render_probe("movie", [("mid", "=", base + 1)])
        key_a = probe_plan_key(*canonicalize_probe(a))
        key_b = probe_plan_key(*canonicalize_probe(b))
        assert key_a != key_b
        # An integer literal too large even for SQLite's 64-bit INTEGER
        # binds as REAL (what SQLite itself does to oversized literals)
        # instead of overflowing.
        huge = render_probe("movie", [("mid", "=", 10 ** 100)])
        sig, params = canonicalize_probe(huge)
        assert params == (1e100,)
        probe_plan_key(sig, params)  # must not raise

    def test_identifier_literals_are_not_confused(self):
        """A quoted identifier that looks like a string literal stays
        structure; a string literal with identifier-ish content stays
        data."""
        ident_sql = 'SELECT 1 FROM "movie" WHERE "year" = 5 LIMIT 1'
        literal_sql = "SELECT 1 FROM movie WHERE year = 'year' " \
                      "COLLATE NOCASE LIMIT 1"
        ident_sig, ident_params = canonicalize_probe(ident_sql)
        literal_sig, literal_params = canonicalize_probe(literal_sql)
        assert '"year"' in ident_sig
        assert ident_params == (5,)
        assert literal_params == ("year",)
        assert "'year'" not in literal_sig


class TestExecutionEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(conditions=st.lists(
        st.tuples(st.sampled_from(["year", "revenue", "title"]),
                  _OPS, _VALUES),
        min_size=1, max_size=3))
    def test_parameterised_probe_returns_raw_probe_rows(self, conditions):
        """The planner's substitution on the hot path: for any probe
        the grammar can produce, executing ``param_sql`` with its
        extracted params equals executing the raw statement."""
        db = build_movie_db()
        sql = render_probe("movie", conditions)
        param_sql, params = canonicalize_probe(sql)
        raw = db._conn.execute(sql).fetchall()
        parameterised = db._conn.execute(param_sql, params).fetchall()
        assert raw == parameterised
