"""Tests for simplifying queries before the engines evaluate them.

Engines evaluate queries as given; rewriting is the caller's choice,
made explicit as ``engine.evaluate(simplify(parse(query)))``.
"""

import pytest

from repro.core.engines import FullSharingEngine, NoSharingEngine, RTCSharingEngine
from repro.regex.parser import parse
from repro.regex.simplify import simplify

ENGINES = [NoSharingEngine, FullSharingEngine, RTCSharingEngine]


def simplified(query):
    return simplify(parse(query))


@pytest.mark.parametrize("engine_class", ENGINES)
class TestSimplifyOption:
    def test_results_identical(self, fig1, engine_class):
        for query in ["(((b.c)+)+)+", "(b|b).c", "d.((b.c)+)?", "(c*)*.b"]:
            plain = engine_class(fig1).evaluate(query)
            rewritten = engine_class(fig1).evaluate(simplified(query))
            assert plain == rewritten, query


class TestSimplifyReducesWork:
    def test_fewer_cache_entries_for_nested_closures(self, fig1):
        # (((b.c)+)+)+ evaluates three nested RTCs as given; simplified,
        # only the innermost body's RTC is computed.
        plain = RTCSharingEngine(fig1)
        plain.evaluate("(((b.c)+)+)+")
        rewriting = RTCSharingEngine(fig1)
        rewriting.evaluate(simplified("(((b.c)+)+)+"))
        assert rewriting.rtc_cache.stats.entries < plain.rtc_cache.stats.entries

    def test_simplified_cache_key_is_canonical_spelling(self, fig1):
        engine = RTCSharingEngine(fig1)
        engine.evaluate(simplified("(((b.c)+)+)+"))
        assert "b.c" in engine.rtc_cache._entries
