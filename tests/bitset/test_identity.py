"""The kernel identity gate: bitmap evaluation == set evaluation.

Every hot path the bitmap kernel serves (NFA product BFS, label joins,
the RTC expansion) must answer *identically* when the bitmap and set
kernels are called by name -- over randomized R-MAT graphs, the
paper's generated 10-query workloads, restricted start sets, and
mid-run edge updates.  The DFA traversal, a set kernel only, is held
to the same bitmap answers.  Any divergence is a kernel bug by
definition; there is no tolerance.
"""

import random

import pytest

from repro.bitset import eval_label_sequence_bits, eval_rpq_bits, expand_rtc_bits
from repro.core.batch_unit import eval_batch_unit
from repro.core.rtc import compute_rtc
from repro.datasets.rmat import rmat_graph
from repro.regex.nfa import compile_nfa
from repro.regex.parser import parse
from repro.rpq import OpCounters, RestrictedEvaluator, eval_rpq
from repro.rpq.dfa_eval import eval_rpq_dfa
from repro.rpq.evaluate import eval_rpq_sets
from repro.rpq.label_join import eval_label_sequence, eval_label_sequence_sets
from repro.workloads import generate_workload

QUERIES = [
    "l0",
    "l0.l1",
    "(l0)+",
    "(l0)*",
    "l0?",
    "(l0|l1)+",
    "(l0.l1)+",
    "l2.(l0.l1)+",
    "(l1|l2)+.l0",
    "((l0|l1).l2)*",
]


def rmat(seed, scale=5, num_edges=120, num_labels=3):
    return rmat_graph(scale, num_edges, num_labels, seed=seed)


def both_kernels(graph, query, starts=None):
    """Run the bitmap and set product BFS on ``query``; assert identity."""
    nfa = compile_nfa(parse(query))
    bits = eval_rpq_bits(graph, nfa, starts=starts)
    assert bits == eval_rpq_sets(graph, nfa, starts=starts)
    return bits


class TestQueryIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("query", QUERIES)
    def test_nfa_and_dfa_match_sets(self, seed, query):
        graph = rmat(seed)
        bits = both_kernels(graph, query)
        assert eval_rpq_dfa(graph, query) == bits

    @pytest.mark.parametrize("query", ["(l0)+", "l0.l1", "(l0|l1)+", "l0?"])
    def test_restricted_starts_match_sets(self, query):
        graph = rmat(3)
        rng = random.Random(3)
        starts = rng.sample(sorted(graph.vertices(), key=str), 10) + [
            "not-a-vertex"
        ]
        bits = both_kernels(graph, query, starts=starts)
        assert eval_rpq_dfa(graph, query, starts=starts) == bits

    @pytest.mark.parametrize("order", ["left-right", "rare-first"])
    @pytest.mark.parametrize(
        "labels", [[], ["l0"], ["l0", "l1"], ["l2", "l0", "l1"], ["l1", "l1"]]
    )
    def test_label_sequences_match_sets(self, order, labels):
        graph = rmat(4)
        assert eval_label_sequence_bits(
            graph, labels, order=order
        ) == eval_label_sequence_sets(graph, labels, order=order)

    def test_counters_pick_the_set_kernel(self):
        """Attached counters run the set kernel: same answer, work counted."""
        graph = rmat(5)
        rtc = compute_rtc(graph.edges_with_label("l0"))
        pre_pairs = set(graph.edges_with_label("l1"))
        post = RestrictedEvaluator(parse("l2"))
        calls = [
            lambda counters: eval_rpq(graph, "l2.(l0.l1)+", counters=counters),
            lambda counters: eval_label_sequence(
                graph, ["l2", "l0", "l1"], counters=counters
            ),
            lambda counters: eval_batch_unit(
                graph, pre_pairs, rtc, "+", post, counters=counters
            ),
        ]
        for call in calls:
            counters = OpCounters()
            assert call(counters) == call(None)
            assert counters.total() > 0


class TestWorkloadIdentity:
    def test_full_generated_workload(self):
        """Paper-procedure workload: every 10-query set, both kernels."""
        graph = rmat(6, num_edges=160)
        for rpq_set in generate_workload(graph, num_sets=3, seed=6):
            for query in rpq_set.queries:
                both_kernels(graph, query)


class TestUpdateIdentity:
    def test_mid_run_updates_keep_identity(self):
        graph = rmat(7)
        rng = random.Random(7)
        for round_number in range(3):
            edges = sorted(graph.edges(), key=str)
            for edge in rng.sample(edges, min(10, len(edges))):
                graph.remove_edge(*edge)
            vertices = sorted(graph.vertices(), key=str)
            for _ in range(10):
                source, target = rng.sample(vertices, 2)
                label = rng.choice(["l0", "l1", "l2"])
                if not graph.has_edge(source, label, target):
                    graph.add_edge(source, label, target)
            for query in QUERIES[: 5 + round_number]:
                both_kernels(graph, query)


class TestRTCExpansion:
    @pytest.mark.parametrize("seed", [8, 9])
    def test_expand_bits_matches_expand(self, seed):
        graph = rmat(seed, num_edges=200)
        rtc = compute_rtc(graph.edges_with_label("l0"))
        expanded = expand_rtc_bits(rtc)
        assert expanded.to_pairs(expanded.interner) == rtc.expand()

    def test_expand_bits_via_method(self):
        graph = rmat(10)
        rtc = compute_rtc(graph.edges_with_label("l1"))
        assert rtc.expand_bits().pairs == rtc.expand()
